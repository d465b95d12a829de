import csv
import hashlib
import io
import json
import logging
import random
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from oracles import Counts, build_lexicon, oracle_load_corpus, oracle_load_entries
from reaction_lens import artifacts, corpus_io, engine
from reaction_lens.artifacts import LexiconFile, atomic_write, load_lexicon, save_lexicon
from reaction_lens.corpus_io import (
    MalformedRow,
    corpus_entries,
    corpus_rows,
    corpus_stats,
    save_corpus,
)
from reaction_lens.engine import _BLOCK, ALL_SCHEMA, CORE_SCHEMA, STAR_SCHEMA, ReactionLexicon
from reaction_lens.errors import (
    CorruptArtifact,
    SchemaMismatch,
    UnreadableSource,
    VersionMismatch,
)

HEADER = "message,like,love,wow,haha,sad,angry,thankful\n"
GOOD_JSONL = (
    '{"message": "%s", "like": 0, "love": 1, "wow": 0, "haha": 0,'
    ' "sad": 0, "angry": 0, "thankful": 0}\n'
)

# Reaction totals of a real decade-scale Facebook corpus; pins the
# percentage arithmetic against independently computed values.
REFERENCE_TOTALS = {
    "like": 528_060_209,
    "love": 12_526_942,
    "wow": 1_906_174,
    "haha": 6_524_139,
    "sad": 2_987_589,
    "angry": 1_329_552,
    "thankful": 13_637,
}


def csv_source(body: str) -> io.BytesIO:
    return io.BytesIO((HEADER + body).encode("utf-8"))


class TestLoadCsv:
    def test_direct_field_mapping(self):
        records = list(corpus_rows(csv_source('"hello",3,1,0,0,0,0,0\n')))
        assert records == [("hello", (3, 1, 0, 0, 0, 0, 0), None)]

    def test_malformed_count_skipped_stream_continues(self):
        errors: list[MalformedRow] = []
        records = list(
            corpus_rows(
                csv_source('"a",abc,0,0,0,0,0,0\n"b",1,0,0,0,0,0,0\n'),
                errors=errors,
            )
        )
        assert [message for message, _, _ in records] == ["b"]
        assert len(errors) == 1
        assert errors[0].line == 2
        assert "abc" in errors[0].reason

    def test_empty_file(self):
        errors: list[MalformedRow] = []
        assert list(corpus_rows(io.BytesIO(b""), errors=errors)) == []
        assert errors == []

    def test_header_only(self):
        assert list(corpus_rows(csv_source(""))) == []

    def test_missing_column(self):
        source = io.BytesIO(b"message,like\nx,1\n")
        with pytest.raises(SchemaMismatch):
            corpus_rows(source)

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (HEADER + "hi,1,2,0,0,0,0,0\n").encode("utf-8"))
        errors: list[MalformedRow] = []
        records = list(corpus_rows(path, "csv", errors=errors))
        assert records == [("hi", (1, 2, 0, 0, 0, 0, 0), None)]
        assert errors == []

    def test_schema_map(self):
        source = io.BytesIO(
            "Message,Likes,Loves,Wows,Hahas,Sads,Angrys,Thankfuls,Id\n"
            "hi,1,2,0,0,0,0,0,p1\n".encode("utf-8")
        )
        mapping = {
            "message": "Message", "like": "Likes", "love": "Loves",
            "wow": "Wows", "haha": "Hahas", "sad": "Sads",
            "angry": "Angrys", "thankful": "Thankfuls", "id": "Id",
        }
        records = list(corpus_rows(source, "csv", mapping))
        assert records == [("hi", (1, 2, 0, 0, 0, 0, 0), "p1")]

    def test_negative_count_is_malformed(self):
        errors: list[MalformedRow] = []
        assert list(corpus_rows(csv_source("x,-1,0,0,0,0,0,0\n"), errors=errors)) == []
        assert len(errors) == 1

    def test_short_row_is_malformed(self):
        errors: list[MalformedRow] = []
        assert list(corpus_rows(csv_source("onlymessage\n"), errors=errors)) == []
        assert len(errors) == 1

    def test_bad_encoding_is_row_level(self):
        body = HEADER.encode("utf-8") + (
            b'"a\xff",1,0,0,0,0,0,0\nb,1,0,0,0,0,0,0\n'
            b"c,1,0,\xfe,0,0,0,0\n"
            + "\u0dc1\u0dca\u200d\u0dbb\u0dd3 ok,0,1,0,0,0,0,0\n".encode("utf-8")
        )
        errors: list[MalformedRow] = []
        records = list(corpus_rows(io.BytesIO(body), errors=errors))
        assert [message for message, _, _ in records] == ["b", "\u0dc1\u0dca\u200d\u0dbb\u0dd3 ok"]
        assert [e.line for e in errors] == [2, 4]
        assert "UTF-8" in errors[0].reason
        assert "'wow'" in errors[1].reason and "UTF-8" in errors[1].reason

        jsonl = (
            b'{"message": "x\xff", "like": 1, "love": 0, "wow": 0, "haha": 0,'
            b' "sad": 0, "angry": 0, "thankful": 0}\n'
            + '{"message": "\u0dc1\u0dd4\u0db6", "like": 1, "love": 0, "wow": 0,'
            ' "haha": 0, "sad": 0, "angry": 0, "thankful": 0}\n'.encode("utf-8")
        )
        errors = []
        records = list(corpus_rows(io.BytesIO(jsonl), "jsonl", errors=errors))
        assert [message for message, _, _ in records] == ["\u0dc1\u0dd4\u0db6"]
        assert [(e.line, e.reason) for e in errors] == [(1, "invalid UTF-8 bytes")]

    def test_oversized_field_is_row_level(self):
        body = "a,1,0,0,0,0,0,0\n" + "x" * 200_000 + ",1,0,0,0,0,0,0\nb,0,1,0,0,0,0,0\n"
        errors: list[MalformedRow] = []
        records = list(corpus_rows(csv_source(body), errors=errors))
        assert [message for message, _, _ in records] == ["a", "b"]
        assert [e.line for e in errors] == [3]
        assert "field limit" in errors[0].reason

    def test_oversized_header_field_is_schema_mismatch(self):
        source = io.BytesIO(("x" * 200_000 + "," + HEADER).encode("utf-8"))
        with pytest.raises(SchemaMismatch, match="unreadable CSV header"):
            corpus_rows(source)

    def test_malformed_rows_logged_then_summarised(self, caplog):
        body = "".join(f"m{i},x,0,0,0,0,0,0\n" for i in range(12)) + "ok,1,0,0,0,0,0,0\n"
        errors: list[MalformedRow] = []
        with caplog.at_level(logging.WARNING, logger="reaction_lens.corpus_io"):
            records = list(corpus_rows(csv_source(body), errors=errors))
        assert [message for message, _, _ in records] == ["ok"]
        assert len(errors) == 12
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 6
        assert [w.split(":")[0] for w in warnings[:5]] == [
            f"skipping malformed row at line {line}" for line in range(2, 7)
        ]
        assert warnings[5] == "7 more malformed rows not shown"

    def test_quoted_newline_in_message(self):
        records = list(corpus_rows(csv_source('"line1\nline2",1,0,0,0,0,0,0\n')))
        assert [message for message, _, _ in records] == ["line1\nline2"]

    def test_multiline_messages_up_to_the_bound_parse(self):
        longest = "\n".join(f'part {i} ""q""' for i in range(corpus_io.MAX_RECORD_LINES))
        body = f'"{longest}",1,0,0,0,0,0,0\n"a\r\nb",0,1,0,0,0,0,0\nc,0,0,1,0,0,0,0\n'
        errors: list[MalformedRow] = []
        records = list(corpus_rows(csv_source(body), errors=errors))
        assert [message for message, _, _ in records] == [longest.replace('""', '"'), "a\r\nb", "c"]
        assert errors == []

    def test_quote_open_at_end_quarantines_its_opening_line(self):
        body = '"bad row,1,1,1,1,1,1,0\ngood,1,2,0,0,0,0,0\nalso good,0,1,1,0,0,0,0\n'
        errors: list[MalformedRow] = []
        records = list(corpus_rows(csv_source(body), errors=errors))
        assert [message for message, _, _ in records] == ["good", "also good"]
        assert errors == [MalformedRow(2, "quoted field still open at end of input")]

    def test_quote_open_past_the_bound_quarantines_its_opening_line(self):
        lines = [f"w{i},1,0,0,0,0,0,0\n" for i in range(corpus_io.MAX_RECORD_LINES + 5)]
        body = "first,1,0,0,0,0,0,0\n" + '"open,1,0,0,0,0,0,0\n' + "".join(lines) + '"x,1\nlast,1,0,0,0,0,0,0'
        errors: list[MalformedRow] = []
        records = list(corpus_rows(csv_source(body), errors=errors))
        assert [message for message, _, _ in records] == ["first", *(f"w{i}" for i in range(len(lines))), "last"]
        last_line = 3 + len(lines) + 1
        assert errors == [
            MalformedRow(3, f"quoted field not closed within {corpus_io.MAX_RECORD_LINES} lines"),
            MalformedRow(last_line, "quoted field still open at end of input"),
        ]

    def test_quote_open_in_header_is_schema_mismatch(self):
        source = io.BytesIO((HEADER.rstrip("\n") + ',"note\nx,1,0,0,0,0,0,0,y\n').encode("utf-8"))
        with pytest.raises(SchemaMismatch, match="quoted field still open"):
            corpus_rows(source)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(UnreadableSource):
            list(corpus_rows(tmp_path / "missing.csv"))


class TestLoadJsonl:
    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "bom.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + (GOOD_JSONL % "a" + GOOD_JSONL % "b").encode("utf-8"))
        errors: list[MalformedRow] = []
        records = list(corpus_rows(path, "jsonl", errors=errors))
        assert [message for message, _, _ in records] == ["a", "b"]
        assert errors == []

    def test_basic(self):
        line = (
            '{"message": "hi", "like": 1, "love": 0, "wow": 0, "haha": 0,'
            ' "sad": 0, "angry": 0, "thankful": 0, "extra": "ignored"}\n'
        )
        records = list(corpus_rows(io.BytesIO(line.encode("utf-8")), "jsonl"))
        assert records == [("hi", (1, 0, 0, 0, 0, 0, 0), None)]

    def test_bad_json_skipped(self):
        body = b'{oops\n{"message": "ok", "like": 0, "love": 1, "wow": 0, "haha": 0, "sad": 0, "angry": 0, "thankful": 0}\n'
        errors: list[MalformedRow] = []
        records = list(corpus_rows(io.BytesIO(body), "jsonl", errors=errors))
        assert [message for message, _, _ in records] == ["ok"]
        assert errors[0].line == 1

    def test_missing_key_skipped(self):
        body = b'{"message": "x", "like": 1}\n'
        errors: list[MalformedRow] = []
        assert list(corpus_rows(io.BytesIO(body), "jsonl", errors=errors)) == []
        assert len(errors) == 1

    def test_non_integer_count_skipped(self):
        body = b'{"message": "x", "like": 1.5, "love": 0, "wow": 0, "haha": 0, "sad": 0, "angry": 0, "thankful": 0}\n'
        errors: list[MalformedRow] = []
        assert list(corpus_rows(io.BytesIO(body), "jsonl", errors=errors)) == []
        assert len(errors) == 1

    def test_oversized_int_and_deep_nesting_are_malformed_rows(self):
        # A count past Python's int digit limit makes json.loads raise a plain
        # ValueError, and deep nesting a RecursionError; neither may end the stream.
        huge = (GOOD_JSONL % "x").replace('"like": 0', '"like": ' + "9" * 5000)
        deep = "[" * 100_000 + "\n"
        body = GOOD_JSONL % "a" + huge + GOOD_JSONL % "b" + deep + GOOD_JSONL % "c"
        errors: list[MalformedRow] = []
        records = list(corpus_rows(io.BytesIO(body.encode("utf-8")), "jsonl", errors=errors))
        assert [message for message, _, _ in records] == ["a", "b", "c"]
        assert [e.line for e in errors] == [2, 4]

    def test_escaped_surrogate_is_malformed_row(self):
        # An escaped line is ASCII, so only the decoded strings show the
        # surrogate; UTF-8 output cannot encode it.
        bad_message = GOOD_JSONL % "bad \\ud800x"
        bad_id = GOOD_JSONL.replace("}", ', "id": "b\\udc99"}') % "c"
        good_id = GOOD_JSONL.replace("}", ', "id": "d7"}') % "d"
        body = GOOD_JSONL % "a" + bad_message + GOOD_JSONL % "b" + bad_id + good_id
        errors: list[MalformedRow] = []
        records = list(corpus_rows(
            io.BytesIO(body.encode("ascii")), "jsonl", {"id": "id"}, errors,
        ))
        assert [(m, record_id) for m, _, record_id in records] == [
            ("a", None), ("b", None), ("d", "d7"),
        ]
        assert [e.line for e in errors] == [2, 4]
        assert all("surrogate" in e.reason for e in errors)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            corpus_rows(io.BytesIO(b""), "xml")


def first_rejected(values) -> str | None:
    """The first reaction whose value is no count: negative, not an int, or a bool."""
    for name, value in zip(ALL_SCHEMA.reactions, values):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            return name
    return None


def as_count(text: str):
    """A CSV cell as a typed value: its int value, or the text."""
    try:
        return int(text)
    except ValueError:
        return text


# A byte that no UTF-8 sequence contains, as surrogateescape reads it
# (U+DC00 + byte); encoding with the same handler writes the byte back.
BAD_BYTE = st.sampled_from([0xC0, 0xC1, *range(0xF5, 0x100)]).map(lambda b: chr(0xDC00 + b))
COUNT = st.one_of(st.integers(-3, 3), st.integers(0, 10**30))
CSV_JUNK = st.one_of(
    st.sampled_from(["", " 7 ", "+3", "1_000", "-0", "1.5", "1e3", "0x1", "abc", "\u0663"]),
    st.text(st.one_of(st.sampled_from("0123456789-+ .e"), BAD_BYTE), max_size=4),
)
JSON_JUNK = st.one_of(st.booleans(), st.floats(), st.none(), st.text(max_size=3))
MESSAGE = st.text(st.one_of(st.sampled_from('ab ,"\n\u0dc1'), BAD_BYTE), max_size=6)
# Low surrogates only: an escaped high-low pair would decode to one valid character.
LONE_SURROGATE = st.integers(0xDC00, 0xDFFF).map(chr)
JSON_MESSAGE = st.text(st.one_of(st.sampled_from("ab \u0dc1"), LONE_SURROGATE), max_size=6)


def rows_of(message, junk):
    """Rows of a message and seven counts, a few of them replaced by junk."""
    def row(message, counts, replacements):
        for i, value in replacements:
            counts[i] = value
        return message, counts

    return st.lists(st.builds(
        row, message, st.lists(COUNT, min_size=7, max_size=7),
        st.lists(st.tuples(st.integers(0, 6), junk), max_size=2),
    ), max_size=12)


class TestIngestMatchesConstructor:
    """Ingest checks counts a block at a time; it must keep exactly the rows
    whose seven counts are all counts by ``first_rejected``'s rule (a typed
    check, one value at a time), as plain tuples, and name the column of
    each row it drops."""

    @settings(max_examples=150, deadline=None)
    @given(rows_of(MESSAGE, CSV_JUNK))
    def test_csv(self, rows):
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(("message",) + ALL_SCHEMA.reactions)
        writer.writerows([message, *values] for message, values in rows)
        errors: list[MalformedRow] = []
        source = io.BytesIO(text.getvalue().encode("utf-8", "surrogateescape"))
        records = list(corpus_rows(source, errors=errors))

        kept, reasons = [], []
        for message, cells in rows:
            values = [as_count(str(cell)) for cell in cells]
            if any(0xDC80 <= ord(c) <= 0xDCFF for c in message):
                reasons.append("message column: ")
            elif (name := first_rejected(values)) is not None:
                reasons.append(f"column {name!r}: ")
            else:
                kept.append((message, tuple(values), None))
        assert records == kept
        assert all(type(counts) is tuple for _, counts, _ in records)
        assert len(errors) == len(reasons)
        for error, prefix in zip(errors, reasons):
            assert error.reason.startswith(prefix), (error.reason, prefix)

    @settings(max_examples=150, deadline=None)
    @given(rows_of(JSON_MESSAGE, JSON_JUNK))
    def test_jsonl(self, rows):
        lines = [
            json.dumps({"message": message, **dict(zip(ALL_SCHEMA.reactions, values))})
            for message, values in rows
        ]
        errors: list[MalformedRow] = []
        source = io.BytesIO("".join(line + "\n" for line in lines).encode("ascii"))
        records = list(corpus_rows(source, "jsonl", errors=errors))

        kept, reasons = [], []
        for message, values in rows:
            if any(0xDC00 <= ord(c) <= 0xDFFF for c in message):
                reasons.append("key 'message': ")
            elif (name := first_rejected(values)) is not None:
                reasons.append(f"key {name!r}: ")
            else:
                kept.append((message, tuple(values), None))
        assert records == kept
        assert all(type(counts) is tuple for _, counts, _ in records)
        assert len(errors) == len(reasons)
        for error, prefix in zip(errors, reasons):
            assert error.reason.startswith(prefix), (error.reason, prefix)


BLOCK = _BLOCK
# Row positions at and around the first two block boundaries, and one
# mid-block.
EDGE_ROWS = (0, 1, BLOCK // 2, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1)

CSV_KINDS = (
    "short", "not_int", "negative", "bad_bytes_message", "bad_bytes_count", "oversized",
    "blank", "spaces", "multiline", "quoted", "no_id", "extra", "open_quote",
)
JSONL_KINDS = (
    "blank", "not_object", "missing_key", "bool", "negative", "float", "string_count",
    "escaped_surrogate", "escaped_surrogate_id", "bad_bytes", "bad_json", "int_id", "no_id",
)


@st.composite
def layouts(draw, row_kinds):
    """(rows, rng, {row: kind}): a kind or none at each edge row, a few more at random rows."""
    n_rows = draw(st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1]))
    edges = draw(st.lists(st.sampled_from((None,) + row_kinds),
                          min_size=len(EDGE_ROWS), max_size=len(EDGE_ROWS)))
    kinds = {row: kind for row, kind in zip(EDGE_ROWS, edges) if kind and row < n_rows}
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    for _ in range(rng.randint(0, 3)):
        kinds[rng.randrange(n_rows)] = rng.choice(row_kinds)
    return n_rows, rng, kinds


@contextmanager
def logged_warnings():
    """The messages ``reaction_lens.corpus_io`` logs inside the block."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("reaction_lens.corpus_io")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def csv_row(kind, rng, index):
    """One CSV data row (a dict of logical field -> cell text) or raw text."""
    message = " ".join(rng.choice(("ab", "c", "ශු", "x9")) for _ in range(rng.randint(1, 4)))
    counts = [str(rng.randint(0, 9)) for _ in range(7)]
    if kind == "quoted":
        message += rng.choice((', "q"', ",", '"'))
    elif kind == "multiline":
        message += "\n" + rng.choice(("second", '"quoted" line', "\r\nthird"))
    elif kind == "not_int":
        counts[rng.randrange(7)] = rng.choice(("x", "1.5", ""))
    elif kind == "negative":
        counts[rng.randrange(7)] = rng.choice(("-1", "-3"))
    elif kind == "bad_bytes_message":
        message += chr(0xDCFF)
    elif kind == "bad_bytes_count":
        counts[rng.randrange(7)] = "1" + chr(0xDCC0)
    elif kind == "oversized":
        message = "y" * (csv.field_size_limit() + 1)
    return {"message": message, **dict(zip(ALL_SCHEMA.reactions, counts)), "id": f"r{index}"}


def csv_corpus(n_rows, rng, kinds, remap=False, terminator="\n", bom=False):
    """(bytes, schema_map) of a CSV corpus with ``kinds[row]`` rows; ``remap``
    renames and shuffles the columns and adds a last ``id`` column."""
    fields = ["message", *ALL_SCHEMA.reactions]
    order = fields[:]
    if remap:
        rng.shuffle(order)
        fields.append("id")
        order.append("id")  # last, so that a row can end before it
    names = {f: (f"col_{f}" if remap else f) for f in fields}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=terminator)
    writer.writerow([names[f] for f in order])
    for i in range(n_rows):
        kind = kinds.get(i)
        if kind == "blank":
            out.write(terminator)
        elif kind == "spaces":
            out.write("  " + terminator)
        elif kind == "open_quote":
            out.write('"open row,1,1,1,1,1,1,0' + terminator)
        else:
            row = csv_row(kind, rng, i)
            cells = [row[f] for f in order]
            if kind == "short":
                cells = cells[:rng.randint(1, len(cells) - 1)]
            elif kind == "no_id" and remap:
                cells.pop()
            elif kind == "extra":
                cells += ["extra", "cells"]
            writer.writerow(cells)
    data = out.getvalue().encode("utf-8", "surrogateescape")
    return (b"\xef\xbb\xbf" if bom else b"") + data, ({f: names[f] for f in fields} if remap else None)


@st.composite
def csv_corpora(draw):
    n_rows, rng, kinds = draw(layouts(CSV_KINDS))
    return csv_corpus(n_rows, rng, kinds, draw(st.booleans()),
                      draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans()))


def jsonl_line(kind, rng, i):
    obj = {
        "message": " ".join(rng.choice(("ab", "c", "ශු")) for _ in range(rng.randint(1, 4))),
        **{name: rng.randint(0, 9) for name in ALL_SCHEMA.reactions},
        "id": f"r{i}",
    }
    name = rng.choice(ALL_SCHEMA.reactions)
    if kind == "blank":
        return "   "
    if kind == "not_object":
        return rng.choice(("[1, 2]", '"text"', "5", "null"))
    if kind == "bad_json":
        return '{"message": "x", "like": '
    if kind == "missing_key":
        del obj[rng.choice(("message", name))]
    elif kind == "bool":
        obj[name] = True
    elif kind == "negative":
        obj[name] = -1
    elif kind == "float":
        obj[name] = 1.0
    elif kind == "string_count":
        obj[name] = "3"
    elif kind == "int_id":
        obj["id"] = i
    elif kind == "no_id":
        del obj["id"]
    line = json.dumps(obj, ensure_ascii=False)
    if kind == "escaped_surrogate":
        line = line.replace('"message": "', '"message": "\\udc80', 1)
    elif kind == "escaped_surrogate_id":
        line = line.replace('"id": "', '"id": "\\ud800', 1)
    elif kind == "bad_bytes":
        line = line.replace('"message": "', '"message": "\udcff', 1)
    return line


def jsonl_corpus(n_rows, rng, kinds, bom=False):
    text = "".join(jsonl_line(kinds.get(i), rng, i) + "\n" for i in range(n_rows))
    return (b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8", "surrogateescape")


@st.composite
def jsonl_corpora(draw):
    n_rows, rng, kinds = draw(layouts(JSONL_KINDS))
    data = jsonl_corpus(n_rows, rng, kinds, draw(st.booleans()))
    return data, draw(st.sampled_from([None, {"id": "id"}]))


class TestBlockReaderMatchesOracle:
    """The block readers give the per-row readers' records, malformed rows
    (line, reason, order) and log lines, whichever blocks fail their checks."""

    def check(self, data, schema_map, fmt):
        errors, oracle_errors, entry_errors = [], [], []
        with logged_warnings() as logged:
            rows = list(corpus_rows(io.BytesIO(data), fmt, schema_map, errors))
        with logged_warnings() as oracle_logged:
            expected = oracle_load_corpus(io.BytesIO(data), fmt, schema_map, oracle_errors)
        entries = list(corpus_entries(io.BytesIO(data), fmt, schema_map, entry_errors))
        assert rows == expected
        assert all(type(counts) is tuple for _, counts, _ in rows)
        assert errors == oracle_errors == entry_errors
        assert logged == oracle_logged
        assert entries == [(message.split(), counts) for message, counts, _ in expected]
        assert all(type(counts) is tuple for _, counts in entries)

    @settings(max_examples=60, deadline=None)
    @given(csv_corpora())
    def test_csv(self, corpus):
        self.check(*corpus, "csv")

    @settings(max_examples=60, deadline=None)
    @given(jsonl_corpora())
    def test_jsonl(self, corpus):
        self.check(*corpus, "jsonl")

    @pytest.mark.parametrize("kind", CSV_KINDS)
    def test_csv_row_kind_alone_at_each_edge(self, kind):
        for row in EDGE_ROWS:
            corpus = csv_corpus(BLOCK + 2, random.Random(row), {row: kind}, remap=row % 2 == 1)
            self.check(*corpus, "csv")

    @pytest.mark.parametrize("kind", JSONL_KINDS)
    def test_jsonl_row_kind_alone_at_each_edge(self, kind):
        for row in EDGE_ROWS:
            data = jsonl_corpus(BLOCK + 2, random.Random(row), {row: kind})
            self.check(data, {"id": "id"} if row % 2 else None, "jsonl")

    def test_dense_multiline_records_with_rows_that_stop_a_block(self):
        # Whole multi-line records are parsed with their block; a record the
        # parser rejects or one that crosses the block's end is read alone.
        for stopper in ("oversized", "open_quote", "short"):
            rng = random.Random(stopper)
            kinds = {row: "multiline" for row in range(0, 3 * BLOCK, 7)}
            kinds.update({BLOCK - 3: stopper, BLOCK + 40: stopper})
            for row in (BLOCK - 1, 2 * BLOCK - 2):
                kinds[row] = "multiline"
            self.check(*csv_corpus(3 * BLOCK, rng, kinds, remap=True), "csv")

    def test_whole_records_stay_within_the_line_bound(self):
        assert _BLOCK < corpus_io.MAX_RECORD_LINES

    def test_oversized_field_mid_block_and_bad_rows_at_block_edges(self):
        rows = [f"m{i},1,0,0,0,0,0,0\n" for i in range(2 * BLOCK + 1)]
        rows[0] = "first,x,0,0,0,0,0,0\n"
        rows[BLOCK - 1] = "last,1,-1,0,0,0,0,0\n"
        rows[BLOCK // 2] = "z" * (csv.field_size_limit() + 1) + ",1,0,0,0,0,0,0\n"
        rows[BLOCK] = "short,1\n"
        data = (HEADER + "".join(rows)).encode("utf-8")
        self.check(data, None, "csv")
        errors = []
        list(corpus_rows(io.BytesIO(data), errors=errors))
        assert [e.line for e in errors] == [2, BLOCK // 2 + 2, BLOCK + 1, BLOCK + 2]

    def check_header(self, data):
        """``check``, or the same SchemaMismatch from both readers; its message."""
        try:
            list(corpus_rows(io.BytesIO(data)))
        except SchemaMismatch as exc:
            with pytest.raises(SchemaMismatch) as expected:
                oracle_load_corpus(io.BytesIO(data))
            assert str(exc) == str(expected.value)
            return str(exc)
        self.check(data, None, "csv")
        return None

    def test_csv_header_variants(self):
        bad_rows = "a,1,0,0,0,0,0,0\nb,x,0,0,0,0,0,0\n\"c\nd\",0,1,0,0,0,0,0\ne,1\n"
        # A last, unused column name quoted across two lines: data starts on line 3.
        data = (HEADER.rstrip("\n") + ',"no\nte"\n' + bad_rows).encode("utf-8")
        assert self.check_header(data) is None
        errors = []
        list(corpus_rows(io.BytesIO(data), errors=errors))
        assert [e.line for e in errors] == [4, 7]
        # Still open after MAX_RECORD_LINES lines, and at the end of the input.
        open_header = HEADER.rstrip("\n") + ',"note\n'
        data = (open_header + "x,1,0,0,0,0,0,0\n" * (corpus_io.MAX_RECORD_LINES + 5)).encode("utf-8")
        assert self.check_header(data) == (
            f"unreadable CSV header: quoted field not closed within {corpus_io.MAX_RECORD_LINES} lines"
        )
        data = (open_header + "x,1,0,0,0,0,0,0\n" * 3).encode("utf-8")
        assert self.check_header(data) == "unreadable CSV header: quoted field still open at end of input"
        # A blank first line is a header without columns.
        assert self.check_header(("\n" + HEADER + bad_rows).encode("utf-8")) == (
            "missing column 'message' in CSV header"
        )
        # A header alone, with and without a final newline.
        for text in (HEADER, HEADER.rstrip("\n")):
            assert self.check_header(text.encode("utf-8")) is None
            assert list(corpus_rows(io.BytesIO(text.encode("utf-8")))) == []

    def test_a_record_closed_on_the_line_past_the_bound_is_quarantined(self):
        # A record re-parsed from its first line gets one line past the bound, to tell
        # the two open-quote reasons apart; a record that closes on it is still open.
        bound = corpus_io.MAX_RECORD_LINES
        inner = "".join(f"w{i},1,0,0,0,0,0,0\n" for i in range(bound - 1))
        record = f'"open,1,0,0,0,0,0,0\n{inner}last",0,1,0,0,0,0,0\n'
        for before in (0, BLOCK // 2, BLOCK - 1):
            good = "".join(f"g{i},0,0,1,0,0,0,0\n" for i in range(before))
            data = (HEADER + good + record + "end,1,1,0,0,0,0,0\n").encode("utf-8")
            self.check(data, None, "csv")
            errors = []
            list(corpus_rows(io.BytesIO(data), errors=errors))
            assert errors == [MalformedRow(before + 2, f"quoted field not closed within {bound} lines")]
        data = (HEADER.rstrip("\n") + ',"note\n' + inner + 'x",1\n').encode("utf-8")
        assert self.check_header(data) == f"unreadable CSV header: quoted field not closed within {bound} lines"

    def test_every_block_boundary_inside_a_two_line_record(self):
        # Blocks start on line 1 (the header) and hold BLOCK lines, and a
        # record open at a block's end is parsed again with the lines after
        # it up to MAX_RECORD_LINES + 1 lines.  BLOCK is even and that count
        # odd, so with every record two lines long from line 2, each block
        # and each re-parse ends on a record's first line.
        assert BLOCK % 2 == 0 and (corpus_io.MAX_RECORD_LINES + 1) % 2 == 1
        rows = [f'"m{i}\nline two",{i % 5},0,1,0,0,0,0\n' for i in range(3 * corpus_io.MAX_RECORD_LINES)]
        for i in range(0, len(rows), 97):
            rows[i] = rows[i].replace(",0,1,", ",0,-1,")
        self.check((HEADER + "".join(rows)).encode("utf-8"), None, "csv")


class TestCorpusStats:
    def test_reference_totals_and_percentages(self):
        # Hand-verified: like share of the grand total, love share of the
        # five-reaction core total, and so on.
        rows = [
            Counts(**{name: REFERENCE_TOTALS[name]}) for name in ALL_SCHEMA.reactions
        ]
        stats = corpus_stats(rows)
        assert stats.totals == REFERENCE_TOTALS
        assert stats.rows == 7
        assert stats.all_percent["like"] == pytest.approx(95.43, abs=0.005)
        assert stats.all_percent["love"] == pytest.approx(2.26, abs=0.005)
        assert stats.all_percent["haha"] == pytest.approx(1.18, abs=0.005)
        assert stats.all_percent["thankful"] == pytest.approx(0.002, abs=0.0005)
        # Core column: love share of the five-reaction total.
        assert stats.core_percent["love"] == pytest.approx(49.56, abs=0.005)
        assert stats.core_percent["wow"] == pytest.approx(7.54, abs=0.005)
        assert stats.core_percent["haha"] == pytest.approx(25.81, abs=0.005)
        assert stats.core_percent["sad"] == pytest.approx(11.82, abs=0.005)
        assert stats.core_percent["angry"] == pytest.approx(5.26, abs=0.005)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**53 // 700), min_size=7, max_size=7))
    def test_percentages_match_float_formula_below_2_53(self, counts):
        # With 100 * grand < 2**53 every total converts to a float exactly,
        # so 100 * total / grand rounds once, as 100.0 * total / grand does.
        stats = corpus_stats([tuple(counts)])
        totals = stats.totals
        for percent, names in ((stats.all_percent, ALL_SCHEMA.reactions),
                               (stats.core_percent, CORE_SCHEMA.reactions)):
            grand = sum(totals[name] for name in names)
            if grand == 0:
                assert percent is None
                continue
            assert percent == {name: 100.0 * totals[name] / grand for name in names}

    def test_percentages_sum_to_100(self):
        rng = random.Random(1)
        rows = [tuple(rng.randint(0, 9) for _ in range(7)) for _ in range(500)]
        stats = corpus_stats(rows)
        assert sum(stats.all_percent.values()) == pytest.approx(100.0, abs=0.01)
        assert sum(stats.core_percent.values()) == pytest.approx(100.0, abs=0.01)

    def test_single_love_post(self):
        stats = corpus_stats([Counts(love=1)])
        assert stats.core_percent["love"] == 100.0
        assert all(
            stats.core_percent[name] == 0.0 for name in CORE_SCHEMA.reactions if name != "love"
        )

    def test_empty_corpus(self):
        stats = corpus_stats([])
        assert stats.rows == 0
        assert all(v == 0 for v in stats.totals.values())
        assert stats.all_percent is None
        assert stats.core_percent is None

    def test_matches_bruteforce_second_pass(self):
        rng = random.Random(9)
        rows = [tuple(rng.randint(0, 99) for _ in range(7)) for _ in range(300)]
        stats = corpus_stats(rows)
        for i, name in enumerate(ALL_SCHEMA.reactions):
            assert stats.totals[name] == sum(row[i] for row in rows)


# Entry words: any text without tab, CR, LF or lone surrogates, with
# '#'-leading and whitespace-only words drawn on purpose.
_TEXT = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"), min_size=1
)
WORDS = _TEXT | _TEXT.map("#".__add__) | st.text(" \x0b\x0c\x1c\x85\xa0\u2028\u3000", min_size=1)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308, -9.999999999999999e307]
)


@st.composite
def lexicons(draw):
    schema = draw(st.sampled_from([CORE_SCHEMA, ALL_SCHEMA, STAR_SCHEMA]))
    vectors = st.tuples(*[FLOATS] * schema.size)
    entries = draw(st.dictionaries(WORDS, st.tuples(vectors, st.integers(0, 10**12)), max_size=12))
    train_mean = draw(st.none() | vectors)
    return ReactionLexicon(schema, entries, draw(st.integers(0, 10**12)), train_mean)


MUTATIONS = (
    "none", "missing field", "extra field", "count", "number", "blank line",
    "two bad lines", "duplicate word",
)
# Field texts that int and float each accept or reject in their own ways.
ODD_NUMBERS = ("nan", "inf", "-inf", " 1.5", "1_0", "x", "", " 7", "1.5", "-0")


def _break_line(line, data, kind=None):
    """``line`` with one field dropped, one added, or one number replaced."""
    fields = line.split("\t")
    kind = kind or data.draw(st.sampled_from(["missing field", "extra field", "count", "number"]))
    if kind == "missing field":
        fields.pop()
    elif kind == "extra field":
        fields.append("0")
    else:
        k = 1 if kind == "count" else data.draw(st.integers(2, len(fields) - 1))
        fields[k] = data.draw(st.sampled_from(ODD_NUMBERS))
    return "\t".join(fields)


def _mutated_artifact(lex, data):
    """``lex`` saved with its entry lines broken as a drawn ``MUTATIONS`` kind
    says, then re-signed so that loading gets past the checksum: the
    artifact's text and its body."""
    sink = io.StringIO()
    save_lexicon(lex, sink)
    lines = sink.getvalue().split("\n")
    sha = next(i for i, line in enumerate(lines) if line.startswith("#sha256\t"))
    head, entry_lines = lines[:sha], lines[sha + 1:-1]
    kind = data.draw(st.sampled_from(MUTATIONS))
    if kind == "blank line":
        entry_lines.insert(data.draw(st.integers(0, len(entry_lines))), "")
    elif kind != "none" and entry_lines:
        i = data.draw(st.integers(0, len(entry_lines) - 1))
        if kind == "duplicate word":
            j = data.draw(st.integers(0, len(entry_lines) - 1))
            word = entry_lines[i].split("\t")[0]
            entry_lines.append(word + "\t" + entry_lines[j].split("\t", 1)[1])
        elif kind == "two bad lines":
            for k in range(i, min(i + 2, len(entry_lines))):
                entry_lines[k] = _break_line(entry_lines[k], data)
        else:
            entry_lines[i] = _break_line(entry_lines[i], data, kind)
    body = "".join(line + "\n" for line in entry_lines)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return "".join(line + "\n" for line in head) + f"#sha256\t{digest}\n" + body, body


def _parses(parse, text):
    try:
        parse(text)
    except ValueError:
        return False
    return True


# Texts that int and float accept or reject for more than their ASCII digits:
# other scripts' digits, signs, exponents, underscores, whitespace, length.
SHAPE_TEXTS = ODD_NUMBERS + (
    "0123456789", "-0.5", "+9", "1e-05", "1E+5", "1e999", "0x1f", "1.2.3",
    "\u0661\u0662", "\u0663.\u0665", "\u0de7\u0de8", "\u0de9.\u0dea",
    "1_2_3", "1__0", "_1", "1_", "1._5", " 12 ", "\u3000-7\u3000", "\x0b3.5\n",
    "9" * 5000, "1" * 5000 + ".5",
)


@pytest.mark.parametrize("text", SHAPE_TEXTS, ids=range(len(SHAPE_TEXTS)))
def test_a_number_parses_exactly_when_its_shape_does(text):
    # The premise of LexiconFile's check: each distinct shape is parsed once for all
    # the fields that share it.
    shape = text.encode("utf-8").translate(artifacts._SHAPE).decode("utf-8")
    for parse in (int, float):
        assert _parses(parse, shape) == _parses(parse, text), (parse, text)


class TestLexiconPersistence:
    def test_round_trip_identity(self, tmp_path):
        lex = build_lexicon(
            [({"a"}, (1, 0, 0, 0, 0)), ({"b", "a"}, (0, 0.5, 0.5, 0, 0))],
            CORE_SCHEMA,
        )
        path = tmp_path / "core.lex"
        save_lexicon(lex, path)
        loaded = load_lexicon(path)
        assert loaded == lex

    @settings(max_examples=150, deadline=None)
    @given(lex=lexicons(), manifest=st.none() | st.text("0123456789abcdef", min_size=1))
    def test_round_trip_random_bitexact(self, tmp_path_factory, lex, manifest):
        path = tmp_path_factory.getbasetemp() / "round_trip.lex"
        save_lexicon(lex._replace(meta={"manifest": manifest} if manifest else {}), path)
        loaded = load_lexicon(path)
        assert loaded == lex  # bit-exact vectors and counts
        again = io.StringIO()
        save_lexicon(loaded, again)  # the run id comes back in meta
        assert again.getvalue().encode("utf-8") == path.read_bytes()

    # No shrink phase: shrinking a failing lexicon here took minutes and
    # hundreds of MiB; the first failing example is reported as drawn.
    @settings(
        max_examples=300, deadline=None,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    @given(lex=lexicons(), data=st.data())
    def test_blocked_parse_matches_per_line_oracle(self, lex, data):
        text, body = _mutated_artifact(lex, data)
        block = data.draw(st.sampled_from([1, 2, 3, _BLOCK]))
        with mock.patch.object(engine, "_BLOCK", block):
            try:
                expected = oracle_load_entries(body, lex.schema)
            except CorruptArtifact as exc:
                with pytest.raises(CorruptArtifact) as info:
                    load_lexicon(io.StringIO(text))
                assert str(info.value) == str(exc)
            else:
                entries = load_lexicon(io.StringIO(text)).entries
                assert list(entries) == list(expected)
                # repr tells floats apart bit for bit, nan and the sign of zero too.
                assert repr(list(entries.values())) == repr(list(expected.values()))

    # The mutated lexicons of the test above; no shrink phase either.
    @settings(
        max_examples=300, deadline=None,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    @given(lex=lexicons(), data=st.data())
    def test_subset_parse_matches_per_line_oracle(self, lex, data):
        text, body = _mutated_artifact(lex, data)
        in_file = [line.split("\t")[0] for line in body.split("\n") if line]
        # Words of the file, a broken line's among them or not, and absent words.
        words = (st.sampled_from(in_file) if in_file else st.nothing()) | WORDS
        word_sets = data.draw(st.lists(st.lists(words, max_size=6), min_size=1, max_size=3))
        block = data.draw(st.sampled_from([1, 2, 3, _BLOCK]))
        with mock.patch.object(engine, "_BLOCK", block):
            try:
                expected = oracle_load_entries(body, lex.schema)
            except CorruptArtifact as exc:
                with pytest.raises(CorruptArtifact) as info:
                    LexiconFile(io.StringIO(text)).parse(word_sets[0])
                assert str(info.value) == str(exc)
                return
            opened = LexiconFile(io.StringIO(text))
            asked = set()
            for word_set in word_sets:  # as chunks ask, each keeping what came before
                opened.parse(word_set)
                asked.update(word_set)
                entries = opened.lexicon.entries
                present = sorted(asked.intersection(expected))
                assert sorted(entries) == present
                # repr tells floats apart bit for bit, nan and the sign of zero too.
                assert repr([entries[w] for w in present]) == repr([expected[w] for w in present])
            opened.parse(expected)  # every word of the file
            everything = opened.lexicon.entries
            assert sorted(everything) == sorted(expected)
            assert repr([everything[w] for w in expected]) == repr(list(expected.values()))
            whole = LexiconFile(io.StringIO(text))
            whole.parse(word_sets[0])
            whole.parse_all()  # the lines of every word, parsed or not
            assert sorted(whole.lexicon.entries) == sorted(expected)
            assert repr([whole.lexicon.entries[w] for w in expected]) == repr(list(expected.values()))

    @pytest.mark.parametrize("declared", [1, 3])
    def test_declared_entry_count_is_checked_on_open(self, declared):
        sink = io.StringIO()
        save_lexicon(build_lexicon([({"a", "b"}, (1, 0, 0, 0, 0))], CORE_SCHEMA), sink)
        text = sink.getvalue().replace("#entries\t2\n", f"#entries\t{declared}\n")
        for read in (load_lexicon, LexiconFile):
            with pytest.raises(CorruptArtifact, match=f"declares {declared} entries but contains 2"):
                read(io.StringIO(text))

    def test_empty_lexicon_round_trip(self, tmp_path):
        lex = build_lexicon([], CORE_SCHEMA)
        path = tmp_path / "empty.lex"
        save_lexicon(lex, path)
        loaded = load_lexicon(path)
        assert loaded.entries == {}
        assert loaded.train_mean is None
        assert loaded == lex

    def test_header_line(self, tmp_path):
        path = tmp_path / "l"
        save_lexicon(build_lexicon([({"a"}, (1, 0, 0, 0, 0))], CORE_SCHEMA), path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith("#reaction-lexicon v1")

    def test_schema_mismatch_on_load(self, tmp_path):
        # A schema no model has is a schema error, not a corrupt artifact.
        lex = build_lexicon([({"a"}, tuple([1.0] + [0.0] * 6))], ALL_SCHEMA)
        path = tmp_path / "all.lex"
        save_lexicon(lex, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("#schema\tall\t", "#schema\tall9\t"), encoding="utf-8")
        with pytest.raises(SchemaMismatch, match="unknown schema 'all9' in artifact"):
            load_lexicon(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v2.lex"
        path.write_text("#reaction-lexicon v2\n", encoding="utf-8")
        with pytest.raises(VersionMismatch):
            load_lexicon(path)

    def test_not_an_artifact(self, tmp_path):
        path = tmp_path / "junk"
        path.write_text("hello\n", encoding="utf-8")
        with pytest.raises(CorruptArtifact):
            load_lexicon(path)

    def test_checksum_detects_corruption(self, tmp_path):
        lex = build_lexicon([({"aa"}, (1, 0, 0, 0, 0))], CORE_SCHEMA)
        path = tmp_path / "c.lex"
        save_lexicon(lex, path)
        text = path.read_text(encoding="utf-8").replace("aa\t", "ab\t")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorruptArtifact):
            load_lexicon(path)

    def test_checksum_header_without_value_is_corrupt(self):
        text = "#reaction-lexicon v1\n#schema\tcore\tlove,wow,haha,sad,angry\n#entries\t0\n"
        with pytest.raises(CorruptArtifact, match="checksum"):
            load_lexicon(io.StringIO(text + "#mean\t-\n#sha256\n"))

    def test_manifest_id_preserved_in_meta(self, tmp_path):
        lex = build_lexicon([({"a"}, (1, 0, 0, 0, 0))], CORE_SCHEMA)
        path = tmp_path / "m.lex"
        save_lexicon(lex._replace(meta={"manifest": "abc123"}), path)
        loaded = load_lexicon(path)
        assert loaded.meta["manifest"] == "abc123"
        assert loaded == lex  # meta does not affect equality

    def test_empty_manifest_line_saves_back(self):
        lex = build_lexicon([({"a"}, (1, 0, 0, 0, 0))], CORE_SCHEMA)
        sink = io.StringIO()
        save_lexicon(lex._replace(meta={"manifest": ""}), sink)
        assert "\n#manifest\t\n" in sink.getvalue()
        again = io.StringIO()
        save_lexicon(load_lexicon(io.StringIO(sink.getvalue())), again)
        assert again.getvalue() == sink.getvalue()

    @pytest.mark.parametrize("header", ["#manifest\n", "#manifest\tabc\textra\n"])
    @pytest.mark.parametrize("load", [load_lexicon, LexiconFile], ids=["load_lexicon", "LexiconFile"])
    def test_manifest_header_carries_exactly_one_value(self, header, load):
        # Neither form could save back to its own bytes: no value, or a value beside another.
        lex = build_lexicon([({"a"}, (1, 0, 0, 0, 0))], CORE_SCHEMA)
        sink = io.StringIO()
        save_lexicon(lex._replace(meta={"manifest": "abc"}), sink)
        text = sink.getvalue().replace("#manifest\tabc\n", header)
        assert header in text
        with pytest.raises(CorruptArtifact, match="malformed #manifest header"):
            load(io.StringIO(text))


class TestSaveCorpus:
    RECORDS = [
        ("ආයුබෝවන් hi", Counts(like=3, love=1), "p1"),
        ('say "x", y', Counts(sad=2, thankful=1), None),
    ]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_round_trip(self, tmp_path, fmt):
        path = tmp_path / f"c.{fmt}"
        assert save_corpus(self.RECORDS, path, fmt) == 2
        loaded = list(corpus_rows(path, fmt, {"id": "id"}))
        assert [(m, c) for m, c, _ in loaded] == [(m, c) for m, c, _ in self.RECORDS]
        # CSV has no id column; JSONL keeps the id of the record that has one.
        expected_ids = ["p1", None] if fmt == "jsonl" else [None, None]
        assert [record_id for _, _, record_id in loaded] == expected_ids

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_plain_triples_write_as_records_do(self, fmt):
        # Named count tuples (RECORDS) write as plain ones do.
        records, triples = io.StringIO(), io.StringIO()
        assert save_corpus(self.RECORDS, records, fmt) == 2
        assert save_corpus([(m, tuple(c), i) for m, c, i in self.RECORDS], triples, fmt) == 2
        assert triples.getvalue() == records.getvalue()

    def test_jsonl_id_only_when_present(self):
        sink = io.StringIO()
        save_corpus(self.RECORDS, sink, "jsonl")
        first, second = sink.getvalue().splitlines()
        assert first.endswith('"thankful": 0, "id": "p1"}')
        assert second.endswith('"thankful": 1}')

    def test_unknown_format_writes_nothing(self, tmp_path):
        path = tmp_path / "c.txt"
        with pytest.raises(ValueError):
            save_corpus(self.RECORDS, path, "xml")
        assert list(tmp_path.iterdir()) == []


class TestAtomicWrite:
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.csv"
        save_corpus(TestSaveCorpus.RECORDS, path)
        before = path.read_bytes()

        def failing():
            yield from TestSaveCorpus.RECORDS
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            save_corpus(failing(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_write_creates_nothing(self, tmp_path):
        path = tmp_path / "new.txt"
        with pytest.raises(KeyError):
            with atomic_write(path) as fh:
                fh.write("partial")
                raise KeyError("boom")
        assert list(tmp_path.iterdir()) == []


class TestStreaming:
    def test_flat_memory_over_large_file(self, tmp_path):
        # Python-heap high-water mark while consuming a wide file stays
        # bounded by a constant, not by corpus length.
        path = tmp_path / "big.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(HEADER)
            row = '"' + ("word " * 40).strip() + '",5,1,2,3,1,0,0\n'
            for _ in range(200_000):
                fh.write(row)
        tracemalloc.start()
        count = 0
        for record in corpus_rows(path):
            count += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 200_000
        assert peak < 32 * 1024 * 1024
