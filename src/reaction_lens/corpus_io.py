"""Streaming corpus ingestion, corpus writing and corpus accounting.

``corpus_rows`` yields one ``(message, counts, record_id)`` triple per good
row and ``corpus_entries`` one ``(words, counts)`` pair (``counts``: seven
ints in ``ALL_SCHEMA`` order), both from one reader per format that holds a
block of ``engine._BLOCK`` lines at a time.  CSV has one parse path,
``_parse``: the header, each block and a record still open at a block's end
(parsed again from its first line) all go through it.  Malformed rows are
recorded in a caller ledger (and logged) with their line number, then
skipped; only structural problems (unreadable source, missing columns)
abort the stream.
``save_corpus`` writes such triples back in the format ``corpus_rows``
reads, through ``artifacts.atomic_write`` when given a path.
"""

from __future__ import annotations

import csv
import io
import json
import re
from itertools import chain, islice, repeat, starmap
from operator import add, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .artifacts import atomic_write
from .engine import ALL_SCHEMA, CORE_SCHEMA, blocks
from .errors import SchemaMismatch, UnreadableSource

LOGGED_MALFORMED_ROWS = 5

# Logical field -> file column; every field defaults to its own name.
DEFAULT_SCHEMA_MAP = {name: name for name in ("message",) + ALL_SCHEMA.reactions}


class MalformedRow(NamedTuple):
    """One quarantined input row: where it was and why it was rejected."""

    line: int
    reason: str


class CorpusStats(NamedTuple):
    """Exact reaction totals plus all/core percentage breakdowns.

    Percentages are None when their denominator is zero (empty corpus, or no
    reactions of the relevant group at all).
    """

    rows: int
    totals: dict[str, int]
    all_percent: dict[str, float] | None
    core_percent: dict[str, float] | None


# errors="surrogateescape" maps undecodable bytes into U+DC80-U+DCFF; a JSON
# string can hold any lone surrogate as an escape.  Neither can be written
# back as UTF-8.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _has_surrogates(s: str) -> bool:
    return not s.isascii() and _SURROGATE.search(s) is not None


def _open_text(source, newline=None):
    """Return (text_stream, should_close) of a path or open file; UTF-8, BOM dropped."""
    should_close = isinstance(source, (str, Path))
    if should_close:
        try:
            source = open(source, "rb")
        except OSError as exc:
            raise UnreadableSource(f"cannot open {source}: {exc}") from exc
    elif not isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        if hasattr(source, "read"):
            return source, False
        raise UnreadableSource(f"unsupported source type {type(source).__name__}")
    text = io.TextIOWrapper(source, encoding="utf-8-sig", errors="surrogateescape", newline=newline)
    return text, should_close


def _warn(message: str, *args) -> None:
    # logging is imported on the first malformed row, so a stream without
    # one never loads it.
    import logging

    logging.getLogger(__name__).warning(message, *args, stacklevel=2)


class _Quarantine:
    """The malformed rows of one stream.

    Every row goes to the caller's ledger (if any).  The first
    ``LOGGED_MALFORMED_ROWS`` are logged one by one; ``close`` logs how many
    more there were, if any.
    """

    def __init__(self, errors: list[MalformedRow] | None):
        self.errors = errors
        self.count = 0

    def add(self, line: int, reason: str) -> None:
        self.count += 1
        if self.count <= LOGGED_MALFORMED_ROWS:
            _warn("skipping malformed row at line %d: %s", line, reason)
        if self.errors is not None:
            self.errors.append(MalformedRow(line, reason))

    def close(self) -> None:
        hidden = self.count - LOGGED_MALFORMED_ROWS
        if hidden > 0:
            _warn("%d more malformed rows not shown", hidden)


# A quoted CSV field still open after this many physical lines, or at the end
# of the input, quarantines the line that opened it; reading resumes on the
# line after that one.
MAX_RECORD_LINES = 1000


def corpus_rows(
    source,
    format: str = "csv",
    schema_map: dict[str, str] | None = None,
    errors: list[MalformedRow] | None = None,
) -> Iterator[tuple[str, tuple[int, ...], str | None]]:
    """Stream ``(message, counts, record_id)`` per good row of a CSV or JSONL source.

    ``counts`` is a plain tuple of the seven counts in ``ALL_SCHEMA`` order;
    ``record_id`` is None for a row without one.  ``schema_map`` maps the
    logical fields (``message``, the seven reaction names, optionally
    ``id``) to the column names actually present in the file.  Missing
    columns raise SchemaMismatch immediately; row-level problems (bad
    encoding, non-integer counts, short rows) are appended to ``errors``
    and logged, and the stream continues.  This is what ``clean`` reads with.
    """
    return chain.from_iterable(starmap(zip, _read_blocks(source, format, schema_map, errors)))


def corpus_entries(
    source,
    format: str = "csv",
    schema_map: dict[str, str] | None = None,
    errors: list[MalformedRow] | None = None,
) -> Iterator[tuple[list[str], tuple[int, ...]]]:
    """Stream ``(message.split(), counts)`` per row that ``corpus_rows`` would yield.

    Rows, checks and ``errors`` are ``corpus_rows``'; no record object is
    built.  This is what ``train`` and ``eval`` read a cleaned corpus with.
    """
    column_blocks = _read_blocks(source, format, schema_map, errors)
    return chain.from_iterable(
        zip(map(str.split, messages), counts) for messages, counts, _ in column_blocks
    )


def _read_blocks(source, format, schema_map, errors):
    """Blocks of good rows, each ``(messages, counts, record_ids)``, in file order.

    A CSV block is checked as a whole by C-level passes; one that fails any
    check is checked again one row at a time, so every malformed row keeps
    its line, reason and order.  JSONL lines are checked one at a time.  The
    CSV header is read (and checked) before this returns.
    """
    mapping = {**DEFAULT_SCHEMA_MAP, **(schema_map or {})}
    if format == "csv":
        stream, should_close = _open_text(source, newline="")
        records = _records(stream)
        try:
            first = next(records)
            if isinstance(first, MalformedRow):
                raise SchemaMismatch(f"unreadable CSV header: {first.reason}")
            _, ends, rows = first
            columns = {name: idx for idx, name in enumerate(rows[0])}
            for field_name in DEFAULT_SCHEMA_MAP:
                if mapping[field_name] not in columns:
                    raise SchemaMismatch(f"missing column {mapping[field_name]!r} in CSV header")
        except Exception as exc:
            if should_close:
                stream.close()
            if isinstance(exc, StopIteration):
                return iter(())
            raise
        indices = [columns[mapping[name]] for name in DEFAULT_SCHEMA_MAP]
        id_index = columns.get(mapping["id"]) if "id" in mapping else None
        csv_rows = _CsvRows(mapping, indices, id_index, _Quarantine(errors))
        return csv_rows.blocks(chain([(0, ends[1:], rows[1:])], records), stream, should_close)
    if format == "jsonl":
        stream, should_close = _open_text(source)
        return _jsonl_blocks(stream, should_close, mapping, _Quarantine(errors))
    raise ValueError(f"unknown corpus format {format!r}")


def _count_error(texts, columns) -> str:
    """Why count fields failed to parse: the first bad column, as ingest reports it."""
    for text, column in zip(texts, columns):
        if _has_surrogates(text):
            return f"column {column!r}: invalid UTF-8 bytes"
        try:
            value = int(text)
        except ValueError:
            return f"column {column!r}: {text!r} is not an integer"
        if value < 0:
            return f"column {column!r}: negative count {value}"
    raise AssertionError(f"no bad count among {texts!r}")


def _parse(lines: list[str]):
    """``(ends, rows, error)`` of the records whole within ``lines``, which
    start a record.

    ``ends`` holds each record's last line, counted from 1 at ``lines[0]``.
    Parsing stops at a ``csv.Error``, then ``error`` is its ``(line,
    message)``, or before a record still open at the last line, then
    ``error`` is None and ``ends`` falls short of ``len(lines)``.
    """
    lines.append("\n")  # absorbed by a quoted field still open at the last line
    ends, rows, error = [], [], None
    reader = csv.reader(lines)
    try:
        for row in reader:
            end = reader.line_num
            if end == len(lines):
                break
            ends.append(end)
            rows.append(row)
    except csv.Error as exc:
        # e.g. a field over csv.field_size_limit(); one that the added
        # line tips over is still open at the last line.
        if reader.line_num < len(lines):
            error = reader.line_num, str(exc)
    lines.pop()
    return ends, rows, error


def _records(stream):
    """The CSV records of ``stream``, parsed by ``_parse`` a block at a time.

    Yields ``(line, ends, rows)`` per run of whole records, ``ends``
    counted from 1 at the line after ``line``, and a ``MalformedRow`` per
    quarantined line, in file order.  A ``csv.Error`` quarantines the line
    it stopped on.  A record still open at a block's last line is parsed
    again from its first line, with the lines after it up to
    ``MAX_RECORD_LINES`` lines and one more: that one tells a quoted field
    not closed within the bound from one still open at the end of the
    input.  Either quarantines the record's first line.  Reading resumes
    on the line after a quarantined one.  No other block holds more than
    ``MAX_RECORD_LINES`` lines, so its whole records are within the bound.
    """
    line = 0  # lines before block[0]
    for block in blocks(stream):
        while block:
            ends, rows, error = _parse(block)
            if ends[:1] == [MAX_RECORD_LINES + 1]:
                ends = []  # closed on the extra line only
            if ends:
                yield line, ends, rows
            used = ends[-1] if ends else 0
            if error and (used or error[0] <= MAX_RECORD_LINES):
                used = error[0]
                yield MalformedRow(line + used, error[1])
            elif used < len(block):
                rest = block[used:]
                more = list(islice(stream, MAX_RECORD_LINES + 1 - len(rest)))
                if used or more:
                    line, block = line + used, rest + more
                    continue
                used = 1
                yield MalformedRow(line + 1, (
                    f"quoted field not closed within {MAX_RECORD_LINES} lines"
                    if len(block) > MAX_RECORD_LINES else "quoted field still open at end of input"
                ))
            line += used
            block = block[used:]


class _CsvRows:
    """Good CSV rows, a block of columns at a time; ``indices`` are the message and count columns."""

    def __init__(self, mapping, indices, id_index, bad):
        self.bad = bad
        self.message = itemgetter(indices[0])
        self.count_texts = itemgetter(*indices[1:])
        self.count_columns = [mapping[name] for name in ALL_SCHEMA.reactions]
        self.needed = max(indices)
        self.id_index = id_index
        # A block whose rows all have the id column takes it with one itemgetter.
        self.width = self.needed if id_index is None else max(self.needed, id_index)

    def blocks(self, records, stream, should_close):
        """``(messages, counts, record_ids)`` per run of ``_records``, in file order."""
        bad = self.bad
        try:
            for record in records:
                if isinstance(record, MalformedRow):
                    bad.add(*record)
                    continue
                line, ends, rows = record
                good = self.columns(list(filter(None, rows)))
                if good is None:
                    good = self.checked(zip(map(line.__add__, ends), rows))
                yield good
        finally:
            bad.close()
            if should_close:
                stream.close()

    def columns(self, rows):
        """The columns of non-blank rows if every one is good, else None."""
        if not rows:
            return [], [], []
        if min(map(len, rows)) <= self.width:
            return None
        messages = list(map(self.message, rows))
        try:
            flat = list(map(int, chain.from_iterable(map(self.count_texts, rows))))
        except ValueError:
            return None
        if min(flat) < 0 or _has_surrogates("".join(messages)):
            return None
        counts = list(zip(*[iter(flat)] * ALL_SCHEMA.size))
        if self.id_index is None:
            return messages, counts, repeat(None)
        return messages, counts, list(map(itemgetter(self.id_index), rows))

    def checked(self, numbered_rows):
        """The good rows among ``(line, row)`` pairs, checked one at a time."""
        bad, needed, id_index = self.bad, self.needed, self.id_index
        message_of, count_texts = self.message, self.count_texts
        messages, counts, record_ids = [], [], []
        for line, row in numbered_rows:
            if not row:
                continue
            if len(row) <= needed:
                bad.add(line, f"expected at least {needed + 1} fields, got {len(row)}")
                continue
            message = message_of(row)
            if _has_surrogates(message):
                bad.add(line, "message column: invalid UTF-8 bytes")
                continue
            texts = count_texts(row)
            try:
                values = tuple(map(int, texts))
            except ValueError:
                values = None
            if values is None or min(values) < 0:
                bad.add(line, _count_error(texts, self.count_columns))
                continue
            messages.append(message)
            counts.append(values)
            record_ids.append(row[id_index] if id_index is not None and id_index < len(row) else None)
        return messages, counts, record_ids


def _jsonl_blocks(stream, should_close, mapping, bad):
    """``(messages, counts, record_ids)`` per block of lines, in file order."""
    keys = (mapping["message"], tuple(mapping[name] for name in ALL_SCHEMA.reactions),
            mapping.get("id"))
    start = 0
    try:
        for lines in blocks(stream):
            yield _jsonl_checked(lines, start, keys, bad)
            start += len(lines)
    finally:
        bad.close()
        if should_close:
            stream.close()


def _jsonl_checked(lines, start, keys, bad):
    """The good rows of ``lines``, which follow line ``start``, checked one at a time."""
    message_key, count_keys, id_key = keys
    messages, counts, record_ids = [], [], []
    for line_num, line in enumerate(lines, start + 1):
        line = line.strip()
        if not line:
            continue
        if _has_surrogates(line):
            bad.add(line_num, "invalid UTF-8 bytes")
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, an integer over the int digit limit, or
            # nesting too deep for the parser.
            bad.add(line_num, f"bad JSON: {exc}")
            continue
        if not isinstance(obj, dict):
            bad.add(line_num, "JSONL row is not an object")
            continue
        try:
            if message_key not in obj:
                raise ValueError(f"missing key {message_key!r}")
            message = obj[message_key]
            if not isinstance(message, str):
                raise ValueError(f"key {message_key!r} is not a string")
            if _has_surrogates(message):
                raise ValueError(f"key {message_key!r}: lone surrogate")
            values = []
            for column in count_keys:
                if column not in obj:
                    raise ValueError(f"missing key {column!r}")
                value = obj[column]
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"key {column!r}: {value!r} is not an integer")
                if value < 0:
                    raise ValueError(f"key {column!r}: negative count {value}")
                values.append(value)
            record_id = None
            if id_key is not None and id_key in obj:
                record_id = str(obj[id_key])
                if _has_surrogates(record_id):
                    raise ValueError(f"key {id_key!r}: lone surrogate")
        except ValueError as exc:
            bad.add(line_num, str(exc))
            continue
        messages.append(message)
        counts.append(tuple(values))
        record_ids.append(record_id)
    return messages, counts, record_ids


def save_corpus(
    rows: Iterable[tuple[str, Sequence[int], str | None]], sink, format: str = "csv"
) -> int:
    """Write ``(message, counts, record_id)`` rows to ``sink`` (path or text file)
    as ``corpus_rows`` reads them.

    CSV rows are the message and the seven counts (``ALL_SCHEMA`` order) under
    a header line; a JSONL object carries ``id`` after them only when the
    row has one.  Returns the number of rows written.
    """
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown corpus format {format!r}")
    if isinstance(sink, (str, Path)):
        with atomic_write(sink, newline="") as fh:
            return save_corpus(rows, fh, format)
    if format == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(("message",) + ALL_SCHEMA.reactions)
    else:
        encode = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps builds one per call
    written = 0
    for message, counts, record_id in rows:
        if format == "csv":
            writer.writerow((message, *counts))
        else:
            obj = {"message": message}
            obj.update(zip(ALL_SCHEMA.reactions, counts))
            if record_id is not None:
                obj["id"] = record_id
            sink.write(encode(obj) + "\n")
        written += 1
    return written


def corpus_stats(counts: Iterable[Sequence[int]]) -> CorpusStats:
    """Exact totals per reaction plus all/core percentages of seven-count rows."""
    sums = [0] * ALL_SCHEMA.size
    rows = 0
    for row in counts:
        rows += 1
        sums = list(map(add, sums, row))
    totals = dict(zip(ALL_SCHEMA.reactions, sums))
    grand = sum(totals.values())
    core = sum(totals[name] for name in CORE_SCHEMA.reactions)
    all_percent = (
        {name: 100 * totals[name] / grand for name in ALL_SCHEMA.reactions}
        if grand > 0
        else None
    )
    core_percent = (
        {name: 100 * totals[name] / core for name in CORE_SCHEMA.reactions}
        if core > 0
        else None
    )
    return CorpusStats(rows, totals, all_percent, core_percent)
