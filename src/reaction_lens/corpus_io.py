"""Streaming corpus ingestion, corpus writing and corpus accounting.

``corpus_rows`` yields one ``(message, counts, record_id)`` triple per good
row and ``corpus_entries`` one ``(words, counts)`` pair (``counts``: seven
ints in ``ALL_SCHEMA`` order), both from one reader per format that holds a
block of ``engine._BLOCK`` lines at a time.  Malformed rows are recorded in
a caller ledger (and logged) with their line number, then skipped; only
structural problems (unreadable source, missing columns) abort the stream.
``save_corpus`` writes such triples back in the format ``corpus_rows``
reads, through ``artifacts.atomic_write`` when given a path.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import deque
from contextlib import suppress
from itertools import chain, repeat, starmap
from operator import add, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .artifacts import atomic_write
from .engine import _BLOCK, ALL_SCHEMA, CORE_SCHEMA, blocks
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
        lines = _Lines(stream)
        reader = csv.reader(lines)
        try:
            header = next(reader)
            if lines.open_at_end:
                raise csv.Error(_OPEN_AT_END)
            columns = {name: idx for idx, name in enumerate(header)}
            for field_name in DEFAULT_SCHEMA_MAP:
                if mapping[field_name] not in columns:
                    raise SchemaMismatch(f"missing column {mapping[field_name]!r} in CSV header")
        except Exception as exc:
            if should_close:
                stream.close()
            if isinstance(exc, StopIteration):
                return iter(())
            if isinstance(exc, csv.Error):
                raise SchemaMismatch(f"unreadable CSV header: {exc}") from exc
            raise
        indices = [columns[mapping[name]] for name in DEFAULT_SCHEMA_MAP]
        id_index = columns.get(mapping["id"]) if "id" in mapping else None
        csv_rows = _CsvRows(lines, reader, mapping, indices, id_index, _Quarantine(errors))
        return csv_rows.blocks(should_close)
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


_OPEN_AT_END = "quoted field still open at end of input"


class _OpenQuote(csv.Error):
    """A CSV record reached MAX_RECORD_LINES lines inside a quoted field."""


class _Lines:
    """The physical lines of a CSV stream, for a ``csv.reader`` that reads the
    header, or one record, a line at a time.

    Lines on ``queue`` come before the rest of ``stream``.  ``line`` is the
    number of the last line handed out.  ``record`` holds the raw lines of
    the record being read: only a quoted field spans lines, and its text
    cannot give them back (``""`` reads as ``"``).  ``open_at_end`` is set
    when the stream ends inside a record.
    """

    def __init__(self, stream):
        self.stream = stream
        self.queue: deque[str] = deque()
        self.line = 0
        self.record: list[str] = []
        self.open_at_end = False

    def __iter__(self):
        return self

    def __next__(self) -> str:
        if len(self.record) >= MAX_RECORD_LINES:
            raise _OpenQuote(f"quoted field not closed within {MAX_RECORD_LINES} lines")
        if self.queue:
            text = self.queue.popleft()
        else:
            text = next(self.stream, None)
            if text is None:
                self.open_at_end = bool(self.record)
                raise StopIteration
        self.line += 1
        self.record.append(text)
        return text

    def reopen(self) -> int:
        """Queue all but the first line of the open record again; return that line's number."""
        first = self.line - len(self.record) + 1
        self.queue.extendleft(reversed(self.record[1:]))
        self.line = first
        self.record = []
        self.open_at_end = False
        return first


class _CsvRows:
    """Good CSV rows, a block of columns at a time; ``indices`` are the message and count columns."""

    def __init__(self, lines: _Lines, reader, mapping, indices, id_index, bad):
        self.lines, self.reader, self.bad = lines, reader, bad
        self.message = itemgetter(indices[0])
        self.count_texts = itemgetter(*indices[1:])
        self.count_columns = [mapping[name] for name in ALL_SCHEMA.reactions]
        self.needed = max(indices)
        self.id_index = id_index
        # A block whose rows all have the id column takes it with one itemgetter.
        self.width = self.needed if id_index is None else max(self.needed, id_index)

    def blocks(self, should_close):
        """``(messages, counts, record_ids)`` per block, in file order.

        The records whole within a block of lines are parsed together.  The
        record after them, one the parser rejects or one still open at the
        end of the block, is read a line at a time; the block's lines after
        it are parsed together again.
        """
        lines = self.lines
        queue = lines.queue
        try:
            for block in blocks(lines.stream):
                while block:
                    ends, rows = self.parse(block)
                    good = self.columns(list(filter(None, rows)))
                    if good is None:
                        good = self.checked(zip(map(lines.line.__add__, ends), rows))
                    used = ends[-1] if ends else 0
                    lines.line += used
                    yield good
                    if used < len(block):
                        queue.extend(block[used:])
                        yield self.checked(self.record())
                    block = [queue.popleft() for _ in range(min(len(queue), _BLOCK))]
        finally:
            self.bad.close()
            if should_close:
                lines.stream.close()

    @staticmethod
    def parse(block: list[str]):
        """``(ends, rows)`` of the records whole within ``block``.

        ``ends`` holds each record's last line, counted from 1 at the
        block's first line.  Parsing stops before a record that the parser rejects or that is
        still open at the last line.  ``_BLOCK`` is below
        ``MAX_RECORD_LINES``, so a whole record is within the bound.
        """
        block.append("\n")  # absorbed by a quoted field still open at the last line
        ends, rows = [], []
        reader = csv.reader(block)
        with suppress(csv.Error):
            for row in reader:
                end = reader.line_num
                if end == len(block):
                    break
                ends.append(end)
                rows.append(row)
        block.pop()
        return ends, rows

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

    def record(self):
        """The next record as one ``(line, row)`` pair, read a line at a time; none if quarantined."""
        lines, bad = self.lines, self.bad
        lines.record = []
        try:
            row = next(self.reader)
        except _OpenQuote as exc:
            bad.add(lines.reopen(), str(exc))
            return
        except csv.Error as exc:
            # e.g. a field over csv.field_size_limit(); the reader
            # resumes at the next line.
            bad.add(lines.line, str(exc))
            return
        if lines.open_at_end:
            bad.add(lines.reopen(), _OPEN_AT_END)
            return
        yield lines.line, row

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
