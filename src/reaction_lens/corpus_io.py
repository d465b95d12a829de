"""Streaming corpus ingestion, corpus accounting, and lexicon persistence.

``load_corpus`` yields one immutable PostRecord per row and never holds more
than the current row in memory.  Malformed rows are recorded in a caller
ledger (and logged) with their line number, then skipped; only structural
problems (unreadable source, missing columns) abort the stream.
``save_corpus`` writes records back in the format ``load_corpus`` reads.

Every file written by path goes through ``atomic_write``: a temporary file
in the same directory that replaces the target only once it is complete.

The lexicon artifact is line-oriented UTF-8 text: a handful of ``#`` header
lines (format version, schema, entry count, train-mean fallback, checksum)
followed by one tab-separated line per word with its entry count and one
17-significant-digit decimal per schema reaction.  Loading verifies the
body checksum, the field count of every entry line and that every count
and decimal parses, naming the first bad line in file order; it
reproduces every vector bit-exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
from collections import namedtuple
from contextlib import contextmanager, suppress
from itertools import repeat
from operator import add, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .engine import ALL_SCHEMA, CORE_SCHEMA, SCHEMAS, ReactionLexicon, ReactionSchema, get_schema
from .errors import (
    CorruptArtifact,
    SchemaMismatch,
    UnreadableSource,
    VersionMismatch,
)

LOGGED_MALFORMED_ROWS = 5

LEXICON_MAGIC = "#reaction-lexicon"
LEXICON_VERSION = "v1"

# Logical field -> file column; every field defaults to its own name.
DEFAULT_SCHEMA_MAP = {name: name for name in ("message",) + ALL_SCHEMA.reactions}


class ReactionCounts(
    namedtuple("ReactionCounts", ALL_SCHEMA.reactions, defaults=(0,) * ALL_SCHEMA.size)
):
    """The seven reaction counts of a post, a tuple in ``ALL_SCHEMA`` order.

    The constructor rejects a count that is negative, not an int, or a bool.
    ``_make`` does not check; ingest uses it for counts it has checked.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        counts = super().__new__(cls, *args, **kwargs)
        for name, value in zip(cls._fields, counts):
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"reaction count {name}={value!r} must be a non-negative integer")
        return counts

    def _replace(self, /, **kwargs):
        # The inherited _replace builds through the unchecked _make.
        return type(self)(*super()._replace(**kwargs))


class PostRecord(NamedTuple):
    message: str
    reactions: ReactionCounts
    id: str | None = None


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


def _naming_target(exc: OSError, path) -> OSError:
    """The same error, naming the target instead of the temporary file."""
    return type(exc)(exc.errno, exc.strerror, str(path))


@contextmanager
def atomic_write(path, newline=None):
    """Open ``path`` for UTF-8 text writing, all or nothing.

    The text goes to a temporary file beside ``path``, which ``os.replace``
    moves onto ``path`` when the block ends.  If the block raises, the
    temporary file is removed and a file already at ``path`` is untouched.
    An OSError from creating or moving the temporary file names ``path``.
    """
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(temp, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise _naming_target(exc, path) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(temp, path)
        except OSError as exc:
            raise _naming_target(exc, path) from None
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(temp)
        raise


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


def load_corpus(
    source,
    format: str = "csv",
    schema_map: dict[str, str] | None = None,
    errors: list[MalformedRow] | None = None,
) -> Iterator[PostRecord]:
    """Stream PostRecords from a CSV or JSONL source.

    ``schema_map`` maps the logical fields (``message``, the seven reaction
    names, optionally ``id``) to the column names actually present in the
    file.  Missing columns raise SchemaMismatch immediately; row-level
    problems (bad encoding, non-integer counts, short rows) are appended to
    ``errors`` and logged, and the stream continues.
    """
    mapping = {**DEFAULT_SCHEMA_MAP, **(schema_map or {})}
    if format == "csv":
        stream, should_close = _open_text(source, newline="")
        reader = csv.reader(stream)
        try:
            columns = {name: idx for idx, name in enumerate(next(reader))}
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
        return _iter_csv(reader, stream, should_close, mapping, indices, id_index, errors)
    if format == "jsonl":
        stream, should_close = _open_text(source)
        return _iter_jsonl(stream, should_close, mapping, errors)
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


def _iter_csv(reader, stream, should_close, mapping, indices, id_index, errors):
    """Records of CSV rows; ``indices`` are the message and count columns."""
    bad = _Quarantine(errors)
    message_index = indices[0]
    count_texts = itemgetter(*indices[1:])
    count_columns = [mapping[name] for name in ALL_SCHEMA.reactions]
    needed = max(indices)
    make_counts = ReactionCounts._make
    try:
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                # e.g. a field over csv.field_size_limit(); the reader
                # resumes at the next line.
                bad.add(reader.line_num, str(exc))
                continue
            line = reader.line_num
            if not row:
                continue
            if len(row) <= needed:
                bad.add(line, f"expected at least {needed + 1} fields, got {len(row)}")
                continue
            message = row[message_index]
            if _has_surrogates(message):
                bad.add(line, "message column: invalid UTF-8 bytes")
                continue
            texts = count_texts(row)
            try:
                counts = make_counts(map(int, texts))
            except ValueError:
                counts = None
            if counts is None or min(counts) < 0:
                bad.add(line, _count_error(texts, count_columns))
                continue
            record_id = row[id_index] if id_index is not None and id_index < len(row) else None
            yield PostRecord(message, counts, record_id)
    finally:
        bad.close()
        if should_close:
            stream.close()


def _iter_jsonl(stream, should_close, mapping, errors):
    bad = _Quarantine(errors)
    try:
        for line_num, line in enumerate(stream, 1):
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
                column = mapping["message"]
                if column not in obj:
                    raise ValueError(f"missing key {column!r}")
                message = obj[column]
                if not isinstance(message, str):
                    raise ValueError(f"key {column!r} is not a string")
                if _has_surrogates(message):
                    raise ValueError(f"key {column!r}: lone surrogate")
                values = []
                for name in ALL_SCHEMA.reactions:
                    column = mapping[name]
                    if column not in obj:
                        raise ValueError(f"missing key {column!r}")
                    value = obj[column]
                    if isinstance(value, bool) or not isinstance(value, int):
                        raise ValueError(f"key {column!r}: {value!r} is not an integer")
                    if value < 0:
                        raise ValueError(f"key {column!r}: negative count {value}")
                    values.append(value)
                record_id = None
                if "id" in mapping and mapping["id"] in obj:
                    record_id = str(obj[mapping["id"]])
                    if _has_surrogates(record_id):
                        raise ValueError(f"key {mapping['id']!r}: lone surrogate")
            except ValueError as exc:
                bad.add(line_num, str(exc))
                continue
            yield PostRecord(message, ReactionCounts._make(values), record_id)
    finally:
        bad.close()
        if should_close:
            stream.close()


def save_corpus(records: Iterable[PostRecord], sink, format: str = "csv") -> int:
    """Write records to ``sink`` (path or text file) as ``load_corpus`` reads them.

    CSV rows are the message and the seven counts (``ALL_SCHEMA`` order) under
    a header line; a JSONL object carries ``id`` after them only when the
    record has one.  Returns the number of records written.
    """
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown corpus format {format!r}")
    if isinstance(sink, (str, Path)):
        with atomic_write(sink, newline="") as fh:
            return save_corpus(records, fh, format)
    if format == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(("message",) + ALL_SCHEMA.reactions)
    rows = 0
    for record in records:
        if format == "csv":
            writer.writerow((record.message, *record.reactions))
        else:
            obj = {"message": record.message}
            obj.update(zip(ALL_SCHEMA.reactions, record.reactions))
            if record.id is not None:
                obj["id"] = record.id
            sink.write(json.dumps(obj, ensure_ascii=False) + "\n")
        rows += 1
    return rows


def corpus_stats(corpus: Iterable[PostRecord]) -> CorpusStats:
    """Exact totals per reaction plus all/core percentage columns."""
    sums = [0] * ALL_SCHEMA.size
    rows = 0
    for record in corpus:
        rows += 1
        sums = list(map(add, sums, record.reactions))
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


def _format_floats(values) -> str:
    return "\t".join(format(v, ".17g") for v in values)


_LINE_BREAKING = re.compile("[\t\n\r]")


def save_lexicon(lexicon: ReactionLexicon, sink, manifest_id: str | None = None) -> None:
    """Write a lexicon to ``sink`` (path or text file object)."""
    schema = lexicon.schema
    line = "%s\t%d" + "\t%.17g" * schema.size + "\n"
    body_lines = []
    for word in sorted(lexicon.entries):
        if _LINE_BREAKING.search(word):
            raise ValueError(f"word {word!r} contains tab or newline")
        vector, count = lexicon.entries[word]
        body_lines.append(line % (word, count, *vector))
    body = "".join(body_lines)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    mean = "-" if lexicon.train_mean is None else _format_floats(lexicon.train_mean)
    header = [
        f"{LEXICON_MAGIC} {LEXICON_VERSION}\n",
        f"#schema\t{schema.name}\t{','.join(schema.reactions)}\n",
        f"#entries\t{len(lexicon.entries)}\n",
        f"#train_entries\t{lexicon.train_entry_count}\n",
        f"#mean\t{mean}\n",
    ]
    if manifest_id:
        header.append(f"#manifest\t{manifest_id}\n")
    header.append(f"#sha256\t{digest}\n")
    text = "".join(header) + body
    if isinstance(sink, (str, Path)):
        with atomic_write(sink, newline="\n") as fh:
            fh.write(text)
    else:
        sink.write(text)


# Entry lines parsed per join-and-split; bounds the field list held at once.
_LOAD_BLOCK = 2048


def _entry_error(lines, stride) -> str:
    """Why entry lines failed to load: the first bad line, in file order."""
    for line in lines:
        fields = line.split("\t")
        if len(fields) != stride:
            return f"entry line has {len(fields)} fields: {line!r}"
        try:
            int(fields[1])
            for v in fields[2:]:
                float(v)
        except ValueError:
            return f"unparseable entry line: {line!r}"
    raise AssertionError("no bad entry line")


def load_lexicon(source, expected_schema: ReactionSchema | str | None = None) -> ReactionLexicon:
    """Read a lexicon artifact back into a ReactionLexicon.

    Raises VersionMismatch for unsupported format versions, SchemaMismatch
    when the artifact's schema differs from ``expected_schema``, and
    CorruptArtifact for checksum or structural failures.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UnreadableSource(f"cannot open {source}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CorruptArtifact(f"artifact is not UTF-8: {exc}") from exc
    else:
        text = source.read()
    end = text.find("\n")
    first = text if end < 0 else text[:end]
    if not first.startswith(LEXICON_MAGIC):
        raise CorruptArtifact("not a reaction-lexicon artifact")
    version = first[len(LEXICON_MAGIC):].strip()
    if version != LEXICON_VERSION:
        raise VersionMismatch(f"unsupported lexicon format version {version!r}")

    # Header lines run from the magic line to #sha256; the body is the rest.
    headers: dict[str, list[str]] = {}
    meta: dict[str, str] = {}
    pos = len(first) + 1
    while text.startswith("#", pos):
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        fields = text[pos + 1:end].split("\t")
        pos = end + 1
        key, values = fields[0], fields[1:]
        if key == "manifest":
            meta["manifest"] = values[0] if values else ""
        else:
            headers[key] = values
        if key == "sha256":
            break
    body = text[pos:]

    for required in ("schema", "entries", "mean", "sha256"):
        if required not in headers:
            raise CorruptArtifact(f"missing #{required} header")
    schema_fields = headers["schema"]
    if len(schema_fields) != 2:
        raise CorruptArtifact("malformed #schema header")
    name, reaction_csv = schema_fields
    if name not in SCHEMAS:
        raise SchemaMismatch(f"unknown schema {name!r} in artifact")
    schema = get_schema(name)
    if tuple(reaction_csv.split(",")) != schema.reactions:
        raise CorruptArtifact(
            f"artifact reaction list does not match schema {name!r}"
        )
    if expected_schema is not None:
        expected = (
            get_schema(expected_schema)
            if isinstance(expected_schema, str)
            else expected_schema
        )
        if expected != schema:
            raise SchemaMismatch(
                f"artifact has schema {schema.name!r}, expected {expected.name!r}"
            )

    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if headers["sha256"] != [digest]:
        raise CorruptArtifact("checksum mismatch; artifact is corrupt or truncated")

    try:
        declared = int(headers["entries"][0])
    except (IndexError, ValueError):
        raise CorruptArtifact("malformed #entries header") from None
    train_entries = 0
    if "train_entries" in headers:
        try:
            train_entries = int(headers["train_entries"][0])
        except (IndexError, ValueError):
            raise CorruptArtifact("malformed #train_entries header") from None

    mean_fields = headers["mean"]
    if mean_fields == ["-"]:
        train_mean = None
    else:
        try:
            train_mean = tuple(float(v) for v in mean_fields)
        except ValueError:
            raise CorruptArtifact("malformed #mean header") from None
        if len(train_mean) != schema.size:
            raise CorruptArtifact("train-mean vector has wrong dimension")

    stride = 2 + schema.size
    lines = list(filter(None, body.split("\n")))
    if set(map(str.count, lines, repeat("\t"))) - {stride - 1}:
        raise CorruptArtifact(_entry_error(lines, stride))
    entries = {}
    try:
        for start in range(0, len(lines), _LOAD_BLOCK):
            fields = "\t".join(lines[start:start + _LOAD_BLOCK]).split("\t")
            counts = map(int, fields[1::stride])
            vectors = zip(*(map(float, fields[k::stride]) for k in range(2, stride)))
            entries.update(zip(fields[0::stride], zip(vectors, counts)))
    except ValueError:
        raise CorruptArtifact(_entry_error(lines, stride)) from None
    if len(entries) != declared:
        raise CorruptArtifact(
            f"artifact declares {declared} entries but contains {len(entries)}"
        )
    return ReactionLexicon(
        schema=schema,
        entries=entries,
        train_entry_count=train_entries,
        train_mean=train_mean,
        meta=meta,
    )
