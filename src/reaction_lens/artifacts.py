"""Atomic file writes and the lexicon artifact format.

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

import hashlib
import os
import re
from contextlib import contextmanager, suppress
from itertools import repeat
from pathlib import Path

from .engine import SCHEMAS, ReactionLexicon, ReactionSchema, get_schema
from .errors import (
    CorruptArtifact,
    SchemaMismatch,
    UnreadableSource,
    VersionMismatch,
)

LEXICON_MAGIC = "#reaction-lexicon"
LEXICON_VERSION = "v1"


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
