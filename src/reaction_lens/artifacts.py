"""Atomic file writes and the lexicon artifact format.

Every file written by path goes through ``atomic_write``: a temporary file
in the same directory that replaces the target only once it is complete.

The lexicon artifact is line-oriented UTF-8 text: a handful of ``#`` header
lines (format version, schema, entry count, train-mean fallback, the run id
``meta`` holds, checksum) followed by one tab-separated line per word with
its entry count and one 17-significant-digit decimal per schema reaction.
Loading verifies the body checksum, that a ``#manifest`` header holds one
value, the field count of every entry line and that every count and decimal
parses, naming the first bad line in file order; a loaded lexicon, vectors
and run id alike, saves back to its own bytes.

``load_lexicon`` parses every entry line, a block (``engine.blocks``) at a
time.  A ``LexiconFile`` makes the same checks, with the same errors, when
it is opened: it checks the numbers of every line by their digit shape
(``_SHAPE``), and then parses only the lines of the words it is asked for,
until it is asked for every line.
"""

from __future__ import annotations

import hashlib
import os
import re
from contextlib import contextmanager, suppress
from itertools import repeat
from pathlib import Path

from .engine import DECIMAL, SCHEMAS, ReactionLexicon, blocks, get_schema
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


_LINE_BREAKING = re.compile("[\t\n\r]")


def save_lexicon(lexicon: ReactionLexicon, sink) -> None:
    """Write a lexicon to ``sink`` (path or text file object), with the run id
    ``lexicon.meta`` holds, if it holds one, as its ``#manifest`` header."""
    schema = lexicon.schema
    line = "%s\t%d" + ("\t" + DECIMAL) * schema.size + "\n"
    body_lines = []
    for word in sorted(lexicon.entries):
        if _LINE_BREAKING.search(word):
            raise ValueError(f"word {word!r} contains tab or newline")
        vector, count = lexicon.entries[word]
        body_lines.append(line % (word, count, *vector))
    body = "".join(body_lines)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    mean = "-" if lexicon.train_mean is None else "\t".join(DECIMAL % v for v in lexicon.train_mean)
    header = [
        f"{LEXICON_MAGIC} {LEXICON_VERSION}\n",
        f"#schema\t{schema.name}\t{','.join(schema.reactions)}\n",
        f"#entries\t{len(lexicon.entries)}\n",
        f"#train_entries\t{lexicon.train_entry_count}\n",
        f"#mean\t{mean}\n",
    ]
    if "manifest" in lexicon.meta:
        header.append(f"#manifest\t{lexicon.meta['manifest']}\n")
    header.append(f"#sha256\t{digest}\n")
    text = "".join(header) + body
    if isinstance(sink, (str, Path)):
        with atomic_write(sink, newline="\n") as fh:
            fh.write(text)
    else:
        sink.write(text)


def _line_error(line, stride) -> str | None:
    """Why an entry line fails to load, or None."""
    fields = line.split("\t")
    if len(fields) != stride:
        return f"entry line has {len(fields)} fields: {line!r}"
    try:
        int(fields[1])
        for v in fields[2:]:
            float(v)
    except ValueError:
        return f"unparseable entry line: {line!r}"
    return None


def _entry_error(lines, stride) -> str:
    """Why entry lines failed to load: the first bad line, in file order."""
    for line in lines:
        if error := _line_error(line, stride):
            return error
    raise AssertionError("no bad entry line")


def _read(source):
    """Check an artifact up to its numbers and split its body into entry lines.

    The checks are the magic line, the version, the headers, the schema,
    the body checksum and the field count of every entry line.  Returns the
    lexicon with no entries yet, the entry lines and the declared entry count.
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
            if len(values) != 1:
                raise CorruptArtifact("malformed #manifest header")
            meta["manifest"] = values[0]
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
    return ReactionLexicon(schema, {}, train_entries, train_mean, meta), lines, declared


def _parse(entries, lines, stride, picked=None) -> None:
    """Parse ``lines``, or ``lines[i]`` for each ``i`` in ``picked``, into ``entries``."""
    chosen = lines if picked is None else map(lines.__getitem__, picked)
    try:
        for block in blocks(chosen):  # a block's lines are joined and split at once
            fields = "\t".join(block).split("\t")
            counts = map(int, fields[1::stride])
            vectors = zip(*(map(float, fields[k::stride]) for k in range(2, stride)))
            entries.update(zip(fields[0::stride], zip(vectors, counts)))
    except ValueError:
        raise CorruptArtifact(_entry_error(lines, stride)) from None


def _check_count(found, declared) -> None:
    if found != declared:
        raise CorruptArtifact(f"artifact declares {declared} entries but contains {found}")


# ASCII digits 1-9 to 0.  ``int`` and ``float`` accept or reject a field
# whatever ASCII digits it holds, so a field parses exactly when its shape
# does (tests/test_corpus_io.py::test_a_number_parses_exactly_when_its_shape_does).
_SHAPE = bytes.maketrans(b"123456789", b"000000000")


def _check_numbers(lines, stride) -> None:
    """Raise the CorruptArtifact of a full load if a count or decimal of
    ``lines`` would not parse, checking each distinct shape once."""
    shaped = "\n".join(lines).encode("utf-8").translate(_SHAPE).split(b"\n") if lines else ()
    # A shape keeps the tab after the word, so the word's field is empty.
    shapes = {line[line.find(b"\t"):] for line in shaped}
    if any(_line_error(shape.decode("utf-8"), stride) for shape in shapes):
        raise CorruptArtifact(_entry_error(lines, stride))


class LexiconFile:
    """A lexicon artifact opened with every check ``load_lexicon`` makes,
    whose entry lines are parsed only when ``parse`` or ``parse_all`` asks.

    ``lexicon`` holds the entries parsed so far; parsing adds entries and
    changes no value.
    """

    def __init__(self, source):
        self.lexicon, self._lines, declared = _read(source)
        self._stride = 2 + self.lexicon.schema.size
        _check_numbers(self._lines, self._stride)
        # Each word's last line, the one whose value a full load keeps.
        self._rows = {line.partition("\t")[0]: i for i, line in enumerate(self._lines)}
        _check_count(len(self._rows), declared)

    def parse(self, words) -> None:
        """Parse the entry lines of ``words``; a word with none is skipped."""
        entries, rows = self.lexicon.entries, self._rows
        wanted = set(words).difference(entries)
        _parse(entries, self._lines, self._stride, [rows[w] for w in wanted if w in rows])

    def parse_all(self) -> None:
        """Parse every entry line, as ``load_lexicon`` does; a word parsed before gets the
        same value again."""
        _parse(self.lexicon.entries, self._lines, self._stride)


def load_lexicon(source) -> ReactionLexicon:
    """Read a lexicon artifact back into a ReactionLexicon.

    Raises VersionMismatch for unsupported format versions, SchemaMismatch
    for a schema no model has, and CorruptArtifact for checksum or
    structural failures.
    """
    lexicon, lines, declared = _read(source)
    _parse(lexicon.entries, lines, 2 + lexicon.schema.size)
    _check_count(len(lexicon.entries), declared)
    return lexicon
