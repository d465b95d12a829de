"""Independent brute-force reference implementations used to cross-check
the engine.  Everything here is written as literal loops over definitions,
deliberately ignoring the library's incremental/streaming code paths.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import random
from dataclasses import asdict

from reaction_lens.errors import CorruptArtifact, EmptySide, SchemaMismatch


def split(corpus, train_fraction, seed):
    """Seeded uniform random partition into (train, test).

    The reference partition of one evaluation run: shuffle the indices with
    ``random.Random(seed)``, the train side is the first
    ``int(train_fraction * len(corpus) + 0.5)`` of them and the test side
    the rest.  Raises EmptySide if either side would be empty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train fraction must be in (0, 1), got {train_fraction}")
    n = len(corpus)
    n_train = int(train_fraction * n + 0.5)
    if n_train == 0 or n_train == n:
        raise EmptySide(f"fraction {train_fraction} on {n} entries leaves an empty side")
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    train = [corpus[i] for i in indices[:n_train]]
    test = [corpus[i] for i in indices[n_train:]]
    return train, test


def oracle_lexicon(entries, dim):
    """Word table by looping words x entries: average vector over the
    entries whose unique-word set contains the word."""
    vocabulary = sorted({w for words, _ in entries for w in words})
    table = {}
    for word in vocabulary:
        vectors = [vector for words, vector in entries if word in words]
        table[word] = tuple(
            sum(v[i] for v in vectors) / len(vectors) for i in range(dim)
        )
    return table


def oracle_train_mean(entries, dim):
    if not entries:
        return None
    n = len(entries)
    return tuple(sum(vector[i] for _, vector in entries) / n for i in range(dim))


def oracle_predict(message_words, table, train_mean, dim):
    unique = set(message_words)
    known = [table[w] for w in sorted(unique) if w in table]
    if not known:
        return train_mean, 0.0
    n = len(known)
    vector = tuple(sum(v[i] for v in known) / n for i in range(dim))
    return vector, n / len(unique)


def oracle_fold(width, ids, entries, state=None):
    """Fold (word_ids, vector) entries one at a time, the way a per-entry
    ``Fold.add`` did: lists grow to ``len(ids)`` before each entry, then
    counts, one component's word sums and the entry sums take the entry.

    ``state`` is a previous result to continue from.  Returns
    ``(columns, counts, train_sum, entries)``, grown to ``len(ids)``.
    """
    if state is None:
        state = ([[] for _ in range(width)], [], [0.0] * width, 0)
    columns, counts, train_sum, n = state
    for word_ids, vector in entries:
        extra = len(ids) - len(counts)
        counts.extend([0] * extra)
        for column in columns:
            column.extend([0.0] * extra)
        for i in word_ids:
            counts[i] += 1
        for c, x in enumerate(vector):
            train_sum[c] += x
            for i in word_ids:
                columns[c][i] += x
        n += 1
    extra = len(ids) - len(counts)
    counts.extend([0] * extra)
    for column in columns:
        column.extend([0.0] * extra)
    return columns, counts, train_sum, n


def oracle_mean_vector(vectors):
    """Component-wise mean, each sum taken left to right from 0.0."""
    means = []
    for column in zip(*vectors):
        total = 0.0
        for x in column:
            total += x
        means.append(total / len(vectors))
    return tuple(means)


def oracle_add_overlaps(sums, actual, predicted):
    """Add one entry's overlap metrics to each component's row of sums:
    accuracy ``min(n, m)``, recall and precision that over the actual and
    the predicted mass (1 when it is zero), and their F1."""
    for row, n, m in zip(sums, actual, predicted):
        a = m if m < n else n
        r = a / n if n > 0 else 1.0
        p = a / m if m > 0 else 1.0
        row[0] += a
        row[1] += r
        row[2] += p
        row[3] += 0.0 if r + p == 0 else 2.0 * r * p / (r + p)


def oracle_score(test, fold, vectorize, sigma):
    """Mean metrics per report row by one loop over the test entries.

    Each entry's prediction averages the per-id mean vectors of its known
    ids with ``oracle_mean_vector`` (the training mean when none is known)
    and its metrics go through ``oracle_add_overlaps``.  ``vectorize`` maps
    one star base onto its star4 vector, or is None for core/all.
    """
    from reaction_lens.evaluation import METRICS, STAR_ROWS
    from reaction_lens.star import discretize_star, gaussian_similarity

    columns, train_mean = fold.means()
    vectors = list(zip(*columns))
    counts = fold.counts
    sums = [[0.0] * len(METRICS) for _ in (STAR_ROWS if vectorize else fold.schema.reactions)]
    overlap_rows, star_row = (sums[:2], sums[2]) if vectorize else (sums, None)
    for word_ids, actual in test:
        known = [vectors[i] for i in word_ids if counts[i]]
        predicted = oracle_mean_vector(known) if known else train_mean
        if star_row is not None:
            actual = vectorize(actual)
            match = 1.0 if discretize_star(predicted[2]) == actual[2] else 0.0
            star_row[0] += gaussian_similarity(predicted[3], actual[3], sigma)
            star_row[1] += match
            star_row[2] += match
            star_row[3] += match
        oracle_add_overlaps(overlap_rows, actual, predicted)
    return [[s / len(test) for s in row] for row in sums]


def oracle_star_vectors(counts_list):
    """Literal two-pass positive/negative aggregation and min-max star scaling."""
    raw = []
    for c in counts_list:
        total = c.love + c.wow + c.sad + c.angry
        positive = (c.love + c.wow) / total
        negative = (c.sad + c.angry) / total
        raw.append((positive, negative, positive - negative))
    lo = min(e for _, _, e in raw)
    hi = max(e for _, _, e in raw)
    out = []
    for positive, negative, aggregate in raw:
        star = 4.0 * ((aggregate - lo) / (hi - lo)) + 1.0
        out.append((positive, negative, aggregate, star))
    return out, lo, hi


def oracle_nearest_half(value):
    """Nearest 0.5 multiple in [1, 5] by exhaustive comparison; ties go up."""
    bins = [1.0 + 0.5 * k for k in range(9)]
    best = bins[0]
    best_distance = abs(value - best)
    for b in bins[1:]:
        d = abs(value - b)
        if d < best_distance or (d == best_distance and b > best):
            best = b
            best_distance = d
    return best


def oracle_clean(raw, stopwords, casefold_ascii, control_ranges):
    """The seven cleaning steps as one per-character, per-rule loop.

    ``control_ranges`` is the cleaner's pinned Cc/Cf table (inclusive
    codepoint ranges, ZWJ excluded).  Returns the kept tokens and the nine
    ``CleanStats`` counters as a dict.
    """
    counters = dict.fromkeys(
        ("zwj_deleted", "controls_replaced", "url_tokens", "email_tokens",
         "tag_tokens", "hashtag_tokens", "foreign_tokens", "stopword_tokens",
         "digit_tokens"),
        0,
    )
    if casefold_ascii:  # the stopwords are folded as the message is
        stopwords = {"".join(chr(ord(c) + 32) if "A" <= c <= "Z" else c for c in w)
                     for w in stopwords}
    chars = []
    for c in raw:
        cp = ord(c)
        if cp == 0x200D:
            counters["zwj_deleted"] += 1
        elif any(first <= cp <= last for first, last in control_ranges):
            counters["controls_replaced"] += 1
            chars.append(" ")
        elif casefold_ascii and "A" <= c <= "Z":
            chars.append(chr(cp + 32))
        else:
            chars.append(c)
    kept = []
    for token in "".join(chars).split():
        lowered = token.lower()
        local, _, domain = token.partition("@")
        if (lowered.startswith("http://") or lowered.startswith("https://")
                or lowered.startswith("www.") or "://" in token):
            counters["url_tokens"] += 1
        elif token.count("@") == 1 and local and "." in domain:
            counters["email_tokens"] += 1
        elif token[0] == "@":
            counters["tag_tokens"] += 1
        elif token[0] == "#":
            counters["hashtag_tokens"] += 1
        elif any(ord(c) > 0x7F and not 0x0D80 <= ord(c) <= 0x0DFF for c in token):
            counters["foreign_tokens"] += 1
        elif token in stopwords:
            counters["stopword_tokens"] += 1
        elif all("0" <= c <= "9" or 0x0DE6 <= ord(c) <= 0x0DEF for c in token):
            counters["digit_tokens"] += 1
        else:
            kept.append(token)
    return tuple(kept), counters


def oracle_iter_rows(spec):
    """The synthetic corpus built one row at a time with numpy indexing.

    Same draws, in the same order, as ``synth.iter_rows``; each row is
    filled into a reused count array and converted element by element.
    numpy is imported here so that importing this module stays numpy-free.
    """
    import numpy as np

    from reaction_lens.engine import ALL_SCHEMA, CORE_SCHEMA
    from reaction_lens.synth import _CHUNK, _multinomial_rows, vocabulary, word_affinities

    vocab = np.array(vocabulary(spec))
    affinities = word_affinities(spec)
    rng = np.random.default_rng(spec.seed + 1)
    like_col = ALL_SCHEMA.reactions.index("like")
    thankful_col = ALL_SCHEMA.reactions.index("thankful")
    core_cols = [ALL_SCHEMA.reactions.index(name) for name in CORE_SCHEMA.reactions]
    odds_mean = (
        spec.like_dominance / (1.0 - spec.like_dominance)
        if spec.like_dominance > 0
        else 0.0
    )
    gamma_shape = 1.0 / (spec.like_variability * spec.like_variability)
    produced = 0
    while produced < spec.rows:
        m = min(_CHUNK, spec.rows - produced)
        lengths = rng.integers(spec.length_min, spec.length_max + 1, size=m)
        word_ids = rng.integers(0, spec.vocab_size, size=int(lengths.sum()))
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        probs = np.add.reduceat(affinities[word_ids], offsets[:-1], axis=0)
        probs /= lengths[:, None]
        core_totals = np.maximum(1, rng.poisson(spec.reaction_scale, size=m))
        core_counts = _multinomial_rows(rng, core_totals, probs)
        if odds_mean > 0:
            odds = rng.gamma(gamma_shape, odds_mean / gamma_shape, size=m)
            likes = rng.poisson(core_totals * odds)
        else:
            likes = np.zeros(m, dtype=np.int64)
        if spec.thankful_rate > 0:
            thankfuls = rng.binomial(1, spec.thankful_rate, size=m)
        else:
            thankfuls = np.zeros(m, dtype=np.int64)
        row = np.zeros(ALL_SCHEMA.size, dtype=np.int64)
        for i in range(m):
            words = vocab[word_ids[offsets[i] : offsets[i + 1]]]
            row[:] = 0
            row[like_col] = likes[i]
            row[thankful_col] = thankfuls[i]
            row[core_cols] = core_counts[i]
            yield " ".join(words), tuple(int(v) for v in row)
        produced += m


def oracle_truth_bytes(spec):
    """The synth truth file as bytes: one dict of per-word float lists,
    written with ``json.dump``.  numpy is imported here, with synth."""
    from reaction_lens.engine import CORE_SCHEMA
    from reaction_lens.synth import vocabulary, word_affinities

    truth = {
        "spec": asdict(spec),
        "reactions": list(CORE_SCHEMA.reactions),
        "affinities": {
            word: [float(v) for v in row]
            for word, row in zip(vocabulary(spec), word_affinities(spec))
        },
    }
    out = io.StringIO()
    json.dump(truth, out, indent=2)
    out.write("\n")
    return out.getvalue().encode("utf-8")


def oracle_load_entries(body, schema):
    """A lexicon artifact's entry lines parsed one line at a time.

    ``body`` is the text after the ``#sha256`` header.  Blank lines are
    skipped, a repeated word keeps its first position and its last value,
    and the first bad line raises CorruptArtifact.
    """
    entries = {}
    for line in body.split("\n"):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2 + schema.size:
            raise CorruptArtifact(f"entry line has {len(fields)} fields: {line!r}")
        word = fields[0]
        try:
            count = int(fields[1])
            vector = tuple(float(v) for v in fields[2:])
        except ValueError:
            raise CorruptArtifact(f"unparseable entry line: {line!r}") from None
        entries[word] = (vector, count)
    return entries


class _Ledger:
    """Malformed rows as the corpus reader reports them: every one to
    ``errors`` (if given), the first five logged one by one, then a count."""

    def __init__(self, errors):
        self.errors = errors
        self.count = 0
        self.log = logging.getLogger("reaction_lens.corpus_io")

    def add(self, line, reason):
        from reaction_lens.corpus_io import LOGGED_MALFORMED_ROWS, MalformedRow

        self.count += 1
        if self.count <= LOGGED_MALFORMED_ROWS:
            self.log.warning("skipping malformed row at line %d: %s", line, reason)
        if self.errors is not None:
            self.errors.append(MalformedRow(line, reason))

    def close(self):
        from reaction_lens.corpus_io import LOGGED_MALFORMED_ROWS

        if self.count > LOGGED_MALFORMED_ROWS:
            self.log.warning("%d more malformed rows not shown", self.count - LOGGED_MALFORMED_ROWS)


class _TooManyLines(Exception):
    pass


def _oracle_csv_record(lines, start):
    """One CSV record read by a fresh ``csv.reader`` from ``lines[start:]``.

    Returns ``(kind, value, lines_used)``: ``("row", row, n)``,
    ``("error", message, n)`` for a ``csv.Error`` at the ``n``-th line,
    ``("open", message, 1)`` for a quoted field still open after
    ``MAX_RECORD_LINES`` lines or at the end, or ``("end", None, 0)``.
    """
    from reaction_lens.corpus_io import MAX_RECORD_LINES

    used = [0, False]  # lines handed out, asked past the last line

    def feed():
        for j in range(start, len(lines)):
            if used[0] == MAX_RECORD_LINES:
                raise _TooManyLines
            used[0] += 1
            yield lines[j]
        used[1] = True

    try:
        row = next(csv.reader(feed()))
    except StopIteration:
        return "end", None, 0
    except _TooManyLines:
        return "open", f"quoted field not closed within {MAX_RECORD_LINES} lines", 1
    except csv.Error as exc:
        return "error", str(exc), used[0]
    if used[1] and used[0]:
        return "open", "quoted field still open at end of input", 1
    return "row", row, used[0]


def _has_lone_surrogate(text):
    return any(0xD800 <= ord(c) <= 0xDFFF for c in text)


def _oracle_count_error(texts, columns):
    """Why count fields failed: the first bad column, in column order."""
    for text, column in zip(texts, columns):
        if _has_lone_surrogate(text):
            return f"column {column!r}: invalid UTF-8 bytes"
        try:
            value = int(text)
        except ValueError:
            return f"column {column!r}: {text!r} is not an integer"
        if value < 0:
            return f"column {column!r}: negative count {value}"
    raise AssertionError(f"no bad count among {texts!r}")


def oracle_load_corpus(source, format="csv", schema_map=None, errors=None):
    """The corpus readers one row at a time, as a list of PostRecords.

    ``source`` is a binary file or a path.  CSV records are read one at a
    time, each by a fresh ``csv.reader`` from the line after the last
    record: a ``csv.Error`` quarantines the line it stopped on, and a quoted
    field still open after ``MAX_RECORD_LINES`` lines or at the end of the
    input quarantines its opening line, with reading resumed on the line
    after it.  A row's line is its last line.  JSONL is read line by line.
    """
    from reaction_lens.corpus_io import DEFAULT_SCHEMA_MAP, PostRecord, ReactionCounts
    from reaction_lens.engine import ALL_SCHEMA

    if not hasattr(source, "read"):
        source = open(source, "rb")
    with io.TextIOWrapper(source, encoding="utf-8-sig", errors="surrogateescape",
                          newline="" if format == "csv" else None) as text:
        lines = list(text)
    mapping = {**DEFAULT_SCHEMA_MAP, **(schema_map or {})}
    ledger = _Ledger(errors)
    records = []
    if format == "csv":
        kind, header, used = _oracle_csv_record(lines, 0)
        if kind == "end":
            return []
        if kind != "row":
            raise SchemaMismatch(f"unreadable CSV header: {header}")
        columns = {name: idx for idx, name in enumerate(header)}
        for field_name in DEFAULT_SCHEMA_MAP:
            if mapping[field_name] not in columns:
                raise SchemaMismatch(f"missing column {mapping[field_name]!r} in CSV header")
        indices = [columns[mapping[name]] for name in DEFAULT_SCHEMA_MAP]
        id_index = columns.get(mapping["id"]) if "id" in mapping else None
        count_columns = [mapping[name] for name in ALL_SCHEMA.reactions]
        needed = max(indices)
        start = used
        while True:
            kind, row, used = _oracle_csv_record(lines, start)
            if kind == "end":
                break
            line = start + used
            start += used
            if kind != "row":
                ledger.add(line, row)
                continue
            if not row:
                continue
            if len(row) <= needed:
                ledger.add(line, f"expected at least {needed + 1} fields, got {len(row)}")
                continue
            message = row[indices[0]]
            if _has_lone_surrogate(message):
                ledger.add(line, "message column: invalid UTF-8 bytes")
                continue
            texts = [row[i] for i in indices[1:]]
            try:
                values = [int(t) for t in texts]
            except ValueError:
                values = None
            if values is None or min(values) < 0:
                ledger.add(line, _oracle_count_error(texts, count_columns))
                continue
            record_id = row[id_index] if id_index is not None and id_index < len(row) else None
            records.append(PostRecord(message, ReactionCounts(*values), record_id))
    elif format == "jsonl":
        for line_num, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            if _has_lone_surrogate(line):
                ledger.add(line_num, "invalid UTF-8 bytes")
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                ledger.add(line_num, f"bad JSON: {exc}")
                continue
            if not isinstance(obj, dict):
                ledger.add(line_num, "JSONL row is not an object")
                continue
            try:
                column = mapping["message"]
                if column not in obj:
                    raise ValueError(f"missing key {column!r}")
                message = obj[column]
                if not isinstance(message, str):
                    raise ValueError(f"key {column!r} is not a string")
                if _has_lone_surrogate(message):
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
                    if _has_lone_surrogate(record_id):
                        raise ValueError(f"key {mapping['id']!r}: lone surrogate")
            except ValueError as exc:
                ledger.add(line_num, str(exc))
                continue
            records.append(PostRecord(message, ReactionCounts(*values), record_id))
    else:
        raise ValueError(f"unknown corpus format {format!r}")
    ledger.close()
    return records


def oracle_prepare(entries, model, ids, tally=None):
    """(word_ids, base) per entry, one entry at a time: the base as the
    per-entry ``normalize`` or ``star_normalize`` computed it (a zero total
    drops the entry before its words get ids), then each word's id by
    ``setdefault``, in word order."""
    from reaction_lens.engine import ALL_SCHEMA, get_schema

    for words, counts in entries:
        if model == "star":
            _, love, wow, _, sad, angry, _ = counts
            total = love + wow + sad + angry
            base = ((love + wow) / total, (sad + angry) / total) if total > 0 else None
        else:
            raw = [counts[ALL_SCHEMA.reactions.index(name)] for name in get_schema(model).reactions]
            total = sum(raw)
            base = tuple(n / total for n in raw) if total > 0 else None
        if base is None:
            if tally is not None:
                tally["excluded"] += 1
            continue
        yield tuple({ids.setdefault(w, len(ids)) for w in words}), base
