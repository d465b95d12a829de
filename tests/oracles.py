"""Independent brute-force reference implementations used to cross-check
the engine.  Everything here is written as literal loops over definitions,
deliberately ignoring the library's incremental/streaming code paths.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import asdict

from reaction_lens.errors import CorruptArtifact, EmptySide


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
