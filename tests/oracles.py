"""Independent brute-force reference implementations used to cross-check
the engine.  Everything here is written as literal loops over definitions,
deliberately ignoring the library's incremental/streaming code paths.
"""

from __future__ import annotations

import random

from reaction_lens.errors import EmptySide


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
