"""Positive/negative sentiment aggregation and 1-5 star scaling.

Love and Wow count as positive, Sad and Angry as negative; Haha is excluded
as uncertain (it is used both genuinely and sarcastically), and Like and
Thankful never enter these sums (``engine.POLARITY``).  A block of posts'
positive and negative masses are normalized over the four polar reactions
(``star_normalize_columns``), their difference is min-max scaled onto
[1, 5] using the training range, and the star value is also snapped to the
nearest 0.5 bin.  ``star_columns`` builds the resulting 4-component vectors
[positive, negative, star_disc, star_cont] a block at a time; they feed the
shared lexicon engine.
"""

from __future__ import annotations

import math
from operator import add
from typing import Iterable, Sequence

from .engine import ALL_SCHEMA, POLARITY, divide_columns
from .errors import DegenerateRange

STAR_MIN = 1.0
STAR_MAX = 5.0
STAR_BIN = 0.5


def star_normalize_columns(counts: Sequence):
    """Positive and negative masses of counts, normalized over the four polar reactions.

    ``counts`` are seven-count tuples in ``ALL_SCHEMA`` order.  Returns
    ``(kept, [positive, negative])`` as ``engine.divide_columns`` gives them.
    """
    columns = list(zip(*counts))
    (love, wow), (sad, angry) = (
        [columns[ALL_SCHEMA.reactions.index(name)] for name, sign in POLARITY.items() if sign == side]
        for side in ("positive", "negative")
    )
    positive = list(map(add, love, wow))
    totals = list(map(add, map(add, positive, sad), angry))
    return divide_columns([positive, list(map(add, sad, angry))], totals)


def star_scale(aggregate: float, corpus_min: float, corpus_max: float) -> float:
    """Min-max scale an aggregate sentiment onto [1, 5].

    The range comes from the training set; values outside it (test entries)
    are clamped so the result stays in [1, 5].
    """
    if corpus_max <= corpus_min:
        raise DegenerateRange(
            f"aggregate range [{corpus_min}, {corpus_max}] has zero width"
        )
    star = 4.0 * (aggregate - corpus_min) / (corpus_max - corpus_min) + 1.0
    return min(STAR_MAX, max(STAR_MIN, star))


def discretize_star(star: float) -> float:
    """Snap a star value in [1, 5] to the nearest 0.5; midpoints round up."""
    if not STAR_MIN <= star <= STAR_MAX:
        raise ValueError(f"star value {star} outside [1, 5]")
    snapped = STAR_MIN + STAR_BIN * math.floor((star - STAR_MIN) / STAR_BIN + 0.5)
    return min(STAR_MAX, snapped)


def star_range(bases: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Min and max aggregate over (positive, negative) training bases.

    Requires at least two entries with distinct aggregates, otherwise the
    min-max scaling is undefined (DegenerateRange).
    """
    aggregates = [positive - negative for positive, negative in bases]
    if not aggregates:
        raise DegenerateRange("empty training set")
    corpus_min = min(aggregates)
    corpus_max = max(aggregates)
    if corpus_max <= corpus_min:
        raise DegenerateRange("all training aggregates are equal")
    return corpus_min, corpus_max


def star_columns(bases: Sequence[tuple[float, float]], lo: float, hi: float) -> tuple:
    """The star4 vectors of (positive, negative) bases, one sequence per component."""
    stars = [star_scale(p - n, lo, hi) for p, n in bases]
    return (*zip(*bases), list(map(discretize_star, stars)), stars)


def gaussian_similarity(predicted: float, actual: float, sigma: float = 1.0) -> float:
    """Gaussian kernel similarity in (0, 1]; 1 at zero distance.

    ``sigma`` must be positive; ``ExperimentConfig`` checks it.
    """
    d = predicted - actual
    return math.exp(-(d * d) / (2.0 * sigma * sigma))
