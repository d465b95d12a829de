"""Deterministic synthetic corpus generator with latent word affinities.

Every vocabulary word gets a latent affinity distribution over the five
core reactions (Dirichlet-sampled, or a fixed vector for degenerate
setups).  A message samples words uniformly, and its core reaction counts
are a multinomial draw around the mean affinity of its words, so the
word -> reaction signal strength is tunable through the Dirichlet
concentration.  Like counts are attached per row with a noisy odds ratio
whose expectation matches the requested like-dominance fraction, which
makes the like share realistic in aggregate while varying row to row.

Generation is chunked numpy sampling from a single seeded generator, so a
given spec always produces byte-identical output.  Each chunk's draws
become Python lists once (one count matrix, the word ids and the message
offsets), so yielding a row is a list slice, a join and a tuple.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from operator import add
from pathlib import Path
from typing import Iterator

import numpy as np

from .artifacts import atomic_write
from .corpus_io import save_corpus
from .engine import ALL_SCHEMA, CORE_SCHEMA
from .errors import InvalidSpec

_CHUNK = 10_000
# Size bounds, checked before anything is allocated (see SynthSpec).
MAX_VOCAB_SIZE = 2**20
MAX_CHUNK_WORDS = 2**22
# numpy's Poisson draws reject a mean above int64 max - 10 * sqrt(int64 max).
POISSON_LAM_MAX = 2.0**63 - 1 - 10 * math.sqrt(2.0**63 - 1)


@dataclass(frozen=True)
class SynthSpec:
    """The parameters of one corpus; the constructor raises InvalidSpec.

    ``vocab_size`` is at most ``MAX_VOCAB_SIZE`` (2**20 words; about 150 MiB
    peak in ``write_corpus``), and a chunk of ``min(rows, _CHUNK)`` messages
    of up to ``length_max`` words at most ``MAX_CHUNK_WORDS`` (2**22) words
    (about 0.25 GiB).  ``rows`` is unbounded: rows stream chunk by chunk.
    """

    rows: int
    vocab_size: int = 2000
    affinity_concentration: float = 0.5
    fixed_affinity: tuple[float, ...] | None = None
    length_min: int = 3
    length_max: int = 12
    reaction_scale: float = 20.0
    like_dominance: float = 0.95
    like_variability: float = 0.8
    thankful_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.rows < 1:
            raise InvalidSpec(f"rows must be >= 1, got {self.rows}")
        if not 1 <= self.vocab_size <= MAX_VOCAB_SIZE:
            raise InvalidSpec(
                f"vocab_size must be in [1, {MAX_VOCAB_SIZE}], got {self.vocab_size}"
            )
        if not 0 < self.affinity_concentration < math.inf:
            raise InvalidSpec("affinity_concentration must be positive and finite")
        if self.fixed_affinity is not None:
            affinity = tuple(float(v) for v in self.fixed_affinity)
            if len(affinity) != CORE_SCHEMA.size:
                raise InvalidSpec(
                    f"fixed_affinity needs {CORE_SCHEMA.size} components"
                )
            total = sum(affinity)
            if any(not 0 <= v < math.inf for v in affinity) or not 0 < total < math.inf:
                raise InvalidSpec("fixed_affinity must be non-negative, with a finite total > 0")
            object.__setattr__(
                self, "fixed_affinity", tuple(v / total for v in affinity)
            )
        if not 1 <= self.length_min <= self.length_max:
            raise InvalidSpec(
                f"need 1 <= length_min <= length_max, got "
                f"[{self.length_min}, {self.length_max}]"
            )
        chunk = min(self.rows, _CHUNK)
        if chunk * self.length_max > MAX_CHUNK_WORDS:
            raise InvalidSpec(
                f"a chunk of {chunk} messages of up to {self.length_max} words "
                f"passes the bound of {MAX_CHUNK_WORDS} words"
            )
        if not 0 < self.reaction_scale <= POISSON_LAM_MAX:
            raise InvalidSpec(
                "reaction_scale must be positive and at most numpy's "
                f"Poisson limit {POISSON_LAM_MAX:.4g}"
            )
        if not 0.0 <= self.like_dominance < 1.0:
            raise InvalidSpec("like_dominance must be in [0, 1)")
        # iter_rows draws like odds from a gamma of shape 1 / variability^2.
        square = self.like_variability * self.like_variability
        if not (self.like_variability > 0 and square > 0 and 0 < 1.0 / square < math.inf):
            raise InvalidSpec("like_variability must be positive, with 1/v^2 a finite float")
        if not 0.0 <= self.thankful_rate <= 1.0:
            raise InvalidSpec("thankful_rate must be in [0, 1]")


def vocabulary(spec: SynthSpec) -> list[str]:
    width = max(4, len(str(spec.vocab_size - 1)))
    return list(map(f"w%0{width}d".__mod__, range(spec.vocab_size)))


def word_affinities(spec: SynthSpec) -> np.ndarray:
    """Latent per-word core-reaction affinities, shape (vocab, 5)."""
    rng = np.random.default_rng(spec.seed)
    if spec.fixed_affinity is not None:
        return np.tile(np.asarray(spec.fixed_affinity), (spec.vocab_size, 1))
    alpha = np.full(CORE_SCHEMA.size, spec.affinity_concentration)
    return rng.dirichlet(alpha, size=spec.vocab_size)


def _multinomial_rows(rng, totals: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Exact multinomial sampling with per-row probabilities (stick-breaking)."""
    m, k = probs.shape
    counts = np.zeros((m, k), dtype=np.int64)
    remaining = totals.astype(np.int64).copy()
    remaining_p = np.ones(m)
    for j in range(k - 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            pj = np.where(remaining_p > 0, probs[:, j] / remaining_p, 0.0)
        counts[:, j] = rng.binomial(remaining, np.clip(pj, 0.0, 1.0))
        remaining -= counts[:, j]
        remaining_p = np.maximum(remaining_p - probs[:, j], 0.0)
    counts[:, k - 1] = remaining
    return counts


def iter_rows(spec: SynthSpec) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Yield (message, reaction_counts_tuple) rows in ALL_SCHEMA order."""
    yield from _rows(spec, vocabulary(spec), word_affinities(spec))


def _rows(spec: SynthSpec, vocab: list[str], affinities: np.ndarray):
    """``iter_rows`` over a built vocabulary and affinity matrix."""
    # word_affinities consumed draws from its own generator; generation below
    # re-seeds so the affinity matrix and the rows stay independent and the
    # whole corpus remains a pure function of the spec.
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
            try:
                likes = rng.poisson(core_totals * odds)
            except ValueError:
                raise InvalidSpec(
                    f"like counts pass numpy's Poisson limit {POISSON_LAM_MAX:.4g}; "
                    "lower like_dominance or reaction_scale"
                ) from None
        else:
            likes = np.zeros(m, dtype=np.int64)
        if spec.thankful_rate > 0:
            thankfuls = rng.binomial(1, spec.thankful_rate, size=m)
        else:
            thankfuls = np.zeros(m, dtype=np.int64)
        counts = np.zeros((m, ALL_SCHEMA.size), dtype=np.int64)
        counts[:, like_col] = likes
        counts[:, thankful_col] = thankfuls
        counts[:, core_cols] = core_counts
        words = [vocab[i] for i in word_ids.tolist()]
        bounds = offsets.tolist()
        for start, end, row in zip(bounds, bounds[1:], counts.tolist()):
            yield " ".join(words[start:end]), tuple(row)
        produced += m


def _write_truth(spec: SynthSpec, fh, vocab: list[str], affinities: np.ndarray) -> None:
    """Write what ``json.dump(truth, fh, indent=2)`` and a newline would, one
    word's affinities at a time (a finite float's repr is its JSON text)."""
    head = {"spec": asdict(spec), "reactions": list(CORE_SCHEMA.reactions)}
    fh.write(json.dumps(head, indent=2)[:-2] + ',\n  "affinities": {\n')
    entry = '    "%s": [\n' + ",\n".join(["      %r"] * CORE_SCHEMA.size) + "\n    ]"
    rows = map(np.ndarray.tolist, affinities)
    entries = (entry % (word, *row) for word, row in zip(vocab, rows))
    fh.write(next(entries))
    fh.writelines(map(",\n".__add__, entries))
    fh.write("\n  }\n}\n")


def write_corpus(spec: SynthSpec, output, format: str = "csv") -> dict:
    """Write the corpus plus a ground-truth affinity file next to it.

    Returns a summary with the row count, per-reaction totals, the
    aggregate like share actually realized, and the affinity file's path.
    """
    output = Path(output)
    truth_path = output.with_name(output.name + ".affinities.json")
    sums = [0] * ALL_SCHEMA.size
    vocab, affinities = vocabulary(spec), word_affinities(spec)

    def records():
        for message, counts in _rows(spec, vocab, affinities):
            sums[:] = map(add, sums, counts)
            yield message, counts, None

    rows = save_corpus(records(), output, format)
    totals = dict(zip(ALL_SCHEMA.reactions, sums))
    with atomic_write(truth_path) as fh:
        _write_truth(spec, fh, vocab, affinities)
    grand = sum(totals.values())
    return {
        "rows": rows,
        "totals": totals,
        "like_share": totals["like"] / grand if grand else 0.0,
        "truth_path": str(truth_path),
    }
