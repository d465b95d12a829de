"""Word-averaging reaction lexicon engine.

A post's reaction counts are normalized into a distribution over a declared
reaction schema.  Training folds each post's distribution into every unique
word of its message; finalizing averages the per-word sums.  Prediction
averages the vectors of a message's known words and falls back to the
training mean when no word is known.

The same engine serves the 5-reaction and 7-reaction models (both unit-sum
distributions) and the 4-component star-sentiment vectors (not unit-sum);
the schema declares which invariants apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    EmptyTrainingSet,
    SchemaMismatch,
    UnfinalizedLexicon,
    ZeroReactionTotal,
)

VECTOR_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ReactionSchema:
    """An ordered, named list of reaction components.

    ``unit_sum`` marks schemas whose vectors are probability distributions
    (components in [0, 1] summing to 1).  Star-sentiment vectors carry
    independent components and set it to False.
    """

    name: str
    reactions: tuple[str, ...]
    unit_sum: bool = True

    def __post_init__(self):
        if len(set(self.reactions)) != len(self.reactions):
            raise ValueError(f"duplicate reaction names in schema {self.name!r}")
        if not self.reactions:
            raise ValueError("schema needs at least one reaction")

    @property
    def size(self) -> int:
        return len(self.reactions)


CORE_SCHEMA = ReactionSchema("core", ("love", "wow", "haha", "sad", "angry"))
ALL_SCHEMA = ReactionSchema(
    "all", ("like", "love", "wow", "haha", "sad", "angry", "thankful")
)
STAR_SCHEMA = ReactionSchema(
    "star4", ("positive", "negative", "star_disc", "star_cont"), unit_sum=False
)

SCHEMAS = {s.name: s for s in (CORE_SCHEMA, ALL_SCHEMA, STAR_SCHEMA)}


def get_schema(name: str) -> ReactionSchema:
    try:
        return SCHEMAS[name]
    except KeyError:
        raise SchemaMismatch(f"unknown reaction schema {name!r}") from None


def is_valid_vector(vector: Sequence[float], schema: ReactionSchema) -> bool:
    """True if ``vector`` satisfies the schema's shape and range invariants."""
    if len(vector) != schema.size:
        return False
    if schema.unit_sum:
        if any(v < 0.0 or v > 1.0 for v in vector):
            return False
        if abs(sum(vector) - 1.0) > VECTOR_SUM_TOL:
            return False
    return True


def normalize(counts, schema: ReactionSchema) -> tuple[float, ...]:
    """Normalize raw reaction counts into a distribution over the schema.

    ``counts`` is any object exposing one non-negative integer attribute per
    schema reaction.  Only schema reactions enter the total, so a post whose
    mass lies entirely outside the schema raises ZeroReactionTotal and must
    be excluded from training and evaluation.
    """
    raw = [getattr(counts, r) for r in schema.reactions]
    total = sum(raw)
    if total <= 0:
        raise ZeroReactionTotal(
            f"no positive count among schema {schema.name!r} reactions"
        )
    return tuple(n / total for n in raw)


@dataclass
class ReactionLexicon:
    """Mapping word -> reaction vector, built by summing then averaging.

    While accumulating, ``entries`` maps each word to its running component
    sums and the number of training entries containing it.  ``finalize()``
    replaces the sums with their averages and freezes the lexicon; only a
    finalized lexicon can predict or be persisted.

    ``train_mean`` is the component-wise mean over all training entries'
    vectors (not over words); it is the fallback prediction for messages
    with no known word, and is None when the training set was empty.
    """

    schema: ReactionSchema
    entries: dict = field(default_factory=dict)
    train_entry_count: int = 0
    train_mean: tuple[float, ...] | None = None
    finalized: bool = False
    meta: dict = field(default_factory=dict, compare=False)
    _train_sum: list = field(default_factory=list, repr=False, compare=False)

    def add_entry(self, words: Iterable[str], vector: Sequence[float]) -> None:
        """Fold one training entry (its unique words, its vector) into the sums."""
        if self.finalized:
            raise ValueError("cannot add entries to a finalized lexicon")
        if len(vector) != self.schema.size:
            raise SchemaMismatch(
                f"vector has {len(vector)} components, schema "
                f"{self.schema.name!r} expects {self.schema.size}"
            )
        k = self.schema.size
        if not self._train_sum:
            self._train_sum = [0.0] * k
        for i in range(k):
            self._train_sum[i] += vector[i]
        self.train_entry_count += 1
        entries = self.entries
        for w in set(words):
            rec = entries.get(w)
            if rec is None:
                entries[w] = (list(vector), 1)
            else:
                sums, n = rec
                for i in range(k):
                    sums[i] += vector[i]
                entries[w] = (sums, n + 1)

    def merge(self, other: "ReactionLexicon") -> None:
        """Fold another accumulating lexicon into this one (shard merge)."""
        if self.finalized or other.finalized:
            raise ValueError("merge operates on accumulating lexicons only")
        if other.schema != self.schema:
            raise SchemaMismatch(
                f"cannot merge schema {other.schema.name!r} into {self.schema.name!r}"
            )
        k = self.schema.size
        if other.train_entry_count:
            if not self._train_sum:
                self._train_sum = [0.0] * k
            for i in range(k):
                self._train_sum[i] += other._train_sum[i]
            self.train_entry_count += other.train_entry_count
        entries = self.entries
        for w, (osums, on) in other.entries.items():
            rec = entries.get(w)
            if rec is None:
                entries[w] = (list(osums), on)
            else:
                sums, n = rec
                for i in range(k):
                    sums[i] += osums[i]
                entries[w] = (sums, n + on)

    def finalize(self) -> "ReactionLexicon":
        """Average the sums in place and freeze the lexicon.  Returns self."""
        if self.finalized:
            raise ValueError("lexicon already finalized")
        for w, (sums, n) in self.entries.items():
            self.entries[w] = (tuple(s / n for s in sums), n)
        if self.train_entry_count > 0:
            self.train_mean = tuple(
                s / self.train_entry_count for s in self._train_sum
            )
        else:
            self.train_mean = None
        self._train_sum = []
        self.finalized = True
        return self


def build_lexicon(
    training: Iterable[tuple[Iterable[str], Sequence[float]]],
    schema: ReactionSchema,
) -> ReactionLexicon:
    """Build and finalize a lexicon from (unique_words, vector) pairs.

    An empty training iterable still yields a finalized lexicon, but with
    ``train_mean`` None; prediction against it raises EmptyTrainingSet.
    """
    lexicon = ReactionLexicon(schema)
    for words, vector in training:
        lexicon.add_entry(words, vector)
    return lexicon.finalize()


def predict(
    message_words: Iterable[str], lexicon: ReactionLexicon
) -> tuple[tuple[float, ...], float]:
    """Predict a reaction vector for a message's words.

    Returns ``(vector, coverage)`` where coverage is the fraction of the
    message's unique words found in the lexicon.  Duplicates count once.
    Known-word vectors are averaged in sorted word order so the result is
    independent of the caller's iteration order; with no known word the
    training-mean fallback is returned with coverage 0.
    """
    if not lexicon.finalized:
        raise UnfinalizedLexicon("predict requires a finalized lexicon")
    unique = set(message_words)
    entries = lexicon.entries
    known = [w for w in unique if w in entries]
    if not known:
        if lexicon.train_mean is None:
            raise EmptyTrainingSet(
                "lexicon has no training entries and no fallback vector"
            )
        return lexicon.train_mean, 0.0
    known.sort()
    k = lexicon.schema.size
    sums = [0.0] * k
    for w in known:
        vec = entries[w][0]
        for i in range(k):
            sums[i] += vec[i]
    n = len(known)
    return tuple(s / n for s in sums), n / len(unique)
