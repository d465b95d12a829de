"""Word-averaging reaction lexicon engine.

A block of posts' reaction counts is normalized into distributions over a
declared reaction schema (``normalize_columns``).  Training folds each
post's distribution into every unique word of its message (``Fold``, keyed
by integer word id); ``Fold.lexicon`` averages the per-word sums into a
frozen, word-keyed ``ReactionLexicon``.
Prediction averages the vectors of a message's known words and falls back
to the training mean when no word is known.

The same engine serves the 5-reaction and 7-reaction models (both unit-sum
distributions) and the 4-component star-sentiment vectors (not unit-sum).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, islice
from operator import itemgetter, truediv
from typing import Collection, Iterable, Iterator, Sequence

from .errors import EmptyTrainingSet, SchemaMismatch


class ReactionSchema(namedtuple("ReactionSchema", "name reactions")):
    """An ordered, named list of reaction components."""

    __slots__ = ()

    def __new__(cls, name: str, reactions: tuple[str, ...]):
        if len(set(reactions)) != len(reactions):
            raise ValueError(f"duplicate reaction names in schema {name!r}")
        if not reactions:
            raise ValueError("schema needs at least one reaction")
        return super().__new__(cls, name, reactions)

    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make

    @property
    def size(self) -> int:
        return len(self.reactions)


CORE_SCHEMA = ReactionSchema("core", ("love", "wow", "haha", "sad", "angry"))
ALL_SCHEMA = ReactionSchema(
    "all", ("like", "love", "wow", "haha", "sad", "angry", "thankful")
)
STAR_SCHEMA = ReactionSchema("star4", ("positive", "negative", "star_disc", "star_cont"))

SCHEMAS = {s.name: s for s in (CORE_SCHEMA, ALL_SCHEMA, STAR_SCHEMA)}

# The sign of each core reaction in the star model (``star``): Haha is
# uncertain, used both genuinely and sarcastically.
POLARITY = {
    "love": "positive",
    "wow": "positive",
    "haha": "uncertain",
    "sad": "negative",
    "angry": "negative",
}

POLAR_REACTIONS = tuple(r for r, polarity in POLARITY.items() if polarity != "uncertain")

# The models a lexicon is trained for: the core and all reaction
# distributions, and star-sentiment vectors over STAR_SCHEMA.
MODELS = ("core", "all", "star")


def get_schema(name: str) -> ReactionSchema:
    try:
        return SCHEMAS[name]
    except KeyError:
        raise SchemaMismatch(f"unknown reaction schema {name!r}") from None


def count_getter(names: Sequence[str]) -> itemgetter:
    """Pick the counts of two or more ``names`` out of counts in ``ALL_SCHEMA`` order."""
    return itemgetter(*map(ALL_SCHEMA.reactions.index, names))


_PROJECTIONS = {schema.name: count_getter(schema.reactions) for schema in (CORE_SCHEMA, ALL_SCHEMA)}


def normalize_columns(counts: Sequence, schema: ReactionSchema):
    """Seven-count tuples (``ALL_SCHEMA`` order) as distributions over ``schema``
    (core or all), whose reactions alone enter a total: ``(kept, columns)`` as
    ``divide_columns`` gives them, so an entry with a zero total is dropped."""
    raw = list(map(_PROJECTIONS[schema.name], counts))
    return divide_columns(list(zip(*raw)), list(map(sum, raw)))


def divide_columns(parts: Sequence[Sequence], totals: Sequence):
    """Each column of ``parts`` over ``totals``, for the entries whose total is positive.

    Returns ``(kept, columns)``: ``kept`` is None when every total is
    positive, else one bool per entry (False for a dropped one), and
    ``columns`` holds one list per part.
    """
    kept = None
    if min(totals) <= 0:
        kept = [total > 0 for total in totals]
        parts = [list(compress(part, kept)) for part in parts]
        totals = list(compress(totals, kept))
    return kept, [list(map(truediv, part, totals)) for part in parts]


_BLOCK = 512  # entries per block of the fold and the eval scorer, chosen by measurement


def blocks(items: Iterable) -> Iterator[list]:
    """Successive lists of up to ``_BLOCK`` items, in order."""
    items = iter(items)
    return iter(lambda: list(islice(items, _BLOCK)), [])


class Fold:
    """Training sums keyed by integer word id.

    ``ids`` maps each word to its id; ids are ``0 .. len(ids) - 1`` in the
    order words were first given one.  The fold keeps one list of floats per
    schema component and one list of counts, all indexed by id, plus the
    component sums over all entries.  Several folds may share one ``ids``
    map; a fold grows its lists when words were added to the map after it.

    Blocks fold one component at a time; no sum mixes components, so each keeps entry order.
    """

    def __init__(self, schema: ReactionSchema, ids: dict | None = None):
        self.schema = schema
        self.ids = {} if ids is None else ids
        size = len(self.ids)
        self.columns = [[0.0] * size for _ in schema.reactions]
        self.counts = [0] * size
        self.train_sum = [0.0] * schema.size
        self.entries = 0

    def _grow(self) -> None:
        extra = len(self.ids) - len(self.counts)
        self.counts.extend([0] * extra)
        for column in self.columns:
            column.extend([0.0] * extra)

    def add_many(self, entries: Iterable[tuple[Collection[int], Sequence[float]]]) -> None:
        """Fold (distinct word ids, vector) entries; ``entries`` may add to ``ids``."""
        counts, train_sum, schema = self.counts, self.train_sum, self.schema
        for block in blocks(entries):
            self._grow()
            id_lists, vectors = zip(*block)
            if widths := set(map(len, vectors)) - {schema.size}:
                raise SchemaMismatch(
                    f"vector has {widths.pop()} components, schema {schema.name!r} "
                    f"expects {schema.size}"
                )
            for word_ids in id_lists:
                for i in word_ids:
                    counts[i] += 1
            for c, (column, xs) in enumerate(zip(self.columns, zip(*vectors))):
                s = train_sum[c]
                for word_ids, x in zip(id_lists, xs):
                    s += x
                    for i in word_ids:
                        column[i] += x
                train_sum[c] = s
            self.entries += len(block)

    def means(self) -> tuple[list[list[float]], tuple[float, ...] | None]:
        """Mean per id, one list per component, and the mean over all entries.

        An id that no entry contained has count 0 and zero means; callers
        check ``counts``.  The entry mean is None when no entry was added.
        """
        self._grow()
        divisors = [n or 1 for n in self.counts]
        columns = [list(map(truediv, column, divisors)) for column in self.columns]
        mean = tuple(s / self.entries for s in self.train_sum) if self.entries else None
        return columns, mean

    def lexicon(self) -> "ReactionLexicon":
        """The lexicon of every word an entry contained."""
        columns, train_mean = self.means()
        entries = {
            word: (vector, n)
            for word, vector, n in zip(self.ids, zip(*columns), self.counts)
            if n
        }
        return ReactionLexicon(self.schema, entries, self.entries, train_mean)


class ReactionLexicon(
    namedtuple("ReactionLexicon", "schema entries train_entry_count train_mean meta")
):
    """Mapping word -> (mean reaction vector, number of training entries).

    Only ``Fold.lexicon`` and the ``artifacts`` reader make one.
    ``Fold.lexicon`` and ``artifacts.load_lexicon`` give a finished table.
    An ``artifacts.LexiconFile`` holds the entries of the words parsed so
    far; the ``predict`` command parses a chunk's words before it scores them.

    ``train_mean`` is the component-wise mean over all training entries'
    vectors (not over words); it is the fallback prediction for messages
    with no known word, and is None when the training set was empty.
    ``meta`` holds the artifact's header notes (a fresh ``{}`` by default);
    lexicons compare by every field but ``meta``.
    """

    __slots__ = ()

    def __new__(cls, schema, entries, train_entry_count, train_mean, meta=None):
        meta = {} if meta is None else meta
        return super().__new__(cls, schema, entries, train_entry_count, train_mean, meta)

    def __eq__(self, other):
        return self[:4] == other[:4] if type(other) is type(self) else NotImplemented

    def __ne__(self, other):  # tuple.__ne__ would compare meta too
        return not self == other


def mean_vector(vectors: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """Component-wise mean of one or more vectors, each sum taken in order.

    This is ``predict``'s known-word average, which the eval scorer repeats.
    The sums are plain left-to-right float additions; ``sum()`` compensates
    from Python 3.12 on and would change the last digits between versions.
    """
    n = len(vectors)
    means = []
    for column in zip(*vectors):
        total = 0.0
        for x in column:
            total += x
        means.append(total / n)
    return tuple(means)


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
    return mean_vector([entries[w][0] for w in known]), len(known) / len(unique)
