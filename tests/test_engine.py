import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reaction_lens.cleaning import CleanConfig
from reaction_lens.corpus_io import MalformedRow
from reaction_lens.engine import (
    _BLOCK,
    ALL_SCHEMA,
    CORE_SCHEMA,
    STAR_SCHEMA,
    Fold,
    get_schema,
    normalize_columns,
    predict,
)
from reaction_lens.errors import EmptyTrainingSet, SchemaMismatch
from reaction_lens.evaluation import ExperimentConfig

from oracles import (
    Counts,
    build_lexicon,
    one_star_vector,
    oracle_fold,
    oracle_lexicon,
    oracle_predict,
    oracle_train_mean,
)


def normalize_one(counts, schema):
    """``normalize_columns`` on a block of one: ``(kept, vector)``; the vector is
    empty when the entry is dropped."""
    kept, columns = normalize_columns([counts], schema)
    return kept, tuple(value for column in columns for value in column)


def random_corpus(rng, n_entries, vocab_size=30, schema=CORE_SCHEMA):
    """Entries of (unique_words, vector) with vectors normalized by plain
    arithmetic, independently of the engine."""
    vocab = [f"t{i}" for i in range(vocab_size)]
    entries = []
    while len(entries) < n_entries:
        words = frozenset(rng.sample(vocab, rng.randint(1, 6)))
        counts = [rng.randint(0, 8) for _ in schema.reactions]
        total = sum(counts)
        if total == 0:
            continue
        entries.append((words, tuple(c / total for c in counts)))
    return entries


class TestSchemas:
    def test_core_order(self):
        assert CORE_SCHEMA.reactions == ("love", "wow", "haha", "sad", "angry")

    def test_all_order(self):
        assert ALL_SCHEMA.reactions == (
            "like", "love", "wow", "haha", "sad", "angry", "thankful",
        )

    def test_star_is_not_unit_sum(self):
        assert STAR_SCHEMA.reactions == ("positive", "negative", "star_disc", "star_cont")
        assert STAR_SCHEMA.size == 4
        assert sum(one_star_vector((1.0, 0.0), -1.0, 1.0)) == 11.0

    def test_get_schema_unknown(self):
        with pytest.raises(SchemaMismatch):
            get_schema("bogus")

    def test_duplicate_reactions_rejected(self):
        from reaction_lens.engine import ReactionSchema

        with pytest.raises(ValueError):
            ReactionSchema("dup", ("a", "a"))


class TestNormalize:
    def test_core_direct_ratio(self):
        counts = Counts(love=2, wow=1, haha=1)
        assert normalize_one(counts, CORE_SCHEMA) == (None, (0.5, 0.25, 0.25, 0.0, 0.0))

    def test_core_ignores_like(self):
        counts = Counts(like=100)
        assert normalize_one(counts, CORE_SCHEMA) == ([False], ())

    def test_all_direct_ratio(self):
        counts = Counts(like=95, love=2, wow=1, haha=1, sad=1)
        assert normalize_one(counts, ALL_SCHEMA) == (
            None, (0.95, 0.02, 0.01, 0.01, 0.01, 0.0, 0.0),
        )

    def test_random_vectors_are_valid(self):
        # 10000 random count tuples -> unit-sum vectors, components in [0, 1]
        rng = random.Random(11)
        for _ in range(10_000):
            values = [rng.randint(0, 50) for _ in range(7)]
            counts = Counts(*values)
            schema = CORE_SCHEMA if rng.random() < 0.5 else ALL_SCHEMA
            kept, vector = normalize_one(counts, schema)
            if kept is not None:
                assert kept == [False] and vector == ()
                assert sum(getattr(counts, r) for r in schema.reactions) == 0
                continue
            assert len(vector) == schema.size
            assert all(0.0 <= v <= 1.0 for v in vector)
            assert abs(sum(vector) - 1.0) <= 1e-9

    def test_like_dominance_shrinks_core_components(self):
        # With like/thankful added to the total, every core component can
        # only shrink or stay equal.
        rng = random.Random(5)
        for _ in range(2000):
            values = [rng.randint(0, 30) for _ in range(7)]
            counts = Counts(*values)
            kept, core = normalize_one(counts, CORE_SCHEMA)
            if kept is not None:
                continue
            _, full = normalize_one(counts, ALL_SCHEMA)
            for name, core_value in zip(CORE_SCHEMA.reactions, core):
                all_value = full[ALL_SCHEMA.reactions.index(name)]
                assert all_value <= core_value + 1e-15


class TestLexiconBuild:
    def test_two_entry_average(self):
        lex = build_lexicon(
            [({"a", "b"}, (1, 0, 0, 0, 0)), ({"b", "c"}, (0, 1, 0, 0, 0))],
            CORE_SCHEMA,
        )
        assert lex.entries["a"][0] == (1.0, 0.0, 0.0, 0.0, 0.0)
        assert lex.entries["b"][0] == (0.5, 0.5, 0.0, 0.0, 0.0)
        assert lex.entries["c"][0] == (0.0, 1.0, 0.0, 0.0, 0.0)
        assert lex.entries["b"][1] == 2

    def test_duplicate_words_count_once(self):
        lex = build_lexicon([(["a", "a", "b"], (1, 0, 0, 0, 0))], CORE_SCHEMA)
        assert lex.entries["a"][1] == 1

    def test_train_mean_is_entry_mean(self):
        lex = build_lexicon(
            [({"a"}, (1, 0, 0, 0, 0)), ({"b"}, (0, 0, 1, 0, 0)),
             ({"c"}, (0, 0, 0, 0, 1))],
            CORE_SCHEMA,
        )
        assert lex.train_mean == pytest.approx((1 / 3, 0, 1 / 3, 0, 1 / 3))
        assert lex.train_entry_count == 3

    def test_empty_training_set(self):
        lex = build_lexicon([], CORE_SCHEMA)
        assert lex.train_mean is None
        with pytest.raises(EmptyTrainingSet):
            predict({"a"}, lex)

    def test_wrong_vector_size(self):
        with pytest.raises(SchemaMismatch):
            build_lexicon([({"a"}, (1.0, 0.0))], CORE_SCHEMA)

    def test_lexicon_equality_ignores_meta(self):
        lex = build_lexicon([({"a"}, (1, 0, 0, 0, 0))], CORE_SCHEMA)
        noted = lex._replace(meta={"manifest": "abc123"})
        assert lex == noted and not lex != noted
        assert lex != lex._replace(train_entry_count=2)
        assert lex.meta == {} and build_lexicon([], CORE_SCHEMA).meta is not lex.meta

    def test_oracle_equivalence(self):
        # 50 random small entries against the literal loop implementation.
        rng = random.Random(42)
        entries = random_corpus(rng, 50)
        lex = build_lexicon(entries, CORE_SCHEMA)
        expected = oracle_lexicon(entries, CORE_SCHEMA.size)
        assert set(lex.entries) == set(expected)
        for word, vector in expected.items():
            got = lex.entries[word][0]
            assert got == pytest.approx(vector, abs=1e-12)
        mean = oracle_train_mean(entries, CORE_SCHEMA.size)
        assert lex.train_mean == pytest.approx(mean, abs=1e-12)


class TestPredict:
    @pytest.fixture
    def lexicon(self):
        return build_lexicon(
            [({"a", "b"}, (1, 0, 0, 0, 0)), ({"b", "c"}, (0, 1, 0, 0, 0))],
            CORE_SCHEMA,
        )

    def test_two_known_words(self, lexicon):
        vector, coverage = predict({"a", "c"}, lexicon)
        assert vector == (0.5, 0.5, 0.0, 0.0, 0.0)
        assert coverage == 1.0

    def test_single_known_word_identity(self, lexicon):
        vector, coverage = predict({"a"}, lexicon)
        assert vector == lexicon.entries["a"][0]
        assert coverage == 1.0

    def test_unknown_words_fall_back_to_mean(self, lexicon):
        vector, coverage = predict({"zz", "qq"}, lexicon)
        assert vector == lexicon.train_mean
        assert coverage == 0.0

    def test_partial_coverage(self, lexicon):
        _, coverage = predict({"a", "zz"}, lexicon)
        assert coverage == 0.5

    def test_duplicates_count_once(self, lexicon):
        assert predict(["a", "a", "c"], lexicon) == predict({"a", "c"}, lexicon)

    def test_oracle_equivalence(self):
        rng = random.Random(101)
        entries = random_corpus(rng, 80)
        lex = build_lexicon(entries, CORE_SCHEMA)
        table = oracle_lexicon(entries, CORE_SCHEMA.size)
        mean = oracle_train_mean(entries, CORE_SCHEMA.size)
        vocab = [f"t{i}" for i in range(40)]
        for _ in range(300):
            words = frozenset(rng.sample(vocab, rng.randint(1, 6)))
            expected_vec, expected_cov = oracle_predict(
                words, table, mean, CORE_SCHEMA.size
            )
            vector, coverage = predict(words, lex)
            assert vector == pytest.approx(expected_vec, abs=1e-12)
            assert coverage == pytest.approx(expected_cov, abs=1e-12)

    def test_convex_closure(self):
        # Averages of valid unit-sum vectors stay valid (sum within 1e-9).
        rng = random.Random(3)
        entries = random_corpus(rng, 120)
        lex = build_lexicon(entries, CORE_SCHEMA)
        vocab = [f"t{i}" for i in range(30)]
        for _ in range(500):
            words = frozenset(rng.sample(vocab, rng.randint(1, 8)))
            vector, _ = predict(words, lex)
            assert len(vector) == CORE_SCHEMA.size
            assert all(0.0 <= v <= 1.0 for v in vector)
            assert abs(sum(vector) - 1.0) <= 1e-9


def literal_fold(entries, k):
    """Word table and train mean by one plain left-to-right pass in entry order."""
    sums, counts = {}, {}
    total = [0.0] * k
    for words, vector in entries:
        for i in range(k):
            total[i] = total[i] + vector[i]
        for word in set(words):
            row = sums.setdefault(word, [0.0] * k)
            for i in range(k):
                row[i] = row[i] + vector[i]
            counts[word] = counts.get(word, 0) + 1
    table = {w: (tuple(s / counts[w] for s in row), counts[w]) for w, row in sums.items()}
    mean = tuple(t / len(entries) for t in total) if entries else None
    return table, mean


@st.composite
def shuffled_training_sets(draw):
    schema = draw(st.sampled_from((CORE_SCHEMA, ALL_SCHEMA, STAR_SCHEMA)))
    component = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
    entry = st.tuples(
        st.lists(st.sampled_from("abcdefgh"), max_size=6),
        st.tuples(*[component] * schema.size),
    )
    entries = draw(st.lists(entry, max_size=30))
    return schema, draw(st.permutations(entries))


@settings(max_examples=200, deadline=None)
@given(shuffled_training_sets())
def test_build_lexicon_equals_literal_fold(case):
    # Bit-equal, not approximately equal: the id-keyed fold adds in entry
    # order, and predict averages known words in sorted order, exactly as
    # the literal loops do.
    schema, entries = case
    lexicon = build_lexicon(entries, schema)
    table, mean = literal_fold(entries, schema.size)
    assert lexicon.entries == table
    assert lexicon.train_mean == mean
    assert lexicon.train_entry_count == len(entries)
    for message in ("abc", "dh", "xy", "hgfedcba"):
        known = sorted(w for w in set(message) if w in table)
        if not known:
            continue
        expected = [0.0] * schema.size
        for word in known:
            for i in range(schema.size):
                expected[i] = expected[i] + table[word][0][i]
        vector, _ = predict(message, lexicon)
        assert vector == tuple(s / len(known) for s in expected)


# Entry counts around the fold's block size, and a few small ones.
BLOCK_SIDES = (0, 1, 5, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)


def streamed(rng, n, vocab, ids, width):
    """``n`` (word_ids, vector) entries whose words get their ids in ``ids``
    as each entry is read, the way ``train`` streams its side."""
    for _ in range(n):
        words = rng.sample(vocab, rng.randint(0, 4))
        vector = tuple(rng.uniform(-2.0, 2.0) for _ in range(width))
        yield {ids.setdefault(w, len(ids)) for w in words}, vector


def fold_state(fold):
    """What a fold holds, in ``oracle_fold``'s result order."""
    return fold.columns, fold.counts, fold.train_sum, fold.entries


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    schema=st.sampled_from([CORE_SCHEMA, ALL_SCHEMA, STAR_SCHEMA]),
    first=st.sampled_from(BLOCK_SIDES),
    second=st.sampled_from(BLOCK_SIDES),
    preassigned=st.integers(0, 40),
)
def test_add_many_equals_entry_by_entry_fold(seed, schema, first, second, preassigned):
    # Bit-equal: add_many walks a block one component at a time, and each
    # sum still takes its terms in entry order.  Ids join the shared map
    # before the fold, while a block is read, and between two add_many
    # calls (from another fold sharing the map).
    vocab = [f"w{i}" for i in range(3000)]
    ids = {w: i for i, w in enumerate(vocab[:preassigned])}
    oracle_ids = dict(ids)
    fold = Fold(schema, ids)
    fold.add_many(streamed(random.Random(seed), first, vocab, ids, schema.size))
    state = oracle_fold(
        schema.size,
        oracle_ids,
        streamed(random.Random(seed), first, vocab, oracle_ids, schema.size),
    )
    assert fold_state(fold) == state
    Fold(schema, ids).add_many(streamed(random.Random(seed + 1), 50, vocab, ids, schema.size))
    list(streamed(random.Random(seed + 1), 50, vocab, oracle_ids, schema.size))
    fold.add_many(streamed(random.Random(seed + 2), second, vocab, ids, schema.size))
    state = oracle_fold(
        schema.size,
        oracle_ids,
        streamed(random.Random(seed + 2), second, vocab, oracle_ids, schema.size),
        state,
    )
    fold._grow()
    assert ids == oracle_ids
    assert fold_state(fold) == state


@pytest.mark.parametrize("value", [
    build_lexicon([({"a"}, (1, 0, 0, 0, 0))], CORE_SCHEMA),
    CORE_SCHEMA,
    CleanConfig(),
    MalformedRow(3, "bad"),
    ExperimentConfig(),
], ids=lambda value: type(value).__name__)
def test_value_type_is_frozen(value):
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)


@pytest.mark.parametrize("make, message", [
    (lambda: CORE_SCHEMA._replace(reactions=("a", "a")), "duplicate"),
    (lambda: CleanConfig()._replace(stopwords=frozenset({""})), "empty"),
    (lambda: ExperimentConfig()._replace(runs=0), "runs"),
])
def test_value_type_replace_is_checked(make, message):
    with pytest.raises(ValueError, match=message):
        make()
