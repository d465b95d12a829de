import json
import math
import os
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reaction_lens.engine import _BLOCK, STAR_SCHEMA, get_schema, predict
from reaction_lens.errors import DegenerateRange, EmptySide
from reaction_lens.evaluation import (
    METRICS,
    EvalReport,
    ExperimentConfig,
    _score,
    fit,
    prepare,
    report_emit,
    run_experiment,
    split_label,
)
from reaction_lens.star import discretize_star, gaussian_similarity, star_range
from reaction_lens.synth import SynthSpec, iter_rows

from oracles import (
    Counts,
    build_lexicon,
    one_base,
    one_star_vector,
    oracle_add_overlaps,
    oracle_prepare,
    oracle_score,
    split,
)


def random_distribution(rng, k=5, allow_zero_components=True):
    raw = [rng.random() if (allow_zero_components and rng.random() > 0.25) or not allow_zero_components else 0.0 for _ in range(k)]
    if sum(raw) == 0:
        raw[rng.randrange(k)] = 1.0
    total = sum(raw)
    return tuple(v / total for v in raw)


def entry_metrics(actual, predicted):
    """Per-metric tuples of one entry's component overlaps, from the
    per-entry accumulator of ``oracle_score``, started at zero."""
    rows = [[0.0] * len(METRICS) for _ in actual]
    oracle_add_overlaps(rows, actual, predicted)
    return dict(zip(METRICS, zip(*rows)))


class TestEntryMetrics:
    def test_hand_computed_example(self):
        m = entry_metrics((0.5, 0.5), (0.4, 0.6))
        assert m["accuracy"][0] == pytest.approx(0.4)
        assert m["recall"][0] == pytest.approx(0.8)
        assert m["precision"][0] == pytest.approx(1.0)
        assert m["f1"][0] == pytest.approx(0.8888888888888889)

    def test_identity_gives_perfect_scores(self):
        vector = (0.5, 0.25, 0.25, 0.0, 0.0)
        m = entry_metrics(vector, vector)
        for i, n in enumerate(vector):
            assert m["accuracy"][i] == n
            assert m["recall"][i] == 1.0
            assert m["precision"][i] == 1.0
            assert m["f1"][i] == 1.0

    def test_zero_actual_nonzero_predicted(self):
        m = entry_metrics((0.0, 1.0), (0.3, 0.7))
        assert m["accuracy"][0] == 0.0
        assert m["recall"][0] == 1.0  # vacuous
        assert m["precision"][0] == 0.0
        assert m["f1"][0] == 0.0

    def test_nonzero_actual_zero_predicted(self):
        m = entry_metrics((0.3, 0.7), (0.0, 1.0))
        assert m["accuracy"][0] == 0.0
        assert m["recall"][0] == 0.0
        assert m["precision"][0] == 1.0  # vacuous
        assert m["f1"][0] == 0.0

    def test_both_zero_is_perfect_agreement_on_absence(self):
        m = entry_metrics((0.0, 1.0), (0.0, 1.0))
        assert m["recall"][0] == m["precision"][0] == m["f1"][0] == 1.0

    def test_contract_properties_random(self):
        # 10000 random pairs: A_r = min, sum A <= 1, symmetry, F1 iff overlap.
        rng = random.Random(14)
        for _ in range(10_000):
            actual = random_distribution(rng)
            predicted = random_distribution(rng)
            m = entry_metrics(actual, predicted)
            back = entry_metrics(predicted, actual)
            assert sum(m["accuracy"]) <= 1.0 + 1e-12
            for i in range(5):
                assert m["accuracy"][i] == min(actual[i], predicted[i])
                assert m["accuracy"][i] == back["accuracy"][i]
                assert 0.0 <= m["recall"][i] <= 1.0
                assert 0.0 <= m["precision"][i] <= 1.0
                assert m["f1"][i] <= 1.0
                if actual[i] > 0 or predicted[i] > 0:
                    assert (m["f1"][i] == 0.0) == (m["accuracy"][i] == 0.0)


def numbered_corpus(n):
    """``n`` entries, each with its own word and a core reaction."""
    return [([f"w{i}"], Counts(love=1 + i % 3, sad=1)) for i in range(n)]


def run_sizes(n, fraction, seed=0, runs=1):
    """(n_train, n_test) of each run of ``run_experiment`` on ``n`` entries."""
    config = ExperimentConfig(model="core", train_fractions=(fraction,), runs=runs, seed=seed)
    records = run_experiment(numbered_corpus(n), config).accounting["runs"]
    return [(record["n_train"], record["n_test"]) for record in records]


class TestSplit:
    """The partition ``run_experiment`` makes: train size ``int(f * n + 0.5)``."""

    def test_95_5(self):
        assert run_sizes(100, 0.95, seed=3, runs=2) == [(95, 5), (95, 5)]

    def test_deterministic(self):
        corpus = synth_corpus(rows=200)
        config = ExperimentConfig(model="core", train_fractions=(0.8,), runs=1, seed=9)
        first = run_experiment(corpus, config)
        assert run_experiment(corpus, config) == first
        assert run_experiment(corpus, ExperimentConfig(
            model="core", train_fractions=(0.8,), runs=1, seed=10,
        )) != first

    def test_three_entries_half(self):
        assert run_sizes(3, 0.5) == [(2, 1)]

    def test_sizes_within_one_of_target(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(2, 500)
            fraction = rng.uniform(0.05, 0.95)
            try:
                [(n_train, n_test)] = run_sizes(n, fraction, seed=1)
            except EmptySide:
                assert int(fraction * n + 0.5) in (0, n)
                continue
            assert n_train == int(fraction * n + 0.5)
            assert n_train + n_test == n
            assert abs(n_train - fraction * n) <= 1.0

    def test_empty_side(self):
        with pytest.raises(EmptySide) as info:
            run_sizes(3, 0.95)
        assert str(info.value) == (
            "fraction 0.95 on 3 entries leaves an empty side (split 95%, run 0)"
        )

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            ExperimentConfig(train_fractions=(1.0,))

    def test_empty_side_is_named_in_config_order(self):
        # 0.95 and 0.05 both leave an empty side of 3 entries; the first
        # configured fraction is named, before any run is folded.
        config = ExperimentConfig(model="core", train_fractions=(0.5, 0.95, 0.05), runs=2)
        with pytest.raises(EmptySide, match=r"^fraction 0.95 .*\(split 95%, run 0\)$"):
            run_experiment(numbered_corpus(3), config)


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.train_fractions == (0.95, 0.90, 0.80, 0.70, 0.50)
        assert config.runs == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(runs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(train_fractions=(1.5,))
        for sigma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma"):
                ExperimentConfig(sigma=sigma)
        with pytest.raises(ValueError):
            ExperimentConfig(train_fractions=(0.95, 0.95))


class TestEvalReport:
    def test_reports_compare_by_value_but_accounting(self):
        config = ExperimentConfig(model="core", train_fractions=(0.5,), runs=1)
        report = run_experiment(memorizable_corpus(), config)
        again = run_experiment(memorizable_corpus(), config)
        again.accounting = {"entries_used": -1}
        assert report == again and not report != again
        again.manifest = "abc123"
        assert report != again
        assert report != EvalReport("core", 0, 1, 1.0, ("love",), ("50",))


def memorizable_corpus(n=20):
    counts = Counts(love=2, wow=1, haha=1)
    return [(["x"], counts) for _ in range(n)]


class TestRunExperiment:
    def test_perfect_memorization(self):
        report = run_experiment(
            memorizable_corpus(),
            ExperimentConfig(model="core", runs=2, seed=5),
        )
        for label in report.split_labels:
            for reaction in ("love", "wow", "haha"):
                assert report.value(label, reaction, "f1") == pytest.approx(1.0)
                assert report.value(label, reaction, "recall") == pytest.approx(1.0)
                assert report.value(label, reaction, "precision") == pytest.approx(1.0)
        assert report.value("95", "love", "accuracy") == pytest.approx(0.5)

    def test_zero_total_entries_excluded(self):
        corpus = memorizable_corpus(30) + [(["y"], Counts(like=9))] * 10
        report = run_experiment(
            corpus, ExperimentConfig(model="core", train_fractions=(0.5,), runs=1)
        )
        assert report.value("50", "love", "f1") == pytest.approx(1.0)

    def test_all_schema_rows(self):
        corpus = [(["x"], Counts(like=9, love=1))] * 20
        report = run_experiment(
            corpus, ExperimentConfig(model="all", train_fractions=(0.5,), runs=1)
        )
        assert report.reactions == (
            "like", "love", "wow", "haha", "sad", "angry", "thankful",
        )
        assert report.value("50", "like", "f1") == pytest.approx(1.0)

    def test_star_rows_and_perfect_match(self):
        corpus = [(["p"], Counts(love=3))] * 10 + [
            (["n"], Counts(angry=2))
        ] * 10
        report = run_experiment(
            corpus,
            ExperimentConfig(model="star", train_fractions=(0.5,), runs=2, seed=1),
        )
        assert report.reactions == ("positive", "negative", "star_rating")
        assert report.value("50", "positive", "f1") == pytest.approx(1.0)
        assert report.value("50", "negative", "f1") == pytest.approx(1.0)
        assert report.value("50", "star_rating", "f1") == pytest.approx(1.0)
        assert report.value("50", "star_rating", "accuracy") == pytest.approx(1.0)

    def test_failed_run_aborts_with_diagnostic(self):
        with pytest.raises(EmptySide) as info:
            run_experiment(
                memorizable_corpus(4),
                ExperimentConfig(model="core", train_fractions=(0.95,), runs=1),
            )
        assert "split 95%" in str(info.value)

    def test_flat_star_range_names_the_first_prefix_folded(self):
        # Every train side is flat; the first prefix folded is run 0's
        # smallest fraction, which the message names.
        corpus = [([f"w{i}"], Counts(love=1 + i % 2)) for i in range(10)]
        config = ExperimentConfig(model="star", train_fractions=(0.9, 0.5), runs=2)
        with pytest.raises(DegenerateRange, match=r"\(split 50%, run 0\)$"):
            run_experiment(corpus, config)

    def test_seeded_runs_reproducible(self):
        rng = random.Random(21)
        corpus = [
            (
                [f"w{rng.randint(0, 30)}" for _ in range(4)],
                Counts(*[rng.randint(0, 5) for _ in range(7)]),
            )
            for _ in range(300)
        ]
        config = ExperimentConfig(model="core", train_fractions=(0.8,), runs=3, seed=7)
        a = run_experiment(list(corpus), config)
        b = run_experiment(list(corpus), config)
        assert a == b

    def test_run_mean_sums_in_run_order(self):
        # Plain left-to-right additions on every Python version; sum() compensates from
        # 3.12 on and gives 0.19999999999999998 here.
        report = EvalReport("core", 0, 3, 1.0, ("love",), ("50",),
                            per_run={"50": {"love": {"f1": [0.1, 0.2, 0.3]}}})
        assert report.value("50", "love", "f1") == ((0.1 + 0.2) + 0.3) / 3 == 0.20000000000000004


class TestReportEmit:
    @pytest.fixture
    def report(self):
        return run_experiment(
            memorizable_corpus(),
            ExperimentConfig(model="core", train_fractions=(0.8, 0.5), runs=2),
        )

    def test_json_round_trip(self, report):
        payload = json.loads(report_emit(report, "json"))
        assert payload["model"] == report.model
        assert (payload["seed"], payload["runs"], payload["sigma"]) == (
            report.seed, report.runs, report.sigma,
        )
        assert tuple(payload["reactions"]) == report.reactions
        assert tuple(payload["split_labels"]) == report.split_labels
        assert payload["manifest"] == report.manifest
        assert list(payload["splits"]) == list(report.split_labels)
        for label, reactions in payload["splits"].items():
            assert list(reactions) == list(report.reactions)
            for reaction, metrics in reactions.items():
                assert list(metrics) == list(METRICS)
                for metric, values in metrics.items():
                    assert values["mean"] == report.value(label, reaction, metric)
                    assert values["per_run"] == report.per_run[label][reaction][metric]

    def test_json_deterministic(self, report):
        assert report_emit(report, "json") == report_emit(report, "json")

    def test_csv_shape(self, report):
        lines = report_emit(report, "csv").strip().split("\n")
        assert lines[0] == "model,split_percent,reaction,metric,value,runs,seed"
        # one row per (split, reaction, metric)
        assert len(lines) == 1 + len(report.split_labels) * len(report.reactions) * len(METRICS)
        first = lines[1].split(",")
        assert first[0] == "core"
        assert first[1] == "80"
        assert first[2] == "love"

    def test_unknown_format(self, report):
        with pytest.raises(ValueError):
            report_emit(report, "xml")

    def test_split_labels(self):
        assert split_label(0.95) == "95"
        assert split_label(0.5) == "50"


def synth_corpus(seed=4, rows=600):
    spec = SynthSpec(rows=rows, vocab_size=150, seed=seed)
    return [(m.split(), Counts(*c)) for m, c in iter_rows(spec)]


def literal_experiment(corpus, config):
    """Per-run means by the plain loop: split, build_lexicon, predict,
    entry_metrics, and for star the star_rating row."""
    star = config.model == "star"
    entries = []
    for words, counts in corpus:
        base = one_base(counts, config.model)
        if base is not None:
            entries.append((words, base))
    per_run = {}
    for fraction in config.train_fractions:
        runs = []
        for run in range(config.runs):
            train, test = split(entries, fraction, config.seed + run)
            if star:
                lo, hi = star_range(base for _, base in train)
                train = [(words, one_star_vector(base, lo, hi)) for words, base in train]
                test = [(words, one_star_vector(base, lo, hi)) for words, base in test]
            lexicon = build_lexicon(train, STAR_SCHEMA if star else get_schema(config.model))
            rows = 3 if star else lexicon.schema.size
            sums = [[0.0] * len(METRICS) for _ in range(rows)]
            for words, actual in test:
                predicted, _ = predict(words, lexicon)
                overlap = 2 if star else rows
                metrics = entry_metrics(actual[:overlap], predicted[:overlap])
                for i in range(overlap):
                    for j, metric in enumerate(METRICS):
                        sums[i][j] += metrics[metric][i]
                if star:
                    match = 1.0 if discretize_star(predicted[2]) == actual[2] else 0.0
                    sums[2][0] += gaussian_similarity(predicted[3], actual[3], config.sigma)
                    for j in (1, 2, 3):
                        sums[2][j] += match
            runs.append([[s / len(test) for s in row] for row in sums])
        per_run[split_label(fraction)] = runs
    return per_run


def literal_accounting(corpus, config):
    """Per-run accounting records by the plain loop over ``split``."""
    schema = get_schema(config.model).reactions
    entries = [
        (set(words), counts) for words, counts in corpus
        if any(getattr(counts, r) for r in schema)
    ]
    records = []
    for fraction in config.train_fractions:
        for run in range(config.runs):
            train, test = split(entries, fraction, config.seed + run)
            vocabulary = set().union(*(words for words, _ in train))
            test_words = set().union(*(words for words, _ in test))
            records.append({
                "split": split_label(fraction),
                "run": run,
                "n_train": len(train),
                "n_test": len(test),
                "vocab_size": len(vocabulary),
                "test_oov_rate": len(test_words - vocabulary) / len(test_words),
            })
    return entries, records


def star_widening_corpus():
    """Moderate star entries plus one extreme at each end of the range.

    Wherever an extreme falls outside a run's smallest train prefix but
    inside a larger one, that larger prefix widens the star range.
    """
    rng = random.Random(8)
    corpus = [
        (
            [f"w{rng.randint(0, 12)}" for _ in range(3)],
            Counts(love=rng.randint(1, 3), wow=rng.randint(0, 2),
                   sad=rng.randint(1, 3), angry=rng.randint(0, 2)),
        )
        for _ in range(60)
    ]
    corpus[17] = (["w1", "w2"], Counts(love=5))
    corpus[41] = (["w3", "w4"], Counts(angry=4))
    return corpus


class TestRunExperimentMatchesLiteralLoop:
    @staticmethod
    def assert_matches_literal_loop(corpus, config):
        report = run_experiment(corpus, config)
        expected = literal_experiment(corpus, config)
        assert list(expected) == list(report.split_labels)
        for label, runs in expected.items():
            for i, reaction in enumerate(report.reactions):
                for j, metric in enumerate(METRICS):
                    values = [means[i][j] for means in runs]
                    assert report.per_run[label][reaction][metric] == values
                    total = 0.0
                    for value in values:  # in run order; sum() compensates from Python 3.12 on
                        total += value
                    assert report.value(label, reaction, metric) == total / len(values)

    @pytest.mark.parametrize("model", ["core", "all", "star"])
    def test_bit_equal(self, model):
        config = ExperimentConfig(model=model, train_fractions=(0.9, 0.5), runs=2, seed=11)
        self.assert_matches_literal_loop(synth_corpus(), config)

    @pytest.mark.parametrize("model", ["core", "all", "star"])
    def test_bit_equal_unsorted_fractions(self, model):
        config = ExperimentConfig(model=model, train_fractions=(0.5, 0.95, 0.7), runs=3, seed=11)
        self.assert_matches_literal_loop(synth_corpus(), config)

    def test_star_range_widening_after_the_smallest_prefix(self):
        corpus = star_widening_corpus()
        config = ExperimentConfig(model="star", train_fractions=(0.5, 0.95, 0.7), runs=3, seed=4)
        bases = [one_base(counts, "star") for _, counts in corpus]
        widened = [
            star_range(split(bases, 0.5, config.seed + run)[0])
            != star_range(split(bases, 0.95, config.seed + run)[0])
            for run in range(config.runs)
        ]
        assert any(widened)
        self.assert_matches_literal_loop(corpus, config)

    def test_accounting(self):
        corpus = synth_corpus(rows=300) + [(["only", "likes"], Counts(like=4))] * 7
        corpus += [([f"rare{i}", "w0001"], Counts(sad=1)) for i in range(30)]
        for fractions, runs in [((0.8,), 2), ((0.5, 0.95, 0.7), 3)]:
            config = ExperimentConfig(model="core", train_fractions=fractions, runs=runs, seed=2)
            accounting = run_experiment(corpus, config).accounting
            entries, records = literal_accounting(corpus, config)
            assert accounting["entries_used"] == len(entries)
            assert accounting["entries_excluded_zero_total"] == len(corpus) - len(entries)
            assert all(
                record["test_oov_rate"] > 0 for record in records if record["split"] != "95"
            )
            assert accounting["runs"] == records


def random_counts(rng):
    """Seven counts with some zeros, so that bases have zero components."""
    return Counts(*(rng.choice((0, 0, 1, 2, 7)) for _ in range(7)))


def random_base(rng, model):
    """A base as ``prepare`` makes it: a distribution, or star's masses."""
    while True:
        base = one_base(random_counts(rng), model)
        if base is not None:
            return base


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    model=st.sampled_from(["core", "all", "star"]),
    n_test=st.sampled_from([1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
    sigma=st.sampled_from([0.25, 1.0, 3.0]),
)
def test_score_equals_per_entry_oracle(seed, model, n_test, sigma):
    # Bit-equal: the scorer walks each block one component at a time, but
    # every prediction and every row sum takes its terms in the per-entry
    # loop's order.  Words w40 to w49 are never trained on (count zero), and
    # about one test entry in eight has only such words.  Star test entries
    # may fall outside the training range and be clamped.
    rng = random.Random(seed)
    ids = {f"w{i}": i for i in range(50)}
    train = [
        (tuple(sorted(rng.sample(range(40), rng.randint(1, 8)))), random_base(rng, model))
        for _ in range(rng.randint(2, 200))
    ]
    if model == "star":
        train[:2] = [((0,), (0.6, 0.4)), ((1,), (0.3, 0.5))]  # a range of nonzero width
    test = [
        (
            tuple(sorted(rng.sample(range(40, 50) if rng.random() < 0.125 else range(50),
                                    rng.randint(1, 8)))),
            random_base(rng, model),
        )
        for _ in range(n_test)
    ]
    fold, bounds = fit(iter(train), model, ids)
    one_vector = None
    if model == "star":
        assert bounds == star_range(base for _, base in train)

        def one_vector(base):
            return one_star_vector(base, *bounds)

    assert _score(test, fold, bounds, sigma) == oracle_score(test, fold, one_vector, sigma)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    model=st.sampled_from(["core", "all", "star"]),
    n=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
    known_words=st.integers(0, 40),
    words_as=st.sampled_from([list, tuple, iter]),
)
def test_prepare_equals_per_entry_oracle(seed, model, n, known_words, words_as):
    # Same (word_ids, base) pairs bit for bit, same id order and the same
    # exclusions.  Zero-total entries sit mid-block with a word no other
    # entry has, which must get no id; the last entry of each block brings
    # a word seen nowhere before.  ``ids`` may start with words in it.
    # Words given as iterators are read once, like any other.
    rng = random.Random(seed)
    entries = [
        ([f"w{rng.randrange(60)}" for _ in range(rng.randint(0, 6))], random_counts(rng))
        for _ in range(n)
    ]
    for k in range(_BLOCK // 2, n, _BLOCK):
        entries[k] = (["only_here", "w1"], Counts(like=3, haha=1))
        entries[k - 1] = (["w2"], Counts(like=2))
    for k in range(_BLOCK - 1, n, _BLOCK):
        entries[k] = ([f"w{k % 7}", f"fresh{k}", f"fresh{k}"], random_counts(rng))
    start = {f"w{i}": i for i in range(known_words)}
    ids, oracle_ids = dict(start), dict(start)
    tally, oracle_tally = Counter(), Counter()
    got = list(prepare(((words_as(w), c) for w, c in entries), model, ids, tally))
    want = list(oracle_prepare(iter(entries), model, oracle_ids, oracle_tally))
    assert got == want
    assert list(ids.items()) == list(oracle_ids.items())
    assert tally["excluded"] == oracle_tally["excluded"]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    model=st.sampled_from(["core", "all", "star"]),
    runs=st.integers(2, 5),
    fractions=st.sampled_from([(0.5,), (0.9, 0.5), (0.5, 0.95, 0.7)]),
)
def test_runs_split_across_two_processes_give_the_same_report(seed, model, runs, fractions):
    # The map the eval command passes, made to fork on any machine: a child runs
    # the later runs and sends their rows and records back through marshal.
    from reaction_lens.cli import _map_runs

    rng = random.Random(seed)
    corpus = [
        ([f"w{rng.randrange(40)}" for _ in range(rng.randint(1, 6))], random_counts(rng))
        for _ in range(rng.randint(30, 90))
    ]
    config = ExperimentConfig(model, fractions, runs, seed % 1000)
    real_fork, pids = os.fork, []

    def tracked_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    outcomes = []
    for map_runs in (map, _map_runs):
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}), \
                mock.patch.object(os, "fork", tracked_fork):
            try:
                report = run_experiment(corpus, config, map_runs)
            except (DegenerateRange, EmptySide) as exc:
                outcomes.append(repr(exc))
            else:
                outcomes.append((report, report.accounting))
    assert len(pids) == 1  # the default map never forks
    assert outcomes[1] == outcomes[0]
