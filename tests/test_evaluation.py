import json
import random

import pytest

from reaction_lens.corpus_io import ReactionCounts
from reaction_lens.engine import STAR_SCHEMA, build_lexicon, get_schema, normalize, predict
from reaction_lens.errors import EmptySide, ZeroReactionTotal
from reaction_lens.evaluation import (
    METRICS,
    ExperimentConfig,
    _add_overlaps,
    report_emit,
    run_experiment,
    split,
    split_label,
)
from reaction_lens.star import (
    discretize_star,
    gaussian_similarity,
    star_normalize,
    star_range,
    star_vector,
)
from reaction_lens.synth import SynthSpec, iter_rows


def random_distribution(rng, k=5, allow_zero_components=True):
    raw = [rng.random() if (allow_zero_components and rng.random() > 0.25) or not allow_zero_components else 0.0 for _ in range(k)]
    if sum(raw) == 0:
        raw[rng.randrange(k)] = 1.0
    total = sum(raw)
    return tuple(v / total for v in raw)


def entry_metrics(actual, predicted):
    """Per-metric tuples of one entry's component overlaps, from the one
    accumulator the scorer runs, started at zero."""
    rows = [[0.0] * len(METRICS) for _ in actual]
    _add_overlaps(rows, actual, predicted)
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


class TestSplit:
    def test_95_5(self):
        train, test = split(list(range(100)), 0.95, seed=3)
        assert len(train) == 95 and len(test) == 5
        assert sorted(train + test) == list(range(100))

    def test_deterministic(self):
        corpus = list(range(57))
        assert split(corpus, 0.8, seed=9) == split(corpus, 0.8, seed=9)
        assert split(corpus, 0.8, seed=9) != split(corpus, 0.8, seed=10)

    def test_three_entries_half(self):
        train, test = split([1, 2, 3], 0.5, seed=0)
        assert sorted((len(train), len(test))) == [1, 2]

    def test_sizes_within_one_of_target(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(2, 500)
            fraction = rng.uniform(0.05, 0.95)
            try:
                train, _ = split(list(range(n)), fraction, seed=1)
            except EmptySide:
                continue
            assert abs(len(train) - fraction * n) <= 1.0

    def test_empty_side(self):
        with pytest.raises(EmptySide):
            split([1, 2, 3], 0.95, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split([1, 2], 1.0, seed=0)


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
        with pytest.raises(ValueError):
            ExperimentConfig(sigma=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(train_fractions=(0.95, 0.95))


def memorizable_corpus(n=20):
    counts = ReactionCounts(love=2, wow=1, haha=1)
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
        corpus = memorizable_corpus(30) + [(["y"], ReactionCounts(like=9))] * 10
        report = run_experiment(
            corpus, ExperimentConfig(model="core", train_fractions=(0.5,), runs=1)
        )
        assert report.value("50", "love", "f1") == pytest.approx(1.0)

    def test_all_schema_rows(self):
        corpus = [(["x"], ReactionCounts(like=9, love=1))] * 20
        report = run_experiment(
            corpus, ExperimentConfig(model="all", train_fractions=(0.5,), runs=1)
        )
        assert report.reactions == (
            "like", "love", "wow", "haha", "sad", "angry", "thankful",
        )
        assert report.value("50", "like", "f1") == pytest.approx(1.0)

    def test_star_rows_and_perfect_match(self):
        corpus = [(["p"], ReactionCounts(love=3))] * 10 + [
            (["n"], ReactionCounts(angry=2))
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

    def test_seeded_runs_reproducible(self):
        rng = random.Random(21)
        corpus = [
            (
                [f"w{rng.randint(0, 30)}" for _ in range(4)],
                ReactionCounts(*[rng.randint(0, 5) for _ in range(7)]),
            )
            for _ in range(300)
        ]
        config = ExperimentConfig(model="core", train_fractions=(0.8,), runs=3, seed=7)
        a = run_experiment(list(corpus), config)
        b = run_experiment(list(corpus), config)
        assert a == b

    def test_mean_is_order_independent(self):
        # Averaging per-entry metrics must not depend on iteration order.
        rng = random.Random(33)
        values = [rng.random() for _ in range(2000)]
        forward = sum(values) / len(values)
        shuffled = values[:]
        rng.shuffle(shuffled)
        backward = sum(shuffled) / len(shuffled)
        assert forward == pytest.approx(backward, abs=1e-12)


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
                    assert values["mean"] == report.mean[label][reaction][metric]
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
    return [(m.split(), ReactionCounts(*c)) for m, c in iter_rows(spec)]


def literal_experiment(corpus, config):
    """Per-run means by the plain loop: split, build_lexicon, predict,
    entry_metrics, and for star the star_rating row."""
    star = config.model == "star"
    entries = []
    for words, counts in corpus:
        try:
            base = star_normalize(counts) if star else normalize(counts, get_schema(config.model))
        except ZeroReactionTotal:
            continue
        entries.append((words, base))
    per_run = {}
    for fraction in config.train_fractions:
        runs = []
        for run in range(config.runs):
            train, test = split(entries, fraction, config.seed + run)
            if star:
                lo, hi = star_range(base for _, base in train)
                train = [(words, star_vector(*base, lo, hi)) for words, base in train]
                test = [(words, star_vector(*base, lo, hi)) for words, base in test]
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


class TestRunExperimentMatchesLiteralLoop:
    @pytest.mark.parametrize("model", ["core", "all", "star"])
    def test_bit_equal(self, model):
        corpus = synth_corpus()
        config = ExperimentConfig(model=model, train_fractions=(0.9, 0.5), runs=2, seed=11)
        report = run_experiment(corpus, config)
        expected = literal_experiment(corpus, config)
        for label, runs in expected.items():
            for i, reaction in enumerate(report.reactions):
                for j, metric in enumerate(METRICS):
                    values = [means[i][j] for means in runs]
                    assert report.per_run[label][reaction][metric] == values
                    assert report.value(label, reaction, metric) == sum(values) / len(values)

    def test_accounting(self):
        corpus = synth_corpus(rows=300) + [(["only", "likes"], ReactionCounts(like=4))] * 7
        corpus += [([f"rare{i}", "w0001"], ReactionCounts(sad=1)) for i in range(30)]
        config = ExperimentConfig(model="core", train_fractions=(0.8,), runs=2, seed=2)
        accounting = run_experiment(corpus, config).accounting
        core = get_schema("core").reactions
        entries = [
            (set(words), counts) for words, counts in corpus
            if any(getattr(counts, r) for r in core)
        ]
        assert accounting["entries_used"] == len(entries)
        assert accounting["entries_excluded_zero_total"] == len(corpus) - len(entries)
        assert len(accounting["runs"]) == 2
        assert all(record["test_oov_rate"] > 0 for record in accounting["runs"])
        for run, record in enumerate(accounting["runs"]):
            train, test = split(entries, 0.8, config.seed + run)
            vocabulary = set().union(*(words for words, _ in train))
            test_words = set().union(*(words for words, _ in test))
            assert record == {
                "split": "80",
                "run": run,
                "n_train": len(train),
                "n_test": len(test),
                "vocab_size": len(vocabulary),
                "test_oov_rate": len(test_words - vocabulary) / len(test_words),
            }
