"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -v -s``).  The
heavyweight scale test (1M rows) runs last and keeps the whole suite under
its stated wall-clock budget on a commodity machine.
"""

import json
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from reaction_lens.cleaning import CleanConfig, clean_message
from reaction_lens.corpus_io import corpus_rows
from reaction_lens.engine import ALL_SCHEMA, CORE_SCHEMA, normalize_columns, predict
from reaction_lens.evaluation import (
    METRICS,
    ExperimentConfig,
    run_experiment,
)
from reaction_lens.star import star_columns, star_range
from reaction_lens.synth import SynthSpec, iter_rows

from oracles import (
    Counts,
    build_lexicon,
    one_base,
    oracle_add_overlaps,
    oracle_lexicon,
    oracle_predict,
    oracle_star_vectors,
    oracle_train_mean,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "clean_golden.json"

CORE_REACTIONS = ("love", "wow", "haha", "sad", "angry")


def _verdict(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nacceptance {criterion}: {status}{suffix}", flush=True)
    assert ok, f"{criterion} failed {detail}"


def star_vectors(counts_list):
    """Star4 vectors of a training set at its own range, as ``fit`` makes them."""
    bases = [one_base(c, "star") for c in counts_list]
    lo, hi = star_range(bases)
    return list(zip(*star_columns(bases, lo, hi))), lo, hi


def entry_metrics(actual, predicted):
    """Per-metric tuples of one entry's overlaps, from ``oracle_score``'s accumulator."""
    rows = [[0.0] * len(METRICS) for _ in actual]
    oracle_add_overlaps(rows, actual, predicted)
    return dict(zip(METRICS, zip(*rows)))


def synth_entries(seed: int, rows: int, **overrides):
    spec = SynthSpec(rows=rows, vocab_size=2000, seed=seed, **overrides)
    return [(m.split(), c) for m, c in iter_rows(spec)]


def test_criterion_1_oracle_equivalence():
    """Lexicon build, prediction, and star vectors match brute force <= 1e-12."""
    start = time.time()
    rng = random.Random(1)
    ok = True
    for trial in range(6):
        n = rng.randint(5, 200)
        vocab = [f"t{i}" for i in range(rng.randint(5, 50))]
        entries = []
        counts_list = []
        while len(entries) < n:
            counts = Counts(*[rng.randint(0, 9) for _ in range(7)])
            words = frozenset(rng.sample(vocab, rng.randint(1, 6)))
            vector = one_base(counts, "core")
            if vector is None:
                continue
            entries.append((words, vector))
            counts_list.append(counts)
        lexicon = build_lexicon(entries, CORE_SCHEMA)
        table = oracle_lexicon(entries, 5)
        ok &= set(lexicon.entries) == set(table)
        for word, expected in table.items():
            got = lexicon.entries[word][0]
            ok &= all(abs(a - b) <= 1e-12 for a, b in zip(got, expected))
        mean = oracle_train_mean(entries, 5)
        ok &= all(abs(a - b) <= 1e-12 for a, b in zip(lexicon.train_mean, mean))
        for _ in range(50):
            words = frozenset(rng.sample(vocab, rng.randint(1, 6)))
            expected_vec, expected_cov = oracle_predict(words, table, mean, 5)
            got_vec, got_cov = predict(words, lexicon)
            ok &= all(abs(a - b) <= 1e-12 for a, b in zip(got_vec, expected_vec))
            ok &= abs(got_cov - expected_cov) <= 1e-12
        # star vectors against the literal equations
        polar = [c for c in counts_list if c.love + c.wow + c.sad + c.angry > 0]
        if len({(c.love + c.wow) - (c.sad + c.angry) for c in polar}) >= 2:
            vectors, lo, hi = star_vectors(polar)
            expected, elo, ehi = oracle_star_vectors(polar)
            ok &= abs(lo - elo) <= 1e-12 and abs(hi - ehi) <= 1e-12
            for (positive, negative, _, star), (p, ng, agg, e_star) in zip(vectors, expected):
                ok &= abs(positive - p) <= 1e-12
                ok &= abs(negative - ng) <= 1e-12
                ok &= abs(star - e_star) <= 1e-12
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    _verdict("1 oracle-equivalence", ok, f"{elapsed:.1f}s")


def test_criterion_2_normalization_invariants():
    """10k random counts: unit sum within 1e-9, components in [0,1]; T=0 is dropped."""
    start = time.time()
    rng = random.Random(2)
    ok = True
    for _ in range(10_000):
        counts = Counts(*[rng.randint(0, 60) for _ in range(7)])
        for schema in (CORE_SCHEMA, ALL_SCHEMA):
            total = sum(getattr(counts, r) for r in schema.reactions)
            kept, columns = normalize_columns([counts], schema)
            if total == 0:
                assert (kept, columns) == ([False], [[]] * schema.size)
                continue
            assert kept is None
            vector = [value for column in columns for value in column]
            ok &= len(vector) == schema.size
            ok &= abs(sum(vector) - 1.0) <= 1e-9
            ok &= all(0.0 <= v <= 1.0 for v in vector)
    zero_seen = False
    for _ in range(50):
        dropped = normalize_columns([Counts(like=rng.randint(0, 5))], CORE_SCHEMA)
        assert dropped == ([False], [[]] * CORE_SCHEMA.size)
        zero_seen = True
    elapsed = time.time() - start
    ok &= zero_seen and elapsed < 5.0
    _verdict("2 normalization-invariants", ok, f"{elapsed:.1f}s")


def test_criterion_3_metric_contracts():
    """10k random pairs: A=min, sum(A)<=1, identity F1=1, order independence."""
    rng = random.Random(3)
    ok = True
    f1_samples = []
    for _ in range(10_000):
        raws = [[rng.random() if rng.random() > 0.2 else 0.0 for _ in range(5)] for _ in range(2)]
        pair = []
        for raw in raws:
            if sum(raw) == 0:
                raw[rng.randrange(5)] = 1.0
            total = sum(raw)
            pair.append(tuple(v / total for v in raw))
        actual, predicted = pair
        m = entry_metrics(actual, predicted)
        ok &= all(m["accuracy"][i] == min(actual[i], predicted[i]) for i in range(5))
        ok &= sum(m["accuracy"]) <= 1.0 + 1e-12
        f1_samples.extend(m["f1"])
        identity = entry_metrics(actual, actual)
        ok &= all(
            identity["f1"][i] == 1.0 for i in range(5) if actual[i] > 0
        )
    forward = sum(f1_samples) / len(f1_samples)
    shuffled = f1_samples[:]
    rng.shuffle(shuffled)
    ok &= abs(forward - sum(shuffled) / len(shuffled)) <= 1e-12
    _verdict("3 metric-contracts", ok)


def test_criterion_4_cleaning_golden_and_idempotence():
    """Golden suite byte-for-byte; idempotence over 10k random strings."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    ok = len(data["cases"]) >= 30
    config = CleanConfig(stopwords=frozenset(data["stopwords"]))
    for case in data["cases"]:
        ok &= " ".join(clean_message(case["raw"], config)) == case["text"]
    rng = random.Random(4)
    pools = [
        lambda: chr(rng.randint(0x20, 0x7E)),
        lambda: chr(rng.randint(0x0D80, 0x0DFF)),
        lambda: chr(rng.choice([0x200D, 0x200B, 0xFEFF, 0x00AD, 0x0001, 0x0009])),
        lambda: chr(rng.choice([0x0901, 0x4E2D, 0x1F600, 0x0663, 0x00A0])),
        lambda: rng.choice([" ", "@", "#", ":", "/", ".", "5"]),
    ]
    for _ in range(10_000):
        raw = "".join(rng.choice(pools)() for _ in range(rng.randint(0, 50)))
        once = clean_message(raw, config)
        twice = clean_message(" ".join(once), config)
        ok &= twice == once
    _verdict("4 cleaning-golden-idempotence", ok)


def test_criterion_5_like_dominance_reduces_core_f1():
    """All-reaction model loses >= 0.05 mean core F1 vs the core model while
    its like row scores F1 > 0.9, for 5/5 seeds."""
    start = time.time()
    ok = True
    details = []
    for seed in range(5):
        entries = synth_entries(seed, 50_000)
        core = run_experiment(
            entries,
            ExperimentConfig(model="core", train_fractions=(0.95,), runs=1, seed=seed),
        )
        full = run_experiment(
            entries,
            ExperimentConfig(model="all", train_fractions=(0.95,), runs=1, seed=seed),
        )
        core_mean = sum(core.value("95", r, "f1") for r in CORE_REACTIONS) / 5
        all_mean = sum(full.value("95", r, "f1") for r in CORE_REACTIONS) / 5
        like_f1 = full.value("95", "like", "f1")
        drop = core_mean - all_mean
        details.append(f"seed{seed}: drop={drop:.3f} like={like_f1:.3f}")
        ok &= drop >= 0.05
        ok &= like_f1 > 0.9
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    _verdict("5 like-dominance", ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_6_split_insensitivity():
    """Core-model F1 varies < 0.03 absolute across splits 95..50."""
    entries = synth_entries(0, 50_000)
    report = run_experiment(entries, ExperimentConfig(model="core", runs=2, seed=0))
    ok = True
    spreads = []
    for reaction in CORE_REACTIONS:
        values = [report.value(s, reaction, "f1") for s in report.split_labels]
        spread = max(values) - min(values)
        spreads.append(f"{reaction}={spread:.4f}")
        ok &= spread < 0.03
    _verdict("6 split-insensitivity", ok, " ".join(spreads))


def test_criterion_7_star_properties_and_binary_advantage():
    """Star scaling spans [1,5]; bins are 0.5 multiples within 0.25 of the
    continuous star; positive/negative F1 beats star-rating F1 for 5/5 seeds."""
    ok = True
    # structural properties on one training set
    rng = random.Random(7)
    counts = []
    while len(counts) < 400:
        c = Counts(
            love=rng.randint(0, 9), wow=rng.randint(0, 9),
            haha=rng.randint(0, 9), sad=rng.randint(0, 9),
            angry=rng.randint(0, 9),
        )
        if c.love + c.wow + c.sad + c.angry > 0:
            counts.append(c)
    vectors, lo, hi = star_vectors(counts)
    expected, _, _ = oracle_star_vectors(counts)
    stars = [star for _, _, _, star in vectors]
    aggregates = [positive - negative for positive, negative, _, _ in vectors]
    ok &= min(stars) == 1.0 and max(stars) == 5.0
    ok &= aggregates[stars.index(1.0)] == lo
    ok &= aggregates[stars.index(5.0)] == hi
    for (_, _, star_disc, star), (_, _, _, e_star) in zip(vectors, expected):
        ok &= abs(star - e_star) <= 1e-12
        ok &= 1.0 <= star <= 5.0
        ok &= star_disc in {1.0 + 0.5 * k for k in range(9)}
        ok &= abs(star - star_disc) <= 0.25 + 1e-12
    # directional comparison on synthetic corpora
    details = []
    for seed in range(5):
        entries = synth_entries(100 + seed, 20_000)
        report = run_experiment(
            entries,
            ExperimentConfig(model="star", train_fractions=(0.95,), runs=1, seed=seed),
        )
        positive = report.value("95", "positive", "f1")
        negative = report.value("95", "negative", "f1")
        star = report.value("95", "star_rating", "f1")
        details.append(f"seed{seed}: pos={positive:.3f} neg={negative:.3f} star={star:.3f}")
        ok &= positive > star and negative > star
    _verdict("7 star-model", ok, "; ".join(details))


def test_criterion_8_scale_smoke_one_million_rows(tmp_path):
    """1M-row clean+train+eval under a 1 GiB child-RSS ceiling in < 10 min;
    streaming ingestion keeps the Python heap flat."""
    start = time.time()
    corpus = tmp_path / "big.csv"
    cleaned = tmp_path / "big_clean.csv"
    lexicon = tmp_path / "big.lex"
    report = tmp_path / "report.json"

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "reaction_lens.cli", *args],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    cli(
        "synth", "--output", str(corpus), "--rows", "1000000",
        "--vocab-size", "5000", "--seed", "42",
    )

    # streaming contract: consuming the file keeps the heap near-constant
    tracemalloc.start()
    rows = sum(1 for _ in corpus_rows(corpus))
    _, heap_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    ok = rows == 1_000_000
    ok &= heap_peak < 64 * 1024 * 1024

    cli("clean", "--input", str(corpus), "--output", str(cleaned))
    cli("train", "--input", str(cleaned), "--output", str(lexicon), "--model", "core")
    out = cli(
        "eval", "--input", str(cleaned), "--output", str(report),
        "--model", "core", "--splits", "95", "--runs", "1",
    )
    ok &= "wrote" in out and report.exists() and lexicon.exists()

    child_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    elapsed = time.time() - start
    ok &= child_peak < 1024 * 1024 * 1024
    ok &= elapsed < 600.0
    _verdict(
        "8 scale-smoke",
        ok,
        f"{elapsed:.0f}s, child RSS {child_peak / 2**20:.0f} MiB, "
        f"stream heap {heap_peak / 2**20:.1f} MiB",
    )
