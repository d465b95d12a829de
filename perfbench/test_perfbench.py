"""Tests of the benchmark itself: its checks must catch wrong outputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = run.Workload("csv", rows=400, vocab=80, messages=120, message_vocab=120,
                    splits="90", runs=1)


def perturb_lexicon(path, fix_checksum=True):
    """Nudge the first body value by 1e-9; optionally keep the checksum valid."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    fields = lines[head].split("\t")
    fields[-1] = repr(float(fields[-1]) + 1e-9)
    lines[head] = "\t".join(fields)
    if fix_checksum:
        digest = hashlib.sha256("\n".join(lines[head:]).encode("utf-8")).hexdigest()
        lines[head - 1] = f"#sha256\t{digest}"
    Path(path).write_text("\n".join(lines), encoding="utf-8")


def perturb_report(path):
    """Shift run 0 of the first split and its mean together, so only a recomputation sees it."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    label = report["split_labels"][0]
    cell = report["splits"][label][report["reactions"][0]]["accuracy"]
    cell["per_run"][0] += 1e-6
    cell["mean"] = sum(cell["per_run"]) / len(cell["per_run"])
    Path(path).write_text(json.dumps(report, indent=2), encoding="utf-8")


class TamperedBench(run.Bench):
    """A program whose core lexicon and star report come out slightly wrong."""

    def cli(self, args, traced_prefix=None):
        outcome = super().cli(args, traced_prefix)
        if args[0] == "train" and args[args.index("--model") + 1] == "core":
            perturb_lexicon(self.path("core.lex"))
        if args[0] == "eval" and args[args.index("--model") + 1] == "star":
            perturb_report(self.path("eval_star.json"))
        return outcome


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)


def make_bench(cls, tmp_path):
    bench = cls("tiny", 3, tmp_path)
    bench.setup()
    return bench


def test_pipeline_passes_on_the_program(tiny, tmp_path):
    bench = make_bench(run.Bench, tmp_path)
    bench.iteration()
    assert (bench.attempted, bench.failed, bench.problems) == (7, 0, [])
    # a second pass must reproduce every verified digest
    bench.iteration()
    assert (bench.attempted, bench.failed) == (14, 0)


def test_perturbed_lexicon_and_report_raise_error_rate(tiny, tmp_path):
    bench = make_bench(TamperedBench, tmp_path)
    bench.iteration()
    assert bench.attempted == 7
    assert bench.failed == 2
    failed_steps = {p.split(":")[0] for p in bench.problems}
    assert failed_steps == {"train_core", "eval_star"}


def test_lexicon_checks_catch_a_broken_checksum_and_a_wrong_vector(tiny, tmp_path):
    bench = make_bench(run.Bench, tmp_path)
    bench.iteration()
    path = bench.path("core.lex")
    assert checks.check_lexicon(path, bench.corpus.entries, "core") == []
    original = Path(path).read_text(encoding="utf-8")
    perturb_lexicon(path, fix_checksum=False)
    assert any("#sha256" in p for p in checks.check_lexicon(path, bench.corpus.entries, "core"))
    Path(path).write_text(original, encoding="utf-8")
    perturb_lexicon(path)
    assert any("words differ" in p for p in checks.check_lexicon(path, bench.corpus.entries, "core"))


def test_perturbed_prediction_fails(tiny, tmp_path):
    bench = make_bench(run.Bench, tmp_path)
    bench.iteration()
    path = Path(bench.path("predict.txt"))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    values, _, coverage = lines[5].rstrip("\n").partition(" coverage=")
    first, *rest = values.split(",")
    lines[5] = ",".join([repr(float(first) + 1e-9), *rest]) + f" coverage={coverage}\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert checks.check_predictions(path, bench.path("core.lex"), bench.kept)


def test_clean_row_accounting_matches_the_generator(tiny, tmp_path):
    bench = make_bench(run.Bench, tmp_path)
    bench.iteration()
    drops = bench.corpus.row_drops
    assert drops["malformed_rows"] == 4 * run.MALFORMED_EACH
    assert drops["empty_after_cleaning"] == TINY.rows // 100
    assert all(v > 0 for v in drops["token_removals"].values())


def test_traced_pass_accounts_for_wall_time_and_repeats_counts(tiny, tmp_path):
    bench = make_bench(run.Bench, tmp_path)
    firsts = []
    for name in ("a", "b"):
        _, _, traces = bench.iteration(traced=name)
        assert [step for step, _ in traces] == list(run.STEPS)
        for _, result in traces:
            parts = sum(tracing.layer_self(result).values())
            total = result["import_s"] + parts + result["exit_s"] + result["tracer_s"]
            assert total == pytest.approx(result["wall_s"], abs=0.02)
            assert result["missing"] == []
        firsts.append(tracing.layer_metrics([r for _, r in traces]))
    counts = [k for k in firsts[0] if k.endswith(("rows_in", "rows_malformed", "fold_entries",
                                                   "vocab_size", "predict_calls", "kept_ratio"))]
    assert len(counts) == 6
    assert all(firsts[0][k] == firsts[1][k] for k in counts)
    assert firsts[0]["evaluation.runs"] == 2


def test_a_function_that_is_gone_reads_as_count_zero(tmp_path):
    # install() rewrites module attributes, so it runs in a child process.
    code = (
        "import tracing\n"
        "tracing.TARGETS += (('engine.vanished', 'engine', 'no_longer_here'),)\n"
        "print(tracing.install(tracing.Recorder()))\n"
    )
    env = run.child_env()
    env["PYTHONPATH"] += f"{os.pathsep}{HERE}"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "['engine.vanished']"
