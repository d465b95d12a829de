"""reaction-lens benchmark: the CLI pipeline on seeded noisy corpora.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 34 --trace 0

Run from the root of a checkout.  Set-up makes the workload's inputs from
``--seed`` (set-up is repeated and its median reported as ``setup_s``).
Then the pipeline ``clean -> train core -> train star -> eval core ->
eval star -> predict -> predict one message`` runs as users run it, one
``python -m reaction_lens.cli`` process at a time, until ``--seconds`` of
commands have been timed.  Every command's output is checked (see
checks.py).  The last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or, from a separate run in which every
command is traced (``--trace 1``), the per-layer metrics.  Metric names,
units and bounds come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
COMMAND_TIMEOUT_S = 150
SETUP_REPEATS = 3
# Typical wall time of reference.py on an idle 2-vCPU x86 VM.  Timed commands
# are reported in seconds at this reference speed: each one's wall time is
# scaled by the nominal over the mean of the reference runs around it.
REFERENCE_NOMINAL_S = 0.33
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Workload:
    format: str
    rows: int  # valid raw corpus rows; 20 malformed rows come on top
    vocab: int
    messages: int
    message_vocab: int
    splits: str
    runs: int
    lexicon_rows: int = 0  # > 0: predict with an `all` lexicon trained in set-up
    lexicon_vocab: int = 0


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "ingest": Workload("csv", rows=9000, vocab=5000, messages=1000, message_vocab=5000,
                       splits="95", runs=1),
    "eval": Workload("jsonl", rows=4500, vocab=3000, messages=1000, message_vocab=3000,
                     splits="95,90,80,70,50", runs=2),
    "predict": Workload("csv", rows=2000, vocab=2000, messages=20000, message_vocab=48000,
                        splits="95", runs=1, lexicon_rows=4500, lexicon_vocab=30000),
}
MALFORMED_EACH = 5
EMPTY_MESSAGE_EVERY = 50
STEPS = ("clean", "train_core", "train_star", "eval_core", "eval_star", "predict", "predict_cold")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REACTION_LENS_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in THREAD_VARS})
    return env


@dataclass
class Outcome:
    wall_s: float
    rss_mib: float
    code: int
    t_spawn: float
    t_end: float


def spawn(argv: list[str], cwd: Path, log: Path, env: dict) -> Outcome:
    """Run one child to completion; time it and take its own peak RSS.

    ``os.wait4`` gives the child's own rusage; ``RUSAGE_CHILDREN`` would be
    a running maximum over every child so far.
    """
    with open(log, "wb") as out:
        t_spawn = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            t_end = perf_counter()
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(t_end - t_spawn, usage.ru_maxrss / 1024.0, proc.returncode, t_spawn, t_end)


class Bench:
    def __init__(self, name: str, seed: int, workdir: Path):
        import inputs

        self.name, self.w, self.seed, self.dir = name, WORKLOADS[name], seed, workdir
        self.inputs = inputs
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.recorded: dict[str, str] = {}
        self.verified: dict[str, str] = {}
        self.log_count = 0
        self.check_s = 0.0  # time spent checking, which the --seconds clock leaves out

    # -- inputs -------------------------------------------------------------

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def cli(self, args: list[str], traced_prefix: str | None = None) -> Outcome:
        if traced_prefix is None:
            argv = [sys.executable, "-m", "reaction_lens.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracing.py"), traced_prefix, *args]
        self.log_count += 1
        return spawn(argv, self.dir, self.dir / f"log{self.log_count % 8}.txt", self.env)

    def setup(self) -> float:
        """Make the workload's inputs; return the wall time it took."""
        from reaction_lens.synth import SynthSpec

        inp, w, s = self.inputs, self.w, self.seed
        t0 = perf_counter()
        inp.write_stopwords(self.path("stop.txt"))
        self.corpus = inp.write_corpus(
            self.path(f"corpus.{w.format}"), w.format,
            SynthSpec(rows=w.rows, vocab_size=w.vocab, seed=10 * s + 1),
            seed=10 * s + 2, empty_rows=w.rows // 100, malformed_each=MALFORMED_EACH)
        self.kept = inp.write_messages(
            self.path("messages.txt"),
            SynthSpec(rows=w.messages, vocab_size=w.message_vocab, seed=10 * s + 3),
            seed=10 * s + 4, empty_every=EMPTY_MESSAGE_EVERY)
        with open(self.path("messages.txt"), encoding="utf-8") as src, \
                open(self.path("one.txt"), "w", encoding="utf-8") as dst:
            dst.write(src.readline())
        self.lexicon_entries = None
        lexicon_ok = True
        if w.lexicon_rows:
            self.lexicon_entries = inp.write_clean_corpus(
                self.path("lexicon_corpus.csv"),
                SynthSpec(rows=w.lexicon_rows, vocab_size=w.lexicon_vocab,
                          length_min=20, length_max=40, seed=10 * s + 5))
            outcome = self.cli(["train", "--input", self.path("lexicon_corpus.csv"),
                                "--output", self.path("all.lex"), "--model", "all"])
            lexicon_ok = outcome.code == 0
        elapsed = perf_counter() - t0
        if not lexicon_ok:
            self.problems.append("set-up: train --model all failed")
        return elapsed

    def input_digest(self) -> str:
        names = ["stop.txt", f"corpus.{self.w.format}", "messages.txt"]
        if self.w.lexicon_rows:
            names.append("lexicon_corpus.csv")
        joined = ",".join(checks.sha256_file(self.path(n)) for n in names)
        return hashlib.sha256(joined.encode()).hexdigest()

    def load_recorded(self) -> None:
        """Digests recorded from the seed commit for these exact inputs."""
        if not DIGESTS.is_file():
            return
        with open(DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh).get(self.name, {}).get(str(self.seed))
        if recorded and recorded.get("inputs") == self.input_digest():
            self.recorded = recorded

    def check_setup(self) -> None:
        if self.w.lexicon_rows:
            self.attempted += 1
            problems = self.check_output("train_all", lambda: self._check("train_all"))
            if problems:
                self.failed += 1
                self.problems += [f"set-up: {p}" for p in problems]

    # -- the pipeline ----------------------------------------------------------

    def commands(self) -> list[tuple[str, list[str]]]:
        w, f, p = self.w, self.w.format, self.path
        lexicon = p("all.lex") if w.lexicon_rows else p("core.lex")
        evaluate = ["--format", f, "--splits", w.splits, "--runs", str(w.runs), "--seed", str(self.seed)]
        return [
            ("clean", ["clean", "--input", p(f"corpus.{f}"), "--output", p(f"cleaned.{f}"),
                       "--format", f, "--stopwords", p("stop.txt")]),
            ("train_core", ["train", "--input", p(f"cleaned.{f}"), "--output", p("core.lex"),
                            "--model", "core", "--format", f]),
            ("train_star", ["train", "--input", p(f"cleaned.{f}"), "--output", p("star.lex"),
                            "--model", "star", "--format", f]),
            ("eval_core", ["eval", "--input", p(f"cleaned.{f}"), "--output", p("eval_core.json"),
                           "--model", "core", *evaluate]),
            ("eval_star", ["eval", "--input", p(f"cleaned.{f}"), "--output", p("eval_star.json"),
                           "--model", "star", *evaluate]),
            ("predict", ["predict", "--lexicon", lexicon, "--input", p("messages.txt"),
                         "--output", p("predict.txt"), "--stopwords", p("stop.txt")]),
            ("predict_cold", ["predict", "--lexicon", lexicon, "--input", p("one.txt"),
                              "--output", p("predict_one.txt"), "--stopwords", p("stop.txt")]),
        ]

    def _digest(self, step: str) -> str:
        p = self.path
        if step == "clean":
            return checks.sha256_file(p(f"cleaned.{self.w.format}"))
        if step.startswith("train_"):
            lex = checks.Lexicon(p(step.replace("train_", "") + ".lex"))
            return lex.digest if lex.body_ok else "corrupt:" + lex.digest
        if step.startswith("eval_"):
            return checks.report_digest(p(step + ".json"))
        return checks.sha256_file(p("predict.txt" if step == "predict" else "predict_one.txt"))

    def _check(self, step: str) -> list[str]:
        """Full check of one output, used when no verified digest is at hand."""
        p, cleaned = self.path, self.corpus.entries
        lexicon = p("all.lex") if self.w.lexicon_rows else p("core.lex")
        if step == "clean":
            with open(p(f"cleaned.{self.w.format}.manifest.json"), encoding="utf-8") as fh:
                drops = json.load(fh)["row_drops"]
            problems = [] if drops == self.corpus.row_drops else [
                f"clean row accounting {drops} != expected {self.corpus.row_drops}"]
            if self._digest("clean") != self.corpus.cleaned_sha256:
                problems.append("cleaned output differs from the generator's expected output")
            return problems
        if self.recorded.get(step) == self._digest(step):
            return []
        if step == "train_all":
            return checks.check_lexicon(p("all.lex"), self.lexicon_entries, "all")
        if step.startswith("train_"):
            return checks.check_lexicon(p(step[6:] + ".lex"), cleaned, step[6:])
        if step.startswith("eval_"):
            return checks.check_report(p(step + ".json"), cleaned, step[5:], self.seed)
        kept = self.kept if step == "predict" else self.kept[:1]
        return checks.check_predictions(p("predict.txt" if step == "predict" else "predict_one.txt"),
                                        lexicon, kept)

    def check_output(self, step: str, full) -> list[str]:
        """Compare with the digest verified earlier in this run, else check fully."""
        try:
            digest = self._digest(step)
            if step in self.verified:
                if digest == self.verified[step]:
                    return []
                return [f"{step}: output changed between identical runs"]
            problems = full()
        except Exception as exc:  # a missing or unreadable output fails the check
            return [f"{step}: {type(exc).__name__}: {exc}"]
        if not problems:
            self.verified[step] = digest
        return [f"{step}: {p}" for p in problems]

    def elapsed(self, t_start: float) -> float:
        """Seconds since ``t_start`` spent running commands, checks left out."""
        return perf_counter() - t_start - self.check_s

    def reference(self) -> float:
        """Wall time of one run of the fixed reference work (see reference.py)."""
        return spawn([sys.executable, str(HERE / "reference.py")], self.dir,
                     self.dir / "reference.log", self.env).wall_s

    def iteration(self, traced: str | None = None) -> tuple[dict, dict, list]:
        """Run the pipeline once.

        Returns per-step outcomes, per-step wall times scaled to the nominal
        reference speed (untraced passes only) and trace results.
        """
        outcomes, scaled, traces = {}, {}, []
        before = self.reference() if traced is None else 0.0
        for step, args in self.commands():
            prefix = None if traced is None else self.path(f"{traced}-{step}")
            outcome = self.cli(args, prefix)
            outcomes[step] = outcome
            if traced is None:
                after = self.reference()
                scaled[step] = outcome.wall_s * REFERENCE_NOMINAL_S / ((before + after) / 2)
                before = after
            self.attempted += 1
            t_check = perf_counter()
            problems = [f"{step}: exit code {outcome.code}"] if outcome.code != 0 else \
                self.check_output(step, lambda step=step: self._check(step))
            if problems:
                self.failed += 1
                self.problems += problems
            elif prefix is not None:
                traces.append((step, tracing.analyze(prefix, outcome.t_spawn, outcome.t_end)))
                for suffix in (".bin", ".json", ".done"):
                    os.remove(prefix + suffix)
            self.check_s += perf_counter() - t_check
        return outcomes, scaled, traces


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def emit(metrics: dict, samples: dict, spec_metrics: list, bench: Bench) -> None:
    units = {m["name"]: m["unit"] for m in spec_metrics}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} do not match BENCHMARK.json")
    for name in units:
        values = samples.get(name, [metrics[name]])
        q1, q2, q3 = quartiles(values)
        print(f"{name:32s} {metrics[name]:14.6g} {units[name]:8s} "
              f"q1={q1:.6g} q3={q3:.6g} n={len(values)}")
    print(f"error_rate {bench.failed / max(1, bench.attempted):.6g} "
          f"({bench.failed} failed of {bench.attempted} operations)")
    for problem in bench.problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def measure(bench: Bench, seconds: float, spec: dict) -> None:
    setups, raw_setups, made = [], [], set()
    before = bench.reference()
    for _ in range(SETUP_REPEATS):
        raw_setups.append(bench.setup())
        after = bench.reference()
        setups.append(raw_setups[-1] * REFERENCE_NOMINAL_S / ((before + after) / 2))
        before = after
        made.add(bench.input_digest())
    if len(made) != 1:
        bench.problems.append("set-up: the same seed made different inputs")
    bench.load_recorded()
    bench.check_setup()
    bench.cli(["--version"])  # compile the package's bytecode before timing
    walls: dict[str, list[float]] = {step: [] for step in STEPS}
    raw: dict[str, list[float]] = {step: [] for step in STEPS}
    rows_per_s, rss = [], []
    rows = bench.corpus.rows_written + bench.w.messages + 1
    bench.check_s, t_start = 0.0, perf_counter()
    passes = 0
    # Start a pass only if it should end within --seconds (one pass at least).
    while passes == 0 or bench.elapsed(t_start) * (passes + 1) / passes <= seconds:
        passes += 1
        outcomes, scaled, _ = bench.iteration()
        for step, outcome in outcomes.items():
            walls[step].append(scaled[step])
            raw[step].append(outcome.wall_s)
        rows_per_s.append(rows / sum(scaled.values()))
        rss.append(max(o.rss_mib for o in outcomes.values()))
    print("unscaled medians: " + " ".join(
        f"{name}={statistics.median(values):.4f}"
        for name, values in [("setup_s", raw_setups)] + [(f"{s}_s", raw[s]) for s in STEPS]))
    samples = {f"{step}_s": values for step, values in walls.items()}
    samples.update(setup_s=setups, rows_per_s=rows_per_s, peak_rss_mib=rss)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["success_rate"] = 1.0 - bench.failed / max(1, bench.attempted)
    emit(metrics, samples, spec["end_to_end"], bench)


def measure_traced(bench: Bench, seconds: float, spec: dict) -> None:
    import inputs

    rec = tracing.Recorder()
    original = inputs.iter_rows

    def count_rows(rec, args, kwargs, item, _):
        if item is not StopIteration:
            rec.add("synth.rows", 1)

    inputs.iter_rows = rec.wrap("synth.iter_rows", original, count_rows, iterator=True)
    try:
        bench.setup()
    finally:
        inputs.iter_rows = original
    synth_s = sum(e - s for s, e in zip(rec.start, rec.end))
    bench.load_recorded()
    bench.check_setup()
    bench.cli(["--version"])
    plain, traced, layers, breakdown = [], [], [], []
    bench.check_s, t_start, i = 0.0, perf_counter(), 0
    while i < 2 or bench.elapsed(t_start) * (i + 1) / i <= seconds:
        outcomes, _, traces = bench.iteration(traced=None if i % 2 == 0 else f"trace{i}")
        wall = sum(o.wall_s for o in outcomes.values())
        if i % 2 == 0:
            plain.append(wall)
        elif len(traces) == len(STEPS):
            traced.append(wall)
            layers.append(tracing.layer_metrics([r for _, r in traces]))
            breakdown = traces
        i += 1
    samples = {name: [m[name] for m in layers] for name in layers[0]} if layers else {}
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["synth.write_s"] = synth_s
    metrics["synth.rows_per_s"] = rec.counters.get("synth.rows", 0) / synth_s if synth_s else 0.0
    overhead = statistics.median(traced) - statistics.median(plain) if traced else 0.0
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / statistics.median(plain) if traced else 0.0
    print("traced wall-time breakdown per command (seconds):")
    for step, r in breakdown:
        selves = tracing.layer_self(r)
        cli_self = selves.pop("cli", 0.0)
        parts = " ".join(f"{k}={v:.3f}" for k, v in sorted(selves.items()))
        total = r["import_s"] + sum(selves.values()) + cli_self + r["exit_s"] + r["tracer_s"]
        print(f"  {step:12s} wall={r['wall_s']:.3f} = import={r['import_s']:.3f} {parts} "
              f"cli.self={cli_self:.3f} exit={r['exit_s']:.3f} tracer={r['tracer_s']:.3f} "
              f"(sum {total:.3f}; unwrapped: {','.join(r['missing']) or 'none'})")
    print(f"tracing overhead: traced pass {statistics.median(traced) if traced else 0:.3f}s - "
          f"untraced pass {statistics.median(plain):.3f}s = {overhead:.3f}s")
    if not layers:
        metrics.update({m["name"]: 0.0 for m in spec["per_layer"] if m["name"] not in metrics})
    emit(metrics, samples, spec["per_layer"], bench)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="add this seed's verified output digests to digests.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "reaction_lens" / "cli.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'reaction_lens'}", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, workdir)
        if args.trace:
            measure_traced(bench, args.seconds, spec)
        else:
            measure(bench, args.seconds, spec)
        if args.record_digests and bench.failed == 0:
            record_digests(bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def record_digests(bench: Bench) -> None:
    recorded = {}
    if DIGESTS.is_file():
        with open(DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh)
    entry = dict(bench.verified, inputs=bench.input_digest())
    recorded.setdefault(bench.name, {})[str(bench.seed)] = dict(sorted(entry.items()))
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
