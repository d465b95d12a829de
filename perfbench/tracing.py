"""Span tracing of one CLI command, from outside the program.

Run as ``python tracing.py <spans-prefix> <cli args...>`` with ``src`` on
the path: it imports ``reaction_lens``, wraps the public functions of each
layer under every name a module imported them by (``cli`` and
``evaluation`` import names directly), runs ``reaction_lens.cli.main`` and
writes the spans it kept in memory when the command ends.

A span is (name, parent span, start, end).  Time inside a generator is
charged per ``next()``.  A function that no longer exists is simply not
wrapped and reads as count 0.  The wrapper's own bookkeeping outside the
timed window is calibrated at start-up and subtracted from the caller's
self time; it is reported, with install and write time, as tracer time.

``analyze`` and ``layer_metrics`` turn the span files of one pipeline pass
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from time import perf_counter

# (span name, module, attribute); classes are given as "Class.method".
TARGETS = (
    ("corpus_io.load_corpus", "corpus_io", "load_corpus"),
    ("corpus_io.save_lexicon", "corpus_io", "save_lexicon"),
    ("corpus_io.load_lexicon", "corpus_io", "load_lexicon"),
    ("cleaning.clean_message", "cleaning", "clean_message"),
    ("engine.normalize", "engine", "normalize"),
    ("engine.add_entry", "engine", "ReactionLexicon.add_entry"),
    ("engine.finalize", "engine", "ReactionLexicon.finalize"),
    ("engine.build_lexicon", "engine", "build_lexicon"),
    ("engine.predict", "engine", "predict"),
    ("star.star_normalize", "star", "star_normalize"),
    ("star.star_scale", "star", "star_scale"),
    ("star.discretize_star", "star", "discretize_star"),
    ("star.gaussian_similarity", "star", "gaussian_similarity"),
    ("evaluation.run_experiment", "evaluation", "run_experiment"),
    ("evaluation.split", "evaluation", "split"),
    ("evaluation.report_emit", "evaluation", "report_emit"),
)
ITERATOR_RESULTS = {"corpus_io.load_corpus"}


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def wrap(self, name: str, fn, hook=None, iterator=False):
        """Return ``fn`` recording one span per call (and per ``next()``)."""
        nid = self._id(name)
        rec = self

        def traced(*args, **kwargs):
            idx = rec._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx, t0, perf_counter())
            if iterator:
                return _TracedIter(rec, nid, result, hook, args, kwargs)
            if hook is not None:
                hook(rec, args, kwargs, result, rec.end[idx] - t0)
            return result

        return functools.wraps(fn)(traced)


class _TracedIter:
    def __init__(self, rec, nid, it, hook, args, kwargs):
        self.rec, self.nid, self.it = rec, nid, iter(it)
        self.hook, self.args, self.kwargs = hook, args, kwargs

    def __iter__(self):
        return self

    def __next__(self):
        rec = self.rec
        idx = rec._open(self.nid)
        t0 = perf_counter()
        try:
            item = next(self.it)
        except StopIteration:
            rec._close(idx, t0, perf_counter())
            if self.hook is not None:
                self.hook(rec, self.args, self.kwargs, StopIteration, 0.0)
            raise
        except BaseException:
            rec._close(idx, t0, perf_counter())
            raise
        rec._close(idx, t0, perf_counter())
        if self.hook is not None:
            self.hook(rec, self.args, self.kwargs, item, 0.0)
        return item


# --- counters taken at layer boundaries -----------------------------------


def _rows_hook(rec, args, kwargs, item, _):
    if item is StopIteration:
        errors = args[3] if len(args) > 3 else kwargs.get("errors")
        rec.add("corpus_io.rows_malformed", len(errors or ()))
    else:
        rec.add("corpus_io.rows_ok", 1)


def _bytes_hook(position):
    def hook(rec, args, kwargs, result, _):
        path = args[position] if len(args) > position else None
        if isinstance(path, (str, os.PathLike)):
            rec.add("corpus_io.lexicon_bytes", os.path.getsize(path))

    return hook


def _clean_hook(rec, args, kwargs, result, duration):
    if "cleaning.first_call_s" not in rec.counters:
        rec.counters["cleaning.first_call_s"] = duration
    rec.add("cleaning.tokens_in", len(args[0].split()))
    rec.add("cleaning.tokens_kept", len(result.tokens))


def _predict_hook(rec, args, kwargs, result, _):
    rec.add("engine.coverage_sum", result[1])
    rec.add("engine.zero_coverage", result[1] == 0.0)


def _finalize_hook(rec, args, kwargs, result, _):
    vocab = len(args[0].entries)
    rec.counters["engine.vocab_size"] = max(rec.counters.get("engine.vocab_size", 0), vocab)


HOOKS = {
    "corpus_io.load_corpus": _rows_hook,
    "corpus_io.save_lexicon": _bytes_hook(1),
    "corpus_io.load_lexicon": _bytes_hook(0),
    "cleaning.clean_message": _clean_hook,
    "engine.predict": _predict_hook,
    "engine.finalize": _finalize_hook,
}


def install(rec: Recorder) -> list[str]:
    """Wrap every target under each name that refers to it; return the missing."""
    import importlib

    modules = [m for name, m in list(sys.modules.items()) if name.startswith("reaction_lens")]
    missing = []
    for span, module_name, attr in TARGETS:
        try:
            owner = importlib.import_module(f"reaction_lens.{module_name}")
        except ImportError:
            missing.append(span)
            continue
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
            attr = method
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(span)
            continue
        wrapped = rec.wrap(span, original, HOOKS.get(span), span in ITERATOR_RESULTS)
        if cls_name:
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return missing


def _noop():
    return None


def calibrate(calls: int = 5000) -> float:
    """Seconds of wrapper bookkeeping per span that fall outside its window."""
    rec = Recorder()
    traced = rec.wrap("calibrate", _noop)
    t0 = perf_counter()
    for _ in range(calls):
        _noop()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    inside = sum(e - s for s, e in zip(rec.start, rec.end)) / calls
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls - inside)


def write(rec: Recorder, prefix: str, meta: dict) -> None:
    with open(prefix + ".bin", "wb") as fh:
        for arr in (rec.name, rec.parent, rec.start, rec.end):
            arr.tofile(fh)
    meta = dict(meta, names=rec.names, spans=len(rec.name), counters=rec.counters)
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def main(argv: list[str]) -> int:
    prefix, cli_args = argv[0], argv[1:]
    import reaction_lens.cli as cli

    t_imported = perf_counter()
    rec = Recorder()
    missing = install(rec)
    cost = calibrate()
    run = rec.wrap("cli.main", cli.main)
    t_main0 = perf_counter()
    code = 1
    try:
        code = run(cli_args)
    finally:
        t_main1 = perf_counter()
        meta = {"t_imported": t_imported, "t_main0": t_main0, "t_main1": t_main1,
                "span_cost": cost, "missing": missing}
        write(rec, prefix, meta)
        meta_write = perf_counter() - t_main1
        with open(prefix + ".done", "w", encoding="utf-8") as fh:
            fh.write(repr(meta_write))
    return code


# --- analysis, in the benchmark process ------------------------------------


def analyze(prefix: str, t_spawn: float, t_end: float) -> dict:
    """Per-span-name totals and the wall-time breakdown of one traced command."""
    import numpy as np

    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(prefix + ".done", encoding="utf-8") as fh:
        write_s = float(fh.read())
    n = meta["spans"]
    with open(prefix + ".bin", "rb") as fh:
        name = np.fromfile(fh, dtype=np.int32, count=n)
        parent = np.fromfile(fh, dtype=np.int32, count=n)
        start = np.fromfile(fh, dtype=np.float64, count=n)
        end = np.fromfile(fh, dtype=np.float64, count=n)
    dur = end - start
    child = parent >= 0
    child_sum = np.bincount(parent[child], weights=dur[child], minlength=n)
    child_n = np.bincount(parent[child], minlength=n)
    self_time = dur - child_sum - child_n * meta["span_cost"]
    names = meta["names"]
    k = len(names)
    parent_name = np.full(n, -1)
    parent_name[child] = name[parent[child]]
    eval_ids = [i for i, s in enumerate(names) if s.startswith("evaluation.")]
    under_eval = np.isin(parent_name, eval_ids)
    spans = {
        s: {
            "count": int(c), "incl": float(t), "self": float(u),
            "incl_under_evaluation": float(e),
        }
        for s, c, t, u, e in zip(
            names,
            np.bincount(name, minlength=k),
            np.bincount(name, weights=dur, minlength=k),
            np.bincount(name, weights=self_time, minlength=k),
            np.bincount(name, weights=np.where(under_eval, dur, 0.0), minlength=k),
        )
    }
    samples = {
        s: dur[name == names.index(s)] for s in ("cleaning.clean_message", "engine.predict")
        if s in names
    }
    wall = t_end - t_spawn
    tracer = (meta["t_main0"] - meta["t_imported"]) + float(np.sum(child_n) * meta["span_cost"]) + write_s
    main_span = spans.get("cli.main", {"self": 0.0})
    return {
        "wall_s": wall,
        "import_s": meta["t_imported"] - t_spawn,
        "exit_s": t_end - meta["t_main1"] - write_s,
        "tracer_s": tracer,
        "cli_self_s": main_span["self"],
        "spans": spans,
        "samples": samples,
        "counters": meta["counters"],
        "missing": meta["missing"],
    }


def layer_self(result: dict) -> dict:
    """Self seconds per layer (module), with ``cli`` holding ``cli.main``."""
    out: dict[str, float] = {}
    for span, totals in result["spans"].items():
        layer = span.partition(".")[0]
        out[layer] = out.get(layer, 0.0) + totals["self"]
    return out


def layer_metrics(results: list[dict]) -> dict:
    """Per-layer metrics of one pipeline pass (one result per command)."""
    import numpy as np

    def total(span, key="self"):
        return sum(r["spans"].get(span, {}).get(key, 0.0) for r in results)

    def count(span):
        return sum(r["spans"].get(span, {}).get("count", 0) for r in results)

    def counter(key):
        return sum(r["counters"].get(key, 0) for r in results)

    def percentile_us(span, q):
        values = [r["samples"][span] for r in results if span in r["samples"]]
        values = np.concatenate(values) if values else np.zeros(0)
        return float(np.percentile(values, q) * 1e6) if values.size else 0.0

    selves: dict[str, float] = {}
    for r in results:
        for layer, value in layer_self(r).items():
            selves[layer] = selves.get(layer, 0.0) + value
    rows_in = counter("corpus_io.rows_ok") + counter("corpus_io.rows_malformed")
    parse_s = total("corpus_io.load_corpus", "incl")
    tokens_in = counter("cleaning.tokens_in")
    predict_calls = count("engine.predict")
    first_calls = [r["counters"]["cleaning.first_call_s"] for r in results
                   if "cleaning.first_call_s" in r["counters"]]
    return {
        "corpus_io.parse_s": parse_s,
        "corpus_io.parse_rows_per_s": rows_in / parse_s if parse_s else 0.0,
        "corpus_io.rows_in": rows_in,
        "corpus_io.rows_malformed": counter("corpus_io.rows_malformed"),
        "corpus_io.save_s": total("corpus_io.save_lexicon", "incl"),
        "corpus_io.load_s": total("corpus_io.load_lexicon", "incl"),
        "corpus_io.lexicon_bytes": counter("corpus_io.lexicon_bytes"),
        "corpus_io.self_s": selves.get("corpus_io", 0.0),
        "cleaning.first_call_s": sum(first_calls) / len(first_calls) if first_calls else 0.0,
        "cleaning.clean_s": total("cleaning.clean_message"),
        "cleaning.clean_us_p50": percentile_us("cleaning.clean_message", 50),
        "cleaning.clean_us_p99": percentile_us("cleaning.clean_message", 99),
        "cleaning.messages": count("cleaning.clean_message"),
        "cleaning.tokens_kept_ratio": counter("cleaning.tokens_kept") / tokens_in if tokens_in else 0.0,
        "engine.normalize_s": total("engine.normalize"),
        "engine.fold_s": total("engine.add_entry"),
        "engine.fold_entries": count("engine.add_entry"),
        "engine.finalize_s": total("engine.finalize"),
        "engine.vocab_size": max((r["counters"].get("engine.vocab_size", 0) for r in results), default=0),
        "engine.predict_s": total("engine.predict"),
        "engine.predict_calls": predict_calls,
        "engine.predict_us_p50": percentile_us("engine.predict", 50),
        "engine.predict_us_p99": percentile_us("engine.predict", 99),
        "engine.coverage_mean": counter("engine.coverage_sum") / predict_calls if predict_calls else 0.0,
        "engine.zero_coverage_share": counter("engine.zero_coverage") / predict_calls if predict_calls else 0.0,
        "engine.self_s": selves.get("engine", 0.0),
        "star.vectorize_s": sum(total(s) for s in (
            "star.star_normalize", "star.star_scale", "star.discretize_star")),
        "star.self_s": selves.get("star", 0.0),
        "evaluation.split_s": total("evaluation.split"),
        "evaluation.build_s": total("engine.build_lexicon", "incl_under_evaluation"),
        "evaluation.predict_s": total("engine.predict", "incl_under_evaluation"),
        "evaluation.self_s": total("evaluation.run_experiment") + total("evaluation.report_emit"),
        "evaluation.runs": count("evaluation.split"),
        "cli.import_s": sum(r["import_s"] for r in results),
        "cli.self_s": sum(r["cli_self_s"] for r in results),
        "cli.exit_s": sum(r["exit_s"] for r in results),
        "trace.tracer_s": sum(r["tracer_s"] for r in results),
        "trace.spans": sum(sum(s["count"] for s in r["spans"].values()) for r in results),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
