"""Command-line surface: clean, train, predict, eval, stats, synth.

Every command is deterministic given its inputs and seed.  Each setting
is one ``_SETTINGS`` entry, and its flag is declared from it; ``main`` gives
each setting the command declares its value (flag, then config file, then
default) before any input is read.  Each command that writes a primary
output also writes ``<output>.manifest.json`` beside it through a ``_Run``:
the configuration snapshot, input checksums, tool version, timestamps, and
row accounting.  JSON reports and lexicon artifacts embed the run id; other
formats rely on the sidecar naming convention.

Exit codes: 0 success, 2 usage, 3 I/O, 4 schema/artifact, 5 degenerate data;
an interrupted command dies by SIGINT (``entry``).  ``predict`` scores a large chunk
of a regular file, and ``eval`` two or more seeded runs, in two processes (``_halves``),
with the same output bytes.  A ``predict`` input too short to split, such as stdin, parses
only the lexicon lines of its messages' words (``artifacts.LexiconFile``) for its first
chunks, and then the whole lexicon.

Every command needs ``artifacts`` and ``engine``; ``corpus_io``,
``cleaning``, ``evaluation`` and ``star`` are imported inside the commands
that run them, so each command loads only the layers it uses (``predict``
reads no corpus).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import marshal
import os
import stat
import sys
import time
from collections import Counter
from contextlib import ExitStack
from itertools import chain, islice

from . import __version__
from .artifacts import LexiconFile, atomic_write, load_lexicon, save_lexicon
from .engine import ALL_SCHEMA, CORE_SCHEMA, DECIMAL, MODELS, POLAR_REACTIONS, count_getter, predict
from .errors import (
    CorruptArtifact,
    DegenerateRange,
    EmptySide,
    EmptyTrainingSet,
    InvalidSpec,
    SchemaMismatch,
    UnreadableSource,
    VersionMismatch,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SCHEMA = 4
EXIT_DATA = 5

CONFIG_ENV = "REACTION_LENS_CONFIG"

_IO_ERRORS = (UnreadableSource, OSError, UnicodeDecodeError)
_SCHEMA_ERRORS = (SchemaMismatch, VersionMismatch, CorruptArtifact)
_DATA_ERRORS = (
    EmptyTrainingSet,
    DegenerateRange,
    EmptySide,
    InvalidSpec,
)


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def _write_json(path, payload) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


class _Run:
    """A run manifest: the settings ``names`` of ``args`` (then ``extra``) and the
    inputs' checksums, taken at the start; ``finish`` writes it beside the first output."""

    def __init__(self, args, names, inputs=(), **extra):
        self.started = _now()
        self.command = args.command
        self.config = {**{name: getattr(args, name) for name in names}, **extra}
        self.inputs = []
        for path in filter(None, inputs):
            checksum = size = None
            # A pipe or device can be read only once, and the command needs it.
            if stat.S_ISREG(os.stat(path).st_mode):
                digest, size = hashlib.sha256(), 0
                with open(path, "rb", buffering=0) as fh:
                    # os.pread moves no file offset, which opening /dev/stdin may share (_has_lines).
                    read = getattr(os, "pread", lambda fd, n, offset: fh.read(n))
                    while block := read(fh.fileno(), 1 << 20, size):
                        digest.update(block)
                        size += len(block)
                checksum = digest.hexdigest()
            self.inputs.append({"path": str(path), "sha256": checksum, "bytes": size})
        key = json.dumps({"command": self.command, "config": self.config, "inputs": self.inputs},
                         sort_keys=True)
        self.id = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]

    def finish(self, outputs, row_drops=None) -> None:
        _write_json(str(outputs[0]) + ".manifest.json", {
            "run_id": self.id,
            "tool": f"reaction-lens {__version__}",
            "command": self.command,
            "created_at": self.started,
            "finished_at": _now(),
            "config": self.config,
            "inputs": self.inputs,
            "outputs": [str(p) for p in outputs],
            "row_drops": row_drops,
        })


def _read_config_file(path) -> dict:
    """TOML-like key/value config, UTF-8 (BOM dropped): ``key = value`` lines, ``#`` comments."""
    values = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip().strip("\"'")
    return values


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected boolean, got {value!r}")
    return value.lower() in ("1", "true", "yes")


def _parse_columns(spec: str) -> dict | None:
    if not spec:
        return None
    mapping = {}
    for pair in spec.split(","):
        key, sep, value = pair.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ValueError(f"bad column mapping {pair!r}, expected field=column")
        mapping[key.strip()] = value.strip()
    return mapping


def _parse_splits(spec: str) -> tuple[float, ...]:
    values = [float(token) for token in map(str.strip, spec.split(",")) if token]
    fractions = [value / 100.0 if value >= 1.0 else value for value in values]
    if not fractions:
        raise ValueError("no train fractions given")
    return tuple(fractions)


def _parse_floats(spec: str) -> tuple[float, ...] | None:
    return tuple(float(v) for v in spec.split(",")) if spec else None


# Every setting a config file may give: name -> (parse, default).  A tuple
# parse lists the allowed values.  argparse parses a flag's int, float and
# choice values; every other string, from a flag or the config file, goes
# through the parse in ``_settle``.
_SETTINGS = {
    "format": (("csv", "jsonl"), "csv"),
    "columns": (_parse_columns, None),
    "stopwords": (str, None),
    "casefold_ascii": (_parse_bool, False),
    "model": (MODELS, "core"),
    "splits": (_parse_splits, "95,90,80,70,50"),
    "runs": (int, 5),
    "seed": (int, 0),
    "sigma": (float, 1.0),
    "report_format": (("json", "csv"), "json"),
    "rows": (int, 10_000),
    "vocab_size": (int, 2000),
    "length_min": (int, 3),
    "length_max": (int, 12),
    "reaction_scale": (float, 20.0),
    "like_dominance": (float, 0.95),
    # Not SynthSpec's 0.8: the golden digests pin 0.35, perfbench set-up 0.8 (README).
    "like_variability": (float, 0.35),
    "affinity_concentration": (float, 0.5),
    "affinity": (_parse_floats, None),
    "thankful_rate": (float, 0.001),
}


def _settle(args, config: dict) -> None:
    """Set each setting the command declares: its flag, else the config file, else the default."""
    for name, (parse, default) in _SETTINGS.items():
        if not hasattr(args, name):
            continue
        value = getattr(args, name)
        if value is None:
            value = config.get(name, default)
        if isinstance(parse, tuple):
            if value not in parse:
                raise ValueError(f"{name.replace('_', '-')}: invalid choice {value!r} "
                                 f"(choose from {', '.join(map(repr, parse))})")
        elif isinstance(value, str):
            value = parse(value)
        setattr(args, name, value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reaction-lens",
        description="Predict reader-reaction distributions for short texts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--config",
        default=None,
        help=f"key=value config file (default from ${CONFIG_ENV})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def setting(p, name, help=None):
        parse = _SETTINGS[name][0]
        kind = {}
        if parse is _parse_bool:
            kind["action"] = "store_true"
        elif isinstance(parse, tuple):
            kind["choices"] = parse
        elif parse in (int, float):
            kind["type"] = parse
        p.add_argument("--" + name.replace("_", "-"), default=None, help=help, **kind)

    def add_corpus_flags(p, output_required=True):
        p.add_argument("--input", required=True, help="corpus file")
        if output_required:
            p.add_argument("--output", required=True, help="output path")
        setting(p, "format")
        setting(p, "columns", "field=column[,field=column...]")

    p = sub.add_parser("clean", help="clean messages, drop empty rows")
    add_corpus_flags(p)
    setting(p, "stopwords", "stopword file (one word per line)")
    setting(p, "casefold_ascii")

    p = sub.add_parser("stats", help="per-reaction totals and percentages")
    add_corpus_flags(p, output_required=False)
    p.add_argument("--output", default=None, help="optional JSON output path")

    p = sub.add_parser("train", help="build a lexicon from a cleaned corpus")
    add_corpus_flags(p)
    setting(p, "model")

    p = sub.add_parser("predict", help="predict vectors for messages, one per line")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--input", default="-", help="message file, '-' for stdin")
    p.add_argument("--output", default="-", help="output file, '-' for stdout")
    setting(p, "stopwords")
    setting(p, "casefold_ascii")

    p = sub.add_parser("eval", help="multi-split evaluation of one model")
    add_corpus_flags(p)
    setting(p, "model")
    setting(p, "splits", "train percents, e.g. 95,90,80,70,50")
    for name in ("runs", "seed", "sigma", "report_format"):
        setting(p, name)

    p = sub.add_parser("synth", help="generate a synthetic corpus with known affinities")
    p.add_argument("--output", required=True)
    for name in ("format", "rows", "vocab_size", "length_min", "length_max", "reaction_scale",
                 "like_dominance", "like_variability", "affinity_concentration"):
        setting(p, name)
    setting(p, "affinity", "fixed affinity, e.g. 1,0,0,0,0")
    setting(p, "thankful_rate")
    setting(p, "seed")
    return parser


def _clean_config(args):
    from .cleaning import CleanConfig, read_stopwords

    stopwords = read_stopwords(args.stopwords) if args.stopwords else frozenset()
    return CleanConfig(stopwords=stopwords, casefold_ascii=args.casefold_ascii)


def _cmd_clean(args) -> int:
    from .cleaning import COUNTERS, clean_message
    from .corpus_io import corpus_rows, save_corpus

    clean_config = _clean_config(args)
    run = _Run(args, ("input", "output", "format", "stopwords", "casefold_ascii", "columns"),
               [args.input, args.stopwords])
    errors = []
    clean_stats = dict.fromkeys(COUNTERS, 0)
    tally: Counter = Counter()
    core_counts = count_getter(CORE_SCHEMA.reactions)
    polar_counts = count_getter(POLAR_REACTIONS)

    def kept(rows):
        for message, counts, record_id in rows:
            tokens = clean_message(message, clean_config, clean_stats)
            if not tokens:
                tally["empty"] += 1
                continue
            if not any(core_counts(counts)):
                tally["zero_core"] += 1
            if not any(polar_counts(counts)):
                tally["zero_polar"] += 1
            yield " ".join(tokens), counts, record_id

    rows = corpus_rows(args.input, args.format, args.columns, errors)
    rows_out = save_corpus(kept(rows), args.output, args.format)
    drops = {
        "rows_read": rows_out + tally["empty"] + len(errors),
        "malformed_rows": len(errors),
        "empty_after_cleaning": tally["empty"],
        "rows_out": rows_out,
        "kept_with_zero_core_total": tally["zero_core"],
        "kept_with_zero_polar_total": tally["zero_polar"],
        "token_removals": clean_stats,
    }
    run.finish([args.output], drops)
    print(
        f"cleaned {drops['rows_read']} rows -> {rows_out} kept "
        f"({len(errors)} malformed, {tally['empty']} empty after cleaning)"
    )
    return EXIT_OK


def _cmd_stats(args) -> int:
    from .corpus_io import corpus_rows, corpus_stats

    if args.output:
        run = _Run(args, ("input", "output", "format", "columns"), [args.input])
    errors = []
    rows = corpus_rows(args.input, args.format, args.columns, errors)
    stats = corpus_stats(counts for _, counts, _ in rows)
    print(f"rows: {stats.rows}   (malformed skipped: {len(errors)})")
    print(f"{'reaction':<10}{'count':>14}{'all %':>10}{'core %':>10}")
    for name in ALL_SCHEMA.reactions:
        all_pct = f"{stats.all_percent[name]:.2f}" if stats.all_percent else "-"
        core = stats.core_percent and name in stats.core_percent
        core_pct = f"{stats.core_percent[name]:.2f}" if core else "-"
        print(f"{name:<10}{stats.totals[name]:>14}{all_pct:>10}{core_pct:>10}")
    if args.output:
        _write_json(args.output, {**stats._asdict(), "malformed_rows": len(errors)})
        run.finish([args.output], {"malformed_rows": len(errors)})
    return EXIT_OK


def _cmd_train(args) -> int:
    from .corpus_io import corpus_entries
    from .evaluation import fit, prepare

    run = _Run(args, ("input", "output", "model", "format", "columns"), [args.input])
    errors = []
    ids: dict = {}
    tally: Counter = Counter()
    entries = corpus_entries(args.input, args.format, args.columns, errors)
    fold, _ = fit(prepare(entries, args.model, ids, tally), args.model, ids)
    lexicon = fold.lexicon()._replace(meta={"manifest": run.id})
    save_lexicon(lexicon, args.output)
    run.finish([args.output], {
        "malformed_rows": len(errors),
        "entries_used": lexicon.train_entry_count,
        "entries_excluded_zero_total": tally["excluded"],
    })
    print(
        f"trained {args.model} lexicon: {len(lexicon.entries)} words from "
        f"{lexicon.train_entry_count} entries ({tally['excluded']} zero-total rows skipped, "
        f"{len(errors)} malformed)"
    )
    return EXIT_OK


# Lines a regular message file is read in, each chunk split once.  A chunk's lines and results
# are held at once: 200k messages peaked 9 MiB above line by line (17 MiB on one CPU).
_CHUNK = 32_768
# The fewest lines ``predict`` splits (``_halves``).  Break-even on 2 vCPUs: a fork costs about
# 14 ms with a 30k-word lexicon (page tables, copy-on-write of refcounted pages) and saves
# half of about 16 us per message.
_MIN_SPLIT = 2_048
# The chunks of an input too short to split (_has_lines) that parse only their words' lexicon
# lines, one call each, before every line is parsed.  Stdin is read a line per chunk, and a
# call costs about 20 us more than the same lines in a full parse: 256 calls add about 6 ms
# to a long pipe, against about 86 ms to parse all of a 30k-word lexicon.
_PARTIAL_CHUNKS = 256


def _halves(score, items, min_split) -> list:
    """``score(items)`` as one result, or as the results of two halves in order.

    ``items`` (lines for ``predict``, run indices for ``eval``) of ``min_split`` or
    more, on two or more CPUs, are split once: a forked child scores the second half,
    the larger one when the count is odd, and pipes back its result as one ``marshal``
    blob, and never returns.  A half whose fork, child or blob fails is scored here,
    as in one process, so an error is raised as one process raises it.
    """
    affinity = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))
    if len(items) < min_split or not hasattr(os, "fork") or len(affinity(0)) < 2:
        return [score(items)]
    half = len(items) // 2
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return [score(items)]
    if pid == 0:
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(score(items[half:])))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:  # closed before the wait: a blocked child exits
            first = score(items[:half])
            blob = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    try:
        second = marshal.loads(blob) if status == 0 else None
    except (EOFError, ValueError, TypeError):
        second = None
    return [first, second or score(items[half:])]


def _has_lines(path, count) -> bool:
    """Whether ``path`` is a regular file with ``count`` newlines or more.

    Reading stops at the ``count``-th, with ``os.pread``: no file offset moves, even where
    opening ``/dev/stdin`` shares the offset of descriptor 0.  A path that cannot be read, or
    a system without ``pread``, counts as short; the command reports an error when it opens
    the path itself.
    """
    try:
        # A pipe can be read only once, so it is never opened here.
        if not hasattr(os, "pread") or not stat.S_ISREG(os.stat(path).st_mode):
            return False
        with open(path, "rb", buffering=0) as fh:
            seen = offset = 0
            while seen < count and (block := os.pread(fh.fileno(), 1 << 16, offset)):
                seen += block.count(b"\n")
                offset += len(block)
            return seen >= count
    except OSError:
        return False


def _cmd_predict(args) -> int:
    from .cleaning import clean_message

    # The lexicon first, so a bad lexicon is the error reported.  A file of _MIN_SPLIT lines or
    # more is split in halves after a full load, which costs it less than opening a LexiconFile.
    # A shorter input parses only the lexicon lines of its messages' words, chunk by chunk,
    # for its first _PARTIAL_CHUNKS chunks (stdin can be long), and then every line at once.
    if args.input != "-" and _has_lines(args.input, _MIN_SPLIT):
        lexicon_file, lexicon = None, load_lexicon(args.lexicon)
    else:
        lexicon_file = LexiconFile(args.lexicon)
        lexicon = lexicon_file.lexicon  # holds the entries parsed so far
    clean_config = _clean_config(args)
    run = None
    if args.output != "-":
        run = _Run(args, ("lexicon", "input", "output", "stopwords", "casefold_ascii"),
                   [args.lexicon, None if args.input == "-" else args.input, args.stopwords])
    template = ",".join([DECIMAL] * lexicon.schema.size) + " coverage=" + DECIMAL + "\n"

    def clean(line):
        return clean_message(line.rstrip("\n"), clean_config)

    def score(lines):
        token_lists = map(clean, lines)
        if lexicon_file is not None:  # a chunk's words are parsed before they are looked up
            token_lists = list(token_lists)
            lexicon_file.parse(chain.from_iterable(token_lists))
        text, coverages = [], []
        for tokens in token_lists:
            vector, coverage = predict(tokens, lexicon)
            text.append(template % (*vector, coverage))
            coverages.append(coverage)
        return "".join(text), coverages

    messages = zero_coverage = 0
    coverage_sum = 0.0
    with ExitStack() as stack:
        # Strict UTF-8 and one message per "\n" from a file or stdin alike, whatever the locale.
        # Stdin or a pipe is read a line per chunk, so each message is scored as it arrives.
        if args.input == "-":
            source = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline="\n")
            stack.callback(source.detach)  # leaves sys.stdin open
            chunk = 1
        else:
            source = stack.enter_context(open(args.input, encoding="utf-8", newline="\n"))
            chunk = _CHUNK if stat.S_ISREG(os.fstat(source.fileno()).st_mode) else 1
        sink = sys.stdout if args.output == "-" else stack.enter_context(
            atomic_write(args.output)
        )
        # A co-process that writes a message to a pipe gets its answer before it writes the next.
        answer_each_line = chunk == 1 and sink is sys.stdout
        for chunks, lines in enumerate(iter(lambda: list(islice(source, chunk)), [])):
            if lexicon_file is not None and chunks == _PARTIAL_CHUNKS:
                lexicon_file.parse_all()
                lexicon_file = None
            for text, coverages in _halves(score, lines, _MIN_SPLIT):
                sink.write(text)
                messages += len(coverages)
                zero_coverage += coverages.count(0.0)
                for coverage in coverages:  # one by one in message order; sum() compensates
                    coverage_sum += coverage
            if answer_each_line:
                sink.flush()
    if run is not None:
        run.finish([args.output], {
            "messages": messages,
            "mean_coverage": coverage_sum / messages if messages else None,
            "zero_coverage_share": zero_coverage / messages if messages else None,
        })
    return EXIT_OK


def _map_runs(run_one, runs) -> list:
    """``map(run_one, runs)`` as a list; two or more runs are split across two processes."""
    return [result for half in _halves(lambda part: list(map(run_one, part)), runs, 2)
            for result in half]


def _cmd_eval(args) -> int:
    from .corpus_io import corpus_entries
    from .evaluation import ExperimentConfig, report_emit, run_experiment

    experiment = ExperimentConfig(model=args.model, train_fractions=args.splits, runs=args.runs,
                                  seed=args.seed, sigma=args.sigma)
    run = _Run(args, ("input", "output", "model", "format", "columns", "splits", "runs",
                      "seed", "sigma", "report_format"), [args.input])
    errors = []
    entries = corpus_entries(args.input, args.format, args.columns, errors)
    report = run_experiment(entries, experiment, _map_runs)
    report.manifest = run.id
    with atomic_write(args.output) as fh:
        fh.write(report_emit(report, args.report_format))
    accounting = report.accounting
    run.finish([args.output], {"malformed_rows": len(errors), **accounting})
    first = report.split_labels[0]
    summary = "  ".join(
        f"{reaction}={report.value(first, reaction, 'f1'):.4f}"
        for reaction in report.reactions
    )
    print(
        f"eval {args.model}: wrote {args.output} ({accounting['entries_used']} entries used, "
        f"{accounting['entries_excluded_zero_total']} excluded for a zero total, "
        f"{len(errors)} malformed rows skipped)"
    )
    print(f"F1 @ {first}% train: {summary}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    from .synth import SynthSpec, write_corpus  # the only command that loads numpy

    fields = ("rows", "vocab_size", "affinity_concentration", "length_min", "length_max",
              "reaction_scale", "like_dominance", "like_variability", "thankful_rate", "seed")
    spec = SynthSpec(fixed_affinity=args.affinity, **{name: getattr(args, name) for name in fields})
    run = _Run(args, ("output", "format"), **vars(spec))
    summary = write_corpus(spec, args.output, args.format)
    run.finish([args.output, summary["truth_path"]])
    print(
        f"wrote {summary['rows']} rows to {args.output} "
        f"(like share {summary['like_share']:.4f}); truth at {summary['truth_path']}"
    )
    return EXIT_OK


_COMMANDS = {
    "clean": _cmd_clean,
    "stats": _cmd_stats,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    """Run one command; the cyclic garbage collector is paused for the run.

    No command leaves cyclic garbage that grows with its input
    (``tests/test_cli.py::TestCollectorPaused``), so the collector's passes
    would find nothing; the state found on entry is restored on return.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        # The parser is now cyclic garbage, all of it in the youngest generation: freeing
        # it (about 0.2 ms) keeps the command's peak RSS what it is with the collector on.
        gc.collect(0)
        config_path = args.config or os.environ.get(CONFIG_ENV)
        _settle(args, _read_config_file(config_path) if config_path else {})
        return _COMMANDS[args.command](args)
    except _IO_ERRORS as exc:
        print(f"reaction-lens: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _SCHEMA_ERRORS as exc:
        print(f"reaction-lens: schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except _DATA_ERRORS as exc:
        print(f"reaction-lens: degenerate data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"reaction-lens: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


def entry() -> None:
    """The process entry point (``python -m reaction_lens.cli``, the ``reaction-lens`` script).

    ``gc.freeze()`` moves the heap out of the collector's reach, so the
    interpreter's collection passes at shutdown skip it.  An interrupt
    (Ctrl-C) prints one line, then the process dies by SIGINT, so a shell
    loop around the command stops too.
    """
    try:
        code = main()
    except KeyboardInterrupt:
        import signal

        print("reaction-lens: interrupted", file=sys.stderr)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
        raise
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
