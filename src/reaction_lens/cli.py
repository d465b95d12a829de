"""Command-line surface: clean, train, predict, eval, stats, synth.

Every command is deterministic given its inputs and seed.  Each command
that writes a primary output also writes ``<output>.manifest.json`` beside
it: a run manifest with the configuration snapshot, input checksums, tool
version, timestamps, and (for clean) per-step drop counts.  JSON reports
and lexicon artifacts embed the manifest's run id; other formats rely on
the sidecar naming convention.

Exit codes: 0 success, 2 usage, 3 I/O, 4 schema/artifact, 5 degenerate data.

Every command needs ``corpus_io`` and ``engine``; ``cleaning``,
``evaluation`` and ``star`` are imported inside the commands that run them,
so each command loads only the layers it uses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import stat
import sys
import time
from collections import Counter
from contextlib import ExitStack

from . import __version__
from .corpus_io import (
    MalformedRow,
    PostRecord,
    atomic_write,
    corpus_entries,
    corpus_stats,
    load_corpus,
    load_lexicon,
    save_corpus,
    save_lexicon,
)
from .engine import ALL_SCHEMA, CORE_SCHEMA, MODELS, count_getter, predict
from .errors import (
    CorruptArtifact,
    DegenerateRange,
    EmptySide,
    EmptyTrainingSet,
    InvalidSpec,
    SchemaMismatch,
    UnreadableSource,
    VersionMismatch,
    ZeroReactionTotal,
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
    ZeroReactionTotal,
    EmptyTrainingSet,
    DegenerateRange,
    EmptySide,
    InvalidSpec,
)


def _sha256_file(path) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
            size += len(block)
    return digest.hexdigest(), size


def _make_manifest(command: str, config: dict, inputs: list, started: str) -> dict:
    """The run manifest, a dict in the key order its JSON file keeps."""
    described = []
    for path in inputs:
        # A pipe or device can be read only once, and the command needs it.
        if stat.S_ISREG(os.stat(path).st_mode):
            checksum, size = _sha256_file(path)
        else:
            checksum = size = None
        described.append({"path": str(path), "sha256": checksum, "bytes": size})
    run_id = hashlib.sha256(
        json.dumps(
            {"command": command, "config": config, "inputs": described},
            sort_keys=True,
        ).encode("utf-8")
    ).hexdigest()[:16]
    return {
        "run_id": run_id,
        "tool": f"reaction-lens {__version__}",
        "command": command,
        "created_at": started,
        "finished_at": "",
        "config": config,
        "inputs": described,
        "outputs": [],
        "row_drops": None,
    }


def _finish_manifest(manifest: dict, outputs: list, row_drops=None) -> None:
    manifest.update(finished_at=_now(), outputs=[str(p) for p in outputs], row_drops=row_drops)
    with atomic_write(str(outputs[0]) + ".manifest.json") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


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


_BOOL_STRINGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _coerce(value: str, kind):
    if kind is bool:
        normalized = value.lower()
        if normalized not in _BOOL_STRINGS:
            raise ValueError(f"expected boolean, got {value!r}")
        return _BOOL_STRINGS[normalized]
    return kind(value)


def _resolve(args, config: dict, dest: str, kind, default):
    """Precedence: command-line flag, then config file, then default."""
    value = getattr(args, dest, None)
    if value is not None:
        return value
    if dest in config:
        return _coerce(config[dest], kind)
    return default


def _parse_columns(spec: str | None) -> dict | None:
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
    fractions = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        value = float(token)
        if value >= 1.0:
            value /= 100.0
        fractions.append(value)
    if not fractions:
        raise ValueError("no train fractions given")
    return tuple(fractions)


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

    def add_corpus_flags(p, output_required=True):
        p.add_argument("--input", required=True, help="corpus file")
        if output_required:
            p.add_argument("--output", required=True, help="output path")
        p.add_argument("--format", choices=("csv", "jsonl"), default=None)
        p.add_argument("--columns", default=None, help="field=column[,field=column...]")

    p = sub.add_parser("clean", help="clean messages, drop empty rows")
    add_corpus_flags(p)
    p.add_argument("--stopwords", default=None, help="stopword file (one word per line)")
    p.add_argument("--casefold-ascii", action="store_true", default=None)

    p = sub.add_parser("stats", help="per-reaction totals and percentages")
    add_corpus_flags(p, output_required=False)
    p.add_argument("--output", default=None, help="optional JSON output path")

    p = sub.add_parser("train", help="build a lexicon from a cleaned corpus")
    add_corpus_flags(p)
    p.add_argument("--model", choices=MODELS, default=None)

    p = sub.add_parser("predict", help="predict vectors for messages, one per line")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--input", default="-", help="message file, '-' for stdin")
    p.add_argument("--output", default="-", help="output file, '-' for stdout")
    p.add_argument("--stopwords", default=None)

    p = sub.add_parser("eval", help="multi-split evaluation of one model")
    add_corpus_flags(p)
    p.add_argument("--model", choices=MODELS, default=None)
    p.add_argument("--splits", default=None, help="train percents, e.g. 95,90,80,70,50")
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--report-format", choices=("json", "csv"), default=None)

    p = sub.add_parser("synth", help="generate a synthetic corpus with known affinities")
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default=None)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--vocab-size", type=int, default=None)
    p.add_argument("--length-min", type=int, default=None)
    p.add_argument("--length-max", type=int, default=None)
    p.add_argument("--reaction-scale", type=float, default=None)
    p.add_argument("--like-dominance", type=float, default=None)
    p.add_argument("--like-variability", type=float, default=None)
    p.add_argument("--affinity-concentration", type=float, default=None)
    p.add_argument("--affinity", default=None, help="fixed affinity, e.g. 1,0,0,0,0")
    p.add_argument("--thankful-rate", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    return parser


def _clean_config(args, config):
    from .cleaning import CleanConfig, read_stopwords

    stopword_path = _resolve(args, config, "stopwords", str, None)
    stopwords = read_stopwords(stopword_path) if stopword_path else frozenset()
    return CleanConfig(
        stopwords=stopwords,
        casefold_ascii=_resolve(args, config, "casefold_ascii", bool, False),
    )


def _cmd_clean(args, config) -> int:
    from .cleaning import CleanStats, clean_message
    from .star import POLAR_REACTIONS

    clean_config = _clean_config(args, config)
    corpus_format = _resolve(args, config, "format", str, "csv")
    columns = _parse_columns(_resolve(args, config, "columns", str, None))
    started = _now()
    manifest = _make_manifest(
        "clean",
        {
            "input": args.input,
            "output": args.output,
            "format": corpus_format,
            "stopwords": _resolve(args, config, "stopwords", str, None),
            "casefold_ascii": clean_config.casefold_ascii,
            "columns": columns,
        },
        [args.input],
        started,
    )
    errors: list[MalformedRow] = []
    clean_stats = CleanStats()
    tally: Counter = Counter()
    core_counts = count_getter(CORE_SCHEMA.reactions)
    polar_counts = count_getter(POLAR_REACTIONS)

    def kept(records):
        for message, counts, record_id in records:
            cleaned = clean_message(message, clean_config, clean_stats)
            if cleaned.empty:
                tally["empty"] += 1
                continue
            if not any(core_counts(counts)):
                tally["zero_core"] += 1
            if not any(polar_counts(counts)):
                tally["zero_polar"] += 1
            yield PostRecord(cleaned.text, counts, record_id)

    records = load_corpus(args.input, corpus_format, columns, errors)
    rows_out = save_corpus(kept(records), args.output, corpus_format)
    drops = {
        "rows_read": rows_out + tally["empty"] + len(errors),
        "malformed_rows": len(errors),
        "empty_after_cleaning": tally["empty"],
        "rows_out": rows_out,
        "kept_with_zero_core_total": tally["zero_core"],
        "kept_with_zero_polar_total": tally["zero_polar"],
        "token_removals": clean_stats.as_dict(),
    }
    _finish_manifest(manifest, [args.output], drops)
    print(
        f"cleaned {drops['rows_read']} rows -> {rows_out} kept "
        f"({len(errors)} malformed, {tally['empty']} empty after cleaning)"
    )
    return EXIT_OK


def _cmd_stats(args, config) -> int:
    corpus_format = _resolve(args, config, "format", str, "csv")
    columns = _parse_columns(_resolve(args, config, "columns", str, None))
    if args.output:
        settings = {"input": args.input, "output": args.output, "format": corpus_format,
                    "columns": columns}
        manifest = _make_manifest("stats", settings, [args.input], _now())
    errors: list[MalformedRow] = []
    stats = corpus_stats(load_corpus(args.input, corpus_format, columns, errors))
    print(f"rows: {stats.rows}   (malformed skipped: {len(errors)})")
    print(f"{'reaction':<10}{'count':>14}{'all %':>10}{'core %':>10}")
    for name in ALL_SCHEMA.reactions:
        all_pct = f"{stats.all_percent[name]:.2f}" if stats.all_percent else "-"
        if stats.core_percent and name in stats.core_percent:
            core_pct = f"{stats.core_percent[name]:.2f}"
        else:
            core_pct = "-"
        print(f"{name:<10}{stats.totals[name]:>14}{all_pct:>10}{core_pct:>10}")
    if args.output:
        payload = {
            "rows": stats.rows,
            "totals": stats.totals,
            "all_percent": stats.all_percent,
            "core_percent": stats.core_percent,
            "malformed_rows": len(errors),
        }
        with atomic_write(args.output) as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        _finish_manifest(manifest, [args.output], {"malformed_rows": len(errors)})
    return EXIT_OK


def _cmd_train(args, config) -> int:
    from .evaluation import fit, prepare

    model = _resolve(args, config, "model", str, "core")
    corpus_format = _resolve(args, config, "format", str, "csv")
    columns = _parse_columns(_resolve(args, config, "columns", str, None))
    started = _now()
    manifest = _make_manifest(
        "train",
        {"input": args.input, "output": args.output, "model": model,
         "format": corpus_format, "columns": columns},
        [args.input],
        started,
    )
    errors: list[MalformedRow] = []
    ids: dict = {}
    tally: Counter = Counter()
    entries = corpus_entries(args.input, corpus_format, columns, errors)
    fold, _ = fit(prepare(entries, model, ids, tally), model, ids)
    lexicon = fold.lexicon()
    save_lexicon(lexicon, args.output, manifest_id=manifest["run_id"])
    _finish_manifest(manifest, [args.output])
    print(
        f"trained {model} lexicon: {len(lexicon.entries)} words from "
        f"{lexicon.train_entry_count} entries ({tally['excluded']} zero-total rows skipped, "
        f"{len(errors)} malformed)"
    )
    return EXIT_OK


def _cmd_predict(args, config) -> int:
    from .cleaning import clean_message

    started = _now()
    lexicon = load_lexicon(args.lexicon)
    clean_config = _clean_config(args, config)
    manifest = None
    if args.output != "-":
        manifest = _make_manifest(
            "predict",
            {"lexicon": args.lexicon, "input": args.input, "output": args.output,
             "stopwords": _resolve(args, config, "stopwords", str, None),
             "casefold_ascii": clean_config.casefold_ascii},
            [args.lexicon] + ([] if args.input == "-" else [args.input]),
            started,
        )
    # "%.17g" % x is format(x, ".17g"), the digits of evaluation.format_float.
    template = ",".join(["%.17g"] * lexicon.schema.size) + " coverage=%.17g\n"
    messages = zero_coverage = 0
    coverage_sum = 0.0
    with ExitStack() as stack:
        source = sys.stdin if args.input == "-" else stack.enter_context(
            open(args.input, encoding="utf-8", newline="\n")  # one message per "\n", as on stdin
        )
        sink = sys.stdout if args.output == "-" else stack.enter_context(
            atomic_write(args.output)
        )
        for line in source:
            tokens = clean_message(line.rstrip("\n"), clean_config).tokens
            vector, coverage = predict(tokens, lexicon)
            sink.write(template % (*vector, coverage))
            messages += 1
            coverage_sum += coverage
            zero_coverage += not coverage
    if manifest is not None:
        _finish_manifest(manifest, [args.output], {
            "messages": messages,
            "mean_coverage": coverage_sum / messages if messages else None,
            "zero_coverage_share": zero_coverage / messages if messages else None,
        })
    return EXIT_OK


def _cmd_eval(args, config) -> int:
    from .evaluation import ExperimentConfig, report_emit, run_experiment

    model = _resolve(args, config, "model", str, "core")
    corpus_format = _resolve(args, config, "format", str, "csv")
    columns = _parse_columns(_resolve(args, config, "columns", str, None))
    splits = _parse_splits(_resolve(args, config, "splits", str, "95,90,80,70,50"))
    experiment = ExperimentConfig(
        model=model,
        train_fractions=splits,
        runs=_resolve(args, config, "runs", int, 5),
        seed=_resolve(args, config, "seed", int, 0),
        sigma=_resolve(args, config, "sigma", float, 1.0),
    )
    report_format = _resolve(args, config, "report_format", str, "json")
    started = _now()
    manifest = _make_manifest(
        "eval",
        {"input": args.input, "output": args.output, "model": model,
         "format": corpus_format, "columns": columns,
         "splits": list(experiment.train_fractions), "runs": experiment.runs,
         "seed": experiment.seed, "sigma": experiment.sigma,
         "report_format": report_format},
        [args.input],
        started,
    )
    errors: list[MalformedRow] = []
    entries = corpus_entries(args.input, corpus_format, columns, errors)
    report = run_experiment(entries, experiment)
    report.manifest = manifest["run_id"]
    with atomic_write(args.output) as fh:
        fh.write(report_emit(report, report_format))
    accounting = report.accounting
    _finish_manifest(manifest, [args.output], {"malformed_rows": len(errors), **accounting})
    first = report.split_labels[0]
    summary = "  ".join(
        f"{reaction}={report.value(first, reaction, 'f1'):.4f}"
        for reaction in report.reactions
    )
    print(
        f"eval {model}: wrote {args.output} ({accounting['entries_used']} entries used, "
        f"{accounting['entries_excluded_zero_total']} excluded for a zero total, "
        f"{len(errors)} malformed rows skipped)"
    )
    print(f"F1 @ {first}% train: {summary}")
    return EXIT_OK


def _cmd_synth(args, config) -> int:
    from .synth import SynthSpec, write_corpus  # the only command that loads numpy

    affinity = _resolve(args, config, "affinity", str, None)
    spec = SynthSpec(
        rows=_resolve(args, config, "rows", int, 10_000),
        vocab_size=_resolve(args, config, "vocab_size", int, 2000),
        affinity_concentration=_resolve(args, config, "affinity_concentration", float, 0.5),
        fixed_affinity=(
            tuple(float(v) for v in affinity.split(",")) if affinity else None
        ),
        length_min=_resolve(args, config, "length_min", int, 3),
        length_max=_resolve(args, config, "length_max", int, 12),
        reaction_scale=_resolve(args, config, "reaction_scale", float, 20.0),
        like_dominance=_resolve(args, config, "like_dominance", float, 0.95),
        like_variability=_resolve(args, config, "like_variability", float, 0.35),
        thankful_rate=_resolve(args, config, "thankful_rate", float, 0.001),
        seed=_resolve(args, config, "seed", int, 0),
    )
    corpus_format = _resolve(args, config, "format", str, "csv")
    started = _now()
    manifest = _make_manifest(
        "synth", {"output": args.output, "format": corpus_format, **vars(spec)}, [], started
    )
    summary = write_corpus(spec, args.output, corpus_format)
    _finish_manifest(manifest, [args.output, summary["truth_path"]])
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    config_path = args.config or os.environ.get(CONFIG_ENV)
    try:
        config = _read_config_file(config_path) if config_path else {}
        return _COMMANDS[args.command](args, config)
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


if __name__ == "__main__":
    sys.exit(main())
