"""Min-overlap evaluation metrics and the multi-split experiment runner.

Because actual and predicted reaction vectors are both unit-sum
distributions, per-reaction accuracy is their overlap ``min(N_r, M_r)``.
Recall divides the overlap by the actual mass and precision by the
predicted mass (each defined as 1 when its denominator is zero, so perfect
agreement on absence scores 1 and a one-sided miss scores 0 through F1).

``prepare`` and ``fit`` are the model layer the ``train`` command shares:
entries become (word_ids, base) pairs, and a training side becomes an
``engine.Fold``.  ``run_experiment`` turns words into ids once and shuffles
once per seeded run; a run's train sides are nested prefixes of that
shuffle, folded in ascending order into one growing fold (star refolds when
a prefix widens its range) whose per-id means predict each test side.  Fold
and score walk blocks of entries one component at a time; every sum keeps
entry order, so each value equals a per-entry loop's.  Metrics are averaged
within a run, then across runs.  Runs share only the prepared entries, which
they read: ``run_experiment`` maps one run over the run indices through a
function it is given, so the ``eval`` command can run the later ones in a
forked child with the same bytes.  Star adds to its positive/negative overlap
rows a star-rating row: Gaussian kernel similarity as accuracy and exact
0.5-bin matches of the discretized star as recall/precision/F1.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import Counter, namedtuple
from itertools import compress
from typing import Iterable

from .engine import MODELS, STAR_SCHEMA, Fold, ReactionSchema, blocks, get_schema, normalize_columns
from .errors import DegenerateRange, EmptySide
from .star import (
    discretize_star,
    gaussian_similarity,
    star_columns,
    star_normalize_columns,
    star_range,
)

METRICS = ("accuracy", "recall", "precision", "f1")
STAR_ROWS = ("positive", "negative", "star_rating")

DEFAULT_FRACTIONS = (0.95, 0.90, 0.80, 0.70, 0.50)


class ExperimentConfig(namedtuple("ExperimentConfig", "model train_fractions runs seed sigma")):
    __slots__ = ()

    def __new__(cls, model="core", train_fractions=DEFAULT_FRACTIONS, runs=5, seed=0, sigma=1.0):
        model_schema(model)
        train_fractions = tuple(train_fractions)
        if not train_fractions:
            raise ValueError("at least one train fraction is required")
        for f in train_fractions:
            if not 0.0 < f < 1.0:
                raise ValueError(f"train fraction {f} outside (0, 1)")
        if len({split_label(f) for f in train_fractions}) < len(train_fractions):
            raise ValueError(f"duplicate train fractions in {train_fractions}")
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        return super().__new__(cls, model, train_fractions, runs, seed, sigma)

    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make


def split_label(fraction: float) -> str:
    return format(fraction * 100.0, "g")


class EvalReport:
    """Averaged metrics per (split, reaction), with per-run raw values.

    Reports compare by every field but ``accounting``.
    """

    def __init__(self, model: str, seed: int, runs: int, sigma: float,
                 reactions: tuple[str, ...], split_labels: tuple[str, ...],
                 mean=None, per_run=None, manifest: str | None = None, accounting=None):
        self.model, self.seed, self.runs, self.sigma = model, seed, runs, sigma
        self.reactions, self.split_labels = reactions, split_labels
        self.mean = {} if mean is None else mean
        self.per_run = {} if per_run is None else per_run
        self.manifest = manifest
        self.accounting = {} if accounting is None else accounting

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return {**vars(self), "accounting": None} == {**vars(other), "accounting": None}

    def value(self, split: str, reaction: str, metric: str) -> float:
        return self.mean[split][reaction][metric]


def model_schema(model: str) -> ReactionSchema:
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    return STAR_SCHEMA if model == "star" else get_schema(model)


def prepare(
    entries: Iterable[tuple[Iterable[str], object]],
    model: str,
    ids: dict,
    tally: Counter | None = None,
):
    """Yield (word_ids, base) per entry in order, dropping zero-total ones.

    ``words`` is any iterable of strings; ``counts`` seven counts in
    ``ALL_SCHEMA`` order.  Each distinct word becomes its id in ``ids``; a
    word seen for the first time gets the next free id.  ``base`` is the
    distribution for core/all, the (positive, negative) masses for star.
    Entries dropped for a zero total are counted in ``tally["excluded"]``
    when a tally is given.

    Entries are taken a block at a time.  A block's bases come from
    ``normalize_columns`` or ``star_normalize_columns``; an entry's ids come
    from one C-level lookup, and only an entry with a new word assigns ids,
    in word order.
    """
    schema = model_schema(model)
    known = ids.__getitem__
    for block in blocks(entries):
        word_lists, counts = zip(*block)
        if model == "star":
            kept, columns = star_normalize_columns(counts)
        else:
            kept, columns = normalize_columns(counts, schema)
        if not {list, tuple}.issuperset(map(type, word_lists)):
            # An entry's words may be read twice below, which an iterator cannot be.
            word_lists = list(map(list, word_lists))
        if kept is not None:
            if tally is not None:
                tally["excluded"] += kept.count(False)
            word_lists = list(compress(word_lists, kept))
        id_lists = []
        for words in word_lists:
            try:
                word_ids = set(map(known, words))
            except KeyError:
                word_ids = {ids.setdefault(w, len(ids)) for w in words}
            id_lists.append(tuple(word_ids))
        yield from zip(id_lists, zip(*columns))


def fit(prepared, model: str, ids: dict):
    """Fold one prepared training side into ``(fold, bounds)``.

    ``ids`` is the word-id map the side was prepared with.  core/all bases
    are their vectors, so the side streams and bounds is None; star holds
    the side to take its range, and bounds is that ``(lo, hi)`` range, which
    maps a base onto its star4 vector.
    """
    fold = Fold(model_schema(model), ids)
    bounds = None
    if model == "star":
        prepared = list(prepared)
        bounds = star_range(base for _, base in prepared)
        prepared = _star_entries(prepared, bounds)
    fold.add_many(prepared)
    return fold, bounds


def _star_entries(prepared, bounds):
    """(word_ids, star4 vector) per prepared entry, built a block at a time."""
    for block in blocks(prepared):
        id_lists, bases = zip(*block)
        yield from zip(id_lists, zip(*star_columns(bases, *bounds)))


def _rank_ids(prepared: list, ids: dict) -> dict:
    """Renumber word ids in sorted-word order, in place; return the new map.

    Each entry's ids become ascending, so the known ids of a test entry come
    out in sorted-word order, the order ``predict`` averages in.
    """
    ranks = {w: r for r, w in enumerate(sorted(ids))}
    rank_of = [ranks[w] for w in ids]
    for j, (word_ids, base) in enumerate(prepared):
        prepared[j] = (tuple(sorted([rank_of[i] for i in word_ids])), base)
    return ranks


def _predict_column(known: list, column: list, fallback: float) -> list[float]:
    """One component of each entry's prediction, with ``mean_vector``'s arithmetic."""
    predicted = [fallback] * len(known)
    for j, word_ids in enumerate(known):
        if word_ids:
            total = 0.0
            for i in word_ids:
                total += column[i]
            predicted[j] = total / len(word_ids)
    return predicted


def _score(test, fold, bounds, sigma) -> list[list[float]]:
    """Mean metrics per report row: overlap rows, then, given star ``bounds``, star_rating."""
    means, train_mean = fold.means()
    counts = fold.counts
    sums = [[0.0] * len(METRICS) for _ in (STAR_ROWS if bounds else fold.schema.reactions)]
    overlap_rows = sums[:2] if bounds else sums
    for block in blocks(test):
        id_lists, bases = zip(*block)
        known = [[i for i in word_ids if counts[i]] for word_ids in id_lists]
        actual = star_columns(bases, *bounds) if bounds else list(zip(*bases))
        predicted = [_predict_column(known, *mean) for mean in zip(means, train_mean)]
        for row, actual_column, predicted_column in zip(overlap_rows, actual, predicted):
            acc, rec, prec, f1 = row
            for n, m in zip(actual_column, predicted_column):
                a = m if m < n else n
                r = a / n if n > 0 else 1.0
                p = a / m if m > 0 else 1.0
                acc, rec, prec = acc + a, rec + r, prec + p
                f1 += 0.0 if r + p == 0 else 2.0 * r * p / (r + p)
            row[:] = acc, rec, prec, f1
        if bounds:
            similarity, matches = sums[2][0], sums[2][1]
            for disc, star, disc_hat, star_hat in zip(*actual[2:], *predicted[2:]):
                similarity += gaussian_similarity(star_hat, star, sigma)
                matches += 1.0 if discretize_star(disc_hat) == disc else 0.0
            sums[2][:] = similarity, matches, matches, matches
    return [[s / len(test) for s in row] for row in sums]


def _run_accounting(label: str, run: int, n_train: int, test, counts) -> dict:
    """Sizes of one run and the share of distinct test words not trained on."""
    test_ids = set().union(*(word_ids for word_ids, _ in test))
    oov = len([i for i in test_ids if not counts[i]])
    return {
        "split": label,
        "run": run,
        "n_train": n_train,
        "n_test": len(test),
        "vocab_size": len(counts) - counts.count(0),
        "test_oov_rate": oov / len(test_ids) if test_ids else 0.0,
    }


def run_experiment(
    entries: Iterable[tuple[Iterable[str], object]], config: ExperimentConfig, map_runs=map
) -> EvalReport:
    """Evaluate one model over every (train fraction, run) combination.

    ``entries`` are (words, reaction_counts) pairs from a cleaned corpus;
    zero-total entries are excluded up front.  Run ``r`` shuffles once with
    seed ``config.seed + r``; fraction ``f`` trains on the first
    ``int(f * n + 0.5)`` shuffled entries and tests on the rest, so one fold
    grows through the fractions in ascending order.  Sums keep shuffled
    order, so each value equals a fresh fold of its train side.  The report
    and ``report.accounting`` (entries used and excluded, each run's sizes
    and test OOV rate) list runs fraction first, in config order.

    Runs share nothing but the prepared entries, which they only read.
    ``map_runs(run_one, range(config.runs))`` gives each run's results in
    run order: per fraction, its metric-mean rows and accounting record,
    floats, ints and strings only.  The default ``map`` runs them here; the
    ``eval`` command passes one that runs the later ones in a forked child.
    """
    tally = Counter()
    ids: dict = {}
    prepared = list(prepare(entries, config.model, ids, tally))
    ids = _rank_ids(prepared, ids)
    star = config.model == "star"
    reactions = STAR_ROWS if star else model_schema(config.model).reactions
    fractions = config.train_fractions
    report = EvalReport(
        model=config.model,
        seed=config.seed,
        runs=config.runs,
        sigma=config.sigma,
        reactions=tuple(reactions),
        split_labels=tuple(split_label(f) for f in fractions),
    )
    n = len(prepared)
    sizes = [int(f * n + 0.5) for f in fractions]
    for fraction, label, n_train in zip(fractions, report.split_labels, sizes):
        if n_train == 0 or n_train == n:
            raise EmptySide(
                f"fraction {fraction} on {n} entries leaves an empty side (split {label}%, run 0)"
            )

    def run_one(run):
        order = list(range(n))
        random.Random(config.seed + run).shuffle(order)
        fold = bounds = None
        lo, hi = math.inf, -math.inf
        done = 0
        results = [None] * len(fractions)
        for k in sorted(range(len(fractions)), key=fractions.__getitem__):
            label, n_train = report.split_labels[k], sizes[k]
            new = [prepared[i] for i in order[done:n_train]]
            refold = fold is None
            if star and new:
                aggregates = [positive - negative for _, (positive, negative) in new]
                low, high = min(aggregates), max(aggregates)
                if low < lo or high > hi:
                    lo, hi = min(lo, low), max(hi, high)
                    refold = True
            try:
                if refold:
                    fold, bounds = fit((prepared[i] for i in order[:n_train]), config.model, ids)
                else:
                    fold.add_many(_star_entries(new, bounds) if star else new)
            except DegenerateRange as exc:
                raise DegenerateRange(f"{exc} (split {label}%, run {run})") from exc
            done = n_train
            test = [prepared[i] for i in order[n_train:]]
            results[k] = (_score(test, fold, bounds, config.sigma),
                          _run_accounting(label, run, n_train, test, fold.counts))
        return results

    results = list(map_runs(run_one, range(config.runs)))
    report.accounting = {
        "entries_used": n,
        "entries_excluded_zero_total": tally["excluded"],
        "runs": [run[k][1] for k in range(len(fractions)) for run in results],
    }
    for k, label in enumerate(report.split_labels):
        runs = [run[k][0] for run in results]
        report.per_run[label] = {
            reaction: {metric: [means[i][j] for means in runs] for j, metric in enumerate(METRICS)}
            for i, reaction in enumerate(reactions)
        }
        report.mean[label] = {
            reaction: {metric: sum(values) / len(values) for metric, values in metrics.items()}
            for reaction, metrics in report.per_run[label].items()
        }
    return report


def report_emit(report: EvalReport, format: str = "json") -> str:
    """Serialize a report deterministically as JSON or plotting-ready CSV."""
    if format == "json":
        payload = {
            "model": report.model,
            "seed": report.seed,
            "runs": report.runs,
            "sigma": report.sigma,
            "reactions": list(report.reactions),
            "split_labels": list(report.split_labels),
            "manifest": report.manifest,
            "splits": {
                label: {
                    reaction: {
                        metric: {
                            "mean": report.mean[label][reaction][metric],
                            "per_run": report.per_run[label][reaction][metric],
                        }
                        for metric in METRICS
                    }
                    for reaction in report.reactions
                }
                for label in report.split_labels
            },
        }
        return json.dumps(payload, indent=2) + "\n"
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["model", "split_percent", "reaction", "metric", "value", "runs", "seed"]
        )
        for label in report.split_labels:
            for reaction in report.reactions:
                for metric in METRICS:
                    writer.writerow(
                        [
                            report.model,
                            label,
                            reaction,
                            metric,
                            format_float(report.mean[label][reaction][metric]),
                            report.runs,
                            report.seed,
                        ]
                    )
        return out.getvalue()
    raise ValueError(f"unknown report format {format!r}")


def format_float(value: float) -> str:
    return format(value, ".17g")
