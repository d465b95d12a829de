"""Correctness checks on the program's outputs.

Every output gets a path-independent digest: the lexicon's ``#sha256`` body
digest (verified against the body), the eval report without its
``manifest`` field, and the whole clean and predict output files.  A digest
that matches the one recorded from the seed commit passes.  Otherwise the
output is checked at 1e-12: every lexicon word against a plain fold whose
fixed sample of words is tied to ``tests/oracles.py``, every predicted
message against the oracle's prediction, and the first run of the first
split of an eval report, recomputed from scratch.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

TOL = 1e-12
SAMPLE = 24

CORE = ("love", "wow", "haha", "sad", "angry")
ALL = ("like", "love", "wow", "haha", "sad", "angry", "thankful")
_INDEX = {name: i for i, name in enumerate(ALL)}
METRICS = ("accuracy", "recall", "precision", "f1")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# --- lexicon -------------------------------------------------------------


class Lexicon:
    """A lexicon artifact parsed independently of the program."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        head, self.headers = 0, {}
        lines = text.split("\n")
        for head, line in enumerate(lines):
            if not line.startswith("#"):
                break
            key, *values = line[1:].split("\t")
            self.headers[key] = values
            if key == "sha256":
                head += 1
                break
        body = "\n".join(lines[head:])
        self.digest = self.headers.get("sha256", [""])[0]
        self.body_ok = hashlib.sha256(body.encode("utf-8")).hexdigest() == self.digest
        self.table, self.counts = {}, {}
        for line in body.split("\n"):
            if line:
                word, count, *vector = line.split("\t")
                self.table[word] = tuple(float(v) for v in vector)
                self.counts[word] = int(count)
        mean = self.headers.get("mean", ["-"])
        self.mean = None if mean == ["-"] else tuple(float(v) for v in mean)


def _close(a, b) -> bool:
    return a is not None and b is not None and len(a) == len(b) and all(
        abs(x - y) <= TOL for x, y in zip(a, b))


def model_entries(entries, model):
    """(unique words, vector) training entries as the model defines them."""
    out = []
    if model in ("core", "all"):
        names = CORE if model == "core" else ALL
        for words, counts in entries:
            raw = [counts[_INDEX[n]] for n in names]
            total = sum(raw)
            if total > 0:
                out.append((frozenset(words), tuple(n / total for n in raw)))
        return out
    from oracles import oracle_nearest_half, oracle_star_vectors

    polar = [(frozenset(w), c) for w, c in entries if c[1] + c[2] + c[4] + c[5] > 0]
    if not polar:
        return out
    stars, _, _ = oracle_star_vectors([_Counts(c) for _, c in polar])
    for (words, _), (pos, neg, _, star) in zip(polar, stars):
        out.append((words, (pos, neg, oracle_nearest_half(star), star)))
    return out


class _Counts:
    def __init__(self, counts):
        for name, value in zip(ALL, counts):
            setattr(self, name, value)


def fold(training) -> dict:
    """word -> (mean vector, entry count), summing in entry order like the oracle."""
    sums, counts = {}, {}
    for words, vector in training:
        for w in words:
            if w in sums:
                sums[w] = [s + v for s, v in zip(sums[w], vector)]
                counts[w] += 1
            else:
                sums[w] = list(vector)
                counts[w] = 1
    return {w: (tuple(s / counts[w] for s in sums[w]), counts[w]) for w in sums}


def check_lexicon(path, entries, model) -> list[str]:
    """Check every word of a lexicon at 1e-12; tie a fixed sample to the oracle."""
    from oracles import oracle_lexicon, oracle_train_mean

    lex = Lexicon(path)
    problems = [] if lex.body_ok else ["#sha256 does not match the lexicon body"]
    training = model_entries(entries, model)
    expected = fold(training)
    if sorted(lex.table) != sorted(expected):
        problems.append(f"vocabulary has {len(lex.table)} words, expected {len(expected)}")
        return problems
    if lex.headers.get("train_entries") != [str(len(training))]:
        problems.append(f"#train_entries {lex.headers.get('train_entries')} != {len(training)}")
    dim = len(training[0][1])
    if not _close(lex.mean, oracle_train_mean(training, dim)):
        problems.append("#mean differs from the oracle train mean")
    wrong = [w for w, (vector, count) in expected.items()
             if not _close(lex.table[w], vector) or lex.counts[w] != count]
    if wrong:
        problems.append(f"{len(wrong)} words differ, first {sorted(wrong)[0]!r}")
    sample = set(random.Random(len(expected)).sample(sorted(expected), min(SAMPLE, len(expected))))
    restricted = [(words & sample, vector) for words, vector in training if words & sample]
    for word, vector in oracle_lexicon(restricted, dim).items():
        if not _close(expected[word][0], vector):
            problems.append(f"word {word!r}: the benchmark's fold differs from the oracle")
    return problems


# --- predict -------------------------------------------------------------


def parse_predictions(path) -> list[tuple[tuple[float, ...], float]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            values, _, coverage = line.rstrip("\n").partition(" coverage=")
            out.append((tuple(float(v) for v in values.split(",")), float(coverage)))
    return out


def check_predictions(path, lexicon_path, kept_words) -> list[str]:
    """Check every message's prediction against the oracle at 1e-12.

    The expected words of each message come from the generator, not from
    the program's cleaner.
    """
    from oracles import oracle_predict

    got = parse_predictions(path)
    if len(got) != len(kept_words):
        return [f"{len(got)} predictions for {len(kept_words)} messages"]
    lex = Lexicon(lexicon_path)
    dim = len(lex.mean)
    wrong = []
    for i, words in enumerate(kept_words):
        vector, coverage = oracle_predict(words, lex.table, lex.mean, dim)
        if not _close(got[i][0], vector) or abs(got[i][1] - coverage) > TOL:
            wrong.append(i)
    return [f"{len(wrong)} messages differ from the oracle, first #{wrong[0]}"] if wrong else []


# --- eval report ---------------------------------------------------------


def report_digest(path) -> str:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("manifest", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _overlap(actual, predicted):
    a = min(actual, predicted)
    r = a / actual if actual > 0 else 1.0
    p = a / predicted if predicted > 0 else 1.0
    return a, r, p, 0.0 if r + p == 0 else 2.0 * r * p / (r + p)


def _first_run(entries, model, fraction, seed, sigma):
    """Metric means of one split/train/predict pass, recomputed from scratch."""
    from oracles import oracle_nearest_half, oracle_predict

    if model == "star":
        prepared = []
        for words, c in entries:
            total = c[1] + c[2] + c[4] + c[5]
            if total > 0:
                pos, neg = (c[1] + c[2]) / total, (c[4] + c[5]) / total
                prepared.append((frozenset(words), pos, neg, pos - neg))
    else:
        prepared = model_entries(entries, model)
    n = len(prepared)
    n_train = int(fraction * n + 0.5)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    train = [prepared[i] for i in order[:n_train]]
    test = [prepared[i] for i in order[n_train:]]
    if model == "star":
        lo, hi = min(e[3] for e in train), max(e[3] for e in train)

        def scale(aggregate):
            return min(5.0, max(1.0, 4.0 * (aggregate - lo) / (hi - lo) + 1.0))

        train = [(w, (p, q, oracle_nearest_half(scale(a)), scale(a))) for w, p, q, a in train]
    table = {w: vector for w, (vector, _) in fold(train).items()}
    dim = len(train[0][1])
    mean = tuple(sum(v[i] for _, v in train) / len(train) for i in range(dim))
    rows = 3 if model == "star" else dim
    totals = [[0.0] * 4 for _ in range(rows)]
    for entry in test:
        predicted, _ = oracle_predict(entry[0], table, mean, dim)
        if model == "star":
            _, pos, neg, aggregate = entry
            star = scale(aggregate)
            pairs = ((pos, predicted[0]), (neg, predicted[1]))
            d = predicted[3] - star
            match = 1.0 if oracle_nearest_half(predicted[2]) == oracle_nearest_half(star) else 0.0
            star_row = (math.exp(-(d * d) / (2.0 * sigma * sigma)), match, match, match)
            totals[2] = [t + v for t, v in zip(totals[2], star_row)]
        else:
            pairs = zip(entry[1], predicted)
        for i, (actual, guess) in enumerate(pairs):
            totals[i] = [t + v for t, v in zip(totals[i], _overlap(actual, guess))]
    return [[t / len(test) for t in row] for row in totals]


def check_report(path, entries, model, seed) -> list[str]:
    """Check structure and means, then recompute the first run of the first split."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    for label, reactions in report["splits"].items():
        for reaction, metrics in reactions.items():
            for metric, values in metrics.items():
                runs = values["per_run"]
                if len(runs) != report["runs"] or abs(sum(runs) / len(runs) - values["mean"]) > TOL:
                    problems.append(f"{label}/{reaction}/{metric}: mean is not the mean of its runs")
    label = report["split_labels"][0]
    means = _first_run(entries, model, float(label) / 100.0, seed, report["sigma"])
    for reaction, row in zip(report["reactions"], means):
        for metric, value in zip(METRICS, row):
            got = report["splits"][label][reaction][metric]["per_run"][0]
            if abs(got - value) > TOL:
                problems.append(f"{label}/{reaction}/{metric} run 0: {got!r} != {value!r}")
    return problems
