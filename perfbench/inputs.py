"""Seeded benchmark inputs: noisy raw corpora and message files.

Rows come from ``reaction_lens.synth.iter_rows``; this module adds noise
that makes every cleaning rule fire (URLs, emails, ``@tags``,
``#hashtags``, non-Sinhala scripts and emoji, stopwords, digit tokens,
control/format characters, ZWJ-joined Sinhala words) and a fixed number of
malformed rows (non-integer counts, negative counts, short rows, invalid
UTF-8).  Because the generator decides the fate of every token, it also
knows the exact cleaned output, the per-step drop counters the ``clean``
manifest must report, and the words each predict message keeps.

Oversized fields and unterminated quotes are left out on purpose: how the
program treats them is expected to change.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field

from checks import ALL as REACTION_NAMES
from reaction_lens.synth import SynthSpec, iter_rows

STOPWORDS = ("saha", "mama", "ane")

ZWJ = "‍"
_CONTROLS = ("​", "﻿", "­", "⁠", "‎", "\x07", "\x1b", "\x7f")
_CONSONANTS = "කගචජටඩතදනපබමයරලවසහළ"
_VOWEL_SIGNS = ("", "ා", "ි", "ී", "ු", "ෙ", "ො")
_HAL = "්"
_SINHALA_DIGITS = "෦෧෨෩෪෫෬෭෮෯"
_FOREIGN = ("😀", "🔥", "👨‍👩‍👧", "வணக்கம்", "café", "naïve", "привет", "नमस्ते")

# Noise token kinds and the CleanStats counter each one increments.
_KIND_COUNTER = {
    "url": "url_tokens",
    "email": "email_tokens",
    "tag": "tag_tokens",
    "hashtag": "hashtag_tokens",
    "foreign": "foreign_tokens",
    "stopword": "stopword_tokens",
    "digits": "digit_tokens",
}
_KINDS = tuple(_KIND_COUNTER)
MALFORMED_KINDS = ("non_integer", "negative", "short_row", "invalid_utf8")
_BAD_BYTES_MARK = "QQINVALIDQQ"


def _sinhala_pool(size: int = 48) -> tuple[tuple[str, str], ...]:
    """Fixed (raw, cleaned) Sinhala words; every fourth is ZWJ-joined."""
    rng = random.Random(20211201)
    pool = []
    for i in range(size):
        letters = [
            rng.choice(_CONSONANTS) + rng.choice(_VOWEL_SIGNS)
            for _ in range(rng.randint(2, 3))
        ]
        raw = "".join(letters)
        if i % 4 == 0:
            raw = rng.choice(_CONSONANTS) + _HAL + ZWJ + "ර" + raw
        pool.append((raw, raw.replace(ZWJ, "")))
    return tuple(pool)


SINHALA = _sinhala_pool()


def _noise_token(rng: random.Random, kind: str) -> str:
    n = rng.randrange(1000)
    if kind == "url":
        return rng.choice(("https://news.lk/p", "http://t.co/", "www.site.lk/")) + str(n)
    if kind == "email":
        return f"user{n}@mail.lk"
    if kind == "tag":
        return f"@name{n}"
    if kind == "hashtag":
        return f"#topic{n}"
    if kind == "foreign":
        return rng.choice(_FOREIGN)
    if kind == "stopword":
        return rng.choice(STOPWORDS)
    if rng.random() < 0.5:
        return str(n)
    return "".join(rng.choice(_SINHALA_DIGITS) for _ in range(rng.randint(1, 3)))


@dataclass
class Noiser:
    """Turns a clean synth message into a noisy raw one, tallying drops."""

    rng: random.Random
    counters: dict = field(default_factory=lambda: dict.fromkeys(
        ("zwj_deleted", "controls_replaced", *_KIND_COUNTER.values()), 0))

    def _add_noise(self, raw: list[str], count: int) -> None:
        for _ in range(count):
            kind = self.rng.choice(_KINDS)
            token = _noise_token(self.rng, kind)
            self.counters[_KIND_COUNTER[kind]] += 1
            self.counters["zwj_deleted"] += token.count(ZWJ)
            raw.insert(self.rng.randint(0, len(raw)), token)

    def noisy(self, words: list[str]) -> tuple[str, list[str]]:
        """Return (raw message, words the cleaner keeps, in order)."""
        rng = self.rng
        kept = list(words)
        if rng.random() < 0.25:
            raw_word, clean_word = rng.choice(SINHALA)
            at = rng.randint(0, len(kept))
            kept.insert(at, clean_word)
            self.counters["zwj_deleted"] += raw_word.count(ZWJ)
            raw = kept[:at] + [raw_word] + kept[at + 1:]
        else:
            raw = list(kept)
        if rng.random() < 0.1:
            # A control/format character glued to the end of a kept token;
            # the cleaner turns it into a space, so the token survives.
            at = rng.randrange(len(raw))
            raw[at] += rng.choice(_CONTROLS)
            self.counters["controls_replaced"] += 1
        if rng.random() < 0.5:
            self._add_noise(raw, rng.randint(1, 3))
        return " ".join(raw), kept

    def all_noise(self) -> str:
        """A message the cleaner empties completely."""
        raw: list[str] = []
        self._add_noise(raw, self.rng.randint(1, 3))
        return " ".join(raw)


@dataclass
class Corpus:
    """What the generator wrote and what the program must make of it."""

    rows_written: int
    entries: list  # (kept words, counts) per row the cleaner keeps, in file order
    cleaned_sha256: str
    row_drops: dict


def _csv_line(fields) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
    return out.getvalue()


def _json_line(message: str, counts) -> str:
    obj = {"message": message}
    obj.update(zip(REACTION_NAMES, counts))
    return json.dumps(obj, ensure_ascii=False) + "\n"


def _malformed_line(kind: str, fmt: str, message: str, counts) -> bytes:
    counts = list(counts)
    if fmt == "csv":
        if kind == "non_integer":
            counts[1] = f"{counts[1]}x"
        elif kind == "negative":
            counts[2] = -1 - counts[2]
        elif kind == "short_row":
            return _csv_line((message, counts[0], counts[1])).encode("utf-8")
        else:
            message = message + _BAD_BYTES_MARK
        line = _csv_line((message, *counts))
    else:
        obj = {"message": message}
        obj.update(zip(REACTION_NAMES, counts))
        if kind == "non_integer":
            obj["love"] = str(obj["love"])
        elif kind == "negative":
            obj["wow"] = -1 - obj["wow"]
        elif kind == "short_row":
            del obj["angry"]
        else:
            obj["message"] = message + _BAD_BYTES_MARK
        line = json.dumps(obj, ensure_ascii=False) + "\n"
    return line.encode("utf-8").replace(_BAD_BYTES_MARK.encode(), b"\xff\xfe")


def write_corpus(
    path, fmt: str, spec: SynthSpec, seed: int, empty_rows: int, malformed_each: int
) -> Corpus:
    """Write a noisy raw corpus of ``spec.rows`` valid rows plus malformed ones.

    ``empty_rows`` of the valid rows carry only noise, so cleaning empties
    them; ``malformed_each`` rows of every kind in MALFORMED_KINDS are
    inserted at seeded positions.
    """
    rng = random.Random(seed)
    noiser = Noiser(random.Random(seed + 1))
    empty_at = set(rng.sample(range(spec.rows), empty_rows))
    malformed_at = {}
    for kind in MALFORMED_KINDS:
        for at in rng.sample(range(spec.rows), malformed_each):
            malformed_at.setdefault(at, []).append(kind)
    to_line = _csv_line if fmt == "csv" else (lambda f: _json_line(f[0], f[1:]))
    cleaned = hashlib.sha256()
    if fmt == "csv":
        cleaned.update(_csv_line(("message",) + REACTION_NAMES).encode("utf-8"))
    entries = []
    zero_polar = 0
    n_malformed = 0
    with open(path, "wb") as fh:
        if fmt == "csv":
            fh.write(_csv_line(("message",) + REACTION_NAMES).encode("utf-8"))
        for i, (message, counts) in enumerate(iter_rows(spec)):
            for kind in malformed_at.get(i, ()):
                fh.write(_malformed_line(kind, fmt, message, counts))
                n_malformed += 1
            if i in empty_at:
                fh.write(to_line((noiser.all_noise(),) + counts).encode("utf-8"))
                continue
            raw, kept = noiser.noisy(message.split())
            fh.write(to_line((raw,) + counts).encode("utf-8"))
            text = " ".join(kept)
            cleaned.update(to_line((text,) + counts).encode("utf-8"))
            entries.append((kept, counts))
            _, love, wow, _, sad, angry, _ = counts
            zero_polar += love + wow + sad + angry == 0
    row_drops = {
        "rows_read": spec.rows + n_malformed,
        "malformed_rows": n_malformed,
        "empty_after_cleaning": empty_rows,
        "rows_out": len(entries),
        # synth draws at least one core reaction per row
        "kept_with_zero_core_total": 0,
        "kept_with_zero_polar_total": zero_polar,
        "token_removals": dict(noiser.counters),
    }
    return Corpus(spec.rows + n_malformed, entries, cleaned.hexdigest(), row_drops)


def write_messages(path, spec: SynthSpec, seed: int, empty_every: int) -> list:
    """Write one noisy raw message per line; return each one's kept words.

    Every ``empty_every``-th message is noise only, so its prediction is the
    training-mean fallback.
    """
    noiser = Noiser(random.Random(seed))
    kept_words = []
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, (message, _) in enumerate(iter_rows(spec)):
            if i % empty_every == empty_every - 1:
                raw, kept = noiser.all_noise(), []
            else:
                raw, kept = noiser.noisy(message.split())
            fh.write(raw + "\n")
            kept_words.append(kept)
    return kept_words


def write_clean_corpus(path, spec: SynthSpec) -> list:
    """Write synth rows unchanged as a cleaned CSV; return (words, counts)."""
    entries = []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("message",) + REACTION_NAMES)
        for message, counts in iter_rows(spec):
            writer.writerow((message,) + counts)
            entries.append((message.split(), counts))
    return entries


def write_stopwords(path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(w + "\n" for w in STOPWORDS))
