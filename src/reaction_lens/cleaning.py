"""Whitespace-tokenizing cleaner for Sinhala/ASCII social-media text.

The pipeline applies a fixed sequence of steps:

1. delete every Zero Width Joiner (U+200D), re-joining ligated Sinhala words
2. replace every other control/format character (categories Cc and Cf)
   with a single space
3. drop URL tokens, email tokens, and tokens starting with ``@`` or ``#``
4. drop tokens containing any character that is neither ASCII nor in the
   Sinhala block U+0D80-U+0DFF
5. drop stopword tokens
6. drop tokens that ``str.isdigit`` accepts (ASCII or Sinhala lith digits)
7. collapse whitespace runs to single spaces and trim

Tokenization splits on whitespace only; punctuation stays inside tokens.
Steps never rewrite a surviving token, which makes the pipeline idempotent.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cache
from typing import NamedTuple

ZWJ = "‍"
# A token of only ASCII letters and digits and the Sinhala block has no
# ":", "/", ".", "@" or "#" and no foreign character, so steps 3 and 4
# cannot drop it; only steps 5 and 6 need to see it.
_WORD = re.compile(r"[0-9A-Za-z\u0d80-\u0dff]+").fullmatch
_FOREIGN = re.compile(r"[^\x00-\x7f\u0d80-\u0dff]").search
_ASCII_FOLD = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz")

_URL_PREFIXES = ("http://", "https://", "www.")

# Every Cc/Cf codepoint except ZWJ, as inclusive (first, last) ranges,
# generated from unicodedata.category over all codepoints of the Unicode
# version below; tests/test_cleaning.py re-derives it from that scan.
CONTROL_RANGES_UNICODE = "14.0.0"
_CONTROL_RANGES = (
    (0x0000, 0x001F),
    (0x007F, 0x009F),
    (0x00AD, 0x00AD),
    (0x0600, 0x0605),
    (0x061C, 0x061C),
    (0x06DD, 0x06DD),
    (0x070F, 0x070F),
    (0x0890, 0x0891),
    (0x08E2, 0x08E2),
    (0x180E, 0x180E),
    (0x200B, 0x200C),
    (0x200E, 0x200F),
    (0x202A, 0x202E),
    (0x2060, 0x2064),
    (0x2066, 0x206F),
    (0xFEFF, 0xFEFF),
    (0xFFF9, 0xFFFB),
    (0x110BD, 0x110BD),
    (0x110CD, 0x110CD),
    (0x13430, 0x13438),
    (0x1BCA0, 0x1BCA3),
    (0x1D173, 0x1D17A),
    (0xE0001, 0xE0001),
    (0xE0020, 0xE007F),
)


@cache
def _replace_controls():
    """``subn`` of one character class of ``_CONTROL_RANGES``, compiled on
    first use so that printable text never pays for compiling it."""
    ranges = "".join(f"\\U{first:08x}-\\U{last:08x}" for first, last in _CONTROL_RANGES)
    return re.compile(f"[{ranges}]").subn


class CleanConfig(
    namedtuple("CleanConfig", "stopwords casefold_ascii", defaults=(frozenset(), False))
):
    """Stopword set for step 5, plus optional ASCII case folding.

    ``casefold_ascii`` lowercases ASCII letters before tokenization; it is
    off by default and exists only to trade faithfulness for sparsity.
    With it on, the stopwords are folded the same way, so that ``Saha``
    still drops the token ``SAHA`` folds to.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        config = super().__new__(cls, *args, **kwargs)
        for w in config.stopwords:
            if not w or any(c.isspace() for c in w):
                raise ValueError(
                    f"stopword {w!r} is empty or contains whitespace"
                )
        if config.casefold_ascii:
            folded = frozenset(w.translate(_ASCII_FOLD) for w in config.stopwords)
            config = super().__new__(cls, folded, config.casefold_ascii)
        return config

    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make


class CleanedMessage(NamedTuple):
    tokens: tuple[str, ...]

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    @property
    def empty(self) -> bool:
        return not self.tokens


class CleanStats:
    """Token/character removal counters, accumulated across messages; compared by value."""

    __slots__ = ("zwj_deleted", "controls_replaced", "url_tokens", "email_tokens", "tag_tokens",
                 "hashtag_tokens", "foreign_tokens", "stopword_tokens", "digit_tokens")

    def __init__(self, **counters: int):
        for name in self.__slots__:
            setattr(self, name, counters.pop(name, 0))
        if counters:
            raise TypeError(f"unknown CleanStats counters {sorted(counters)}")

    def __eq__(self, other):
        return self.as_dict() == other.as_dict() if type(other) is type(self) else NotImplemented

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


def is_eligible_word(token: str) -> bool:
    """True iff every character is ASCII or in the Sinhala block."""
    return token.isascii() or not _FOREIGN(token)


def _is_url(token: str) -> bool:
    lowered = token.lower()
    return lowered.startswith(_URL_PREFIXES) or "://" in token


def _is_email(token: str) -> bool:
    # Minimal rule: exactly one @, non-empty local part, dot-bearing domain.
    if token.count("@") != 1:
        return False
    local, _, domain = token.partition("@")
    return bool(local) and "." in domain


def _pattern_drop(token: str) -> str | None:
    """The counter of the first of steps 3-4 that drops ``token``, or None."""
    if _is_url(token):
        return "url_tokens"
    if _is_email(token):
        return "email_tokens"
    if token.startswith("@"):
        return "tag_tokens"
    if token.startswith("#"):
        return "hashtag_tokens"
    if not is_eligible_word(token):
        return "foreign_tokens"
    return None


def clean_message(
    raw: str, config: CleanConfig, stats: CleanStats | None = None
) -> CleanedMessage:
    """Run the full cleaning pipeline on one message.

    Degenerate inputs yield an empty CleanedMessage; nothing raises.  When
    ``stats`` is given, per-step removal counters are incremented on it.
    """
    # Cc/Cf characters, ZWJ among them, are all non-printable, so printable
    # text has none to delete or replace.
    text = raw
    if not raw.isprintable():
        text, controls = _replace_controls()(" ", raw.replace(ZWJ, ""))
        if stats is not None:
            stats.zwj_deleted += raw.count(ZWJ)
            stats.controls_replaced += controls
    if config.casefold_ascii:
        text = text.translate(_ASCII_FOLD)
    kept: list[str] = []
    stopwords = config.stopwords
    for token in text.split():
        dropped = None if _WORD(token) else _pattern_drop(token)
        if dropped is None:
            if token in stopwords:
                dropped = "stopword_tokens"
            # Tokens here hold only ASCII and Sinhala-block characters, and
            # among those isdigit is true for 0-9 and the lith digits alone.
            elif token.isdigit():
                dropped = "digit_tokens"
            else:
                kept.append(token)
                continue
        if stats is not None:
            setattr(stats, dropped, getattr(stats, dropped) + 1)
    return CleanedMessage(tuple(kept))


def read_stopwords(path) -> frozenset[str]:
    """Load a stopword file: UTF-8 (BOM dropped), one word per line, ``#`` comments ignored."""
    words = set()
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            word = line.strip()
            if not word or word.startswith("#"):
                continue
            if any(c.isspace() for c in word):
                raise ValueError(
                    f"{path}:{lineno}: stopword entry contains whitespace: {word!r}"
                )
            words.add(word)
    return frozenset(words)
