import json
import os
import random
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_clean

import reaction_lens
from reaction_lens.cleaning import (
    _CONTROL_RANGES,
    _replace_controls,
    CONTROL_RANGES_UNICODE,
    COUNTERS,
    CleanConfig,
    clean_message,
    is_eligible_word,
    read_stopwords,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "clean_golden.json"


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def random_unicode_string(rng, max_len=60):
    """Adversarial mix: ASCII, Sinhala, controls, ZWJ, other scripts."""
    pools = [
        lambda: chr(rng.randint(0x20, 0x7E)),
        lambda: chr(rng.randint(0x0D80, 0x0DFF)),
        lambda: chr(rng.choice([0x200D, 0x200B, 0x200E, 0xFEFF, 0x00AD, 0x2060])),
        lambda: chr(rng.randint(0x00, 0x1F)),
        lambda: chr(rng.choice([0x0901, 0x4E2D, 0x1F600, 0x0663, 0x00A0, 0x0301])),
        lambda: rng.choice([" ", "@", "#", ":", "/", ".", "0", "9"]),
    ]
    return "".join(rng.choice(pools)() for _ in range(rng.randint(0, max_len)))


class TestGolden:
    def test_golden_byte_for_byte(self):
        data = load_golden()
        assert len(data["cases"]) >= 30
        config = CleanConfig(stopwords=frozenset(data["stopwords"]))
        for case in data["cases"]:
            tokens = clean_message(case["raw"], config)
            assert " ".join(tokens) == case["text"], f"raw={case['raw']!r}"
            assert tokens == tuple(case["text"].split())
            assert set(tokens) == set(case["text"].split())


class TestPipelineRules:
    def test_zwj_deleted_not_spaced(self):
        tokens = clean_message("a‍b", CleanConfig())
        assert " ".join(tokens) == "ab"

    def test_each_removal_rule(self):
        tokens = clean_message(
            "hello @user #tag http://a.b 123 world", CleanConfig()
        )
        assert " ".join(tokens) == "hello world"
        assert tokens == ("hello", "world")

    def test_whitespace_collapse(self):
        assert " ".join(clean_message("word1   word2\tword3", CleanConfig())) == (
            "word1 word2 word3"
        )

    def test_all_removable_yields_empty(self):
        tokens = clean_message("http://a.b 123 999", CleanConfig())
        assert " ".join(tokens) == ""
        assert tokens == ()
        assert set(tokens) == set()
        assert not tokens

    def test_stopwords_matched_per_token(self):
        config = CleanConfig(stopwords=frozenset({"saha"}))
        assert " ".join(clean_message("x saha y sahay", config)) == "x y sahay"

    def test_casefold_ascii_opt_in(self):
        assert " ".join(clean_message("MiXeD", CleanConfig())) == "MiXeD"
        folded = clean_message("MiXeD සABC", CleanConfig(casefold_ascii=True))
        assert " ".join(folded) == "mixed සabc"

    def test_casefold_ascii_folds_the_stopwords_too(self):
        stopwords = frozenset({"Saha", "mama"})
        message = "SAHA saha Saha mama Mama w1"
        stats = dict.fromkeys(COUNTERS, 0)
        folded = clean_message(message, CleanConfig(stopwords, True), stats)
        assert folded == ("w1",)
        assert stats["stopword_tokens"] == 5
        # Without folding, a stopword matches only its own spelling.
        assert clean_message(message, CleanConfig(stopwords)) == ("SAHA", "saha", "Mama", "w1")

    def test_stats_counters(self):
        stats = dict.fromkeys(COUNTERS, 0)
        clean_message(
            "‍ x\x01y @a #b http://c d@e.f 12 中 stop",
            CleanConfig(stopwords=frozenset({"stop"})),
            stats,
        )
        assert stats["zwj_deleted"] == 1
        assert stats["controls_replaced"] == 1
        assert stats["tag_tokens"] == 1
        assert stats["hashtag_tokens"] == 1
        assert stats["url_tokens"] == 1
        assert stats["email_tokens"] == 1
        assert stats["digit_tokens"] == 1
        assert stats["foreign_tokens"] == 1
        assert stats["stopword_tokens"] == 1

    def test_config_rejects_whitespace_stopwords(self):
        with pytest.raises(ValueError):
            CleanConfig(stopwords=frozenset({"two words"}))


class TestEligibility:
    def test_ascii_word(self):
        assert is_eligible_word("hello")

    def test_sinhala_word(self):
        assert is_eligible_word("සිංහල")

    def test_mixed_ascii_sinhala(self):
        assert is_eligible_word("abස")

    def test_devanagari_rejected(self):
        assert not is_eligible_word("दab")

    def test_emoji_rejected(self):
        assert not is_eligible_word("hi\U0001F600")


class TestProperties:
    def test_idempotence_random(self):
        rng = random.Random(2024)
        config = CleanConfig(stopwords=frozenset({"the", "ද"}))
        for _ in range(10_000):
            raw = random_unicode_string(rng)
            once = clean_message(raw, config)
            twice = clean_message(" ".join(once), config)
            assert twice == once

    def test_output_alphabet(self):
        # Every output character is ASCII, Sinhala-block, or the space.
        rng = random.Random(77)
        config = CleanConfig()
        for _ in range(3000):
            text = " ".join(clean_message(random_unicode_string(rng), config))
            for c in text:
                cp = ord(c)
                assert c == " " or cp <= 0x7F or 0x0D80 <= cp <= 0x0DFF
            assert "  " not in text
            assert text == text.strip()

    def test_no_controls_survive(self):
        rng = random.Random(99)
        config = CleanConfig()
        for _ in range(3000):
            text = " ".join(clean_message(random_unicode_string(rng), config))
            assert "‍" not in text
            assert all(
                unicodedata.category(c) not in ("Cc", "Cf") for c in text
            )


# Tokens biased toward the rules' boundaries: URL, email, tag and hashtag
# prefixes and punctuation, the letters of "www."/"http", ASCII and Sinhala
# lith digits, Sinhala letters, controls, ZWJ and characters of other
# scripts (including ones whose lowercase is ASCII or two characters long),
# between separators that are whitespace, controls or ZWJ.
_CHARS = st.one_of(
    st.sampled_from("@#:/.wWhHtTpPsSaZ"),
    st.sampled_from("0123456789"),
    st.integers(0x0DE6, 0x0DEF).map(chr),
    st.integers(0x0D80, 0x0DFF).map(chr),
    st.integers(0x00, 0x9F).map(chr),
    st.sampled_from("\u200d\u200b\u200e\ufeff\u00ad\u2060\U000e0020\u0600"),
    st.sampled_from("\u0901\u0915\u4e2d\U0001f600\u0663\u00a0\u0301\u0130\u212a"
                    "\u017f\u0d7f\u0e00\ud800"),
)
_TOKEN = st.tuples(
    st.sampled_from(["", "", "", "www.", "WWW.", "http://", "HTTP://", "https://",
                     "@", "#", "a@", "a@b.", "1", "\u0de7"]),
    st.lists(_CHARS, max_size=6).map("".join),
).map("".join)
_SEPARATOR = st.sampled_from([" ", "  ", "\t", "\n", "\x00", "\u200b", "\x85", "\u200d"])
_STOPWORD = st.one_of(
    st.sampled_from(["12", "0", "\u0de7\u0de8", "1\u0de6", "the", "ද", "සහ", "www.x",
                     "@a", "#a", "a@b.c", "WWW"]),
    _TOKEN,
)


class TestOracle:
    @settings(max_examples=400, deadline=None)
    @given(
        pieces=st.lists(st.tuples(_TOKEN, _SEPARATOR).map("".join), max_size=10),
        stopwords=st.frozensets(_STOPWORD, max_size=6),
        extra_stopwords=st.lists(st.integers(0, 39), max_size=3),
        casefold_ascii=st.booleans(),
    )
    def test_matches_per_character_oracle(self, pieces, stopwords, extra_stopwords,
                                          casefold_ascii):
        raw = "".join(pieces)
        # Some of the message's own tokens as stopwords, so step 5 meets
        # tokens that earlier steps would drop.
        tokens = raw.replace("\u200d", "").split()
        picked = {tokens[i % len(tokens)] for i in extra_stopwords} if tokens else set()
        stopwords |= picked | {w.lower() for w in picked}
        # CleanConfig rejects empty stopwords and ones with whitespace.
        stopwords = frozenset(w for w in stopwords if w and not any(c.isspace() for c in w))
        config = CleanConfig(stopwords=stopwords, casefold_ascii=casefold_ascii)
        stats = dict.fromkeys(COUNTERS, 0)
        tokens = clean_message(raw, config, stats)
        assert (tokens, stats) == oracle_clean(raw, stopwords, casefold_ascii, _CONTROL_RANGES)


class TestStopwordFile:
    def test_read(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nthe\n\nsaha\n", encoding="utf-8")
        assert read_stopwords(path) == frozenset({"the", "saha"})

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes(b"\xef\xbb\xbfw1\nw2\n")
        assert read_stopwords(path) == frozenset({"w1", "w2"})

    def test_whitespace_entry_rejected(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("a b\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_stopwords(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_stopwords(tmp_path / "nope.txt")


class TestControlTable:
    def test_ranges_sorted_disjoint_without_zwj(self):
        for first, last in _CONTROL_RANGES:
            assert first <= last
            assert not first <= 0x200D <= last
        for (_, last), (first, _) in zip(_CONTROL_RANGES, _CONTROL_RANGES[1:]):
            assert last + 1 < first

    def test_ranges_match_unicodedata_scan(self):
        if unicodedata.unidata_version != CONTROL_RANGES_UNICODE:
            pytest.skip(
                f"table pinned to Unicode {CONTROL_RANGES_UNICODE}, "
                f"this Python has {unicodedata.unidata_version}"
            )
        scanned = {
            cp
            for cp in range(sys.maxunicode + 1)
            if cp != 0x200D and unicodedata.category(chr(cp)) in ("Cc", "Cf")
        }
        table = {
            cp for first, last in _CONTROL_RANGES for cp in range(first, last + 1)
        }
        assert table == scanned

    def test_table_characters_are_not_printable(self):
        # clean_message skips the control pass for printable text, which is
        # exact only while no character that pass changes is printable.
        printable = [
            f"U+{cp:04X}"
            for first, last in ((0x200D, 0x200D), *_CONTROL_RANGES)
            for cp in range(first, last + 1)
            if chr(cp).isprintable()
        ]
        assert not printable, f"printable on Unicode {unicodedata.unidata_version}: {printable}"

    def test_compiled_class_matches_exactly_the_ranges(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        text, replaced = _replace_controls()(" ", every)
        ranges = {cp for first, last in _CONTROL_RANGES for cp in range(first, last + 1)}
        assert replaced == len(ranges)
        changed = {cp for cp, c in enumerate(text) if c != every[cp]}
        assert changed == ranges
        assert 0x200D not in changed

    def test_isdigit_is_exactly_the_digit_rule_on_eligible_characters(self):
        # The digit rule calls str.isdigit on tokens of ASCII and
        # Sinhala-block characters only, where it must accept 0-9 and the
        # Sinhala lith digits U+0DE6-U+0DEF and nothing else.
        wrong = [
            f"U+{cp:04X}"
            for cp in (*range(0x80), *range(0x0D80, 0x0E00))
            if chr(cp).isdigit() != (0x30 <= cp <= 0x39 or 0x0DE6 <= cp <= 0x0DEF)
        ]
        assert not wrong, f"isdigit differs on Unicode {unicodedata.unidata_version}: {wrong}"


def test_import_does_not_load_numpy():
    # numpy is loaded only by synth, on first use of its names.
    code = (
        "import sys, reaction_lens, reaction_lens.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded at import'\n"
        "spec, write = reaction_lens.SynthSpec, reaction_lens.write_corpus\n"
        "assert 'numpy' in sys.modules\n"
        "assert spec is reaction_lens.synth.SynthSpec\n"
        "assert write is reaction_lens.synth.write_corpus\n"
    )
    src = str(Path(reaction_lens.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
