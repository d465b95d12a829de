import json
import math

import pytest

from reaction_lens.corpus_io import corpus_rows
from reaction_lens.engine import CORE_SCHEMA, normalize_columns
from reaction_lens.errors import InvalidSpec
from reaction_lens.synth import (
    _CHUNK,
    MAX_CHUNK_WORDS,
    MAX_VOCAB_SIZE,
    POISSON_LAM_MAX,
    SynthSpec,
    iter_rows,
    vocabulary,
    word_affinities,
    write_corpus,
)

from oracles import oracle_iter_rows, oracle_truth_bytes


class TestSpecValidation:
    def test_bad_rows(self):
        with pytest.raises(InvalidSpec):
            SynthSpec(rows=0)

    def test_bad_lengths(self):
        with pytest.raises(InvalidSpec):
            SynthSpec(rows=1, length_min=5, length_max=2)

    def test_size_bounds(self):
        # Constructing a spec allocates nothing, so the bounds themselves
        # are cheap to test.
        SynthSpec(rows=1, vocab_size=MAX_VOCAB_SIZE)
        with pytest.raises(InvalidSpec, match="vocab_size"):
            SynthSpec(rows=1, vocab_size=MAX_VOCAB_SIZE + 1)
        for rows, length_max in ((1, MAX_CHUNK_WORDS), (3 * _CHUNK, MAX_CHUNK_WORDS // _CHUNK)):
            SynthSpec(rows=rows, length_max=length_max)
            with pytest.raises(InvalidSpec, match="chunk"):
                SynthSpec(rows=rows, length_max=length_max + 1)
        with pytest.raises(InvalidSpec, match="chunk"):
            SynthSpec(rows=3, length_min=10**15, length_max=10**15)

    def test_bad_like_dominance(self):
        with pytest.raises(InvalidSpec):
            SynthSpec(rows=1, like_dominance=1.0)

    def test_fixed_affinity_normalized(self):
        spec = SynthSpec(rows=1, fixed_affinity=(2, 0, 0, 0, 0))
        assert spec.fixed_affinity == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_fixed_affinity_wrong_size(self):
        with pytest.raises(InvalidSpec):
            SynthSpec(rows=1, fixed_affinity=(1, 0))

    @pytest.mark.parametrize("field", [
        "reaction_scale", "affinity_concentration", "like_variability",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_float(self, field, value):
        with pytest.raises(InvalidSpec):
            SynthSpec(rows=1, **{field: value})

    @pytest.mark.parametrize("value", [1e200, 1e-200, 1e-160])
    def test_like_variability_outside_gamma_range(self, value):
        # value**2 overflows (gamma shape 0), or underflows to 0 or a subnormal.
        with pytest.raises(InvalidSpec):
            SynthSpec(rows=1, like_variability=value)

    @pytest.mark.parametrize("value", [1e200, math.nextafter(POISSON_LAM_MAX, math.inf)])
    def test_reaction_scale_beyond_poisson_limit(self, value):
        with pytest.raises(InvalidSpec, match="reaction_scale"):
            SynthSpec(rows=1, reaction_scale=value)

    def test_like_counts_beyond_poisson_limit(self, tmp_path):
        # like odds near 1 / 2**-53 times core totals near 1e4 pass the limit.
        spec = SynthSpec(rows=3, reaction_scale=1e4, like_dominance=1 - 2**-53)
        with pytest.raises(InvalidSpec, match="Poisson limit"):
            list(iter_rows(spec))
        with pytest.raises(InvalidSpec):
            write_corpus(spec, tmp_path / "c.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("affinity", [
        (1, math.nan, 0, 0, 0), (1, math.inf, 0, 0, 0), (1e308, 1e308, 0, 0, 0),
    ])
    def test_fixed_affinity_not_finite(self, affinity):
        with pytest.raises(InvalidSpec):
            SynthSpec(rows=1, fixed_affinity=affinity)


class TestGeneration:
    @pytest.mark.parametrize("spec", [
        # Two chunk boundaries and a partial last chunk.
        SynthSpec(rows=25_001, vocab_size=300, seed=3),
        SynthSpec(rows=3_000, vocab_size=48_000, seed=5),
        SynthSpec(rows=500, vocab_size=1, fixed_affinity=(1, 2, 0, 0, 3), seed=6),
        SynthSpec(rows=500, like_dominance=0.0, thankful_rate=0.0, seed=7),
        SynthSpec(rows=500, vocab_size=7, length_min=1, length_max=1, seed=8),
    ], ids=["chunks", "vocab48k", "fixed", "no-like-thankful", "one-word"])
    def test_matches_per_row_oracle(self, spec):
        rows = list(iter_rows(spec))
        assert rows == list(oracle_iter_rows(spec))
        assert len(rows) == spec.rows
        for message, counts in rows:
            assert type(message) is str
            assert type(counts) is tuple and len(counts) == 7
            assert all(type(v) is int for v in counts)

    def test_deterministic_bytes(self, tmp_path):
        spec = SynthSpec(rows=500, vocab_size=50, seed=123)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_corpus(spec, a)
        write_corpus(spec, b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.affinities.json").read_bytes() == (
            tmp_path / "b.csv.affinities.json"
        ).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_corpus(SynthSpec(rows=200, seed=1), a)
        write_corpus(SynthSpec(rows=200, seed=2), b)
        assert a.read_bytes() != b.read_bytes()

    def test_single_word_love_affinity(self):
        # Degenerate generator: all mass on the first core reaction.
        spec = SynthSpec(
            rows=200, vocab_size=1, fixed_affinity=(1, 0, 0, 0, 0),
            like_dominance=0.9, seed=3,
        )
        for message, counts in iter_rows(spec):
            assert set(message.split()) == {"w0000"}
            assert normalize_columns([counts], CORE_SCHEMA) == (
                None, [[1.0], [0.0], [0.0], [0.0], [0.0]],
            )

    def test_like_share_near_target(self):
        spec = SynthSpec(rows=30_000, vocab_size=300, like_dominance=0.95, seed=11)
        like = 0
        grand = 0
        for _, counts in iter_rows(spec):
            like += counts[0]
            grand += sum(counts)
        share = like / grand
        assert 0.93 <= share <= 0.97

    def test_zero_like_dominance(self):
        spec = SynthSpec(rows=100, like_dominance=0.0, thankful_rate=0.0, seed=5)
        for _, counts in iter_rows(spec):
            assert counts[0] == 0
            assert counts[-1] == 0

    def test_message_lengths_respected(self):
        spec = SynthSpec(rows=500, length_min=2, length_max=4, seed=9)
        for message, _ in iter_rows(spec):
            assert 2 <= len(message.split()) <= 4

    def test_rows_load_back_through_corpus_io(self, tmp_path):
        for fmt in ("csv", "jsonl"):
            path = tmp_path / f"c.{fmt}"
            summary = write_corpus(SynthSpec(rows=250, seed=4), path, fmt)
            errors = []
            records = list(corpus_rows(path, fmt, errors=errors))
            assert summary["rows"] == len(records) == 250
            assert errors == []

    def test_truth_file(self, tmp_path):
        path = tmp_path / "c.csv"
        spec = SynthSpec(rows=10, vocab_size=7, seed=8)
        summary = write_corpus(spec, path)
        with open(summary["truth_path"], encoding="utf-8") as fh:
            truth = json.load(fh)
        assert truth["reactions"] == ["love", "wow", "haha", "sad", "angry"]
        assert sorted(truth["affinities"]) == vocabulary(spec)
        for row in truth["affinities"].values():
            assert len(row) == 5
            assert sum(row) == pytest.approx(1.0, abs=1e-9)
        assert truth["spec"]["seed"] == 8

    @pytest.mark.parametrize("spec", [
        SynthSpec(rows=5, vocab_size=1, seed=2),
        SynthSpec(rows=5, vocab_size=7, fixed_affinity=(1, 2, 0, 0, 3), seed=6),
        # Two full vocabulary chunks and a partial third.
        SynthSpec(rows=5, vocab_size=2 * _CHUNK + 17, affinity_concentration=0.05, seed=9),
    ], ids=["one-word", "fixed", "chunks"])
    def test_truth_file_matches_json_dump_oracle(self, tmp_path, spec):
        summary = write_corpus(spec, tmp_path / "c.csv")
        with open(summary["truth_path"], "rb") as fh:
            assert fh.read() == oracle_truth_bytes(spec)

    @pytest.mark.parametrize("size", [1, 10_000, 10_001, 100_001])
    def test_vocabulary_matches_f_string_form(self, size):
        width = max(4, len(str(size - 1)))
        expected = [f"w{i:0{width}d}" for i in range(size)]
        assert vocabulary(SynthSpec(rows=1, vocab_size=size)) == expected

    def test_affinities_deterministic(self):
        spec = SynthSpec(rows=1, vocab_size=20, seed=42)
        assert (word_affinities(spec) == word_affinities(spec)).all()
