import math
import random

import pytest

from reaction_lens.corpus_io import ReactionCounts
from reaction_lens.engine import POLARITY
from reaction_lens.errors import DegenerateRange, ZeroReactionTotal
from reaction_lens.star import (
    discretize_star,
    gaussian_similarity,
    star_normalize,
    star_range,
    star_scale,
    star_vector,
)

from oracles import oracle_nearest_half, oracle_star_vectors


def star_vectors(counts_list):
    """Star4 vectors of a training set at its own range, as ``fit`` makes them."""
    bases = [star_normalize(c) for c in counts_list]
    lo, hi = star_range(bases)
    return [star_vector(p, n, lo, hi) for p, n in bases], lo, hi


def random_polar_counts(rng, max_count=20):
    while True:
        counts = ReactionCounts(
            like=rng.randint(0, 100),
            love=rng.randint(0, max_count),
            wow=rng.randint(0, max_count),
            haha=rng.randint(0, max_count),
            sad=rng.randint(0, max_count),
            angry=rng.randint(0, max_count),
        )
        if counts.love + counts.wow + counts.sad + counts.angry > 0:
            return counts


class TestPolarity:
    def test_fixed_map(self):
        assert POLARITY == {
            "love": "positive",
            "wow": "positive",
            "haha": "uncertain",
            "sad": "negative",
            "angry": "negative",
        }


class TestStarNormalize:
    def test_all_positive(self):
        assert star_normalize(ReactionCounts(love=3, wow=1)) == (1.0, 0.0)

    def test_symmetric(self):
        counts = ReactionCounts(love=1, wow=1, sad=1, angry=1)
        assert star_normalize(counts) == (0.5, 0.5)

    def test_haha_excluded(self):
        with pytest.raises(ZeroReactionTotal):
            star_normalize(ReactionCounts(haha=50))

    def test_masses_sum_to_one(self):
        rng = random.Random(4)
        for _ in range(10_000):
            positive, negative = star_normalize(random_polar_counts(rng))
            assert 0.0 <= positive <= 1.0
            assert 0.0 <= negative <= 1.0
            assert positive + negative == pytest.approx(1.0, abs=1e-12)
            aggregate = positive - negative
            assert -1.0 <= aggregate <= 1.0


class TestStarScale:
    def test_boundaries(self):
        assert star_scale(-1.0, -1.0, 1.0) == 1.0
        assert star_scale(1.0, -1.0, 1.0) == 5.0

    def test_interior_value(self):
        assert star_scale(0.6, -1.0, 1.0) == pytest.approx(4.2)

    def test_clamps_out_of_range(self):
        assert star_scale(-2.0, -1.0, 1.0) == 1.0
        assert star_scale(2.0, -1.0, 1.0) == 5.0

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            star_scale(0.0, 0.5, 0.5)

    def test_monotone_rank_invariance(self):
        # Ordering by aggregate equals ordering by star inside the range.
        rng = random.Random(8)
        lo, hi = -0.9, 0.8
        values = sorted(rng.uniform(lo, hi) for _ in range(200))
        stars = [star_scale(v, lo, hi) for v in values]
        assert stars == sorted(stars)


class TestDiscretize:
    def test_nearest_bin(self):
        assert discretize_star(4.2) == 4.0

    def test_midpoint_rounds_up(self):
        assert discretize_star(4.25) == 4.5
        assert discretize_star(1.75) == 2.0

    def test_fixed_points(self):
        assert discretize_star(1.0) == 1.0
        assert discretize_star(5.0) == 5.0

    def test_exhaustive_grid_against_oracle(self):
        # Scan [1, 5] at 0.01 steps against the brute-force nearest-multiple
        # oracle (ties to the larger bin).
        for k in range(401):
            value = 1.0 + k / 100.0
            assert discretize_star(value) == oracle_nearest_half(value), value

    def test_error_bound(self):
        rng = random.Random(12)
        for _ in range(5000):
            value = rng.uniform(1.0, 5.0)
            snapped = discretize_star(value)
            assert abs(value - snapped) <= 0.25 + 1e-12
            assert snapped in {1.0 + 0.5 * k for k in range(9)}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            discretize_star(0.5)


class TestBuildStarVectors:
    def test_two_entry_extremes(self):
        counts = [ReactionCounts(love=1), ReactionCounts(sad=1)]
        vectors, lo, hi = star_vectors(counts)
        assert (lo, hi) == (-1.0, 1.0)
        assert vectors[0][3] == 5.0
        assert vectors[1][3] == 1.0

    def test_all_positive_corpus_spans_observed_range(self):
        counts = [
            ReactionCounts(love=3, wow=1),  # aggregate 1.0
            ReactionCounts(love=1, wow=1, sad=0, angry=0),  # aggregate 1.0
            ReactionCounts(love=1, sad=1),  # aggregate 0.0
        ]
        vectors, lo, hi = star_vectors(counts)
        assert all(n == 0.0 or p - n == 0.0 for p, n, _, _ in vectors)
        assert (lo, hi) == (0.0, 1.0)
        assert {star for _, _, _, star in vectors} == {1.0, 5.0}

    def test_oracle_equivalence(self):
        rng = random.Random(20)
        counts = [random_polar_counts(rng) for _ in range(20)]
        vectors, lo, hi = star_vectors(counts)
        expected, elo, ehi = oracle_star_vectors(counts)
        assert lo == pytest.approx(elo, abs=1e-12)
        assert hi == pytest.approx(ehi, abs=1e-12)
        for vector, (positive, negative, aggregate, star) in zip(vectors, expected):
            assert vector[0] == pytest.approx(positive, abs=1e-12)
            assert vector[1] == pytest.approx(negative, abs=1e-12)
            assert vector[0] - vector[1] == pytest.approx(aggregate, abs=1e-12)
            assert vector[3] == pytest.approx(star, abs=1e-12)
            assert vector[2] == oracle_nearest_half(vector[3])

    def test_vector_component_order(self):
        vectors, lo, hi = star_vectors([ReactionCounts(love=1), ReactionCounts(sad=1)])
        positive, negative = star_normalize(ReactionCounts(love=1))
        star = star_scale(positive - negative, lo, hi)
        assert vectors[0] == (positive, negative, discretize_star(star), star)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateRange):
            star_vectors([])
        with pytest.raises(DegenerateRange):
            star_vectors([ReactionCounts(love=1), ReactionCounts(wow=2)])


class TestStarSentiment:
    def test_test_entry_clamped(self):
        vector = star_vector(*star_normalize(ReactionCounts(sad=5)), 0.0, 1.0)
        assert vector[3] == 1.0
        assert vector[2] == 1.0


class TestGaussianSimilarity:
    def test_zero_distance(self):
        assert gaussian_similarity(3.3, 3.3) == 1.0

    def test_unit_distance(self):
        assert gaussian_similarity(2.0, 3.0, sigma=1.0) == pytest.approx(
            math.exp(-0.5)
        )
        assert gaussian_similarity(2.0, 3.0, sigma=1.0) == pytest.approx(0.60653, abs=1e-5)

    def test_symmetry(self):
        rng = random.Random(6)
        for _ in range(1000):
            a, b = rng.uniform(1, 5), rng.uniform(1, 5)
            sigma = rng.uniform(0.1, 3.0)
            assert gaussian_similarity(a, b, sigma) == gaussian_similarity(b, a, sigma)
