"""Mazur map: sphere preservation, inversion, distance envelopes."""

import math

import numpy as np
import pytest

from lpembed import mazur
from lpembed.cli import RATIO_TOL
from lpembed.lp_core import pairwise_pnorm_all, row_pnorms
from lpembed.mazur import (
    mazur_bounds,
    mazur_map_rows,
    sample_ratio_extremes,
)

P_GRID = [1.0, 1.5, 2.0, 3.0]
# the advertised range 1 <= p < 1024, out to its end
WIDE_GRID = [1.0, 1.3, 2.0, 3.0, 10.0, 100.0, 500.0, 1000.0, 1023.0]


class TestMazurMap:
    @pytest.mark.parametrize("p,q", [(1, 2), (2, 1), (1.5, 3), (2, 2)])
    def test_fixed_point_basis_vector(self, p, q):
        e1 = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(mazur_map_rows(e1, p, q), e1)

    def test_two_coordinate_example_p2_q1(self):
        out = mazur_map_rows(np.array([[math.sqrt(0.5), math.sqrt(0.5)]]), 2, 1)
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_sign_preservation_p1_q2(self):
        out = mazur_map_rows(np.array([[0.5, -0.5]]), 1, 2)
        np.testing.assert_allclose(out, [[math.sqrt(0.5), -math.sqrt(0.5)]], atol=1e-15)

    def test_off_sphere_rejected(self):
        with pytest.raises(ValueError, match="off the unit sphere"):
            mazur_map_rows(np.array([[1.0, 1.0]]), 2, 1)
        # a NaN norm is not within SPHERE_TOL of 1 either
        with pytest.raises(ValueError, match="off the unit sphere"):
            mazur_map_rows(np.array([[math.nan, 0.0], [1.0, 0.0]]), 2, 1.5)

    def test_near_sphere_renormalized(self):
        out = mazur_map_rows(np.array([[1.0 + 5e-10, 0.0]]), 2, 1)
        assert row_pnorms(out, 1)[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("q", P_GRID)
    def test_sphere_preservation_1000_vectors(self, p, q):
        rng = np.random.default_rng(int(p * 10 + q))
        rows = rng.standard_normal((1000, 16))
        rows /= row_pnorms(rows, p)[:, None]
        mapped = mazur_map_rows(rows, p, q)
        assert np.abs(row_pnorms(mapped, q) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("q", P_GRID)
    def test_round_trip(self, p, q):
        rng = np.random.default_rng(int(p + q * 10))
        rows = rng.standard_normal((200, 16))
        rows /= row_pnorms(rows, p)[:, None]
        back = mazur_map_rows(mazur_map_rows(rows, p, q), q, p)
        assert np.abs(back - rows).max() <= 1e-10


class TestMazurBounds:
    def test_identity_when_p_equals_q(self):
        b = mazur_bounds(2, 2)
        for d in (0.0, 0.3, 1.7):
            assert b.lower(d) == d == b.upper(d)

    def test_zero_distance(self):
        b = mazur_bounds(1, 2)
        assert b.lower(0.0) == 0.0
        assert b.upper(0.0) == 0.0

    def test_constant_value(self):
        assert mazur_bounds(1, 2).constant_c == pytest.approx(math.sqrt(2))
        assert mazur_bounds(2, 1).constant_c == pytest.approx(math.sqrt(2))
        assert mazur_bounds(2, 3).constant_c == pytest.approx(2 ** (1 / 3))

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("q", P_GRID)
    def test_lower_below_upper_on_grid(self, p, q):
        b = mazur_bounds(p, q)
        d = np.arange(0, 2.0001, 0.01)
        assert np.all(b.lower(d) <= b.upper(d) + 1e-15)

    @pytest.mark.parametrize("p,q", [(1, 2), (1.5, 2), (2, 3), (1, 3)])
    def test_estimates_hold_on_sample(self, p, q):
        sample = sample_ratio_extremes(p, q, dim=16, pairs=2000, seed=9)
        assert sample.max_lower_excess <= 1e-12
        assert sample.max_upper_excess <= 1e-12

    def test_derived_constant_validated_by_maximization(self):
        # the brute-force oracle behind the concrete C: 1e5 pairs in dim 32
        sample = sample_ratio_extremes(1, 2, dim=32, pairs=100_000, seed=1)
        assert sample.max_constant_ratio < sample.constant_c
        # single-coordinate antipodal pairs attain the constant exactly
        pair = np.array([[1.0, 0.0], [-1.0, 0.0]])
        num = pairwise_pnorm_all(mazur_map_rows(pair, 1, 2), 2)[0]
        den = pairwise_pnorm_all(pair, 1)[0] ** 0.5
        assert num / den == pytest.approx(sample.constant_c, abs=1e-14)

    @pytest.mark.parametrize("p,q", [(2, 1), (3, 1.5)])
    def test_inverted_orientation_estimates(self, p, q):
        sample = sample_ratio_extremes(p, q, dim=16, pairs=2000, seed=10)
        assert sample.max_lower_excess <= 1e-12
        assert sample.max_upper_excess <= 1e-12

    # |x|^p of a Gaussian sample overflowed from p ~ 440 on, and an l_1000
    # distance of images underflowed to 0; RuntimeWarning is an error here
    @pytest.mark.parametrize("dim", [4, 64])
    @pytest.mark.parametrize("q", WIDE_GRID)
    @pytest.mark.parametrize("p", WIDE_GRID)
    def test_estimates_hold_across_the_exponent_range(self, p, q, dim):
        sample = sample_ratio_extremes(p, q, dim=dim, pairs=50, seed=3)
        assert sample.max_lower_excess <= RATIO_TOL
        assert sample.max_upper_excess <= RATIO_TOL
        assert sample.max_constant_ratio <= sample.constant_c + RATIO_TOL

    # pairs=True ran one pair, and dim=3.5 raised a bare TypeError
    @pytest.mark.parametrize("kwargs,name", [
        ({"pairs": True}, "pairs"),
        ({"pairs": 10.0}, "pairs"),
        ({"dim": 3.5}, "dim"),
        ({"dim": "3"}, "dim"),
        ({"seed": 1.5}, "seed"),
        ({"seed": False}, "seed"),
    ])
    def test_integer_arguments_must_be_integers(self, kwargs, name):
        args = {"dim": 3, "pairs": 10, "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            sample_ratio_extremes(2, 1.5, **args)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            sample_ratio_extremes(2, 1.5, args["dim"], args["pairs"], args["seed"])

    @pytest.mark.parametrize("kwargs", [{"dim": 0}, {"pairs": 0}], ids=["dim", "pairs"])
    def test_sizes_must_be_positive(self, kwargs):
        with pytest.raises(ValueError, match="^dim and pairs must be positive$"):
            sample_ratio_extremes(2, 1.5, **{"dim": 3, "pairs": 10, "seed": 0, **kwargs})

    def test_numpy_integers_accepted(self):
        sample = sample_ratio_extremes(2, 1.5, np.int64(3), np.int32(10), np.int64(0))
        assert sample == sample_ratio_extremes(2, 1.5, 3, 10, 0)

    @pytest.mark.parametrize("dim,per_batch", [(64, 256), (1024, 16), (3, 5461)])
    def test_batches_bounded_in_floats(self, dim, per_batch, monkeypatch):
        # every batch's 2 * pairs * dim floats stay within the bound, whatever
        # the dim; at dim 64 a batch holds 256 pairs
        shapes = []
        real = mazur.mazur_map_rows
        monkeypatch.setattr(mazur, "mazur_map_rows", lambda rows, p, q: shapes.append(rows.shape) or real(rows, p, q))
        sample_ratio_extremes(1.3, 2, dim=dim, pairs=2 * per_batch + 1, seed=1)
        assert shapes == [(2 * per_batch, dim)] * 2 + [(2, dim)]
        assert 2 * per_batch * dim <= mazur.SAMPLE_BATCH_FLOATS < 2 * (per_batch + 1) * dim

    def test_sample_does_not_depend_on_the_batch_size(self, monkeypatch):
        # standard_normal fills rows in sequence and every batch has an even
        # row count, so the pairs drawn are the same in any batching; 5000
        # pairs leave a short last batch at each size
        for dim in (64, 1024):
            default = sample_ratio_extremes(1.5, 3, dim=dim, pairs=5000, seed=4)
            for per_batch in (1000, 37):
                monkeypatch.setattr(mazur, "SAMPLE_BATCH_FLOATS", 2 * per_batch * dim)
                assert sample_ratio_extremes(1.5, 3, dim=dim, pairs=5000, seed=4) == default
            monkeypatch.undo()
