"""lp_core contracts: the power kernel, norms, distances, normalization, direct sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpembed import lp_core
from lpembed.lp_core import (
    BlockVector,
    LpVector,
    PExponent,
    abs_power,
    block_norm_p,
    distance_p,
    norm_p,
    normalize,
    pair_subset_power_sums,
    pairwise_pnorm_all,
    pairwise_power_sums_all,
    row_pnorms,
)

# extended-precision oracle values (mpmath, 50 digits):
#   sum |x_i|^1.5 for x = (0.3, -0.4, 0.5, 0.1) and its 1/1.5 root
NORM_15_POWER_SUM = 0.80247514725997773611741353489161
NORM_15 = 0.86355047505875975647512620754155


def vec(*coords):
    return LpVector(np.array(coords, dtype=float))


class TestPExponent:
    @pytest.mark.parametrize("bad", [0.5, 0.99, 0.0, -1.0, math.inf, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            PExponent(bad)

    @pytest.mark.parametrize("ok", [1, 1.0, 1.5, 2, 3.25, 100.0])
    def test_accepts_valid(self, ok):
        assert PExponent(ok).value == float(ok)


KERNEL_EXPONENTS = [0.5, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0]


def signed_rows_with_zeros(seed, shape):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-2, 3, size=shape)
    rows.flat[::4] = 0.0
    return rows


class TestPowerKernel:
    @pytest.mark.parametrize("p", KERNEL_EXPONENTS)
    def test_matches_pow_and_keeps_zeros_exact(self, p):
        v = signed_rows_with_zeros(int(p * 10), (300,))
        out = abs_power(v, p)
        expected = np.abs(v) ** p
        np.testing.assert_allclose(out, expected, rtol=1e-14, atol=0.0)
        zeros = v == 0.0
        assert zeros.any() and (v < 0.0).any()
        assert np.all(out[zeros] == 0.0) and not np.signbit(out[zeros]).any()
        assert np.all(out[~zeros] > 0.0)
        if p in (0.5, 1.0, 2.0):  # sqrt / abs / square shortcuts are exact
            np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("p", KERNEL_EXPONENTS)
    def test_input_left_untouched(self, p):
        v = signed_rows_with_zeros(3, (40,))
        before = v.copy()
        abs_power(v, p)
        np.testing.assert_array_equal(v, before)

    @pytest.mark.parametrize("p", KERNEL_EXPONENTS)
    @pytest.mark.parametrize("value", [-2.5, 0.0, 0.7, np.float64(-1.3)])
    def test_zero_dimensional_input(self, p, value):
        out = abs_power(value, p)
        assert np.shape(out) == ()
        assert float(out) == pytest.approx(abs(float(value)) ** p, rel=1e-14, abs=0.0)
        # a scalar takes the same path as the equal one-element array
        assert float(out) == abs_power(np.array([value]), p)[0]

    @pytest.mark.parametrize("p", [p for p in KERNEL_EXPONENTS if p >= 1.0])
    @pytest.mark.parametrize("width", [5, 37, 300])
    def test_all_pairs_scan_sums_bitwise(self, p, width):
        rows = signed_rows_with_zeros(width, (9, width))
        rows[4] = rows[2]  # one pair whose difference is all zeros
        sums = pairwise_power_sums_all(rows, p)
        k = 0
        for i in range(9):
            for j in range(i + 1, 9):
                assert sums[k] == abs_power(rows[i] - rows[j], p).sum()
                k += 1


class TestLpVector:
    def test_rejects_nan_inf_empty(self):
        with pytest.raises(ValueError):
            LpVector(np.array([1.0, math.nan]))
        with pytest.raises(ValueError):
            LpVector(np.array([math.inf]))
        with pytest.raises(ValueError):
            LpVector(np.array([]))

    def test_zero_vector_representable(self):
        z = vec(0.0, 0.0)
        assert z.is_zero()
        assert norm_p(z, 2) == 0.0

    def test_immutable(self):
        x = vec(1.0, 2.0)
        with pytest.raises(ValueError):
            x.coeffs[0] = 5.0

    def test_subtraction_length_mismatch(self):
        with pytest.raises(ValueError):
            vec(1.0, 2.0) - vec(1.0, 2.0, 3.0)


class TestNorm:
    def test_unit_coordinate(self):
        assert norm_p(vec(1, 0, 0), 2) == 1.0

    def test_l1_sum(self):
        assert norm_p(vec(1, 1), 1) == 2.0

    def test_fractional_exponent_matches_oracle(self):
        x = vec(0.3, -0.4, 0.5, 0.1)
        assert norm_p(x, 1.5) == pytest.approx(NORM_15, abs=1e-15)
        assert math.fsum(abs(c) ** 1.5 for c in x.coeffs) == pytest.approx(
            NORM_15_POWER_SUM, abs=1e-15
        )

    def test_zero_iff_zero_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = LpVector(rng.standard_normal(5))
            assert (norm_p(x, 1.5) == 0.0) == x.is_zero()

    def test_extreme_magnitudes_no_underflow_or_overflow(self):
        tiny = vec(1e-300, 0.0)
        assert norm_p(tiny, 1.5) == pytest.approx(1e-300, rel=1e-12)
        huge = vec(1e300, -1e300)
        assert norm_p(huge, 2) == pytest.approx(math.sqrt(2) * 1e300, rel=1e-12)
        assert math.isfinite(norm_p(huge, 3))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("alpha", [-2.0, -1.0, 0.5, 3.0])
    def test_homogeneity(self, p, alpha):
        rng = np.random.default_rng(11)
        for _ in range(40):
            x = LpVector(rng.standard_normal(24))
            assert norm_p(alpha * x, p) == pytest.approx(abs(alpha) * norm_p(x, p), abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_triangle_inequality_1000_triples(self, p):
        rng = np.random.default_rng(int(p * 17))
        for _ in range(1000):
            a, b, c = (LpVector(rng.uniform(-1, 1, 12)) for _ in range(3))
            assert distance_p(a, c, p) <= distance_p(a, b, p) + distance_p(b, c, p) + 1e-12

    def test_monotone_in_p_on_unit_cube(self):
        rng = np.random.default_rng(5)
        grid = [1.0, 1.3, 1.5, 2.0, 2.5, 3.0, 4.0]
        for _ in range(100):
            x = LpVector(rng.uniform(-1, 1, 16))
            norms = [norm_p(x, p) for p in grid]
            for lo, hi in zip(norms, norms[1:]):
                assert hi <= lo + 1e-12

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_norm_nonnegative_and_bounded_by_l1(self, coords):
        x = LpVector(np.array(coords, dtype=float))
        n2 = norm_p(x, 2)
        assert n2 >= 0.0
        assert n2 <= norm_p(x, 1) + 1e-9 * max(1.0, norm_p(x, 1))


class TestDistance:
    def test_identity(self):
        x = vec(0.2, -0.7, 1.0)
        assert distance_p(x, x, 2) == 0.0

    def test_orthonormal_pair(self):
        assert distance_p(vec(1, 0), vec(0, 1), 2) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_matches_coordinate_oracle_l1(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = normalize(LpVector(rng.standard_normal(40)), 1)
            y = normalize(LpVector(rng.standard_normal(40)), 1)
            oracle = math.fsum(abs(a - b) for a, b in zip(x.coeffs, y.coeffs))
            assert distance_p(x, y, 1) == pytest.approx(oracle, abs=1e-14)

    def test_symmetry(self):
        x, y = vec(1.0, 2.5, -3.0), vec(0.0, 1.0, 4.0)
        assert distance_p(x, y, 1.5) == distance_p(y, x, 1.5)


class TestNormalize:
    @pytest.mark.parametrize(
        "coords,p,expected",
        [((2, 0), 2, (1, 0)), ((1, 1), 1, (0.5, 0.5)), ((3, 4), 2, (0.6, 0.8))],
    )
    def test_examples(self, coords, p, expected):
        out = normalize(vec(*coords), p)
        np.testing.assert_allclose(out.coeffs, expected, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize(vec(0, 0, 0), 2)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_unit_norm_within_tolerance(self, p):
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = LpVector(rng.standard_normal(200) * 10.0 ** rng.integers(-3, 4))
            assert norm_p(normalize(x, p), p) == pytest.approx(1.0, abs=1e-12)


class TestDirectSum:
    def test_single_block(self):
        b = vec(0.3, -0.4, 0.5, 0.1)
        bv = BlockVector((b,))
        assert block_norm_p(bv, 1.5) == pytest.approx(norm_p(b, 1.5), abs=1e-15)

    def test_two_unit_blocks_pythagorean(self):
        bv = BlockVector((vec(1, 0), vec(0, 1)))
        assert block_norm_p(bv, 2) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_three_blocks_p3(self):
        blocks = [vec(1, 0), vec(2, 0), vec(0, 2)]
        bv = BlockVector(blocks)
        assert block_norm_p(bv, 3) == pytest.approx(17.0 ** (1.0 / 3.0), abs=1e-14)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_norm_identity_on_random_blocks(self, p):
        rng = np.random.default_rng(int(p * 31))
        for _ in range(50):
            blocks = [LpVector(rng.standard_normal(rng.integers(1, 9))) for _ in range(5)]
            bv = BlockVector(blocks)
            expected = math.fsum(norm_p(b, p) ** p for b in blocks) ** (1.0 / p)
            assert block_norm_p(bv, p) == pytest.approx(expected, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BlockVector(())


class TestBatchHelpers:
    @pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0])
    def test_row_pnorms_match_contract(self, p):
        rng = np.random.default_rng(int(p * 100))
        rows = rng.standard_normal((20, 30))
        batch = row_pnorms(rows, p)
        for i in range(20):
            assert batch[i] == pytest.approx(norm_p(LpVector(rows[i]), p), rel=1e-13)

    @pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 2.5, 3.0])
    def test_all_pairs_scan_matches_contract(self, p):
        rng = np.random.default_rng(int(p * 101))
        rows = rng.standard_normal((12, 7))
        cond = pairwise_pnorm_all(rows, p)
        k = 0
        for i in range(12):
            for j in range(i + 1, 12):
                expected = distance_p(LpVector(rows[i]), LpVector(rows[j]), p)
                assert cond[k] == pytest.approx(expected, rel=1e-12, abs=1e-13)
                k += 1

    def test_power_sums_vs_pnorm(self):
        rng = np.random.default_rng(77)
        rows = rng.standard_normal((9, 5))
        assert np.allclose(pairwise_power_sums_all(rows, 2.0) ** 0.5, pairwise_pnorm_all(rows, 2.0))


def _subset_rows():
    # eigh-like layout: all-zero leading columns, then growing magnitudes,
    # with exact zeros and a repeated row (a zero-distance pair)
    rng = np.random.default_rng(2024)
    rows = rng.standard_normal((23, 40)) * np.logspace(-9, 0, 40)
    rows[:, :5] = 0.0
    rows[rng.random(rows.shape) < 0.2] = 0.0
    rows[7] = rows[3]
    return rows


class TestPairSubset:
    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0, 2.5, 3.0])
    def test_bits_match_all_pairs_scan(self, p):
        rows = _subset_rows()
        ii, jj = np.triu_indices(rows.shape[0], 1)
        order = np.random.default_rng(5).permutation(ii.size)
        got = pair_subset_power_sums(rows, ii[order], jj[order], p)
        want = pairwise_power_sums_all(rows, p)[order]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("p", [1.0, 1.3, 3.0])
    def test_blocks_smaller_than_the_subset(self, p, monkeypatch):
        # several gathered blocks, the last one partial
        monkeypatch.setattr(lp_core, "PAIR_BLOCK_ELEMS", 3 * 40)
        rows = _subset_rows()
        ii, jj = np.triu_indices(rows.shape[0], 1)
        got = pair_subset_power_sums(rows, ii[:100], jj[:100], p)
        want = pairwise_power_sums_all(rows, p)[:100]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_single_pair(self):
        rows = _subset_rows()
        ii, jj = np.triu_indices(rows.shape[0], 1)
        k = int(np.nonzero((ii == 3) & (jj == 19))[0][0])
        got = pair_subset_power_sums(rows, [3], [19], 1.3)
        assert got.shape == (1,)
        assert got.view(np.uint64)[0] == pairwise_power_sums_all(rows, 1.3).view(np.uint64)[k]

    def test_identical_rows_sum_to_zero(self):
        rows = _subset_rows()
        assert pair_subset_power_sums(rows, [3], [7], 1.3)[0] == 0.0

    def test_empty_subset(self):
        got = pair_subset_power_sums(_subset_rows(), np.empty(0, int), np.empty(0, int), 1.5)
        assert got.shape == (0,)
        assert got.dtype == np.float64

    def test_column_slice(self):
        # a strided view of the heavy columns, as calibration passes it
        rows = _subset_rows()
        ii, jj = np.triu_indices(rows.shape[0], 1)
        got = pair_subset_power_sums(rows[:, 30:], ii, jj, 1.3)
        want = pairwise_power_sums_all(np.ascontiguousarray(rows[:, 30:]), 1.3)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
