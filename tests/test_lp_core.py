"""lp_core: the power kernel, row norms, pair distances, normalization, direct sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import mp_pnorm
from lpembed import lp_core
from lpembed.coarse_embedder import build_embedding, embedding_from_json, embedding_to_json
from lpembed.lp_core import (
    PExponent,
    abs_power,
    as_exponent,
    pair_subset_power_sums,
    pairwise_pnorm_all,
    pairwise_power_sums_all,
    row_pnorms,
)
from lpembed.mazur import mazur_map_rows
from lpembed.metric_spaces import generate

# extended-precision oracle values (mpmath, 50 digits):
#   sum |x_i|^1.5 for x = (0.3, -0.4, 0.5, 0.1) and its 1/1.5 root
NORM_15_POWER_SUM = 0.80247514725997773611741353489161
NORM_15 = 0.86355047505875975647512620754155


class TestPExponent:
    # 2^p overflows float64 from p = 1024 on
    @pytest.mark.parametrize("bad", [0.5, 0.99, 0.0, -1.0, 1024, 1e9, math.inf, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="1 <= p < 1024"):
            PExponent(bad)

    @pytest.mark.parametrize("ok", [1, 1.0, 1.5, 2, 3.25, 100.0, 1023, 1023.999, np.int64(3), np.float32(1.5)])
    def test_accepts_valid(self, ok):
        assert PExponent(ok).value == float(ok)
        assert as_exponent(ok) == PExponent(ok)

    # float() reads a bool as 0 or 1 and a numeric string as its number
    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "1.5", None, [2.0]])
    def test_rejects_what_is_not_a_real_number(self, bad):
        for make in (PExponent, as_exponent):
            with pytest.raises(ValueError, match="^norm exponent must be a number"):
                make(bad)


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


class TestNorm:
    def test_unit_coordinate(self):
        assert row_pnorms(np.array([[1.0, 0.0, 0.0]]), 2)[0] == 1.0

    def test_l1_sum(self):
        assert row_pnorms(np.array([[1.0, 1.0]]), 1)[0] == 2.0

    def test_fractional_exponent_matches_oracle(self):
        x = np.array([0.3, -0.4, 0.5, 0.1])
        assert row_pnorms(x[None], 1.5)[0] == pytest.approx(NORM_15, abs=1e-15)
        assert abs_power(x, 1.5).sum() == pytest.approx(NORM_15_POWER_SUM, abs=1e-15)
        assert mp_pnorm(x, 1.5) == pytest.approx(NORM_15, abs=1e-15)

    def test_zero_iff_zero_vector(self):
        rows = np.random.default_rng(3).standard_normal((50, 5))
        rows[::7] = 0.0
        zero_rows = np.all(rows == 0.0, axis=1)
        np.testing.assert_array_equal(row_pnorms(rows, 1.5) == 0.0, zero_rows)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("alpha", [-2.0, -1.0, 0.5, 3.0])
    def test_homogeneity(self, p, alpha):
        rows = np.random.default_rng(11).standard_normal((40, 24))
        np.testing.assert_allclose(row_pnorms(alpha * rows, p), abs(alpha) * row_pnorms(rows, p), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_triangle_inequality_1000_triples(self, p):
        rng = np.random.default_rng(int(p * 17))
        for _ in range(1000):
            # condensed order: d(a,b), d(a,c), d(b,c)
            ab, ac, bc = pairwise_pnorm_all(rng.uniform(-1, 1, (3, 12)), p)
            assert ac <= ab + bc + 1e-12

    def test_monotone_in_p_on_unit_cube(self):
        rows = np.random.default_rng(5).uniform(-1, 1, (100, 16))
        grid = [1.0, 1.3, 1.5, 2.0, 2.5, 3.0, 4.0]
        norms = [row_pnorms(rows, p) for p in grid]
        for lo, hi in zip(norms, norms[1:]):
            assert np.all(hi <= lo + 1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_norm_nonnegative_and_bounded_by_l1(self, coords):
        x = np.array([coords], dtype=float)
        n1, n2 = row_pnorms(x, 1)[0], row_pnorms(x, 2)[0]
        assert n2 >= 0.0
        assert n2 <= n1 + 1e-9 * max(1.0, n1)


class TestDistance:
    def test_identity(self):
        x = np.array([0.2, -0.7, 1.0])
        assert pairwise_pnorm_all(np.stack([x, x]), 2)[0] == 0.0

    def test_orthonormal_pair(self):
        assert pairwise_pnorm_all(np.eye(2), 2)[0] == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_matches_coordinate_oracle_l1(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rows = rng.standard_normal((2, 40))
            rows /= row_pnorms(rows, 1)[:, None]
            oracle = math.fsum(np.abs(rows[0] - rows[1]).tolist())
            assert pairwise_pnorm_all(rows, 1)[0] == pytest.approx(oracle, abs=1e-14)

    def test_symmetry(self):
        x, y = [1.0, 2.5, -3.0], [0.0, 1.0, 4.0]
        assert pairwise_pnorm_all(np.array([x, y]), 1.5)[0] == pairwise_pnorm_all(np.array([y, x]), 1.5)[0]


class TestNormalize:
    """Rows divided by their row_pnorms lie on the unit sphere; a zero row has no direction."""

    @pytest.mark.parametrize(
        "coords,p,expected",
        [((2, 0), 2, (1, 0)), ((1, 1), 1, (0.5, 0.5)), ((3, 4), 2, (0.6, 0.8))],
    )
    def test_examples(self, coords, p, expected):
        rows = np.array([coords], dtype=float)
        np.testing.assert_allclose(rows / row_pnorms(rows, p)[:, None], [expected], atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="off the unit sphere"):
            mazur_map_rows(np.zeros((1, 3)), 2, 2)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_unit_norm_within_tolerance(self, p):
        rng = np.random.default_rng(23)
        rows = rng.standard_normal((100, 200)) * 10.0 ** rng.integers(-3, 4, size=(100, 1))
        unit = rows / row_pnorms(rows, p)[:, None]
        assert np.abs(row_pnorms(unit, p) - 1.0).max() <= 1e-12


class TestDirectSum:
    """The p-norm of concatenated blocks, to the p-th power, is the sum of the blocks' norms^p."""

    def test_single_block(self):
        b = np.array([0.3, -0.4, 0.5, 0.1])
        assert row_pnorms(np.concatenate([b])[None], 1.5)[0] == pytest.approx(mp_pnorm(b, 1.5), abs=1e-15)

    def test_two_unit_blocks_pythagorean(self):
        row = np.concatenate([[1.0, 0.0], [0.0, 1.0]])
        assert row_pnorms(row[None], 2)[0] == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_three_blocks_p3(self):
        row = np.concatenate([[1.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert row_pnorms(row[None], 3)[0] == pytest.approx(17.0 ** (1.0 / 3.0), abs=1e-14)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_norm_identity_on_random_blocks(self, p):
        rng = np.random.default_rng(int(p * 31))
        for _ in range(50):
            blocks = [rng.standard_normal(rng.integers(1, 9)) for _ in range(5)]
            expected = math.fsum(row_pnorms(b[None], p)[0] ** p for b in blocks) ** (1.0 / p)
            assert row_pnorms(np.concatenate(blocks)[None], p)[0] == pytest.approx(expected, abs=1e-12)

    def test_empty_rejected(self):
        # an embedding is the direct sum of its level blocks; one with none is refused
        E = build_embedding(generate("path", 2), p=1.0, level_count=1)
        payload = embedding_to_json(E)
        payload["schedule"] = []
        payload["images"] = {label: [] for label in payload["images"]}
        with pytest.raises(ValueError, match="malformed embedding payload: schedule must list at least one level"):
            embedding_from_json(payload, E.space)


class TestBatchHelpers:
    """The array kernels against the 50-digit mpmath oracle."""

    @pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0])
    def test_row_pnorms_match_contract(self, p):
        rng = np.random.default_rng(int(p * 100))
        rows = rng.standard_normal((20, 30))
        batch = row_pnorms(rows, p)
        for i in range(20):
            assert batch[i] == pytest.approx(mp_pnorm(rows[i], p), rel=1e-13)

    @pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 2.5, 3.0])
    def test_all_pairs_scan_matches_contract(self, p):
        rng = np.random.default_rng(int(p * 101))
        rows = rng.standard_normal((12, 7))
        cond = pairwise_pnorm_all(rows, p)
        k = 0
        for i in range(12):
            for j in range(i + 1, 12):
                expected = mp_pnorm(rows[i] - rows[j], p)
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


def _masked_abs_power(values, p):
    """The power kernel with the zero mask of its fractional branch: log and
    exp on the nonzero entries only, zeros left as they are."""
    buf = np.abs(np.array(values, dtype=np.float64))
    if p == 1.0:
        return buf
    if p == 2.0:
        return buf * buf
    if p == float(int(p)):
        return buf ** int(p)
    if 2.0 * p == float(int(2.0 * p)):
        k = int(p - 0.5)
        return np.sqrt(buf) if not k else buf ** k * np.sqrt(buf)
    nz = buf > 0.0
    np.log(buf, out=buf, where=nz)
    buf *= p
    np.exp(buf, out=buf, where=nz)
    return buf


def _row_at_a_time_scan(rows, p):
    """The all-pairs scan one row i at a time, through the masked kernel."""
    n = rows.shape[0]
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        m = n - 1 - i
        out[pos:pos + m] = _masked_abs_power(rows[i + 1:] - rows[i], p).sum(axis=1)
        pos += m
    return out


SCAN_EXPONENTS = [1.0, 1.3, 1.5, 2.0, 2.5, 3.0]


class TestBlockedScan:
    """pairwise_power_sums_all against the row-at-a-time masked scan, bit for bit.

    _subset_rows has 23 rows, so row i has 22 - i pairs: blocks capped at 1
    pair hold one row each, at 50 pairs rows 0-1 then more rows, and at 63
    pairs the first block is exactly full and the last (rows 17-21) partial.
    """

    @pytest.mark.parametrize("p", SCAN_EXPONENTS)
    @pytest.mark.parametrize("width", [1, 40])
    @pytest.mark.parametrize("cap_pairs", [None, 1, 50, 63])
    def test_bits_match_row_reference(self, p, width, cap_pairs, monkeypatch):
        if cap_pairs is not None:
            monkeypatch.setattr(lp_core, "PAIR_BLOCK_ELEMS", cap_pairs * width)
        rows = np.ascontiguousarray(_subset_rows()[:, 40 - width:])
        got = pairwise_power_sums_all(rows, p)
        want = _row_at_a_time_scan(rows, p)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "cap_pairs,blocks",
        [(None, [253]), (1, list(range(22, 0, -1))), (50, [43, 39, 35, 45, 46, 45]), (63, [63, 54, 58, 63, 15])],
    )
    def test_block_boundaries(self, cap_pairs, blocks, monkeypatch):
        if cap_pairs is not None:
            monkeypatch.setattr(lp_core, "PAIR_BLOCK_ELEMS", cap_pairs * 40)
        seen = []
        kernel = lp_core._abs_power_inplace

        def spy(buf, p):
            seen.append(buf.shape[0])
            return kernel(buf, p)

        monkeypatch.setattr(lp_core, "_abs_power_inplace", spy)
        pairwise_power_sums_all(_subset_rows(), 1.3)
        assert seen == blocks

    @pytest.mark.parametrize("p", SCAN_EXPONENTS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_few_rows(self, p, n):
        rows = _subset_rows()[[3, 7, 12][:n]]  # rows 3 and 7 are equal
        got = pairwise_power_sums_all(rows, p)
        assert got.shape == (n * (n - 1) // 2,)
        assert np.array_equal(got.view(np.uint64), _row_at_a_time_scan(rows, p).view(np.uint64))

    @pytest.mark.parametrize("p", [1.3, 2.7])
    def test_fractional_zeros_are_positive_zero(self, p):
        out = abs_power(np.array([0.0, -0.0, 1.0]), p)
        assert list(out.view(np.uint64)[:2]) == [0, 0]

    @pytest.mark.parametrize("p", [1.3, 2.7])
    def test_fractional_inf_and_nan_keep_masked_bits(self, p):
        v = np.array([np.inf, -np.inf, np.nan, -np.nan])
        got = abs_power(v, p)
        assert np.array_equal(got.view(np.uint64), _masked_abs_power(v, p).view(np.uint64))
