"""Kernel factorization, condition measurement, and level calibration."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lpembed import kernel_sphere_maps
from lpembed.coarse_embedder import default_kernel_kind, default_level_count
from lpembed.kernel_sphere_maps import (
    CalibrationError,
    NotNegativeType,
    build_level_family,
    build_sphere_map,
    calibrate_level,
    kernel_matrix,
    measure_conditions,
    verify_family,
)
from lpembed.lp_core import as_exponent, pairwise_pnorm_all, row_pnorms
from lpembed.metric_spaces import FiniteMetricSpace, generate

# closed-form max bandwidth for a two-point space at distance 1 under the
# laplacian kernel at p = 2: sqrt(2(1 - e^-t)) = 2^-n  =>  t*(n) = -ln(1 - 2^(-2n-1))
T_STAR = {1: 0.13353139262452262, 2: 0.0317486983145803, 3: 0.007843177461025893}


def two_point(d=1.0):
    return FiniteMetricSpace(labels=("a", "b"), dist=np.array([[0.0, d], [d, 0.0]]))


def claw():
    # star K_{1,3}: center at distance 1 from three leaves, leaves mutually at 2;
    # its squared distances are not of negative type, so the gaussian kernel
    # must be rejected at small bandwidth
    d = np.array(
        [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]],
        dtype=float,
    )
    return FiniteMetricSpace(labels=("c", "x", "y", "z"), dist=d)


class TestBuildSphereMap:
    def test_two_point_gram_identity(self):
        t, d = 0.7, 1.3
        V = build_sphere_map(two_point(d), t, "laplacian")
        expected = math.sqrt(2.0 * (1.0 - math.exp(-t * d)))
        got = float(np.linalg.norm(V[0] - V[1]))
        assert got == pytest.approx(expected, abs=1e-8)

    def test_small_bandwidth_collapses_images(self):
        X = generate("cycle", 7)
        V = build_sphere_map(X, 1e-9, "laplacian")
        assert pairwise_pnorm_all(V, 2.0).max() <= 1e-3

    def test_hypercube3_eigenvalues_match_tensor_oracle(self):
        # laplacian kernel on {0,1}^3 is the 3-fold tensor power of
        # [[1, a], [a, 1]] with a = e^-t: eigenvalues (1+a)^(3-w) (1-a)^w
        X = generate("hypercube", 3)
        t = 0.5
        a = math.exp(-t)
        K = kernel_matrix(X, t, "laplacian")
        got = np.sort(np.linalg.eigvalsh(K))
        expected = np.sort(
            [(1 + a) ** (3 - w) * (1 - a) ** w for w in range(4) for _ in range(math.comb(3, w))]
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert got.min() > 0

    @pytest.mark.parametrize("kind,t", [("laplacian", 0.5), ("gaussian", 0.05)])
    def test_gram_reconstruction_within_1e8(self, kind, t):
        X = generate("hypercube", 3) if kind == "laplacian" else generate("gaussian", 40, seed=2)
        K = kernel_matrix(X, t, kind)
        V = build_sphere_map(X, t, kind)
        assert np.abs(V @ V.T - K).max() <= 1e-8

    def test_image_distances_match_gram_formula(self):
        X = generate("gaussian", 30, seed=11)
        t = 0.2
        K = kernel_matrix(X, t, "gaussian")
        V = build_sphere_map(X, t, "gaussian")
        ii, jj = X.pair_indices()
        expected = np.sqrt(2.0 * (1.0 - K[ii, jj]))
        np.testing.assert_allclose(pairwise_pnorm_all(V, 2.0), expected, atol=1e-8)

    def test_unit_rows(self):
        V = build_sphere_map(generate("path", 9), 0.3, "laplacian")
        assert np.abs(row_pnorms(V, 2.0) - 1.0).max() <= 1e-12

    def test_non_negative_type_kernel_rejected(self):
        with pytest.raises(NotNegativeType, match="eigenvalue"):
            build_sphere_map(claw(), 0.1, "gaussian")

    def test_same_space_laplacian_accepted(self):
        V = build_sphere_map(claw(), 0.1, "laplacian")
        assert V.shape == (4, 4)

    def test_bad_kernel_kind(self):
        with pytest.raises(ValueError):
            kernel_matrix(two_point(), 1.0, "cauchy")

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            kernel_matrix(two_point(), 0.0, "laplacian")


class TestMeasureConditions:
    def test_r_zero_sup_is_zero(self):
        X = generate("cycle", 5)
        V = build_sphere_map(X, 0.4, "laplacian")
        sup, _ = measure_conditions(V, X, 0.0, 1.0, 2.0)
        assert sup == 0.0

    def test_s_beyond_diameter_inf_is_infinite(self):
        X = generate("cycle", 5)
        V = build_sphere_map(X, 0.4, "laplacian")
        _, inf_far = measure_conditions(V, X, 1.0, X.diameter() + 1.0, 2.0)
        assert inf_far == math.inf

    def test_two_point_single_pair(self):
        X = two_point()
        V = build_sphere_map(X, 0.4, "laplacian")
        sup, inf_far = measure_conditions(V, X, 1.0, 1.0, 2.0)
        d = float(np.linalg.norm(V[0] - V[1]))
        assert sup == pytest.approx(d, abs=1e-15)
        assert inf_far == pytest.approx(d, abs=1e-15)


class TestCalibrateLevel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_point_bandwidth_matches_closed_form(self, n):
        # bisection/interpolation must land just below the closed-form optimum
        lvl = calibrate_level(two_point(), n, 2.0, 1.0, "laplacian")
        assert lvl.bandwidth_t <= T_STAR[n] * (1 + 1e-9)
        assert lvl.bandwidth_t >= T_STAR[n] * 0.80
        assert lvl.epsilon_n <= 2.0 ** (-n)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_certificates_remesured(self, p):
        X = generate("hypercube", 4)
        lvl = calibrate_level(X, 2, p, 1.0, "laplacian")
        sup, inf_far = measure_conditions(lvl.images, X, lvl.level_n, lvl.s_n, p)
        assert sup == lvl.epsilon_n
        assert sup <= 0.25
        assert inf_far >= 0.5

    def test_level_beyond_diameter_bounds_all_pairs(self):
        X = generate("hypercube", 3)
        lvl = calibrate_level(X, 5, 1.0, 1.0, "laplacian")
        assert pairwise_pnorm_all(lvl.images, 1.0).max() <= 2.0 ** -5

    def test_unreachable_delta_raises(self):
        # at p = 1 the transport-guaranteed far ceiling is 1.0, so delta/2 > 1 fails
        with pytest.raises(CalibrationError, match="ceiling"):
            calibrate_level(generate("hypercube", 3), 1, 1.0, 2.5, "laplacian")

    def test_monotone_kernel_sup_at_max_close_distance(self):
        # at p = 2 the image distance is increasing in source distance, so the
        # close sup sits exactly on the largest close distance class
        X = generate("path", 12)
        lvl = calibrate_level(X, 3, 2.0, 1.0, "laplacian")
        ii, jj = X.pair_indices()
        d = X.dist[ii, jj]
        pair_d = pairwise_pnorm_all(lvl.images, 2.0)
        close = d <= 3
        assert lvl.epsilon_n == pytest.approx(pair_d[close][d[close] == 3].max(), abs=1e-15)

    def test_images_unit_norm_at_target_exponent(self):
        lvl = calibrate_level(generate("cycle", 9), 2, 1.5, 1.0, "laplacian")
        assert np.abs(row_pnorms(lvl.images, 1.5) - 1.0).max() <= 1e-9

    def test_bad_level_index(self):
        with pytest.raises(ValueError):
            calibrate_level(two_point(), 0, 2.0, 1.0, "laplacian")

    def test_previous_without_pair_distances_rejected(self):
        X = generate("cycle", 8)
        first = calibrate_level(X, 1, 1.5, 1.0, "laplacian")
        bare = replace(first, images=None, pair_distances=None)
        with pytest.raises(ValueError, match="must carry its images"):
            calibrate_level(X, 2, 1.5, 1.0, "laplacian", previous=bare)


class TestFamily:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_family_passes_verification(self, p):
        X = generate("hypercube", 4)
        fam = build_level_family(X, 6, p, 1.0, "laplacian")
        assert verify_family(fam) == []

    def test_thresholds_strictly_increasing_with_small_delta(self):
        # small delta keeps several levels non-saturated, exercising the
        # strict-increase enforcement
        X = generate("path", 30)
        fam = build_level_family(X, 5, 2.0, 0.4, "laplacian")
        finite = [lvl.s_n for lvl in fam.levels if not lvl.saturated]
        assert len(finite) >= 2
        assert all(b > a for a, b in zip(finite, finite[1:]))

    def test_epsilon_schedule_dyadic(self):
        fam = build_level_family(generate("cycle", 8), 5, 1.0, 1.0, "laplacian")
        for lvl in fam.levels:
            assert lvl.epsilon_n <= 2.0 ** (-lvl.level_n)

    def test_family_without_images_rejected(self):
        fam = build_level_family(generate("cycle", 8), 4, 1.0, 1.0, "laplacian")
        bare = replace(fam, levels=tuple(replace(level, images=None, pair_distances=None) for level in fam.levels))
        with pytest.raises(ValueError, match="no images to verify"):
            verify_family(bare)

    def test_gaussian_space_with_gaussian_kernel(self):
        X = generate("gaussian", 40, seed=3)
        fam = build_level_family(X, 4, 1.5, 1.0, "gaussian")
        assert verify_family(fam) == []

    def test_tampered_family_problems_from_one_scan_per_level(self, monkeypatch):
        X = generate("hypercube", 4)
        fam = build_level_family(X, 6, 1.0, 1.0, "laplacian")
        lv = list(fam.levels)
        lv[0] = replace(lv[0], epsilon_n=lv[0].epsilon_n / 2.0)
        lv[1] = replace(lv[1], s_n=1.0)
        lv[2] = replace(lv[2], images=lv[2].images * 3.0)
        lv[3] = replace(lv[3], epsilon_n=1.0, s_n=0.5)
        fam = replace(fam, levels=tuple(lv))

        # the oracle: measure_conditions plus a separate scan for the largest distance
        expected = []
        prev_s = 0.0
        for level in fam.levels:
            n = level.level_n
            worst = float(np.abs(row_pnorms(level.images, 1.0) - 1.0).max())
            if worst > kernel_sphere_maps.UNIT_TOL:
                expected.append(f"level {n}: image off unit sphere by {worst:.3e}")
            sup, inf_far = measure_conditions(level.images, X, n, level.s_n, 1.0)
            if sup > level.epsilon_n:
                expected.append(f"level {n}: measured sup {sup!r} exceeds certificate {level.epsilon_n!r}")
            if inf_far < fam.delta / 2.0:
                expected.append(f"level {n}: measured inf {inf_far!r} below certificate {fam.delta / 2.0!r}")
            if level.epsilon_n > 2.0 ** (-n):
                expected.append(f"level {n}: epsilon {level.epsilon_n!r} above 2^-{n}")
            if not level.saturated:
                if level.s_n <= prev_s:
                    expected.append(f"level {n}: S_n {level.s_n!r} not above previous {prev_s!r}")
                prev_s = level.s_n
            top = float(pairwise_pnorm_all(level.images, 1.0).max())
            if top > 2.0 + 1e-9:
                expected.append(f"level {n}: image distance {top!r} above 2")
        assert len(expected) >= 6

        scans = []
        real = kernel_sphere_maps.pairwise_pnorm_all
        monkeypatch.setattr(
            kernel_sphere_maps, "pairwise_pnorm_all", lambda rows, p: scans.append(1) or real(rows, p)
        )
        assert verify_family(fam) == expected
        assert len(scans) == len(fam.levels)


def full_scan_sup(images, p, ci, cj, top):
    """The close-pair sup as one scan of all pairs measures it."""
    n = images.shape[0]
    condensed = ci * n - ci * (ci + 1) // 2 + (cj - ci - 1)
    return float(pairwise_pnorm_all(images, p)[condensed].max())


def split_sup(images, p, ci, cj, top=1):
    return kernel_sphere_maps._split_close_sup(images, as_exponent(p), np.asarray(ci), np.asarray(cj), top)


class TestSplitSup:
    """The pruned sup on pairs built to sit on the edge of its bound.

    Rows 0 and 1 form the pair X, rows 2 and 3 the top pair, whose power sum
    is the lower bound L.
    """

    @pytest.mark.parametrize("p", [1.0, 1.3, 2.0, 3.0])
    def test_light_columns_decide_the_sup(self, p):
        # X has opposite signs in its three light columns, the equality case
        # of |a-b|^p <= 2^(p-1)(|a|^p + |b|^p): they add A = 2^p m to its sum,
        # just under the 1e-2 L light budget, and lift it above L = 1
        A = 0.009
        rows = np.zeros((4, 4))
        rows[0, :3] = (A / 2.0**p / 3.0) ** (1.0 / p)
        rows[1, :3] = -rows[0, :3]
        rows[0, 3] = (1.0 - 0.9 * A) ** (1.0 / p)
        rows[2, 3] = 1.0
        got = split_sup(rows, p, [0, 2], [1, 3])
        assert got > 1.0
        assert got == full_scan_sup(rows, p, np.array([0, 2]), np.array([1, 3]), 1)

    def test_pair_one_ulp_above_the_lower_bound_found(self):
        # the bound and the full sum round differently; with L one ulp under
        # X's sum, X must still be rescanned
        rng = np.random.default_rng(11)
        for _ in range(300):
            rows = np.zeros((4, 108))
            rows[0, :8] = rng.uniform(0.0, 1e-5, 8)
            rows[1, :8] = -rows[0, :8]
            rows[0, 8:] = rng.uniform(0.0, 1.0, 100) * 10.0 ** rng.uniform(-2.0, 0.0, 100)
            x_sum = float(pairwise_pnorm_all(rows[:2], 1.0)[0])
            rows[2, -1] = np.nextafter(x_sum, 0.0)
            assert split_sup(rows, 1.0, [0, 2], [1, 3]) == x_sum

    def test_every_pair_close_no_light_column(self):
        # the partial sums cover every pair at full width; still the scan's sup
        rows = np.random.default_rng(3).standard_normal((6, 6))
        ci, cj = np.triu_indices(6, 1)
        assert split_sup(rows, 1.5, ci, cj, 6) == full_scan_sup(rows, 1.5, ci, cj, 6)


SPLIT_CASES = [
    (("gaussian", 80), 1.3),
    (("gaussian", 80), 3.0),
    (("hypercube", 6), 2.0),
    (("cycle", 64), 1.0),
    (("gaussian", 48), 1.3),
    (("cycle", 8), 1.5),
    (("path", 6), 1.0),
    (("hypercube", 3), 2.0),
]


class TestSplitEquivalence:
    @pytest.mark.parametrize("case", SPLIT_CASES, ids=lambda c: f"{c[0][0]}{c[0][1]}-p{c[1]}")
    def test_family_bits_match_full_scan_sup(self, case, monkeypatch):
        (kind, param), p = case
        X = generate(kind, param, seed=3) if kind == "gaussian" else generate(kind, param)
        args = (X, default_level_count(X), p, 1.0, default_kernel_kind(X))

        real_split = kernel_sphere_maps._split_close_sup
        real_subset = kernel_sphere_maps.pair_subset_power_sums
        ran = {"split": 0, "partial": 0}

        def spy_split(images, *rest):
            ran["split"] += 1
            return real_split(images, *rest)

        def spy_subset(rows, ii, jj, pv):
            ran["partial"] += rows.shape[1] < X.n
            return real_subset(rows, ii, jj, pv)

        monkeypatch.setattr(kernel_sphere_maps, "_split_close_sup", spy_split)
        monkeypatch.setattr(kernel_sphere_maps, "pair_subset_power_sums", spy_subset)
        pruned = build_level_family(*args)
        monkeypatch.setattr(kernel_sphere_maps, "_split_close_sup", full_scan_sup)
        reference = build_level_family(*args)

        assert ran["split"] > 0
        # on the short path no leading column is light enough to leave out
        assert ran["partial"] > 0 or kind == "path"
        assert_same_levels(pruned, reference)


def assert_same_levels(family, reference):
    assert len(family.levels) == len(reference.levels)
    for a, b in zip(family.levels, reference.levels):
        assert a.bandwidth_t == b.bandwidth_t
        assert a.epsilon_n == b.epsilon_n
        assert a.s_n == b.s_n
        assert np.array_equal(a.images.view(np.uint64), b.images.view(np.uint64))
        assert np.array_equal(a.pair_distances.view(np.uint64), b.pair_distances.view(np.uint64))


def default_family_args(kind, param, p):
    X = generate(kind, param, seed=3) if kind == "gaussian" else generate(kind, param)
    return (X, default_level_count(X), p, 1.0, default_kernel_kind(X))


def spy_factor(monkeypatch):
    """Bandwidths that build_sphere_map factors, in call order."""
    calls = []
    real = kernel_sphere_maps.build_sphere_map

    def spy(space, t, kind):
        calls.append(t)
        return real(space, t, kind)

    monkeypatch.setattr(kernel_sphere_maps, "build_sphere_map", spy)
    return calls


def spy_scans(monkeypatch):
    """Row counts of the all-pairs scans that calibration makes, in call order."""
    scans = []
    real = kernel_sphere_maps.pairwise_pnorm_all

    def spy(rows, p):
        scans.append(rows.shape[0])
        return real(rows, p)

    monkeypatch.setattr(kernel_sphere_maps, "pairwise_pnorm_all", spy)
    return scans


def no_reuse(monkeypatch):
    monkeypatch.setattr(kernel_sphere_maps, "_same_kernel", lambda kernel, earlier: False)


REUSE_CASES = [
    (("gaussian", 80), 1.3),
    (("gaussian", 80), 3.0),
    (("hypercube", 6), 2.0),
    (("cycle", 64), 1.0),
]
# the default schedule runs into the float64 floor on these (ROADMAP item 2)
REFUSAL_CASES = [
    (("path", 30), 2.0),
    (("cycle", 48), 2.0),
    (("path", 48), 1.0),
]


class TestKernelReuse:
    """A kernel bit-identical to one already measured is not factored again."""

    @pytest.mark.parametrize("case", REUSE_CASES, ids=lambda c: f"{c[0][0]}{c[0][1]}-p{c[1]}")
    def test_family_bits_match_without_reuse(self, case, monkeypatch):
        (kind, param), p = case
        args = default_family_args(kind, param, p)
        calls = spy_factor(monkeypatch)
        reused = build_level_family(*args)
        factored = len(calls)
        no_reuse(monkeypatch)
        reference = build_level_family(*args)
        assert factored <= len(calls) - factored
        assert_same_levels(reused, reference)

    def test_refusals_same_text_with_fewer_factorizations(self, monkeypatch):
        calls = spy_factor(monkeypatch)
        counts = []
        for reuse in (True, False):
            if not reuse:
                no_reuse(monkeypatch)
            messages = []
            del calls[:]
            for (kind, param), p in REFUSAL_CASES:
                before = len(calls)
                with pytest.raises(CalibrationError, match="closeness target") as info:
                    build_level_family(*default_family_args(kind, param, p))
                messages.append(str(info.value))
                counts.append(len(calls) - before)
            if reuse:
                reused_messages = messages
        assert messages == reused_messages
        reused, reference = counts[:3], counts[3:]
        assert all(a < b for a, b in zip(reused, reference))
        # path(48) at p=1 alone stays near half: its 45 calibrated levels each
        # factor distinct kernels; the refusing level factors once, not 200 times
        assert 2 * sum(reused) < sum(reference)

    def test_accepted_previous_bandwidth_shares_the_measurement(self, monkeypatch):
        # no pair is within distance 4, so levels 1..4 all take the capped
        # bandwidth, and levels 2..4 reuse level 1's kernel and pair distances
        calls = spy_factor(monkeypatch)
        scans = spy_scans(monkeypatch)
        fam = build_level_family(two_point(5.0), 4, 1.5, 1.0, "laplacian")
        assert calls == [kernel_sphere_maps.T_CAP]
        assert scans == [2]
        first = fam.levels[0]
        assert not first.pair_distances.flags.writeable
        for level in fam.levels[1:]:
            assert level.bandwidth_t == first.bandwidth_t
            assert level.images is first.images
            assert level.pair_distances is first.pair_distances
        no_reuse(monkeypatch)
        assert_same_levels(fam, build_level_family(two_point(5.0), 4, 1.5, 1.0, "laplacian"))

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_one_all_pairs_scan_per_level(self, p, monkeypatch):
        # every bandwidth tried measures only its close-pair sup
        scans = spy_scans(monkeypatch)
        fam = build_level_family(*default_family_args("path", 12, p))
        assert len(fam.levels) == 13
        assert scans == [12] * 13

    def test_previous_from_other_exponent_rejected(self):
        X = generate("hypercube", 3)
        level = calibrate_level(X, 1, 1.0, 1.0, "laplacian")
        with pytest.raises(ValueError, match="previous level"):
            calibrate_level(X, 2, 2.0, 1.0, "laplacian", previous=level)
        with pytest.raises(ValueError, match="previous level"):
            calibrate_level(generate("hypercube", 2), 2, 1.0, 1.0, "laplacian", previous=level)


def loop_threshold(d_sorted, pair_d_sorted, delta_half, s_floor):
    """S_n by walking the distinct distances in ascending order."""
    suffix_inf = np.minimum.accumulate(pair_d_sorted[::-1])[::-1]
    starts = np.nonzero(np.r_[True, d_sorted[1:] != d_sorted[:-1]])[0]
    for idx in starts:
        if d_sorted[idx] <= s_floor:
            continue
        if suffix_inf[idx] >= delta_half:
            return float(d_sorted[idx])
    return math.inf


class TestSeparationThreshold:
    @pytest.mark.parametrize(
        "kind,param,p,delta,levels",
        [
            ("path", 30, 2.0, 0.4, 5),
            ("hypercube", 4, 1.0, 1.0, None),
            ("gaussian", 60, 1.3, 1.0, None),
            ("cycle", 12, 1.5, 0.6, None),
        ],
    )
    def test_mask_matches_loop(self, kind, param, p, delta, levels):
        X = generate(kind, param, seed=5) if kind == "gaussian" else generate(kind, param)
        fam = build_level_family(X, levels or default_level_count(X), p, delta, default_kernel_kind(X))
        ii, jj = X.pair_indices()
        d = X.dist[ii, jj]
        order = np.argsort(d, kind="stable")
        d_sorted = d[order]
        distinct = np.unique(d)
        floors = [0.0, float(distinct[0]), float(distinct[len(distinct) // 2]), float(distinct[-1])]
        s_floor = 0.0
        saturated = 0
        for level in fam.levels:
            pair_sorted = level.pair_distances[order]
            # the built S_n is the loop's at the family's floor
            assert level.s_n == loop_threshold(d_sorted, pair_sorted, delta / 2.0, s_floor)
            for floor in floors + [s_floor, level.s_n]:
                for half in (delta / 2.0, delta / 8.0):
                    got = kernel_sphere_maps._separation_threshold(d_sorted, pair_sorted, half, floor)
                    assert got == loop_threshold(d_sorted, pair_sorted, half, floor)
            saturated += level.saturated
            if not level.saturated:
                s_floor = level.s_n
        assert saturated > 0

    def test_empty_and_single_distance(self):
        empty = np.empty(0)
        assert kernel_sphere_maps._separation_threshold(empty, empty, 0.5, 0.0) == math.inf
        ones = np.ones(6)
        assert kernel_sphere_maps._separation_threshold(ones, np.full(6, 0.7), 0.5, 0.0) == 1.0
        assert kernel_sphere_maps._separation_threshold(ones, np.full(6, 0.7), 0.5, 1.0) == math.inf
