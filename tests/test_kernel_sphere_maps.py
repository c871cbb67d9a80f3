"""Kernel factorization, condition measurement, and level calibration."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conftest
from conftest import LADDER_SPECS, level_power_sums, verify_levels, without_separation_end
from lpembed import kernel_sphere_maps
from lpembed.coarse_embedder import (
    CoarseEmbedding,
    build_embedding,
    default_level_count,
    embedding_from_json,
    embedding_to_json,
)
from lpembed.kernel_sphere_maps import (
    CalibrationError,
    NotNegativeType,
    SphereMapLevel,
    build_level_family,
    build_sphere_map,
    calibrate_level,
    kernel_matrix,
    measure_conditions,
)
from lpembed.lp_core import abs_power, as_exponent, pairwise_pnorm_all, row_pnorms
from lpembed.metric_spaces import FiniteMetricSpace, generate

# closed-form max bandwidth for a two-point space at distance 1 under the
# kernel exp(-t d) (beta = 1) at p = 2: sqrt(2(1 - e^-t)) = 2^-n  =>  t*(n) = -ln(1 - 2^(-2n-1))
T_STAR = {1: 0.13353139262452262, 2: 0.0317486983145803, 3: 0.007843177461025893}


def two_point(d=1.0):
    return FiniteMetricSpace(labels=("a", "b"), dist=np.array([[0.0, d], [d, 0.0]]))


def claw():
    # star K_{1,3}: center at distance 1 from three leaves, leaves mutually at 2;
    # its squared distances are not of negative type, so beta = 2's kernel
    # must be rejected at small bandwidth
    d = np.array(
        [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]],
        dtype=float,
    )
    return FiniteMetricSpace(labels=("c", "x", "y", "z"), dist=d)


class TestBuildSphereMap:
    def test_two_point_gram_identity(self):
        t, d = 0.7, 1.3
        V = build_sphere_map(two_point(d), t, 1.0)
        expected = math.sqrt(2.0 * (1.0 - math.exp(-t * d)))
        got = float(np.linalg.norm(V[0] - V[1]))
        assert got == pytest.approx(expected, abs=1e-8)

    def test_small_bandwidth_collapses_images(self):
        X = generate("cycle", 7)
        V = build_sphere_map(X, 1e-9, 1.0)
        assert pairwise_pnorm_all(V, 2.0).max() <= 1e-3

    def test_hypercube3_eigenvalues_match_tensor_oracle(self):
        # exp(-t d) on {0,1}^3 is the 3-fold tensor power of
        # [[1, a], [a, 1]] with a = e^-t: eigenvalues (1+a)^(3-w) (1-a)^w
        X = generate("hypercube", 3)
        t = 0.5
        a = math.exp(-t)
        K = kernel_matrix(X, t, 1.0)
        got = np.sort(np.linalg.eigvalsh(K))
        expected = np.sort(
            [(1 + a) ** (3 - w) * (1 - a) ** w for w in range(4) for _ in range(math.comb(3, w))]
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert got.min() > 0

    @pytest.mark.parametrize("beta,t", [(1.0, 0.5), (2.0, 0.05)])
    def test_gram_reconstruction_within_1e8(self, beta, t):
        X = generate("hypercube", 3) if beta == 1.0 else generate("gaussian", 40, seed=2)
        K = kernel_matrix(X, t, beta)
        V = build_sphere_map(X, t, beta)
        assert np.abs(V @ V.T - K).max() <= 1e-8

    def test_image_distances_match_gram_formula(self):
        X = generate("gaussian", 30, seed=11)
        t = 0.2
        K = kernel_matrix(X, t, 2.0)
        V = build_sphere_map(X, t, 2.0)
        ii, jj = X.pair_indices()
        expected = np.sqrt(2.0 * (1.0 - K[ii, jj]))
        np.testing.assert_allclose(pairwise_pnorm_all(V, 2.0), expected, atol=1e-8)

    def test_unit_rows(self):
        V = build_sphere_map(generate("path", 9), 0.3, 1.0)
        assert np.abs(row_pnorms(V, 2.0) - 1.0).max() <= 1e-12

    def test_non_negative_type_kernel_rejected(self):
        with pytest.raises(NotNegativeType, match="eigenvalue"):
            build_sphere_map(claw(), 0.1, 2.0)

    def test_same_space_beta_one_accepted(self):
        V = build_sphere_map(claw(), 0.1, 1.0)
        assert V.shape == (4, 4)


class TestMeasureConditions:
    def test_r_zero_sup_is_zero(self):
        X = generate("cycle", 5)
        V = build_sphere_map(X, 0.4, 1.0)
        sup, _ = measure_conditions(V, X, 0.0, 1.0, 2.0)
        assert sup == 0.0

    def test_s_beyond_diameter_inf_is_infinite(self):
        X = generate("cycle", 5)
        V = build_sphere_map(X, 0.4, 1.0)
        _, inf_far = measure_conditions(V, X, 1.0, X.diameter() + 1.0, 2.0)
        assert inf_far == math.inf

    def test_two_point_single_pair(self):
        X = two_point()
        V = build_sphere_map(X, 0.4, 1.0)
        sup, inf_far = measure_conditions(V, X, 1.0, 1.0, 2.0)
        d = float(np.linalg.norm(V[0] - V[1]))
        assert sup == pytest.approx(d, abs=1e-15)
        assert inf_far == pytest.approx(d, abs=1e-15)


class TestCalibrateLevel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_point_bandwidth_matches_closed_form(self, n):
        # bisection/interpolation must land just below the closed-form optimum;
        # delta/2 = 2^-(n+1) stays under the target, so the only pair can still
        # be delta/2 apart and the separation end leaves the level to the search
        lvl, _ = calibrate_level(two_point(), n, 2.0, 2.0 ** -n, 1.0)
        assert lvl.bandwidth_t <= T_STAR[n] * (1 + 1e-9)
        assert lvl.bandwidth_t >= T_STAR[n] * 0.80
        assert lvl.epsilon_n <= 2.0 ** (-n)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_certificates_remesured(self, p):
        X = generate("hypercube", 4)
        lvl, _ = calibrate_level(X, 2, p, 1.0, 1.0)
        sup, inf_far = measure_conditions(lvl.images, X, 2, lvl.s_n, p)
        assert sup == lvl.epsilon_n
        assert sup <= 0.25
        assert inf_far >= 0.5

    def test_level_beyond_diameter_bounds_all_pairs(self):
        X = generate("hypercube", 3)
        lvl, _ = calibrate_level(X, 5, 1.0, 1.0, 1.0)
        assert pairwise_pnorm_all(lvl.images, 1.0).max() <= 2.0 ** -5

    def test_unreachable_delta_raises(self, monkeypatch):
        # at p = 1 the transport-guaranteed far ceiling is 1.0, so delta/2 > 1
        # fails, once, before any kernel is factored
        calls = spy_factor(monkeypatch)
        with pytest.raises(CalibrationError, match="separation target delta/2 = 1.25 exceeds the reachable ceiling 1"):
            build_embedding(generate("hypercube", 3), p=1.0, delta=2.5)
        assert calls == []

    @pytest.mark.parametrize("delta", [math.inf, math.nan, 0.0, -1.0])
    def test_delta_not_finite_positive_is_a_value_error(self, delta, monkeypatch):
        # the embedding's rule, before the ceiling check: inf is not unreachable, it is invalid
        calls = spy_factor(monkeypatch)
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            build_embedding(generate("hypercube", 3), p=1.0, delta=delta)
        assert calls == []

    def test_monotone_kernel_sup_at_max_close_distance(self):
        # at p = 2 the image distance is increasing in source distance, so the
        # close sup sits exactly on the largest close distance class
        X = generate("path", 12)
        lvl, _ = calibrate_level(X, 3, 2.0, 1.0, 1.0)
        ii, jj = X.pair_indices()
        d = X.dist[ii, jj]
        pair_d = pairwise_pnorm_all(lvl.images, 2.0)
        close = d <= 3
        assert lvl.epsilon_n == pytest.approx(pair_d[close][d[close] == 3].max(), abs=1e-15)

    def test_images_unit_norm_at_target_exponent(self):
        lvl, _ = calibrate_level(generate("cycle", 9), 2, 1.5, 1.0, 1.0)
        assert np.abs(row_pnorms(lvl.images, 1.5) - 1.0).max() <= 1e-9


SUMS_REFUSED = r"^pair_power_sums must hold one sum >= 0 \(no NaN\) per point pair"


class TestFamily:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_family_passes_verification(self, p):
        X = generate("hypercube", 4)
        levels, _ = build_level_family(X, 6, p, 1.0, 1.0)
        assert verify_levels(levels, X, p, 1.0) == []

    def test_thresholds_strictly_increasing_with_small_delta(self):
        # small delta keeps several levels non-saturated, exercising the
        # strict-increase enforcement
        X = generate("path", 30)
        levels, _ = build_level_family(X, 5, 2.0, 0.4, 1.0)
        finite = [lvl.s_n for lvl in levels if not lvl.saturated]
        assert len(finite) >= 2
        assert all(b > a for a, b in zip(finite, finite[1:]))

    def test_epsilon_schedule_dyadic(self):
        for n, lvl in enumerate(build_level_family(generate("cycle", 8), 5, 1.0, 1.0, 1.0)[0], 1):
            assert lvl.epsilon_n <= 2.0 ** (-n)

    def test_level_without_images_rejected(self):
        level = build_level_family(generate("cycle", 8), 4, 1.0, 1.0, 1.0)[0][1]
        for bad in (None, level.images[0], level.images[None]):
            with pytest.raises(ValueError, match=r"^images must be a \(points, width\) array"):
                replace(level, images=bad)
        with pytest.raises(TypeError, match="images"):
            SphereMapLevel(epsilon_n=0.5, s_n=math.inf, bandwidth_t=1.0)

    def test_images_one_row_per_point(self):
        E = record(generate("cycle", 8), 3)
        short = replace(E.schedule[2], images=E.schedule[2].images[:-1])
        with pytest.raises(ValueError, match="one row per point, 8 rows"):
            replace(E, schedule=E.schedule[:2] + (short,))

    def test_pair_power_sums_required(self):
        # a level keeps no pair distances; every embedding, built or read back
        # from JSON, carries the sums of their p-th powers
        E = record(generate("cycle", 8), 2)
        level = E.schedule[1]
        with pytest.raises(TypeError, match="pair_distances"):
            SphereMapLevel(
                epsilon_n=level.epsilon_n, s_n=level.s_n, bandwidth_t=level.bandwidth_t, images=level.images,
                pair_distances=np.zeros(28),
            )
        with pytest.raises(TypeError, match="pair_power_sums"):
            CoarseEmbedding(E.space, E.exponent, E.beta, E.delta, E.schedule, E.base_index)
        for bad in (None, E.pair_power_sums[None], np.float64(0.5)):
            with pytest.raises(ValueError, match=SUMS_REFUSED):
                replace(E, pair_power_sums=bad)

    @pytest.mark.parametrize("trim", [1, -1])
    def test_one_pair_power_sum_per_pair(self, trim):
        E = record(generate("cycle", 8), 3)
        sums = E.pair_power_sums
        wrong = sums[:-1] if trim > 0 else np.concatenate([sums, sums[:1]])
        with pytest.raises(ValueError, match=SUMS_REFUSED + ", 28 sums"):
            replace(E, pair_power_sums=wrong)

    @pytest.mark.parametrize("field,value,message", [
        ("epsilon_n", math.nan, "^eps must be finite and nonnegative"),
        ("epsilon_n", math.inf, "^eps must be finite and nonnegative"),
        ("epsilon_n", -1.0, "^eps must be finite and nonnegative"),
        ("bandwidth_t", math.inf, "^t must be finite and positive"),
        ("bandwidth_t", math.nan, "^t must be finite and positive"),
        ("bandwidth_t", 0.0, "^t must be finite and positive"),
        ("bandwidth_t", -2.0, "^t must be finite and positive"),
    ])
    def test_schedule_values_checked(self, field, value, message):
        level = build_level_family(generate("cycle", 8), 2, 1.0, 1.0, 1.0)[0][0]
        with pytest.raises(ValueError, match=message):
            replace(level, **{field: value})

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.5, 2.5, math.nan, -1.0, "laplacian"])
    def test_embedding_beta_checked(self, beta):
        # beta, 2 or 1, is the embedding's, one for all its levels; a file's
        # kernel name is mapped to beta before the record is made
        E = record(generate("cycle", 8), 2)
        with pytest.raises(ValueError, match=r"kernel exponent beta must be one of \(2.0, 1.0\)"):
            replace(E, beta=beta)

    @pytest.mark.parametrize("numbers", [(0, 2, 3), (2, 2, 3), (1, 3, 2), (2, 3, 4)])
    def test_level_numbers_run_from_one_in_order(self, numbers):
        # a level's n is its position in the schedule, and a file's n must be that
        E = record(generate("cycle", 8), 3)
        payload = embedding_to_json(E)
        assert [entry["n"] for entry in payload["schedule"]] == [1, 2, 3]
        for entry, n in zip(payload["schedule"], numbers):
            entry["n"] = n
        with pytest.raises(ValueError, match=r"^malformed embedding payload: level numbers n must run 1\.\.3 in order"):
            embedding_from_json(payload, E.space)

    def test_nan_images_rejected(self):
        # every comparison verify_levels makes is False on a NaN row, so it would report nothing
        E = build_embedding(generate("cycle", 8), p=1.0)
        level = E.schedule[0]
        images = level.images.copy()
        images[3] = math.nan
        with pytest.raises(ValueError, match="^images must be finite"):
            replace(level, images=images)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -0.5e-300])
    def test_nan_or_negative_pair_power_sums_rejected(self, bad):
        # verify_bounds reads these as every pair's image distance^p; NaN passes both envelopes
        E = build_embedding(generate("cycle", 8), p=1.0)
        sums = E.pair_power_sums.copy()
        sums[5] = bad
        with pytest.raises(ValueError, match=SUMS_REFUSED + ", 28 sums"):
            replace(E, pair_power_sums=sums)

    def test_gaussian_space_with_gaussian_kernel(self):
        X = generate("gaussian", 40, seed=3)
        levels, _ = build_level_family(X, 4, 1.5, 1.0, 2.0)
        assert verify_levels(levels, X, 1.5, 1.0) == []

    def test_tampered_family_problems_from_one_scan_per_level(self, monkeypatch):
        X = generate("hypercube", 4)
        lv = list(build_level_family(X, 6, 1.0, 1.0, 1.0)[0])
        lv[0] = replace(lv[0], epsilon_n=lv[0].epsilon_n / 2.0)
        lv[1] = replace(lv[1], s_n=1.0)
        lv[2] = replace(lv[2], images=lv[2].images * 3.0)
        lv[3] = replace(lv[3], epsilon_n=1.0, s_n=0.5)
        delta = 1.0

        # the oracle: measure_conditions plus a separate scan for the largest distance
        expected = []
        prev_s = 0.0
        for n, level in enumerate(lv, 1):
            worst = float(np.abs(row_pnorms(level.images, 1.0) - 1.0).max())
            if worst > conftest.UNIT_TOL:
                expected.append(f"level {n}: image off unit sphere by {worst:.3e}")
            sup, inf_far = measure_conditions(level.images, X, n, level.s_n, 1.0)
            if sup > level.epsilon_n:
                expected.append(f"level {n}: measured sup {sup!r} exceeds certificate {level.epsilon_n!r}")
            if inf_far < delta / 2.0:
                expected.append(f"level {n}: measured inf {inf_far!r} below certificate {delta / 2.0!r}")
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
        real = conftest.pairwise_pnorm_all
        monkeypatch.setattr(conftest, "pairwise_pnorm_all", lambda rows, p: scans.append(1) or real(rows, p))
        assert verify_levels(lv, X, 1.0, delta) == expected
        assert len(scans) == len(lv)


def full_scan_sup(images, p, ci, cj):
    """The close-pair sup as one scan of all pairs measures it."""
    n = images.shape[0]
    condensed = ci * n - ci * (ci + 1) // 2 + (cj - ci - 1)
    return float(pairwise_pnorm_all(images, p)[condensed].max())


GATHER_CASES = [
    (("gaussian", 80), 1.3),
    (("gaussian", 80), 3.0),
    (("hypercube", 6), 2.0),
    (("cycle", 64), 1.0),
    (("gaussian", 48), 1.3),
    (("cycle", 8), 1.5),
    (("path", 6), 1.0),
    (("hypercube", 3), 2.0),
]


def case_id(case):
    (kind, param), p = case
    return f"{kind}{param}-p{p}"


class TestGatherEquivalence:
    @pytest.mark.parametrize("case", GATHER_CASES, ids=case_id)
    def test_family_bits_match_full_scan_sup(self, case, monkeypatch):
        # every try gathers its close pairs; the reference measures every try
        # by a full scan and scans the accepted images again
        (kind, param), p = case
        args = default_family_args(kind, param, p, FINE_DELTA if p == 2.0 else 1.0)

        real_gather = kernel_sphere_maps._close_pair_sup
        gathers = []
        monkeypatch.setattr(
            kernel_sphere_maps, "_close_pair_sup", lambda *args: gathers.append(1) or real_gather(*args)
        )
        gathered, gathered_sums = build_level_family(*args)
        monkeypatch.undo()
        monkeypatch.setattr(kernel_sphere_maps, "_close_pair_sup", full_scan_sup)
        reference, reference_sums = build_level_family(*args)

        assert gathers
        assert_same_levels(gathered, reference)
        assert same_bits(gathered_sums, reference_sums)


def half_close_space(close_pairs):
    """Four points on a line, 3 of whose 6 pairs are within distance 1, or 2."""
    xs = [0.0, 1.0, 2.0, 3.0] if close_pairs == 3 else [0.0, 1.0, 2.5, 3.5]
    d = np.abs(np.subtract.outer(xs, xs))
    return FiniteMetricSpace(labels=("a", "b", "c", "d"), dist=d)


class TestGatherEveryTry:
    """Each try gathers its close pairs, also from half the pairs close on, and the accepted images are scanned once."""

    @pytest.mark.parametrize("close_pairs", [3, 2])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_gathers_at_half_the_pairs_with_scan_bits(self, close_pairs, p, beta, monkeypatch):
        X = half_close_space(close_pairs)
        ii, jj = X.pair_indices()
        assert int(np.count_nonzero(X.dist[ii, jj] <= 1.0)) == close_pairs
        real_gather = kernel_sphere_maps._close_pair_sup
        gathers = []
        monkeypatch.setattr(
            kernel_sphere_maps, "_close_pair_sup", lambda *args: gathers.append(1) or real_gather(*args)
        )
        calls = spy_factor(monkeypatch)
        scans = spy_scans(monkeypatch)
        level, pair_d = calibrate_level(X, 1, p, 1.0, beta)
        assert len(calls) >= 1
        assert len(gathers) == len(calls) and scans == [4]
        assert same_bits(pair_d, pairwise_pnorm_all(level.images, p))

        # a full scan per try gives the same bits
        monkeypatch.setattr(kernel_sphere_maps, "_close_pair_sup", full_scan_sup)
        other, other_d = calibrate_level(X, 1, p, 1.0, beta)
        assert_same_levels((level,), (other,))
        assert same_bits(pair_d, other_d)


def record(X, level_count):
    """The embedding record of X's first level_count levels at p = 1 and beta = 1, based at point 0."""
    levels, sums = build_level_family(X, level_count, 1.0, 1.0, 1.0)
    return CoarseEmbedding(
        space=X, exponent=as_exponent(1.0), beta=1.0, delta=1.0, schedule=levels, base_index=0, pair_power_sums=sums
    )


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_same_levels(levels, reference):
    assert len(levels) == len(reference)
    for a, b in zip(levels, reference):
        assert a.bandwidth_t == b.bandwidth_t
        assert a.epsilon_n == b.epsilon_n
        assert a.s_n == b.s_n
        assert same_bits(a.images, b.images)


def spy_levels(monkeypatch):
    """(level, pair distances) as calibrate_level returns them, in call order."""
    made = []
    real = kernel_sphere_maps.calibrate_level

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(kernel_sphere_maps, "calibrate_level", spy)
    return made


def pinned_kernel(kind, X):
    """The beta build_embedding takes, but beta = 1 on paths.

    build_embedding takes beta = 2 on a path, whose d^2 is of negative
    type; the factorization counts, floor levels and thresholds these tests
    pin on paths were measured under beta = 1, exp(-t d).
    """
    return 1.0 if kind == "path" else kernel_sphere_maps._kernel_for(X)


def default_family_args(kind, param, p, delta=1.0):
    X = generate(kind, param, seed=3) if kind == "gaussian" else generate(kind, param)
    return (X, default_level_count(X), p, delta, pinned_kernel(kind, X))


# at delta = 1, the p = 2 graph families take the constant map at the
# separation end from level 2 to 4 on; at this delta their levels keep
# separating, and searching, until S_n reaches the diameter
FINE_DELTA = 2.0 ** -20


def spy_factor(monkeypatch):
    """Bandwidths that build_sphere_map factors, in call order."""
    calls = []
    real = kernel_sphere_maps.build_sphere_map

    def spy(space, t, beta):
        calls.append(t)
        return real(space, t, beta)

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


REUSE_CASES = [
    (("gaussian", 80), 1.3),
    (("gaussian", 80), 3.0),
    (("hypercube", 6), 2.0),
    (("cycle", 64), 1.0),
]
# the default schedule refused these at the float64 floor while the factor
# kept eigh's noise-level eigenvalues; they build now, with at most this many
# factorizations (40, 39 and 63 while tries below the floor were factored)
FLOOR_CASES = {
    (("path", 30), 2.0): 21,
    (("cycle", 48), 2.0): 20,
    (("path", 48), 1.0): 48,
}


class TestKernelReuse:
    """A level reuses the previous level's measurement instead of repeating it."""

    def test_former_refusals_same_bits_with_fewer_factorizations(self, monkeypatch):
        calls = spy_factor(monkeypatch)
        for ((kind, param), p), ceiling in FLOOR_CASES.items():
            del calls[:]
            args = default_family_args(kind, param, p)
            assert verify_levels(build_level_family(*args)[0], args[0], args[2], args[3]) == []
            assert len(calls) <= ceiling

    def test_accepted_previous_bandwidth_shares_the_measurement(self, monkeypatch):
        # no pair is within distance 4, so levels 1..4 all take the capped
        # bandwidth, and levels 2..4 take level 1's images and pair distances
        calls = spy_factor(monkeypatch)
        scans = spy_scans(monkeypatch)
        made = spy_levels(monkeypatch)
        levels, sums = build_level_family(two_point(5.0), 4, 1.5, 1.0, 1.0)
        assert calls == [kernel_sphere_maps.T_CAP]
        assert scans == [2]
        assert [level for level, _ in made] == list(levels)
        first, first_d = made[0]
        assert not first_d.flags.writeable
        for level, pair_d in made[1:]:
            assert level.bandwidth_t == first.bandwidth_t
            assert level.images is first.images
            assert pair_d is first_d
        # the one measurement's p-th power, added once per level
        assert same_bits(sums, level_power_sums(levels, 1.5))
        assert not sums.flags.writeable

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_one_all_pairs_scan_per_level(self, p, monkeypatch):
        # a try measures only its close-pair sup, and the accepted one is
        # scanned once
        args = default_family_args("path", 12, p)
        reference, _ = without_separation_end(build_level_family, *args)
        calls = spy_factor(monkeypatch)
        made = spy_levels(monkeypatch)
        scanned = []
        real = kernel_sphere_maps.pairwise_pnorm_all
        monkeypatch.setattr(
            kernel_sphere_maps, "pairwise_pnorm_all", lambda rows, q: scanned.append(rows) or real(rows, q)
        )
        levels, sums = build_level_family(*args)
        assert len(levels) == 13
        # scanned holds every array, so no id is reused
        assert len({id(rows) for rows in scanned}) == len(scanned)
        assert len(scanned) <= len(calls) + len(levels)
        for level, pair_d in made:
            assert same_bits(pair_d, real(level.images, p))
        assert same_bits(sums, level_power_sums(levels, p))
        # the separation end moves no S_n
        assert [level.s_n for level in levels] == [level.s_n for level in reference]
        if p == 1.0:
            # every scanned try of this family is accepted; S_1 = 4 and level
            # 5 saturated, and from level 6 on the envelopes bound every
            # pair's distance under delta/2, so those levels take the
            # constant map at the separation end and scan nothing (at the
            # p = 2 rule alone, from level 11, where every pair is close)
            assert [n for n, level in enumerate(levels, 1) if level.images.shape[1] == 1] == list(range(6, 14))
            assert [rows.shape[0] for rows in scanned] == [12] * 5


WARM_CASES = REUSE_CASES + [(("path", 48), 1.0)]
# the most factorizations each build may take; a search that restarts every
# level at the envelope start factors the count in the comment
FACTOR_CEILINGS = {
    "gaussian80-p1.3": 13,  # 43
    # 23; level 1 has no previous level and takes 2 tries, while levels
    # 2-10 each accept their first try
    "gaussian80-p3.0": 11,
    "hypercube6-p2.0": 9,  # 33
    "cycle64-p1.0": 42,  # 278
    # 48 to build all 49 levels; 63 while tries below the floor were
    # factored, and 77 (354 cold) while the factor kept eigh's noise-level
    # eigenvalues, refusing at level 47
    "path48-p1.0": 48,
}


def trace_levels(monkeypatch):
    """(level, bandwidths tried for it) per calibrated level, in order.

    The bandwidths are those calibration factored; the previous level's
    bandwidth, measured for free, is not among them, and neither are
    factorizations made outside calibrate_level.
    """
    levels, tried, calibrating = [], [], []
    real_level, real_factor = kernel_sphere_maps.calibrate_level, kernel_sphere_maps.build_sphere_map

    def spy_level(*args, **kwargs):
        tried.append([])
        calibrating.append(True)
        try:
            made = real_level(*args, **kwargs)
        finally:
            calibrating.pop()
        levels.append(made[0])
        return made

    def spy_factor(space, t, beta):
        if calibrating:
            tried[-1].append(t)
        return real_factor(space, t, beta)

    monkeypatch.setattr(kernel_sphere_maps, "calibrate_level", spy_level)
    monkeypatch.setattr(kernel_sphere_maps, "build_sphere_map", spy_factor)
    return levels, tried


def build_case(case):
    args = default_family_args(case[0][0], case[0][1], case[1])
    build_level_family(*args)
    return args


class TestWarmStart:
    """Each level's search starts from what the previous level measured."""

    @pytest.mark.parametrize("case", WARM_CASES, ids=case_id)
    def test_factorization_ceiling(self, case, monkeypatch):
        calls = spy_factor(monkeypatch)
        build_case(case)
        assert len(calls) <= FACTOR_CEILINGS[case_id(case)]

    @pytest.mark.parametrize("case", WARM_CASES, ids=case_id)
    def test_every_level_keeps_the_stopping_rule(self, case, monkeypatch):
        _, tried = trace_levels(monkeypatch)
        X, level_count, p, delta, beta = default_family_args(case[0][0], case[0][1], case[1])
        levels, _ = build_level_family(X, level_count, p, delta, beta)
        assert len(levels) >= 8
        # the levels after the fixed point are not calibrated and try nothing
        tried += [[]] * (len(levels) - len(tried))
        cap = kernel_sphere_maps.T_CAP
        for n, (level, ts) in enumerate(zip(levels, tried), 1):
            eps = 2.0 ** -n
            # the floor's constant map may stop anywhere, but only at a
            # bandwidth where the kernel is all-ones
            constant = bool((kernel_matrix(X, level.bandwidth_t, beta) == 1.0).all())
            if constant:
                assert level.images.shape[1] == 1
                assert level.epsilon_n == 0.0 and level.saturated
            elif not ts:
                # a level that factors nothing accepts the previous bandwidth
                assert n > 1
                assert level.bandwidth_t == cap
            assert max(ts, default=cap) <= cap
            assert level.bandwidth_t <= cap
            assert level.epsilon_n <= eps
            if level.epsilon_n < 0.9 * eps and level.bandwidth_t != cap and not constant:
                # stopped on the bracket: the smallest bandwidth measured
                # above the accepted one, the previous level's included, is
                # within 1% of it and misses the target
                top = min(t for t in ts + [cap] if t > level.bandwidth_t)
                assert top <= 1.01 * level.bandwidth_t
                images = kernel_sphere_maps._transported_images(X, top, beta, as_exponent(p))
                assert measure_conditions(images, X, n, math.inf, p)[0] > eps
            cap = level.bandwidth_t

    @pytest.mark.parametrize("case", WARM_CASES, ids=case_id)
    def test_one_kernel_per_factorization(self, case, monkeypatch):
        factored = spy_factor(monkeypatch)
        kernels = []
        real = kernel_sphere_maps.kernel_matrix

        def spy_kernel(space, t, beta):
            kernels.append(t)
            return real(space, t, beta)

        monkeypatch.setattr(kernel_sphere_maps, "kernel_matrix", spy_kernel)
        build_case(case)
        assert kernels == factored

    def test_cap_meeting_the_target_factors_no_kernel(self, monkeypatch):
        # level 3's bandwidth keeps pairs within 3 under 2^-3, so it already
        # meets level 2's target on the pairs within 2
        X = generate("cycle", 16)
        third, third_d = calibrate_level(X, 3, 1.0, 1.0, 1.0)
        calls = spy_factor(monkeypatch)
        scans = spy_scans(monkeypatch)
        second, second_d = calibrate_level(X, 2, 1.0, 1.0, 1.0, previous=(third, third_d))
        assert calls == []
        assert scans == []
        assert second.bandwidth_t == third.bandwidth_t
        assert second.images is third.images
        assert second_d is third_d
        assert second.epsilon_n == measure_conditions(third.images, X, 2, math.inf, 1.0)[0]
        assert second.epsilon_n <= 0.25


def every_level_calibrated(space, level_count, p, delta, beta):
    """build_level_family's loop with no fixed point: calibrate_level at every level.

    Returns the levels, each level's pair distances, and the pair power sums
    after each level.
    """
    pe = as_exponent(p)
    pairs = kernel_sphere_maps._pair_layout(space)
    levels, distances, partial_sums = [], [], []
    sums = np.zeros(pairs[0].size)
    previous, s_floor = None, 0.0
    for n in range(1, level_count + 1):
        level, pair_d = calibrate_level(space, n, pe, delta, beta, previous=previous, s_floor=s_floor, _pairs=pairs)
        sums = sums + abs_power(pair_d, pe.value)
        levels.append(level)
        distances.append(pair_d)
        partial_sums.append(sums)
        previous = (level, pair_d)
        if not level.saturated:
            s_floor = level.s_n
    return levels, distances, partial_sums


# (kind, param, seed, p): the graph-ladder specs, gaussian(160) clouds, path(48)
# at three exponents, and one point, which has no pair
TAIL_CASES = (
    [(kind, param, None, p) for kind, param, p in LADDER_SPECS]
    + [("gaussian", 160, seed, 1.3) for seed in range(1, 5)]
    + [("path", 48, None, p) for p in (1.0, 1.3, 3.0)]
    + [("point", 1, None, 1.3)]
)


def tail_case_id(case):
    kind, param, seed, p = case
    return f"{kind}{param}-p{p}" if seed is None else f"{kind}{param}-seed{seed}-p{p}"


class TestFixedPointTail:
    """Once a level leaves every pair at distance 0, every later level is that level, uncalibrated."""

    @pytest.mark.parametrize("case", TAIL_CASES, ids=tail_case_id)
    def test_tail_repeats_the_fixed_level(self, case, monkeypatch):
        kind, param, seed, p = case
        X = FiniteMetricSpace(labels=("a",), dist=np.zeros((1, 1))) if kind == "point" else generate(kind, param, seed=seed)
        args = (X, default_level_count(X), p, 1.0, kernel_sphere_maps._kernel_for(X))
        reference, distances, partial_sums = every_level_calibrated(*args)
        made = spy_levels(monkeypatch)
        levels, sums = build_level_family(*args)

        # every level and every sum has the bits of a build that calibrates every level
        assert_same_levels(levels, reference)
        assert same_bits(sums, partial_sums[-1])
        # every case reaches a level that leaves every pair at 0, and every
        # later level does too
        zero = [k for k, pair_d in enumerate(distances) if not pair_d.any()]
        fixed = zero[0]
        assert zero == list(range(fixed, len(levels)))
        assert levels[fixed].epsilon_n == 0.0 and levels[fixed].saturated
        # calibrate_level runs through that level and no further
        assert [level for level, _ in made] == list(levels[: fixed + 1])
        # the tail is that level's record, and adds nothing to the sums
        assert all(level is levels[fixed] for level in levels[fixed:])
        assert all(same_bits(partial, partial_sums[fixed]) for partial in partial_sums[fixed:])

    def test_graph_ladder_skips_most_levels(self, monkeypatch):
        # 583 of the 3075 levels over the 125 specs are calibrated
        made = spy_levels(monkeypatch)
        total = 0
        for kind, param, p in LADDER_SPECS:
            X = generate(kind, param)
            total += len(build_level_family(X, default_level_count(X), p, 1.0, kernel_sphere_maps._kernel_for(X))[0])
        assert total == 3075
        assert len(made) <= 583


class TestRankAwareImages:
    """Each factor keeps only the eigenpairs above eigh's noise floor n * eps * lambda_max."""

    @pytest.mark.parametrize("case", REUSE_CASES, ids=case_id)
    def test_no_all_zero_image_column(self, case):
        for level in build_level_family(*default_family_args(case[0][0], case[0][1], case[1]))[0]:
            assert (np.abs(level.images).max(axis=0) > 0.0).all()

    def test_all_ones_kernel_is_the_constant_map(self):
        # every t * d sits below float64 resolution at the capped bandwidth
        X = FiniteMetricSpace(labels=tuple("abcdef"), dist=generate("path", 6).dist * 1e-30)
        assert (kernel_matrix(X, kernel_sphere_maps.T_CAP, 1.0) == 1.0).all()
        assert build_sphere_map(X, kernel_sphere_maps.T_CAP, 1.0).shape == (6, 1)
        for p in (1.0, 2.0, 3.0):
            level, pair_d = calibrate_level(X, 1, p, 1.0, 1.0)
            assert level.bandwidth_t == kernel_sphere_maps.T_CAP
            assert level.images.shape == (6, 1)
            assert level.saturated
            assert level.epsilon_n == 0.0
            assert not pair_d.any()

    @pytest.mark.parametrize("kind,param", [("cycle", 8), ("hypercube", 8), ("path", 30)])
    def test_p2_level_one_keeps_its_envelope_start(self, kind, param, monkeypatch):
        # the start aims 1e-9 under 1/2, so the sup measured there stays
        # under it, above 0.9 * 1/2, and the search stops at its first try
        X = generate(kind, param)
        p = as_exponent(2.0)
        start = kernel_sphere_maps._feasible_start(0.5, p, 1.0, kernel_sphere_maps._gram_error(X.n))
        calls = spy_factor(monkeypatch)
        level, _ = calibrate_level(X, 1, p, 1.0, 1.0)
        assert calls == [start]
        assert level.bandwidth_t == start
        assert 0.9 * 0.5 <= level.epsilon_n <= 0.5


# the worst floor cases: while tries below the floor were factored, those
# were about half of each build's factorizations
FLOOR_FREE_CASES = [(("path", 48), 3.0), (("cycle", 72), 3.0), (("path", 54), 1.0)]


def below_floor(X, n, t):
    """Whether 1 - K ~ t d at level n's largest close pair is under the Gram error 2 n^2 eps."""
    ii, jj = X.pair_indices()
    d = X.dist[ii, jj]
    return t * d[d <= n].max() < 2.0 * X.n * X.n * np.finfo(np.float64).eps


class TestResolution:
    """Calibration factors no kernel outside float64's resolution."""

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_target_below_the_floor_factors_nothing(self, beta, p, monkeypatch):
        # with no previous level, level 40's envelope start lies below the floor
        X = generate("path", 48)
        calls = spy_factor(monkeypatch)
        level, pair_d = calibrate_level(X, 40, p, 1.0, beta)
        assert calls == []
        K = kernel_matrix(X, level.bandwidth_t, beta)
        assert (K == 1.0).all()
        assert level.images.shape == (48, 1)
        assert np.array_equal(level.images @ level.images.T, K)
        assert level.epsilon_n == 0.0 and level.saturated
        assert not pair_d.any()

    @pytest.mark.parametrize("case", FLOOR_FREE_CASES, ids=case_id)
    def test_no_try_below_the_floor(self, case, monkeypatch):
        levels, tried = trace_levels(monkeypatch)
        X = build_case(case)[0]
        for n, ts in enumerate(tried, 1):
            assert not any(below_floor(X, n, t) for t in ts)
        # the last levels take the constant map, the first of them within a
        # factor 4 of the largest bandwidth where the kernel is all-ones
        # (exp(-x) rounds to the float below 1.0 from x = 2^-53 on)
        first_n, first = next((n, level) for n, level in enumerate(levels, 1) if level.images.shape[1] == 1)
        assert (kernel_matrix(X, first.bandwidth_t, 1.0) == 1.0).all()
        assert not (kernel_matrix(X, 4.0 * first.bandwidth_t, 1.0) == 1.0).all()
        assert below_floor(X, first_n, first.bandwidth_t)
        assert all(level.bandwidth_t == first.bandwidth_t for level in levels[first_n:])

    @pytest.mark.parametrize("case", FLOOR_FREE_CASES + [(("gaussian", 80), 1.3)], ids=case_id)
    def test_same_thresholds_without_the_floor(self, case, monkeypatch):
        # a zero Gram error turns off the floor and leaves the start's 1e-9
        # margin; the tries below the floor then factored change no S_n. The
        # separation end is off in both builds: it would take the constant
        # map before those tries
        args = default_family_args(case[0][0], case[0][1], case[1])
        monkeypatch.setattr(kernel_sphere_maps, "_separates_nothing", lambda *rule_args: False)
        with_floor, _ = build_level_family(*args)
        monkeypatch.setattr(kernel_sphere_maps, "_gram_error", lambda n_points: 0.0)
        calls = spy_factor(monkeypatch)
        without, _ = build_level_family(*args)
        assert [level.s_n for level in with_floor] == [level.s_n for level in without]
        if case[0][0] != "gaussian":
            assert any(below_floor(args[0], 1, t) for t in calls)

    @pytest.mark.parametrize("p", [1.3, 3.0])
    def test_identity_kernels_are_not_factored(self, p, monkeypatch):
        # no pair of this cloud is within 1, so level 1 sits at the cap and
        # level 2's model steps from there start on identity-like kernels:
        # 7.7e6, 6.0e5, 4.6e4, 3.5e3 and 273 at p = 1.3 while they were
        # factored, 19 factorizations in all
        X = generate("gaussian", 60, seed=1)
        ii, jj = X.pair_indices()
        d = X.dist[ii, jj]
        assert d.min() > 1.0
        levels, tried = trace_levels(monkeypatch)
        levels, _ = build_level_family(X, default_level_count(X), p, 1.0, 2.0)
        assert verify_levels(levels, X, p, 1.0) == []
        assert levels[0].bandwidth_t == kernel_sphere_maps.T_CAP
        for n, ts in enumerate(tried[1:], 2):
            g = d[d <= n].max() ** 2
            # K at the largest close pair stays at or above 2^-53
            assert all(t * g <= 53.0 * math.log(2.0) for t in ts)
        assert sum(map(len, tried)) <= 13

    def test_close_pair_sups_at_large_p_measured_without_underflow(self):
        # at p in the hundreds |v|^p of an order-one entry can underflow, so
        # each close pair is re-measured by the 50-digit oracle: no level's
        # sup exceeds 2^-n, nor its certificate beyond rounding. The large-p
        # builds take the constant map at every level; p = 10 and 20 factor
        cases = [("cycle", 8, p) for p in (50, 100, 200)] + [("cycle", 16, 200), ("cycle", 16, 1000)]
        cases += [("path", 10, 500), ("hypercube", 4, 200)]
        cases += [(kind, param, p) for kind, param in (("cycle", 16), ("path", 10), ("hypercube", 4)) for p in (10, 20)]
        factored = 0
        for kind, param, p in cases:
            X = generate(kind, param)
            E = build_embedding(X, p=p, delta=1e-3)
            ii, jj = X.pair_indices()
            d = X.dist[ii, jj]
            for n, level in enumerate(E.schedule, 1):
                diffs = level.images[jj[d <= n]] - level.images[ii[d <= n]]
                sup = max((conftest.mp_pnorm(row, p) for row in diffs), default=0.0)
                assert sup <= 2.0 ** -n, (kind, param, p, n, sup)
                assert sup <= level.epsilon_n * (1.0 + 1e-12), (kind, param, p, n, sup, level.epsilon_n)
                factored += level.images.shape[1] > 1
        assert factored >= 12

    @pytest.mark.parametrize("kind,param", [("hypercube", 8), ("path", 48), ("cycle", 72)])
    def test_p2_levels_accept_their_first_try(self, kind, param, monkeypatch):
        # the start aims under 2^-n by the Gram error relative to 1 - K, so
        # its sup no longer rounds above the target at small t d; level 2's
        # first try is the model step from the cap, which outranks the start.
        # FINE_DELTA keeps the levels separating, so they search (hypercube(8)
        # up to level 8, where S_n reaches the diameter)
        levels, tried = trace_levels(monkeypatch)
        build_level_family(*default_family_args(kind, param, 2.0, FINE_DELTA))
        factoring = [(n, level, ts) for n, (level, ts) in enumerate(zip(levels, tried), 1) if ts and n >= 3]
        assert len(factoring) >= {"hypercube": 6, "path": 17, "cycle": 16}[kind]
        for n, level, ts in factoring:
            assert ts == [level.bandwidth_t]
            assert level.epsilon_n >= 0.9 * 2.0 ** -n


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
    def test_mask_matches_loop(self, kind, param, p, delta, levels, monkeypatch):
        X = generate(kind, param, seed=5) if kind == "gaussian" else generate(kind, param)
        made = spy_levels(monkeypatch)
        build_level_family(X, levels or default_level_count(X), p, delta, pinned_kernel(kind, X))
        ii, jj = X.pair_indices()
        d = X.dist[ii, jj]
        order = np.argsort(d, kind="stable")
        d_sorted = d[order]
        distinct = np.unique(d)
        floors = [0.0, float(distinct[0]), float(distinct[len(distinct) // 2]), float(distinct[-1])]
        s_floor = 0.0
        saturated = 0
        for level, pair_d in made:
            pair_sorted = pair_d[order]
            # the built S_n is the loop's at the build's floor
            assert level.s_n == loop_threshold(d_sorted, pair_sorted, delta / 2.0, s_floor)
            for floor in floors + [s_floor, level.s_n]:
                for half in (delta / 2.0, delta / 8.0):
                    # condensed order in, the loop's sorted walk as the reference
                    got = kernel_sphere_maps._separation_threshold(d, pair_d, half, floor)
                    assert got == loop_threshold(d_sorted, pair_sorted, half, floor)
            saturated += level.saturated
            if not level.saturated:
                s_floor = level.s_n
        assert saturated > 0

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
            min_size=1,
            max_size=30,
        ),
        half=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_any_order_matches_loop(self, pairs, half):
        # few values, so source distances tie and image distances sit on delta/2
        d = np.array([a for a, _ in pairs], dtype=float)
        pair_d = np.array([b for _, b in pairs], dtype=float)
        order = np.argsort(d, kind="stable")
        for floor in [0.0, 0.75, *np.unique(d)]:
            got = kernel_sphere_maps._separation_threshold(d, pair_d, half, float(floor))
            assert got == loop_threshold(d[order], pair_d[order], half, float(floor))

    def test_empty_and_single_distance(self):
        empty = np.empty(0)
        assert kernel_sphere_maps._separation_threshold(empty, empty, 0.5, 0.0) == math.inf
        ones = np.ones(6)
        assert kernel_sphere_maps._separation_threshold(ones, np.full(6, 0.7), 0.5, 0.0) == 1.0
        assert kernel_sphere_maps._separation_threshold(ones, np.full(6, 0.7), 0.5, 1.0) == math.inf
