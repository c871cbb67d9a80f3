"""Embedding assembly, envelopes, truncation control, and JSON round trips."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    LADDER_SPECS,
    level_power_sums,
    mp_pnorm,
    reference_kernel,
    saving_peak,
    verify_levels,
    without_separation_end,
)
from lpembed import coarse_embedder, kernel_sphere_maps, metric_spaces
from lpembed.coarse_embedder import (
    CoarseEmbedding,
    build_embedding,
    default_level_count,
    embedding_from_json,
    embedding_to_json,
    evaluate,
    load_embedding,
    pairwise_image_distances,
    pairwise_image_power_sums,
    save_embedding,
    tail_bound,
    theoretical_bounds,
)
from lpembed.distortion_report import empirical_profile, export, verify_bounds
from lpembed.kernel_sphere_maps import CalibrationError, NotNegativeType, SphereMapLevel, build_level_family
from lpembed.lp_core import as_exponent, pairwise_pnorm_all, pairwise_power_sums_all
from lpembed.metric_spaces import FiniteMetricSpace, generate, validate


@pytest.fixture(scope="module")
def hc4_p1():
    return build_embedding(generate("hypercube", 4), p=1.0)


@pytest.fixture(scope="module")
def hc6_p1():
    return build_embedding(generate("hypercube", 6), p=1.0, level_count=8)


def widths(embedding) -> tuple:
    """Each level's image width, level.images.shape[1], in level order."""
    return tuple(level.images.shape[1] for level in embedding.schedule)


def two_point(d=1.0):
    return FiniteMetricSpace(labels=("a", "b"), dist=np.array([[0.0, d], [d, 0.0]]))


class TestBuild:
    def test_base_image_is_zero(self, hc4_p1):
        base = evaluate(hc4_p1, hc4_p1.base_index)
        assert all(not row.any() for row in base)

    def test_block_count_equals_level_count(self, hc4_p1):
        img = evaluate(hc4_p1, 5)
        assert len(img) == hc4_p1.level_count
        assert tuple(row.shape for row in img) == tuple((w,) for w in widths(hc4_p1))

    def test_single_level_two_point_distance_is_level_distance(self):
        E = build_embedding(two_point(), p=2.0, level_count=1)
        (img_a,), (img_b,) = evaluate(E, "a"), evaluate(E, "b")
        got = mp_pnorm(img_a - img_b, 2.0)
        lvl = E.schedule[0]
        assert got == pytest.approx(pairwise_image_distances(E)[3][0], abs=1e-12)
        assert got == pytest.approx(mp_pnorm(lvl.images[0] - lvl.images[1], 2.0), abs=1e-12)

    def test_blocks_reproduce_family_offsets(self, hc4_p1):
        rng = np.random.default_rng(0)
        for idx in rng.integers(0, 16, size=5):
            img = evaluate(hc4_p1, int(idx))
            for lvl, row in zip(hc4_p1.schedule, img):
                expected = lvl.images[idx] - lvl.images[hc4_p1.base_index]
                assert np.abs(row - expected).max() <= 1e-12

    def test_default_level_count(self):
        assert default_level_count(generate("hypercube", 4)) == 6
        assert default_level_count(generate("path", 3)) == 4

    def test_level_count_bounds(self):
        with pytest.raises(ValueError):
            build_embedding(two_point(), p=1.0, level_count=0)
        with pytest.raises(ValueError):
            build_embedding(two_point(), p=1.0, level_count=65)
        # int() would truncate these to 2 and 1 levels
        for bad in (2.7, True):
            with pytest.raises(ValueError, match="level count must be an integer"):
                build_embedding(generate("cycle", 8), p=1.0, level_count=bad)

    # float() read these: p=True built at p = 1, and the strings as their numbers
    @pytest.mark.parametrize("kwargs,message", [
        ({"p": True}, "norm exponent must be a number"),
        ({"p": "1.5"}, "norm exponent must be a number"),
        ({"p": 1.5, "delta": "1"}, "delta must be a number"),
        ({"p": 1.5, "delta": True}, "delta must be a number"),
    ])
    def test_numbers_must_be_real_numbers(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}, got"):
            build_embedding(generate("cycle", 8), **kwargs)

    def test_real_numbers_accepted(self):
        E = build_embedding(generate("cycle", 8), p=np.float64(1.5), delta=np.float32(0.5))
        assert (E.exponent.value, E.delta) == (1.5, 0.5)
        assert verify_bounds(E) == []
        assert build_embedding(generate("cycle", 8), p=2, delta=1).exponent.value == 2.0

    @pytest.mark.parametrize("bad", [1.5, 2, None, "1.5"])
    def test_record_exponent_is_a_p_exponent(self, bad, hc4_p1):
        # a plain number was accepted, and verify_bounds then failed with AttributeError
        with pytest.raises(ValueError, match="^exponent must be a PExponent, got"):
            dataclasses.replace(hc4_p1, exponent=bad)

    @pytest.mark.parametrize("field,bad,message", [
        ("beta", True, r"kernel exponent beta must be one of \(2.0, 1.0\)"),
        ("beta", np.True_, r"kernel exponent beta must be one of \(2.0, 1.0\)"),
        ("beta", "2", r"kernel exponent beta must be one of \(2.0, 1.0\)"),
        ("delta", True, "delta must be a number"),
        ("delta", "1", "delta must be a number"),
    ])
    def test_record_beta_and_delta_are_real_numbers(self, field, bad, message, hc4_p1):
        # True == 1.0 was accepted as beta 1 and delta 1, and "1" raised a bare TypeError
        with pytest.raises(ValueError, match=f"^{message}, got"):
            dataclasses.replace(hc4_p1, **{field: bad})

    def test_base_index_range(self):
        with pytest.raises(ValueError):
            build_embedding(two_point(), p=1.0, base_index=2)
        # only integers are point indices, though int() would take each of these
        for bad in (True, np.True_, 1.7, 1.0, np.float64(0.5)):
            with pytest.raises(ValueError, match="integer point index"):
                build_embedding(two_point(), p=1.0, base_index=bad)
        E = build_embedding(two_point(), p=1.0)
        for bad in (True, 1.0, 2):
            with pytest.raises(ValueError, match="integer point index"):
                dataclasses.replace(E, base_index=bad)

    def test_offsets_that_overflow_rejected(self):
        # finite images whose offset from the base row overflows: Phi has no finite coordinates there
        level = SphereMapLevel(epsilon_n=0.0, s_n=math.inf, bandwidth_t=1.0, images=np.array([[1e308], [-1e308]]))
        E = CoarseEmbedding(two_point(), as_exponent(2.0), 2.0, 1.0, (level,), 0, np.full(1, math.inf))
        assert evaluate(E, "a")[0].tolist() == [0.0]
        with pytest.raises(ValueError, match=r"^image blocks must be finite \(no NaN/inf\)$"):
            evaluate(E, "b")
        with pytest.raises(ValueError, match=r"^image blocks must be finite \(no NaN/inf\)$"):
            E.image_matrix

    def test_invalid_space_rejected(self):
        broken = FiniteMetricSpace(
            labels=("a", "b", "c"),
            dist=np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float),
        )
        with pytest.raises(ValueError, match=r"^space fails metric validation \(1 violations\): triangle"):
            build_embedding(broken, p=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_image_matrix_rejected(self, bad):
        # verify_bounds compares NaN distances (always False) and passes, so
        # non-finite rows are refused where they enter a level
        E = build_embedding(generate("hypercube", 3), p=1.0)
        back = embedding_from_json(embedding_to_json(E), E.space)
        images = back.schedule[-1].images.copy()
        images[3] = bad
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(back.schedule[-1], images=images)
        # finite images whose offsets from the base overflow: refused on load,
        # since each offset is a pair difference, which the level's scan measures
        payload = embedding_to_json(E)
        payload["images"]["000"][0][0] = -1e308
        payload["images"]["011"][0][0] = 1e308
        message = r"^malformed embedding payload: level 1: pair_distances must be finite \(no NaN/inf\)"
        with pytest.raises(ValueError, match=message):
            embedding_from_json(payload, E.space)

    @pytest.mark.parametrize("p", [1.3, 1.5, 2.0, 3.0])
    def test_overflowing_pair_distances_refused_without_a_warning(self, p):
        # a coordinate of 1e300 leaves every offset finite, but its pair
        # distances overflow |diff|^p; the RuntimeWarning (an error under
        # pytest) came before the refusal
        E = build_embedding(generate("hypercube", 3), p=p)
        payload = embedding_to_json(E)
        payload["images"]["000"][0][0] = 1e300
        message = r"^malformed embedding payload: level 1: pair_distances must be finite \(no NaN/inf\)"
        with pytest.raises(ValueError, match=message):
            embedding_from_json(payload, E.space)

    def test_unknown_point(self, hc4_p1):
        with pytest.raises(KeyError):
            evaluate(hc4_p1, "no-such-label")
        with pytest.raises(KeyError):
            evaluate(hc4_p1, 99)
        for bad in (True, np.True_, False):
            with pytest.raises(KeyError):
                evaluate(hc4_p1, bad)


class TestEnvelopes:
    def test_rho_at_zero(self, hc4_p1):
        rho1, rho2 = theoretical_bounds(hc4_p1, 0.0)
        assert rho1 == 0.0
        assert rho2 == pytest.approx(1.0)

    def test_rho1_zero_below_first_threshold(self, hc4_p1):
        s1 = float(hc4_p1.separation_thresholds()[0])
        rho1, _ = theoretical_bounds(hc4_p1, s1 * 0.999)
        assert rho1 == 0.0
        rho1_at, _ = theoretical_bounds(hc4_p1, s1)
        assert rho1_at == pytest.approx(hc4_p1.delta / 2.0)

    def test_rho2_p1_linear_form(self, hc4_p1):
        _, rho2 = theoretical_bounds(hc4_p1, 3.0)
        assert rho2 == pytest.approx(7.0)

    def test_rho2_where_the_power_overflows(self):
        # at p = 1023, 2^p d^p overflows from d = 1 on; rho2 is 2d there, since
        # the +1 is below resolution, and inf only where 2d overflows
        E = build_embedding(generate("cycle", 16), p=1.5)
        E = embedding_from_json({**embedding_to_json(E), "p": 1023}, E.space)
        assert theoretical_bounds(E, 8.0)[1] == 16.0
        _, rho2 = theoretical_bounds(E, np.array([0.0, 8.0, 1e300, 1.7e308, math.inf]))
        assert rho2.tolist() == [1.0, 16.0, 2.0 * 1e300, math.inf, math.inf]

    def test_envelopes_nondecreasing(self, hc6_p1):
        d = np.linspace(0, hc6_p1.space.diameter(), 200)
        rho1, rho2 = theoretical_bounds(hc6_p1, d)
        assert np.all(np.diff(rho1) >= 0)
        assert np.all(np.diff(rho2) >= 0)

    def test_negative_distance_rejected(self, hc4_p1):
        with pytest.raises(ValueError):
            theoretical_bounds(hc4_p1, -0.1)

    def test_nan_distance_rejected_inf_allowed(self):
        E = build_embedding(generate("path", 12), p=1.0)
        for d in (math.nan, [1.0, math.nan]):
            with pytest.raises(ValueError, match="nonnegative"):
                theoretical_bounds(E, d)
        rho1, rho2 = theoretical_bounds(E, math.inf)
        assert rho1 == theoretical_bounds(E, E.space.diameter())[0]
        assert rho2 == math.inf

    def test_hc6_sandwich_via_exhaustive_scan(self, hc6_p1):
        # independent route: rebuild pairwise distances from the evaluated
        # per-level rows with the 50-digit oracle, then check the envelopes
        E = hc6_p1
        n = E.space.n
        images = [np.concatenate(evaluate(E, i)) for i in range(n)]
        ii, jj, d_src, engine = pairwise_image_distances(E)
        for k in range(0, ii.size, 97):  # stride keeps the exact route cheap
            i, j = int(ii[k]), int(jj[k])
            exact = mp_pnorm(images[i] - images[j], 1.0)
            assert engine[k] == pytest.approx(exact, rel=1e-10, abs=1e-12)
        rho1, rho2 = theoretical_bounds(E, d_src)
        assert np.all(engine <= rho2 + 1e-9)
        assert np.all(engine >= rho1 - 1e-9)

    def test_per_level_power_decomposition(self, hc4_p1):
        # ||Phi(x)-Phi(y)||_p^p equals the sum of per-level pair powers
        E = hc4_p1
        ii, jj, _, psums = pairwise_image_power_sums(E)
        per_level = np.zeros_like(psums)
        for lvl in E.schedule:
            diff = lvl.images[ii] - lvl.images[jj]
            per_level += np.abs(diff).sum(axis=1)
        assert np.abs(psums - per_level).max() <= 1e-10


class TestBaseInvariance:
    def test_pairwise_distances_invariant_under_base_change(self):
        X = generate("hypercube", 4)
        e0 = build_embedding(X, p=1.0, base_index=0)
        e9 = build_embedding(X, p=1.0, base_index=9)
        _, _, _, d0 = pairwise_image_distances(e0)
        _, _, _, d9 = pairwise_image_distances(e9)
        assert np.abs(d0 - d9).max() <= 1e-12

    def test_images_translate_by_fixed_block_vector(self):
        X = generate("cycle", 6)
        e0 = build_embedding(X, p=2.0, base_index=0, level_count=4)
        e3 = build_embedding(X, p=2.0, base_index=3, level_count=4)
        shift = e0.image_matrix - e3.image_matrix
        assert np.abs(shift - shift[0]).max() <= 1e-12


class TestLevelReuse:
    """Certification sums each level's pair distances, for a build and a reload alike."""

    def test_level_sums_match_stacked_scan(self, built_embedding):
        E = built_embedding
        _, _, _, psums = pairwise_image_power_sums(E)
        scan = pairwise_power_sums_all(E.image_matrix, E.exponent)
        np.testing.assert_allclose(psums, scan, rtol=1e-13, atol=0.0)

    def test_reload_sums_its_levels(self, built_embedding, monkeypatch, tmp_path):
        E = built_embedding
        save_embedding(E, tmp_path / "e.json")
        back = load_embedding(tmp_path / "e.json", E.space)
        calls = []
        scan = coarse_embedder.pairwise_power_sums_all
        monkeypatch.setattr(coarse_embedder, "pairwise_power_sums_all", lambda *a: calls.append(a) or scan(*a))
        assert verify_bounds(back) == []
        assert empirical_profile(back, 7).violations == ()
        assert calls == []
        assert "image_matrix" not in vars(back)

    def test_reloaded_sums_from_offset_rows(self, built_embedding):
        # a base away from point 0 offsets Phi's rows, but a reload measures
        # each level's own images, as the build does: the build's sums, bit for bit
        E = dataclasses.replace(built_embedding, base_index=built_embedding.space.n // 2)
        back = embedding_from_json(embedding_to_json(E), E.space)
        assert back.pair_power_sums.tobytes() == E.pair_power_sums.tobytes()
        assert back.pair_power_sums.tobytes() == level_power_sums(back.schedule, E.exponent).tobytes()
        assert not back.pair_power_sums.flags.writeable

    def test_reload_shares_repeated_blocks(self, monkeypatch):
        # hypercube(8) at p = 2 factors level 1 only; levels 2-10 hold the
        # constant map, which the reload scans once and shares, as the build does
        E = build_embedding(generate("hypercube", 8), p=2.0)
        calls = []
        scan = coarse_embedder.pairwise_pnorm_all
        monkeypatch.setattr(coarse_embedder, "pairwise_pnorm_all", lambda *a: calls.append(a) or scan(*a))
        back = embedding_from_json(embedding_to_json(E), E.space)
        assert len(calls) == 2
        for levels in (E.schedule, back.schedule):
            assert all(level.images is levels[1].images for level in levels[2:])
        # the bits of a scan of every block, so the reports are those of scanning each level
        expected = level_power_sums(back.schedule, E.exponent)
        assert back.pair_power_sums.tobytes() == expected.tobytes()
        assert back.pair_power_sums.tobytes() == E.pair_power_sums.tobytes()

    def test_pair_power_sums_read_only(self, built_embedding):
        n = built_embedding.space.n
        back = embedding_from_json(embedding_to_json(built_embedding), built_embedding.space)
        for sums in (built_embedding.pair_power_sums, back.pair_power_sums):
            assert sums.shape == (n * (n - 1) // 2,)
            assert not sums.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                sums[0] = 0.0

    def test_level_count_mismatch_rejected(self, built_embedding):
        payload = embedding_to_json(built_embedding)
        payload["schedule"] = payload["schedule"][:-1]
        with pytest.raises(ValueError, match=r"must be a list of \d+ blocks, one per schedule level"):
            embedding_from_json(payload, built_embedding.space)


class TestSingleCopy:
    """Built and reloaded embeddings alike derive their blocks from their levels' images."""

    def test_levels_mix_freely(self, hc4_p1):
        # built and reloaded levels make one record: its blocks come from its
        # levels' images, and its pair power sums are the record's own
        back = embedding_from_json(embedding_to_json(hc4_p1), hc4_p1.space)
        E = dataclasses.replace(back, schedule=hc4_p1.schedule[:1] + back.schedule[1:])
        assert np.array_equal(E.image_matrix.view(np.uint64), hc4_p1.image_matrix.view(np.uint64))
        assert pairwise_image_power_sums(E)[3] is E.pair_power_sums
        np.testing.assert_allclose(
            pairwise_image_power_sums(E)[3], pairwise_power_sums_all(E.image_matrix, E.exponent), rtol=1e-13
        )

    def test_build_keeps_no_image_matrix(self):
        E = build_embedding(generate("cycle", 12), p=1.5)
        assert verify_bounds(E) == []
        assert "image_matrix" not in vars(E)

    def test_record_holds_its_fields_only(self):
        # image_matrix is formed on each use and kept nowhere
        E = build_embedding(generate("cycle", 12), p=1.5)
        first = E.image_matrix
        assert E.image_matrix is not first
        assert np.array_equal(E.image_matrix.view(np.uint64), first.view(np.uint64))
        assert list(vars(E)) == [f.name for f in dataclasses.fields(CoarseEmbedding)]
        assert len(vars(E)) == 7
        assert not hasattr(CoarseEmbedding, "block_dims")
        assert not hasattr(FiniteMetricSpace, "__len__")

    def test_every_base_point_rederives_blocks(self):
        E = build_embedding(generate("cycle", 10), p=1.5, level_count=5)
        for k in range(E.space.n):
            moved = dataclasses.replace(E, base_index=k)
            assert moved.schedule is E.schedule
            blocks = np.hsplit(moved.image_matrix, np.cumsum(widths(moved))[:-1])
            for level, block in zip(E.schedule, blocks):
                expected = level.images - level.images[k]
                assert np.array_equal(block.view(np.uint64), expected.view(np.uint64))
            assert verify_bounds(moved) == []

    def test_blocks_and_matrix_read_only(self, built_embedding):
        back = embedding_from_json(embedding_to_json(built_embedding), built_embedding.space)
        for E in (built_embedding, back):
            assert not E.image_matrix.flags.writeable

    def test_json_round_trip_byte_equal(self, built_embedding):
        text = json.dumps(embedding_to_json(built_embedding))
        back = embedding_from_json(json.loads(text), built_embedding.space)
        assert json.dumps(embedding_to_json(back)) == text
        assert np.array_equal(back.image_matrix.view(np.uint64), built_embedding.image_matrix.view(np.uint64))

    def test_evaluate_same_bits_in_memory_and_reloaded(self, built_embedding):
        E = built_embedding
        back = embedding_from_json(json.loads(json.dumps(embedding_to_json(E))), E.space)
        for idx in range(E.space.n):
            mine, theirs = evaluate(E, idx), evaluate(back, idx)
            assert len(mine) == len(theirs) == E.level_count
            for a, b in zip(mine, theirs):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -1.0])
    def test_delta_must_be_finite_positive(self, hc4_p1, delta):
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            dataclasses.replace(hc4_p1, delta=delta)


class TestOneLevelRecord:
    """The embedding is the one record of space, p, beta, delta, levels and base point."""

    def test_fields_are_family_and_base(self, hc4_p1):
        # a level holds what its search measured and its file entry holds; its
        # n, p and beta are the embedding's, and so are the pair power sums
        fields = [f.name for f in dataclasses.fields(CoarseEmbedding)]
        assert fields == ["space", "exponent", "beta", "delta", "schedule", "base_index", "pair_power_sums"]
        level_fields = [f.name for f in dataclasses.fields(SphereMapLevel)]
        assert level_fields == ["epsilon_n", "s_n", "bandwidth_t", "images"]
        assert hc4_p1.level_count == len(hc4_p1.schedule) and isinstance(hc4_p1.delta, float)
        assert hc4_p1.beta == 1.0
        # every copy of the record is checked as a build's is
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            dataclasses.replace(hc4_p1, delta=math.nan)

    def test_reloaded_levels_carry_their_images(self, built_embedding):
        back = embedding_from_json(embedding_to_json(built_embedding), built_embedding.space)
        assert back.space is built_embedding.space
        for level, built in zip(back.schedule, built_embedding.schedule):
            assert np.array_equal(level.images.view(np.uint64), built.images.view(np.uint64))
            assert repr(level) == repr(built)
        assert back.pair_power_sums.shape == built_embedding.pair_power_sums.shape

    def test_schedule_repr_holds_no_arrays(self, hc4_p1):
        text = repr(hc4_p1.schedule)
        assert "array" not in text and "images" not in text
        assert "pair_power_sums" not in repr(hc4_p1)
        assert len(text) < 400 * hc4_p1.level_count


class TestTailBound:
    def test_p1_n8(self):
        E = build_embedding(generate("path", 6), p=1.0, level_count=8)
        assert tail_bound(E) == pytest.approx(1.0 / 256.0)

    def test_p2_n4(self):
        E = build_embedding(generate("path", 3), p=2.0, level_count=4)
        assert tail_bound(E) == pytest.approx(2.0 ** -8 / 3.0)

    def test_decreasing_in_level_count(self):
        X = generate("path", 4)
        bounds = [tail_bound(build_embedding(X, p=1.0, level_count=n)) for n in (2, 4, 8)]
        assert bounds[0] > bounds[1] > bounds[2]


class TestJson:
    def test_round_trip(self, hc4_p1):
        payload = embedding_to_json(hc4_p1)
        back = embedding_from_json(payload, hc4_p1.space)
        np.testing.assert_array_equal(back.image_matrix, hc4_p1.image_matrix)
        assert widths(back) == widths(hc4_p1)
        assert back.base_index == hc4_p1.base_index
        assert back.exponent.value == hc4_p1.exponent.value
        assert [s.s_n for s in back.schedule] == [s.s_n for s in hc4_p1.schedule]
        for level, built in zip(back.schedule, hc4_p1.schedule):
            np.testing.assert_array_equal(level.images, built.images)

    def test_file_holds_level_images(self, hc4_p1):
        # each level's own images phi_n(x), not their offsets from the base point
        payload = embedding_to_json(hc4_p1)
        for i, label in enumerate(hc4_p1.space.labels):
            assert payload["images"][label] == [level.images[i].tolist() for level in hc4_p1.schedule]
        assert any(any(row) for row in payload["images"]["0000"])

    def test_saturated_levels_serialize_as_null(self, hc4_p1):
        payload = embedding_to_json(hc4_p1)
        saturated = [s for s in payload["schedule"] if s["S"] is None]
        assert saturated  # hypercube(4) at delta=1 saturates beyond level 1
        back = embedding_from_json(payload, hc4_p1.space)
        assert any(math.isinf(s.s_n) for s in back.schedule)

    def test_missing_point_rejected(self, hc4_p1):
        payload = embedding_to_json(hc4_p1)
        del payload["images"]["0000"]
        with pytest.raises(ValueError, match="missing images"):
            embedding_from_json(payload, hc4_p1.space)

    @pytest.mark.parametrize("edit,message", [
        (lambda payload: payload["images"].pop("0000"), "missing images for 1 points, e.g. '0000'"),
        (lambda payload: payload.update(base=16), "base index must be an integer point index in 0..15, got 16"),
    ], ids=["missing", "base"])
    def test_refusal_carries_the_prefix(self, edit, message, hc4_p1):
        payload = embedding_to_json(hc4_p1)
        edit(payload)
        with pytest.raises(ValueError) as err:
            embedding_from_json(payload, hc4_p1.space)
        assert str(err.value) == f"malformed embedding payload: {message}"

    @pytest.mark.parametrize("text", ["{not json", "[" * 100000 + "]" * 100000], ids=["garbled", "nested"])
    def test_invalid_json_file_refused(self, text, hc4_p1, tmp_path):
        path = tmp_path / "e.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_embedding(path, hc4_p1.space)

    def test_inconsistent_blocks_rejected(self, hc4_p1):
        payload = embedding_to_json(hc4_p1)
        payload["images"]["0001"] = payload["images"]["0001"][:-1]
        with pytest.raises(ValueError):
            embedding_from_json(payload, hc4_p1.space)

    def test_zero_padded_blocks_load_and_certify_alike(self):
        # files written while every block was as wide as the space, the
        # clipped eigenvalues' columns zero, still load and certify the same
        E = build_embedding(generate("path", 30), p=2.0)
        payload = embedding_to_json(E)
        n = E.space.n
        padded = json.loads(json.dumps(payload))
        for label, blocks in padded["images"].items():
            padded["images"][label] = [[0.0] * (n - len(b)) + b for b in blocks]
        old = embedding_from_json(padded, E.space)
        new = embedding_from_json(payload, E.space)
        assert widths(old) == (n,) * E.level_count
        assert widths(new) == widths(E) and min(widths(E)) < n
        assert verify_bounds(old) == verify_bounds(new) == []
        # zero columns add nothing; only the summation order differs
        np.testing.assert_allclose(pairwise_image_power_sums(old)[3], pairwise_image_power_sums(new)[3], rtol=1e-13)
        assert empirical_profile(old, 10).marginal_count == empirical_profile(new, 10).marginal_count

    # a path's d^2 is of negative type, a cube's is not
    @pytest.mark.parametrize("kind,param,name,beta", [("path", 12, "gaussian", 2.0), ("hypercube", 3, "laplacian", 1.0)])
    def test_kernel_names_read_as_beta(self, kind, param, name, beta, tmp_path):
        X = generate(kind, param)
        path, again = tmp_path / "e.json", tmp_path / "again.json"
        save_embedding(build_embedding(X, p=1.5), path)
        assert {level["kernel"] for level in json.loads(path.read_text())["schedule"]} == {name}
        E = load_embedding(path, X)
        assert E.beta == beta
        save_embedding(E, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("key,value,message", [
        ("t", 0.0, "level 2: t must be finite and positive, got 0.0"),
        ("eps", -1.0, "level 2: eps must be finite and nonnegative, got -1.0"),
    ])
    def test_level_refusal_names_its_level(self, key, value, message, hc4_p1):
        # a level record does not know its number; the loader names it
        payload = embedding_to_json(hc4_p1)
        payload["schedule"][1][key] = value
        with pytest.raises(ValueError) as err:
            embedding_from_json(payload, hc4_p1.space)
        assert str(err.value) == f"malformed embedding payload: {message}"

    def test_numpy_integer_base_writes_an_ints_bytes(self, tmp_path):
        # np.int64 passed the base check, and then json.dumps refused it
        E = build_embedding(generate("hypercube", 3), p=1.5, base_index=2)
        E64 = dataclasses.replace(E, base_index=np.int64(2))
        assert type(E64.base_index) is int
        save_embedding(E, tmp_path / "a.json")
        save_embedding(E64, tmp_path / "b.json")
        assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()
        back = load_embedding(tmp_path / "b.json", E.space)
        assert back.base_index == 2
        save_embedding(back, tmp_path / "c.json")
        assert (tmp_path / "c.json").read_bytes() == (tmp_path / "a.json").read_bytes()


class TestStreamedWriter:
    def test_bytes_are_the_dict_form_dumped(self, built_embedding, tmp_path):
        path = tmp_path / "e.json"
        save_embedding(built_embedding, path)
        text = (json.dumps(embedding_to_json(built_embedding)) + "\n").encode("utf-8")
        assert path.read_bytes() == text
        # and so for the embedding read back from that file
        back = load_embedding(path, built_embedding.space)
        save_embedding(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == text

    def test_saturated_levels_and_escaped_labels(self, tmp_path):
        dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        E = build_embedding(FiniteMetricSpace(labels=('a"b', "\u00e9", "c\\"), dist=dist), p=1.5)
        assert any(level.saturated for level in E.schedule)
        save_embedding(E, tmp_path / "e.json")
        assert (tmp_path / "e.json").read_text(encoding="utf-8") == json.dumps(embedding_to_json(E)) + "\n"

    def test_one_point(self, tmp_path):
        E = build_embedding(FiniteMetricSpace(labels=("x",), dist=np.zeros((1, 1))), p=2.0)
        save_embedding(E, tmp_path / "e.json")
        assert (tmp_path / "e.json").read_text(encoding="utf-8") == json.dumps(embedding_to_json(E)) + "\n"

    def test_peak_well_below_the_file(self, tmp_path):
        # one point's image text at a time, read from the levels' images
        E = build_embedding(generate("gaussian", 150, seed=1), p=1.3)
        path = tmp_path / "e.json"
        peak = saving_peak(save_embedding, E, path)
        assert peak < path.stat().st_size / 10


# the default schedule refused these at the float64 floor while the factor
# kept eigh's noise-level eigenvalues (ROADMAP item 2)
FORMER_FLOOR_REFUSALS = [
    ("path", 18, 3.0),
    ("path", 30, 2.0),
    ("cycle", 48, 2.0),
    ("path", 48, 1.0),
    ("cycle", 80, 2.0),
    ("path", 60, 1.0),
    ("path", 60, 3.0),
]


class TestRankAwareBlocks:
    """Each block is as wide as its level's numerical rank."""

    @pytest.mark.parametrize("kind,param,p", FORMER_FLOOR_REFUSALS)
    def test_former_floor_refusal_certifies(self, kind, param, p):
        E = build_embedding(generate(kind, param), p=p)
        assert verify_bounds(E) == []
        assert verify_levels(E.schedule, E.space, E.exponent, E.delta) == []
        # the last levels sit below the floor: the constant map, one column
        assert E.schedule[-1].images.shape[1] == 1
        assert E.schedule[-1].epsilon_n == 0.0 and E.schedule[-1].saturated

    def test_hypercube8_p2_width(self):
        E = build_embedding(generate("hypercube", 8), p=2.0)
        # 265 columns: levels 2-10 take the constant map at the separation
        # end; 981 while they were factored, and 10 levels of 256 columns
        # each (2560) while every block was as wide as the space
        assert sum(widths(E)) == 265
        assert verify_bounds(E) == []


PROPERTY_EXPONENTS = [1.0, 1.3, 2.0, 3.0]


@st.composite
def graph_metrics(draw):
    """Shortest-path metric of a random connected graph with edge weights 1..4."""
    n = draw(st.integers(2, 14))
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    # a random spanning tree keeps the graph connected; extra edges close cycles
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    for i, j in edges:
        if i != j:
            w[i, j] = w[j, i] = draw(st.integers(1, 4))
    for k in range(n):
        w = np.minimum(w, w[:, k:k + 1] + w[k:k + 1, :])
    return FiniteMetricSpace(labels=tuple(map(str, range(n))), dist=w)


@st.composite
def euclidean_clouds(draw):
    """A random cloud of 1..12 points, scaled by 10^k for k in -6..6."""
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 4))
    pts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, dim))
    pts *= 10.0 ** draw(st.integers(-6, 6))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    return FiniteMetricSpace(labels=tuple(map(str, range(n))), dist=dist, points=pts)


@st.composite
def ultrametrics(draw):
    """d(i, j) = the largest merge height between positions i and j of a random order.

    Each of the n - 1 heights is one of four values times a common 2^k, so
    many pairs share a distance and the S_n searches meet ties.
    """
    n = draw(st.integers(2, 14))
    heights = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 3.0]), min_size=n - 1, max_size=n - 1)))
    heights *= 2.0 ** draw(st.integers(-4, 3))
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = heights[i:j].max()
    perm = np.array(draw(st.permutations(range(n))))
    return FiniteMetricSpace(labels=tuple(map(str, range(n))), dist=dist[np.ix_(perm, perm)])


def certify(space, p):
    embedding = build_embedding(space, p=p)
    assert verify_bounds(embedding) == []
    assert verify_levels(embedding.schedule, space, embedding.exponent, embedding.delta) == []
    return embedding


# both kernels build_embedding chooses between, exp(-t d^2) and exp(-t d)
BETAS = (2.0, 1.0)


def certify_family(space, p, beta):
    """The default schedule under a kernel exp(-t d^beta) given, below build_embedding's choice."""
    levels, _ = build_level_family(space, default_level_count(space), p, 1.0, beta)
    assert verify_levels(levels, space, p, 1.0) == []


class TestCertifyOrRefuse:
    """Every build verifies cleanly; only distances that are not of negative type refuse.

    The factor keeps only the eigenvalues above eigh's noise floor, so no
    level runs into the float64 floor of its closeness target: clouds
    (beta = 2) always certify, ultrametrics under either kernel, and
    graph metrics refuse, with NotNegativeType, exactly where d is not of
    negative type.
    """

    @settings(max_examples=40, deadline=None)
    @given(space=graph_metrics(), p=st.sampled_from(PROPERTY_EXPONENTS))
    def test_graph_metrics(self, space, p):
        beta = reference_kernel(space.dist)
        if beta is None:
            with pytest.raises(NotNegativeType, match="beta = 1"):
                build_embedding(space, p=p)
        else:
            assert certify(space, p).beta == beta

    @settings(max_examples=40, deadline=None)
    @given(space=euclidean_clouds(), p=st.sampled_from(PROPERTY_EXPONENTS))
    def test_euclidean_clouds(self, space, p):
        assert certify(space, p).beta == 2.0

    @settings(max_examples=40, deadline=None)
    @given(
        space=ultrametrics(),
        p=st.sampled_from(PROPERTY_EXPONENTS),
        beta=st.sampled_from(BETAS),
    )
    def test_ultrametrics(self, space, p, beta):
        # an ultrametric embeds isometrically in l_2, so both kernels are PSD
        # at every bandwidth and no build may refuse
        certify_family(space, p, beta)

    # one point has no pair and two points one, where calibration's choice of
    # close-pair measurement meets its edge (2 * close >= pairs)
    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("p", PROPERTY_EXPONENTS)
    def test_one_point(self, p, beta):
        certify_family(FiniteMetricSpace(labels=("a",), dist=np.zeros((1, 1))), p, beta)

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("p", PROPERTY_EXPONENTS)
    @pytest.mark.parametrize("d", [1e-7, 1.0, 3.5])
    def test_two_points(self, d, p, beta):
        certify_family(FiniteMetricSpace(labels=("a", "b"), dist=np.array([[0.0, d], [d, 0.0]])), p, beta)


def squared_path():
    """Squared distances on the 3-point path: d(0, 2) = 4 > 1 + 1, yet d is of negative type."""
    return FiniteMetricSpace(labels=("a", "b", "c"), dist=np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]]))


def squared_cloud():
    """gaussian(60, dim 3) with its distances squared: of negative type, far from a metric."""
    cloud = generate("gaussian", 60, seed=1, dim=3)
    return FiniteMetricSpace(labels=cloud.labels, dist=cloud.dist ** 2)


@st.composite
def positive_matrices(draw):
    """A symmetric matrix with zero diagonal and positive entries off it, 1..8 points, often no metric.

    Entries are k / 4 for k in 1..40, times a common 2^j, so ties are common.
    """
    n = draw(st.integers(1, 8))
    upper = np.zeros((n, n))
    pairs = n * (n - 1) // 2
    upper[np.triu_indices(n, 1)] = draw(st.lists(st.integers(1, 40), min_size=pairs, max_size=pairs))
    dist = (upper + upper.T) * 2.0 ** (draw(st.integers(-8, 2)) - 2)
    return FiniteMetricSpace(labels=tuple(map(str, range(n))), dist=dist)


class TestTriangleNotRead:
    """A build checks the axioms its certificate uses, not the triangle inequality.

    The kernel needs d^beta of negative type, and verification measures
    every pair, so a space of negative type that is not a metric certifies,
    while validate still reports it.
    """

    @pytest.mark.parametrize("p", PROPERTY_EXPONENTS)
    @pytest.mark.parametrize("make", [squared_path, squared_cloud])
    def test_negative_type_non_metric_certifies(self, make, p):
        space = make()
        kinds = {v.kind for v in validate(space).violations}
        assert kinds == {"triangle"}
        assert certify(space, p).beta == 1.0

    def test_builds_with_no_triangle_scan(self, monkeypatch):
        calls = []
        monkeypatch.setattr(coarse_embedder, "validate", lambda space: calls.append(space) or validate(space))
        monkeypatch.setattr(metric_spaces, "validate", lambda space: calls.append(space) or validate(space))
        assert verify_bounds(build_embedding(squared_path(), p=1.3)) == []
        assert verify_bounds(build_embedding(generate("hypercube", 3), p=1.3)) == []
        assert calls == []

    @pytest.mark.parametrize(
        "dist",
        [
            [[0.0, 1.0], [2.0, 0.0]],
            [[0.0, math.inf], [math.inf, 0.0]],
            [[0.0, math.nan], [math.nan, 0.0]],
            [[1.0, 1.0], [1.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[0.0, -1.0, 1.0], [-1.0, 0.0, 5.0], [1.0, 5.0, 0.0]],
        ],
        ids=["asymmetric", "infinite", "nan", "diagonal", "zero", "negative_and_triangle"],
    )
    def test_pointwise_faults_refused_in_validate_words(self, dist):
        space = FiniteMetricSpace(labels=tuple("abc"[: len(dist)]), dist=np.array(dist))
        with pytest.raises(ValueError) as want:
            validate(space).require_ok()
        with pytest.raises(ValueError) as got:
            build_embedding(space, p=1.3)
        assert str(got.value) == str(want.value)

    @settings(max_examples=150, deadline=None)
    @given(space=positive_matrices(), p=st.sampled_from(PROPERTY_EXPONENTS))
    def test_certify_or_refuse(self, space, p):
        report = validate(space)
        try:
            embedding = build_embedding(space, p=p)
        except NotNegativeType:
            # only a metric: a non-metric is refused in validate's words
            assert report.ok
        except ValueError as exc:
            with pytest.raises(ValueError) as want:
                report.require_ok()
            assert str(exc) == str(want.value)
        else:
            assert verify_bounds(embedding) == []


def k23():
    """The complete bipartite graph K_{2,3}: its d is not of negative type."""
    d = np.array(
        [[0, 2, 1, 1, 1], [2, 0, 1, 1, 1], [1, 1, 0, 2, 2], [1, 1, 2, 0, 2], [1, 1, 2, 2, 0]],
        dtype=float,
    )
    return FiniteMetricSpace(labels=("a", "b", "x", "y", "z"), dist=d)


def permuted(space, perm):
    perm = np.asarray(perm)
    return FiniteMetricSpace(labels=tuple(space.labels[i] for i in perm), dist=space.dist[np.ix_(perm, perm)])


def chosen_kernel(space):
    """The beta build_embedding takes on space, or None where it refuses."""
    try:
        return kernel_sphere_maps._kernel_for(space)
    except NotNegativeType:
        return None


class TestKernelChoice:
    """The kernel follows from the distances: beta = 2 where d^2 is of negative type, else beta = 1 where d is."""

    @settings(max_examples=150, deadline=None)
    @given(space=st.one_of(graph_metrics(), ultrametrics(), euclidean_clouds()))
    def test_matches_eigvalsh_reference(self, space):
        assert chosen_kernel(space) == reference_kernel(space.dist)

    @settings(max_examples=40, deadline=None)
    @given(space=st.one_of(ultrametrics(), euclidean_clouds()))
    def test_ultrametrics_and_clouds_take_beta_two(self, space):
        # both embed isometrically in l_2, so d^2 is of negative type
        assert chosen_kernel(space) == 2.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), space=graph_metrics())
    def test_same_kernel_for_a_permuted_space(self, data, space):
        reference_kernel(space.dist)  # skips the spaces roundoff may decide
        perm = data.draw(st.permutations(range(space.n)))
        assert chosen_kernel(permuted(space, perm)) == chosen_kernel(space)

    @pytest.mark.parametrize(
        "kind,param,expected",
        [
            ("hypercube", 4, 1.0),
            ("hypercube", 8, 1.0),
            ("cycle", 16, 1.0),
            ("gaussian", 60, 2.0),
            ("path", 30, 2.0),
            ("hypercube", 1, 2.0),
            ("cycle", 3, 2.0),
        ],
    )
    def test_stock_spaces(self, kind, param, expected):
        # clouds, cubes and cycles keep the kernel their meta label gave them;
        # paths, and the two- and three-point cube and cycle, whose d^2 is of
        # negative type, take beta = 2
        X = generate(kind, param, seed=1) if kind == "gaussian" else generate(kind, param)
        assert chosen_kernel(X) == expected

    def test_refused_before_any_factorization(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kernel_sphere_maps, "build_sphere_map", lambda *args: calls.append(args))
        d = k23().dist
        # the witness: the smallest eigenvalue of G = (d_i0 + d_j0 - d_ij) / 2, -0.30
        lam = float(np.linalg.eigvalsh(0.5 * (d[1:, :1] + d[:1, 1:] - d[1:, 1:]))[0])
        assert lam < -0.3
        with pytest.raises(NotNegativeType, match=rf"beta = 1\).*eigenvalue {lam:.6e}$"):
            build_embedding(k23(), p=1.5)
        assert calls == []

    @pytest.mark.parametrize("param,p,thresholds,constant_from", [(30, 2.0, [2, 5, 13], 4), (48, 3.0, [3, 11, 28], 5)])
    def test_paths_certify_under_beta_two(self, param, p, thresholds, constant_from):
        # under beta = 1 these gave S = [2, 10] and [2, 23]
        E = certify(generate("path", param), p)
        assert E.beta == 2.0
        assert E.separation_thresholds().tolist() == thresholds
        # from constant_from on, every level takes the constant map at the
        # separation end: path(30) at p = 2 after S_3 = 13, and path(48) at
        # p = 3 after S_3 = 28 and a saturated level 4 (through the Mazur
        # envelopes; at the float64 floor, from level 13, without them)
        constant = [n for n, level in enumerate(E.schedule, 1) if level.images.shape[1] == 1]
        assert constant == list(range(constant_from, E.level_count + 1))
        assert all(level.epsilon_n == 0.0 and level.saturated for level in E.schedule[constant_from - 1:])
        reference = without_separation_end(build_embedding, generate("path", param), p=p)
        assert [level.s_n for level in E.schedule] == [level.s_n for level in reference.schedule]

    @pytest.mark.parametrize("scale", [664, 1019])
    def test_overflowing_squares_take_beta_one(self, scale):
        # d^2 overflows to inf, and G holds inf and NaN; a Cholesky of it
        # returns NaN without raising, so only the finiteness check refuses
        # beta = 2. At 2^1019 the sum of d_i0 overflows too, and the trace of
        # beta = 1's G is scaled so that it does not. The build raises no
        # RuntimeWarning (an error in this suite)
        path = generate("path", 10)
        # the path with its distances scaled by 2^scale (2^664 is about 1.5e200), exactly
        X = FiniteMetricSpace(labels=path.labels, dist=np.ldexp(path.dist, scale))
        with np.errstate(over="ignore"):
            assert np.isinf(X.dist ** 2).any()
        E = build_embedding(X, p=1.5)
        assert E.beta == 1.0
        assert verify_bounds(E) == []


def bits(arr):
    return np.asarray(arr, dtype=np.float64).view(np.uint64)


class TestOneKernel:
    """One kernel exp(-t d^beta): at beta = 2 and 1, the bits of exp(-t d d) and exp(-t d)."""

    @settings(max_examples=80, deadline=None)
    @given(space=st.one_of(graph_metrics(), euclidean_clouds()), t=st.floats(1e-12, 1e8))
    def test_kernel_matrix_bits(self, space, t):
        d = space.dist
        assert np.array_equal(bits(kernel_sphere_maps.kernel_matrix(space, t, 2)), bits(np.exp(-t * d * d)))
        assert np.array_equal(bits(kernel_sphere_maps.kernel_matrix(space, t, 1)), bits(np.exp(-t * d)))

    @settings(max_examples=80, deadline=None)
    @given(space=st.one_of(graph_metrics(), euclidean_clouds()))
    def test_kernel_g_bits(self, space):
        d = space.dist.ravel().tolist()
        assert np.array_equal(bits([kernel_sphere_maps._kernel_g(x, 2) for x in d]), bits([x * x for x in d]))
        assert np.array_equal(bits([kernel_sphere_maps._kernel_g(x, 1) for x in d]), bits(d))


# the first 16 clouds of the benchmark's cloud-frac workload at seed 1
CLOUD_SPECS = [("gaussian", 1000 + k, 1.3) for k in range(16)]


def spec_space(kind, param):
    return generate("gaussian", 160, seed=param, dim=8) if kind == "gaussian" else generate(kind, param)


def first_constant_level(embedding) -> int:
    """The index of the first level whose images are the constant map; the level count if none is."""
    return next((k for k, w in enumerate(widths(embedding)) if w == 1), embedding.level_count)


def envelope_l2_bound(eps, p):
    """The largest l_2 distance whose image under the Mazur map to l_p can be eps: mazur_bounds(2, p).lower's inverse."""
    if p == 2.0:
        return eps
    if p < 2.0:
        return 2.0 ** (1.0 - p / 2.0) * eps ** (p / 2.0)
    return p * eps / 2.0


def p2_only_rule(p, eps, delta_half, s_floor, all_close, d_max, g_close, g_far, t_cap, gram_error):
    """The separation end with bound (c) at p = 2 only: the rule before the Mazur envelopes carried it to every p."""
    if s_floor >= d_max or (all_close and eps < delta_half):
        return True
    if p.value != 2.0:
        return False
    t = t_cap
    if g_close is not None:
        t = min(t_cap, -math.log1p(-(eps * eps / 2.0 + gram_error)) / g_close)
    return math.sqrt(-2.0 * math.expm1(-t * g_far) + 2.0 * gram_error) < delta_half


class TestSeparationEnd:
    """A level that cannot leave a pair beyond s_floor delta/2 apart takes the constant map, unfactored."""

    @settings(max_examples=120, deadline=None)
    @given(
        space=st.one_of(graph_metrics(), ultrametrics(), euclidean_clouds()),
        delta=st.sampled_from([1.0, 0.5, 0.25, 0.05]),
        p=st.sampled_from([1.0, 1.3, 1.5, 2.0, 3.0]),
    )
    def test_bandwidth_bound_keeps_every_pair_close(self, space, delta, p):
        # wherever bound (c) decides, the images at the bandwidth it bounds
        # the level's search by, the cap or the bound's t, leave the
        # farthest pair under delta/2 in l_p, measured after the Mazur map
        try:
            kernel = kernel_sphere_maps._kernel_for(space)
        except NotNegativeType:
            return
        decided = []
        real = kernel_sphere_maps._separates_nothing

        def spy(p, eps, delta_half, s_floor, all_close, d_max, g_close, g_far, t_cap, gram_error):
            out = real(p, eps, delta_half, s_floor, all_close, d_max, g_close, g_far, t_cap, gram_error)
            if out and not (s_floor >= d_max or (all_close and eps < delta_half)):
                t = t_cap
                if g_close is not None:
                    s = envelope_l2_bound(eps, p.value)
                    t = min(t_cap, -math.log1p(-(s * s / 2.0 + gram_error)) / g_close)
                decided.append((t, delta_half))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel_sphere_maps, "_separates_nothing", spy)
            levels, _ = build_level_family(space, default_level_count(space), p, delta, kernel)
        assert verify_levels(levels, space, p, delta) == []
        for t, delta_half in decided:
            images = kernel_sphere_maps._transported_images(space, t, kernel, as_exponent(p))
            assert pairwise_pnorm_all(images, p).max() < delta_half

    @settings(max_examples=80, deadline=None)
    @given(
        space=st.one_of(graph_metrics(), euclidean_clouds()),
        delta=st.sampled_from([1.0, 0.5, 0.25, 0.05]),
        p=st.sampled_from([1.0, 1.3, 1.5, 2.0, 3.0]),
    )
    def test_searching_an_ended_level_measures_it_saturated(self, space, delta, p):
        # wherever the end fires, the level searched with the end off, from
        # the same previous level and s_floor, measures S_n = inf
        try:
            kernel = kernel_sphere_maps._kernel_for(space)
        except NotNegativeType:
            return
        calls, fired = [], []
        real_level, real_rule = kernel_sphere_maps.calibrate_level, kernel_sphere_maps._separates_nothing

        def spy_level(*args, **kwargs):
            calls.append((args, kwargs))
            return real_level(*args, **kwargs)

        def spy_rule(*args):
            out = real_rule(*args)
            if out:
                fired.append(len(calls) - 1)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel_sphere_maps, "calibrate_level", spy_level)
            mp.setattr(kernel_sphere_maps, "_separates_nothing", spy_rule)
            levels, _ = build_level_family(space, default_level_count(space), p, delta, kernel)
        assert verify_levels(levels, space, p, delta) == []
        for k in fired:
            args, kwargs = calls[k]
            searched, _ = without_separation_end(real_level, *args, **kwargs)
            assert searched.saturated and levels[k].saturated

    @pytest.mark.parametrize("specs", [LADDER_SPECS, CLOUD_SPECS], ids=["graph-ladder", "cloud-frac"])
    def test_p2_outputs_keep_their_bytes(self, specs):
        # at p = 2 both envelopes are the identity, and bound (c) makes the
        # decisions, and the files, of the rule that knew it at p = 2 only;
        # the graph-ladder specs at p = 2, and the clouds built at p = 2
        for kind, param in sorted({(kind, param) for kind, param, p in specs if p == 2.0 or kind == "gaussian"}):
            space = spec_space(kind, param)
            E = build_embedding(space, p=2.0)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernel_sphere_maps, "_separates_nothing", p2_only_rule)
                reference = build_embedding(space, p=2.0)
            assert json.dumps(embedding_to_json(E)) == json.dumps(embedding_to_json(reference))

    @pytest.mark.parametrize("specs", [LADDER_SPECS, CLOUD_SPECS], ids=["graph-ladder", "cloud-frac"])
    def test_same_thresholds_and_leading_bits_as_without_it(self, specs):
        # at every p: the envelopes carry bound (c) beyond p = 2, and S_n,
        # rho1 and rho2 stay those of the search
        constant_levels = {2.0: 0, "other": 0}
        for kind, param, p in specs:
            space = spec_space(kind, param)
            E = build_embedding(space, p=p)
            reference = without_separation_end(build_embedding, space, p=p)
            assert [level.s_n for level in E.schedule] == [level.s_n for level in reference.schedule]
            d = np.unique(space.dist)
            for ours, theirs in zip(theoretical_bounds(E, d), theoretical_bounds(reference, d)):
                assert np.array_equal(ours, theirs)
            assert verify_bounds(E) == []
            first = first_constant_level(E)
            for a, b in zip(E.schedule[:first], reference.schedule[:first]):
                assert (a.bandwidth_t, a.epsilon_n) == (b.bandwidth_t, b.epsilon_n)
                assert np.array_equal(a.images.view(np.uint64), b.images.view(np.uint64))
            for level in E.schedule[first:]:
                assert level.images.shape[1] == 1 and level.epsilon_n == 0.0 and level.saturated
            constant_levels[2.0 if p == 2.0 else "other"] += E.level_count - first
        assert constant_levels["other"] > 0
        assert constant_levels[2.0] > 0 or specs is CLOUD_SPECS

    def test_hypercube8_p2_factors_level_one_only(self, monkeypatch):
        # levels 2-10 cannot separate at p = 2 (bound (c)); they held 716 of 981 columns
        X = generate("hypercube", 8)
        reference = without_separation_end(build_embedding, X, p=2.0)
        calls = []
        real = kernel_sphere_maps.build_sphere_map
        monkeypatch.setattr(kernel_sphere_maps, "build_sphere_map", lambda *args: calls.append(args) or real(*args))
        E = build_embedding(X, p=2.0)
        assert len(calls) == 1
        assert widths(E) == (256,) + (1,) * 9
        assert sum(widths(reference)) == 981
        first, same = E.schedule[0], reference.schedule[0]
        assert (first.bandwidth_t, first.epsilon_n) == (same.bandwidth_t, same.epsilon_n)
        assert np.array_equal(first.images.view(np.uint64), same.images.view(np.uint64))
        assert [level.s_n for level in E.schedule] == [level.s_n for level in reference.schedule]
        assert verify_bounds(E) == []
        # S_1 = 2 is the only finite threshold, so rho1 and rho2 are unchanged
        assert E.separation_thresholds().tolist() == reference.separation_thresholds().tolist() == [2.0]

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_cases_a_and_b_at_any_exponent(self, p):
        # diameter 7, largest close distance 3, delta/2 = 0.1, cap 1
        def rule(eps, s_floor, all_close):
            return kernel_sphere_maps._separates_nothing(
                as_exponent(p), eps, 0.1, s_floor, all_close, 7.0, 3.0, 7.0, 1.0, 0.0
            )

        # (a) no pair beyond s_floor; (b) every pair close, under a target below delta/2
        assert rule(2.0 ** -3, 7.0, False)
        assert rule(2.0 ** -4, 0.0, True)
        # neither, and at p = 2 the farthest pair can reach 0.19 > delta/2
        assert not rule(2.0 ** -3, 0.0, True)
        assert not rule(2.0 ** -3, 6.0, False)
        # path(8): from level 7 on every pair is close and 2^-n < 1/2
        X = generate("path", 8)
        levels, _ = build_level_family(X, 10, p, 1.0, 1.0)
        for level in levels[6:]:
            assert level.images.shape[1] == 1 and level.epsilon_n == 0.0 and level.saturated
        assert verify_levels(levels, X, p, 1.0) == []


# the advertised range: 1 <= p < 1024, delta finite and positive, any finite
# distances; 13 exponents, 5 deltas, and 4 spaces at 5 scales, plus points
# 0, 1, 2 and 2^k on a line, past the d^beta ~ 2^1019 where no positive t
# makes the constant map's kernel all-ones
RANGE_EXPONENTS = [1.0, 1.3, 1.5, 2.0, 3.0, 7.5, 20.0, 100.0, 150.0, 200.0, 500.0, 1000.0, 1023.0]
RANGE_DELTAS = [1e-9, 1e-3, 0.1, 1.0, 1.4]
RANGE_SPACES = [
    (kind, param, scale)
    for kind, param in (("cycle", 8), ("path", 10), ("hypercube", 4), ("gaussian", 30))
    for scale in (2.0 ** -1000, 1e-10, 1.0, 1e10, 2.0 ** 1000)
] + [("far-line", k, 1.0) for k in range(1019, 1024)]


def range_space(kind, param, scale):
    if kind == "far-line":
        xs = [0.0, 1.0, 2.0, math.ldexp(1.0, param)]
        return FiniteMetricSpace(labels=tuple("abcd"), dist=np.abs(np.subtract.outer(xs, xs)))
    X = generate(kind, param, seed=3) if kind == "gaussian" else generate(kind, param)
    return FiniteMetricSpace(labels=X.labels, dist=X.dist * scale)


class TestAdvertisedRange:
    """Every input in the advertised range certifies or is refused by name."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spec", RANGE_SPACES, ids=lambda spec: f"{spec[0]}{spec[1]}x{spec[2]:g}")
    def test_certifies_or_raises_a_named_error(self, spec):
        # p >= 200 with a small delta raised ZeroDivisionError where the
        # envelope start's l_2 target squared to 0
        X = range_space(*spec)
        certified = 0
        for p in RANGE_EXPONENTS:
            for delta in RANGE_DELTAS:
                try:
                    E = build_embedding(X, p=p, delta=delta)
                except (CalibrationError, NotNegativeType):
                    continue
                assert verify_bounds(E) == [], (p, delta)
                certified += 1
        assert certified > 0


class TestPairPowerSums:
    """The record's pair power sums: each level's pair distances, raised to p and added in level order."""

    @pytest.mark.parametrize("specs", [LADDER_SPECS, CLOUD_SPECS[:4]], ids=["graph-ladder", "cloud-frac"])
    def test_sums_of_builds_and_reloads(self, specs):
        # a build and a reload both measure each level's own images
        for kind, param, p in specs:
            space = spec_space(kind, param)
            E = build_embedding(space, p=p)
            back = embedding_from_json(embedding_to_json(E), space)
            expected = level_power_sums(E.schedule, p)
            assert E.pair_power_sums.tobytes() == expected.tobytes()
            assert back.pair_power_sums.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "specs",
        [LADDER_SPECS, [("gaussian", seed, 1.3) for seed in range(1, 5)]],
        ids=["graph-ladder", "gaussian160"],
    )
    def test_reload_is_the_build_at_every_base(self, specs):
        # the base point cancels in every pair, so no base moves a sum or a report
        for kind, param, p in specs:
            space = generate("gaussian", 160, seed=param) if kind == "gaussian" else generate(kind, param)
            E = build_embedding(space, p=p)
            csv = export(empirical_profile(E, 16), "csv")
            for base in (0, space.n // 2, space.n - 1):
                back = embedding_from_json(embedding_to_json(dataclasses.replace(E, base_index=base)), space)
                assert back.pair_power_sums.tobytes() == E.pair_power_sums.tobytes(), (kind, param, p, base)
                assert export(empirical_profile(back, 16), "csv") == csv, (kind, param, p, base)

    def test_inf_sum_accepted_and_reported(self):
        # +inf is an overflow, not a NaN: the record takes it, and it breaks the upper envelope
        E = build_embedding(generate("cycle", 8), p=1.5)
        assert verify_bounds(E) == []
        sums = E.pair_power_sums.copy()
        sums[3] = math.inf
        tampered = dataclasses.replace(E, pair_power_sums=sums)
        ii, jj = E.space.pair_indices()
        violations = verify_bounds(tampered)
        assert [(v.pair, v.side, v.measured) for v in violations] == [
            ((E.space.labels[ii[3]], E.space.labels[jj[3]]), "upper", math.inf)
        ]
        assert empirical_profile(tampered, 4).violation_count == 1


def round_trip(embedding):
    """load_embedding(save_embedding(embedding)), through a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.json"
        save_embedding(embedding, path)
        return load_embedding(path, embedding.space)


def certify_reloaded(space, p):
    embedding = build_embedding(space, p=p)
    back = round_trip(embedding)
    assert verify_levels(back.schedule, space, back.exponent, back.delta) == []
    assert verify_bounds(back) == []
    assert np.array_equal(back.image_matrix.view(np.uint64), embedding.image_matrix.view(np.uint64))


class TestReloadedFamilyCertifies:
    """Levels read back from their file carry their images, and the oracle re-measures them."""

    @settings(max_examples=25, deadline=None)
    @given(space=graph_metrics(), p=st.sampled_from(PROPERTY_EXPONENTS))
    def test_graph_metrics(self, space, p):
        try:
            certify_reloaded(space, p)
        except NotNegativeType:
            pass

    @settings(max_examples=25, deadline=None)
    @given(space=euclidean_clouds(), p=st.sampled_from(PROPERTY_EXPONENTS))
    def test_euclidean_clouds(self, space, p):
        certify_reloaded(space, p)


class TestOffsetFiles:
    """Files written while the rows were stored offset from the base point read back the same."""

    @staticmethod
    def offset_payload(embedding):
        # what the writer stored then: each level's images minus the base point's row
        payload = embedding_to_json(embedding)
        base = payload["images"][embedding.space.labels[embedding.base_index]]
        payload["images"] = {
            label: [(np.array(row) - np.array(b)).tolist() for row, b in zip(rows, base)]
            for label, rows in payload["images"].items()
        }
        return payload

    def test_same_matrix_and_exports(self, built_embedding):
        # the old file measures its offset rows, the new one the build's own:
        # the same Phi, sums apart by rounding only, and both certify
        E = dataclasses.replace(built_embedding, base_index=built_embedding.space.n - 1)
        old = embedding_from_json(self.offset_payload(E), E.space)
        new = embedding_from_json(embedding_to_json(E), E.space)
        for back in (old, new):
            assert np.array_equal(back.image_matrix.view(np.uint64), E.image_matrix.view(np.uint64))
            assert verify_bounds(back) == []
        for fmt in ("csv", "json"):
            assert export(empirical_profile(new, 16), fmt) == export(empirical_profile(E, 16), fmt)
        np.testing.assert_allclose(old.pair_power_sums, new.pair_power_sums, rtol=1e-13, atol=0.0)
        # the old file's rows are offsets, off the unit sphere: the base row is zero
        assert not any(level.images[E.base_index].any() for level in old.schedule)
