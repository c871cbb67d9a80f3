"""Embedding assembly, envelopes, truncation control, and JSON round trips."""

import dataclasses
import json
import math

import numpy as np
import pytest

from lpembed import coarse_embedder
from lpembed.coarse_embedder import (
    CoarseEmbedding,
    build_embedding,
    default_level_count,
    embedding_from_json,
    embedding_to_json,
    evaluate,
    pairwise_image_distances,
    pairwise_image_power_sums,
    tail_bound,
    theoretical_bounds,
)
from lpembed.distortion_report import verify_bounds
from lpembed.lp_core import (
    LpVector,
    as_exponent,
    block_distance_p,
    block_norm_p,
    distance_p,
    pairwise_power_sums_all,
)
from lpembed.metric_spaces import FiniteMetricSpace, generate


@pytest.fixture(scope="module")
def hc4_p1():
    return build_embedding(generate("hypercube", 4), p=1.0)


@pytest.fixture(scope="module")
def hc6_p1():
    return build_embedding(generate("hypercube", 6), p=1.0, level_count=8)


def two_point(d=1.0):
    return FiniteMetricSpace(labels=("a", "b"), dist=np.array([[0.0, d], [d, 0.0]]))


class TestBuild:
    def test_base_image_is_zero(self, hc4_p1):
        base = evaluate(hc4_p1, hc4_p1.base_index)
        assert block_norm_p(base, 1.0) == 0.0

    def test_block_count_equals_level_count(self, hc4_p1):
        img = evaluate(hc4_p1, 5)
        assert len(img) == hc4_p1.level_count

    def test_single_level_two_point_distance_is_level_distance(self):
        E = build_embedding(two_point(), p=2.0, level_count=1)
        img_a, img_b = evaluate(E, "a"), evaluate(E, "b")
        got = block_distance_p(img_a, img_b, 2.0)
        lvl = E.family.levels[0]
        expected = distance_p(LpVector(lvl.images[0]), LpVector(lvl.images[1]), 2.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_blocks_reproduce_family_offsets(self, hc4_p1):
        rng = np.random.default_rng(0)
        for idx in rng.integers(0, 16, size=5):
            img = evaluate(hc4_p1, int(idx))
            for lvl, block in zip(hc4_p1.family.levels, img.blocks):
                expected = lvl.images[idx] - lvl.images[hc4_p1.base_index]
                assert np.abs(block.coeffs - expected).max() <= 1e-12

    def test_default_level_count(self):
        assert default_level_count(generate("hypercube", 4)) == 6
        assert default_level_count(generate("path", 3)) == 4

    def test_level_count_bounds(self):
        with pytest.raises(ValueError):
            build_embedding(two_point(), p=1.0, level_count=0)
        with pytest.raises(ValueError):
            build_embedding(two_point(), p=1.0, level_count=65)

    def test_base_index_range(self):
        with pytest.raises(ValueError):
            build_embedding(two_point(), p=1.0, base_index=2)

    def test_invalid_space_rejected(self):
        broken = FiniteMetricSpace(
            labels=("a", "b", "c"),
            dist=np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float),
        )
        with pytest.raises(ValueError, match=r"^space fails metric validation \(1 violations\): triangle"):
            build_embedding(broken, p=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_image_matrix_rejected(self, bad):
        # without the family, nothing else would look at the rows before
        # verify_bounds compares their NaN distances (always False) and passes
        E = build_embedding(generate("hypercube", 3), p=1.0)
        back = embedding_from_json(embedding_to_json(E), E.space)
        blocks = tuple(b.copy() for b in E.blocks)
        blocks[-1][3] = bad
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(back, loaded_blocks=blocks)

    def test_unknown_point(self, hc4_p1):
        with pytest.raises(KeyError):
            evaluate(hc4_p1, "no-such-label")
        with pytest.raises(KeyError):
            evaluate(hc4_p1, 99)


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
        # independent route: rebuild every pairwise distance from the block
        # vectors via the exact contract arithmetic, then check the envelopes
        E = hc6_p1
        n = E.space.n
        images = [evaluate(E, i) for i in range(n)]
        ii, jj, d_src, engine = pairwise_image_distances(E)
        for k in range(0, ii.size, 97):  # stride keeps the exact route cheap
            i, j = int(ii[k]), int(jj[k])
            exact = block_distance_p(images[i], images[j], 1.0)
            assert engine[k] == pytest.approx(exact, rel=1e-10, abs=1e-12)
        rho1, rho2 = theoretical_bounds(E, d_src)
        assert np.all(engine <= rho2 + 1e-9)
        assert np.all(engine >= rho1 - 1e-9)

    def test_per_level_power_decomposition(self, hc4_p1):
        # ||Phi(x)-Phi(y)||_p^p equals the sum of per-level pair powers
        E = hc4_p1
        ii, jj, _, psums = pairwise_image_power_sums(E)
        per_level = np.zeros_like(psums)
        for lvl in E.family.levels:
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
    """Certification sums calibration's per-level pair distances when the family is present."""

    def test_level_sums_match_stacked_scan(self, built_embedding):
        E = built_embedding
        _, _, _, psums = pairwise_image_power_sums(E)
        scan = pairwise_power_sums_all(E.image_matrix, E.exponent)
        np.testing.assert_allclose(psums, scan, rtol=1e-13, atol=0.0)

    def test_path_follows_family_presence(self, built_embedding, monkeypatch):
        E = built_embedding
        back = embedding_from_json(embedding_to_json(E), E.space)
        np.testing.assert_array_equal(
            pairwise_image_power_sums(back)[3], pairwise_power_sums_all(back.image_matrix, back.exponent)
        )

        def no_scan(rows, p):
            raise AssertionError("stacked-row scan")

        monkeypatch.setattr(coarse_embedder, "pairwise_power_sums_all", no_scan)
        pairwise_image_power_sums(E)
        with pytest.raises(AssertionError, match="stacked-row scan"):
            pairwise_image_power_sums(back)

    def test_level_pair_distances_read_only(self, built_embedding):
        n = built_embedding.space.n
        for level in built_embedding.family.levels:
            assert level.pair_distances.shape == (n * (n - 1) // 2,)
            assert not level.pair_distances.flags.writeable

    def test_level_count_mismatch_rejected(self, built_embedding):
        back = embedding_from_json(embedding_to_json(built_embedding), built_embedding.space)
        short = dataclasses.replace(back.family, levels=back.schedule[:-1])
        with pytest.raises(ValueError, match="image blocks but"):
            dataclasses.replace(back, family=short)


class TestSingleCopy:
    """A built embedding derives its blocks from its family; a reloaded one keeps the blocks it read."""

    def test_exactly_one_source(self, hc4_p1):
        back = embedding_from_json(embedding_to_json(hc4_p1), hc4_p1.space)
        with pytest.raises(ValueError, match="exactly one"):
            dataclasses.replace(hc4_p1, loaded_blocks=back.blocks)
        with pytest.raises(ValueError, match="exactly one"):
            dataclasses.replace(back, loaded_blocks=None)
        mixed = dataclasses.replace(back.family, levels=hc4_p1.schedule[:1] + back.schedule[1:])
        for blocks in (None, back.blocks):
            with pytest.raises(ValueError, match="exactly one"):
                CoarseEmbedding(family=mixed, base_index=0, loaded_blocks=blocks)

    def test_build_keeps_no_image_matrix(self):
        E = build_embedding(generate("cycle", 12), p=1.5)
        assert verify_bounds(E) == []
        assert "image_matrix" not in vars(E) and "blocks" not in vars(E)

    def test_every_base_point_rederives_blocks(self):
        E = build_embedding(generate("cycle", 10), p=1.5, level_count=5)
        for k in range(E.space.n):
            moved = dataclasses.replace(E, base_index=k)
            assert moved.family is E.family
            for level, block in zip(E.family.levels, moved.blocks):
                expected = level.images - level.images[k]
                assert np.array_equal(block.view(np.uint64), expected.view(np.uint64))
            assert verify_bounds(moved) == []

    def test_blocks_and_matrix_read_only(self, built_embedding):
        back = embedding_from_json(embedding_to_json(built_embedding), built_embedding.space)
        for E in (built_embedding, back):
            assert not E.image_matrix.flags.writeable
            assert all(not b.flags.writeable for b in E.blocks)
            assert E.block_dims == tuple(b.shape[1] for b in E.blocks)
        assert all(not b.flags.writeable for b in back.loaded_blocks)

    def test_reloaded_keeps_one_stacked_copy(self, hc4_p1):
        back = embedding_from_json(embedding_to_json(hc4_p1), hc4_p1.space)
        assert all(np.shares_memory(b, back.image_matrix) for b in back.loaded_blocks)

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
            for a, b in zip(mine.blocks, theirs.blocks):
                assert np.array_equal(a.coeffs.view(np.uint64), b.coeffs.view(np.uint64))

    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -1.0])
    def test_delta_must_be_finite_positive(self, hc4_p1, delta):
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            dataclasses.replace(hc4_p1.family, delta=delta)

    def test_levels_at_another_exponent_rejected(self):
        # p = 2 levels under a p = 1 family would be summed to the first power
        E = build_embedding(generate("cycle", 16), p=2.0)
        with pytest.raises(ValueError, match="family's p = 1"):
            CoarseEmbedding(family=dataclasses.replace(E.family, exponent=as_exponent(1.0)), base_index=0)


class TestOneLevelRecord:
    """The family is the one record of space, p, delta and levels; the embedding reads them from it."""

    def test_fields_are_family_base_and_blocks(self, hc4_p1):
        assert [f.name for f in dataclasses.fields(CoarseEmbedding)] == ["family", "base_index", "loaded_blocks"]
        # a second copy of delta (or space, p, schedule) cannot be set apart from the family's
        with pytest.raises(TypeError):
            dataclasses.replace(hc4_p1, delta=3.0)

    def test_parameters_read_from_family(self, built_embedding):
        E = built_embedding
        assert E.schedule is E.family.levels
        assert E.space is E.family.space
        assert E.exponent is E.family.exponent
        assert E.delta == E.family.delta and isinstance(E.delta, float)
        assert E.level_count == len(E.family.levels)

    def test_reloaded_levels_hold_no_images(self, built_embedding):
        back = embedding_from_json(embedding_to_json(built_embedding), built_embedding.space)
        assert back.loaded_blocks is not None
        assert back.space is built_embedding.space
        for level, built in zip(back.schedule, built_embedding.schedule):
            assert level.images is None and level.pair_distances is None
            assert repr(level) == repr(built)

    def test_schedule_repr_holds_no_arrays(self, hc4_p1):
        text = repr(hc4_p1.schedule)
        assert "array" not in text and "images" not in text and "pair_distances" not in text
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
        assert back.block_dims == hc4_p1.block_dims
        assert back.base_index == hc4_p1.base_index
        assert back.exponent.value == hc4_p1.exponent.value
        assert [s.s_n for s in back.schedule] == [s.s_n for s in hc4_p1.schedule]
        assert all(level.images is None for level in back.schedule)

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

    def test_inconsistent_blocks_rejected(self, hc4_p1):
        payload = embedding_to_json(hc4_p1)
        payload["images"]["0001"] = payload["images"]["0001"][:-1]
        with pytest.raises(ValueError):
            embedding_from_json(payload, hc4_p1.space)
