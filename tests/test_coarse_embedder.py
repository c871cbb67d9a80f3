"""Embedding assembly, envelopes, truncation control, and JSON round trips."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import mp_pnorm, reference_kernel, saving_peak, verify_family
from lpembed import coarse_embedder, kernel_sphere_maps
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
from lpembed.kernel_sphere_maps import KERNEL_KINDS, NotNegativeType, build_level_family
from lpembed.lp_core import as_exponent, pairwise_pnorm_all, pairwise_power_sums_all
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
        assert all(not row.any() for row in base)

    def test_block_count_equals_level_count(self, hc4_p1):
        img = evaluate(hc4_p1, 5)
        assert len(img) == hc4_p1.level_count
        assert tuple(row.shape for row in img) == tuple((w,) for w in hc4_p1.block_dims)
        assert all(not row.flags.writeable for row in img)

    def test_single_level_two_point_distance_is_level_distance(self):
        E = build_embedding(two_point(), p=2.0, level_count=1)
        (img_a,), (img_b,) = evaluate(E, "a"), evaluate(E, "b")
        got = mp_pnorm(img_a - img_b, 2.0)
        lvl = E.family.levels[0]
        assert got == pytest.approx(lvl.pair_distances[0], abs=1e-12)
        assert got == pytest.approx(mp_pnorm(lvl.images[0] - lvl.images[1], 2.0), abs=1e-12)

    def test_blocks_reproduce_family_offsets(self, hc4_p1):
        rng = np.random.default_rng(0)
        for idx in rng.integers(0, 16, size=5):
            img = evaluate(hc4_p1, int(idx))
            for lvl, row in zip(hc4_p1.family.levels, img):
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
        # where the level's pair distances are measured on those offsets
        payload = embedding_to_json(E)
        payload["images"]["000"][0][0] = -1e308
        payload["images"]["011"][0][0] = 1e308
        with pytest.raises(ValueError, match="malformed embedding payload: image blocks must be finite"):
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
        assert "image_matrix" not in vars(back) and "blocks" not in vars(back)

    def test_reloaded_pair_distances_from_offset_rows(self, built_embedding):
        # measured once on load, on the base-offset rows: bit for bit the scan
        # of each block, and the built level's to rounding
        E = dataclasses.replace(built_embedding, base_index=built_embedding.space.n // 2)
        back = embedding_from_json(embedding_to_json(E), E.space)
        for level, built, block in zip(back.schedule, E.schedule, back.blocks):
            scan = pairwise_pnorm_all(block, E.exponent)
            assert np.array_equal(level.pair_distances.view(np.uint64), scan.view(np.uint64))
            np.testing.assert_allclose(level.pair_distances, built.pair_distances, rtol=1e-13, atol=0.0)
            assert not level.pair_distances.flags.writeable

    def test_level_pair_distances_read_only(self, built_embedding):
        n = built_embedding.space.n
        for level in built_embedding.family.levels:
            assert level.pair_distances.shape == (n * (n - 1) // 2,)
            assert not level.pair_distances.flags.writeable

    def test_level_count_mismatch_rejected(self, built_embedding):
        payload = embedding_to_json(built_embedding)
        payload["schedule"] = payload["schedule"][:-1]
        with pytest.raises(ValueError, match="image blocks per point but"):
            embedding_from_json(payload, built_embedding.space)


class TestSingleCopy:
    """Built and reloaded embeddings alike derive their blocks from their levels' images."""

    def test_levels_mix_freely(self, hc4_p1):
        # a family of built and reloaded levels is one record: it sums its levels
        back = embedding_from_json(embedding_to_json(hc4_p1), hc4_p1.space)
        mixed = dataclasses.replace(back.family, levels=hc4_p1.schedule[:1] + back.schedule[1:])
        E = CoarseEmbedding(family=mixed, base_index=0)
        assert np.array_equal(E.image_matrix.view(np.uint64), hc4_p1.image_matrix.view(np.uint64))
        expected = sum(level.pair_distances for level in mixed.levels)  # p = 1
        np.testing.assert_array_equal(pairwise_image_power_sums(E)[3], expected)
        np.testing.assert_allclose(
            pairwise_image_power_sums(E)[3], pairwise_power_sums_all(E.image_matrix, E.exponent), rtol=1e-13
        )

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

    def test_blocks_are_views_of_one_stacked_copy(self, hc4_p1):
        back = embedding_from_json(embedding_to_json(hc4_p1), hc4_p1.space)
        for E in (hc4_p1, back):
            assert all(np.shares_memory(b, E.image_matrix) for b in E.blocks)

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
            dataclasses.replace(hc4_p1.family, delta=delta)

    def test_levels_at_another_exponent_rejected(self):
        # p = 2 levels under a p = 1 family would be summed to the first power
        E = build_embedding(generate("cycle", 16), p=2.0)
        with pytest.raises(ValueError, match="family's p = 1"):
            CoarseEmbedding(family=dataclasses.replace(E.family, exponent=as_exponent(1.0)), base_index=0)


class TestOneLevelRecord:
    """The family is the one record of space, p, delta and levels; the embedding reads them from it."""

    def test_fields_are_family_and_base(self, hc4_p1):
        assert [f.name for f in dataclasses.fields(CoarseEmbedding)] == ["family", "base_index"]
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

    def test_reloaded_levels_carry_their_images(self, built_embedding):
        back = embedding_from_json(embedding_to_json(built_embedding), built_embedding.space)
        assert back.space is built_embedding.space
        for level, built in zip(back.schedule, built_embedding.schedule):
            assert np.array_equal(level.images.view(np.uint64), built.images.view(np.uint64))
            assert level.pair_distances.shape == built.pair_distances.shape
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
        assert old.block_dims == (n,) * E.level_count
        assert new.block_dims == E.block_dims and min(E.block_dims) < n
        assert verify_bounds(old) == verify_bounds(new) == []
        # zero columns add nothing; only the summation order differs
        np.testing.assert_allclose(pairwise_image_power_sums(old)[3], pairwise_image_power_sums(new)[3], rtol=1e-13)
        assert empirical_profile(old, 10).marginal_count == empirical_profile(new, 10).marginal_count


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
        assert verify_family(E.family) == []
        # the last levels sit below the floor: the constant map, one column
        assert E.block_dims[-1] == 1
        assert E.schedule[-1].epsilon_n == 0.0 and E.schedule[-1].saturated

    def test_hypercube8_p2_width(self):
        E = build_embedding(generate("hypercube", 8), p=2.0)
        # 981 columns; 10 levels of 256 columns each (2560) while every
        # block was as wide as the space
        assert sum(E.block_dims) <= 1024
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
    assert verify_family(embedding.family) == []
    return embedding


def certify_family(space, p, kernel_kind):
    """The default schedule under a kernel named, below build_embedding's choice."""
    family = build_level_family(space, default_level_count(space), p, 1.0, kernel_kind)
    assert verify_family(family) == []


class TestCertifyOrRefuse:
    """Every build verifies cleanly; only distances that are not of negative type refuse.

    The factor keeps only the eigenvalues above eigh's noise floor, so no
    level runs into the float64 floor of its closeness target: clouds
    (gaussian kernel) always certify, ultrametrics under either kernel, and
    graph metrics refuse, with NotNegativeType, exactly where d is not of
    negative type.
    """

    @settings(max_examples=40, deadline=None)
    @given(space=graph_metrics(), p=st.sampled_from(PROPERTY_EXPONENTS))
    def test_graph_metrics(self, space, p):
        kind = reference_kernel(space.dist)
        if kind is None:
            with pytest.raises(NotNegativeType, match="beta = 1"):
                build_embedding(space, p=p)
        else:
            assert certify(space, p).schedule[0].kernel_kind == kind

    @settings(max_examples=40, deadline=None)
    @given(space=euclidean_clouds(), p=st.sampled_from(PROPERTY_EXPONENTS))
    def test_euclidean_clouds(self, space, p):
        assert certify(space, p).schedule[0].kernel_kind == "gaussian"

    @settings(max_examples=40, deadline=None)
    @given(
        space=ultrametrics(),
        p=st.sampled_from(PROPERTY_EXPONENTS),
        kernel_kind=st.sampled_from(KERNEL_KINDS),
    )
    def test_ultrametrics(self, space, p, kernel_kind):
        # an ultrametric embeds isometrically in l_2, so both kernels are PSD
        # at every bandwidth and no build may refuse
        certify_family(space, p, kernel_kind)

    # one point has no pair and two points one, where calibration's choice of
    # close-pair measurement meets its edge (2 * close >= pairs)
    @pytest.mark.parametrize("kernel_kind", KERNEL_KINDS)
    @pytest.mark.parametrize("p", PROPERTY_EXPONENTS)
    def test_one_point(self, p, kernel_kind):
        certify_family(FiniteMetricSpace(labels=("a",), dist=np.zeros((1, 1))), p, kernel_kind)

    @pytest.mark.parametrize("kernel_kind", KERNEL_KINDS)
    @pytest.mark.parametrize("p", PROPERTY_EXPONENTS)
    @pytest.mark.parametrize("d", [1e-7, 1.0, 3.5])
    def test_two_points(self, d, p, kernel_kind):
        certify_family(FiniteMetricSpace(labels=("a", "b"), dist=np.array([[0.0, d], [d, 0.0]])), p, kernel_kind)


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
    """The kernel build_embedding takes on space, or None where it refuses."""
    try:
        return kernel_sphere_maps._kernel_for(space)
    except NotNegativeType:
        return None


class TestKernelChoice:
    """The kernel follows from the distances: gaussian where d^2 is of negative type, else laplacian where d is."""

    @settings(max_examples=150, deadline=None)
    @given(space=st.one_of(graph_metrics(), ultrametrics(), euclidean_clouds()))
    def test_matches_eigvalsh_reference(self, space):
        assert chosen_kernel(space) == reference_kernel(space.dist)

    @settings(max_examples=40, deadline=None)
    @given(space=st.one_of(ultrametrics(), euclidean_clouds()))
    def test_ultrametrics_and_clouds_take_gaussian(self, space):
        # both embed isometrically in l_2, so d^2 is of negative type
        assert chosen_kernel(space) == "gaussian"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), space=graph_metrics())
    def test_same_kernel_for_a_permuted_space(self, data, space):
        reference_kernel(space.dist)  # skips the spaces roundoff may decide
        perm = data.draw(st.permutations(range(space.n)))
        assert chosen_kernel(permuted(space, perm)) == chosen_kernel(space)

    @pytest.mark.parametrize(
        "kind,param,expected",
        [
            ("hypercube", 4, "laplacian"),
            ("hypercube", 8, "laplacian"),
            ("cycle", 16, "laplacian"),
            ("gaussian", 60, "gaussian"),
            ("path", 30, "gaussian"),
            ("hypercube", 1, "gaussian"),
            ("cycle", 3, "gaussian"),
        ],
    )
    def test_stock_spaces(self, kind, param, expected):
        # clouds, cubes and cycles keep the kernel their meta label gave them;
        # paths, and the two- and three-point cube and cycle, whose d^2 is of
        # negative type, take the gaussian kernel
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

    @pytest.mark.parametrize("param,p,thresholds,floor_level", [(30, 2.0, [2, 5, 13], 21), (48, 3.0, [3, 11, 28], 13)])
    def test_paths_certify_under_the_gaussian_kernel(self, param, p, thresholds, floor_level):
        # under the laplacian kernel these gave S = [2, 10] and [2, 23]
        E = certify(generate("path", param), p)
        assert {level.kernel_kind for level in E.schedule} == {"gaussian"}
        assert E.separation_thresholds().tolist() == thresholds
        # from floor_level on, every level takes the constant map at the float64 floor
        constant = [level.level_n for level in E.schedule if level.images.shape[1] == 1]
        assert constant == list(range(floor_level, E.level_count + 1))

    def test_overflowing_squares_take_laplacian(self):
        # d^2 overflows to inf, and G holds inf and NaN; a Cholesky of it
        # returns NaN without raising, so only the finiteness check refuses
        # beta = 2. The build raises no RuntimeWarning (an error in this suite)
        path = generate("path", 10)
        # the path with its distances scaled by 2^664 (about 1.5e200), exactly
        X = FiniteMetricSpace(labels=path.labels, dist=np.ldexp(path.dist, 664))
        with np.errstate(over="ignore"):
            assert np.isinf(X.dist ** 2).any()
        E = build_embedding(X, p=1.5)
        assert {level.kernel_kind for level in E.schedule} == {"laplacian"}
        assert verify_bounds(E) == []


def round_trip(embedding):
    """load_embedding(save_embedding(embedding)), through a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.json"
        save_embedding(embedding, path)
        return load_embedding(path, embedding.space)


def certify_reloaded(space, p):
    embedding = build_embedding(space, p=p)
    back = round_trip(embedding)
    assert verify_family(back.family) == []
    assert verify_bounds(back) == []
    assert np.array_equal(back.image_matrix.view(np.uint64), embedding.image_matrix.view(np.uint64))


class TestReloadedFamilyCertifies:
    """A family read back from its file carries its images, and the oracle re-measures it."""

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
        E = dataclasses.replace(built_embedding, base_index=built_embedding.space.n - 1)
        old = embedding_from_json(self.offset_payload(E), E.space)
        new = embedding_from_json(embedding_to_json(E), E.space)
        for back in (old, new):
            assert np.array_equal(back.image_matrix.view(np.uint64), E.image_matrix.view(np.uint64))
        for fmt in ("csv", "json"):
            assert export(empirical_profile(old, 16), fmt) == export(empirical_profile(new, 16), fmt)
        # the old file's rows are offsets, off the unit sphere: the base row is zero
        assert not any(level.images[E.base_index].any() for level in old.schedule)
