"""Generators, metric validation, and the JSON space format."""

import json
import math
import time

import numpy as np
import pytest

from conftest import saving_peak
from lpembed import metric_spaces
from lpembed.coarse_embedder import build_embedding
from lpembed.distortion_report import verify_bounds
from lpembed.metric_spaces import (
    MAX_VIOLATIONS,
    TRIANGLE_TOL,
    FiniteMetricSpace,
    generate,
    load_space,
    load_space_lenient,
    save_space,
    space_to_json,
    validate,
)


class TestGenerators:
    # int() truncated a float and read a bool: cycle(8.7) was cycle(8),
    # hypercube(True) had 2 points and seed 2.9 was seed 2
    @pytest.mark.parametrize("args,kwargs,name", [
        (("cycle", 8.7), {}, "space parameter"),
        (("cycle", 8.0), {}, "space parameter"),
        (("hypercube", True), {}, "space parameter"),
        (("path", "6"), {}, "space parameter"),
        (("gaussian", 5), {"seed": 2.9}, "seed"),
        (("gaussian", 5), {"seed": True}, "seed"),
        (("gaussian", 5), {"seed": 1, "dim": 3.5}, "dim"),
    ])
    def test_integer_arguments_must_be_integers(self, args, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            generate(*args, **kwargs)

    def test_numpy_integers_accepted(self):
        assert generate("cycle", np.int64(8)).n == 8
        X = generate("gaussian", np.int32(5), seed=np.int64(2), dim=np.int16(3))
        assert np.array_equal(X.dist, generate("gaussian", 5, seed=2, dim=3).dist)

    def test_hypercube_shape_and_diameter(self):
        X = generate("hypercube", 3)
        assert X.n == 8
        assert X.diameter() == 3.0

    @pytest.mark.parametrize("kind,param,text", [
        ("cycle", 2, "cycle needs at least 3 points, got 2"),
        ("cycle", 4097, "cycle parameter exceeds 4096"),
        ("path", 1, "path needs at least 2 points, got 1"),
        ("path", 4097, "path parameter exceeds 4096"),
        ("gaussian", 1, "gaussian cloud needs at least 2 points, got 1"),
        ("gaussian", 4097, "gaussian parameter exceeds 4096"),
    ])
    def test_size_out_of_range(self, kind, param, text):
        with pytest.raises(ValueError) as err:
            generate(kind, param, seed=0 if kind == "gaussian" else None)
        assert str(err.value) == text

    def test_hypercube_param_range(self):
        with pytest.raises(ValueError):
            generate("hypercube", 13)
        with pytest.raises(ValueError):
            generate("hypercube", 0)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_hamming_equals_l1_of_stored_coordinates(self, k):
        X = generate("hypercube", k)
        l1 = np.abs(X.points[:, None, :] - X.points[None, :, :]).sum(axis=-1)
        np.testing.assert_array_equal(X.dist, l1)

    def test_cycle_shortest_arc(self):
        X = generate("cycle", 5)
        assert X.dist[0, 2] == 2.0
        assert X.dist[0, 3] == 2.0

    def test_path_metric(self):
        X = generate("path", 6)
        assert X.dist[0, 5] == 5.0
        assert X.diameter() == 5.0

    def test_gaussian_determinism(self):
        a = generate("gaussian", 50, seed=42)
        b = generate("gaussian", 50, seed=42)
        np.testing.assert_array_equal(a.dist, b.dist)
        c = generate("gaussian", 50, seed=43)
        assert not np.array_equal(a.dist, c.dist)

    def test_gaussian_requires_seed(self):
        with pytest.raises(ValueError):
            generate("gaussian", 50)

    def test_gaussian_distances_recomputable_from_points(self):
        X = generate("gaussian", 30, seed=7)
        diff = X.points[:, None, :] - X.points[None, :, :]
        recomputed = np.sqrt((diff * diff).sum(axis=-1))
        assert np.abs(X.dist - recomputed).max() <= 1e-12

    @pytest.mark.parametrize("n,dim,budget", [(160, 8, None), (97, 3, 1000), (120, 8, 5000), (50, 40, 7)])
    def test_gaussian_row_chunks_bit_equal_broadcast(self, n, dim, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(metric_spaces, "GAUSSIAN_CHUNK_ELEMS", budget)
        else:
            # the benchmark's cloud size stays one chunk at the default budget
            assert n * n * dim <= metric_spaces.GAUSSIAN_CHUNK_ELEMS
        X = generate("gaussian", n, seed=11, dim=dim)
        diff = X.points[:, None, :] - X.points[None, :, :]
        broadcast = np.sqrt((diff * diff).sum(axis=-1))
        assert np.array_equal(X.dist.view(np.uint64), broadcast.view(np.uint64))

    def test_gaussian_dim_override(self):
        X = generate("gaussian", 10, seed=1, dim=3)
        assert X.points.shape == (10, 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("torus", 5)

    @pytest.mark.parametrize(
        "kind,param,seed",
        [("hypercube", 5, None), ("cycle", 9, None), ("path", 12, None), ("gaussian", 40, 3)],
    )
    def test_every_generated_space_validates(self, kind, param, seed):
        report = validate(generate(kind, param, seed=seed))
        assert report.ok
        assert report.diameter > 0
        assert report.min_positive > 0


class TestValidate:
    def test_hypercube4_report(self):
        report = validate(generate("hypercube", 4))
        assert report.ok
        assert report.diameter == 4.0
        assert report.min_positive == 1.0

    def test_symmetry_violation_reported(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        report = validate(FiniteMetricSpace(labels=("a", "b"), dist=d))
        assert any(v.kind == "symmetry" for v in report.violations)

    def test_triangle_violation_reported(self):
        d = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
        report = validate(FiniteMetricSpace(labels=("a", "b", "c"), dist=d))
        assert any(v.kind == "triangle" for v in report.violations)

    def test_diagonal_and_positivity_violations(self):
        d = np.array([[0.5, 0.0], [0.0, 0.0]])
        report = validate(FiniteMetricSpace(labels=("a", "b"), dist=d))
        kinds = {v.kind for v in report.violations}
        assert "diagonal" in kinds
        assert "positivity" in kinds

    def test_nonfinite_reported(self):
        d = np.array([[0.0, math.inf], [math.inf, 0.0]])
        report = validate(FiniteMetricSpace(labels=("a", "b"), dist=d))
        assert any(v.kind == "finite" for v in report.violations)


def triangle_reference(space):
    """The triangle check, relative to each path's length, with fresh n x n temporaries per intermediate j."""
    finite = np.where(np.isfinite(space.dist), space.dist, 0.0)
    out = []
    for j in range(space.n):
        slack = finite - (finite[:, j:j + 1] + finite[j:j + 1, :]) * (1.0 + TRIANGLE_TOL)
        for i, k in np.argwhere(slack > 0.0):
            if i < k:
                out.append((
                    (int(i), int(j), int(k)),
                    f"d(i,k) = {float(finite[i, k])!r} > {float(finite[i, j] + finite[j, k])!r} via j",
                ))
    return out


def broken_path(n):
    d = generate("path", n).dist.copy()
    d[0, n - 1] = d[n - 1, 0] = 2.0 * n
    return FiniteMetricSpace(labels=tuple(map(str, range(n))), dist=d)


def random_dissimilarity(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.1, 3.0, (n, n))
    d = np.triu(d, 1) + np.triu(d, 1).T
    return FiniteMetricSpace(labels=tuple(map(str, range(n))), dist=d)


REFERENCE_SPACES = {
    # name: (space factory, violation count; None for "some, under the cap")
    "gaussian60": (lambda: generate("gaussian", 60, seed=3), 0),
    "hypercube5": (lambda: generate("hypercube", 5), 0),
    "path50_one_broken_entry": (lambda: broken_path(50), 48),
    "random12": (lambda: random_dissimilarity(12, 1), None),
    "random40_capped": (lambda: random_dissimilarity(40, 2), MAX_VIOLATIONS),
}


class TestTriangleAgainstReference:
    @pytest.mark.parametrize("case", sorted(REFERENCE_SPACES))
    def test_same_violations_same_order(self, case):
        make, expected = REFERENCE_SPACES[case]
        space = make()
        report = validate(space)
        assert {v.kind for v in report.violations} <= {"triangle"}
        got = [(v.indices, v.detail) for v in report.violations]
        assert got == triangle_reference(space)[:MAX_VIOLATIONS]
        if expected is None:
            assert 0 < len(got) < MAX_VIOLATIONS
        else:
            assert len(got) == expected


def violations_reference(space):
    """Every violation validate reports, uncapped, in its order: one Python loop per kind."""
    d = space.dist
    out = [("finite", (int(i), int(j)), f"dist = {float(d[i, j])!r}") for i, j in np.argwhere(~np.isfinite(d))]
    finite = np.where(np.isfinite(d), d, 0.0)
    for i in range(space.n):
        if finite[i, i] != 0.0:
            out.append(("diagonal", (i,), f"dist(i,i) = {float(finite[i, i])!r}"))
    pairs = [(i, j) for i in range(space.n) for j in range(i + 1, space.n)]
    out += [
        ("symmetry", (i, j), f"{float(finite[i, j])!r} != {float(finite[j, i])!r}")
        for i, j in pairs if finite[i, j] != finite[j, i]
    ]
    out += [("positivity", (i, j), f"dist = {float(finite[i, j])!r}") for i, j in pairs if finite[i, j] <= 0.0]
    out += [("triangle", idx, detail) for idx, detail in triangle_reference(space)]
    return out


def random_non_metric(n, seed):
    """Small integer distances with some NaN, inf, asymmetric, zero and diagonal entries."""
    rng = np.random.default_rng(seed)
    d = rng.integers(0, 9, (n, n)).astype(np.float64)
    d = np.triu(d, 1) + np.triu(d, 1).T
    d[rng.random((n, n)) < 0.03] += 1.0
    d[rng.random((n, n)) < 0.01] = math.nan
    d[rng.random((n, n)) < 0.01] = math.inf
    d[np.diag_indices(n)] = np.where(rng.random(n) < 0.1, 1.0, 0.0)
    return FiniteMetricSpace(labels=tuple(map(str, range(n))), dist=d)


class TestViolationCap:
    """validate stops enumerating once MAX_VIOLATIONS are reported."""

    @pytest.mark.parametrize("n,seed", [(3, 0), (8, 1), (15, 2), (30, 3), (45, 4)])
    def test_capped_report_is_the_oracles_head(self, n, seed):
        space = random_non_metric(n, seed)
        got = [(v.kind, v.indices, v.detail) for v in validate(space).violations]
        reference = violations_reference(space)
        assert got == reference[:MAX_VIOLATIONS]
        assert {kind for kind, _, _ in got} >= ({"finite", "symmetry", "positivity"} if n >= 15 else set())

    def test_oracle_past_the_cap(self):
        # the head test above must also see reports the cap cuts short
        assert len(violations_reference(random_non_metric(45, 4))) > MAX_VIOLATIONS

    @pytest.mark.parametrize("make", [
        lambda: random_non_metric(400, 5),
        lambda: FiniteMetricSpace(labels=tuple(map(str, range(1000))), dist=np.full((1000, 1000), math.nan)),
    ], ids=["random400", "nan1000"])
    def test_cpu_budget(self, make):
        # enumerating every hit took 22 s of CPU time on random400, and 5.6 s on nan1000
        space = make()
        t0 = time.process_time()
        report = validate(space)
        assert time.process_time() - t0 < 1.0
        assert len(report.violations) == MAX_VIOLATIONS


class TestScaleInvariantTriangle:
    """The triangle tolerance is relative to the path's length, so it holds at every scale."""

    def test_scaled_path_validates_and_builds(self):
        # path(10) x 1e200: an absolute tolerance reported 14 violations from rounding alone
        X = FiniteMetricSpace(labels=tuple(map(str, range(10))), dist=generate("path", 10).dist * 1e200)
        assert validate(X).ok
        E = build_embedding(X, p=2.0)
        assert verify_bounds(E) == []

    @pytest.mark.parametrize("case", ["path50_one_broken_entry", "random12", "random40_capped"])
    @pytest.mark.parametrize("k", [-600, -300, -40, 0, 40, 300, 600])
    def test_power_of_two_scaling_keeps_the_violations(self, case, k):
        space = REFERENCE_SPACES[case][0]()
        scaled = FiniteMetricSpace(labels=space.labels, dist=np.ldexp(space.dist, k))
        got = [v.indices for v in validate(scaled).violations]
        assert got == [v.indices for v in validate(space).violations]
        assert got

    def test_small_violation_at_unit_scale_reported(self):
        d = np.array([[0.0, 1.0, 2.0 + 1e-6], [1.0, 0.0, 1.0], [2.0 + 1e-6, 1.0, 0.0]])
        report = validate(FiniteMetricSpace(labels=("a", "b", "c"), dist=d))
        assert [(v.kind, v.indices) for v in report.violations] == [("triangle", (0, 1, 2))]

    def test_details_print_plain_floats(self):
        d = np.array([[0.0, 1e200, 6e200], [1e200, 0.0, 1e200], [6e200, 1e200, 0.0]])
        report = validate(FiniteMetricSpace(labels=("a", "b", "c"), dist=d))
        assert [v.detail for v in report.violations] == ["d(i,k) = 6e+200 > 2e+200 via j"]
        d = np.array([[0.5, math.inf], [2.0, 0.0]])
        details = {v.kind: v.detail for v in validate(FiniteMetricSpace(labels=("a", "b"), dist=d)).violations}
        assert details == {
            "finite": "dist = inf", "diagonal": "dist(i,i) = 0.5", "symmetry": "0.0 != 2.0", "positivity": "dist = 0.0",
        }


class TestConstruction:
    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(labels=("a",), dist=np.zeros((2, 2)))

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(labels=("a", "a"), dist=np.zeros((2, 2)))

    def test_nonsquare(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(labels=("a", "b"), dist=np.zeros((2, 3)))

    def test_no_points(self):
        with pytest.raises(ValueError, match="^a metric space needs at least one point$"):
            FiniteMetricSpace(labels=(), dist=np.zeros((0, 0)))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(labels=tuple(map(str, range(5000))), dist=np.zeros((5000, 5000)))

    @pytest.mark.parametrize("value", ["abc", [[0.0], [1.0]], None])
    def test_points_meta_key_reserved(self, value):
        # a string saved but failed to load; numbers became the coordinates
        with pytest.raises(ValueError, match='meta key "points" is reserved'):
            FiniteMetricSpace(labels=("a", "b"), dist=np.array([[0.0, 1.0], [1.0, 0.0]]), meta={"points": value})

    def test_index_of(self):
        X = generate("cycle", 4)
        assert X.index_of("2") == 2
        with pytest.raises(KeyError):
            X.index_of("missing")


class TestJson:
    def test_round_trip(self, tmp_path):
        X = generate("gaussian", 20, seed=5)
        path = tmp_path / "s.json"
        save_space(X, path)
        Y = load_space(path)
        assert Y.labels == X.labels
        np.testing.assert_array_equal(Y.dist, X.dist)
        np.testing.assert_array_equal(Y.points, X.points)
        assert Y.meta["kind"] == "gaussian"
        assert Y.meta["seed"] == 5

    def test_symmetry_revalidated_on_load(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "dist": [[0.0, 1.0], [2.0, 0.0]], "meta": {}}))
        with pytest.raises(ValueError, match="validation"):
            load_space(path)

    def test_loads_a_non_metric_with_no_triangle_scan(self, tmp_path, monkeypatch):
        # squared distances on a path: only the triangle inequality fails, which
        # nothing certified reads
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"labels": ["a", "b", "c"], "dist": [[0, 1, 4], [1, 0, 1], [4, 1, 0]]}))
        calls = []
        monkeypatch.setattr(metric_spaces, "validate", lambda space: calls.append(space) or validate(space))
        space = load_space(path)
        assert calls == []
        np.testing.assert_array_equal(space.dist, [[0, 1, 4], [1, 0, 1], [4, 1, 0]])
        assert [v.kind for v in validate(space).violations] == ["triangle"]

    @pytest.mark.parametrize(
        "dist, text",
        [
            ([[0.0, 1.0], [2.0, 0.0]], "(1 violations): symmetry(0, 1): 1.0 != 2.0"),
            (
                [[0.0, "Infinity"], ["Infinity", 0.0]],
                "(3 violations): finite(0, 1): dist = inf; finite(1, 0): dist = inf; positivity(0, 1): dist = 0.0",
            ),
            (
                [[0.0, "NaN"], [1.0, 0.0]],
                "(3 violations): finite(0, 1): dist = nan; symmetry(0, 1): 0.0 != 1.0; positivity(0, 1): dist = 0.0",
            ),
        ],
        ids=["asymmetric", "infinite", "nan"],
    )
    def test_pointwise_faults_refused_in_validate_words(self, dist, text, tmp_path):
        path = tmp_path / "s.json"
        # json.dumps writes the bare tokens Infinity and NaN, which json.loads reads
        body = json.dumps({"labels": ["a", "b"], "dist": dist})
        path.write_text(body.replace('"Infinity"', "Infinity").replace('"NaN"', "NaN"))
        with pytest.raises(ValueError) as want:
            validate(load_space_lenient(path)).require_ok()
        assert str(want.value) == f"space fails metric validation {text}"
        with pytest.raises(ValueError) as got:
            load_space(path)
        assert str(got.value) == str(want.value)

    def test_malformed_payload(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"labels": ["a"]}))
        with pytest.raises(ValueError, match="malformed space payload"):
            load_space(path)

    @pytest.mark.parametrize("loader", [load_space, load_space_lenient])
    @pytest.mark.parametrize("text", ["{not json", "[" * 100000 + "]" * 100000], ids=["garbled", "nested"])
    def test_invalid_json_file(self, text, loader, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        # json.loads raises RecursionError, not JSONDecodeError, on the nested text
        with pytest.raises(ValueError, match="not valid JSON"):
            loader(path)

    def test_payload_shape(self):
        X = generate("hypercube", 2)
        payload = space_to_json(X)
        assert set(payload) == {"labels", "dist", "meta"}
        assert payload["labels"] == ["00", "01", "10", "11"]
        assert json.loads(json.dumps(payload)) == payload


def escaped_labels():
    """Three points whose labels need JSON escapes; no points, an empty meta."""
    dist = np.array([[0.0, 1.0, 2.5], [1.0, 0.0, 1.5], [2.5, 1.5, 0.0]])
    return FiniteMetricSpace(labels=('a"b', "\u00e9\n", "tab\t\\"), dist=dist)


WRITER_SPACES = {
    "gaussian_points": lambda: generate("gaussian", 30, seed=1, dim=3),
    "hypercube_points": lambda: generate("hypercube", 3),
    "cycle_no_points": lambda: generate("cycle", 40),
    "path2": lambda: generate("path", 2),
    "escaped_labels_empty_meta": escaped_labels,
    "one_point": lambda: FiniteMetricSpace(labels=("x",), dist=np.zeros((1, 1)), points=np.ones((1, 2))),
    # space_to_json appends the coordinates after every meta key
    "meta_keys_and_points": lambda: FiniteMetricSpace(
        labels=("x",), dist=np.zeros((1, 1)), points=np.ones((1, 2)), meta={"a": 1, "z": [2]}
    ),
}


class TestStreamedWriter:
    @pytest.mark.parametrize("case", sorted(WRITER_SPACES))
    def test_bytes_are_the_dict_form_dumped(self, case, tmp_path):
        X = WRITER_SPACES[case]()
        path = tmp_path / "s.json"
        save_space(X, path)
        assert path.read_bytes() == (json.dumps(space_to_json(X)) + "\n").encode("utf-8")

    def test_peak_well_below_the_file(self, tmp_path):
        # the rows are written one at a time; building the nested lists and
        # the whole text first takes several times the file size
        X = generate("gaussian", 300, seed=1)
        path = tmp_path / "s.json"
        peak = saving_peak(save_space, X, path)
        assert peak < path.stat().st_size / 10
