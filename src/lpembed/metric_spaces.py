"""Finite metric spaces: dense distance matrices, generators and validation.

Spaces are immutable after construction. Construction only enforces structural
shape (square matrix, matching labels, size cap); metric axioms are checked by
`validate`, which reports violations as data so that broken inputs can be
inspected instead of rejected blindly. A build and load_space check only the
O(n^2) axioms the certificate uses (finite, zero diagonal, symmetric,
positive off the diagonal) and refuse with validate's text; validate's O(n^3)
triangle scan runs only when they refuse. The generators cover graph metrics
(hypercube, cycle, path) and seeded Gaussian point clouds with Euclidean
distances, the stand-in for samples drawn from a separable Hilbert space.
A space file is json.dumps of space_to_json's dict, written one matrix row
at a time; load_space rechecks the O(n^2) axioms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .lp_core import _number

__all__ = [
    "MAX_POINTS",
    "MAX_GAUSSIAN_DIM",
    "GENERATOR_KINDS",
    "FiniteMetricSpace",
    "MetricViolation",
    "ValidationReport",
    "generate",
    "validate",
    "space_to_json",
    "save_space",
    "load_space",
    "load_space_lenient",
]

# all downstream algorithms are O(n^2)-O(n^3); keep desk-scale
MAX_POINTS = 4096
# input bound on a gaussian cloud's ambient dimension: its points take
# n * dim floats, 32 MiB at MAX_POINTS, and the distance loop's row blocks of
# coordinate differences at most as many
MAX_GAUSSIAN_DIM = 1024

GENERATOR_KINDS = ("hypercube", "cycle", "gaussian", "path")

# relative: d(i,k) may exceed d(i,j) + d(j,k) by this share of that sum
TRIANGLE_TOL = 1e-9
MAX_VIOLATIONS = 1000  # validate() reports at most this many
GAUSSIAN_CHUNK_ELEMS = 1 << 20  # coordinate differences held at once by _gaussian


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Point labels plus a symmetric nonnegative distance matrix.

    meta holds JSON-ready facts about the space; its key "points" is
    reserved, since a space file keeps the coordinates there.
    """

    labels: tuple
    dist: np.ndarray
    points: Optional[np.ndarray] = None  # sample coordinates, when distances came from them
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        labels = tuple(str(l) for l in self.labels)
        dist = np.asarray(self.dist, dtype=np.float64)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {dist.shape}")
        n = dist.shape[0]
        if n == 0:
            raise ValueError("a metric space needs at least one point")
        if n > MAX_POINTS:
            raise ValueError(f"at most {MAX_POINTS} points supported, got {n}")
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} points")
        if len(set(labels)) != n:
            raise ValueError("labels must be unique")
        if "points" in self.meta:
            raise ValueError('meta key "points" is reserved for the coordinates (the points field)')
        dist = dist.copy()
        dist.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", dist)
        if self.points is not None:
            pts = np.asarray(self.points, dtype=np.float64)
            pts = pts.copy()
            pts.setflags(write=False)
            object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def diameter(self) -> float:
        return float(self.dist.max())

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise KeyError(f"unknown point label {label!r}") from None

    def pair_indices(self) -> tuple:
        """Upper-triangle index arrays (i < j) enumerating all point pairs."""
        return np.triu_indices(self.n, 1)


@dataclass(frozen=True)
class MetricViolation:
    kind: str  # 'finite' | 'diagonal' | 'symmetry' | 'positivity' | 'triangle'
    indices: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}{self.indices}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple
    diameter: float
    min_positive: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def require_ok(self) -> None:
        """Raise ValueError naming the count and the first three violations, if any."""
        if self.violations:
            first = "; ".join(str(v) for v in self.violations[:3])
            raise ValueError(f"space fails metric validation ({len(self.violations)} violations): {first}")


def _push(out: list, kind: str, hits, detail) -> None:
    """Append the hits that fit under MAX_VIOLATIONS: all of them cost O(n^3) where every triangle fails."""
    for idx in hits[:MAX_VIOLATIONS - len(out)]:
        idx = tuple(int(v) for v in idx)
        out.append(MetricViolation(kind, idx, detail(*idx)))


def _axiom_violations(d: np.ndarray) -> tuple:
    """(violations, finite): the O(n^2) axioms, finite, zero diagonal, symmetric and positive.

    violations holds the first MAX_VIOLATIONS in that order; finite is d with
    its non-finite entries set to 0, which every later check reads.
    """
    out: list = []
    _push(out, "finite", np.argwhere(~np.isfinite(d)), lambda i, j: f"dist = {float(d[i, j])!r}")
    finite = np.where(np.isfinite(d), d, 0.0)
    _push(out, "diagonal", np.argwhere(np.diag(finite) != 0.0), lambda i: f"dist(i,i) = {float(finite[i, i])!r}")
    asym = np.argwhere(finite != finite.T)
    asym = asym[asym[:, 0] < asym[:, 1]]
    _push(out, "symmetry", asym, lambda i, j: f"{float(finite[i, j])!r} != {float(finite[j, i])!r}")
    nonpos = np.argwhere((finite <= 0.0) & ~np.eye(d.shape[0], dtype=bool))
    _push(out, "positivity", nonpos[nonpos[:, 0] < nonpos[:, 1]], lambda i, j: f"dist = {float(finite[i, j])!r}")
    return out, finite


def validate(space: FiniteMetricSpace) -> ValidationReport:
    """Check all metric axioms; violations are returned, never raised.

    The triangle inequality is checked relative to the path's length,
    d(i,k) <= (d(i,j) + d(j,k)) (1 + TRIANGLE_TOL), so scaling every
    distance by a power of 2 reports the same violations. Details print the
    distances as floats. The report holds the first MAX_VIOLATIONS, in the
    order finite, diagonal, symmetry, positivity, triangle, and the search
    stops once it has them.
    """
    n = space.n
    out, finite = _axiom_violations(space.dist)

    # triangle: d(i,k) <= (d(i,j) + d(j,k)) (1 + TRIANGLE_TOL), one
    # intermediate j at a time in one buffer, until the report is full
    slack = np.empty_like(finite)
    for j in range(n):
        if len(out) >= MAX_VIOLATIONS:
            break
        np.add(finite[:, j:j + 1], finite[j:j + 1, :], out=slack)
        slack *= 1.0 + TRIANGLE_TOL
        np.subtract(finite, slack, out=slack)
        if slack.max() <= 0.0:
            continue
        ik = np.argwhere(slack > 0.0)
        _push(
            out,
            "triangle",
            np.insert(ik[ik[:, 0] < ik[:, 1]], 1, j, axis=1),
            lambda i, j, k: f"d(i,k) = {float(finite[i, k])!r} > {float(finite[i, j] + finite[j, k])!r} via j",
        )

    offdiag = ~np.eye(n, dtype=bool)
    pos = finite[offdiag & (finite > 0)] if n > 1 else np.array([])
    min_positive = float(pos.min()) if pos.size else math.inf
    return ValidationReport(
        violations=tuple(out),
        diameter=float(finite.max()) if n > 1 else 0.0,
        min_positive=min_positive,
    )


def _require_axioms(space: FiniteMetricSpace) -> None:
    """Refuse a space that breaks an axiom the certificate uses, in validate's words.

    The certificate uses the O(n^2) axioms (finite, zero diagonal,
    symmetric, positive off the diagonal) and not the triangle inequality:
    the kernel needs d^beta of negative type, and verification measures
    every pair. Where one of them fails, this raises
    validate(space).require_ok()'s ValueError, so the O(n^3) triangle scan
    runs only on that refusal.
    """
    if _axiom_violations(space.dist)[0]:
        validate(space).require_ok()


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _hypercube(k: int) -> FiniteMetricSpace:
    if not 1 <= k <= 12:
        raise ValueError(f"hypercube parameter must be in 1..12, got {k}")
    size = 1 << k
    ids = np.arange(size)
    popcount = np.array([bin(i).count("1") for i in range(size)])
    dist = popcount[np.bitwise_xor.outer(ids, ids)].astype(np.float64)
    labels = [format(i, f"0{k}b") for i in ids]
    points = ((ids[:, None] >> np.arange(k)[None, ::-1]) & 1).astype(np.float64)
    return FiniteMetricSpace(
        labels=tuple(labels),
        dist=dist,
        points=points,
        meta={"kind": "hypercube", "param": k},
    )


def _cycle(n: int) -> FiniteMetricSpace:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 points, got {n}")
    if n > MAX_POINTS:
        raise ValueError(f"cycle parameter exceeds {MAX_POINTS}")
    r = np.arange(n)
    gap = np.abs(np.subtract.outer(r, r))
    dist = np.minimum(gap, n - gap).astype(np.float64)
    return FiniteMetricSpace(
        labels=tuple(str(i) for i in r),
        dist=dist,
        meta={"kind": "cycle", "param": n},
    )


def _path(n: int) -> FiniteMetricSpace:
    if n < 2:
        raise ValueError(f"path needs at least 2 points, got {n}")
    if n > MAX_POINTS:
        raise ValueError(f"path parameter exceeds {MAX_POINTS}")
    r = np.arange(n)
    dist = np.abs(np.subtract.outer(r, r)).astype(np.float64)
    return FiniteMetricSpace(
        labels=tuple(str(i) for i in r),
        dist=dist,
        meta={"kind": "path", "param": n},
    )


def _gaussian(n: int, seed: int, dim: int) -> FiniteMetricSpace:
    if n < 2:
        raise ValueError(f"gaussian cloud needs at least 2 points, got {n}")
    if n > MAX_POINTS:
        raise ValueError(f"gaussian parameter exceeds {MAX_POINTS}")
    if not 1 <= dim <= MAX_GAUSSIAN_DIM:
        raise ValueError(f"ambient dimension dim must be in 1..{MAX_GAUSSIAN_DIM}, got {dim}")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, dim))
    # row chunks, not one n*n*dim array; each row's sum is the same reduction
    dist = np.empty((n, n))
    rows = max(1, GAUSSIAN_CHUNK_ELEMS // (n * dim))
    for start in range(0, n, rows):
        diff = pts[start:start + rows, None, :] - pts[None, :, :]
        np.sqrt((diff * diff).sum(axis=-1), out=dist[start:start + rows])
    return FiniteMetricSpace(
        labels=tuple(f"g{i}" for i in range(n)),
        dist=dist,
        points=pts,
        meta={"kind": "gaussian", "param": n, "seed": int(seed), "dim": int(dim)},
    )


def generate(
    kind: str,
    param: int,
    seed: Optional[int] = None,
    dim: int = 8,
) -> FiniteMetricSpace:
    """Build one of the stock spaces.

    hypercube(k): {0,1}^k under Hamming distance (k <= 12).
    cycle(n) / path(n): shortest-path metric on the n-cycle / n-path.
    gaussian(n): n points sampled coordinate-wise from a standard normal in
    `dim` dimensions (default 8) with Euclidean distance; requires a seed and
    is deterministic per seed. param, seed and dim must be integers: a
    float or a bool is refused, not truncated.
    """
    param = _number(param, "space parameter", integer=True)
    if kind == "hypercube":
        return _hypercube(param)
    if kind == "cycle":
        return _cycle(param)
    if kind == "path":
        return _path(param)
    if kind == "gaussian":
        if seed is None:
            raise ValueError("gaussian spaces require a seed")
        return _gaussian(param, _number(seed, "seed", integer=True), _number(dim, "dim", integer=True))
    raise ValueError(f"unknown space kind {kind!r}; expected one of {GENERATOR_KINDS}")


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def space_to_json(space: FiniteMetricSpace) -> dict:
    payload = {
        "labels": list(space.labels),
        "dist": space.dist.tolist(),
        "meta": dict(space.meta),
    }
    if space.points is not None:
        payload["meta"]["points"] = space.points.tolist()
    return payload


def _numbers(value, name: str) -> np.ndarray:
    """A JSON array of numbers as float64; strings, nulls and booleans are refused, not cast."""
    arr = np.asarray(value)
    # numpy promotes a bool among numbers to a number, so the parsed lists are
    # checked entry by entry: rows holds the innermost lists
    rows = [value] if arr.ndim else []
    for _ in range(arr.ndim - 1):
        rows = [row for outer in rows for row in outer]
    if arr.dtype.kind not in "iuf" or any(bool in map(type, row) for row in rows):
        raise TypeError(f"{name} must hold numbers only")
    return arr.astype(np.float64, copy=False)


def _parse_space(payload) -> FiniteMetricSpace:
    """Rebuild a space from its JSON form, checking its structure only."""
    try:
        labels = payload["labels"]
        if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
            # a string would pass as its characters, a number as its str()
            raise TypeError("labels must be an array of strings")
        meta = dict(payload.get("meta", {}))
        points = meta.pop("points", None)
        return FiniteMetricSpace(
            labels=tuple(labels),
            dist=_numbers(payload["dist"], "dist"),
            points=_numbers(points, "meta.points") if points is not None else None,
            meta=meta,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed space payload: {exc}") from exc


def _write_rows(fh, arr: np.ndarray) -> None:
    """Write json.dumps(arr.tolist()) to fh, one row's list at a time."""
    fh.write("[")
    for i, row in enumerate(arr):
        fh.write((", " if i else "") + json.dumps(row.tolist()))
    fh.write("]")


def save_space(space: FiniteMetricSpace, path) -> None:
    """Write json.dumps(space_to_json(space)) plus a newline, streaming the matrix rows.

    The bytes are the same, but only the header, one row's text and the meta
    entries are held at a time, not the nested lists and the whole text.
    """
    meta = json.dumps(space.meta)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"labels": list(space.labels)})[:-1] + ', "dist": ')
        _write_rows(fh, space.dist)
        if space.points is None:
            fh.write(', "meta": ' + meta + "}\n")
        else:
            # space_to_json appends the coordinates to meta, as its last key
            fh.write(', "meta": ' + meta[:-1] + (", " if space.meta else "") + '"points": ')
            _write_rows(fh, space.points)
            fh.write("}}\n")


def _read_json(path):
    """Parse a JSON file; text that is not JSON, or nested too deep to parse, is a ValueError."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def load_space_lenient(path) -> FiniteMetricSpace:
    """Load a space file without rejecting metric violations (validate reports them)."""
    return _parse_space(_read_json(path))


def load_space(path) -> FiniteMetricSpace:
    """Load a space file; the axioms the certificate uses are rechecked (_require_axioms).

    A file that breaks only the triangle inequality loads: validate and
    `lpembed validate` report it.
    """
    space = load_space_lenient(path)
    _require_axioms(space)
    return space
