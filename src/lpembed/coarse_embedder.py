"""Assembly of the coarse embedding Phi(x) = (+)_n (phi_n(x) - phi_n(x0)).

An embedding is one record, CoarseEmbedding: the space, p, the kernel
exponent beta, delta, the calibrated levels and the base point x0. Each
level contributes one block, offset so the base point maps to zero. On a
finite space the level sum is truncated at level_count N; levels at or
beyond the diameter satisfy their closeness condition globally, so the
p-th-power mass a longer schedule could add to any pair is at most
tail_bound = 2^(-Np) / (2^p - 1).

The certified envelopes: for every pair,

    ||Phi(x) - Phi(y)||_p^p <= 2^p d(x,y)^p + 1          (rho2 side)
    ||Phi(x) - Phi(y)||_p^p >= m(d) (delta/2)^p           (rho1 side)

where m(d) counts non-saturated levels with S_n <= d. Both follow from the
measured per-level certificates, so a correctly built embedding verifies
cleanly at 1e-9 (distortion_report.verify_bounds, the one verifier). An
embedding file is json.dumps of embedding_to_json's dict, written one point's
level images at a time; on read, each level's pair distances are measured
once on its base-offset rows (a repeated block adds its predecessor's again)
and summed as a build sums them, so a reload is the record a build makes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .lp_core import (
    ExponentLike,
    PExponent,
    _abs_power_inplace,
    _is_index,
    _number,
    abs_power,
    as_exponent,
    pairwise_pnorm_all,
    pairwise_power_sums_all,  # unused here: bench/tracing.py's TARGETS wraps this name in this module
    pth_root,
)
from .kernel_sphere_maps import _BETAS, NotNegativeType, SphereMapLevel, _kernel_for, build_level_family
from .metric_spaces import FiniteMetricSpace, _numbers, _read_json, _require_axioms, validate

__all__ = [
    "MAX_LEVELS",
    "CoarseEmbedding",
    "build_embedding",
    "evaluate",
    "theoretical_bounds",
    "tail_bound",
    "pairwise_image_power_sums",
    "pairwise_image_distances",
    "embedding_to_json",
    "save_embedding",
    "load_embedding",
]

MAX_LEVELS = 64
_KERNEL_NAMES = {2.0: "gaussian", 1.0: "laplacian"}  # a file's name for each beta of exp(-t d^beta)


@dataclass(frozen=True, eq=False)
class CoarseEmbedding:
    """A finished embedding: its space, p, kernel exponent beta, delta, level schedule, base point and pair power sums.

    This is the one record of an embedding, for a build in memory and a
    reload from JSON alike. p (a PExponent) and beta (2 or 1, the kernel
    exp(-t d^beta)) are parameters of the whole sum. Level n is the n-th
    entry of the schedule (a tuple of SphereMapLevel) and carries what its
    search measured, its images phi_n among it; block n of point x is
    level.images[x] - level.images[base_index]. pair_power_sums holds
    ||Phi(x) - Phi(y)||_p^p = sum_n ||phi_n(x) - phi_n(y)||_p^p for every
    pair i < j in condensed (np.triu_indices) order, the p-th powers of
    each level's pair distances added in level order; verification and
    profiling read it. A build and a reload make it read-only; it is
    outside the repr, and each entry must be >= 0. image_matrix (the per-point concatenation of
    the blocks) and block_dims are formed on first use, once, and
    read-only; verification and profiling never form them.
    """

    space: FiniteMetricSpace
    exponent: PExponent
    beta: float
    delta: float
    schedule: tuple
    base_index: int
    pair_power_sums: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.exponent, PExponent):
            raise ValueError(f"exponent must be a PExponent, got {self.exponent!r}")
        delta = _number(self.delta, "delta")
        if not (math.isfinite(delta) and delta > 0):
            # a vacuous lower envelope would certify any images
            raise ValueError(f"delta must be finite and positive, got {self.delta!r}")
        try:
            # a real number, so True (== 1.0) and "2" are refused
            known_beta = _number(self.beta, "kernel exponent beta") in _BETAS
        except ValueError:
            known_beta = False
        if not known_beta:
            raise ValueError(f"kernel exponent beta must be one of {_BETAS}, got {self.beta!r}")
        if any(level.images.shape[0] != self.space.n for level in self.schedule):
            raise ValueError(f"every level's images must hold one row per point, {self.space.n} rows")
        pairs = self.space.n * (self.space.n - 1) // 2
        if np.shape(self.pair_power_sums) != (pairs,) or not (self.pair_power_sums >= 0).all():
            # a NaN sum would pass every envelope comparison; +inf, an overflow, is a violation
            raise ValueError(f"pair_power_sums must hold one sum >= 0 (no NaN) per point pair, {pairs} sums")
        _check_base_index(self.base_index, self.space.n)
        object.__setattr__(self, "base_index", int(self.base_index))  # json.dumps refuses np.int64

    @property
    def level_count(self) -> int:
        return len(self.schedule)

    @cached_property
    def block_dims(self) -> tuple:
        return tuple(level.images.shape[1] for level in self.schedule)

    @cached_property
    def image_matrix(self) -> np.ndarray:
        mat = np.empty((self.space.n, sum(self.block_dims)))
        offset = 0
        for level, width in zip(self.schedule, self.block_dims):
            _offset_rows(level.images, level.images[self.base_index], out=mat[:, offset:offset + width])
            offset += width
        mat.setflags(write=False)
        return mat

    def separation_thresholds(self) -> np.ndarray:
        """Sorted finite S_n over non-saturated levels."""
        finite = [level.s_n for level in self.schedule if not level.saturated]
        return np.sort(np.asarray(finite, dtype=np.float64))


def default_level_count(space: FiniteMetricSpace) -> int:
    """ceil(diameter) + 2, clamped to [1, MAX_LEVELS]."""
    return max(1, min(MAX_LEVELS, int(math.ceil(space.diameter())) + 2))


def _check_base_index(value, n_points: int) -> None:
    if not (_is_index(value) and 0 <= value < n_points):
        raise ValueError(f"base index must be an integer point index in 0..{n_points - 1}, got {value!r}")


def _offset_rows(images: np.ndarray, base_row: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Image rows offset from the base point's, images - base_row, which must be finite."""
    with np.errstate(over="ignore"):  # finite images can overflow; refused below
        rows = np.subtract(images, base_row, out=out)
    if not np.isfinite(rows).all():
        # inf - inf in a pair scan is NaN, which passes every envelope comparison
        raise ValueError("image blocks must be finite (no NaN/inf)")
    return rows


def build_embedding(
    space: FiniteMetricSpace,
    p: ExponentLike,
    level_count: Optional[int] = None,
    delta: float = 1.0,
    base_index: int = 0,
) -> CoarseEmbedding:
    """Calibrate levels 1..N and assemble the block images.

    The space must pass the axioms the certificate uses (_require_axioms:
    finite, zero diagonal, symmetric, positive off the diagonal); the
    triangle inequality is not read. The kernel exp(-t d^beta) follows from
    the distances: beta = 2 where d^2 is of negative type, else beta = 1
    where d is. Where neither is, NotNegativeType is raised before any
    kernel is factored, or validate(space).require_ok()'s ValueError where
    the space is not a metric either.
    """
    _require_axioms(space)
    pe = as_exponent(p)
    delta = _number(delta, "delta")
    if level_count is None:
        level_count = default_level_count(space)
    if not (_is_index(level_count) and 1 <= level_count <= MAX_LEVELS):
        raise ValueError(f"level count must be an integer in 1..{MAX_LEVELS}, got {level_count!r}")
    _check_base_index(base_index, space.n)

    try:
        beta = _kernel_for(space)
        levels, sums = build_level_family(space, int(level_count), pe, delta, beta)
    except NotNegativeType:
        # a non-metric is refused as one; its triangle scan runs only here
        validate(space).require_ok()
        raise
    return CoarseEmbedding(space, pe, beta, delta, levels, int(base_index), sums)


def _point_index(embedding: CoarseEmbedding, point: Union[int, str]) -> int:
    if _is_index(point):
        idx = int(point)
        if not 0 <= idx < embedding.space.n:
            raise KeyError(f"point index {idx} out of range")
        return idx
    return embedding.space.index_of(point)


def evaluate(embedding: CoarseEmbedding, point: Union[int, str]) -> tuple:
    """The image of a point: one row per level, in level order, phi_n(x) - phi_n(x0).

    Each row is formed from its level's images on the call, with the bits
    of the point's row of image_matrix, which is not formed. A point is a
    label or an integer index (a bool is neither).
    """
    idx, base = _point_index(embedding, point), embedding.base_index
    return tuple(_offset_rows(level.images[idx], level.images[base]) for level in embedding.schedule)


def theoretical_bounds(embedding: CoarseEmbedding, d) -> tuple:
    """(rho1, rho2) envelope values at source distance d (scalar or array).

    rho2(d) = (2^p d^p + 1)^(1/p), and 2d where 2^p d^p + 1 overflows: the
    +1 is below resolution there. rho1(d) = (delta/2) m^(1/p) with m the
    number of non-saturated levels whose threshold S_n is <= d; a distance
    exactly equal to some S_n counts that level.
    """
    p = embedding.exponent.value
    arr = np.asarray(d, dtype=np.float64)
    if not np.all(arr >= 0):
        # NaN fails this test too; inf is allowed
        raise ValueError("distances must be nonnegative")
    m, upper = _envelope_terms(embedding, arr)
    rho1 = (embedding.delta / 2.0) * m.astype(np.float64) ** (1.0 / p)
    with np.errstate(over="ignore"):  # where upper overflows, rho2 is 2d, inf from d = 2^1023 on
        rho2 = np.where(np.isinf(upper), 2.0 * arr, upper ** (1.0 / p))
    if arr.ndim == 0:
        return float(rho1), float(rho2)
    return rho1, rho2


def _envelope_terms(embedding: CoarseEmbedding, d: np.ndarray) -> tuple:
    """(m(d), 2^p |d|^p + 1) at source distances d, m(d) the count of non-saturated S_n <= d."""
    p = embedding.exponent.value
    with np.errstate(over="ignore"):  # +inf where 2^p d^p overflows: no finite sum exceeds it
        upper = 2.0 ** p * abs_power(d, p) + 1.0
    return np.searchsorted(embedding.separation_thresholds(), d, side="right"), upper


def tail_bound(embedding: CoarseEmbedding) -> float:
    """p-th-power mass an untruncated schedule could add beyond level N.

    sum_{n > N} 2^(-np) = 2^(-Np) / (2^p - 1); bounds the change of any
    certified pairwise distance^p under schedule refinement, for pairs within
    distance N.
    """
    p = embedding.exponent.value
    n_levels = embedding.level_count
    return 2.0 ** (-n_levels * p) / (2.0 ** p - 1.0)


def pairwise_image_power_sums(embedding: CoarseEmbedding) -> tuple:
    """(i_idx, j_idx, source_distance, image_distance^p) over all point pairs.

    The base-point offset cancels in every pair, so
    ||Phi(x)-Phi(y)||_p^p = sum_n ||phi_n(x)-phi_n(y)||_p^p, which the
    embedding holds, read-only, as pair_power_sums, for a build and a
    reload alike.
    """
    ii, jj = embedding.space.pair_indices()
    return ii, jj, embedding.space.dist[ii, jj], embedding.pair_power_sums


def pairwise_image_distances(embedding: CoarseEmbedding) -> tuple:
    """(i_idx, j_idx, source_distance, image_distance) over all point pairs."""
    ii, jj, d, psums = pairwise_image_power_sums(embedding)
    return ii, jj, d, pth_root(psums, embedding.exponent.value)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _header_json(embedding: CoarseEmbedding) -> dict:
    """The embedding's JSON form up to its images: p, base, delta and the schedule, n its position."""
    return {
        "p": embedding.exponent.value,
        "base": embedding.base_index,
        "delta": embedding.delta,
        "schedule": [
            {
                "n": n,
                "eps": level.epsilon_n,
                "S": None if level.saturated else level.s_n,
                "t": level.bandwidth_t,
                "kernel": _KERNEL_NAMES[embedding.beta],
            }
            for n, level in enumerate(embedding.schedule, 1)
        ],
    }


def embedding_to_json(embedding: CoarseEmbedding) -> dict:
    levels = embedding.schedule
    images = {label: [lv.images[i].tolist() for lv in levels] for i, label in enumerate(embedding.space.labels)}
    return {**_header_json(embedding), "images": images}


def _level_images(rows: list, position: int) -> np.ndarray:
    """The blocks at one schedule position, one per point, as a (points, width) array of finite numbers.

    They are refused before any arithmetic: inf - inf in the base offset
    would be NaN, which passes every envelope comparison.
    """
    bad = ValueError(f"level {position} images must be one number list per point, all of one length")
    try:
        arr = _numbers(rows, "block")
    except (TypeError, ValueError):  # not numbers, or ragged nesting
        raise bad from None
    if arr.ndim != 2:
        raise bad
    if not np.isfinite(arr).all():
        raise ValueError(f"level {position} images are not all finite")
    return arr


def _kernel_beta(name) -> float:
    """The beta a schedule entry's kernel name stands for."""
    for beta, kernel in _KERNEL_NAMES.items():
        if name == kernel:
            return beta
    raise ValueError(f"schedule kernel must be one of {sorted(_KERNEL_NAMES.values())}, got {name!r}")


def _threshold(value) -> float:
    """A schedule entry's S: null for a saturated level, else a finite positive number."""
    s_n = math.inf if value is None else _number(value, "schedule S")
    if value is not None and not 0 < s_n < math.inf:
        raise ValueError(f"schedule S must be null or a finite positive number, got {value!r}")
    return s_n


def embedding_from_json(payload: dict, space: FiniteMetricSpace) -> CoarseEmbedding:
    """Reattach a serialized embedding to its space: each level with its images, and the pair power sums.

    The file holds each level's images phi_n(x), one list per level for
    each point; a level's lists are read for all points as one array. Each
    level's pair distances are measured once, by pairwise_pnorm_all on its
    base-offset rows phi_n(x) - phi_n(x0), and their p-th powers added in
    level order to the pair power sums, as a build adds them; only one
    level's terms are held at a time. Offsets that overflow, or pair
    distances that do (no warning is raised for either), are a malformed
    payload. A level whose images equal the previous level's shares that
    level's images and adds its terms again, unscanned, as a build's
    shares them, so a constant tail costs one scan. Older files hold those
    offsets, whose zero base rows give the same rows, so they read back to
    the same pair power sums and image_matrix. A level's n is its position
    and its kernel the embedding's, so levels whose n do not run 1..N, or
    that name two kernels, are refused here.
    """
    try:
        pe = as_exponent(_number(payload["p"], "p"))
        base = _number(payload["base"], "base", integer=True)
        delta = _number(payload["delta"], "delta")
        schedule = [
            dict(
                n=_number(s["n"], "schedule n", integer=True),
                epsilon_n=_number(s["eps"], "schedule eps"),
                s_n=_threshold(s["S"]),
                bandwidth_t=_number(s["t"], "schedule t"),
                beta=_kernel_beta(s["kernel"]),
            )
            for s in payload["schedule"]
        ]
        if not schedule:
            # an embedding is the direct sum of its level blocks
            raise ValueError("schedule must list at least one level")
        numbers = [params.pop("n") for params in schedule]
        if numbers != list(range(1, len(numbers) + 1)):
            raise ValueError(f"level numbers n must run 1..{len(numbers)} in order, got {numbers}")
        betas = sorted({params.pop("beta") for params in schedule})
        if len(betas) > 1:
            # a build calibrates every level with one kernel, each from the last
            raise ValueError(f"every level must use one kernel exponent beta, got {betas}")
        images = payload["images"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed embedding payload: {exc}") from exc
    _check_base_index(base, space.n)
    if not isinstance(images, dict):
        raise ValueError(f"malformed embedding payload: images must be an object, got {type(images).__name__}")
    missing = [l for l in space.labels if l not in images]
    if missing:
        raise ValueError(f"embedding payload missing images for {len(missing)} points, e.g. {missing[0]!r}")
    per_point = [images[label] for label in space.labels]
    for label, blocks in zip(space.labels, per_point):
        if not isinstance(blocks, list) or len(blocks) != len(schedule):
            raise ValueError(
                f"malformed embedding payload: images of {label!r} must be a list of "
                f"{len(schedule)} blocks, one per schedule level"
            )
    try:
        levels, sums = [], np.zeros(space.n * (space.n - 1) // 2)
        # distances that overflow are refused below, and a sum that does is +inf, a violation
        with np.errstate(over="ignore"):
            for n, params in enumerate(schedule, 1):
                level_images = _level_images([blocks[n - 1] for blocks in per_point], n)
                if levels and np.array_equal(level_images, levels[-1].images):
                    # the previous level's images, as a build shares them: its terms again, unscanned
                    level_images = levels[-1].images
                else:
                    pair_d = pairwise_pnorm_all(_offset_rows(level_images, level_images[base]), pe)
                    if not np.isfinite(pair_d).all():
                        # a NaN distance would pass every certificate comparison
                        raise ValueError(f"level {n}: pair_distances must be finite (no NaN/inf)")
                    terms = _abs_power_inplace(pair_d, pe.value)  # abs_power's bits, in the scan's buffer
                try:
                    levels.append(SphereMapLevel(**params, images=level_images))
                except ValueError as exc:
                    raise ValueError(f"level {n}: {exc}") from None
                sums += terms
        sums.setflags(write=False)
        return CoarseEmbedding(space, pe, betas[0], delta, tuple(levels), base, sums)
    except ValueError as exc:
        raise ValueError(f"malformed embedding payload: {exc}") from exc


def save_embedding(embedding: CoarseEmbedding, path) -> None:
    """Write json.dumps(embedding_to_json(embedding)) plus a newline, one point at a time.

    The bytes are the same, but only the header and one point's image text
    are held at a time, not the nested lists and the whole text.
    """
    levels, header = embedding.schedule, json.dumps(_header_json(embedding))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header[:-1] + ', "images": {')
        for i, label in enumerate(embedding.space.labels):
            rows = [level.images[i].tolist() for level in levels]
            fh.write((", " if i else "") + json.dumps(label) + ": " + json.dumps(rows))
        fh.write("}}\n")


def load_embedding(path, space: FiniteMetricSpace) -> CoarseEmbedding:
    return embedding_from_json(_read_json(path), space)
