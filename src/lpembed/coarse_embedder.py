"""Assembly of the coarse embedding Phi(x) = (+)_n (phi_n(x) - phi_n(x0)).

Each calibrated level contributes one block, offset so the base point maps to
zero. On a finite space the level sum is truncated at level_count N; levels at
or beyond the diameter satisfy their closeness condition globally, so the
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
once on its base-offset rows, so a reloaded level is the record a build makes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .lp_core import (
    ExponentLike,
    PExponent,
    abs_power,
    as_exponent,
    pairwise_pnorm_all,
    pairwise_power_sums_all,  # unused here: bench/tracing.py's TARGETS wraps this name in this module
)
from .kernel_sphere_maps import SphereMapFamily, SphereMapLevel, _kernel_for, build_level_family
from .metric_spaces import FiniteMetricSpace, _numbers, _read_json, validate

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


@dataclass(frozen=True, eq=False)
class CoarseEmbedding:
    """A finished embedding: its level family and its base point.

    The family is the one record of the space, p, delta and the level
    schedule, and each of its levels carries its images phi_n and its pair
    distances; the embedding reads them from it, for a build in memory and a
    reload from JSON alike. Block n of point x is level.images[x] -
    level.images[base_index]. image_matrix (the per-point concatenation of
    the blocks), blocks (its per-level column views) and block_dims are
    formed on first use, once, and read-only; verification and profiling
    never form them.
    """

    family: SphereMapFamily
    base_index: int

    def __post_init__(self) -> None:
        _check_base_index(self.base_index, self.space.n)

    @property
    def space(self) -> FiniteMetricSpace:
        return self.family.space

    @property
    def exponent(self) -> PExponent:
        return self.family.exponent

    @property
    def delta(self) -> float:
        return self.family.delta

    @property
    def schedule(self) -> tuple:
        """The family's levels, in order."""
        return self.family.levels

    @property
    def level_count(self) -> int:
        return len(self.family.levels)

    @cached_property
    def block_dims(self) -> tuple:
        return tuple(level.images.shape[1] for level in self.family.levels)

    @cached_property
    def image_matrix(self) -> np.ndarray:
        mat = np.empty((self.space.n, sum(self.block_dims)))
        offset = 0
        for level, width in zip(self.family.levels, self.block_dims):
            _offset_rows(level.images, self.base_index, out=mat[:, offset:offset + width])
            offset += width
        mat.setflags(write=False)
        return mat

    @cached_property
    def blocks(self) -> tuple:
        """One (points, width) read-only view of image_matrix per level."""
        return tuple(np.hsplit(self.image_matrix, np.cumsum(self.block_dims)[:-1]))

    def separation_thresholds(self) -> np.ndarray:
        """Sorted finite S_n over non-saturated levels."""
        finite = [level.s_n for level in self.schedule if not level.saturated]
        return np.sort(np.asarray(finite, dtype=np.float64))


def default_level_count(space: FiniteMetricSpace) -> int:
    """ceil(diameter) + 2, clamped to [1, MAX_LEVELS]."""
    return max(1, min(MAX_LEVELS, int(math.ceil(space.diameter())) + 2))


def _is_index(value) -> bool:
    """An int or numpy integer, and not a bool: a point index or a level count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_base_index(value, n_points: int) -> None:
    if not (_is_index(value) and 0 <= value < n_points):
        raise ValueError(f"base index must be an integer point index in 0..{n_points - 1}, got {value!r}")


def _offset_rows(images: np.ndarray, base_index: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """A level's block: images - images[base_index], which must be finite."""
    with np.errstate(over="ignore"):  # finite images can overflow; refused below
        rows = np.subtract(images, images[base_index], out=out)
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

    The kernel follows from the distances: gaussian (exp(-t d^2)) where d^2
    is of negative type, else laplacian (exp(-t d)) where d is. Where
    neither is, NotNegativeType is raised before any kernel is factored.
    """
    validate(space).require_ok()
    pe = as_exponent(p)
    if level_count is None:
        level_count = default_level_count(space)
    if not (_is_index(level_count) and 1 <= level_count <= MAX_LEVELS):
        raise ValueError(f"level count must be an integer in 1..{MAX_LEVELS}, got {level_count!r}")
    _check_base_index(base_index, space.n)

    return CoarseEmbedding(
        family=build_level_family(space, int(level_count), pe, float(delta), _kernel_for(space)),
        base_index=int(base_index),
    )


def _point_index(embedding: CoarseEmbedding, point: Union[int, str]) -> int:
    if _is_index(point):
        idx = int(point)
        if not 0 <= idx < embedding.space.n:
            raise KeyError(f"point index {idx} out of range")
        return idx
    return embedding.space.index_of(point)


def evaluate(embedding: CoarseEmbedding, point: Union[int, str]) -> tuple:
    """The stored image of a point: one read-only row per level, in level order.

    The rows are views of the embedding's blocks, not copies. A point is a
    label or an integer index (a bool is neither).
    """
    idx = _point_index(embedding, point)
    return tuple(block[idx] for block in embedding.blocks)


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
    thresholds = embedding.separation_thresholds()
    m = np.searchsorted(thresholds, arr, side="right").astype(np.float64)
    rho1 = (embedding.delta / 2.0) * m ** (1.0 / p)
    with np.errstate(over="ignore"):  # where 2^p d^p + 1 overflows, rho2 is 2d
        upper = 2.0 ** p * abs_power(arr, p) + 1.0
        rho2 = np.where(np.isinf(upper), 2.0 * arr, upper ** (1.0 / p))
    if arr.ndim == 0:
        return float(rho1), float(rho2)
    return rho1, rho2


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
    ||Phi(x)-Phi(y)||_p^p = sum_n ||phi_n(x)-phi_n(y)||_p^p: the p-th powers
    of each level's pair distances, summed in level order, O(L n^2), for a
    build and a reload alike.
    """
    ii, jj = embedding.space.pair_indices()
    p = embedding.exponent.value
    psums = np.zeros(ii.size)
    for level in embedding.family.levels:
        psums += abs_power(level.pair_distances, p)
    return ii, jj, embedding.space.dist[ii, jj], psums


def pairwise_image_distances(embedding: CoarseEmbedding) -> tuple:
    """(i_idx, j_idx, source_distance, image_distance) over all point pairs."""
    ii, jj, d, psums = pairwise_image_power_sums(embedding)
    return ii, jj, d, psums ** (1.0 / embedding.exponent.value)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _header_json(embedding: CoarseEmbedding) -> dict:
    """The embedding's JSON form up to its images: p, base, delta and the schedule."""
    return {
        "p": embedding.exponent.value,
        "base": embedding.base_index,
        "delta": embedding.delta,
        "schedule": [
            {
                "n": level.level_n,
                "eps": level.epsilon_n,
                "S": None if level.saturated else level.s_n,
                "t": level.bandwidth_t,
                "kernel": level.kernel_kind,
            }
            for level in embedding.schedule
        ],
    }


def embedding_to_json(embedding: CoarseEmbedding) -> dict:
    levels = embedding.schedule
    images = {label: [lv.images[i].tolist() for lv in levels] for i, label in enumerate(embedding.space.labels)}
    return {**_header_json(embedding), "images": images}


def _image_blocks(blocks, label: str) -> list:
    """One point's level images as float64 arrays; each must be a list of finite numbers."""
    bad = ValueError(f"malformed embedding payload: images of {label!r} must be a list of number lists")
    if not isinstance(blocks, list) or not blocks:
        raise bad
    try:
        arrays = [_numbers(block, "block") for block in blocks]
    except (TypeError, ValueError):  # not numbers, or ragged nesting
        raise bad from None
    if any(arr.ndim != 1 for arr in arrays):
        raise bad
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise ValueError(f"malformed embedding payload: images of {label!r} are not all finite")
    return arrays


def _number(value, name: str, integer: bool = False):
    """A JSON number as float (int if integer); float() and int() also read bools and strings."""
    if not (_is_index(value) or (not integer and isinstance(value, (float, np.floating)))):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return int(value) if integer else float(value)


def _threshold(value) -> float:
    """A schedule entry's S: null for a saturated level, else a finite positive number."""
    s_n = math.inf if value is None else _number(value, "schedule S")
    if value is not None and not 0 < s_n < math.inf:
        raise ValueError(f"schedule S must be null or a finite positive number, got {value!r}")
    return s_n


def embedding_from_json(payload: dict, space: FiniteMetricSpace) -> CoarseEmbedding:
    """Reattach a serialized embedding to its space: each level with its images and pair distances.

    The file holds each level's images phi_n(x). Each level's pair distances
    are measured once, by pairwise_pnorm_all on its base-offset rows
    phi_n(x) - phi_n(x0); offsets that overflow are a malformed payload.
    Older files hold those offsets, whose zero base rows give the same rows,
    so they read back to the same pair distances and image_matrix.
    """
    try:
        pe = as_exponent(_number(payload["p"], "p"))
        base = _number(payload["base"], "base", integer=True)
        delta = _number(payload["delta"], "delta")
        schedule = [
            dict(
                level_n=_number(s["n"], "schedule n", integer=True),
                exponent=pe,
                epsilon_n=_number(s["eps"], "schedule eps"),
                s_n=_threshold(s["S"]),
                bandwidth_t=_number(s["t"], "schedule t"),
                kernel_kind=s["kernel"],
            )
            for s in payload["schedule"]
        ]
        images = payload["images"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed embedding payload: {exc}") from exc
    _check_base_index(base, space.n)
    if not isinstance(images, dict):
        raise ValueError(f"malformed embedding payload: images must be an object, got {type(images).__name__}")
    missing = [l for l in space.labels if l not in images]
    if missing:
        raise ValueError(f"embedding payload missing images for {len(missing)} points, e.g. {missing[0]!r}")
    per_point = []
    block_dims = None
    for label in space.labels:
        blocks = _image_blocks(images[label], label)
        dims = tuple(b.size for b in blocks)
        if block_dims is None:
            block_dims = dims
        elif dims != block_dims:
            raise ValueError(f"inconsistent block shapes at point {label!r}")
        per_point.append(blocks)
    if len(block_dims) != len(schedule):
        raise ValueError(f"{len(block_dims)} image blocks per point but {len(schedule)} schedule levels")
    try:
        levels = []
        for params, rows in zip(schedule, zip(*per_point)):
            level_images = np.vstack(rows)
            pair_distances = pairwise_pnorm_all(_offset_rows(level_images, base), pe)
            pair_distances.setflags(write=False)
            levels.append(SphereMapLevel(**params, images=level_images, pair_distances=pair_distances))
        family = SphereMapFamily(levels=tuple(levels), exponent=pe, delta=delta, space=space)
    except ValueError as exc:
        raise ValueError(f"malformed embedding payload: {exc}") from exc
    return CoarseEmbedding(family=family, base_index=base)


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
