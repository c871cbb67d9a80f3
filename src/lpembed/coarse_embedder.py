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
cleanly at 1e-9.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .lp_core import (
    BlockVector,
    ExponentLike,
    LpVector,
    PExponent,
    abs_power,
    as_exponent,
    pairwise_power_sums_all,
)
from .kernel_sphere_maps import SphereMapFamily, SphereMapLevel, build_level_family
from .metric_spaces import FiniteMetricSpace, validate

__all__ = [
    "MAX_LEVELS",
    "CoarseEmbedding",
    "default_level_count",
    "build_embedding",
    "evaluate",
    "theoretical_bounds",
    "tail_bound",
    "pairwise_image_power_sums",
    "pairwise_image_distances",
    "embedding_to_json",
    "embedding_from_json",
    "save_embedding",
    "load_embedding",
]

MAX_LEVELS = 64


@dataclass(frozen=True, eq=False)
class CoarseEmbedding:
    """A finished embedding: its level family, base point and one source of block images.

    The family is the one record of the space, p, delta and the level schedule;
    the embedding reads them from it. Exactly one source of images is given.
    An embedding built in memory holds a calibrated family whose levels carry
    their images; block n of point x is then level.images[x] -
    level.images[base_index], formed on first use, and verification sums the
    levels' measured pair distances. One reloaded from JSON holds a family of
    image-less levels and the blocks it read (loaded_blocks, one finite
    (points, width) array per level). Either way image_matrix (the per-point
    concatenation of the blocks), blocks (its per-level column views) and
    block_dims are formed once and read-only.
    """

    family: SphereMapFamily
    base_index: int
    loaded_blocks: Optional[tuple] = None

    def __post_init__(self) -> None:
        with_images = [level.images is not None for level in self.family.levels]
        if not (all(with_images) if self.loaded_blocks is None else not any(with_images)):
            raise ValueError("an embedding's images come from exactly one source: its levels or loaded image blocks")
        if not 0 <= self.base_index < self.space.n:
            raise ValueError(f"base index {self.base_index} out of range")
        if self.loaded_blocks is not None:
            blocks = [np.asarray(b, dtype=np.float64) for b in self.loaded_blocks]
            if not blocks or any(b.ndim != 2 or b.shape[0] != self.space.n for b in blocks):
                raise ValueError(f"loaded image blocks must be (points, width) arrays with {self.space.n} rows")
            mat = np.hstack(blocks)
            if not np.isfinite(mat).all():
                # a NaN pair distance would pass every envelope comparison
                raise ValueError("image blocks must be finite (no NaN/inf)")
            mat.setflags(write=False)
            self.__dict__["block_dims"] = tuple(b.shape[1] for b in blocks)
            self.__dict__["image_matrix"] = mat
            # keep the read-only views of the one stacked copy, not the arrays passed in
            object.__setattr__(self, "loaded_blocks", self.blocks)
            if len(blocks) != self.level_count:
                raise ValueError(f"{len(blocks)} image blocks but {self.level_count} schedule levels")

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

    # Reloaded embeddings fill block_dims and image_matrix at construction, so
    # these two bodies only run on levels that carry their images.
    @cached_property
    def block_dims(self) -> tuple:
        return tuple(level.images.shape[1] for level in self.family.levels)

    @cached_property
    def image_matrix(self) -> np.ndarray:
        mat = np.empty((self.space.n, sum(self.block_dims)))
        offset = 0
        for level, width in zip(self.family.levels, self.block_dims):
            np.subtract(level.images, level.images[self.base_index], out=mat[:, offset:offset + width])
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


def default_kernel_kind(space: FiniteMetricSpace) -> str:
    """Gaussian kernels for Euclidean-sampled clouds, laplacian for graphs."""
    return "gaussian" if space.meta.get("kind") == "gaussian" else "laplacian"


def build_embedding(
    space: FiniteMetricSpace,
    p: ExponentLike,
    level_count: Optional[int] = None,
    delta: float = 1.0,
    base_index: int = 0,
    kernel_kind: Optional[str] = None,
) -> CoarseEmbedding:
    """Calibrate levels 1..N and assemble the block images."""
    validate(space).require_ok()
    pe = as_exponent(p)
    if kernel_kind is None:
        kernel_kind = default_kernel_kind(space)
    if level_count is None:
        level_count = default_level_count(space)
    level_count = int(level_count)
    if not 1 <= level_count <= MAX_LEVELS:
        raise ValueError(f"level count must be in 1..{MAX_LEVELS}, got {level_count}")
    base_index = int(base_index)
    if not 0 <= base_index < space.n:
        raise ValueError(f"base index {base_index} out of range for {space.n} points")

    return CoarseEmbedding(
        family=build_level_family(space, level_count, pe, float(delta), kernel_kind),
        base_index=base_index,
    )


def _point_index(embedding: CoarseEmbedding, point: Union[int, str]) -> int:
    if isinstance(point, (int, np.integer)):
        idx = int(point)
        if not 0 <= idx < embedding.space.n:
            raise KeyError(f"point index {idx} out of range")
        return idx
    return embedding.space.index_of(point)


def evaluate(embedding: CoarseEmbedding, point: Union[int, str]) -> BlockVector:
    """The stored image of a point, as a block vector (deterministic lookup)."""
    idx = _point_index(embedding, point)
    return BlockVector(tuple(LpVector(block[idx]) for block in embedding.blocks))


def theoretical_bounds(embedding: CoarseEmbedding, d) -> tuple:
    """(rho1, rho2) envelope values at source distance d (scalar or array).

    rho2(d) = (2^p d^p + 1)^(1/p). rho1(d) = (delta/2) m^(1/p) with m the
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
    rho2 = (2.0 ** p * abs_power(arr, p) + 1.0) ** (1.0 / p)
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
    ||Phi(x)-Phi(y)||_p^p = sum_n ||phi_n(x)-phi_n(y)||_p^p. An embedding that
    carries its family sums, in level order, the p-th powers of the pair
    distances calibration measured at each level: O(L n^2). One reloaded from
    JSON scans the stacked image rows: O(L n^3). The two agree to rounding.
    """
    ii, jj = embedding.space.pair_indices()
    d = embedding.space.dist[ii, jj]
    if embedding.loaded_blocks is not None:
        psums = pairwise_power_sums_all(embedding.image_matrix, embedding.exponent)
    else:
        p = embedding.exponent.value
        psums = np.zeros(d.size)
        for level in embedding.family.levels:
            psums += abs_power(level.pair_distances, p)
    return ii, jj, d, psums


def pairwise_image_distances(embedding: CoarseEmbedding) -> tuple:
    """(i_idx, j_idx, source_distance, image_distance) over all point pairs."""
    ii, jj, d, psums = pairwise_image_power_sums(embedding)
    return ii, jj, d, psums ** (1.0 / embedding.exponent.value)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def embedding_to_json(embedding: CoarseEmbedding) -> dict:
    blocks = embedding.blocks
    images = {label: [b[i].tolist() for b in blocks] for i, label in enumerate(embedding.space.labels)}
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
        "images": images,
    }


def _image_blocks(blocks, label: str) -> list:
    """One point's image blocks as float64 arrays; each must be a list of finite numbers."""
    bad = ValueError(f"malformed embedding payload: images of {label!r} must be a list of number lists")
    if not isinstance(blocks, list) or not blocks:
        raise bad
    arrays = []
    for block in blocks:
        if not isinstance(block, list):
            raise bad
        try:
            arr = np.asarray(block)
        except ValueError:  # ragged nesting
            raise bad from None
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iuf"):
            raise bad
        arr = arr.astype(np.float64, copy=False)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"malformed embedding payload: images of {label!r} are not all finite")
        arrays.append(arr)
    return arrays


def _threshold(value) -> float:
    """A schedule entry's S: null for a saturated level, else a finite positive number."""
    s_n = math.inf if value is None else float(value)
    if value is not None and not 0 < s_n < math.inf:
        raise ValueError(f"schedule S must be null or a finite positive number, got {value!r}")
    return s_n


def embedding_from_json(payload: dict, space: FiniteMetricSpace) -> CoarseEmbedding:
    """Reattach a serialized embedding to its space: image-less levels plus the blocks read."""
    try:
        pe = as_exponent(float(payload["p"]))
        base = payload["base"]
        if isinstance(base, bool) or not isinstance(base, int):
            raise ValueError(f"base must be an integer point index, got {base!r}")
        delta = float(payload["delta"])
        levels = tuple(
            SphereMapLevel(
                level_n=int(s["n"]),
                exponent=pe,
                epsilon_n=float(s["eps"]),
                s_n=_threshold(s["S"]),
                bandwidth_t=float(s["t"]),
                kernel_kind=str(s["kernel"]),
            )
            for s in payload["schedule"]
        )
        images = payload["images"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed embedding payload: {exc}") from exc
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
    return CoarseEmbedding(
        family=SphereMapFamily(levels=levels, exponent=pe, delta=delta, space=space),
        base_index=base,
        loaded_blocks=tuple(np.vstack(level) for level in zip(*per_point)),
    )


def save_embedding(embedding: CoarseEmbedding, path) -> None:
    Path(path).write_text(json.dumps(embedding_to_json(embedding)) + "\n", encoding="utf-8")


def load_embedding(path, space: FiniteMetricSpace) -> CoarseEmbedding:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return embedding_from_json(payload, space)
