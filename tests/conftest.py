"""Shared test helpers: the extended-precision l_p oracle, the level
verifier, and the embeddings that the certification-path comparisons share."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume

from lpembed import kernel_sphere_maps
from lpembed.coarse_embedder import build_embedding
from lpembed.kernel_sphere_maps import EIG_REL_TOL
from lpembed.lp_core import abs_power, pairwise_pnorm_all, row_pnorms
from lpembed.metric_spaces import generate

# how far verify_levels lets an image row's norm stray from 1
UNIT_TOL = 1e-9

# the benchmark's graph-ladder grid: 125 (kind, param, p) specs
LADDER_SPECS = [
    (kind, param, p)
    for kind, params in (("cycle", range(8, 81, 8)), ("path", range(6, 61, 6)), ("hypercube", range(3, 8)))
    for param in params
    for p in (1.0, 1.3, 1.5, 2.0, 3.0)
]


def mp_pnorm(row, p) -> float:
    """(sum_i |x_i|^p)^(1/p) of a float row, summed with mpmath.fsum at 50 digits."""
    with mpmath.workdps(50):
        total = mpmath.fsum(abs(mpmath.mpf(float(x))) ** p for x in row)
        return float(total ** (1 / mpmath.mpf(p)))


def verify_levels(levels, space, p, delta) -> list:
    """Re-measure every level's certificates and epsilon_n <= 2^-n at p; human-readable problems.

    The oracle the unit tests hold calibration to: it reads only each
    level's images and certificates. Level n is the n-th of levels. Each level's images are scanned once, and the sup over
    d <= n, the inf over d >= S_n (at separation delta/2) and the largest
    image distance (at most 2 on the unit sphere) all come from that scan.
    Levels read back from JSON carry their images too, and are measured
    alike.
    """
    delta_half = delta / 2.0
    problems = []
    prev_s = 0.0
    ii, jj = space.pair_indices()
    d = space.dist[ii, jj]
    for n, level in enumerate(levels, 1):
        worst = float(np.abs(row_pnorms(level.images, p) - 1.0).max())
        if worst > UNIT_TOL:
            problems.append(f"level {n}: image off unit sphere by {worst:.3e}")
        pair_d = pairwise_pnorm_all(level.images, p)
        sup_close = float(pair_d.max(where=d <= n, initial=0.0))
        inf_far = float(pair_d.min(where=d >= level.s_n, initial=math.inf))
        if sup_close > level.epsilon_n:
            problems.append(f"level {n}: measured sup {sup_close!r} exceeds certificate {level.epsilon_n!r}")
        if inf_far < delta_half:
            problems.append(f"level {n}: measured inf {inf_far!r} below certificate {delta_half!r}")
        if level.epsilon_n > 2.0 ** (-n):
            problems.append(f"level {n}: epsilon {level.epsilon_n!r} above 2^-{n}")
        if not level.saturated:
            if level.s_n <= prev_s:
                problems.append(f"level {n}: S_n {level.s_n!r} not above previous {prev_s!r}")
            prev_s = level.s_n
        top = float(pair_d.max(initial=0.0))
        if top > 2.0 + 1e-9:
            problems.append(f"level {n}: image distance {top!r} above 2")
    return problems


def without_separation_end(build, *args, **kwargs):
    """build(*args, **kwargs) with calibration's separation end switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_sphere_maps, "_separates_nothing", lambda *rule_args: False)
        return build(*args, **kwargs)


def level_power_sums(levels, p):
    """sum_n abs_power(pairwise_pnorm_all(images_n, p), p), added in level order, as an embedding sums its pairs.

    A build and a reload alike measure each level on its own images, so
    neither reads the base point.
    """
    pv = float(p)
    n_points = levels[0].images.shape[0]
    sums = np.zeros(n_points * (n_points - 1) // 2)
    for level in levels:
        sums += abs_power(pairwise_pnorm_all(level.images, pv), pv)
    return sums


def negative_type_margin(dist, beta) -> float:
    """lambda_min(G) / (EIG_REL_TOL * trace(G) / (n - 1)) by eigvalsh; inf for one point.

    G = (F_i0 + F_j0 - F_ij) / 2 over the points i, j >= 1, with F = d^beta,
    is positive semidefinite exactly when d^beta is of negative type. The
    kernel choice admits beta where this margin is above -1.
    """
    if len(dist) < 2:
        return math.inf
    F = np.asarray(dist) ** beta
    G = 0.5 * (F[1:, :1] + F[:1, 1:] - F[1:, 1:])
    return float(np.linalg.eigvalsh(G)[0]) / (EIG_REL_TOL * np.trace(G) / len(G))


def reference_kernel(dist):
    """The beta build_embedding should take by eigvalsh: 2, 1, or None (neither).

    Inside a hypothesis test only: a space whose margin lies within a factor
    2 of the tolerance, where roundoff may decide, is skipped.
    """
    for beta in (2.0, 1.0):
        margin = negative_type_margin(dist, beta)
        assume(not -2.0 < margin < -0.5)
        if margin > -1.0:
            return beta
    return None


def saving_peak(save, obj, path) -> int:
    """The peak bytes that save(obj, path) allocates, as tracemalloc traces them."""
    tracemalloc.start()
    try:
        save(obj, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


BUILDS = {
    "hc4_p1": (("hypercube", 4), 1.0, {}),
    "path40_p1": (("path", 40), 1.0, {"level_count": 5}),
    "gauss60_p1.3": (("gaussian", 60), 1.3, {}),
    "gauss60_p3": (("gaussian", 60), 3.0, {}),
}


@pytest.fixture(scope="session", params=sorted(BUILDS))
def built_embedding(request):
    """An in-memory build, whose levels carry their images.

    Graph metrics at p = 1 and a Euclidean cloud on the fractional (log/exp)
    and integer power paths.
    """
    (kind, param), p, kwargs = BUILDS[request.param]
    space = generate(kind, param, seed=5) if kind == "gaussian" else generate(kind, param)
    return build_embedding(space, p=p, **kwargs)
