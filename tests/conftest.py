"""Shared test helpers: the extended-precision l_p oracle and the embeddings
that the certification-path comparisons share."""

import mpmath
import pytest

from lpembed.coarse_embedder import build_embedding
from lpembed.metric_spaces import generate


def mp_pnorm(row, p) -> float:
    """(sum_i |x_i|^p)^(1/p) of a float row, summed with mpmath.fsum at 50 digits."""
    with mpmath.workdps(50):
        total = mpmath.fsum(abs(mpmath.mpf(float(x))) ** p for x in row)
        return float(total ** (1 / mpmath.mpf(p)))


BUILDS = {
    "hc4_p1": (("hypercube", 4), 1.0, {}),
    "path40_p1": (("path", 40), 1.0, {"level_count": 5}),
    "gauss60_p1.3": (("gaussian", 60), 1.3, {}),
    "gauss60_p3": (("gaussian", 60), 3.0, {}),
}


@pytest.fixture(scope="session", params=sorted(BUILDS))
def built_embedding(request):
    """An in-memory build, which carries its level family.

    Graph metrics at p = 1 and a Euclidean cloud on the fractional (log/exp)
    and integer power paths.
    """
    (kind, param), p, kwargs = BUILDS[request.param]
    space = generate(kind, param, seed=5) if kind == "gaussian" else generate(kind, param)
    return build_embedding(space, p=p, **kwargs)
