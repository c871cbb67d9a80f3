"""A fixed numpy kernel that measures how fast the host is running right now.

On a shared host the speed of single-threaded numpy code drifts by tens of
percent over minutes as other tenants come and go. The benchmark times this
kernel about once a second between ops and scales its time metrics by
NOMINAL_S / median(kernel time), so that two runs taken at different host
loads compare. The kernel mixes what lpembed spends its time on: an all-pairs
fractional-power row scan (log/exp over a buffer of a few hundred KB), one
symmetric eigendecomposition, and a Python loop around numpy calls. It is
part of the measuring instrument: it does not call lpembed and never changes
when lpembed does.
"""

from __future__ import annotations

import time

import numpy as np

# median kernel time on the host the baseline was taken on (2 vCPU Xeon, one
# BLAS thread); only the ratio to it matters, it keeps scaled values near raw
NOMINAL_S = 0.022

_rng = np.random.default_rng(20041025)
_ROWS = _rng.standard_normal((96, 960))
_POINTS = _rng.standard_normal((96, 8))
_KERNEL = np.exp(-np.sqrt(((_POINTS[:, None, :] - _POINTS[None, :, :]) ** 2).sum(axis=-1)))


def kernel_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(_ROWS.shape[0] - 1):
        buf = _ROWS[i + 1:] - _ROWS[i]
        np.abs(buf, out=buf)
        np.log(buf, out=buf)
        buf *= 1.3
        np.exp(buf, out=buf)
        total += float(buf.sum())
    np.linalg.eigh(_KERNEL)
    elapsed = time.perf_counter() - t0
    if not np.isfinite(total):
        raise RuntimeError("reference kernel produced a non-finite sum")
    return elapsed
