"""Empirical compression/expansion profiles and envelope verification.

A profile buckets all point pairs by source distance and records, per bucket,
the min/max image distance next to the theoretical envelopes rho1/rho2 sampled
at the bucket edges. verify_bounds checks every pair against both envelope
inequalities in the p-th-power domain; violations are data, with a 1e-9
classification tolerance mirroring the build-time tolerances (excesses inside
the tolerance are suppressed and counted as marginal). Like validate's
report, the violation records stop at MAX_VIOLATIONS; a profile counts them
all. export renders a
profile as CSV, or as JSON whose floats are their repr, so json.loads gives
every field back exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coarse_embedder import (
    CoarseEmbedding,
    _envelope_terms,
    pairwise_image_power_sums,
    theoretical_bounds,
)
from .lp_core import _is_index, pth_root
from .metric_spaces import MAX_VIOLATIONS

__all__ = [
    "MAX_BUCKETS",
    "DistortionBucket",
    "BoundViolation",
    "DistortionProfile",
    "empirical_profile",
    "verify_bounds",
    "export",
]

DEFAULT_TOL = 1e-9

# input bound on the bucket count: a profile and its CSV and JSON exports take
# about 0.9 KB per bucket, so about 0.9 GB at this bound
MAX_BUCKETS = 1_000_000


@dataclass(frozen=True)
class DistortionBucket:
    t_lo: float
    t_hi: float
    emp_min: Optional[float]  # None when the bucket holds no pairs
    emp_max: Optional[float]
    pair_count: int


@dataclass(frozen=True)
class BoundViolation:
    """One pair outside an envelope; measured and bound are p-th powers."""

    pair: tuple
    measured: float
    bound: float
    side: str  # 'upper' | 'lower'


@dataclass(frozen=True)
class DistortionProfile:
    buckets: tuple
    edges: tuple
    rho1_theory: tuple  # sampled at the bucket edges (len(buckets) + 1 values)
    rho2_theory: tuple
    violations: tuple  # the first MAX_VIOLATIONS, as verify_bounds lists them
    violation_count: int  # all of them
    marginal_count: int


def _scan_bounds(embedding: CoarseEmbedding, scan: tuple) -> tuple:
    """(violations, violation count, marginal count) of one pairwise_image_power_sums scan.

    The records are the first MAX_VIOLATIONS, upper-envelope pairs before
    lower ones, each side in pair order; the count is all of them. A record
    per violating pair took 245 MB on a tampered 600-point embedding.
    """
    ii, jj, d, psums = scan
    p = embedding.exponent.value
    labels = embedding.space.labels

    m, upper = _envelope_terms(embedding, d)
    lower = m * (embedding.delta / 2.0) ** p

    violations: list = []
    count = marginal = 0
    for side, excess, bound in (("upper", psums - upper, upper), ("lower", lower - psums, lower)):
        marginal += int(np.count_nonzero((excess > 0.0) & (excess <= DEFAULT_TOL)))
        hits = np.nonzero(excess > DEFAULT_TOL)[0]
        count += hits.size
        violations += [
            BoundViolation((labels[ii[k]], labels[jj[k]]), float(psums[k]), float(bound[k]), side)
            for k in hits[:MAX_VIOLATIONS - len(violations)]
        ]
    return violations, count, marginal


def verify_bounds(embedding: CoarseEmbedding) -> list:
    """The first MAX_VIOLATIONS envelope violations beyond DEFAULT_TOL, in the p-th-power domain.

    Empty iff every pair satisfies, with tol = DEFAULT_TOL,
        image^p <= 2^p d^p + 1 + tol   and   image^p >= m(d) (delta/2)^p - tol.
    Upper-envelope pairs come before lower ones; empirical_profile counts
    every violation.
    """
    violations, _, _ = _scan_bounds(embedding, pairwise_image_power_sums(embedding))
    return violations


def empirical_profile(embedding: CoarseEmbedding, bucket_count: int) -> DistortionProfile:
    """Bucket all pairs by source distance over [0, diameter]."""
    if not (_is_index(bucket_count) and 1 <= bucket_count <= MAX_BUCKETS):
        raise ValueError(f"bucket count must be in 1..{MAX_BUCKETS}, got {bucket_count!r}")
    bucket_count = int(bucket_count)
    scan = pairwise_image_power_sums(embedding)
    _, _, d, psums = scan
    image_d = pth_root(psums, embedding.exponent.value)
    diameter = embedding.space.diameter()
    edges = np.linspace(0.0, diameter, bucket_count + 1)

    mins = np.full(bucket_count, math.inf)
    maxs = np.full(bucket_count, -math.inf)
    counts = np.zeros(bucket_count, dtype=np.int64)
    if d.size and diameter > 0:
        # d and the diameter scaled by one power of two, exactly, so that d * bucket_count
        # stays finite up to float64's maximum and every index keeps its value
        k = math.frexp(diameter)[1]
        scaled = np.ldexp(d, -k) * bucket_count / math.ldexp(diameter, -k)
        idx = np.minimum(scaled.astype(np.int64), bucket_count - 1)
        np.minimum.at(mins, idx, image_d)
        np.maximum.at(maxs, idx, image_d)
        np.add.at(counts, idx, 1)

    buckets = tuple(
        DistortionBucket(
            t_lo=float(edges[j]),
            t_hi=float(edges[j + 1]),
            emp_min=float(mins[j]) if counts[j] else None,
            emp_max=float(maxs[j]) if counts[j] else None,
            pair_count=int(counts[j]),
        )
        for j in range(bucket_count)
    )
    rho1, rho2 = theoretical_bounds(embedding, edges)
    violations, count, marginal = _scan_bounds(embedding, scan)
    return DistortionProfile(
        buckets=buckets,
        edges=tuple(float(e) for e in edges),
        rho1_theory=tuple(float(v) for v in rho1),
        rho2_theory=tuple(float(v) for v in rho2),
        violations=tuple(violations),
        violation_count=count,
        marginal_count=marginal,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.17g}"


def export(profile: DistortionProfile, format: str) -> bytes:
    """Render a profile as CSV or JSON bytes.

    CSV columns are exactly t_lo,t_hi,pair_count,emp_min,emp_max,rho1,rho2 with
    rho1 sampled at the bucket's lower edge and rho2 at its upper edge (the
    sandwich orientation); empty buckets leave emp_min/emp_max blank.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t_lo", "t_hi", "pair_count", "emp_min", "emp_max", "rho1", "rho2"])
        for j, b in enumerate(profile.buckets):
            writer.writerow(
                [
                    _fmt(b.t_lo),
                    _fmt(b.t_hi),
                    b.pair_count,
                    _fmt(b.emp_min),
                    _fmt(b.emp_max),
                    _fmt(profile.rho1_theory[j]),
                    _fmt(profile.rho2_theory[j + 1]),
                ]
            )
        return buf.getvalue().encode("utf-8")
    if format == "json":
        payload = {
            "buckets": [
                {
                    "t_lo": b.t_lo,
                    "t_hi": b.t_hi,
                    "emp_min": b.emp_min,
                    "emp_max": b.emp_max,
                    "pair_count": b.pair_count,
                }
                for b in profile.buckets
            ],
            "edges": list(profile.edges),
            "rho1_theory": list(profile.rho1_theory),
            "rho2_theory": list(profile.rho2_theory),
            "violations": [
                {
                    "pair": list(v.pair),
                    "measured": v.measured,
                    "bound": v.bound,
                    "side": v.side,
                }
                for v in profile.violations
            ],
            "violation_count": profile.violation_count,
            "marginal_count": profile.marginal_count,
        }
        return json.dumps(payload).encode("utf-8")
    raise ValueError(f"unknown export format {format!r}; expected 'csv' or 'json'")
