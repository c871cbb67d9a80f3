"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Heavy artifacts (the hypercube(8) and gaussian(200) embedding batteries) are
built once per module and shared; their build time is charged against the
runtime budgets of the criteria that rely on them. Criteria 4 and 5 budget
the process's CPU time, which other load on the host does not inflate.
"""

import json
import math
import time

import numpy as np
import pytest

from lpembed.cli import main as cli_main
from lpembed.coarse_embedder import (
    build_embedding,
    pairwise_image_distances,
    pairwise_image_power_sums,
    tail_bound,
)
from lpembed.distortion_report import verify_bounds
from lpembed.kernel_sphere_maps import measure_conditions
from lpembed.lp_core import abs_power, row_pnorms
from lpembed.mazur import mazur_map_rows, sample_ratio_extremes
from lpembed.metric_spaces import generate

MAZUR_COMBOS = [(1.0, 2.0), (1.5, 2.0), (2.0, 3.0), (1.0, 3.0)]
MAZUR_DIM = 64
MAZUR_PAIRS = 1000
MAZUR_SEED = 2024


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {description}{detail}")
    assert ok, f"criterion {num}: {description}{detail}"


@pytest.fixture(scope="module")
def hypercube8():
    return generate("hypercube", 8)


@pytest.fixture(scope="module")
def gaussian200():
    return generate("gaussian", 200, seed=42)


@pytest.fixture(scope="module")
def hc8_embeddings(hypercube8):
    """Embeddings of hypercube(8) at p in {1, 1.5, 2}, delta=1, default N=10."""
    t0 = time.process_time()
    embeddings = {p: build_embedding(hypercube8, p=p, delta=1.0) for p in (1.0, 1.5, 2.0)}
    return embeddings, time.process_time() - t0


@pytest.fixture(scope="module")
def gauss_embeddings(gaussian200):
    """Embeddings of gaussian(200, seed 42) at p in {1, 1.2, 1.5, 2, 3}."""
    t0 = time.process_time()
    embeddings = {
        p: build_embedding(gaussian200, p=p, delta=1.0) for p in (1.0, 1.2, 1.5, 2.0, 3.0)
    }
    return embeddings, time.process_time() - t0


def seeded_sphere_pairs(p, dim=MAZUR_DIM, pairs=MAZUR_PAIRS, seed=MAZUR_SEED):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((2 * pairs, dim))
    rows /= row_pnorms(rows, p)[:, None]
    return rows


def test_criterion_1_mazur_lower_estimate():
    t0 = time.perf_counter()
    worst = -math.inf
    for p, q in MAZUR_COMBOS:
        sample = sample_ratio_extremes(p, q, MAZUR_DIM, MAZUR_PAIRS, MAZUR_SEED)
        worst = max(worst, sample.max_lower_excess)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(
        1,
        "Mazur lower estimate (p/q)||x-y||_p <= ||M(x)-M(y)||_q",
        ok,
        f" (worst excess {worst:.3e}, {elapsed:.2f}s)",
    )


def test_criterion_2_mazur_upper_estimate_and_constant():
    worst_excess = -math.inf
    worst_margin = math.inf
    for p, q in MAZUR_COMBOS:
        small = sample_ratio_extremes(p, q, MAZUR_DIM, MAZUR_PAIRS, MAZUR_SEED)
        worst_excess = max(worst_excess, small.max_upper_excess)
        big = sample_ratio_extremes(p, q, MAZUR_DIM, 100_000, MAZUR_SEED + 1)
        worst_margin = min(worst_margin, big.constant_c - big.max_constant_ratio)
    ok = worst_excess <= 1e-12 and worst_margin > 0.0
    report(
        2,
        "Mazur upper estimate with C = 2^(1-p/q), C validated over 1e5 pairs",
        ok,
        f" (worst excess {worst_excess:.3e}, min C margin {worst_margin:.4f})",
    )


def test_criterion_3_mazur_round_trip_and_sphere():
    worst_rt = 0.0
    worst_sphere = 0.0
    for p, q in MAZUR_COMBOS:
        rows = seeded_sphere_pairs(p)
        mapped = mazur_map_rows(rows, p, q)
        worst_sphere = max(worst_sphere, float(np.abs(row_pnorms(mapped, q) - 1.0).max()))
        back = mazur_map_rows(mapped, q, p)
        worst_rt = max(worst_rt, float(np.abs(back - rows).max()))
    ok = worst_rt <= 1e-10 and worst_sphere <= 1e-12
    report(
        3,
        "Mazur round trip (1e-10 coordinate-wise) and sphere preservation (1e-12)",
        ok,
        f" (round trip {worst_rt:.3e}, sphere {worst_sphere:.3e})",
    )


def test_criterion_4_sphere_map_conditions(hypercube8, hc8_embeddings):
    embeddings, build_seconds = hc8_embeddings
    failures = []
    for p, embedding in embeddings.items():
        for n, level in enumerate(embedding.schedule, 1):
            sup_close, inf_far = measure_conditions(level.images, hypercube8, n, level.s_n, p)
            if sup_close > 2.0 ** (-n):
                failures.append(f"p={p} n={n} sup {sup_close:.3e}")
            if not level.saturated and inf_far < 0.5:
                failures.append(f"p={p} n={n} inf {inf_far:.3e}")
    ok = not failures and build_seconds < 30.0
    report(
        4,
        "sphere-map conditions on hypercube(8), levels 1..10, p in {1,1.5,2}",
        ok,
        f" (calibration {build_seconds:.1f} CPU s{'; ' + '; '.join(failures) if failures else ''})",
    )


def _upper_bound_violations(embedding):
    _, _, d, psums = pairwise_image_power_sums(embedding)
    p = embedding.exponent.value
    bound = 2.0 ** p * abs_power(d, p) + 1.0
    return int(np.count_nonzero(psums > bound + 1e-9))


def _lower_bound_violations(embedding):
    _, _, d, psums = pairwise_image_power_sums(embedding)
    p = embedding.exponent.value
    m = np.searchsorted(embedding.separation_thresholds(), d, side="right")
    bound = m * (embedding.delta / 2.0) ** p
    return int(np.count_nonzero(psums < bound - 1e-9))


def test_criterion_5_upper_bound(hc8_embeddings, gauss_embeddings):
    hc8, hc8_seconds = hc8_embeddings
    gauss, gauss_seconds = gauss_embeddings
    t0 = time.process_time()
    bad = 0
    for embeddings in (hc8, gauss):
        for p in (1.0, 2.0):
            bad += _upper_bound_violations(embeddings[p])
    scan_seconds = time.process_time() - t0
    # charge the builds of the four embeddings scanned (conservatively: both
    # full batteries) plus the scans against the 60 s budget
    elapsed = scan_seconds + hc8_seconds + gauss_seconds
    ok = bad == 0 and elapsed < 60.0
    report(
        5,
        "upper bound ||Phi(x)-Phi(y)||^p <= 2^p d^p + 1 on hypercube(8) and gaussian(200)",
        ok,
        f" ({bad} violations, {elapsed:.1f} CPU s incl. builds)",
    )


def test_criterion_6_lower_bound(hc8_embeddings, gauss_embeddings):
    hc8, _ = hc8_embeddings
    gauss, _ = gauss_embeddings
    bad = 0
    for embeddings in (hc8, gauss):
        for p in (1.0, 2.0):
            bad += _lower_bound_violations(embeddings[p])
    report(
        6,
        "lower bound ||Phi(x)-Phi(y)||^p >= (k-1)(delta/2)^p for all applicable k",
        bad == 0,
        f" ({bad} violations)",
    )


def test_criterion_7_hilbert_to_every_lp(gauss_embeddings):
    embeddings, _ = gauss_embeddings
    counts = {p: len(verify_bounds(E)) for p, E in embeddings.items()}
    ok = set(counts) == {1.0, 1.2, 1.5, 2.0, 3.0} and all(c == 0 for c in counts.values())
    report(
        7,
        "gaussian(200, seed 42) certified into lp for p in {1, 1.2, 1.5, 2, 3}",
        ok,
        f" (violations per p: {counts})",
    )


def test_criterion_8_base_point_invariance():
    X = generate("hypercube", 6)
    e0 = build_embedding(X, p=1.0, base_index=0)
    e17 = build_embedding(X, p=1.0, base_index=17)
    _, _, _, d0 = pairwise_image_distances(e0)
    _, _, _, d17 = pairwise_image_distances(e17)
    worst = float(np.abs(d0 - d17).max())
    report(
        8,
        "hypercube(6) p=1 pairwise image distances invariant under base 0 -> 17",
        worst <= 1e-12,
        f" (max deviation {worst:.3e})",
    )


def test_criterion_9_forced_violation_detection(tmp_path):
    space_file = tmp_path / "path40.json"
    emb_file = tmp_path / "e.json"
    assert cli_main(["gen", "--kind", "path", "--param", "40", "--out", str(space_file)]) == 0
    assert cli_main([
        "embed", "--space", str(space_file), "--p", "1", "--levels", "5",
        "--delta", "1.0", "--out", str(emb_file),
    ]) == 0
    baseline = json.loads(emb_file.read_text())

    results = {}
    for name, scale in (("scaled", 10.0), ("zeroed", 0.0)):
        payload = json.loads(json.dumps(baseline))
        # the file holds phi_n(x): scale point 39's offset from the base point's
        base = payload["images"][str(baseline["base"])]
        payload["images"]["39"] = [
            [b + scale * (c - b) for c, b in zip(block, base_block)]
            for block, base_block in zip(payload["images"]["39"], base)
        ]
        tampered_file = tmp_path / f"{name}.json"
        tampered_file.write_text(json.dumps(payload))

        from lpembed.metric_spaces import load_space
        from lpembed.coarse_embedder import load_embedding

        tampered = load_embedding(tampered_file, load_space(space_file))
        violations = verify_bounds(tampered)
        exit_code = cli_main([
            "report", "--space", str(space_file), "--embedding", str(tampered_file),
            "--buckets", "4",
        ])
        results[name] = (len(violations), exit_code)

    ok = all(n >= 1 and code == 1 for n, code in results.values())
    report(
        9,
        "tampering fixtures (x10 scaled, zeroed) each yield violations and CLI exit 1",
        ok,
        f" ({results})",
    )


def test_criterion_10_truncation_control(hypercube8, gaussian200, hc8_embeddings, gauss_embeddings):
    hc8, _ = hc8_embeddings
    gauss, _ = gauss_embeddings
    checks = []

    for label, embeddings in (("hypercube8", hc8), ("gaussian200", gauss)):
        for p in (1.0, 2.0):
            tb = tail_bound(embeddings[p])
            checks.append((f"{label} p={p} tail {tb:.2e} < 1e-2", tb < 1e-2))

    # monotone refinement: doubling the level count must change each certified
    # pairwise distance^p by less than the original tail bound
    for label, space, base in (
        ("hypercube8", hypercube8, hc8[1.0]),
        ("gaussian200", gaussian200, gauss[1.0]),
    ):
        refined = build_embedding(space, p=1.0, level_count=2 * base.level_count)
        _, _, _, ps_base = pairwise_image_power_sums(base)
        _, _, _, ps_refined = pairwise_image_power_sums(refined)
        delta_mass = ps_refined - ps_base
        tb = tail_bound(base)
        checks.append((f"{label} refinement max delta {delta_mass.max():.2e} < {tb:.2e}",
                       bool(delta_mass.max() < tb)))
        checks.append((f"{label} refinement monotone", bool(delta_mass.min() >= -1e-12)))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(desc for desc, flag in checks if not flag)
    report(10, "truncation control: tail bounds and monotone refinement", ok,
           f" ({detail})" if detail else "")
