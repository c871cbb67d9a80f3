"""Per-layer metrics of a traced run, derived from its spans.

Every figure is a total over the traced op set (which is fixed per workload
and seed, so counts compare exactly between commits), except ratios and the
`_per_op` / `_per_s` figures. Layers a workload does not reach read 0.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import self_time

# (name, unit, better). BENCHMARK.json's per_layer list mirrors this table.
PER_LAYER = (
    ("lp_core.scan_calib.calls", "count", "lower"),
    ("lp_core.scan_calib.s", "s", "lower"),
    ("lp_core.scan_calib.elems", "count", "lower"),
    ("lp_core.scan_calib.elems_per_s", "1/s", "higher"),
    ("lp_core.scan_report.calls", "count", "lower"),
    ("lp_core.scan_report.s", "s", "lower"),
    ("lp_core.scan_report.elems", "count", "lower"),
    ("distortion_report.pair_scans_per_op", "count", "lower"),
    ("distortion_report.verify.s", "s", "lower"),
    ("distortion_report.profile.s", "s", "lower"),
    ("kernel_sphere_maps.factor.calls", "count", "lower"),
    ("kernel_sphere_maps.factor.s", "s", "lower"),
    ("kernel_sphere_maps.calibrate.calls", "count", "lower"),
    ("kernel_sphere_maps.calibrate.self_s", "s", "lower"),
    ("kernel_sphere_maps.evals_per_level", "count", "lower"),
    ("kernel_sphere_maps.useful_ratio", "ratio", "higher"),
    ("kernel_sphere_maps.errors.CalibrationError", "count", "lower"),
    ("kernel_sphere_maps.errors.NotNegativeType", "count", "lower"),
    ("mazur.transport.calls", "count", "lower"),
    ("mazur.transport.s", "s", "lower"),
    ("mazur.sample.s", "s", "lower"),
    ("mazur.sample.pairs_per_s", "1/s", "higher"),
    ("metric_spaces.validate.calls", "count", "lower"),
    ("metric_spaces.validate.s", "s", "lower"),
    ("metric_spaces.json.load_s", "s", "lower"),
    ("metric_spaces.json.save_s", "s", "lower"),
    ("metric_spaces.json.bytes", "B", "lower"),
    ("coarse_embedder.build.s", "s", "lower"),
    ("coarse_embedder.build.self_s", "s", "lower"),
    ("coarse_embedder.json.load_s", "s", "lower"),
    ("coarse_embedder.json.save_s", "s", "lower"),
    ("coarse_embedder.json.bytes", "B", "lower"),
    ("cli.gen_s", "s", "lower"),
    ("cli.validate_s", "s", "lower"),
    ("cli.embed_s", "s", "lower"),
    ("cli.report_s", "s", "lower"),
    ("cli.check-mazur_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.count_mismatches", "count", "lower"),
)

CALIBRATE = "kernel_sphere_maps.calibrate_level"
IMAGE_SCAN = "coarse_embedder.pairwise_image_power_sums"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _under(span, ancestor_name: str, by_id: dict) -> bool:
    parent = span.parent
    while parent is not None:
        up = by_id[parent]
        if up.name == ancestor_name:
            return True
        parent = up.parent
    return False


def op_counts(spans) -> dict:
    """Per-op work counts that must repeat exactly between two traced runs of one op."""
    by_id = {s.id: s for s in spans}
    counts: dict = defaultdict(lambda: defaultdict(int))
    for s in spans:
        c = counts[s.op]
        if s.name == "kernel_sphere_maps.build_sphere_map":
            c["factor_calls"] += 1
        elif s.name == CALIBRATE:
            c["calibrate_calls"] += 1
        elif s.name == IMAGE_SCAN:
            c["pair_scans"] += 1
        elif s.name == "lp_core.pairwise_pnorm_all" and _under(s, CALIBRATE, by_id):
            c["scan_calib_elems"] += s.attrs["elems"]
        elif s.name == "lp_core.pairwise_power_sums_all":
            c["scan_report_elems"] += s.attrs["elems"]
    return {op: dict(c) for op, c in counts.items()}


def layer_metrics(spans, outcomes) -> dict:
    """All PER_LAYER values except the trace.* entries, from spans and op outcomes."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in named[name])

    def total_self(name: str) -> float:
        return sum(self_time(s, children[s.id]) for s in named[name])

    def total_attr(name: str, key: str) -> int:
        return sum(s.attrs[key] for s in named[name])

    calib_scans = [s for s in named["lp_core.pairwise_pnorm_all"] if _under(s, CALIBRATE, by_id)]
    scan_calib_s = sum(s.duration for s in calib_scans)
    scan_calib_elems = sum(s.attrs["elems"] for s in calib_scans)
    factor_calls = len(named["kernel_sphere_maps.build_sphere_map"])
    levels = named[CALIBRATE]
    levels_ok = sum(1 for s in levels if s.error is None)
    scanning_ops = {s.op for s in named[IMAGE_SCAN]}
    sample_s = total("mazur.sample_ratio_extremes")

    out = {
        "lp_core.scan_calib.calls": len(calib_scans),
        "lp_core.scan_calib.s": scan_calib_s,
        "lp_core.scan_calib.elems": scan_calib_elems,
        "lp_core.scan_calib.elems_per_s": _ratio(scan_calib_elems, scan_calib_s),
        "lp_core.scan_report.calls": len(named["lp_core.pairwise_power_sums_all"]),
        "lp_core.scan_report.s": total("lp_core.pairwise_power_sums_all"),
        "lp_core.scan_report.elems": total_attr("lp_core.pairwise_power_sums_all", "elems"),
        "distortion_report.pair_scans_per_op": _ratio(len(named[IMAGE_SCAN]), len(scanning_ops)),
        "distortion_report.verify.s": total("distortion_report.verify_bounds"),
        "distortion_report.profile.s": total("distortion_report.empirical_profile"),
        "kernel_sphere_maps.factor.calls": factor_calls,
        "kernel_sphere_maps.factor.s": total("kernel_sphere_maps.build_sphere_map"),
        "kernel_sphere_maps.calibrate.calls": len(levels),
        "kernel_sphere_maps.calibrate.self_s": total_self(CALIBRATE),
        "kernel_sphere_maps.evals_per_level": _ratio(factor_calls, len(levels)),
        "kernel_sphere_maps.useful_ratio": _ratio(levels_ok, factor_calls),
        "kernel_sphere_maps.errors.CalibrationError": sum(1 for o in outcomes if o == "CalibrationError"),
        "kernel_sphere_maps.errors.NotNegativeType": sum(1 for o in outcomes if o == "NotNegativeType"),
        "mazur.transport.calls": len(named["mazur.mazur_map_rows"]),
        "mazur.transport.s": total("mazur.mazur_map_rows"),
        "mazur.sample.s": sample_s,
        "mazur.sample.pairs_per_s": _ratio(total_attr("mazur.sample_ratio_extremes", "pairs"), sample_s),
        "metric_spaces.validate.calls": len(named["metric_spaces.validate"]),
        "metric_spaces.validate.s": total("metric_spaces.validate"),
        # load time is JSON parsing only: the validation nested in load_space is its own figure
        "metric_spaces.json.load_s": total_self("metric_spaces.load_space"),
        "metric_spaces.json.save_s": total("metric_spaces.save_space"),
        "metric_spaces.json.bytes": total_attr("metric_spaces.save_space", "bytes"),
        "coarse_embedder.build.s": total("coarse_embedder.build_embedding"),
        "coarse_embedder.build.self_s": total_self("coarse_embedder.build_embedding"),
        "coarse_embedder.json.load_s": total("coarse_embedder.load_embedding"),
        "coarse_embedder.json.save_s": total("coarse_embedder.save_embedding"),
        "coarse_embedder.json.bytes": total_attr("coarse_embedder.save_embedding", "bytes"),
    }
    for step in ("gen", "validate", "embed", "report", "check-mazur"):
        out[f"cli.{step}_s"] = total(f"cli.{step}")
    return out
