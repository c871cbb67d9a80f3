"""lpembed benchmark: time to a certified embedding on three seeded workloads.

usage (from the root of a checkout):

    python3 bench/run.py --workload cloud-frac --seed 1 --seconds 40 --trace 0

Workloads are defined in bench/workloads.py. With --trace 0 the run times ops
for about --seconds (graph-ladder in whole passes of its grid), checks every
output, and prints the end-to-end metrics. With --trace 1 it runs the
workload's fixed traced op set with span wrappers installed (bench/tracing.py),
replays the leading ops untraced and traced again to measure the tracing
overhead and to check that output digests and work counts repeat, and prints
the per-layer metrics (bench/layers.py). Lines starting with '#' are the
human-readable report; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Time metrics are scaled to a reference host speed: the run times a fixed
numpy kernel (bench/reference.py) about once a second between ops and
multiplies times by NOMINAL_S / median(kernel time), because on a shared host
the speed of the same code drifts by tens of percent over minutes. The raw
values are printed as report-only lines.

A run whose outputs fail a check prints "correct": false with no metrics and
exits 1. BLAS runs single-threaded in every process the benchmark starts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER, layer_metrics, op_counts
from tracing import Tracer, wrapped_targets

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
BLAS_THREADS = 1
SETUP_SAMPLES = 7
HOST_SPACING_S = 1.0

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("certify_p50_s", "s"),
    ("certified_per_s", "1/s"),
    ("certified_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("cloud-frac", "graph-ladder", "cli-cube"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def say(line: str) -> None:
    print(f"# {line}", flush=True)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def set_up(workload_cls, seed: int, workdir: Path):
    """Import lpembed in a fresh interpreter, then make the inputs and warm up; timed."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import lpembed"], check=True, timeout=120)
    workload = workload_cls(seed, workdir)
    workload.set_up()
    return workload, time.perf_counter() - t0


def run_ops(workload, batches, seconds, tracer=None, between=None):
    """Run batches of ops until the next batch would end past `seconds` (None: run all).

    `between`, if given, is called after every op, outside the op's timing.
    """
    records, problems = [], []
    start = time.perf_counter()
    for batch in batches:
        t0 = time.perf_counter()
        for spec in batch:
            if tracer is not None:
                tracer.op = len(records)
            record = workload.run(spec, tracer)
            problems += workload.check(record)
            records.append(record)
            if between is not None:
                between()
        now = time.perf_counter()
        if seconds is not None and (now - start) + (now - t0) > seconds:
            break
    return records, problems


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, records, setup_samples, host_samples, nominal_s) -> tuple:
    """The metrics BENCHMARK.json names, plus the report-only figures of this workload.

    Times are scaled to the reference host speed (see reference.py); the raw
    values are reported alongside.
    """
    host = statistics.median(host_samples)
    scale = nominal_s / host
    certified = [r for r in records if r.outcome == "certified"]
    op_s = [r.seconds for r in records]
    certify_s = [r.certify_s for r in records]
    raw = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": statistics.median(op_s),
        "certify_p50_s": statistics.median(certify_s),
        "certified_per_s": len(certified) / sum(op_s),
    }
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "op_p50_s": raw["op_p50_s"] * scale,
        "certify_p50_s": raw["certify_p50_s"] * scale,
        "certified_per_s": raw["certified_per_s"] / scale,
        "certified_share": len(certified) / len(records),
        "peak_rss_mb": peak_rss_mb(children=workload.name == "cli-cube"),
    }
    counts = {"setup_s": len(setup_samples), "peak_rss_mb": 1}
    extra = {"host.kernel_s": (host, "s", len(host_samples)), "host.scale": (scale, "ratio", len(host_samples))}
    for name, value in raw.items():
        extra[f"raw.{name}"] = (value, dict(END_TO_END)[name], counts.get(name, len(records)))
    # a percentile is reported only with at least ten samples beyond it
    if len(certify_s) >= 100:
        extra["certify_p90_s"] = (statistics.quantiles(certify_s, n=10)[-1] * scale, "s", len(certify_s))
    profile_s = [r.profile_s for r in records if r.profile_s is not None]
    if profile_s:
        extra["profile_p50_s"] = (statistics.median(profile_s) * scale, "s", len(profile_s))
    if workload.name == "cli-cube":
        extra["pipeline_s"] = (metrics["op_p50_s"], "s", len(records))
    extra["fail_share"] = (1.0 - metrics["certified_share"], "ratio", len(records))
    for outcome in sorted({r.outcome for r in records} - {"certified"}):
        extra[f"failures.{outcome}"] = (sum(1 for r in records if r.outcome == outcome), "count", len(records))
    return metrics, counts, extra


def result(correct: bool, records, metrics: dict, units: dict) -> dict:
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.outcome == "violations"),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units} if correct else {},
    }


def untraced(workload, first_setup_s, seconds, reference) -> tuple:
    # set-up is sampled again at intervals through the run, so that its median,
    # like the ops', covers the whole run rather than the first seconds of it;
    # the host-speed kernel is timed about once a second for the same reason
    setup_samples = [first_setup_s]
    host_samples = [reference.kernel_seconds()]
    spacing = seconds / SETUP_SAMPLES
    last = last_host = time.perf_counter()

    def sample_setup():
        nonlocal last
        extra, took = set_up(type(workload), workload.seed, WORKDIR / "setup")
        extra.close()
        setup_samples.append(took)
        last = time.perf_counter()

    def between():
        nonlocal last_host
        due = int((time.perf_counter() - last_host) / HOST_SPACING_S)
        if due:
            host_samples.extend(reference.kernel_seconds() for _ in range(due))
            last_host = time.perf_counter()
        if len(setup_samples) < SETUP_SAMPLES and time.perf_counter() - last >= spacing:
            sample_setup()

    records, problems = run_ops(workload, workload.batches(), seconds, between=between)
    while len(setup_samples) < SETUP_SAMPLES:
        sample_setup()
    metrics, counts, extra = end_to_end(workload, records, setup_samples, host_samples, reference.NOMINAL_S)
    for name, unit in END_TO_END:
        say(f"{name:<18} {metrics[name]:>14.6g} {unit:<6} n={counts.get(name, len(records))}")
    for name, (value, unit, n) in extra.items():
        say(f"{name:<18} {value:>14.6g} {unit:<6} n={n}  (report only)")
    say("setup samples " + json.dumps([round(x, 6) for x in setup_samples]))
    ops = [{"op": str(r.spec), "seconds": round(r.seconds, 6), "outcome": r.outcome, **r.digests} for r in records]
    say("digests " + json.dumps(ops))
    return records, problems, metrics, dict(END_TO_END)


def traced(workload) -> tuple:
    def traced_pass(specs):
        tracer = Tracer()
        tracer.install()
        try:
            records, problems = run_ops(workload, [specs], None, tracer)
        finally:
            tracer.uninstall()
        return tracer, records, problems

    specs = workload.traced_specs()
    replay = specs[: workload.REPLAY_OPS]
    tracer, records, problems = traced_pass(specs)
    left = wrapped_targets()
    if left:
        raise RuntimeError(f"wrappers still installed after the traced run: {left}")
    plain, more = run_ops(workload, [replay], None)
    again, rerun, more2 = traced_pass(replay)
    problems += more + more2

    for a, b, c in zip(records, plain, rerun):
        if not a.digests == b.digests == c.digests:
            problems.append(f"op {a.spec}: output digests differ between traced and untraced runs")
    first, second = op_counts(tracer.spans), op_counts(again.spans)
    mismatches = []
    for k in range(len(replay)):
        a, b = first.get(k, {}), second.get(k, {})
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                mismatches.append(f"op {records[k].spec} {name}: {a.get(name)} vs {b.get(name)}")
    for line in mismatches:
        say(f"count does not repeat: {line}")

    plain_s = sum(r.seconds for r in plain)
    overhead = sum(r.seconds for r in rerun) - plain_s
    metrics = layer_metrics(tracer.spans, [r.outcome for r in records])
    metrics.update({
        "trace.ops": len(records),
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / plain_s,
        "trace.count_mismatches": len(mismatches),
    })
    for name, unit, _ in PER_LAYER:
        say(f"{name:<44} {metrics[name]:>14.6g} {unit}")
    say(f"spans {len(tracer.spans)}; replayed {len(replay)} ops untraced in {plain_s:.3f} s")
    WORKDIR.mkdir(exist_ok=True)
    spans_file = WORKDIR / f"spans-{workload.name}-{workload.seed}.json"
    spans_file.write_text(json.dumps({"spans": [s.to_json() for s in tracer.spans]}))
    say(f"spans written to {spans_file.relative_to(ROOT)}")
    return records, problems, metrics, {name: unit for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lpembed" / "__init__.py").is_file():
        print(f"error: no lpembed sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # before numpy is first imported, here or in any process started below
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))
    import lpembed
    from workloads import WORKLOADS

    import reference

    if Path(lpembed.__file__).resolve().parent != SRC / "lpembed":
        print(f"error: imported lpembed from {lpembed.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    say(f"lpembed benchmark: workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    say("environment " + json.dumps(environment(args.seed)))
    workload, first_setup_s = set_up(WORKLOADS[args.workload], args.seed, WORKDIR)
    try:
        if args.trace:
            records, problems, metrics, units = traced(workload)
        else:
            records, problems, metrics, units = untraced(workload, first_setup_s, args.seconds, reference)
    finally:
        workload.close()
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result(not problems, records, metrics, units)), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
