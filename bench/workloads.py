"""The benchmark's three workloads, each a closed loop with one op in flight.

cloud-frac    gaussian clouds at p = 1.3: build, verify and profile in process.
graph-ladder  graph metrics of growing size at five exponents: build and verify.
cli-cube      one CLI session on hypercube(8), every command its own process.

A workload sets itself up (inputs plus one warm-up), names the ops of an
untimed-length run (`batches`) and of a traced run (`traced_specs`), runs one
op, and checks one op's outputs independently of the program's own verifier.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from lpembed import coarse_embedder, distortion_report, kernel_sphere_maps, metric_spaces

# documented refusals: build_embedding may raise these instead of returning
REFUSALS = (kernel_sphere_maps.CalibrationError, kernel_sphere_maps.NotNegativeType)
CERTIFIED = "certified"
VIOLATIONS = "violations"

# pairs per op re-measured by the independent envelope check
CHECK_PAIRS = 256
# absolute tolerance of the program's verifier on p-th powers, plus room for
# a different summation order in the independent re-measurement
CHECK_TOL = 1e-9
CHECK_REL = 1e-12

# one CLI command may not outlive this; a hung command aborts the run
CLI_TIMEOUT_S = 150


@dataclass
class Record:
    """What one op did: its timings, outcome and output digests."""

    spec: object
    seconds: float
    certify_s: float
    profile_s: Optional[float]
    outcome: str
    digests: dict
    artifacts: dict = field(default_factory=dict, repr=False)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def embedding_digest(embedding) -> str:
    """sha256 over the exact content of an embedding: parameters, schedule, image bits."""
    head = repr((embedding.exponent.value, embedding.base_index, embedding.delta, embedding.schedule))
    return sha256(head.encode() + embedding.image_matrix.tobytes())


def envelope_problems(images, dist, p, delta, thresholds, rng) -> tuple:
    """Re-measure sampled pairs from the raw images against rho1/rho2.

    Returns (problems, (d, image_distance)) for the sampled pairs, so the
    caller can also check a profile against them.
    """
    n = images.shape[0]
    i = rng.integers(0, n, CHECK_PAIRS)
    j = rng.integers(0, n, CHECK_PAIRS)
    keep = i != j
    i, j = i[keep], j[keep]
    image_p = (np.abs(images[i] - images[j]) ** p).sum(axis=1)
    d = dist[i, j]
    upper = 2.0 ** p * d ** p + 1.0
    lower = np.searchsorted(np.sort(np.asarray(thresholds, dtype=np.float64)), d, side="right") * (delta / 2.0) ** p
    slack = CHECK_TOL + CHECK_REL * upper
    bad = np.nonzero((image_p > upper + slack) | (image_p < lower - slack))[0]
    problems = [
        f"pair ({i[k]}, {j[k]}) at d={float(d[k])!r}: image^p {float(image_p[k])!r} "
        f"outside [{float(lower[k])!r}, {float(upper[k])!r}]"
        for k in bad[:5]
    ]
    return problems, (d, image_p ** (1.0 / p))


def profile_problems(buckets, diameter, n, sampled) -> list:
    """A profile must count every pair once and bracket every sampled pair's image distance.

    `buckets` is a list of (emp_min, emp_max, pair_count).
    """
    problems = []
    counted = sum(b[2] for b in buckets)
    if counted != n * (n - 1) // 2:
        problems.append(f"profile counts {counted} pairs, expected {n * (n - 1) // 2}")
    d, image_d = sampled
    count = len(buckets)
    for dk, ik in zip(d, image_d):
        lo, hi, _ = buckets[min(int(dk * count / diameter), count - 1)]
        slack = 1e-9 * max(1.0, ik)
        if lo is None or not lo - slack <= ik <= hi + slack:
            problems.append(f"image distance {float(ik)!r} at d={float(dk)!r} outside its bucket [{lo!r}, {hi!r}]")
            break
    return problems


def _thresholds(embedding) -> list:
    return [s.s_n for s in embedding.schedule if math.isfinite(s.s_n)]


class CloudFrac:
    """Gaussian clouds, one per op, at the fractional exponent p = 1.3.

    Most of the time goes to the all-pairs l_p scan on its log/exp path, in
    calibration and in the three report scans (one in verify, two in profile).
    """

    name = "cloud-frac"
    POINTS, DIM, P, BUCKETS = 160, 8, 1.3, 16
    POOL = 64
    TRACED_OPS, REPLAY_OPS = 16, 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.spaces: list = []

    def _space(self, k: int):
        return metric_spaces.generate("gaussian", self.POINTS, seed=self.seed * 1000 + k, dim=self.DIM)

    def set_up(self) -> None:
        self.spaces = [self._space(k) for k in range(self.POOL)]
        warm = coarse_embedder.build_embedding(
            metric_spaces.generate("gaussian", 48, seed=self.seed, dim=self.DIM), p=self.P
        )
        distortion_report.verify_bounds(warm)
        distortion_report.empirical_profile(warm, self.BUCKETS)

    def close(self) -> None:
        pass

    def batches(self):
        for k in itertools.count():
            yield [k]

    def traced_specs(self) -> list:
        return list(range(self.TRACED_OPS))

    def run(self, k: int, tracer) -> Record:
        while k >= len(self.spaces):
            self.spaces.append(self._space(len(self.spaces)))
        space = self.spaces[k]
        t0 = time.perf_counter()
        embedding = coarse_embedder.build_embedding(space, p=self.P)
        violations = distortion_report.verify_bounds(embedding)
        t1 = time.perf_counter()
        profile = distortion_report.empirical_profile(embedding, self.BUCKETS)
        t2 = time.perf_counter()
        return Record(
            spec=k,
            seconds=t2 - t0,
            certify_s=t1 - t0,
            profile_s=t2 - t1,
            outcome=VIOLATIONS if violations or profile.violations else CERTIFIED,
            digests={
                "embedding": embedding_digest(embedding),
                "profile_csv": sha256(distortion_report.export(profile, "csv")),
            },
            artifacts={"embedding": embedding, "profile": profile},
        )

    def check(self, record: Record) -> list:
        embedding, profile = record.artifacts.pop("embedding"), record.artifacts.pop("profile")
        if record.outcome != CERTIFIED:
            return [f"space {record.spec}: the program reports envelope violations"]
        space = embedding.space
        problems, sampled = envelope_problems(
            embedding.image_matrix, space.dist, self.P, embedding.delta, _thresholds(embedding),
            np.random.default_rng([self.seed, record.spec]),
        )
        buckets = [(b.emp_min, b.emp_max, b.pair_count) for b in profile.buckets]
        problems += profile_problems(buckets, space.diameter(), space.n, sampled)
        return [f"space {record.spec}: {p}" for p in problems]


class GraphLadder:
    """Cycles, paths and hypercubes of growing size, each at five exponents.

    Many small spaces with many levels: per-call overhead of the calibration
    search and of the row loop in the scan, on the p = 1, integer,
    half-integer and fractional exponent paths. Some ops end in a documented
    CalibrationError; they are counted by class, never filtered out.
    """

    name = "graph-ladder"
    SPACES = (
        [("cycle", n) for n in range(8, 81, 8)]
        + [("path", n) for n in range(6, 61, 6)]
        + [("hypercube", k) for k in range(3, 8)]
    )
    EXPONENTS = (1.0, 1.3, 1.5, 2.0, 3.0)
    REPLAY_OPS = 40

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.spaces: dict = {}
        self.grid = [(kind, param, p) for kind, param in self.SPACES for p in self.EXPONENTS]

    def set_up(self) -> None:
        self.spaces = {(kind, param): metric_spaces.generate(kind, param) for kind, param in self.SPACES}
        for p in self.EXPONENTS:
            distortion_report.verify_bounds(coarse_embedder.build_embedding(self.spaces[("hypercube", 3)], p=p))

    def close(self) -> None:
        pass

    def _pass(self, number: int) -> list:
        order = np.random.default_rng([self.seed, number]).permutation(len(self.grid))
        return [self.grid[i] for i in order]

    def batches(self):
        for number in itertools.count():
            yield self._pass(number)

    def traced_specs(self) -> list:
        return self._pass(0)

    def run(self, spec, tracer) -> Record:
        kind, param, p = spec
        space = self.spaces[(kind, param)]
        t0 = time.perf_counter()
        try:
            embedding = coarse_embedder.build_embedding(space, p=p)
            violations = distortion_report.verify_bounds(embedding)
        except REFUSALS as exc:
            seconds = time.perf_counter() - t0
            outcome = type(exc).__name__
            return Record(spec, seconds, seconds, None, outcome, {"refusal": sha256(f"{outcome}: {exc}".encode())})
        seconds = time.perf_counter() - t0
        return Record(
            spec, seconds, seconds, None,
            VIOLATIONS if violations else CERTIFIED,
            {"embedding": embedding_digest(embedding)},
            {"embedding": embedding},
        )

    def check(self, record: Record) -> list:
        embedding = record.artifacts.pop("embedding", None)
        if record.outcome != CERTIFIED:
            return []
        kind, param, p = record.spec
        problems, _ = envelope_problems(
            embedding.image_matrix, embedding.space.dist, p, embedding.delta, _thresholds(embedding),
            np.random.default_rng([self.seed, self.grid.index(record.spec)]),
        )
        return [f"{kind}({param}) p={p}: certified, but {pr}" for pr in problems]


class CliCube:
    """One CLI session per op on hypercube(8), every command a separate process.

    Runs the JSON layer both ways (a 12 MB embedding is written, then reloaded
    by `report`, which has no in-memory level family), pays process start-up,
    and validates the metric four times per session. p = 2 skips Mazur
    transport in calibration; `check-mazur` exercises it on its own.
    """

    name = "cli-cube"
    CUBE, BUCKETS = 8, 16
    MAZUR = ("--p", "2", "--q", "1.3", "--dim", "64", "--samples", "100000")
    TRACED_OPS, REPLAY_OPS = 5, 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir / f"cli-cube-{seed}-{os.getpid()}"
        self.launcher = Path(__file__).resolve().parent / "launcher.py"

    def set_up(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        for argv in (
            ("gen", "--kind", "hypercube", "--param", "3", "--out", "warm.json"),
            ("embed", "--space", "warm.json", "--p", "2", "--out", "warm-e.json"),
        ):
            proc = self._cli(argv, None)
            if proc.returncode != 0:
                raise RuntimeError(f"warm-up {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def batches(self):
        for k in itertools.count():
            yield [k]

    def traced_specs(self) -> list:
        return list(range(self.TRACED_OPS))

    def steps(self, k: int) -> list:
        key = self.seed * 1000 + k
        return [
            ("gen", "--kind", "hypercube", "--param", str(self.CUBE), "--out", "s.json"),
            ("validate", "--space", "s.json"),
            ("embed", "--space", "s.json", "--p", "2", "--base", str(key % (1 << self.CUBE)), "--out", "e.json"),
            ("report", "--space", "s.json", "--embedding", "e.json", "--buckets", str(self.BUCKETS),
             "--csv", "p.csv", "--json", "p.json"),
            ("check-mazur", *self.MAZUR, "--seed", str(key)),
        ]

    def _cli(self, argv, spans_out) -> subprocess.CompletedProcess:
        if spans_out is None:
            cmd = [sys.executable, "-m", "lpembed.cli", *argv]
        else:
            cmd = [sys.executable, str(self.launcher), str(spans_out), *argv]
        return subprocess.run(cmd, cwd=self.workdir, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)

    def run(self, k: int, tracer) -> Record:
        for old in self.workdir.glob("*"):
            old.unlink()
        took, outputs = {}, {}
        spans_out = self.workdir / "spans.json"
        for argv in self.steps(k):
            step = argv[0]
            spans_out.unlink(missing_ok=True)
            span = tracer.begin(f"cli.{step}") if tracer else None
            t0 = time.perf_counter()
            proc = self._cli(argv, spans_out if tracer else None)
            took[step] = time.perf_counter() - t0
            if tracer:
                tracer.end(span)
                tracer.adopt(json.loads(spans_out.read_text())["spans"], span)
            outputs[step] = proc
            if proc.returncode != 0:
                break
        seconds = sum(took.values())
        failed = [f"{s} exited {p.returncode}: {p.stderr.strip()[-300:]}" for s, p in outputs.items() if p.returncode]
        digests = {}
        if not failed:
            digests = {
                "embedding": sha256((self.workdir / "e.json").read_bytes()),
                "profile_csv": sha256((self.workdir / "p.csv").read_bytes()),
            }
        return Record(
            spec=k,
            seconds=seconds,
            certify_s=took.get("embed", 0.0) + took.get("report", 0.0),
            profile_s=took.get("report"),
            outcome="cli-exit" if failed else CERTIFIED,
            digests=digests,
            artifacts={"failed": failed, "mazur_out": outputs.get("check-mazur")},
        )

    def check(self, record: Record) -> list:
        failed = record.artifacts.pop("failed")
        mazur = record.artifacts.pop("mazur_out")
        if failed:
            return [f"session {record.spec}: {f}" for f in failed]
        problems = []
        if f"samples={self.MAZUR[-1]}" not in mazur.stdout:
            problems.append(f"check-mazur printed no sample summary: {mazur.stdout.strip()!r}")
        space_json = json.loads((self.workdir / "s.json").read_text())
        emb = json.loads((self.workdir / "e.json").read_text())
        prof = json.loads((self.workdir / "p.json").read_text())
        labels = space_json["labels"]
        dist = np.asarray(space_json["dist"], dtype=np.float64)
        images = np.vstack([np.concatenate([np.asarray(b) for b in emb["images"][label]]) for label in labels])
        thresholds = [s["S"] for s in emb["schedule"] if s["S"] is not None]
        found, sampled = envelope_problems(
            images, dist, float(emb["p"]), float(emb["delta"]), thresholds,
            np.random.default_rng([self.seed, record.spec]),
        )
        problems += found
        if prof["violations"]:
            problems.append(f"report lists {len(prof['violations'])} envelope violations")
        buckets = [(b["emp_min"], b["emp_max"], b["pair_count"]) for b in prof["buckets"]]
        problems += profile_problems(buckets, float(dist.max()), len(labels), sampled)
        csv_rows = (self.workdir / "p.csv").read_text().splitlines()
        if len(csv_rows) != self.BUCKETS + 1:
            problems.append(f"profile CSV has {len(csv_rows)} lines, expected {self.BUCKETS + 1}")
        return [f"session {record.spec}: {p}" for p in problems]


WORKLOADS = {w.name: w for w in (CloudFrac, GraphLadder, CliCube)}
