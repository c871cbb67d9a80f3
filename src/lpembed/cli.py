"""Batch CLI: generate spaces, build embeddings, report distortion, check Mazur bounds.

Exit codes: 0 success with zero violations, 1 completed but violations or
inequality failures were found, 2 input/usage error, 3 construction error
(calibration failure, or distances that are not of negative type). All randomness
flows through explicit --seed flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .coarse_embedder import (
    build_embedding,
    load_embedding,
    save_embedding,
    tail_bound,
)
from .distortion_report import empirical_profile, export
from .kernel_sphere_maps import CalibrationError, NotNegativeType
from .metric_spaces import GENERATOR_KINDS, generate, load_space, load_space_lenient, save_space, validate

RATIO_TOL = 1e-12


def _cmd_gen(args) -> int:
    space = generate(args.kind, args.param, seed=args.seed, dim=args.dim)
    save_space(space, args.out)
    print(f"wrote {args.out}: {space.n} points, diameter {space.diameter():.17g}")
    return 0


def _cmd_validate(args) -> int:
    space = load_space_lenient(args.space)
    report = validate(space)
    print(
        f"{args.space}: {space.n} points, diameter {report.diameter:.17g}, "
        f"min positive distance {report.min_positive:.17g}, "
        f"{len(report.violations)} violations"
    )
    for v in report.violations[:20]:
        print(f"  {v}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_embed(args) -> int:
    # build_embedding checks the axioms its certificate uses, and refuses a
    # space that breaks one with validate's report; the triangle inequality
    # is left to `lpembed validate`
    space = load_space_lenient(args.space)
    embedding = build_embedding(
        space,
        p=args.p,
        level_count=args.levels,
        delta=args.delta,
        base_index=args.base,
    )
    save_embedding(embedding, args.out)
    saturated = sum(1 for level in embedding.schedule if level.saturated)
    print(
        f"wrote {args.out}: p={embedding.exponent.value:g}, "
        f"{embedding.level_count} levels ({saturated} saturated), "
        f"tail bound {tail_bound(embedding):.6g}"
    )
    return 0


def _cmd_report(args) -> int:
    space = load_space(args.space)
    embedding = load_embedding(args.embedding, space)
    profile = empirical_profile(embedding, args.buckets)
    if args.csv:
        Path(args.csv).write_bytes(export(profile, "csv"))
    if args.json:
        Path(args.json).write_bytes(export(profile, "json"))
    n_viol = profile.violation_count
    delta, p = embedding.delta, embedding.exponent.value
    print(
        f"{args.embedding}: {n_viol} envelope violations "
        f"({profile.marginal_count} marginal), {args.buckets} buckets"
    )
    print(
        f"  rho1(d) = ({delta:g}/2) * m(d)^(1/{p:g}) with m(d) = #{{S_n <= d}} "
        f"(derived lower envelope; the coarser textbook form delta * k^(1/p) "
        f"over [S_(k-1), S_k) overstates the certified mass)"
    )
    print(f"  rho2(d) = (2^{p:g} * d^{p:g} + 1)^(1/{p:g})")
    for v in profile.violations[:20]:
        print(f"  {v.side}: pair {v.pair} measured^p {v.measured!r} vs bound {v.bound!r}", file=sys.stderr)
    return 1 if n_viol else 0


def _cmd_check_mazur(args) -> int:
    from .mazur import sample_ratio_extremes

    sample = sample_ratio_extremes(args.p, args.q, args.dim, args.samples, args.seed)
    print(
        f"check-mazur p={sample.p:g} q={sample.q:g} dim={sample.dim} "
        f"samples={sample.pairs} seed={sample.seed}: "
        f"worst lower excess {sample.max_lower_excess:.6e}, "
        f"worst upper excess {sample.max_upper_excess:.6e}, "
        f"max C-ratio {sample.max_constant_ratio:.12g} vs C = {sample.constant_c:.12g}"
    )
    ok = (
        sample.max_lower_excess <= RATIO_TOL
        and sample.max_upper_excess <= RATIO_TOL
        and sample.max_constant_ratio <= sample.constant_c + RATIO_TOL
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpembed",
        description="Coarse embeddings of finite metric spaces into lp with certified envelopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a stock metric space as JSON")
    gen.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    gen.add_argument("--param", required=True, type=int, help="size parameter (points or cube dimension)")
    gen.add_argument("--seed", type=int, default=None, help="required for gaussian spaces")
    gen.add_argument("--dim", type=int, default=8, help="ambient dimension for gaussian spaces")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    val = sub.add_parser("validate", help="check the metric axioms of a space file")
    val.add_argument("--space", required=True)
    val.set_defaults(func=_cmd_validate)

    emb = sub.add_parser("embed", help="build a certified embedding of a space into lp")
    emb.add_argument("--space", required=True)
    emb.add_argument("--p", required=True, type=float, help="target exponent, decimals allowed (e.g. 1.5)")
    emb.add_argument("--levels", type=int, default=None, help="level count (default ceil(diam)+2)")
    emb.add_argument("--delta", type=float, default=1.0)
    emb.add_argument("--base", type=int, default=0)
    emb.add_argument("--out", required=True)
    emb.set_defaults(func=_cmd_embed)

    rep = sub.add_parser("report", help="distortion profile and envelope verification")
    rep.add_argument("--space", required=True)
    rep.add_argument("--embedding", required=True)
    rep.add_argument("--buckets", type=int, default=16)
    rep.add_argument("--csv", default=None)
    rep.add_argument("--json", default=None)
    rep.set_defaults(func=_cmd_report)

    chk = sub.add_parser("check-mazur", help="sampled validation of the Mazur distance envelopes")
    chk.add_argument("--p", required=True, type=float)
    chk.add_argument("--q", required=True, type=float)
    chk.add_argument("--dim", type=int, default=64)
    chk.add_argument("--samples", type=int, default=1000)
    chk.add_argument("--seed", type=int, default=0)
    chk.set_defaults(func=_cmd_check_mazur)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        code = exc.code
        return 2 if code not in (0, None) else int(code or 0)
    try:
        return args.func(args)
    except (CalibrationError, NotNegativeType) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
