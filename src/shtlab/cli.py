"""Batch command-line front door.

Commands: profile, constants, cz, opnorm, verify.  Reports are JSON, or CSV
for profile and constants; identical inputs and seed give byte-identical output.
Exit codes: 0 success, 1 checker violation, 2 input error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .czdecomp import cz_decompose, multi_level_decompose, verify_cz_properties, verify_disjointing
from .errors import InputError
from .space import Ball, ball_table, space_profile
from .specio import load_json, parse_phi, parse_space, parse_weight
from .suite import run_suite
from .verify import _sawyer_ordering, opnorm_lower_bound
from .weights import constants_report
from .orlicz import Power, p_conjugate

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shtlab",
        description="weight constants, stopping-time decompositions and "
        "inequality checks on finite quasimetric measure spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, space=True, csv=False):
        if space:
            sp.add_argument("--space", required=True, help="space spec JSON file")
        sp.add_argument("--out", help="report output path (default: stdout)")
        if csv:
            sp.add_argument("--format", choices=["json", "csv"], default="json")

    sp = sub.add_parser("profile", help="structural constants of a space")
    common(sp, csv=True)

    sp = sub.add_parser("constants", help="weight constants for (w, sigma, p, phi)")
    common(sp, csv=True)
    sp.add_argument("--w", required=True, help="weight spec (JSON file)")
    sp.add_argument("--sigma", required=True, help="weight spec (JSON file)")
    sp.add_argument("--p", required=True, help="exponent, or comma list for a sweep")
    sp.add_argument("--phi", help="Young function: power:s, powerlog:s:a, or file")

    sp = sub.add_parser("cz", help="stopping-time decomposition (single or multi level)")
    common(sp)
    sp.add_argument("--f", required=True, help="function vector (JSON file)")
    sp.add_argument("--lambda", dest="lam", type=float, help="level; omit for multi-level mode")
    sp.add_argument("--a", type=float, help="level base override (multi-level mode)")
    sp.add_argument("--allow-small-a", action="store_true",
                    help="accept a below the disjointing requirement (multi-level mode)")

    sp = sub.add_parser("opnorm", help="operator-norm lower-bound search")
    common(sp)
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized behavior")
    sp.add_argument("--w", required=True)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument(
        "--strategies",
        default="indicators",
        help="comma list from indicators,random,coordinate-ascent",
    )

    sp = sub.add_parser("verify", help="run a manifest of suite instances")
    common(sp, space=False)
    sp.add_argument("--manifest", required=True, help="suite manifest JSON file")
    return parser


_PARSER = build_parser()  # parse_args leaves it unchanged, so main reuses it


def _emit(obj, args, csv_rows=None) -> None:
    if csv_rows is not None and args.format == "csv":
        text = "".join(",".join(str(x) for x in row) + "\n" for row in csv_rows)
    else:
        text = json.dumps(obj, indent=2, sort_keys=True, default=_jsonable) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # a directory, a missing parent, no permission
            raise InputError(f"cannot write {args.out} ({exc.strerror or exc})") from exc
    else:
        sys.stdout.write(text)


def _jsonable(x):
    if isinstance(x, Ball):
        return asdict(x)
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)}")


def _cmd_profile(args) -> int:
    space = parse_space(load_json(args.space))
    prof = space_profile(space)
    obj = {"n": space.n, **asdict(prof)}
    rows = [["name", "value"]] + [[k, v] for k, v in sorted(obj.items())]
    _emit(obj, args, csv_rows=rows)
    return 0


def _cmd_constants(args) -> int:
    space = parse_space(load_json(args.space))
    w = parse_weight(args.w, space)
    sigma = parse_weight(args.sigma, space)
    try:
        ps = [float(tok) for tok in str(args.p).split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"malformed --p value {args.p!r}") from exc
    if not ps:
        raise InputError("at least one exponent required in --p")
    reports = []
    for p in ps:
        phi = parse_phi(args.phi) if args.phi else Power(p_conjugate(p))
        reports.append(constants_report(space, w, sigma, p, phi))
    obj = reports[0] if len(reports) == 1 else {"sweep": reports}
    header = ["p", "phi", "ap", "two_weight_ap", "ainfty_fw", "ainfty_exp", "bump_ap", "wp", "sawyer"]
    rows = [header] + [[r[k] for k in header] for r in reports]
    _emit(obj, args, csv_rows=rows)
    return 0


def _ball_json(tbl, r) -> dict:
    """Table row r as a report ball with its members."""
    ball = tbl.ball(r)
    return {"center": ball.center, "radius": ball.radius,
            "members": np.flatnonzero(tbl.member[r]).tolist()}


def _cmd_cz(args) -> int:
    space = parse_space(load_json(args.space))
    f = parse_weight(args.f, space)
    tbl = ball_table(space)
    if args.lam is not None:
        for option, given in (("--a", args.a is not None), ("--allow-small-a", args.allow_small_a)):
            if given:
                raise InputError(f"{option} applies to multi-level mode only (omit --lambda)")
        dec = cz_decompose(space, f, args.lam)
        check = verify_cz_properties(space, dec, f)
        obj = {
            "lambda": dec.level,
            "omega": [int(x) for x in dec.omega],
            "balls": [_ball_json(tbl, r) for r in dec.selected],
            "violations": check["violations"],
            "undilated_exceedances": check["undilated_exceedances"],
        }
    else:
        fam = multi_level_decompose(space, f, args.a, allow_small_a=args.allow_small_a)
        check = verify_disjointing(space, fam)
        obj = {
            "a": fam.a,
            "k0": fam.k0,
            "levels": [
                {
                    "k": e.k,
                    "lambda": e.level,
                    "omega": [int(x) for x in e.omega],
                    "balls": [_ball_json(tbl, r) for r in e.balls],
                    "pruned": [[int(x) for x in m] for m in e.pruned],
                }
                for e in fam.entries
            ],
            "violations": check["violations"],
        }
    _emit(obj, args)
    return 0 if not obj["violations"] else 1


def _cmd_opnorm(args) -> int:
    space = parse_space(load_json(args.space))
    w = parse_weight(args.w, space)
    sigma = parse_weight(args.sigma, space)
    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    rng = np.random.default_rng(args.seed)
    est = opnorm_lower_bound(space, w, sigma, args.p, strategies=strategies, rng=rng)
    sawyer, ordering_ok = _sawyer_ordering(space, w, sigma, args.p, est)
    obj = {
        "value": est.value,
        "witness": [float(x) for x in est.witness],
        "strategies": list(est.strategies),
        "trials": est.trials,
        "sawyer": sawyer,
        "ordering_ok": ordering_ok,
        "seed": args.seed,
    }
    _emit(obj, args)
    return 0 if ordering_ok else 1


def _cmd_verify(args) -> int:
    manifest = load_json(args.manifest)
    if not isinstance(manifest, dict):
        raise InputError("manifest must be a JSON object")
    report, _ = run_suite(manifest)
    _emit(report, args)
    return 0 if report["summary"]["violations"] == 0 else 1


_HANDLERS = {
    "profile": _cmd_profile,
    "constants": _cmd_constants,
    "cz": _cmd_cz,
    "opnorm": _cmd_opnorm,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
