"""Command-line interface.

Exit codes: 0 success, 2 search exhausted/budget hit, 3 verification
or construction failure, 4 bad usage or unreadable input.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys

import numpy as np

from . import __version__
from .advection import (build_problem, certify_stable, certify_timestep,
                        run_convergence)
from .archive import (ArchiveError, canonical_json, load_rule, rule_to_dict,
                      save_operator, save_rule)
from .operators import SBPConstructionError, build_operator, verify_operator
from .search import RuleValidationError, validate_rule
from .signatures import FACET_FAMILIES, check_request, find_rule

EXIT_OK = 0
EXIT_SEARCH = 2
EXIT_VERIFY = 3
EXIT_USAGE = 4

_DEFAULT_C = {2: (1.25, np.sqrt(7.0) / 4.0),
              3: (1.5, 0.5, 1.0 / np.sqrt(2.0))}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_budget(text: str) -> float:
    text = text.strip().lower()
    scale = 1.0
    if text.endswith("h"):
        scale, text = 3600.0, text[:-1]
    elif text.endswith("m"):
        scale, text = 60.0, text[:-1]
    elif text.endswith("s"):
        text = text[:-1]
    try:
        value = float(text) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad duration: {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            "duration must be positive and finite")
    return value


def _int_at_least(least: int, what: str):
    """argparse type: an integer no smaller than least."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what}: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(
                f"{what} must be at least {least}, not {value}")
        return value
    return parse


_parse_cells = _int_at_least(2, "cells per direction")
_parse_degree = _int_at_least(1, "operator degree")


def _parse_meshes(text: str) -> list[int]:
    meshes = [_parse_cells(t) for t in text.split(",") if t]
    if len(meshes) < 2 or any(a >= b for a, b in zip(meshes, meshes[1:])):
        raise argparse.ArgumentTypeError(
            "need two or more strictly increasing mesh sizes")
    return meshes


def _parse_finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _parse_positive(text: str) -> float:
    value = _parse_finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def _parse_omega(text: str) -> int:
    try:
        omega = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad wavenumber: {text!r}")
    if omega <= 0 or omega % 2:
        raise argparse.ArgumentTypeError(
            "omega must be a positive even integer")
    return omega


def _parse_velocity(text: str) -> list[float]:
    return [_parse_finite(t) for t in text.split(",")]


def _load(path: str):
    try:
        return load_rule(path)
    except (OSError, ArchiveError) as exc:
        print(f"cannot load rule: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except RuleValidationError as exc:
        print(f"archived rule invalid: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VERIFY)


def _load_operator(args):
    """SBP operator of degree args.p on the rule in args.rule; exits with
    EXIT_VERIFY when the rule admits none."""
    rule = _load(args.rule)
    try:
        return build_operator(rule, p=args.p)
    except SBPConstructionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VERIFY)


def _cmd_find(args) -> int:
    facet_kind = (FACET_FAMILIES[args.domain][0] if args.facet is None
                  else None if args.facet == "none" else args.facet)
    try:
        check_request(args.domain, args.qv, facet_kind, args.sweeps)
    except ValueError as exc:
        print(f"sbpquad find: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = find_rule(args.domain, args.qv, facet_kind, seed=args.seed,
                       sweeps=args.sweeps, budget_s=args.budget)
    if result.status != "ok":
        solves = [a for a in result.attempts if "error" not in a]
        parts = []
        for stage in ("facet", "volume"):
            tried = [a for a in solves if a["stage"] == stage]
            screened = sum(a["screen"] is not None for a in tried)
            floor = sum(a["reason"] == "floor" for a in tried)
            ended = f", {floor} ended at the floor" if floor else ""
            parts.append(f"{len(tried)} {stage} ({screened} screened"
                         f"{ended})")
        print(f"search {result.status} after {' and '.join(parts)} "
              f"attempt(s), {result.elapsed:.1f}s", file=sys.stderr)
        return EXIT_SEARCH
    rule = result.rule
    print(f"found {rule.domain} rule: degree {rule.qv}, "
          f"{rule.n_nodes} nodes, residual "
          f"{rule.provenance.get('residual_inf', float('nan')):.3e}")
    if args.output:
        save_rule(rule, args.output)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(canonical_json(rule_to_dict(rule)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    rule = _load(args.rule)
    try:
        validate_rule(rule)
    except RuleValidationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"{rule.domain} rule, degree {rule.qv}, {rule.n_nodes} nodes")
    print(f"moment residual   : {rule.residual_inf():.3e}")
    print(f"min weight        : {rule.nodes.weights.min():.6e}")
    if rule.n_nodes >= 2:
        print(f"min node spacing  : {rule.min_spacing():.4f}")
    if rule.facet_rule is not None:
        print(f"facet rule        : degree {rule.facet_rule.qv}, "
              f"{rule.facet_rule.n_nodes} nodes, residual "
              f"{rule.facet_rule.residual_inf():.3e}")
    print("PASS")
    return EXIT_OK


def _cmd_sbp(args) -> int:
    op = _load_operator(args)
    report = verify_operator(op)
    print(report.summary())
    if not report.passed:
        return EXIT_VERIFY
    if args.output:
        save_operator(op, args.output)
        print(f"wrote {args.output}")
    return EXIT_OK


def _velocity(args, dim: int) -> np.ndarray:
    if args.velocity is None:
        return np.asarray(_DEFAULT_C[dim])
    if len(args.velocity) != dim or not any(args.velocity):
        print(f"velocity needs {dim} components, not all 0", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return np.asarray(args.velocity)


def _cmd_converge(args) -> int:
    op = _load_operator(args)
    c = _velocity(args, op.dim)
    result = run_convergence(op, args.meshes, c, t=args.time,
                             omega=args.omega, flux=args.flux)
    print(result.summary())
    if args.output:
        payload = {
            "format": "convergence-study", "schema": 2,
            "p": result.p, "flux": result.flux, "dt_m": result.dt_m,
            "meshes": result.meshes, "errors": result.errors,
            "rates": result.rates, "time": args.time,
            "omega": args.omega, "velocity": c.tolist(),
        }
        with open(args.output, "w") as fh:
            fh.write(canonical_json(payload))
        print(f"wrote {args.output}")
    if args.min_rate is not None and result.rates[-1] < args.min_rate:
        print(f"FAIL: rate {result.rates[-1]:.3f} < {args.min_rate}",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_timestep(args) -> int:
    op = _load_operator(args)
    c = _velocity(args, op.dim)
    cert = certify_timestep(build_problem(op, args.m, c, flux=args.flux),
                            rel_tol=args.rel_tol)
    ok_half, ratio_half = certify_stable(cert.prob, 0.5 * cert.dt,
                                         symbols=cert.symbols)
    # the wavenumber that fails first: the worst at the smallest step ruled out
    j = np.unravel_index(np.argmax(cert.ratios(cert.ruled_out)),
                         (args.m,) * op.dim)
    lam = cert.eigenvalue
    rule_sha256 = hashlib.sha256(
        canonical_json(rule_to_dict(op.rule)).encode()).hexdigest()
    print(f"max stable dt                     : {cert.dt:.6e}")
    print(f"limiting wavenumber j (2 pi j / m): {tuple(map(int, j))}")
    print(f"worst-case energy ratio @dt       : {cert.ratio:.12f}")
    print(f"worst-case energy ratio @dt/2     : {ratio_half:.12f} "
          f"({'nonincreasing' if ok_half else 'INCREASING'}, all data)")
    print(f"RK4 spectral limit                : {cert.limit:.6e}")
    print(f"limiting eigenvalue (re, im)      : ({lam.real:.6e}, "
          f"{lam.imag:.6e}) at j = {cert.wavenumber}")
    print(f"rule sha256                       : {rule_sha256}")
    if args.output:
        payload = {
            "format": "timestep-certificate", "schema": 4,
            "p": op.p, "m": args.m, "flux": args.flux,
            "velocity": c.tolist(), "max_stable_dt": cert.dt,
            "limiting_wavenumber": [int(i) for i in j],
            "energy_ratio_dt": cert.ratio,
            "energy_ratio_half_dt": ratio_half,
            "rk4_spectral_limit": cert.limit,
            "spectral_limit_eigenvalue": [lam.real, lam.imag],
            "spectral_limit_wavenumber": list(cert.wavenumber),
            "rule_sha256": rule_sha256,
        }
        with open(args.output, "w") as fh:
            fh.write(canonical_json(payload))
        print(f"wrote {args.output}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="sbpquad",
                     description="Symmetric simplex quadrature rules and "
                                 "summation-by-parts operators.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_find = sub.add_parser("find", help="search for a volume rule")
    p_find.add_argument("--domain", choices=("tri", "tet"), required=True)
    p_find.add_argument("--qv", type=int, required=True,
                        help="volume exactness degree")
    p_find.add_argument("--facet", choices=("lgl", "lg", "gen", "none"),
                        default=None,
                        help="facet family frozen into the search "
                             "(default: lgl on the tri, gen on the tet)")
    p_find.add_argument("--seed", type=_int_at_least(0, "seed"), default=0)
    p_find.add_argument("--sweeps", type=int, default=5,
                        help="restart sweeps over the candidate layouts")
    p_find.add_argument("--budget", type=_parse_budget, default=None,
                        metavar="DURATION",
                        help="wall-clock cap, e.g. 90s, 10m, 1h")
    p_find.add_argument("-o", "--output", default=None)
    p_find.set_defaults(func=_cmd_find)

    p_ver = sub.add_parser("verify", help="re-validate an archived rule")
    p_ver.add_argument("rule")
    p_ver.set_defaults(func=_cmd_verify)

    p_sbp = sub.add_parser("sbp", help="build and check SBP operators")
    p_sbp.add_argument("rule")
    p_sbp.add_argument("-p", type=_parse_degree, default=None,
                       help="operator degree (default: rule's design p)")
    p_sbp.add_argument("-o", "--output", default=None)
    p_sbp.set_defaults(func=_cmd_sbp)

    p_conv = sub.add_parser("converge",
                            help="advection convergence study")
    p_conv.add_argument("rule")
    p_conv.add_argument("--meshes", type=_parse_meshes,
                        default=[8, 12, 16])
    p_conv.add_argument("--time", type=_parse_positive, default=0.25)
    p_conv.add_argument("--omega", type=_parse_omega, default=2)
    p_conv.add_argument("--flux", choices=("upwind", "central"),
                        default="upwind")
    p_conv.add_argument("--velocity", type=_parse_velocity, default=None,
                        help="comma-separated components")
    p_conv.add_argument("-p", type=_parse_degree, default=None)
    p_conv.add_argument("--min-rate", type=_parse_finite, default=None,
                        help="fail unless the final rate reaches this")
    p_conv.add_argument("-o", "--output", default=None)
    p_conv.set_defaults(func=_cmd_converge)

    p_dt = sub.add_parser("timestep",
                          help="largest energy-stable RK4 timestep")
    p_dt.add_argument("rule")
    p_dt.add_argument("--m", type=_parse_cells, default=4)
    p_dt.add_argument("--flux", choices=("upwind", "central"),
                      default="upwind")
    p_dt.add_argument("--velocity", type=_parse_velocity, default=None)
    p_dt.add_argument("--rel-tol", type=_parse_positive, default=1e-4)
    p_dt.add_argument("-p", type=_parse_degree, default=None)
    p_dt.add_argument("-o", "--output", default=None)
    p_dt.set_defaults(func=_cmd_timestep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
