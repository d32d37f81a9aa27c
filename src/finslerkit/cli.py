"""Command-line front end.

    finslerkit tensors  --config run.cfg [--out rows.csv]
    finslerkit audit    --config run.cfg [--seed N] [--out rows.csv]
    finslerkit classify --config run.cfg [--seed N] [--tol X] [--out rows.csv]
    finslerkit geodesic --config run.cfg [--seed N] [--tol X] [--out rows.csv]

Human-readable text goes to stdout, each float as its repr; with --out,
machine-readable comma-separated rows go to the file, written by `csv.writer`
(a field is quoted only when it holds ',', '"' or a newline; columns are
documented in the README and stable for diffing).  Exit status: 0 on PASS
verdicts, 1 on FAIL verdicts, 2 on errors; --seed or --tol given to a command
without that setting is an error.  Identical config and seed produce
byte-identical machine output.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import classify
from .config import OPTIONS, ConfigError, RunConfig, checked, load_config
from .geodesic import minimize
from .metric import validity_check
from .tensors import audit_sweep, bundle_at

# Every library error derives from one of these; each one exits with status 2.
_ERRORS = (ValueError, ArithmeticError, RuntimeError)

# The commands each override applies to: those whose options record has the field.
_APPLIES = {flag: [cmd for cmd, rec in OPTIONS.items() if flag in {f.name for f in fields(rec)}]
            for flag in ("seed", "tol")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finslerkit",
        description="Workbench for (alpha,beta)-metric Finsler spaces.",
    )
    parser.add_argument("command", choices=("tensors", "audit", "classify", "geodesic"))
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"override the seed ({', '.join(_APPLIES['seed'])})")
    parser.add_argument("--out", type=Path, default=None, help="write machine-readable rows here")
    parser.add_argument("--tol", type=float, default=None,
                        help=f"override the tolerance ({', '.join(_APPLIES['tol'])})")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


def _vec(v) -> str:
    return "[" + ", ".join(repr(float(c)) for c in v) + "]"


def _named(**values) -> str:
    return " ".join(f"{name}={float(v)!r}" for name, v in values.items())


def _write_rows(args, header: list[str], rows: list[list], seed) -> None:
    """Comma-separated rows, quoted only where a field holds ',', '"' or a newline;
    floats must be Python floats, which `csv` writes by their repr."""
    if args.out is None:
        return
    with args.out.open("w", newline="") as f:
        if seed is not None:
            f.write(f"# seed={seed}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _with_overrides(options, args):
    """The options record with --seed and --tol applied, each checked as its
    config key is (`main` refuses the ones a command has no field for)."""
    given = {f: getattr(args, f.name) for f in fields(options) if f.name in _APPLIES}
    return replace(options, **{f.name: checked(f.name, v, f.metadata.get("min", -math.inf))
                               for f, v in given.items() if v is not None})


# the conditions of `validity_check`, by ValidityReport field, each before those that
# fail with it (outside the family domain, F is NaN)
_VALIDITY = {"a_pd": "a(x) positive definite", "family_domain": "family domain",
             "F_positive": "F > 0", "fundamental_pd": "g positive definite"}


def _matrix_rows(context: str, quantity: str, m) -> list[list]:
    """One row per entry of a scalar, vector, matrix or 3-tensor; 1-based indices."""
    m = np.asarray(m)
    return [[context, quantity, *(i + 1 for i in idx), *[""] * (3 - len(idx)), float(m[idx])]
            for idx in np.ndindex(m.shape)]


def cmd_tensors(cfg: RunConfig, args) -> int:
    if not cfg.flags:
        raise ConfigError("no [tensors] flag lines in the config")
    all_rows: list[list] = []
    chunks: list[str] = []
    for idx, (x, y, line) in enumerate(cfg.flags):
        ctx = f"flag{idx + 1}"
        valid = validity_check(cfg.space, x, y)
        if not valid.ok:  # a report never shows a flag outside the domain, nor NaN
            failed = next(text for name, text in _VALIDITY.items() if not getattr(valid, name))
            raise ConfigError(f"{ctx} fails the validity check: {failed}", line)
        bundle = bundle_at(cfg.space, x, y)
        fl, ac, mc, rc = bundle.flag, bundle.angular, bundle.metric, bundle.reciprocal
        chunks.append(
            f"[{ctx}] x = {_vec(fl.x)}  y = {_vec(fl.y)}\n"
            f"  alpha = {float(fl.alpha)!r}  beta = {float(fl.beta)!r}  "
            f"F = {float(bundle.phi.F)!r}\n"
            f"  angular coefficients:    {_named(p=ac.p, q0=ac.q0, q1=ac.q1, q2=ac.q2)}\n"
            f"  metric coefficients:     {_named(p=mc.p, p0=mc.p0, p1=mc.p1, p2=mc.p2)}\n"
            f"  reciprocal coefficients: {_named(S0=rc.S0, S1=rc.S1, S2=rc.S2, zeta=rc.zeta)}\n"
            f"  gamma1 = {float(bundle.gamma1)!r}\n"
            f"  g =\n{bundle.g}\n  g_inv =\n{bundle.g_inv}\n  h =\n{bundle.h}\n"
        )
        for name, value in (("alpha", fl.alpha), ("beta", fl.beta), ("F", bundle.phi.F),
                            ("gamma1", bundle.gamma1), ("l", bundle.l), ("m", bundle.m),
                            ("g", bundle.g), ("g_inv", bundle.g_inv), ("h", bundle.h),
                            ("C", bundle.C)):
            all_rows.extend(_matrix_rows(ctx, name, value))
    print("\n".join(chunks))
    _write_rows(args, ["context", "quantity", "i", "j", "k", "value"], all_rows, None)
    return 0


def cmd_audit(cfg: RunConfig, args) -> int:
    report = audit_sweep(cfg.space, _with_overrides(cfg.audit, args))
    lines = [f"formula audit: {report.flags} in-domain flags, seed={report.seed}"]
    rows = []
    for r in sorted(report.rows, key=lambda r: r.check):
        if r.expected_mismatch and not r.passed:
            verdict = "FAIL-known-misprint-informational"
        else:
            verdict = "PASS" if r.passed else "FAIL"
        note = f"  ({r.note})" if r.note else ""
        lines.append(f"  {r.check:28s} max_error={r.error:.3e} tol={r.tol:.1e} {verdict}{note}")
        rows.append([r.check, r.error, r.tol, verdict, r.note])
    ok = report.ok
    lines.append("overall: PASS" if ok else "overall: FAIL")
    print("\n".join(lines))
    _write_rows(args, ["check", "max_error", "tol", "verdict", "note"], rows, report.seed)
    return 0 if ok else 1


def cmd_classify(cfg: RunConfig, args) -> int:
    if cfg.surface is None:
        raise ConfigError("classify needs a [hypersurface] section")
    report = classify(cfg.surface, cfg.space, _with_overrides(cfg.classify_options, args))
    lines = [
        f"classification: {len(report.points)} surface points x {report.directions} "
        f"directions, seed={report.seed}, tol={report.tol:.1e}",
        f"  first kind : {'PASS' if report.first_kind.passed else 'FAIL'} "
        f"(max residual {report.first_kind.residual:.3e})",
        f"  second kind: {'PASS' if report.second_kind.passed else 'FAIL'} "
        f"(max residual {report.second_kind.residual:.3e})",
        f"  third kind : {report.third_kind.verdict.upper()} "
        f"(witness min ||M_ab|| = {report.third_kind.witness:.3e})",
        f"  geometric route: max |H_a| = {report.geo_H_a_max:.3e}, "
        f"max |H_ab| = {report.geo_H_ab_max:.3e} (agrees with the algebraic route)",
    ]
    if report.proportionality_deviation is not None:
        lines.append(
            f"  proportionality of H_ab to h_ab: max deviation "
            f"{report.proportionality_deviation:.3e}"
        )
    residuals = zip(report.first_kind.per_point, report.second_kind.per_point,
                    report.third_kind.per_point)  # the third kind's residual is its witness
    rows = [[i + 1, test, residual, verdict] for i, point in enumerate(residuals)
            for (test, verdict), residual in zip(report.summary, point)]
    print("\n".join(lines))
    _write_rows(args, ["point-index", "test", "residual", "verdict"], rows, report.seed)
    return 0 if (report.first_kind.passed and report.second_kind.passed) else 1


def cmd_geodesic(cfg: RunConfig, args) -> int:
    geo = _with_overrides(cfg.geodesic, args)
    if geo.start is None or geo.end is None:
        raise ConfigError("geodesic needs 'start' and 'end' in [geodesic]")
    result = minimize(cfg.space, geo)
    lines = [
        f"geodesic: {geo.segments} segments, seed={geo.seed}, tol={geo.tol:.1e}",
        f"  length = {result.length!r}",
        f"  gradient max-norm = {result.grad_norm:.3e} after {result.iterations} iterations",
        f"  converged = {result.converged} ({result.message})",
        "  nodes:",
    ]
    lines.extend(f"    {_vec(node)}" for node in result.nodes)
    rows: list[list] = []
    for i, node in enumerate(result.nodes):
        for j, val in enumerate(node):
            rows.append(["geodesic", "node", i + 1, j + 1, "", float(val)])
    for i, length in enumerate(result.trace):
        rows.append(["geodesic", "trace", i + 1, "", "", float(length)])
    print("\n".join(lines))
    _write_rows(args, ["context", "quantity", "i", "j", "k", "value"], rows, geo.seed)
    return 0 if result.converged else 1


_PARSER = build_parser()  # once per process: parsing leaves the parser unchanged


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    for flag, commands in _APPLIES.items():
        if getattr(args, flag) is not None and args.command not in commands:
            print(f"error: --{flag} does not apply to {args.command}", file=sys.stderr)
            return 2
    try:
        cfg = load_config(args.config)
        if args.command == "tensors":
            return cmd_tensors(cfg, args)
        if args.command == "audit":
            return cmd_audit(cfg, args)
        if args.command == "classify":
            return cmd_classify(cfg, args)
        return cmd_geodesic(cfg, args)
    except _ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
