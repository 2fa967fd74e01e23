"""Command-line front end: batch computation, verification suites, CSV/JSON output.

Exit status: 0 on success, 1 when a verification suite reports a failure,
2 on usage errors (including malformed rational literals).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction

from .analysis import (
    NamedCheck,
    grid_43,
    scan_rows,
    theorem_report,
    verify_43_case,
)
from .capacities import capacity_prefix
from .core import Ellipsoid, accumulation_point
from .ehrhart import RightTriangle, fit_quasi_polynomial, triangle_count
from .intervals import PrecisionError
from .render import decimal_str
from .suites import SUITES, run_suites

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(token: str) -> Fraction:
    """Exact rational from 'p/q' or an integer literal; anything else is rejected."""
    if not _RATIONAL.match(token):
        raise argparse.ArgumentTypeError(f"not a rational literal: {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator: {token!r}")


def _emit(
    rows: list[dict] | dict, ns: argparse.Namespace, preamble: list[str] | None = None
) -> None:
    out = io.StringIO()
    if ns.format == "json":
        out.write(json.dumps(rows, indent=2) + "\n")
    elif ns.format == "csv":
        if rows:
            writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    else:
        for line in preamble or []:
            out.write(line + "\n")
        for row in rows:
            out.write(", ".join(str(v) for v in row.values()) + "\n")
    text = out.getvalue()
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_line(c: NamedCheck) -> str:
    return f"{c.verdict.upper():4} {c.name}: {c.witness}"


def _cmd_capacities(ns: argparse.Namespace) -> int:
    values = capacity_prefix(Ellipsoid(*ns.ellipsoid), ns.count)
    if ns.format == "text":
        rows = [{"k": k, "value": v} for k, v in enumerate(values)]
    else:
        rows = [
            {"k": k, "value": str(v), "decimal": decimal_str(v, ns.precision)}
            for k, v in enumerate(values)
        ]
    _emit(rows, ns)
    return 0


def _cmd_accumulation(ns: argparse.Namespace) -> int:
    data = accumulation_point(ns.k, ns.l)
    if ns.format == "text":
        _emit([], ns, preamble=[
            f"a0 = {data.a0}",
            f"a0 ~ {data.a0.decimal(ns.precision)}",
            f"per = {data.per}",
            f"vol = {data.vol}",
        ])
    else:
        _emit([{
            "k": data.k,
            "l": data.l,
            "per": str(data.per),
            "vol": str(data.vol),
            "a0": str(data.a0),
            "a0_decimal": data.a0.decimal(ns.precision),
        }], ns)
    return 0


def _cmd_ehrhart(ns: argparse.Namespace) -> int:
    tri = RightTriangle(*ns.triangle)
    if ns.fit:
        qp = fit_quasi_polynomial(tri)
        rows = [
            {
                "residue": r,
                "leading": str(qp.leading),
                "linear": str(qp.linear[r]),
                "constant": str(qp.constant[r]),
            }
            for r in range(qp.period)
        ]
        _emit(rows, ns, preamble=[f"period = {qp.period}"])
    else:
        rows = [{"t": t, "count": triangle_count(tri, t)} for t in range(1, ns.t_max + 1)]
        _emit(rows, ns)
    return 0


def _cmd_scan(ns: argparse.Namespace) -> int:
    rows = [
        {
            "a": str(row.a),
            "a_decimal": decimal_str(row.a, ns.precision),
            "volume_bound": row.volume.decimal(30),
            "bullet_bound": str(row.bullet),
            "bullet_decimal": decimal_str(row.bullet, ns.precision),
            "capacity_bound": str(row.capacity),
            "capacity_decimal": decimal_str(row.capacity, ns.precision),
        }
        for row in scan_rows(ns.b, ns.a_lo, ns.a_hi, ns.step, ns.n_cap)
    ]
    _emit(rows, ns)
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    names = list(SUITES) if ns.suite == "all" else [ns.suite]
    checks = run_suites(names, t_max=ns.t_max, n_cap=ns.n_cap, seed=ns.seed, samples=ns.samples)
    if ns.format == "text":
        _emit([], ns, preamble=[_check_line(c) for c in checks])
    else:
        _emit([asdict(c) for c in checks], ns)
    return 1 if any(c.failed for c in checks) else 0


def _cmd_report43(ns: argparse.Namespace) -> int:
    rep = verify_43_case(ns.t_max, grid_43(ns.grid_step))
    rows = [
        {
            "a": str(r.a),
            "claimed": str(r.claimed),
            "capacity_lower_bound": str(r.lower),
            "lower_ok": r.lower_ok,
            "upper_verdict": str(r.upper),
            "ok": r.ok,
        }
        for r in rep.rows
    ]
    _emit(rows, ns, preamble=[f"t_max = {rep.t_max}, overall: {'pass' if rep.ok else 'FAIL'}"])
    return 0 if rep.ok else 1


def _cmd_theorem_report(ns: argparse.Namespace) -> int:
    rep = theorem_report(ns.k, ns.l)
    scan = scan_rows(rep.b, Fraction(1), rep.a0 + 1, ns.grid_step, ns.n_cap)
    if ns.format == "text":
        lines = [
            f"(k, l) = ({rep.k}, {rep.l}), b = {rep.b}, category = {rep.category}",
            f"a0 = {rep.a0} ~ {rep.a0.decimal(ns.precision)}; per = {rep.per}, vol = {rep.vol}",
        ]
        lines += [_check_line(c) for c in rep.checks]
        lines.append(f"grid rows: {len(scan)} (use --format csv for the scan)")
        _emit([], ns, preamble=lines)
        return 0 if rep.ok else 1
    grid = [
        {
            "a": str(row.a),
            "volume_bound": row.volume.decimal(30),
            "bullet_bound": str(row.bullet),
            "capacity_bound": str(row.capacity),
        }
        for row in scan
    ]
    _emit(grid if ns.format == "csv" else {
        "k": rep.k,
        "l": rep.l,
        "b": str(rep.b),
        "category": rep.category,
        "special": rep.special,
        "a0": str(rep.a0),
        "a0_decimal": rep.a0.decimal(ns.precision),
        "per": str(rep.per),
        "vol": str(rep.vol),
        "lemma": rep.lemma,
        "checks": [asdict(c) for c in rep.checks],
        "grid": grid,
    }, ns)
    return 0 if rep.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ech-staircase",
        description="Exact ellipsoid embedding bounds, lattice counts, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, func, default_format: str = "text") -> None:
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("text", "csv", "json"), default=default_format)
        p.add_argument("--output", default=None, help="write to a file instead of stdout")
        p.add_argument("--precision", type=int, default=12, help="significant digits for decimals")

    p = sub.add_parser("capacities", help="print a capacity prefix of an ellipsoid")
    p.add_argument("--ellipsoid", nargs=2, type=parse_rational, required=True, metavar=("A", "B"))
    p.add_argument("--count", type=int, required=True)
    common(p, _cmd_capacities)

    p = sub.add_parser("accumulation", help="exact accumulation point for eccentricity k/l")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    common(p, _cmd_accumulation)

    p = sub.add_parser("ehrhart", help="lattice counts or quasi-polynomial fit of a triangle")
    p.add_argument("--triangle", nargs=2, type=parse_rational, required=True, metavar=("U", "V"))
    p.add_argument("--t-max", type=int, default=24)
    p.add_argument("--fit", action="store_true", help="print the fitted quasi-polynomial")
    common(p, _cmd_ehrhart)

    p = sub.add_parser("scan", help="grid scan of volume/bullet/capacity bounds")
    p.add_argument("--b", type=parse_rational, required=True)
    p.add_argument("--a-lo", type=parse_rational, required=True)
    p.add_argument("--a-hi", type=parse_rational, required=True)
    p.add_argument("--step", type=parse_rational, default=Fraction(1, 20))
    p.add_argument("--n-cap", type=int, default=2000)
    common(p, _cmd_scan, default_format="csv")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=["all"] + list(SUITES), default="all")
    p.add_argument("--t-max", type=int, default=300)
    p.add_argument("--n-cap", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=40, help="sampled parameters for the slice suite")
    common(p, _cmd_verify)

    p = sub.add_parser("report-43", help="pin the embedding function for eccentricity 4/3")
    p.add_argument("--t-max", type=int, default=300)
    p.add_argument("--grid-step", type=parse_rational, default=Fraction(1, 20))
    common(p, _cmd_report43)

    p = sub.add_parser("theorem-report", help="per-(k, l) verification report")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n-cap", type=int, default=2000)
    p.add_argument("--grid-step", type=parse_rational, default=Fraction(1, 60))
    common(p, _cmd_theorem_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (ValueError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
