"""Command-line front end: batch solving, finiteness checks, family diagnostics.

Subcommands: solve, check, roberts, diagram, plot.  Reports are JSON (schema
version 1) or CSV; identical inputs produce byte-identical output.  Exit
codes follow a fixed contract per subcommand (documented in each handler).
Each handler imports the layer it runs, so ``check`` loads neither numpy nor
the solver.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from .quantities import VorticitySet

SCHEMA_VERSION = 1


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def parse_vorticities(text: str, exact: bool = False) -> VorticitySet:
    """Comma-separated strengths; integers, decimals, and rationals p/q.

    With exact=True decimals are rejected so the exact arithmetic path is
    guaranteed.  A token that does not parse, or strengths that
    :class:`VorticitySet` refuses, raise CliError with exit code 2.
    """
    gammas = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise CliError(2, "empty vorticity entry")
        try:
            if "/" in tok:
                value = Fraction(tok)
            elif exact:
                value = Fraction(int(tok))
            else:
                value = float(tok)
        except (ValueError, ZeroDivisionError):
            if exact and ("." in tok or "e" in tok.lower()):
                raise CliError(2, f"--exact requires integer or p/q vorticities, got {tok!r}")
            raise CliError(2, f"cannot parse vorticity {tok!r}")
        gammas.append(value)
    try:
        return VorticitySet(tuple(gammas))
    except ValueError as exc:
        raise CliError(2, str(exc))


def _complex_pair(c) -> list:
    c = complex(c)
    return [c.real, c.imag]


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(1, f"cannot write {path}: {exc}")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _solution_record(sol) -> dict:
    inv = sol.invariants
    rec = {
        "kind": sol.kind,
        "regime": sol.regime,
        "positions": [_complex_pair(p) for p in sol.z],
        "w": [_complex_pair(p) for p in sol.w],
        "lambda": None if sol.lam is None else _complex_pair(sol.lam),
        "residual_norm": sol.residual_norm,
        "signature": [list(s) if isinstance(s, tuple) else s for s in sol.signature],
        "flags": list(sol.flags),
        "iterations": sol.iterations,
        "invariants": {
            "Gamma": float(inv.gamma),
            "L": float(inv.L),
            "M": _complex_pair(inv.M),
            "I": _complex_pair(inv.I),
            "S": _complex_pair(inv.S),
            "lambda_I_minus_L": None if inv.lambda_defect is None else _complex_pair(inv.lambda_defect),
        },
    }
    if sol.translation_velocity is not None:
        rec["translation_velocity"] = _complex_pair(sol.translation_velocity)
    return rec


def _report_dict(report, gamma_echo: list, tolerances: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "solve",
        "input": {
            "gamma": gamma_echo,
            "regime": report.regime,
            "starts": report.starts_attempted,
            "seed": report.seed,
            "tolerances": tolerances,
        },
        "starts_attempted": report.starts_attempted,
        "starts_converged": report.starts_converged,
        "reason": report.reason,
        "solutions": [_solution_record(s) for s in report.solutions],
    }


def _csv_number(x) -> str:
    """A real, or a [re, im] pair as ``re±imj``, in a form float() or complex() parses."""
    if isinstance(x, list):
        return f"{float(x[0])!r}{float(x[1]):+}j"
    return repr(float(x))


def _report_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "index", "kind", "lambda_re", "lambda_im", "residual_norm",
        "signature", "positions", "flags",
    ])
    for i, sol in enumerate(doc["solutions"]):
        lam = sol["lambda"] or ["", ""]
        writer.writerow([
            i,
            sol["kind"],
            lam[0],
            lam[1],
            sol["residual_norm"],
            ";".join(_csv_number(s) for s in sol["signature"]),
            ";".join(_csv_number(p) for p in sol["positions"]),
            ";".join(sol["flags"]),
        ])
    return buf.getvalue()


def _options_from_args(args) -> tuple[SolverOptions, dict]:
    """Solver options from the tolerance flags; building them checks their values."""
    from .solver import SolverOptions

    overrides = {
        name: getattr(args, name)
        for name in ("tol", "dedup_tol", "class_tol")
        if getattr(args, name, None) is not None
    }
    return SolverOptions(**overrides), overrides


def cmd_solve(args) -> int:
    """Exit 0 on success, 2 on bad vorticities, options or start count, 1 on I/O failure."""
    from . import solver

    v = parse_vorticities(args.gamma)
    opts, overrides = _options_from_args(args)
    try:
        report = solver.solve_central_multistart(
            v, regime=args.regime, starts=args.starts, seed=args.seed, options=opts
        )
    except MemoryError:
        # numpy refuses a start block far past the memory at once.
        raise CliError(2, f"--starts {args.starts} is too many starts to hold in memory") from None
    doc = _report_dict(report, [float(g) for g in v.gammas], overrides)
    text = _report_csv(doc) if args.format == "csv" else _dump_json(doc)
    _write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    """Exit 0 certified_finite, 3 exceptional_suspect, 2 on bad input, 4 on Γ=0."""
    from . import exceptional

    v = parse_vorticities(args.gamma, exact=args.exact)
    try:
        report = exceptional.verdict(v)
    except exceptional.TotalVorticityZeroError as exc:
        raise CliError(4, str(exc))
    lines = [f"verdict: {report.verdict}"]
    sc = report.subset_check
    if sc.passed:
        lines.append("subset conditions: pass (all subset sums and pair momenta nonzero)")
    else:
        lines.append(
            f"subset conditions: fail at J={{{','.join(map(str, sc.witness))}}} ({sc.witness_kind})"
        )
    if report.matches:
        lines.append(f"catalog matches: {len(report.matches)}")
        for m in report.matches:
            lines.append(
                f"  diagram {m.diagram_id} clause {m.clause_index}"
                f" (lambda {m.lambda_branch}) labels -> {m.permutation}"
            )
    else:
        lines.append("catalog matches: none")
    if report.approximate:
        lines.append("note: float input, equality tests are approximate")
    _write_text(None, "\n".join(lines) + "\n")
    if args.out:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "check",
            "input": {"gamma": [str(g) for g in v.gammas], "exact": args.exact},
            "verdict": report.verdict,
            "approximate": report.approximate,
            "subset_check": {
                "passed": sc.passed,
                "witness": list(sc.witness) if sc.witness else None,
                "witness_kind": sc.witness_kind,
            },
            "matches": [
                {
                    "diagram": m.diagram_id,
                    "clause": m.clause_index,
                    "lambda_branch": m.lambda_branch,
                    "permutation": list(m.permutation),
                }
                for m in report.matches
            ],
            "notes": list(report.notes),
        }
        _write_text(args.out, _dump_json(doc))
    return 0 if report.verdict == "certified_finite" else 3


# ---------------------------------------------------------------------------
# roberts
# ---------------------------------------------------------------------------


def cmd_roberts(args) -> int:
    """Exit 0 (residual below 1e-10 when --verify), 2 on out-of-domain a."""
    from . import asymptotics

    v, conf, lam = asymptotics.roberts_family(args.a, args.branch)
    lines = [
        f"vorticities: {[float(g) for g in v.gammas]}",
        f"z: {[str(p) for p in conf.z]}",
        f"w: {[str(p) for p in conf.w]}",
        f"lambda (raw scale): {lam}",
    ]
    code = 0
    if args.verify:
        residual = asymptotics.verify_roberts(args.a, args.branch)
        lines.append(f"normalized residual: {residual:.3e}")
        code = 0 if residual < 1e-10 else 1
    _write_text(None, "\n".join(lines) + "\n")
    return code


# ---------------------------------------------------------------------------
# diagram
# ---------------------------------------------------------------------------


def cmd_diagram(args) -> int:
    """Exit 0 with the extracted diagram, 5 if the family is not singular."""
    from . import asymptotics

    if args.from_file is not None:
        given = [f"--{name}" for name in ("family", "limit", "steps") if getattr(args, name) is not None]
        if given:
            raise CliError(2, f"--from cannot be combined with {', '.join(given)}")
        try:
            params, configs = asymptotics.load_family(args.from_file)
        except OSError as exc:
            raise CliError(1, f"cannot read {args.from_file}: {exc}")
    elif args.family is None:
        raise CliError(2, "need --family roberts or --from FILE")
    else:
        params, configs = asymptotics.roberts_degeneration(
            "a0" if args.limit is None else args.limit, 12 if args.steps is None else args.steps)
    try:
        extraction = asymptotics.extract_diagram(configs, params)
    except asymptotics.NotSingularError as exc:
        sys.stderr.write(f"{exc}\n")
        return 5
    d = extraction.diagram
    lines = [
        f"vertices: {d.n_vertices}",
        f"z-strokes: {sorted(d.z_strokes)}",
        f"w-strokes: {sorted(d.w_strokes)}",
        f"z-circles: {sorted(d.z_circles)}",
        f"w-circles: {sorted(d.w_circles)}",
        f"rule-one: {'ok' if d.satisfies_rule_one else 'violated'}",
        "pair  z-exponent  w-exponent",
    ]
    for pair in sorted(extraction.separation_exponents):
        zs, ws = extraction.separation_exponents[pair]
        lines.append(f"{pair}  {zs:+.3f}  {ws:+.3f}")
    _write_text(None, "\n".join(lines) + "\n")
    if args.out:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "diagram",
            "epsilons": list(extraction.epsilons),
            "z_strokes": sorted(map(list, d.z_strokes)),
            "w_strokes": sorted(map(list, d.w_strokes)),
            "z_circles": sorted(d.z_circles),
            "w_circles": sorted(d.w_circles),
            "separation_exponents": {
                f"{j},{k}": list(v) for (j, k), v in sorted(extraction.separation_exponents.items())
            },
            "position_exponents": {
                str(j): list(v) for j, v in sorted(extraction.position_exponents.items())
            },
        }
        _write_text(args.out, _dump_json(doc))
    return 0


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------


def _svg_solution(sol: dict, gammas: list, origin_x: float, origin_y: float, scale: float) -> list:
    parts = []
    pts = [(origin_x + scale * p[0], origin_y - scale * p[1]) for p in sol["positions"]]
    n = len(pts)
    for j in range(n):
        for k in range(j + 1, n):
            x1, y1 = pts[j]
            x2, y2 = pts[k]
            dx = sol["positions"][k][0] - sol["positions"][j][0]
            dy = sol["positions"][k][1] - sol["positions"][j][1]
            r2 = dx * dx + dy * dy  # inf past the float range, where ** 2 raises
            parts.append(
                f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                f'stroke="#bbbbbb" stroke-width="0.8"/>'
            )
            parts.append(
                f'<text x="{(x1 + x2) / 2:.3f}" y="{(y1 + y2) / 2:.3f}" font-size="7" '
                f'fill="#888888">r2={r2:.4g}</text>'
            )
    gmax = max(map(abs, gammas), default=0.0) or 1.0  # no strengths, or all zero
    for i, (x, y) in enumerate(pts):
        g = gammas[i] if i < len(gammas) else 1.0
        radius = 3.0 + 6.0 * abs(g) / gmax
        fill = "#3465a4" if g >= 0 else "#a40000"
        parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{radius:.3f}" fill="{fill}"/>')
        parts.append(
            f'<text x="{x + radius + 1:.3f}" y="{y:.3f}" font-size="8" fill="#222222">{i + 1}</text>'
        )
    lam = sol["lambda"]
    label = "lambda=None" if lam is None else f"lambda={lam[0]:.6g}{lam[1]:+.6g}i"
    parts.append(
        f'<text x="{origin_x - 90:.3f}" y="{origin_y + 95:.3f}" font-size="9" '
        f'fill="#000000">{sol["kind"]}, {label}</text>'
    )
    return parts


def _number(x) -> float:
    """A number of a report as a finite float; ValueError otherwise."""
    if type(x) not in (int, float) or not math.isfinite(x):
        raise ValueError(f"{x!r} is not a finite number")
    return float(x)


def _point(p) -> tuple:
    """An [x, y] pair of a report as two finite floats."""
    x, y = p
    return _number(x), _number(y)


def _read_report(path: str) -> tuple[list, list]:
    """The solutions and strengths of a solve report, checked; CliError 1 when it cannot be read.

    Each solution keeps the fields the plot draws: its kind, its positions
    as (x, y) and its λ as (re, im) or None.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        gammas = [_number(g) for g in doc["input"]["gamma"]]
        solutions = [{
            "kind": str(sol["kind"]),
            "positions": [_point(p) for p in sol["positions"]],
            "lambda": None if sol["lambda"] is None else _point(sol["lambda"]),
        } for sol in doc["solutions"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(1, f"cannot read report {path}: {exc}")
    return solutions, gammas


def cmd_plot(args) -> int:
    """Exit 0 on success, 1 on unreadable report."""
    solutions, gammas = _read_report(args.report)
    cell = 220.0
    cols = max(1, min(4, len(solutions)))
    rows = max(1, (len(solutions) + cols - 1) // cols)
    width = cell * cols
    height = cell * rows
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    if not solutions:
        parts.append(
            f'<text x="{width / 2:.0f}" y="{height / 2:.0f}" font-size="14" '
            f'text-anchor="middle" fill="#000000">no solutions</text>'
        )
    for i, sol in enumerate(solutions):
        cx = cell * (i % cols) + cell / 2
        cy = cell * (i // cols) + cell / 2
        span = max(
            [max(abs(p[0]), abs(p[1])) for p in sol["positions"]] + [1e-9]
        )
        parts.extend(_svg_solution(sol, gammas, cx, cy, 80.0 / span))
    parts.append("</svg>")
    _write_text(args.out, "\n".join(parts) + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexcc",
        description="Stationary point-vortex configurations: solve, certify, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="multistart search for central configurations")
    p.add_argument("--gamma", required=True, help="comma-separated vortex strengths")
    p.add_argument("--regime", choices=("physical", "complex"), default="physical")
    p.add_argument("--starts", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--dedup-tol", dest="dedup_tol", type=float, default=None)
    p.add_argument("--class-tol", dest="class_tol", type=float, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="finiteness certification for 5 vortices")
    p.add_argument("--gamma", required=True)
    p.add_argument("--exact", action="store_true",
                   help="require integer or p/q input; decide equalities exactly")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("roberts", help="rhombus continuum member and verification")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--branch", choices=("real", "complex"), default="real")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_roberts)

    p = sub.add_parser("diagram", help="stroke/circle extraction from a degenerating family")
    p.add_argument("--family", choices=("roberts",), default=None)
    p.add_argument("--limit", choices=("a0", "ainf"), default=None, help="with --family; default a0")
    p.add_argument("--steps", type=int, default=None, help="with --family; default 12")
    p.add_argument("--from", dest="from_file", default=None, metavar="FILE")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("plot", help="render a solve report as SVG")
    p.add_argument("report")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
