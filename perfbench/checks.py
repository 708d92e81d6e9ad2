"""Output checks that do not trust the program.

Solve results are checked by recomputing Λz − V with this module's own numpy
code; verdicts are compared with this module's own exact subset-condition
check on the rational each input was drawn from.  Every check returns a list
of failure reasons; an empty list means the output is correct.
"""

from __future__ import annotations

import sys
from itertools import combinations

import numpy as np

from .inputs import PLANTED_FAMILIES, SolveCall, VerdictCall

RESIDUAL_TOL = 1e-9     # relative to the largest velocity or Λz term
UNIT_LAMBDA_TOL = 1e-12


def velocities(gammas, w) -> np.ndarray:
    """V_n = Σ_{j≠n} Γ_j / (w_n − w_j)."""
    g = np.asarray([float(x) for x in gammas])
    w = np.asarray(w, dtype=complex)
    diff = w[:, None] - w[None, :]          # diff[n, j] = w_n - w_j
    np.fill_diagonal(diff, np.inf)
    return (g[None, :] / diff).sum(axis=1)


def _excess(residual: np.ndarray, *terms: np.ndarray) -> float:
    """Largest |residual| over its tolerance; at most 1 passes."""
    scale = max(1.0, *(float(np.abs(t).max()) for t in terms))
    return float(np.abs(residual).max()) / (RESIDUAL_TOL * scale)


def solution_problems(call: SolveCall, solution) -> list:
    z = np.asarray(solution.z, dtype=complex)
    lam = solution.lam
    if call.api == "solve_equilibria":
        V = velocities(call.gammas, np.conj(z))
        excess = _excess(V, V)
        return [f"equilibrium velocity {np.abs(V).max():.3e} exceeds tolerance"] if excess > 1 else []
    problems = []
    if call.regime == "physical":
        w = np.conj(z)
        if abs(abs(lam) - 1.0) > UNIT_LAMBDA_TOL:
            problems.append(f"physical |Λ| = {abs(lam)!r} is not 1")
        rows = [(lam * z, velocities(call.gammas, w))]
    else:
        w = np.asarray(solution.w, dtype=complex)
        rows = [(lam * z, velocities(call.gammas, w)), (w / lam, velocities(call.gammas, z))]
        gauge = (z[1] - z[0]) - (w[1] - w[0])
        if abs(gauge) > RESIDUAL_TOL * max(1.0, abs(z[1] - z[0])):
            problems.append(f"gauge z12 - w12 = {gauge!r}")
    for lhs, V in rows:
        if _excess(lhs - V, lhs, V) > 1:
            problems.append(f"residual Λz - V = {np.abs(lhs - V).max():.3e} exceeds tolerance")
    return problems


def solve_problems(call: SolveCall, report) -> list:
    """Reasons the report of one solve call is wrong; empty if it is right."""
    problems = []
    if report.starts_attempted != call.starts:
        problems.append(f"starts_attempted {report.starts_attempted} != {call.starts}")
    if not 0 <= report.starts_converged <= report.starts_attempted:
        problems.append(f"starts_converged {report.starts_converged} out of range")
    if len(report.solutions) > report.starts_converged:
        problems.append(f"{len(report.solutions)} solutions from {report.starts_converged} converged starts")
    for i, solution in enumerate(report.solutions):
        problems += [f"solution {i}: {p}" for p in solution_problems(call, solution)]
    return problems


def _shape(z) -> str | None:
    """'equilateral' or 'collinear' (distances a, a, 2a) for three points."""
    d = sorted(abs(a - b) for a, b in combinations(np.asarray(z, dtype=complex), 2))
    if d[2] - d[0] <= 1e-9 * d[2]:
        return "equilateral"
    if abs(d[1] - d[0]) <= 1e-9 * d[2] and abs(d[2] - 2 * d[0]) <= 1e-9 * d[2]:
        return "collinear"
    return None


def calibration_problems(call: SolveCall, report) -> list:
    """(1, 1, 1) must give exactly the equilateral and the collinear solution."""
    problems = solve_problems(call, report)
    shapes = sorted(str(_shape(s.z)) for s in report.solutions)
    if shapes != ["collinear", "equilateral"]:
        problems.append(f"calibration shapes {shapes}, expected collinear and equilateral")
    return problems


def subset_condition_holds(gammas) -> bool:
    """Exact: Γ_J ≠ 0 for every nonempty J and L_J ≠ 0 for every |J| >= 2."""
    n = len(gammas)
    for r in range(1, n + 1):
        for J in combinations(gammas, r):
            if sum(J) == 0:
                return False
            if r >= 2 and sum(a * b for a, b in combinations(J, 2)) == 0:
                return False
    return True


def verdict_problems(call: VerdictCall, report) -> list:
    """Reasons the verdict on one input is wrong; empty if it is right."""
    expected = "certified_finite" if subset_condition_holds(call.drawn) else "exceptional_suspect"
    problems = []
    if report.verdict != expected:
        problems.append(f"verdict {report.verdict}, exact reference {expected}")
    if call.planted:
        family = PLANTED_FAMILIES[call.planted]
        if not any(m.diagram_id in family for m in report.matches):
            problems.append(f"planted {call.planted} matched none of diagrams {sorted(family)}")
    return problems


def known_defect(call, error: BaseException | None) -> str | None:
    """Name of the documented defect a failed call shows, or None if it is new.

    Both are listed under ROADMAP item 1.  The timed certify stream draws no
    input that they fail; inputs.KNOWN_DEFECT_PROBES shows them every run.
    """
    if not isinstance(call, VerdictCall):
        return None
    top = max(abs(x) for x in call.gammas)
    if isinstance(error, OverflowError) and not call.is_float and top > sys.float_info.max:
        return "exact-entry-beyond-float-range"
    # The float tolerance 1e-9*max(1, top^2) has an absolute floor and mixes
    # degrees; inside [1e-3, 1e3] it separates every input this generator
    # draws, outside it flips verdicts or finds a zero total vorticity.
    if call.is_float and not 1e-3 <= top <= 1e3 and (
            error is None or type(error).__name__ == "TotalVorticityZeroError"):
        return "float-tolerance-not-scale-invariant"
    return None


def describe(call) -> str:
    """Compact form of a call's input: the drawn rational and its scale."""
    if isinstance(call, VerdictCall):
        kind = "float copy of " if call.is_float else ""
        drawn = ", ".join(str(g) for g in call.drawn)
        return f"{kind}({drawn}) * 10^{call.scale_exp}" + (f", planted {call.planted}" if call.planted else "")
    return f"{call.api}({', '.join(str(g) for g in call.gammas)}; regime={call.regime}, " \
           f"starts={call.starts}, seed={call.seed})"
