"""Print one SHA-256 of ``repr(report)`` per fixed solver case, then their total.

Two checkouts whose solvers return identical reports print the same totals,
so a refactor of the solver or the kernels can be checked for byte-identical
results by running this script on both and comparing the TOTAL lines:

    python scripts/solve_digest.py

The first TOTAL covers the quick cases below.  The benchmark-sized cases
after it run 1000 starts each: they fill and refill every lane of the
stacked Newton engine (the script refuses to run if the engine gets as many
lanes as that) and give the deduplication scan long lists of kept
solutions.  TOTAL ALL covers those two groups.  The last group runs each
search with ``start_min_gap=0.5``, where many start disks are too tight and
are redrawn, so the start draw takes its start-by-start path; TOTAL REDRAW
covers that group alone.  The DEDUP group runs three 1000-start searches
whose converged starts the deduplication scan mostly keeps or merges across
many near neighbours: the Roberts continuum (2, 2, 2, 2, -1), the L = 0
tuple (1, 1, -1/2) at ``dedup_tol=0.5``, where one candidate lies within the
bound of several kept solutions, and four equal strengths, whose relabelled
solutions share signatures; TOTAL DEDUP covers that group alone.  The
REFINE group runs ``newton_refine`` on (1, 2, 3, -3/2) in both regimes and
ends a start in each way the engine can: converged, diverged with the
damping past ``lm_lambda_max``, diverged past ``divergence_norm``, out of
iterations, and stopped by the collision guard at the start or during the
run; TOTAL REFINE covers that group alone, so it pins the bytes of every
kind of NewtonFailure.

The cases cover the four searches (central physical, central complex,
equilibria, rigid translation), N = 2..5, the continuum tuples (1, 1, -1/2)
and (2, 2, 2, 2, -1), the gated empty reports (L != 0, Γ != 0, with float
and exact strengths), and ``newton_refine`` in both regimes, converging and
stopped at the collision guard.

When a change legitimately alters the bytes (a new linear algebra path that
rounds differently), compare solution sets instead:

    python scripts/solve_digest.py --sets OUT.json
    python scripts/solve_digest.py --compare A.json B.json

``--sets`` writes, for every case above and for the solve-complex benchmark
calls of seeds 1 and 2, rounds 0 to 2, the converged start count and each
solution's signature, Λ and kind.  ``--compare`` matches two such files:
per case the solution counts must agree and every solution must have a
partner of the same kind whose signature agrees within ``dedup_tol`` and whose
Λ agrees up to conjugation and the twin map Λ -> 1/conj Λ.  It prints the
change in converged starts per case and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from vortexcc import (  # noqa: E402
    CentralConfigSolution,
    SolverOptions,
    VorticitySet,
    newton_refine,
    solve_central_multistart,
    solve_equilibria,
    solve_rigid_translation,
    solver,
)

C = np.sqrt(2) / 2


def _v(*gammas) -> VorticitySet:
    return VorticitySet(tuple(gammas))


CASES = (
    ("central physical N=2", lambda: solve_central_multistart(_v(1.0, 1.0), starts=100, seed=1)),
    ("central physical N=3", lambda: solve_central_multistart(_v(1.0, 1.0, 1.0), starts=200, seed=0)),
    ("central physical (1,1,-1/2)",
     lambda: solve_central_multistart(_v(1.0, 1.0, -0.5), starts=200, seed=11)),
    ("central physical N=4",
     lambda: solve_central_multistart(_v(1.0, 2.0, 3.0, -1.5), starts=60, seed=2)),
    ("central physical N=5",
     lambda: solve_central_multistart(_v(1.0, -2.0, 3.0, 0.5, 1.5), starts=40, seed=3)),
    ("central physical (2,2,2,2,-1)",
     lambda: solve_central_multistart(_v(2.0, 2.0, 2.0, 2.0, -1.0), starts=40, seed=4)),
    ("central complex N=2",
     lambda: solve_central_multistart(_v(1.0, 1.0), regime="complex", starts=50, seed=3)),
    ("central complex (1,1,-1/2)",
     lambda: solve_central_multistart(_v(1.0, 1.0, -0.5), regime="complex", starts=60, seed=5)),
    ("central complex N=4",
     lambda: solve_central_multistart(_v(1.0, 2.0, 3.0, -1.5), regime="complex", starts=40, seed=2)),
    ("central complex (2,2,2,2,-1)",
     lambda: solve_central_multistart(_v(2.0, 2.0, 2.0, 2.0, -1.0), regime="complex",
                                      starts=20, seed=6)),
    ("equilibria (1,1,-1/2)", lambda: solve_equilibria(_v(1.0, 1.0, -0.5), starts=100, seed=0)),
    ("equilibria exact (1,1,-1/2)",
     lambda: solve_equilibria(_v(Fraction(1), Fraction(1), Fraction(-1, 2)), starts=40, seed=1)),
    ("equilibria (1,1,1,-1)", lambda: solve_equilibria(_v(1.0, 1.0, 1.0, -1.0), starts=60, seed=2)),
    ("equilibria gated L!=0", lambda: solve_equilibria(_v(1.0, 1.0, 1.0), starts=10, seed=0)),
    ("translation (1,-1)", lambda: solve_rigid_translation(_v(1.0, -1.0), starts=20, seed=0)),
    ("translation (1,1,-2)", lambda: solve_rigid_translation(_v(1.0, 1.0, -2.0), starts=60, seed=1)),
    ("translation (1,-1,2,-2)",
     lambda: solve_rigid_translation(_v(1.0, -1.0, 2.0, -2.0), starts=40, seed=2)),
    ("translation exact (1,-3,2)",
     lambda: solve_rigid_translation(_v(Fraction(1), Fraction(-3), Fraction(2)), starts=40, seed=3)),
    ("translation gated G!=0",
     lambda: solve_rigid_translation(_v(2.0, 2.0, 2.0, 2.0, -1.0), starts=5, seed=0)),
    ("refine physical converges",
     lambda: newton_refine(_v(1.0, 1.0), (np.array([-C, C + 1e-3], dtype=complex), 0.01))),
    ("refine complex converges",
     lambda: newton_refine(_v(1.0, 1.0), (np.array([-C, C + 1e-3j], dtype=complex),
                                          np.array([-C, C], dtype=complex), 1.0 + 1e-3j),
                           regime="complex")),
    ("refine physical hits guard",
     lambda: newton_refine(_v(1.0, 1.0), (np.array([0.0, 1e-11], dtype=complex), 0.0))),
)


# Starts of each benchmark-sized case.  They must outnumber the engine's
# lanes, or no lane is ever refilled; ``main`` refuses to run otherwise.
LARGE_STARTS = 1000

LARGE_CASES = (
    ("central physical N=5, 1000 starts",
     lambda: solve_central_multistart(_v(1.0, -2.0, 3.0, 0.5, 1.5), starts=LARGE_STARTS, seed=7)),
    ("central complex N=4, 1000 starts",
     lambda: solve_central_multistart(_v(1.0, 2.0, 3.0, -1.5), regime="complex",
                                      starts=LARGE_STARTS, seed=7)),
    ("central physical (1,1,-1/2), 1000 starts",
     lambda: solve_central_multistart(_v(1.0, 1.0, -0.5), starts=LARGE_STARTS, seed=7)),
    ("equilibria (1,1,-1/2), 1000 starts",
     lambda: solve_equilibria(_v(1.0, 1.0, -0.5), starts=LARGE_STARTS, seed=7)),
)


WIDE = SolverOptions(start_min_gap=0.5)

REDRAW_CASES = (
    ("central physical N=5, start_min_gap=0.5",
     lambda: solve_central_multistart(_v(1.0, -2.0, 3.0, 0.5, 1.5), starts=200, seed=8,
                                      options=WIDE)),
    ("central complex N=4, start_min_gap=0.5",
     lambda: solve_central_multistart(_v(1.0, 2.0, 3.0, -1.5), regime="complex", starts=200,
                                      seed=8, options=WIDE)),
    ("equilibria (1,1,1,-1), start_min_gap=0.5",
     lambda: solve_equilibria(_v(1.0, 1.0, 1.0, -1.0), starts=200, seed=8, options=WIDE)),
    ("translation (1,-1,2,-2), start_min_gap=0.5",
     lambda: solve_rigid_translation(_v(1.0, -1.0, 2.0, -2.0), starts=200, seed=8, options=WIDE)),
)


DEDUP_CASES = (
    ("central physical (2,2,2,2,-1), 1000 starts",
     lambda: solve_central_multistart(_v(2.0, 2.0, 2.0, 2.0, -1.0), starts=LARGE_STARTS, seed=9)),
    ("central physical (1,1,-1/2), 1000 starts, dedup_tol=0.5",
     lambda: solve_central_multistart(_v(1.0, 1.0, -0.5), starts=LARGE_STARTS, seed=9,
                                      options=SolverOptions(dedup_tol=0.5))),
    ("central physical (1,1,1,1), 1000 starts",
     lambda: solve_central_multistart(_v(1.0, 1.0, 1.0, 1.0), starts=LARGE_STARTS, seed=9)),
)


def _refine_start(regime: str, seed: int):
    """A start of ``newton_refine`` on four vortices, drawn uniformly from a seeded rng."""
    u = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(3, 4))
    if regime == "physical":
        return u[0] + 1j * u[1], u[2, 0] * np.pi
    return u[0] + 1j * u[1], u[0] - 1j * u[2], np.exp(1j * u[1, 0])


GUARDED = SolverOptions(collision_guard=0.5, lm_lambda_max=1e-2)

# How the start ends (its NewtonFailure reason, and which exit), its options and its start seed.
REFINE_ENDS = (
    ("converged", SolverOptions(), 0),
    ("diverged (damping past lm_lambda_max)", SolverOptions(lm_lambda_max=1e-2), 1),
    ("diverged (past divergence_norm)", SolverOptions(divergence_norm=2.5), 0),
    ("max_iterations", SolverOptions(max_iter=4), 0),
    ("hit_collision_guard (at the start)", GUARDED, 0),
    ("hit_collision_guard (during the run)", GUARDED, 3),
)

REFINE_CASES = tuple(
    (f"refine {regime} {end}",
     lambda regime=regime, opts=opts, seed=seed: newton_refine(
         _v(1.0, 2.0, 3.0, -1.5), _refine_start(regime, seed), regime=regime, options=opts))
    for regime in ("physical", "complex") for end, opts, seed in REFINE_ENDS
)


def _bench_cases():
    """The solve-complex benchmark calls of seeds 1 and 2, rounds 0 to 2, as (name, run) cases."""
    from perfbench.inputs import round_calls

    def run(call):
        return lambda: solve_central_multistart(VorticitySet(call.gammas), regime=call.regime,
                                                starts=call.starts, seed=call.seed)

    return tuple((f"solve-complex seed {seed} round {r} slot {call.slot}", run(call))
                 for seed in (1, 2) for r in range(3) for call in round_calls("solve-complex", seed, r))


def _digest_cases(cases, total) -> None:
    for name, run in cases:
        digest = hashlib.sha256(repr(run()).encode()).hexdigest()
        total.update(digest.encode())
        print(f"{digest}  {name}")


def _pair(x: complex | None):
    return None if x is None else [x.real, x.imag]


def _solution_set(result) -> dict:
    """Converged count and solutions of a SolveReport, or of one newton_refine result."""
    if isinstance(result, CentralConfigSolution):
        attempted, converged, solutions = 1, 1, (result,)
    elif hasattr(result, "solutions"):
        attempted, converged, solutions = (result.starts_attempted, result.starts_converged,
                                           result.solutions)
    else:
        attempted, converged, solutions = 1, 0, ()
    return {
        "starts_attempted": attempted,
        "starts_converged": converged,
        "solutions": [{"signature": np.asarray(s.signature, dtype=float).ravel().tolist(),
                       "lam": _pair(s.lam), "kind": s.kind} for s in solutions],
    }


def write_sets(path: str) -> int:
    cases = CASES + LARGE_CASES + REDRAW_CASES + DEDUP_CASES + REFINE_CASES + _bench_cases()
    sets = {name: _solution_set(run()) for name, run in cases}
    Path(path).write_text(json.dumps(sets, indent=1) + "\n")
    print(f"wrote {len(sets)} cases to {path}")
    return 0


def _same_solution(a: dict, b: dict, tol: float) -> bool:
    if a["kind"] != b["kind"] or len(a["signature"]) != len(b["signature"]):
        return False
    sa, sb = np.array(a["signature"]), np.array(b["signature"])
    if np.abs(sa - sb).max(initial=0.0) > tol * max(1.0, np.abs(sa).max(initial=0.0)):
        return False
    if a["lam"] is None or b["lam"] is None:
        return a["lam"] is None and b["lam"] is None
    la, lb = complex(*a["lam"]), complex(*b["lam"])
    images = [lb, lb.conjugate()] + ([1.0 / lb.conjugate(), 1.0 / lb] if lb != 0 else [])
    return min(abs(la - m) for m in images) <= tol


def compare_sets(path_a: str, path_b: str) -> int:
    tol = SolverOptions().dedup_tol
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    bad = 0
    attempted = moved = 0
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            print(f"MISSING  {name}: only in {path_a if name in a else path_b}")
            bad += 1
            continue
        ca, cb = a[name], b[name]
        left = list(cb["solutions"])
        unmatched = 0
        for sol in ca["solutions"]:
            hit = next((i for i, other in enumerate(left) if _same_solution(sol, other, tol)), None)
            if hit is None:
                unmatched += 1
            else:
                left.pop(hit)
        counts = (len(ca["solutions"]), len(cb["solutions"]))
        delta = cb["starts_converged"] - ca["starts_converged"]
        attempted += ca["starts_attempted"]
        moved += abs(delta)
        ok = counts[0] == counts[1] and not unmatched and not left
        bad += not ok
        print(f"{'ok' if ok else 'DIFFER'}  {name}: solutions {counts[0]} -> {counts[1]}, "
              f"unmatched {unmatched + len(left)}, converged {ca['starts_converged']} -> "
              f"{cb['starts_converged']} ({delta:+d})")
    print(f"{len(set(a) | set(b)) - bad} of {len(set(a) | set(b))} cases match; converged starts "
          f"moved by {moved} of {attempted} attempted")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--sets", metavar="OUT.json", help="write solution sets instead of digests")
    mode.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                      help="match the solution sets of two --sets files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare_sets(*args.compare)
    if LARGE_STARTS <= solver._LANES:
        sys.exit(f"solve_digest: the benchmark-sized cases run {LARGE_STARTS} starts, no more "
                 f"than the engine's {solver._LANES} lanes, so TOTAL ALL no longer covers "
                 f"refill; raise LARGE_STARTS")
    if args.sets:
        return write_sets(args.sets)
    total = hashlib.sha256()
    _digest_cases(CASES, total)
    print(f"{total.hexdigest()}  TOTAL")
    _digest_cases(LARGE_CASES, total)
    print(f"{total.hexdigest()}  TOTAL ALL")
    redraw = hashlib.sha256()
    _digest_cases(REDRAW_CASES, redraw)
    print(f"{redraw.hexdigest()}  TOTAL REDRAW")
    dedup = hashlib.sha256()
    _digest_cases(DEDUP_CASES, dedup)
    print(f"{dedup.hexdigest()}  TOTAL DEDUP")
    refine = hashlib.sha256()
    _digest_cases(REFINE_CASES, refine)
    print(f"{refine.hexdigest()}  TOTAL REFINE")
    return 0


if __name__ == "__main__":
    sys.exit(main())
