"""Print one SHA-256 of ``repr(report)`` per fixed solver case, then their total.

Two checkouts whose solvers return identical reports print the same totals,
so a refactor of the solver or the kernels can be checked for byte-identical
results by running this script on both and comparing the TOTAL lines:

    python scripts/solve_digest.py

The first TOTAL covers the quick cases below.  The benchmark-sized cases
after it run 1000 starts each: they fill and refill every lane of the
stacked Newton engine and give the deduplication scan long lists of kept
solutions.  TOTAL ALL covers those two groups.  The last group runs each
search with ``start_min_gap=0.5``, where many start disks are too tight and
are redrawn, so the start draw takes its start-by-start path; TOTAL REDRAW
covers that group alone.

The cases cover the four searches (central physical, central complex,
equilibria, rigid translation), N = 2..5, the continuum tuples (1, 1, -1/2)
and (2, 2, 2, 2, -1), the gated empty reports (L != 0, Γ != 0, with float
and exact strengths), and ``newton_refine`` in both regimes, converging and
stopped at the collision guard.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from vortexcc import (  # noqa: E402
    SolverOptions,
    VorticitySet,
    newton_refine,
    solve_central_multistart,
    solve_equilibria,
    solve_rigid_translation,
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


LARGE_CASES = (
    ("central physical N=5, 1000 starts",
     lambda: solve_central_multistart(_v(1.0, -2.0, 3.0, 0.5, 1.5), starts=1000, seed=7)),
    ("central complex N=4, 1000 starts",
     lambda: solve_central_multistart(_v(1.0, 2.0, 3.0, -1.5), regime="complex",
                                      starts=1000, seed=7)),
    ("central physical (1,1,-1/2), 1000 starts",
     lambda: solve_central_multistart(_v(1.0, 1.0, -0.5), starts=1000, seed=7)),
    ("equilibria (1,1,-1/2), 1000 starts",
     lambda: solve_equilibria(_v(1.0, 1.0, -0.5), starts=1000, seed=7)),
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


def _digest_cases(cases, total) -> None:
    for name, run in cases:
        digest = hashlib.sha256(repr(run()).encode()).hexdigest()
        total.update(digest.encode())
        print(f"{digest}  {name}")


def main() -> int:
    total = hashlib.sha256()
    _digest_cases(CASES, total)
    print(f"{total.hexdigest()}  TOTAL")
    _digest_cases(LARGE_CASES, total)
    print(f"{total.hexdigest()}  TOTAL ALL")
    redraw = hashlib.sha256()
    _digest_cases(REDRAW_CASES, redraw)
    print(f"{redraw.hexdigest()}  TOTAL REDRAW")
    return 0


if __name__ == "__main__":
    sys.exit(main())
