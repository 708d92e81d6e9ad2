"""Seeded input generation for the benchmark workloads.

Every input depends only on (workload, seed, round index), so the same seed
gives the same calls in the same order whatever the run length.  A round is a
fixed pattern of call slots; the timed loop weights every slot equally, so a
run cut in the middle of a round reports the same mix as a run that is not.

On the solve workloads the seed draws the start seeds of every call, while
the strength tuples of round r are the same for every seed.  A 1000-start
call takes seconds, so a run sees only a handful of tuples, and tuple-to-tuple
cost differences of 10-30% would otherwise swamp the run-to-run comparison.
On certify a run makes thousands of calls, and the seed draws everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count

import numpy as np

SOLVE_STARTS = 1000
EQUILIBRIA_STARTS = 200
CALIBRATION_STARTS = 100
# Generic tuples keep every |Γ_J| and |L| at least this share of their scale;
# near-degenerate tuples converge far more slowly and would dominate the spread.
DEGENERACY_MARGIN = 0.2
MAGNITUDES = (0.5, 2.0)
CERTIFY_ROUND = 256
ROBERTS = (2, 2, 2, 2, -1)

GENERATOR_PARAMS = {
    "solve_starts": SOLVE_STARTS,
    "equilibria_starts": EQUILIBRIA_STARTS,
    "calibration": {"gammas": [1, 1, 1], "starts": CALIBRATION_STARTS, "seed": 0},
    "degeneracy_margin": DEGENERACY_MARGIN,
    "magnitudes": list(MAGNITUDES),
    "rounds": {
        "solve-isolated": "physical N=3,5,4 generic mixed-sign",
        "solve-complex": "complex N=3,4,3 generic mixed-sign",
        "solve-continuum": "physical+equilibria N=3 L=0, physical Roberts (2,2,2,2,-1), "
                           "physical+equilibria N=4 L=0",
        "certify": f"{CERTIFY_ROUND} verdicts on five small-integer rationals, "
                   "16-slot pattern of scale class, float copy and planted family; "
                   "scales 10^[-2,2] (exact and float), 10^[3,12], 10^[-12,-3], "
                   "10^[100,140], 10^[-400,-330] (exact only)",
        "certify_known_defect_probes": "exact (1,2,3,5,7)*10^400, float (1,2,3,5,7)*1e-5",
    },
}


@dataclass(frozen=True)
class SolveCall:
    api: str            # "solve_central_multistart" | "solve_equilibria"
    gammas: tuple
    regime: str         # "physical" | "complex"
    starts: int
    seed: int
    slot: int

    @property
    def items(self) -> int:
        return self.starts


@dataclass(frozen=True)
class VerdictCall:
    gammas: tuple       # what the program receives: Fractions, or floats for float copies
    drawn: tuple        # the unscaled rational the input was drawn from
    scale_exp: int      # input = drawn * 10**scale_exp (then converted if a float copy)
    planted: str | None
    slot: int
    api: str = "verdict"
    items: int = 1

    @property
    def is_float(self) -> bool:
        return isinstance(self.gammas[0], float)


CALIBRATION = SolveCall("solve_central_multistart", (1, 1, 1), "physical",
                        CALIBRATION_STARTS, 0, -1)
CERTIFY_WARMUP = VerdictCall(tuple(Fraction(g) for g in (1, 2, 3, 5, 7)),
                             tuple(Fraction(g) for g in (1, 2, 3, 5, 7)), 0, None, -1)

# ---------------------------------------------------------------------------
# Solve workloads
# ---------------------------------------------------------------------------


def _subset_sums_and_momentum(g):
    n = len(g)
    sums = [sum(g[j] for j in J) for r in range(1, n + 1) for J in combinations(range(n), r)]
    pairs = [g[a] * g[b] for a, b in combinations(range(n), 2)]
    return sums, pairs


def generic_tuple(rng: np.random.Generator, n: int) -> tuple:
    """Mixed-sign strengths with every Γ_J and L bounded away from zero."""
    while True:
        g = rng.uniform(*MAGNITUDES, n) * rng.choice((-1.0, 1.0), n)
        if (g > 0).all() or (g < 0).all():
            continue
        sums, pairs = _subset_sums_and_momentum(g)
        if min(abs(s) for s in sums) < DEGENERACY_MARGIN * abs(g).max():
            continue
        if abs(sum(pairs)) < DEGENERACY_MARGIN * sum(abs(p) for p in pairs):
            continue
        return tuple(float(x) for x in g)


def _quarter(rng: np.random.Generator) -> Fraction:
    """A signed rational in [1/2, 2] with denominator 4."""
    return Fraction(int(rng.integers(2, 9)), 4) * int(rng.choice((-1, 1)))


def zero_momentum_tuple(rng: np.random.Generator, n: int) -> tuple:
    """Exact strengths with L = 0: the last one is solved from the others."""
    while True:
        head = [_quarter(rng) for _ in range(n - 1)]
        total = sum(head)
        if abs(total) < Fraction(1, 2):
            continue
        momentum = sum(a * b for a, b in combinations(head, 2))
        last = -momentum / total
        top = max(abs(x) for x in head)
        if last == 0 or not top / 4 <= abs(last) <= 4 * top:
            continue
        return tuple(head) + (last,)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _central(g, regime, starts_rng, slot):
    return SolveCall("solve_central_multistart", g, regime, SOLVE_STARTS, _seed(starts_rng), slot)


def _solve_round(workload: str, tuples_rng: np.random.Generator,
                 starts_rng: np.random.Generator) -> tuple:
    if workload == "solve-isolated":
        return tuple(_central(generic_tuple(tuples_rng, n), "physical", starts_rng, slot)
                     for slot, n in enumerate((3, 5, 4)))
    if workload == "solve-complex":
        return tuple(_central(generic_tuple(tuples_rng, n), "complex", starts_rng, slot)
                     for slot, n in enumerate((3, 4, 3)))
    g3 = zero_momentum_tuple(tuples_rng, 3)
    g4 = zero_momentum_tuple(tuples_rng, 4)
    return (
        _central(g3, "physical", starts_rng, 0),
        SolveCall("solve_equilibria", g3, "physical", EQUILIBRIA_STARTS, _seed(starts_rng), 1),
        _central(ROBERTS, "physical", starts_rng, 2),
        SolveCall("solve_equilibria", g4, "physical", EQUILIBRIA_STARTS, _seed(starts_rng), 3),
        _central(g4, "physical", starts_rng, 4),
    )


# ---------------------------------------------------------------------------
# Certify workload
# ---------------------------------------------------------------------------

# Diagram ids that a planted relation must match, by the relation planted.
PLANTED_FAMILIES = {
    "gamma3": frozenset({7, 8, 17}),                      # Γ_J = 0, |J| = 3
    "gamma4": frozenset({22}),                            # Γ_J = 0, |J| = 4
    "gamma_pairs": frozenset({4, 12}),                    # two disjoint pairs with Γ_J = 0
    "momentum3": frozenset({6, 10, 16, 19, 23, 24, 25, 26}),  # L_J = 0, |J| = 3
    "momentum4": frozenset({21, 28}),                     # L_J = 0, |J| = 4
    "momentum5": frozenset({29}),                         # L = 0
}
_FAMILY_NAMES = tuple(sorted(PLANTED_FAMILIES))

# One entry per slot of a 16-item block: (scale class, float copy, planted).
# A quarter are float copies; 3/8 carry a planted relation.  Float copies
# stay in the unit class, where the float tolerance is right; the timed
# stream holds no input that a known defect fails (KNOWN_DEFECT_PROBES shows
# those).  The huge and tiny classes are exact only.
_CERTIFY_PATTERN = (
    ("unit", False, True), ("large", False, False), ("unit", False, False), ("unit", True, True),
    ("small", False, False), ("unit", False, True), ("huge", False, False), ("unit", True, False),
    ("unit", False, True), ("unit", False, False), ("unit", False, False), ("unit", True, True),
    ("tiny", False, False), ("unit", False, True), ("large", False, False), ("unit", True, False),
)
_SCALE_EXPONENTS = {
    "unit": (-2, 2),
    "large": (3, 12),
    "small": (-12, -3),
    "huge": (100, 140),
    "tiny": (-400, -330),  # below the smallest subnormal float
}


def _small_rational(rng: np.random.Generator) -> Fraction:
    return Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 5))) * int(rng.choice((-1, 1)))


def _plant(g: list, family: str, rng: np.random.Generator) -> None:
    idx = [int(i) for i in rng.permutation(5)]
    if family == "gamma_pairs":
        a, b, c, d = idx[:4]
        g[b], g[d] = -g[a], -g[c]
        return
    size = {"gamma3": 3, "gamma4": 4, "momentum3": 3, "momentum4": 4, "momentum5": 5}[family]
    *rest, last = idx[:size]
    total = sum(g[j] for j in rest)
    if family.startswith("gamma"):
        g[last] = -total
    elif total != 0:
        g[last] = -sum(g[a] * g[b] for a, b in combinations(rest, 2)) / total
    else:
        g[last] = Fraction(0)  # rejected by the caller


def certify_item(rng: np.random.Generator, slot: int) -> VerdictCall:
    scale_class, as_float, planted = _CERTIFY_PATTERN[slot % len(_CERTIFY_PATTERN)]
    family = _FAMILY_NAMES[int(rng.integers(len(_FAMILY_NAMES)))] if planted else None
    while True:
        g = [_small_rational(rng) for _ in range(5)]
        if family:
            _plant(g, family, rng)
        # The program requires nonzero strengths and Γ != 0.
        if all(x != 0 for x in g) and sum(g) != 0:
            break
    lo, hi = _SCALE_EXPONENTS[scale_class]
    exp = int(rng.integers(lo, hi + 1))
    if as_float:
        # A planted entry can exceed the drawn range; lower the scale until the
        # largest entry is below 1e3, the edge of the float tolerance's working range.
        top = max(abs(x) for x in g)
        while top * Fraction(10) ** exp > 1000:
            exp -= 1
    scaled = tuple(x * Fraction(10) ** exp for x in g)
    gammas = tuple(float(x) for x in scaled) if as_float else scaled
    return VerdictCall(gammas, tuple(g), exp, family, slot % len(_CERTIFY_PATTERN))


_DEFECT_DRAWN = tuple(Fraction(g) for g in (1, 2, 3, 5, 7))

# Inputs of the two documented certify defects (ROADMAP item 1).  They are
# checked once per certify run, outside the timed stream, and listed with
# their reasons; each is expected to fail with its known defect.
KNOWN_DEFECT_PROBES = (
    VerdictCall(tuple(g * Fraction(10) ** 400 for g in _DEFECT_DRAWN), _DEFECT_DRAWN, 400, None, -2),
    VerdictCall(tuple(float(g * Fraction(10) ** -5) for g in _DEFECT_DRAWN), _DEFECT_DRAWN, -5,
                None, -2),
)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

WORKLOADS = ("solve-isolated", "solve-complex", "solve-continuum", "certify")


def round_calls(workload: str, seed: int, index: int) -> tuple:
    """The calls of round `index`; a pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    key = WORKLOADS.index(workload)
    rng = np.random.default_rng((key, seed, index))
    if workload == "certify":
        return tuple(certify_item(rng, slot) for slot in range(CERTIFY_ROUND))
    return _solve_round(workload, np.random.default_rng((key, index)), rng)


def calls(workload: str, seed: int):
    """All calls of a workload, round after round, without end."""
    for index in count():
        yield from round_calls(workload, seed, index)
