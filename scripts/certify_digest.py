"""Print one SHA-256 of ``repr(verdict(v))`` per group of fixed five-vortex inputs.

Two checkouts whose ``verdict`` returns identical reports print the same
totals, so a change to the certification path can be checked for
byte-identical reports by running this script on both and comparing the
TOTAL lines:

    python scripts/certify_digest.py

The inputs are the certify benchmark calls of seed 0, rounds 0 to 3
(``perfbench.inputs.round_calls``: exact rationals over scales 10^-400 to
10^140, and float copies at unit scale), and the random rationals of the
brute-force matching test, exact, at scales 10^-100, 1 and 10^100.  A call
that raises hashes as the name of its exception.  A last group holds the
3000 exact inputs of acceptance criterion 7c (rng seed 102: each tuple, its
permuted and its rescaled copy) and goes only into TOTAL 7C.  Another holds
float tuples at the edge of the zero rule and goes only into TOTAL EDGE: for
each of the 31 Γ_J and 26 L_J, tuples with max|Γ| = 1 whose Γ_J or L_J is
±0.5e-9 (inside the 1e-9 tolerance, so it counts as zero) or ±2e-9 (outside
it).  TOTAL EXACT covers every other exact input and TOTAL FLOAT every other
float input, so these two compare with earlier versions of this script.

Every input lies in the range the float tolerance of earlier versions
handled: exact entries below the largest float and float copies with
max|Γ| in [1e-3, 1e3].  So the totals also compare against those versions.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from vortexcc import VorticitySet, verdict  # noqa: E402

CERTIFY_SEED = 0
CERTIFY_ROUNDS = range(4)
ORACLE_SCALES = (-100, 0, 100)
CRITERION_7C = "criterion 7c seed 102 exact"
EDGE_SEED = 61
EDGE = f"zero-rule edges seed {EDGE_SEED} float"
EDGE_VALUES = (0.5e-9, -0.5e-9, 2e-9, -2e-9)  # Γ_J or L_J over max|Γ|, or max|Γ|^2


def oracle_rationals() -> list:
    """The 25 tuples of test_matching_on_random_rationals_agrees_with_brute_force."""
    rng = np.random.default_rng(17)
    tuples = []
    for _ in range(25):
        vals = []
        while len(vals) < 5:
            x = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
            if x != 0:
                vals.append(x)
        tuples.append(tuple(vals))
    return tuples


def criterion_7c_inputs() -> list:
    """Criterion 7c's 1000 tuples with Γ != 0, each followed by its permuted and rescaled copy."""
    rng = np.random.default_rng(102)
    inputs = []
    while len(inputs) < 3000:
        gammas = []
        while len(gammas) < 5:
            x = Fraction(int(rng.integers(-10**4, 10**4 + 1)), int(rng.integers(1, 100)))
            if x != 0:
                gammas.append(x)
        if sum(gammas) == 0:  # the test skips these draws
            continue
        perm = rng.permutation(5)
        scale = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        inputs += [tuple(gammas), tuple(gammas[i] for i in perm), tuple(scale * g for g in gammas)]
    return inputs


def edge_inputs() -> list:
    """Per J, then Γ_J before L_J, then per edge value: one float tuple with that relation.

    The other strengths are random k/K for integers 0 < |k| <= 1000, K the
    largest |k|, so max|Γ| = 1.0; entry J[-1] is solved for so that Γ_J, or
    L_J, equals the edge value.  A draw is redone unless 0 < |entry| < 1.
    """
    rng = np.random.default_rng(EDGE_SEED)
    inputs = []
    for J in sorted(J for r in range(1, 6) for J in combinations(range(5), r)):
        j, rest = J[-1], J[:-1]
        for momentum in (False, True)[:len(J)]:
            for value in EDGE_VALUES:
                while True:
                    k = [int(a) for a in rng.integers(1, 1001, size=5) * rng.choice((-1, 1), size=5)]
                    top = max(abs(a) for i, a in enumerate(k) if i != j)
                    g = [a / top for a in k]
                    total = sum(g[i] for i in rest)
                    if not momentum:
                        g[j] = value - total
                    elif total:
                        g[j] = (value - sum(g[a] * g[b] for a, b in combinations(rest, 2))) / total
                    else:
                        continue
                    if 0 < abs(g[j]) < 1:
                        break
                inputs.append(tuple(g))
    return inputs


def groups() -> list:
    """(group name, tuples) pairs; a group holds only exact or only float tuples."""
    from perfbench.inputs import round_calls

    out = []
    for r in CERTIFY_ROUNDS:
        calls = round_calls("certify", CERTIFY_SEED, r)
        for kind, is_float in (("exact", False), ("float", True)):
            out.append((f"certify seed {CERTIFY_SEED} round {r} {kind}",
                        [c.gammas for c in calls if c.is_float == is_float]))
    for exp in ORACLE_SCALES:
        scale = Fraction(10) ** exp
        out.append((f"oracle rationals * 10^{exp} exact",
                    [tuple(g * scale for g in t) for t in oracle_rationals()]))
    out.append((CRITERION_7C, criterion_7c_inputs()))
    out.append((EDGE, edge_inputs()))
    return out


def report_digest(gammas: tuple) -> str:
    try:
        text = repr(verdict(VorticitySet(gammas)))
    except Exception as exc:  # a raising call hashes as its exception type
        text = f"raised {type(exc).__name__}"
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    totals = {label: hashlib.sha256() for label in ("7C", "EXACT", "FLOAT", "EDGE")}
    own = {CRITERION_7C: "7C", EDGE: "EDGE"}  # groups with a total of their own
    for name, tuples in groups():
        group = hashlib.sha256()
        for gammas in tuples:
            digest = report_digest(gammas).encode()
            group.update(digest)
            label = own.get(name, "FLOAT" if isinstance(gammas[0], float) else "EXACT")
            totals[label].update(digest)
        print(f"{group.hexdigest()}  {name} ({len(tuples)} inputs)")
    for label, total in totals.items():
        print(f"{total.hexdigest()}  TOTAL {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
