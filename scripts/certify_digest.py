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
permuted and its rescaled copy) and goes only into TOTAL 7C.  TOTAL EXACT
covers every other exact input and TOTAL FLOAT every float input, so these
two compare with earlier versions of this script.

Every input lies in the range the float tolerance of earlier versions
handled: exact entries below the largest float and float copies with
max|Γ| in [1e-3, 1e3].  So the totals also compare against those versions.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
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
    return out


def report_digest(gammas: tuple) -> str:
    try:
        text = repr(verdict(VorticitySet(gammas)))
    except Exception as exc:  # a raising call hashes as its exception type
        text = f"raised {type(exc).__name__}"
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    totals = {"7C": hashlib.sha256(), "EXACT": hashlib.sha256(), "FLOAT": hashlib.sha256()}
    for name, tuples in groups():
        group = hashlib.sha256()
        for gammas in tuples:
            digest = report_digest(gammas).encode()
            group.update(digest)
            if name == CRITERION_7C:
                totals["7C"].update(digest)
            else:
                totals["FLOAT" if isinstance(gammas[0], float) else "EXACT"].update(digest)
        print(f"{group.hexdigest()}  {name} ({len(tuples)} inputs)")
    for label, total in totals.items():
        print(f"{total.hexdigest()}  TOTAL {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
