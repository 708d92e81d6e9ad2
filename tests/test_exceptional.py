"""Catalog content, permutation matching, subset conditions, and the verdict.

The brute-force oracle below re-evaluates every clause with plain Fraction
lambdas and an independent permutation loop; the production path reads
every verdict off one vanishing-pair mask per tuple.  The two must agree on
the set of matched (diagram, clause) pairs.  The references further down
keep their own copy of the zero rule.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest

import vortexcc
from vortexcc.exactpoly import Poly
from vortexcc import exceptional
from vortexcc.quantities import VorticitySet
from vortexcc.exceptional import (
    CatalogMatch,
    Relation,
    SubsetCheck,
    TotalVorticityZeroError,
    _CONDITIONS,
    _MASK_PAIRS,
    _PERMUTATIONS,
    _PLANS,
    _PREIMAGES,
    _candidates,
    _clause_masks,
    _normalized,
    _subset_table,
    catalog,
    catalog_records,
    check_subset_conditions,
    evaluate_diagram_constraints,
    verdict,
)


_spec = importlib.util.spec_from_file_location(
    "certify_digest", Path(__file__).resolve().parents[1] / "scripts" / "certify_digest.py")
certify_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(certify_digest)


def F5(*vals):
    return VorticitySet(tuple(Fraction(v) for v in vals))


# ---------------------------------------------------------------------------
# Independent clause oracle: one lambda per clause, straight from the tables.
# ---------------------------------------------------------------------------

def _s(g, *i):
    return sum(g[j - 1] for j in i)


def _l(g, *i):
    return sum(g[a - 1] * g[b - 1] for a, b in combinations(sorted(i), 2))


def _lall(g):
    return _l(g, 1, 2, 3, 4, 5)


ORACLE = {
    (1, 0): lambda g: (_s(g, 1, 2, 5) == 0 and _s(g, 1, 2) == _s(g, 3, 4)
                       and _s(g, 1, 2) != 0),
    (1, 1): lambda g: (g[0] * g[1] == _l(g, 3, 4, 5) and g[2] * g[3] == _l(g, 1, 2, 5)
                       and _lall(g) == 0 and _s(g, 1, 2) != 0 and _s(g, 3, 4) != 0),
    (2, 0): lambda g: (_s(g, 3, 4, 5) == 0 and _s(g, 1, 2) == g[4]
                       and _s(g, 1, 2) != 0 and _s(g, 3, 4) != 0),
    (3, 0): lambda g: _s(g, 3, 4, 5) == 0 and _s(g, 1, 2) != 0,
    (3, 1): lambda g: (g[0] * g[1] == _l(g, 3, 4, 5) and _lall(g) == 0
                       and _s(g, 1, 2) != 0),
    (4, 0): lambda g: _s(g, 1, 2) == 0 and _s(g, 3, 4) == 0,
    (5, 0): lambda g: g[0] * g[2] == g[1] * g[3],
    (6, 0): lambda g: _l(g, 1, 2, 3) == 0,
    (7, 0): lambda g: _s(g, 1, 2, 3) == 0,
    (8, 0): lambda g: _s(g, 1, 2, 3) == 0,
    (9, 0): lambda g: _l(g, 1, 2, 4) == 0 and _l(g, 1, 3, 4) == 0,
    (10, 0): lambda g: _l(g, 1, 2, 4) == 0,
    (11, 0): lambda g: g[1] == g[2] and _s(g, 1, 4) == g[4],
    (12, 0): lambda g: _s(g, 1, 2) == 0 and _s(g, 4, 5) == 0,
    (13, 0): lambda g: _l(g, 1, 2, 3) == 0 and _l(g, 1, 4, 5) == 0,
    (14, 0): lambda g: (g[0] == _s(g, 2, 3) and _l(g, 1, 2, 3) == 0
                        and _s(g, 4, 5) != 0),
    (14, 1): lambda g: (_l(g, 1, 4, 5) == 0 and _lall(g) == 0
                        and _l(g, 1, 2, 3) == 0 and _s(g, 4, 5) != 0),
    (15, 0): lambda g: (g[0] == _s(g, 4, 5) and g[0] == _s(g, 2, 3)
                        and _s(g, 2, 3) != 0),
    (15, 1): lambda g: (_lall(g) == 0 and _l(g, 1, 4, 5) == _l(g, 1, 2, 3)
                        and _s(g, 2, 3) != 0 and _s(g, 4, 5) != 0),
    (16, 0): lambda g: _l(g, 1, 2, 3) == 0,
    (17, 0): lambda g: _s(g, 1, 2, 3) == 0,
    (18, 0): lambda g: _l(g, 1, 3, 5) == 0 and _l(g, 1, 2, 3, 4) == 0,
    (19, 0): lambda g: _l(g, 1, 3, 5) == 0,
    (20, 0): lambda g: _l(g, 1, 2, 3, 4) == 0 and _s(g, 2, 4) == 0,
    (21, 0): lambda g: _l(g, 1, 2, 3, 4) == 0,
    (22, 0): lambda g: _s(g, 1, 2, 3, 4) == 0,
    (23, 0): lambda g: _l(g, 1, 2, 3) == 0,
    (24, 0): lambda g: _l(g, 1, 2, 3) == 0,
    (25, 0): lambda g: _l(g, 1, 2, 3) == 0,
    (26, 0): lambda g: _l(g, 1, 2, 3) == 0,
    (27, 0): lambda g: _l(g, 1, 2, 3, 4) == 0 and _l(g, 1, 2, 3, 5) == 0,
    (28, 0): lambda g: _l(g, 1, 2, 3, 4) == 0,
    (29, 0): lambda g: _lall(g) == 0,
}


def brute_force_matched_clauses(v: VorticitySet) -> set:
    hits = set()
    for key, pred in ORACLE.items():
        for sigma in permutations(v.gammas):
            if pred(list(sigma)):
                hits.add(key)
                break
    return hits


# ---------------------------------------------------------------------------
# Catalog content
# ---------------------------------------------------------------------------


def test_catalog_has_29_entries():
    entries = catalog()
    assert len(entries) == 29
    assert [d.id for d in entries] == list(range(1, 30))
    assert all(d.clauses for d in entries)


def test_catalog_oracle_covers_every_clause():
    keys = {(d.id, ci) for d in catalog() for ci in range(len(d.clauses))}
    assert keys == set(ORACLE)


def test_entry_5_and_29_polynomials():
    entries = {d.id: d for d in catalog()}
    five = entries[5].clauses
    assert len(five) == 1 and len(five[0].equalities) == 1
    assert str(five[0].equalities[0]) == "g1*g3 - g2*g4"
    twenty_nine = entries[29].clauses
    assert len(twenty_nine) == 1
    # full pairwise momentum, ten terms
    assert len(twenty_nine[0].equalities[0].poly().terms) == 10


def test_lambda_branches_recorded():
    entries = {d.id: d for d in catalog()}
    assert [c.lambda_branch for c in entries[1].clauses] == ["pm1", "pmi"]
    assert [c.lambda_branch for c in entries[2].clauses] == ["pm1"]
    assert [c.lambda_branch for c in entries[15].clauses] == ["pm1", "pmi"]


def test_catalog_records_roundtrip():
    import json

    records = catalog_records()
    assert len(records) == 29
    doc = json.loads(json.dumps(records))
    assert doc[4]["clauses"][0]["equalities"] == ["g1*g3 - g2*g4"]
    for rec in doc:
        assert set(rec) == {"id", "strokes", "circles", "symmetry_note", "clauses"}


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def test_roberts_masses_match_5_and_6():
    ms = evaluate_diagram_constraints(F5(2, 2, 2, 2, -1))
    ids = {m.diagram_id for m in ms}
    assert {5, 6} <= ids


def test_matching_agrees_with_brute_force():
    tuples = [
        (2, 2, 2, 2, -1),
        (1, -1, 2, 3, 4),
        (1, 1, 1, 1, 1),
        (1, 2, 3, 4, 5),
        (Fraction(1, 2), Fraction(-1, 3), 2, 1, -1),
        (3, -1, -1, -1, 2),
        (1, 1, -2, 4, 4),
    ]
    for vals in tuples:
        v = F5(*vals)
        got = {(m.diagram_id, m.clause_index) for m in evaluate_diagram_constraints(v)}
        assert got == brute_force_matched_clauses(v), vals


def test_matching_on_random_rationals_agrees_with_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(25):
        vals = []
        while len(vals) < 5:
            x = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
            if x != 0:
                vals.append(x)
        v = VorticitySet(tuple(vals))
        got = {(m.diagram_id, m.clause_index) for m in evaluate_diagram_constraints(v)}
        assert got == brute_force_matched_clauses(v)


def test_inequations_rule_out_clauses():
    # Diagram 2 requires Γ_1+Γ_2 != 0; choose values where the equalities
    # hold but that side condition fails: g = (t, -t, a, b, c) with
    # a+b+c = 0 and t - t = 0 = g5 fails... use explicit: equalities
    # Γ3+Γ4+Γ5 = 0 and Γ1+Γ2 = Γ5 with Γ1+Γ2 = 0 means Γ5 = 0, impossible;
    # instead hit diagram 1 clause 0: Γ1+Γ2+Γ5=0, Γ1+Γ2=Γ3+Γ4, need Γ1+Γ2 != 0.
    v = F5(1, -1, 2, -2, 3)  # σ = identity: Γ1+Γ2 = 0 so clause must NOT match via it
    ms = evaluate_diagram_constraints(v)
    for m in ms:
        if m.diagram_id == 1 and m.clause_index == 0:
            sigma = m.permutation
            g = [v.gammas[i - 1] for i in sigma]
            assert g[0] + g[1] != 0
    # and the brute force agrees overall
    got = {(m.diagram_id, m.clause_index) for m in ms}
    assert got == brute_force_matched_clauses(v)


def test_matches_deduplicated_up_to_clause_symmetry():
    # all-ones: Γ_aΓ_c = Γ_bΓ_d matches; distinct unordered instantiations are
    # C(5,4) * 3 = 15, each reported once
    ms = evaluate_diagram_constraints(F5(1, 1, 1, 1, 1))
    assert all(m.diagram_id == 5 for m in ms)
    assert len(ms) == 15
    assert len({(m.diagram_id, m.clause_index, m.permutation) for m in ms}) == 15


@pytest.mark.parametrize("vals, count, diagrams", [
    ((1, 1, 1, 1, 2), 15, {5, 11, 15}),
    ((2, 2, 2, 2, -1), 66, {5, 6, 9, 10, 13, 16, 19, 23, 24, 25, 26}),
])
def test_equal_strengths_merge_relabellings(vals, count, diagrams):
    ms = evaluate_diagram_constraints(F5(*vals))
    assert len(ms) == count
    assert {m.diagram_id for m in ms} == diagrams


def test_float_inputs_use_tolerance():
    exact = {(m.diagram_id, m.clause_index)
             for m in evaluate_diagram_constraints(F5(2, 2, 2, 2, -1))}
    approx = {(m.diagram_id, m.clause_index)
              for m in evaluate_diagram_constraints(VorticitySet((2.0, 2.0, 2.0, 2.0, -1.0)))}
    assert exact == approx
    # a near-miss inside the tolerance band still matches on the float path
    eps = 1e-12
    near = {(m.diagram_id, m.clause_index)
            for m in evaluate_diagram_constraints(VorticitySet((2.0 + eps, 2.0, 2.0, 2.0, -1.0)))}
    assert (5, 0) in near


def test_wrong_count_rejected():
    with pytest.raises(ValueError, match="exactly 5"):
        evaluate_diagram_constraints(VorticitySet((1, 2, 3)))
    with pytest.raises(ValueError, match="exactly 5"):
        check_subset_conditions(VorticitySet((1, 2, 3, 4, 5, 6)))


# ---------------------------------------------------------------------------
# Subset conditions and verdict
# ---------------------------------------------------------------------------


def test_subset_conditions_examples():
    assert check_subset_conditions(F5(1, 1, 1, 1, 1)).passed

    fail = check_subset_conditions(F5(2, 2, 2, 2, -1))
    assert not fail.passed
    assert fail.witness == (1, 2, 5)
    assert fail.witness_kind == "vanishing_pair_momentum"

    fail = check_subset_conditions(F5(1, -1, 2, 3, 4))
    assert not fail.passed
    assert fail.witness == (1, 2)
    assert fail.witness_kind == "vanishing_sum"


def test_subset_conditions_brute_force_witness_order():
    # lexicographically first violating subset, sums checked before momenta
    v = F5(2, 2, 2, 2, -1)
    subsets = []
    for r in range(1, 6):
        subsets.extend(combinations(range(1, 6), r))
    first = None
    for J in sorted(subsets):
        g = [v.gammas[j - 1] for j in J]
        if sum(g) == 0:
            first = (J, "vanishing_sum")
            break
        if len(J) >= 2 and sum(a * b for a, b in combinations(g, 2)) == 0:
            first = (J, "vanishing_pair_momentum")
            break
    check = check_subset_conditions(v)
    assert (check.witness, check.witness_kind) == first


def test_verdict_examples():
    assert verdict(F5(1, 1, 1, 1, 1)).verdict == "certified_finite"
    assert verdict(F5(2, 2, 2, 2, -1)).verdict == "exceptional_suspect"
    # exhaustive subset check: all 31 sums and 26 momenta nonzero
    assert verdict(F5(1, 2, 3, 4, 5)).verdict == "certified_finite"


def test_verdict_requires_nonzero_total():
    with pytest.raises(TotalVorticityZeroError):
        verdict(F5(1, -1, 2, 3, -5))


def test_mixed_verdict_names_a_strength_beyond_the_float_range():
    # A tuple with a float entry is decided in floats; float() of the huge
    # rational raised OverflowError once.
    for v in (VorticitySet((Fraction(10**400, 1), 2.0, 3.0, 5.0, 7.0)),
              VorticitySet((1.0, 2, 3, 5, 10**400))):
        with pytest.raises(ValueError, match="beyond the float range"):
            verdict(v)


def test_verdict_flags_float_path_as_approximate():
    rep = verdict(VorticitySet((1.0, 1.0, 1.0, 1.0, 1.0)))
    assert rep.approximate
    assert not verdict(F5(1, 1, 1, 1, 1)).approximate


def _random_rational_tuple(rng):
    vals = []
    while len(vals) < 5:
        x = Fraction(int(rng.integers(-10**6, 10**6 + 1)), int(rng.integers(1, 1000)))
        if x != 0:
            vals.append(x)
    return VorticitySet(tuple(vals))


def test_permutation_and_scaling_invariance():
    rng = np.random.default_rng(23)
    for _ in range(50):
        v = _random_rational_tuple(rng)
        base = {(m.diagram_id, m.clause_index) for m in evaluate_diagram_constraints(v)}
        base_verdict = verdict(v).verdict if sum(v.gammas) != 0 else None
        perm = rng.permutation(5)
        vp = VorticitySet(tuple(v.gammas[i] for i in perm))
        got = {(m.diagram_id, m.clause_index) for m in evaluate_diagram_constraints(vp)}
        assert got == base
        for c in (Fraction(3), Fraction(-2, 7)):
            vs = VorticitySet(tuple(c * g for g in v.gammas))
            got = {(m.diagram_id, m.clause_index) for m in evaluate_diagram_constraints(vs)}
            assert got == base
            if base_verdict is not None:
                assert verdict(vs).verdict == base_verdict


def test_subset_pass_excludes_momentum_type_catalog_matches():
    # generic random rationals: when the subset conditions pass, the
    # continuum-supporting diagrams 5 and 6 do not match
    rng = np.random.default_rng(29)
    passed = 0
    for _ in range(200):
        v = _random_rational_tuple(rng)
        if sum(v.gammas) == 0 or not check_subset_conditions(v).passed:
            continue
        passed += 1
        ids = {m.diagram_id for m in evaluate_diagram_constraints(v)}
        assert 6 not in ids  # L_J = 0 would contradict the subset pass
        assert 5 not in ids  # products collide only on a measure-zero set
    assert passed > 100


def test_exact_path_is_reproducible():
    v = F5(2, 2, 2, 2, -1)
    a = evaluate_diagram_constraints(v)
    b = evaluate_diagram_constraints(v)
    assert a == b
    assert verdict(v) == verdict(v)


# ---------------------------------------------------------------------------
# Scale invariance (regressions for the two defects of raw-unit evaluation)
# ---------------------------------------------------------------------------

BASE = (1, 2, 3, 5, 7)
FLOAT_SCALES = (-300, -12, -5, 0, 5, 12, 300)


def test_exact_report_is_the_same_at_every_scale():
    # Exact entries beyond the float range raised OverflowError once.
    base = verdict(F5(*BASE))
    for exp in (400, -400):
        scaled = F5(*(g * Fraction(10) ** exp for g in BASE))
        assert verdict(scaled) == base, exp


def test_float_report_is_the_same_at_every_scale():
    # At 1e-5 an absolute tolerance floor once made this tuple exceptional-suspect.
    base = verdict(VorticitySet(tuple(float(g) for g in BASE)))
    assert base.verdict == "certified_finite"
    for k in FLOAT_SCALES:
        scaled = VorticitySet(tuple(g * 10.0 ** k for g in BASE))
        assert verdict(scaled) == base, k


def test_float_total_near_zero_raises_at_every_scale():
    nearly_balanced = (1.0, 2.0, 3.0, 5.0, -11.0 * (1 + 1e-12))
    for k in FLOAT_SCALES:
        with pytest.raises(TotalVorticityZeroError):
            verdict(VorticitySet(tuple(g * 10.0 ** k for g in nearly_balanced)))


def test_float_entry_below_relative_resolution_counts_as_zero():
    # 1e-200 / 1e200 underflows to 0.0: that entry is zero relative to max|Γ|.
    report = verdict(VorticitySet((1e-200, 1e200, 2.0, 3.0, 5.0)))
    assert report.verdict == "exceptional_suspect"
    assert report.subset_check.witness == (1,)


def _wide_scale_tuples(rng):
    """Exact tuples with entries from 10^-400 to 10^400, some carrying relations."""
    big, tiny = Fraction(10) ** 400, Fraction(10) ** -400
    tuples = [
        (big, 1, 2 * tiny, 2, 3),                    # g1*g3 = g2*g4 across scales
        (3 * big, -3 * big, tiny, -2 * tiny, 5),     # Γ_12 = 0
        (tiny, -tiny, 2, -2, big),                   # two disjoint vanishing pairs
        (tiny, tiny, Fraction(1, 3) * tiny, 1, big),
        (big, big, big, -2 * big, tiny),
    ]
    for _ in range(10):
        scales = [big, tiny] + [(big, 1, tiny)[int(rng.integers(3))] for _ in range(3)]
        vals = []
        while len(vals) < 5:
            x = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
            if x != 0:
                vals.append(x)
        vals = [x * scales[i] for x, i in zip(vals, rng.permutation(5))]
        if rng.integers(2):
            vals[1] = -vals[0] if rng.integers(2) else vals[0]
        tuples.append(tuple(vals))
    return tuples


def test_wide_scale_matching_agrees_with_brute_force():
    # Divided by the largest entry, the smallest entries would underflow to
    # 0.0 in floats and their relations would blur; the primitive integer
    # vector keeps them exact.
    rng = np.random.default_rng(41)
    for vals in _wide_scale_tuples(rng):
        v = VorticitySet(vals)
        assert float(min(abs(g) for g in vals) / max(abs(g) for g in vals)) == 0.0
        got = {(m.diagram_id, m.clause_index) for m in evaluate_diagram_constraints(v)}
        assert got == brute_force_matched_clauses(v), vals
        subsets = [J for r in range(1, 6) for J in combinations(vals, r)]
        holds = all(sum(J) != 0 and (len(J) < 2 or sum(a * b for a, b in combinations(J, 2)) != 0)
                    for J in subsets)
        assert check_subset_conditions(v).passed == holds, vals


CATALOG_POLYS = [p.poly() for d in catalog() for cl in d.clauses for p in cl.equalities + cl.inequations]


def test_exact_tuple_is_decided_in_python_ints():
    n = _normalized(F5(Fraction(1, 3), Fraction(-2, 7), 5, Fraction(10) ** 400, Fraction(3, 2)))
    assert all(type(g) is int for g in n.gammas)
    for p in CATALOG_POLYS:
        assert type(p.evaluate(n.gammas)) is int


def test_numpy_integers_are_decided_as_python_ints():
    # As int64, 2**32 * 2**32 wraps to 0: a false witness L_12 = 0 and an overflow warning.
    vals = (2**32, 2**32, 3, 5, 7)
    v = VorticitySet(tuple(np.int64(g) for g in vals))
    assert all(type(g) is int for g in v.gammas)
    report = verdict(v)
    assert report.verdict == "certified_finite"
    assert repr(report) == repr(verdict(VorticitySet(vals)))


def test_poly_rejects_non_integer_coefficients():
    for coeff in (Fraction(1, 2), Fraction(2), 0.5, 2.0):
        with pytest.raises(ValueError, match="non-integer"):
            Poly(5, ((coeff, (0,)),))


def test_permuted_evaluates_at_the_pulled_back_tuple():
    rng = np.random.default_rng(7)
    x = tuple(int(a) for a in rng.integers(-50, 51, size=5))
    assert len(CATALOG_POLYS) == 63
    for p in CATALOG_POLYS:
        for sigma in permutations(range(5)):
            pulled = tuple(x[i] for i in sigma)
            assert p.permuted(sigma).evaluate(x) == p.evaluate(pulled), (str(p), sigma)


def test_catalog_records_bytes_are_pinned():
    text = json.dumps(catalog_records(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "63cdb192232681170e7700541ef5d5b1d27f43e0dec715960dbc2328b59092cc"


# ---------------------------------------------------------------------------
# Subset table and anchors against the all-120 loop
# ---------------------------------------------------------------------------


def vanishes(n, value) -> bool:
    """The references' own zero rule on a normalized tuple: exactly 0, or within 1e-9 for floats."""
    return value == 0 if n.exact else abs(value) <= 1e-9


def reference_matches(v: VorticitySet) -> list:
    """Every clause under every relabelling, each polynomial evaluated, keys from Poly.permuted."""
    n = _normalized(v)
    matches, seen = [], set()
    for d in catalog():
        for ci, cl in enumerate(d.clauses):
            eqs, neqs = [p.poly() for p in cl.equalities], [p.poly() for p in cl.inequations]
            for sigma in permutations(range(5)):
                g = tuple(n.gammas[i] for i in sigma)
                if not all(vanishes(n, p.evaluate(g)) for p in eqs):
                    continue
                if any(vanishes(n, p.evaluate(g)) for p in neqs):
                    continue
                key = (d.id, ci,
                       frozenset(p.permuted(sigma).sign_canonical() for p in eqs),
                       frozenset(p.permuted(sigma).sign_canonical() for p in neqs))
                if key not in seen:
                    seen.add(key)
                    matches.append(CatalogMatch(d.id, ci, cl.lambda_branch,
                                                tuple(s + 1 for s in sigma)))
    return matches


SUBSETS = sorted(J for r in range(1, 6) for J in combinations(range(5), r))
# The subset check's 57 conditions in its order: (J, whether it is L_J).
RELATIONS = [(J, momentum) for J in SUBSETS for momentum in (False, True)
             if len(J) > momentum]


def reference_subset_check(v: VorticitySet) -> SubsetCheck:
    """The subset check as a loop: J lexicographic, Γ_J before L_J, the first that vanishes fails.

    Γ_J and L_J are summed in the order of the subset table, so float sums
    agree with it bit for bit.
    """
    n = _normalized(v)
    for J, momentum in RELATIONS:
        g = [n.gammas[j] for j in J]
        value = sum(a * b for a, b in combinations(g, 2)) if momentum else sum(g)
        if vanishes(n, value):
            kind = "vanishing_pair_momentum" if momentum else "vanishing_sum"
            return SubsetCheck(False, tuple(j + 1 for j in J), kind)
    return SubsetCheck(True)


def _with_zero_relation(draw, J, momentum):
    """``draw`` with entry J[-1] solved for so that Γ_J, or L_J, is 0; that entry may come out 0."""
    g, rest = list(draw), J[:-1]
    total = sum(g[i] for i in rest)
    if not momentum:
        g[J[-1]] = -total
    elif total:
        g[J[-1]] = -sum(g[a] * g[b] for a, b in combinations(rest, 2)) / total
    else:
        g[J[-1]] = 0
    return tuple(g)


def _assert_subset_check_is_the_loop(v: VorticitySet) -> SubsetCheck:
    expected = reference_subset_check(v)
    assert check_subset_conditions(v) == expected, v.gammas
    n = _normalized(v)
    if vanishes(n, sum(n.gammas)):  # Γ = 0: verdict raises, the check still names the first J
        with pytest.raises(TotalVorticityZeroError):
            verdict(v)
    else:
        assert verdict(v).subset_check == expected, v.gammas
    return expected


def test_subset_check_equals_the_loop_on_random_and_planted_exact_tuples():
    rng = np.random.default_rng(53)
    for _ in range(40):
        assert _assert_subset_check_is_the_loop(_random_rational_tuple(rng)).passed
    raised = 0
    # A lone Γ_j or a pair's L_J vanishes only with a zero strength, so it is not planted.
    for J, momentum in RELATIONS:
        if len(J) == 1 + momentum:
            continue
        vals = (0,)
        while not all(vals):
            vals = _with_zero_relation(_random_rational_tuple(rng).gammas, J, momentum)
        check = _assert_subset_check_is_the_loop(VorticitySet(vals))
        assert not check.passed and tuple(j - 1 for j in check.witness) <= J, (J, momentum)
        raised += sum(vals) == 0
    assert raised == 1  # the planted Γ_12345 = 0


def test_subset_check_equals_the_loop_at_the_float_tolerance_edge():
    # The certify digest's edge tuples, in its order: per relation, Γ_J or L_J
    # is ±0.5e-9, which vanishes, then ±2e-9, which does not.
    edges = zip(product(RELATIONS, certify_digest.EDGE_VALUES), certify_digest.edge_inputs())
    for ((J, momentum), delta), vals in edges:
        witness = (tuple(j + 1 for j in J), "vanishing_pair_momentum" if momentum else "vanishing_sum")
        for scale in (1.0, 2.0 ** -30, 2.0 ** 30):  # exact, so the normalized tuple is the same
            check = _assert_subset_check_is_the_loop(VorticitySet(tuple(g * scale for g in vals)))
            if abs(delta) < 1e-9:
                assert not check.passed and tuple(j - 1 for j in check.witness) <= J, (J, delta)
            else:
                assert (check.witness, check.witness_kind) != witness, (J, delta)


def _plant(family, a, b, c, d, e):
    """Five strengths carrying the family's relation, in catalog label order."""
    if family == "sum2":
        return (a, -a, b, c, d)
    if family == "sum3":
        return (a, b, -(a + b), c, d)
    if family == "sum4":
        return (a, b, c, -(a + b + c), d)
    if family == "two_pairs":
        return (a, -a, b, -b, c)
    if family == "sum2_and_sum3":       # Γ = 0: diagram 3's Γ_12 != 0 must rule out Γ_345 = 0
        return (a, -a, b, c, -(b + c))
    if family == "momentum3":
        return (a, b, -a * b / (a + b), c, d)
    if family == "momentum4":
        return (a, b, c, -(a * b + a * c + b * c) / (a + b + c), d)
    if family == "momentum5":
        pairs = a * b + a * c + a * d + b * c + b * d + c * d
        return (a, b, c, d, -pairs / (a + b + c + d))
    if family == "products":            # diagram 5: g1*g3 = g2*g4
        return (a, b, c, a * c / b, d)
    if family == "diagram11":           # g2 = g3 and Γ_14 = g5
        return (a, b, b, c, a + c)
    if family == "diagram15":           # g1 = Γ_23 = Γ_45 (the Λ = ±1 clause)
        return (b + c, b, c, d, b + c - d)
    if family == "sum3_fourfold":       # Γ_J = 0 on four triples, so one anchor
        return (a, a, b, -(a + b), -(a + b))  # vanishes under several images
    if family == "equal4":              # equal strengths merge the most relabellings
        return (a, a, a, a, b)
    if family == "equal2_2":
        return (a, a, b, b, c)
    raise ValueError(family)


# Family -> a diagram that its relation matches (a lone Γ_ij = 0 is in no clause).
PLANTED_FAMILIES = {
    "sum2": None, "sum3": 7, "sum4": 22, "two_pairs": 4, "sum2_and_sum3": 7, "sum3_fourfold": 7,
    "momentum3": 6, "momentum4": 21, "momentum5": 29,
    "products": 5, "diagram11": 11, "diagram15": 15,
    "equal4": 5, "equal2_2": 5,
}


def _planted_tuples(family, rng, count=3):
    out = []
    while len(out) < count:
        draw = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(5)]
        try:
            vals = _plant(family, *draw)
        except ZeroDivisionError:
            continue
        if all(vals):
            out.append(tuple(vals[i] for i in rng.permutation(5)))
    return out


@pytest.mark.parametrize("family", PLANTED_FAMILIES)
def test_table_matching_equals_the_all_120_loop(family):
    rng = np.random.default_rng(list(PLANTED_FAMILIES).index(family) + 71)
    for vals in _planted_tuples(family, rng):
        exact = reference_matches(F5(*vals))
        if PLANTED_FAMILIES[family] is not None:
            assert PLANTED_FAMILIES[family] in {m.diagram_id for m in exact}, vals
        top = max(abs(g) for g in vals)
        for copy in (F5(*vals),
                     VorticitySet(tuple(float(g) for g in vals)),
                     VorticitySet(tuple(float(g / top) for g in vals)),
                     VorticitySet(tuple(g * Fraction(10) ** 100 for g in vals)),
                     VorticitySet(tuple(g * Fraction(10) ** -100 for g in vals))):
            assert evaluate_diagram_constraints(copy) == reference_matches(copy) == exact, vals
        # The float table sums in input order, so a reordered copy rounds differently.
        reordered = VorticitySet(tuple(float(g / top) for g in reversed(vals)))
        assert evaluate_diagram_constraints(reordered) == reference_matches(reordered), vals


def _anchored(vals) -> set:
    """The (diagram, clause) keys whose first equality vanishes exactly under some relabelling."""
    return {(d.id, ci) for d in catalog() for ci, cl in enumerate(d.clauses)
            if any(cl.equalities[0].poly().evaluate(tuple(vals[i] for i in sigma)) == 0
                   for sigma in permutations(range(5)))}


# Float tuples with max|Γ| = 1, so that a relation equals δ after normalization.
# Γ_12 = 0 exactly anchors diagram 4, whose other equality Γ_34 is then δ;
# Γ_345 = 0 exactly anchors diagram 3's Λ = ±1 clause, whose inequation Γ_12 is δ.
TOLERANCE_EDGES = {
    "equality": (lambda d: (1.0, -1.0, 0.5, -0.5 + d, 0.75), (4, 0), True),
    "inequation": (lambda d: (1.0, -1.0 + d, 0.25, 0.5, -0.75), (3, 0), False),
}


@pytest.mark.parametrize("edge", TOLERANCE_EDGES)
def test_tolerance_edge_matches_the_all_120_loop(edge):
    make, key, matches_inside = TOLERANCE_EDGES[edge]
    for delta, inside in ((0.5e-9, True), (2e-9, False)):
        for scale in (1.0, 2.0 ** -30, 2.0 ** 30):  # exact, so the normalized tuple is the same
            v = VorticitySet(tuple(g * scale for g in make(delta)))
            got = evaluate_diagram_constraints(v)
            assert got == reference_matches(v), (edge, delta, scale)
            matched = key in {(m.diagram_id, m.clause_index) for m in got}
            assert matched == (inside == matches_inside), (edge, delta, scale)


def test_exact_anchor_alone_does_not_match():
    # Γ_12 = 0 anchors diagrams 4 and 12, but no second pair of strengths sums to 0.
    vals = (1, -1, 2, -3, 5)
    assert {(4, 0), (12, 0)} <= _anchored(vals)
    got = evaluate_diagram_constraints(F5(*vals))
    assert got == reference_matches(F5(*vals))
    assert not {(4, 0), (12, 0)} & {(m.diagram_id, m.clause_index) for m in got}


def test_label_classes_are_the_cosets_of_each_clause_stabilizer():
    assert len(_PLANS) == 33 and _PERMUTATIONS == tuple(permutations(range(5)))
    for position, plan in enumerate(_PLANS):
        cl = plan[2]
        eqs, neqs = [p.poly() for p in cl.equalities], [p.poly() for p in cl.inequations]
        keys = [(frozenset(p.permuted(sigma).sign_canonical() for p in eqs),
                 frozenset(p.permuted(sigma).sign_canonical() for p in neqs))
                for sigma in _PERMUTATIONS]
        first = {}
        for k, key in enumerate(keys):
            first.setdefault(key, k)
        classes = _clause_masks(position)[2]
        # each σ maps to the smallest σ index with the same key
        assert classes == tuple(first[key] for key in keys), plan[:2]
        assert len(set(Counter(classes).values())) == 1, plan[:2]


WARM_UP = (1, 2, 3, 5, 7)  # the certify benchmark's warm-up tuple
LAZY_TABLES = (_candidates, _clause_masks)  # per bit, per clause


def _clear_lazy_tables():
    for table in LAZY_TABLES:
        table.cache_clear()


def _lazy_table_sizes() -> tuple:
    return tuple(table.cache_info().currsize for table in LAZY_TABLES)


def test_label_tables_are_built_on_first_match_and_in_any_order():
    # Importing the module builds no candidates, clause masks or label classes.
    probe = ("import vortexcc.exceptional as e; print(*(t.cache_info().currsize for t in "
             "(e._candidates, e._clause_masks)))")
    env = dict(os.environ, PYTHONPATH=str(Path(vortexcc.__file__).parents[1]))
    imported = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
    assert imported.stdout.split() == ["0", "0"]
    # The warm-up tuple matches nothing.  Each of its set bits gets its
    # candidates, and with them the masks and label classes of exactly the
    # clauses whose anchor it makes vanish: 7 = 2 + 5 and 5 = 2 + 3 zero
    # g1 − Γ_45 (clause 15.0) and g1 − Γ_23 (clause 14.0).
    anchored = _anchored(WARM_UP)
    assert anchored == {(14, 0), (15, 0)}
    _clear_lazy_tables()
    assert verdict(F5(*WARM_UP)).matches == ()
    set_bits = bin(_normalized(F5(*WARM_UP)).mask).count("1")
    assert _lazy_table_sizes() == (set_bits, len(anchored))
    misses = _clause_masks.cache_info().misses
    for position, plan in enumerate(_PLANS):
        if plan[:2] in anchored:
            assert len(_clause_masks(position)) == 3  # the masks and the label classes
    assert _clause_masks.cache_info().misses == misses
    rng = np.random.default_rng(17)
    planted = [F5(*vals) for family in PLANTED_FAMILIES
               for vals in _planted_tuples(family, rng, count=1)]
    _clear_lazy_tables()
    forward = [evaluate_diagram_constraints(v) for v in planted]
    built = _lazy_table_sizes()
    _clear_lazy_tables()
    backward = [evaluate_diagram_constraints(v) for v in reversed(planted)]
    assert backward[::-1] == forward
    assert _lazy_table_sizes() == built
    assert built[1] > 0  # each entry holds a clause's masks and its label classes


def every_preimage_matches(v: VorticitySet) -> list:
    """The catalog matches, trying every σ that sends a clause's anchor to a vanishing pair.

    A match is kept when its σ is the first of its label class.
    """
    zero = _normalized(v).mask
    candidates: dict = {}
    rest = zero
    while rest:
        low = rest & -rest
        for position, ks in _PREIMAGES[low.bit_length() - 1]:
            candidates.setdefault(position, []).extend(ks)
        rest ^= low
    matches = []
    for position in sorted(candidates):
        diagram_id, ci, cl, *_ = _PLANS[position]
        eqs, neqs, classes = _clause_masks(position)
        for k in sorted(candidates[position]):
            if eqs[k] & ~zero or neqs[k] & zero:
                continue
            if classes[k] == k:
                matches.append(CatalogMatch(diagram_id, ci, cl.lambda_branch,
                                            tuple(s + 1 for s in _PERMUTATIONS[k])))
    return matches


def _verdict_repr(v: VorticitySet) -> str:
    try:
        return repr(verdict(v))
    except TotalVorticityZeroError as exc:
        return repr(exc)


# Tuples that match clauses no planted family reaches: 2.0, 13.0, 15.1, 18.0
# and 20.0 with 27.0 in integers; 14.0, whose g1 = Γ_23 and L_123 = 0 make g2
# and g3 (1 ± √5)/2 · g1, and 3.1 (g1g2 = L_345, L = 0), in floats only.
CLAUSE_WITNESSES = ((-9, -8, -1, 1, 8), (-2, -2, -2, -2, 1), (-3, -2, -1, 1, 1), (-2, -2, -2, 1, 2),
                    (-1, -1, -1, -1, 1), (1.0, (1 + 5 ** 0.5) / 2, (1 - 5 ** 0.5) / 2, 2.0, 3.0),
                    (1.0, -2.0, (-5 + 13 ** 0.5) / 2, (-5 - 13 ** 0.5) / 2, 1.0))


def test_one_candidate_per_label_class_equals_every_preimage(monkeypatch):
    rng = np.random.default_rng(89)
    tuples = []
    while len(tuples) < 40:  # small entries, so relations among them are common
        vals = tuple(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(5))
        if all(vals):
            tuples.append(vals)
    orderings = list(CLAUSE_WITNESSES)  # each in all 120 orders, so matches land on every anchor
    for family in PLANTED_FAMILIES:
        vals = _planted_tuples(family, rng, count=1)[0]
        orderings.append(vals)
        tuples += [tuple(g * Fraction(10) ** k for g in vals) for k in (-100, -3, 3, 100)]
        tuples += [tuple(float(g) * 10.0 ** k for g in vals) for k in (-5, 0, 5)]
    tuples += [tuple(vals[i] for i in sigma) for vals in orderings for sigma in _PERMUTATIONS]
    tuples += certify_digest.edge_inputs()
    matched = 0
    for vals in tuples:
        v = VorticitySet(vals)
        got = evaluate_diagram_constraints(v)
        assert got == every_preimage_matches(v), vals
        matched += len(got)
        report = _verdict_repr(v)
        with monkeypatch.context() as patched:
            patched.setattr(exceptional, "evaluate_diagram_constraints", every_preimage_matches)
            assert _verdict_repr(v) == report, vals
    assert matched > 0


def test_verdict_evaluates_no_polynomial(monkeypatch):
    evaluated = []
    original = Poly.evaluate

    def recording(self, values):
        evaluated.append(str(self))
        return original(self, values)

    monkeypatch.setattr(Poly, "evaluate", recording)
    rng = np.random.default_rng(19)
    tuples = [F5(1, 2, 3, 5, 7)]  # the certify warm-up tuple
    while len(tuples) < 21:
        v = _random_rational_tuple(rng)
        if sum(v.gammas) != 0:
            tuples.append(v)
    for family in PLANTED_FAMILIES:
        vals = _planted_tuples(family, rng, count=1)[0]
        tuples += [F5(*vals), VorticitySet(tuple(float(g) for g in vals))]
    matched = 0
    for v in tuples:
        if sum(v.gammas) != 0:
            matched += len(verdict(v).matches)
        else:  # verdict raises before matching; the catalog still runs
            matched += len(evaluate_diagram_constraints(v))
    assert matched > 0
    assert evaluated == []


def test_compiled_pairs_equal_the_polynomial_at_every_relabelling():
    # 152 distinct unordered pairs, larger index first: the subset check's 57
    # conditions, each paired with the constant 0, then the catalog's others.
    assert len(_MASK_PAIRS) == len(set(_MASK_PAIRS)) == len(_PREIMAGES) == 152
    assert all(a > b for a, b in _MASK_PAIRS)
    assert _MASK_PAIRS[:57] == tuple((i, 0) for i, _ in _CONDITIONS)
    assert sum(1 for entries in _PREIMAGES if entries) == 106
    compiled = []  # (polynomial, its pair bit under each σ) as the plans hold them
    for position, plan in enumerate(_PLANS):
        cl, eqs, neqs = plan[2:]
        # The preimages hold each σ of the clause once, under its anchor's bit.
        anchor = [None] * len(_PERMUTATIONS)
        for bit, entries in enumerate(_PREIMAGES):
            for at, ks in entries:
                assert list(ks) == sorted(ks)
                for k in ks if at == position else ():
                    assert anchor[k] is None, plan[:2]
                    anchor[k] = bit
        assert tuple(anchor) == eqs[0], plan[:2]
        compiled += zip([p.poly() for p in cl.equalities + cl.inequations], eqs + neqs)
    assert len(compiled) == len(CATALOG_POLYS) == 63
    # Every pair past the subset check's is the image of a catalog polynomial.
    assert {bit for _, bits in compiled for bit in bits} >= set(range(57, 152))
    rng = np.random.default_rng(31)
    for _ in range(30):
        x = tuple(int(a) for a in rng.integers(-50, 51, size=5))
        table = _subset_table(x)
        for p, bits in compiled:
            assert len(bits) == len(_PERMUTATIONS)
            for bit, sigma in zip(bits, _PERMUTATIONS):
                a, b = _MASK_PAIRS[bit]
                value = p.evaluate(tuple(x[i] for i in sigma))
                assert table[a] - table[b] in (value, -value), (str(p), sigma, x)


def test_relation_is_a_difference_of_two_sides_of_one_degree():
    def G(*J):
        return Relation((1, J))

    def L(*J):
        return Relation((2, J))

    assert L(1, 3) - L(2, 4) == Relation((2, (1, 3)), (2, (2, 4)))
    assert str(G(1) - G(2, 3)) == "g1 - g2 - g3"
    # Mixed degrees, or a side that is already a difference, cannot be written.
    for make in (lambda: G(1) - L(2, 3), lambda: L(1, 2) - G(3),
                 lambda: (G(1) - G(2)) - G(3), lambda: G(3) - (G(1) - G(2))):
        with pytest.raises(ValueError, match="is not a difference of two"):
            make()


def _defined_table(g) -> list:
    """Γ_J and L_J by their definitions at the subset table's indices, summed from 0 in order.

    Γ_J sums J's strengths in index order and L_J the products of J's pairs
    in combinations order: the reference in exact arithmetic, and the
    pair-order table that float masks are checked against.
    """
    table = [0] * 64
    for J in SUBSETS:
        m = sum(1 << j for j in J)
        table[m] = sum(g[j] for j in J)
        table[32 + m] = sum(g[a] * g[b] for a, b in combinations(J, 2))
    return table


def _recurrence_table(g) -> list:
    """Γ_J = Γ_{J∖j} + g_j and L_J = L_{J∖j} + g_j·Γ_{J∖j}, j = max J, J in lexicographic order."""
    table = [0] * 64
    for J in SUBSETS:
        m, j = sum(1 << i for i in J), J[-1]
        rest = m - (1 << j)
        table[m] = table[rest] + g[j]
        table[32 + m] = table[32 + rest] + g[j] * table[rest]
    return table


def _pair_order_mask(vals) -> int:
    """The vanishing-pair mask of a float tuple off its pair-order table, the zero rule applied anew."""
    top = max(abs(x) for x in vals)
    table = _defined_table([x / top for x in vals])
    return sum(1 << bit for bit, (a, b) in enumerate(_MASK_PAIRS)
               if abs(table[a] - table[b]) <= 1e-9)


def test_exact_table_holds_every_subset_sum_and_pair_momentum():
    rng = np.random.default_rng(43)
    for scale in (1, 10**400):  # near 10^400, L_J cancels down from about 10^800
        for _ in range(200):
            g = tuple(int(s) * scale + int(d) for s, d in zip(rng.choice((-1, 1), size=5),
                                                              rng.integers(-20, 21, size=5)))
            table = _subset_table(g)
            assert table == _defined_table(g), g
            assert all(type(x) is int for x in table)


def _random_float_tuples(seed, count):
    """Floats whose magnitudes spread over 10^-8 to 10^8, so every L_J mixes scales."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield tuple(float(x) for x in rng.uniform(-1, 1, size=5) * 10.0 ** rng.integers(-8, 9, size=5))


def test_float_table_is_the_recurrence_bit_for_bit():
    for g in _random_float_tuples(47, 300):
        got = [float(x).hex() for x in _subset_table(g)]
        assert got == [float(x).hex() for x in _recurrence_table(g)], g


def test_float_table_lies_within_the_recursive_summation_bound():
    # Γ_J rounds |J| − 1 additions and L_J adds |J|-fold roundings of J's pair
    # products: within (|J| − 1)·u·Σ|g_j| and |J|·u·Σ|g_a·g_b| of the exact values.
    u = Fraction(1, 2**53)
    for g in _random_float_tuples(53, 300):
        table = _subset_table(g)
        exact = _defined_table([Fraction(x) for x in g])
        for J in SUBSETS:
            m = sum(1 << j for j in J)
            bound = (len(J) - 1) * u * sum(abs(Fraction(g[j])) for j in J)
            assert abs(Fraction(table[m]) - exact[m]) <= bound, (g, J)
            bound = len(J) * u * sum(abs(Fraction(g[a]) * Fraction(g[b])) for a, b in combinations(J, 2))
            assert abs(Fraction(table[32 + m]) - exact[32 + m]) <= bound, (g, J)


def test_float_masks_equal_the_pair_order_table():
    # Float tables are built by the recurrence, not in pair order; the masks,
    # all a verdict reads, are the same.  Small rationals plant many exact
    # relations, and the edge tuples put one relation at each side of the rule.
    rng = np.random.default_rng(59)
    small = []
    while len(small) < 2000:
        vals = tuple(int(rng.integers(-6, 7)) / int(rng.integers(1, 5)) for _ in range(5))
        if all(vals):
            small.append(vals)
    for vals in small + certify_digest.edge_inputs():
        assert _normalized(VorticitySet(vals)).mask == _pair_order_mask(vals), vals


def test_verdict_builds_one_table_and_reaches_each_helper_once(monkeypatch):
    # The benchmark times the subset check and the catalog match by wrapping
    # these names of vortexcc.exceptional, so verdict must call both through
    # them, and build its tuple's one subset table before either.
    names = ("_subset_table", "check_subset_conditions", "evaluate_diagram_constraints")
    calls = []

    def counted(name, helper):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return helper(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(exceptional, name, counted(name, getattr(exceptional, name)))
    witness = CLAUSE_WITNESSES[0]
    for vals in (WARM_UP, (1, -1, 3, 5, 9), witness, tuple(map(float, witness))):
        calls.clear()
        report = verdict(VorticitySet(vals))
        assert calls == list(names), vals
    assert report.matches and report.approximate
