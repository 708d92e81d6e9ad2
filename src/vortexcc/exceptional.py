"""Exact finiteness certification for five-vortex vorticity tuples.

Finiteness of normalized central configurations can fail only on an explicit
algebraic set of vorticities.  Two views of that set are implemented:

* a fixed catalog of 29 cluster diagrams, each carrying a disjunction of
  polynomial clauses over (Γ_1, ..., Γ_5); a tuple "matches" a diagram when
  some relabelling of the vortices makes every clause equality vanish while
  every side inequation stays nonzero;
* a sufficient condition that certifies finiteness outright: every nonempty
  index subset J has nonzero total strength, and every J with |J| >= 2 has
  nonzero pairwise momentum L_J.

The verdict relies solely on the subset condition (sound); catalog matches
are reported as diagnostics.  Every tuple is rescaled once on entry, which
cannot change a verdict since all the polynomials involved are homogeneous:
rational inputs become a primitive integer vector and are decided in Python
integers alone; float inputs are divided by max|Γ|, so a polynomial counts
as zero when it is at most 1e-9 relative to max|Γ|^degree, and are flagged
approximate.

Each tuple gets one subset table, shared by both views: its 31 subset sums
Γ_J and 26 pair momenta L_J.  The catalog is held as integer-coefficient
polynomials (:class:`~vortexcc.exactpoly.Poly`), and under every
relabelling each of them is the difference of two table entries, such as
g₁g₃ − g₂g₄ = L_13 − L_24, or Γ_J − 0 for a pure Γ_J.  So each is compiled
at import into one pair of table indices per relabelling, and no polynomial
is evaluated at run time.  A clause is tried only under the relabellings
that make its first equality, its anchor, vanish, so the search stays
exhaustive; it over-approximates each diagram's own symmetry soundly.
Matches are deduplicated by each clause's label classes, read off its
compiled pairs on its first match.

Notation: L_J = sum over unordered pairs of J of Γ_jΓ_k, L = L_{12345}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, permutations
from math import gcd, lcm

from .exactpoly import Poly
from .quantities import VorticitySet

__all__ = [
    "ConstraintClause",
    "DiagramConstraint",
    "CatalogMatch",
    "SubsetCheck",
    "ExceptionalReport",
    "TotalVorticityZeroError",
    "catalog",
    "evaluate_diagram_constraints",
    "check_subset_conditions",
    "verdict",
    "catalog_records",
]

N_VORTICES = 5


class TotalVorticityZeroError(ValueError):
    """The checks presuppose nonzero total vorticity."""


@dataclass(frozen=True)
class ConstraintClause:
    """One conjunctive branch: equalities that must vanish, inequations that must not.

    ``lambda_branch`` records which rotation multiplier the branch belongs to
    ("pm1" for Λ = ±1, "pmi" for Λ = ±i, "any" when unconstrained); it is
    reported, never verified against a configuration.
    """

    equalities: tuple
    inequations: tuple = ()
    lambda_branch: str = "any"


@dataclass(frozen=True)
class DiagramConstraint:
    """Catalog entry: diagram id (1..29) and its clause disjunction.

    ``strokes``/``circles`` are descriptive notes on the constraint-generating
    pattern; the clause polynomials are the operative data.
    """

    id: int
    clauses: tuple
    strokes: str = ""
    circles: str = ""
    symmetry_note: str = "catalog labels are representative; all 120 relabellings are tried"


@dataclass(frozen=True)
class CatalogMatch:
    diagram_id: int
    clause_index: int
    lambda_branch: str
    permutation: tuple  # permutation[i] = input vortex assigned to catalog label i+1


@dataclass(frozen=True)
class SubsetCheck:
    passed: bool
    witness: tuple | None = None       # 1-based indices of the violating subset
    witness_kind: str | None = None    # "vanishing_sum" | "vanishing_pair_momentum"


@dataclass(frozen=True)
class ExceptionalReport:
    verdict: str                       # "certified_finite" | "exceptional_suspect"
    subset_check: SubsetCheck
    matches: tuple
    approximate: bool
    notes: tuple = ()


# ---------------------------------------------------------------------------
# Catalog construction
# ---------------------------------------------------------------------------


def _gsum(*idx: int) -> Poly:
    """Γ_J: the sum of the strengths with 1-based indices in J."""
    return Poly(N_VORTICES, tuple((1, (i - 1,)) for i in idx))


_g = _gsum


def _lsub(*idx: int) -> Poly:
    """L_J: the sum of Γ_aΓ_b over the unordered pairs of J."""
    return Poly(N_VORTICES, tuple((1, (a - 1, b - 1)) for a, b in combinations(idx, 2)))


def _build_catalog() -> tuple:
    L = _lsub(1, 2, 3, 4, 5)

    def clause(eqs, neqs=(), branch="any"):
        return ConstraintClause(tuple(eqs), tuple(neqs), branch)

    entries = []

    def add(id_, clauses, strokes="", circles=""):
        entries.append(DiagramConstraint(id_, tuple(clauses), strokes, circles))

    add(1, [
        clause([_gsum(1, 2, 5), _gsum(1, 2) - _gsum(3, 4)], [_gsum(1, 2)], "pm1"),
        clause([_g(1) * _g(2) - _lsub(3, 4, 5), _g(3) * _g(4) - _lsub(1, 2, 5), L],
               [_gsum(1, 2), _gsum(3, 4)], "pmi"),
    ],
        strokes="isolated stroke 1-2 and isolated stroke 3-4, opposite colors",
        circles="ends of each stroke circled in its own color; vertex 5 bare")
    add(2, [
        clause([_gsum(3, 4, 5), _gsum(1, 2) - _g(5)], [_gsum(1, 2), _gsum(3, 4)], "pm1"),
    ],
        strokes="isolated stroke 1-2; isolated one-color triangle 3-4-5",
        circles="1,2 circled; two triangle vertices (3,4) circled")
    add(3, [
        clause([_gsum(3, 4, 5)], [_gsum(1, 2)], "pm1"),
        clause([_g(1) * _g(2) - _lsub(3, 4, 5), L], [_gsum(1, 2)], "pmi"),
    ],
        strokes="isolated stroke 1-2; one-color triangle 3-4-5",
        circles="1,2 circled; triangle fully circled in its color")
    add(4, [
        clause([_gsum(1, 2), _gsum(3, 4)]),
    ],
        strokes="isolated two-color edge 1-2 and isolated two-color edge 3-4",
        circles="each pair circled and mutually close; vertex 5 bare")
    add(5, [
        clause([_g(1) * _g(3) - _g(2) * _g(4)]),
    ],
        strokes="alternating-color four-cycle: edges 1-2 and 3-4 in one color, 1-4 and 2-3 in the other; vertex 5 isolated",
        circles="1,2,3,4 at maximal order")
    add(6, [
        clause([_lsub(1, 2, 3)]),
    ],
        strokes="isolated one-color triangle on 1,2,3",
        circles="triangle uncircled")
    add(7, [
        clause([_gsum(1, 2, 3)]),
    ],
        strokes="single-color-close cluster {1,2,3}",
        circles="1,2,3 circled in that color")
    add(8, [
        clause([_gsum(1, 2, 3)]),
    ],
        strokes="single-color-close cluster {1,2,3}, second variant",
        circles="1,2,3 circled in that color")
    add(9, [
        clause([_lsub(1, 2, 4), _lsub(1, 3, 4)]),
    ],
        strokes="two one-color triangles 1-2-4 and 1-3-4 sharing the edge 1-4",
        circles="shared triangles uncircled")
    add(10, [
        clause([_lsub(1, 2, 4)]),
    ],
        strokes="one-color triangle 1-2-4 attached to further strokes",
        circles="triangle uncircled")
    add(11, [
        clause([_g(2) - _g(3), _gsum(1, 4) - _g(5)]),
    ],
        strokes="butterfly around the two-color edge 1-4; vertex 5 attached to 2 and 3 by one stroke of each color",
        circles="none")
    add(12, [
        clause([_gsum(1, 2), _gsum(4, 5)]),
    ],
        strokes="isolated two-color edge 1-2; isolated two-color edge 4-5",
        circles="each pair circled and mutually close")
    add(13, [
        clause([_lsub(1, 2, 3), _lsub(1, 4, 5)]),
    ],
        strokes="two one-color triangles 1-2-3 and 1-4-5 attached at vertex 1",
        circles="uncircled")
    add(14, [
        clause([_g(1) - _gsum(2, 3), _lsub(1, 2, 3)], [_gsum(4, 5)], "pm1"),
        clause([_lsub(1, 4, 5), L, _lsub(1, 2, 3)], [_gsum(4, 5)], "pmi"),
    ],
        strokes="triangles 1-2-3 and 1-4-5 attached at 1; 1-4-5 isolated in its color",
        circles="two circles on the isolated triangle (4,5)")
    add(15, [
        clause([_g(1) - _gsum(4, 5), _g(1) - _gsum(2, 3)], [_gsum(2, 3)], "pm1"),
        clause([L, _lsub(1, 4, 5) - _lsub(1, 2, 3)], [_gsum(2, 3), _gsum(4, 5)], "pmi"),
    ],
        strokes="triangles 1-2-3 and 1-4-5 attached at 1, each isolated in its color",
        circles="two circles on each triangle (2,3 and 4,5)")
    add(16, [
        clause([_lsub(1, 2, 3)]),
    ],
        strokes="one-color triangle 1-2-3, isolated in its color",
        circles="triangle uncircled")
    add(17, [
        clause([_gsum(1, 2, 3)]),
    ],
        strokes="single-color-close cluster {1,2,3}",
        circles="1,2,3 circled")
    add(18, [
        clause([_lsub(1, 3, 5), _lsub(1, 2, 3, 4)]),
    ],
        strokes="fully stroked one-color quadrilateral 1-2-3-4 plus triangle 1-3-5",
        circles="uncircled")
    add(19, [
        clause([_lsub(1, 3, 5)]),
    ],
        strokes="one-color triangle 1-3-5, isolated in its color",
        circles="uncircled triangle")
    add(20, [
        clause([_lsub(1, 2, 3, 4), _gsum(2, 4)]),
    ],
        strokes="fully one-color-stroked quadrilateral on 1,2,3,4",
        circles="2 and 4 circled and mutually close in the other color")
    add(21, [
        clause([_lsub(1, 2, 3, 4)]),
    ],
        strokes="fully one-color-stroked quadrilateral on 1,2,3,4",
        circles="uncircled")
    add(22, [
        clause([_gsum(1, 2, 3, 4)]),
    ],
        strokes="single-color-close cluster {1,2,3,4}",
        circles="1,2,3,4 circled")
    add(23, [
        clause([_lsub(1, 2, 3)]),
    ],
        strokes="isolated one-color triangle 1-2-3, variant a",
        circles="uncircled")
    add(24, [
        clause([_lsub(1, 2, 3)]),
    ],
        strokes="isolated one-color triangle 1-2-3, variant b",
        circles="uncircled")
    add(25, [
        clause([_lsub(1, 2, 3)]),
    ],
        strokes="isolated one-color triangle 1-2-3, variant c",
        circles="uncircled")
    add(26, [
        clause([_lsub(1, 2, 3)]),
    ],
        strokes="isolated one-color triangle 1-2-3, variant d",
        circles="uncircled")
    add(27, [
        clause([_lsub(1, 2, 3, 4), _lsub(1, 2, 3, 5)]),
    ],
        strokes="two fully stroked quadrilaterals 1-2-3-4 and 1-2-3-5 sharing a triangle",
        circles="uncircled")
    add(28, [
        clause([_lsub(1, 2, 3, 4)]),
    ],
        strokes="fully stroked quadrilateral 1-2-3-4 attached to vertex 5",
        circles="uncircled")
    add(29, [
        clause([L]),
    ],
        strokes="every pair close in both colors (fully clustered five)",
        circles="uncircled")
    return tuple(entries)


_CATALOG = _build_catalog()


def catalog() -> tuple:
    """The fixed 29-diagram constraint catalog, ids 1..29."""
    return _CATALOG


def catalog_records() -> list:
    """Machine-readable catalog: one record per diagram."""
    records = []
    for d in _CATALOG:
        records.append({
            "id": d.id,
            "strokes": d.strokes,
            "circles": d.circles,
            "symmetry_note": d.symmetry_note,
            "clauses": [
                {
                    "lambda_branch": c.lambda_branch,
                    "equalities": [str(p) for p in c.equalities],
                    "inequations": [str(p) for p in c.inequations],
                }
                for c in d.clauses
            ],
        })
    return records


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _require_five(v: VorticitySet) -> None:
    if v.n != N_VORTICES:
        raise ValueError(f"the catalog applies to exactly 5 vortices, got {v.n}")


# Every catalog polynomial, subset sum and pair momentum is homogeneous of
# degree 1 or 2, so whether it vanishes does not depend on the scale of the
# tuple.  Each tuple is therefore rescaled once, where it enters this module.
ZERO_TOL = 1e-9  # float input: |P(Γ / max|Γ|)| <= ZERO_TOL counts as zero

# Nonempty 0-based index subsets J in lexicographic order, each with its
# bitmask m and its pairs.  A tuple's subset table holds Γ_J at index m and
# L_J at _MOMENTUM + m; index 0, the empty sum, holds the constant 0.
_SUBSETS = tuple(
    (J, sum(1 << j for j in J), tuple(combinations(J, 2)))
    for J in sorted(J for r in range(1, N_VORTICES + 1)
                    for J in combinations(range(N_VORTICES), r))
)
_MOMENTUM = 1 << N_VORTICES


@dataclass(frozen=True)
class _Normalized:
    """A five-tuple rescaled once on entry; same verdict as the input.

    Exact input: ``gammas`` is the primitive integer vector (denominators
    cleared, divided by the gcd, signs kept), on which every catalog
    polynomial is a Python int.  Float input: ``gammas`` is the input over max|Γ|; an entry
    that underflows to 0.0 is zero relative to max|Γ|.
    """

    exact: bool
    gammas: tuple

    def vanishes(self, value) -> bool:
        """The one zero rule: exactly zero, or within ZERO_TOL for float input."""
        return value == 0 if self.exact else abs(value) <= ZERO_TOL

    @cached_property
    def table(self) -> list:
        """The subset table: the 31 Γ_J and 26 L_J at their indices, 0 elsewhere.

        Built on first use and shared by the subset check and the catalog.
        Each sum runs in index order.
        """
        g = self.gammas
        table = [0] * (2 * _MOMENTUM)
        for J, m, pairs in _SUBSETS:
            table[m] = sum(g[j] for j in J)
            if pairs:
                table[_MOMENTUM + m] = sum(g[a] * g[b] for a, b in pairs)
        return table


def _normalized(v) -> _Normalized:
    """Normalize a VorticitySet; :func:`verdict` passes the result on as is."""
    if isinstance(v, _Normalized):
        return v
    _require_five(v)
    if v.is_exact:
        fractions = [Fraction(g) for g in v.gammas]
        common = lcm(*(f.denominator for f in fractions))
        ints = [f.numerator * (common // f.denominator) for f in fractions]
        divisor = gcd(*ints)
        return _Normalized(True, tuple(i // divisor for i in ints))
    floats = tuple(float(g) for g in v.gammas)
    top = max(abs(f) for f in floats)
    return _Normalized(False, tuple(f / top for f in floats))


_PERMUTATIONS = tuple(permutations(range(N_VORTICES)))
# _BIT_OF[j][k] is the bitmask of input vortex σ_k[j], σ_k = _PERMUTATIONS[k].
_BIT_OF = tuple(tuple(1 << sigma[j] for sigma in _PERMUTATIONS) for j in range(N_VORTICES))


def _build_plans(diagrams: tuple) -> tuple:
    """Each clause polynomial compiled to one pair of subset-table indices per σ.

    A catalog polynomial is P − N, where P is the sum of its positive terms
    and N the negated sum of its negative ones, and each of P and N must be a
    Γ_J, an L_J or empty (the table's constant 0); any other polynomial
    raises ValueError.  Catalog label i stands for input vortex σ[i], so Γ_J
    of the pulled-back tuple is Γ_σ(J) of the input, and the polynomial there
    is table[hi] − table[lo], hi and lo being the table indices of P and N
    relabelled by σ.

    Returns the plans, the anchor pairs and the anchors.  The plans hold one
    (diagram id, clause index, clause, anchor index, anchor, other equalities,
    inequations) per clause in catalog order, each polynomial as its (hi, lo)
    indices, two tuples in _PERMUTATIONS order.  A clause's anchor is its
    first equality; the anchor index is its position in the anchors.  The
    anchor pairs are the distinct (hi, lo) pairs of all anchors, held as two
    tuples in the same way.  Each anchor maps its pairs, as positions in the
    anchor pairs, to the ascending _PERMUTATIONS indices that send the anchor
    there.
    """
    images: dict = {}  # (offset, J) -> table index under each σ
    anchors: dict = {}  # an anchor's (hi, lo) -> position in the anchors

    def index(p, terms):
        J = tuple(sorted({i for _, idx in terms for i in idx}))
        if terms == tuple((1, (j,)) for j in J):  # Γ_J, or the constant 0 when empty
            offset = 0
        elif terms == tuple((1, pair) for pair in combinations(J, 2)):  # L_J
            offset = _MOMENTUM
        else:
            raise ValueError(f"catalog polynomial {p} is not a difference of two "
                             "subset sums or pair momenta")
        if (offset, J) not in images:
            columns = [_BIT_OF[j] for j in J] + [(offset,) * len(_PERMUTATIONS)]
            images[offset, J] = tuple(map(sum, zip(*columns)))
        return images[offset, J]

    @cache  # a polynomial recurs in many clauses
    def compiled(p):
        return (index(p, tuple((c, idx) for c, idx in p.terms if c > 0)),
                index(p, tuple((-c, idx) for c, idx in p.terms if c < 0)))

    plans = []
    for d in diagrams:
        for ci, cl in enumerate(d.clauses):
            anchor, *eqs = map(compiled, cl.equalities)
            plans.append((d.id, ci, cl, anchors.setdefault(anchor, len(anchors)), anchor,
                          tuple(eqs), tuple(map(compiled, cl.inequations))))
    pairs: dict = {}  # distinct anchor pair -> position in the pairs
    preimages = []
    for hi, lo in anchors:
        ks: dict = {}
        for k, pair in enumerate(zip(hi, lo)):
            ks.setdefault(pair, []).append(k)
        preimages.append({pairs.setdefault(pair, len(pairs)): k for pair, k in ks.items()})
    return tuple(plans), tuple(zip(*pairs)), tuple(preimages)


_PLANS, (_ANCHOR_HI, _ANCHOR_LO), _ANCHORS = _build_plans(_CATALOG)


@cache
def _label_classes(plan: tuple) -> tuple:
    """For one clause, the first _PERMUTATIONS index of each σ's label class.

    σ and σ′ share a class exactly when they relabel the clause's equalities,
    and its inequations, to the same polynomials up to sign: the classes are
    the cosets of the clause's label stabilizer.  Distinct unordered pairs
    {hi[k], lo[k]} are distinct polynomials up to sign, so the compiled pairs
    decide the class.  Built on the clause's first match, not at import.
    """
    anchor, eqs, neqs = plan[4:]
    first: dict = {}
    return tuple(
        first.setdefault((frozenset(frozenset((hi[k], lo[k])) for hi, lo in (anchor, *eqs)),
                          frozenset(frozenset((hi[k], lo[k])) for hi, lo in neqs)), k)
        for k in range(len(_PERMUTATIONS))
    )


def evaluate_diagram_constraints(v: VorticitySet) -> list:
    """All catalog matches of a 5-tuple over the 120 label permutations.

    Every clause polynomial is decided from the tuple's subset table, as the
    difference of two of its entries under each relabelling, so no
    polynomial is evaluated here.  Each clause is tried only under the
    relabellings that make its first equality (its anchor) vanish, found
    once per tuple for each distinct anchor; a generic tuple tries no
    relabelling at all.  Rational inputs are decided exactly; float inputs
    count a polynomial of degree d as zero when it is at most 1e-9 relative
    to max|Γ|^d (the caller should treat those results as approximate).
    Matches come in catalog order, then permutation order, deduplicated up
    to each clause's own label symmetry: every σ of a label class matches
    when one does, and the match is reported only for the first σ of its
    class (:func:`_label_classes`, each clause's table built once, on its
    first match).
    """
    n = _normalized(v)
    table, vanishes = n.table, n.vanishes
    zero = [vanishes(table[hi] - table[lo]) for hi, lo in zip(_ANCHOR_HI, _ANCHOR_LO)]
    vanishing = [sorted(k for i, ks in anchor.items() if zero[i] for k in ks)
                 for anchor in _ANCHORS]

    matches = []
    for plan in _PLANS:
        diagram_id, ci, cl, anchor, _, eqs, neqs = plan
        first = None
        for k in vanishing[anchor]:
            if not all(vanishes(table[hi[k]] - table[lo[k]]) for hi, lo in eqs):
                continue
            if any(vanishes(table[hi[k]] - table[lo[k]]) for hi, lo in neqs):
                continue
            if first is None:  # once per clause: hashing the plan costs microseconds
                first = _label_classes(plan)
            if first[k] == k:
                matches.append(CatalogMatch(
                    diagram_id=diagram_id,
                    clause_index=ci,
                    lambda_branch=cl.lambda_branch,
                    permutation=tuple(s + 1 for s in _PERMUTATIONS[k]),
                ))
    return matches


def check_subset_conditions(v: VorticitySet) -> SubsetCheck:
    """Sufficient finiteness condition on all index subsets.

    Passes iff Γ_J != 0 for every nonempty J and L_J != 0 for every J with
    at least two indices, as read from the tuple's subset table.  On failure
    the lexicographically first violating subset is returned.
    """
    n = _normalized(v)
    table = n.table
    for J, m, pairs in _SUBSETS:
        if n.vanishes(table[m]):
            return SubsetCheck(False, tuple(j + 1 for j in J), "vanishing_sum")
        if pairs and n.vanishes(table[_MOMENTUM + m]):
            return SubsetCheck(False, tuple(j + 1 for j in J), "vanishing_pair_momentum")
    return SubsetCheck(True)


def verdict(v: VorticitySet) -> ExceptionalReport:
    """Certify finiteness or flag the tuple as exceptional-suspect.

    Certification rests on :func:`check_subset_conditions` alone; raw catalog
    matches are included for diagnostics.  Requires Γ != 0.
    """
    n = _normalized(v)
    if n.vanishes(sum(n.gammas)):
        raise TotalVorticityZeroError(
            "total vorticity is zero; the certification presupposes Γ != 0"
        )
    subset_check = check_subset_conditions(n)
    matches = tuple(evaluate_diagram_constraints(n))
    notes = []
    if not n.exact:
        notes.append("float input: equalities tested against a scale-aware tolerance")
    notes.append("diagram 29 lists only L=0; its Γ=0 alternative is excluded by assumption")
    return ExceptionalReport(
        verdict="certified_finite" if subset_check.passed else "exceptional_suspect",
        subset_check=subset_check,
        matches=matches,
        approximate=not n.exact,
        notes=tuple(notes),
    )
