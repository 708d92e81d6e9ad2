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

Each tuple gets one subset table, its 31 subset sums Γ_J and 26 pair
momenta L_J, and one vanishing-pair mask: an integer with a bit per
unordered pair of table indices, set when the pair's two entries agree.
Both are built in the one pass that rescales the tuple, and only the mask
is kept.  Every table, exact or float, is built by one recurrence: with j
the largest index of J, Γ_J = Γ_{J∖j} + g_j and L_J = L_{J∖j} + g_j·Γ_{J∖j},
one multiply-add per subset.  A verdict depends on the table only through
the mask, so float verdicts keep their masks, not the bits of the table.
The mask is the one place the zero rule is applied.  Bits 0–56 pair each
Γ_J and L_J with the table's constant 0, in the subset check's order, so
the Γ ≠ 0 test is one bit and the check's witness is the lowest set bit.
The catalog is written as relations P − N (:class:`Relation`), each side a
Γ_J, an L_J or 0, such as g₁g₃ − g₂g₄ = L_13 − L_24, or Γ_J − 0 for a pure
Γ_J; :meth:`Relation.poly` expands one only to print it.  Under every
relabelling a relation is the difference of two table entries, so each is
compiled at import into one pair per relabelling; the catalog adds 95 pairs
to the 57, and no polynomial is evaluated at run time.  A clause is tried
only under the relabellings that make its first equality, its anchor,
vanish: the preimages of the mask's set bits, 106 of which are anchor
pairs.  The search stays exhaustive and
over-approximates each diagram's own symmetry soundly.  Under each such
relabelling the clause is decided by two mask tests: every bit of its
equalities is set and no bit of its inequations is.  Those masks also key
the clause's label classes, the relabellings that map it onto the same
polynomials up to sign; the members of a class match together, so only the
first of each class is tried, and one match is reported per class.  A
clause's masks and classes, and a bit's candidates, are built on first use,
not at import.

Notation: L_J = sum over unordered pairs of J of Γ_jΓ_k, L = L_{12345}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, compress, permutations, repeat
from math import gcd, lcm
from operator import add, eq, itemgetter
from typing import NamedTuple

from .quantities import VorticitySet, _as_floats

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

    Each equality and inequation is a :class:`Relation`.  ``lambda_branch``
    records which rotation multiplier the branch belongs to ("pm1" for
    Λ = ±1, "pmi" for Λ = ±i, "any" when unconstrained); it is reported,
    never verified against a configuration.
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


@dataclass(frozen=True)
class Relation:
    """A catalog polynomial P − N, each side a subset sum Γ_J, a pair momentum L_J or 0.

    A side is ``(degree, J)`` with J the 1-based labels, degree 1 for Γ_J
    and 2 for L_J, or ``()`` for 0; ``plus`` is the polynomial's positive
    part.  ``-`` joins two sides of one degree, the homogeneity that the
    one-time rescaling relies on, and refuses anything else.
    """

    plus: tuple
    minus: tuple = ()

    def __sub__(self, other: "Relation") -> "Relation":
        if self.minus or other.minus or self.plus[0] != other.plus[0]:
            raise ValueError(f"{self!r} - {other!r} is not a difference of two Γ_J or two L_J")
        return Relation(self.plus, other.plus)

    def poly(self):
        """The expanded :class:`~vortexcc.exactpoly.Poly`, built to print the relation."""
        from .exactpoly import Poly

        def terms(side, sign):
            degree, J = side or (1, ())
            return tuple((sign, tuple(j - 1 for j in js)) for js in combinations(J, degree))

        return Poly(N_VORTICES, terms(self.plus, 1) + terms(self.minus, -1))

    def __str__(self) -> str:
        return str(self.poly())


def _build_catalog() -> tuple:
    def G(*J):  # Γ_J
        return Relation((1, J))

    def L(*J):  # L_J
        return Relation((2, J))

    def clause(eqs, neqs=(), branch="any"):
        return ConstraintClause(tuple(eqs), tuple(neqs), branch)

    entries = []

    def add(id_, clauses, strokes="", circles=""):
        entries.append(DiagramConstraint(id_, tuple(clauses), strokes, circles))

    add(1, [
        clause([G(1, 2, 5), G(1, 2) - G(3, 4)], [G(1, 2)], "pm1"),
        clause([L(1, 2) - L(3, 4, 5), L(3, 4) - L(1, 2, 5), L(1, 2, 3, 4, 5)],
               [G(1, 2), G(3, 4)], "pmi"),
    ],
        strokes="isolated stroke 1-2 and isolated stroke 3-4, opposite colors",
        circles="ends of each stroke circled in its own color; vertex 5 bare")
    add(2, [
        clause([G(3, 4, 5), G(1, 2) - G(5)], [G(1, 2), G(3, 4)], "pm1"),
    ],
        strokes="isolated stroke 1-2; isolated one-color triangle 3-4-5",
        circles="1,2 circled; two triangle vertices (3,4) circled")
    add(3, [
        clause([G(3, 4, 5)], [G(1, 2)], "pm1"),
        clause([L(1, 2) - L(3, 4, 5), L(1, 2, 3, 4, 5)], [G(1, 2)], "pmi"),
    ],
        strokes="isolated stroke 1-2; one-color triangle 3-4-5",
        circles="1,2 circled; triangle fully circled in its color")
    add(4, [
        clause([G(1, 2), G(3, 4)]),
    ],
        strokes="isolated two-color edge 1-2 and isolated two-color edge 3-4",
        circles="each pair circled and mutually close; vertex 5 bare")
    add(5, [
        clause([L(1, 3) - L(2, 4)]),
    ],
        strokes="alternating-color four-cycle: edges 1-2 and 3-4 in one color, 1-4 and 2-3 in the other; vertex 5 isolated",
        circles="1,2,3,4 at maximal order")
    add(6, [
        clause([L(1, 2, 3)]),
    ],
        strokes="isolated one-color triangle on 1,2,3",
        circles="triangle uncircled")
    add(7, [
        clause([G(1, 2, 3)]),
    ],
        strokes="single-color-close cluster {1,2,3}",
        circles="1,2,3 circled in that color")
    add(8, [
        clause([G(1, 2, 3)]),
    ],
        strokes="single-color-close cluster {1,2,3}, second variant",
        circles="1,2,3 circled in that color")
    add(9, [
        clause([L(1, 2, 4), L(1, 3, 4)]),
    ],
        strokes="two one-color triangles 1-2-4 and 1-3-4 sharing the edge 1-4",
        circles="shared triangles uncircled")
    add(10, [
        clause([L(1, 2, 4)]),
    ],
        strokes="one-color triangle 1-2-4 attached to further strokes",
        circles="triangle uncircled")
    add(11, [
        clause([G(2) - G(3), G(1, 4) - G(5)]),
    ],
        strokes="butterfly around the two-color edge 1-4; vertex 5 attached to 2 and 3 by one stroke of each color",
        circles="none")
    add(12, [
        clause([G(1, 2), G(4, 5)]),
    ],
        strokes="isolated two-color edge 1-2; isolated two-color edge 4-5",
        circles="each pair circled and mutually close")
    add(13, [
        clause([L(1, 2, 3), L(1, 4, 5)]),
    ],
        strokes="two one-color triangles 1-2-3 and 1-4-5 attached at vertex 1",
        circles="uncircled")
    add(14, [
        clause([G(1) - G(2, 3), L(1, 2, 3)], [G(4, 5)], "pm1"),
        clause([L(1, 4, 5), L(1, 2, 3, 4, 5), L(1, 2, 3)], [G(4, 5)], "pmi"),
    ],
        strokes="triangles 1-2-3 and 1-4-5 attached at 1; 1-4-5 isolated in its color",
        circles="two circles on the isolated triangle (4,5)")
    add(15, [
        clause([G(1) - G(4, 5), G(1) - G(2, 3)], [G(2, 3)], "pm1"),
        clause([L(1, 2, 3, 4, 5), L(1, 4, 5) - L(1, 2, 3)], [G(2, 3), G(4, 5)], "pmi"),
    ],
        strokes="triangles 1-2-3 and 1-4-5 attached at 1, each isolated in its color",
        circles="two circles on each triangle (2,3 and 4,5)")
    add(16, [
        clause([L(1, 2, 3)]),
    ],
        strokes="one-color triangle 1-2-3, isolated in its color",
        circles="triangle uncircled")
    add(17, [
        clause([G(1, 2, 3)]),
    ],
        strokes="single-color-close cluster {1,2,3}",
        circles="1,2,3 circled")
    add(18, [
        clause([L(1, 3, 5), L(1, 2, 3, 4)]),
    ],
        strokes="fully stroked one-color quadrilateral 1-2-3-4 plus triangle 1-3-5",
        circles="uncircled")
    add(19, [
        clause([L(1, 3, 5)]),
    ],
        strokes="one-color triangle 1-3-5, isolated in its color",
        circles="uncircled triangle")
    add(20, [
        clause([L(1, 2, 3, 4), G(2, 4)]),
    ],
        strokes="fully one-color-stroked quadrilateral on 1,2,3,4",
        circles="2 and 4 circled and mutually close in the other color")
    add(21, [
        clause([L(1, 2, 3, 4)]),
    ],
        strokes="fully one-color-stroked quadrilateral on 1,2,3,4",
        circles="uncircled")
    add(22, [
        clause([G(1, 2, 3, 4)]),
    ],
        strokes="single-color-close cluster {1,2,3,4}",
        circles="1,2,3,4 circled")
    add(23, [
        clause([L(1, 2, 3)]),
    ],
        strokes="isolated one-color triangle 1-2-3, variant a",
        circles="uncircled")
    add(24, [
        clause([L(1, 2, 3)]),
    ],
        strokes="isolated one-color triangle 1-2-3, variant b",
        circles="uncircled")
    add(25, [
        clause([L(1, 2, 3)]),
    ],
        strokes="isolated one-color triangle 1-2-3, variant c",
        circles="uncircled")
    add(26, [
        clause([L(1, 2, 3)]),
    ],
        strokes="isolated one-color triangle 1-2-3, variant d",
        circles="uncircled")
    add(27, [
        clause([L(1, 2, 3, 4), L(1, 2, 3, 5)]),
    ],
        strokes="two fully stroked quadrilaterals 1-2-3-4 and 1-2-3-5 sharing a triangle",
        circles="uncircled")
    add(28, [
        clause([L(1, 2, 3, 4)]),
    ],
        strokes="fully stroked quadrilateral 1-2-3-4 attached to vertex 5",
        circles="uncircled")
    add(29, [
        clause([L(1, 2, 3, 4, 5)]),
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
# bitmask m.  A tuple's subset table holds Γ_J at index m and L_J at
# _MOMENTUM + m; index 0, the empty sum, holds the constant 0.
_SUBSETS = tuple(
    (J, sum(1 << j for j in J))
    for J in sorted(J for r in range(1, N_VORTICES + 1)
                    for J in combinations(range(N_VORTICES), r))
)
_MOMENTUM = 1 << N_VORTICES
# The table's fill order: each nonempty J after J∖j, as its bitmask m, m
# without J's largest index j, and j.
_STEPS = tuple((m, m - (1 << J[-1]), J[-1]) for J, m in _SUBSETS)
# The subset check's 57 conditions in its order, J lexicographic and Γ_J
# before L_J: each as the table index that must not vanish and the check it
# fails with.  They are the first 57 pairs of the vanishing-pair mask.
_CONDITIONS = tuple(
    (offset + m, SubsetCheck(False, tuple(j + 1 for j in J), kind))
    for J, m in _SUBSETS
    for offset, kind in ((0, "vanishing_sum"), (_MOMENTUM, "vanishing_pair_momentum"))
    if len(J) > 1 or not offset
)
_PASSED = SubsetCheck(True)
_EXACT_NOTES = ("diagram 29 lists only L=0; its Γ=0 alternative is excluded by assumption",)
_FLOAT_NOTES = ("float input: equalities tested against a scale-aware tolerance",) + _EXACT_NOTES


class _Normalized(NamedTuple):
    """A five-tuple rescaled once on entry, with its vanishing-pair mask; same verdict as the input.

    Exact input: ``gammas`` is the primitive integer vector (denominators
    cleared, divided by the gcd, signs kept), on which every catalog
    polynomial is a Python int.  Float input: ``gammas`` is the input over
    max|Γ|; an entry that underflows to 0.0 is zero relative to max|Γ|.

    ``mask`` has bit i set when pair i's two table entries agree: equal for
    exact input, within ZERO_TOL of each other for float input.
    """

    exact: bool
    gammas: tuple
    mask: int


def _subset_table(gammas: tuple) -> list:
    """The subset table of a normalized tuple: the 31 Γ_J and 26 L_J at their indices, 0 elsewhere.

    Γ_J = Γ_{J∖j} + g_j and L_J = L_{J∖j} + g_j·Γ_{J∖j}, j the largest index
    of J, for exact and float tuples alike.  Exact tables are exact in
    Python ints; a float L_J lies within |J|·u·Σ|g_a·g_b| of its exact
    value (u the unit roundoff), far inside ZERO_TOL.
    """
    sums = [0] * _MOMENTUM
    momenta = [0] * _MOMENTUM
    for m, rest, j in _STEPS:
        g = gammas[j]
        s = sums[rest]
        sums[m] = s + g
        momenta[m] = momenta[rest] + g * s
    return sums + momenta


def _normalized(v) -> _Normalized:
    """Normalize a VorticitySet and build its mask; :func:`verdict` passes the result on as is."""
    if isinstance(v, _Normalized):
        return v
    _require_five(v)
    exact = v.is_exact
    if exact:
        ratios = [(g if isinstance(g, (int, Fraction)) else Fraction(g)).as_integer_ratio()
                  for g in v.gammas]
        common = lcm(*(d for _, d in ratios))
        ints = [n * (common // d) for n, d in ratios]
        divisor = gcd(*ints)
        gammas = tuple(i // divisor for i in ints)
    else:
        floats = _as_floats(v.gammas)
        top = max(abs(f) for f in floats)
        gammas = tuple(f / top for f in floats)
    table = _subset_table(gammas)
    a, b = (ends(table) for ends in _ENDS)
    if exact:
        hits = map(eq, a, b)
    else:
        hits = [abs(x - y) <= ZERO_TOL for x, y in zip(a, b)]
    return _Normalized(exact, gammas, sum(compress(_BITS, hits)))


_PERMUTATIONS = tuple(permutations(range(N_VORTICES)))
# _BIT_OF[j][k] is the bitmask of input vortex σ_k[j], σ_k = _PERMUTATIONS[k].
_BIT_OF = tuple(tuple(1 << sigma[j] for sigma in _PERMUTATIONS) for j in range(N_VORTICES))
_LABELS = tuple(tuple(s + 1 for s in sigma) for sigma in _PERMUTATIONS)


def _build_plans(diagrams: tuple) -> tuple:
    """Each clause relation compiled to one pair of subset-table indices per σ.

    A relation P − N has each side a Γ_J, an L_J or 0, the table's constant.
    Catalog label i stands for input vortex σ[i], so Γ_J of the pulled-back
    tuple is Γ_σ(J) of the input, and the relation there is the difference
    of the table entries of P and N relabelled by σ.

    Returns the plans, the pairs and the preimages.  The plans hold one
    (diagram id, clause index, clause, equalities, inequations) per clause
    in catalog order, each polynomial as its pair's bit under each σ, in
    _PERMUTATIONS order; a clause's anchor is its first equality.  The pairs
    hold the two table indices of each bit, larger first: the 57 of
    _CONDITIONS, then the catalog's others.  The preimages hold, for each
    bit, one (plan position, ascending _PERMUTATIONS indices) entry per
    clause whose anchor those σ send to that pair.
    """
    images: dict = {}  # a side -> its table index under each σ
    bits = {(i, 0): bit for bit, (i, _) in enumerate(_CONDITIONS)}  # pair -> its bit

    def index(side):
        if side not in images:
            degree, J = side or (1, ())  # the empty side is Γ of no labels, the constant 0
            image = repeat(_MOMENTUM if degree == 2 else 0, len(_PERMUTATIONS))
            for j in J:
                image = map(add, image, _BIT_OF[j - 1])
            images[side] = tuple(image)
        return images[side]

    @cache  # a relation recurs in many clauses
    def compiled(r):
        pairs = tuple(zip(index(r.plus), index(r.minus)))
        bit = {(h, l): bits.setdefault((h, l) if h > l else (l, h), len(bits))
               for h, l in dict.fromkeys(pairs)}
        return tuple(map(bit.__getitem__, pairs))

    plans = [(d.id, ci, cl, tuple(map(compiled, cl.equalities)), tuple(map(compiled, cl.inequations)))
             for d in diagrams for ci, cl in enumerate(d.clauses)]
    preimages: list = [[] for _ in bits]
    sent: dict = {}  # anchor -> its bits, each with the σ indices that send it there
    for position, (*_, (anchor, *_), _) in enumerate(plans):
        if anchor not in sent:
            ks_of: dict = {}
            for k, bit in enumerate(anchor):
                ks_of.setdefault(bit, []).append(k)
            sent[anchor] = [(bit, tuple(ks)) for bit, ks in ks_of.items()]
        for bit, ks in sent[anchor]:
            preimages[bit].append((position, ks))
    return tuple(plans), tuple(bits), tuple(map(tuple, preimages))


_PLANS, _MASK_PAIRS, _PREIMAGES = _build_plans(_CATALOG)
_BITS = tuple(1 << bit for bit in range(len(_MASK_PAIRS)))
_ENDS = tuple(itemgetter(*ends) for ends in zip(*_MASK_PAIRS))
_SUBSET_BITS = (1 << len(_CONDITIONS)) - 1
_TOTAL_BIT = 1 << _MASK_PAIRS.index((_MOMENTUM - 1, 0))  # Γ_12345 vanishes


@cache
def _clause_masks(position: int) -> tuple:
    """For the clause at _PLANS[position], its equality masks, inequation masks and classes per σ.

    Each mask has the bits of the pairs that the clause's equalities, anchor
    included, or its inequations compile to under σ.  Holding the anchor's
    bit costs nothing, since a clause is tried only where its anchor
    vanishes.  Each class is the first _PERMUTATIONS index of σ's label
    class: σ and σ′ share a class exactly when they relabel the clause's
    equalities, and its inequations, to the same polynomials up to sign, so
    the classes are the cosets of the clause's label stabilizer.  Distinct
    pairs are distinct polynomials up to sign, so the two masks under σ
    decide its class, and every σ of a class matches when one does.  Built
    on the clause's first candidate, not at import.
    """
    *_, eqs, neqs = _PLANS[position]
    masks = tuple(tuple(sum({_BITS[poly[k]] for poly in polys}) for k in range(len(_PERMUTATIONS)))
                  for polys in (eqs, neqs))
    first: dict = {}
    return (*masks, tuple(first.setdefault(pair, k) for k, pair in enumerate(zip(*masks))))


@cache
def _candidates(bit: int) -> tuple:
    """The relabellings tried when bit ``bit`` of the mask is set: one per label class.

    One entry for each clause and σ of _PREIMAGES[bit] that is the first σ
    of its label class: the match's place in catalog order, then
    permutation order; the clause's equality and inequation masks under σ;
    and the CatalogMatch reported when the clause matches under σ, built
    once and shared, since it is frozen.  Built on the bit's first use.
    """
    entries = []
    for position, ks in _PREIMAGES[bit]:
        diagram_id, ci, cl, *_ = _PLANS[position]
        eqs, neqs, classes = _clause_masks(position)
        entries += ((position * len(_PERMUTATIONS) + k, eqs[k], neqs[k],
                     CatalogMatch(diagram_id, ci, cl.lambda_branch, _LABELS[k]))
                    for k in ks if classes[k] == k)
    return tuple(entries)


def evaluate_diagram_constraints(v: VorticitySet) -> list:
    """All catalog matches of a 5-tuple over the 120 label permutations.

    Read off the tuple's vanishing-pair mask; no polynomial is evaluated.
    A clause is tried only under the relabellings that make its anchor
    vanish, the preimages of the mask's set bits, so a generic tuple tries
    none, and only under the first σ of each label class
    (:func:`_clause_masks`, :func:`_candidates`): the σ of a class share
    both masks, so they match together.  Under each, the clause matches
    when the mask holds every bit of its equalities and none of its
    inequations.  Float inputs count a polynomial of degree d as zero when
    it is at most 1e-9 relative to max|Γ|^d (the caller should treat those
    results as approximate).  Matches come in catalog order, then
    permutation order, one per label class, each at the first σ of its
    class.
    """
    zero = _normalized(v).mask
    nonzero = ~zero
    found = []
    rest = zero
    while rest:
        low = rest & -rest
        found += [(order, match) for order, eqs, neqs, match in _candidates(low.bit_length() - 1)
                  if not (eqs & nonzero or neqs & zero)]
        rest ^= low
    found.sort()
    return [match for _, match in found]


def check_subset_conditions(v: VorticitySet) -> SubsetCheck:
    """Sufficient finiteness condition on all index subsets.

    Passes iff Γ_J != 0 for every nonempty J and L_J != 0 for every J with
    at least two indices.  These are the first 57 bits of the tuple's
    vanishing-pair mask, in the order J lexicographic, Γ_J before L_J, so
    on failure the lowest set bit names the lexicographically first
    violating subset.
    """
    failed = _normalized(v).mask & _SUBSET_BITS
    if not failed:
        return _PASSED
    return _CONDITIONS[(failed & -failed).bit_length() - 1][1]


def verdict(v: VorticitySet) -> ExceptionalReport:
    """Certify finiteness or flag the tuple as exceptional-suspect.

    Certification rests on :func:`check_subset_conditions` alone; raw catalog
    matches are included for diagnostics.  Requires Γ != 0.
    """
    n = _normalized(v)  # the subset table and its vanishing-pair mask, built once
    subset_check = check_subset_conditions(n)
    if n.mask & _TOTAL_BIT:
        raise TotalVorticityZeroError(
            "total vorticity is zero; the certification presupposes Γ != 0"
        )
    return ExceptionalReport(
        verdict="certified_finite" if subset_check.passed else "exceptional_suspect",
        subset_check=subset_check,
        matches=tuple(evaluate_diagram_constraints(n)),
        approximate=not n.exact,
        notes=_EXACT_NOTES if n.exact else _FLOAT_NOTES,
    )
