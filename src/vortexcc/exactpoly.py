"""Sparse multivariate polynomials with integer coefficients.

The vorticity constraint catalog is held in this one form: it is written with
``-`` and ``*`` and printed.  The catalog compiles each polynomial into
subset-table lookups at import, so a verdict evaluates none of them;
:meth:`Poly.evaluate` (in Python ints on int input) is the reference that the
tests check those lookups against.  :meth:`Poly.permuted` and
:meth:`Poly.sign_canonical` define a relabelled constraint up to sign, the
tests' reference for the label classes that dedupe catalog matches; the
catalog reads those off each clause's compiled pairs of table indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["Poly"]


@dataclass(frozen=True)
class Poly:
    """Polynomial in a fixed number of variables, integer coefficients.

    ``terms`` holds ``(coefficient, indices)`` pairs, ``indices`` being the
    sorted variable indices of the monomial, one entry per factor.  Building
    a Poly merges like terms, drops zero ones and orders them leading
    variable first, so equality and hashing are structural; a non-integer
    coefficient raises ValueError.
    """

    nvars: int
    terms: tuple

    def __post_init__(self):
        acc: dict = {}
        for coeff, idx in self.terms:
            if not isinstance(coeff, int):
                raise ValueError(f"non-integer coefficient {coeff!r}")
            if not all(0 <= i < self.nvars for i in idx):
                raise ValueError("variable index out of range")
            idx = tuple(sorted(idx))
            acc[idx] = acc.get(idx, 0) + coeff
        # Leading variable first: the exponent tuples in descending order are
        # the index tuples in ascending order, each ended by a past-the-end index.
        terms = sorted(((c, idx) for idx, c in acc.items() if c),
                       key=lambda t: t[1] + (self.nvars,))
        object.__setattr__(self, "terms", tuple(terms))

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, tuple((-c, idx) for c, idx in self.terms))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(self.nvars, self.terms + (-other).terms)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(self.nvars, tuple(
            (c1 * c2, i1 + i2) for c1, i1 in self.terms for c2, i2 in other.terms
        ))

    def evaluate(self, values: Sequence):
        """Value at `values`: an int on ints.

        Each term multiplies its coefficient by its factors in index order,
        and the terms are added from int 0, so float input rounds exactly as
        float coefficients would.
        """
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        total = 0
        for coeff, idx in self.terms:
            term = coeff
            for i in idx:
                term *= values[i]
            total += term
        return total

    def permuted(self, sigma: Sequence[int]) -> "Poly":
        """Relabel variables: variable i becomes variable sigma[i] (0-based).

        Evaluating ``p.permuted(sigma)`` at x equals evaluating ``p`` at the
        pulled-back tuple (x[sigma[0]], ..., x[sigma[n-1]]).
        """
        if sorted(sigma) != list(range(self.nvars)):
            raise ValueError("sigma must be a permutation of the variables")
        return Poly(self.nvars, tuple((c, [sigma[i] for i in idx]) for c, idx in self.terms))

    def sign_canonical(self) -> "Poly":
        """Scale by ±1 so the leading coefficient is positive (p and -p collapse)."""
        return -self if self.terms and self.terms[0][0] < 0 else self

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for coeff, idx in self.terms:
            names = "*".join(
                f"g{i + 1}" + (f"^{idx.count(i)}" if idx.count(i) > 1 else "")
                for i in sorted(set(idx))
            )
            if not names:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(names)
            elif coeff == -1:
                parts.append(f"-{names}")
            else:
                parts.append(f"{coeff}*{names}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")
