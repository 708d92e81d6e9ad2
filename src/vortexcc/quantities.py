"""Domain types and conserved quantities of planar point-vortex systems.

Two scalar backends coexist: double-precision floats for the numerical
solvers, and exact rationals (``fractions.Fraction``) for the polynomial
constraint checks and identity tests.  Conversion between backends is always
explicit (:meth:`VorticitySet.as_float` / :meth:`VorticitySet.as_exact`).

Complex coordinates come in two flavours to match: Python ``complex`` on the
float side and :class:`ExactComplex` on the rational side.  The physical
regime is represented by passing the conjugate coordinates ``w`` explicitly
(``w = conjugate_positions(z)``); there is no hidden regime flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from numbers import Rational
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ExactComplex",
    "VorticitySet",
    "PlanarConfiguration",
    "Invariants",
    "total_vorticity",
    "angular_momentum",
    "invariants_of",
    "conjugate_positions",
    "is_exact_scalar",
]


def is_exact_scalar(x) -> bool:
    """True for ints and Fractions; floats take the numeric path."""
    return isinstance(x, Rational)


def _coerce_exact(x) -> "ExactComplex":
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, Rational):
        return ExactComplex(Fraction(x))
    raise TypeError(
        f"cannot mix {type(x).__name__} into exact complex arithmetic; convert explicitly"
    )


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other):
        other = _coerce_exact(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_exact(other)
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce_exact(other).__sub__(self)

    def __mul__(self, other):
        other = _coerce_exact(other)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"ExactComplex({self.re!s}, {self.im!s})"


@dataclass(frozen=True)
class VorticitySet:
    """Vortex strengths (Γ_1, ..., Γ_N); every strength is finite and nonzero, N >= 2."""

    gammas: tuple

    def __post_init__(self):
        gs = tuple(self.gammas)
        if len(gs) < 2:
            raise ValueError("need at least two vortices")
        for i, g in enumerate(gs, start=1):
            if g == 0:
                raise ValueError(f"vorticity must be nonzero (entry {i} is zero)")
            if not is_exact_scalar(g) and not math.isfinite(g):
                raise ValueError(f"vorticity must be finite (entry {i} is {g})")
        object.__setattr__(self, "gammas", gs)

    @property
    def n(self) -> int:
        return len(self.gammas)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(g) for g in self.gammas)

    def as_float(self) -> "VorticitySet":
        return VorticitySet(tuple(float(g) for g in self.gammas))

    def as_exact(self) -> "VorticitySet":
        """Exact view; float entries convert to their binary-exact Fraction."""
        return VorticitySet(tuple(Fraction(g) for g in self.gammas))

    def __iter__(self):
        return iter(self.gammas)


@dataclass(frozen=True)
class PlanarConfiguration:
    """Collision-free complex positions (z_1, ..., z_N)."""

    positions: tuple

    def __post_init__(self):
        ps = tuple(self.positions)
        if len(ps) < 2:
            raise ValueError("need at least two positions")
        for j, k in combinations(range(len(ps)), 2):
            if ps[j] == ps[k]:
                raise ValueError(f"collision: positions {j + 1} and {k + 1} coincide")
        object.__setattr__(self, "positions", ps)

    @property
    def n(self) -> int:
        return len(self.positions)

    def __iter__(self):
        return iter(self.positions)


@dataclass(frozen=True)
class Invariants:
    """Conserved and derived quantities of a configuration.

    ``gamma`` is the total vorticity, ``L`` the pairwise vorticity momentum,
    ``M`` the vorticity moment, ``I`` the angular impulse and ``S`` the
    vorticity-weighted sum of squared separations.  ``lam`` is set only on
    central-configuration solutions.

    The algebraic identity ``gamma*I - S == M_z * M_w`` holds for every
    configuration; in particular ``gamma*I == S`` whenever the vorticity
    moment vanishes.
    """

    gamma: object
    L: object
    M: object
    I: object
    S: object
    lam: object = None
    M_w: object = None  # moment of the conjugate coordinates, conj(M) physically

    @property
    def identity_defect(self):
        """gamma*I - S; equals M_z*M_w, hence 0 on zero-moment configurations."""
        return self.gamma * self.I - self.S

    @property
    def lambda_defect(self):
        """lam*I - L on central-configuration solutions, None otherwise."""
        if self.lam is None:
            return None
        return self.lam * self.I - self.L


def total_vorticity(v: VorticitySet):
    return sum(v.gammas[1:], start=v.gammas[0])


def angular_momentum(v: VorticitySet, subset: Iterable[int] | None = None):
    """Sum of Γ_j Γ_k over unordered pairs of `subset` (1-based indices).

    `subset=None` means the full index set.  Subsets of fewer than two
    indices have no pair terms and are rejected.
    """
    if subset is None:
        idx = range(1, v.n + 1)
    else:
        idx = sorted(set(subset))
        if any(i < 1 or i > v.n for i in idx):
            raise ValueError(f"subset indices must lie in 1..{v.n}")
    idx = list(idx)
    if len(idx) < 2:
        raise ValueError("undefined subset momentum (need at least two indices)")
    g = v.gammas
    total = g[idx[0] - 1] * g[idx[1] - 1]
    first = True
    for a, b in combinations(idx, 2):
        if first:
            first = False
            continue
        total = total + g[a - 1] * g[b - 1]
    return total


def conjugate_positions(z: Sequence) -> tuple:
    """Elementwise conjugate; the conventional `w` of the physical regime."""
    if isinstance(z, PlanarConfiguration):
        z = z.positions
    return tuple(p.conjugate() for p in z)


def _unwrap(z):
    return z.positions if isinstance(z, PlanarConfiguration) else tuple(z)


def invariants_of(v: VorticitySet, z, w, lam=None):
    """Compute (Γ, L, M, I, S) for positions `z` with conjugate partners `w`.

    Works over both scalar backends.  Pass ``w = conjugate_positions(z)`` for
    the physical regime.

    Also takes stacks: complex arrays z, w of shape (S, N) give a list of S
    Invariants, and ``lam`` is then None or one entry per row.  Each equals
    the call on that row, bit for bit and type for type.
    """
    if isinstance(z, np.ndarray) and z.ndim == 2:
        return _stacked_invariants(v, z, np.asarray(w), lam)
    zs, ws = _unwrap(z), _unwrap(w)
    if len(zs) != v.n or len(ws) != v.n:
        raise ValueError(
            f"length mismatch: {v.n} vorticities, {len(zs)} z-positions, {len(ws)} w-positions"
        )
    M, M_w, I, S = _moments(v.gammas, zs, ws)
    return Invariants(gamma=total_vorticity(v), L=angular_momentum(v), M=M, I=I, S=S, lam=lam,
                      M_w=M_w)


def _moments(g, zs, ws) -> tuple:
    """(M, M_w, I, S) of strengths g and coordinates zs, ws, in one fixed order of operations."""
    M = g[0] * zs[0]
    M_w = g[0] * ws[0]
    I = g[0] * zs[0] * ws[0]
    for j in range(1, len(g)):
        M = M + g[j] * zs[j]
        M_w = M_w + g[j] * ws[j]
        I = I + g[j] * zs[j] * ws[j]
    S = None
    for j, k in combinations(range(len(g)), 2):
        term = g[j] * g[k] * (zs[k] - zs[j]) * (ws[k] - ws[j])
        S = term if S is None else S + term
    return M, M_w, I, S


class _Column:
    """A column of complex values whose arithmetic rounds as numpy complex scalars do.

    A real factor a enters as the complex a + 0j, and products are
    (ar·br − ai·bi, ar·bi + ai·br) in real arithmetic; numpy's vectorized
    complex multiply rounds differently.
    """

    def __init__(self, re, im):
        self.re, self.im = re, im

    def __add__(self, other):
        return _Column(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _Column(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if not isinstance(other, _Column):
            other = _Column(float(other), 0.0)
        return _Column(self.re * other.re - self.im * other.im,
                       self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def values(self) -> np.ndarray:
        out = np.empty(len(self.re), dtype=complex)
        out.real, out.imag = self.re, self.im
        return out


def _stacked_invariants(v: VorticitySet, z: np.ndarray, w: np.ndarray, lams) -> list:
    """Rows of :func:`invariants_of` on (S, N) stacks, from one pass of :func:`_moments` over columns."""
    if z.shape != w.shape or z.shape[1] != v.n:
        raise ValueError(
            f"shape mismatch: {v.n} vorticities, z-positions {z.shape}, w-positions {w.shape}"
        )
    zs = [_Column(z.real[:, j], z.imag[:, j]) for j in range(v.n)]
    ws = [_Column(w.real[:, j], w.imag[:, j]) for j in range(v.n)]
    M, M_w, I, S = (c.values() for c in _moments(v.gammas, zs, ws))
    gamma, L = total_vorticity(v), angular_momentum(v)
    lams = [None] * len(z) if lams is None else lams
    return [
        Invariants(gamma=gamma, L=L, M=m, I=i, S=s, lam=lam, M_w=m_w)
        for m, m_w, i, s, lam in zip(M, M_w, I, S, lams)
    ]
