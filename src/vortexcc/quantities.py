"""Domain types and conserved quantities of planar point-vortex systems.

Two scalar backends coexist: double-precision floats for the numerical
solvers, and exact rationals (``fractions.Fraction``) for the polynomial
constraint checks and identity tests.  Conversion between backends is always
explicit (:meth:`VorticitySet.as_float` / :meth:`VorticitySet.as_exact`).

Complex coordinates come in two flavours to match: Python ``complex`` (or
numpy complex scalars) on the float side and :class:`ExactComplex` on the
rational side.  The physical regime is represented by passing the conjugate
coordinates ``w`` explicitly (``w = conjugate_positions(z)``); there is no
hidden regime flag.

The invariants have one arithmetic, the order of operations of
:func:`_moments`.  A float stack with float strengths is evaluated for all
rows at once by :func:`_moment_stack`, which writes that arithmetic out in
real parts as numpy's complex scalars round it, so a stacked call and the
row calls agree bit for bit, up to the sign of a NaN, and type for type.
Exact and single configurations, and other stacks, take the loop itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from numbers import Complex, Integral, Rational, Real
from typing import Iterable, Sequence

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


# Scalar types classified without the ``numbers`` ABC check, which is the
# slow part of is_exact_scalar: True when exact.
_PLAIN = {int: True, Fraction: True, float: False}


def is_exact_scalar(x) -> bool:
    """True for ints and Fractions; floats take the numeric path."""
    exact = _PLAIN.get(type(x))
    return isinstance(x, Rational) if exact is None else exact


def _as_floats(gammas) -> tuple:
    """Strengths as floats, the one float conversion of every float path.

    A rational entry beyond the float range raises a ValueError that names
    it, where ``float`` alone raises OverflowError.
    """
    try:
        return tuple(map(float, gammas))
    except OverflowError:
        for i, g in enumerate(gammas, start=1):
            try:
                float(g)
            except OverflowError:
                raise ValueError(f"vorticity entry {i} is beyond the float range") from None
        raise


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
    """Vortex strengths (Γ_1, ..., Γ_N); every strength is real, finite and nonzero, N >= 2.

    Integer entries of any type (numpy integers included) are stored as
    Python ints, so exact arithmetic on them never wraps around.
    """

    gammas: tuple

    def __post_init__(self):
        gs = tuple(operator.index(g) if isinstance(g, Integral) else g for g in self.gammas)
        if len(gs) < 2:
            raise ValueError("need at least two vortices")
        for i, g in enumerate(gs, start=1):
            # A complex entry is refused, not read by its real part; the plain
            # types skip the slow ``numbers`` checks.
            if type(g) not in _PLAIN and isinstance(g, Complex) and not isinstance(g, Real):
                raise ValueError(f"vorticity must be a real number (entry {i} is {g!r})")
            if g == 0:
                raise ValueError(f"vorticity must be nonzero (entry {i} is zero)")
            try:
                finite = is_exact_scalar(g) or math.isfinite(g)
            except TypeError:
                raise ValueError(f"vorticity must be a real number (entry {i} is {g!r})") from None
            if not finite:
                raise ValueError(f"vorticity must be finite (entry {i} is {g})")
        object.__setattr__(self, "gammas", gs)

    @property
    def n(self) -> int:
        return len(self.gammas)

    @property
    def is_exact(self) -> bool:
        return all(map(is_exact_scalar, self.gammas))

    def as_float(self) -> "VorticitySet":
        return VorticitySet(_as_floats(self.gammas))

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
    products = [g[a - 1] * g[b - 1] for a, b in combinations(idx, 2)]
    return sum(products[1:], start=products[0])


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
    Invariants, and ``lam`` is then None or one entry per row.  Γ and L are
    computed once.  With float strengths and complex128 stacks, M, M_w, I
    and S of all rows come from :func:`_moment_stack`; any other stack is
    evaluated row by row by :func:`_moments`.  Either way each entry is the
    call on that row, up to the sign of a NaN.
    """
    if getattr(z, "ndim", None) == 2:
        import numpy as np  # only stacks need numpy; the exact path runs without it

        w = np.asarray(w)
        lams = [None] * len(z) if lam is None else lam
        if z.shape != w.shape or z.shape[1] != v.n or len(lams) != len(z):
            raise ValueError(
                f"shape mismatch: {v.n} vorticities, z-positions {z.shape}, "
                f"w-positions {w.shape}, {len(lams)} lambdas"
            )
        gamma, L = total_vorticity(v), angular_momentum(v)
        if z.dtype == w.dtype == np.complex128 and all(isinstance(g, float) for g in v.gammas):
            rows = zip(*_moment_stack(np.array(v.gammas), z, w))
        else:
            rows = (_moments(v.gammas, tuple(zs), tuple(ws)).values() for zs, ws in zip(z, w))
        return [Invariants(gamma=gamma, L=L, M=M, I=I, S=S, lam=lam_s, M_w=M_w)
                for (M, M_w, I, S), lam_s in zip(rows, lams)]
    zs, ws = _unwrap(z), _unwrap(w)
    if len(zs) != v.n or len(ws) != v.n:
        raise ValueError(
            f"length mismatch: {v.n} vorticities, {len(zs)} z-positions, {len(ws)} w-positions"
        )
    return Invariants(gamma=total_vorticity(v), L=angular_momentum(v), lam=lam,
                      **_moments(v.gammas, zs, ws))


def _moments(g, zs, ws) -> dict:
    """M, M_w, I and S of strengths g and coordinates zs, ws, in one fixed order of operations."""
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
    return {"M": M, "M_w": M_w, "I": I, "S": S}


def _moment_stack(g, z, w) -> tuple:
    """M, M_w, I and S, as complex128 arrays (S,), of float strengths g (N,) and stacks z, w (S, N).

    Real arithmetic written out as :func:`_moments` rounds on numpy complex
    scalars: a float g times a complex c is (g + 0j)·c, whose 0·Im c and
    0·Re c terms carry signed zeros, inf and NaN, and every sum starts from
    its first term in the loop's order.  The rows agree with the loop in
    every part that is not NaN.
    """
    import numpy as np

    def times(ar, ai, br, bi):
        return ar * br - ai * bi, ar * bi + ai * br

    def total(parts):       # (Re, Im) parts (S, K), summed over K from the first column
        re, im = parts
        sr, si = re[:, 0], im[:, 0]
        for q in range(1, re.shape[1]):
            sr, si = sr + re[:, q], si + im[:, q]
        out = np.empty(len(sr), dtype=complex)
        out.real, out.imag = sr, si
        return out

    x, y, u, t = z.real, z.imag, w.real, w.imag
    gz, gw = times(g, 0.0, x, y), times(g, 0.0, u, t)
    j, k = (list(a) for a in zip(*combinations(range(len(g)), 2)))
    gdz = times(g[j] * g[k], 0.0, x[:, k] - x[:, j], y[:, k] - y[:, j])
    return (total(gz), total(gw), total(times(*gz, u, t)),
            total(times(*gdz, u[:, k] - u[:, j], t[:, k] - t[:, j])))
