"""Degenerating families of central configurations and their cluster diagrams.

Contains the classical Roberts rhombus continuum (vorticities 2,2,2,2,-1)
as generator and verifier, the max-component balancing normalization that
defines the small parameter ε, log-log order-exponent regression along a
degenerating family, stroke/circle diagram extraction from those exponents,
and the four-factor squared-distance products used in finiteness arguments.

Scaling conventions.  For coordinates (z, w) the component vector of the
z-side collects the positions z_n together with the reciprocal separations
1/w_jk; the w-side mirrors it.  Multiplying z by a > 0 and w by 1/a scales
the two component vectors by a and 1/a, so there is a unique balancing
a with equal max-norms; ε is then ‖·‖^(-1/2).  Strokes mark separations of
order ε², circles mark positions of order ε^(-2), in each color.

A family of T configurations is held as two (T, N) complex stacks, balanced in
one call on system's pair kernels and fitted one column at a time over its
trailing rows; family files hold the rows in system's (Re, Im) layout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .quantities import VorticitySet
from .system import (
    COLLISION_GUARD,
    CollisionError,
    ComplexConfiguration,
    _complexify,
    _pairs,
    _realify_vector,
    _separations,
    complex_system_residual,
    velocity_field,
)

__all__ = [
    "NotSingularError",
    "ColoredDiagram",
    "DiagramExtraction",
    "ROBERTS_VORTICITIES",
    "roberts_family",
    "roberts_normalized",
    "verify_roberts",
    "roberts_parameter_sequence",
    "balance_normalize",
    "extract_diagram",
    "four_product",
    "save_family",
    "load_family",
]

ROBERTS_VORTICITIES = VorticitySet((2.0, 2.0, 2.0, 2.0, -1.0))

# Exponent band: measured slopes within ±0.2 of {2, -2} classify as
# stroke/circle; genuine families separate exponents by integers.
EXPONENT_BAND = 0.2


class NotSingularError(ValueError):
    """The family does not degenerate (ε is not decreasing to zero)."""


@dataclass(frozen=True)
class ColoredDiagram:
    """Stroke/circle record of a degenerating family, one set per color."""

    n_vertices: int
    z_strokes: frozenset  # pairs (j, k), 1-based, j < k
    w_strokes: frozenset
    z_circles: frozenset  # vertex labels
    w_circles: frozenset

    @property
    def satisfies_rule_one(self) -> bool:
        """Circled vertices carry an incident stroke of the same color, and a
        nonempty colored part contains at least one stroke of that color."""
        for circles, strokes in ((self.z_circles, self.z_strokes),
                                 (self.w_circles, self.w_strokes)):
            for vertex in circles:
                if not any(vertex in pair for pair in strokes):
                    return False
            if circles and not strokes:
                return False
        return True

    @property
    def stroke_pairs(self) -> frozenset:
        return self.z_strokes | self.w_strokes


@dataclass(frozen=True)
class DiagramExtraction:
    """Extracted diagram plus the measured order exponents behind it."""

    diagram: ColoredDiagram
    epsilons: tuple
    separation_exponents: dict  # (j, k) -> (z-slope, w-slope)
    position_exponents: dict    # j -> (z-slope | None, w-slope | None)


# ---------------------------------------------------------------------------
# Roberts rhombus continuum
# ---------------------------------------------------------------------------


def _roberts_b(a: float, branch: str) -> complex:
    if branch == "real":
        if not 0.0 < a < 1.0:
            raise ValueError("real branch requires 0 < a < 1")
        return 1j * math.sqrt(1.0 - a * a)
    if branch == "complex":
        # b rounds to a from 2^27 (for some a above 2^26) and overflows past 1.34e154,
        # so vortices 1 and 2 coincide; b < a fails there and, as b = a, for a <= 1.
        b = math.sqrt(a * a - 1.0) if a > 1.0 else a
        if not b < a:
            raise ValueError("complex branch requires a > 1 with sqrt(a*a - 1) < a (true up to 2^26)")
        return complex(b)
    raise ValueError(f"unknown branch {branch!r}")


def roberts_family(a: float, branch: str = "real"):
    """Rhombus continuum member at parameter `a`, in the unit-side scale.

    Vorticities (2, 2, 2, 2, -1); the fifth vortex sits at the origin and
    the first four form a rhombus z = (a, b, -a, -b), w = (a, -b, -a, b)
    with a^2 - b^2 = 1, so the four side squared-distances equal 1.  On the
    real branch b is purely imaginary and w = conj(z).  The rotation
    multiplier is computed from the configuration (it equals 4 in this
    scale) rather than hard-coded.

    Returns (vorticities, configuration, lam) with the configuration in the
    raw coordinates, before unit-multiplier normalization.
    """
    b = _roberts_b(float(a), branch)
    z = (complex(a), b, complex(-a), -b, 0j)
    w = (complex(a), -b, complex(-a), b, 0j)
    v = ROBERTS_VORTICITIES
    lam = velocity_field(v, z, w)[0] / z[0]
    conf = ComplexConfiguration(z=z, w=w, lam=lam)
    return v, conf, lam


def roberts_normalized(a: float, branch: str = "real") -> ComplexConfiguration:
    """Family member rescaled to unit rotation multiplier and gauged z_12 = w_12.

    Two commuting maps: the real dilation z -> s z, w -> s w with
    s = sqrt(|Λ|) (sends Λ = 4 to 1), then the rotation z -> ã z, w -> w/ã
    with ã² = w_12/z_12, which keeps every product z_jk·w_jk fixed and makes
    the gauge row vanish.
    """
    _, conf, lam = roberts_family(a, branch)
    s = math.sqrt(abs(lam))
    z = np.asarray(conf.z) * s
    w = np.asarray(conf.w) * s
    lam_unit = lam / (s * s)
    ratio = (w[1] - w[0]) / (z[1] - z[0])
    atil = np.sqrt(ratio)
    if (atil * (z[1] - z[0])).real < 0:
        atil = -atil
    return ComplexConfiguration(z=tuple(z * atil), w=tuple(w / atil), lam=lam_unit)


def verify_roberts(a: float, branch: str = "real") -> float:
    """Residual max-modulus of the normalized family member in the full system.

    On the complex branch it grows like a⁴ times the float64 roundoff (1.06e-10 at a = 20).
    """
    conf = roberts_normalized(a, branch)
    return complex_system_residual(conf, ROBERTS_VORTICITIES).norm


# The longest ladder whose every member is a collision-free configuration in
# floats.  On "a0", vortex 1 sits at distance a from vortex 5 at the origin,
# so a = 0.4·0.5^k must stay at or above COLLISION_GUARD (32 steps at 1e-10).
# Past 26 "ainf" steps b = sqrt(a² − 1) rounds to a in float64, so vortices 1
# and 2 coincide whatever the guard.
_MAX_STEPS = {"a0": math.floor(math.log2(0.4 / COLLISION_GUARD)) + 1, "ainf": 26}


def roberts_parameter_sequence(limit: str, steps: int = 12) -> tuple:
    """Geometric parameter ladders driving the two degenerations.

    ``steps`` runs from 4 to 32 for "a0" (at the default collision guard)
    and from 4 to 26 for "ainf".
    """
    # As in the solver's counts, a bool is not an integer.
    if isinstance(steps, bool) or not isinstance(steps, Integral):
        raise ValueError("steps must be an integer")
    if steps < 4:
        raise ValueError("need at least 4 steps")
    if limit not in _MAX_STEPS:
        raise ValueError(f"unknown limit {limit!r} (expected 'a0' or 'ainf')")
    if steps > _MAX_STEPS[limit]:
        raise ValueError(f"limit {limit!r} allows at most {_MAX_STEPS[limit]} steps, got {steps}")
    if limit == "a0":
        return tuple(0.4 * 0.5**k for k in range(steps))
    return tuple(2.0 * 2.0**k for k in range(steps))


def roberts_degeneration(limit: str, steps: int = 12):
    """(parameters, raw (z, w) configurations) for the chosen degeneration."""
    branch = "real" if limit == "a0" else "complex"
    params = roberts_parameter_sequence(limit, steps)
    configs = []
    for a in params:
        _, conf, _ = roberts_family(a, branch)
        configs.append((conf.z, conf.w))
    return params, tuple(configs)


# ---------------------------------------------------------------------------
# Balancing normalization and ε
# ---------------------------------------------------------------------------


def _moduli(p: np.ndarray) -> np.ndarray:
    # hypot rounds as Python's abs of one numpy complex does; numpy's
    # vectorized abs does not always.
    return np.hypot(p.real, p.imag)


def _balanced(z: np.ndarray, w: np.ndarray):
    """Balance every row of the (T, N) stacks z, w: (z', w', ε) with ε of shape (T,).

    z and w of different widths, or fewer than two vortices, raise ValueError;
    so does a NaN or infinite entry, for the first such row, in z if z has
    one.  A zero separation raises CollisionError for the first such row and
    pair, in w if w_jk = 0.
    """
    n = z.shape[1]
    if w.shape[1] != n:
        raise ValueError(f"z and w must hold the same number of vortices, got {n} and {w.shape[1]}")
    if n < 2:
        raise ValueError(f"need at least two vortices, got {n}")
    zfinite, wfinite = np.isfinite(z).all(axis=1), np.isfinite(w).all(axis=1)
    if not (zfinite & wfinite).all():
        row = int(np.argmin(zfinite & wfinite))
        raise ValueError(f"row {row} has a non-finite entry in {'w' if zfinite[row] else 'z'}")
    zsep, wsep = _moduli(_separations(z)), _moduli(_separations(w))
    zero = (zsep == 0.0) | (wsep == 0.0)
    if zero.any():
        row = int(np.argmax(zero.any(axis=1)))
        q = int(np.argmax(zero[row]))
        j, k = _pairs(z.shape[1])
        raise CollisionError(int(j[q]) + 1, int(k[q]) + 1, "w" if wsep[row, q] == 0.0 else "z")
    # Reciprocal separations of one color join the other color's side.
    nz = np.concatenate([_moduli(z), 1.0 / wsep], axis=1).max(axis=1)
    nw = np.concatenate([_moduli(w), 1.0 / zsep], axis=1).max(axis=1)
    a = np.sqrt(nw / nz)[:, None]
    # float_power rounds as Python's float ** does; numpy's ** does not always.
    return z * a, w / a, np.float_power(np.sqrt(nz * nw), -0.5)


def balance_normalize(z: Sequence, w: Sequence):
    """Rescale (z -> a z, w -> w/a, a > 0) so both component max-norms agree.

    Returns (z', w', ε) with ε = ‖components‖^(-1/2).  Squared distances
    z_jk·w_jk are exactly invariant; the map is idempotent.
    """
    zb, wb, eps = _balanced(np.asarray(z, dtype=complex)[None], np.asarray(w, dtype=complex)[None])
    return tuple(zb[0]), tuple(wb[0]), float(eps[0])


# ---------------------------------------------------------------------------
# Order-exponent regression and diagram extraction
# ---------------------------------------------------------------------------


def _slope(log_eps: np.ndarray, values: np.ndarray) -> float:
    return float(np.polyfit(log_eps, np.log(values), 1)[0])


def _near(slope: float | None, target: float) -> bool:
    return slope is not None and abs(slope - target) <= EXPONENT_BAND


def extract_diagram(configurations: Sequence, parameters: Sequence | None = None) -> DiagramExtraction:
    """Classify strokes and circles from order exponents along a family.

    `configurations` is a sequence of (z, w) pairs indexed by a parameter
    running toward the degeneration; `parameters` is accepted and unused.
    The family is balanced as one stack; the εs must decrease strictly
    toward zero, otherwise NotSingularError.  Exponents are least-squares
    slopes of log|·| against log ε over the trailing half of the sequence,
    one fit per separation or position.  Strokes of z-color sit on pairs
    whose w-separation exponent is within EXPONENT_BAND of 2 (and
    symmetrically); circles of z-color sit on vertices whose z-position
    exponent is within EXPONENT_BAND of -2 (and symmetrically).
    """
    if len(configurations) < 4:
        raise ValueError("fewer than 4 sequence points")
    zb, wb, eps = _balanced(np.array([z for z, _ in configurations], dtype=complex),
                            np.array([w for _, w in configurations], dtype=complex))
    if any(b >= a for a, b in zip(eps, eps[1:])) or eps[-1] > 0.5 * eps[0]:
        raise NotSingularError("not singular: ε does not decrease toward zero")

    n = zb.shape[1]
    tail = slice(len(eps) - math.ceil(len(eps) / 2), None)
    log_eps = np.log(eps[tail])

    def columns(p: np.ndarray) -> np.ndarray:
        # The tail moduli, one row per column of p.
        return _moduli(p[tail]).T

    def slope(column: np.ndarray) -> float | None:
        # A position that reaches 0 has no exponent; a separation never does.
        return _slope(log_eps, column) if np.all(column > 0.0) else None

    j, k = _pairs(n)
    sep_exponents = {
        pair: (_slope(log_eps, zsep), _slope(log_eps, wsep))
        for pair, zsep, wsep in zip(zip((j + 1).tolist(), (k + 1).tolist()),
                                    columns(_separations(zb)), columns(_separations(wb)))
    }
    pos_exponents = {
        vertex: (slope(zpos), slope(wpos))
        for vertex, zpos, wpos in zip(range(1, n + 1), columns(zb), columns(wb))
    }
    diagram = ColoredDiagram(
        n_vertices=n,
        z_strokes=frozenset({p for p, (_, ws) in sep_exponents.items() if _near(ws, 2.0)}),
        w_strokes=frozenset({p for p, (zs, _) in sep_exponents.items() if _near(zs, 2.0)}),
        z_circles=frozenset({v for v, (zs, _) in pos_exponents.items() if _near(zs, -2.0)}),
        w_circles=frozenset({v for v, (_, ws) in pos_exponents.items() if _near(ws, -2.0)}),
    )
    return DiagramExtraction(
        diagram=diagram,
        epsilons=tuple(eps.tolist()),
        separation_exponents=sep_exponents,
        position_exponents=pos_exponents,
    )


# ---------------------------------------------------------------------------
# Four-factor products
# ---------------------------------------------------------------------------


def four_product(z: Sequence, w: Sequence, pair: tuple) -> complex:
    """p_jn = r²_jn · r²_km · r²_ml · r²_lk for five vortices.

    (k, m, l) is the complement of {j, n} in ascending order; its three-cycle
    fixes the remaining factors.  r² means the product of z- and w-separation.
    """
    zs = [complex(p) for p in z]
    ws = [complex(p) for p in w]
    if len(zs) != 5 or len(ws) != 5:
        raise ValueError("four-products are defined for exactly 5 vortices")
    if not (len(pair) == 2 and pair[0] != pair[1] and all(
            isinstance(p, Integral) and not isinstance(p, bool) and 1 <= p <= 5 for p in pair)):
        raise ValueError("pair must be two distinct labels in 1..5")
    j, n_ = pair
    k, m, l = sorted(set(range(1, 6)) - {j, n_})

    def r2(a: int, b: int) -> complex:
        return (zs[b - 1] - zs[a - 1]) * (ws[b - 1] - ws[a - 1])

    return r2(j, n_) * r2(k, m) * r2(m, l) * r2(l, k)


# ---------------------------------------------------------------------------
# Family file format: columnar text, one configuration per row, the parameter
# and then z and w in system's (Re, Im) layout:
#   parameter, Re z_1, Im z_1, ..., Re z_N, Im z_N, Re w_1, Im w_1, ..., Re w_N, Im w_N
# ---------------------------------------------------------------------------


def save_family(path, parameters: Sequence, configurations: Sequence) -> None:
    """Write a family file; ValueError, writing nothing, wherever ``load_family`` would refuse it."""
    if len(parameters) != len(configurations):
        raise ValueError(f"family not saved: {len(parameters)} parameters, "
                         f"{len(configurations)} configurations")
    if len({len(part) for member in configurations for part in member}) > 1:
        raise ValueError("family not saved: every z and w needs the same length")
    z = np.array([z for z, _ in configurations], dtype=complex)
    w = np.array([w for _, w in configurations], dtype=complex)
    table = np.column_stack([[float(t) for t in parameters], _realify_vector(z), _realify_vector(w)])
    _check_family(table, "family not saved")
    header = "parameter, then interleaved re/im of z_1..z_N, then re/im of w_1..w_N"
    np.savetxt(path, table, header=header)


def _check_family(data: np.ndarray, what: str) -> None:
    """Raise ValueError, led by ``what``, unless ``data`` has rows of 1 + 4N finite columns, N >= 2."""
    if not data.size:
        raise ValueError(f"{what}: no data rows")
    if data.shape[1] < 9 or (data.shape[1] - 1) % 4 != 0:
        raise ValueError(f"{what}: need 1 + 4N columns, N >= 2")
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise ValueError(f"{what}: data row {np.argmax(bad) + 1} has a non-finite entry")


def load_family(path):
    """(parameters, configurations) from a family file; ValueError if it is malformed."""
    with warnings.catch_warnings():  # an empty file is reported below, as malformed
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, ndmin=2)
    _check_family(data, "malformed family file")
    n = (data.shape[1] - 1) // 4
    z, w = _complexify(data[:, 1 : 1 + 2 * n]), _complexify(data[:, 1 + 2 * n :])
    return tuple(data[:, 0]), tuple(zip(map(tuple, z), map(tuple, w)))
