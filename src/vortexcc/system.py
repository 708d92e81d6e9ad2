"""Velocity field and residual systems for stationary vortex configurations.

Index convention throughout: ``z_jn = z_n - z_j`` and ``w_jn = w_n - w_j``.
The velocity seen by vortex n is ``V_n = sum_{j != n} Γ_j / w_jn``, which in
the physical regime (``w = conj(z)``) is the usual point-vortex field.

Every system here is built from two numpy kernels: the velocity
``_velocity_np``, which also returns each row's smallest pair separation, and
its derivative ``_velocity_derivative``, ``Q[n, m] = dV_n/dw_m``.  On top of them:

* ``stationary_residual``: the reduced central-configuration equations
  ``Λ z_n = V_n`` (translation already removed).
* ``complex_system_residual``: the conjugate-free central system on
  independent coordinates (z, w) with reciprocal separations evaluated on
  demand, plus the rotation gauge row ``z_12 - w_12``.
* velocity roots for equilibria / rigid translation live in ``solver``,
  which uses the same two kernels.

Analytic Jacobians for the first two are exported together with the packed
numpy forms the solver consumes.  The kernels work on stacks of
configurations, one per row, and take the separations of the n(n-1)/2 pairs
j < k only (``_separations``).  They check nothing; the public functions own
the collision rule (see the comment above the packed forms).  Every real
system, here or in ``solver``, holds complex entries as (Re, Im) pairs laid
out by this module's helpers, the one place that knows the layout;
``asymptotics`` lays out its family files with them too, and balances
families on ``_pairs`` and ``_separations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from numbers import Real
from typing import Sequence

import numpy as np

from .quantities import VorticitySet, _as_floats

__all__ = [
    "COLLISION_GUARD",
    "CollisionError",
    "ResidualVector",
    "ComplexConfiguration",
    "velocity_field",
    "stationary_residual",
    "complex_system_residual",
    "physical_residual_vector",
    "physical_jacobian",
    "complex_residual_vector",
    "complex_jacobian",
]

# Below this separation the residuals leave the trustworthy float range.
COLLISION_GUARD = 1e-10


class CollisionError(ValueError):
    """Raised when two vortices are (numerically) coincident."""

    def __init__(self, j: int, k: int, coordinate: str):
        self.pair = (j, k)
        self.coordinate = coordinate
        super().__init__(
            f"collision between vortices {j} and {k} in {coordinate}-coordinates"
        )


@dataclass(frozen=True)
class ResidualVector:
    """Residual entries of one of the stationary systems."""

    entries: tuple

    @property
    def norm(self) -> float:
        """Max modulus over the entries."""
        return max((abs(e) for e in self.entries), default=0.0)


@dataclass(frozen=True)
class ComplexConfiguration:
    """Full variable set (z, w, Λ) of the conjugate-free central system.

    ``z`` and ``w`` are independent complex coordinate vectors; reciprocal
    separations are derived on demand, never stored.  Solver-normalized
    solutions satisfy the rotation gauge ``z_12 == w_12`` (see
    :attr:`gauge_defect`); raw parametric families need not.
    """

    z: tuple
    w: tuple
    lam: complex

    def __post_init__(self):
        zs = tuple(complex(p) for p in self.z)
        ws = tuple(complex(p) for p in self.w)
        if len(zs) != len(ws):
            raise ValueError("z and w must have the same length")
        if len(zs) < 2:
            raise ValueError("need at least two vortices")
        for pts, name in ((zs, "z"), (ws, "w")):
            for j, k in combinations(range(len(pts)), 2):
                if pts[j] == pts[k]:
                    raise CollisionError(j + 1, k + 1, name)
        object.__setattr__(self, "z", zs)
        object.__setattr__(self, "w", ws)
        object.__setattr__(self, "lam", complex(self.lam))

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def gauge_defect(self) -> complex:
        return (self.z[1] - self.z[0]) - (self.w[1] - self.w[0])

    def squared_distance(self, j: int, k: int) -> complex:
        """r^2_jk = z_jk * w_jk (1-based indices)."""
        return (self.z[k - 1] - self.z[j - 1]) * (self.w[k - 1] - self.w[j - 1])


def _set_diagonal(a: np.ndarray, value) -> None:
    """Write ``value`` on the diagonal of every (n, n) matrix of the stack ``a``."""
    i = _diagonal(a.shape[-1])
    a[..., i, i] = value


def _realify_vector(F: np.ndarray) -> np.ndarray:
    """Complex entries as consecutive (Re, Im) pairs, along the last axis."""
    out = np.empty(F.shape[:-1] + (2 * F.shape[-1],))
    out[..., 0::2] = F.real
    out[..., 1::2] = F.imag
    return out


def _complexify(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_realify_vector`."""
    return x[..., 0::2] + 1j * x[..., 1::2]


def _realify_columns(dx: np.ndarray, dy: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into ``out``, and return it, the real Jacobians of complex rows whose
    derivatives along x_m and y_m are dx[..., m], dy[..., m].

    Rows are (Re, Im) pairs and columns (x_m, y_m) pairs; leading axes stack.
    """
    out[..., 0::2, 0::2] = dx.real
    out[..., 0::2, 1::2] = dy.real
    out[..., 1::2, 0::2] = dx.imag
    out[..., 1::2, 1::2] = dy.imag
    return out


def _residual_norm(F: np.ndarray) -> np.ndarray:
    """Largest modulus in each residual row of F (S, m): complex entries as they are,
    real ones as (Re, Im) pairs.  An unpaired last entry, the physical gauge row, is
    its own modulus, compared as Python's ``max`` compares, NaN included."""
    if F.dtype.kind == "c":
        return np.abs(F).max(axis=1)
    if F.shape[1] % 2 == 0:
        return np.hypot(F[:, 0::2], F[:, 1::2]).max(axis=1)
    moduli = np.hypot(F[:, 0:-1:2], F[:, 1:-1:2]).max(axis=1)
    gauge = np.abs(F[:, -1])
    return np.where(gauge > moduli, gauge, moduli)


@cache
def _diagonal(n: int) -> np.ndarray:
    """Index array 0..n-1 of the diagonal of an (n, n) matrix; read-only."""
    i = np.arange(n)
    i.flags.writeable = False
    return i


@cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (j, k) of the n(n-1)/2 pairs j < k, in index order; read-only."""
    j, k = np.triu_indices(n, 1)
    j.flags.writeable = k.flags.writeable = False
    return j, k


def _separations(p: np.ndarray) -> np.ndarray:
    """D[s, q] = p[s, k] - p[s, j] for the q-th pair (j, k) of :func:`_pairs`, rows p (S, n)."""
    j, k = _pairs(p.shape[-1])
    return p[:, k] - p[:, j]


def _min_gap(p: np.ndarray) -> np.ndarray:
    """Smallest pair separation of each row of p (S, n)."""
    return np.abs(_separations(p)).min(axis=1)


def _velocity_np(g: np.ndarray, wpos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, gap) for the rows of wpos (S, n): V[s, n] = sum_{j != n} Γ_j / w_jn, and
    each row's smallest pair separation, NaN for a row with a NaN separation.

    Nothing is checked: a row with coincident points holds what the float
    arithmetic gives.
    """
    d = _separations(wpos)
    s, n = wpos.shape
    # One reciprocal per pair: 1 / w_kj is exactly -(1 / w_jk) wherever it is finite.
    r = (1.0 / d).T
    j, k = _pairs(n)
    T = np.zeros((n, s, n), dtype=r.dtype)      # T[j, s, n] = 1 / w_jn, 0 on j = n
    T[j, :, k] = r
    T[k, :, j] = -r
    T *= g[:, None, None]
    # The sum over the outer axis adds whole (S, n) slices from 0 in j order,
    # the order numpy's sum over the j axis of a dense (S, n, n) stack takes.
    return T.sum(axis=0), np.abs(d).min(axis=1)


def _velocity_derivative(g: np.ndarray, wpos: np.ndarray) -> np.ndarray:
    """Q[s, n, m] = dV_n/dw_m: Γ_m / w_mn² off the diagonal, minus the row sum on it."""
    s, n = wpos.shape
    # One square per pair serves both orders: w_kj and -w_jk differ at most in
    # the signs of zero parts, so do their squares, and a real Γ divided by a
    # square does not read those signs.
    d2 = _separations(wpos) ** 2
    j, k = _pairs(n)
    Q = np.zeros((s, n, n), dtype=d2.dtype)
    Q[:, j, k] = g[k] / d2
    Q[:, k, j] = g[j] / d2
    # The row sum stays on the dense stack: the solve totals pin numpy's
    # summation order over its contiguous last axis, zeros included.
    _set_diagonal(Q, -Q.sum(axis=2))
    return Q


def _check_separated(p: np.ndarray, *coordinates: str) -> None:
    """Raise CollisionError if a row of positions p (S, n) has a pair closer than the guard.

    The stack holds one equal block of rows per coordinate name, in order.  The
    error names the first such pair, in index order, of the first such row, and
    the coordinate of that row's block.  A row with a NaN separation counts as
    separated, as its smallest separation is NaN.
    """
    dist = np.abs(_separations(p))
    close = dist.min(axis=1) < COLLISION_GUARD
    if close.any():
        row = int(np.argmax(close))
        pair = np.argmax(dist[row] < COLLISION_GUARD)
        coordinate = coordinates[row * len(coordinates) // len(p)]
        j, k = _pairs(p.shape[-1])
        raise CollisionError(int(j[pair]) + 1, int(k[pair]) + 1, coordinate)


def _float_gammas(v: VorticitySet) -> np.ndarray:
    return np.array(_as_floats(v.gammas))


def _check_count(v: VorticitySet, *positions: np.ndarray) -> None:
    """Raise ValueError unless each array's last axis holds one position per vortex."""
    if any(p.shape[-1:] != (v.n,) for p in positions):
        raise ValueError("positions must match the vorticity count")


def _velocities(v: VorticitySet, z, w) -> tuple[np.ndarray, np.ndarray]:
    """(z, V) as numpy arrays after the size and collision checks on z and w."""
    zs = np.array([complex(p) for p in z], dtype=complex)
    ws = np.array([complex(p) for p in w], dtype=complex)
    _check_count(v, zs, ws)
    _check_separated(np.stack([zs, ws]), "z", "w")
    return zs, _velocity_np(_float_gammas(v), ws[None])[0][0]


def velocity_field(v: VorticitySet, z: Sequence, w: Sequence) -> list:
    """V_n = sum_{j != n} Γ_j / w_jn for each n.

    Physical callers pass ``w = conjugate_positions(z)``.
    """
    return _velocities(v, z, w)[1].tolist()


def stationary_residual(v: VorticitySet, z, w, lam) -> ResidualVector:
    """Entries Λ z_n - V_n; the zero vector exactly on central configurations."""
    zs, V = _velocities(v, z, w)
    return ResidualVector(tuple((complex(lam) * zs - V).tolist()))


def complex_system_residual(conf: ComplexConfiguration, v: VorticitySet) -> ResidualVector:
    """2N+1 entries: Λ z_n - Σ Γ_j/w_jn, Λ^{-1} w_n - Σ Γ_j/z_jn, z_12 - w_12."""
    return ResidualVector(tuple(complex_residual_vector(v, conf.z, conf.w, conf.lam).tolist()))


# ---------------------------------------------------------------------------
# Packed numpy forms.  Layouts:
#   physical:  unknowns u = (x_1, y_1, ..., x_N, y_N, θ) with Λ = e^{iθ};
#              rows (Re E_1, Im E_1, ..., Re E_N, Im E_N, Im z_12).
#   complex:   unknowns (z_1..z_N, w_1..w_N, Λ) as complex variables;
#              rows (A_1..A_N, B_1..B_N, z_12 - w_12), all holomorphic.
# The kernels take stacks, one point per row of pos, z, w (S, N) and entry of
# theta, lam (S,), and check nothing.  The residual kernels return (rows, gap),
# gap being each row's smallest pair separation (for the complex system, the
# smaller of the z and w gaps).  The complex kernels pass z and w to the
# velocity kernels as one (2S, N) stack: [z; w] in the residual, [w; z] in the
# Jacobian, whose blocks take dV/dw before dV/dz.  The public residuals own the
# collision rule: by default they raise CollisionError below COLLISION_GUARD,
# z named before w, and the complex one a ValueError for Λ = 0 first; given a
# guard they raise neither and return (residual, gap < guard), the complex
# one also counting |Λ| < 1e-8 as a hit.  The Jacobians check no collision;
# the complex one rejects Λ = 0.  One point is passed as a stack of one.
# ---------------------------------------------------------------------------


def _physical_residual(g: np.ndarray, pos: np.ndarray, theta: np.ndarray):
    """(rows, gap): the rows of :func:`physical_residual_vector`, shape (S, 2N+1), and each row's gap."""
    # |conj z_jn| = |z_jn|, so the gaps of the w = conj(z) differences are those of z.
    V, gap = _velocity_np(g, np.conj(pos))
    E = np.exp(1j * theta)[:, None] * pos - V
    gauge = pos[:, 1].imag - pos[:, 0].imag
    return np.concatenate([_realify_vector(E), gauge[:, None]], axis=1), gap


def _physical_jacobian(g: np.ndarray, pos: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Stack of :func:`physical_jacobian`, shape (S, 2N+1, 2N+1)."""
    n = pos.shape[1]
    # V depends on w = conj(z): dV_n/dx_m = Q[n, m], dV_n/dy_m = -i Q[n, m].
    Q = _velocity_derivative(g, np.conj(pos))
    lam = np.exp(1j * theta)[:, None, None]
    eye = np.eye(n)
    J = np.zeros((len(pos), 2 * n + 1, 2 * n + 1))
    # dE/dx and dE/dy fill the top-left block, dE/dθ the last column.
    _realify_columns(lam * eye - Q, 1j * lam * eye + 1j * Q, J[:, :-1, :-1])
    J[:, :-1, -1] = _realify_vector(1j * lam[:, :, 0] * pos)
    J[:, -1, 1] = -1.0
    J[:, -1, 3] = 1.0
    return J


def _complex_residual(g: np.ndarray, z: np.ndarray, w: np.ndarray, lam: np.ndarray):
    """(rows, gap): the rows of :func:`complex_residual_vector`, shape (S, 2N+1), and
    each row's min(gap of z, gap of w) as Python's ``min`` takes it, NaN included."""
    s, n = z.shape
    V, gaps = _velocity_np(g, np.concatenate([z, w]))
    F = np.empty((s, 2 * n + 1), dtype=complex)
    F[:, :n] = lam[:, None] * z - V[s:]
    F[:, n : 2 * n] = w / lam[:, None] - V[:s]
    F[:, -1] = (z[:, 1] - z[:, 0]) - (w[:, 1] - w[:, 0])
    gz, gw = gaps[:s], gaps[s:]
    return F, np.where(gw < gz, gw, gz)


def _complex_jacobian(g: np.ndarray, z: np.ndarray, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Stack of :func:`complex_jacobian`, shape (S, 2N+1, 2N+1)."""
    s, n = z.shape
    # Λ² in real arithmetic: the rounding of Python's complex product, which
    # numpy's vectorized complex multiply does not always reproduce.
    lr, li = lam.real, lam.imag
    lam2 = np.empty_like(lam)
    lam2.real = lr * lr - li * li
    lam2.imag = lr * li + li * lr
    # dA/dw and dB/dz from one stack of w rows, then z rows.
    Q = _velocity_derivative(g, np.concatenate([w, z]))
    J = np.zeros((s, 2 * n + 1, 2 * n + 1), dtype=complex)
    _set_diagonal(J[:, :n, :n], lam[:, None])
    np.negative(Q[:s], out=J[:, :n, n : 2 * n])
    J[:, :n, -1] = z
    np.negative(Q[s:], out=J[:, n : 2 * n, :n])
    _set_diagonal(J[:, n : 2 * n, n : 2 * n], (1.0 / lam)[:, None])
    J[:, n : 2 * n, -1] = -w / lam2[:, None]
    J[:, -1, 0] = -1.0
    J[:, -1, 1] = 1.0
    J[:, -1, n] = 1.0
    J[:, -1, n + 1] = -1.0
    return J


def _check_rows(*stacks: np.ndarray) -> None:
    """Raise ValueError unless every stack holds the same number of rows; a single point is one row."""
    if len({len(s) for s in stacks}) != 1:
        raise ValueError(f"stack row counts differ: {', '.join(str(len(s)) for s in stacks)}")


def _physical_args(v: VorticitySet, positions, theta):
    pos = np.asarray(positions, dtype=complex)
    _check_count(v, pos)
    pos, thetas = pos.reshape(-1, pos.shape[-1]), np.asarray(theta, dtype=float).reshape(-1)
    _check_rows(pos, thetas)
    return _float_gammas(v), pos, thetas


def _complex_args(v: VorticitySet, z, w, lam, guard=None):
    zs = np.asarray(z, dtype=complex)
    ws = np.asarray(w, dtype=complex)
    _check_count(v, zs, ws)
    zs, ws = zs.reshape(-1, zs.shape[-1]), ws.reshape(-1, ws.shape[-1])
    lams = np.asarray(lam, dtype=complex).reshape(-1)
    _check_rows(zs, ws, lams)
    if guard is None and not lams.all():
        raise ValueError(f"Λ must be nonzero; it is 0 in row {np.flatnonzero(lams == 0)[0]}")
    return _float_gammas(v), zs, ws, lams


def _check_guard(guard) -> None:
    """Raise ValueError unless ``guard`` is None or a real number at least 0.

    A bool is refused, not read as 0 or 1; ``not guard >= 0`` makes NaN fail.
    A float, the engine's guard, passes without the slow ``numbers`` check.
    """
    if guard is None or type(guard) is float and guard >= 0:
        return
    if isinstance(guard, bool) or not isinstance(guard, Real) or not guard >= 0:
        raise ValueError(f"guard must be None or non-negative, not {guard!r}")


def _one_or_stack(out, positions):
    """The kernel output for a single point, or all of it for a stack of points.

    Each part of a (residual, hit) pair is taken alike.
    """
    if np.ndim(positions) > 1:
        return out
    return tuple(part[0] for part in out) if isinstance(out, tuple) else out[0]


def physical_residual_vector(v: VorticitySet, positions, theta: float, *, guard=None):
    """Real residual of the physical central system, length 2N+1.

    Also takes a stack: positions (S, N) and theta (S,) give one residual per row.
    Raises CollisionError for a pair closer than ``COLLISION_GUARD``.  With a
    ``guard``, returns ``(residual, hit)`` instead and raises no CollisionError:
    ``hit`` is True where the smallest pair separation is below ``guard``
    (one bool, or one per row; a row with a NaN separation counts as
    separated), and a row that hits holds what the float arithmetic gives.
    """
    _check_guard(guard)
    g, pos, thetas = _physical_args(v, positions, theta)
    if guard is None:
        _check_separated(pos, "z")
    F, gap = _physical_residual(g, pos, thetas)
    return _one_or_stack(F if guard is None else (F, gap < guard), positions)


def physical_jacobian(v: VorticitySet, positions, theta: float) -> np.ndarray:
    """Analytic Jacobian of :func:`physical_residual_vector` (real, square); stacks as it does."""
    return _one_or_stack(_physical_jacobian(*_physical_args(v, positions, theta)), positions)


def complex_residual_vector(v: VorticitySet, z, w, lam: complex, *, guard=None):
    """Complex residual of the conjugate-free system, length 2N+1.

    Also takes a stack: z, w (S, N) and lam (S,) give one residual per row.
    Raises CollisionError for a pair of z or of w closer than
    ``COLLISION_GUARD``, and ValueError where Λ = 0.  With a ``guard``, returns
    ``(residual, hit)`` instead and raises neither: ``hit`` is True where
    |Λ| < 1e-8 or where min(gap of z, gap of w), as Python's ``min`` takes it,
    is below ``guard`` (a NaN minimum counts as separated).  A row that hits
    holds what the float arithmetic gives.
    """
    _check_guard(guard)
    g, zs, ws, lams = _complex_args(v, z, w, lam, guard)
    if guard is None:
        _check_separated(np.concatenate([zs, ws]), "z", "w")   # z rows first: z is named first
        return _one_or_stack(_complex_residual(g, zs, ws, lams)[0], z)
    F, gap = _complex_residual(g, zs, ws, lams)
    return _one_or_stack((F, (np.hypot(lams.real, lams.imag) < 1e-8) | (gap < guard)), z)


def complex_jacobian(v: VorticitySet, z, w, lam: complex) -> np.ndarray:
    """Holomorphic Jacobian in (z_1..z_N, w_1..w_N, Λ), square complex; stacks as the residual."""
    return _one_or_stack(_complex_jacobian(*_complex_args(v, z, w, lam)), z)
