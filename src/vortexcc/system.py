"""Velocity field and residual systems for stationary vortex configurations.

Index convention throughout: ``z_jn = z_n - z_j`` and ``w_jn = w_n - w_j``.
The velocity seen by vortex n is ``V_n = sum_{j != n} Γ_j / w_jn``, which in
the physical regime (``w = conj(z)``) is the usual point-vortex field.

Every system here is built from two numpy kernels: the velocity
``_velocity_np`` and its derivative ``_velocity_derivative``,
``Q[n, m] = dV_n/dw_m``.  On top of them:

* ``stationary_residual``: the reduced central-configuration equations
  ``Λ z_n = V_n`` (translation already removed).
* ``complex_system_residual``: the conjugate-free central system on
  independent coordinates (z, w) with reciprocal separations evaluated on
  demand, plus the rotation gauge row ``z_12 - w_12``.
* velocity roots for equilibria / rigid translation live in ``solver``,
  which uses the same two kernels.

Analytic Jacobians for the first two are exported together with the packed
numpy forms the solver consumes.  The kernels work on stacks of
configurations, one per row; the public functions take one point or a stack.
Every real system, here or in ``solver``, holds complex entries as (Re, Im)
pairs laid out by this module's helpers, the one place that knows the layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .quantities import VorticitySet

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
    "jacobian",
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
    i = np.arange(a.shape[-1])
    a[..., i, i] = value


def _pair_diffs(p: np.ndarray) -> np.ndarray:
    """D[s, j, n] = p[s, n] - p[s, j] with a harmless 1 on each diagonal."""
    d = p[:, None, :] - p[:, :, None]
    _set_diagonal(d, 1.0)
    return d


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


def _modulus_norm(F: np.ndarray) -> np.ndarray:
    """Max modulus over the complex entries of each realified residual row."""
    return np.hypot(F[:, 0::2], F[:, 1::2]).max(axis=1)


def _min_gap(p: np.ndarray) -> np.ndarray:
    """Smallest pair separation of each row of p (S, n)."""
    d = np.abs(p[:, None, :] - p[:, :, None])
    _set_diagonal(d, np.inf)
    return d.min(axis=(1, 2))


def _velocity_np(g: np.ndarray, wpos: np.ndarray, checked: str | None = None) -> np.ndarray:
    """V[s, n] = sum_{j != n} Γ_j / w_jn for each row of wpos (S, n).

    With ``checked`` set, first raise CollisionError, naming that coordinate,
    if a row has a pair closer than the guard (see :func:`_check_separated`).
    """
    d = _pair_diffs(wpos)
    if checked:
        _check_separated(d, checked)
    inv = 1.0 / d
    _set_diagonal(inv, 0.0)
    return (g[:, None] * inv).sum(axis=1)


def _velocity_derivative(g: np.ndarray, wpos: np.ndarray) -> np.ndarray:
    """Q[s, n, m] = dV_n/dw_m: Γ_m / w_mn² off the diagonal, minus the row sum on it."""
    Q = np.swapaxes(g[:, None] / _pair_diffs(wpos) ** 2, 1, 2).copy()
    _set_diagonal(Q, 0.0)
    _set_diagonal(Q, -Q.sum(axis=2))
    return Q


def _check_separated(d: np.ndarray, coordinate: str) -> None:
    """Raise CollisionError if a stack of :func:`_pair_diffs` has a pair closer than the guard.

    Their diagonal of 1 never is.  The error names the first such pair, in
    index order, of the first such row.
    """
    dist = np.abs(d)
    close = dist.min(axis=(1, 2)) < COLLISION_GUARD
    if close.any():
        j, k = np.argwhere(dist[np.argmax(close)] < COLLISION_GUARD)[0]
        raise CollisionError(int(j) + 1, int(k) + 1, coordinate)


def _float_gammas(v: VorticitySet) -> np.ndarray:
    return np.array([float(g) for g in v.gammas])


def _check_count(v: VorticitySet, *positions: np.ndarray) -> None:
    """Raise ValueError unless each array's last axis holds one position per vortex."""
    if any(p.shape[-1:] != (v.n,) for p in positions):
        raise ValueError("positions must match the vorticity count")


def _velocities(v: VorticitySet, z, w) -> tuple[np.ndarray, np.ndarray]:
    """(z, V) as numpy arrays after the size and collision checks on z and w."""
    zs = np.array([complex(p) for p in z], dtype=complex)
    ws = np.array([complex(p) for p in w], dtype=complex)
    _check_count(v, zs, ws)
    _check_separated(_pair_diffs(zs[None]), "z")
    return zs, _velocity_np(_float_gammas(v), ws[None], checked="w")[0]


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
# The physical (Re, Im) pairs come from the layout helpers beside _pair_diffs.
# The kernels work on stacks: each row of pos, z, w (S, N) and each entry of
# theta, lam (S,) is one point.  The residual kernels raise CollisionError
# below the guard, checked on the pair differences the velocity kernel forms
# anyway; the Jacobian kernels check nothing.  The public functions take one
# point, or a stack; one point is passed to the kernels as a stack of one.
# ---------------------------------------------------------------------------


def _physical_residual(g: np.ndarray, pos: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Rows of :func:`physical_residual_vector`, shape (S, 2N+1)."""
    # |conj z_jn| = |z_jn|, so the check on the w = conj(z) differences is the one on z.
    E = np.exp(1j * theta)[:, None] * pos - _velocity_np(g, np.conj(pos), checked="z")
    gauge = pos[:, 1].imag - pos[:, 0].imag
    return np.concatenate([_realify_vector(E), gauge[:, None]], axis=1)


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


def _complex_residual(g: np.ndarray, z: np.ndarray, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Rows of :func:`complex_residual_vector`, shape (S, 2N+1)."""
    lam = lam[:, None]
    # z first: a collision in both coordinates is reported in z.
    Vz = _velocity_np(g, z, checked="z")
    A = lam * z - _velocity_np(g, w, checked="w")
    B = w / lam - Vz
    gauge = (z[:, 1] - z[:, 0]) - (w[:, 1] - w[:, 0])
    return np.concatenate([A, B, gauge[:, None]], axis=1)


def _complex_jacobian(g: np.ndarray, z: np.ndarray, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Stack of :func:`complex_jacobian`, shape (S, 2N+1, 2N+1)."""
    n = z.shape[1]
    eye = np.eye(n)
    # Λ² in real arithmetic: the rounding of Python's complex product, which
    # numpy's vectorized complex multiply does not always reproduce.
    lr, li = lam.real, lam.imag
    lam2 = np.empty_like(lam)
    lam2.real = lr * lr - li * li
    lam2.imag = lr * li + li * lr
    J = np.zeros((len(z), 2 * n + 1, 2 * n + 1), dtype=complex)
    J[:, :n, :n] = lam[:, None, None] * eye
    J[:, :n, n : 2 * n] = -_velocity_derivative(g, w)
    J[:, :n, -1] = z
    J[:, n : 2 * n, :n] = -_velocity_derivative(g, z)
    J[:, n : 2 * n, n : 2 * n] = eye / lam[:, None, None]
    J[:, n : 2 * n, -1] = -w / lam2[:, None]
    J[:, -1, 0] = -1.0
    J[:, -1, 1] = 1.0
    J[:, -1, n] = 1.0
    J[:, -1, n + 1] = -1.0
    return J


def _physical_args(v: VorticitySet, positions, theta):
    pos = np.asarray(positions, dtype=complex)
    _check_count(v, pos)
    return _float_gammas(v), pos.reshape(-1, pos.shape[-1]), np.asarray(theta, dtype=float).reshape(-1)


def _complex_args(v: VorticitySet, z, w, lam):
    zs = np.asarray(z, dtype=complex)
    ws = np.asarray(w, dtype=complex)
    lams = np.asarray(lam, dtype=complex).reshape(-1)
    _check_count(v, zs, ws)
    return _float_gammas(v), zs.reshape(-1, zs.shape[-1]), ws.reshape(-1, ws.shape[-1]), lams


def _one_or_stack(out: np.ndarray, positions) -> np.ndarray:
    """The kernel output for a single point, or all of it for a stack of points."""
    return out[0] if np.ndim(positions) == 1 else out


def physical_residual_vector(v: VorticitySet, positions, theta: float) -> np.ndarray:
    """Real residual of the physical central system, length 2N+1.

    Also takes a stack: positions (S, N) and theta (S,) give one residual per row.
    """
    return _one_or_stack(_physical_residual(*_physical_args(v, positions, theta)), positions)


def physical_jacobian(v: VorticitySet, positions, theta: float) -> np.ndarray:
    """Analytic Jacobian of :func:`physical_residual_vector` (real, square); stacks as it does."""
    return _one_or_stack(_physical_jacobian(*_physical_args(v, positions, theta)), positions)


def complex_residual_vector(v: VorticitySet, z, w, lam: complex) -> np.ndarray:
    """Complex residual of the conjugate-free system, length 2N+1.

    Also takes a stack: z, w (S, N) and lam (S,) give one residual per row.
    """
    return _one_or_stack(_complex_residual(*_complex_args(v, z, w, lam)), z)


def complex_jacobian(v: VorticitySet, z, w, lam: complex) -> np.ndarray:
    """Holomorphic Jacobian in (z_1..z_N, w_1..w_N, Λ), square complex; stacks as the residual."""
    return _one_or_stack(_complex_jacobian(*_complex_args(v, z, w, lam)), z)


def jacobian(kind: str, point, v: VorticitySet) -> np.ndarray:
    """Dispatch: kind "physical" takes (positions, theta); "complex" takes (z, w, lam)."""
    if kind == "physical":
        positions, theta = point
        return physical_jacobian(v, positions, theta)
    if kind == "complex":
        z, w, lam = point
        return complex_jacobian(v, z, w, lam)
    raise ValueError(f"unknown residual kind {kind!r}")
