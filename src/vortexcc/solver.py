"""Multistart damped-Newton search for stationary vortex configurations.

The physical regime solves the reduced central system on unknowns
(x_1, y_1, ..., x_N, y_N, θ) with Λ = e^{iθ}, so |Λ| = 1 is structural and
the rotation gauge Im z_12 = 0 is the one extra equation.  The complex
regime solves the conjugate-free system on 2N+1 complex unknowns
(z, w, Λ) with the gauge row z_12 = w_12; there Λ is a free unknown (real
solutions automatically come out with |Λ| = 1).  The engine refines those
complex unknowns natively, not as a realified 4N+2 real system.

Damping is Levenberg-style: the Newton step is computed from
(JᴴJ + λI) δ = -JᴴF with λ adapted multiplicatively (Jᴴ = Jᵀ for the real
searches); trial steps that cross the collision guard are rejected.
Failures are values, not exceptions.

Each of the four searches (physical, complex, equilibria, rigid
translation) is a small :class:`_Search` spec: a sampler that draws all
starts of a search as one block, the residual, its Jacobian, the residual
norm, the collision guard and a finalizer that builds the solution records
of all converged starts at once.  One engine refines the starts of any spec
and one multistart loop, ``_multistart``, runs every search.  The engine
runs up to ``_LANES`` starts in lockstep on stacked arrays, each with its
own damping.  Every start takes the steps it would take alone, so reports
do not depend on how many run together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import combinations
from typing import Callable

import numpy as np

from .quantities import (
    Invariants,
    VorticitySet,
    angular_momentum,
    invariants_of,
    is_exact_scalar,
    total_vorticity,
)
from .system import (
    COLLISION_GUARD,
    _complex_residual,
    _min_gap,
    _velocity_derivative,
    _velocity_np,
    complex_jacobian,
    complex_residual_vector,
    physical_jacobian,
    physical_residual_vector,
)

__all__ = [
    "SolverOptions",
    "NewtonFailure",
    "CentralConfigSolution",
    "SolveReport",
    "newton_refine",
    "classify",
    "solve_central_multistart",
    "solve_equilibria",
    "solve_rigid_translation",
]

KIND_RELATIVE_EQUILIBRIUM = "relative_equilibrium"
KIND_COLLAPSE = "collapse"
KIND_EQUILIBRIUM = "equilibrium"
KIND_RIGID_TRANSLATION = "rigid_translation"


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-12              # residual inf-norm for convergence
    max_iter: int = 60
    collision_guard: float = COLLISION_GUARD
    dedup_tol: float = 1e-6         # relative, on sorted squared-distance signature
    class_tol: float = 1e-8         # |Im Λ| threshold for the collapse branch
    collapse_tol: float = 1e-8      # |S|, |I|, |L| bound required of collapse solutions
    start_radius: float = 2.0
    start_min_gap: float = 1e-3
    lm_lambda0: float = 1e-3
    lm_increase: float = 10.0
    lm_decrease: float = 0.25
    lm_lambda_max: float = 1e12
    divergence_norm: float = 1e8

    def validated(self) -> "SolverOptions":
        # Written as `not ... < inf` so that NaN fails it too.  An infinite tol
        # converges every start; an infinite lm_lambda_max never ends a trial loop.
        for f in fields(self):
            if not abs(getattr(self, f.name)) < math.inf:
                raise ValueError(f"option {f.name} must be finite")
        # Written as `not ... > ...` so that NaN fails every check.
        # A start disk of radius 0 or NaN, or a NaN gap, never yields a separated
        # start; a divergence bound of 0 fails every step, a NaN one none.
        for name in ("tol", "dedup_tol", "class_tol", "collapse_tol", "lm_lambda0",
                     "start_radius", "divergence_norm"):
            if not getattr(self, name) > 0:
                raise ValueError(f"option {name} must be positive")
        for name in ("max_iter", "start_min_gap"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"option {name} must be non-negative")
        # Each rejected trial multiplies λ by lm_increase until it passes
        # lm_lambda_max; without growth that never happens and the solve never ends.
        if not self.lm_increase > 1:
            raise ValueError("option lm_increase must be greater than 1")
        if not 0 < self.lm_decrease <= 1:
            raise ValueError("option lm_decrease must lie in (0, 1]")
        if not self.lm_lambda_max >= self.lm_lambda0:
            raise ValueError("option lm_lambda_max must be at least lm_lambda0")
        # The engine evaluates residuals only where the guard holds, and the residual
        # functions raise CollisionError below COLLISION_GUARD; a smaller guard would
        # let that escape the engine instead of a NewtonFailure.
        if not self.collision_guard >= COLLISION_GUARD:
            raise ValueError(f"option collision_guard must be at least {COLLISION_GUARD:g}")
        return self


@dataclass(frozen=True)
class NewtonFailure:
    """Diagnostic result of a failed refinement."""

    reason: str  # "diverged" | "hit_collision_guard" | "max_iterations"
    iterations: int
    last_norm: float


@dataclass(frozen=True)
class CentralConfigSolution:
    regime: str                     # "physical" | "complex"
    z: tuple
    w: tuple
    lam: complex | None
    residual_norm: float
    invariants: Invariants
    kind: str
    signature: tuple
    flags: tuple = ()
    iterations: int = 0
    translation_velocity: complex | None = None


@dataclass(frozen=True)
class SolveReport:
    solutions: tuple
    starts_attempted: int
    starts_converged: int
    seed: int
    regime: str
    reason: str | None = None       # set on gated empty reports


@dataclass(frozen=True)
class _Search:
    """One search, as the engine and ``_multistart`` run it.

    ``residual``, ``jacobian``, ``norm`` and ``guard`` take stacks: one
    unknown vector x per row of an (S, d) array, one residual per row of an
    (S, m) array.  Unknowns and residuals are real, or complex with a
    holomorphic residual; the starts' dtype sets which.
    """

    regime: str
    sample: Callable[[np.random.Generator, int], np.ndarray]  # (rng, count) -> starts (count, d)
    residual: Callable[[np.ndarray], np.ndarray]  # (S, d) -> (S, m)
    jacobian: Callable[[np.ndarray], np.ndarray]  # (S, d) -> (S, m, d)
    norm: Callable[[np.ndarray], np.ndarray]      # (S, m) -> (S,)
    guard: Callable[[np.ndarray], np.ndarray]     # (S, d) -> (S,), True when too close to a collision
    finalize: Callable[[np.ndarray, np.ndarray], list]  # converged (S, d), iterations (S,) -> records


# ---------------------------------------------------------------------------
# Levenberg-damped Newton engine on stacks of real or complex vectors
# ---------------------------------------------------------------------------

# Most starts in flight at once.  It bounds the memory of the stacked
# Jacobians and solves; results do not depend on it.  Larger pools spread the
# fixed cost of a round over more starts: 512 runs a 1000-start complex
# search about 1.3x faster than 128, while 256 gains less and 1000 grows the
# per-call memory about 4x for little more.
_LANES = 512


def _levenberg_newton(search: _Search, starts: np.ndarray, options: SolverOptions,
                      lanes: int | None = None) -> list:
    """Refine every row of ``starts``; returns, in start order, each solution or NewtonFailure.

    Up to ``lanes`` starts (``_LANES`` by default) are in flight, one per
    lane; no more lanes are allocated than there are starts to run.  Each
    round, every lane makes one damped trial step with its own damping λ; a
    lane whose start has finished takes the next start.  A start follows
    exactly the schedule it would follow alone: at the top of each iteration
    it converges, runs out of iterations or takes a Jacobian; then it tries
    steps with growing λ until one lowers the residual norm, or λ passes its
    maximum.  Converged rows are kept and finalized together, once, at the
    end.  Unknowns, residuals and the normal equations take the dtype of the
    starts and residuals, real or complex.
    """
    d = starts.shape[1]
    # Starts inside the guard fail at once; the others overwrite this on finishing.
    results: list = [NewtonFailure("hit_collision_guard", 0, math.inf)] * len(starts)
    pending = np.flatnonzero(~search.guard(starts))
    lanes = max(1, min(_LANES if lanes is None else lanes, pending.size))
    owner = np.full(lanes, -1)          # index of the lane's start in results, -1 when free
    x = np.zeros((lanes, d), dtype=starts.dtype)
    nrm = np.zeros(lanes)
    damp = np.zeros(lanes)
    iters = np.zeros(lanes, dtype=int)
    blocked = np.zeros(lanes, dtype=bool)   # a trial of this iteration crossed the guard
    fresh = np.zeros(lanes, dtype=bool)     # at the top of an iteration
    jtj = np.zeros((lanes, d, d), dtype=starts.dtype)
    jtf = np.zeros((lanes, d), dtype=starts.dtype)
    F = None                                # sized from the first residual
    done: list = []                         # (start indices, rows, iterations) of converged lanes

    def finish(lane, result):
        results[owner[lane]] = result
        owner[lane] = -1

    def fail(lane, reason):
        finish(lane, NewtonFailure(reason, int(iters[lane]), float(nrm[lane])))

    while True:
        # Free lanes take the next starts, in drawing order.
        free = np.flatnonzero(owner < 0)
        if pending.size and free.size:
            take, pending = pending[: free.size], pending[free.size :]
            new = free[: take.size]
            F0 = search.residual(starts[take])
            if F is None:
                F = np.zeros((lanes, F0.shape[1]), dtype=F0.dtype)
            owner[new] = take
            x[new], F[new], nrm[new] = starts[take], F0, search.norm(F0)
            damp[new], iters[new], fresh[new] = options.lm_lambda0, 0, True
        if not (owner >= 0).any():
            break

        # Lanes at the top of an iteration converge, run out of iterations or
        # take a Jacobian.
        top = np.flatnonzero((owner >= 0) & fresh)
        converged = nrm[top] < options.tol
        lanes_done = top[converged]
        if lanes_done.size:
            done.append((owner[lanes_done], x[lanes_done], iters[lanes_done]))
            owner[lanes_done] = -1
        for lane in top[~converged & (iters[top] >= options.max_iter)]:
            finish(lane, NewtonFailure("max_iterations", options.max_iter, float(nrm[lane])))
        top = top[owner[top] >= 0]
        if top.size:
            J = search.jacobian(x[top])
            JH = J.transpose(0, 2, 1)
            if np.iscomplexobj(J):
                JH = JH.conj()
            jtj[top] = JH @ J
            jtf[top] = (JH @ F[top][:, :, None])[:, :, 0]
            blocked[top] = fresh[top] = False

        # Every lane inside an iteration makes one damped trial step.
        run = np.flatnonzero((owner >= 0) & ~fresh)
        for lane in run[damp[run] > options.lm_lambda_max]:
            fail(lane, "hit_collision_guard" if blocked[lane] else "diverged")
        run = run[owner[run] >= 0]
        if not run.size:
            continue
        step, solved = _damped_steps(jtj[run], jtf[run], damp[run])   # jtj[run] is a copy
        damp[run[~solved]] *= options.lm_increase
        xt = x[run[solved]] + step[solved]
        run = run[solved]
        hit = search.guard(xt)
        blocked[run[hit]] = True
        damp[run[hit]] *= options.lm_increase
        xt, run = xt[~hit], run[~hit]
        if not run.size:
            continue
        Ft = search.residual(xt)
        nt = search.norm(Ft)
        better = np.isfinite(nt) & (nt < nrm[run])
        damp[run[~better]] *= options.lm_increase
        run = run[better]
        x[run], F[run], nrm[run] = xt[better], Ft[better], nt[better]
        damp[run] = np.maximum(damp[run] * options.lm_decrease, 1e-14)
        far = np.abs(x[run]).max(axis=1) > options.divergence_norm
        for lane in run[far]:
            fail(lane, "diverged")
        iters[run[~far]] += 1
        fresh[run[~far]] = True

    if done:
        index, rows, its = (np.concatenate(part) for part in zip(*done))
        for i, solution in zip(index.tolist(), search.finalize(rows, its)):
            results[i] = solution
    return results


def _damped_steps(a: np.ndarray, jtf: np.ndarray, damp: np.ndarray):
    """Solve (JᴴJ + λI) δ = -JᴴF on every lane; returns (δ, solved).

    ``a`` holds the lanes' JᴴJ and is overwritten: λ is added on its diagonal
    in place, so a round builds no other (S, d, d) array.  A singular matrix
    makes the stacked solve raise; then each lane is solved alone and only
    the singular ones come back unsolved.
    """
    diagonal = np.arange(a.shape[-1])
    a[:, diagonal, diagonal] += damp[:, None]
    b = -jtf
    solved = np.ones(len(a), dtype=bool)
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0], solved
    except np.linalg.LinAlgError:
        step = np.zeros_like(b)
        for k in range(len(a)):
            try:
                step[k] = np.linalg.solve(a[k], b[k])
            except np.linalg.LinAlgError:
                solved[k] = False
        return step, solved


def _multistart(search: _Search, starts: int, seed: int, opts: SolverOptions) -> SolveReport:
    """Draw every start from one rng in turn, refine them all, then deduplicate what converged."""
    rng = np.random.default_rng(seed)
    results = _levenberg_newton(search, search.sample(rng, starts), opts)
    found = [r for r in results if isinstance(r, CentralConfigSolution)]
    return SolveReport(tuple(_deduplicate(found, opts)), starts, len(found), seed, search.regime)


def _realify_vector(F: np.ndarray) -> np.ndarray:
    """Complex entries as consecutive (Re, Im) pairs, along the last axis."""
    out = np.empty(F.shape[:-1] + (2 * F.shape[-1],))
    out[..., 0::2] = F.real
    out[..., 1::2] = F.imag
    return out


def _complexify(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_realify_vector`."""
    return x[..., 0::2] + 1j * x[..., 1::2]


def _realify_columns(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Real Jacobians of complex rows whose derivatives along x_m and y_m are dx[..., m], dy[..., m].

    Rows are (Re, Im) pairs and columns (x_m, y_m) pairs; leading axes stack.
    """
    J = np.empty(dx.shape[:-2] + (2 * dx.shape[-2], 2 * dx.shape[-1]))
    J[..., 0::2, 0::2] = dx.real
    J[..., 0::2, 1::2] = dy.real
    J[..., 1::2, 0::2] = dx.imag
    J[..., 1::2, 1::2] = dy.imag
    return J


def _modulus_norm(F: np.ndarray) -> np.ndarray:
    """Max modulus over the complex entries of each realified residual row."""
    return np.hypot(F[:, 0::2], F[:, 1::2]).max(axis=1)


# ---------------------------------------------------------------------------
# Central-configuration searches
# ---------------------------------------------------------------------------


def _pack_physical(start) -> np.ndarray:
    positions, theta = start
    return np.append(_realify_vector(np.asarray(positions, dtype=complex)), float(theta))


def _unpack_physical(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _complexify(x[..., :-1]), x[..., -1]


def _physical_search(v: VorticitySet, opts: SolverOptions) -> _Search:
    g = np.asarray(v.gammas)
    n = v.n

    def residual(x):
        return physical_residual_vector(v, *_unpack_physical(x))

    def jacobian(x):
        return physical_jacobian(v, *_unpack_physical(x))

    def norm(F):
        moduli = np.hypot(F[:, 0 : 2 * n : 2], F[:, 1 : 2 * n : 2]).max(axis=1)
        gauge = np.abs(F[:, -1])
        # max(moduli, gauge) as Python's max takes it, NaN included.
        return np.where(gauge > moduli, gauge, moduli)

    def guard(x):
        return _min_gap(_unpack_physical(x)[0]) < opts.collision_guard

    def sample(rng, count):
        pos, theta = _draw_starts(rng, count, n, 1, 1, opts)
        return np.concatenate([_realify_vector(pos[:, 0]), theta], axis=1)

    def finalize(x, iters):
        pos, theta = _unpack_physical(x)
        lam = np.exp(1j * theta)
        # Rotate so z_12 is exactly real and positive (rotation leaves Λ fixed).
        z12 = pos[:, 1] - pos[:, 0]
        pos = pos * (np.hypot(z12.real, z12.imag) / z12)[:, None]
        # Conjugation maps solutions to solutions; keep one canonical twin.
        flip = _prefers_conjugate(pos, lam, opts)
        pos = np.where(flip[:, None], np.conj(pos), pos)
        lam = np.where(flip, np.conj(lam), lam)
        E = lam[:, None] * pos - _velocity_np(g, np.conj(pos))
        return _central_solutions(v, "physical", pos, np.conj(pos), lam, E,
                                  _physical_signatures(pos), iters, opts)

    return _Search("physical", sample, residual, jacobian, norm, guard, finalize)


def _prefers_conjugate(pos: np.ndarray, lam: np.ndarray, opts: SolverOptions) -> np.ndarray:
    """Per row: Im Λ < 0, or for real Λ the first clearly nonreal position lies below the axis."""
    nonreal = np.abs(pos.imag) > 1e-9
    first = pos.imag[np.arange(len(pos)), nonreal.argmax(axis=1)]
    below = nonreal.any(axis=1) & (first < 0)
    return np.where(lam.imag > opts.class_tol, False, (lam.imag < -opts.class_tol) | below)


def _physical_signatures(pos: np.ndarray) -> list:
    """Per row, the sorted squared pair distances |z_jk|² as a tuple of np.float64.

    hypot and float_power round as Python's abs and ``**`` of one numpy
    scalar do; numpy's vectorized abs does not always.
    """
    j, k = np.triu_indices(pos.shape[1], 1)
    d = pos[:, k] - pos[:, j]
    r2 = np.sort(np.float_power(np.hypot(d.real, d.imag), 2.0), axis=1)
    return [tuple(row) for row in r2]


def _pack_complex(start) -> np.ndarray:
    z, w, lam = start
    return np.concatenate([np.asarray(z, dtype=complex), np.asarray(w, dtype=complex), [complex(lam)]])


def _unpack_complex(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = (x.shape[-1] - 1) // 2
    return x[..., :n], x[..., n : 2 * n], x[..., -1]


def _max_modulus(F: np.ndarray) -> np.ndarray:
    """Max modulus over the entries of each complex residual row."""
    return np.abs(F).max(axis=1)


def _complex_search(v: VorticitySet, opts: SolverOptions) -> _Search:
    g = np.asarray(v.gammas)
    n = v.n

    def residual(x):
        return complex_residual_vector(v, *_unpack_complex(x))

    def jacobian(x):
        return complex_jacobian(v, *_unpack_complex(x))

    def guard(x):
        z, w, lam = _unpack_complex(x)
        gz, gw = _min_gap(z), _min_gap(w)
        gap = np.where(gw < gz, gw, gz)     # min(gz, gw) as Python's min takes it, NaN included
        return (np.hypot(lam.real, lam.imag) < 1e-8) | (gap < opts.collision_guard)

    def sample(rng, count):
        pos, theta = _draw_starts(rng, count, n, 2, 1, opts)
        return np.concatenate([pos[:, 0], pos[:, 1], np.exp(1j * theta)], axis=1)

    def finalize(x, iters):
        z, w, lam = _unpack_complex(x)
        z, w = _canonical_complex_pairs(z, w)
        # The conjugate-free system has the symmetry (z, w, Λ) -> (conj w, conj z, 1/conj Λ);
        # keep the twin with the smaller (signature, Λ) key.
        tz, tw = _canonical_complex_pairs(np.conj(w), np.conj(z))
        tlam = 1.0 / np.conj(lam)
        sig, tsig = _complex_signatures(z, w), _complex_signatures(tz, tw)
        swap = _lexicographic_less(_complex_sort_keys(tsig, tlam), _complex_sort_keys(sig, lam))
        z, w = np.where(swap[:, None], tz, z), np.where(swap[:, None], tw, w)
        lam = np.where(swap, tlam, lam)
        sig = np.where(swap[:, None, None], tsig, sig)
        F = _complex_residual(g, z, w, lam)
        signatures = [tuple(map(tuple, row)) for row in sig]
        return _central_solutions(v, "complex", z, w, lam, F, signatures, iters, opts)

    return _Search("complex", sample, residual, jacobian, _max_modulus, guard, finalize)


def _canonical_complex_pairs(z: np.ndarray, w: np.ndarray):
    # (z, w) -> (-z, -w) preserves the system and the gauge; per row, make
    # (Re z_12, Im z_12) at least (0, 0) in tuple order.
    z12 = z[:, 1] - z[:, 0]
    neg = ((z12.real < 0) | ((z12.real == 0) & (z12.imag < 0)))[:, None]
    return np.where(neg, -z, z), np.where(neg, -w, w)


def _complex_signatures(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per row, the products z_jk·w_jk as (Re, Im) pairs sorted in tuple order, shape (S, P, 2).

    The products are spelled out in real arithmetic, as one numpy complex
    scalar product rounds; numpy's vectorized complex multiply rounds differently.
    """
    j, k = np.triu_indices(z.shape[1], 1)
    a, b = z[:, k] - z[:, j], w[:, k] - w[:, j]
    re = a.real * b.real - a.imag * b.imag
    im = a.real * b.imag + a.imag * b.real
    order = np.lexsort((im, re), axis=1)
    return np.stack([np.take_along_axis(re, order, 1), np.take_along_axis(im, order, 1)], axis=2)


def _complex_sort_keys(sig: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Rows (signature pairs..., Re Λ, Im Λ), ordered as the tuples they flatten."""
    return np.concatenate([sig.reshape(len(sig), -1), lam.real[:, None], lam.imag[:, None]], axis=1)


def _lexicographic_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, whether a < b as Python compares tuples of floats."""
    differ = a != b
    first = differ.argmax(axis=1)
    rows = np.arange(len(a))
    return differ.any(axis=1) & (a[rows, first] < b[rows, first])


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _classify(lam: complex, inv: Invariants, opts: SolverOptions):
    if abs(lam.imag) <= opts.class_tol:
        return KIND_RELATIVE_EQUILIBRIUM, ()
    flags = []
    # Necessary conditions for the collapse branch: Γ != 0 and S = I = L = 0.
    if abs(inv.S) > opts.collapse_tol or abs(inv.I) > opts.collapse_tol or abs(inv.L) > opts.collapse_tol:
        flags.append("collapse_invariant_violation")
    if inv.gamma == 0:
        flags.append("collapse_gamma_zero")
    return KIND_COLLAPSE, tuple(flags)


def classify(solution: CentralConfigSolution, options: SolverOptions | None = None):
    """Kind and consistency flags for a converged central-configuration solution.

    Collapse solutions must satisfy S = I = L = 0 and Γ != 0; a violation is
    reported in the flags, never silently reclassified.
    """
    opts = options or SolverOptions()
    if solution.lam is None:
        return solution.kind, solution.flags
    return _classify(solution.lam, solution.invariants, opts)


def _central_solutions(v: VorticitySet, regime: str, z: np.ndarray, w: np.ndarray, lam: np.ndarray,
                       residual: np.ndarray, signatures: list, iters: np.ndarray,
                       opts: SolverOptions) -> list:
    """Records of converged central solutions, one per row, with kind and consistency flags.

    Physical solutions have Λ = e^{iθ}, so only complex ones can be flagged
    ``nonunit_lambda``.
    """
    lams, iters = lam.tolist(), iters.tolist()
    nonunit = np.abs(np.hypot(lam.real, lam.imag) - 1.0) > 1e-6
    norms = np.abs(residual).max(axis=1).tolist()
    records = []
    for s, inv in enumerate(invariants_of(v, z, w, lam=lams)):
        kind, flags = _classify(lams[s], inv, opts)
        flags += _solution_assertions(inv, opts)
        if nonunit[s]:
            flags += ("nonunit_lambda",)
        records.append(CentralConfigSolution(
            regime=regime,
            z=tuple(z[s]),
            w=tuple(w[s]),
            lam=lams[s],
            residual_norm=norms[s],
            invariants=inv,
            kind=kind,
            signature=signatures[s],
            flags=flags,
            iterations=iters[s],
        ))
    return records


def _solution_assertions(inv: Invariants, opts: SolverOptions) -> tuple:
    flags = []
    if abs(inv.M) > 1e-10:
        flags.append("moment_not_zero")
    defect = inv.lambda_defect
    if defect is not None and abs(defect) > 1e-9 * max(1.0, abs(inv.L)):
        flags.append("lambda_identity_violation")
    return tuple(flags)


# ---------------------------------------------------------------------------
# Starts, central entry points and deduplication
# ---------------------------------------------------------------------------


def _disk_positions(u: np.ndarray, opts: SolverOptions) -> np.ndarray:
    """Positions in the start disk from uniforms u (..., 2, n): radius draws, then angle draws."""
    r = opts.start_radius * np.sqrt(u[..., 0, :])
    phi = 2.0 * np.pi * u[..., 1, :]
    return r * np.exp(1j * phi)


def _sample_disk(rng: np.random.Generator, n: int, opts: SolverOptions) -> np.ndarray:
    for _ in range(10_000):
        pos = _disk_positions(rng.random((2, n)), opts)
        if _min_gap(pos[None])[0] >= opts.start_min_gap:
            return pos
    raise RuntimeError("could not sample a well-separated start")


def _draw_starts(rng: np.random.Generator, count: int, n: int, disks: int, angles: int,
                 opts: SolverOptions) -> tuple[np.ndarray, np.ndarray]:
    """Start positions (count, disks, n) and angles in [0, 2π) (count, angles).

    Drawn as a loop over the starts draws them: per start, each disk by
    :func:`_sample_disk`, then the angles.  All starts come from one block of
    uniforms.  A disk too tight for ``start_min_gap`` is redrawn, which shifts
    every later draw, so if the block holds one the generator is rewound and
    the block drawn start by start.
    """
    state = rng.bit_generator.state
    u = rng.random((count, disks * 2 * n + angles))
    pos = _disk_positions(u[:, : disks * 2 * n].reshape(count, disks, 2, n), opts)
    if (_min_gap(pos.reshape(-1, n)) >= opts.start_min_gap).all():
        return pos, 2.0 * np.pi * u[:, disks * 2 * n :]
    rng.bit_generator.state = state
    pos = np.empty((count, disks, n), dtype=complex)
    theta = np.empty((count, angles))
    for s in range(count):
        for k in range(disks):
            pos[s, k] = _sample_disk(rng, n, opts)
        theta[s] = rng.uniform(0.0, 2.0 * np.pi, size=angles)
    return pos, theta


def _central_search(v: VorticitySet, regime: str, opts: SolverOptions) -> _Search:
    if regime == "physical":
        return _physical_search(v, opts)
    if regime == "complex":
        return _complex_search(v, opts)
    raise ValueError(f"unknown regime {regime!r}")


def newton_refine(v: VorticitySet, start, regime: str = "physical",
                  options: SolverOptions | None = None):
    """Refine one start; returns a CentralConfigSolution or a NewtonFailure.

    Physical starts are ``(positions, theta)``; complex starts are
    ``(z, w, lam)``.
    """
    opts = (options or SolverOptions()).validated()
    search = _central_search(v.as_float(), regime, opts)
    x0 = _pack_physical(start) if regime == "physical" else _pack_complex(start)
    return _levenberg_newton(search, x0[None], opts, lanes=1)[0]


def solve_central_multistart(
    v: VorticitySet,
    regime: str = "physical",
    starts: int = 200,
    seed: int = 0,
    options: SolverOptions | None = None,
) -> SolveReport:
    """Multistart Newton search for normalized central configurations.

    Deterministic in (v, regime, starts, seed, options).  Distinct solutions
    are reported modulo rotation/sign gauge and conjugation, deduplicated on
    the sorted squared-distance signature together with Λ.  Counts are
    "found", not proven complete.
    """
    opts = (options or SolverOptions()).validated()
    if starts <= 0:
        raise ValueError("starts must be positive")
    return _multistart(_central_search(v.as_float(), regime, opts), starts, seed, opts)


def _lambda_match(a: complex | None, b: complex | None, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    direct = abs(a - b)
    mirrored = abs(a - np.conj(b))
    inverted = abs(a - 1.0 / np.conj(b)) if b != 0 else math.inf
    return min(direct, mirrored, inverted) <= tol


def _deduplicate(found: list, opts: SolverOptions) -> list:
    """Merge solutions whose signatures and Λ agree, keeping the smaller residual.

    Signatures match when they differ by at most ``dedup_tol`` times the
    candidate's largest entry (at least 1).  All signatures of one search
    have the same length.
    """
    if not found:
        return []
    flat = [np.asarray(s.signature, dtype=float).ravel() for s in found]
    # Sort first so the merge is independent of discovery order.
    order = sorted(range(len(found)), key=lambda i: (
        flat[i].tolist(),
        0.0 if found[i].lam is None else abs(found[i].lam.imag),
        found[i].residual_norm))
    sigs = np.array([flat[i] for i in order])
    bounds = opts.dedup_tol * np.maximum(1.0, np.abs(sigs).max(axis=1))
    kept: list[CentralConfigSolution] = []
    kept_sigs = np.empty_like(sigs)      # row k: the signature of kept[k]
    for row, i in enumerate(order):
        cand = found[i]
        close = np.abs(kept_sigs[: len(kept)] - sigs[row]).max(axis=1) <= bounds[row]
        for k in np.flatnonzero(close):
            if _lambda_match(cand.lam, kept[k].lam, opts.dedup_tol):
                if cand.residual_norm < kept[k].residual_norm:
                    kept[k] = cand
                    kept_sigs[k] = sigs[row]
                break
        else:
            kept_sigs[len(kept)] = sigs[row]
            kept.append(cand)
    return kept


# ---------------------------------------------------------------------------
# Equilibria and rigid translation
# ---------------------------------------------------------------------------


def _near_zero(value, scale: float) -> bool:
    """Zero test for the L and Γ gates: exact, or relative to `scale`."""
    if is_exact_scalar(value):
        return value == 0
    return abs(value) <= 1e-13 * scale


def _velocity_solutions(v: VorticitySet, pos: np.ndarray, velocity: np.ndarray | None,
                        iters: np.ndarray) -> list:
    """Records of roots of V_n = velocity, one per row; ``velocity=None`` marks equilibria."""
    w = np.conj(pos)
    V = _velocity_np(np.asarray(v.gammas), w)
    if velocity is not None:
        V = V - velocity[:, None]
    kind = KIND_EQUILIBRIUM if velocity is None else KIND_RIGID_TRANSLATION
    velocities = [None] * len(pos) if velocity is None else velocity.tolist()
    iters = iters.tolist()
    norms = np.abs(V).max(axis=1).tolist()
    signatures = _physical_signatures(pos)
    return [
        CentralConfigSolution(
            regime="physical",
            z=tuple(pos[s]),
            w=tuple(w[s]),
            lam=None,
            residual_norm=norms[s],
            invariants=inv,
            kind=kind,
            signature=signatures[s],
            iterations=iters[s],
            translation_velocity=velocities[s],
        )
        for s, inv in enumerate(invariants_of(v, pos, w))
    ]


def _pinned(x: np.ndarray, second) -> np.ndarray:
    """Positions (S, N) with z_1 = 0, z_2 = ``second`` and z_3.. from the (x, y) pairs in x."""
    pos = np.empty((len(x), x.shape[1] // 2 + 2), dtype=complex)
    pos[:, 0] = 0.0
    pos[:, 1] = second
    pos[:, 2:] = _complexify(x)
    return pos


def _equilibria_search(v: VorticitySet, opts: SolverOptions) -> _Search:
    # Unknowns: (x_3, y_3, ..., x_N, y_N), size 2N-4; z_1 = 0 and z_2 = 1 are pinned.
    g = np.asarray(v.gammas)
    n = v.n

    def residual(x):
        return _realify_vector(_velocity_np(g, np.conj(_pinned(x, 1.0))))

    def jacobian(x):
        Q = _velocity_derivative(g, np.conj(_pinned(x, 1.0)))[:, :, 2:]
        return _realify_columns(Q, -1j * Q)

    def guard(x):
        return _min_gap(_pinned(x, 1.0)) < opts.collision_guard

    def sample(rng, count):
        pos, _ = _draw_starts(rng, count, n, 1, 0, opts)
        return _realify_vector(pos[:, 0, 2:])

    def finalize(x, iters):
        return _velocity_solutions(v, _pinned(x, 1.0), None, iters)

    return _Search("physical", sample, residual, jacobian, _modulus_norm, guard, finalize)


def solve_equilibria(v: VorticitySet, starts: int = 200, seed: int = 0,
                     options: SolverOptions | None = None) -> SolveReport:
    """Search for equilibria (V_n = 0 for all n).

    Gated by the necessary condition L = 0.  Gauge: z_1 = 0, z_2 = 1 (the
    root set of V is translation-, rotation- and dilation-invariant, so the
    second vortex can be pinned completely).
    """
    opts = (options or SolverOptions()).validated()
    if starts <= 0:
        raise ValueError("starts must be positive")
    g_scale = sum(abs(float(a) * float(b)) for a, b in combinations(v.gammas, 2))
    if not _near_zero(angular_momentum(v), g_scale):
        return SolveReport((), 0, 0, seed, "physical",
                           reason="necessary condition L=0 fails")
    return _multistart(_equilibria_search(v.as_float(), opts), starts, seed, opts)


def _translation_search(v: VorticitySet, opts: SolverOptions) -> _Search:
    # Unknowns: (ξ = z_2, x_3, y_3, ..., x_N, y_N, φ), size 2N-2; z_1 = 0.
    g = np.asarray(v.gammas)
    n = v.n

    def assemble(x):
        return _pinned(x[:, 1:-1], x[:, 0]), x[:, -1]

    def residual(x):
        pos, phi = assemble(x)
        return _realify_vector(_velocity_np(g, np.conj(pos)) - np.exp(1j * phi)[:, None])

    def jacobian(x):
        pos, phi = assemble(x)
        Q = _velocity_derivative(g, np.conj(pos))
        dphi = np.broadcast_to((-1j * np.exp(1j * phi))[:, None], (len(x), n))
        free = _realify_columns(Q[:, :, 2:], -1j * Q[:, :, 2:])
        return np.concatenate([_realify_vector(Q[:, :, 1])[:, :, None], free,
                               _realify_vector(dphi)[:, :, None]], axis=2)

    def guard(x):
        return _min_gap(assemble(x)[0]) < opts.collision_guard

    def sample(rng, count):
        pos, phi = _draw_starts(rng, count, n, 1, 1, opts)
        z2 = pos[:, 0, 1]
        xi = np.hypot(z2.real, z2.imag) + opts.start_min_gap
        return np.concatenate([xi[:, None], _realify_vector(pos[:, 0, 2:]), phi], axis=1)

    def finalize(x, iters):
        pos, phi = _pinned(x[:, 1:-1], x[:, 0]), x[:, -1]
        # Rotate by a half turn where Re z_2 < 0: keeps V_n = V form with V -> -V.
        half = pos[:, 1].real < 0
        pos = np.where(half[:, None], -pos, pos)
        phi = np.where(half, phi + np.pi, phi)
        return _velocity_solutions(v, pos, np.exp(1j * phi), iters)

    return _Search("physical", sample, residual, jacobian, _modulus_norm, guard, finalize)


def solve_rigid_translation(v: VorticitySet, starts: int = 200, seed: int = 0,
                            options: SolverOptions | None = None) -> SolveReport:
    """Search for rigidly translating configurations (V_n = V for all n).

    Gated by the necessary condition Γ = 0.  Gauge: z_1 = 0, z_2 real
    positive; the common velocity is parametrized as V = e^{iφ} so |V| = 1
    fixes the dilation.
    """
    opts = (options or SolverOptions()).validated()
    if starts <= 0:
        raise ValueError("starts must be positive")
    g_scale = sum(abs(float(a)) for a in v.gammas)
    if not _near_zero(total_vorticity(v), g_scale):
        return SolveReport((), 0, 0, seed, "physical",
                           reason="necessary condition Γ=0 fails")
    return _multistart(_translation_search(v.as_float(), opts), starts, seed, opts)
