"""Multistart damped-Newton search for stationary vortex configurations.

The physical regime solves the reduced central system on unknowns
(x_1, y_1, ..., x_N, y_N, θ) with Λ = e^{iθ}, so |Λ| = 1 is structural and
the rotation gauge Im z_12 = 0 is the one extra equation.  The complex
regime solves the conjugate-free system on 2N+1 complex unknowns
(z, w, Λ) with the gauge row z_12 = w_12; there Λ is a free unknown (real
solutions automatically come out with |Λ| = 1).  The engine refines those
complex unknowns natively, not as a realified 4N+2 real system.  The other
three searches are real, in the (Re, Im) layout of :mod:`vortexcc.system`.

Damping is Levenberg-style: the Newton step is computed from
(JᴴJ + λI) δ = -JᴴF with λ adapted multiplicatively (Jᴴ = Jᵀ for the real
searches); trial steps that cross the collision guard are rejected.
Failures are values, not exceptions.

Each of the four searches (physical, complex, equilibria, rigid
translation) is a small :class:`_Search` spec: a sampler that draws all its
starts as one block, the residual, which also returns the collision guard's
verdict on each row, its Jacobian, a canonicalizer that puts the converged
starts in the search's gauge and twin, and a finalizer that builds solution
records.  ``system._residual_norm`` reads every residual norm off the row
layout.  One engine, ``_refine``, runs up to ``_LANES`` starts of any spec
in lockstep, each taking the steps it would take alone, and records per
start its reason, iterations, last residual norm and unknowns.
``_multistart`` canonicalizes the converged rows once, deduplicates them on
arrays and finalizes only the rows it keeps.  ``_solve`` is the one front
door of the three public searches, and ``newton_refine`` the one place that
builds a :class:`NewtonFailure`.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import partial
from itertools import combinations
from numbers import Integral, Number, Real
from typing import Callable

import numpy as np

from .quantities import Invariants, VorticitySet, _as_floats, invariants_of
from .system import (
    COLLISION_GUARD,
    _complex_residual,
    _complexify,
    _diagonal,
    _min_gap,
    _realify_columns,
    _realify_vector,
    _residual_norm,
    _separations,
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
    start_min_gap: float = 1e-3
    lm_lambda_max: float = 1e12
    divergence_norm: float = 1e8

    def __post_init__(self):
        # Written as `not ... < inf` so that NaN fails it too.  An infinite tol
        # converges every start; an infinite lm_lambda_max never ends a trial loop.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"option {f.name} must be a real number, not {type(value).__name__}")
            if not abs(value) < math.inf:
                raise ValueError(f"option {f.name} must be finite")
        # Written as `not ... > ...` so that NaN fails every check.
        # A NaN gap never yields a separated start; a divergence bound of 0
        # fails every step, a NaN one none.
        for name in ("tol", "dedup_tol", "class_tol", "divergence_norm"):
            if not getattr(self, name) > 0:
                raise ValueError(f"option {name} must be positive")
        for name in ("max_iter", "start_min_gap"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"option {name} must be non-negative")
        if not isinstance(self.max_iter, Integral):
            raise ValueError("option max_iter must be an integer")
        if not self.lm_lambda_max >= _LM_LAMBDA0:
            raise ValueError("option lm_lambda_max must be at least the initial damping "
                             f"λ₀ = {_LM_LAMBDA0}")
        # No two points of the start disk lie 2 * _START_RADIUS apart, so a gap that
        # large is never met and the start sampler would give up.
        if not self.start_min_gap < 2 * _START_RADIUS:
            raise ValueError("option start_min_gap must be less than the start disk's diameter "
                             f"{2 * _START_RADIUS}")
        # Below COLLISION_GUARD the residuals leave the trustworthy float range, so a
        # smaller guard would let the engine step on residuals it cannot trust.  The
        # engine's residuals do not raise there; they return each row's guard hit.
        if not self.collision_guard >= COLLISION_GUARD:
            raise ValueError(f"option collision_guard must be at least {COLLISION_GUARD:g}")


@dataclass(frozen=True)
class NewtonFailure:
    """Diagnostic result of a failed refinement."""

    reason: str  # one of _REASONS but "converged"
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
class _Canonical:
    """Converged rows of one search in its canonical gauge and twin, one solution per row."""

    z: np.ndarray                   # (S, N) positions
    w: np.ndarray                   # (S, N) conjugate coordinates; conj(z) but in the complex search
    lam: np.ndarray | None          # (S,) Λ; None for equilibria and rigid translation
    velocity: np.ndarray | None     # (S,) rigid translation velocity, else None
    norm: np.ndarray                # (S,) largest residual modulus
    signature: np.ndarray           # (S, P) squared distances, or (S, P, 2) products as (Re, Im)

    def take(self, rows: np.ndarray) -> "_Canonical":
        return _Canonical(*(None if a is None else a[rows]
                            for a in (getattr(self, f.name) for f in fields(self))))


@dataclass(frozen=True)
class _Search:
    """One search, as the engine and ``_multistart`` run it.

    ``residual`` and ``jacobian`` take stacks: one unknown vector x
    per row of an (S, d) array, one residual per row of an (S, m) array.
    ``residual`` also returns, per row, whether x is too close to a collision
    (the collision guard), read off the separations the residual forms; the
    residual of such a row is not used.  Unknowns and residuals are real, or
    complex with a holomorphic residual; the starts' dtype sets which.
    ``canonical`` runs once per search on the stack of converged rows;
    ``_deduplicate`` picks the distinct rows from its result, and
    ``finalize`` builds the records (invariants, kind, flags) of those rows
    only.
    """

    regime: str
    sample: Callable[[np.random.Generator, int], np.ndarray]  # (rng, count) -> starts (count, d)
    residual: Callable[[np.ndarray], tuple]       # (S, d) -> (S, m) rows, (S,) guard hits
    jacobian: Callable[[np.ndarray], np.ndarray]  # (S, d) -> (S, m, d)
    canonical: Callable[[np.ndarray], _Canonical]   # converged (S, d) -> canonical rows
    finalize: Callable[[_Canonical, np.ndarray], list]  # canonical rows, iterations (S,) -> records


# ---------------------------------------------------------------------------
# Levenberg-damped Newton engine on stacks of real or complex vectors
# ---------------------------------------------------------------------------

# Most starts in flight at once.  It bounds the memory of the stacked
# Jacobians and solves; results do not depend on it.  Larger pools spread the
# fixed cost of a round over more starts: 512 runs a 1000-start complex
# search about 1.3x faster than 128, while 256 gains less and 1000 grows the
# per-call memory about 4x for little more.
_LANES = 512

# Fixed damping schedule: λ₀, ×10 on a rejected trial (so λ passes lm_lambda_max
# and the trial loop ends), ×¼ on an accepted one; the start disk radius; the
# |S|, |I|, |L| bound required of collapse solutions.
_LM_LAMBDA0, _LM_INCREASE, _LM_DECREASE = 1e-3, 10.0, 0.25
_START_RADIUS = 2.0
_COLLAPSE_TOL = 1e-8

# How a start ends; the engine records each start's end as an index into this tuple.
_REASONS = ("converged", "diverged", "hit_collision_guard", "max_iterations")
_CONVERGED, _DIVERGED, _HIT_GUARD, _MAX_ITERATIONS = range(len(_REASONS))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _refine(search: _Search, starts: np.ndarray, options: SolverOptions):
    """Refine every row of ``starts``; returns arrays (reason, iterations, norm, x) in start order.

    Per start: the index of its end in ``_REASONS``, its accepted steps, its
    last residual norm and its last unknowns.  A start inside the guard ends
    when its lane takes it, with no iterations and norm inf; ``finish``
    records the others.  Residuals are evaluated on rows past the guard too,
    where they may overflow or divide by zero, so numpy's warnings are off.

    Up to ``_LANES`` starts are in flight, one per lane; no more lanes are
    allocated than there are starts to run.  A lane holds its start's
    unknowns, residual norm, damping λ, accepted steps, whether a trial of
    this iteration crossed the guard, and its iteration's JᴴJ and JᴴF.  A
    start follows exactly the schedule it would follow alone.  Each round,
    the lanes at the top of an iteration (refilled this round, or accepted
    last round) arrive with their residuals: each converges, runs out of
    iterations or takes a Jacobian.  Then every busy lane makes one damped
    trial step.  A step that lowers the residual norm is accepted; ``reject``
    raises λ after any other, and a start whose λ passes its maximum ends at
    that trial.  Unknowns, residuals and the normal equations take the dtype
    of the starts and residuals, real or complex.
    """
    d = starts.shape[1]
    reason = np.full(len(starts), _HIT_GUARD)
    iterations = np.zeros(len(starts), dtype=int)
    norm = np.full(len(starts), math.inf)
    last = starts.copy()
    pending = np.arange(len(starts))
    lanes = min(_LANES, len(starts))
    owner = np.full(lanes, -1)          # row of the lane's start in ``starts``, -1 when free
    x = np.zeros((lanes, d), dtype=starts.dtype)
    nrm = np.zeros(lanes)
    damp = np.zeros(lanes)
    iters = np.zeros(lanes, dtype=int)
    blocked = np.zeros(lanes, dtype=bool)   # a trial of this iteration crossed the guard
    jtj = np.zeros((lanes, d, d), dtype=starts.dtype)
    jtf = np.zeros((lanes, d), dtype=starts.dtype)
    top, F = owner[:0], None            # lanes at the top of an iteration, and their residuals

    def finish(done, code):
        if done.size:
            rows = owner[done]
            reason[rows], iterations[rows], norm[rows] = code, iters[done], nrm[done]
            last[rows] = x[done]
            owner[done] = -1

    def reject(run):
        """The trials of ``run`` failed: raise λ, and end each start whose λ is exhausted."""
        damp[run] *= _LM_INCREASE
        spent = run[damp[run] > options.lm_lambda_max]
        finish(spent[blocked[spent]], _HIT_GUARD)
        finish(spent[~blocked[spent]], _DIVERGED)

    while True:
        # Free lanes take the next starts, in drawing order.
        free = (owner < 0).nonzero()[0]
        if pending.size and free.size:
            take, pending = pending[: free.size], pending[free.size :]
            F0, hit = search.residual(starts[take])
            if np.count_nonzero(hit):       # these end at once; their lanes wait for the next round
                take, F0 = take[~hit], F0[~hit]
            new = free[: take.size]
            owner[new] = take
            x[new], nrm[new] = starts[take], _residual_norm(F0)
            damp[new], iters[new] = _LM_LAMBDA0, 0
            top, F = np.concatenate((top, new)), np.concatenate((F, F0)) if top.size else F0
        elif free.size == lanes:
            break

        # Lanes at the top of an iteration converge, run out of iterations or take a
        # Jacobian.  Masks are tested with np.count_nonzero, several times cheaper than
        # ndarray.any on arrays this small; a round's fixed cost is mostly such calls.
        if top.size:
            converged = nrm[top] < options.tol
            ended = converged | (iters[top] >= options.max_iter)
            if np.count_nonzero(ended):
                finish(top[converged], _CONVERGED)
                finish(top[ended & ~converged], _MAX_ITERATIONS)
                top, F = top[~ended], F[~ended]
            if top.size:
                J = search.jacobian(x[top])
                JH = J.transpose(0, 2, 1)
                if np.iscomplexobj(J):
                    JH = JH.conj()
                jtj[top] = JH @ J
                jtf[top] = (JH @ F[:, :, None])[:, :, 0]
                blocked[top] = False
                top = top[:0]           # until steps are accepted

        # Every busy lane is now inside an iteration and makes one damped trial step.
        run = (owner >= 0).nonzero()[0]
        if not run.size:
            continue
        step, solved = _damped_steps(jtj[run], jtf[run], damp[run])   # jtj[run] is a copy
        if np.count_nonzero(solved) < run.size:
            reject(run[~solved])
            step, run = step[solved], run[solved]
            if not run.size:
                continue
        xt = x[run] + step
        Ft, hit = search.residual(xt)
        if np.count_nonzero(hit):
            blocked[run[hit]] = True
            reject(run[hit])
            xt, Ft, run = xt[~hit], Ft[~hit], run[~hit]
            if not run.size:
                continue
        nt = _residual_norm(Ft)
        better = nt < nrm[run]          # never for a NaN or infinite norm
        if np.count_nonzero(better) < run.size:
            reject(run[~better])
            xt, Ft, nt, run = xt[better], Ft[better], nt[better], run[better]
            if not run.size:
                continue
        x[run], nrm[run] = xt, nt
        damp[run] = np.maximum(damp[run] * _LM_DECREASE, 1e-14)
        far = np.abs(xt).max(axis=1) > options.divergence_norm
        finish(run[far], _DIVERGED)
        top, F = run[~far], Ft[~far]
        iters[top] += 1

    return reason, iterations, norm, last


def _damped_steps(a: np.ndarray, jtf: np.ndarray, damp: np.ndarray):
    """Solve (JᴴJ + λI) δ = -JᴴF on every lane; returns (δ, solved).

    ``a`` holds the lanes' JᴴJ and is overwritten: λ is added on its diagonal
    in place, so a round builds no other (S, d, d) array.  A singular matrix
    makes the stacked solve raise; then each lane is solved alone and only
    the singular ones come back unsolved.
    """
    diagonal = _diagonal(a.shape[-1])
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _multistart(search: _Search, starts: int, seed: int, opts: SolverOptions) -> SolveReport:
    """Draw every start from one rng in turn and refine them all; report the distinct converged rows.

    The converged stack is canonicalized once and deduplicated; only the
    rows dedup keeps are finalized, in kept order.  Extreme strengths overflow
    the kernels; failures stay values, so numpy's warnings are off here.
    """
    rng = np.random.default_rng(seed)
    reason, iters, _, x = _refine(search, search.sample(rng, starts), opts)
    index = np.flatnonzero(reason == _CONVERGED)
    solutions = []
    if index.size:
        canonical = search.canonical(x[index])
        kept = _deduplicate(canonical, opts)
        solutions = search.finalize(canonical.take(kept), iters[index[kept]])
    return SolveReport(tuple(solutions), starts, index.size, seed, search.regime)


# ---------------------------------------------------------------------------
# Central-configuration searches
# ---------------------------------------------------------------------------


def _pack_physical(start) -> np.ndarray:
    positions, theta = start
    return np.append(_realify_vector(np.asarray(positions, dtype=complex)), _number(theta, "θ", Real))


def _unpack_physical(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _complexify(x[..., :-1]), x[..., -1]


def _physical_search(v: VorticitySet, opts: SolverOptions) -> _Search:
    g = np.asarray(v.gammas)
    n = v.n

    def residual(x):
        return physical_residual_vector(v, *_unpack_physical(x), guard=opts.collision_guard)

    def jacobian(x):
        return physical_jacobian(v, *_unpack_physical(x))

    def sample(rng, count):
        pos, theta = _draw_starts(rng, count, n, 1, 1, opts)
        return np.concatenate([_realify_vector(pos[:, 0]), theta], axis=1)

    def canonical(x):
        pos, theta = _unpack_physical(x)
        lam = np.exp(1j * theta)
        # Rotate so z_12 is exactly real and positive (rotation leaves Λ fixed).
        z12 = pos[:, 1] - pos[:, 0]
        pos = pos * (np.hypot(z12.real, z12.imag) / z12)[:, None]
        # Conjugation maps solutions to solutions; keep one canonical twin.
        flip = _prefers_conjugate(pos, lam, opts)
        pos = np.where(flip[:, None], np.conj(pos), pos)
        lam = np.where(flip, np.conj(lam), lam)
        E = lam[:, None] * pos - _velocity_np(g, np.conj(pos))[0]
        return _Canonical(pos, np.conj(pos), lam, None, _residual_norm(E), _physical_signatures(pos))

    return _Search("physical", sample, residual, jacobian, canonical,
                   partial(_solutions, v, "physical", opts=opts))


def _prefers_conjugate(pos: np.ndarray, lam: np.ndarray, opts: SolverOptions) -> np.ndarray:
    """Per row: Im Λ < 0, or for real Λ the first clearly nonreal position lies below the axis."""
    nonreal = np.abs(pos.imag) > 1e-9
    first = pos.imag[np.arange(len(pos)), nonreal.argmax(axis=1)]
    below = nonreal.any(axis=1) & (first < 0)
    return np.where(lam.imag > opts.class_tol, False, (lam.imag < -opts.class_tol) | below)


def _physical_signatures(pos: np.ndarray) -> np.ndarray:
    """Per row, the sorted squared pair distances |z_jk|², shape (S, P).

    hypot and float_power round as Python's abs and ``**`` of one numpy
    scalar do; numpy's vectorized abs does not always.
    """
    d = _separations(pos)
    return np.sort(np.float_power(np.hypot(d.real, d.imag), 2.0), axis=1)


def _pack_complex(start) -> np.ndarray:
    z, w, lam = start
    return np.concatenate([np.asarray(z, dtype=complex), np.asarray(w, dtype=complex),
                           [_number(lam, "Λ", Number)]])


def _unpack_complex(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = (x.shape[-1] - 1) // 2
    return x[..., :n], x[..., n : 2 * n], x[..., -1]


def _complex_search(v: VorticitySet, opts: SolverOptions) -> _Search:
    g = np.asarray(v.gammas)
    n = v.n

    def residual(x):
        return complex_residual_vector(v, *_unpack_complex(x), guard=opts.collision_guard)

    def jacobian(x):
        return complex_jacobian(v, *_unpack_complex(x))

    def sample(rng, count):
        pos, theta = _draw_starts(rng, count, n, 2, 1, opts)
        return np.concatenate([pos[:, 0], pos[:, 1], np.exp(1j * theta)], axis=1)

    def canonical(x):
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
        F = _complex_residual(g, z, w, lam)[0]
        return _Canonical(z, w, lam, None, _residual_norm(F), sig)

    return _Search("complex", sample, residual, jacobian, canonical,
                   partial(_solutions, v, "complex", opts=opts))


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
    a, b = _separations(z), _separations(w)
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
    if abs(inv.S) > _COLLAPSE_TOL or abs(inv.I) > _COLLAPSE_TOL or abs(inv.L) > _COLLAPSE_TOL:
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


def _signature_tuples(signature: np.ndarray) -> list:
    """Per row, the record signature: a tuple of np.float64, or of (Re, Im) tuples."""
    if signature.ndim == 2:
        return [tuple(row) for row in signature]
    return [tuple(map(tuple, row)) for row in signature]


def _solutions(v: VorticitySet, regime: str, c: _Canonical, iters: np.ndarray,
               opts: SolverOptions) -> list:
    """Records of converged solutions, one per row.

    Central rows, which carry Λ, get their kind and consistency flags;
    physical ones have Λ = e^{iθ}, so only complex ones can be flagged
    ``nonunit_lambda``.  Rows without Λ are roots of V_n = velocity.
    """
    central = c.lam is not None
    lams = c.lam.tolist() if central else [None] * len(c.z)
    velocities = [None] * len(c.z) if c.velocity is None else c.velocity.tolist()
    iters, norms, signatures = iters.tolist(), c.norm.tolist(), _signature_tuples(c.signature)
    nonunit = (np.abs(np.hypot(c.lam.real, c.lam.imag) - 1.0) > 1e-6).tolist() if central else ()
    kind, flags = KIND_EQUILIBRIUM if c.velocity is None else KIND_RIGID_TRANSLATION, ()
    records = []
    for s, inv in enumerate(invariants_of(v, c.z, c.w, lam=lams)):
        if central:
            kind, flags = _classify(lams[s], inv, opts)
            flags += _solution_assertions(inv)
            if nonunit[s]:
                flags += ("nonunit_lambda",)
        records.append(CentralConfigSolution(
            regime=regime, z=tuple(c.z[s]), w=tuple(c.w[s]), lam=lams[s], residual_norm=norms[s],
            invariants=inv, kind=kind, signature=signatures[s], flags=flags, iterations=iters[s],
            translation_velocity=velocities[s]))
    return records


def _solution_assertions(inv: Invariants) -> tuple:
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


def _disk_positions(u: np.ndarray) -> np.ndarray:
    """Positions in the start disk from uniforms u (..., 2, n): radius draws, then angle draws."""
    r = _START_RADIUS * np.sqrt(u[..., 0, :])
    phi = 2.0 * np.pi * u[..., 1, :]
    return r * np.exp(1j * phi)


def _sample_disk(rng: np.random.Generator, n: int, opts: SolverOptions) -> np.ndarray:
    for _ in range(10_000):
        pos = _disk_positions(rng.random((2, n)))
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
    pos = _disk_positions(u[:, : disks * 2 * n].reshape(count, disks, 2, n))
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def newton_refine(v: VorticitySet, start, regime: str = "physical",
                  options: SolverOptions | None = None):
    """Refine one start; returns a CentralConfigSolution or a NewtonFailure.

    Physical starts are ``(positions, theta)``; complex starts are
    ``(z, w, lam)``.  Raises ValueError unless positions, or z and w, hold
    one entry per vortex, θ is a real number and Λ a number (a bool, a str
    or an array is neither), and every entry of the start is finite.
    """
    opts = options or SolverOptions()
    search = _central_search(v.as_float(), regime, opts)
    if any(np.shape(p) != (v.n,) for p in (start[:1] if regime == "physical" else start[:2])):
        raise ValueError("positions must match the vorticity count")
    x0 = _pack_physical(start) if regime == "physical" else _pack_complex(start)
    if not np.isfinite(x0).all():
        raise ValueError("start entries must be finite")
    reason, iters, norm, x = _refine(search, x0[None], opts)
    if reason[0] != _CONVERGED:
        return NewtonFailure(_REASONS[reason[0]], int(iters[0]), float(norm[0]))
    return search.finalize(search.canonical(x), iters)[0]


def _integer(value, name: str, least: int) -> int:
    """``value``, an integer of at least ``least`` (0 or 1), as a Python int; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer")
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'non-negative'}")
    return operator.index(value)


def _number(value, name: str, kind: type):
    """``value``, or a 0-d array's entry, as a Python float (kind Real) or complex (kind Number)."""
    value = np.asarray(value)[()]       # a bool becomes np.bool_, which is not a number
    if not isinstance(value, kind):
        raise ValueError(f"start {name} must be a {'real ' if kind is Real else ''}number, "
                         f"not {type(value).__name__}")
    return float(value) if kind is Real else complex(value)


def _solve(make: Callable, v: VorticitySet, starts, seed, options, gate=None) -> SolveReport:
    """Front door of the three public multistart searches; ``make(v, opts)`` builds the search.

    Checks ``starts``, then ``seed``.  A ``gate`` (terms, reason) runs the
    search only if the sum of ``terms(Γ)`` vanishes; otherwise the report is
    empty and carries ``reason``.  The search runs on ``v.as_float()``.
    """
    opts = options or SolverOptions()
    starts = _integer(starts, "starts", 1)
    seed = _integer(seed, "seed", 0)
    if gate and not _vanishes(v, gate[0]):
        return SolveReport((), 0, 0, seed, "physical", reason=gate[1])
    return _multistart(make(v.as_float(), opts), starts, seed, opts)


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
    return _solve(lambda u, opts: _central_search(u, regime, opts), v, starts, seed, options)


def _lambda_match(a: complex | None, b: complex | None, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    direct = abs(a - b)
    mirrored = abs(a - np.conj(b))
    inverted = abs(a - 1.0 / np.conj(b)) if b != 0 else math.inf
    return min(direct, mirrored, inverted) <= tol


def _deduplicate(c: _Canonical, opts: SolverOptions) -> np.ndarray:
    """Rows of ``c`` that stay distinct, in kept order.

    Rows are sorted by (signature, |Im Λ|, residual norm), so the merge does
    not depend on discovery order.  In turn, each row merges with the first
    kept row, in kept order, whose signature lies within ``dedup_tol`` times
    the candidate's largest entry (at least 1), entry by entry, and whose Λ
    matches; it replaces that row when its residual is smaller.  A row that
    merges with none is kept.  Sorted rows have nondecreasing first entries
    and kept rows are earlier rows, so only kept rows at or after
    ``searchsorted(first, first[r] - 2 * bound[r])`` can match row r; the
    factor 2 covers the rounding of the subtraction.
    """
    count = len(c.norm)
    sig = c.signature.reshape(count, -1)
    im = np.zeros(count) if c.lam is None else np.abs(c.lam.imag)
    order = np.lexsort(np.vstack([c.norm, im, sig[:, ::-1].T]))   # stable; last key first
    sig = sig[order]
    bounds = opts.dedup_tol * np.maximum(1.0, np.abs(sig).max(axis=1))
    window = np.searchsorted(sig[:, 0], sig[:, 0] - 2.0 * bounds).tolist()
    rows, bounds, norms = sig.tolist(), bounds.tolist(), c.norm[order].tolist()
    lams = [None] * count if c.lam is None else c.lam[order].tolist()
    kept: list[int] = []        # row of each kept solution, in kept order
    held: list[int] = []        # the rows in ``kept``, ascending
    owner: list[int] = []       # held[i] is the row of kept[owner[i]]
    for r, cand in enumerate(rows):
        first, bound = bisect_left(held, window[r]), bounds[r]
        close = sorted(k for q, k in zip(held[first:], owner[first:])
                       if all(abs(a - b) <= bound for a, b in zip(rows[q], cand)))
        for k in close:
            if _lambda_match(lams[r], lams[kept[k]], opts.dedup_tol):
                if norms[r] < norms[kept[k]]:
                    i = bisect_left(held, kept[k])
                    del held[i], owner[i]
                    held.append(r)          # r is the largest row so far
                    owner.append(k)
                    kept[k] = r
                break
        else:
            held.append(r)
            owner.append(len(kept))
            kept.append(r)
    return order[kept]


# ---------------------------------------------------------------------------
# Equilibria and rigid translation
# ---------------------------------------------------------------------------


def _vanishes(v: VorticitySet, terms: Callable) -> bool:
    """Zero test of the L and Γ gates: whether the sum of ``terms(Γ)`` vanishes.

    Exact strengths are tested for == 0.  Float strengths are divided by
    max|Γ| first, so no product overflows and an entry that underflows to
    0.0 is zero relative to max|Γ|; the sum then vanishes when it is at most
    1e-13 of the sum of the terms' magnitudes.
    """
    if v.is_exact:
        return sum(terms(v.gammas)) == 0
    floats = _as_floats(v.gammas)
    peak = max(map(abs, floats))
    t = terms([g / peak for g in floats])
    return abs(sum(t)) <= 1e-13 * sum(map(abs, t))


def _velocity_canonical(g: np.ndarray, pos: np.ndarray, velocity: np.ndarray | None) -> _Canonical:
    """Canonical rows of roots of V_n = velocity; ``velocity=None`` marks equilibria."""
    w = np.conj(pos)
    V = _velocity_np(g, w)[0]
    if velocity is not None:
        V = V - velocity[:, None]
    return _Canonical(pos, w, None, velocity, _residual_norm(V), _physical_signatures(pos))


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
        V, gap = _velocity_np(g, np.conj(_pinned(x, 1.0)))
        return _realify_vector(V), gap < opts.collision_guard

    def jacobian(x):
        Q = _velocity_derivative(g, np.conj(_pinned(x, 1.0)))[:, :, 2:]
        return _realify_columns(Q, -1j * Q, np.empty((len(x), 2 * n, 2 * n - 4)))

    def sample(rng, count):
        pos, _ = _draw_starts(rng, count, n, 1, 0, opts)
        return _realify_vector(pos[:, 0, 2:])

    def canonical(x):
        return _velocity_canonical(g, _pinned(x, 1.0), None)

    return _Search("physical", sample, residual, jacobian, canonical,
                   partial(_solutions, v, "physical", opts=opts))


def solve_equilibria(v: VorticitySet, starts: int = 200, seed: int = 0,
                     options: SolverOptions | None = None) -> SolveReport:
    """Search for equilibria (V_n = 0 for all n).

    Gated by the necessary condition L = 0.  Gauge: z_1 = 0, z_2 = 1 (the
    root set of V is translation-, rotation- and dilation-invariant, so the
    second vortex can be pinned completely).
    """
    return _solve(_equilibria_search, v, starts, seed, options, gate=(
        lambda g: [a * b for a, b in combinations(g, 2)], "necessary condition L=0 fails"))


def _translation_search(v: VorticitySet, opts: SolverOptions) -> _Search:
    # Unknowns: (ξ = z_2, x_3, y_3, ..., x_N, y_N, φ), size 2N-2; z_1 = 0.
    g = np.asarray(v.gammas)
    n = v.n

    def assemble(x):
        return _pinned(x[:, 1:-1], x[:, 0]), x[:, -1]

    def residual(x):
        pos, phi = assemble(x)
        V, gap = _velocity_np(g, np.conj(pos))
        return _realify_vector(V - np.exp(1j * phi)[:, None]), gap < opts.collision_guard

    def jacobian(x):
        pos, phi = assemble(x)
        Q = _velocity_derivative(g, np.conj(pos))
        dphi = np.broadcast_to((-1j * np.exp(1j * phi))[:, None], (len(x), n))
        J = np.empty((len(x), 2 * n, 2 * n - 2))   # columns ξ, x_3, y_3, ..., φ
        J[:, :, 0] = _realify_vector(Q[:, :, 1])
        _realify_columns(Q[:, :, 2:], -1j * Q[:, :, 2:], J[:, :, 1:-1])
        J[:, :, -1] = _realify_vector(dphi)
        return J

    def sample(rng, count):
        pos, phi = _draw_starts(rng, count, n, 1, 1, opts)
        z2 = pos[:, 0, 1]
        xi = np.hypot(z2.real, z2.imag) + opts.start_min_gap
        return np.concatenate([xi[:, None], _realify_vector(pos[:, 0, 2:]), phi], axis=1)

    def canonical(x):
        pos, phi = _pinned(x[:, 1:-1], x[:, 0]), x[:, -1]
        # Rotate by a half turn where Re z_2 < 0: keeps V_n = V form with V -> -V.
        half = pos[:, 1].real < 0
        pos = np.where(half[:, None], -pos, pos)
        phi = np.where(half, phi + np.pi, phi)
        return _velocity_canonical(g, pos, np.exp(1j * phi))

    return _Search("physical", sample, residual, jacobian, canonical,
                   partial(_solutions, v, "physical", opts=opts))


def solve_rigid_translation(v: VorticitySet, starts: int = 200, seed: int = 0,
                            options: SolverOptions | None = None) -> SolveReport:
    """Search for rigidly translating configurations (V_n = V for all n).

    Gated by the necessary condition Γ = 0.  Gauge: z_1 = 0, z_2 real
    positive; the common velocity is parametrized as V = e^{iφ} so |V| = 1
    fixes the dilation.
    """
    # The strengths are the terms of Γ.
    return _solve(_translation_search, v, starts, seed, options,
                  gate=(list, "necessary condition Γ=0 fails"))
