"""Multistart search, refinement, classification, and the gated searches."""

import dataclasses
import types

import numpy as np
import pytest

from vortexcc import solver
from vortexcc.quantities import VorticitySet, conjugate_positions, invariants_of
from vortexcc.solver import (
    CentralConfigSolution,
    NewtonFailure,
    SolverOptions,
    classify,
    newton_refine,
    solve_central_multistart,
    solve_equilibria,
    solve_rigid_translation,
)
from vortexcc.system import (
    complex_jacobian,
    complex_residual_vector,
    physical_jacobian,
    physical_residual_vector,
    stationary_residual,
)


TWO = VorticitySet((1.0, 1.0))
THREE = VorticitySet((1.0, 1.0, 1.0))
COLLAPSE = VorticitySet((1.0, 1.0, -0.5))


def test_solves_name_a_strength_beyond_the_float_range():
    # float() of the strengths raised OverflowError once.  The mixed tuple
    # also takes the float L and Γ gates of the equilibria and translation
    # searches; an exact one passes them in Python ints.
    mixed = VorticitySet((10**400, 2.0, 3.0))
    for call in (lambda: solve_central_multistart(VorticitySet((10**400, 2, 3)), starts=4),
                 lambda: solve_central_multistart(mixed, starts=4),
                 lambda: solve_central_multistart(mixed, regime="complex", starts=4),
                 lambda: solve_equilibria(mixed, starts=4),
                 lambda: solve_rigid_translation(mixed, starts=4)):
        with pytest.raises(ValueError, match="^vorticity entry 1 is beyond the float range$"):
            call()


@pytest.fixture(scope="module")
def two_vortex_report():
    return solve_central_multistart(TWO, starts=200, seed=1)


@pytest.fixture(scope="module")
def three_vortex_report():
    return solve_central_multistart(THREE, starts=1000, seed=0)


@pytest.fixture(scope="module")
def collapse_report():
    return solve_central_multistart(COLLAPSE, starts=500, seed=0)


def test_two_vortex_unique_solution(two_vortex_report):
    rep = two_vortex_report
    assert len(rep.solutions) == 1
    sol = rep.solutions[0]
    # closed form: M = 0 forces z = (-c, c); Λ = 1/(2c²) real, so Λ = 1 at r² = 2
    assert sol.lam == pytest.approx(1.0, abs=1e-10)
    assert sol.signature[0] == pytest.approx(2.0, abs=1e-9)
    assert sol.kind == "relative_equilibrium"
    assert abs(sol.z[0] + np.sqrt(2) / 2) < 1e-8
    assert abs(sol.z[1] - np.sqrt(2) / 2) < 1e-8


def test_three_vortex_families(three_vortex_report):
    rep = three_vortex_report
    sigs = sorted(tuple(np.round(s.signature, 6)) for s in rep.solutions)
    assert len(sigs) == 2
    collinear, equilateral = sigs
    # hand oracles: V_end = 3/(2d) gives d² = 3/2 -> r² in {3/2, 3/2, 6};
    # V_vertex = 1/ρ gives ρ = 1 -> r² = 3 each
    assert np.allclose(collinear, (1.5, 1.5, 6.0), rtol=1e-8)
    assert np.allclose(equilateral, (3.0, 3.0, 3.0), rtol=1e-8)
    for sol in rep.solutions:
        assert sol.lam == pytest.approx(1.0, abs=1e-8)
        assert sol.kind == "relative_equilibrium"


@pytest.mark.parametrize("lanes", [128, solver._LANES])
def test_identical_vortices_collinear_solution_sits_at_hermite_zeros(monkeypatch, lanes):
    # Stieltjes: x_n = Σ_{j≠n} 1/(x_n − x_j) holds at the zeros of H_N, so
    # N identical vortices there form the one collinear equilibrium, Λ = 1.
    monkeypatch.setattr(solver, "_LANES", lanes)
    for n in range(3, 9):
        rep = solve_central_multistart(VorticitySet((1.0,) * n), starts=1000, seed=0)
        collinear = [s for s in rep.solutions if np.abs(np.imag(s.z)).max() < 1e-9]
        assert len(collinear) == 1, n
        sol = collinear[0]
        assert abs(sol.lam - 1.0) < 1e-10
        x = np.polynomial.hermite.hermroots([0] * n + [1])
        j, k = np.triu_indices(n, 1)
        assert np.abs(np.array(sol.signature) - np.sort((x[k] - x[j]) ** 2)).max() < 1e-10, n


def test_collapse_solutions_found(collapse_report):
    rep = collapse_report
    strong = [s for s in rep.solutions
              if s.kind == "collapse" and abs(s.lam.imag) > 0.1]
    assert strong
    for sol in strong[:10]:
        assert abs(sol.invariants.S) < 1e-9
        assert abs(sol.invariants.I) < 1e-9
        assert abs(sol.invariants.L) < 1e-9
        assert "collapse_invariant_violation" not in sol.flags


def test_solutions_satisfy_shared_invariants(two_vortex_report, three_vortex_report, collapse_report):
    for rep in (two_vortex_report, three_vortex_report, collapse_report):
        for sol in rep.solutions:
            assert sol.residual_norm < 1e-12
            assert abs(sol.invariants.M) <= 1e-10
            defect = sol.invariants.lambda_defect
            assert abs(defect) <= 1e-9 * max(1.0, abs(sol.invariants.L))
            # gauge: z_12 real positive
            z12 = sol.z[1] - sol.z[0]
            assert z12.imag == pytest.approx(0.0, abs=1e-12)
            assert z12.real > 0


def test_conjugate_of_solution_also_solves(collapse_report):
    v = COLLAPSE
    checked = 0
    for sol in collapse_report.solutions:
        if sol.kind != "collapse":
            continue
        zc = conjugate_positions(sol.z)
        res = stationary_residual(v, zc, conjugate_positions(zc), np.conj(sol.lam))
        assert res.norm < 1e-10
        checked += 1
        if checked >= 5:
            break
    assert checked


def test_determinism(two_vortex_report):
    again = solve_central_multistart(TWO, starts=200, seed=1)
    assert again == two_vortex_report


def test_scaling_covariance_two_vortex():
    # unnormalized system: z -> s z maps Λ -> Λ/s²
    c = np.sqrt(2) / 2
    z = (-c + 0j, c + 0j)
    for s in (0.5, 2.0, 3.7):
        zs = tuple(s * p for p in z)
        res = stationary_residual(TWO, zs, conjugate_positions(zs), 1.0 / s**2)
        assert res.norm < 1e-13


def test_newton_refine_fixed_point():
    c = np.sqrt(2) / 2
    sol = newton_refine(TWO, (np.array([-c, c], dtype=complex), 0.0))
    assert not isinstance(sol, NewtonFailure)
    assert sol.iterations <= 2
    assert sol.residual_norm < 1e-12


def test_newton_refine_collision_guard():
    start = (np.array([0.0, 1e-11], dtype=complex), 0.0)
    out = newton_refine(TWO, start)
    assert isinstance(out, NewtonFailure)
    assert out.reason == "hit_collision_guard"


def test_wrong_size_positions_are_rejected():
    # Regression: a complex start with 3 + 1 entries was re-split as two
    # vortices and converged; other wrong sizes ended in a numpy broadcast error.
    good = np.array([-0.5, 0.5], dtype=complex)
    for bad in (good[:1], np.array([-1.0, 0.0, 1.0], dtype=complex)):
        calls = (
            lambda: newton_refine(TWO, (bad, 0.0)),
            lambda: newton_refine(TWO, (bad, good, 1.0), regime="complex"),
            lambda: newton_refine(TWO, (good, bad, 1.0), regime="complex"),
            lambda: physical_residual_vector(TWO, bad, 0.0),
            lambda: physical_jacobian(TWO, np.stack([bad] * 3), np.zeros(3)),
            lambda: complex_residual_vector(TWO, bad, good, 1.0),
            lambda: complex_jacobian(TWO, np.stack([good] * 3), np.stack([bad] * 3), np.ones(3)),
        )
        for call in calls:
            with pytest.raises(ValueError, match="positions must match the vorticity count"):
                call()
    with pytest.raises(ValueError, match="positions must match the vorticity count"):
        newton_refine(TWO, ([0, 1, 2], [5], 1.0), regime="complex")
    # Stacks whose row counts differ were broadcast, or ended in a numpy error.
    z = np.stack([good, good * 2, good * 3])
    for call in (
        lambda: complex_residual_vector(TWO, z, z[:1], [1.0, 1.0, 1.0]),
        lambda: complex_residual_vector(TWO, z, z, [1.0]),
        lambda: complex_jacobian(TWO, z[:2], z, np.ones(3)),
        lambda: physical_residual_vector(TWO, z, [0.0]),
        lambda: physical_residual_vector(TWO, z, [0.0, 1.0]),
        lambda: physical_jacobian(TWO, z, [0.0, 1.0]),
        lambda: physical_residual_vector(TWO, good, [0.0, 1.0]),
    ):
        with pytest.raises(ValueError, match="stack row counts differ"):
            call()


def test_newton_refine_rejects_non_finite_starts():
    # Regression: such a start reached the kernels, which warned (an error under
    # this suite's RuntimeWarning filter) or returned NewtonFailure('diverged', 0, nan).
    v = VorticitySet((1.0, 2.0, 3.0))
    z = np.array([0.0, 1.0, 1j])
    nan, inf = float("nan"), float("inf")
    starts = [((np.array([0.0, 1.0, nan]), 0.0), "physical"),
              ((z, inf), "physical"),
              ((np.array([0.0, 1.0, complex(0.0, inf)]), 0.0), "physical"),
              ((np.array([nan, 1.0, 1j]), z.conj(), 1.0), "complex"),
              ((z, np.array([0.0, 1.0, -inf]), 1.0), "complex"),
              ((z, z.conj(), complex(1.0, nan)), "complex"),
              ((z, z.conj(), inf), "complex")]
    for start, regime in starts:
        with pytest.raises(ValueError, match="start entries must be finite"):
            newton_refine(v, start, regime=regime)


def test_newton_refine_perturbed_equilateral():
    z = np.exp(2j * np.pi * np.arange(3) / 3)
    rng = np.random.default_rng(4)
    z = z + 1e-3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    sol = newton_refine(THREE, (z, 0.0))
    assert not isinstance(sol, NewtonFailure)
    assert np.allclose(sol.signature, (3.0, 3.0, 3.0), rtol=1e-9)


def test_classify_reports_inconsistency_without_reclassifying():
    rep = solve_central_multistart(COLLAPSE, starts=200, seed=5)
    collapse = [s for s in rep.solutions if s.kind == "collapse"]
    assert collapse
    kind, flags = classify(collapse[0])
    assert kind == "collapse"
    assert "collapse_invariant_violation" not in flags
    # L != 0 forbids collapse: a synthetic wrong-kind solution gets flagged
    from dataclasses import replace
    from vortexcc.quantities import invariants_of

    bad_inv = invariants_of(THREE, collapse[0].z, collapse[0].w, lam=collapse[0].lam)
    fake = replace(collapse[0], invariants=bad_inv)
    kind2, flags2 = classify(fake)
    assert kind2 == "collapse"
    assert "collapse_invariant_violation" in flags2


def test_solve_rejects_bad_arguments():
    with pytest.raises(ValueError):
        solve_central_multistart(TWO, starts=0)
    with pytest.raises(ValueError):
        solve_central_multistart(TWO, regime="imaginary")
    with pytest.raises(ValueError):
        SolverOptions(tol=-1.0)
    # A cap below the initial damping λ₀ ends every start before its first step.
    for bad in (dict(lm_lambda_max=1e-6), dict(max_iter=-3), dict(max_iter=1.5),
                dict(max_iter=True)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverOptions(**bad)
    # Below COLLISION_GUARD the kernels raise, which would escape newton_refine.
    for guard in (1e-12, 0.0):
        with pytest.raises(ValueError, match="collision_guard"):
            SolverOptions(collision_guard=guard)
    # A NaN gap never yields a separated start; a divergence bound of 0 fails
    # every start, a NaN one fails none.
    nan = float("nan")
    for bad in (dict(start_min_gap=-1e-3), dict(start_min_gap=nan),
                dict(divergence_norm=0.0), dict(divergence_norm=-1.0), dict(divergence_norm=nan)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            solve_central_multistart(VorticitySet((1.0, 2.0, -0.5)), starts=20, seed=0,
                                     options=SolverOptions(**bad))
    # An infinite tol converges every start; an infinite lm_lambda_max never
    # ends a trial loop.  Every option must be finite, and NaN fails that too.
    inf = float("inf")
    for bad in (dict(tol=inf), dict(lm_lambda_max=inf), dict(dedup_tol=inf),
                dict(class_tol=-inf), dict(collision_guard=inf), dict(start_min_gap=inf),
                dict(divergence_norm=inf), dict(max_iter=inf), dict(lm_lambda_max=nan)):
        with pytest.raises(ValueError, match=f"option {next(iter(bad))} must be finite"):
            SolverOptions(**bad)
    # Starts may touch: a zero gap stays legal.
    assert SolverOptions(start_min_gap=0.0).start_min_gap == 0.0
    # Every setting is a real number: tol=True built tol = 1 and reported 96
    # solutions of (1, 2, 3) at 100 starts, against 4; a string raised TypeError.
    for f in dataclasses.fields(SolverOptions):
        for bad in (True, np.False_, "1e-12", 1j, None):
            with pytest.raises(ValueError, match=f"option {f.name} must be a real number"):
                SolverOptions(**{f.name: bad})
    # Every search refuses a non-positive start count, before its L or Γ gate.
    for starts in (0, -5):
        with pytest.raises(ValueError, match="starts must be positive"):
            solve_equilibria(COLLAPSE, starts=starts)
        with pytest.raises(ValueError, match="starts must be positive"):
            solve_equilibria(THREE, starts=starts)
        with pytest.raises(ValueError, match="starts must be positive"):
            solve_rigid_translation(VorticitySet((1.0, 1.0, -2.0)), starts=starts)
        with pytest.raises(ValueError, match="starts must be positive"):
            solve_rigid_translation(THREE, starts=starts)
    # A start count that is not an integer is refused as max_iter is, before numpy sees it.
    for starts in (2.5, 1e3, True):
        with pytest.raises(ValueError, match="starts must be an integer"):
            solve_central_multistart(THREE, starts=starts)
        with pytest.raises(ValueError, match="starts must be an integer"):
            solve_equilibria(COLLAPSE, starts=starts)
        with pytest.raises(ValueError, match="starts must be an integer"):
            solve_rigid_translation(VorticitySet((1.0, 1.0, -2.0)), starts=starts)
    # A numpy integer is a start count, and the report holds it as a Python int.
    for solve, v in ((solve_central_multistart, THREE), (solve_equilibria, COLLAPSE),
                     (solve_rigid_translation, VorticitySet((1.0, -1.0)))):
        assert repr(solve(v, starts=np.int64(5))) == repr(solve(v, starts=5)), solve.__name__


def test_extreme_scale_searches_return_failures_without_warnings():
    # Overflow in the Jacobian products and invalid divisions in the velocity
    # kernel printed numpy RuntimeWarnings once; this suite makes them errors.
    for report in (solve_central_multistart(VorticitySet((1e300, 1e300, 1.0)), starts=50),
                   solve_central_multistart(VorticitySet((1e150, -1e150, 3e150)),
                                            regime="complex", starts=50),
                   solve_equilibria(VorticitySet((1e200, 1e200, -0.5e200)), starts=50),
                   solve_rigid_translation(VorticitySet((1e200, 1e200, -2e200)), starts=50)):
        assert report.starts_attempted == 50 and report.reason is None
        assert report.starts_converged == 0 and report.solutions == ()
    failure = newton_refine(VorticitySet((1e300, 1e300, 1.0)), ([0, 1, 0.5 + 0.8j], 0.0))
    assert isinstance(failure, NewtonFailure) and failure.reason == "diverged"


# Each search with a tuple it runs and one its gate refuses.
_SEARCHES = ((solve_central_multistart, THREE, None), (solve_equilibria, COLLAPSE, THREE),
             (solve_rigid_translation, VorticitySet((1.0, -1.0)), THREE))


def test_seed_is_checked_and_stored_as_python_int():
    for solve, runs, gated in _SEARCHES:
        for v in filter(None, (runs, gated)):
            # A numpy integer seed gives the report of the equal Python int.
            report = solve(v, starts=5, seed=np.int64(3))
            assert type(report.seed) is int
            assert repr(report) == repr(solve(v, starts=5, seed=3)), solve.__name__
            # A bool, a non-integer or a negative seed is refused, before any gate.
            for seed, message in ((True, "an integer"), (1.5, "an integer"),
                                  (np.float64(2.0), "an integer"), (-1, "non-negative")):
                with pytest.raises(ValueError, match=f"seed must be {message}"):
                    solve(v, starts=5, seed=seed)


def test_start_gap_beyond_the_disk_diameter_is_rejected():
    # No two points of the start disk (radius 2) lie 4 apart, so the sampler could
    # only give up after its redraws; the options refuse such a gap instead.
    for gap in (4.0, 5.0):
        with pytest.raises(ValueError,
                           match="start_min_gap must be less than the start disk's diameter 4.0"):
            SolverOptions(start_min_gap=gap)
    assert SolverOptions(start_min_gap=3.9).start_min_gap == 3.9


def test_options_hold_the_eight_settings_and_are_checked_when_built():
    assert [f.name for f in dataclasses.fields(SolverOptions)] == [
        "tol", "max_iter", "collision_guard", "dedup_tol", "class_tol", "start_min_gap",
        "lm_lambda_max", "divergence_norm"]
    # The damping schedule, start disk and collapse bound are fixed, not settings.
    for name in ("lm_lambda0", "lm_increase", "lm_decrease", "start_radius", "collapse_tol"):
        with pytest.raises(TypeError):
            SolverOptions(**{name: 1.0})
    # No public method is left beside the settings.
    assert {name for name in vars(SolverOptions) if not name.startswith("_")} == {
        f.name for f in dataclasses.fields(SolverOptions)}
    # dataclasses.replace builds new options, so it checks them too.
    with pytest.raises(ValueError, match="option tol must be positive"):
        dataclasses.replace(SolverOptions(), tol=0.0)


def test_classify_cannot_take_invalid_options():
    # Regression: classify took options unchecked, and a NaN class_tol turned a
    # Λ = 1 relative equilibrium of (1, 1, 1) into a flagged collapse.
    sol = solve_central_multistart(THREE, starts=20, seed=0).solutions[0]
    assert sol.lam == pytest.approx(1.0)
    assert classify(sol) == ("relative_equilibrium", ())
    with pytest.raises(ValueError, match="option class_tol must be finite"):
        classify(sol, SolverOptions(class_tol=float("nan")))


def test_solves_reach_the_public_kernels_through_solver_attributes(monkeypatch):
    # The benchmark times the kernels by wrapping these attributes of vortexcc.solver,
    # so both regimes must call their residual and Jacobian through them.
    names = ("physical_residual_vector", "physical_jacobian",
             "complex_residual_vector", "complex_jacobian")
    calls = dict.fromkeys(names, 0)

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    solve_central_multistart(THREE, regime="physical", starts=4, seed=0)
    assert calls["physical_residual_vector"] > 0 and calls["physical_jacobian"] > 0
    assert calls["complex_residual_vector"] == calls["complex_jacobian"] == 0
    solve_central_multistart(THREE, regime="complex", starts=4, seed=0)
    assert calls["complex_residual_vector"] > 0 and calls["complex_jacobian"] > 0


def test_complex_regime_contains_embedded_physical():
    rep = solve_central_multistart(TWO, regime="complex", starts=100, seed=3)
    sigs = [np.asarray(s.signature, dtype=float).ravel() for s in rep.solutions]
    embedded = [s for s, sig in zip(rep.solutions, sigs)
                if abs(sig[0] - 2.0) < 1e-8 and abs(sig[1]) < 1e-8]
    assert embedded
    sol = embedded[0]
    assert abs(sol.lam - 1.0) < 1e-8
    assert "nonunit_lambda" not in sol.flags
    gauge = (sol.z[1] - sol.z[0]) - (sol.w[1] - sol.w[0])
    assert abs(gauge) < 1e-10


def test_equilibria_gate_and_search():
    rep = solve_equilibria(THREE, starts=10, seed=0)
    assert rep.reason == "necessary condition L=0 fails"
    assert not rep.solutions

    rep = solve_equilibria(VorticitySet((1.0, -1.0)), starts=5, seed=0)
    assert rep.reason == "necessary condition L=0 fails"  # L = -1

    # L = -1e-14 is far from zero relative to the strengths; the gate must
    # not depend on their scale.
    rep = solve_equilibria(VorticitySet(tuple(1e-7 * g for g in (1, 1, -1))), starts=5)
    assert rep.reason == "necessary condition L=0 fails"
    assert rep.starts_attempted == 0
    for scale in (1e-7, 1.0, 1e7):
        rep = solve_equilibria(VorticitySet(tuple(scale * g for g in (1, 1, -0.5))), starts=5)
        assert rep.reason is None, scale
        assert rep.starts_attempted == 5
    # L = 3Γ² overflows to inf at 1e200 and underflows to 0 at 1e-170; the
    # gate decides on Γ/max|Γ|, so neither passes it (and nothing warns).
    for scale in (1e200, 1e-170):
        rep = solve_equilibria(VorticitySet((scale,) * 3), starts=5)
        assert rep.reason == "necessary condition L=0 fails", scale
        assert rep.starts_attempted == 0

    # L = 0 for (1, 1, -1/2); hand oracle: z = (0, 1, 1/2) is an equilibrium
    rep = solve_equilibria(COLLAPSE, starts=100, seed=0)
    assert rep.reason is None
    assert rep.solutions
    sig = min(tuple(np.round(s.signature, 9)) for s in rep.solutions)
    assert np.allclose(sig, (0.25, 0.25, 1.0))
    for sol in rep.solutions:
        assert sol.kind == "equilibrium"
        assert sol.residual_norm < 1e-12
        assert sol.lam is None


def test_gates_count_an_underflowed_entry_as_zero():
    # 1e-30 / 1e300 underflows to 0.0.  The gates decide on Γ/max|Γ| without
    # building a VorticitySet of it, which would reject the zero entry.
    rep = solve_equilibria(VorticitySet((1e300, 1e-30, -1e300)), starts=5)
    assert rep.reason == "necessary condition L=0 fails"  # L / max|Γ|² = -1
    assert rep.starts_attempted == 0
    rep = solve_rigid_translation(VorticitySet((1e300, 1e-30, 1e300)), starts=5)
    assert rep.reason == "necessary condition Γ=0 fails"  # Γ / max|Γ| = 2
    assert rep.starts_attempted == 0


def test_rigid_translation_gate_and_search():
    rep = solve_rigid_translation(VorticitySet((1.0, 1.0, 1.0, 1.0, 1.0)), starts=5, seed=0)
    assert rep.reason == "necessary condition Γ=0 fails"

    rep = solve_rigid_translation(VorticitySet((2.0, 2.0, 2.0, 2.0, -1.0)), starts=5, seed=0)
    assert rep.reason == "necessary condition Γ=0 fails"
    rep = solve_rigid_translation(VorticitySet(tuple(1e-14 * g for g in (1, 2, -2))), starts=5)
    assert rep.reason == "necessary condition Γ=0 fails"  # Γ = 1e-14, nonzero at any scale
    assert rep.starts_attempted == 0
    # Γ = 3e308 overflows to inf; the gate decides on Γ/max|Γ|.
    rep = solve_rigid_translation(VorticitySet((1e308,) * 3), starts=5)
    assert rep.reason == "necessary condition Γ=0 fails"
    assert rep.starts_attempted == 0

    # hand oracle: the pair (1, -1) at (0, d) translates with V = 1/conj(d)
    rep = solve_rigid_translation(VorticitySet((1.0, -1.0)), starts=20, seed=0)
    assert rep.reason is None
    assert len(rep.solutions) == 1
    sol = rep.solutions[0]
    assert sol.kind == "rigid_translation"
    assert sol.signature[0] == pytest.approx(1.0, abs=1e-10)
    assert sol.translation_velocity == pytest.approx(1.0, abs=1e-10)
    assert sol.residual_norm < 1e-12


# ---------------------------------------------------------------------------
# The stacked engine and the deduplication scan
# ---------------------------------------------------------------------------

SEARCHES = {
    "physical": (solver._physical_search, (1.0, 2.0, 3.0, -1.5)),
    "complex": (solver._complex_search, (1.0, 2.0, 3.0, -1.5)),
    "equilibria": (solver._equilibria_search, (1.0, 1.0, 1.0, -1.0)),
    "translation": (solver._translation_search, (1.0, -1.0, 2.0, -2.0)),
}
# Option sets that between them end starts in every way the engine can.
ENGINE_OPTIONS = (
    SolverOptions(),
    SolverOptions(max_iter=4),
    SolverOptions(divergence_norm=2.5),
    SolverOptions(lm_lambda_max=1e-2),
    SolverOptions(collision_guard=0.5, lm_lambda_max=1e-2),
)


def _seeded_starts(name, opts, count=16, seed=3):
    make, gammas = SEARCHES[name]
    search = make(VorticitySet(gammas), opts)
    rng = np.random.default_rng(seed)
    return search, search.sample(rng, count)


def _outcome(code, norm):
    reason = solver._REASONS[code]
    if reason == "hit_collision_guard":
        return "guard at start" if norm == np.inf else "guard during run"
    return reason


def _outcomes(refined):
    """Per start, how the engine ended it, telling the two kinds of guard failure apart."""
    reason, _, norm, _ = refined
    return [_outcome(r, n) for r, n in zip(reason.tolist(), norm.tolist())]


def _rows(refined):
    """Per start, the bytes of its reason, iteration count, last norm and last unknowns."""
    return [tuple(a[i].tobytes() for a in refined) for i in range(len(refined[0]))]


def _refine_with_lanes(monkeypatch, lanes, search, starts, opts):
    monkeypatch.setattr(solver, "_LANES", lanes)
    refined = solver._refine(search, starts, opts)
    assert all(len(a) == len(starts) for a in refined)
    assert refined[3].dtype == starts.dtype
    return _rows(refined)


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_engine_results_do_not_depend_on_lane_count(monkeypatch, name):
    outcomes = set()
    for opts in ENGINE_OPTIONS:
        search, starts = _seeded_starts(name, opts)
        runs = [_refine_with_lanes(monkeypatch, lanes, search, starts, opts)
                for lanes in (1, 3, solver._LANES)]
        assert runs[0] == runs[1] == runs[2]
        outcomes.update(_outcomes(solver._refine(search, starts, opts)))
    assert outcomes == {"converged", "diverged", "max_iterations",
                        "guard at start", "guard during run"}


@pytest.mark.parametrize("name", ["physical", "complex"])
def test_engine_refills_a_full_pool_without_changing_results(monkeypatch, name):
    # More starts than the default pool, so every pool size here refills lanes.
    search, starts = _seeded_starts(name, SolverOptions(), count=solver._LANES + 100)
    runs = [_refine_with_lanes(monkeypatch, lanes, search, starts, SolverOptions())
            for lanes in (7, 128, solver._LANES)]
    assert runs[0] == runs[1] == runs[2]


def test_engine_runs_every_start_after_one_converges_at_once(monkeypatch):
    # With one lane, a start that converges at its first top leaves no lane
    # busy while starts are pending; the engine must refill, not stop.
    opts = SolverOptions()
    search, starts = _seeded_starts("physical", opts, count=24)
    reason, _, _, x = solver._refine(search, starts, opts)
    starts = np.concatenate([x[reason == solver._CONVERGED][:1], starts])
    runs = [_refine_with_lanes(monkeypatch, lanes, search, starts, opts)
            for lanes in (1, solver._LANES)]
    assert runs[0] == runs[1]
    reason, iterations, _, _ = solver._refine(search, starts, opts)
    assert reason[0] == solver._CONVERGED and iterations[0] == 0
    assert (iterations[1:] > 0).all()


def test_engine_falls_back_to_per_lane_solves(monkeypatch):
    search, starts = _seeded_starts("physical", SolverOptions(), count=24)
    clean = _rows(solver._refine(search, starts, SolverOptions()))
    real_solve = np.linalg.solve
    raised = []

    def fail_one_stacked_call(a, b):
        if a.ndim == 3 and len(a) > 1 and not raised:
            raised.append(len(a))
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", fail_one_stacked_call)
    again = _rows(solver._refine(search, starts, SolverOptions()))
    assert raised
    # Every lane of the failed call was solved alone, to the same bits.
    assert again == clean


def test_engine_damps_only_singular_lanes(monkeypatch):
    # Four iterations end most starts unconverged, so their last norm shows
    # any change of path.
    opts = SolverOptions(max_iter=4)
    search, starts = _seeded_starts("physical", opts, count=24)
    clean = solver._refine(search, starts, opts)
    # Allowed one trial only, a start whose first step is accepted ends at
    # max_iterations, the others diverge.  No start of this set fails the
    # guard at once, so the first stacked solve holds start k in lane k.
    one_trial = SolverOptions(max_iter=1, lm_lambda_max=solver._LM_LAMBDA0)
    k = _outcomes(solver._refine(search, starts, one_trial)).index("max_iterations")
    real_solve = np.linalg.solve
    singular = []       # the one matrix treated as singular, by its bytes

    def singular_solve(a, b):
        stack = a if a.ndim == 3 else a[None]
        if not singular:
            singular.append(stack[k].tobytes())
        if any(m.tobytes() in singular for m in stack):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_solve)
    runs = [_refine_with_lanes(monkeypatch, lanes, search, starts, opts)
            for lanes in (solver._LANES, 3, 1)]
    assert runs[0] == runs[1] == runs[2]
    # Only start k, whose first step was refused, took another path.
    assert "guard at start" not in _outcomes(clean)
    changed = [i for i, (a, b) in enumerate(zip(runs[0], _rows(clean))) if a != b]
    assert changed == [k]


def _realified(J, F):
    """The real system of holomorphic J, F: rows and unknowns as (Re, Im) pairs."""
    JR = np.empty((len(J), 2 * J.shape[1], 2 * J.shape[2]))
    JR[:, 0::2, 0::2], JR[:, 0::2, 1::2] = J.real, -J.imag
    JR[:, 1::2, 0::2], JR[:, 1::2, 1::2] = J.imag, J.real
    FR = np.empty((len(F), 2 * F.shape[1]))
    FR[:, 0::2], FR[:, 1::2] = F.real, F.imag
    return JR, FR


@pytest.mark.parametrize("seed", [3, 11])
def test_native_complex_step_matches_realified_step(seed):
    # JᴴJ + λI is the complexification of the realified JᵀJ + λI, so the
    # complex search's step is the realified one up to rounding.
    search, x = _seeded_starts("complex", SolverOptions(), count=24, seed=seed)
    (F, hit), J = search.residual(x), search.jacobian(x)
    assert not hit.any()
    # Lane 0: a zero column and no damping make both normal matrices singular.
    J[0, :, 0] = 0.0
    damp = np.geomspace(1e-3, 10.0, len(x))
    damp[0] = 0.0
    JH = np.conj(J.transpose(0, 2, 1))
    step, solved = solver._damped_steps(JH @ J, (JH @ F[:, :, None])[:, :, 0], damp)
    JR, FR = _realified(J, F)
    JRT = JR.transpose(0, 2, 1)
    a = JRT @ JR + damp[:, None, None] * np.eye(JR.shape[2])
    b = -(JRT @ FR[:, :, None])[:, :, 0]
    real_step, real_solved = solver._damped_steps(JRT @ JR, -b, damp)
    assert not solved[0] and not real_solved[0]
    assert solved[1:].all() and real_solved[1:].all()
    a, b, real_step = a[1:], b[1:], real_step[1:]
    native = np.empty_like(real_step)
    native[:, 0::2], native[:, 1::2] = step[1:].real, step[1:].imag
    # The native step solves the realified system to within rounding...
    backward = np.abs((a @ native[:, :, None])[:, :, 0] - b).max(axis=1) / (
        np.abs(a).sum(axis=2).max(axis=1) * np.abs(native).max(axis=1) + np.abs(b).max(axis=1))
    assert (backward <= 1e-12).all()
    # ...so the two steps differ by at most rounding amplified by the condition number.
    forward = np.abs(native - real_step).max(axis=1) / np.abs(real_step).max(axis=1)
    assert (forward <= 1e-14 * np.linalg.cond(a)).all()


def _converged(search, starts, opts):
    """The engine's converged rows, canonicalized, and their iteration counts."""
    reason, iters, _, x = solver._refine(search, starts, opts)
    done = np.flatnonzero(reason == solver._CONVERGED)
    return search.canonical(x[done]), iters[done]


def _deduplicate_loop(found, opts):
    """The pairwise scan the vectorized one replaced, kept as its reference."""
    def signatures_match(a, b, tol):
        fa = np.asarray(a, dtype=float).ravel()
        fb = np.asarray(b, dtype=float).ravel()
        if fa.size != fb.size:
            return False
        scale = max(1.0, float(np.abs(fa).max()))
        return bool(np.abs(fa - fb).max() <= tol * scale)

    ordered = sorted(
        found,
        key=lambda s: (np.asarray(s.signature, dtype=float).ravel().tolist(),
                       0.0 if s.lam is None else abs(s.lam.imag),
                       s.residual_norm),
    )
    kept = []
    for cand in ordered:
        merged = False
        for i, existing in enumerate(kept):
            if signatures_match(cand.signature, existing.signature, opts.dedup_tol) and \
               solver._lambda_match(cand.lam, existing.lam, opts.dedup_tol):
                if cand.residual_norm < existing.residual_norm:
                    kept[i] = cand
                merged = True
                break
        if not merged:
            kept.append(cand)
    return kept


@pytest.mark.parametrize("gammas", [(1.0, 1.0, -0.5), (1.0, -2.0, 3.0, 0.5, 1.5)])
@pytest.mark.parametrize("regime", ["physical", "complex"])
def test_deduplicate_matches_loop_reference(gammas, regime):
    opts = SolverOptions()
    search = solver._central_search(VorticitySet(gammas), regime, opts)
    rng = np.random.default_rng(8)
    canonical, iters = _converged(search, search.sample(rng, 300), opts)
    found = search.finalize(canonical, iters)
    # The coarse tolerance makes one candidate match several kept solutions
    # and lets a replacement change what later candidates match.
    for tol in (opts.dedup_tol, 0.5):
        coarse = SolverOptions(dedup_tol=tol)
        kept = [found[i] for i in solver._deduplicate(canonical, coarse)]
        reference = _deduplicate_loop(found, coarse)
        assert [id(s) for s in kept] == [id(s) for s in reference]
        assert len(kept) > 1


def _synthetic(signature, lam, norm):
    """Canonical rows carrying only what dedup reads, and their records for the reference loop."""
    signature, norm = np.asarray(signature, dtype=float), np.asarray(norm, dtype=float)
    lam = None if lam is None else np.asarray(lam, dtype=complex)
    z = np.zeros((len(norm), 2), dtype=complex)
    canonical = solver._Canonical(z, z, lam, None, norm, signature)
    lams = [None] * len(norm) if lam is None else lam.tolist()
    records = [types.SimpleNamespace(signature=tuple(signature[i].ravel()), lam=lams[i],
                                     residual_norm=float(norm[i])) for i in range(len(norm))]
    return canonical, records


def _assert_scan_matches_loop(signature, lam, norm, tol):
    canonical, records = _synthetic(signature, lam, norm)
    opts = SolverOptions(dedup_tol=tol)
    kept = solver._deduplicate(canonical, opts)
    assert [id(records[i]) for i in kept] == [id(r) for r in _deduplicate_loop(records, opts)]
    return kept.tolist()


# Below 1/2 the spacing of floats is 2^-54, above it 2^-53: 1 - (1/2 - 2^-54)
# rounds to 1/2, so the row at 1/2 - 2^-54 is within the bound 1/2 of the row
# at 1 while 1 - 1/2 lies above it.  A window without the margin misses it.
BELOW_HALF = 0.5 - 2.0 ** -54

SCAN_CASES = {
    # First entries tie; the second entries decide, at exactly the bound.
    "ties in the first entry": ([[0.0, 0.0], [0.0, 0.5], [0.0, 1.0], [0.0, 1.5]],
                                [1, 1, 1, 1], [0.5, 1.0, 2.0, 3.0], 0.5),
    "at the bound through rounding": ([[1.0, 1.0], [BELOW_HALF, 1.0]], [1, 1], [1.0, 2.0], 0.5),
    "just past the bound": ([[1.0, 1.0], [0.5 - 2.0 ** -52, 1.0]], [1, 1], [1.0, 2.0], 0.5),
    # Row 1 is close to row 0 but its Λ differs, so it is kept; row 2 is close
    # to both and matches the second one's Λ only.
    "Λ mismatch passes a close row": ([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]],
                                      [1, -1, -1], [1.0, 1.0, 0.5], 0.5),
    # Row 2 replaces kept row 0 (smaller residual), moving that solution past
    # kept row 1; row 3 lies within the bound of both and must merge with the
    # first in kept order, now at row 2, not with the earlier row 1.
    "replacement moves a kept row": ([[0.0, 0.0], [0.1, 0.6], [0.2, 0.0], [0.3, 0.3]],
                                     [1, 1, 1, 1], [1.0, 1.0, 0.5, 0.1], 0.5),
    # Kept row 0 moves to row 1 (0.4), which row 2 (0.8) is close to but row 0 is not.
    "replacement changes later matches": ([[0.0], [0.4], [0.8]], [1j, 1j, 1j], [1.0, 0.5, 0.9], 0.5),
    "fine tolerance": ([[1.0, 2.0], [1.0 + 1e-6, 2.0], [1.0 + 3e-6, 2.0], [1.0 + 2.5e-6, 2.0],
                        [1.0 + 5e-6, 2.0]], [1, 1, 1, 1, 1], [1.0, 0.5, 0.2, 0.1, 1.0], 1e-6),
}
SCAN_KEPT = {
    "ties in the first entry": [0, 2],
    "at the bound through rounding": [0],
    "just past the bound": [1, 0],
    "Λ mismatch passes a close row": [0, 2],
    "replacement moves a kept row": [3, 1],
    "replacement changes later matches": [1],
    "fine tolerance": [3, 4],
}


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_windowed_scan_matches_loop_on_edge_cases(case):
    signature, lam, norm, tol = SCAN_CASES[case]
    # Discovery order must not matter: reversed rows keep the same solutions.
    assert _assert_scan_matches_loop(signature, lam, norm, tol) == SCAN_KEPT[case]
    kept = _assert_scan_matches_loop(signature[::-1], lam[::-1], norm[::-1], tol)
    assert [len(signature) - 1 - i for i in kept] == SCAN_KEPT[case]


@pytest.mark.parametrize("tol", [1e-6, 0.5])
@pytest.mark.parametrize("shape", [(4,), (3, 2)])
@pytest.mark.parametrize("with_lambda", [True, False])
def test_windowed_scan_matches_loop_on_random_grids(tol, shape, with_lambda):
    # Entries on a small grid, so first entries tie and one candidate lies
    # within the bound of several kept rows.  At tol 0.5 the grid step is 1/4
    # and the bound 1/2, so rows also lie exactly at the bound; at 1e-6 the
    # entries sit a few bounds from 1 or 2.
    rng = np.random.default_rng(17)
    step = tol / 2 if tol < 1e-3 else 0.25
    for _ in range(40):
        count = int(rng.integers(1, 60))
        base = rng.integers(-3, 4, size=(count,) + shape) * step
        offset = 1.0 if tol < 1e-3 else 0.0
        signature = base + offset * rng.integers(1, 3, size=(count, 1) + shape[1:])
        lam = rng.choice([1.0, -1.0, 1j, 0.5 + 0.5j], size=count) if with_lambda else None
        norm = rng.integers(0, 4, size=count) * 1e-13
        _assert_scan_matches_loop(signature, lam, norm, tol)


# ---------------------------------------------------------------------------
# Block start draws and the stacked finalize, against per-start references
# ---------------------------------------------------------------------------

def _sample_disk_loop(rng, n, opts):
    for _ in range(10_000):
        r = solver._START_RADIUS * np.sqrt(rng.uniform(size=n))
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        pos = r * np.exp(1j * phi)
        if solver._min_gap(pos[None])[0] >= opts.start_min_gap:
            return pos
    raise RuntimeError("could not sample a well-separated start")


def _serial_start(name, rng, n, opts):
    """One start, drawn as the per-start samplers the block draw replaced drew it."""
    if name == "physical":
        return solver._pack_physical((_sample_disk_loop(rng, n, opts), rng.uniform(0.0, 2.0 * np.pi)))
    if name == "complex":
        z = _sample_disk_loop(rng, n, opts)
        w = _sample_disk_loop(rng, n, opts)
        # Native complex layout (z_1..z_N, w_1..w_N, Λ).
        return np.concatenate([z, w, [np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))]])
    pos = _sample_disk_loop(rng, n, opts)
    if name == "equilibria":
        return solver._realify_vector(pos[2:])
    return np.concatenate([[abs(pos[1]) + opts.start_min_gap], solver._realify_vector(pos[2:]),
                           [rng.uniform(0.0, 2.0 * np.pi)]])


@pytest.mark.parametrize("name", sorted(SEARCHES))
@pytest.mark.parametrize("n", [4, 5])
def test_block_draw_matches_serial_draw(name, n):
    make, _ = SEARCHES[name]
    v = VorticitySet(tuple(float(k + 1) * (-1) ** k for k in range(n)))
    count = 64
    rejected = {}
    for gap in (SolverOptions().start_min_gap, 0.5):
        opts = SolverOptions(start_min_gap=gap)
        block_rng, serial_rng = np.random.default_rng(5), np.random.default_rng(5)
        block = make(v, opts).sample(block_rng, count)
        serial = np.array([_serial_start(name, serial_rng, n, opts) for _ in range(count)])
        assert block.shape == serial.shape
        assert block.tobytes() == serial.tobytes()
        assert block_rng.bit_generator.state == serial_rng.bit_generator.state
        # Without a redrawn disk the loop takes one fixed-width row of uniforms per start:
        # 2N per disk (two for the complex search) and one per angle (none for equilibria).
        disks, angles = {"physical": (1, 1), "complex": (2, 1),
                         "equilibria": (1, 0), "translation": (1, 1)}[name]
        unshifted = np.random.default_rng(5)
        unshifted.random(count * (disks * 2 * n + angles))
        rejected[gap] = serial_rng.bit_generator.state != unshifted.bit_generator.state
    # The default gap draws no disk twice here; at 0.5 the redraw path runs.
    assert rejected == {SolverOptions().start_min_gap: False, 0.5: True}


def _prefers_conjugate_row(pos, lam, opts):
    """(choice, branch taken) of the per-start conjugate choice."""
    if lam.imag < -opts.class_tol:
        return True, "lam below"
    if lam.imag > opts.class_tol:
        return False, "lam above"
    for p in pos:
        if abs(p.imag) > 1e-9:
            return p.imag < 0, "position below" if p.imag < 0 else "position above"
    return False, "all real"


def _physical_signature_row(pos):
    n = len(pos)
    return tuple(sorted(abs(pos[k] - pos[j]) ** 2 for j in range(n) for k in range(j + 1, n)))


def _complex_signature_row(z, w):
    n = len(z)
    r2 = [(z[k] - z[j]) * (w[k] - w[j]) for j in range(n) for k in range(j + 1, n)]
    return tuple(sorted((x.real, x.imag) for x in r2))


def _canonical_complex_pair_row(z, w):
    z12 = z[1] - z[0]
    if (z12.real, z12.imag) < (0.0, 0.0):
        return -z, -w
    return z, w


def _central_solution_row(v, regime, z, w, lam, residual, signature, iters, opts):
    z, w, lam = tuple(z), tuple(w), complex(lam)
    inv = invariants_of(v, z, w, lam=lam)
    kind, flags = solver._classify(lam, inv, opts)
    flags += solver._solution_assertions(inv)
    if abs(abs(lam) - 1.0) > 1e-6:
        flags += ("nonunit_lambda",)
    return CentralConfigSolution(regime=regime, z=z, w=w, lam=lam,
                                 residual_norm=float(np.abs(residual).max()), invariants=inv,
                                 kind=kind, signature=signature, flags=flags, iterations=iters)


def _velocity_solution_row(v, pos, velocity, iters):
    V = solver._velocity_np(np.asarray(v.gammas), np.conj(pos)[None])[0][0]
    if velocity is not None:
        V = V - velocity
    w = conjugate_positions(tuple(pos))
    return CentralConfigSolution(
        regime="physical", z=tuple(pos), w=w, lam=None, residual_norm=float(np.abs(V).max()),
        invariants=invariants_of(v, tuple(pos), w),
        kind="equilibrium" if velocity is None else "rigid_translation",
        signature=_physical_signature_row(pos), iterations=iters, translation_velocity=velocity)


def _finalize_row(name, v, x, iters, opts, branches):
    """One converged row, finalized as the per-start finalizers the stacked one replaced did."""
    g = np.asarray(v.gammas)
    if name == "physical":
        pos, theta = solver._unpack_physical(x)
        lam = np.exp(1j * float(theta))
        z12 = pos[1] - pos[0]
        pos = pos * (abs(z12) / z12)
        flip, branch = _prefers_conjugate_row(pos, lam, opts)
        branches.add(branch)
        if flip:
            pos, lam = np.conj(pos), np.conj(lam)
        E = lam * pos - solver._velocity_np(g, np.conj(pos)[None])[0][0]
        return _central_solution_row(v, "physical", pos, np.conj(pos), lam, E,
                                     _physical_signature_row(pos), iters, opts)
    if name == "complex":
        n = (len(x) - 1) // 2
        z, w, lam = x[:n], x[n : 2 * n], x[-1]
        z, w = _canonical_complex_pair_row(z, w)
        lam = complex(lam)
        twin = _canonical_complex_pair_row(np.conj(w), np.conj(z)) + (1.0 / np.conjugate(lam),)

        def key(z, w, lam):
            return _complex_signature_row(z, w), (lam.real, lam.imag)

        swap = key(*twin) < key(z, w, lam)
        branches.add("twin" if swap else "kept")
        if swap:
            z, w, lam = twin
        F = solver._complex_residual(g, z[None], w[None], np.array([lam]))[0][0]
        return _central_solution_row(v, "complex", z, w, lam, F, _complex_signature_row(z, w),
                                     iters, opts)
    if name == "equilibria":
        return _velocity_solution_row(v, solver._pinned(x[None], 1.0)[0], None, iters)
    pos, phi = solver._pinned(x[None, 1:-1], x[0])[0], float(x[-1])
    if pos[1].real < 0:
        branches.add("half turn")
        pos = -pos
        phi += np.pi
    return _velocity_solution_row(v, pos, complex(np.exp(1j * phi)), iters)


FINALIZE_CASES = {
    "physical": [(1.0, 1.0), (1.0, 1.0, -0.5), (1.0, 2.0, 3.0, -1.5), (1.0, -2.0, 3.0, 0.5, 1.5)],
    "complex": [(1.0, 1.0), (1.0, 1.0, -0.5), (1.0, 2.0, 3.0, -1.5), (2.0, 2.0, 2.0, 2.0, -1.0)],
    "equilibria": [(1.0, 1.0, -0.5), (1.0, 1.0, 1.0, -1.0)],
    "translation": [(1.0, -1.0), (1.0, 1.0, -2.0), (1.0, -1.0, 2.0, -2.0)],
}
FINALIZE_BRANCHES = {
    "physical": {"lam below", "lam above", "position below", "position above", "all real"},
    "complex": {"twin", "kept"},
    "equilibria": set(),
    "translation": {"half turn"},
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_stacked_finalize_matches_row_reference(name):
    make, _ = SEARCHES[name]
    opts = SolverOptions()
    branches = set()
    for gammas in FINALIZE_CASES[name]:
        v = VorticitySet(gammas)
        search = make(v, opts)
        converged = []

        def canonical(x):
            converged.append(x)
            return search.canonical(x)

        solver._multistart(dataclasses.replace(search, canonical=canonical), 60, 4, opts)
        # One stacked call per search, on every converged row in start order.
        reason, iters, _, x = solver._refine(
            search, search.sample(np.random.default_rng(4), 60), opts)
        done = np.flatnonzero(reason == solver._CONVERGED)
        x, iters = x[done], iters[done]
        assert len(converged) == 1
        assert converged[0].tobytes() == x.tobytes() and len(x) > 0
        reference = [_finalize_row(name, v, row, int(it), opts, branches)
                     for row, it in zip(x, iters)]
        assert repr(search.finalize(search.canonical(x), iters)) == repr(reference)
    assert branches == FINALIZE_BRANCHES[name]


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_multistart_finalizes_only_the_kept_rows(name):
    make, _ = SEARCHES[name]
    opts = SolverOptions()
    discarded = 0
    for gammas in FINALIZE_CASES[name]:
        search = make(VorticitySet(gammas), opts)
        calls = []

        def finalize(c, iters):
            calls.append(len(iters))
            assert len(c.norm) == len(c.z) == len(iters)
            return search.finalize(c, iters)

        report = solver._multistart(dataclasses.replace(search, finalize=finalize), 120, 4, opts)
        # Once per search, on exactly the reported solutions.
        assert calls == [len(report.solutions)]
        found = search.finalize(
            *_converged(search, search.sample(np.random.default_rng(4), 120), opts))
        assert report.starts_converged == len(found)
        # The reported records are the ones deduplicating every record would keep.
        assert repr(report.solutions) == repr(tuple(_deduplicate_loop(found, opts)))
        discarded += len(found) - len(report.solutions)
    assert discarded > 0
