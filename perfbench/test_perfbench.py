"""Tests for the benchmark's own code: seeded inputs, output checks and tracing.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import vortexcc  # noqa: E402
from vortexcc import VorticitySet, solve_central_multistart, solve_equilibria, verdict  # noqa: E402

from perfbench import checks, inputs  # noqa: E402
from perfbench.bench import layer_metrics, weighted_quantile  # noqa: E402
from perfbench.tracing import TARGETS, Tracer, _resolve  # noqa: E402


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    for index in (0, 3):
        assert inputs.round_calls(workload, 7, index) == inputs.round_calls(workload, 7, index)
    assert inputs.round_calls(workload, 7, 0) != inputs.round_calls(workload, 8, 0)
    stream = inputs.calls(workload, 7)
    first_two = inputs.round_calls(workload, 7, 0) + inputs.round_calls(workload, 7, 1)
    assert tuple(next(stream) for _ in first_two) == first_two


def test_planted_tuples_violate_the_subset_condition():
    planted = [c for c in inputs.round_calls("certify", 3, 0) if c.planted]
    assert len(planted) == 3 * inputs.CERTIFY_ROUND // 8
    assert not any(checks.subset_condition_holds(c.drawn) for c in planted)


def test_continuum_tuples_have_zero_momentum():
    for call in inputs.round_calls("solve-continuum", 4, 0):
        g = call.gammas
        momentum = sum(g[a] * g[b] for a in range(len(g)) for b in range(a + 1, len(g)))
        assert momentum == 0 or g == inputs.ROBERTS


# -- checks ------------------------------------------------------------------


def _replace_solution(report, index, **changes):
    solutions = list(report.solutions)
    solutions[index] = dataclasses.replace(solutions[index], **changes)
    return dataclasses.replace(report, solutions=tuple(solutions))


def test_calibration_passes_and_perturbed_solution_is_rejected():
    call = inputs.CALIBRATION
    report = solve_central_multistart(VorticitySet(call.gammas), call.regime, call.starts, call.seed)
    assert checks.calibration_problems(call, report) == []
    z = list(report.solutions[0].z)
    z[0] += 1e-6
    assert checks.solve_problems(call, _replace_solution(report, 0, z=tuple(z)))
    assert checks.solve_problems(call, _replace_solution(report, 0, lam=report.solutions[0].lam * 1.01))
    one_shape = dataclasses.replace(report, solutions=report.solutions[:1])
    assert checks.calibration_problems(call, one_shape)


def test_complex_and_equilibrium_checks_reject_perturbed_solutions():
    call = inputs.SolveCall("solve_central_multistart", (1.0, 2.0, -0.5), "complex", 20, 1, 0)
    report = solve_central_multistart(VorticitySet(call.gammas), call.regime, call.starts, call.seed)
    assert report.solutions and checks.solve_problems(call, report) == []
    w = list(report.solutions[0].w)
    w[1] += 1e-6
    assert checks.solve_problems(call, _replace_solution(report, 0, w=tuple(w)))

    g = (Fraction(1), Fraction(1), Fraction(-1, 2))
    call = inputs.SolveCall("solve_equilibria", g, "physical", 40, 2, 1)
    report = solve_equilibria(VorticitySet(g), starts=call.starts, seed=call.seed)
    assert report.solutions and checks.solve_problems(call, report) == []
    z = list(report.solutions[0].z)
    z[2] += 1e-6
    assert checks.solve_problems(call, _replace_solution(report, 0, z=tuple(z)))


def test_verdict_check_rejects_flipped_verdict_and_missing_family():
    for call in inputs.round_calls("certify", 0, 0)[:16]:
        if call.is_float or not -2 <= call.scale_exp <= 2:
            continue
        report = verdict(VorticitySet(call.gammas))
        assert checks.verdict_problems(call, report) == []
        flipped = "certified_finite" if report.verdict == "exceptional_suspect" else "exceptional_suspect"
        assert checks.verdict_problems(call, dataclasses.replace(report, verdict=flipped))
        if call.planted:
            assert checks.verdict_problems(call, dataclasses.replace(report, matches=()))


def test_only_the_two_documented_defects_are_known():
    huge = inputs.VerdictCall((Fraction(10) ** 400, 2, 3, 5, 7), (1, 2, 3, 5, 7), 0, None, 0)
    assert checks.known_defect(huge, OverflowError("too large")) == "exact-entry-beyond-float-range"
    assert checks.known_defect(huge, ValueError("other")) is None
    small = inputs.VerdictCall(tuple(g * 1e-5 for g in (1.0, 2.0, 3.0, 5.0, 7.0)),
                               (1, 2, 3, 5, 7), -5, None, 0)
    assert checks.known_defect(small, None) == "float-tolerance-not-scale-invariant"
    unit = dataclasses.replace(small, gammas=(1.0, 2.0, 3.0, 5.0, 7.0), scale_exp=0)
    assert checks.known_defect(unit, None) is None
    assert checks.known_defect(inputs.CALIBRATION, None) is None


def test_known_defect_probes_show_the_documented_defects():
    for call in inputs.KNOWN_DEFECT_PROBES:
        try:
            report, error = verdict(VorticitySet(call.gammas)), None
        except Exception as exc:
            report, error = None, exc
        assert error is not None or checks.verdict_problems(call, report)
        assert checks.known_defect(call, error) is not None


def test_certify_stream_avoids_the_known_defect_ranges():
    for seed in (0, 1, 2):
        for call in inputs.round_calls("certify", seed, 0):
            top = max(abs(x) for x in call.gammas)
            if call.is_float:
                assert 1e-3 <= top <= 1e3
            else:
                assert top <= sys.float_info.max


# -- tracing -----------------------------------------------------------------


def test_wrappers_restore_the_original_names():
    originals = {(o, a): inspect.getattr_static(_resolve(o), a, None) for o, a, _ in TARGETS}
    tracer = Tracer()
    with tracer.installed() as missing:
        for owner, attr, span in TARGETS:
            if span not in missing:
                assert inspect.getattr_static(_resolve(owner), attr) is not originals[(owner, attr)]
        solve_central_multistart(VorticitySet((1, 1, 1)), starts=5, seed=0)
        verdict(VorticitySet((1, 2, 3, 5, -7)))
    for (owner, attr), original in originals.items():
        assert inspect.getattr_static(_resolve(owner), attr, None) is original
    assert tracer.totals()["solver.lm_solve"][0] > 0


def test_missing_target_is_reported_and_does_not_abort():
    targets = TARGETS + (("vortexcc.solver", "no_such_kernel", "system.gone"),
                         ("no_such_module", "f", "gone.too"))
    with Tracer().installed(targets) as missing:
        assert missing == {"system.gone", "gone.too"}
    assert not hasattr(vortexcc.solver, "no_such_kernel")

    outcome = {"starts": 10, "converged": 5, "distinct": 2, "matches": 0}
    m = layer_metrics({}, {"system.physical_jacobian"}, 1, outcome, {"exact": 0.0, "float": 0.0})
    assert m["system.physical_jacobian_calls"] is None
    assert m["solver.self_s"] is None
    assert m["solver.iterations_per_start"] is None
    assert m["system.physical_residual_calls"] == 0
    assert m["exceptional.self_s"] == 0


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(2000)), "inner")
    with tracer.root("outer"):
        inner()
        inner()
    totals = tracer.totals()
    count, outer_total, outer_self = totals["outer"]
    assert totals["inner"][0] == 2
    assert outer_self == pytest.approx(outer_total - totals["inner"][1], abs=1e-12)
    assert tracer.parent[1] == 0 and tracer.parent[2] == 0


def test_weighted_quantile_gives_each_slot_equal_weight():
    assert weighted_quantile([1.0, 2.0, 3.0], [1, 1, 1], 0.5) == 2.0
    # Three calls in slot A (weight 1/3 each) and one in slot B (weight 1):
    # unweighted the median is 1; with equal slot weights it moves toward 9.
    values = [1.0, 1.0, 1.0, 9.0]
    assert weighted_quantile(values, [1 / 3] * 3 + [1.0], 0.5) == pytest.approx(3.0)
    assert np.isclose(weighted_quantile([4.0], [1.0], 0.99), 4.0)
