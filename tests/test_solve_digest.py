"""The solution-set comparison of scripts/solve_digest.py."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "solve_digest.py"
_spec = importlib.util.spec_from_file_location("solve_digest", SCRIPT)
solve_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solve_digest)


def _write(path, cases):
    path.write_text(json.dumps(cases))
    return str(path)


def _case(converged, *solutions):
    return {"starts_attempted": 100, "starts_converged": converged,
            "solutions": [{"signature": sig, "lam": lam, "kind": kind}
                          for sig, lam, kind in solutions]}


def test_compare_matches_lambda_up_to_conjugation_and_twin(tmp_path, capsys):
    lam = complex(0.3, 0.8)
    twin = 1.0 / lam.conjugate()
    a = {"collapse": _case(10, ([1.0, 2.0], [lam.real, lam.imag], "collapse"),
                           ([3.0, 4.0], [0.5, 0.1], "collapse")),
         "equilibria": _case(5, ([2.0], None, "equilibrium"))}
    b = {"collapse": _case(11, ([3.0, 4.0 + 1e-9], [0.5, -0.1], "collapse"),
                           ([1.0, 2.0], [twin.real, twin.imag], "collapse")),
         "equilibria": _case(5, ([2.0], None, "equilibrium"))}
    assert solve_digest.main(["--compare", _write(tmp_path / "a.json", a),
                              _write(tmp_path / "b.json", b)]) == 0
    out = capsys.readouterr().out
    assert "ok  collapse: solutions 2 -> 2, unmatched 0, converged 10 -> 11 (+1)" in out
    assert "2 of 2 cases match; converged starts moved by 1 of 200 attempted" in out


def test_compare_reports_every_kind_of_mismatch(tmp_path, capsys):
    base = _case(10, ([1.0, 2.0], [1.0, 0.0], "relative_equilibrium"))
    a = {"count": base, "signature": base, "lambda": base, "kind": base, "missing": base}
    b = {"count": _case(10),
         "signature": _case(10, ([1.0, 2.001], [1.0, 0.0], "relative_equilibrium")),
         "lambda": _case(10, ([1.0, 2.0], [0.0, 1.0], "relative_equilibrium")),
         "kind": _case(10, ([1.0, 2.0], [1.0, 0.0], "collapse"))}
    assert solve_digest.main(["--compare", _write(tmp_path / "a.json", a),
                              _write(tmp_path / "b.json", b)]) == 1
    out = capsys.readouterr().out
    for name in ("count", "signature", "lambda", "kind"):
        assert f"DIFFER  {name}:" in out
    assert "MISSING  missing" in out
    assert "0 of 5 cases match" in out


def test_large_cases_refill_every_lane():
    assert solve_digest.LARGE_STARTS > solve_digest.solver._LANES


def test_refuses_to_digest_when_large_cases_fit_in_the_lanes(monkeypatch):
    monkeypatch.setattr(solve_digest, "LARGE_STARTS", solve_digest.solver._LANES)
    with pytest.raises(SystemExit, match="no longer covers refill"):
        solve_digest.main([])


def test_solve_totals_are_pinned(capsys):
    # Any change to a report of these cases changes a total.  The bytes hold
    # for one numpy/LAPACK build: another build may round the linear solves
    # differently, and then `--sets`/`--compare` checks the solution sets.
    # ROADMAP item 10 (scale- and label-equivariant solve) moves these
    # reports on purpose and re-pins the totals here.
    assert solve_digest.main([]) == 0
    totals = dict(reversed(line.split("  ")) for line in capsys.readouterr().out.splitlines()
                  if "  TOTAL" in line)
    assert totals == {
        "TOTAL": "ff171214d7cbcda9ba25a11ee946ba5589277ca409af9e12048cf28414fd07bf",
        "TOTAL ALL": "0e63b9dda421de951c285db454eabf794e74a2f3661187439f963bf95f23572e",
        "TOTAL REDRAW": "05978b39667555af88585f0d4fe3fdb830732bcd629cab041099de191b8aedfa",
        "TOTAL DEDUP": "f76fe2a2a2b2e62492c9f97234d50d36db1a89e9f604ffbf47cf542906d41f7a",
        "TOTAL REFINE": "2cb129decf28fabafc9c8629bb37bcdf22b64a61ea68abbef22bf679ab33d2b2",
    }


def test_refine_cases_end_as_named():
    for name, run in solve_digest.REFINE_CASES:
        result, reason = run(), name.split()[2]
        if reason == "converged":
            assert isinstance(result, solve_digest.CentralConfigSolution), name
        else:
            assert result.reason == reason, name
            # A start inside the guard ends before its first residual.
            assert (result.last_norm == float("inf")) == name.endswith("(at the start)"), name
