"""Exit-code contract, report schema, determinism, and the SVG renderer."""

import csv
import json
import warnings

import pytest

from vortexcc.cli import main, parse_vorticities
from vortexcc.quantities import VorticitySet


def run(argv, capsys=None):
    code = main(argv)
    return code


# ---------------------------------------------------------------------------
# vorticity parsing
# ---------------------------------------------------------------------------


def test_parse_accepts_int_decimal_rational():
    v = parse_vorticities("1,0.5,3/4,-2")
    assert v.gammas[1] == 0.5
    from fractions import Fraction

    assert v.gammas[2] == Fraction(3, 4)


def test_parse_exact_rejects_decimals():
    from vortexcc.cli import CliError

    with pytest.raises(CliError) as err:
        parse_vorticities("1,0.5,3,4,5", exact=True)
    assert err.value.code == 2
    v = parse_vorticities("1,1/2,3,4,5", exact=True)
    assert v.is_exact


def test_parse_rejects_zero_and_garbage():
    from vortexcc.cli import CliError

    with pytest.raises(CliError, match="nonzero"):
        parse_vorticities("1,0,1")
    with pytest.raises(CliError):
        parse_vorticities("1,spam")
    with pytest.raises(CliError):
        parse_vorticities("1")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_writes_report(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["solve", "--gamma", "1,1", "--starts", "50", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["input"]["seed"] == 1
    assert len(doc["solutions"]) == 1
    sol = doc["solutions"][0]
    assert sol["lambda"][0] == pytest.approx(1.0, abs=1e-10)
    assert sol["signature"][0] == pytest.approx(2.0, abs=1e-9)
    assert sol["kind"] == "relative_equilibrium"
    assert abs(sol["invariants"]["M"][0]) < 1e-10


def test_solve_collapse_report(tmp_path):
    out = tmp_path / "collapse.json"
    code = main(["solve", "--gamma", "1,1,-0.5", "--starts", "500", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    kinds = {s["kind"] for s in doc["solutions"]}
    assert "collapse" in kinds


def test_solve_rejects_zero_vorticity(capsys):
    assert main(["solve", "--gamma", "1,0,1"]) == 2
    assert "nonzero" in capsys.readouterr().err


def test_solve_rejects_bad_tolerance(capsys):
    assert main(["solve", "--gamma", "1,1", "--tol", "-1"]) == 2
    # An infinite tolerance would report every random start as a solution.
    assert main(["solve", "--gamma", "1,1,1", "--starts", "20", "--tol", "inf"]) == 2
    assert "option tol must be finite" in capsys.readouterr().err


def test_solve_at_extreme_scale_prints_no_warning(capfd):
    # numpy printed "overflow encountered in matmul" on stderr once.
    assert main(["solve", "--gamma", "1e300,1e300,1", "--starts", "50"]) == 0
    assert capfd.readouterr().err == ""


def test_solve_unwritable_out(tmp_path):
    assert main(["solve", "--gamma", "1,1", "--starts", "10",
                 "--out", str(tmp_path / "missing" / "rep.json")]) == 1


def test_solve_csv_format(tmp_path):
    out = tmp_path / "rep.csv"
    assert main(["solve", "--gamma", "1,1", "--starts", "30", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("index,kind,lambda_re")
    assert len(lines) == 2


@pytest.mark.parametrize("regime", ["physical", "complex"])
def test_solve_csv_numbers_parse_and_match_json(tmp_path, regime):
    argv = ["solve", "--gamma", "1,1,-0.5", "--regime", regime, "--starts", "40", "--seed", "3"]
    assert main(argv + ["--out", str(tmp_path / "rep.json")]) == 0
    assert main(argv + ["--format", "csv", "--out", str(tmp_path / "rep.csv")]) == 0
    doc = json.loads((tmp_path / "rep.json").read_text())
    with open(tmp_path / "rep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(doc["solutions"]) > 0
    for row, sol in zip(rows, doc["solutions"]):
        signature = row["signature"].split(";")
        if regime == "physical":
            assert [float(s) for s in signature] == sol["signature"]
        else:
            assert [complex(s) for s in signature] == [complex(*s) for s in sol["signature"]]
        assert [complex(p) for p in row["positions"].split(";")] == \
            [complex(*p) for p in sol["positions"]]


def test_solve_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["solve", "--gamma", "1,1,-0.5", "--starts", "120", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_certified(capsys):
    assert main(["check", "--gamma", "1,1,1,1,1"]) == 0
    out = capsys.readouterr().out
    assert "certified_finite" in out


def test_check_exceptional_exact(tmp_path, capsys):
    out = tmp_path / "check.json"
    code = main(["check", "--gamma", "2,2,2,2,-1", "--exact", "--out", str(out)])
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "exceptional_suspect"
    assert doc["subset_check"]["witness"] == [1, 2, 5]
    ids = {m["diagram"] for m in doc["matches"]}
    assert {5, 6} <= ids
    assert not doc["approximate"]


def test_check_pair_sum_witness(capsys):
    assert main(["check", "--gamma", "1,-1,2,3,4"]) == 3
    out = capsys.readouterr().out
    assert "J={1,2}" in out
    assert "vanishing_sum" in out


def test_check_exact_beyond_float_range(capsys):
    # Entries past the largest float once raised OverflowError.
    gamma = ",".join(str(g * 10**400) for g in (1, 2, 3, 5, 7))
    assert main(["check", "--gamma", gamma, "--exact"]) == 0
    assert "verdict: certified_finite" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["check", "--gamma", f"{10**400}/1,2,3,5,7"],  # no --exact: a mixed, float-decided tuple
    ["solve", "--gamma", f"{10**400}/1,2,3", "--starts", "4"],
])
def test_strength_beyond_the_float_range_exit_2(argv, capfd):
    # These printed an OverflowError traceback and exited 1 once.
    assert main(argv) == 2
    assert capfd.readouterr() == ("", "error: vorticity entry 1 is beyond the float range\n")


def test_solve_too_many_starts_exit_2(capfd):
    # This printed numpy's allocation traceback and exited 1 once.  numpy
    # refuses a block of 10**15 starts at once, without touching memory.
    starts = str(10**15)
    assert main(["solve", "--gamma", "1,1,1", "--starts", starts]) == 2
    assert capfd.readouterr() == (
        "", f"error: --starts {starts} is too many starts to hold in memory\n")


def test_check_gamma_zero_exit_4(capsys):
    assert main(["check", "--gamma", "1,-1,2,3,-5"]) == 4


def test_check_wrong_count_exit_2(capsys):
    assert main(["check", "--gamma", "1,1,1"]) == 2
    assert main(["check", "--gamma", "1,0,1,1,1"]) == 2


def test_non_finite_strength_exit_2(capsys):
    assert main(["check", "--gamma", "nan,1,2,3,5"]) == 2
    assert main(["solve", "--gamma", "inf,1", "--starts", "5"]) == 2
    assert "finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# roberts
# ---------------------------------------------------------------------------


def test_roberts_verify_ok(capsys):
    assert main(["roberts", "--a", "0.6", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "residual" in out


def test_roberts_complex_branch(capsys):
    assert main(["roberts", "--a", "2", "--branch", "complex", "--verify"]) == 0


def test_roberts_domain_error(capsys):
    assert main(["roberts", "--a", "1.5", "--branch", "real"]) == 2
    # a = 2^26 keeps b = sqrt(a² − 1) below a; from 2^27 on it does not, and
    # from 1e155 b overflows to inf.
    assert main(["roberts", "--a", str(2.0**26), "--branch", "complex"]) == 0
    capsys.readouterr()
    for a in (str(2.0**27), "1e8", "1e155", "1e200", "inf"):
        for verify in ([], ["--verify"]):
            assert main(["roberts", "--a", a, "--branch", "complex", *verify]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: complex branch requires a > 1 with sqrt(a*a - 1) < a")


# ---------------------------------------------------------------------------
# diagram
# ---------------------------------------------------------------------------


def test_diagram_roberts_collision(tmp_path, capsys):
    out = tmp_path / "diag.json"
    code = main(["diagram", "--family", "roberts", "--limit", "a0",
                 "--steps", "12", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["z_strokes"] == [[1, 3], [1, 5], [3, 5]]
    assert doc["w_strokes"] == [[1, 3], [1, 5], [3, 5]]
    for pair, (zs, ws) in doc["separation_exponents"].items():
        assert -2.3 <= zs <= 2.3
        assert -2.3 <= ws <= 2.3


def test_diagram_from_file(tmp_path, capsys):
    from vortexcc.asymptotics import roberts_degeneration, save_family

    params, configs = roberts_degeneration("a0", 8)
    fam = tmp_path / "family.txt"
    save_family(fam, params, configs)
    assert main(["diagram", "--from", str(fam)]) == 0


@pytest.mark.parametrize("flag, value", [("--family", "roberts"), ("--limit", "ainf"), ("--steps", "30")])
def test_diagram_from_refuses_the_family_options(tmp_path, capfd, flag, value):
    # --from once ignored these and printed the file's diagram with exit 0.
    from vortexcc.asymptotics import roberts_degeneration, save_family

    fam = tmp_path / "family.txt"
    save_family(fam, *roberts_degeneration("a0", 8))
    assert main(["diagram", "--from", str(fam), flag, value]) == 2
    assert capfd.readouterr() == ("", f"error: --from cannot be combined with {flag}\n")


def test_diagram_family_defaults_to_a0_in_12_steps(capsys):
    assert main(["diagram", "--family", "roberts"]) == 0
    default = capsys.readouterr().out
    assert main(["diagram", "--family", "roberts", "--limit", "a0", "--steps", "12"]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("entry, column", [("nan", 1), ("nan", 3), ("inf", 11)])
def test_diagram_rejects_a_non_finite_family_file(tmp_path, capfd, entry, column):
    # The last row is in the fitted tail.  Extraction once ran on it: a NaN in
    # Re z_1 made LAPACK print, numpy warn and the fit fail; one in Re z_2
    # gave exit 0 with a NaN exponent.
    from vortexcc.asymptotics import roberts_degeneration, save_family

    params, configs = roberts_degeneration("a0", 6)
    fam = tmp_path / "family.txt"
    save_family(fam, params, configs)
    header, *rows = fam.read_text().splitlines()
    cells = rows[5].split()
    cells[column] = entry
    rows[5] = " ".join(cells)
    fam.write_text("\n".join([header, *rows]) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["diagram", "--from", str(fam)]) == 2
    assert caught == []
    assert capfd.readouterr() == ("", "error: malformed family file: data row 6 has a non-finite entry\n")


@pytest.mark.parametrize("keep_header", [False, True])
def test_diagram_rejects_a_family_file_without_data_rows(tmp_path, capfd, keep_header):
    # numpy warned "loadtxt: input contained no data" on stderr before the error once.
    from vortexcc.asymptotics import roberts_degeneration, save_family

    fam = tmp_path / "family.txt"
    save_family(fam, *roberts_degeneration("a0", 6))
    header = fam.read_text().splitlines()[0]
    fam.write_text(header + "\n" if keep_header else "")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["diagram", "--from", str(fam)]) == 2
    assert caught == []
    assert capfd.readouterr() == ("", "error: malformed family file: no data rows\n")


def test_diagram_not_singular_exit_5(tmp_path, capsys):
    import numpy as np
    from vortexcc.asymptotics import save_family

    z = tuple(np.exp(2j * np.pi * np.arange(3) / 3))
    w = tuple(np.conj(np.asarray(z)))
    fam = tmp_path / "flat.txt"
    save_family(fam, list(range(6)), [(z, w)] * 6)
    assert main(["diagram", "--from", str(fam)]) == 5
    assert "not singular" in capsys.readouterr().err


def test_diagram_infinity_limit(capsys):
    assert main(["diagram", "--family", "roberts", "--limit", "ainf",
                 "--steps", "12"]) == 0
    out = capsys.readouterr().out
    assert "z-strokes" in out


@pytest.mark.parametrize("limit, longest", [("a0", 32), ("ainf", 26)])
def test_diagram_rejects_a_ladder_past_its_longest(limit, longest, capsys):
    assert main(["diagram", "--family", "roberts", "--limit", limit,
                 "--steps", str(longest)]) == 0
    capsys.readouterr()
    for steps in (27, 33, 1100):
        if steps > longest:
            assert main(["diagram", "--family", "roberts", "--limit", limit,
                         "--steps", str(steps)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: limit {limit!r} allows at most {longest} steps, got {steps}\n"


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------


def test_plot_two_vortex(tmp_path):
    rep = tmp_path / "rep.json"
    svg = tmp_path / "plot.svg"
    main(["solve", "--gamma", "1,1", "--starts", "40", "--out", str(rep)])
    assert main(["plot", str(rep), "--out", str(svg)]) == 0
    body = svg.read_text()
    assert body.startswith("<svg")
    assert body.count("<circle") == 2
    assert "lambda=1" in body


def test_plot_empty_report(tmp_path):
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"solutions": [], "input": {"gamma": [1.0, 1.0]}}))
    svg = tmp_path / "empty.svg"
    assert main(["plot", str(rep), "--out", str(svg)]) == 0
    assert "no solutions" in svg.read_text()


def test_plot_unreadable_exit_1(tmp_path, capsys):
    assert main(["plot", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.svg")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["plot", str(bad), "--out", str(tmp_path / "y.svg")]) == 1


GOOD_SOLUTION = {"kind": "relative_equilibrium", "positions": [[-0.5, 0.0], [0.5, 0.0]],
                 "lambda": [1.0, 0.0]}


@pytest.mark.parametrize("doc", [
    {"solutions": [{"kind": "relative_equilibrium", "lambda": None}], "input": {"gamma": [1.0, 1.0]}},
    {"solutions": [dict(GOOD_SOLUTION, positions=[[0.0, "x"], [1.0, 0.0]])],
     "input": {"gamma": [1.0, 1.0]}},
    [GOOD_SOLUTION],
    {"solutions": [dict(GOOD_SOLUTION, positions=[[0.0, float("nan")], [1.0, 0.0]])],
     "input": {"gamma": [1.0, 1.0]}},
    {"solutions": [dict(GOOD_SOLUTION, positions=[[0.0], [1.0, 0.0]])], "input": {"gamma": [1.0, 1.0]}},
    {"solutions": [dict(GOOD_SOLUTION, **{"lambda": "one"})], "input": {"gamma": [1.0, 1.0]}},
    {"solutions": [GOOD_SOLUTION], "input": {"gamma": [1.0, None]}},
], ids=["no-positions", "string-coordinate", "top-level-list", "nan-coordinate",
        "one-coordinate", "string-lambda", "null-gamma"])
def test_plot_malformed_report_exit_1(tmp_path, capfd, doc):
    # The first three printed a traceback once.
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps(doc))
    svg = tmp_path / "bad.svg"
    assert main(["plot", str(rep), "--out", str(svg)]) == 1
    out, err = capfd.readouterr()
    assert out == "" and err.startswith(f"error: cannot read report {rep}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not svg.exists()
    # The well-formed report it was cut from plots.
    rep.write_text(json.dumps({"solutions": [GOOD_SOLUTION], "input": {"gamma": [1.0, 1.0]}}))
    assert main(["plot", str(rep), "--out", str(svg)]) == 0


def test_plot_coordinate_past_the_square_range(tmp_path, capfd):
    # (1e200) ** 2 raised OverflowError once; the product is inf and prints as such.
    rep = tmp_path / "rep.json"
    far = dict(GOOD_SOLUTION, positions=[[0.0, 0.0], [1e200, 0.0]])
    rep.write_text(json.dumps({"solutions": [far], "input": {"gamma": [1.0, 1.0]}}))
    svg = tmp_path / "far.svg"
    assert main(["plot", str(rep), "--out", str(svg)]) == 0
    assert capfd.readouterr() == ("", "")
    assert "r2=inf<" in svg.read_text()


def test_plot_zero_strengths(tmp_path):
    # All-zero strengths divided by zero once; the disks then take the smallest radius.
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"solutions": [GOOD_SOLUTION], "input": {"gamma": [0, 0]}}))
    svg = tmp_path / "zero.svg"
    assert main(["plot", str(rep), "--out", str(svg)]) == 0
    assert svg.read_text().count('r="3.000"') == 2


def test_plot_deterministic_bytes(tmp_path):
    rep = tmp_path / "rep.json"
    main(["solve", "--gamma", "1,1,1", "--starts", "150", "--seed", "2", "--out", str(rep)])
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["plot", str(rep), "--out", str(a)]) == 0
    assert main(["plot", str(rep), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_plot_collapse_lambda_in_legend(tmp_path):
    rep = tmp_path / "rep.json"
    main(["solve", "--gamma", "1,1,-0.5", "--starts", "200", "--out", str(rep)])
    svg = tmp_path / "c.svg"
    assert main(["plot", str(rep), "--out", str(svg)]) == 0
    body = svg.read_text()
    assert "collapse" in body
