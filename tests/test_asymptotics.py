"""Rhombus continuum, balancing normalization, diagram extraction, 4-products."""

import hashlib
import math

import numpy as np
import pytest

from vortexcc.quantities import VorticitySet
from vortexcc.system import (
    COLLISION_GUARD,
    CollisionError,
    complex_system_residual,
    velocity_field,
)
from vortexcc.asymptotics import (
    ColoredDiagram,
    NotSingularError,
    balance_normalize,
    extract_diagram,
    four_product,
    load_family,
    roberts_degeneration,
    roberts_family,
    roberts_normalized,
    roberts_parameter_sequence,
    save_family,
    verify_roberts,
)


def test_roberts_family_real_branch_values():
    v, conf, lam = roberts_family(0.6, "real")
    assert tuple(float(g) for g in v.gammas) == (2.0, 2.0, 2.0, 2.0, -1.0)
    assert conf.z == (0.6 + 0j, 0.8j, -0.6 + 0j, (-0 - 0.8j), 0j)
    assert conf.w == tuple(p.conjugate() for p in conf.z)
    assert conf.squared_distance(1, 2) == pytest.approx(1.0, abs=1e-14)
    # multiplier computed from the velocity field, not hard-coded
    assert lam == pytest.approx(4.0, abs=1e-12)


def test_roberts_family_complex_branch_values():
    v, conf, lam = roberts_family(2.0, "complex")
    b = np.sqrt(3.0)
    assert conf.z[1] == pytest.approx(b)
    assert conf.squared_distance(1, 2) == pytest.approx(1.0, abs=1e-12)
    assert lam == pytest.approx(4.0, abs=1e-12)


def test_roberts_center_vortex_balances():
    v, conf, _ = roberts_family(0.6, "real")
    V = velocity_field(v, conf.z, conf.w)
    assert abs(V[4]) < 1e-14  # Λ·z_5 with z_5 = 0


def test_roberts_domain_errors():
    with pytest.raises(ValueError, match="real branch"):
        roberts_family(1.5, "real")
    with pytest.raises(ValueError, match="complex branch"):
        roberts_family(0.5, "complex")
    with pytest.raises(ValueError, match="branch"):
        roberts_family(0.5, "imaginary")
    # b = sqrt(a² − 1) stays below a up to 2^26, the last "ainf" ladder
    # member; from 2^27 it rounds to a, and past about 1.34e154 it overflows.
    _, conf, _ = roberts_family(2.0**26, "complex")
    assert conf.z[1].real < conf.z[0].real
    for a in (2.0**27, 1e8, 1e155, 1e200, math.inf):
        with pytest.raises(ValueError, match=r"complex branch requires a > 1 with sqrt\(a\*a - 1\) < a"):
            roberts_family(a, "complex")


@pytest.mark.parametrize("a,branch,bound", [
    (0.6, "real", 1e-11),
    (0.95, "real", 1e-11),
    (0.05, "real", 1e-11),
    (2.0, "complex", 1e-11),
    (5.0, "complex", 1e-10),
])
def test_verify_roberts_spot_checks(a, branch, bound):
    assert verify_roberts(a, branch) < bound


def test_verify_roberts_log_spaced_sweeps():
    for a in np.geomspace(0.06, 0.94, 20):
        assert verify_roberts(float(a), "real") < 1e-10
    for a in np.geomspace(1.06, 4.9, 20):
        assert verify_roberts(float(a), "complex") < 1e-10


def test_normalized_member_is_unit_multiplier_solution():
    conf = roberts_normalized(0.3, "real")
    assert abs(abs(conf.lam) - 1.0) < 1e-12
    assert abs(conf.gauge_defect) < 1e-12
    assert complex_system_residual(conf, VorticitySet((2.0, 2.0, 2.0, 2.0, -1.0))).norm < 1e-11


# ---------------------------------------------------------------------------
# Balancing
# ---------------------------------------------------------------------------


def test_balance_idempotent_and_invariant():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    zb, wb, eps = balance_normalize(z, w)
    zb2, wb2, eps2 = balance_normalize(zb, wb)
    assert np.allclose(zb, zb2) and np.allclose(wb, wb2)
    assert eps == pytest.approx(eps2, rel=1e-14)
    # products z_jk * w_jk are exactly preserved
    for j in range(4):
        for k in range(j + 1, 4):
            before = (z[k] - z[j]) * (w[k] - w[j])
            after = (zb[k] - zb[j]) * (wb[k] - wb[j])
            assert after == pytest.approx(before, rel=1e-14)


def test_balance_undoes_scaling():
    rng = np.random.default_rng(8)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    zb, wb, eps = balance_normalize(z, w)
    # acting with z -> 10 z, w -> w/10 is undone by the balancing a = 1/10
    zs, ws, eps2 = balance_normalize(10.0 * np.asarray(zb), np.asarray(wb) / 10.0)
    assert np.allclose(zs, zb)
    assert np.allclose(ws, wb)
    assert eps2 == pytest.approx(eps, rel=1e-14)


def test_balance_epsilon_tracks_near_collision():
    # a -> 0: the z-side norm is dominated by 1/|w_15| = 1/a, so ε = sqrt(a)
    for a in (0.1, 0.01, 0.002):
        _, conf, _ = roberts_family(a, "real")
        _, _, eps = balance_normalize(conf.z, conf.w)
        assert eps == pytest.approx(np.sqrt(a), rel=1e-12)


# ---------------------------------------------------------------------------
# Diagram extraction
# ---------------------------------------------------------------------------


def test_roberts_collision_diagram():
    params, configs = roberts_degeneration("a0", 12)
    extraction = extract_diagram(configs, params)
    d = extraction.diagram
    triple = {(1, 3), (1, 5), (3, 5)}
    assert d.z_strokes == frozenset(triple)
    assert d.w_strokes == frozenset(triple)
    assert not any(2 in pair or 4 in pair for pair in d.stroke_pairs)
    assert d.satisfies_rule_one
    for z_slope, w_slope in extraction.separation_exponents.values():
        assert -2.3 <= z_slope <= 2.3
        assert -2.3 <= w_slope <= 2.3


def test_roberts_infinity_diagram_recorded():
    params, configs = roberts_degeneration("ainf", 12)
    extraction = extract_diagram(configs, params)
    d = extraction.diagram
    # recorded, not asserted against any figure: the stroke pattern connects
    # the four rhombus vertices, and the measurement obeys the order bounds
    assert d.stroke_pairs
    assert d.satisfies_rule_one
    for z_slope, w_slope in extraction.separation_exponents.values():
        assert -2.3 <= z_slope <= 2.3
        assert -2.3 <= w_slope <= 2.3
    assert {v for pair in d.stroke_pairs for v in pair} <= {1, 2, 3, 4}


def test_extract_rejects_bounded_families():
    z = tuple(np.exp(2j * np.pi * np.arange(3) / 3))
    w = tuple(np.conj(z))
    with pytest.raises(NotSingularError, match="not singular"):
        extract_diagram([(z, w)] * 8)


def test_extract_rejects_short_sequences():
    params, configs = roberts_degeneration("a0", 12)
    with pytest.raises(ValueError, match="fewer than 4"):
        extract_diagram(configs[:3])


def test_rule_one_checker():
    bad = ColoredDiagram(3, frozenset(), frozenset(), frozenset({1}), frozenset())
    assert not bad.satisfies_rule_one
    good = ColoredDiagram(3, frozenset({(1, 2)}), frozenset(), frozenset({1}), frozenset())
    assert good.satisfies_rule_one


# ---------------------------------------------------------------------------
# Four products
# ---------------------------------------------------------------------------


def test_four_product_unit_distances_give_one():
    # build a configuration whose p_12 factors are each exactly 1: the pair
    # (1,2) with w_12 = 1/z_12, and the triangle (3,4,5) on a geometric
    # chain with ratio ω = e^{2πi/3}, which makes all three of its squared
    # distances equal 1 (since (1+ω)(1+ω²) = 1)
    omega = np.exp(2j * np.pi / 3)
    u = 0.7 + 0.2j
    z3, z4, z5 = 10.0 + 0j, 10.0 + u, 10.0 + u + u * omega
    w3, w4, w5 = 0j, 1.0 / u, 1.0 / u + 1.0 / (u * omega)
    z12 = 1.5 - 0.4j
    z = (0j, z12, z3, z4, z5)
    w = (5j, 5j + 1.0 / z12, w3, w4, w5)
    for j, k in [(3, 4), (4, 5), (3, 5), (1, 2)]:
        r2 = (z[k - 1] - z[j - 1]) * (w[k - 1] - w[j - 1])
        assert r2 == pytest.approx(1.0, rel=1e-13)
    assert four_product(z, w, (1, 2)) == pytest.approx(1.0, rel=1e-12)


def test_four_product_matches_side_count_on_rhombus():
    # rhombus family keeps the four sides at r² = 1; check p_25 against the
    # explicit complement cycle (1,3), (3,4), (4,1)
    _, conf, _ = roberts_family(2.0, "complex")
    for j, k in [(1, 2), (2, 3), (3, 4), (1, 4)]:
        assert conf.squared_distance(j, k) == pytest.approx(1.0, abs=1e-12)
    p25 = four_product(conf.z, conf.w, (2, 5))
    manual = (conf.squared_distance(2, 5) * conf.squared_distance(1, 3)
              * conf.squared_distance(3, 4) * conf.squared_distance(4, 1))
    assert p25 == pytest.approx(manual, rel=1e-12)


def test_four_product_quadrilateral_blowup():
    # large-a rhombus realizes the quadrilateral data: four side r² of order
    # one, six squared distances of order ε^{-4}; every 4-product blows up
    small, large = 10.0, 160.0
    mins = []
    for a in (small, large):
        _, conf, _ = roberts_family(a, "complex")
        mins.append(min(abs(four_product(conf.z, conf.w, (j, k)))
                        for j in range(1, 6) for k in range(j + 1, 6)))
    assert mins[0] > 1e3
    assert mins[1] > 1e3 * mins[0] / 2  # grows with a, toward infinity


def test_four_product_collision_trends():
    # a -> 0: p_13 -> 0 (its own factor collapses); p_24 -> 0 even faster
    # (its complement cycle lies inside the collapsing triple {1,3,5}),
    # p_13/p_24 -> infinity
    values = {}
    for a in (0.1, 0.01, 0.001):
        _, conf, _ = roberts_family(a, "real")
        p13 = abs(four_product(conf.z, conf.w, (1, 3)))
        p24 = abs(four_product(conf.z, conf.w, (2, 4)))
        values[a] = (p13, p24)
    assert values[0.001][0] < values[0.01][0] < values[0.1][0] < 1.0
    assert values[0.001][1] < values[0.001][0]
    assert values[0.001][0] / values[0.001][1] > 1e6
    # exact leading orders from the factorization: p_13 ~ 16 a² β⁶, p_24 ~ 16 a⁶
    a = 0.001
    beta2 = 1 - a * a
    assert values[a][0] == pytest.approx(16 * a**2 * beta2**3, rel=1e-6)
    assert values[a][1] == pytest.approx(16 * a**6, rel=1e-6)


def test_four_product_validation():
    _, conf, _ = roberts_family(0.5, "real")
    with pytest.raises(ValueError, match="exactly 5"):
        four_product(conf.z[:4], conf.w[:4], (1, 2))
    with pytest.raises(ValueError, match="distinct"):
        four_product(conf.z, conf.w, (2, 2))
    # Regression: a non-integer label raised "too many values to unpack" or a TypeError.
    for pair in ((1, 1.5), (1.0, 2), (0, 2), (1, 2, 3)):
        with pytest.raises(ValueError, match="pair must be two distinct labels in 1..5"):
            four_product(conf.z, conf.w, pair)


def test_four_product_refuses_a_bool_label():
    # Regression: (True, 2) was read as (1, 2).
    _, conf, _ = roberts_family(0.5, "real")
    for pair in ((True, 2), (3, False), (np.True_, 2)):
        with pytest.raises(ValueError, match="pair must be two distinct labels in 1..5"):
            four_product(conf.z, conf.w, pair)
    assert four_product(conf.z, conf.w, (np.int64(1), 2)) == four_product(conf.z, conf.w, (1, 2))


# ---------------------------------------------------------------------------
# Family files
# ---------------------------------------------------------------------------


def test_family_file_roundtrip(tmp_path):
    params, configs = roberts_degeneration("a0", 6)
    path = tmp_path / "family.txt"
    save_family(path, params, configs)
    params2, configs2 = load_family(path)
    assert np.allclose(params, params2)
    for (z, w), (z2, w2) in zip(configs, configs2):
        assert np.allclose(z, z2)
        assert np.allclose(w, w2)
    # extraction works identically on the reloaded family
    d1 = extract_diagram(configs, params).diagram
    d2 = extract_diagram(configs2, params2).diagram
    assert d1 == d2


def test_family_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0 3.0\n")
    with pytest.raises(ValueError, match="malformed"):
        load_family(path)
    # A NaN or infinity anywhere, the parameter included, is named by its data row.
    params, configs = roberts_degeneration("a0", 6)
    for entry in ("nan", "inf", "-inf"):
        for column in (0, 5, 20):
            save_family(path, params, configs)
            header, *rows = path.read_text().splitlines()
            cells = rows[2].split()
            cells[column] = entry
            rows[2] = " ".join(cells)
            path.write_text("\n".join([header, *rows]) + "\n")
            with pytest.raises(ValueError, match=r"^malformed family file: data row 3 has a non-finite entry$"):
                load_family(path)


def test_save_family_refuses_what_load_family_refuses(tmp_path):
    # Regression: a short parameter list wrote only as many rows, a NaN was
    # written into a file load_family refuses, and z and w of different widths
    # failed with numpy's "inhomogeneous shape" message.
    params, configs = roberts_degeneration("a0", 6)
    params, configs = list(params), list(configs)
    z, w = configs[0]
    nan_z = (complex(float("nan"), 0.0),) + tuple(z[1:])
    ragged = "family not saved: every z and w needs the same length"
    cases = [
        (params[:3], configs, "family not saved: 3 parameters, 6 configurations"),
        (params, configs[:5], "family not saved: 6 parameters, 5 configurations"),
        ([math.inf] + params[1:], configs, "family not saved: data row 1 has a non-finite entry"),
        (params, configs[:2] + [(nan_z, w)] + configs[3:],
         "family not saved: data row 3 has a non-finite entry"),
        (params[:1], [(z, w[:3])], ragged),
        (params[:2], [(z, w), (z[:3], w[:3])], ragged),
        (params[:1], [(z[:1], w[:1])], r"family not saved: need 1 \+ 4N columns, N >= 2"),
        ([], [], "family not saved: no data rows"),
    ]
    path = tmp_path / "family.txt"
    for parameters, configurations, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            save_family(path, parameters, configurations)
        assert not path.exists()


def test_parameter_sequences():
    a0 = roberts_parameter_sequence("a0", 12)
    assert len(a0) == 12 and all(b < a for a, b in zip(a0, a0[1:]))
    ainf = roberts_parameter_sequence("ainf", 8)
    assert all(b > a for a, b in zip(ainf, ainf[1:]))
    with pytest.raises(ValueError):
        roberts_parameter_sequence("a0", 3)
    with pytest.raises(ValueError):
        roberts_parameter_sequence("elsewhere", 8)
    # A step count that is not an integer reached range() and raised TypeError there.
    for steps in (12.0, 8.5, True, "12"):
        with pytest.raises(ValueError, match="steps must be an integer"):
            roberts_parameter_sequence("a0", steps)
    assert roberts_parameter_sequence("ainf", np.int64(8)) == ainf


@pytest.mark.parametrize("limit, longest", [("a0", 32), ("ainf", 26)])
def test_parameter_sequences_stop_at_the_last_separated_step(limit, longest):
    # One step more puts two vortices on top of each other in floats ("ainf":
    # b = sqrt(a² − 1) rounds to a; "a0": a < 1e-10), and 1025 "ainf" steps
    # overflow; each is refused up front with the limit named.
    params, configs = roberts_degeneration(limit, longest)
    assert len(params) == len(configs) == longest
    for steps in (longest + 1, 1100):
        with pytest.raises(ValueError, match=f"allows at most {longest} steps, got {steps}"):
            roberts_parameter_sequence(limit, steps)


def test_a0_ladder_limit_follows_the_collision_guard():
    # Vortex 1 sits at distance a from vortex 5, so the last "a0" member is
    # the last one at or above the guard.
    params = roberts_parameter_sequence("a0", 32)
    assert params[-1] >= COLLISION_GUARD > params[-1] * 0.5


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
def test_non_finite_coordinates_are_refused_before_any_arithmetic(entry, capfd):
    # Regression: NaN balanced to all-NaN tuples with a RuntimeWarning, an
    # infinite w entry gave ε = 0.0, and a NaN in a family made LAPACK print
    # DLASCL lines before extract_diagram raised LinAlgError.
    _, configs = roberts_degeneration("a0", 8)
    for coordinate, side in (("z", 0), ("w", 1)):
        for row in (0, 5, 7):
            family = [tuple(map(list, c)) for c in configs]
            family[row][side][2] = entry
            if row == 0:
                with pytest.raises(ValueError, match=f"^row 0 has a non-finite entry in {coordinate}$"):
                    balance_normalize(*family[0])
            with pytest.raises(ValueError, match=f"^row {row} has a non-finite entry in {coordinate}$"):
                extract_diagram(family)
    # The first row is named, and z before w within it.
    family = [tuple(map(list, c)) for c in configs]
    family[6][0][0] = family[3][1][4] = family[3][0][1] = entry
    with pytest.raises(ValueError, match="^row 3 has a non-finite entry in z$"):
        extract_diagram(family)
    assert capfd.readouterr() == ("", "")


# Regression: unequal lengths balanced to tuples of two lengths or raised
# numpy's broadcast error; one vortex gave ε = 1.0 and none a reduction error.
MISSHAPEN = {
    "2-3": ((0, 1), (0, 1, 2), "the same number of vortices, got 2 and 3"),
    "3-4": ((0, 1, 2), (0, 1, 2, 3), "the same number of vortices, got 3 and 4"),
    "one": ((1,), (1,), "at least two vortices, got 1"),
    "none": ((), (), "at least two vortices, got 0"),
}


@pytest.mark.parametrize("case", MISSHAPEN)
def test_balance_refuses_unequal_lengths_and_fewer_than_two_vortices(case, capfd):
    z, w, message = MISSHAPEN[case]
    with pytest.raises(ValueError, match=message):
        balance_normalize(z, w)
    assert capfd.readouterr() == ("", "")


def test_extract_refuses_unequal_lengths_and_fewer_than_two_vortices():
    # Rows cut to (z[:2], w[:3]) once gave a 2-vertex diagram with a w-stroke (1, 2).
    _, configs = roberts_degeneration("a0", 12)
    with pytest.raises(ValueError, match="the same number of vortices, got 2 and 3"):
        extract_diagram([(z[:2], w[:3]) for z, w in configs])
    with pytest.raises(ValueError, match="at least two vortices, got 1"):
        extract_diagram([(z[:1], w[:1]) for z, w in configs])


# ---------------------------------------------------------------------------
# Pinned bytes
# ---------------------------------------------------------------------------


def _outcome(call, *args):
    """repr of the result, or the error's type, message and named pair."""
    try:
        return repr(call(*args))
    except CollisionError as exc:
        return f"CollisionError: {exc} {exc.pair} {exc.coordinate}"
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _random_family(rng, independent_w):
    """One family z_n(t) = c_n t^e_n + d_n over t = 2^-k, with w conj z or drawn alike.

    Exponents e_n run over -2..2, some offsets d_n are zero, and vertex 1 sits
    at the origin in one family of four.
    """
    n = int(rng.integers(2, 7))
    t = 0.5 ** np.arange(int(rng.integers(4, 17)))

    def positions():
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (rng.random(n) < 0.5)
        return c * t[:, None] ** rng.integers(-2, 3, size=n) + d

    at_origin = rng.random() < 0.25
    z = positions()
    w = positions() if independent_w else np.conj(z)
    if at_origin:
        z[:, 0] = w[:, 0] = 0.0
    return tuple(t), tuple(zip(z, w))


def _pinned_lines(tmp_path):
    for limit, longest in (("a0", 32), ("ainf", 26)):
        for steps in range(4, longest + 1):
            params, configs = roberts_degeneration(limit, steps)
            yield _outcome(extract_diagram, configs, params)
        yield from (_outcome(balance_normalize, z, w) for z, w in configs)

    rng = np.random.default_rng(20260)
    for i in range(200):
        params, configs = _random_family(rng, independent_w=i % 2 == 1)
        yield _outcome(extract_diagram, configs, params)
        yield from (_outcome(balance_normalize, z, w) for z, w in configs)

    z, w = (0j, 1 + 0j, 2j, 3 - 1j), (0j, 2 + 1j, -1j, 1 + 1j)
    for zc, wc in (((0j, 1 + 0j, 1 + 0j, 2j), w),          # z only
                   (z, (0j, 2 + 1j, -1j, -1j)),            # w only
                   ((0j, 0j, 2j, 1j), (1j, 1j, 2 + 0j, 3 + 0j)),    # both, one pair
                   ((0j, 1 + 0j, 0j, 1j), (1j, 2 + 0j, 2 + 0j, 0j))):  # both, two pairs
        yield _outcome(balance_normalize, zc, wc)
        family = [(z, w), (z, w), (zc, wc), (z, w), ((0j, 0j, 1j, 2j), w)]
        yield _outcome(extract_diagram, family, None)       # a later row
    bounded = tuple(np.exp(2j * np.pi * np.arange(3) / 3))
    yield _outcome(extract_diagram, [(bounded, np.conj(bounded))] * 6, None)

    rng = np.random.default_rng(7)
    families = [roberts_degeneration("a0", 8), roberts_degeneration("ainf", 8),
                _random_family(rng, True), _random_family(rng, False)]
    for k, (params, configs) in enumerate(families):
        path = tmp_path / f"family{k}.txt"
        save_family(path, params, configs)
        yield path.read_text()
        loaded = load_family(path)
        yield repr(loaded)
        yield _outcome(extract_diagram, loaded[1], loaded[0])


def test_extraction_bytes_are_pinned(tmp_path):
    # One digest over the reprs of every allowed Roberts ladder, 200 seeded
    # random families, the collision messages and four family files with
    # their loads.  Any change to a bit of ε, a slope, a balanced coordinate
    # or a file byte moves it.
    digest = hashlib.sha256()
    for line in _pinned_lines(tmp_path):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == "bcc12a61e3e2d65d4795fbea13aab17640513a7bbb906b3ed39c38a228e0745a"
