"""Conserved-quantity definitions, subset momenta, and the exact identities."""

import numbers
import operator
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexcc import quantities
from vortexcc.quantities import (
    ExactComplex,
    Invariants,
    PlanarConfiguration,
    VorticitySet,
    angular_momentum,
    conjugate_positions,
    invariants_of,
    is_exact_scalar,
    total_vorticity,
    _moments,
)


def test_total_vorticity_examples():
    assert total_vorticity(VorticitySet((1, 1, 1))) == 3
    assert total_vorticity(VorticitySet((2, 2, 2, 2, -1))) == 7
    assert total_vorticity(VorticitySet((1, -1))) == 0


def test_angular_momentum_examples():
    assert angular_momentum(VorticitySet((1, 1, 1)), {1, 2, 3}) == 3
    assert angular_momentum(VorticitySet((2, 2, -1)), {1, 2, 3}) == 0
    # six pairwise products of value 4
    assert angular_momentum(VorticitySet((2, 2, 2, 2)), {1, 2, 3, 4}) == 24


def test_angular_momentum_full_set_default():
    v = VorticitySet((1, 2, 3))
    assert angular_momentum(v) == angular_momentum(v, {1, 2, 3}) == 2 + 3 + 6


def test_angular_momentum_rejects_small_subsets():
    v = VorticitySet((1, 2, 3))
    with pytest.raises(ValueError, match="undefined subset momentum"):
        angular_momentum(v, {2})
    with pytest.raises(ValueError, match="undefined subset momentum"):
        angular_momentum(v, set())
    with pytest.raises(ValueError):
        angular_momentum(v, {1, 7})


def test_vorticity_validation():
    with pytest.raises(ValueError, match="nonzero"):
        VorticitySet((1, 0, 1))
    with pytest.raises(ValueError):
        VorticitySet((1,))
    assert VorticitySet((Fraction(1, 2), 3)).is_exact
    assert not VorticitySet((0.5, 3)).is_exact


class _FractionSubclass(Fraction):
    pass


class _RegisteredRational:
    """A class that is a numbers.Rational by registration only."""

    def __eq__(self, other):
        return other is self

    __hash__ = object.__hash__


numbers.Rational.register(_RegisteredRational)

SCALARS = [3, True, np.int64(-4), Fraction(2, 3), _FractionSubclass(5, 7), _RegisteredRational(),
           2.5, np.float64(-1.25), Decimal("0.1")]


@pytest.mark.parametrize("x", SCALARS, ids=lambda x: type(x).__name__)
def test_exact_scalar_fast_path_agrees_with_the_rational_abc(x):
    # int, Fraction and float are classified by their exact type; every other
    # type, subclasses and registered classes included, by numbers.Rational.
    assert is_exact_scalar(x) == isinstance(x, numbers.Rational)
    # Stored by VorticitySet's rule: an Integral becomes a Python int, any
    # other entry is kept as it is.
    v = VorticitySet((x, 1))
    expected = operator.index(x) if isinstance(x, numbers.Integral) else x
    assert type(v.gammas[0]) is type(expected) and v.gammas[0] == expected
    assert v.is_exact == isinstance(x, numbers.Rational)
    if isinstance(x, (bool, np.integer)):
        assert type(v.gammas[0]) is int and v.gammas[0] == int(x)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_vorticity_rejects_non_finite(bad):
    # NaN compares unequal to everything, so no subset sum of it would vanish.
    with pytest.raises(ValueError, match="entry 3"):
        VorticitySet((1.0, 2.0, bad, 3.0, 5.0))


@pytest.mark.parametrize("bad", [np.complex128(2 + 1j), 1j, 0j, "2", None], ids=repr)
def test_vorticity_refuses_an_entry_that_is_not_a_real_number(bad):
    # A complex strength was once read by its real part, with only a ComplexWarning;
    # the others failed with a bare TypeError.
    with pytest.raises(ValueError, match=r"^vorticity must be a real number \(entry 2 is "):
        VorticitySet((1, bad, 3, 5, 7))


def test_as_float_names_an_entry_beyond_the_float_range():
    # float() of such an entry raised OverflowError once.
    with pytest.raises(ValueError, match="^vorticity entry 2 is beyond the float range$"):
        VorticitySet((2, Fraction(10**400, 3), 1.5)).as_float()
    # A ratio of huge integers inside the range converts.
    assert VorticitySet((Fraction(10**400 + 1, 10**400), 2)).as_float().gammas == (1.0, 2.0)


def test_configuration_rejects_collisions():
    with pytest.raises(ValueError, match="collision"):
        PlanarConfiguration((1 + 0j, 1 + 0j, 2j))
    PlanarConfiguration((0j, 1j))  # fine


def test_two_vortex_invariants():
    # closed-form pair at (-sqrt2/2, sqrt2/2): real positions, w = z
    c = np.sqrt(2) / 2
    v = VorticitySet((1.0, 1.0))
    z = (-c + 0j, c + 0j)
    inv = invariants_of(v, z, conjugate_positions(z))
    assert abs(inv.M) < 1e-15
    assert abs(inv.I - 1.0) < 1e-15
    assert abs(inv.S - 2.0) < 1e-15
    assert abs(inv.gamma * inv.I - inv.S) < 1e-15
    assert inv.L == 1.0


def test_equilateral_invariants():
    # unit circumradius triangle centred at the origin, hand-evaluated
    v = VorticitySet((1.0, 1.0, 1.0))
    z = tuple(np.exp(2j * np.pi * k / 3) for k in range(3))
    inv = invariants_of(v, z, conjugate_positions(z))
    assert abs(inv.M) < 1e-14
    assert abs(inv.I - 3.0) < 1e-14
    assert abs(inv.S - 9.0) < 1e-13
    assert inv.L == 3.0
    assert abs(inv.identity_defect) < 1e-13


def test_translation_breaks_moment():
    v = VorticitySet((1.0, 2.0))
    z = (-2 + 0j, 1 + 0j)  # M = 0 here
    inv = invariants_of(v, z, conjugate_positions(z))
    assert abs(inv.M) < 1e-15
    shifted = tuple(p + (0.7 + 0.1j) for p in z)
    inv2 = invariants_of(v, shifted, conjugate_positions(shifted))
    assert abs(inv2.M) > 1e-3  # M is the Γ-weighted mean, Γ != 0


def test_length_mismatch():
    v = VorticitySet((1.0, 1.0))
    with pytest.raises(ValueError, match="length mismatch"):
        invariants_of(v, (0j, 1j, 2j), (0j, -1j, -2j))


def _random_exact_tuple(rng, n):
    gammas = []
    while len(gammas) < n:
        g = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
        if g != 0:
            gammas.append(g)
    return VorticitySet(tuple(gammas))


def _random_exact_positions(rng, n):
    pts = set()
    while len(pts) < n:
        pts.add((Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 6))),
                 Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 6)))))
    return tuple(ExactComplex(re, im) for re, im in sorted(pts))


def test_identity_defect_equals_moment_product_exactly():
    # gamma*I - S == M_z * M_w as an exact algebraic identity, any input
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        v = _random_exact_tuple(rng, n)
        z = _random_exact_positions(rng, n)
        w = conjugate_positions(z)
        inv = invariants_of(v, z, w)
        lhs = inv.identity_defect
        rhs = inv.M * inv.M_w
        assert (lhs - rhs).is_zero


def test_identity_holds_exactly_on_zero_moment_configurations():
    # translate to the vorticity-weighted centre, then gamma*I == S exactly
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 300:
        n = int(rng.integers(2, 6))
        v = _random_exact_tuple(rng, n)
        gamma = total_vorticity(v)
        if gamma == 0:
            continue
        z = _random_exact_positions(rng, n)
        m = invariants_of(v, z, conjugate_positions(z)).M
        centre = ExactComplex(m.re / gamma, m.im / gamma)
        zc = tuple(p - centre for p in z)
        try:
            PlanarConfiguration(zc)
        except ValueError:
            continue
        inv = invariants_of(v, zc, conjugate_positions(zc))
        assert inv.identity_defect.is_zero
        assert inv.M.is_zero
        checked += 1


@given(st.lists(st.integers(-50, 50).filter(lambda x: x != 0), min_size=2, max_size=8))
@settings(max_examples=200, deadline=None)
def test_gamma_squared_exceeds_twice_momentum(gammas):
    v = VorticitySet(tuple(Fraction(g) for g in gammas))
    gamma = total_vorticity(v)
    L = angular_momentum(v)
    assert gamma * gamma - 2 * L == sum(Fraction(g) ** 2 for g in gammas)
    assert gamma * gamma - 2 * L > 0


def test_float_identity_tolerance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        g = rng.uniform(-2, 2, n)
        g[np.abs(g) < 0.1] = 0.5
        v = VorticitySet(tuple(g))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = z - (g * z).sum() / g.sum() if abs(g.sum()) > 1e-9 else z - z.mean()
        inv = invariants_of(v, tuple(z), conjugate_positions(tuple(z)))
        if abs(g.sum()) > 1e-9:
            assert abs(inv.identity_defect) <= 1e-12 * max(1.0, abs(inv.I))


def test_exact_complex_arithmetic():
    a = ExactComplex(Fraction(1, 2), Fraction(1, 3))
    b = ExactComplex(Fraction(2), Fraction(-1))
    assert (a + b).re == Fraction(5, 2)
    assert (a * b).im == Fraction(1, 6)  # (1/2)(-1) + (1/3)(2)
    assert a.conjugate().im == Fraction(-1, 3)
    assert complex(a) == complex(0.5, 1 / 3)
    with pytest.raises(TypeError):
        a + 0.25  # floats never mix implicitly


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_invariants_of_stack_matches_row_calls(n):
    rng = np.random.default_rng(n)
    gammas = rng.uniform(-2, 2, n)
    S = 400
    z = (rng.standard_normal((S, n)) + 1j * rng.standard_normal((S, n))) * 10 ** rng.uniform(-3, 3, (S, 1))
    # Signed zeros, as pinned and half-turned velocity solutions carry them.
    z[::3, 0] = 0.0
    z[1::3, 0] = -z[1::3, 0] * 0.0
    # Rows of signed zeros only, where every sum keeps the sign its products round to.
    z[2::7] = -z[2::7] * 0.0
    w_free = rng.standard_normal((S, n)) + 1j * rng.standard_normal((S, n))
    lam_free = (rng.standard_normal(S) + 1j * rng.standard_normal(S)).tolist()
    for v in (VorticitySet(tuple(float(g) for g in gammas)),
              VorticitySet(tuple(Fraction(g) for g in gammas)),
              VorticitySet(tuple(range(1, n + 1)))):
        for w, lam in ((np.conj(z), None), (w_free, lam_free)):
            stacked = invariants_of(v, z, w, lam=lam)
            assert len(stacked) == S
            for s, inv in enumerate(stacked):
                row = invariants_of(v, z[s], w[s], lam=None if lam is None else lam[s])
                assert repr(inv) == repr(row)
                assert [type(getattr(inv, f)) for f in Invariants.__dataclass_fields__] == \
                    [type(getattr(row, f)) for f in Invariants.__dataclass_fields__]


def _part_bytes(c):
    """Bytes of the real and imaginary parts of c, with None for a NaN part."""
    return tuple(None if np.isnan(x) else np.float64(x).tobytes() for x in (c.real, c.imag))


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_invariants_match_the_row_loop_on_extreme_values(n, monkeypatch):
    rng = np.random.default_rng(100 + n)
    S = 300
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300,
                        5e-324, -5e-324, 2.5e-310, 1.0, -3.0])

    def parts(shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
        pick = rng.random(shape) < 0.35
        a[pick] = rng.choice(special, pick.sum())
        return a

    def stack():
        z = np.empty((S, n), dtype=complex)
        z.real, z.imag = parts((S, n)), parts((S, n))
        return z

    z = stack()
    gammas = tuple(float(g) for g in rng.choice([1.0, -2.0, 0.5, 1e300, -1e-300, 5e-324, 3.7], n))
    fields = ("M", "M_w", "I", "S")
    with np.errstate(all="ignore"):    # inf and NaN parts: numpy warns, the arithmetic goes on
        for w in (np.conj(z), stack()):
            for v in (VorticitySet(gammas), VorticitySet(tuple(-g for g in gammas))):
                for s, inv in enumerate(invariants_of(v, z, w)):
                    row = _moments(v.gammas, tuple(z[s]), tuple(w[s]))
                    for f in fields:
                        assert type(getattr(inv, f)) is np.complex128
                        assert _part_bytes(getattr(inv, f)) == _part_bytes(row[f]), (s, f)

    # Exact strengths take the loop: a stacked pass that raises is never reached.
    def refused(*args):
        raise AssertionError("stacked pass used")

    monkeypatch.setattr(quantities, "_moment_stack", refused)
    z = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    invariants_of(VorticitySet(tuple(range(1, n + 1))), z, np.conj(z))
    with pytest.raises(AssertionError, match="stacked pass used"):
        invariants_of(VorticitySet(gammas), z, np.conj(z))


def test_invariants_of_stack_checks_shapes():
    z = np.array([[0.0, 1.0, 2.0j]])
    with pytest.raises(ValueError, match="shape mismatch"):
        invariants_of(VorticitySet((1.0, 1.0)), z, np.conj(z))
    with pytest.raises(ValueError, match="shape mismatch"):
        invariants_of(VorticitySet((1.0, 1.0, 1.0)), z, np.conj(z[:, :2]))
    with pytest.raises(ValueError, match="shape mismatch"):
        invariants_of(VorticitySet((1.0, 1.0, 1.0)), z, np.conj(z), lam=[1.0, 2.0])
