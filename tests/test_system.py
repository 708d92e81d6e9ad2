"""Velocity field, residual systems, and their analytic Jacobians."""

import warnings

import numpy as np
import pytest

from vortexcc.quantities import VorticitySet, conjugate_positions
from vortexcc.system import (
    COLLISION_GUARD,
    CollisionError,
    ComplexConfiguration,
    complex_jacobian,
    complex_residual_vector,
    complex_system_residual,
    physical_jacobian,
    physical_residual_vector,
    stationary_residual,
    velocity_field,
    _check_separated,
    _min_gap,
    _velocity_derivative,
    _velocity_np,
)
from vortexcc.asymptotics import roberts_family, roberts_normalized


def test_velocity_two_vortices():
    v = VorticitySet((1.0, 1.0))
    z = (-0.5 + 0j, 0.5 + 0j)
    V = velocity_field(v, z, conjugate_positions(z))
    assert V[0] == pytest.approx(-1.0)
    assert V[1] == pytest.approx(1.0)


def test_velocity_equilateral_vertex():
    v = VorticitySet((1.0, 1.0, 1.0))
    z = tuple(np.exp(2j * np.pi * k / 3) for k in range(3))
    V = velocity_field(v, z, conjugate_positions(z))
    assert V[0] == pytest.approx(1.0, abs=1e-14)  # vertex at z = 1


def test_velocity_roberts_center_vanishes():
    v, conf, _ = roberts_family(0.6, "real")
    V = velocity_field(v, conf.z, conf.w)
    assert abs(V[4]) < 1e-14


def test_velocity_collision_names_pair():
    v = VorticitySet((1.0, 1.0, 1.0))
    z = (0j, 1e-12 + 0j, 1 + 0j)
    with pytest.raises(CollisionError, match="vortices 1 and 2"):
        velocity_field(v, z, conjugate_positions(z))


def test_stationary_residual_two_vortex_solution():
    c = np.sqrt(2) / 2
    v = VorticitySet((1.0, 1.0))
    z = (-c + 0j, c + 0j)
    r = stationary_residual(v, z, conjugate_positions(z), 1.0)
    assert r.norm < 1e-15


def test_stationary_residual_collinear_solution():
    # V at an end vortex is 3/(2d); the middle vortex cancels; Λ=1 at d²=3/2
    d = np.sqrt(1.5)
    v = VorticitySet((1.0, 1.0, 1.0))
    z = (-d + 0j, 0j, d + 0j)
    r = stationary_residual(v, z, conjugate_positions(z), 1.0)
    assert r.norm < 1e-14


def test_stationary_residual_wrong_multiplier():
    v = VorticitySet((1.0, 1.0, 1.0))
    z = tuple(np.exp(2j * np.pi * k / 3) for k in range(3))
    r = stationary_residual(v, z, conjugate_positions(z), 2.0)
    assert r.norm == pytest.approx(1.0, abs=1e-12)  # (2-1)·z_n has unit modulus


def test_complex_residual_roberts_real_branch():
    conf = roberts_normalized(0.6, "real")
    v = VorticitySet((2.0, 2.0, 2.0, 2.0, -1.0))
    assert complex_system_residual(conf, v).norm < 1e-12
    assert abs(conf.lam - 1.0) < 1e-12
    assert abs(conf.gauge_defect) < 1e-12


def test_complex_residual_roberts_complex_branch():
    conf = roberts_normalized(2.0, "complex")
    v = VorticitySet((2.0, 2.0, 2.0, 2.0, -1.0))
    assert complex_system_residual(conf, v).norm < 1e-12
    # raw family scale: side squared distances equal a^2 - b^2 = 1;
    # the unit-multiplier dilation by s = 2 then scales every r^2 by 4
    _, raw, _ = roberts_family(2.0, "complex")
    assert raw.squared_distance(1, 2) == pytest.approx(1.0, abs=1e-12)
    assert conf.squared_distance(1, 2) == pytest.approx(4.0, abs=1e-12)


def test_complex_residual_embeds_physical():
    # physical point with real z_12 embeds with w = conj z; same residual norm
    rng = np.random.default_rng(5)
    v = VorticitySet((1.0, -2.0, 0.7))
    for _ in range(20):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z[1] = z[0] + abs(z[1] - z[0])  # make z_12 real so the gauge row vanishes
        lam = np.exp(1j * rng.uniform(0, 2 * np.pi))
        w = np.conj(z)
        phys = stationary_residual(v, tuple(z), tuple(w), lam)
        full = complex_system_residual(ComplexConfiguration(tuple(z), tuple(w), lam), v)
        assert full.norm == pytest.approx(phys.norm, rel=1e-12, abs=1e-14)


def test_velocity_equivariance():
    # z -> a z, w -> w/a sends V -> a V
    rng = np.random.default_rng(9)
    v = VorticitySet((1.0, 2.0, -0.5, 0.3))
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a = 1.7 - 0.4j
    V = np.array(velocity_field(v, tuple(z), tuple(w)))
    Va = np.array(velocity_field(v, tuple(a * z), tuple(w / a)))
    assert np.abs(Va - a * V).max() < 1e-12 * np.abs(V).max()


def test_weighted_velocity_sum_vanishes():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        g = rng.uniform(-2, 2, n)
        g[np.abs(g) < 0.1] = 1.0
        v = VorticitySet(tuple(g))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        V = np.array(velocity_field(v, tuple(z), conjugate_positions(tuple(z))))
        assert abs((g * V).sum()) < 1e-12 * max(1.0, np.abs(V).max())


# ---------------------------------------------------------------------------
# Numpy-backed wrappers against plain loops
# ---------------------------------------------------------------------------


def _loop_velocity(v, w):
    out = []
    for n in range(v.n):
        acc = 0j
        for j in range(v.n):
            if j != n:
                acc += v.gammas[j] / (w[n] - w[j])
        out.append(acc)
    return out


def _loop_stationary_residual(v, z, w, lam):
    return [lam * z[n] - V_n for n, V_n in enumerate(_loop_velocity(v, w))]


def _loop_complex_system_residual(conf, v):
    a_rows = [conf.lam * conf.z[n] - V_n for n, V_n in enumerate(_loop_velocity(v, conf.w))]
    b_rows = [conf.w[n] / conf.lam - V_n for n, V_n in enumerate(_loop_velocity(v, conf.z))]
    return a_rows + b_rows + [conf.gauge_defect]


def test_wrappers_match_loop_reference():
    # Every entry is a sum of at most 5 terms Γ_j/w_jn plus one product, each
    # within a few ulps (2.2e-16) of exact; 1e-12 of the largest term bounds
    # that with a wide margin.
    rng = np.random.default_rng(31)
    checked = 0
    for n in range(2, 7):
        for _ in range(20):
            g = rng.uniform(-2, 2, n)
            g[np.abs(g) < 0.1] = 1.3
            v = VorticitySet(tuple(g))
            z = _random_point(rng, n)
            lam = np.exp(1j * rng.uniform(0, 2 * np.pi)) * rng.uniform(0.5, 2.0)
            for w in (np.conj(z), _random_point(rng, n)):
                zt, wt = tuple(complex(p) for p in z), tuple(complex(p) for p in w)
                gaps = [abs(p[k] - p[j]) for p in (zt, wt) for j in range(n) for k in range(j + 1, n)]
                scale = np.abs(g).max() / min(gaps) + abs(lam) * np.abs(z).max() \
                    + np.abs(w).max() / abs(lam)
                tol = 1e-12 * scale
                pairs = (
                    (velocity_field(v, zt, wt), _loop_velocity(v, wt)),
                    (stationary_residual(v, zt, wt, lam).entries,
                     _loop_stationary_residual(v, zt, wt, lam)),
                    (complex_system_residual(ComplexConfiguration(zt, wt, lam), v).entries,
                     _loop_complex_system_residual(ComplexConfiguration(zt, wt, lam), v)),
                )
                for got, ref in pairs:
                    assert len(got) == len(ref)
                    assert np.abs(np.array(got) - np.array(ref)).max() <= tol
                checked += 1
    assert checked == 5 * 20 * 2


# ---------------------------------------------------------------------------
# Jacobians against central finite differences
# ---------------------------------------------------------------------------


def _random_point(rng, n):
    while True:
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d = np.abs(z[None, :] - z[:, None]) + np.eye(n)
        if d.min() > 0.05:
            return z


def test_physical_jacobian_matches_finite_differences():
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(100):
        n = int(rng.integers(2, 6))
        g = rng.uniform(-2, 2, n)
        g[np.abs(g) < 0.1] = 0.7
        v = VorticitySet(tuple(g))
        z = _random_point(rng, n)
        theta = rng.uniform(0, 2 * np.pi)
        J = physical_jacobian(v, z, theta)

        def pack(zz, th):
            return physical_residual_vector(v, zz, th)

        dim = 2 * n + 1
        fd = np.empty((dim, dim))
        for col in range(dim):
            dz = np.zeros(n, dtype=complex)
            dth = 0.0
            if col == dim - 1:
                dth = h
            elif col % 2 == 0:
                dz[col // 2] = h
            else:
                dz[col // 2] = 1j * h
            fd[:, col] = (pack(z + dz, theta + dth) - pack(z - dz, theta - dth)) / (2 * h)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(J - fd).max() <= 1e-6 * scale


def test_complex_jacobian_matches_finite_differences():
    rng = np.random.default_rng(22)
    h = 1e-6
    for _ in range(40):
        n = int(rng.integers(2, 5))
        g = rng.uniform(-2, 2, n)
        g[np.abs(g) < 0.1] = -0.9
        v = VorticitySet(tuple(g))
        z = _random_point(rng, n)
        w = _random_point(rng, n)
        lam = np.exp(1j * rng.uniform(0, 2 * np.pi)) * rng.uniform(0.5, 2.0)
        J = complex_jacobian(v, z, w, lam)
        dim = 2 * n + 1

        def val(zz, ww, ll):
            return complex_residual_vector(v, zz, ww, ll)

        fd = np.empty((dim, dim), dtype=complex)
        for col in range(dim):
            dz = np.zeros(n, dtype=complex)
            dw = np.zeros(n, dtype=complex)
            dl = 0j
            if col < n:
                dz[col] = h
            elif col < 2 * n:
                dw[col - n] = h
            else:
                dl = h
            fd[:, col] = (val(z + dz, w + dw, lam + dl) - val(z - dz, w - dw, lam - dl)) / (2 * h)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(J - fd).max() <= 1e-6 * scale


def test_gauge_row_gradient():
    v = VorticitySet((1.0, 1.0, 1.0))
    z = np.array([0.3 + 0.1j, 1.2 - 0.4j, -0.8 + 0.9j])
    J = physical_jacobian(v, z, 0.3)
    expected = np.zeros(7)
    expected[1] = -1.0  # y-coordinate of vortex 1
    expected[3] = 1.0   # y-coordinate of vortex 2
    assert np.array_equal(J[-1], expected)


def test_two_vortex_jacobian_nonsingular_at_solution():
    c = np.sqrt(2) / 2
    v = VorticitySet((1.0, 1.0))
    J = physical_jacobian(v, np.array([-c, c], dtype=complex), 0.0)
    assert np.linalg.cond(J) < 1e3


def test_packed_functions_take_stacks_row_by_row():
    rng = np.random.default_rng(5)
    v = VorticitySet((1.0, -2.0, 3.0, 0.5))
    z = np.array([_random_point(rng, 4) for _ in range(6)])
    w = np.array([_random_point(rng, 4) for _ in range(6)])
    theta = rng.uniform(0, 2 * np.pi, 6)
    lam = np.exp(1j * theta) * rng.uniform(0.5, 2.0, 6)
    stacked = (
        (physical_residual_vector(v, z, theta), lambda s: physical_residual_vector(v, z[s], theta[s])),
        (physical_jacobian(v, z, theta), lambda s: physical_jacobian(v, z[s], theta[s])),
        (complex_residual_vector(v, z, w, lam), lambda s: complex_residual_vector(v, z[s], w[s], lam[s])),
        (complex_jacobian(v, z, w, lam), lambda s: complex_jacobian(v, z[s], w[s], lam[s])),
    )
    for rows, one in stacked:
        assert len(rows) == 6
        for s in range(6):
            assert np.array_equal(rows[s], one(s))


def test_stacked_residual_names_first_collision_of_first_bad_row():
    v = VorticitySet((1.0, 1.0, 1.0))
    z = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]], dtype=complex)
    with pytest.raises(CollisionError) as err:
        physical_residual_vector(v, z, np.zeros(3))
    assert err.value.pair == (2, 3)
    with pytest.raises(CollisionError) as err:
        complex_residual_vector(v, z[[0]], z[[2]], np.ones(1))
    assert (err.value.pair, err.value.coordinate) == ((1, 2), "w")


def test_stacked_complex_residual_names_z_before_w():
    # z and w go through one stacked pass, z rows first: a z collision in any
    # row is named before a w collision in an earlier row.
    v = VorticitySet((1.0, 1.0, 1.0))
    clean = np.array([0.0, 1.0, 2.0], dtype=complex)
    z = np.stack([clean, clean, [0.0, 1.0, 1.0]])
    w = np.stack([[0.0, 0.0, 1.0], clean, clean])
    lam = np.ones(3)
    for zs, ws, named in (
        (z, w, ((2, 3), "z")),
        (np.stack([clean] * 3), w, ((1, 2), "w")),
        (z, np.stack([clean, clean, [0.0, 0.0, 1.0]]), ((2, 3), "z")),
    ):
        with pytest.raises(CollisionError) as err:
            complex_residual_vector(v, zs, ws, lam)
        assert (err.value.pair, err.value.coordinate) == named


def test_complex_systems_reject_zero_lambda():
    v = VorticitySet((1.0, 2.0, -1.5))
    z = np.array([0.0, 1.0, 1j])
    w = np.conj(z)
    calls = (
        lambda: complex_residual_vector(v, z, w, 0.0),
        lambda: complex_jacobian(v, z, w, 0j),
        lambda: complex_residual_vector(v, np.stack([z] * 3), np.stack([w] * 3), [1.0, 0.0, 2.0]),
        lambda: complex_jacobian(v, np.stack([z] * 2), np.stack([w] * 2), [1j, -0.0]),
        lambda: complex_system_residual(ComplexConfiguration(tuple(z), tuple(w), 0.0), v),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="Λ"):
                call()


def test_jacobians_check_nothing():
    # The residuals own the collision rule; the Jacobians evaluate whatever rows they are given.
    v = VorticitySet((1.0, 2.0, -1.5))
    z = np.array([[0.0, 5e-11, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
    theta = np.array([0.3, 1.1])
    with np.errstate(all="ignore"):
        for J in (physical_jacobian(v, z, theta), complex_jacobian(v, z, np.conj(z), np.exp(1j * theta))):
            assert J.shape == (2, 7, 7)


def _guard_stacks(rng, n):
    """z, w (12, n) and Λ (12,) with coincident points, pairs at exactly a guard, NaN rows and Λ near 0."""
    z, w = (rng.standard_normal((12, n)) + 1j * rng.standard_normal((12, n)) for _ in range(2))
    z[0, 1] = z[0, 0]                                   # coincident
    z[1, 0], z[1, n - 1] = 0.0, COLLISION_GUARD         # exactly the default guard apart
    z[2, 0], z[2, 1] = 1.0 + 0.5j, 1.25 + 0.5j          # exactly 0.25 apart
    z[3, 0] = complex(np.nan, 0.0)
    z[4, 1] = z[4, 0] + 1e-11
    z[5, 1] = z[5, 0] + 0.2
    w[3, 1] = w[3, 0]                                   # coincident, behind a NaN z gap
    w[4, 0] = complex(0.0, np.nan)                     # Python's min keeps the z gap
    w[7, 1] = w[7, 0] + 1e-11
    w[8, 0], w[8, 1] = -0.5j, 0.25 - 0.5j
    lam = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 12))
    lam[6], lam[8], lam[9], lam[2] = 0.0, -0.0, 1e-9j, 1e-8
    return z, w, lam


def _collision_message(p):
    """The CollisionError message for the one row p (1, n), by the full-array reference."""
    hit = _full_first_collision(p)
    return None if hit is None else "collision between vortices {} and {}".format(*hit[1])


@pytest.mark.parametrize("n", range(2, 7))
def test_guard_mode_returns_the_engine_guard_and_the_default_residuals(n):
    rng = np.random.default_rng(40 + n)
    v = VorticitySet(tuple(rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)))
    z, w, lam = _guard_stacks(rng, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, len(z))
    # Rows that hit divide by zero or carry NaN; numpy may warn, the kernels raise nothing.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for guard in (COLLISION_GUARD, 0.25):
            # The solver's guards before they were folded into the residuals.
            physical_hit = _min_gap(z) < guard
            gaps = _min_gap(np.concatenate([z, w]))
            gap = np.array([min(a, b) for a, b in zip(gaps[: len(z)].tolist(), gaps[len(z) :].tolist())])
            complex_hit = (np.hypot(lam.real, lam.imag) < 1e-8) | (gap < guard)

            F, hit = physical_residual_vector(v, z, theta, guard=guard)
            assert hit.dtype == bool and np.array_equal(hit, physical_hit)
            G, ghit = complex_residual_vector(v, z, w, lam, guard=guard)
            assert ghit.dtype == bool and np.array_equal(ghit, complex_hit)
            for s in range(len(z)):
                one, one_hit = physical_residual_vector(v, z[s], theta[s], guard=guard)
                assert one.tobytes() == F[s].tobytes() and one_hit == hit[s]
                one, one_hit = complex_residual_vector(v, z[s], w[s], lam[s], guard=guard)
                assert one.tobytes() == G[s].tobytes() and one_hit == ghit[s]

                # The default mode keeps its errors; where it returns, the rows agree bit for bit.
                message = _collision_message(z[s : s + 1])
                if message:
                    with pytest.raises(CollisionError, match=f"^{message} in z-coordinates$"):
                        physical_residual_vector(v, z[s], theta[s])
                else:
                    assert physical_residual_vector(v, z[s], theta[s]).tobytes() == F[s].tobytes()
                w_message = _collision_message(w[s : s + 1])
                if lam[s] == 0:
                    with pytest.raises(ValueError, match="^Λ must be nonzero; it is 0 in row 0$"):
                        complex_residual_vector(v, z[s], w[s], lam[s])
                elif message or w_message:
                    coordinate = "z" if message else "w"
                    with pytest.raises(CollisionError,
                                       match=f"^{message or w_message} in {coordinate}-coordinates$"):
                        complex_residual_vector(v, z[s], w[s], lam[s])
                else:
                    assert complex_residual_vector(v, z[s], w[s], lam[s]).tobytes() == G[s].tobytes()
            # The planted rows; no random pair comes near the default guard.
            if guard == COLLISION_GUARD:
                assert np.flatnonzero(physical_hit).tolist() == [0, 4]
                assert np.flatnonzero(complex_hit).tolist() == [0, 4, 6, 7, 8, 9]
            else:
                assert physical_hit[[0, 1, 4, 5]].all() and (n > 2 or not physical_hit[2])
    # A guard that no gap can be below would hide every collision.
    # Nor is a bool read as 0 or 1, or a value that is not a real number read at all.
    for bad in (np.nan, -1.0, True, np.True_, 1j, "0.1", np.array([0.1, 0.2])):
        with pytest.raises(ValueError, match="^guard must be None or non-negative"):
            physical_residual_vector(v, z, theta, guard=bad)
        with pytest.raises(ValueError, match="^guard must be None or non-negative"):
            complex_residual_vector(v, z, w, lam, guard=bad)


def _dense_diffs(p):
    """Reference layout: D[s, j, n] = p[s, n] - p[s, j] with a harmless 1 on each diagonal."""
    d = p[:, None, :] - p[:, :, None]
    i = np.arange(p.shape[1])
    d[:, i, i] = 1.0
    return d


def _full_min_gap(p):
    """Reference: smallest separation over the full N×N array, diagonal masked."""
    d = np.abs(p[:, None, :] - p[:, :, None])
    d[:, np.arange(p.shape[1]), np.arange(p.shape[1])] = np.inf
    return d.min(axis=(1, 2))


def _full_first_collision(p):
    """Reference: (row, (j, k)) of the first pair below the guard, in index order,
    of the first row whose smallest separation is below it, over the full N×N array."""
    dist = np.abs(_dense_diffs(p))
    close = dist.min(axis=(1, 2)) < COLLISION_GUARD
    if not close.any():
        return None
    row = int(np.argmax(close))
    j, k = np.argwhere(dist[row] < COLLISION_GUARD)[0]
    return row, (int(j) + 1, int(k) + 1)


def test_pair_separations_match_full_reference():
    rng = np.random.default_rng(20)
    for n in range(2, 8):
        for _ in range(40):
            p = rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n))
            # A NaN row, then coincident points, points closer than the guard
            # and ±0 coordinates, some rows getting several and the NaN row too.
            p[int(rng.integers(8)), int(rng.integers(n))] = complex(np.nan, 0.0)
            for row in rng.integers(8, size=6):
                j, k = rng.choice(n, size=2, replace=False)
                kind = rng.integers(4)
                if kind == 0:
                    p[row, k] = p[row, j]
                elif kind == 1:
                    p[row, k] = p[row, j] + 1e-11
                elif kind == 2:
                    p[row, j], p[row, k] = complex(0.0, -0.0), complex(-0.0, 0.0)
                else:
                    p[row, j] = complex(-0.0, p[row, j].imag)
            assert _min_gap(p).tobytes() == _full_min_gap(p).tobytes()
            with np.errstate(all="ignore"):
                assert _velocity_np(np.ones(n), p)[1].tobytes() == _min_gap(p).tobytes()
            # One coordinate name per row, so the error names the row too.
            names = tuple(str(r) for r in range(len(p)))
            expected = _full_first_collision(p)
            if expected is None:
                _check_separated(p, *names)
                continue
            with pytest.raises(CollisionError) as err:
                _check_separated(p, *names)
            assert (int(err.value.coordinate), err.value.pair) == expected


def _dense_velocity(g, p):
    """Reference: full N×N reciprocals 1 / w_jn, 0 on the diagonal, summed over j in index order."""
    n = p.shape[1]
    inv = 1.0 / _dense_diffs(p)
    inv[:, np.arange(n), np.arange(n)] = 0.0
    V = np.zeros_like(inv[:, 0])
    for j in range(n):
        V += g[j] * inv[:, j]
    return V


def _adversarial_positions(rng, rows, n):
    """Stack (rows, n) of points whose differences stress the pair kernels."""
    p = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    # Separations from about 1e-9 to 1e150, one scale per row, some rows
    # a cluster of size 1e-9 about an offset of order 1.
    p *= 10.0 ** rng.uniform(-9.0, 150.0, (rows, 1))
    cluster = rng.random(rows) < 0.2
    p[cluster] = rng.standard_normal() + 1e-9 * p[cluster] / np.abs(p[cluster]).max(
        axis=1, keepdims=True)
    # Exact zero parts in the differences: shared real or imaginary
    # parts, ±0 coordinates and coincident points.
    for row in rng.integers(rows, size=max(1, rows // 2)):
        j, k = rng.choice(n, size=2, replace=False)
        kind = rng.integers(5)
        if kind == 0:
            p[row, k] = complex(p[row, j].real, p[row, k].imag)
        elif kind == 1:
            p[row, k] = complex(p[row, k].real, p[row, j].imag)
        elif kind == 2:
            p[row, j], p[row, k] = complex(0.0, -0.0), complex(-0.0, 0.0)
        elif kind == 3:
            p[row, j] = complex(-0.0, p[row, j].imag)
        else:
            p[row, k] = p[row, j]
    return p


@pytest.mark.parametrize("rows", [1, 7, 700])
def test_velocity_matches_dense_reference(rows):
    # One reciprocal per pair, negated for the other order, gives the dense
    # kernel's bits wherever they are finite, zero signs included.
    rng = np.random.default_rng(22 + rows)
    finite = total = 0
    for n in range(2, 13):
        for _ in range(max(1, 70 // rows)):
            p = _adversarial_positions(rng, rows, n)
            g = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
            g[rng.integers(n)] = rng.choice([0.0, -0.0, -1.5])
            with np.errstate(all="ignore"):
                expected, got = _dense_velocity(g, p), _velocity_np(g, p)[0]
            keep = np.isfinite(expected)
            assert got[keep].tobytes() == expected[keep].tobytes()
            finite, total = finite + keep.sum(), total + keep.size
    assert finite > 0.8 * total


@pytest.mark.parametrize("rows", [1, 7, 700])
def test_velocity_derivative_matches_dense_reference(rows):
    # One square per pair, written at both orders, gives the dense kernel's
    # bits wherever they are finite, and the row sum on the diagonal with them.
    rng = np.random.default_rng(22 + rows)  # the velocity test's positions
    finite = total = 0
    for n in range(2, 13):
        for _ in range(max(1, 70 // rows)):
            p = _adversarial_positions(rng, rows, n)
            # Nonzero strengths only: VorticitySet forbids Γ_j = 0.
            g = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
            g[rng.integers(n)] = rng.choice([-1.5, 1.0, 1e-300])
            with np.errstate(all="ignore"):
                expected = g / _dense_diffs(p) ** 2
                i = np.arange(n)
                expected[:, i, i] = 0.0
                expected[:, i, i] = -expected.sum(axis=2)
                got = _velocity_derivative(g, p)
            keep = np.isfinite(expected)
            assert got[keep].tobytes() == expected[keep].tobytes()
            finite, total = finite + keep.sum(), total + keep.size
    assert finite > 0.8 * total


def test_velocity_sum_matches_numpy_reduction():
    # The velocity kernel adds its terms one j at a time, in the order numpy's
    # sum over that axis takes, so the two agree bit for bit, zero signs included.
    rng = np.random.default_rng(21)
    for n in range(2, 9):
        p = rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n))
        p[::5] = np.linspace(-1.0, 1.0, n)                  # symmetric rows: exact zeros in V
        p[1::5, 0] = complex(-0.0, -0.0)
        for g in (rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n), np.full(n, -1.5)):
            inv = 1.0 / _dense_diffs(p)
            inv[:, np.arange(n), np.arange(n)] = 0.0
            reference = (g[:, None] * inv).sum(axis=1)
            assert _velocity_np(g, p)[0].tobytes() == reference.tobytes()


def test_kernels_name_a_strength_beyond_the_float_range():
    # float() of the strengths raised OverflowError once.
    v = VorticitySet((2, 10**400, 3))
    z = (0j, 1 + 0j, 2j)
    w = conjugate_positions(z)
    for call in (lambda: velocity_field(v, z, w),
                 lambda: stationary_residual(v, z, w, 1.0),
                 lambda: complex_system_residual(ComplexConfiguration(z, w, 1.0), v),
                 lambda: physical_residual_vector(v, np.array(z), 0.0),
                 lambda: physical_jacobian(v, np.array(z), 0.0),
                 lambda: complex_jacobian(v, z, w, 1.0)):
        with pytest.raises(ValueError, match="^vorticity entry 2 is beyond the float range$"):
            call()


def test_residual_norm_reads_the_row_layout():
    from vortexcc.system import _residual_norm

    rng = np.random.default_rng(3)
    nan = float("nan")
    F = rng.normal(size=(6, 7)) * 10.0 ** rng.integers(-3, 4, size=(6, 7))
    F[1, -1] = 1e6              # the gauge row is the largest entry
    F[2, -1] = nan              # a NaN gauge loses to the pairs, as in Python's max
    F[3, 2] = nan               # a NaN pair wins
    F[4, :] = 0.0
    for rows in (F, F[:, :-1]):
        expected = []
        for row in rows.tolist():
            moduli = np.max([np.hypot(a, b) for a, b in zip(row[0::2], row[1::2])])
            expected.append(max(moduli, abs(row[-1])) if len(row) % 2 else moduli)
        assert _residual_norm(rows).tobytes() == np.array(expected).tobytes()
    # Complex rows are taken as they are, the last entry included.
    C = F[:, :-1:2] + 1j * F[:, 1::2]
    assert _residual_norm(C).tobytes() == np.abs(C).max(axis=1).tobytes()
