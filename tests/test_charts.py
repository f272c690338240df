import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resonance_lab import charts, invariants, model, normalform
from resonance_lab.charts import (
    AndoyerPoint,
    ChartDomainError,
    DegenerateEccentricityError,
    DelaunayPoint,
    EulerPoint,
)
from resonance_lab.model import numerical_jacobian
from resonance_lab.verify import (
    OMEGA_MATRIX,
    random_andoyer,
    random_delaunay,
    random_euler,
)

TWO_PI = 2 * math.pi


def angdiff(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


class TestEulerChart:
    def test_forward_example(self):
        ep = EulerPoint(rho=1.0, phi=0.0, theta=math.pi / 2, psi=0.0,
                        P=0.0, Phi=0.0, Theta=0.0, Psi=0.0)
        s = charts.euler_to_cartesian(ep)
        assert s.q == pytest.approx((math.sqrt(2) / 2, 0.0, 0.0, math.sqrt(2) / 2))
        assert s.Q == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-15)

    def test_roundtrip(self, rng):
        worst = 0.0
        for _ in range(1000):
            ep = random_euler(rng)
            s = charts.euler_to_cartesian(ep)
            ep2 = charts.cartesian_to_euler(s)
            worst = max(worst,
                        abs(ep.rho - ep2.rho), angdiff(ep.phi, ep2.phi),
                        abs(ep.theta - ep2.theta), abs(ep.psi - ep2.psi),
                        abs(ep.P - ep2.P), abs(ep.Phi - ep2.Phi),
                        abs(ep.Theta - ep2.Theta), abs(ep.Psi - ep2.Psi))
        assert worst < 1e-10

    def test_singular_theta_rejected(self):
        ep = EulerPoint(rho=1.0, phi=0.0, theta=1e-9, psi=0.0,
                        P=0.0, Phi=0.0, Theta=0.0, Psi=0.0)
        with pytest.raises(ChartDomainError):
            charts.euler_to_cartesian(ep)
        with pytest.raises(ChartDomainError):
            charts.cartesian_to_euler(model.CartesianState(q=(1, 0, 0, 0), Q=(0, 0, 0, 0)))


class TestAndoyerChart:
    def test_pole_free_configuration(self):
        # with both projections zero, cos(theta) = cos(u2); at u2 = pi/2 the
        # image sits on the equator theta = pi/2
        ap = AndoyerPoint(rho=1.0, u1=0.3, u2=math.pi / 2, u3=0.8,
                          P=0.0, U1=0.0, U2=1.0, U3=0.0)
        ep = charts.andoyer_to_euler(ap)
        assert math.cos(ep.theta) == pytest.approx(0.0, abs=1e-15)

    def test_roundtrip(self, rng):
        worst = 0.0
        for _ in range(1000):
            ap = random_andoyer(rng)
            ep = charts.andoyer_to_euler(ap)
            ap2 = charts.euler_to_andoyer(ep)
            worst = max(worst,
                        abs(ap.rho - ap2.rho), angdiff(ap.u1, ap2.u1),
                        angdiff(ap.u2, ap2.u2), angdiff(ap.u3, ap2.u3),
                        abs(ap.P - ap2.P), abs(ap.U1 - ap2.U1),
                        abs(ap.U2 - ap2.U2), abs(ap.U3 - ap2.U3))
        assert worst < 1e-10

    def test_momentum_magnitude_identity(self, rng):
        # Theta^2 + (Psi^2 + Phi^2 - 2 Psi Phi cos th)/sin^2 th == U2^2
        for _ in range(200):
            ap = random_andoyer(rng)
            ep = charts.andoyer_to_euler(ap)
            st = math.sin(ep.theta)
            val = ep.Theta ** 2 + (ep.Psi ** 2 + ep.Phi ** 2
                                   - 2 * ep.Phi * ep.Psi * math.cos(ep.theta)) / st ** 2
            assert val == pytest.approx(ap.U2 ** 2, rel=1e-12, abs=1e-12)

    def test_domain_guard(self):
        ap = AndoyerPoint(rho=1.0, u1=0.0, u2=1.0, u3=0.0,
                          P=0.0, U1=1.0, U2=1.0, U3=0.0)
        with pytest.raises(ChartDomainError):
            charts.andoyer_to_euler(ap)


class TestKepler:
    def test_zero_anomaly(self):
        for e in (0.0, 0.3, 0.9, 0.999):
            assert charts.kepler_solve(0.0, e) == 0.0

    def test_circular(self):
        for ell in (-2.0, 0.5, 4.0, 12.0):
            assert charts.kepler_solve(ell, 0.0) == ell

    def test_residual_and_value(self):
        E = charts.kepler_solve(math.pi / 2, 0.5)
        assert abs(E - 0.5 * math.sin(E) - math.pi / 2) < 1e-13
        assert E == pytest.approx(2.020979938089770, abs=1e-12)

    def test_continuity_branch(self):
        e = 0.7
        for k in (-2, -1, 1, 3):
            base = charts.kepler_solve(1.1, e)
            assert charts.kepler_solve(1.1 + TWO_PI * k, e) == pytest.approx(
                base + TWO_PI * k, abs=1e-12)

    def test_high_eccentricity(self, rng):
        for _ in range(200):
            e = float(rng.uniform(0.95, 0.999))
            ell = float(rng.uniform(-math.pi, math.pi))
            E = charts.kepler_solve(ell, e)
            assert abs(E - e * math.sin(E) - ell) < 1e-13

    def test_domain(self):
        with pytest.raises(ValueError):
            charts.kepler_solve(1.0, 1.0)


class TestKeplerCache:
    """Array solves are remembered by the exact bytes of (ell, e); scalars are not."""

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        charts._kepler_cached.cache_clear()

    def test_hit_is_a_copy_of_a_fresh_solve(self, rng):
        ell = rng.uniform(-20.0, 20.0, 64)
        e = 0.7
        fresh = charts._kepler_newton(ell, np.float64(e))
        first = charts.kepler_solve(ell, e)
        first[:] = 0.0  # a caller's write must not reach the cache
        hit = charts.kepler_solve(ell.copy(), e)
        assert charts._kepler_cached.cache_info().hits == 1
        assert hit.tobytes() == fresh.tobytes()
        hit[:] = 0.0
        assert charts.kepler_solve(ell, e).tobytes() == fresh.tobytes()

    def test_size_is_bounded(self):
        nodes = np.linspace(0.0, TWO_PI, 16)
        for k in range(20):
            charts.kepler_solve(nodes, 0.04 * k)
        assert charts._kepler_cached.cache_info().currsize == 8

    def test_scalars_and_failures_store_nothing(self):
        charts.kepler_solve(0.3, 0.5)
        with pytest.raises(ChartDomainError):
            charts.kepler_solve(np.array([0.1, 0.2]), 1.0)
        assert charts._kepler_cached.cache_info().currsize == 0


def _kepler_former_seed(ell, e):
    """The solve as it was before Markley's starter, kept as a reference.

    Seed m + e sin m, or (6 m)^(1/3) where m < 0.25 and e > 0.8, then the
    same safeguarded Newton loop as ``charts._kepler_newton``.
    """
    xp = charts._ns(ell, e)
    k = xp.floor((ell + math.pi) / TWO_PI)
    m = ell - TWO_PI * k
    sign = xp.where(m < 0.0, -1.0, 1.0)
    m = xp.abs(m)
    E = xp.where((m < 0.25) & (e > 0.8), (6.0 * m) ** (1.0 / 3.0), m + e * xp.sin(m))
    lo, hi = 0.0, math.pi
    for _ in range(charts._KEPLER_MAX_ITER):
        f = E - e * xp.sin(E) - m
        moving = xp.abs(f) >= charts._KEPLER_TOL
        if not xp.any(moving):
            break
        above = f > 0.0
        hi = xp.where(above, xp.minimum(hi, E), hi)
        lo = xp.where(above, lo, xp.maximum(lo, E))
        E_new = E - f / (1.0 - e * xp.cos(E))
        E_new = xp.where((lo <= E_new) & (E_new <= hi), E_new, 0.5 * (lo + hi))
        E = xp.where(moving, E_new, E)
    return charts._value(xp.where(e == 0.0, ell, sign * E + TWO_PI * k))


# e from 0 to 0.999 and then up to one ulp below 1
_DENSE_E = np.concatenate([np.linspace(0.0, 0.999, 60), 1.0 - np.logspace(-3.0, -16.0, 27)])
# m over [-pi, pi] with 0 and both ends, then shifted by whole turns
_DENSE_M = np.union1d(np.linspace(-math.pi, math.pi, 61), [0.0, -math.pi, math.pi])
_DENSE_ELL = np.concatenate([_DENSE_M + TWO_PI * k for k in (-5, -2, 0, 1, 3, 40)])
# any e in [0, 1), with a share right next to 1
_ANY_E = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                   st.floats(-16.0, 0.0).map(lambda p: 1.0 - 10.0 ** p))


class TestKeplerStart:
    """Markley's starter lands within tolerance, so the Newton loop only checks it."""

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        charts._kepler_cached.cache_clear()

    def test_the_loop_only_checks(self, monkeypatch):
        ell, e = (a.ravel() for a in np.meshgrid(_DENSE_ELL, _DENSE_E))
        arr = charts.kepler_solve(ell, e)
        one = [charts.kepler_solve(a, b) for a, b in zip(ell.tolist(), e.tolist())]
        monkeypatch.setattr(charts, "_KEPLER_MAX_ITER", 0)
        charts._kepler_cached.cache_clear()
        assert charts.kepler_solve(ell, e).tobytes() == arr.tobytes()
        assert [charts.kepler_solve(a, b) for a, b in zip(ell.tolist(), e.tolist())] == one

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-math.pi, math.pi), _ANY_E), min_size=1, max_size=40))
    def test_residual_in_both_namespaces(self, pairs):
        ells, es = (np.array(v) for v in zip(*pairs))
        E = charts.kepler_solve(ells, es)
        assert np.all(np.abs(E - es * np.sin(E) - ells) < 1e-14)
        for ell, e in pairs:
            E = charts.kepler_solve(ell, e)
            assert abs(E - e * math.sin(E) - ell) < 1e-14

    # numpy warns on inf - inf when it reduces an infinite ell to (-pi, pi];
    # at e = 0 the solve returns ell itself, so an infinite ell stays infinite
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([math.nan, math.inf, -math.inf]),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_non_finite_ell_gives_nan(self, ell, e):
        assert math.isnan(charts.kepler_solve(ell, e))
        assert np.isnan(charts.kepler_solve(np.array([ell, 0.5]), e)[0])

    def test_moves_within_the_tolerance_of_the_former_seed(self):
        rng = np.random.default_rng(20260)
        ell = rng.uniform(-30.0, 30.0, 10000)
        e = np.where(rng.random(10000) < 0.5, rng.uniform(0.0, 1.0, 10000),
                     1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 10000))
        new = charts.kepler_solve(ell, e)
        bound = 1e-13 / (1.0 - e * np.cos(new))
        assert np.all(np.abs(new - _kepler_former_seed(ell, e)) <= bound)
        for a, b, tol in zip(ell.tolist(), e.tolist(), bound.tolist()):
            assert abs(charts.kepler_solve(a, b) - _kepler_former_seed(a, b)) <= tol


class TestDelaunayChart:
    def test_circular_radial_block(self):
        gamma = 1.0
        dp = DelaunayPoint(ell=0.7, g=0.4, u1=0.1, u3=0.2, L=1.0, G=1.0, U1=0.2, U3=-0.3)
        ap = charts.delaunay_to_andoyer(dp, gamma)
        assert ap.rho == pytest.approx(1.0, abs=1e-14)  # a = L^2/gamma
        assert ap.P == pytest.approx(0.0, abs=1e-14)
        assert angdiff(ap.u2, dp.g + dp.ell) < 1e-13

    def test_radial_example(self):
        e, E = 0.5, math.pi / 2
        eta = math.sqrt(1 - e * e)
        dp = DelaunayPoint(ell=E - e * math.sin(E), g=0.3, u1=1.0, u3=2.0,
                           L=1.0, G=eta, U1=0.2 * eta, U3=-0.1 * eta)
        ap = charts.delaunay_to_andoyer(dp, 1.0)
        assert ap.rho == pytest.approx(1.0, abs=1e-13)
        assert ap.P == pytest.approx(0.5, abs=1e-13)

    def test_roundtrip(self, rng):
        worst = 0.0
        for _ in range(1000):
            dp = random_delaunay(rng)
            gamma = float(rng.uniform(0.5, 1.5))
            ap = charts.delaunay_to_andoyer(dp, gamma)
            dp2 = charts.andoyer_to_delaunay(ap, gamma)
            worst = max(worst,
                        angdiff(dp.ell, dp2.ell), angdiff(dp.g, dp2.g),
                        angdiff(dp.u1, dp2.u1), angdiff(dp.u3, dp2.u3),
                        abs(dp.L - dp2.L), abs(dp.G - dp2.G),
                        abs(dp.U1 - dp2.U1), abs(dp.U3 - dp2.U3))
        assert worst < 1e-9

    def test_degenerate_eccentricity_on_inverse(self):
        ap = AndoyerPoint(rho=1.0, u1=0.0, u2=0.5, u3=0.0, P=0.0,
                          U1=0.1, U2=1.0, U3=0.0)
        with pytest.raises(DegenerateEccentricityError):
            charts.andoyer_to_delaunay(ap, 1.0)

    def test_unbound_rejected(self):
        ap = AndoyerPoint(rho=1.0, u1=0.0, u2=0.5, u3=0.0, P=5.0,
                          U1=0.1, U2=1.0, U3=0.0)
        with pytest.raises(ChartDomainError):
            charts.andoyer_to_delaunay(ap, 1.0)


class TestComposedEnergy:
    def test_value(self, rng):
        dp = random_delaunay(rng)
        dp = DelaunayPoint(ell=dp.ell, g=dp.g, u1=dp.u1, u3=dp.u3,
                           L=2.0, G=dp.G * 2.0 / dp.L, U1=0.0, U3=0.0)
        assert charts.composed_h0(dp, 1.0) == pytest.approx(-1.0 / 8.0, abs=1e-13)

    def test_angle_independence(self, rng):
        L, eta = 1.4, 0.7
        G = eta * L
        vals = [charts.composed_h0(
            DelaunayPoint(ell=float(rng.uniform(0, TWO_PI)), g=float(rng.uniform(0, TWO_PI)),
                          u1=float(rng.uniform(0, TWO_PI)), u3=float(rng.uniform(0, TWO_PI)),
                          L=L, G=G, U1=0.3 * G, U3=-0.5 * G), 1.0)
            for _ in range(100)]
        assert max(vals) - min(vals) < 1e-10

    def test_on_shell_condition(self):
        # -gamma^2/(2L^2) = -omega/8 at L = 2 gamma (omega = 1)
        gamma = 0.7
        dp = DelaunayPoint(ell=0.3, g=0.9, u1=0.0, u3=0.0,
                           L=2 * gamma, G=1.2 * gamma, U1=0.0, U3=0.0)
        assert charts.composed_h0(dp, gamma) == pytest.approx(-1.0 / 8.0, abs=1e-14)


class TestConnection:
    def test_value(self):
        iv = model.IntegralValues(n=1.0, xi=1e-15, l=1e-15)
        assert charts.connection_G(0.0, 0.0, iv) == pytest.approx(1 / (2 * math.sqrt(2)))

    def test_full_chain_identity(self, rng):
        worst = 0.0
        for _ in range(100):
            dp = random_delaunay(rng)
            gamma = 1.0
            s = charts.delaunay_to_cartesian(dp, gamma)
            pt = invariants.thrice_map(invariants.klj_map(invariants.pi_map(s)))
            worst = max(worst, abs(charts.connection_G(pt.K, pt.N, pt.integrals) - dp.G))
        assert worst < 1e-10

    def test_boundary_rejected(self):
        iv = model.IntegralValues(n=1.0, xi=0.0, l=0.0)
        # N at the G = 0 boundary: radicand = 0
        with pytest.raises(ChartDomainError):
            charts.connection_G(0.0, 0.5, iv)


class TestIdentification:
    def test_frozen_constants(self, rng):
        # measure the linear map (U1, U3) -> (Xi, L1) through the full chain
        A, B = [], []
        for _ in range(12):
            dp = random_delaunay(rng)
            s = charts.delaunay_to_cartesian(dp, 1.0)
            xi, l1 = model.first_integrals(s)
            A.append([dp.U1, dp.U3])
            B.append([xi, l1])
        coef, *_ = np.linalg.lstsq(np.array(A), np.array(B), rcond=None)
        assert coef[1][0] == pytest.approx(charts.XI_PER_PSI, abs=1e-10)   # dXi/dU3
        assert coef[0][1] == pytest.approx(charts.L1_PER_PHI, abs=1e-10)   # dL1/dU1
        assert abs(coef[0][0]) < 1e-10 and abs(coef[1][1]) < 1e-10
        xi, l1 = charts.integrals_from_momenta(0.25, -0.5)
        assert (xi, l1) == (1.0, -0.5)


class TestSymplecticity:
    def test_all_three_charts(self, rng):
        def euler_fn(x):
            ep = EulerPoint(*x)
            return charts.euler_to_cartesian(ep).as_array()

        def andoyer_fn(x):
            ap = AndoyerPoint(*x)
            ep = charts.andoyer_to_euler(ap)
            return np.array(ep)

        def delaunay_fn(x):
            dp = DelaunayPoint(*x)
            ap = charts.delaunay_to_andoyer(dp, 1.0)
            return np.array(ap)

        worst = 0.0
        done = 0
        while done < 25:
            ep = random_euler(rng)
            x = np.array(ep)
            J = numerical_jacobian(euler_fn, x, h=3e-6)
            worst = max(worst, float(np.max(np.abs(J.T @ OMEGA_MATRIX @ J - OMEGA_MATRIX))))
            ap = random_andoyer(rng)
            x = np.array(ap)
            try:
                J = numerical_jacobian(andoyer_fn, x, h=3e-6)
            except ChartDomainError:
                continue
            worst = max(worst, float(np.max(np.abs(J.T @ OMEGA_MATRIX @ J - OMEGA_MATRIX))))
            dp = random_delaunay(rng)
            x = np.array(dp)
            J = numerical_jacobian(delaunay_fn, x, h=3e-6)
            worst = max(worst, float(np.max(np.abs(J.T @ OMEGA_MATRIX @ J - OMEGA_MATRIX))))
            done += 1
        assert worst < 1e-8


def _cotangent_lift_by_solve(ep):
    """Momenta of ``euler_to_cartesian`` from a 4x4 linear solve of A^T Q = p."""
    q1, q2, q3, q4 = charts.euler_to_cartesian(ep).q
    inv2rho = 0.5 / ep.rho
    cot = 1.0 / math.tan(0.5 * ep.theta)
    tan = math.tan(0.5 * ep.theta)
    a = np.array([
        [q1 * inv2rho, -0.5 * q2, 0.5 * cot * q1, 0.5 * q2],
        [q2 * inv2rho, 0.5 * q1, 0.5 * cot * q2, -0.5 * q1],
        [q3 * inv2rho, 0.5 * q4, -0.5 * tan * q3, 0.5 * q4],
        [q4 * inv2rho, -0.5 * q3, -0.5 * tan * q4, -0.5 * q3],
    ])
    return np.linalg.solve(a.T, [ep.P, ep.Phi, ep.Theta, ep.Psi])


# an ell far outside (-pi, pi]: a principal value plus whole turns
_FAR_ELL = st.builds(lambda m, k: m + TWO_PI * k, st.floats(-math.pi, math.pi), st.integers(-8, 8))


class TestArrayChain:
    """Array fields run the same forward chain as scalar ones, element by element."""

    @staticmethod
    def _check_kepler(ells, es):
        got = charts.kepler_solve(np.array(ells), np.array(es))
        assert got.shape == (len(ells),)
        for E, ell, e in zip(got, ells, es):
            one = charts.kepler_solve(ell, e)
            assert type(one) is float
            # two converged Newton runs differ by at most ~tol / f'(E)
            assert abs(E - one) <= 1e-13 / (1.0 - e * math.cos(one))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_FAR_ELL, st.floats(0.0, 0.999)), min_size=1, max_size=40))
    def test_kepler_array_matches_scalar(self, pairs):
        self._check_kepler(*zip(*pairs))

    # The name recalls the former cubic seed (6 m)^(1/3), used where m < 0.25
    # and e > 0.8.  Markley's starter replaced it, but that corner, near the
    # cusp of Kepler's equation at e -> 1, is still the hard one.
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-0.25, 0.25), st.integers(-8, 8)), min_size=1, max_size=40),
           st.floats(0.8, 0.9999, exclude_min=True))
    def test_kepler_array_matches_scalar_on_the_cubic_seed(self, turns, e):
        ells = [m + TWO_PI * k for m, k in turns]
        self._check_kepler(ells, [e] * len(ells))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.lists(_FAR_ELL, min_size=1, max_size=32))
    def test_delaunay_to_cartesian_array_matches_scalar(self, seed, ells):
        rng = np.random.default_rng(seed)
        dp = random_delaunay(rng)
        gamma = float(rng.uniform(0.5, 1.5))
        arr = charts.delaunay_to_cartesian(dp._replace(ell=np.array(ells)), gamma)
        for j, ell in enumerate(ells):
            one = charts.delaunay_to_cartesian(dp._replace(ell=ell), gamma)
            assert all(type(v) is float for v in one.q + one.Q)
            got = np.array([v[j] for v in arr.q + arr.Q])
            assert np.max(np.abs(got - np.array(one.q + one.Q))) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.1, 5.0), st.floats(-10.0, 10.0), st.floats(0.01, math.pi - 0.01),
           st.floats(-10.0, 10.0), st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
    def test_cotangent_lift_matches_linear_solve(self, rho, phi, theta, psi, momenta):
        ep = EulerPoint(rho, phi, theta, psi, *momenta)
        want = _cotangent_lift_by_solve(ep)
        got = np.array(charts.euler_to_cartesian(ep).Q)
        # the (phi, psi) block of A^T A has condition number ~ 1/sin(theta)^2
        scale = max(1.0, float(np.max(np.abs(want)))) / math.sin(theta) ** 2
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.2, math.pi - 0.2), min_size=1, max_size=30),
           st.integers(0, 30), st.floats(-1e-9, 1e-9))
    def test_one_node_in_a_guard_band_raises(self, ells, where, bad_ell):
        # circular orbit, U1 = U3 = 0 and g = 0: the Euler image has theta = ell,
        # so a node within 1e-9 of ell = 0 lies in the guard band of theta = 0
        where %= len(ells) + 1
        good = DelaunayPoint(ell=np.array(ells), g=0.0, u1=0.3, u3=0.4,
                             L=1.0, G=1.0, U1=0.0, U3=0.0)
        charts.delaunay_to_cartesian(good, 1.0)
        bad = good._replace(ell=np.insert(good.ell, where, bad_ell))
        with pytest.raises(ChartDomainError):
            charts.delaunay_to_cartesian(bad, 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fields", [
        {"ell": math.nan}, {"ell": math.inf}, {"g": math.inf}, {"G": math.nan},
        {"L": math.inf, "G": math.inf}, {"u1": math.nan},
        {"u2": math.inf}, {"phi": math.inf},
    ])
    def test_non_finite_fields_fail_alike_on_scalars_and_arrays(self, fields):
        # the scalar namespace passes NaN and inf through floor, rint, minimum,
        # maximum, sin and cos as numpy does, so the same guard fires on both
        # paths; each case starts from the first chart that has its fields
        base = next(pt for pt in _NON_FINITE_BASES if set(fields) <= set(pt._fields))
        outcomes = []
        for wrap in (float, lambda v: np.array([v])):
            pt = base._replace(**{k: wrap(v) for k, v in fields.items()})
            try:
                st8 = _TO_CARTESIAN[type(pt)](pt)
                outcomes.append(np.isnan(np.ravel(st8.q + st8.Q)).tolist())
            except ChartDomainError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert math.isnan(charts.kepler_solve(fields.get("ell", math.nan), 0.5))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.one_of(_FAR_ELL, st.lists(_FAR_ELL, min_size=1, max_size=32)))
    def test_positions_are_the_q_of_the_full_chain(self, seed, ell):
        rng = np.random.default_rng(seed)
        dp = random_delaunay(rng)._replace(ell=ell if isinstance(ell, float) else np.array(ell))
        gamma = float(rng.uniform(0.5, 1.5))
        q = charts.delaunay_to_positions(dp, gamma)
        full = charts.delaunay_to_cartesian(dp, gamma).q
        assert [type(v) for v in q] == [type(v) for v in full]
        assert [np.asarray(v).tobytes() for v in q] == [np.asarray(v).tobytes() for v in full]

    @pytest.mark.parametrize("ell", [1e-10, np.array([0.5, -1e-10, 2.0])])
    def test_positions_raise_like_the_full_chain_in_the_guard_band(self, ell):
        # circular orbit with U1 = U3 = 0 and g = 0: theta = ell, so ell near 0
        # puts the Euler image within the guard band of theta = 0
        dp = DelaunayPoint(ell=ell, g=0.0, u1=0.3, u3=0.4, L=1.0, G=1.0, U1=0.0, U3=0.0)
        with pytest.raises(ChartDomainError) as full:
            charts.delaunay_to_cartesian(dp, 1.0)
        with pytest.raises(ChartDomainError) as positions:
            charts.delaunay_to_positions(dp, 1.0)
        assert str(positions.value) == str(full.value)


_NON_FINITE_BASES = (
    DelaunayPoint(ell=0.3, g=0.1, u1=0.2, u3=0.4, L=1.0, G=0.8, U1=0.1, U3=0.1),
    AndoyerPoint(rho=1.0, u1=0.3, u2=1.1, u3=0.8, P=0.1, U1=0.1, U2=1.0, U3=0.2),
    EulerPoint(rho=1.0, phi=0.4, theta=1.0, psi=0.3, P=0.1, Phi=0.1, Theta=0.2, Psi=0.3),
)
_TO_CARTESIAN = {
    DelaunayPoint: lambda dp: charts.delaunay_to_cartesian(dp, 1.0),
    AndoyerPoint: lambda ap: charts.euler_to_cartesian(charts.andoyer_to_euler(ap)),
    EulerPoint: charts.euler_to_cartesian,
}


class TestValueRecords:
    """The per-sample records are immutable tuples whose field order is fixed."""

    RECORDS = [
        (EulerPoint, "rho phi theta psi P Phi Theta Psi"),
        (AndoyerPoint, "rho u1 u2 u3 P U1 U2 U3"),
        (DelaunayPoint, "ell g u1 u3 L G U1 U3"),
        (invariants.PiVector, " ".join(f"pi{i}" for i in range(1, 17))),
        (invariants.KLJVector, "h2 xi k1 k2 k3 l1 l2 l3 j1 j2 j3 j4 j5 j6 j7 j8"),
        (invariants.ThriceReducedPoint, "M N Z S K integrals"),
        (normalform.DelaunayTangent, "ell g u1 u3 L G U1 U3"),
    ]

    @pytest.mark.parametrize("cls, names", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
    def test_field_order_is_pinned(self, cls, names):
        # the maps build these records positionally, in this order
        assert cls._fields == tuple(names.split())

    @pytest.mark.parametrize("cls, names", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
    def test_fields_cannot_be_assigned(self, cls, names):
        rec = cls(*range(len(cls._fields)))
        with pytest.raises(AttributeError):
            setattr(rec, cls._fields[0], 1.0)
        assert rec == tuple(range(len(cls._fields)))
