import math
import warnings

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
        def euler_fn(*x):
            s = charts.euler_to_cartesian(EulerPoint(*x))
            return s.q + s.Q

        def andoyer_fn(*x):
            return charts.andoyer_to_euler(AndoyerPoint(*x))

        def delaunay_fn(*x):
            return charts.delaunay_to_andoyer(DelaunayPoint(*x), 1.0)

        worst = 0.0
        done = 0
        while done < 25:
            ep = random_euler(rng)
            J = model._complex_step_jacobian(euler_fn, ep)
            worst = max(worst, float(np.max(np.abs(J.T @ OMEGA_MATRIX @ J - OMEGA_MATRIX))))
            ap = random_andoyer(rng)
            try:
                J = model._complex_step_jacobian(andoyer_fn, ap)
            except ChartDomainError:
                continue
            worst = max(worst, float(np.max(np.abs(J.T @ OMEGA_MATRIX @ J - OMEGA_MATRIX))))
            dp = random_delaunay(rng)
            J = model._complex_step_jacobian(delaunay_fn, dp)
            worst = max(worst, float(np.max(np.abs(J.T @ OMEGA_MATRIX @ J - OMEGA_MATRIX))))
            done += 1
        assert worst < 1e-8


# -- the complex-step path of the forward chain ---------------------------------------

H = model._COMPLEX_STEP


def _central_difference(fn, x, h=1e-6):
    """Jacobian of fn (len(x) scalars in, a sequence out) by central differences.

    Independent of the complex-step path it checks: every evaluation is real.
    """
    x = np.array(x, dtype=float)
    cols = []
    for k in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        cols.append((np.array(fn(*xp)) - np.array(fn(*xm))) / (2.0 * h))
    return np.array(cols).T


class TestComplexStep:
    def test_chain_jacobian_matches_a_central_difference(self, rng):
        def chain(*x):
            s = charts.delaunay_to_cartesian(DelaunayPoint(*x), 0.9)
            return s.q + s.Q

        for _ in range(20):
            dp = random_delaunay(rng)
            J = model._complex_step_jacobian(chain, dp)
            np.testing.assert_allclose(J, _central_difference(chain, dp), rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("n", [None, 512], ids=["scalar", "array"])
    def test_kepler_derivatives(self, rng, n):
        ell = rng.uniform(-20.0, 20.0, 512)
        e = rng.uniform(0.0, 0.99, 512)
        e[:3] = 0.0, 0.5, 0.99
        pairs = [(ell, e)] if n else list(zip(ell[:64].tolist(), e[:64].tolist()))
        for ell, e in pairs:
            E = charts.kepler_solve(ell, e)
            f1 = 1.0 - e * np.cos(E)
            for Ez, want in ((charts.kepler_solve(ell + 1j * H, e), 1.0 / f1),
                             (charts.kepler_solve(ell, e + 1j * H), np.sin(E) / f1)):
                assert type(Ez) is (np.ndarray if n else complex)
                assert np.asarray(Ez.real).tobytes() == np.asarray(E).tobytes()
                np.testing.assert_allclose(np.imag(Ez) / H, want, rtol=1e-15, atol=1e-300)

    def test_a_complex_solve_goes_through_the_real_cache(self, rng):
        charts._kepler_cached.cache_clear()
        ell = rng.uniform(-20.0, 20.0, 512)
        e = 0.7
        real = charts.kepler_solve(ell, e)
        charts.kepler_solve(ell + 1j * H, e + 1j * H)
        assert charts._kepler_cached.cache_info().hits == 1
        assert charts.kepler_solve(ell, e).tobytes() == real.tobytes()
        assert charts._kepler_cached.cache_info().hits == 2


@pytest.mark.parametrize("L, G", [(1.0, 1e-9), (2.47, 1e-323)])
@pytest.mark.parametrize("ell", [0.3, np.linspace(0.0, 6.0, 7)], ids=["scalar", "array"])
def test_an_eccentricity_that_rounds_to_one_is_refused(L, G, ell):
    # kepler_solve used to refuse these with "eccentricity must lie in [0, 1),
    # got 1.0", and require_angles_defined accepted them
    dp = DelaunayPoint(ell, 1.0, 0.2, 0.1, L, G, 0.0, 0.0)
    p = model.ModelParams(omega=1.0, beta=1.3, gamma=0.5)
    for fn in (charts.delaunay_to_cartesian, charts.delaunay_to_positions,
               charts.delaunay_to_andoyer, charts.require_angles_defined,
               lambda dp, gamma: normalform.w1(dp, p)):
        with pytest.raises(ChartDomainError) as err:
            fn(dp, 0.5)
        assert type(err.value) is ChartDomainError
        assert str(err.value) == f"G={G} is too small against L={L}: the eccentricity rounds to 1"


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
        (model.CartesianState, "q Q"),
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


# -- the inverse chain against its three single maps --------------------------------

def _inverse_bits(fn, *args):
    """float.hex of every field fn returns, or the type and message of the ChartDomainError it raises."""
    try:
        out = fn(*args)
    except ChartDomainError as exc:
        return type(exc).__name__, str(exc)
    return [float(v).hex() for v in out]


def _single_maps(state, gamma):
    return charts.andoyer_to_delaunay(charts.euler_to_andoyer(charts.cartesian_to_euler(state)),
                                      gamma)


# q = (1, 0, 1, 0) gives r1 = r2 = 1, so theta = pi/2, and momenta (0, a, 0, b) give P = 0,
# Theta = 0, U1 = (a - b)/2 and U3 = -(a + b)/2
_Q_EVEN = (1.0, 0.0, 1.0, 0.0)
_INVERSE_GUARDS = {
    "rho=0": ((0.0,) * 4, (0.1, 0.2, 0.3, 0.4), 0.25, "rho = 0 is outside the chart"),
    "theta": ((1.0, 0.0, 0.0, 0.0), (0.1, 0.2, 0.3, 0.4), 0.25,
              "state is too close to the theta singular set"),
    "U2=0": (_Q_EVEN, (0.0,) * 4, 0.25, "total angular momentum U2 = 0 is outside the chart"),
    "U1=U2": (_Q_EVEN, (0.0, 0.5, 0.0, -0.5), 0.25, "|U1| or |U3| too close to U2"),
    "U3=-U2": (_Q_EVEN, (0.0, 0.5, 0.0, 0.5), 0.25, "|U1| or |U3| too close to U2"),
    "unbound": (_Q_EVEN, (0.0, 100.0, 0.0, 0.0), 0.25,
                "point is not in the bound (negative-energy) regime"),
    # gamma = U2^2 / rho makes the orbit circular: here U2 = sqrt(2) and rho = 2
    "circular": (_Q_EVEN, (0.0, 2.0, 0.0, 0.0), 1.0,
                 "circular point: perigee angle g is not defined"),
    "gamma=0": (_Q_EVEN, (0.0, 0.5, 0.0, 0.2), 0.0, "gamma must be positive, got 0.0"),
    "gamma<0": (_Q_EVEN, (0.0, 0.5, 0.0, 0.2), -1.0, "gamma must be positive, got -1.0"),
}

_INVERSE_STATE = st.builds(lambda q, Q: model.CartesianState(q=q, Q=Q),
                           st.tuples(*[st.floats(-2.0, 2.0)] * 4),
                           st.tuples(*[st.floats(-1.0, 1.0)] * 4))


class TestInverseChain:
    @settings(max_examples=500, deadline=None)
    @given(_INVERSE_STATE, st.one_of(st.floats(0.05, 3.0), st.sampled_from([0.0, -0.5])))
    def test_chain_equals_the_single_maps(self, state, gamma):
        assert _inverse_bits(charts.cartesian_to_delaunay, state, gamma) == _inverse_bits(
            _single_maps, state, gamma)

    @pytest.mark.parametrize("guard", _INVERSE_GUARDS)
    def test_each_guard_raises_as_the_single_maps_raise(self, guard):
        q, Q, gamma, message = _INVERSE_GUARDS[guard]
        state = model.CartesianState(q=q, Q=Q)
        got = _inverse_bits(charts.cartesian_to_delaunay, state, gamma)
        assert got == _inverse_bits(_single_maps, state, gamma)
        kind = "DegenerateEccentricityError" if guard == "circular" else "ChartDomainError"
        assert got == (kind, message)

    def test_the_single_maps_build_their_records(self):
        state = charts.delaunay_to_cartesian(_NON_FINITE_BASES[0], 1.0)
        ep = charts.cartesian_to_euler(state)
        ap = charts.euler_to_andoyer(ep)
        assert (type(ep), type(ap), type(charts.andoyer_to_delaunay(ap, 1.0)),
                type(charts.cartesian_to_delaunay(state, 1.0))) == (
            EulerPoint, AndoyerPoint, DelaunayPoint, DelaunayPoint)


# -- the forward chain against its former single maps -----------------------------

# delaunay_to_andoyer, andoyer_to_euler, euler_to_cartesian (with the
# _euler_positions it calls), delaunay_to_positions and _delaunay_orbit as
# they were before each map became a function on fields and the chain stopped
# building the Andoyer and Euler records
_require = charts._require
_ns = charts._ns
_value = charts._value
_point = charts._point
_andoyer_deltas = charts._andoyer_deltas
kepler_solve = charts.kepler_solve
SINGULARITY_GUARD = charts.SINGULARITY_GUARD
_TWO_PI = 2.0 * math.pi
CartesianState = model.CartesianState


def _euler_positions_reference(ep: EulerPoint, xp):
    _require(ep.rho > 0.0, "rho must be positive, got {}", ep.rho)
    st = xp.sin(ep.theta)
    _require(st > SINGULARITY_GUARD, "theta={} is too close to the chart singularity", ep.theta)
    s = xp.sin(0.5 * ep.theta)
    c = xp.cos(0.5 * ep.theta)
    sr = xp.sqrt(ep.rho)
    hm = 0.5 * (ep.phi - ep.psi)
    hp = 0.5 * (ep.phi + ep.psi)
    q1 = sr * s * xp.cos(hm)
    q2 = sr * s * xp.sin(hm)
    q3 = sr * c * xp.sin(hp)
    q4 = sr * c * xp.cos(hp)
    return (q1, q2, q3, q4), st, s, c


def _euler_to_cartesian_reference(ep: EulerPoint) -> CartesianState:
    xp = _ns(*ep)
    (q1, q2, q3, q4), st, s, c = _euler_positions_reference(ep, xp)
    ct = xp.cos(ep.theta)
    w = 4.0 / (ep.rho * st * st)
    x0 = 4.0 * ep.rho * ep.P
    x1 = w * (ep.Phi - ct * ep.Psi)
    x2 = 4.0 * ep.Theta / ep.rho
    x3 = w * (ep.Psi - ct * ep.Phi)
    inv2rho = 0.5 / ep.rho
    cot = c / s
    tan = s / c
    Q1 = q1 * inv2rho * x0 - 0.5 * q2 * x1 + 0.5 * cot * q1 * x2 + 0.5 * q2 * x3
    Q2 = q2 * inv2rho * x0 + 0.5 * q1 * x1 + 0.5 * cot * q2 * x2 - 0.5 * q1 * x3
    Q3 = q3 * inv2rho * x0 + 0.5 * q4 * x1 - 0.5 * tan * q3 * x2 + 0.5 * q4 * x3
    Q4 = q4 * inv2rho * x0 - 0.5 * q3 * x1 - 0.5 * tan * q4 * x2 - 0.5 * q3 * x3
    return CartesianState(q=tuple(map(_value, (q1, q2, q3, q4))),
                          Q=tuple(map(_value, (Q1, Q2, Q3, Q4))))


def _andoyer_to_euler_reference(ap: AndoyerPoint) -> EulerPoint:
    xp = _ns(*ap)
    _require(ap.U2 > 0.0, "U2 must be positive")
    c1 = ap.U1 / ap.U2
    c2 = ap.U3 / ap.U2
    s1sq = 1.0 - c1 * c1
    s2sq = 1.0 - c2 * c2
    _require((s1sq >= SINGULARITY_GUARD ** 2) & (s2sq >= SINGULARITY_GUARD ** 2),
             "|U1| or |U3| too close to U2")
    s1 = xp.sqrt(s1sq)
    s2 = xp.sqrt(s2sq)
    su2 = xp.sin(ap.u2)
    cu2 = xp.cos(ap.u2)
    ct = c1 * c2 + s1 * s2 * cu2
    stsq = 1.0 - ct * ct
    _require(stsq >= SINGULARITY_GUARD ** 2, "image hits the theta singular set")
    st = xp.sqrt(stsq)
    theta = xp.arccos(ct)
    Theta = ap.U2 * s1 * s2 * su2 / st
    d1, d3 = _andoyer_deltas(su2, cu2, c1, s1, c2, s2, xp.arctan2)
    phi = (ap.u1 - d1) % _TWO_PI
    psi = ap.u3 - d3
    # keep psi in the principal interval used by the Euler chart
    psi = (psi + math.pi) % _TWO_PI - math.pi
    return _point(EulerPoint, ap.rho, phi, theta, psi, ap.P, ap.U1, Theta, ap.U3)


def _delaunay_orbit_reference(dp: DelaunayPoint, gamma, xp):
    _require(gamma > 0.0, "gamma must be positive, got {}", gamma)
    _require((0.0 < dp.G) & (dp.G <= dp.L), "need 0 < G <= L, got G={}, L={}", dp.G, dp.L)
    _require((xp.abs(dp.U1) < dp.G) & (xp.abs(dp.U3) < dp.G),
             "need |U1|, |U3| < G, got U1={}, U3={}, G={}", dp.U1, dp.U3, dp.G)
    a = dp.L * dp.L / gamma
    eta = dp.G / dp.L
    e = xp.sqrt(xp.maximum(0.0, 1.0 - eta * eta))
    # added since: the refusal of G below 2^-27 L, where e rounds to 1 and
    # kepler_solve refused it with a message that named neither G nor L
    _require(e != 1.0, "G={} is too small against L={}: the eccentricity rounds to 1", dp.G, dp.L)
    return a, eta, e


def _delaunay_to_andoyer_reference(dp: DelaunayPoint, gamma: float) -> AndoyerPoint:
    xp = _ns(gamma, *dp)
    a, eta, e = _delaunay_orbit_reference(dp, gamma, xp)
    E = kepler_solve(dp.ell, e)
    se, ce = xp.sin(E), xp.cos(E)
    r = a * (1.0 - e * ce)
    P = dp.L * e * se / r
    f = xp.arctan2(eta * se, ce - e)
    # keep the true anomaly on the same winding branch as E
    f = f + _TWO_PI * xp.rint((E - f) / _TWO_PI)
    u2 = (dp.g + f) % _TWO_PI
    return _point(AndoyerPoint, r, dp.u1 % _TWO_PI, u2, dp.u3 % _TWO_PI,
                  P, dp.U1, dp.G, dp.U3)


def _delaunay_to_positions_reference(dp: DelaunayPoint, gamma: float) -> tuple:
    ep = _andoyer_to_euler_reference(_delaunay_to_andoyer_reference(dp, gamma))
    q, _, _, _ = _euler_positions_reference(ep, _ns(*ep))
    return tuple(map(_value, q))


def _delaunay_to_cartesian_reference(dp, gamma):
    return _euler_to_cartesian_reference(
        _andoyer_to_euler_reference(_delaunay_to_andoyer_reference(dp, gamma)))


def _require_angles_defined_reference(dp, gamma):
    xp = _ns(gamma, *dp)
    _, _, e = _delaunay_orbit_reference(dp, gamma, xp)
    if xp.any(e < SINGULARITY_GUARD):
        raise DegenerateEccentricityError(charts._CIRCULAR)


def _forward_bits(fn, *args):
    """The type and every field of what fn returns, floats as float.hex and arrays
    as their bytes, or the type and message of the ChartDomainError it raises."""
    try:
        out = fn(*args)
    except ChartDomainError as exc:
        return type(exc).__name__, str(exc)
    return type(out).__name__, _field_bits(out)


def _field_bits(v):
    if isinstance(v, tuple):
        return [_field_bits(x) for x in v]
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    return type(v).__name__, v.hex() if isinstance(v, float) else repr(v)


def _forward_outcomes(dp, gamma, new):
    """Every forward entry point at (dp, gamma): the chain and, on its images, the single maps."""
    to_andoyer, to_euler, to_cartesian, chain, positions, angles = (
        (charts.delaunay_to_andoyer, charts.andoyer_to_euler, charts.euler_to_cartesian,
         charts.delaunay_to_cartesian, charts.delaunay_to_positions,
         charts.require_angles_defined) if new else
        (_delaunay_to_andoyer_reference, _andoyer_to_euler_reference,
         _euler_to_cartesian_reference, _delaunay_to_cartesian_reference,
         _delaunay_to_positions_reference, _require_angles_defined_reference))
    out = [_forward_bits(fn, dp, gamma) for fn in (to_andoyer, chain, positions, angles)]
    try:
        ap = _delaunay_to_andoyer_reference(dp, gamma)
        ep = _andoyer_to_euler_reference(ap)
    except ChartDomainError:
        return out
    return out + [_forward_bits(to_euler, ap), _forward_bits(to_cartesian, ep)]


def _assert_forward_bits(dp, gamma):
    with np.errstate(all="ignore"):
        assert _forward_outcomes(dp, gamma, True) == _forward_outcomes(dp, gamma, False)


_ANGLE = st.floats(-20.0, 20.0)
# gamma in (0.05, 3), or one time in three 0, -0.5 or NaN
_GAMMA = st.tuples(st.floats(0.05, 3.0), st.sampled_from([None] * 6 + [0.0, -0.5, math.nan])).map(
    lambda drawn: drawn[0] if drawn[1] is None else drawn[1])
# ways to move a point in the chart across a guard of the forward maps
_BREAKS = {
    "G=L": lambda dp, v: dp._replace(G=dp.L),  # circular, still in the domain
    "G>L": lambda dp, v: dp._replace(G=dp.L * (1.0 + v)),
    "G<=0": lambda dp, v: dp._replace(G=-v),
    "U1=G": lambda dp, v: dp._replace(U1=dp.G),
    "U3=-G": lambda dp, v: dp._replace(U3=-dp.G * (1.0 + v)),
    "NaN": lambda dp, v: dp._replace(**{dp._fields[int(8 * v) % 8]: math.nan}),
}


@st.composite
def _delaunay_fields(draw):
    """A Delaunay point in the chart, or, one time in two, moved across a guard or given a NaN field."""
    L = draw(st.floats(0.05, 3.0))
    G = L * draw(st.floats(0.0, 1.0, exclude_min=True))
    unit = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
    dp = DelaunayPoint(draw(_ANGLE), draw(_ANGLE), draw(_ANGLE), draw(_ANGLE), L, G,
                       G * draw(unit), G * draw(unit))
    brk = draw(st.sampled_from([None] * len(_BREAKS) + list(_BREAKS)))
    return dp if brk is None else _BREAKS[brk](dp, draw(st.floats(0.0, 0.99)))


_NODES = np.arange(512) * (TWO_PI / 512)


class TestForwardChain:
    @settings(max_examples=600, deadline=None)
    @given(_delaunay_fields(), _GAMMA)
    def test_scalars_keep_their_bits(self, dp, gamma):
        _assert_forward_bits(dp, gamma)

    @settings(max_examples=150, deadline=None)
    @given(_delaunay_fields(), _GAMMA, st.integers(0, 2 ** 32 - 1), st.sampled_from(["ell", "g", "momenta"]))
    def test_arrays_keep_their_bytes(self, dp, gamma, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "ell":  # the averaging pattern: 512 mean-anomaly nodes
            dp = dp._replace(ell=_NODES)
        elif kind == "g":
            dp = dp._replace(g=rng.uniform(-10.0, 10.0, 64))
        else:  # G, U1 and U3 vary over the array, each within the chart where dp is
            scale = rng.uniform(0.5, 1.0, 64)
            dp = dp._replace(G=dp.G * scale, U1=dp.U1 * scale * rng.uniform(0.0, 1.0, 64),
                             U3=dp.U3 * scale)
        _assert_forward_bits(dp, gamma)

    @settings(max_examples=300, deadline=None)
    @given(_delaunay_fields(), _GAMMA, st.lists(st.booleans(), min_size=9, max_size=9))
    def test_zero_dimensional_fields_keep_their_bits(self, dp, gamma, wrap):
        # a 0-d field puts the first map in numpy and leaves it as a float, so
        # the later maps run in the scalar namespace
        dp = DelaunayPoint(*(np.array(v) if w else v for v, w in zip(dp, wrap)))
        _assert_forward_bits(dp, np.array(gamma) if wrap[8] else gamma)

    def test_integer_and_numpy_scalar_fields_keep_their_bits(self):
        base = DelaunayPoint(1, 2, 0, 3, 2, 1, 0, 0)
        _assert_forward_bits(base, 1)
        _assert_forward_bits(DelaunayPoint(*map(np.float64, base)), 1.0)
        _assert_forward_bits(_NON_FINITE_BASES[0]._replace(G=np.float64(0.8)), np.float64(0.7))

    # (Delaunay point, gamma, message) at each guard; the chain and its single maps raise alike
    GUARDS = {
        "gamma=0": (dict(), 0.0, "gamma must be positive, got 0.0"),
        "gamma<0": (dict(), -0.5, "gamma must be positive, got -0.5"),
        "gamma=nan": (dict(), math.nan, "gamma must be positive, got nan"),
        "G=0": (dict(G=0.0), 1.0, "need 0 < G <= L, got G=0.0, L=1.0"),
        "G>L": (dict(G=1.25), 1.0, "need 0 < G <= L, got G=1.25, L=1.0"),
        "U1=G": (dict(U1=0.8), 1.0, "need |U1|, |U3| < G, got U1=0.8, U3=0.1, G=0.8"),
        "U3=-G": (dict(U3=-0.8), 1.0, "need |U1|, |U3| < G, got U1=0.1, U3=-0.8, G=0.8"),
        # circular, U1 = U3 = 0 and ell = g = 0: the Euler image has theta = 0
        "theta": (dict(ell=0.0, g=0.0, G=1.0, U1=0.0, U3=0.0), 1.0,
                  "image hits the theta singular set"),
        "G=nan": (dict(G=math.nan), 1.0, "need 0 < G <= L, got G=nan, L=1.0"),
        "U1=nan": (dict(U1=math.nan), 1.0, "need |U1|, |U3| < G, got U1=nan, U3=0.1, G=0.8"),
        "L=G=inf": (dict(L=math.inf, G=math.inf), 1.0, "eccentricity must lie in [0, 1), got nan"),
    }

    @pytest.mark.parametrize("guard", GUARDS)
    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    def test_each_guard_raises_as_the_single_maps_raise(self, guard, as_array):
        fields, gamma, message = self.GUARDS[guard]
        dp = _NON_FINITE_BASES[0]._replace(**fields)
        if as_array:  # a good node first, so the message names the second
            good = _NON_FINITE_BASES[0]._asdict()
            dp = dp._replace(**{k: np.array([good[k], v]) for k, v in dp._asdict().items()
                                if k in fields or k == "ell"})
        with np.errstate(all="ignore"):
            for fn in (charts.delaunay_to_cartesian, charts.delaunay_to_positions):
                assert _forward_bits(fn, dp, gamma) == ("ChartDomainError", message)
        _assert_forward_bits(dp, gamma)

    # (Andoyer or Euler point fields, message) at the guards the Delaunay chain cannot reach
    SINGLE_MAP_GUARDS = {
        "U2=0": (AndoyerPoint, dict(U2=0.0), "U2 must be positive"),
        "U1=U2": (AndoyerPoint, dict(U1=1.0), "|U1| or |U3| too close to U2"),
        "U3=-U2": (AndoyerPoint, dict(U3=-1.0), "|U1| or |U3| too close to U2"),
        "theta=0 in andoyer": (AndoyerPoint, dict(U1=0.0, U3=0.0, u2=0.0),
                               "image hits the theta singular set"),
        "rho=0": (EulerPoint, dict(rho=0.0), "rho must be positive, got 0.0"),
        "theta=0 in euler": (EulerPoint, dict(theta=0.0), "theta=0.0 is too close to the chart singularity"),
        "rho=nan": (EulerPoint, dict(rho=math.nan), "rho must be positive, got nan"),
    }

    @pytest.mark.parametrize("guard", SINGLE_MAP_GUARDS)
    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    def test_each_single_map_guard_keeps_its_message(self, guard, as_array):
        cls, fields, message = self.SINGLE_MAP_GUARDS[guard]
        base = next(pt for pt in _NON_FINITE_BASES if type(pt) is cls)
        if as_array:
            fields = {k: np.array([base._asdict()[k], v]) for k, v in fields.items()}
        pt = base._replace(**fields)
        new, ref = ((charts.andoyer_to_euler, _andoyer_to_euler_reference) if cls is AndoyerPoint
                    else (charts.euler_to_cartesian, _euler_to_cartesian_reference))
        assert _forward_bits(new, pt) == _forward_bits(ref, pt) == ("ChartDomainError", message)


# -- gamma must be finite ------------------------------------------------------------

_INF_GAMMA_POINT = DelaunayPoint(0.3, 1.0, 0.2, 0.1, 1.0, 0.7, 0.2, -0.1)
_GAMMA_ENTRY_POINTS = {
    "delaunay_to_cartesian": charts.delaunay_to_cartesian,
    "delaunay_to_positions": charts.delaunay_to_positions,
    "delaunay_to_andoyer": charts.delaunay_to_andoyer,
    "composed_h0": charts.composed_h0,
    "require_angles_defined": charts.require_angles_defined,
    "cartesian_to_delaunay": lambda dp, gamma: charts.cartesian_to_delaunay(
        charts.delaunay_to_cartesian(dp, 1.0), gamma),
    "andoyer_to_delaunay": lambda dp, gamma: charts.andoyer_to_delaunay(
        charts.delaunay_to_andoyer(dp, 1.0), gamma),
}
# the inverse maps take scalars only
_GAMMA_CASES = [(entry, ell) for entry in _GAMMA_ENTRY_POINTS
                for ell in ("scalar", "array") if ell == "scalar" or "to_delaunay" not in entry]


@pytest.mark.parametrize("gamma, message", [
    (math.inf, "gamma must be finite, got inf"),
    (-math.inf, "gamma must be positive, got -inf"),
    (math.nan, "gamma must be positive, got nan"),
], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("entry, ell", _GAMMA_CASES, ids=[f"{e}-{k}" for e, k in _GAMMA_CASES])
def test_a_non_finite_gamma_is_refused(entry, ell, gamma, message):
    # gamma = inf used to divide by a zero radius: ZeroDivisionError on
    # scalars, RuntimeWarnings and a "rho must be positive" on arrays, a pass
    # in require_angles_defined and "circular point" in the inverse maps
    ell = 0.3 if ell == "scalar" else np.linspace(0.0, TWO_PI, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartDomainError) as err:
            _GAMMA_ENTRY_POINTS[entry](_INF_GAMMA_POINT._replace(ell=ell), gamma)
    assert type(err.value) is ChartDomainError
    assert str(err.value) == message
