import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resonance_lab import invariants as inv
from resonance_lab import model
from resonance_lab.model import CartesianState, IntegralValues

coord = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


def state(q, Q):
    return CartesianState(q=tuple(q), Q=tuple(Q))


class TestPiMap:
    def test_single_coordinate(self):
        pv = inv.pi_map(state([1, 0, 0, 0], [0, 0, 0, 0]))
        assert pv.pi1 == 1.0
        assert all(getattr(pv, f"pi{i}") == 0.0 for i in range(2, 17))

    def test_two_coordinates(self):
        pv = inv.pi_map(state([1, 0, 0, 0], [0, 1, 0, 0]))
        assert (pv.pi1, pv.pi2, pv.pi11) == (1.0, 1.0, 1.0)
        others = [getattr(pv, f"pi{i}") for i in (3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16)]
        assert all(v == 0.0 for v in others)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(coord, min_size=8, max_size=8))
    def test_pair_identities(self, xs):
        # pi5^2 + pi11^2 = pi1 pi2 and analogues for every pair
        pv = inv.pi_map(CartesianState.from_array(np.array(xs)))
        diag = [pv.pi1, pv.pi2, pv.pi3, pv.pi4]
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for k, (a, b) in enumerate(pairs):
            sym = getattr(pv, f"pi{5 + k}")
            skew = getattr(pv, f"pi{11 + k}")
            assert sym ** 2 + skew ** 2 == pytest.approx(diag[a] * diag[b], abs=1e-12)


class TestKLJMap:
    def test_pi1_only(self):
        pv = inv.pi_map(state([1, 0, 0, 0], [0, 0, 0, 0]))
        kv = inv.klj_map(pv)
        assert (kv.h2, kv.k1, kv.j1, kv.j2) == (0.5, -0.5, 0.5, 0.5)
        rest = [kv.xi, kv.k2, kv.k3, kv.l1, kv.l2, kv.l3, kv.j3, kv.j4, kv.j5, kv.j6, kv.j7, kv.j8]
        assert all(v == 0.0 for v in rest)

    def test_rotation_block(self):
        pv = inv.PiVector(*([0.0] * 10), 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        kv = inv.klj_map(pv)
        assert (kv.xi, kv.l1) == (2.0, 0.0)

    def test_linearity_zero(self):
        kv = inv.klj_map(inv.PiVector(*([0.0] * 16)))
        assert all(getattr(kv, f) == 0.0 for f in
                   ("h2", "xi", "k1", "k2", "k3", "l1", "l2", "l3"))

    def test_matches_model_integrals(self, rng):
        for _ in range(50):
            s = CartesianState.from_array(rng.normal(size=8))
            kv = inv.klj_map(inv.pi_map(s))
            xi, l1 = model.first_integrals(s)
            assert kv.xi == pytest.approx(xi, abs=1e-14)
            assert kv.l1 == pytest.approx(l1, abs=1e-14)
            assert kv.h2 == pytest.approx(
                model.hamiltonian(s, model.ModelParams(omega=1.0)), abs=1e-13)


class TestSecondSpace:
    def test_image_point(self):
        kv = inv.klj_map(inv.pi_map(state([1, 0, 0, 0], [0, 0, 0, 0])))
        r1, r2 = inv.second_space_residuals(kv)
        assert r1 == 0.0 and r2 == 0.0

    def test_random_images(self, rng):
        worst = 0.0
        for _ in range(200):
            s = CartesianState.from_array(0.6 * rng.normal(size=8))
            r1, r2 = inv.second_space_residuals(inv.klj_map(inv.pi_map(s)))
            worst = max(worst, abs(r1), abs(r2))
        assert worst < 1e-12

    def test_off_variety_detected(self):
        kv = inv.KLJVector(h2=0.0, xi=0.0, k1=1.0, k2=0.0, k3=0.0,
                           l1=0.0, l2=0.0, l3=0.0, j1=0.0, j2=0.0, j3=0.0,
                           j4=0.0, j5=0.0, j6=0.0, j7=0.0, j8=0.0)
        r1, r2 = inv.second_space_residuals(kv)
        assert r1 == 1.0


class TestThriceMap:
    def test_substitution(self):
        kv = inv.KLJVector(h2=1.0, xi=0.0, k1=0.0, k2=1.0, k3=0.0,
                           l1=0.0, l2=0.0, l3=1.0, j1=0.0, j2=0.0, j3=0.0,
                           j4=0.0, j5=0.0, j6=0.0, j7=0.0, j8=0.0)
        pt = inv.thrice_map(kv)
        assert (pt.M, pt.N, pt.Z, pt.S, pt.K) == (1.0, 0.0, 0.0, 1.0, 0.0)

    def test_defining_identity(self, rng):
        for _ in range(100):
            vals = rng.normal(size=6)
            kv = inv.KLJVector(h2=3.0, xi=0.1, k1=vals[0], k2=vals[1], k3=vals[2],
                               l1=0.2, l2=vals[4], l3=vals[5], j1=0, j2=0, j3=0,
                               j4=0, j5=0, j6=0, j7=0, j8=0)
            pt = inv.thrice_map(kv)
            assert pt.M ** 2 - pt.N ** 2 == pytest.approx(pt.Z ** 2 + pt.S ** 2, abs=1e-12)

    # momenta that put a state exactly on xi = n, xi = -n, l = n or l = -n
    BOUNDARY = {
        "xi=n": (lambda q1, q2, q3, q4: (-q2, q1, -q4, q3), "xi", 1.0),
        "xi=-n": (lambda q1, q2, q3, q4: (q2, -q1, q4, -q3), "xi", -1.0),
        "l=n": (lambda q1, q2, q3, q4: (q2, -q1, -q4, q3), "l", 1.0),
        "l=-n": (lambda q1, q2, q3, q4: (-q2, q1, q4, -q3), "l", -1.0),
    }

    @pytest.mark.parametrize("family", BOUNDARY)
    @settings(max_examples=200, deadline=None)
    @given(q=st.tuples(*[st.floats(-3.0, 3.0)] * 4).filter(lambda q: sum(v * v for v in q) > 1e-6))
    def test_images_on_the_integral_bounds_are_valid(self, family, q):
        momenta, name, sign = self.BOUNDARY[family]
        pt = inv.thrice_map(inv.klj_map(inv.pi_map(CartesianState(q=q, Q=momenta(*q)))))
        iv = pt.integrals
        assert abs(getattr(iv, name)) <= iv.n
        assert getattr(iv, name) == pytest.approx(sign * iv.n, rel=1e-14)

    def test_eo3_on_images(self, rng):
        worst = 0.0
        for _ in range(200):
            s = CartesianState.from_array(0.6 * rng.normal(size=8))
            pt = inv.thrice_map(inv.klj_map(inv.pi_map(s)))
            worst = max(worst, *(abs(r) for r in inv.eo3_residuals(pt)))
        assert worst < 1e-12


class TestBracketTable:
    def test_random_states(self, rng):
        worst = 0.0
        for _ in range(100):
            s = CartesianState.from_array(rng.normal(size=8))
            pt = inv.thrice_map(inv.klj_map(inv.pi_map(s)))
            expected = inv.bracket_expected(pt.M, pt.N, pt.Z, pt.S, pt.K, pt.integrals.l)
            worst = max(worst, float(np.max(np.abs(inv.bracket_computed(s) - expected))))
        assert worst < 1e-10

    def test_k_n_bracket_value(self):
        # state engineered to have S = 1, N = 0
        s = state([0, 1, 1, 0], [0, 0, 1, 0])
        pt = inv.thrice_map(inv.klj_map(inv.pi_map(s)))
        assert pt.S == pytest.approx(1.0)
        assert pt.N == pytest.approx(0.0)
        computed = inv.bracket_computed(s)
        assert computed[4, 1] == pytest.approx(-4.0, abs=1e-12)  # {K, N} = -4S

    def test_l1_row_vanishes(self, rng):
        for _ in range(20):
            s = CartesianState.from_array(rng.normal(size=8))
            computed = inv.bracket_computed(s)
            assert np.max(np.abs(computed[5, :])) < 1e-12


class TestSurfaceProfile:
    def test_roots_and_interval(self):
        iv = IntegralValues(n=1.0, xi=0.5, l=0.25)
        roots = sorted(inv.f_roots(iv))
        assert roots == pytest.approx([-1.75, -0.25, 0.75, 1.25])
        lo, hi = inv.feasible_interval(iv)
        assert (lo, hi) == pytest.approx((-0.25, 0.75))

    def test_symmetric_case(self):
        iv = IntegralValues(n=2.0, xi=0.0, l=0.0)
        lo, hi = inv.feasible_interval(iv)
        assert (lo, hi) == pytest.approx((-2.0, 2.0))
        for K in np.linspace(-2, 2, 7):
            assert inv.f_of_K(float(K), iv) == pytest.approx((4 - K ** 2) ** 2, rel=1e-13)

    def test_endpoints_are_roots(self):
        iv = IntegralValues(n=1.0, xi=0.3, l=0.2)
        lo, hi = inv.feasible_interval(iv)
        assert inv.f_of_K(lo, iv) == pytest.approx(0.0, abs=1e-12)
        assert inv.f_of_K(hi, iv) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_interval_rejected(self):
        # xi = n forces a point space
        iv = IntegralValues(n=1.0, xi=1.0, l=0.0)
        with pytest.raises(inv.EmptyReducedSpaceError):
            inv.feasible_interval(iv)

    def test_boundary_ties(self):
        # l = +-xi make two roots collide; the sign scan must still accept
        for xi, l in ((0.3, 0.3), (0.3, -0.3)):
            iv = IntegralValues(n=1.0, xi=xi, l=l)
            lo, hi = inv.feasible_interval(iv)
            assert lo < hi
            for K in np.linspace(lo, hi, 101):
                assert inv.f_of_K(float(K), iv) >= -1e-12

    def test_surface_samples_schema(self):
        iv = IntegralValues(n=1.0, xi=0.3, l=0.1)
        samples = inv.surface_samples(iv, count=50)
        assert samples.shape == (50, 2)
        assert np.all(samples[:, 1] >= 0.0)


class TestReducedHamiltonian:
    def test_value(self):
        iv = IntegralValues(n=1.0, xi=1e-12, l=1e-12)
        pt = inv.ThriceReducedPoint(M=0.0, N=1.0, Z=0.0, S=5.0, K=1.0, integrals=iv)
        # beta = 0: -3/2 + 2 + 3/2 = 2, independently of S
        assert inv.reduced_h3(pt, beta=0.0) == pytest.approx(2.0, abs=1e-10)

    def test_beta_sq_4_drops_n_dependence(self):
        iv = IntegralValues(n=1.3, xi=0.2, l=0.1)
        beta = 2.0
        vals = [inv.reduced_h3(
            inv.ThriceReducedPoint(M=0.0, N=n_, Z=0.0, S=0.0, K=0.4, integrals=iv), beta)
            for n_ in (-1.0, 0.0, 2.0)]
        assert max(vals) - min(vals) < 1e-14

    def test_beta_sq_two_thirds_is_linear(self):
        iv = IntegralValues(n=1.0, xi=0.3, l=0.2)
        beta = math.sqrt(2.0 / 3.0)
        def h(K):
            return inv.reduced_h3(
                inv.ThriceReducedPoint(M=0.0, N=0.0, Z=0.0, S=0.0, K=K, integrals=iv), beta)
        # second difference of a linear function vanishes
        assert h(0.4) - 2 * h(0.2) + h(0.0) == pytest.approx(0.0, abs=1e-13)


class TestReducedFlow:
    def test_beta_sq_4_freezes_K(self):
        iv = IntegralValues(n=1.0, xi=0.3, l=0.1)
        pt0 = inv.reduced_point_on_surface(0.05, iv, angle=0.8)
        traj = inv.reduced_flow(pt0, beta=2.0, t_end=30.0, tol=1e-12, n_out=64)
        assert np.max(np.abs(traj.K - traj.K[0])) < 1e-10

    def test_equilibrium_stays_fixed(self):
        # S = 0 and dS/dt = 0: the circular point K = 0 for xi = l = 0
        iv = IntegralValues(n=1.0, xi=1e-14, l=1e-14)
        pt0 = inv.reduced_point_on_surface(0.0, iv, angle=math.pi)
        assert abs(pt0.S) < 1e-12 and pt0.N < 0
        d = inv.reduced_rhs(pt0.K, pt0.N, pt0.S, iv, 1.3)
        assert max(abs(v) for v in d) < 1e-12
        traj = inv.reduced_flow(pt0, beta=1.3, t_end=10.0, tol=1e-12, n_out=16)
        assert np.max(np.abs(traj.K - pt0.K)) < 1e-10
        assert np.max(np.abs(traj.N - pt0.N)) < 1e-10

    def test_conservation(self):
        iv = IntegralValues(n=1.0, xi=0.3, l=0.1)
        lo, hi = inv.feasible_interval(iv)
        pt0 = inv.reduced_point_on_surface(0.5 * (lo + hi) + 0.1 * (hi - lo), iv, angle=0.7)
        traj = inv.reduced_flow(pt0, beta=1.0, t_end=1000.0, tol=1e-12)
        assert traj.casimir_drift < 1e-8
        assert traj.h3_drift < 1e-8

    def test_s_reflection_time_reversal(self):
        # flipping S reverses time: from the reflected endpoint the flow
        # retraces the trajectory back to the reflected start
        iv = IntegralValues(n=1.0, xi=0.2, l=0.1)
        lo, hi = inv.feasible_interval(iv)
        pt0 = inv.reduced_point_on_surface(0.5 * (lo + hi), iv, angle=0.5)
        fwd = inv.reduced_flow(pt0, beta=1.2, t_end=5.0, tol=1e-12, n_out=11)
        end = inv.ThriceReducedPoint(
            M=0.5 * (iv.n ** 2 + iv.xi ** 2 - fwd.K[-1] ** 2 - iv.l ** 2),
            N=fwd.N[-1], Z=iv.n * iv.xi - fwd.K[-1] * iv.l, S=-fwd.S[-1],
            K=fwd.K[-1], integrals=iv)
        back = inv.reduced_flow(end, beta=1.2, t_end=5.0, tol=1e-12, n_out=11)
        assert back.K[-1] == pytest.approx(pt0.K, abs=1e-9)
        assert back.N[-1] == pytest.approx(pt0.N, abs=1e-9)
        assert back.S[-1] == pytest.approx(-pt0.S, abs=1e-9)

    def test_monitors_equal_per_sample_values(self):
        iv = IntegralValues(n=2.0, xi=0.5, l=0.4)
        lo, hi = inv.feasible_interval(iv)
        pt0 = inv.reduced_point_on_surface(0.5 * (lo + hi), iv, angle=0.4)
        traj = inv.reduced_flow(pt0, beta=0.7, t_end=20.0, tol=1e-12, n_out=400)
        n, xi, l = iv.n, iv.xi, iv.l
        for k, n_, s_, h3, cas in zip(traj.K.tolist(), traj.N.tolist(), traj.S.tolist(),
                                      traj.h3, traj.casimir):
            pt = inv.ThriceReducedPoint(M=0.0, N=n_, Z=0.0, S=s_, K=k, integrals=iv)
            assert h3 == inv.reduced_h3(pt, 0.7)
            # the array (K +- l) ** 2 is the correctly rounded square, the
            # scalar one libm's pow, which can miss it by one ulp
            scale = ((n + xi) ** 2 + (k + l) ** 2) * ((n - xi) ** 2 + (k - l) ** 2)
            assert abs(cas - inv.casimir_residual(k, n_, s_, iv)) <= 4 * np.spacing(scale)

    def test_flow_binds_its_coefficients_once_and_keeps_the_bits(self, monkeypatch):
        iv = IntegralValues(n=1.0, xi=0.3, l=0.1)
        lo, hi = inv.feasible_interval(iv)
        pt0 = inv.reduced_point_on_surface(0.5 * (lo + hi), iv, angle=0.7)
        t_eval = np.linspace(0.0, 20.0, 64)
        want = model._solve_ivp(lambda t, y: inv.reduced_rhs(*y.tolist(), iv, 1.3), 20.0,
                                [pt0.K, pt0.N, pt0.S], t_eval, 1e-12, 1e-12)
        calls = []
        h3_coeffs = inv._h3_coeffs
        monkeypatch.setattr(inv, "_h3_coeffs", lambda *a: calls.append(a) or h3_coeffs(*a))
        traj = inv.reduced_flow(pt0, beta=1.3, t_end=20.0, tol=1e-12, n_out=64)
        # one binding before the run and one monitor pass after it
        assert len(calls) == 2
        assert np.stack([traj.K, traj.N, traj.S]).tobytes() == want.y.tobytes()

    def test_off_surface_rejected(self):
        iv = IntegralValues(n=1.0, xi=0.3, l=0.1)
        pt = inv.ThriceReducedPoint(M=0.0, N=5.0, Z=0.0, S=5.0, K=0.0, integrals=iv)
        with pytest.raises(ValueError):
            inv.reduced_flow(pt, beta=1.0, t_end=1.0, tol=1e-10)


# -- one coefficient source for the reduced Hamiltonian and its flow -------------
# ``reduced_h3`` and ``reduced_rhs`` as written before they read ``_h3_coeffs``
# and ``_surface_mz``, kept verbatim as references: every value must keep its bits.

def _reduced_h3_reference(pt, beta):
    n, xi, l = pt.integrals.n, pt.integrals.xi, pt.integrals.l
    b2 = beta * beta
    return (
        0.75 * n * (3.0 * b2 - 2.0) * pt.K * pt.K
        + xi * l * (1.0 - b2) * pt.K
        + 0.5 * n * (4.0 - b2) * pt.N
        + n ** 3 * (1.5 + 0.25 * b2)
        - (l * l + xi * xi) * (0.5 * b2 + 1.0) * 0.5 * n
    )


def _reduced_rhs_reference(K, N, S, iv, beta):
    n, xi, l = iv.n, iv.xi, iv.l
    b2 = beta * beta
    m = 0.5 * (n * n + xi * xi - K * K - l * l)
    z = n * xi - K * l
    dh_dk = 1.5 * n * (3.0 * b2 - 2.0) * K + xi * l * (1.0 - b2)
    dh_dn = 0.5 * n * (4.0 - b2)
    dK = -4.0 * S * dh_dn
    dN = 4.0 * S * dh_dk
    dS = -4.0 * N * dh_dk + 4.0 * (K * m - l * z) * dh_dn
    return dK, dN, dS


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


_UNIT = st.floats(-1.0, 1.0)
_KNS = st.floats(-1e3, 1e3)


class TestOneCoefficientSource:
    @settings(max_examples=250, deadline=None)
    @given(st.floats(1e-3, 1e3), _UNIT, _UNIT, st.floats(0.0, 4.0),
           st.lists(st.tuples(_KNS, _KNS, _KNS), min_size=1, max_size=8))
    def test_scalar_and_array_values_keep_their_bits(self, n, xi, l, beta, kns):
        iv = IntegralValues(n=n, xi=xi * n, l=l * n)
        K, N, S = (np.array(v) for v in zip(*kns))
        for k, n_, s_ in [*kns, (K, N, S)]:
            pt = inv.ThriceReducedPoint(M=0.0, N=n_, Z=0.0, S=s_, K=k, integrals=iv)
            assert _hex(inv.reduced_h3(pt, beta)) == _hex(_reduced_h3_reference(pt, beta))
            assert _hex(inv.reduced_h3(inv.reduced_point(k, n_, s_, iv), beta)) == _hex(
                _reduced_h3_reference(pt, beta))
            got = inv.reduced_rhs(k, n_, s_, iv, beta)
            want = _reduced_rhs_reference(k, n_, s_, iv, beta)
            assert [_hex(v) for v in got] == [_hex(v) for v in want]

    def test_reduced_point_satisfies_the_defining_relations(self):
        iv = IntegralValues(n=1.3, xi=0.4, l=-0.2)
        for K in (-0.5, 0.0, 0.25):
            pt = inv.reduced_point(K, 0.1, -0.3, iv)
            assert (pt.K, pt.N, pt.S, pt.integrals) == (K, 0.1, -0.3, iv)
            r1, r2, _ = inv.eo3_residuals(pt)
            assert abs(r1) < 1e-15 and abs(r2) < 1e-15

    def test_f_of_K_scalar_equals_array(self):
        # a scalar ** 2 would go through libm's pow, which misses the correctly
        # rounded square x * x (numpy's array ** 2) on about 1 in 1200 doubles
        # with glibc; 20000 cells hold some of those for K + l and K - l
        iv = IntegralValues(n=1.0, xi=0.3, l=0.1)
        ks = np.random.default_rng(7).uniform(-0.8, 0.8, 20000)
        assert _hex([inv.f_of_K(k, iv) for k in ks.tolist()]) == _hex(inv.f_of_K(ks, iv))
