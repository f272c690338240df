import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resonance_lab import charts, equilibria as eq, model, normalform as nf
from resonance_lab.charts import DelaunayPoint
from resonance_lab.model import ModelParams
from resonance_lab.verify import random_delaunay, random_momenta

TWO_PI = 2 * math.pi


def params(beta=math.sqrt(2.0), gamma=1.0, eps=0.0):
    return ModelParams(omega=1.0, epsilon=eps, beta=beta, gamma=gamma)


class TestPerturbation:
    def test_cyclic_in_u1_u3(self, rng):
        p = params()
        dp0 = random_delaunay(rng)
        vals = [nf.perturbation_delaunay(
            DelaunayPoint(ell=dp0.ell, g=dp0.g,
                          u1=float(rng.uniform(0, TWO_PI)), u3=float(rng.uniform(0, TWO_PI)),
                          L=dp0.L, G=dp0.G, U1=dp0.U1, U3=dp0.U3), p)
            for _ in range(50)]
        assert max(vals) - min(vals) < 1e-10

    def test_matches_cartesian_sextic(self, rng):
        # multiplying by 4 rho recovers the epsilon-part of the Cartesian energy
        p = params(beta=1.7)
        for _ in range(20):
            dp = random_delaunay(rng)
            val = nf.perturbation_delaunay(dp, p)
            s = charts.delaunay_to_cartesian(dp, p.gamma)
            assert val * 4.0 * sum(v * v for v in s.q) == pytest.approx(model.h_sextic(s, p.beta),
                                                      rel=1e-12, abs=1e-12)

    def test_central_case_closed_form(self, rng):
        # beta^2 = 1: V6 = rho^3, so the regularized value is rho^2/4
        p = params(beta=1.0)
        for _ in range(20):
            dp = random_delaunay(rng)
            s = charts.delaunay_to_cartesian(dp, p.gamma)
            assert nf.perturbation_delaunay(dp, p) == pytest.approx(
                sum(v * v for v in s.q) ** 2 / 4.0, rel=1e-12)

    def test_requires_unit_frequency(self):
        dp = DelaunayPoint(ell=0.1, g=0.2, u1=0.0, u3=0.0, L=1.0, G=0.8, U1=0.1, U3=0.0)
        with pytest.raises(ValueError):
            nf.perturbation_delaunay(dp, ModelParams(omega=2.0, gamma=1.0))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.one_of(st.floats(-20.0, 20.0), st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=37)),
           st.sampled_from([0.0, 0.5, 1.0, math.sqrt(2.0), 2.0]))
    def test_positions_route_equals_the_cartesian_route(self, seed, ell, beta):
        # the route before the positions-only chain, kept as the reference
        rng = np.random.default_rng(seed)
        dp = random_delaunay(rng)._replace(ell=ell if isinstance(ell, float) else np.array(ell))
        p = params(beta=beta, gamma=float(rng.uniform(0.5, 1.5)))
        state = charts.delaunay_to_cartesian(dp, p.gamma)
        want = model.h_sextic(state, p.beta) / (4.0 * sum(v * v for v in state.q))
        got = nf.perturbation_delaunay(dp, p)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_r1_and_w1_averages_share_one_kepler_solve(self, monkeypatch):
        charts._kepler_cached.cache_clear()
        solves = []
        newton = charts._kepler_newton
        monkeypatch.setattr(charts, "_kepler_newton",
                            lambda ell, e: solves.append(e) or newton(ell, e))
        p = params(beta=1.3, gamma=0.8)
        dp = DelaunayPoint(ell=0.0, g=0.9, u1=0.0, u3=0.0, L=1.2, G=0.9, U1=0.2, U3=-0.3)
        nf.average_over_ell(lambda ell: nf.perturbation_delaunay(dp._replace(ell=ell), p))
        nf.average_over_ell(lambda ell: nf.w1(dp._replace(ell=ell), p))
        assert len(solves) == 1


class TestAverage:
    def test_harmonic_averages_to_zero(self):
        assert nf.average_over_ell(np.cos, 128) == pytest.approx(0.0, abs=1e-15)

    def test_fn_called_once_on_the_node_array(self):
        calls = []

        def spy(ell):
            calls.append(ell)
            return np.sin(ell) ** 2

        assert nf.average_over_ell(spy, 96) == pytest.approx(0.5, abs=1e-15)
        assert len(calls) == 1
        assert isinstance(calls[0], np.ndarray) and calls[0].shape == (96,)

    def test_constant(self):
        assert nf.average_over_ell(lambda x: 3.25, 64) == 3.25

    def test_node_doubling_converged(self, rng):
        p = params()
        dp = random_delaunay(rng)
        def fn(ell):
            return nf.perturbation_delaunay(
                DelaunayPoint(ell=ell, g=dp.g, u1=0.0, u3=0.0,
                              L=dp.L, G=dp.G, U1=dp.U1, U3=dp.U3), p)
        a = nf.average_over_ell(fn, 256)
        b = nf.average_over_ell(fn, 512)
        assert abs(a - b) < 1e-10

    def test_minimum_nodes(self):
        with pytest.raises(ValueError):
            nf.average_over_ell(math.cos, 32)

    def test_node_count_must_be_an_integer(self):
        # 64.5 used to give np.arange(64.5), 65 nodes, spaced by 2 pi / 64.5
        with pytest.raises(ValueError, match="integer"):
            nf.average_over_ell(lambda x: np.cos(x) ** 2, 64.5)
        assert nf.average_over_ell(lambda x: np.cos(x) ** 2, np.int64(64)) == pytest.approx(0.5)

    @pytest.mark.parametrize("fn", [
        lambda x: np.sin(x + 0.3) ** 2 * np.exp(np.cos(3 * x)),
        lambda x: 3.1, lambda x: 7, lambda x: np.float64(-0.3), lambda x: np.array(2.7),
        lambda x: np.array([1.1]), lambda x: np.cos(np.repeat(x, 2))[::2],
    ], ids=["array", "float", "int", "float64", "0-d", "one-element", "strided"])
    def test_same_bits_as_the_mean_of_the_broadcast(self, fn):
        for n in (64, 97, 512):
            nodes = np.arange(n) * (2.0 * math.pi / n)
            want = float(np.mean(np.broadcast_to(fn(nodes), nodes.shape)))
            assert np.float64(nf.average_over_ell(fn, n)).tobytes() == np.float64(want).tobytes()


class TestOrder1Coefficients:
    def test_central_circular_value(self):
        c = nf.order1_coeffs(1.0, 1.0, 0.0, 0.0, beta=1.0, gamma=1.0)
        assert c.C01 == pytest.approx(0.25, abs=1e-15)
        assert c.C11 == 0.0 and c.C21 == 0.0

    def test_circular_kills_odd_harmonics(self, rng):
        for beta in (0.0, 1.3, 2.0):
            c = nf.order1_coeffs(1.3, 1.3, 0.4, -0.2, beta=beta, gamma=0.9)
            assert c.C11 == 0.0 and c.C21 == 0.0

    @pytest.mark.parametrize("U1, U3", [(0.81, 0.0), (0.0, -0.81), (math.nan, 0.0)])
    def test_momenta_outside_the_domain(self, U1, U3):
        # |U1|, |U3| <= G: past it s1^2 or s2^2 is negative and enters C01 and C21
        with pytest.raises(ValueError, match=r"\|U1\|, \|U3\| <= G"):
            nf.order1_coeffs(1.0, 0.8, U1, U3, beta=1.3, gamma=1.0)
        with pytest.raises(ValueError, match=r"\|U1\|, \|U3\| <= G"):
            nf.kernel(0.4, 1.0, 0.8, U1, U3, 1.3, 1.0, order=2, epsilon=0.1)

    def test_momenta_on_the_domain_edge(self):
        # |U| = G is allowed: the closed forms are finite there, only the chart is singular
        c = nf.order1_coeffs(1.0, 0.8, 0.8, -0.8, beta=1.3, gamma=1.0)
        assert all(math.isfinite(v) for v in vars(c).values())
        assert c.C11 == 0.0 and c.C21 == 0.0
        assert math.isfinite(nf.kernel(0.4, 1.0, 0.8, 0.8, -0.8, 1.3, 1.0, order=2, epsilon=0.1))

    def test_quadrature_oracle(self, rng):
        p = params(beta=math.sqrt(2.0), gamma=0.8)
        for _ in range(3):
            L, G, U1, U3 = random_momenta(rng)
            c = nf.order1_coeffs(L, G, U1, U3, p.beta, p.gamma)
            n_g = 8
            avgs = np.empty(n_g)
            for i in range(n_g):
                g = TWO_PI * i / n_g
                avgs[i] = nf.average_over_ell(
                    lambda ell: nf.perturbation_delaunay(
                        DelaunayPoint(ell=ell, g=g, u1=0.0, u3=0.0,
                                      L=L, G=G, U1=U1, U3=U3), p), 512)
            spec = np.fft.rfft(avgs) / n_g
            assert float(spec[0].real) == pytest.approx(c.C01, abs=1e-8)
            assert 2 * float(spec[1].real) == pytest.approx(c.C11, abs=1e-8)
            assert 2 * float(spec[2].real) == pytest.approx(c.C21, abs=1e-8)

    def test_branch_partials_match_kernel_differences(self, rng):
        # the equilibria differentiate this kernel at g = 0 (cosg = 1) and g = pi (cosg = -1)
        h = 1e-6

        def kernel_partials(g, beta, x):
            out = []
            for k in range(3):
                up, dn = list(x), list(x)
                up[k] += h
                dn[k] -= h
                out.append((nf.kernel(g, 1.0, *up, beta, 1.0)
                            - nf.kernel(g, 1.0, *dn, beta, 1.0)) / (2 * h))
            return np.array(out)

        for _ in range(5):
            alpha = float(rng.uniform(-0.9, 2.5))
            beta = math.sqrt(alpha + 1.0)
            w, z = (float(v) for v in rng.uniform(-0.4, 0.4, 2))
            eta = float(rng.uniform(max(abs(w), abs(z)) + 0.05, 0.95))
            e = float(rng.uniform(0.05, 0.9))
            c = float(rng.uniform(0.0, 0.9))
            eta_c = math.sqrt(1.0 - e * e)
            for cosg, g in ((1.0, 0.0), (-1.0, math.pi)):
                fd = kernel_partials(g, beta, (eta, w, z))
                assert eq.branch_equation(eta, w, z, alpha, cosg) == pytest.approx(
                    fd[0], rel=1e-6, abs=1e-8)
                # (G, U1, U3) partials whose largest magnitude _periodic_residual reports
                fd = kernel_partials(g, beta, (eta_c, c * eta_c, c * eta_c))
                assert eq._periodic_residual(e, c, alpha, cosg) == pytest.approx(
                    float(np.max(np.abs(fd))), rel=1e-6, abs=1e-8)
                jac = model._complex_step_jacobian(
                    lambda G, U1, U3: (nf._kernel(g, 1.0, G, U1, U3, beta, 1.0),),
                    (eta_c, c * eta_c, c * eta_c))[0]
                np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-8)


class TestW1:
    def test_homological_identity(self, rng):
        worst = 0.0
        for _ in range(50):
            L, G, U1, U3 = random_momenta(rng)
            p = params(beta=math.sqrt(float(rng.uniform(0.0, 4.0))),
                       gamma=float(rng.uniform(0.5, 1.5)))
            dp = DelaunayPoint(ell=float(rng.uniform(0, TWO_PI)),
                               g=float(rng.uniform(0, TWO_PI)),
                               u1=0.0, u3=0.0, L=L, G=G, U1=U1, U3=U3)
            worst = max(worst, abs(nf.homological_residual(dp, p)))
        assert worst < 1e-6

    def test_zero_mean(self, rng):
        L, G, U1, U3 = random_momenta(rng)
        p = params(beta=1.3)
        mean = nf.average_over_ell(
            lambda ell: nf.w1(DelaunayPoint(ell=ell, g=0.7, u1=0.0, u3=0.0,
                                            L=L, G=G, U1=U1, U3=U3), p), 512)
        assert abs(mean) < 1e-10

    @pytest.mark.parametrize("L, G, U1, U3", [(1.0, 0.8, 1.2, 0.1), (1.0, 1.3, 0.2, 0.1),
                                              (1.0, 0.8, 0.1, -0.8), (1.0, 0.0, 0.0, 0.0)])
    def test_outside_the_chart_domain_is_a_domain_error(self, L, G, U1, U3):
        # w1 used to return a value (-0.1028 at |U1| = 1.5 G, 0.0517 at G > L)
        p = params(beta=1.3)
        for ell in (0.4, np.linspace(0.0, 6.0, 7)):
            dp = DelaunayPoint(ell=ell, g=0.5, u1=0.0, u3=0.0, L=L, G=G, U1=U1, U3=U3)
            with pytest.raises(charts.ChartDomainError):
                nf.perturbation_delaunay(dp, p)
            with pytest.raises(charts.ChartDomainError):
                nf.w1(dp, p)

    def test_circular_limit_finite_and_periodic(self):
        p = params(beta=1.5)
        vals = [nf.w1(DelaunayPoint(ell=ell, g=0.4, u1=0.0, u3=0.0,
                                    L=1.0, G=1.0, U1=0.2, U3=-0.3), p)
                for ell in (0.3, 0.3 + TWO_PI, 0.3 + 4 * TWO_PI)]
        assert all(math.isfinite(v) for v in vals)
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)
        assert vals[0] == pytest.approx(vals[2], abs=1e-12)


def _order2(L, G, U1, U3, beta, gamma):
    """(C02, C12, C22, C32, C42): the second-order table as nf-table and kernel read it."""
    return nf._kernel_terms(L, G, U1, U3, beta, gamma, order=2)[3:]


class TestOrder2:
    def test_central_case_zeroes(self):
        C02, C12, C22, C32, C42 = _order2(1.0, 0.8, 0.2, -0.3, beta=1.0, gamma=1.0)
        assert C32 == 0.0 and C42 == 0.0

    def test_circular_zeroes(self):
        C02, C12, C22, C32, C42 = _order2(1.0, 1.0, 0.2, -0.3, beta=math.sqrt(2.0), gamma=1.0)
        assert C12 == 0.0 and C32 == 0.0 and C42 == 0.0

    def test_oracle_agreement(self, rng):
        L, G, U1, U3 = random_momenta(rng)
        beta, gamma = math.sqrt(2.0), 0.9
        res = nf.second_order_oracle(L, G, U1, U3, beta, gamma)
        mine = np.array(_order2(L, G, U1, U3, beta, gamma))
        orac = np.array(res.cos_coeffs)
        assert np.max(np.abs(mine - orac) / np.maximum(1e-10, np.abs(orac))) < 1e-4
        assert res.sin_max < 1e-6

    def test_oracle_central_case_structure(self, rng):
        # alpha = 0 kills the cos 3g and cos 4g components
        L, G, U1, U3 = random_momenta(rng)
        res = nf.second_order_oracle(L, G, U1, U3, beta=1.0, gamma=1.0,
                                     n_ell=128, n_g=16)
        assert abs(res.cos_coeffs[3]) < 1e-6
        assert abs(res.cos_coeffs[4]) < 1e-6
        assert res.sin_max < 1e-6

    @pytest.mark.parametrize("beta_sq", [0.25, 2.0, 3.5])
    @pytest.mark.parametrize("e", [1e-2, 1e-3, 1e-4])
    def test_oracle_agreement_near_circular_orbits(self, e, beta_sq):
        # Below e ~ 0.009 the oracle used to shift G past L and raise
        # ValueError.  c06's metric is rtol 1e-4 over an absolute floor of
        # 1e-14 (1e-4 of its 1e-10).  Near a circular orbit the L and G
        # partials of R1 and W1 grow as 1/e (7e3 at e = 1e-4) and cancel to
        # O(1) in the bracket, so the oracle's roundoff grows as 1/e (1.3e-13
        # at e = 1e-4, beta^2 = 3.5), past C32 ~ e^3 and C42 ~ e^4: the
        # floor here is eps |C02| / e.
        L, G, U1, U3 = 1.0, math.sqrt(1.0 - e * e), 0.2, 0.1
        beta = math.sqrt(beta_sq)
        res = nf.second_order_oracle(L, G, U1, U3, beta, 1.0)
        mine = np.array(_order2(L, G, U1, U3, beta, 1.0))
        floor = max(1e-14, np.finfo(float).eps * abs(mine[0]) / e)
        np.testing.assert_allclose(res.cos_coeffs, mine, rtol=1e-4, atol=floor)
        assert res.sin_max < floor

    def test_oracle_refuses_a_circular_orbit(self):
        # at G = L the Delaunay bracket is singular (e = 0)
        with pytest.raises(charts.DegenerateEccentricityError):
            nf.second_order_oracle(1.0, 1.0, 0.2, 0.1, 1.3, 1.0)

    def test_oracle_error_gate(self, rng):
        L, G, U1, U3 = random_momenta(rng)
        with pytest.raises(RuntimeError):
            nf.second_order_oracle(L, G, U1, U3, beta=1.4, gamma=1.0,
                                   n_ell=64, n_g=16, tol=1e-30)


def test_order2_kernel_sums_one_table_row(rng):
    # kernel(order=2) used to add C01..C21 of order1_coeffs to C02..C42 of a
    # second _kernel_terms call; one table row gives the same bits
    for k in range(2000):
        L, G, U1, U3 = random_momenta(rng)
        if k % 4 == 1:
            G = L
        elif k % 4 == 2:
            U1 = math.copysign(G, U1)
        beta, gamma = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.5, 1.5))
        g, eps = float(rng.uniform(-TWO_PI, TWO_PI)), float(rng.uniform(0.0, 0.1))
        c = nf.order1_coeffs(L, G, U1, U3, beta, gamma)
        terms = (c.C01, c.C11, c.C21) + nf._kernel_terms(L, G, U1, U3, beta, gamma, order=2)[3:]
        want = nf._sum_kernel(terms, nf._cos_kg(g, terms), eps)
        assert nf.kernel(g, L, G, U1, U3, beta, gamma, order=2, epsilon=eps).hex() == want.hex()


class TestNormalizedField:
    def test_momenta_are_integrals(self, rng):
        p = params(eps=1e-3)
        for order in (1, 2):
            dp = random_delaunay(rng)
            tan = nf.normalized_rhs(dp, p, order=order)
            assert tan.L == 0.0 and tan.U1 == 0.0 and tan.U3 == 0.0

    def test_unperturbed_flow(self, rng):
        p = params(eps=0.0)
        dp = random_delaunay(rng)
        tan = nf.normalized_rhs(dp, p, order=1)
        assert tan.ell == pytest.approx(p.gamma ** 2 / dp.L ** 3, rel=1e-15)
        assert tan.g == 0.0 and tan.G == 0.0 and tan.u1 == 0.0 and tan.u3 == 0.0

    def test_vanishes_at_equilibrium(self):
        from resonance_lab import equilibria

        res = equilibria.solve_tori3(0.2, 0.1, 1.0)
        rec = next(r for r in res.records if "circular" not in r.flags)
        p = ModelParams(omega=1.0, epsilon=1e-3, beta=math.sqrt(2.0), gamma=1.0)
        dp = DelaunayPoint(ell=0.3, g=rec.g, u1=0.0, u3=0.0,
                           L=1.0, G=rec.eta, U1=rec.w, U3=rec.z)
        tan = nf.normalized_rhs(dp, p, order=1)
        assert abs(tan.g) < 1e-10 * p.epsilon or abs(tan.g) < 1e-12
        assert abs(tan.G) < 1e-12

    @pytest.mark.parametrize("order", [1, 2])
    def test_rates_match_kernel_differences(self, rng, order):
        # every rate is eps times a central difference of the order's own kernel
        p = params(eps=1e-2)
        h = 1e-6
        for _ in range(10):
            dp = random_delaunay(rng)
            args = {"g": dp.g, "L": dp.L, "G": dp.G, "U1": dp.U1, "U3": dp.U3}

            def diff(name):
                up, dn = dict(args), dict(args)
                up[name] += h
                dn[name] -= h
                kp = nf.kernel(**up, beta=p.beta, gamma=p.gamma, order=order, epsilon=p.epsilon)
                km = nf.kernel(**dn, beta=p.beta, gamma=p.gamma, order=order, epsilon=p.epsilon)
                return (kp - km) / (2 * h)

            tan = nf.normalized_rhs(dp, p, order=order)
            eps = p.epsilon
            assert tan.ell - p.gamma ** 2 / dp.L ** 3 == pytest.approx(eps * diff("L"), rel=1e-6)
            assert tan.g == pytest.approx(eps * diff("G"), rel=1e-6)
            assert tan.u1 == pytest.approx(eps * diff("U1"), rel=1e-6)
            assert tan.u3 == pytest.approx(eps * diff("U3"), rel=1e-6)
            assert tan.G == pytest.approx(-eps * diff("g"), rel=1e-6)

    def test_g_derivative_sign(self, rng):
        # dG/dt = -eps dP/dg checked by finite differences of the kernel
        p = params(eps=1e-2)
        dp = random_delaunay(rng)
        tan = nf.normalized_rhs(dp, p, order=1)
        h = 1e-6
        kp = nf.kernel(dp.g + h, dp.L, dp.G, dp.U1, dp.U3, p.beta, p.gamma)
        km = nf.kernel(dp.g - h, dp.L, dp.G, dp.U1, dp.U3, p.beta, p.gamma)
        assert tan.G == pytest.approx(-p.epsilon * (kp - km) / (2 * h), rel=1e-6, abs=1e-12)


# -- one term function for both orders -------------------------------------------
# The per-order term functions that ``nf._kernel_terms`` merged, and the sums
# that read them, kept verbatim as references: every value must keep its bits.

def _kernel1_terms_reference(L, G, U1, U3, beta: float, gamma: float):
    """(C01, C11, C21): the first-order term function as written before the merge."""
    alpha = beta * beta - 1.0
    a = L * L * (1.0 / gamma)
    eta = G / L
    esq = 1.0 - eta * eta
    c1 = U1 / G
    c2 = U3 / G
    s1sq = 1.0 - c1 * c1
    s2sq = 1.0 - c2 * c2
    e = nf._sqrt(esq)
    s1 = nf._sqrt(s1sq)
    s2 = nf._sqrt(s2sq)
    a2 = a * a
    c01 = (1.0 / 16.0) * a2 * (2.0 + 3.0 * esq) * (2.0 + alpha * (2.0 * c1 * c1 * c2 * c2 + s1sq * s2sq))
    c11 = (-1.0 / 4.0) * a2 * alpha * (4.0 + esq) * e * c1 * c2 * s1 * s2
    c21 = (5.0 / 16.0) * a2 * alpha * esq * s1sq * s2sq
    return c01, c11, c21


def _kernel2_terms_reference(L, G, U1, U3, beta: float, gamma: float):
    """(C02, C12, C22, C32, C42): the second-order term function as written before the merge.

    Exact second-order averages of the bracket kernel; uniform prefactor
    a^5/gamma.  The alpha-linear blocks reuse the same angular combinations
    as the first order (2 c1^2 c2^2 + s1^2 s2^2 and s1^2 s2^2).
    """
    alpha = beta * beta - 1.0
    a = L * L * (1.0 / gamma)
    eta = G / L
    e2 = 1.0 - eta * eta
    c1 = U1 / G
    c2 = U3 / G
    s1sq = 1.0 - c1 * c1
    s2sq = 1.0 - c2 * c2
    e = nf._sqrt(e2)
    s1 = nf._sqrt(s1sq)
    s2 = nf._sqrt(s2sq)
    e4 = e2 * e2
    e6 = e4 * e2
    c1sq = c1 * c1
    c2sq = c2 * c2
    c14 = c1sq * c1sq
    c24 = c2sq * c2sq
    # orientation {R1 + K1, W1}; uniform scale a^5/gamma
    scale = -a * a * a * a * a * (1.0 / gamma)

    base0 = 0.25 + (33.0 / 32.0) * e2 - (21.0 / 128.0) * e4
    c02 = (
        alpha * alpha * (
            c14 * c24 * ((317.0 / 384.0) + (887.0 / 384.0) * e2 - (675.0 / 1024.0) * e4 - (9.0 / 64.0) * e6)
            + (c14 * c2sq + c1sq * c24) * (-(155.0 / 192.0) - (211.0 / 96.0) * e2 + (1277.0 / 1536.0) * e4 + (11.0 / 64.0) * e6)
            + (c14 + c24) * (-(7.0 / 384.0) + (209.0 / 384.0) * e2 - (1001.0 / 3072.0) * e4)
            + c1sq * c2sq * ((101.0 / 96.0) + (197.0 / 48.0) * e2 - (429.0 / 256.0) * e4 - (13.0 / 64.0) * e6)
            + (c1sq + c2sq) * ((1.0 / 192.0) - (49.0 / 32.0) * e2 + (427.0 / 512.0) * e4)
            + ((5.0 / 384.0) + (379.0 / 384.0) * e2 - (1561.0 / 3072.0) * e4)
        )
        + alpha * (2.0 * c1sq * c2sq + s1sq * s2sq) * base0
        + base0
    )

    c12 = alpha * c1 * c2 * e * s1 * s2 * (
        alpha * (
            c1sq * c2sq * (-(79.0 / 24.0) - (23.0 / 16.0) * e2 + (127.0 / 128.0) * e4)
            + (c1sq + c2sq) * ((43.0 / 24.0) + (23.0 / 48.0) * e2 - (257.0 / 384.0) * e4)
            + (-(67.0 / 24.0) - (5.0 / 6.0) * e2 + (329.0 / 384.0) * e4)
        )
        + (-3.5 - (25.0 / 16.0) * e2 + (19.0 / 32.0) * e4)
    )

    c22 = (
        alpha * alpha * (
            c14 * c24 * ((297.0 / 128.0) * e2 - (239.0 / 768.0) * e4 - (9.0 / 64.0) * e6)
            + (c14 * c2sq + c1sq * c24) * (-(181.0 / 64.0) * e2 + (53.0 / 96.0) * e4 + (9.0 / 64.0) * e6)
            + (c14 + c24) * ((65.0 / 128.0) * e2 - (185.0 / 768.0) * e4)
            + c1sq * c2sq * ((269.0 / 64.0) * e2 - (141.0 / 128.0) * e4 - (9.0 / 64.0) * e6)
            + (c1sq + c2sq) * (-(11.0 / 8.0) * e2 + (211.0 / 384.0) * e4)
            + ((111.0 / 128.0) * e2 - (79.0 / 256.0) * e4)
        )
        + alpha * s1sq * s2sq * ((111.0 / 64.0) * e2 - (79.0 / 128.0) * e4)
    )

    c32 = (5.0 / 384.0) * alpha * alpha * c1 * c2 * (e * e2) * s1 * s2 * s1sq * s2sq * (11.0 * e2 - 52.0)
    c42 = (205.0 / 3072.0) * alpha * alpha * e4 * s1sq * s1sq * s2sq * s2sq

    return (scale * c02, scale * c12, scale * c22, scale * c32, scale * c42)


def _kernel_reference(g, L, G, U1, U3, beta, gamma, order=1, epsilon=0.0):
    cos = cmath.cos if isinstance(g, complex) else math.cos
    val = sum(c * cos(k * g) for k, c in enumerate(_kernel1_terms_reference(L, G, U1, U3, beta, gamma)))
    if order == 2:
        t2 = _kernel2_terms_reference(L, G, U1, U3, beta, gamma)
        val += 0.5 * epsilon * sum(c * cos(k * g) for k, c in enumerate(t2))
    return val


def _public_kernel_reference(g, L, G, U1, U3, beta, gamma, order=1, epsilon=0.0):
    c01, c11, c21 = _kernel1_terms_reference(L, G, U1, U3, beta, gamma)
    val = c01 + c11 * math.cos(g) + c21 * math.cos(2 * g)
    if order == 2:
        c02, c12, c22, c32, c42 = _kernel2_terms_reference(L, G, U1, U3, beta, gamma)
        val += 0.5 * epsilon * (c02 + c12 * math.cos(g) + c22 * math.cos(2 * g)
                                + c32 * math.cos(3 * g) + c42 * math.cos(4 * g))
    return val


def _normalized_rhs_reference(dp, p, order):
    eps = p.epsilon
    dP_dg, dP_dL, dP_dG, dP_dU1, dP_dU3 = model._complex_step_jacobian(
        lambda *x: (_kernel_reference(*x, p.beta, p.gamma, order, eps),),
        (dp.g, dp.L, dp.G, dp.U1, dp.U3))[0]
    return (p.gamma ** 2 / dp.L ** 3 + eps * dP_dL, eps * dP_dG, eps * dP_dU1,
            eps * dP_dU3, 0.0, -eps * dP_dg, 0.0, 0.0)


def _branch_equation_reference(eta, w, z, alpha, cosg):
    beta = eq._branch_beta(alpha, cosg)
    c01, c11, c21 = _kernel1_terms_reference(1.0, complex(eta, model._COMPLEX_STEP), w, z, beta, 1.0)
    return (c01 + cosg * c11 + c21).imag / model._COMPLEX_STEP


def _bits(fn, *args, **kwargs):
    """float.hex of every real and imaginary part fn returns, or the error it raises."""
    try:
        out = fn(*args, **kwargs)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__
    values = out if isinstance(out, tuple) else (out,)
    return [float(x).hex() for v in values
            for x in ((v.real, v.imag) if isinstance(v, complex) else (v,))]


_MOMENTA = st.tuples(st.floats(0.05, 20.0), st.floats(1e-3, 1.0), st.floats(-0.999, 0.999),
                     st.floats(-0.999, 0.999))
_BETA = st.floats(0.0, 4.0)
_GAMMA = st.floats(0.05, 5.0)
_ANGLE = st.floats(-10.0, 10.0)
_EPSILON = st.floats(0.0, 0.5)


def _point(momenta):
    L, eta, c1, c2 = momenta
    G = eta * L
    return L, G, c1 * G, c2 * G


class TestOneTermFunction:
    @settings(max_examples=250, deadline=None)
    @given(_MOMENTA, _BETA, _GAMMA, _ANGLE, _EPSILON)
    def test_terms_and_kernel_keep_their_bits(self, momenta, beta, gamma, g, eps):
        # the float input, then each complex-step column of (g, L, G, U1, U3)
        x = (g, *_point(momenta))
        for k in range(-1, 5):
            z = [complex(v, model._COMPLEX_STEP) if i == k else v for i, v in enumerate(x)]
            assert _bits(nf._kernel_terms, *z[1:], beta, gamma) == _bits(
                _kernel1_terms_reference, *z[1:], beta, gamma)
            assert _bits(nf._kernel_terms, *z[1:], beta, gamma, order=2) == _bits(
                lambda *a: _kernel1_terms_reference(*a) + _kernel2_terms_reference(*a),
                *z[1:], beta, gamma)
            for order in (1, 2):
                assert _bits(nf._kernel, *z, beta, gamma, order, eps) == _bits(
                    _kernel_reference, *z, beta, gamma, order, eps)

    @settings(max_examples=250, deadline=None)
    @given(_MOMENTA, _BETA, _GAMMA, _ANGLE, _EPSILON)
    def test_public_tables_keep_their_bits(self, momenta, beta, gamma, g, eps):
        L, G, U1, U3 = _point(momenta)
        c1 = nf.order1_coeffs(L, G, U1, U3, beta, gamma)
        assert _bits(lambda: tuple(vars(c1).values())) == _bits(
            _kernel1_terms_reference, L, G, U1, U3, beta, gamma)
        assert _bits(_order2, L, G, U1, U3, beta, gamma) == _bits(
            _kernel2_terms_reference, L, G, U1, U3, beta, gamma)
        for order in (1, 2):
            assert _bits(nf.kernel, g, L, G, U1, U3, beta, gamma, order, eps) == _bits(
                _public_kernel_reference, g, L, G, U1, U3, beta, gamma, order, eps)

    @settings(max_examples=250, deadline=None)
    @given(_MOMENTA, _BETA, _GAMMA, _ANGLE, _ANGLE, _EPSILON)
    def test_normalized_rhs_keeps_its_bits(self, momenta, beta, gamma, ell, g, eps):
        L, G, U1, U3 = _point(momenta)
        dp = DelaunayPoint(ell=ell, g=g, u1=0.3, u3=-0.2, L=L, G=G, U1=U1, U3=U3)
        p = params(beta=beta, gamma=gamma, eps=eps)
        for order in (1, 2):
            assert _bits(lambda: tuple(nf.normalized_rhs(dp, p, order))) == _bits(
                _normalized_rhs_reference, dp, p, order)

    @settings(max_examples=250, deadline=None)
    @given(st.floats(-0.999, 0.999), st.floats(-0.999, 0.999), st.floats(0.0, 1.0),
           st.floats(-0.99, 5.0), st.sampled_from([1.0, -1.0]))
    def test_branch_equation_keeps_its_bits(self, w, z, t, alpha, cosg):
        lo = max(abs(w), abs(z))
        eta = min(1.0, lo + (1.0 - lo) * t)
        if not lo < eta:
            eta = 1.0
        assert _bits(eq.branch_equation, eta, w, z, alpha, cosg) == _bits(
            _branch_equation_reference, eta, w, z, alpha, cosg)


# -- W1 as one cubic in cos E ----------------------------------------------------

def _w1_reference(dp, p):
    """W1 as written before the cubic form: the five integrals over sin and cos of E, 2E, 3E."""
    gamma = p.gamma
    L, G, U1, U3 = dp.L, dp.G, dp.U1, dp.U3
    alpha = p.beta * p.beta - 1.0
    a = L * L / gamma
    eta = G / L
    e = np.sqrt(np.maximum(0.0, 1.0 - eta * eta))
    c1 = U1 / G
    c2 = U3 / G
    s1 = np.sqrt(np.maximum(0.0, 1.0 - c1 * c1))
    s2 = np.sqrt(np.maximum(0.0, 1.0 - c2 * c2))

    E = charts.kepler_solve(dp.ell, e)
    se, ce = np.sin(E), np.cos(E)
    s2e, c2e = np.sin(2 * E), np.cos(2 * E)
    s3e, c3e = np.sin(3 * E), np.cos(3 * E)

    A = (2.0 + alpha * (2.0 * c1 * c1 * c2 * c2 + s1 * s1 * s2 * s2)) / 8.0
    B = 0.5 * alpha * c1 * c2 * s1 * s2
    C = alpha * s1 * s1 * s2 * s2 / 8.0

    e2 = e * e
    e3 = e2 * e
    e4 = e2 * e2
    IA = -(2.0 * e - 0.75 * e3) * se + 0.75 * e2 * s2e - (e3 / 12.0) * s3e
    IBc = (1.0 + 0.75 * e2 - 0.5 * e4) * se - (0.5 * e + 0.25 * e3) * s2e + (e2 / 12.0) * s3e
    IBs = eta * (-(1.0 + 0.25 * e2) * ce + 0.5 * e * c2e - (e2 / 12.0) * c3e) - eta * e * (4.0 + e2) / 8.0
    ICc = -1.25 * e * (2.0 - e2) * se + 0.25 * (2.0 + e2) * s2e - (e * (2.0 - e2) / 12.0) * s3e
    ICs = eta * (2.5 * e * ce - 0.5 * (1.0 + e2) * c2e + (e / 6.0) * c3e) + 1.25 * eta * e2

    pref = a * a * L ** 3 / gamma ** 2
    cg, sg = np.cos(dp.g), np.sin(dp.g)
    c2g, s2g = np.cos(2 * dp.g), np.sin(2 * dp.g)
    return charts._value(pref * (A * IA + B * (cg * IBc - sg * IBs) + C * (c2g * ICc - s2g * ICs)))


_W1_BETA_SQ = st.sampled_from([0.0, 0.25, 1.0, 2.0, 4.0])
_W1_ECC = st.one_of(st.just(0.0), st.floats(0.0, 0.92))
_W1_COS = st.floats(-0.95, 0.95)
_W1_ELL = st.one_of(st.floats(-20.0, 20.0), st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=37))
_W1_G = st.one_of(st.floats(-10.0, 10.0), st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5))


class TestW1Cubic:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.5, 2.0), _W1_ECC, _W1_COS, _W1_COS, _W1_BETA_SQ, st.floats(0.5, 1.5),
           _W1_ELL, _W1_G)
    def test_matches_the_reference(self, L, e, c1, c2, beta_sq, gamma, ell, g):
        G = L * math.sqrt(1.0 - e * e)  # e = 0 gives G = L
        p = params(beta=math.sqrt(beta_sq), gamma=gamma)
        ell = ell if isinstance(ell, float) else np.array(ell)
        g = g if isinstance(g, float) else np.array(g)
        if np.ndim(ell) and np.ndim(g):
            ell = ell[:, None]  # every ell against every g
        dp = DelaunayPoint(ell=ell, g=g, u1=0.0, u3=0.0, L=L, G=G, U1=c1 * G, U3=c2 * G)
        got, want = nf.w1(dp, p), _w1_reference(dp, p)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        # the scale: max |W1| over a period of ell, at every g
        nodes = np.arange(64) * (TWO_PI / 64)
        scale = np.max(np.abs(_w1_reference(
            dp._replace(ell=nodes.reshape((-1,) + (1,) * np.ndim(g))), p)))
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("beta_sq", [0.0, 0.25, 1.0, 2.0, 4.0])
    def test_zero_mean_over_the_battery_ranges(self, beta_sq, rng):
        for _ in range(40):
            L, G, U1, U3 = random_momenta(rng)
            p = params(beta=math.sqrt(beta_sq), gamma=float(rng.uniform(0.5, 1.5)))
            dp = DelaunayPoint(ell=0.0, g=float(rng.uniform(0, TWO_PI)), u1=0.0, u3=0.0,
                               L=L, G=G, U1=U1, U3=U3)
            assert abs(nf.average_over_ell(lambda ell: nf.w1(dp._replace(ell=ell), p))) < 1e-10
