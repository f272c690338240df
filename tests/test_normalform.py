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


class TestOrder1Coefficients:
    def test_central_circular_value(self):
        c = nf.order1_coeffs(1.0, 1.0, 0.0, 0.0, beta=1.0, gamma=1.0)
        assert c.C01 == pytest.approx(0.25, abs=1e-15)
        assert c.C11 == 0.0 and c.C21 == 0.0

    def test_circular_kills_odd_harmonics(self, rng):
        for beta in (0.0, 1.3, 2.0):
            c = nf.order1_coeffs(1.3, 1.3, 0.4, -0.2, beta=beta, gamma=0.9)
            assert c.C11 == 0.0 and c.C21 == 0.0

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
                    eq._sin_g_zero_kernel(alpha, cosg), (eta_c, c * eta_c, c * eta_c))[0]
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

    def test_circular_limit_finite_and_periodic(self):
        p = params(beta=1.5)
        vals = [nf.w1(DelaunayPoint(ell=ell, g=0.4, u1=0.0, u3=0.0,
                                    L=1.0, G=1.0, U1=0.2, U3=-0.3), p)
                for ell in (0.3, 0.3 + TWO_PI, 0.3 + 4 * TWO_PI)]
        assert all(math.isfinite(v) for v in vals)
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)
        assert vals[0] == pytest.approx(vals[2], abs=1e-12)


class TestOrder2:
    def test_central_case_zeroes(self):
        c2 = nf.order2_coeffs(1.0, 0.8, 0.2, -0.3, beta=1.0, gamma=1.0)
        assert c2.C32 == 0.0 and c2.C42 == 0.0

    def test_circular_zeroes(self):
        c2 = nf.order2_coeffs(1.0, 1.0, 0.2, -0.3, beta=math.sqrt(2.0), gamma=1.0)
        assert c2.C12 == 0.0 and c2.C32 == 0.0 and c2.C42 == 0.0

    def test_oracle_agreement(self, rng):
        L, G, U1, U3 = random_momenta(rng)
        beta, gamma = math.sqrt(2.0), 0.9
        res = nf.second_order_oracle(L, G, U1, U3, beta, gamma)
        c2 = nf.order2_coeffs(L, G, U1, U3, beta, gamma)
        mine = np.array([c2.C02, c2.C12, c2.C22, c2.C32, c2.C42])
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

    def test_oracle_error_gate(self, rng):
        L, G, U1, U3 = random_momenta(rng)
        with pytest.raises(RuntimeError):
            nf.second_order_oracle(L, G, U1, U3, beta=1.4, gamma=1.0,
                                   n_ell=64, n_g=16, tol=1e-30)


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
