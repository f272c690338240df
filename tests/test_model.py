import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resonance_lab import model
from resonance_lab.model import CartesianState, IntegralValues, ModelParams

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def state(q, Q):
    return CartesianState(q=tuple(q), Q=tuple(Q))


class TestHamiltonian:
    def test_pure_potential(self):
        s = state([1, 0, 0, 0], [0, 0, 0, 0])
        assert model.hamiltonian(s, ModelParams(omega=1.0)) == 0.5

    def test_sextic_substitution(self):
        # rho = 1, axial difference squared = 1, cross block = 0
        s = state([1, 0, 0, 0], [0, 0, 0, 0])
        p = ModelParams(omega=1.0, epsilon=1.0, beta=2.0)
        assert model.hamiltonian(s, p) == pytest.approx(0.5 + 4.0, abs=1e-15)

    def test_kinetic_only(self):
        s = state([0, 0, 0, 0], [1, 1, 1, 1])
        for beta in (0.0, 1.0, 3.0):
            assert model.hamiltonian(s, ModelParams(beta=beta)) == 2.0

    def test_general_omega(self):
        s = state([1, 0, 0, 0], [0, 0, 0, 0])
        assert model.hamiltonian(s, ModelParams(omega=3.0)) == pytest.approx(4.5)


class TestFirstIntegrals:
    def test_first_plane(self):
        xi, l1 = model.first_integrals(state([1, 0, 0, 0], [0, 1, 0, 0]))
        assert (xi, l1) == (1.0, -1.0)

    def test_second_plane(self):
        xi, l1 = model.first_integrals(state([0, 0, 1, 0], [0, 0, 0, 1]))
        assert (xi, l1) == (1.0, 1.0)

    def test_zero_state(self):
        assert model.first_integrals(state([0] * 4, [0] * 4)) == (0.0, 0.0)


class TestVectorField:
    def test_harmonic_rest_point(self):
        s = state([1, 0, 0, 0], [0, 0, 0, 0])
        f = model._rhs(s.as_array(), ModelParams(omega=1.0))
        assert f.tolist() == [0, 0, 0, 0, -1, 0, 0, 0]

    def test_unperturbed_is_linear(self, rng):
        p = ModelParams(omega=1.7)
        for _ in range(10):
            x = rng.normal(size=8)
            f = model._rhs(x, p)
            assert np.allclose(f[:4], x[4:], rtol=0, atol=0)
            assert np.allclose(f[4:], -p.omega ** 2 * x[:4], rtol=0, atol=0)

    def test_central_case_gradient_value(self):
        # dQ1/dt = -(omega^2 q1 + eps dV6/dq1); at q = (1,0,0,0) with
        # beta^2 = 1 the sextic reduces to |q|^6, so dV6/dq1 = 6 q1^5 = 6.
        s = state([1, 0, 0, 0], [0, 0, 0, 0])
        f = model._rhs(s.as_array(), ModelParams(omega=1.0, epsilon=1.0, beta=1.0))
        assert f[4] == pytest.approx(-(1.0 + 6.0), abs=1e-14)
        # independent oracle: central finite difference of the energy
        h = 1e-6
        p = ModelParams(omega=1.0, epsilon=1.0, beta=1.0)
        dh = (model.hamiltonian(state([1 + h, 0, 0, 0], [0] * 4), p)
              - model.hamiltonian(state([1 - h, 0, 0, 0], [0] * 4), p)) / (2 * h)
        assert f[4] == pytest.approx(-dh, abs=1e-8)

    def test_matches_finite_differences(self, rng):
        p = ModelParams(omega=1.0, epsilon=0.7, beta=1.3)
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=8)
            f = model._rhs(x, p)
            grad = np.empty(8)
            for i in range(8):
                xp = x.copy()
                xm = x.copy()
                xp[i] += h
                xm[i] -= h
                grad[i] = (model.hamiltonian(CartesianState.from_array(xp), p)
                           - model.hamiltonian(CartesianState.from_array(xm), p)) / (2 * h)
            expect = np.concatenate([grad[4:], -grad[:4]])
            worst = max(worst, np.max(np.abs(f - expect)) / max(1.0, np.max(np.abs(f))))
        assert worst < 1e-6


class TestIntegrate:
    def test_harmonic_orbit_closes(self):
        s0 = state([1, 0, 0, 0], [0, 1, 0, 0])
        tol = 1e-12
        traj = model.integrate(s0, ModelParams(omega=1.0), 2 * math.pi, tol, n_out=3)
        assert np.max(np.abs(traj.states[-1] - traj.states[0])) < 10 * tol

    def test_xi_drift_bounded(self, rng):
        tol = 1e-10
        s0 = CartesianState.from_array(rng.normal(size=8))
        p = ModelParams(omega=1.0, epsilon=1e-2, beta=1.5)
        traj = model.integrate(s0, p, 50.0, tol, n_out=64)
        assert traj.xi_drift <= 100 * tol
        assert traj.l1_drift <= 100 * tol

    def test_tolerance_halving_convergence(self, rng):
        s0 = CartesianState.from_array(0.7 * rng.normal(size=8))
        p = ModelParams(omega=1.0, epsilon=1e-3, beta=math.sqrt(2.0))
        drifts = []
        for tol in (1e-8, 5e-9, 2.5e-9):
            traj = model.integrate(s0, p, 30.0, tol, n_out=32)
            drifts.append(traj.energy_drift)
        # drift must scale (roughly) linearly with the tolerance
        assert drifts[2] < drifts[0]
        assert all(d <= 100 * tol for d, tol in zip(drifts, (1e-8, 5e-9, 2.5e-9)))

    def test_central_case_plane_momenta_conserved(self, rng):
        from resonance_lab import invariants

        tol = 1e-12
        x = rng.normal(size=8)
        x /= np.linalg.norm(x)
        p = ModelParams(omega=1.0, epsilon=1e-3, beta=1.0)
        traj = model.integrate(CartesianState.from_array(x), p, 100.0, tol, n_out=101)
        pis = [invariants.pi_map(traj.state(i)) for i in range(len(traj.t))]
        assert max(abs(pv.pi11 - pis[0].pi11) for pv in pis) <= 100 * tol * 10
        assert max(abs(pv.pi16 - pis[0].pi16) for pv in pis) <= 100 * tol * 10

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            model.integrate(state([1, 0, 0, 0], [0] * 4), ModelParams(), 1.0, tol=-1.0)

    def test_failure_carries_last_state(self):
        # a rectilinear orbit reaches the origin, where the 1/(4 rho)
        # reparametrization blows up and the step size underflows
        s0 = state([1, 0, 0, 0], [0, 0, 0, 0])
        with pytest.raises(model.IntegrationError) as err:
            model.integrate(s0, ModelParams(omega=1.0), 4.0, 1e-10, n_out=8,
                            time_scale=lambda x: 1.0 / (4.0 * (x[0] ** 2 + x[1] ** 2
                                                               + x[2] ** 2 + x[3] ** 2)))
        assert err.value.t_last >= 0.0
        assert isinstance(err.value.state_last, model.CartesianState)


    def test_monitors_equal_per_sample_closed_forms(self, rng):
        p = ModelParams(omega=1.3, epsilon=2e-2, beta=1.5)
        traj = model.integrate(CartesianState.from_array(0.7 * rng.normal(size=8)), p,
                               10.0, 1e-10, n_out=41)
        for k in range(len(traj.t)):
            s = CartesianState.from_array(traj.states[k])
            assert traj.energy[k] == model.hamiltonian(s, p)
            assert (traj.xi[k], traj.l1[k]) == model.first_integrals(s)
        # a caller may write into the monitors
        assert traj.energy.dtype == np.float64 and traj.energy.flags.writeable
        traj.energy[-1] += 1.0

    def test_work_budget_carries_the_last_evaluation(self, monkeypatch):
        monkeypatch.setattr(model, "_MAX_NFEV", 50)
        calls = []

        def fun(t, y):
            calls.append((t, y.copy()))
            return -y

        with pytest.raises(model.IntegrationError, match="work budget") as err:
            model._solve_ivp(fun, 1e6, [1.0, 2.0], None, 1e-12, 1e-12)
        assert len(calls) == 50
        assert err.value.t_last == calls[-1][0]
        assert np.array_equal(err.value.state_last, calls[-1][1])


class TestFromArray:
    def test_python_floats_and_a_copy(self):
        x = np.arange(8.0)
        s = CartesianState.from_array(x)
        assert all(type(v) is float for v in s.q + s.Q)
        x[:] = -1.0
        assert s.q == (0.0, 1.0, 2.0, 3.0) and s.Q == (4.0, 5.0, 6.0, 7.0)

    @pytest.mark.parametrize("shape", [(7,), (9,), (2, 4), ()])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="expected 8 components"):
            CartesianState.from_array(np.zeros(shape))


class TestBracket:
    def test_integrals_commute(self, rng):
        # Xi and L1 are quadratic, so a large step is exact and minimizes
        # cancellation noise
        worst = 0.0
        for _ in range(25):
            s = CartesianState.from_array(0.7 * rng.normal(size=8))
            def xi(st):
                return model.first_integrals(st)[0]
            def l1(st):
                return model.first_integrals(st)[1]
            worst = max(worst, abs(model.canonical_bracket(xi, l1, s, step=1e-3)))
        assert worst < 1e-12

    def test_bracket_of_h2_with_integrals(self, rng):
        p = ModelParams(omega=1.0)
        s = CartesianState.from_array(0.5 * rng.normal(size=8))
        h2 = lambda st: model.hamiltonian(st, p)
        xi = lambda st: model.first_integrals(st)[0]
        assert abs(model.canonical_bracket(h2, xi, s, step=1e-3)) < 1e-12


class TestParams:
    def test_omega_positive(self):
        with pytest.raises(ValueError):
            ModelParams(omega=0.0)

    def test_gamma_positive_when_set(self):
        with pytest.raises(ValueError):
            ModelParams(gamma=-1.0)

    def test_integral_values_domain(self):
        with pytest.raises(ValueError):
            IntegralValues(n=1.0, xi=1.5, l=0.0)
        with pytest.raises(ValueError):
            IntegralValues(n=-1.0, xi=0.0, l=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls, base, name", [
        (ModelParams, {}, "omega"),
        (ModelParams, {}, "epsilon"),
        (ModelParams, {}, "beta"),
        (ModelParams, {}, "gamma"),
        (IntegralValues, {"n": 1.0, "xi": 0.1, "l": 0.1}, "n"),
        (IntegralValues, {"n": 1.0, "xi": 0.1, "l": 0.1}, "xi"),
        (IntegralValues, {"n": 1.0, "xi": 0.1, "l": 0.1}, "l"),
    ])
    def test_non_finite_rejected(self, cls, base, name, bad):
        with pytest.raises(ValueError):
            cls(**{**base, name: bad})


@settings(max_examples=50, deadline=None)
@given(st.lists(finite, min_size=8, max_size=8))
def test_sextic_gradient_is_exact(xs):
    q = xs[:4]
    h = 1e-5
    for beta in (0.0, 1.0, 1.7):
        g = model.grad_h_sextic(q, beta)
        for i in range(4):
            qp = list(q)
            qm = list(q)
            qp[i] += h
            qm[i] -= h
            sp = CartesianState(q=tuple(qp), Q=(0, 0, 0, 0))
            sm = CartesianState(q=tuple(qm), Q=(0, 0, 0, 0))
            fd = (model.h_sextic(sp, beta) - model.h_sextic(sm, beta)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-5)


# The ndarray form of the gradient and the vector field before they moved to
# Python floats: the float form must reproduce it bit for bit.
def _grad_reference(q, beta):
    q1, q2, q3, q4 = q
    b2 = beta * beta
    r1 = q1 * q1 + q2 * q2
    r2 = q3 * q3 + q4 * q4
    rho = r1 + r2
    d = r1 - r2
    w = b2 * d * d + 4.0 * r1 * r2
    g = np.empty(4)
    g[0] = 2.0 * q1 * w + rho * (4.0 * b2 * d * q1 + 8.0 * q1 * r2)
    g[1] = 2.0 * q2 * w + rho * (4.0 * b2 * d * q2 + 8.0 * q2 * r2)
    g[2] = 2.0 * q3 * w + rho * (-4.0 * b2 * d * q3 + 8.0 * q3 * r1)
    g[3] = 2.0 * q4 * w + rho * (-4.0 * b2 * d * q4 + 8.0 * q4 * r1)
    return g


def _rhs_reference(x, p):
    out = np.empty(8)
    out[:4] = x[4:]
    out[4:] = -(p.omega * p.omega) * x[:4]
    if p.epsilon != 0.0:
        out[4:] -= p.epsilon * _grad_reference(x[:4], p.beta)
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=8, max_size=8),
       st.sampled_from([1.0, 0.3, 1.7]),
       st.sampled_from([0.0, 1e-3, 0.7, 1e3]),
       st.floats(min_value=0.0, max_value=3.0))
def test_float_rhs_matches_the_ndarray_form_exactly(xs, omega, epsilon, beta):
    x = np.array(xs)
    p = ModelParams(omega=omega, epsilon=epsilon, beta=beta)
    got = model._rhs(x, p)
    assert got.dtype == np.float64 and got.shape == (8,)
    assert got.tobytes() == _rhs_reference(x, p).tobytes()
    assert model.grad_h_sextic(x[:4], beta).tobytes() == _grad_reference(x[:4], beta).tobytes()
