"""Four harmonic oscillators in 1:1:1:1 resonance with a sextic coupling term.

Phase space is R^4 x R^4 with canonical pairs (q_i, Q_i) and symplectic form
dQ ^ dq, so that dq/dt = dH/dQ and dQ/dt = -dH/dq.  The unperturbed part is
the isotropic oscillator

    H2 = (Q1^2 + Q2^2 + Q3^2 + Q4^2)/2 + omega^2 (q1^2 + q2^2 + q3^2 + q4^2)/2

and the perturbation is the degree-six polynomial

    V6 = |q|^2 * ( beta^2 (q1^2 + q2^2 - q3^2 - q4^2)^2
                   + 4 (q1^2 + q2^2)(q3^2 + q4^2) ),

which Poisson-commutes with the two rotation integrals

    Xi = q1 Q2 - Q1 q2 + q3 Q4 - Q3 q4,
    L1 = q3 Q4 - Q3 q4 - q1 Q2 + Q1 q2.

This module owns the Hamiltonian, its analytic gradient, the integrals, and a
conservation-monitoring reference integrator that the reduction and averaging
layers use as ground truth.

The solver's vector field ``_rhs`` unpacks the state once and runs on Python
floats: on eight components numpy's per-call overhead would exceed the
arithmetic.  The closed forms ``hamiltonian`` and ``first_integrals`` broadcast,
so ``integrate`` evaluates its monitors in one array pass over the solver
output, on a state whose fields are the rows of the sampled solution.  Every
run goes through ``_solve_ivp``, the one DOP853 call, which requires positive
tolerances and bounds the run by a work budget of ``_MAX_NFEV`` vector-field
evaluations.

``CartesianState`` is a ``NamedTuple``, like the chart points: the pair
(q, Q), immutable, built positionally or by keyword.  Its equality is tuple
equality and ignores the class: a state equals the plain tuple ``(q, Q)``.
``ModelParams`` and ``IntegralValues`` stay frozen dataclasses that validate
on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

__all__ = [
    "CartesianState",
    "ModelParams",
    "IntegralValues",
    "IntegrationError",
    "Trajectory",
    "hamiltonian",
    "h_quadratic",
    "h_sextic",
    "grad_h_sextic",
    "first_integrals",
    "integrate",
    "canonical_bracket",
]


def _require_finite(obj, *names: str) -> None:
    for name in names:
        v = getattr(obj, name)
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


class CartesianState(NamedTuple):
    """The eight canonical coordinates (q1..q4, Q1..Q4).

    A ``NamedTuple`` like the chart points: an immutable pair (q, Q) of
    4-tuples.  Equality is tuple equality and ignores the class, so a state
    equals the plain tuple ``(q, Q)``.
    """

    q: tuple[float, float, float, float]
    Q: tuple[float, float, float, float]

    @classmethod
    def from_array(cls, x) -> "CartesianState":
        x = np.asarray(x, dtype=float)
        if x.shape != (8,):
            raise ValueError(f"expected 8 components, got shape {x.shape}")
        q1, q2, q3, q4, Q1, Q2, Q3, Q4 = x.tolist()
        return cls((q1, q2, q3, q4), (Q1, Q2, Q3, Q4))

    def as_array(self) -> np.ndarray:
        return np.array(self.q + self.Q, dtype=float)


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: frequency, perturbation strength, coupling, energy scale.

    ``gamma`` is the regularization constant h/4 attached to a chosen energy
    level h; it is only needed by the chart and averaging layers and may be
    left unset for plain Cartesian work.
    """

    omega: float = 1.0
    epsilon: float = 0.0
    beta: float = 0.0
    gamma: float | None = None

    def __post_init__(self):
        _require_finite(self, "omega", "epsilon", "beta", "gamma")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.gamma is not None and not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive when set, got {self.gamma}")

    def require_gamma(self) -> float:
        if self.gamma is None:
            raise ValueError("this operation needs gamma = h/4 set on ModelParams")
        return self.gamma


@dataclass(frozen=True)
class IntegralValues:
    """Fixed values (n, xi, l) of the integrals H2, Xi and L1.

    The constraints n > 0, |xi| <= n, |l| <= n are necessary for the reduced
    spaces to be nonempty.  One comparison chain accepts every finite triple
    that meets them (NaN and inf fail it); only a triple it refuses goes
    through the checks that name the first violation.
    """

    n: float
    xi: float
    l: float

    def __post_init__(self):
        n = self.n
        if 0.0 < n < math.inf and abs(self.xi) <= n and abs(self.l) <= n:
            return
        _require_finite(self, "n", "xi", "l")
        if not self.n > 0.0:
            raise ValueError(f"n must be positive, got {self.n}")
        if abs(self.xi) > self.n:
            raise ValueError(f"|xi| <= n required, got xi={self.xi}, n={self.n}")
        if abs(self.l) > self.n:
            raise ValueError(f"|l| <= n required, got l={self.l}, n={self.n}")


def h_quadratic(state: CartesianState, omega: float = 1.0) -> float:
    """Isotropic-oscillator part |Q|^2/2 + omega^2 |q|^2/2."""
    kin = sum(v * v for v in state.Q)
    pot = sum(v * v for v in state.q)
    return 0.5 * kin + 0.5 * omega * omega * pot


def _v6(q1, q2, q3, q4, beta: float):
    """V6 on the four positions (floats or arrays); the one formula behind h_sextic."""
    r1 = q1 * q1 + q2 * q2
    r2 = q3 * q3 + q4 * q4
    d = r1 - r2
    return (r1 + r2) * (beta * beta * d * d + 4.0 * r1 * r2)


def h_sextic(state: CartesianState, beta: float) -> float:
    """Sextic coupling V6(q); independent of the momenta."""
    return _v6(*state.q, beta)


def hamiltonian(state: CartesianState, p: ModelParams) -> float:
    """Total energy H2 + epsilon * V6."""
    return h_quadratic(state, p.omega) + p.epsilon * h_sextic(state, p.beta)


def first_integrals(state: CartesianState) -> tuple[float, float]:
    """The two rotation integrals (Xi, L1)."""
    q1, q2, q3, q4 = state.q
    Q1, Q2, Q3, Q4 = state.Q
    a = q1 * Q2 - Q1 * q2
    b = q3 * Q4 - Q3 * q4
    return a + b, b - a


def _grad_v6(q1: float, q2: float, q3: float, q4: float, beta: float) -> tuple:
    """dV6/dq_1..4 on four floats; the one formula behind grad_h_sextic and _rhs."""
    b2 = beta * beta
    r1 = q1 * q1 + q2 * q2
    r2 = q3 * q3 + q4 * q4
    rho = r1 + r2
    d = r1 - r2
    w = b2 * d * d + 4.0 * r1 * r2
    return (2.0 * q1 * w + rho * (4.0 * b2 * d * q1 + 8.0 * q1 * r2),
            2.0 * q2 * w + rho * (4.0 * b2 * d * q2 + 8.0 * q2 * r2),
            2.0 * q3 * w + rho * (-4.0 * b2 * d * q3 + 8.0 * q3 * r1),
            2.0 * q4 * w + rho * (-4.0 * b2 * d * q4 + 8.0 * q4 * r1))


def grad_h_sextic(q, beta: float) -> np.ndarray:
    """Analytic gradient of V6 with respect to the four positions.

    With rho = r1 + r2, d = r1 - r2 and W = beta^2 d^2 + 4 r1 r2:

        dV6/dq_i = 2 q_i W + rho * dW/dq_i,
        dW/dq_i  = +-4 beta^2 d q_i + 8 q_i r_(other block).
    """
    return np.array(_grad_v6(*q, beta))


def _rhs(x: np.ndarray, p: ModelParams) -> np.ndarray:
    """Canonical vector field (dH/dQ, -dH/dq) of a flat 8-array, on Python floats."""
    q1, q2, q3, q4, Q1, Q2, Q3, Q4 = x.tolist()
    c = -(p.omega * p.omega)
    if p.epsilon == 0.0:
        return np.array([Q1, Q2, Q3, Q4, c * q1, c * q2, c * q3, c * q4])
    e = p.epsilon
    g1, g2, g3, g4 = _grad_v6(q1, q2, q3, q4, p.beta)
    return np.array([Q1, Q2, Q3, Q4,
                     c * q1 - e * g1, c * q2 - e * g2, c * q3 - e * g3, c * q4 - e * g4])


class IntegrationError(RuntimeError):
    """Raised when the adaptive integrator cannot continue.

    Carries the last accepted time and state so callers can diagnose or
    restart.
    """

    def __init__(self, message: str, t_last: float, state_last: CartesianState | np.ndarray):
        super().__init__(message)
        self.t_last = t_last
        self.state_last = state_last


@dataclass
class Trajectory:
    """Sampled trajectory with conservation monitors.

    ``energy``, ``xi`` and ``l1`` are evaluated at every sample; the drift
    properties compare against the initial values.
    """

    t: np.ndarray
    states: np.ndarray  # shape (n, 8)
    energy: np.ndarray
    xi: np.ndarray
    l1: np.ndarray

    @property
    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energy - self.energy[0])))

    @property
    def xi_drift(self) -> float:
        return float(np.max(np.abs(self.xi - self.xi[0])))

    @property
    def l1_drift(self) -> float:
        return float(np.max(np.abs(self.l1 - self.l1[0])))

    def state(self, i: int) -> CartesianState:
        return CartesianState.from_array(self.states[i])


# Work budget of one _solve_ivp run, in evaluations of the vector field: about
# 20 times the longest run of the tests, the benchmark and the README examples
# (235,454 in suite_dynamics), so that a run that cannot finish stops.
_MAX_NFEV = 5_000_000


def _solve_ivp(fun, t_end: float, y0, t_eval, rtol: float, atol: float):
    """DOP853 run of dy/dt = fun(t, y) from t = 0 to t_end, sampled at t_eval.

    Raises ValueError before the run unless both tolerances are positive
    (scipy would raise a zero rtol to 2.2e-14, keep a zero atol and crawl).
    Raises IntegrationError carrying the last sampled time and state when
    the solver stops early, and the time and state of the last evaluation
    when ``fun`` has been evaluated _MAX_NFEV times.
    """
    if not (rtol > 0.0 and atol > 0.0):
        raise ValueError(f"tolerances must be positive, got rtol={rtol}, atol={atol}")
    nfev = 0

    def counted(t, y):
        nonlocal nfev
        nfev += 1
        dy = fun(t, y)
        if nfev >= _MAX_NFEV:
            raise IntegrationError(
                f"work budget of {_MAX_NFEV} function evaluations exhausted at t={t}",
                float(t), np.array(y))
        return dy

    sol = solve_ivp(counted, (0.0, t_end), y0, method="DOP853", rtol=rtol, atol=atol,
                    t_eval=t_eval)
    if not sol.success:
        t_last = float(sol.t[-1]) if sol.t.size else 0.0
        y_last = sol.y[:, -1] if sol.t.size else np.asarray(y0, dtype=float)
        raise IntegrationError(f"solver stopped at t={t_last}: {sol.message}", t_last, y_last)
    return sol


def integrate(
    state0: CartesianState,
    p: ModelParams,
    t_end: float,
    tol: float,
    n_out: int = 256,
    time_scale=None,
) -> Trajectory:
    """Integrate the canonical equations with an adaptive high-order scheme.

    Conservation of H, Xi and L1 is monitored at every output sample; the
    caller decides what drift is acceptable.  ``time_scale``, when given, is
    a positive function s(x) multiplying the vector field, used to run the
    flow in a reparametrized time.

    Raises ValueError unless tol > 0, and IntegrationError on step-size
    failure, carrying the last accepted state, or past the work budget,
    carrying the last evaluated state.
    """
    if time_scale is None:
        def fun(t, x):
            return _rhs(x, p)
    else:
        def fun(t, x):
            return time_scale(x) * _rhs(x, p)

    try:
        sol = _solve_ivp(fun, t_end, state0.as_array(), np.linspace(0.0, t_end, n_out), tol, tol)
    except IntegrationError as exc:
        exc.state_last = CartesianState.from_array(exc.state_last)
        raise

    rows = CartesianState(q=tuple(sol.y[:4]), Q=tuple(sol.y[4:]))
    xi, l1 = first_integrals(rows)
    return Trajectory(t=sol.t, states=sol.y.T, energy=hamiltonian(rows, p), xi=xi, l1=l1)


# Complex step h: Im f(x + ih)/h = f'(x) + O(h^2) takes no difference, so h can
# sit far below roundoff and the partial is exact to working precision.
# _complex_step_jacobian takes every partial of a many-input function, the
# black-box oracles' included; normalform.normalized_rhs perturbs its five
# inputs one call at a time, equilibria.branch_equation its one input, G.  Only
# equilibria._polish_branch still differences F+- (its Newton slope, h = 1e-7).
_COMPLEX_STEP = 1e-30


def _complex_step_jacobian(fn, x) -> np.ndarray:
    """Jacobian d fn_i / d x_k of a real-analytic fn by complex step.

    ``fn`` takes len(x) scalars and returns a sequence of scalars, or of
    arrays of one shape, using only analytic operations on them (no abs,
    comparisons or clipping on a complex value; the forward charts follow
    the complex-step rules where they are not analytic).  Column k is
    Im fn(x + ih e_k) / h; the other inputs stay real.  For array outputs
    entry [i, k] is the array of partials.
    """
    x = [float(v) for v in x]
    cols = []
    for k in range(len(x)):
        z = list(x)
        z[k] = complex(x[k], _COMPLEX_STEP)
        cols.append([v.imag / _COMPLEX_STEP for v in fn(*z)])
    return np.array(cols).swapaxes(0, 1)


def canonical_bracket(f, g, state: CartesianState) -> float:
    """Canonical bracket {f, g} = df/dq . dg/dQ - df/dQ . dg/dq at a state.

    The gradients are taken by complex step, so f and g must be real-analytic
    functions of the state's eight coordinates.
    """
    def both(*x):
        s = CartesianState(x[:4], x[4:])
        return f(s), g(s)

    gf, gg = _complex_step_jacobian(both, state.as_array())
    return float(gf[:4] @ gg[4:] - gf[4:] @ gg[:4])
