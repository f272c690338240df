"""Quadratic invariants, staged orbit maps and the twice/thrice reduced dynamics.

Three commuting circle actions (oscillator energy, Xi, L1) reduce the
8-dimensional phase space in stages.  The stages are realized here through
polynomial invariant maps:

* ``pi_map``      -- the sixteen quadratic invariants of the oscillator flow;
* ``klj_map``     -- the linear change to the (H2, Xi, K, L, J) set in which
                     the rotation integrals are themselves coordinates;
* ``thrice_map``  -- the quadratic invariants (M, N, Z, S, K) of the L1 flow.

At fixed integral values (n, xi, l) the final reduced space is the surface of
revolution 4 N^2 + 4 S^2 = f(K); the one-degree-of-freedom dynamics on it is
Lie-Poisson for the bracket tabulated in ``bracket_expected``.

``PiVector``, ``KLJVector`` and ``ThriceReducedPoint`` are ``NamedTuple``
records, as the chart points are: immutable, positional order equal to field
order (the maps build them positionally), ``_replace`` and ``_asdict`` for
copies and dicts, and tuple equality that ignores the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import CartesianState, IntegralValues, _complex_step_jacobian, _solve_ivp

__all__ = [
    "PiVector",
    "KLJVector",
    "ThriceReducedPoint",
    "EmptyReducedSpaceError",
    "pi_map",
    "klj_map",
    "second_space_residuals",
    "thrice_map",
    "bracket_computed",
    "bracket_expected",
    "f_of_K",
    "f_roots",
    "feasible_interval",
    "surface_samples",
    "reduced_h3",
    "reduced_point",
    "reduced_rhs",
    "reduced_flow",
    "ReducedTrajectory",
]

_FEASIBLE_SCAN = 1000   # sign-scan points of feasible_interval
_SURFACE_TOL = 1e-10    # casimir tolerance on the start point of reduced_flow


class PiVector(NamedTuple):
    """The sixteen quadratic oscillator invariants pi1..pi16."""

    pi1: float
    pi2: float
    pi3: float
    pi4: float
    pi5: float
    pi6: float
    pi7: float
    pi8: float
    pi9: float
    pi10: float
    pi11: float
    pi12: float
    pi13: float
    pi14: float
    pi15: float
    pi16: float


class KLJVector(NamedTuple):
    """Linear recombination (H2, Xi, K1..K3, L1..L3, J1..J8) of the pi set."""

    h2: float
    xi: float
    k1: float
    k2: float
    k3: float
    l1: float
    l2: float
    l3: float
    j1: float
    j2: float
    j3: float
    j4: float
    j5: float
    j6: float
    j7: float
    j8: float


class ThriceReducedPoint(NamedTuple):
    """Point (M, N, Z, S, K) of the final reduced space with its integrals."""

    M: float
    N: float
    Z: float
    S: float
    K: float
    integrals: IntegralValues


class EmptyReducedSpaceError(ValueError):
    """The requested integral values admit no reduced phase space."""


# -- invariant maps ---------------------------------------------------------

def pi_map(state: CartesianState) -> PiVector:
    """Evaluate the sixteen quadratic invariants at a state."""
    q1, q2, q3, q4 = state.q
    Q1, Q2, Q3, Q4 = state.Q
    return PiVector(
        Q1 * Q1 + q1 * q1,
        Q2 * Q2 + q2 * q2,
        Q3 * Q3 + q3 * q3,
        Q4 * Q4 + q4 * q4,
        Q1 * Q2 + q1 * q2,
        Q1 * Q3 + q1 * q3,
        Q1 * Q4 + q1 * q4,
        Q2 * Q3 + q2 * q3,
        Q2 * Q4 + q2 * q4,
        Q3 * Q4 + q3 * q4,
        q1 * Q2 - Q1 * q2,
        q1 * Q3 - Q1 * q3,
        q1 * Q4 - Q1 * q4,
        q2 * Q3 - Q2 * q3,
        q2 * Q4 - Q2 * q4,
        q3 * Q4 - Q3 * q4,
    )


def klj_map(pv: PiVector) -> KLJVector:
    """Linear change from pi invariants to the (H2, Xi, K, L, J) set."""
    (pi1, pi2, pi3, pi4, pi5, pi6, pi7, pi8,
     pi9, pi10, pi11, pi12, pi13, pi14, pi15, pi16) = pv
    return KLJVector(
        0.5 * (pi1 + pi2 + pi3 + pi4),   # h2
        pi16 + pi11,                     # xi
        0.5 * (-pi1 - pi2 + pi3 + pi4),  # k1
        pi8 - pi7,                       # k2
        -pi6 - pi9,                      # k3
        pi16 - pi11,                     # l1
        pi12 + pi15,                     # l2
        pi14 - pi13,                     # l3
        0.5 * (pi1 - pi2 - pi3 + pi4),   # j1
        0.5 * (pi1 - pi2 + pi3 - pi4),   # j2
        pi8 + pi7,                       # j3
        pi5 + pi10,                      # j4
        pi5 - pi10,                      # j5
        pi6 - pi9,                       # j6
        pi12 - pi15,                     # j7
        pi14 + pi13,                     # j8
    )


def second_space_residuals(kv: KLJVector) -> tuple[float, float]:
    """Residuals of the two relations cutting out the second reduced space.

    Both vanish identically on images of ``klj_map(pi_map(.))``; a nonzero
    value flags a point off the variety.
    """
    h2, xi, k1, k2, k3, l1, l2, l3 = kv[:8]
    r1 = (
        k1 * k1 + k2 * k2 + k3 * k3
        + l1 * l1 + l2 * l2 + l3 * l3
        - h2 * h2 - xi * xi
    )
    r2 = k1 * l1 + k2 * l2 + k3 * l3 - h2 * xi
    return r1, r2


def _mnzs(kv: KLJVector) -> tuple:
    """(M, N, Z, S) of a (K, L) vector; float or complex-step entries."""
    _, _, _, k2, k3, _, l2, l3 = kv[:8]
    m = 0.5 * (k2 * k2 + k3 * k3 + l2 * l2 + l3 * l3)
    n = 0.5 * (k2 * k2 + k3 * k3 - l2 * l2 - l3 * l3)
    z = k2 * l2 + k3 * l3
    s = k2 * l3 - k3 * l2
    return m, n, z, s


def thrice_map(kv: KLJVector) -> ThriceReducedPoint:
    """Invariants of the L1 action on the second reduced space."""
    h2, xi, k1, _, _, l1, _, _ = kv[:8]
    # |xi|, |l1| <= h2 hold exactly, but rounding can leave them an ulp above h2
    xi = xi if -h2 <= xi <= h2 else min(max(xi, -h2), h2)
    l1 = l1 if -h2 <= l1 <= h2 else min(max(l1, -h2), h2)
    return ThriceReducedPoint(*_mnzs(kv), k1, IntegralValues(h2, xi, l1))


def eo3_residuals(pt: ThriceReducedPoint) -> tuple[float, float, float]:
    """Residuals of the three relations defining the thrice reduced space."""
    M, N, Z, S, K, iv = pt
    n, xi, l = iv.n, iv.xi, iv.l
    r1 = K * K + l * l + 2.0 * M - n * n - xi * xi
    r2 = K * l + Z - n * xi
    r3 = M * M - N * N - Z * Z - S * S
    return r1, r2, r3


# -- bracket table ----------------------------------------------------------

def bracket_computed(state: CartesianState) -> np.ndarray:
    """6x6 matrix of canonical brackets of (M, N, Z, S, K, L1) at a state.

    The 6x8 Jacobian D of the invariants is taken by complex step through
    ``pi_map`` and ``klj_map``; then {f_i, f_j} = (D_q D_Q^T - D_Q D_q^T)_ij.
    """
    def six(*x):
        kv = klj_map(pi_map(CartesianState(q=x[:4], Q=x[4:])))
        return (*_mnzs(kv), kv.k1, kv.l1)

    jac = _complex_step_jacobian(six, state.as_array())
    a = jac[:, :4] @ jac[:, 4:].T
    return a - a.T


def bracket_expected(M: float, N: float, Z: float, S: float, K: float, L1: float) -> np.ndarray:
    """Closed-form Lie-Poisson bracket table of (M, N, Z, S, K, L1)."""
    out = np.zeros((6, 6))

    def setpair(i, j, v):
        out[i, j] = v
        out[j, i] = -v

    # order: M=0, N=1, Z=2, S=3, K=4, L1=5
    setpair(0, 1, 4.0 * K * S)
    setpair(0, 3, -4.0 * K * N)
    setpair(1, 2, -4.0 * L1 * S)
    setpair(1, 3, -4.0 * (K * M - L1 * Z))
    setpair(1, 4, 4.0 * S)
    setpair(2, 3, -4.0 * L1 * N)
    setpair(3, 4, -4.0 * N)
    return out


# -- the thrice reduced space ------------------------------------------------

def f_of_K(K: float, iv: IntegralValues) -> float:
    """Radius-squared profile f(K) = 4 N^2 + 4 S^2 of the reduced surface; K may be an array."""
    n, xi, l = iv.n, iv.xi, iv.l
    # products, not ** 2: a scalar ** 2 is libm's pow, which can miss x * x by one ulp
    return ((n + xi) * (n + xi) - (K + l) * (K + l)) * ((n - xi) * (n - xi) - (K - l) * (K - l))


def f_roots(iv: IntegralValues) -> tuple[float, float, float, float]:
    """The four roots of f(K), unordered."""
    n, xi, l = iv.n, iv.xi, iv.l
    return (-l - n - xi, l + n - xi, l - n + xi, -l + n + xi)


def feasible_interval(iv: IntegralValues) -> tuple[float, float]:
    """K-interval on which f >= 0 bounds the reduced surface.

    f is an upward quartic, so the surface lives between the two middle
    roots.  A sign scan guards the degenerate tie cases (l = +-xi); a
    zero-length interval means the reduced space is a single point and is
    reported as empty for the purposes of the smooth dynamics.
    """
    roots = sorted(f_roots(iv))
    lo, hi = roots[1], roots[2]
    if hi - lo <= 0.0:
        raise EmptyReducedSpaceError(
            f"reduced space degenerates to a point for n={iv.n}, xi={iv.xi}, l={iv.l}"
        )
    ks = np.linspace(lo, hi, _FEASIBLE_SCAN)
    fs = f_of_K(ks, iv)
    # interior negativity can only come from a mis-selected interval
    if np.any(fs < -1e-9 * max(1.0, float(np.max(np.abs(fs))))):
        raise EmptyReducedSpaceError(
            f"no nonnegative middle interval for n={iv.n}, xi={iv.xi}, l={iv.l}"
        )
    return float(lo), float(hi)


def surface_samples(iv: IntegralValues, count: int = 200) -> np.ndarray:
    """Sampled (K, sqrt(f)/2) profile of the reduced surface, for plotting."""
    lo, hi = feasible_interval(iv)
    ks = np.linspace(lo, hi, count)
    radii = np.sqrt(np.maximum(0.0, f_of_K(ks, iv))) / 2.0
    return np.column_stack([ks, radii])


def _h3_coeffs(iv: IntegralValues, beta: float) -> tuple:
    """(A, B, C, D, E) with ``reduced_h3`` = A K^2 + B K + C N + D - E."""
    n, xi, l = iv.n, iv.xi, iv.l
    b2 = beta * beta
    return (0.75 * n * (3.0 * b2 - 2.0), xi * l * (1.0 - b2), 0.5 * n * (4.0 - b2),
            n ** 3 * (1.5 + 0.25 * b2), (l * l + xi * xi) * (0.5 * b2 + 1.0) * 0.5 * n)


def reduced_h3(pt: ThriceReducedPoint, beta: float) -> float:
    """Reduced Hamiltonian on the thrice reduced space (a function of K, N)."""
    a, b, c, d, e = _h3_coeffs(pt.integrals, beta)
    return a * pt.K * pt.K + b * pt.K + c * pt.N + d - e


def _surface_mz(K, iv: IntegralValues) -> tuple:
    """(M, Z) at abscissa K: M = (n^2 + xi^2 - K^2 - l^2)/2 and Z = n xi - K l."""
    n, xi, l = iv.n, iv.xi, iv.l
    return 0.5 * (n * n + xi * xi - K * K - l * l), n * xi - K * l


def reduced_point(K: float, N: float, S: float, iv: IntegralValues) -> ThriceReducedPoint:
    """The reduced-space point (K, N, S), with M and Z from the defining relations."""
    m, z = _surface_mz(K, iv)
    return ThriceReducedPoint(M=m, N=N, Z=z, S=S, K=K, integrals=iv)


def reduced_rhs(K: float, N: float, S: float, iv: IntegralValues, beta: float) -> tuple[float, float, float]:
    """Lie-Poisson vector field of ``reduced_h3`` on the reduced surface.

    M and Z are eliminated through the defining relations (``_surface_mz``), after which

        dK/dt = {K, N} dH/dN,
        dN/dt = {N, K} dH/dK,
        dS/dt = {S, K} dH/dK + {S, N} dH/dN,

    with the bracket table of ``bracket_expected``, dH/dK = 2 A K + B and
    dH/dN = C (``_h3_coeffs``).  This conserves both the Hamiltonian and the
    surface Casimir 4 N^2 + 4 S^2 - f(K) identically.
    """
    a, b, dh_dn, _, _ = _h3_coeffs(iv, beta)
    return _reduced_field(K, N, S, iv, a, b, dh_dn)


def _reduced_field(K, N, S, iv: IntegralValues, a, b, dh_dn) -> tuple:
    """``reduced_rhs`` with the coefficients A, B and C of ``_h3_coeffs`` bound by the caller."""
    m, z = _surface_mz(K, iv)
    dh_dk = 2.0 * a * K + b
    return (-4.0 * S * dh_dn, 4.0 * S * dh_dk,
            -4.0 * N * dh_dk + 4.0 * (K * m - iv.l * z) * dh_dn)


def casimir_residual(K: float, N: float, S: float, iv: IntegralValues) -> float:
    """Deviation 4 N^2 + 4 S^2 - f(K) from the reduced surface."""
    return 4.0 * N * N + 4.0 * S * S - f_of_K(K, iv)


@dataclass
class ReducedTrajectory:
    """Reduced-flow samples with energy and Casimir monitors."""

    t: np.ndarray
    K: np.ndarray
    N: np.ndarray
    S: np.ndarray
    h3: np.ndarray
    casimir: np.ndarray
    integrals: IntegralValues

    @property
    def h3_drift(self) -> float:
        return float(np.max(np.abs(self.h3 - self.h3[0])))

    @property
    def casimir_drift(self) -> float:
        return float(np.max(np.abs(self.casimir)))


def reduced_flow(
    pt0: ThriceReducedPoint,
    beta: float,
    t_end: float,
    tol: float,
    n_out: int = 256,
) -> ReducedTrajectory:
    """Integrate the reduced dynamics from a point on the reduced surface (tol > 0)."""
    iv = pt0.integrals
    c0 = casimir_residual(pt0.K, pt0.N, pt0.S, iv)
    scale = max(1.0, abs(f_of_K(pt0.K, iv)))
    if abs(c0) > _SURFACE_TOL * scale:
        raise ValueError(
            f"initial point is off the reduced surface: casimir residual {c0:.3e}"
        )

    # A, B and C are constant along the flow: bind them once
    a, b, dh_dn, _, _ = _h3_coeffs(iv, beta)

    def fun(t, y):
        return _reduced_field(*y.tolist(), iv, a, b, dh_dn)

    sol = _solve_ivp(fun, t_end, [pt0.K, pt0.N, pt0.S], np.linspace(0.0, t_end, n_out), tol, tol)
    K, N, S = sol.y
    h3 = reduced_h3(reduced_point(K, N, S, iv), beta)
    cas = casimir_residual(K, N, S, iv)
    return ReducedTrajectory(t=sol.t, K=K, N=N, S=S, h3=h3, casimir=cas, integrals=iv)


def reduced_point_on_surface(K: float, iv: IntegralValues, angle: float = 0.0) -> ThriceReducedPoint:
    """Construct a surface point at abscissa K with N + iS = (sqrt(f)/2) e^{i angle}."""
    fk = f_of_K(K, iv)
    if fk < 0.0:
        raise EmptyReducedSpaceError(f"f(K) < 0 at K={K}")
    r = 0.5 * np.sqrt(fk)
    return reduced_point(K, r * np.cos(angle), r * np.sin(angle), iv)
