"""Averaging of the perturbation in the Delaunay chart, to second order.

In the Delaunay chart the regularized Hamiltonian is

    K = -gamma^2/(2 L^2) + eps * R1,      R1 = V6 / (4 rho),

and the fast angle ell advances at the mean motion gamma^2/L^3.  Averaging
over ell removes ell at each order in eps; because u1 and u3 are cyclic the
averaged terms depend only on (g, L, G, U1, U3).  The first-order kernel is
the finite Fourier sum

    K1 = C01 + C11 cos g + C21 cos 2g,

with closed-form coefficients built from a = L^2/gamma, e = sqrt(1 - G^2/L^2),
c1 = U1/G, c2 = U3/G.  The generating function W1 is the zero-mean primitive
of (R1 - K1) with respect to ell, and the second-order kernel is

    K2 = < {R1 + K1, W1} >_ell = C02 + C12 cos g + ... + C42 cos 4g.

The second-order coefficients frozen here were derived by exact harmonic
algebra from W1 and R1 and are regression-tested against an independent
finite-difference bracket oracle (``second_order_oracle``).

Partials of the averaged kernel P are taken by complex step through these
same closed forms: the normalized flow differentiates ``_kernel`` in
(g, L, G, U1, U3), and the branch equations of the equilibria
(``equilibria.branch_equation``) are its G-partial at g = 0 and g = pi,
read straight from the first-order terms of ``_kernel_terms`` that ``_kernel``
sums, so a partial cannot drift from the value it differentiates.  Both the
equilibria and the periodic families are then found by the one Sturm-chain
root isolator in ``equilibria``.

``perturbation_delaunay`` and ``w1`` broadcast over array ell and g (through
the array-first forward charts), so an ell-average is one call on the node
array.

``DelaunayTangent``, the rate vector of ``normalized_rhs``, is a
``NamedTuple`` like the chart points: immutable, with positional order equal
to field order, ``_replace``/``_asdict``, and equality that ignores the
class.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import charts
from .model import ModelParams, _complex_step_jacobian, _v6, numerical_jacobian
from .charts import DelaunayPoint, _value, kepler_solve

__all__ = [
    "NFCoefficientsOrder1",
    "NFCoefficientsOrder2",
    "DelaunayTangent",
    "perturbation_delaunay",
    "average_over_ell",
    "order1_coeffs",
    "order2_coeffs",
    "w1",
    "homological_residual",
    "kernel",
    "second_order_oracle",
    "SecondOrderOracleResult",
    "normalized_rhs",
]

_HOMOLOGICAL_STEP = 1e-6   # ell step of the central difference in homological_residual
_ORACLE_FD_STEP = 1e-5     # finite-difference step of second_order_oracle


@dataclass(frozen=True)
class NFCoefficientsOrder1:
    """First-order averaged coefficients (cos 0g, cos g, cos 2g)."""

    C01: float
    C11: float
    C21: float


@dataclass(frozen=True)
class NFCoefficientsOrder2:
    """Second-order averaged coefficients (cos 0g .. cos 4g)."""

    C02: float
    C12: float
    C22: float
    C32: float
    C42: float


def _require_chart_params(p: ModelParams) -> float:
    if p.omega != 1.0:
        raise ValueError("the chart and averaging layers assume omega = 1")
    return p.require_gamma()


def perturbation_delaunay(dp: DelaunayPoint, p: ModelParams) -> float:
    """Regularized perturbation R1 = V6/(4 rho) through the chart chain.

    The value is the epsilon-coefficient of the regularized Hamiltonian; it
    is independent of u1 and u3 (they are cyclic).  Multiplying by 4 rho
    recovers the epsilon-part of the plain Cartesian Hamiltonian.  Array
    fields of ``dp`` give an array of values.
    """
    gamma = _require_chart_params(p)
    q = charts.delaunay_to_positions(dp, gamma)
    return _v6(*q, p.beta) / (4.0 * sum(v * v for v in q))


def average_over_ell(fn, quadrature_n: int = 512) -> float:
    """Average of a 2pi-periodic function over one period.

    Uniform trapezoidal quadrature, spectrally accurate for smooth periodic
    integrands; ``quadrature_n`` of 512 resolves every band-limited quantity
    used here to roundoff.  ``fn`` is vectorized: it is called once, on the
    array of nodes, and returns their values (or one constant).
    """
    if quadrature_n < 64:
        raise ValueError("quadrature_n must be at least 64")
    nodes = np.arange(quadrature_n) * (2.0 * math.pi / quadrature_n)
    return float(np.mean(np.broadcast_to(fn(nodes), nodes.shape)))


def _sqrt(x):
    """sqrt for the closed forms: clips float roundoff below 0, keeps a complex step."""
    if isinstance(x, complex):
        if x.real < 0.0:
            raise ValueError(f"momenta outside the chart domain: sqrt({x.real!r})")
        return cmath.sqrt(x)
    return math.sqrt(max(0.0, x))


def _kernel_terms(L, G, U1, U3, beta: float, gamma: float, order: int = 1):
    """(C01, C11, C21), and at order 2 also (C02..C42), for float or complex-step inputs.

    Order 2 holds the exact averages of the bracket kernel, prefactor a^5/gamma; its alpha-linear
    blocks reuse the first order's angular combinations 2 c1^2 c2^2 + s1^2 s2^2 and s1^2 s2^2.
    """
    alpha = beta * beta - 1.0
    a = L * L * (1.0 / gamma)
    eta = G / L
    e2 = 1.0 - eta * eta
    c1 = U1 / G
    c2 = U3 / G
    s1sq = 1.0 - c1 * c1
    s2sq = 1.0 - c2 * c2
    e = _sqrt(e2)
    s1 = _sqrt(s1sq)
    s2 = _sqrt(s2sq)
    a2 = a * a
    c01 = (1.0 / 16.0) * a2 * (2.0 + 3.0 * e2) * (2.0 + alpha * (2.0 * c1 * c1 * c2 * c2 + s1sq * s2sq))
    c11 = (-1.0 / 4.0) * a2 * alpha * (4.0 + e2) * e * c1 * c2 * s1 * s2
    c21 = (5.0 / 16.0) * a2 * alpha * e2 * s1sq * s2sq
    if order != 2:
        return c01, c11, c21
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

    return c01, c11, c21, scale * c02, scale * c12, scale * c22, scale * c32, scale * c42


def order1_coeffs(L: float, G: float, U1: float, U3: float, beta: float, gamma: float) -> NFCoefficientsOrder1:
    """Closed-form first-order averaged coefficients."""
    if not 0.0 < G <= L:
        raise ValueError(f"need 0 < G <= L, got G={G}, L={L}")
    return NFCoefficientsOrder1(*_kernel_terms(L, G, U1, U3, beta, gamma))


def order2_coeffs(L: float, G: float, U1: float, U3: float, beta: float, gamma: float) -> NFCoefficientsOrder2:
    """Closed-form second-order averaged coefficients.

    Validated against ``second_order_oracle``; the oracle is the source of
    truth for these tables.
    """
    if not 0.0 < G <= L:
        raise ValueError(f"need 0 < G <= L, got G={G}, L={L}")
    return NFCoefficientsOrder2(*_kernel_terms(L, G, U1, U3, beta, gamma, order=2)[3:])


# -- generating function -------------------------------------------------------

def w1(dp: DelaunayPoint, p: ModelParams) -> float:
    """First-order generating function: zero-mean primitive of R1 - K1 in ell.

    Closed form assembled from the eccentric-anomaly harmonics of the three
    Fourier blocks of R1 (constant, cos(g+f), cos 2(g+f)); each block is
    integrated against d ell = (1 - e cos E) dE and shifted to zero mean.
    Array fields of ``dp`` give an array of values.
    """
    gamma = _require_chart_params(p)
    L, G, U1, U3 = dp.L, dp.G, dp.U1, dp.U3
    alpha = p.beta * p.beta - 1.0
    a = L * L / gamma
    eta = G / L
    e = np.sqrt(np.maximum(0.0, 1.0 - eta * eta))
    c1 = U1 / G
    c2 = U3 / G
    s1 = np.sqrt(np.maximum(0.0, 1.0 - c1 * c1))
    s2 = np.sqrt(np.maximum(0.0, 1.0 - c2 * c2))

    E = kepler_solve(dp.ell, e)
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
    return _value(pref * (A * IA + B * (cg * IBc - sg * IBs) + C * (c2g * ICc - s2g * ICs)))


def _sum_kernel(terms, g, epsilon):
    """K1 + (eps/2) K2, each order the sum of C_k cos(k g), from C01..C21 or C01..C42; complex g allowed."""
    cos = cmath.cos if isinstance(g, complex) else math.cos
    val = sum(c * cos(k * g) for k, c in enumerate(terms[:3]))
    if len(terms) > 3:
        val += 0.5 * epsilon * sum(c * cos(k * g) for k, c in enumerate(terms[3:]))
    return val


def kernel(g: float, L: float, G: float, U1: float, U3: float, beta: float, gamma: float,
           order: int = 1, epsilon: float = 0.0) -> float:
    """Averaged perturbation P(g; momenta) with K = H0 + eps P.

    order 1: P = K1; order 2: P = K1 + (eps/2) K2.
    """
    c = order1_coeffs(L, G, U1, U3, beta, gamma)
    terms = (c.C01, c.C11, c.C21)
    if order == 2:
        c2 = order2_coeffs(L, G, U1, U3, beta, gamma)
        terms += (c2.C02, c2.C12, c2.C22, c2.C32, c2.C42)
    elif order != 1:
        raise ValueError("order must be 1 or 2")
    return _sum_kernel(terms, g, epsilon)


def _kernel(g, L, G, U1, U3, beta: float, gamma: float, order: int = 1, epsilon: float = 0.0):
    """P of ``kernel`` for float or complex-step input, without a domain check."""
    return _sum_kernel(_kernel_terms(L, G, U1, U3, beta, gamma, order), g, epsilon)


def homological_residual(dp: DelaunayPoint, p: ModelParams) -> float:
    """Residual of the first-order averaging identity at a point.

    Checks (dW1/d ell) * gamma^2/L^3 - (R1 - K1) with the ell-derivative by
    central differences; vanishes identically for the correct W1.
    """
    gamma = _require_chart_params(p)
    (dw,) = numerical_jacobian(lambda x: w1(dp._replace(ell=float(x[0])), p), [dp.ell],
                               _HOMOLOGICAL_STEP)
    k1 = kernel(dp.g, dp.L, dp.G, dp.U1, dp.U3, p.beta, gamma, order=1)
    return dw * gamma ** 2 / dp.L ** 3 - (perturbation_delaunay(dp, p) - k1)


# -- second-order oracle -------------------------------------------------------

@dataclass(frozen=True)
class SecondOrderOracleResult:
    """Fourier-in-g components of the second-order kernel, with error bound."""

    cos_coeffs: tuple[float, float, float, float, float]
    sin_max: float
    error_estimate: float


def _bracket_ell_g(dp_builder, w_fn, h_fn, ell, g: float, step: float):
    """Canonical bracket {h, w} over the (ell, L) and (g, G) pairs by central FD.

    ``dp_builder(ell, g, dL, dG)`` builds the point with L and G shifted by
    dL and dG; the differences are taken in offsets from (ell, g, 0, 0).
    ``ell`` may be an array of nodes; the bracket is then an array too.
    """
    def partials(fn):
        def at(d):
            dl, dg, dL, dG = d.tolist()
            return fn(dp_builder(ell + dl, g + dg, dL, dG))
        return numerical_jacobian(at, np.zeros(4), step).T

    h_ell, h_g, h_L, h_G = partials(h_fn)
    w_ell, w_g, w_L, w_G = partials(w_fn)
    return (h_ell * w_L - h_L * w_ell) + (h_g * w_G - h_G * w_g)


def second_order_oracle(L: float, G: float, U1: float, U3: float, beta: float, gamma: float,
                        n_ell: int = 256, n_g: int = 32,
                        tol: float | None = None) -> SecondOrderOracleResult:
    """Numeric second-order kernel < {R1 + K1, W1} >, Fourier-analyzed in g.

    Independent route: W1 and R1 are evaluated as black boxes, the bracket
    uses central finite differences, the ell-average uses trapezoidal
    quadrature and the g-components a discrete Fourier transform.  The error
    estimate compares a doubled finite-difference step; if ``tol`` is given
    and exceeded, a RuntimeError is raised.
    """
    p = ModelParams(omega=1.0, epsilon=0.0, beta=beta, gamma=gamma)

    def build(ell, g, dLs, dGs):
        return DelaunayPoint(ell=ell, g=g, u1=0.0, u3=0.0,
                             L=L + dLs, G=G + dGs, U1=U1, U3=U3)

    def w_fn(dp):
        return w1(dp, p)

    def h_fn(dp):
        k1 = kernel(dp.g, dp.L, dp.G, dp.U1, dp.U3, beta, gamma, order=1)
        return perturbation_delaunay(dp, p) + k1

    def field(step):
        ells = np.arange(n_ell) * (2 * math.pi / n_ell)
        gs = np.arange(n_g) * (2 * math.pi / n_g)
        vals = np.empty((n_g, n_ell))
        for i, g in enumerate(gs):
            vals[i] = _bracket_ell_g(build, w_fn, h_fn, ells, float(g), step)
        avg = vals.mean(axis=1)
        spec = np.fft.rfft(avg) / n_g
        cos_c = [float(spec[0].real)] + [2.0 * float(spec[k].real) for k in range(1, 5)]
        sin_c = [0.0] + [-2.0 * float(spec[k].imag) for k in range(1, 5)]
        return np.array(cos_c), max(abs(s) for s in sin_c)

    c_fine, sin_max = field(_ORACLE_FD_STEP)
    c_coarse, _ = field(_ORACLE_FD_STEP * 4.0)
    err = float(np.max(np.abs(c_fine - (16.0 * c_fine - c_coarse) / 15.0)))
    # Richardson difference bounds the O(step^2) truncation of the fine grid
    if tol is not None and err > tol:
        raise RuntimeError(f"oracle error estimate {err:.3e} exceeds tol {tol:.3e}")
    return SecondOrderOracleResult(cos_coeffs=tuple(c_fine), sin_max=sin_max, error_estimate=err)


# -- normalized vector field ---------------------------------------------------

class DelaunayTangent(NamedTuple):
    """Rates of change of the Delaunay variables under the normalized flow."""

    ell: float
    g: float
    u1: float
    u3: float
    L: float
    G: float
    U1: float
    U3: float


def normalized_rhs(dp: DelaunayPoint, p: ModelParams, order: int = 1) -> DelaunayTangent:
    """Vector field of the normalized Hamiltonian H0 + eps P, truncated.

    L, U1 and U3 are exact integrals of the truncation (their conjugate
    angles are absent), so only (g, G) carry the slow dynamics while ell,
    u1, u3 rotate by quadrature.  The partials of P in (g, L, G, U1, U3) are
    exact (complex-step differentiation of ``_kernel``).
    """
    gamma = _require_chart_params(p)
    eps = p.epsilon
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")

    dP_dg, dP_dL, dP_dG, dP_dU1, dP_dU3 = _complex_step_jacobian(
        lambda *x: (_kernel(*x, p.beta, gamma, order, eps),), (dp.g, dp.L, dp.G, dp.U1, dp.U3))[0]
    # rates in field order: ell, g, u1, u3, L, G, U1, U3
    return DelaunayTangent(gamma ** 2 / dp.L ** 3 + eps * dP_dL, eps * dP_dG, eps * dP_dU1,
                           eps * dP_dU3, 0.0, -eps * dP_dg, 0.0, 0.0)
