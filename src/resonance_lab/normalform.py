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
bracket oracle (``second_order_oracle``), which differentiates R1 and W1 as
black boxes by complex step through the forward chart chain.

Partials of the averaged kernel P are taken by complex step through these
same closed forms.  The normalized flow takes its g partial from ``_kernel``
at complex g, and each of its L, G, U1 and U3 partials from one complex
``_kernel_terms`` call at real g, which ``_sum_kernel`` sums against the
call's one set of cos(k g) (``_cos_kg``).  The branch equations of the
equilibria (``equilibria.branch_equation``) are its G-partial at g = 0 and g = pi,
read straight from the first-order terms of ``_kernel_terms`` that ``_kernel``
sums, so a partial cannot drift from the value it differentiates.  Both the
equilibria and the periodic families are then found by the one Sturm-chain
root isolator in ``equilibria``.

``perturbation_delaunay`` and ``w1`` broadcast over array ell and g (through
the array-first forward charts), so an ell-average is one call on the node
array.  W1 is a trigonometric polynomial of degree 3 in the eccentric
anomaly E whose coefficients depend only on the momenta and g: ``w1``
collects them once per call, in the scalar namespace of ``charts._ns`` when
the momenta and g are scalars, and evaluates one cubic in cos E (plus sin E
times a quadratic) over the single sine/cosine pair of the cached Kepler
solve.  R1 stays the independent route through the chart chain.

``DelaunayTangent``, the rate vector of ``normalized_rhs``, is a
``NamedTuple`` like the chart points: immutable, with positional order equal
to field order, ``_replace``/``_asdict``, and equality that ignores the
class.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import charts
from .model import _COMPLEX_STEP, ModelParams, _complex_step_jacobian, _v6
from .charts import DelaunayPoint, _value, kepler_solve

__all__ = [
    "NFCoefficientsOrder1",
    "DelaunayTangent",
    "perturbation_delaunay",
    "average_over_ell",
    "order1_coeffs",
    "w1",
    "homological_residual",
    "kernel",
    "second_order_oracle",
    "SecondOrderOracleResult",
    "normalized_rhs",
]


@dataclass(frozen=True)
class NFCoefficientsOrder1:
    """First-order averaged coefficients (cos 0g, cos g, cos 2g)."""

    C01: float
    C11: float
    C21: float


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
    integrands; ``quadrature_n``, an integer of at least 64, and by default
    512, resolves every band-limited quantity used here to roundoff.  ``fn``
    is vectorized: it is called once, on the array of nodes, and returns
    their values (or one constant), which are broadcast to the nodes' shape
    and summed pairwise, as ``np.mean`` does.
    """
    if not isinstance(quadrature_n, numbers.Integral):
        raise ValueError(f"quadrature_n must be an integer, got {quadrature_n!r}")
    if quadrature_n < 64:
        raise ValueError("quadrature_n must be at least 64")
    nodes = np.arange(quadrature_n) * (2.0 * math.pi / quadrature_n)
    return float(np.add.reduce(np.broadcast_to(fn(nodes), nodes.shape)) / quadrature_n)


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


def _table_terms(L: float, G: float, U1: float, U3: float, beta: float, gamma: float,
                 order: int = 1) -> tuple:
    """``_kernel_terms`` on the tables' domain: one table row, or a ValueError.

    The domain is 0 < G <= L and |U1|, |U3| <= G; |U| = G is allowed, since
    the closed forms are finite there and only the chart is singular.
    """
    if not (0.0 < G <= L and abs(U1) <= G and abs(U3) <= G):
        raise ValueError(f"need 0 < G <= L and |U1|, |U3| <= G, got L={L}, G={G}, U1={U1}, U3={U3}")
    return _kernel_terms(L, G, U1, U3, beta, gamma, order=order)


def order1_coeffs(L: float, G: float, U1: float, U3: float, beta: float, gamma: float) -> NFCoefficientsOrder1:
    """Closed-form first-order averaged coefficients on the tables' domain.

    The second-order table is ``_table_terms(..., order=2)[3:]``.
    """
    return NFCoefficientsOrder1(*_table_terms(L, G, U1, U3, beta, gamma))


# -- generating function -------------------------------------------------------

def w1(dp: DelaunayPoint, p: ModelParams) -> float:
    """First-order generating function: zero-mean primitive of R1 - K1 in ell.

    Each of the three Fourier blocks of R1 (constant, cos(g+f), cos 2(g+f))
    is integrated against d ell = (1 - e cos E) dE and shifted to zero mean,
    which makes W1 a trigonometric polynomial of degree 3 in the eccentric
    anomaly.  Its seven harmonic coefficients (b0; a_k of sin kE and b_k of
    cos kE, k = 1..3) depend only on the momenta and g, so they are collected
    once, in the scalar namespace of ``charts._ns`` when those are scalars.
    With sin 2E = 2 sE cE, sin 3E = sE (4 cE^2 - 1), cos 2E = 2 cE^2 - 1 and
    cos 3E = 4 cE^3 - 3 cE, W1 is then one cubic in cE = cos E (plus sE = sin E
    times a quadratic), over the one sine/cosine pair of the Kepler solve.

    The momenta must lie in the forward chart's domain (ChartDomainError
    otherwise, as in ``perturbation_delaunay``).  Array fields of ``dp`` give
    an array of values.
    """
    gamma = _require_chart_params(p)
    L, G, g = dp.L, dp.G, dp.g
    xp = charts._ns(gamma, L, G, dp.U1, dp.U3, g)
    a, eta, e = charts._delaunay_orbit(L, G, dp.U1, dp.U3, gamma, xp)
    alpha = p.beta * p.beta - 1.0
    c1 = dp.U1 / G
    c2 = dp.U3 / G
    s12sq = (1.0 - c1 * c1) * (1.0 - c2 * c2)

    # R1's blocks, cos(g+f) and cos 2(g+f) split into their cos g and sin g parts
    A = (2.0 + alpha * (2.0 * c1 * c1 * c2 * c2 + s12sq)) / 8.0
    B = 0.5 * alpha * c1 * c2 * xp.sqrt(s12sq)
    C = alpha * s12sq / 8.0
    cg, sg = xp.cos(g), xp.sin(g)
    Bc = B * cg
    Bs = B * sg * eta
    Cc = C * (cg * cg - sg * sg)
    Cs = C * (2.0 * sg * cg) * eta

    e2 = e * e
    e3 = e2 * e
    a1 = -(2.0 * e - 0.75 * e3) * A + (1.0 + 0.75 * e2 - 0.5 * e2 * e2) * Bc - 1.25 * e * (2.0 - e2) * Cc
    a2 = 0.75 * e2 * A - (0.5 * e + 0.25 * e3) * Bc + 0.25 * (2.0 + e2) * Cc
    a3 = (-e3 * A + e2 * Bc - e * (2.0 - e2) * Cc) / 12.0
    b0 = e * (4.0 + e2) / 8.0 * Bs - 1.25 * e2 * Cs
    b1 = (1.0 + 0.25 * e2) * Bs - 2.5 * e * Cs
    b2 = 0.5 * ((1.0 + e2) * Cs - e * Bs)
    b3 = (e2 * Bs - 2.0 * e * Cs) / 12.0
    pref = a * a * L ** 3 / gamma ** 2

    E = kepler_solve(dp.ell, e)
    xe = charts._ns(E)
    sE, cE = xe.sin(E), xe.cos(E)
    return _value(pref * ((b0 - b2) + cE * ((b1 - 3.0 * b3) + cE * (2.0 * b2 + 4.0 * b3 * cE))
                          + sE * ((a1 - a3) + cE * (2.0 * a2 + 4.0 * a3 * cE))))


def _cos_kg(g, terms) -> tuple:
    """cos(k g) for k = 0 up to the top harmonic of ``terms`` (2 for C01..C21, 4 for C01..C42).

    g may be complex.
    """
    cos = cmath.cos if isinstance(g, complex) else math.cos
    return tuple(cos(k * g) for k in range(5 if len(terms) > 3 else 3))


def _sum_kernel(terms, cos_kg, epsilon):
    """K1 + (eps/2) K2, each order the sum of C_k cos(k g), from C01..C21 or C01..C42.

    ``cos_kg`` holds cos(k g) for each harmonic k of the terms (``_cos_kg``);
    terms and cosines may be complex.  Each order is added up from the
    integer 0, in k order, as the builtin ``sum`` adds: the start turns a
    -0.0 first product into 0.0, which sets the sign of a zero partial.
    """
    c0, c1, c2 = cos_kg[:3]
    val = 0 + terms[0] * c0 + terms[1] * c1 + terms[2] * c2
    if len(terms) > 3:
        c3, c4 = cos_kg[3:]
        val += 0.5 * epsilon * (0 + terms[3] * c0 + terms[4] * c1 + terms[5] * c2
                                + terms[6] * c3 + terms[7] * c4)
    return val


def kernel(g: float, L: float, G: float, U1: float, U3: float, beta: float, gamma: float,
           order: int = 1, epsilon: float = 0.0) -> float:
    """Averaged perturbation P(g; momenta) with K = H0 + eps P.

    order 1: P = K1; order 2: P = K1 + (eps/2) K2, from one table row.
    """
    if order == 1:
        c = order1_coeffs(L, G, U1, U3, beta, gamma)
        terms = (c.C01, c.C11, c.C21)
    elif order == 2:
        terms = _table_terms(L, G, U1, U3, beta, gamma, order=2)
    else:
        raise ValueError("order must be 1 or 2")
    return _sum_kernel(terms, _cos_kg(g, terms), epsilon)


def _kernel(g, L, G, U1, U3, beta: float, gamma: float, order: int = 1, epsilon: float = 0.0):
    """P of ``kernel`` for float or complex-step input, without a domain check."""
    terms = _kernel_terms(L, G, U1, U3, beta, gamma, order)
    return _sum_kernel(terms, _cos_kg(g, terms), epsilon)


def homological_residual(dp: DelaunayPoint, p: ModelParams) -> float:
    """Residual of the first-order averaging identity at a point.

    Checks (dW1/d ell) * gamma^2/L^3 - (R1 - K1) with the ell-derivative by
    complex step through ``w1``; vanishes identically for the correct W1.
    """
    gamma = _require_chart_params(p)
    (dw,), = _complex_step_jacobian(lambda ell: (w1(dp._replace(ell=ell), p),), (dp.ell,))
    k1 = kernel(dp.g, dp.L, dp.G, dp.U1, dp.U3, p.beta, gamma, order=1)
    return dw * gamma ** 2 / dp.L ** 3 - (perturbation_delaunay(dp, p) - k1)


# -- second-order oracle -------------------------------------------------------

@dataclass(frozen=True)
class SecondOrderOracleResult:
    """Fourier-in-g components of the second-order kernel, with error bound."""

    cos_coeffs: tuple[float, float, float, float, float]
    sin_max: float
    error_estimate: float


def second_order_oracle(L: float, G: float, U1: float, U3: float, beta: float, gamma: float,
                        n_ell: int = 256, n_g: int = 32,
                        tol: float | None = None) -> SecondOrderOracleResult:
    """Numeric second-order kernel < {R1 + K1, W1} >, Fourier-analyzed in g.

    Independent route: W1 and R1 are evaluated as black boxes through the
    chart chain, the canonical bracket over the (ell, L) and (g, G) pairs
    takes their partials by complex step, the ell-average uses trapezoidal
    quadrature and the g-components a discrete Fourier transform.  Every
    Delaunay angle must be defined at the momenta (a ChartDomainError from
    ``charts.require_angles_defined`` otherwise; its domain lies in the
    tables').  The error estimate compares the n_ell-node average with the
    average over every second node of the same brackets; if ``tol`` is given
    and exceeded, a RuntimeError is raised.
    """
    charts.require_angles_defined(DelaunayPoint(0.0, 0.0, 0.0, 0.0, L, G, U1, U3), gamma)
    p = ModelParams(omega=1.0, epsilon=0.0, beta=beta, gamma=gamma)
    ells = np.arange(n_ell) * (2 * math.pi / n_ell)

    def h_and_w(dl, g, L, G):
        dp = DelaunayPoint(ells + dl, g, 0.0, 0.0, L, G, U1, U3)
        return perturbation_delaunay(dp, p) + _kernel(g, L, G, U1, U3, beta, gamma), w1(dp, p)

    vals = np.empty((n_g, n_ell))
    for i, g in enumerate(np.arange(n_g) * (2 * math.pi / n_g)):
        # partials in (ell, g, L, G), each an array over the ell nodes
        (h_ell, h_g, h_L, h_G), (w_ell, w_g, w_L, w_G) = _complex_step_jacobian(
            h_and_w, (0.0, g, L, G))
        vals[i] = (h_ell * w_L - h_L * w_ell) + (h_g * w_G - h_G * w_g)

    # the g harmonics of the n_ell-node average and of the average over every second node
    spec = np.fft.rfft([vals.mean(axis=1), vals[:, ::2].mean(axis=1)])[:, :5] / n_g
    cos_c = spec.real * [1.0, 2.0, 2.0, 2.0, 2.0]
    sin_max = 2.0 * float(np.max(np.abs(spec[0, 1:].imag)))
    err = float(np.max(np.abs(cos_c[0] - cos_c[1])))
    if tol is not None and err > tol:
        raise RuntimeError(f"oracle error estimate {err:.3e} exceeds tol {tol:.3e}")
    return SecondOrderOracleResult(cos_coeffs=tuple(cos_c[0]), sin_max=sin_max, error_estimate=err)


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
    exact: complex-step differentiation of ``_kernel`` in g, and of
    ``_kernel_terms`` in each momentum, summed against cos(k g) evaluated
    once per call.  The rates are Python floats.
    """
    gamma = _require_chart_params(p)
    eps = p.epsilon
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")

    beta = p.beta
    h = _COMPLEX_STEP
    _, g, _, _, L, G, U1, U3 = dp
    g, L, G, U1, U3 = float(g), float(L), float(G), float(U1), float(U3)
    # column g: P at complex g; columns L, G, U1, U3: the complex terms at
    # real g, each summed against the one set of cos(k g)
    dP_dg = _kernel(complex(g, h), L, G, U1, U3, beta, gamma, order, eps).imag / h
    terms = _kernel_terms(complex(L, h), G, U1, U3, beta, gamma, order)
    cos_kg = _cos_kg(g, terms)
    dP_dL = _sum_kernel(terms, cos_kg, eps).imag / h
    dP_dG = _sum_kernel(_kernel_terms(L, complex(G, h), U1, U3, beta, gamma, order),
                        cos_kg, eps).imag / h
    dP_dU1 = _sum_kernel(_kernel_terms(L, G, complex(U1, h), U3, beta, gamma, order),
                         cos_kg, eps).imag / h
    dP_dU3 = _sum_kernel(_kernel_terms(L, G, U1, complex(U3, h), beta, gamma, order),
                         cos_kg, eps).imag / h
    # rates in field order: ell, g, u1, u3, L, G, U1, U3
    return DelaunayTangent(gamma ** 2 / dp.L ** 3 + eps * dP_dL, eps * dP_dG, eps * dP_dU1,
                           eps * dP_dU3, 0.0, -eps * dP_dg, 0.0, 0.0)
