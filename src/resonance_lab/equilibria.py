"""Relative equilibria of the first-order normalized flow.

At fixed (L, U1, U3), equilibria of the slow (g, G) system solve

    dG/dt = (C11 + 4 C21 cos g) sin g = 0,
    dg/dt = d(C01 + C11 cos g + C21 cos 2g)/dG = 0,

whose sin g = 0 branches reduce to the two scalar equations

    F+-(eta) = d(C01 +- C11 + C21)/dG = 0        (cos g = +-1),

with eta = G/L and the state ratios w = U1/L, z = U3/L as parameters.
The sin g = 0 slice C01 +- C11 + C21 of the normalized flow's own
first-order terms (``normalform._kernel_terms``) is written once, in
``_sin_g_zero_slice``: ``branch_equation`` takes F+- as its complex-step
G-partial and ``_periodic_residual`` its (G, U1, U3) partials.  The exact
product F+ F- clears the square roots; its numerator, a polynomial in
eta^2 (``branch_product_coeffs``), has its real roots isolated by a Sturm
chain, and each root is Newton-polished against both branch equations.  A
polished root becomes a record when |F| < 1e-9 there and it lies within 0.05
of its start; nothing else is checked here, and the sweep then maps each
record through ``cross_validate`` to the reduced Poisson flow.  The paper's
printed forms, the degree-six P(eta) of ``assemble_eta_poly`` (verbatim) and
R x +- Q of ``rq_x``, meet the records only in ``published_audit``, outside
the solve, which keeps the squaring artifacts visible in the sweep.

Sturm counts only split intervals that hold two or more roots; an isolated
root is bisected on the sign of the square-free part p * gcd(p, p'), which
changes sign across a double root too, and falls back to count bisection
where float noise hides that sign change.  The chain is built and evaluated
on lists of Python floats, so the roots are floats.  The short-period
families (``periodic_branches``) go through the same Sturm isolator, on the
numerator of alpha(e) - alpha.

Everything here is scale-invariant in (L, gamma); records are normalized to
L = 1, gamma = 1, so a record's (eta, w, z) is its (G, U1, U3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import charts, invariants, normalform
from .model import _COMPLEX_STEP, IntegralValues, _complex_step_jacobian
from .charts import DelaunayPoint

__all__ = [
    "EquilibriumRecord",
    "Tori3Result",
    "PeriodicBranch",
    "CrossValidation",
    "assemble_eta_poly",
    "rq_x",
    "branch_equation",
    "solve_tori3",
    "published_audit",
    "periodic_branches",
    "cross_validate",
    "sweep",
]

def assemble_eta_poly(w: float, z: float, alpha: float) -> np.ndarray:
    """The published closed-form coefficients a0..a6 of P(eta), ascending, verbatim."""
    if not (abs(w) < 1.0 and abs(z) < 1.0):
        raise ValueError(f"state ratios must satisfy |w| < 1, |z| < 1, got w={w}, z={z}")
    w2 = w * w
    z2 = z * z
    w4 = w2 * w2
    z4 = z2 * z2
    w6 = w4 * w2
    z6 = z4 * z2
    al = alpha
    al2 = alpha * alpha

    a6 = -9.0 - 24.0 * al - 16.0 * al2
    a5 = (w2 * (16.0 * al2 + 9.0 - al2 * z2 + 24.0 * al)
          + 9.0 + 24.0 * al + 16.0 * al2
          + z2 * (24.0 * al + 9.0 + 16.0 * al2))
    a4 = (w2 * (24.0 * al2 + 18.0 * al * z2 + 6.0 * al - 9.0 - 9.0 * z2
                + 30.0 * al2 * z2 * w2)
          + z2 * (6.0 * al + 24.0 * al2 - 9.0))
    a3 = (w4 * (-40.0 * al2 - 42.0 * al * z2 - 30.0 * al - 34.0 * al2 * z2 + 2.0 * z4)
          + 9.0 * z2 * w2 - 30.0 * z2 - 40.0 * al2 * z2 - 40.0 * al2 * z4
          + al * w2 * (198.0 * z2 - 34.0 * al * z4 + 30.0 + 285.0 * al * z2
                       + 40.0 * al + 42.0 * z4)
          - 30.0 * al * z4)
    a2 = al * (30.0 * w4 + 42.0 * z4 * w4 + 192.0 * z2 * w4 + 15.0 * al * w4
               - 17.0 * al * z4 * w4 + 266.0 * al * z2 * w4 - 30.0 * z4
               + 266.0 * al * z4 * w2 + 192.0 * z4 * w2 + 180.0 * z2 * w2
               + 290.0 * al * z2 * w2 + 15.0 * al * z4)
    a1 = (al2 * (25.0 * w4 - w6 * z6 + 27.0 * w6 * z4 - 51.0 * w6 * z2 + 25.0 * w6
                 + 27.0 * z6 * w4 - 139.0 * z4 * w4 - 225.0 * z2 * w4 + 25.0 * z6
                 + 25.0 * z4 - 51.0 * z6 * w2 - 225.0 * z4 * w2 - 50.0 * z2 * w2)
          + 150.0 * z2 * w4 + 150.0 * z4 * w2 + 162.0 * z4 * w4)
    a0 = 5.0 * al * (al * w6 * z4 - 3.0 * al * w6 * z6 - 5.0 * al * w6
                     + 7.0 * al * w6 * z2 + 24.0 * z4 * w4 + al * z6 * w4
                     + 5.0 * al * z2 * w4 + 18.0 * al * z4 * w4 - 5.0 * al * z6
                     + 5.0 * al * z4 * w2 + 7.0 * al * z6 * w2)
    return np.array([a0, a1, a2, a3, a4, a5, a6])


def branch_product_coeffs(w: float, z: float, alpha: float) -> np.ndarray:
    """Exact branch-product polynomial, ascending coefficients in t = eta^2.

    F+(eta) * F-(eta) is a rational function of eta whose numerator, after
    clearing the positive chart denominators, is even in eta; this returns
    its seven coefficients b0..b6 as a polynomial in t = eta^2.  Derived in
    closed form from the first-order coefficients and their G-derivative;
    the roots of this polynomial in (max(w^2, z^2), 1) are exactly the
    candidate equilibria of the two sin g = 0 branches.
    """
    W = w * w
    Z = z * z
    al = alpha
    al2 = al * al
    b0 = (-120.0 * W * W * Z * Z * al
          + al2 * (15.0 * W**3 * Z**3 - 5.0 * W**3 * Z * Z - 35.0 * W**3 * Z
                   + 25.0 * W**3 - 5.0 * W * W * Z**3 - 90.0 * W * W * Z * Z
                   - 25.0 * W * W * Z - 35.0 * W * Z**3 - 25.0 * W * Z * Z
                   + 25.0 * Z**3))
    b1 = (al2 * (W**3 * Z**3 - 27.0 * W**3 * Z * Z + 51.0 * W**3 * Z - 25.0 * W**3
                 - 27.0 * W * W * Z**3 + 139.0 * W * W * Z * Z + 225.0 * W * W * Z
                 - 25.0 * W * W + 51.0 * W * Z**3 + 225.0 * W * Z * Z
                 + 50.0 * W * Z - 25.0 * Z**3 - 25.0 * Z * Z)
          + al * (162.0 * W * W * Z * Z + 150.0 * W * W * Z + 150.0 * W * Z * Z))
    b2 = (al2 * (17.0 * W * W * Z * Z - 266.0 * W * W * Z - 15.0 * W * W
                 - 266.0 * W * Z * Z - 290.0 * W * Z - 15.0 * Z * Z)
          + al * (-42.0 * W * W * Z * Z - 192.0 * W * W * Z - 30.0 * W * W
                  - 192.0 * W * Z * Z - 180.0 * W * Z - 30.0 * Z * Z))
    b3 = (-9.0 * W * Z
          + al2 * (-2.0 * W * W * Z * Z + 34.0 * W * W * Z + 40.0 * W * W
                   + 34.0 * W * Z * Z + 285.0 * W * Z + 40.0 * W
                   + 40.0 * Z * Z + 40.0 * Z)
          + al * (42.0 * W * W * Z + 30.0 * W * W + 42.0 * W * Z * Z
                  + 198.0 * W * Z + 30.0 * W + 30.0 * Z * Z + 30.0 * Z))
    b4 = (9.0 * W * Z + 9.0 * W + 9.0 * Z
          + al2 * (-30.0 * W * Z - 24.0 * W - 24.0 * Z)
          + al * (-18.0 * W * Z - 6.0 * W - 6.0 * Z))
    b5 = (-9.0 * W - 9.0 * Z - 9.0
          + al2 * (W * Z - 16.0 * W - 16.0 * Z - 16.0)
          + al * (-24.0 * W - 24.0 * Z - 24.0))
    b6 = 16.0 * al2 + 24.0 * al + 9.0
    return np.array([b0, b1, b2, b3, b4, b5, b6])


def rq_x(eta: float, w: float, z: float, alpha: float) -> tuple[float, float, float]:
    """Auxiliary (R, Q, x) functions of the branch equations R x +- Q = 0.

    ``x`` uses the grouping x = e * sqrt((1 - w^2)(1 - z^2)), the one that
    keeps x^2 polynomial in eta.
    """
    e2 = 1.0 - eta * eta
    e = math.sqrt(max(0.0, e2))
    eta2 = eta * eta
    w2, z2 = w * w, z * z
    z3 = z2 * z
    z5 = z3 * z2
    x = e * math.sqrt((1.0 - w2) * (1.0 - z2))
    R = (-(3.0 + 4.0 * alpha) * eta2 ** 3
         + (5.0 * w2 + 7.0 * w2 * z2 + 5.0 * z2) * alpha * eta2
         - 20.0 * w2 * z2 * alpha) * eta2
    Q = alpha * w * z * (eta ** 8
                         - (10.0 + 11.0 * w2 + w2 * z2) * eta ** 4
                         - 11.0 * z3 * eta ** 3
                         + (15.0 * w2 + 17.0 * w2 * z2 + 15.0 * z2) * eta ** 2
                         + 5.0 * z5 * eta
                         - 20.0 * w2 * z2)
    return R, Q, x


def _require_alpha(alpha: float) -> None:
    """Raise ValueError unless beta = sqrt(alpha + 1) is real and finite."""
    if not -1.0 <= alpha < math.inf:
        raise ValueError(f"alpha = beta^2 - 1 must be >= -1 and finite, got {alpha}")


def _branch_beta(alpha: float, cosg: float) -> float:
    """beta = sqrt(alpha + 1) of the g = 0 (cosg = 1) or g = pi (cosg = -1) branch, inputs checked."""
    _require_alpha(alpha)
    if cosg not in (1.0, -1.0):
        raise ValueError(f"cosg must be +1 or -1, got {cosg}")
    return math.sqrt(alpha + 1.0)


def _sin_g_zero_slice(G, U1, U3, beta: float, cosg: float):
    """C01 + cosg*C11 + C21 at L = gamma = 1, for float or complex-step momenta.

    The first-order kernel at g = 0 (cosg = 1) or g = pi (cosg = -1): cos 0,
    cos pi and cos 2pi are exactly 1, -1 and 1, so this is the sum
    ``normalform._kernel`` makes there.
    """
    c01, c11, c21 = normalform._kernel_terms(1.0, G, U1, U3, beta, 1.0)
    return c01 + cosg * c11 + c21


def branch_equation(eta: float, w: float, z: float, alpha: float, cosg: float) -> float:
    """F(eta) = d(C01 + cosg*C11 + C21)/dG at L = 1, gamma = 1.

    The complex-step G-partial of ``_sin_g_zero_slice`` on the branch
    g = 0 (cosg = +1) or g = pi (cosg = -1) of sin g = 0.
    """
    beta = _branch_beta(alpha, cosg)
    if not max(abs(w), abs(z)) < eta <= 1.0:
        raise ValueError(f"need max(|w|,|z|) < eta <= 1, got eta={eta}, w={w}, z={z}")
    return _sin_g_zero_slice(complex(eta, _COMPLEX_STEP), w, z, beta, cosg).imag / _COMPLEX_STEP


# -- Sturm-chain root isolation ------------------------------------------------

def _trim(c: list[float], tol: float) -> list[float]:
    """Drop negligible leading (high-degree) coefficients."""
    k = len(c)
    while k > 1 and abs(c[k - 1]) <= tol:
        k -= 1
    return c[:k]


def _polyval(c: list[float], x: float) -> float:
    acc = 0.0
    for v in reversed(c):
        acc = acc * x + v
    return acc


def _polyder(c: list[float]) -> list[float]:
    if len(c) <= 1:
        return [0.0]
    return [c[k] * k for k in range(1, len(c))]


def _polyrem(a: list[float], b: list[float]) -> list[float]:
    """Remainder of a / b, coefficients ascending."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and len(r) > 1:
        k = len(r) - 1 - db
        f = r[-1] / lead
        r[k:] = [rj - f * bj for rj, bj in zip(r[k:], b)]
        r.pop()
    return r


def _sturm_chain(c: list[float]) -> list[list[float]]:
    scale = max(1e-300, max(map(abs, c)))
    tol = 1e-13 * scale
    chain = [_trim(c, tol)]
    d = _trim(_polyder(c), tol)
    if any(v != 0.0 for v in d):
        chain.append(d)
    while len(chain[-1]) > 1:
        rem = _polyrem(chain[-2], chain[-1])
        rem = _trim(rem, tol * 10.0)
        if len(rem) == 1 and abs(rem[0]) <= tol * 10.0:
            break
        chain.append([-v for v in rem])
    return chain


def _variations(chain: list[list[float]], x: float) -> int:
    """Sign changes along the chain at x, zero values skipped and NaN taken as negative, in one pass."""
    count = 0
    last = 0
    for p in chain:
        v = _polyval(p, x)
        if v != 0.0:
            sign = 1 if v > 0 else -1
            if sign == -last:
                count += 1
            last = sign
    return count


_ROOT_WIDTH = 1e-13


def _bisect_sign(c: list[float], g: list[float] | None, a: float, b: float):
    """Bisect (a, b] to _ROOT_WIDTH on the sign of s = p g; None if s(a), s(b) agree.

    g is the gcd of p and p' (``None`` when it is a constant), so s has the
    sign of the square-free part p / g, which changes sign exactly once
    across an interval that isolates one root, double roots included.  s(x)
    is one call: Horner's rule over c and g, each reversed once here, which
    makes the multiplies and adds of ``_polyval(c, x) * _polyval(g, x)`` in
    their order.
    """
    rc = c[::-1]
    rg = None if g is None else g[::-1]

    def s(x):
        v = 0.0
        for k in rc:
            v = v * x + k
        if rg is None:
            return v
        u = 0.0
        for k in rg:
            u = u * x + k
        return v * u

    sa, sb = s(a), s(b)
    if not (sa < 0.0 < sb or sb < 0.0 < sa):
        return None
    neg = sa < 0.0
    for _ in range(200):
        if b - a < _ROOT_WIDTH:
            break
        m = 0.5 * (a + b)
        sm = s(m)
        if sm == 0.0:
            return m, m
        if (sm < 0.0) == neg:
            a = m
        else:
            b = m
    return a, b


def _bisect_count(chain: list[list[float]], a: float, b: float, va: int):
    """Bisect (a, b] to _ROOT_WIDTH on the Sturm count va at its left end."""
    for _ in range(200):
        if b - a < _ROOT_WIDTH:
            break
        m = 0.5 * (a + b)
        vm = _variations(chain, m)
        if va - vm >= 1:
            b = m
        else:
            a, va = m, vm
    return a, b


def _isolate_roots(c: np.ndarray, lo: float, hi: float) -> list[float]:
    """All distinct nonzero real roots of the ascending-coefficient polynomial in (lo, hi].

    Negligible low-order coefficients are dropped first, which removes a
    root at x = 0.  Intervals holding two or more roots are split by Sturm
    counts; each interval on the work stack carries the variation counts at
    both of its ends, so no point is counted twice.  An interval holding one
    root is bisected on the sign of the square-free part, p(x) g(x) with g
    the chain's last, non-constant member gcd(p, p') (``_bisect_sign``): one
    Python call a step, Horner's rule over the coefficients of p and g
    reversed once per bisection, instead of a whole chain.  Where float
    noise gives that product the same sign at both ends, the root falls back
    to bisection on the variation count (``_bisect_count``); every count,
    there and in the splits, is one pass over the chain (``_variations``).
    Three Newton steps on p polish either result.  The input becomes a list
    of Python floats on entry, and the chain is built and evaluated on
    lists: the same operations in the same order as on numpy arrays, so the
    same roots, at a fraction of the cost per operation.
    """
    c = [float(v) for v in c]
    c = _trim(c[::-1], 1e-14 * max(map(abs, c)))[::-1]
    chain = _sturm_chain(c)
    g = chain[-1] if len(chain[-1]) > 1 else None
    d = _polyder(c)
    roots: list[float] = []
    stack = [(lo, hi, _variations(chain, lo), _variations(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n <= 0:
            continue
        if b - a < _ROOT_WIDTH:
            roots.append(0.5 * (a + b))
            continue
        if n == 1:
            aa, bb = _bisect_sign(c, g, a, b) or _bisect_count(chain, a, b, va)
            r = 0.5 * (aa + bb)
            for _ in range(3):
                fp = _polyval(d, r)
                if fp == 0.0:
                    break
                step = _polyval(c, r) / fp
                if abs(step) > (b - a):
                    break
                r -= step
            if a < r <= b + 1e-15:
                roots.append(min(r, b))
            else:
                roots.append(0.5 * (aa + bb))
            continue
        m = 0.5 * (a + b)
        vm = _variations(chain, m)
        stack.append((a, m, va, vm))
        stack.append((m, b, vm, vb))
    return sorted(roots)


# -- records -------------------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumRecord:
    """Accepted relative equilibrium of the slow (g, G) system."""

    eta: float           # G / L, with L = 1
    g: float             # 0 or pi (undefined and set to 0 for circular records)
    residual: float
    w: float             # U1 / L
    z: float             # U3 / L
    alpha: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Tori3Result:
    """Outcome of the invariant-3-torus search at one parameter cell."""

    records: tuple[EquilibriumRecord, ...]
    spurious: tuple[dict, ...]
    continuum: bool


def _polish_branch(eta0: float, w: float, z: float, alpha: float,
                   cosg: float) -> tuple[float, float] | None:
    """Newton-polish a branch equation from eta0.

    Returns (eta, |F|) at the polished root, or None if the polish does not
    converge or converges more than 0.05 from eta0.  Each iteration is a
    function of eta alone, so once an iterate repeats the polish goes round
    an exact cycle until the 60-iteration cap; it stops there at once with
    the (eta, F) the cap would have left.
    """
    lo = max(abs(w), abs(z)) + 1e-12
    eta = min(max(eta0, lo + 1e-9), 1.0 - 1e-12)
    h = 1e-7
    seen: dict[float, int] = {}
    visited: list[tuple[float, float]] = []
    for it in range(60):
        j = seen.get(eta)
        if j is not None:
            # iterations j .. it - 1 repeat with period it - j up to the cap
            eta, f = visited[j + (60 - j) % (it - j)]
            break
        try:
            f = branch_equation(eta, w, z, alpha, cosg)
        except ValueError:
            return None
        if abs(f) < 1e-12:
            break
        seen[eta] = it
        visited.append((eta, f))
        fp = (branch_equation(min(eta + h, 1.0 - 1e-13), w, z, alpha, cosg)
              - branch_equation(max(eta - h, lo + 1e-13), w, z, alpha, cosg)) / (2 * h)
        if fp == 0.0:
            return None
        step = f / fp
        step = max(min(step, 0.1), -0.1)
        eta_new = eta - step
        if not lo < eta_new < 1.0:
            eta_new = 0.5 * (eta + (lo if eta_new <= lo else 1.0))
        # both exits below moved eta since f was taken, so they evaluate again
        if abs(eta_new - eta) < 1e-15:
            eta = eta_new
            f = branch_equation(eta, w, z, alpha, cosg)
            break
        eta = eta_new
    else:
        f = branch_equation(eta, w, z, alpha, cosg)
    if abs(f) < 1e-9 and abs(eta - eta0) < 0.05:
        return eta, abs(f)
    return None


def solve_tori3(w: float, z: float, alpha: float) -> Tori3Result:
    """Invariant 3-tori at one (w, z, alpha) cell, normalized to L = 1.

    Candidate eccentricities are isolated with a Sturm chain on the exact
    branch-product polynomial (``branch_product_coeffs``) and Newton-polished
    against the branch equation of each of the cos g = +1 and -1 branches.
    A polish that ends with |F| < 1e-9 within 0.05 of its candidate gives a
    record with residual |F| there; that is all the check a record gets here
    (``cross_validate`` maps it to the reduced flow).  A candidate that no
    branch accepts is logged as spurious.  The circular point eta = 1 is
    accepted (flagged ``circular`` and ``g_undefined``) whenever the cos g
    forcing vanishes, which requires w z = 0.  A continuum is flagged, not
    enumerated, when both the branch product and the published P(eta) vanish
    (near alpha = -3/4 with tiny w and z the branch product alone does).  The
    paper's printed forms are compared in ``published_audit``.

    Raises ValueError for alpha < -1, where beta = sqrt(alpha + 1) is not
    real, for a NaN or infinite alpha, and for |w| >= 1 or |z| >= 1.
    """
    _require_alpha(alpha)
    pscale = float(np.max(np.abs(assemble_eta_poly(w, z, alpha))))
    bcoeffs = branch_product_coeffs(w, z, alpha)
    bscale = float(np.max(np.abs(bcoeffs)))
    if pscale < 1e-12 and bscale < 1e-12:
        return Tori3Result(records=(), spurious=(), continuum=True)

    records: list[EquilibriumRecord] = []
    spurious: list[dict] = []

    # 1. circular point: equilibrium of the (e cos g, e sin g) flow iff the
    #    cos g forcing C11 ~ w z vanishes; the perigee angle is undefined.
    if abs(w * z) < 1e-14:
        records.append(EquilibriumRecord(
            eta=1.0, g=0.0, residual=0.0, w=w, z=z, alpha=alpha,
            flags=("circular", "g_undefined")))

    # 2. interior equilibria from the exact branch product, in t = eta^2
    t_lo = max(w * w, z * z) + 1e-11
    t_roots = _isolate_roots(bcoeffs, t_lo, 1.0 - 1e-11) if bscale >= 1e-12 else []
    for t in t_roots:
        eta0 = math.sqrt(t)
        hit = False
        for cosg, gval in ((1.0, 0.0), (-1.0, math.pi)):
            out = _polish_branch(eta0, w, z, alpha, cosg)
            if out is None:
                continue
            eta_star, resid = out
            if not any(rec.g == gval and abs(rec.eta - eta_star) < 1e-8 for rec in records):
                records.append(EquilibriumRecord(
                    eta=eta_star, g=gval, residual=resid, w=w, z=z, alpha=alpha))
            hit = True
        if not hit:
            spurious.append({"eta": eta0, "reason": "branch-product root; no branch satisfied"})
    return Tori3Result(records=tuple(records), spurious=tuple(spurious), continuum=False)


def published_audit(w: float, z: float, alpha: float, records: tuple[EquilibriumRecord, ...]
                    ) -> tuple[tuple[dict, ...], tuple[bool, ...]]:
    """Compare the records of one cell with the paper's printed forms.

    Returns (spurious, rq_mismatch).  ``spurious`` holds each root of the
    published P(eta) (``assemble_eta_poly``) on (0, 1] that no record lies
    within 1e-6 of, in ascending order, as ``solve_tori3`` logs its own.
    ``rq_mismatch`` holds, per record, whether the published R x +- Q of its
    branch (``rq_x``; + at g = 0, - at g = pi) fails to vanish relative to
    1 + |R x + Q| + |R x - Q|, by more than 1e-6; circular records are never
    flagged.  Nothing here feeds back into the solve.
    """
    pcoeffs = assemble_eta_poly(w, z, alpha)
    spurious = []
    if float(np.max(np.abs(pcoeffs))) >= 1e-12:
        for r in _isolate_roots(pcoeffs, 1e-12, 1.0 + 1e-9):
            r = min(r, 1.0)
            if not any(abs(rec.eta - r) < 1e-6 for rec in records):
                spurious.append({"eta": r,
                                 "reason": "published-polynomial root; no branch satisfied"})
    mismatch = []
    for rec in records:
        R, Q, x = rq_x(rec.eta, w, z, alpha)
        rq_p, rq_m = R * x + Q, R * x - Q
        rq = rq_p if rec.g == 0.0 else rq_m
        mismatch.append("circular" not in rec.flags
                        and abs(rq) > 1e-6 * (1.0 + abs(rq_p) + abs(rq_m)))
    return tuple(spurious), tuple(mismatch)


# -- periodic orbits -------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicBranch:
    """One family of short-period orbits at a given alpha."""

    case: str            # "i" (g = 0), "ii" (g = pi), or "axial" (U1 = U3 = 0)
    e: float | None
    c2sq: float | None
    g: float
    residual: float
    u_ratio_printed: float | None   # the published |U|/G expression at this point
    flags: tuple[str, ...] = ()


def _case_coeffs(alpha: float, cosg: float) -> np.ndarray:
    """num(e) - alpha den(e), ascending in e, of the case relation alpha(e) = num/den.

    Case (i) (cosg = 1): num = 3e(3 + 2e)^2, den = 3e^4 + 2e^3 - 10e^2 - 3e + 8;
    case (ii) (cosg = -1) is the same relation at -e.  den > 0 on (0, 1), so
    the e-roots of this quartic there are the e-roots of alpha(e) = alpha.
    """
    return np.array([-8.0 * alpha, cosg * (27.0 + 3.0 * alpha), 36.0 + 10.0 * alpha,
                     cosg * (12.0 - 2.0 * alpha), -3.0 * alpha])


def _case_c2sq(e: float, case: str) -> float:
    if case == "i":
        return (1.0 + 3.0 * e + e * e) / ((3.0 + 2.0 * e) * (1.0 + e))
    return (1.0 - 3.0 * e + e * e) / ((2.0 * e - 3.0) * (e - 1.0))


def _printed_u_ratio(e: float, cosg: float) -> float | None:
    num = e * cosg * (4.0 + 5.0 * e * cosg + e * e) + 1.0 - e * e
    den = e * cosg * (5.0 * e * cosg + 8.0 + 2.0 * e * e) + 3.0 + 2.0 * e * e
    if den == 0.0 or num / den < 0.0:
        return None
    return math.sqrt(num / den)


def _periodic_residual(e: float, c: float, alpha: float, cosg: float) -> float:
    """Max residual of the full periodic system at (e, c1 = c2 = c, sin g = 0).

    The largest complex-step partial of ``_sin_g_zero_slice`` in (G, U1, U3).
    """
    beta = _branch_beta(alpha, cosg)
    eta = math.sqrt(max(0.0, 1.0 - e * e))
    jac = _complex_step_jacobian(lambda *x: (_sin_g_zero_slice(*x, beta, cosg),),
                                 (eta, c * eta, c * eta))
    return float(np.max(np.abs(jac)))


def periodic_branches(alpha: float) -> list[PeriodicBranch]:
    """All short-period families at a given alpha.

    Case (i) pairs with g = 0 and case (ii) with g = pi; both carry
    |U1| = |U3| = G sqrt(c2^2) with the closed-form c2^2(e), and exist for
    the e-roots of the corresponding alpha(e) relation.  The axial family
    U1 = U3 = 0 solves the system identically exactly at alpha = -3/4 (for
    every eccentricity), and is reported as a family flag.  An alpha that
    ``solve_tori3`` rejects raises ValueError here too.
    """
    _require_alpha(alpha)
    out: list[PeriodicBranch] = []
    if abs(alpha + 0.75) < 1e-12:
        out.append(PeriodicBranch(
            case="axial", e=None, c2sq=0.0, g=0.0, residual=0.0,
            u_ratio_printed=None, flags=("family", "e_free")))
    for case, cosg, gval in (("i", 1.0, 0.0), ("ii", -1.0, math.pi)):
        for e_root in _isolate_roots(_case_coeffs(alpha, cosg), 1e-6, 1.0 - 1e-6):
            c2sq = _case_c2sq(e_root, case)
            if not 0.0 <= c2sq < 1.0:
                continue
            c = math.sqrt(c2sq)
            eta = math.sqrt(1.0 - e_root * e_root)
            if c * eta >= eta - 1e-12:
                continue
            resid = _periodic_residual(e_root, c, alpha, cosg)
            ratio = _printed_u_ratio(e_root, cosg)
            flags = [] if ratio is not None and abs(ratio - c) < 1e-8 else ["u_ratio_mismatch"]
            zero_resid = _periodic_residual(e_root, 0.0, alpha, cosg)
            if zero_resid < 1e-10:
                flags.append("u_zero_also_solves")
            out.append(PeriodicBranch(
                case=case, e=e_root, c2sq=c2sq, g=gval, residual=resid,
                u_ratio_printed=ratio, flags=tuple(flags)))
    return out


# -- cross-validation against the reduced Lie-Poisson flow ----------------------

@dataclass(frozen=True)
class CrossValidation:
    """Mapped reduced-space coordinates and stationarity residuals."""

    K: float
    N: float
    S: float
    reduced_rhs_max: float
    casimir_residual: float
    connection_residual: float
    s_expected_zero: bool


def cross_validate(rec: EquilibriumRecord, beta: float) -> CrossValidation:
    """Map a record to (K, N, S) and evaluate the reduced vector field there.

    The record's point is L = 1, G = eta, U1 = w, U3 = z; on the energy shell
    of the chart chain gamma = L/2 and n = 4 gamma, and (xi, l) come from the
    frozen momentum identification.  At an equilibrium with beta^2 != 4 the
    mapped point must have S = 0 and annihilate the reduced vector field.
    """
    gamma = 0.5
    xi, l1 = charts.integrals_from_momenta(rec.w, rec.z)
    iv = IntegralValues(n=4.0 * gamma, xi=xi, l=l1)
    dp = DelaunayPoint(ell=0.9, g=rec.g, u1=0.4, u3=1.3,
                       L=1.0, G=rec.eta, U1=rec.w, U3=rec.z)
    state = charts.delaunay_to_cartesian(dp, gamma)
    pt = invariants.thrice_map(invariants.klj_map(invariants.pi_map(state)))
    dK, dN, dS = invariants.reduced_rhs(pt.K, pt.N, pt.S, iv, beta)
    cas = invariants.casimir_residual(pt.K, pt.N, pt.S, iv)
    try:
        g_conn = charts.connection_G(pt.K, pt.N, iv)
        conn_res = abs(g_conn - rec.eta)
    except charts.ChartDomainError:
        conn_res = float("nan")
    return CrossValidation(
        K=pt.K, N=pt.N, S=pt.S,
        reduced_rhs_max=max(abs(dK), abs(dN), abs(dS)),
        casimir_residual=cas,
        connection_residual=conn_res,
        s_expected_zero=(abs(beta * beta - 4.0) > 1e-12),
    )


# -- parameter sweeps ------------------------------------------------------------

def _sweep_cell(args) -> list[dict]:
    ia, iw, iz, alpha, w, z = args
    rows: list[dict] = []
    base = {"alpha": alpha, "w": w, "z": z, "ia": ia, "iw": iw, "iz": iz}
    try:
        res = solve_tori3(w, z, alpha)
        published, rq_mismatch = published_audit(w, z, alpha, res.records)
        beta = math.sqrt(alpha + 1.0)
        rhs_max = [cross_validate(rec, beta).reduced_rhs_max for rec in res.records]
    except Exception as exc:  # per-cell failures must not kill the sweep
        rows.append({**base, "kind": "error", "eta": None, "g": None,
                     "residual": None, "flags": (f"error:{exc}",)})
        return rows
    if res.continuum:
        rows.append({**base, "kind": "continuum", "eta": None, "g": None,
                     "residual": None, "flags": ("degenerate_family",)})
        return rows
    for rec, rhs, bad in zip(res.records, rhs_max, rq_mismatch):
        flags = rec.flags + (("rq_mismatch",) if bad else ())
        rows.append({**base, "kind": "torus3", "eta": rec.eta, "g": rec.g,
                     "residual": rec.residual, "flags": flags, "reduced_rhs_max": rhs})
    for sp in res.spurious + published:
        rows.append({**base, "kind": "spurious", "eta": sp["eta"], "g": None,
                     "residual": None, "flags": (sp["reason"],)})
    if not rows:
        rows.append({**base, "kind": "none", "eta": None, "g": None,
                     "residual": None, "flags": ()})
    return rows


def sweep(alpha_grid, w_grid, z_grid, workers: int = 1) -> list[dict]:
    """Deterministic enumeration of solve_tori3 over a parameter grid.

    Every record is cross-validated against the reduced Poisson flow in the
    same cell, and its row carries ``reduced_rhs_max``; ``published_audit``
    adds its ``rq_mismatch`` flags and, after the cell's own, its spurious
    rows.  A cell that raises becomes one ``error`` row.  Output ordering
    follows grid indices regardless of the worker count, so sharded and
    serial runs produce identical tables.  At most one worker process is
    started per cell.
    """
    cells = [(ia, iw, iz, float(a), float(w), float(z))
             for ia, a in enumerate(alpha_grid)
             for iw, w in enumerate(w_grid)
             for iz, z in enumerate(z_grid)]
    workers = min(workers, len(cells))
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            chunks = pool.map(_sweep_cell, cells)
    else:
        chunks = [_sweep_cell(c) for c in cells]
    return [row for chunk in chunks for row in chunk]
