"""Symplectic charts: projective Euler, projective Andoyer, 4-D Delaunay.

The chain

    (q, Q)  <-- projective Euler -->  (rho, phi, theta, psi, P, Phi, Theta, Psi)
            <-- projective Andoyer -->  (rho, u1, u2, u3, P, U1, U2, U3)
            <-- Delaunay -->            (ell, g, u1, u3, L, G, U1, U3)

turns the regularized oscillator into action-angle form: the composed
Hamiltonian is -gamma^2 / (2 L^2), independent of every angle.  All three
transformations are canonical for the form dQ ^ dq; each is defined on an
open domain away from the coordinate singularities and refuses input inside
a small guard band around them.

On this chain the rotation integrals are carried by the momenta:

    Xi = -2 Psi = -2 U3,      L1 = -2 Phi = -2 U1,

since the Andoyer block stores the Phi projection as U1 and the Psi
projection as U3.  These signed identifications are measured numerically once
and frozen here as regression constants (``XI_PER_PSI``, ``L1_PER_PHI``).

The forward maps (Delaunay -> Andoyer -> Euler -> Cartesian and the Kepler
solve) are written in numpy ufuncs: any field of a point may be an ndarray
and the fields broadcast against each other.  A domain check raises when any
element violates it and names the first such element; scalar input gives
Python floats back.  The inverse maps are scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .model import CartesianState, IntegralValues

__all__ = [
    "EulerPoint",
    "AndoyerPoint",
    "DelaunayPoint",
    "ChartDomainError",
    "DegenerateEccentricityError",
    "SINGULARITY_GUARD",
    "XI_PER_PSI",
    "L1_PER_PHI",
    "euler_to_cartesian",
    "cartesian_to_euler",
    "euler_to_andoyer",
    "andoyer_to_euler",
    "kepler_solve",
    "delaunay_to_andoyer",
    "andoyer_to_delaunay",
    "delaunay_to_cartesian",
    "cartesian_to_delaunay",
    "composed_h0",
    "connection_G",
    "integrals_from_momenta",
    "momenta_from_integrals",
    "chart_point_to_dict",
    "chart_point_from_dict",
]

#: Inputs closer than this to a chart singularity are rejected.
SINGULARITY_GUARD = 1e-8

#: Frozen signed identification of the rotation integrals with the chart
#: momenta (measured numerically; regression-tested).
XI_PER_PSI = -2.0
L1_PER_PHI = -2.0

_TWO_PI = 2.0 * math.pi
_KEPLER_TOL = 1e-14
_KEPLER_MAX_ITER = 60


class ChartDomainError(ValueError):
    """Input lies outside (or too close to the boundary of) a chart domain."""


class DegenerateEccentricityError(ChartDomainError):
    """Circular limit: the perigee angle is not defined."""


@dataclass(frozen=True)
class EulerPoint:
    """Projective Euler chart point (rho, phi, theta, psi; P, Phi, Theta, Psi)."""

    rho: float
    phi: float
    theta: float
    psi: float
    P: float
    Phi: float
    Theta: float
    Psi: float


@dataclass(frozen=True)
class AndoyerPoint:
    """Projective Andoyer chart point (rho, u1, u2, u3; P, U1, U2, U3)."""

    rho: float
    u1: float
    u2: float
    u3: float
    P: float
    U1: float
    U2: float
    U3: float


@dataclass(frozen=True)
class DelaunayPoint:
    """4-D Delaunay chart point (ell, g, u1, u3; L, G, U1, U3)."""

    ell: float
    g: float
    u1: float
    u3: float
    L: float
    G: float
    U1: float
    U3: float


def _require(ok, message: str, *values) -> None:
    """Raise ChartDomainError unless ``ok`` holds at every element.

    ``message`` is formatted with ``values`` at the first failing element.
    """
    if ok.all() if isinstance(ok, np.ndarray) else ok:
        return
    ok = np.asarray(ok)
    first = int(np.argmin(ok))
    raise ChartDomainError(
        message.format(*(float(np.broadcast_to(v, ok.shape).flat[first]) for v in values)))


def _value(x):
    """An ndarray result as is; a 0-d result as a Python float."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _point(cls, *fields):
    return cls(*map(_value, fields))


def integrals_from_momenta(U1: float, U3: float) -> tuple[float, float]:
    """(Xi, L1) carried by the Andoyer/Delaunay momenta (U1, U3) = (Phi, Psi)."""
    return XI_PER_PSI * U3, L1_PER_PHI * U1


def momenta_from_integrals(xi: float, l1: float) -> tuple[float, float]:
    """(U1, U3) realizing given integral values; inverse of ``integrals_from_momenta``."""
    return l1 / L1_PER_PHI, xi / XI_PER_PSI


# -- projective Euler ---------------------------------------------------------

def euler_to_cartesian(ep: EulerPoint) -> CartesianState:
    """Forward chart map; the momenta follow by the cotangent lift."""
    _require(ep.rho > 0.0, "rho must be positive, got {}", ep.rho)
    st = np.sin(ep.theta)
    _require(st > SINGULARITY_GUARD, "theta={} is too close to the chart singularity", ep.theta)
    s = np.sin(0.5 * ep.theta)
    c = np.cos(0.5 * ep.theta)
    sr = np.sqrt(ep.rho)
    hm = 0.5 * (ep.phi - ep.psi)
    hp = 0.5 * (ep.phi + ep.psi)
    q1 = sr * s * np.cos(hm)
    q2 = sr * s * np.sin(hm)
    q3 = sr * c * np.sin(hp)
    q4 = sr * c * np.cos(hp)

    # The columns of A are dq/d(rho, phi, theta, psi) and the momenta solve
    # A^T Q = (P, Phi, Theta, Psi), so Q = A x with x = (A^T A)^-1 (P, Phi,
    # Theta, Psi).  A^T A is block diagonal: diag(1/(4 rho), rho/4) on the
    # (rho, theta) columns and (rho/4) [[1, cos theta], [cos theta, 1]] on the
    # (phi, psi) columns.
    ct = np.cos(ep.theta)
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


def cartesian_to_euler(state: CartesianState) -> EulerPoint:
    """Inverse chart map on the open set (q1^2+q2^2)(q3^2+q4^2) > 0."""
    q1, q2, q3, q4 = state.q
    Q1, Q2, Q3, Q4 = state.Q
    r1 = q1 * q1 + q2 * q2
    r2 = q3 * q3 + q4 * q4
    rho = r1 + r2
    if not rho > 0.0:
        raise ChartDomainError("rho = 0 is outside the chart")
    cross = math.sqrt(r1 * r2)
    if not 2.0 * cross / rho > SINGULARITY_GUARD:
        raise ChartDomainError("state is too close to the theta singular set")
    theta = math.atan2(2.0 * cross, r2 - r1)
    psi = math.atan2(q1 * q3 - q2 * q4, q1 * q4 + q2 * q3)
    phi = math.atan2(q1 * q3 + q2 * q4, q1 * q4 - q2 * q3) % _TWO_PI
    P = (q1 * Q1 + q2 * Q2 + q3 * Q3 + q4 * Q4) / (2.0 * rho)
    Theta = ((q1 * Q1 + q2 * Q2) * r2 - (q3 * Q3 + q4 * Q4) * r1) / (2.0 * cross)
    Psi = 0.5 * (q2 * Q1 - q1 * Q2 + q4 * Q3 - q3 * Q4)
    Phi = 0.5 * (q1 * Q2 - q2 * Q1 + q4 * Q3 - q3 * Q4)
    return EulerPoint(rho=rho, phi=phi, theta=theta, psi=psi, P=P, Phi=Phi, Theta=Theta, Psi=Psi)


def h2_euler(ep: EulerPoint, omega: float = 1.0) -> float:
    """Oscillator energy in Euler variables (omega = 1 form).

    omega rho / 2 + 2 rho P^2 + (2/rho)(Theta^2
        + (Psi^2 + Phi^2 - 2 Phi Psi cos(theta)) / sin(theta)^2).
    """
    st = math.sin(ep.theta)
    ang = ep.Theta ** 2 + (ep.Psi ** 2 + ep.Phi ** 2 - 2.0 * ep.Phi * ep.Psi * math.cos(ep.theta)) / (st * st)
    return 0.5 * omega * ep.rho + 2.0 * ep.rho * ep.P ** 2 + 2.0 * ang / ep.rho


# -- projective Andoyer -------------------------------------------------------

def _andoyer_deltas(su2, cu2, c1, s1, c2, s2, atan2):
    """Spherical-triangle offsets (phi - u1, psi - u3).

    The triangle has sides sigma1 (cos = U1/U2), sigma2 (cos = U3/U2) and
    theta, with the dihedral angle u2 (sine su2, cosine cu2) between the
    first two.  The vertex angles, resolved in both sine and cosine, are the
    offsets between the Euler angles and their Andoyer counterparts.
    ``atan2`` is ``math.atan2`` in the scalar inverse map and ``np.arctan2``
    in the array forward map.
    """
    d1 = atan2(su2 * s2, c2 * s1 - s2 * c1 * cu2)
    d3 = atan2(su2 * s1, c1 * s2 - s1 * c2 * cu2)
    return d1, d3


def euler_to_andoyer(ep: EulerPoint) -> AndoyerPoint:
    """Angular block (phi, theta, psi) -> (u1, u2, u3); (rho, P) pass through.

    U1 = Phi and U3 = Psi are the projections of the angular-momentum block
    on the two distinguished axes; U2 is its magnitude.
    """
    st = math.sin(ep.theta)
    if not st > SINGULARITY_GUARD:
        raise ChartDomainError("theta too close to the singular set")
    ct = math.cos(ep.theta)
    u2sq = ep.Theta ** 2 + (ep.Psi ** 2 + ep.Phi ** 2 - 2.0 * ep.Phi * ep.Psi * ct) / (st * st)
    U2 = math.sqrt(u2sq)
    if not U2 > 0.0:
        raise ChartDomainError("total angular momentum U2 = 0 is outside the chart")
    U1 = ep.Phi
    U3 = ep.Psi
    c1 = U1 / U2
    c2 = U3 / U2
    s1sq = 1.0 - c1 * c1
    s2sq = 1.0 - c2 * c2
    if s1sq < SINGULARITY_GUARD ** 2 or s2sq < SINGULARITY_GUARD ** 2:
        raise ChartDomainError("|U1| or |U3| too close to U2")
    s1 = math.sqrt(s1sq)
    s2 = math.sqrt(s2sq)
    cu2 = (ct - c1 * c2) / (s1 * s2)
    su2 = ep.Theta * st / (U2 * s1 * s2)
    u2 = math.atan2(su2, cu2) % _TWO_PI
    d1, d3 = _andoyer_deltas(math.sin(u2), math.cos(u2), c1, s1, c2, s2, math.atan2)
    u1 = (ep.phi + d1) % _TWO_PI
    u3 = (ep.psi + d3) % _TWO_PI
    return AndoyerPoint(rho=ep.rho, u1=u1, u2=u2, u3=u3, P=ep.P, U1=U1, U2=U2, U3=U3)


def andoyer_to_euler(ap: AndoyerPoint) -> EulerPoint:
    """Inverse of ``euler_to_andoyer`` on the open domain |U1|, |U3| < U2."""
    _require(ap.U2 > 0.0, "U2 must be positive")
    c1 = ap.U1 / ap.U2
    c2 = ap.U3 / ap.U2
    s1sq = 1.0 - c1 * c1
    s2sq = 1.0 - c2 * c2
    _require((s1sq >= SINGULARITY_GUARD ** 2) & (s2sq >= SINGULARITY_GUARD ** 2),
             "|U1| or |U3| too close to U2")
    s1 = np.sqrt(s1sq)
    s2 = np.sqrt(s2sq)
    ct = c1 * c2 + s1 * s2 * np.cos(ap.u2)
    stsq = 1.0 - ct * ct
    _require(stsq >= SINGULARITY_GUARD ** 2, "image hits the theta singular set")
    st = np.sqrt(stsq)
    theta = np.arccos(ct)
    Theta = ap.U2 * s1 * s2 * np.sin(ap.u2) / st
    d1, d3 = _andoyer_deltas(np.sin(ap.u2), np.cos(ap.u2), c1, s1, c2, s2, np.arctan2)
    phi = (ap.u1 - d1) % _TWO_PI
    psi = ap.u3 - d3
    # keep psi in the principal interval used by the Euler chart
    psi = (psi + math.pi) % _TWO_PI - math.pi
    return _point(EulerPoint, ap.rho, phi, theta, psi, ap.P, ap.U1, Theta, ap.U3)


# -- Kepler equation ----------------------------------------------------------

def kepler_solve(ell, e):
    """Solve E - e sin(E) = ell for the eccentric anomaly, e in [0, 1).

    An eccentricity outside [0, 1) raises ChartDomainError (a ValueError).

    Newton iteration with a bisection safeguard, run on every element of the
    broadcast (ell, e) at once; an element stops moving once its residual is
    below ``_KEPLER_TOL``.  The returned branch is the continuous one with
    E(ell + 2 pi k) = E(ell) + 2 pi k.
    """
    ell = np.asarray(ell, dtype=float)
    e = np.asarray(e, dtype=float)
    _require((0.0 <= e) & (e < 1.0), "eccentricity must lie in [0, 1), got {}", e)
    k = np.floor((ell + math.pi) / _TWO_PI)
    m = ell - _TWO_PI * k  # in (-pi, pi]
    sign = np.where(m < 0.0, -1.0, 1.0)
    m = np.abs(m)
    # cubic seed is robust up to e ~ 1
    E = np.where((m < 0.25) & (e > 0.8), (6.0 * m) ** (1.0 / 3.0), m + e * np.sin(m))
    lo = np.zeros(E.shape)
    hi = np.full(E.shape, math.pi)
    for _ in range(_KEPLER_MAX_ITER):
        f = E - e * np.sin(E) - m
        moving = np.abs(f) >= _KEPLER_TOL
        if not moving.any():
            break
        above = f > 0.0
        hi = np.where(above, np.minimum(hi, E), hi)
        lo = np.where(above, lo, np.maximum(lo, E))
        E_new = E - f / (1.0 - e * np.cos(E))
        E_new = np.where((lo <= E_new) & (E_new <= hi), E_new, 0.5 * (lo + hi))
        E = np.where(moving, E_new, E)
    return _value(np.where(e == 0.0, ell, sign * E + _TWO_PI * k))


# -- Delaunay -----------------------------------------------------------------

def delaunay_to_andoyer(dp: DelaunayPoint, gamma: float) -> AndoyerPoint:
    """Radial block (ell, g, L, G) -> (rho, u2, P, U2); u1, u3, U1, U3 pass through.

    For e = 0 the perigee direction degenerates; the forward map uses the
    natural convention f = E = ell, so it stays defined on the closure.
    """
    _require(gamma > 0.0, "gamma must be positive, got {}", gamma)
    _require((0.0 < dp.G) & (dp.G <= dp.L), "need 0 < G <= L, got G={}, L={}", dp.G, dp.L)
    _require((np.abs(dp.U1) < dp.G) & (np.abs(dp.U3) < dp.G),
             "need |U1|, |U3| < G, got U1={}, U3={}, G={}", dp.U1, dp.U3, dp.G)
    a = dp.L * dp.L / gamma
    eta = dp.G / dp.L
    e = np.sqrt(np.maximum(0.0, 1.0 - eta * eta))
    E = kepler_solve(dp.ell, e)
    se, ce = np.sin(E), np.cos(E)
    r = a * (1.0 - e * ce)
    P = dp.L * e * se / r
    f = np.arctan2(eta * se, ce - e)
    # keep the true anomaly on the same winding branch as E
    f = f + _TWO_PI * np.rint((E - f) / _TWO_PI)
    u2 = (dp.g + f) % _TWO_PI
    return _point(AndoyerPoint, r, dp.u1 % _TWO_PI, u2, dp.u3 % _TWO_PI,
                  P, dp.U1, dp.G, dp.U3)


def andoyer_to_delaunay(ap: AndoyerPoint, gamma: float) -> DelaunayPoint:
    """Inverse radial block, defined for bound (negative-energy) points."""
    if not gamma > 0.0:
        raise ChartDomainError(f"gamma must be positive, got {gamma}")
    if not ap.rho > 0.0:
        raise ChartDomainError("rho must be positive")
    if not ap.U2 > 0.0:
        raise ChartDomainError("U2 must be positive")
    k0 = 0.5 * (ap.P ** 2 + (ap.U2 / ap.rho) ** 2) - gamma / ap.rho
    if not k0 < 0.0:
        raise ChartDomainError("point is not in the bound (negative-energy) regime")
    L = gamma / math.sqrt(-2.0 * k0)
    G = ap.U2
    a = L * L / gamma
    eta = min(1.0, G / L)
    esq = max(0.0, 1.0 - eta * eta)
    e = math.sqrt(esq)
    if e < SINGULARITY_GUARD:
        raise DegenerateEccentricityError(
            "circular point: perigee angle g is not defined"
        )
    e_ce = 1.0 - ap.rho / a
    e_se = ap.rho * ap.P / L
    E = math.atan2(e_se, e_ce)
    ell = E - e_se
    f = math.atan2(eta * math.sin(E), math.cos(E) - e)
    g = (ap.u2 - f) % _TWO_PI
    return DelaunayPoint(ell=ell % _TWO_PI, g=g, u1=ap.u1 % _TWO_PI, u3=ap.u3 % _TWO_PI,
                         L=L, G=G, U1=ap.U1, U3=ap.U3)


def delaunay_to_cartesian(dp: DelaunayPoint, gamma: float) -> CartesianState:
    """Full chain Delaunay -> Andoyer -> Euler -> Cartesian."""
    return euler_to_cartesian(andoyer_to_euler(delaunay_to_andoyer(dp, gamma)))


def cartesian_to_delaunay(state: CartesianState, gamma: float) -> DelaunayPoint:
    """Full chain Cartesian -> Euler -> Andoyer -> Delaunay."""
    return andoyer_to_delaunay(euler_to_andoyer(cartesian_to_euler(state)), gamma)


def composed_h0(dp: DelaunayPoint, gamma: float) -> float:
    """Regularized Kepler energy evaluated through the chart chain.

    Computes (P^2 + U2^2/rho^2)/2 - gamma/rho on the Andoyer image; on the
    chart domain this equals -gamma^2 / (2 L^2) for every angle.
    """
    ap = delaunay_to_andoyer(dp, gamma)
    return 0.5 * (ap.P ** 2 + (ap.U2 / ap.rho) ** 2) - gamma / ap.rho


def connection_G(K: float, N: float, iv: IntegralValues) -> float:
    """Total angular momentum G determined by the reduced invariants (K, N).

    Solves 4 G^2 = (n^2 + xi^2 + l^2)/2 - K^2/2 - N for the nonnegative
    root.  A nonpositive radicand means the point corresponds to G = 0 or
    lies outside the chart region.
    """
    radicand = 0.5 * (iv.n ** 2 + iv.xi ** 2 + iv.l ** 2) - 0.5 * K * K - N
    if radicand <= 0.0:
        raise ChartDomainError(
            f"(K={K}, N={N}) lies outside the symplectic chart region (4G^2={radicand})"
        )
    return 0.5 * math.sqrt(radicand)


# -- serialization ------------------------------------------------------------

_CHART_TYPES = {"euler": EulerPoint, "andoyer": AndoyerPoint, "delaunay": DelaunayPoint}


def chart_point_to_dict(point) -> dict:
    """Tagged JSON-friendly representation of any chart point."""
    for tag, cls in _CHART_TYPES.items():
        if isinstance(point, cls):
            return {"chart": tag, **asdict(point)}
    raise TypeError(f"not a chart point: {type(point)!r}")


def chart_point_from_dict(data: dict):
    """Inverse of ``chart_point_to_dict``."""
    tag = data.get("chart")
    if tag not in _CHART_TYPES:
        raise ValueError(f"unknown chart tag: {tag!r}")
    fields = {k: v for k, v in data.items() if k != "chart"}
    return _CHART_TYPES[tag](**fields)
