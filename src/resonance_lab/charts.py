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
solve) are written once, against a small function namespace that each call
picks from its own input (``_ns``): numpy's when any field is an ndarray, so
the fields broadcast against each other, and ``math`` with the builtin
arithmetic when every field is a real scalar.  The two give the same values
up to the last bit, where numpy's array ufuncs and libm may round
differently, or where ``**`` goes through libm's ``pow`` on a scalar.  A
complex field selects ``_CS``, the complex-step namespace: a field x + ih
carries h times its derivative in its imaginary part, and so do the results
(Squire & Trapp, SIAM Rev. 40, 110, 1998; Martins, Sturdza & Alonso, ACM
TOMS 29, 245, 2003).  A domain check reads the real part, raises when any
element violates it and names the first such element; scalar input gives
Python floats back.  The Kepler solve starts from Markley's closed-form
starter with one fifth-order correction (Markley 1995), which is within
rounding of the root, so its safeguarded Newton loop only checks the start
and stays as the fallback.

Each forward map is written once, as a private function on the fields of its
input and the namespace that returns a plain tuple (``_delaunay_to_andoyer``,
``_andoyer_to_euler``, and ``_euler_to_cartesian``, which returns the
positions of ``_euler_positions`` and the momenta as two 4-tuples).  The
public map picks the namespace from its record and wraps the tuple in its
own record.  ``delaunay_to_cartesian`` and ``delaunay_to_positions`` chain
the functions with one namespace decision per chain (``_delaunay_to_euler``)
and build only the final ``CartesianState`` or positions tuple.  Between the
first two maps the fields take the values the Andoyer record would hold:
Python floats in ``math``; in numpy a 0-d result becomes a float and the
namespace is picked again from the fields, so a chain with 0-d input runs its
later maps in ``math``, as the single maps do, and gives their bits.  Every
map that takes gamma refuses one that is not positive and finite.

The inverse maps take scalars only and call ``math`` directly: their callers
map a trajectory one sample at a time, where even the dispatch check would
show.  Each inverse map is written once, as a private function on floats
that returns a plain tuple (``_cartesian_to_euler``, ``_euler_to_andoyer``,
``_andoyer_to_delaunay``); the public map wraps that tuple in its record,
and ``cartesian_to_delaunay`` chains the three functions and builds one
``DelaunayPoint``, with no intermediate record.

``delaunay_to_positions`` is ``delaunay_to_cartesian`` without the cotangent
lift: the positions q alone, with the same domain checks, for callers that
read only q.  ``kepler_solve`` remembers its last 8 array solves, keyed by
the shapes and exact bytes of the float64 ``ell`` and ``e``, and returns a
copy of the remembered E; a mean-anomaly average of R1 and of W1 at the same
momenta then solves Kepler's equation once.  Scalar solves bypass the cache.

The chart points are ``NamedTuple`` records: immutable tuples whose
positional order is their field order, so the maps build them positionally
and ``_ns(*point)`` reads every field.  ``point._replace(ell=...)`` gives a
modified copy and ``point._asdict()`` a dict.  Equality is tuple equality
and ignores the class: an ``EulerPoint`` equals an ``AndoyerPoint`` with the
same eight values, so compare ``type(...)`` too where the chart matters.
"""

from __future__ import annotations

import functools
import math
import operator
from types import SimpleNamespace
from typing import NamedTuple

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
    "delaunay_to_positions",
    "cartesian_to_delaunay",
    "require_angles_defined",
    "composed_h0",
    "connection_G",
    "integrals_from_momenta",
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
_KEPLER_CACHE_SIZE = 8
#: Markley's alpha(m, e) = _MARKLEY_A + _MARKLEY_B (pi - m) / (1 + e).
_MARKLEY_A = 3.0 * math.pi * math.pi / (math.pi * math.pi - 6.0)
_MARKLEY_B = 1.6 * math.pi / (math.pi * math.pi - 6.0)


class ChartDomainError(ValueError):
    """Input lies outside (or too close to the boundary of) a chart domain."""


class DegenerateEccentricityError(ChartDomainError):
    """Circular limit: the perigee angle is not defined."""


_CIRCULAR = "circular point: perigee angle g is not defined"


class EulerPoint(NamedTuple):
    """Projective Euler chart point (rho, phi, theta, psi; P, Phi, Theta, Psi)."""

    rho: float
    phi: float
    theta: float
    psi: float
    P: float
    Phi: float
    Theta: float
    Psi: float


class AndoyerPoint(NamedTuple):
    """Projective Andoyer chart point (rho, u1, u2, u3; P, U1, U2, U3)."""

    rho: float
    u1: float
    u2: float
    u3: float
    P: float
    U1: float
    U2: float
    U3: float


class DelaunayPoint(NamedTuple):
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
    if ok is True or (ok.all() if isinstance(ok, np.ndarray) else ok):
        return
    ok = np.asarray(ok)
    first = int(np.argmin(ok))
    raise ChartDomainError(
        message.format(*(float(np.broadcast_to(v, ok.shape).flat[first].real) for v in values)))


def _value(x):
    """An ndarray result as is; a 0-d result as a Python float, or a complex when it is complex."""
    if isinstance(x, np.ndarray):
        if x.ndim:
            return x
        x = x[()]
    return complex(x) if isinstance(x, complex) else float(x)


def _nan_passing(fn):
    """``fn`` (math.floor or round) on a finite float; NaN and inf pass through, as in numpy."""
    return lambda x: float(fn(x)) if math.isfinite(x) else x


def _nan_at_inf(fn):
    """``fn`` (math.sin or cos), NaN at an infinite argument as in numpy, where math raises."""
    def wrapped(x):
        try:
            return fn(x)
        except ValueError:
            return math.nan
    return wrapped


#: The scalar stand-in for the numpy functions the forward chain calls.
#: ``minimum`` and ``maximum`` propagate NaN like numpy's, which the
#: builtins ``min`` and ``max`` do not: ``max(0.0, nan)`` is 0.0.
_MATH = SimpleNamespace(
    sin=_nan_at_inf(math.sin), cos=_nan_at_inf(math.cos), sqrt=math.sqrt,
    arctan2=math.atan2, arccos=math.acos,
    abs=abs, floor=_nan_passing(math.floor), rint=_nan_passing(round), mod=operator.mod,
    minimum=lambda a, b: a if a <= b or a != a else b,
    maximum=lambda a, b: a if a >= b or a != a else b,
    where=lambda cond, a, b: a if cond else b, any=bool,
)


#: The array namespace: numpy's functions, and the builtin ``%`` as ``mod``,
#: which is numpy's on an array and spares a scalar field a ufunc call.
_NP = SimpleNamespace(mod=operator.mod, **{name: getattr(np, name) for name in (
    "sin", "cos", "sqrt", "arctan2", "arccos", "abs", "floor", "rint", "minimum", "maximum",
    "where", "any")})


def _cs_arctan2(y, x):
    """arctan2 of the real parts plus i (x dy - y dx)/(x^2 + y^2), dx and dy the imaginary parts."""
    yr, xr = np.real(y), np.real(x)
    return np.arctan2(yr, xr) + 1j * ((xr * np.imag(y) - yr * np.imag(x)) / (xr * xr + yr * yr))


#: The complex-step stand-in for the functions of the forward maps (the
#: Kepler solve has its own rule).  sin, cos, sqrt and arccos are analytic
#: and numpy's; arctan2 and mod take the real result plus i times the
#: derivative times the imaginary part; rint and the test of maximum read
#: the real part.
_CS = SimpleNamespace(
    sin=np.sin, cos=np.cos, sqrt=np.sqrt, arccos=np.arccos, arctan2=_cs_arctan2, abs=np.abs,
    mod=lambda x, m: np.mod(np.real(x), m) + 1j * np.imag(x),
    rint=lambda x: np.rint(np.real(x)),
    maximum=lambda a, b: np.where(np.real(a) >= np.real(b), a, b),
)


def _ns(*values):
    """``_MATH`` when every value is a real scalar; else ``_CS`` when any is complex, ``_NP`` otherwise."""
    for v in values:
        if not isinstance(v, (float, int)):
            for u in values:
                if not isinstance(u, float) and (
                        isinstance(u, complex) or isinstance(u, np.ndarray) and u.dtype.kind == "c"):
                    return _CS
            return _NP
    return _MATH


def _point(cls, *fields):
    return cls(*map(_value, fields))


def integrals_from_momenta(U1: float, U3: float) -> tuple[float, float]:
    """(Xi, L1) carried by the Andoyer/Delaunay momenta (U1, U3) = (Phi, Psi)."""
    return XI_PER_PSI * U3, L1_PER_PHI * U1


# -- projective Euler ---------------------------------------------------------

def _euler_positions(rho, phi, theta, psi, xp):
    """q1..q4 of an Euler point's angles and rho, with sin(theta) and the half-angle sine and cosine.

    Both domain checks of ``euler_to_cartesian`` are made here; the lift
    reuses the three trigonometric values.
    """
    _require(rho.real > 0.0, "rho must be positive, got {}", rho)
    st = xp.sin(theta)
    _require(st.real > SINGULARITY_GUARD, "theta={} is too close to the chart singularity", theta)
    s = xp.sin(0.5 * theta)
    c = xp.cos(0.5 * theta)
    sr = xp.sqrt(rho)
    hm = 0.5 * (phi - psi)
    hp = 0.5 * (phi + psi)
    q1 = sr * s * xp.cos(hm)
    q2 = sr * s * xp.sin(hm)
    q3 = sr * c * xp.sin(hp)
    q4 = sr * c * xp.cos(hp)
    return (q1, q2, q3, q4), st, s, c


def _euler_to_cartesian(rho, phi, theta, psi, P, Phi, Theta, Psi, xp) -> tuple:
    """The positions and momenta of ``euler_to_cartesian`` from an Euler point's fields, as two 4-tuples."""
    (q1, q2, q3, q4), st, s, c = _euler_positions(rho, phi, theta, psi, xp)
    # The columns of A are dq/d(rho, phi, theta, psi) and the momenta solve
    # A^T Q = (P, Phi, Theta, Psi), so Q = A x with x = (A^T A)^-1 (P, Phi,
    # Theta, Psi).  A^T A is block diagonal: diag(1/(4 rho), rho/4) on the
    # (rho, theta) columns and (rho/4) [[1, cos theta], [cos theta, 1]] on the
    # (phi, psi) columns.
    ct = xp.cos(theta)
    w = 4.0 / (rho * st * st)
    x0 = 4.0 * rho * P
    x1 = w * (Phi - ct * Psi)
    x2 = 4.0 * Theta / rho
    x3 = w * (Psi - ct * Phi)
    inv2rho = 0.5 / rho
    cot = c / s
    tan = s / c
    Q1 = q1 * inv2rho * x0 - 0.5 * q2 * x1 + 0.5 * cot * q1 * x2 + 0.5 * q2 * x3
    Q2 = q2 * inv2rho * x0 + 0.5 * q1 * x1 + 0.5 * cot * q2 * x2 - 0.5 * q1 * x3
    Q3 = q3 * inv2rho * x0 + 0.5 * q4 * x1 - 0.5 * tan * q3 * x2 + 0.5 * q4 * x3
    Q4 = q4 * inv2rho * x0 - 0.5 * q3 * x1 - 0.5 * tan * q4 * x2 - 0.5 * q3 * x3
    return (q1, q2, q3, q4), (Q1, Q2, Q3, Q4)


def _state(q, Q) -> CartesianState:
    """The ``CartesianState`` of a position and a momentum 4-tuple, each field through ``_value``."""
    return CartesianState(tuple(map(_value, q)), tuple(map(_value, Q)))


def euler_to_cartesian(ep: EulerPoint) -> CartesianState:
    """Forward chart map; the momenta follow by the cotangent lift."""
    return _state(*_euler_to_cartesian(*ep, _ns(*ep)))


def _cartesian_to_euler(q, Q) -> tuple:
    """The fields of ``cartesian_to_euler`` from the positions and momenta, as a plain tuple."""
    q1, q2, q3, q4 = q
    Q1, Q2, Q3, Q4 = Q
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
    return rho, phi, theta, psi, P, Phi, Theta, Psi


def cartesian_to_euler(state: CartesianState) -> EulerPoint:
    """Inverse chart map on the open set (q1^2+q2^2)(q3^2+q4^2) > 0."""
    return EulerPoint._make(_cartesian_to_euler(state.q, state.Q))


# -- projective Andoyer -------------------------------------------------------

def _andoyer_deltas(su2, cu2, c1, s1, c2, s2, atan2):
    """Spherical-triangle offsets (phi - u1, psi - u3).

    The triangle has sides sigma1 (cos = U1/U2), sigma2 (cos = U3/U2) and
    theta, with the dihedral angle u2 (sine su2, cosine cu2) between the
    first two.  The vertex angles, resolved in both sine and cosine, are the
    offsets between the Euler angles and their Andoyer counterparts.
    ``atan2`` is ``math.atan2`` in the inverse map and the call's
    namespace's ``arctan2`` in the forward map.
    """
    d1 = atan2(su2 * s2, c2 * s1 - s2 * c1 * cu2)
    d3 = atan2(su2 * s1, c1 * s2 - s1 * c2 * cu2)
    return d1, d3


def _euler_to_andoyer(rho, phi, theta, psi, P, Phi, Theta, Psi) -> tuple:
    """The fields of ``euler_to_andoyer`` from those of an Euler point, as a plain tuple."""
    st = math.sin(theta)
    if not st > SINGULARITY_GUARD:
        raise ChartDomainError("theta too close to the singular set")
    ct = math.cos(theta)
    u2sq = Theta ** 2 + (Psi ** 2 + Phi ** 2 - 2.0 * Phi * Psi * ct) / (st * st)
    U2 = math.sqrt(u2sq)
    if not U2 > 0.0:
        raise ChartDomainError("total angular momentum U2 = 0 is outside the chart")
    U1 = Phi
    U3 = Psi
    c1 = U1 / U2
    c2 = U3 / U2
    s1sq = 1.0 - c1 * c1
    s2sq = 1.0 - c2 * c2
    if s1sq < SINGULARITY_GUARD ** 2 or s2sq < SINGULARITY_GUARD ** 2:
        raise ChartDomainError("|U1| or |U3| too close to U2")
    s1 = math.sqrt(s1sq)
    s2 = math.sqrt(s2sq)
    cu2 = (ct - c1 * c2) / (s1 * s2)
    su2 = Theta * st / (U2 * s1 * s2)
    u2 = math.atan2(su2, cu2) % _TWO_PI
    d1, d3 = _andoyer_deltas(math.sin(u2), math.cos(u2), c1, s1, c2, s2, math.atan2)
    u1 = (phi + d1) % _TWO_PI
    u3 = (psi + d3) % _TWO_PI
    return rho, u1, u2, u3, P, U1, U2, U3


def euler_to_andoyer(ep: EulerPoint) -> AndoyerPoint:
    """Angular block (phi, theta, psi) -> (u1, u2, u3); (rho, P) pass through.

    U1 = Phi and U3 = Psi are the projections of the angular-momentum block
    on the two distinguished axes; U2 is its magnitude.
    """
    return AndoyerPoint._make(_euler_to_andoyer(*ep))


def _andoyer_to_euler(rho, u1, u2, u3, P, U1, U2, U3, xp) -> tuple:
    """The fields of ``andoyer_to_euler`` from those of an Andoyer point, as a plain tuple."""
    _require(U2.real > 0.0, "U2 must be positive")
    c1 = U1 / U2
    c2 = U3 / U2
    s1sq = 1.0 - c1 * c1
    s2sq = 1.0 - c2 * c2
    _require((s1sq.real >= SINGULARITY_GUARD ** 2) & (s2sq.real >= SINGULARITY_GUARD ** 2),
             "|U1| or |U3| too close to U2")
    s1 = xp.sqrt(s1sq)
    s2 = xp.sqrt(s2sq)
    su2 = xp.sin(u2)
    cu2 = xp.cos(u2)
    ct = c1 * c2 + s1 * s2 * cu2
    stsq = 1.0 - ct * ct
    _require(stsq.real >= SINGULARITY_GUARD ** 2, "image hits the theta singular set")
    st = xp.sqrt(stsq)
    theta = xp.arccos(ct)
    Theta = U2 * s1 * s2 * su2 / st
    d1, d3 = _andoyer_deltas(su2, cu2, c1, s1, c2, s2, xp.arctan2)
    phi = xp.mod(u1 - d1, _TWO_PI)
    psi = u3 - d3
    # keep psi in the principal interval used by the Euler chart
    psi = xp.mod(psi + math.pi, _TWO_PI) - math.pi
    return rho, phi, theta, psi, P, U1, Theta, U3


def andoyer_to_euler(ap: AndoyerPoint) -> EulerPoint:
    """Inverse of ``euler_to_andoyer`` on the open domain |U1|, |U3| < U2."""
    return _point(EulerPoint, *_andoyer_to_euler(*ap, _ns(*ap)))


# -- Kepler equation ----------------------------------------------------------

def kepler_solve(ell, e):
    """Solve E - e sin(E) = ell for the eccentric anomaly, e in [0, 1).

    An eccentricity outside [0, 1) raises ChartDomainError (a ValueError).

    Every element of the broadcast (ell, e) starts from Markley's starter
    with one fifth-order correction (Markley, Celest. Mech. Dyn. Astron. 63,
    101, 1995), which is within rounding of the root for every e in [0, 1).
    A Newton iteration with a bisection safeguard then checks the start: an
    element stops moving once its residual is below ``_KEPLER_TOL``, so in
    practice its first residual evaluation finds every element converged, and
    it stays as the fallback.  NaN or infinite ell gives NaN for e > 0.  The
    returned branch is the continuous one with E(ell + 2 pi k) = E(ell) + 2 pi k.

    Array solves are cached: the last ``_KEPLER_CACHE_SIZE`` (8) are kept,
    keyed by the shapes and exact bytes of the float64 ``ell`` and ``e``, so
    a hit is a bitwise-equal input and returns the same bits as a fresh
    solve.  Every array return is a copy, so a caller may modify it.  Scalar
    calls bypass the cache, and a call that raises stores nothing.

    Complex-step input solves the real part by this same path, cache
    included, and adds i (Im ell + sin E Im e)/(1 - e cos E): the derivative
    of the root times the imaginary parts, by the implicit-function theorem.
    """
    xp = _ns(ell, e)
    if xp is _MATH:
        return _kepler_newton(ell, e)
    if xp is _CS:
        er = np.real(e)
        E = kepler_solve(np.real(ell), er)
        return _value(E + 1j * ((np.imag(ell) + np.sin(E) * np.imag(e)) / (1.0 - er * np.cos(E))))
    ell = np.asarray(ell, dtype=float)
    e = np.asarray(e, dtype=float)
    E = _kepler_cached(ell.shape, ell.tobytes(), e.shape, e.tobytes())
    return E.copy() if isinstance(E, np.ndarray) else E


@functools.lru_cache(maxsize=_KEPLER_CACHE_SIZE)
def _kepler_cached(ell_shape, ell_bytes, e_shape, e_bytes):
    """The array solve, memoized on the shapes and bytes of its float64 input."""
    return _kepler_newton(np.frombuffer(ell_bytes).reshape(ell_shape),
                          np.frombuffer(e_bytes).reshape(e_shape))


def _kepler_start(m, e, xp):
    """Markley's starter and one Danby-Burkardt fifth-order correction, m in [0, pi].

    Markley (Celest. Mech. Dyn. Astron. 63, 101, 1995) replaces sin E by a
    Pade approximant, which turns Kepler's equation into a cubic in E solved
    in closed form; one fifth-order step (Danby & Burkardt, Celest. Mech. 31,
    95, 1983) then lands within rounding of the root for every e in [0, 1).
    """
    ome = 1.0 - e
    m2 = m * m
    alpha = _MARKLEY_A + _MARKLEY_B / (1.0 + e) * (math.pi - m)
    d = 3.0 * ome + alpha * e
    ad = alpha * d
    q = ad * (2.0 * ome) - m2
    r = (3.0 * ad * (d - ome) + m2) * m
    q2 = q * q
    # a nonnegative base, so ** needs no real cube root; a discriminant that
    # rounds below zero is clamped, and NaN passes through maximum
    w = (xp.abs(r) + xp.sqrt(xp.maximum(0.0, q2 * q + r * r))) ** (2.0 / 3.0)
    E = (2.0 * r * w / (w * w + w * q + q2) + m) / d
    # the correction E + d5 with f0 = E - e sin E - m, f1 = 1 - e cos E,
    # f2 = e sin E, f3 = e cos E:
    #   d3 = -f0 / (f1 - f0 f2 / (2 f1)),
    #   d4 = -f0 / (f1 + d3 f2 / 2 + d3^2 f3 / 6),
    #   d5 = -f0 / (f1 + d4 f2 / 2 + d4^2 f3 / 6 - d4^3 f2 / 24)
    es = e * xp.sin(E)
    ec = e * xp.cos(E)
    nf0 = m + es - E
    f1 = 1.0 - ec
    h = 0.5 * es
    g = ec / 6.0
    d3 = nf0 / (f1 + nf0 * h / f1)
    d4 = nf0 / (f1 + d3 * (h + d3 * g))
    return E + nf0 / (f1 + d4 * (h + d4 * (g - d4 * es / 24.0)))


def _kepler_newton(ell, e):
    """The uncached solve of ``kepler_solve`` on floats or float64 arrays."""
    xp = _ns(ell, e)
    _require((0.0 <= e) & (e < 1.0), "eccentricity must lie in [0, 1), got {}", e)
    k = xp.floor((ell + math.pi) / _TWO_PI)
    m = ell - _TWO_PI * k  # in (-pi, pi]
    sign = xp.where(m < 0.0, -1.0, 1.0)
    m = xp.abs(m)
    E = _kepler_start(m, e, xp)
    # the safeguarded Newton loop checks the start and is its fallback
    lo, hi = 0.0, math.pi
    for _ in range(_KEPLER_MAX_ITER):
        f = E - e * xp.sin(E) - m
        moving = xp.abs(f) >= _KEPLER_TOL
        if not xp.any(moving):
            break
        above = f > 0.0
        hi = xp.where(above, xp.minimum(hi, E), hi)
        lo = xp.where(above, lo, xp.maximum(lo, E))
        E_new = E - f / (1.0 - e * xp.cos(E))
        E_new = xp.where((lo <= E_new) & (E_new <= hi), E_new, 0.5 * (lo + hi))
        E = xp.where(moving, E_new, E)
    return _value(xp.where(e == 0.0, ell, sign * E + _TWO_PI * k))


# -- Delaunay -----------------------------------------------------------------

def _delaunay_orbit(L, G, U1, U3, gamma, xp):
    """Domain checks of the forward Delaunay map on its momenta, then the orbit's (a, eta, e)."""
    _require(gamma > 0.0, "gamma must be positive, got {}", gamma)
    _require(gamma < math.inf, "gamma must be finite, got {}", gamma)
    _require((0.0 < G.real) & (G.real <= L.real), "need 0 < G <= L, got G={}, L={}", G, L)
    _require((xp.abs(U1) < G.real) & (xp.abs(U3) < G.real),
             "need |U1|, |U3| < G, got U1={}, U3={}, G={}", U1, U3, G)
    a = L * L / gamma
    eta = G / L
    e = xp.sqrt(xp.maximum(0.0, 1.0 - eta * eta))
    _require(e.real != 1.0, "G={} is too small against L={}: the eccentricity rounds to 1", G, L)
    return a, eta, e


def require_angles_defined(dp: DelaunayPoint, gamma: float) -> None:
    """Raise unless every Delaunay angle is defined at ``dp``.

    That is the forward map's domain (0 < G <= L, |U1|, |U3| < G, and a
    positive, finite gamma), minus the circular orbits e <
    ``SINGULARITY_GUARD``, where the perigee angle g is not defined
    (DegenerateEccentricityError, as in ``andoyer_to_delaunay``).
    """
    xp = _ns(gamma, *dp)
    _, _, e = _delaunay_orbit(dp.L, dp.G, dp.U1, dp.U3, gamma, xp)
    if xp.any(e < SINGULARITY_GUARD):
        raise DegenerateEccentricityError(_CIRCULAR)


def _delaunay_to_andoyer(ell, g, u1, u3, L, G, U1, U3, gamma, xp) -> tuple:
    """The fields of ``delaunay_to_andoyer`` from those of a Delaunay point, as a plain tuple."""
    a, eta, e = _delaunay_orbit(L, G, U1, U3, gamma, xp)
    E = kepler_solve(ell, e)
    se, ce = xp.sin(E), xp.cos(E)
    r = a * (1.0 - e * ce)
    P = L * e * se / r
    f = xp.arctan2(eta * se, ce - e)
    # keep the true anomaly on the same winding branch as E
    f = f + _TWO_PI * xp.rint((E - f) / _TWO_PI)
    u2 = xp.mod(g + f, _TWO_PI)
    return r, xp.mod(u1, _TWO_PI), u2, xp.mod(u3, _TWO_PI), P, U1, G, U3


def delaunay_to_andoyer(dp: DelaunayPoint, gamma: float) -> AndoyerPoint:
    """Radial block (ell, g, L, G) -> (rho, u2, P, U2); u1, u3, U1, U3 pass through.

    For e = 0 the perigee direction degenerates; the forward map uses the
    natural convention f = E = ell, so it stays defined on the closure.
    """
    return _point(AndoyerPoint, *_delaunay_to_andoyer(*dp, gamma, _ns(gamma, *dp)))


def _andoyer_energy(rho, P, U2, gamma):
    """The Kepler energy (P^2 + U2^2/rho^2)/2 - gamma/rho of an Andoyer point's fields."""
    return 0.5 * (P ** 2 + (U2 / rho) ** 2) - gamma / rho


def _andoyer_to_delaunay(rho, u1, u2, u3, P, U1, U2, U3, gamma) -> tuple:
    """The fields of ``andoyer_to_delaunay`` from those of an Andoyer point, as a plain tuple."""
    if not gamma > 0.0:
        raise ChartDomainError(f"gamma must be positive, got {gamma}")
    if not gamma < math.inf:
        raise ChartDomainError(f"gamma must be finite, got {gamma}")
    if not rho > 0.0:
        raise ChartDomainError("rho must be positive")
    if not U2 > 0.0:
        raise ChartDomainError("U2 must be positive")
    k0 = _andoyer_energy(rho, P, U2, gamma)
    if not k0 < 0.0:
        raise ChartDomainError("point is not in the bound (negative-energy) regime")
    L = gamma / math.sqrt(-2.0 * k0)
    G = U2
    a = L * L / gamma
    eta = min(1.0, G / L)
    esq = max(0.0, 1.0 - eta * eta)
    e = math.sqrt(esq)
    if e < SINGULARITY_GUARD:
        raise DegenerateEccentricityError(_CIRCULAR)
    e_ce = 1.0 - rho / a
    e_se = rho * P / L
    E = math.atan2(e_se, e_ce)
    ell = E - e_se
    f = math.atan2(eta * math.sin(E), math.cos(E) - e)
    g = (u2 - f) % _TWO_PI
    return ell % _TWO_PI, g, u1 % _TWO_PI, u3 % _TWO_PI, L, G, U1, U3


def andoyer_to_delaunay(ap: AndoyerPoint, gamma: float) -> DelaunayPoint:
    """Inverse radial block, defined for bound (negative-energy) points."""
    return DelaunayPoint._make(_andoyer_to_delaunay(*ap, gamma))


def _delaunay_to_euler(dp: DelaunayPoint, gamma) -> tuple:
    """The Euler fields of ``dp``'s image, and the namespace the Euler map takes them in.

    The two maps are chained without records, with the values the records
    would carry: the Andoyer fields go through ``_value`` (``float`` in
    ``_MATH``, where every field is a scalar) and the namespace is picked
    again from them, so a 0-d field leaves the first map as a float and the
    later maps run in ``_MATH``.  The Euler fields need neither: floats
    stay floats in ``_MATH``, and in numpy an array field of the Andoyer
    point makes one of the Euler point.
    """
    xp = _ns(gamma, *dp)
    fields = _delaunay_to_andoyer(*dp, gamma, xp)
    if xp is _MATH:
        fields = map(float, fields)
    else:
        fields = tuple(map(_value, fields))
        xp = _ns(*fields)
    return _andoyer_to_euler(*fields, xp), xp


def delaunay_to_cartesian(dp: DelaunayPoint, gamma: float) -> CartesianState:
    """Full chain Delaunay -> Andoyer -> Euler -> Cartesian."""
    ep, xp = _delaunay_to_euler(dp, gamma)
    q, Q = _euler_to_cartesian(*ep, xp)
    return CartesianState(q, Q) if xp is _MATH else _state(q, Q)


def delaunay_to_positions(dp: DelaunayPoint, gamma: float) -> tuple:
    """Positions (q1, q2, q3, q4) of ``delaunay_to_cartesian``, without the momenta."""
    (rho, phi, theta, psi, _, _, _, _), xp = _delaunay_to_euler(dp, gamma)
    q, _, _, _ = _euler_positions(rho, phi, theta, psi, xp)
    return q if xp is _MATH else tuple(map(_value, q))


def cartesian_to_delaunay(state: CartesianState, gamma: float) -> DelaunayPoint:
    """Full chain Cartesian -> Euler -> Andoyer -> Delaunay."""
    return DelaunayPoint._make(_andoyer_to_delaunay(
        *_euler_to_andoyer(*_cartesian_to_euler(state.q, state.Q)), gamma))


def composed_h0(dp: DelaunayPoint, gamma: float) -> float:
    """Regularized Kepler energy evaluated through the chart chain.

    Computes (P^2 + U2^2/rho^2)/2 - gamma/rho on the Andoyer image; on the
    chart domain this equals -gamma^2 / (2 L^2) for every angle.
    """
    ap = delaunay_to_andoyer(dp, gamma)
    return _andoyer_energy(ap.rho, ap.P, ap.U2, gamma)


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

