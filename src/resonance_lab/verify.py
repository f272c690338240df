"""Property suites: every structural claim of the library, run as one battery.

Each suite fixes its sample sizes, draws its own deterministic random stream
from the master seed (``nf_predictivity`` starts from a fixed point instead,
so every seed gives it the same result), returns a ``SuiteResult`` with the
worst observed residuals, and never raises on a mere failure (the CLI turns
failures into exit codes).  ``run_suites`` serves the CLI and the tier-1
criteria alike.  ``fault`` names an intentional defect to inject, used to
prove the harness actually detects failures ("bracket_table_sign" flips one
tabulated bracket entry).
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import charts, equilibria, invariants, model, normalform

__all__ = ["SuiteResult", "run_suites", "SUITES", "FAULTS", "OMEGA_MATRIX"]

OMEGA_MATRIX = np.block([
    [np.zeros((4, 4)), np.eye(4)],
    [-np.eye(4), np.zeros((4, 4))],
])


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def to_dict(self) -> dict:
        # timings stay out of the report so that reruns are byte-identical
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "details": {k: v if isinstance(v, bool) else float(v) for k, v in self.details.items()},
        }


# -- samplers -------------------------------------------------------------------

_PAD = 0.05   # sampled chart angles keep this distance from 0 and 2 pi


def _random_state(rng, scale: float = 1.0) -> model.CartesianState:
    return model.CartesianState.from_array(scale * rng.normal(size=8))


def random_euler(rng) -> charts.EulerPoint:
    return charts.EulerPoint(
        rho=float(rng.uniform(0.5, 3.0)),
        phi=float(rng.uniform(0.05, 2 * math.pi - 0.05)),
        theta=float(rng.uniform(0.15, math.pi - 0.15)),
        psi=float(rng.uniform(-math.pi / 2 + 0.15, math.pi / 2 - 0.15)),
        P=float(rng.normal(0, 0.5)),
        Phi=float(rng.normal(0, 0.5)),
        Theta=float(rng.normal(0, 0.5)),
        Psi=float(rng.normal(0, 0.5)),
    )


def random_andoyer(rng) -> charts.AndoyerPoint:
    while True:
        U2 = float(rng.uniform(0.5, 2.0))
        ap = charts.AndoyerPoint(
            rho=float(rng.uniform(0.5, 3.0)),
            u1=float(rng.uniform(_PAD, 2 * math.pi - _PAD)),
            u2=float(rng.uniform(_PAD, 2 * math.pi - _PAD)),
            u3=float(rng.uniform(_PAD, 2 * math.pi - _PAD)),
            P=float(rng.normal(0, 0.4)),
            U1=float(rng.uniform(-0.8, 0.8)) * U2,
            U2=U2,
            U3=float(rng.uniform(-0.8, 0.8)) * U2,
        )
        try:
            ep = charts.andoyer_to_euler(ap)
        except charts.ChartDomainError:
            continue
        # keep the image clear of the theta singular set, where the chart
        # steepens
        if math.sin(ep.theta) < 0.15:
            continue
        if abs(ep.psi) > math.pi / 2 - 0.1:
            continue
        if min(ep.phi, 2 * math.pi - ep.phi) < 5e-2:
            continue
        return ap


def random_delaunay(rng) -> charts.DelaunayPoint:
    L = float(rng.uniform(0.6, 2.0))
    eta = float(rng.uniform(0.35, 0.95))
    G = eta * L
    return charts.DelaunayPoint(
        ell=float(rng.uniform(_PAD, 2 * math.pi - _PAD)),
        g=float(rng.uniform(_PAD, 2 * math.pi - _PAD)),
        u1=float(rng.uniform(_PAD, 2 * math.pi - _PAD)),
        u3=float(rng.uniform(_PAD, 2 * math.pi - _PAD)),
        L=L,
        G=G,
        U1=float(rng.uniform(-0.75, 0.75)) * G,
        U3=float(rng.uniform(-0.75, 0.75)) * G,
    )


def random_momenta(rng) -> tuple[float, float, float, float]:
    L = float(rng.uniform(0.7, 1.8))
    eta = float(rng.uniform(0.4, 0.92))
    G = eta * L
    return L, G, float(rng.uniform(-0.75, 0.75)) * G, float(rng.uniform(-0.75, 0.75)) * G


# -- suites ---------------------------------------------------------------------

def suite_bracket_table(rng, fault: str | None = None) -> SuiteResult:
    """Canonical brackets of (M, N, Z, S, K, L1) against the tabulated form."""
    n = 1000
    worst = 0.0
    for _ in range(n):
        s = _random_state(rng)
        pt = invariants.thrice_map(invariants.klj_map(invariants.pi_map(s)))
        expected = invariants.bracket_expected(pt.M, pt.N, pt.Z, pt.S, pt.K, pt.integrals.l)
        if fault == "bracket_table_sign":
            expected = expected.copy()
            expected[4, 1] = -expected[4, 1]  # flip the tabulated {K, N}
            expected[1, 4] = -expected[1, 4]
        computed = invariants.bracket_computed(s)
        worst = max(worst, float(np.max(np.abs(computed - expected))))
    return SuiteResult("bracket_table", worst < 1e-10, worst, 1e-10, {"states": n})


def suite_reduced_relations(rng) -> SuiteResult:
    """Both second-space relations and the three final-space relations."""
    n = 1000
    worst = 0.0
    for _ in range(n):
        s = _random_state(rng, scale=0.6)
        kv = invariants.klj_map(invariants.pi_map(s))
        r1, r2 = invariants.second_space_residuals(kv)
        pt = invariants.thrice_map(kv)
        rr = invariants.eo3_residuals(pt)
        worst = max(worst, abs(r1), abs(r2), *map(abs, rr))
    return SuiteResult("reduced_relations", worst < 1e-12, worst, 1e-12, {"states": n})


def _gap(a, b, angles) -> float:
    """Largest |a_i - b_i| of two chart points, the ``angles`` components modulo 2 pi."""
    d = np.abs(np.array(a) - np.array(b))
    d[angles] = np.minimum(d[angles], 2 * math.pi - d[angles])
    return float(np.max(d))


def suite_chart_roundtrips(rng) -> SuiteResult:
    """Roundtrip closure of the three chart pairs away from guard bands."""
    n = 1000
    worst = 0.0
    for _ in range(n):
        ep = random_euler(rng)
        ep2 = charts.cartesian_to_euler(charts.euler_to_cartesian(ep))
        worst = max(worst, _gap(ep, ep2, [1]))

        ap = random_andoyer(rng)
        ap2 = charts.euler_to_andoyer(charts.andoyer_to_euler(ap))
        worst = max(worst, _gap(ap, ap2, [1, 2, 3]))

        dp = random_delaunay(rng)
        gamma = float(rng.uniform(0.5, 1.5))
        dp2 = charts.andoyer_to_delaunay(charts.delaunay_to_andoyer(dp, gamma), gamma)
        worst = max(worst, _gap(dp, dp2, [0, 1, 2, 3]))
    return SuiteResult("chart_roundtrips", worst < 1e-9, worst, 1e-9, {"points": n})


def suite_chart_symplectic(rng) -> SuiteResult:
    """J^T Omega J = Omega for the three forward maps, with J by complex step."""
    n = 100

    def euler_fn(*x):
        state = charts.euler_to_cartesian(charts.EulerPoint(*x))
        return state.q + state.Q

    def andoyer_fn(*x):
        return charts.andoyer_to_euler(charts.AndoyerPoint(*x))

    def delaunay_fn(gamma):
        return lambda *x: charts.delaunay_to_andoyer(charts.DelaunayPoint(*x), gamma)

    worst = 0.0
    count = 0
    while count < n:
        ep = random_euler(rng)
        J = model._complex_step_jacobian(euler_fn, ep)
        worst = max(worst, float(np.max(np.abs(J.T @ OMEGA_MATRIX @ J - OMEGA_MATRIX))))

        ap = random_andoyer(rng)
        try:
            J = model._complex_step_jacobian(andoyer_fn, ap)
        except charts.ChartDomainError:
            continue
        worst = max(worst, float(np.max(np.abs(J.T @ OMEGA_MATRIX @ J - OMEGA_MATRIX))))

        dp = random_delaunay(rng)
        gamma = float(rng.uniform(0.5, 1.5))
        try:
            J = model._complex_step_jacobian(delaunay_fn(gamma), dp)
        except charts.ChartDomainError:
            continue
        worst = max(worst, float(np.max(np.abs(J.T @ OMEGA_MATRIX @ J - OMEGA_MATRIX))))
        count += 1
    return SuiteResult("chart_symplectic", worst < 1e-8, worst, 1e-8, {"points": n})


def suite_composed_h0(rng) -> SuiteResult:
    """Chart-chain energy equals -gamma^2/(2 L^2), independent of all angles."""
    n = 100
    worst = 0.0
    for _ in range(n):
        dp = random_delaunay(rng)
        gamma = float(rng.uniform(0.5, 1.5))
        h0 = charts.composed_h0(dp, gamma)
        worst = max(worst, abs(h0 + gamma ** 2 / (2.0 * dp.L ** 2)))
    # angle independence at fixed momenta
    dp = random_delaunay(rng)
    gamma = 1.0
    vals = []
    for _ in range(100):
        dp2 = charts.DelaunayPoint(
            ell=float(rng.uniform(0, 2 * math.pi)), g=float(rng.uniform(0, 2 * math.pi)),
            u1=float(rng.uniform(0, 2 * math.pi)), u3=float(rng.uniform(0, 2 * math.pi)),
            L=dp.L, G=dp.G, U1=dp.U1, U3=dp.U3)
        vals.append(charts.composed_h0(dp2, gamma))
    spread = float(np.max(vals) - np.min(vals))
    worst = max(worst, spread)
    return SuiteResult("composed_h0", worst < 1e-10, worst, 1e-10,
                       {"points": n, "angle_spread": spread})


def suite_averaging_oracle(rng) -> SuiteResult:
    """Closed-form first-order coefficients against the 512-node quadrature average."""
    worst = 0.0
    exact_zero_ok = True
    for beta_sq in (0.0, 0.25, 1.0, 2.0, 4.0):
        beta = math.sqrt(beta_sq)
        for _ in range(100):
            L, G, U1, U3 = random_momenta(rng)
            gamma = float(rng.uniform(0.5, 1.5))
            p = model.ModelParams(omega=1.0, epsilon=0.0, beta=beta, gamma=gamma)
            c = normalform.order1_coeffs(L, G, U1, U3, beta, gamma)
            if beta_sq == 1.0 and (c.C11 != 0.0 or c.C21 != 0.0):
                exact_zero_ok = False
            n_g = 8
            gs = np.arange(n_g) * 2 * math.pi / n_g
            avgs = np.empty(n_g)
            for i, g in enumerate(gs):
                dp_args = dict(g=float(g), u1=0.0, u3=0.0, L=L, G=G, U1=U1, U3=U3)
                avgs[i] = normalform.average_over_ell(
                    lambda ell: normalform.perturbation_delaunay(
                        charts.DelaunayPoint(ell=ell, **dp_args), p),
                    512)
            spec = np.fft.rfft(avgs) / n_g
            worst = max(worst,
                        abs(float(spec[0].real) - c.C01),
                        abs(2.0 * float(spec[1].real) - c.C11),
                        abs(2.0 * float(spec[2].real) - c.C21),
                        2.0 * abs(float(spec[3].real)),
                        abs(float(spec[1].imag)), abs(float(spec[2].imag)))
    passed = worst < 1e-8 and exact_zero_ok
    return SuiteResult("averaging_oracle", passed, worst, 1e-8,
                       {"central_case_exact": exact_zero_ok})


def suite_homological(rng) -> SuiteResult:
    """W1 solves the first-order averaging identity and has zero mean."""
    worst = 0.0
    for _ in range(100):
        L, G, U1, U3 = random_momenta(rng)
        beta = math.sqrt(float(rng.uniform(0.0, 4.0)))
        gamma = float(rng.uniform(0.5, 1.5))
        p = model.ModelParams(omega=1.0, epsilon=0.0, beta=beta, gamma=gamma)
        dp = charts.DelaunayPoint(
            ell=float(rng.uniform(0, 2 * math.pi)), g=float(rng.uniform(0, 2 * math.pi)),
            u1=0.0, u3=0.0, L=L, G=G, U1=U1, U3=U3)
        worst = max(worst, abs(normalform.homological_residual(dp, p)))
    L, G, U1, U3 = random_momenta(rng)
    p = model.ModelParams(omega=1.0, epsilon=0.0, beta=1.3, gamma=1.0)
    mean = normalform.average_over_ell(
        lambda ell: normalform.w1(charts.DelaunayPoint(
            ell=ell, g=0.7, u1=0.0, u3=0.0, L=L, G=G, U1=U1, U3=U3), p), 512)
    passed = worst < 1e-6 and abs(mean) < 1e-10
    return SuiteResult("homological", passed, worst, 1e-6, {"w1_mean": abs(mean)})


def suite_order2_audit(rng) -> SuiteResult:
    """Closed-form second-order coefficients against the bracket oracle."""
    n = 3
    worst = 0.0
    for k in range(n):
        L, G, U1, U3 = random_momenta(rng)
        beta = math.sqrt((0.25, 2.0, 3.5)[k % 3])
        gamma = float(rng.uniform(0.7, 1.3))
        res = normalform.second_order_oracle(L, G, U1, U3, beta, gamma)
        # inside the tables' domain: the oracle has checked it
        mine = np.array(normalform._kernel_terms(L, G, U1, U3, beta, gamma, order=2)[3:])
        orac = np.array(res.cos_coeffs)
        rel = np.abs(mine - orac) / np.maximum(1e-10, np.abs(orac))
        worst = max(worst, float(np.max(rel)), res.sin_max)
    return SuiteResult("order2_audit", worst < 1e-4, worst, 1e-4, {"points": n})


def suite_equilibria(rng) -> SuiteResult:
    """Soundness of the torus search and the periodic branch formulas."""
    worst = 0.0
    details: dict = {}
    # residuals of accepted records at random cells
    for _ in range(12):
        w = float(rng.uniform(-0.4, 0.4))
        z = float(rng.uniform(-0.4, 0.4))
        alpha = float(rng.uniform(-0.9, 3.0))
        res = equilibria.solve_tori3(w, z, alpha)
        for rec in res.records:
            worst = max(worst, rec.residual)
    # the circular family at w = z = 0
    res = equilibria.solve_tori3(0.0, 0.0, 1.0)
    circ_ok = (len(res.records) == 1 and res.records[0].eta == 1.0
               and "circular" in res.records[0].flags)
    details["circular_family"] = circ_ok
    # degenerate continuum at alpha = -3/4
    cont = equilibria.solve_tori3(0.0, 0.0, -0.75).continuum
    details["continuum_flag"] = cont
    # case (i) limit alpha -> 0+
    branch = [b for b in equilibria.periodic_branches(1e-4) if b.case == "i"]
    lim_ok = bool(branch and branch[0].e < 5e-4 and abs(branch[0].c2sq - 1.0 / 3.0) < 1e-3)
    details["case_i_limit"] = lim_ok
    passed = worst < 1e-8 and circ_ok and cont and lim_ok
    return SuiteResult("equilibria_soundness", passed, worst, 1e-8, details)


def suite_cross_formalism(rng) -> SuiteResult:
    """Mapped symplectic equilibria annihilate the reduced Lie-Poisson field."""
    n_cells = 20
    worst = 0.0
    worst_s = 0.0
    n_records = 0
    for _ in range(n_cells):
        w = float(rng.uniform(-0.4, 0.4))
        z = float(rng.uniform(-0.4, 0.4))
        alpha = float(rng.uniform(-0.9, 3.0))
        beta = math.sqrt(alpha + 1.0)
        res = equilibria.solve_tori3(w, z, alpha)
        for rec in res.records:
            cv = equilibria.cross_validate(rec, beta)
            n_records += 1
            worst = max(worst, cv.reduced_rhs_max)
            if cv.s_expected_zero:
                worst_s = max(worst_s, abs(cv.S))
    passed = worst < 1e-6 and worst_s < 1e-6 and n_records >= n_cells
    return SuiteResult("cross_formalism", passed, max(worst, worst_s), 1e-6,
                       {"records": n_records, "worst_S": worst_s})


def suite_dynamics(rng) -> SuiteResult:
    """Full and reduced conservation runs, and the beta^2 = 4 reduced run, whose K stays frozen."""
    x = rng.normal(size=8)
    x /= np.linalg.norm(x)
    s0 = model.CartesianState.from_array(x)
    p = model.ModelParams(omega=1.0, epsilon=1e-3, beta=math.sqrt(2.0))
    traj = model.integrate(s0, p, t_end=1000.0, tol=1e-12, n_out=512)
    rel_h = traj.energy_drift / abs(traj.energy[0])
    worst = max(rel_h, traj.xi_drift, traj.l1_drift)

    iv = model.IntegralValues(n=1.0, xi=0.3, l=0.1)
    lo, hi = invariants.feasible_interval(iv)
    pt0 = invariants.reduced_point_on_surface(0.5 * (lo + hi) + 0.1 * (hi - lo), iv, angle=0.7)
    rtraj = invariants.reduced_flow(pt0, beta=1.0, t_end=1000.0, tol=1e-12)
    worst = max(worst, rtraj.casimir_drift, rtraj.h3_drift)

    pt1 = invariants.reduced_point_on_surface(0.5 * (lo + hi), iv, angle=0.9)
    ktraj = invariants.reduced_flow(pt1, beta=2.0, t_end=100.0, tol=1e-12)
    k_drift = float(np.max(np.abs(ktraj.K - ktraj.K[0])))
    passed = worst < 1e-8 and k_drift < 1e-10
    return SuiteResult("dynamics_conservation", passed, worst, 1e-8,
                       {"K_drift_beta2_4": k_drift, "rel_H_drift": rel_h})


def _predictivity_error(eps: float) -> tuple[float, float]:
    gamma0 = 0.25
    L0 = 2.0 * gamma0
    G0 = 0.72 * L0
    dp_prov = charts.DelaunayPoint(ell=0.4, g=1.2, u1=0.8, u3=2.1,
                                   L=L0, G=G0, U1=0.3 * G0, U3=-0.25 * G0)
    s0 = charts.delaunay_to_cartesian(dp_prov, gamma0)
    p = model.ModelParams(omega=1.0, epsilon=eps, beta=math.sqrt(2.0))
    gamma = model.hamiltonian(s0, p) / 4.0
    p = model.ModelParams(omega=1.0, epsilon=eps, beta=math.sqrt(2.0), gamma=gamma)
    dp0 = charts.cartesian_to_delaunay(s0, gamma)

    s_end = 1.0 / eps
    n_out = 4001
    traj = model.integrate(s0, p, s_end, tol=1e-11, n_out=n_out,
                           time_scale=lambda xx: 1.0 / (4.0 * (xx[0]**2 + xx[1]**2 + xx[2]**2 + xx[3]**2)))
    gs = np.empty(n_out)
    Gs = np.empty(n_out)
    for k in range(n_out):
        dpk = charts.cartesian_to_delaunay(model.CartesianState.from_array(traj.states[k]), gamma)
        gs[k] = dpk.g
        Gs[k] = dpk.G
    gs = np.unwrap(gs)

    mean_motion = gamma ** 2 / dp0.L ** 3
    period = 2.0 * math.pi / mean_motion
    ds = s_end / (n_out - 1)
    win = max(3, int(round(period / ds)) | 1)
    kern = np.ones(win) / win
    g_avg = np.convolve(gs, kern, mode="valid")
    G_avg = np.convolve(Gs, kern, mode="valid")
    s_avg = traj.t[(win // 2):-(win // 2)]

    def nfun(t, y):
        dp = charts.DelaunayPoint(ell=0.0, g=float(y[0]), u1=0.0, u3=0.0,
                                  L=dp0.L, G=float(y[1]), U1=dp0.U1, U3=dp0.U3)
        tan = normalform.normalized_rhs(dp, p, order=1)
        return [tan.g, tan.G]

    soln = model._solve_ivp(nfun, s_end, [dp0.g, dp0.G], s_avg, 1e-11, 1e-12)
    g_err = float(np.max(np.abs(np.unwrap(soln.y[0]) - g_avg)))
    G_err = float(np.max(np.abs(soln.y[1] - G_avg)))
    return g_err, G_err


def suite_predictivity(rng) -> SuiteResult:
    """Halving epsilon halves the averaged-flow tracking error.

    Both runs start from one fixed point, so every seed gives the same result.
    """
    g1, G1 = _predictivity_error(1e-3)
    g2, G2 = _predictivity_error(5e-4)
    ratio_g = g1 / g2
    ratio_G = G1 / G2
    passed = abs(ratio_g - 2.0) <= 0.3 and abs(ratio_G - 2.0) <= 0.3
    worst = max(abs(ratio_g - 2.0), abs(ratio_G - 2.0))
    return SuiteResult("nf_predictivity", passed, worst, 0.3,
                       {"ratio_g": ratio_g, "ratio_G": ratio_G,
                        "g_err_1e-3": g1, "G_err_1e-3": G1})


SUITES = {
    "bracket_table": suite_bracket_table,
    "reduced_relations": suite_reduced_relations,
    "chart_roundtrips": suite_chart_roundtrips,
    "chart_symplectic": suite_chart_symplectic,
    "composed_h0": suite_composed_h0,
    "averaging_oracle": suite_averaging_oracle,
    "homological": suite_homological,
    "order2_audit": suite_order2_audit,
    "equilibria_soundness": suite_equilibria,
    "cross_formalism": suite_cross_formalism,
    "dynamics_conservation": suite_dynamics,
    "nf_predictivity": suite_predictivity,
}
FAULTS = ("bracket_table_sign",)


def run_suites(seed: int = 0, fault: str | None = None, names=None) -> dict:
    """Run the selected suites (all by default); returns a JSON-ready report."""
    results = []
    all_passed = True
    for name, fn in SUITES.items():
        if names is not None and name not in names:
            continue
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        t0 = time.perf_counter()
        if name == "bracket_table":
            res = fn(rng, fault=fault)
        else:
            res = fn(rng)
        res.seconds = time.perf_counter() - t0
        results.append(res)
        all_passed = all_passed and res.passed
    return {
        "seed": seed,
        "fault": fault,
        "passed": bool(all_passed),
        "failed_suites": [r.name for r in results if not r.passed],
        "suites": [r.to_dict() for r in results],
        "timings": {r.name: round(r.seconds, 3) for r in results},
    }
