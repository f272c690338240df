"""The four benchmark workloads: seeded inputs, one item each, and its checks.

Item ``i`` of a workload depends on the seed and ``i`` only, never on how
fast the library runs.  Where the cost of an item depends strongly on its
input, the inputs follow a low-discrepancy sequence over the documented
ranges, so that every run sees nearly the same mix of cheap and costly
items: rotated by the seed in sweep, and in trajectory shared by all seeds
for the variables that set the cost, with the seed drawing the rest.

``run`` does the library work of one item (the timed part); ``check``
compares its result with the battery's own reference and returns a list of
failure reasons, empty when the item is correct.  The library is reached
through module attributes only (``normalform.w1``, not a name imported into
this file), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import zlib
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from resonance_lab import charts, cli, equilibria, invariants, model, normalform, verify

TWO_PI = 2.0 * math.pi


def _tag(name: str) -> int:
    return zlib.crc32(name.encode())


class _Rd:
    """Roberts' R_d sequence with a seeded Cranley-Patterson rotation."""

    def __init__(self, seed: int, name: str, dim: int):
        phi = 2.0
        for _ in range(64):  # the positive root of x^(dim+1) = x + 1
            phi = (1.0 + phi) ** (1.0 / (dim + 1))
        self.step = phi ** -np.arange(1.0, dim + 1.0)
        self.shift = np.random.default_rng([seed, _tag(name)]).random(dim)

    def __call__(self, i: int) -> np.ndarray:
        return (self.shift + (i + 1) * self.step) % 1.0


class Averaging:
    """The c04/c05 pattern: 512-node averages of R1 and W1 at seeded momenta."""

    name = "averaging"
    BETA_SQ = (0.0, 0.25, 1.0, 2.0, 4.0)
    NODES = 512
    KERNEL_TOL = 1e-8      # battery tolerance of the averaging oracle
    W1_MEAN_TOL = 1e-10    # battery tolerance of <W1> = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make(self, i: int):
        rng = np.random.default_rng([self.seed, _tag(self.name), i])
        L, G, U1, U3 = verify.random_momenta(rng)
        beta = math.sqrt(self.BETA_SQ[i % len(self.BETA_SQ)])
        gamma = float(rng.uniform(0.5, 1.5))
        g = float(rng.uniform(0.0, TWO_PI))
        return L, G, U1, U3, beta, gamma, g

    def run(self, inp):
        L, G, U1, U3, beta, gamma, g = inp
        p = model.ModelParams(omega=1.0, epsilon=0.0, beta=beta, gamma=gamma)

        def point(ell):
            return charts.DelaunayPoint(ell=ell, g=g, u1=0.0, u3=0.0, L=L, G=G, U1=U1, U3=U3)

        r1 = normalform.average_over_ell(
            lambda ell: normalform.perturbation_delaunay(point(ell), p), self.NODES)
        w1 = normalform.average_over_ell(lambda ell: normalform.w1(point(ell), p), self.NODES)
        return r1, w1

    def check(self, inp, out):
        L, G, U1, U3, beta, gamma, g = inp
        r1, w1 = out
        ref = normalform.kernel(g, L, G, U1, U3, beta, gamma, order=1)
        bad = []
        if not abs(r1 - ref) <= self.KERNEL_TOL:
            bad.append(f"<R1> - K1 = {r1 - ref:.3e}")
        if not abs(w1) <= self.W1_MEAN_TOL:
            bad.append(f"<W1> = {w1:.3e}")
        return bad


class Sweep:
    """One (alpha, w, z) cell: solve_tori3, then cross_validate on every record."""

    name = "sweep"
    # Which of w and z a cell sets to 0, cycling with the cell index.  This is
    # the mix of (w, z) pairs of the README's equilibria example, w_grid
    # [0, 0.2] by z_grid [0, 0.1]: one pair at w = z = 0, one on each axis and
    # one interior, so three cells in four lie on w z = 0.
    ZERO_PATTERN = ((True, True), (True, False), (False, True), (False, False))
    RESIDUAL_TOL = 1e-8    # equilibria soundness
    RHS_TOL = 1e-6         # cross-formalism
    S_TOL = 1e-6

    def __init__(self, seed: int, workdir: Path):
        self.points = _Rd(seed, self.name, 3)

    def make(self, i: int):
        u = self.points(i)
        alpha = -0.9 + 3.9 * float(u[0])
        w = -0.4 + 0.8 * float(u[1])
        z = -0.4 + 0.8 * float(u[2])
        w_zero, z_zero = self.ZERO_PATTERN[i % len(self.ZERO_PATTERN)]
        return (0.0 if w_zero else w), (0.0 if z_zero else z), alpha

    def run(self, inp):
        w, z, alpha = inp
        res = equilibria.solve_tori3(w, z, alpha)
        beta = math.sqrt(alpha + 1.0)
        return res, [equilibria.cross_validate(rec, beta) for rec in res.records]

    def check(self, inp, out):
        res, cvs = out
        bad = []
        for rec, cv in zip(res.records, cvs):
            if not rec.residual <= self.RESIDUAL_TOL:
                bad.append(f"record residual {rec.residual:.3e} at eta={rec.eta}")
            if not cv.reduced_rhs_max <= self.RHS_TOL:
                bad.append(f"reduced rhs {cv.reduced_rhs_max:.3e} at eta={rec.eta}")
            if cv.s_expected_zero and not abs(cv.S) <= self.S_TOL:
                bad.append(f"|S| = {abs(cv.S):.3e} at eta={rec.eta}")
        return bad


class Trajectory:
    """The c10 job at one seeded Delaunay point, plus the reduced-space images.

    Steps as in ``verify._predictivity_error``: a regularized-time Cartesian
    run, every sample mapped back to Delaunay (for the windowed average) and
    through pi_map -> klj_map -> thrice_map, then the order-1 and order-2
    normalized flows integrated and compared with the windowed average.

    The tracking check holds the action G of the order-k flow to
    TRACK_C[k] * epsilon.  The angle g is not checked: both flows start from
    the osculating point, and that O(epsilon) offset in G makes the g error
    grow secularly over the run (up to about 100 epsilon on the baseline).
    """

    name = "trajectory"
    EPSILON = 2e-2
    GAMMA0 = 0.25
    N_OUT = 4001
    BETA = math.sqrt(2.0)
    DRIFT_TOL = 1e-8       # relative H, Xi, L1 drift (dynamics conservation)
    RELATION_TOL = 1e-12   # reduced-space relations (battery tolerance)
    # G tracking error of the order-k normalized flow is at most TRACK_C[k] *
    # epsilon; fixed from the baseline, where the largest ratios over 300
    # points were 4.9 at order 1 and 2.2 at order 2 (BENCH_0.json)
    TRACK_C = {1: 6.0, 2: 3.0}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.slow = _Rd(0, self.name, 4)

    def make(self, i: int):
        # The cost of an item is set by its slow dynamics in (g, G), and varies
        # tenfold between points.  The slow variables (g, eta, U1/G, U3/G)
        # therefore follow one low-discrepancy sequence over their documented
        # ranges, the same for every seed, while the seed draws the fast and
        # cyclic angles (ell, u1, u3) of every point.
        g, eta, c1, c2 = (float(x) for x in self.slow(i))
        ell, u1, u3 = np.random.default_rng([self.seed, _tag(self.name), i]).uniform(0.0, TWO_PI, 3)
        L0 = 2.0 * self.GAMMA0
        G0 = (0.4 + 0.52 * eta) * L0   # the verify.random_momenta ranges
        return charts.DelaunayPoint(
            ell=float(ell), g=TWO_PI * g, u1=float(u1), u3=float(u3), L=L0, G=G0,
            U1=(-0.75 + 1.5 * c1) * G0, U3=(-0.75 + 1.5 * c2) * G0)

    def run(self, dp_prov):
        eps = self.EPSILON
        s0 = charts.delaunay_to_cartesian(dp_prov, self.GAMMA0)
        p = model.ModelParams(omega=1.0, epsilon=eps, beta=self.BETA)
        gamma = model.hamiltonian(s0, p) / 4.0
        p = model.ModelParams(omega=1.0, epsilon=eps, beta=self.BETA, gamma=gamma)
        dp0 = charts.cartesian_to_delaunay(s0, gamma)

        s_end = 1.0 / eps
        n_out = self.N_OUT
        traj = model.integrate(s0, p, s_end, tol=1e-11, n_out=n_out,
                               time_scale=lambda x: 1.0 / (4.0 * (x[0]**2 + x[1]**2 + x[2]**2 + x[3]**2)))
        Gs = np.empty(n_out)
        relation = 0.0
        for k in range(n_out):
            state = model.CartesianState.from_array(traj.states[k])
            Gs[k] = charts.cartesian_to_delaunay(state, gamma).G
            kv = invariants.klj_map(invariants.pi_map(state))
            pt = invariants.thrice_map(kv)
            relation = max(relation, *map(abs, invariants.second_space_residuals(kv)),
                           *map(abs, invariants.eo3_residuals(pt)))

        period = 2.0 * math.pi / (gamma ** 2 / dp0.L ** 3)
        win = max(3, int(round(period / (s_end / (n_out - 1)))) | 1)
        G_avg = np.convolve(Gs, np.ones(win) / win, mode="valid")
        s_avg = traj.t[(win // 2):-(win // 2)]

        errors = []
        for order in (1, 2):
            def nfun(t, y, order=order):
                dp = charts.DelaunayPoint(ell=0.0, g=float(y[0]), u1=0.0, u3=0.0,
                                          L=dp0.L, G=float(y[1]), U1=dp0.U1, U3=dp0.U3)
                tan = normalform.normalized_rhs(dp, p, order=order)
                return [tan.g, tan.G]

            soln = solve_ivp(nfun, (0.0, s_end), [dp0.g, dp0.G], method="DOP853",
                             rtol=1e-11, atol=1e-12, t_eval=s_avg)
            if not soln.success:
                raise RuntimeError(f"order-{order} normalized flow failed: {soln.message}")
            errors.append(float(np.max(np.abs(soln.y[1] - G_avg))))
        scale = abs(traj.energy[0])
        drift = max(traj.energy_drift, traj.xi_drift, traj.l1_drift) / scale
        return drift, relation, errors

    def check(self, inp, out):
        drift, relation, errors = out
        bad = []
        if not drift <= self.DRIFT_TOL:
            bad.append(f"relative drift {drift:.3e}")
        if not relation <= self.RELATION_TOL:
            bad.append(f"reduced-space relation residual {relation:.3e}")
        for order, err in zip((1, 2), errors):
            if not err <= self.TRACK_C[order] * self.EPSILON:
                bad.append(f"order-{order} tracking error {err:.3e}")
        return bad


class Cli:
    """One in-process ``cli.main`` call; the calls cycle through fixed configs.

    The configs are the README's examples, with a smaller equilibria grid and
    shorter Cartesian run so that one round takes about a second, plus the
    normalized example at order 2.  Seven configs, an odd count, keep the
    median item inside one config's group rather than between two.  The first
    call of a config fixes its reference output bytes; every later call of
    the same config must reproduce them exactly.
    """

    name = "cli"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, _tag(self.name)])

        def jitter(cfg):
            # the README's example values, each moved by a seeded relative 1e-6,
            # so that every seed writes other bytes for the same amount of work
            if isinstance(cfg, dict):
                return {k: v if k in ("num", "order", "n_out") else jitter(v) for k, v in cfg.items()}
            if isinstance(cfg, list):
                return [jitter(v) for v in cfg]
            if isinstance(cfg, float):
                return cfg * (1.0 + 1e-6 * float(rng.uniform(-1.0, 1.0)))
            return cfg

        configs = [
            ("nf-table", {
                "h": 4.0, "beta_grid": [0.0, 1.0, math.sqrt(2.0)], "L_grid": [1.0],
                "eta_grid": [0.6, 0.8], "c1_grid": [0.0, 0.4], "c2_grid": [0.0, 0.4],
                "out": "nf_table.csv"}),
            ("equilibria", {
                "alpha_grid": {"start": -0.9, "stop": 3.0, "num": 6},
                "w_grid": [0.0, 0.2], "z_grid": [0.0, 0.1],
                "out": "sweep.csv", "json_out": "sweep.json", "cross_validate": True}),
            ("integrate", {
                "kind": "cartesian", "state": {"q": [1.0, 0.0, 0.0, 0.0], "Q": [0.0, 1.0, 0.0, 0.0]},
                "params": {"omega": 1.0, "epsilon": 1e-3, "beta": math.sqrt(2.0)},
                "t_end": 200.0, "tol": 1e-12, "n_out": 500, "out": "traj.csv"}),
            ("integrate", {
                "kind": "reduced", "integrals": {"n": 1.0, "xi": 0.3, "l": 0.1},
                "params": {"beta": 2.0}, "t_end": 100.0, "tol": 1e-12, "n_out": 500,
                "out": "reduced.csv"}),
            ("integrate", {
                "kind": "normalized", "order": 1,
                "delaunay": {"ell": 0.1, "g": 1.0, "u1": 0.0, "u3": 0.0,
                             "L": 1.0, "G": 0.7, "U1": 0.2, "U3": -0.1},
                "params": {"epsilon": 1e-3, "beta": math.sqrt(2.0), "h": 4.0},
                "t_end": 1000.0, "n_out": 500, "out": "normalized.csv"}),
            ("integrate", {
                "kind": "normalized", "order": 2,
                "delaunay": {"ell": 0.1, "g": 1.0, "u1": 0.0, "u3": 0.0,
                             "L": 1.0, "G": 0.7, "U1": 0.2, "U3": -0.1},
                "params": {"epsilon": 1e-3, "beta": math.sqrt(2.0), "h": 4.0},
                "t_end": 1000.0, "n_out": 500, "out": "normalized2.csv"}),
            ("reduce", {
                "state": {"q": [0.7, 0.1, -0.3, 0.5], "Q": [0.2, -0.4, 0.1, 0.6]},
                "integrals": {"n": 1.0, "xi": 0.2, "l": -0.1},
                "out": "invariants.json", "surface_out": "surface.csv"}),
        ]
        self.items = []
        for k, (command, cfg) in enumerate(configs):
            path = workdir / f"cli{k}.json"
            path.write_text(json.dumps(jitter(cfg), indent=1))
            out = workdir / f"cli{k}"
            out.mkdir()
            self.items.append((k, out, ["--config", str(path), "--out", str(out)], command))
        self.reference: dict[int, dict] = {}

    @property
    def round_size(self) -> int:
        return len(self.items)

    def make(self, i: int):
        return self.items[i % len(self.items)]

    def run(self, inp):
        k, out, args, command = inp
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, *args])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        files["<stdout>"] = buf.getvalue().encode()
        return code, files

    @staticmethod
    def bytes_written(out) -> int:
        _, files = out
        return sum(len(v) for k, v in files.items() if k != "<stdout>")

    def check(self, inp, out):
        k = inp[0]
        code, files = out
        bad = []
        if code != 0:
            bad.append(f"exit code {code}")
        ref = self.reference.setdefault(k, files)
        if files != ref:
            bad.append("output bytes differ from this config's first call")
        for name, data in files.items():
            if not name.endswith(".csv"):
                continue
            rows = list(csv.reader(io.StringIO(data.decode())))
            if not rows or any(len(r) != len(rows[0]) for r in rows[1:]):
                bad.append(f"{name}: a row's column count differs from the header's")
        return bad


WORKLOADS = {w.name: w for w in (Averaging, Sweep, Trajectory, Cli)}
