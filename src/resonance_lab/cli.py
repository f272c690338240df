"""Command-line front end: verification battery, integrations, reductions,
coefficient tables and equilibria sweeps.

Every command reads a declarative JSON config (flag overrides for seed,
workers and output directory), writes delimited text with 17 significant
digits so reruns diff byte-identically, and uses exit codes

    0  success,
    1  a verification suite failed, an integration stopped early, or every
       cell of a sweep failed,
    2  configuration or domain error.

This module is the only one that writes output files: tables go through
``_write_csv``, JSON payloads through ``_write_json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import charts, equilibria, invariants, model, normalform, verify

__all__ = ["main", "format_float"]

ENV_OUT_DIR = "RESONANCE_LAB_OUT"
# work bounds, each at least 100 times the largest run of the README, tests and benchmark
MAX_SAMPLES = 1_000_000   # an integrate run's n_out, a reduce run's count
MAX_CELLS = 100_000       # a grid's num, and the cells of an equilibria or nf-table grid product


def format_float(x: float) -> str:
    """17-significant-digit fixed formatting: bit-faithful round trips."""
    return format(float(x), ".17g")


def _quote(text: str) -> str:
    """A text cell as csv.writer's default (QUOTE_MINIMAL) dialect writes it."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path, header: str, rows) -> None:
    """Table: the header line, then one line per row of comma-joined cells.

    A ``str`` cell is written as is, quoted only where it holds a comma, a
    quote or a line break; every other cell goes through format_float and
    is never quoted, so a numeric cell parses back to ``float(cell)`` exactly.
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_quote(v) if type(v) is str else format_float(v) for v in row) + "\n")


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class ConfigError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(ENV_OUT_DIR) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _grid(spec, name: str) -> np.ndarray:
    """A grid is either an explicit list or {start, stop, num} of at least one finite value.

    ``num`` follows the integer rule of ``_scalar`` (a boolean or a fractional
    number is an error, never truncated) and is at most ``MAX_CELLS``.
    """
    try:
        if isinstance(spec, list):
            grid = np.asarray(spec, dtype=float)
        elif isinstance(spec, dict):
            # reading spec["num"] for the unused default makes a missing num a KeyError
            num = _scalar(spec, "num", spec["num"], int)
            if num > MAX_CELLS:
                raise ConfigError(f"grid {name!r}: 'num' must be at most {MAX_CELLS}, got {num}")
            grid = np.linspace(float(spec["start"]), float(spec["stop"]), num)
        else:
            raise ConfigError(f"grid {name!r} must be a list or start/stop/num object")
    except KeyError as exc:
        raise ConfigError(f"grid {name!r} needs start/stop/num") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid {name!r}: {exc}") from exc
    if not grid.size:
        raise ConfigError(f"grid {name!r} must hold at least one value")
    if not np.isfinite(grid).all():
        raise ConfigError(f"grid {name!r} must hold finite values, got {grid.tolist()}")
    return grid


def _grids(cfg: dict, **defaults) -> list:
    """A command's grids ``cfg[name]``, ``defaults[name]`` if absent; at most ``MAX_CELLS`` cells in all."""
    grids = [_grid(cfg.get(name, default), name) for name, default in defaults.items()]
    cells = math.prod(g.size for g in grids)
    if cells > MAX_CELLS:
        raise ConfigError(f"the grids span {cells} cells, more than {MAX_CELLS}")
    return grids


def _scalar(block: dict, key: str, default, kind=float):
    """``block[key]`` converted by ``kind``, ``default`` when the key is absent.

    A value that does not convert (null, a list, a non-numeric string) is a
    configuration error.  With ``kind=int`` only an integral number converts:
    a boolean, a string or a float with a fractional part is an error, never
    truncated.
    """
    if key not in block:
        return default
    value = block[key]
    if kind is int:
        if not (type(value) is int or type(value) is float and value.is_integer()):
            raise ConfigError(f"{key!r} must be an integer, got {value!r}")
        return int(value)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key!r} value {value!r}: {exc}") from exc


def _out_path(out: Path, cfg: dict, key: str, default: str) -> Path:
    """Output file ``out / cfg[key]``, checked before any work starts.

    Anything but a non-empty string, a name whose directory part does not
    exist and a name of an existing directory are configuration errors.
    """
    name = cfg.get(key, default)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{key!r} must be a non-empty file name, got {name!r}")
    path = out / name
    if not path.parent.is_dir():
        raise ConfigError(f"{key!r}: directory {str(path.parent)!r} does not exist")
    if path.is_dir():
        raise ConfigError(f"{key!r}: {str(path)!r} is a directory")
    return path


def _params_block(cfg: dict) -> dict:
    p = cfg.get("params", {})
    if not isinstance(p, dict):
        raise ConfigError("'params' must be a JSON object")
    return p


def _params_from_config(cfg: dict) -> model.ModelParams:
    p = _params_block(cfg)
    h = _scalar(p, "h", None)
    try:
        return model.ModelParams(
            omega=_scalar(p, "omega", 1.0),
            epsilon=_scalar(p, "epsilon", 0.0),
            beta=_scalar(p, "beta", 0.0),
            gamma=_scalar(p, "gamma", h / 4.0 if h is not None else None),
        )
    except ValueError as exc:
        raise ConfigError(f"bad params block: {exc}") from exc


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    fault = cfg.get("inject_fault")
    if fault is not None and fault not in verify.FAULTS:
        raise ConfigError(f"unknown 'inject_fault' {fault!r}; known: {', '.join(verify.FAULTS)}")
    names = cfg.get("suites")
    if names is not None and not (isinstance(names, list) and names and all(
            isinstance(n, str) and n in verify.SUITES for n in names)):
        raise ConfigError(f"'suites' must be a non-empty list of suite names "
                          f"({', '.join(verify.SUITES)}), got {names!r}")
    out = _out_path(_out_dir(args), cfg, "report", "verify_report.json")
    report = verify.run_suites(seed=args.seed, fault=fault, names=names)
    timings = report.pop("timings")
    _write_json(out, report)
    for suite in report["suites"]:
        status = "pass" if suite["passed"] else "FAIL"
        print(f"[{status}] {suite['name']}: max residual {suite['max_residual']:.3e} "
              f"(tol {suite['tolerance']:.1e}, {timings[suite['name']]:.1f}s)")
    if not report["passed"]:
        print("failed suites: " + ", ".join(report["failed_suites"]))
        return 1
    print(f"all suites passed; report written to {out}")
    return 0


def _four(values) -> tuple:
    out = tuple(map(float, values))
    if len(out) != 4:
        raise ValueError(f"expected 4 components, got {len(out)}")
    return out


_BLOCKS = {
    "state": lambda s: model.CartesianState(q=_four(s["q"]), Q=_four(s["Q"])),
    "integrals": lambda d: model.IntegralValues(n=float(d["n"]), xi=float(d["xi"]),
                                                l=float(d["l"])),
    "delaunay": lambda d: charts.DelaunayPoint(**{k: float(v) for k, v in d.items()}),
    "reduced_state": lambda d: [float(d[k]) for k in "KNS"],
}


def _block(cfg: dict, name: str):
    """The value of config block ``name``; a missing or malformed block is a config error."""
    if not cfg.get(name):
        raise ConfigError(f"config needs a non-empty {name!r} block")
    try:
        return _BLOCKS[name](cfg[name])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} block: {exc}") from exc


def _initial_state(cfg: dict, p: model.ModelParams) -> model.CartesianState:
    if "state" in cfg:
        return _block(cfg, "state")
    if "delaunay" in cfg:
        if p.gamma is None:
            raise ConfigError("a Delaunay initial state needs params.h or params.gamma")
        return charts.delaunay_to_cartesian(_block(cfg, "delaunay"), p.gamma)
    raise ConfigError("config needs a 'state' or 'delaunay' initial condition")


def cmd_integrate(args) -> int:
    cfg = _load_config(args.config)
    kind = cfg.get("kind", "cartesian")
    out = _out_dir(args)
    tol = _scalar(cfg, "tol", 1e-12)
    t_end = _scalar(cfg, "t_end", 100.0)
    n_out = _scalar(cfg, "n_out", 1000, int)
    if not (math.isfinite(t_end) and t_end != 0.0):
        raise ConfigError(f"'t_end' must be finite and nonzero, got {t_end!r}")
    if not 1 <= n_out <= MAX_SAMPLES:
        raise ConfigError(f"'n_out' must be from 1 to {MAX_SAMPLES}, got {n_out!r}")

    if kind == "cartesian":
        path = _out_path(out, cfg, "out", "trajectory.csv")
        p = _params_from_config(cfg)
        s0 = _initial_state(cfg, p)
        traj = model.integrate(s0, p, t_end, tol, n_out=n_out)
        _write_csv(path, "t,q1,q2,q3,q4,Q1,Q2,Q3,Q4,H,Xi,L1",
                   np.column_stack([traj.t, traj.states, traj.energy, traj.xi, traj.l1]))
        print(f"wrote {path} (max drift: H {traj.energy_drift:.3e}, "
              f"Xi {traj.xi_drift:.3e}, L1 {traj.l1_drift:.3e})")
        return 0

    if kind == "reduced":
        path = _out_path(out, cfg, "out", "reduced_trajectory.csv")
        iv = _block(cfg, "integrals")
        beta = _scalar(_params_block(cfg), "beta", 0.0)
        if "reduced_state" in cfg:
            pt0 = invariants.reduced_point(*_block(cfg, "reduced_state"), iv)
        else:
            lo, hi = invariants.feasible_interval(iv)
            pt0 = invariants.reduced_point_on_surface(
                0.5 * (lo + hi), iv, angle=_scalar(cfg, "angle", 0.0))
        traj = invariants.reduced_flow(pt0, beta, t_end, tol, n_out=n_out)
        _write_csv(path, "t,K,N,S,H3,casimir_residual",
                   np.column_stack([traj.t, traj.K, traj.N, traj.S, traj.h3, traj.casimir]))
        print(f"wrote {path} (casimir drift {traj.casimir_drift:.3e}, "
              f"H3 drift {traj.h3_drift:.3e})")
        return 0

    if kind == "normalized":
        path = _out_path(out, cfg, "out", "normalized_trajectory.csv")
        p = _params_from_config(cfg)
        if p.gamma is None:
            raise ConfigError("normalized runs need params.h or params.gamma")
        dp0 = _block(cfg, "delaunay")
        order = _scalar(cfg, "order", 1, int)
        charts.require_angles_defined(dp0, p.gamma)

        def fun(t, y):
            ell, g, u1, u3, G = y.tolist()
            dp = charts.DelaunayPoint(ell=ell, g=g, u1=u1, u3=u3,
                                      L=dp0.L, G=G, U1=dp0.U1, U3=dp0.U3)
            tan = normalform.normalized_rhs(dp, p, order=order)
            return [tan.ell, tan.g, tan.u1, tan.u3, tan.G]

        sol = model._solve_ivp(fun, t_end, [dp0.ell, dp0.g, dp0.u1, dp0.u3, dp0.G],
                               np.linspace(0.0, t_end, n_out), tol, tol)
        _write_csv(path, "t,ell,g,u1,u3,L,G,U1,U3",
                   ([t, *y[:4], dp0.L, y[4], dp0.U1, dp0.U3] for t, y in zip(sol.t, sol.y.T)))
        print(f"wrote {path}")
        return 0

    raise ConfigError(f"unknown integrate kind: {kind!r}")


def cmd_reduce(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(args)
    invariants_path = _out_path(out, cfg, "out", "invariants.json")
    surface_path = _out_path(out, cfg, "surface_out", "surface.csv")
    count = _scalar(cfg, "count", 200, int)
    if not 1 <= count <= MAX_SAMPLES:
        raise ConfigError(f"'count' must be from 1 to {MAX_SAMPLES}, got {count!r}")
    wrote = []
    if "state" in cfg:
        pv = invariants.pi_map(_block(cfg, "state"))
        kv = invariants.klj_map(pv)
        pt = invariants.thrice_map(kv)
        r1, r2 = invariants.second_space_residuals(kv)
        payload = {
            "pi": pv._asdict(), "klj": kv._asdict(),
            "thrice": {"M": pt.M, "N": pt.N, "Z": pt.Z, "S": pt.S, "K": pt.K,
                       "n": pt.integrals.n, "xi": pt.integrals.xi, "l": pt.integrals.l},
            "second_space_residuals": [r1, r2],
            "eo3_residuals": list(invariants.eo3_residuals(pt)),
        }
        _write_json(invariants_path, payload)
        wrote.append(invariants_path)
    if "integrals" in cfg:
        iv = _block(cfg, "integrals")
        samples = invariants.surface_samples(iv, count=count)
        _write_csv(surface_path, "K,sqrt_f_over_2", samples)
        wrote.append(surface_path)
    if not wrote:
        raise ConfigError("reduce needs a 'state' and/or an 'integrals' block")
    for path in wrote:
        print(f"wrote {path}")
    return 0


def cmd_nf_table(args) -> int:
    cfg = _load_config(args.config)
    path = _out_path(_out_dir(args), cfg, "out", "nf_table.csv")
    h = _scalar(cfg, "h", None)
    gamma = _scalar(cfg, "gamma", h / 4.0 if h is not None else 1.0)
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ConfigError(f"nf-table needs a finite gamma > 0, got {gamma!r}")
    betas, Ls, etas, c1s, c2s = _grids(cfg, beta_grid=[0.0, 1.0, math.sqrt(2.0)], L_grid=[1.0],
                                       eta_grid=[0.6, 0.8], c1_grid=[0.0, 0.4], c2_grid=[0.0, 0.4])
    rows = []
    for beta, L, eta, c1, c2 in itertools.product(betas, Ls, etas, c1s, c2s):
        G = eta * L
        U1 = c1 * G
        U3 = c2 * G
        c = normalform.order1_coeffs(L, G, U1, U3, beta, gamma)
        c2v = normalform.order2_coeffs(L, G, U1, U3, beta, gamma)
        rows.append([beta, L, G, U1, U3, c.C01, c.C11, c.C21,
                     c2v.C02, c2v.C12, c2v.C22, c2v.C32, c2v.C42])
    _write_csv(path, "beta,L,G,U1,U3,C01,C11,C21,C02,C12,C22,C32,C42", rows)
    print(f"wrote {path}")
    return 0


def cmd_equilibria(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    cfg = _load_config(args.config)
    out = _out_dir(args)
    alphas, ws, zs = _grids(cfg, alpha_grid=[0.0, 1.0], w_grid=[0.0], z_grid=[0.0])
    path = _out_path(out, cfg, "out", "equilibria_sweep.csv")
    jpath = _out_path(out, cfg, "json_out", "") if cfg.get("json_out") else None
    rows = equilibria.sweep(alphas, ws, zs, workers=args.workers)
    _write_csv(path, "alpha,w,z,kind,eta,g,residual,flags",
               ([row["alpha"], row["w"], row["z"], row["kind"],
                 *("" if row[k] is None else row[k] for k in ("eta", "g", "residual")),
                 ";".join(row["flags"])] for row in rows))
    wrote = [path]
    if jpath is not None:
        _write_json(jpath, rows)
        wrote.append(jpath)
    checked = [row["reduced_rhs_max"] for row in rows if "reduced_rhs_max" in row]
    print(f"cross-validated {len(checked)} records, "
          f"{sum(r > 1e-6 for r in checked)} above tolerance")
    errors = sum(1 for row in rows if row["kind"] == "error")
    for path in wrote:
        print(f"wrote {path}")
    if errors and errors == len(rows):
        print("every cell failed", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="resonance-lab",
        description="Reduction, averaging and relative equilibria of perturbed "
                    "4-D isotropic oscillators.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("verify", cmd_verify), ("integrate", cmd_integrate),
                     ("reduce", cmd_reduce), ("nf-table", cmd_nf_table),
                     ("equilibria", cmd_equilibria)):
        sp = sub.add_parser(name)
        sp.set_defaults(func=fn)
        sp.add_argument("--config", help="JSON config file", default=None)
        if name == "verify":
            sp.add_argument("--seed", type=int, default=0,
                            help="seed for randomized suites")
        if name == "equilibria":
            sp.add_argument("--workers", type=int, default=1,
                            help="worker processes for the sweep (at least 1)")
        sp.add_argument("--out", default=None,
                        help=f"output directory (default: ${ENV_OUT_DIR} or '.')")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except model.IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        ap.print_usage(sys.stderr)
        return 2
    except (charts.ChartDomainError, invariants.EmptyReducedSpaceError, ValueError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
