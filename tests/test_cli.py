import ast
import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resonance_lab import cli, equilibria, invariants, model, normalform, verify


def run(args):
    return cli.main(args)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestVerifyCommand:
    def test_fast_suites_pass(self, tmp_path):
        suites = ["bracket_table", "reduced_relations", "chart_roundtrips",
                  "equilibria_soundness", "cross_formalism", "composed_h0", "homological"]
        cfg = write_config(tmp_path / "v.json", {"suites": suites})
        rc = run(["verify", "--config", cfg, "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        assert {s["name"] for s in report["suites"]} == set(suites)
        assert all("max_residual" in s for s in report["suites"])

    def test_fault_injection_fails_named_suite(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "f.json", {
            "inject_fault": "bracket_table_sign",
            "suites": ["bracket_table"],
        })
        rc = run(["verify", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "bracket_table" in out and "FAIL" in out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        rc = run(["verify", "--config", str(bad)])
        assert rc == 2

    def test_boolean_details_stay_json_booleans(self, tmp_path):
        cfg = write_config(tmp_path / "v.json", {"suites": ["equilibria_soundness"]})
        assert run(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        (suite,) = json.loads((tmp_path / "verify_report.json").read_text())["suites"]
        # 1.0 == True, so compare by identity: a boolean must not come back as a float
        assert {k: v is True for k, v in suite["details"].items()} == {
            "circular_family": True, "continuum_flag": True, "case_i_limit": True}

    def test_deterministic_report(self, tmp_path):
        cfg = write_config(tmp_path / "v.json", {"suites": ["reduced_relations"]})
        rc = run(["verify", "--config", cfg, "--seed", "7", "--out", str(tmp_path / "a")])
        assert rc == 0
        rc = run(["verify", "--config", cfg, "--seed", "7", "--out", str(tmp_path / "b")])
        assert rc == 0
        ra = (tmp_path / "a" / "verify_report.json").read_bytes()
        rb = (tmp_path / "b" / "verify_report.json").read_bytes()
        assert ra == rb


class TestIntegrateCommand:
    def test_harmonic_closure(self, tmp_path):
        cfg = write_config(tmp_path / "i.json", {
            "kind": "cartesian",
            "state": {"q": [1, 0, 0, 0], "Q": [0, 1, 0, 0]},
            "params": {"omega": 1.0, "epsilon": 0.0},
            "t_end": 2 * math.pi, "tol": 1e-12, "n_out": 5, "out": "t.csv",
        })
        assert run(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "t.csv")
        assert abs(float(rows[-1]["q1"]) - float(rows[0]["q1"])) < 1e-10

    def test_reduced_run_constant_K(self, tmp_path):
        cfg = write_config(tmp_path / "r.json", {
            "kind": "reduced",
            "integrals": {"n": 1.0, "xi": 0.3, "l": 0.1},
            "params": {"beta": 2.0},
            "t_end": 10.0, "tol": 1e-12, "n_out": 11, "angle": 0.9, "out": "r.csv",
        })
        assert run(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "r.csv")
        ks = [float(r["K"]) for r in rows]
        assert max(ks) - min(ks) < 1e-10

    def test_normalized_run_slow_columns(self, tmp_path):
        cfg = write_config(tmp_path / "n.json", {
            "kind": "normalized",
            "delaunay": {"ell": 0.1, "g": 1.0, "u1": 0.0, "u3": 0.0,
                         "L": 1.0, "G": 0.7, "U1": 0.2, "U3": -0.1},
            "params": {"epsilon": 1e-3, "beta": 1.4142135623730951, "h": 4.0},
            "t_end": 50.0, "tol": 1e-11, "n_out": 21, "out": "n.csv",
        })
        assert run(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "n.csv")
        assert set(rows[0].keys()) == {"t", "ell", "g", "u1", "u3", "L", "G", "U1", "U3"}
        g0, g1 = float(rows[0]["g"]), float(rows[-1]["g"])
        assert abs(g1 - g0) < 0.5  # slow variable moved only O(eps * t)
        ls = {r["L"] for r in rows}
        assert len(ls) == 1  # integral of the normalized flow

    def test_missing_state_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "m.json", {"kind": "cartesian"})
        assert run(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_integration_error_exits_1(self, tmp_path, monkeypatch, capsys):
        def stopped(*args, **kwargs):
            raise model.IntegrationError("solver stopped at t=0.5: step size too small",
                                         0.5, np.zeros(8))

        monkeypatch.setattr(model, "integrate", stopped)
        cfg = write_config(tmp_path / "i.json", {
            "kind": "cartesian", "state": {"q": [1, 0, 0, 0], "Q": [0, 1, 0, 0]}, "t_end": 1.0,
        })
        assert run(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "integration failed" in capsys.readouterr().err

    def test_work_budget_stops_a_runaway_run(self, tmp_path, monkeypatch, capsys):
        # the README cartesian example at epsilon = 1e3 oscillates so fast that
        # DOP853 would need hundreds of millions of evaluations to reach t_end
        monkeypatch.setattr(model, "_MAX_NFEV", 20_000)
        cfg = write_config(tmp_path / "i.json", {
            "kind": "cartesian", "state": {"q": [1, 0, 0, 0], "Q": [0, 1, 0, 0]},
            "params": {"omega": 1.0, "epsilon": 1e3, "beta": math.sqrt(2.0)},
            "t_end": 1000.0, "tol": 1e-12, "n_out": 1000, "out": "traj.csv",
        })
        assert run(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "integration failed: work budget" in capsys.readouterr().err
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("delaunay", [
        {"G": 1.0, "U1": 0.2, "U3": -0.1},   # e = 0: g is not defined
        {"G": 1.0, "U1": 0.0, "U3": 0.0},    # circular with U1 U3 = 0, which used to run
        {"G": 0.7, "U1": 0.7},               # |U1| = G: u1 is not defined
        {"G": 0.0},                          # outside 0 < G <= L
    ], ids=["circular", "circular_equatorial", "U1_equals_G", "zero_G"])
    def test_normalized_start_on_a_singular_set_is_a_domain_error(self, delaunay, tmp_path,
                                                                  monkeypatch, capsys):
        # the README normalized config with the start moved onto a singular set
        # of the Delaunay chart; the budget keeps a run that starts anyway short
        monkeypatch.setattr(model, "_MAX_NFEV", 20_000)
        cfg = write_config(tmp_path / "n.json", {
            "kind": "normalized", "order": 1,
            "delaunay": {**_DELAUNAY, **delaunay},
            "params": {"epsilon": 1e-3, "beta": math.sqrt(2.0), "h": 4.0},
            "t_end": 10.0, "out": "normalized.csv",
        })
        assert run(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "domain error" in capsys.readouterr().err
        assert not (tmp_path / "normalized.csv").exists()

    @pytest.mark.parametrize("kind, cfg", [
        ("cartesian", {"state": {"q": [1, 0, 0, 0], "Q": [0, 1, 0, 0]},
                       "params": {"epsilon": 1e-3, "beta": math.sqrt(2.0)}}),
        ("reduced", {"integrals": {"n": 1.0, "xi": 0.3, "l": 0.1}, "params": {"beta": 2.0}}),
        ("normalized", {"delaunay": {"ell": 0.1, "g": 1.0, "u1": 0.0, "u3": 0.0,
                                     "L": 1.0, "G": 0.7, "U1": 0.2, "U3": -0.1},
                        "params": {"epsilon": 1e-3, "beta": math.sqrt(2.0), "h": 4.0}}),
    ])
    def test_zero_tol_is_a_domain_error(self, kind, cfg, tmp_path, monkeypatch, capsys):
        # the README configs at "tol": 0; scipy would raise a zero rtol to
        # 2.2e-14, keep the zero atol and crawl, so the budget keeps a run
        # that starts anyway short
        monkeypatch.setattr(model, "_MAX_NFEV", 20_000)
        path = write_config(tmp_path / "i.json", {"kind": kind, **cfg, "t_end": 1000.0,
                                                  "tol": 0, "out": "out.csv"})
        assert run(["integrate", "--config", path, "--out", str(tmp_path)]) == 2
        assert "domain error: tolerances must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_reduced_non_finite_beta_is_config_error(self, beta, tmp_path, monkeypatch, capsys):
        # the reduced kind reads params as every kind does; a NaN beta used to
        # run to the work budget and exit 1
        monkeypatch.setattr(model, "_MAX_NFEV", 20_000)
        path = write_config(tmp_path / "r.json", {
            "kind": "reduced", "integrals": {"n": 1.0, "xi": 0.3, "l": 0.1},
            "params": {"beta": beta}, "t_end": 100.0, "tol": 1e-12, "out": "r.csv"})
        assert run(["integrate", "--config", path, "--out", str(tmp_path)]) == 2
        assert "configuration error: bad params block: beta must be finite" in \
            capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_non_finite_param_is_config_error(self, tmp_path):
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"kind": "cartesian", "state": {"q": [1, 0, 0, 0], "Q": [0, 1, 0, 0]},'
                       ' "params": {"epsilon": NaN}, "t_end": 1.0, "tol": 1e-10}')
        assert run(["integrate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestReduceCommand:
    def test_invariants_and_surface(self, tmp_path):
        cfg = write_config(tmp_path / "red.json", {
            "state": {"q": [0.7, 0.1, -0.3, 0.5], "Q": [0.2, -0.4, 0.1, 0.6]},
            "integrals": {"n": 1.0, "xi": 0.2, "l": -0.1},
            "out": "inv.json", "surface_out": "surf.csv", "count": 40,
        })
        assert run(["reduce", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "inv.json").read_text())
        assert max(abs(v) for v in payload["eo3_residuals"]) < 1e-12
        lines = (tmp_path / "surf.csv").read_text().splitlines()
        assert lines[0] == "K,sqrt_f_over_2"
        assert len(lines) == 41

    def test_state_on_the_xi_equals_n_boundary(self, tmp_path):
        # Q = (-q2, q1, -q4, q3) puts the state on xi = n exactly; rounding
        # once put the image's xi one ulp above n
        q = [-0.3452157100512797, -1.4818182737222112, -0.11001076471125099, -0.4458281530112322]
        cfg = write_config(tmp_path / "red.json", {
            "state": {"q": q, "Q": [-q[1], q[0], -q[3], q[2]]}})
        assert run(["reduce", "--config", cfg, "--out", str(tmp_path)]) == 0
        thrice = json.loads((tmp_path / "invariants.json").read_text())["thrice"]
        assert thrice["xi"] == thrice["n"]


class TestNfTableCommand:
    def test_schema_and_central_zeros(self, tmp_path):
        cfg = write_config(tmp_path / "nf.json", {
            "gamma": 1.0, "beta_grid": [1.0], "L_grid": [1.0],
            "eta_grid": [0.8], "c1_grid": [0.3], "c2_grid": [0.2], "out": "nf.csv",
        })
        assert run(["nf-table", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "nf.csv")
        assert list(rows[0].keys()) == [
            "beta", "L", "G", "U1", "U3",
            "C01", "C11", "C21", "C02", "C12", "C22", "C32", "C42"]
        assert float(rows[0]["C11"]) == 0.0  # central case
        assert float(rows[0]["C32"]) == 0.0

    @pytest.mark.parametrize("grids", [{"c1_grid": [1.5]}, {"c2_grid": [0.0, -1.25]},
                                       {"eta_grid": [1.5]}])
    def test_momenta_outside_the_domain_are_a_domain_error(self, grids, tmp_path, capsys):
        # |U1| = 1.5 G used to give a row with s1^2 = -1.25 inside C01 and C21
        cfg = write_config(tmp_path / "nf.json", {**grids, "out": "nf.csv"})
        assert run(["nf-table", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "domain error: need 0 < G <= L and |U1|, |U3| <= G" in capsys.readouterr().err
        assert not (tmp_path / "nf.csv").exists()


    def test_one_domain_checked_term_call_per_row(self, tmp_path, monkeypatch):
        # e = 0 (eta = 1) and |U1| = G are on the tables' domain
        grids = {"beta_grid": [0.0, 1.0, 1.5], "L_grid": [1.0, 1.3], "eta_grid": [0.6, 1.0],
                 "c1_grid": [0.0, 0.4, 1.0], "c2_grid": [-0.3, 0.4]}
        cfg = write_config(tmp_path / "nf.json", {**grids, "gamma": 0.9, "out": "nf.csv"})
        calls = []
        terms = normalform._kernel_terms
        monkeypatch.setattr(normalform, "_kernel_terms",
                            lambda *args, **kwargs: calls.append(kwargs) or terms(*args, **kwargs))
        assert run(["nf-table", "--config", cfg, "--out", str(tmp_path)]) == 0
        monkeypatch.undo()
        # each row as the first-order table and the order-2 slice gave it before
        want = []
        for beta, L, eta, c1, c2 in itertools.product(*grids.values()):
            G = eta * L
            c = normalform.order1_coeffs(L, G, c1 * G, c2 * G, beta, 0.9)
            want.append([beta, L, G, c1 * G, c2 * G, c.C01, c.C11, c.C21,
                         *terms(L, G, c1 * G, c2 * G, beta, 0.9, order=2)[3:]])
        cli._write_csv(tmp_path / "want.csv", "beta,L,G,U1,U3,C01,C11,C21,C02,C12,C22,C32,C42", want)
        assert (tmp_path / "nf.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert calls == [{"order": 2}] * len(want)


class TestEquilibriaCommand:
    def test_sweep_content(self, tmp_path):
        cfg = write_config(tmp_path / "eq.json", {
            "alpha_grid": [-0.75, 0.0, 1.0],
            "w_grid": [0.0], "z_grid": [0.0],
            "out": "sweep.csv", "json_out": "sweep.json",
        })
        assert run(["equilibria", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "sweep.csv")
        by_alpha = {}
        for r in rows:
            by_alpha.setdefault(float(r["alpha"]), []).append(r)
        assert by_alpha[-0.75][0]["kind"] == "continuum"
        circular = [r for r in by_alpha[0.0] if r["kind"] == "torus3"]
        assert len(circular) == 1 and float(circular[0]["eta"]) == 1.0
        detail = json.loads((tmp_path / "sweep.json").read_text())
        assert len(detail) == len(rows)
        assert all(("reduced_rhs_max" in d) == (d["kind"] == "torus3") for d in detail)

    def test_error_rows_keep_the_header_width(self, tmp_path, capsys):
        # w = 1.0 fails its cell with a message that contains commas
        cfg = write_config(tmp_path / "eq.json", {
            "alpha_grid": [0.5], "w_grid": [0.2, 1.0], "z_grid": [0.1], "out": "s.csv",
        })
        # the run completes: the failed cell is reported, not re-solved outside its guard
        assert run(["equilibria", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "cross-validated" in capsys.readouterr().out
        with open(tmp_path / "s.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "w", "z", "kind", "eta", "g", "residual", "flags"]
        assert all(len(r) == 8 for r in rows)
        errors = [r for r in rows if r[3] == "error"]
        assert len(errors) == 1 and "|w| < 1, |z| < 1" in errors[0][7]

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "eq.json", {
            "alpha_grid": [1.0], "w_grid": [0.2], "z_grid": [0.1], "out": "s.csv",
        })
        run(["equilibria", "--config", cfg, "--out", str(tmp_path / "a")])
        run(["equilibria", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "s.csv").read_bytes() == (tmp_path / "b" / "s.csv").read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_config_error(self, workers, tmp_path, monkeypatch, capsys):
        def not_reached(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(equilibria, "sweep", not_reached)
        cfg = write_config(tmp_path / "eq.json", {"alpha_grid": [1.0], "out": "s.csv"})
        assert run(["equilibria", "--config", cfg, "--workers", workers,
                    "--out", str(tmp_path)]) == 2
        assert "--workers must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


class TestFlags:
    @pytest.mark.parametrize("command, flag", [
        ("integrate", "--seed"), ("reduce", "--seed"), ("nf-table", "--seed"),
        ("equilibria", "--seed"), ("verify", "--workers"), ("integrate", "--workers"),
        ("reduce", "--workers"), ("nf-table", "--workers"),
    ])
    def test_flag_only_on_the_command_that_reads_it(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestEnvironment:
    def test_default_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "envout"))
        cfg = write_config(tmp_path / "eq.json", {
            "alpha_grid": [1.0], "w_grid": [0.0], "z_grid": [0.0], "out": "s.csv",
        })
        assert run(["equilibria", "--config", cfg]) == 0
        assert (tmp_path / "envout" / "s.csv").exists()


_STATE = {"q": [1, 0, 0, 0], "Q": [0, 1, 0, 0]}
_INTEGRALS = {"n": 1.0, "xi": 0.2, "l": -0.1}
_DELAUNAY = {"ell": 0.1, "g": 1.0, "u1": 0.0, "u3": 0.0, "L": 1.0, "G": 0.7, "U1": 0.2, "U3": -0.1}
_GRIDS = {"alpha_grid": [1.0], "w_grid": [0.0], "z_grid": [0.0]}


class TestConfigBlocks:
    @pytest.mark.parametrize("command, cfg", [
        ("reduce", {"state": {"q": [0.7, 0.1, -0.3, 0.5]}}),
        ("reduce", {"integrals": {"n": None, "xi": 0.2, "l": -0.1}}),
        ("integrate", {"kind": "normalized", "delaunay": {"ell": 0.1, "g": 1.0},
                       "params": {"epsilon": 1e-3, "h": 4.0}}),
        ("integrate", {"kind": "reduced", "integrals": {"n": 1.0, "xi": 0.3, "l": 0.1},
                       "reduced_state": {"N": 0.1, "S": 0.0}}),
        ("integrate", {"kind": "cartesian", "state": {"q": [1, 0, 0], "Q": [0, 1, 0, 0]},
                       "t_end": 1.0}),
        ("equilibria", {"alpha_grid": {"start": 0.0, "stop": 1.0, "num": "x"}}),
        # scalar keys of the wrong type
        ("integrate", {"kind": "cartesian", "state": {"q": [1, 0, 0, 0], "Q": [0, 1, 0, 0]},
                       "t_end": 1.0, "tol": None}),
        ("integrate", {"kind": "reduced", "integrals": {"n": 1.0, "xi": 0.3, "l": 0.1},
                       "params": {"beta": None}, "t_end": 1.0}),
        ("integrate", {"kind": "cartesian", "state": {"q": [1, 0, 0, 0], "Q": [0, 1, 0, 0]},
                       "params": [1], "t_end": 1.0}),
        ("reduce", {"integrals": {"n": 1.0, "xi": 0.2, "l": -0.1}, "count": [40]}),
        ("nf-table", {"h": "four"}),
        # output names that are not strings, and unknown suites or faults
        ("nf-table", {"out": 5}),
        ("integrate", {"kind": "cartesian", "state": {"q": [1, 0, 0, 0], "Q": [0, 1, 0, 0]},
                       "t_end": 1.0, "out": 5}),
        ("reduce", {"integrals": {"n": 1.0, "xi": 0.2, "l": -0.1}, "surface_out": 3}),
        ("verify", {"suites": ["reduced_relations"], "report": 7}),
        ("equilibria", {"alpha_grid": [1.0], "w_grid": [0.0], "z_grid": [0.0], "json_out": 7}),
        ("verify", {"suites": 5}),
        ("verify", {"suites": ["bogus"]}),
        ("verify", {"suites": ["bracket_table"], "inject_fault": "bracket_table_sgn"}),
        # run lengths that leave nothing to write or never end
        ("integrate", {"kind": "normalized", "delaunay": _DELAUNAY,
                       "params": {"epsilon": 1e-3, "h": 4.0}, "t_end": 1.0, "n_out": 0}),
        ("integrate", {"kind": "cartesian", "state": _STATE, "t_end": 1.0, "n_out": 0}),
        ("integrate", {"kind": "reduced", "integrals": _INTEGRALS, "t_end": 1.0, "n_out": 0}),
        ("integrate", {"kind": "cartesian", "state": _STATE, "t_end": math.inf}),
        ("integrate", {"kind": "reduced", "integrals": _INTEGRALS, "t_end": 0.0}),
        # non-finite grid values and a gamma without a chart
        ("equilibria", {"alpha_grid": [math.nan], "w_grid": [0.0], "z_grid": [0.0]}),
        ("equilibria", {"alpha_grid": [math.inf], "w_grid": [0.0], "z_grid": [0.0]}),
        ("equilibria", {"alpha_grid": [1.0], "w_grid": {"start": 0.0, "stop": math.nan, "num": 2},
                        "z_grid": [0.0]}),
        ("nf-table", {"gamma": math.nan}),
        ("nf-table", {"h": -4.0}),
        # integer keys: a count that samples nothing, and values that used to be truncated
        ("reduce", {"integrals": _INTEGRALS, "count": 0}),
        ("reduce", {"state": _STATE, "integrals": _INTEGRALS, "count": -1}),
        ("reduce", {"integrals": _INTEGRALS, "count": 1.5}),
        ("reduce", {"integrals": _INTEGRALS, "count": True}),
        ("integrate", {"kind": "normalized", "delaunay": _DELAUNAY,
                       "params": {"epsilon": 1e-3, "h": 4.0}, "t_end": 1.0, "order": 1.9}),
        ("integrate", {"kind": "cartesian", "state": _STATE, "t_end": 1.0, "n_out": 500.7}),
        ("integrate", {"kind": "reduced", "integrals": _INTEGRALS, "t_end": 1.0, "n_out": True}),
        # grid sizes that used to be truncated, and grids with no value
        ("equilibria", {**_GRIDS, "alpha_grid": {"start": 0.0, "stop": 1.0, "num": 2.5}}),
        ("equilibria", {**_GRIDS, "alpha_grid": {"start": 0.0, "stop": 1.0, "num": True}}),
        ("equilibria", {**_GRIDS, "alpha_grid": {"start": 0.0, "stop": 1.0, "num": 0}}),
        ("equilibria", {**_GRIDS, "alpha_grid": []}),
        # grids that are not flat lists, and an energy level given twice
        ("equilibria", {**_GRIDS, "alpha_grid": [[0.0, 1.0]]}),
        ("nf-table", {"beta_grid": [[1.0, 0.0]]}),
        ("nf-table", {"h": 4.0, "gamma": 3.0}),
        ("integrate", {"kind": "normalized", "delaunay": _DELAUNAY,
                       "params": {"epsilon": 1e-3, "h": 4.0, "gamma": 1.0}, "t_end": 1.0}),
    ], ids=["state_without_Q", "null_n", "delaunay_without_momenta", "reduced_state_without_K",
            "state_with_three_q", "grid_num_not_a_number",
            "null_tol", "null_reduced_beta", "params_not_an_object", "list_count", "text_h",
            "int_nf_table_out", "int_integrate_out", "int_surface_out", "int_report",
            "int_json_out", "int_suites", "unknown_suite", "unknown_fault",
            "normalized_n_out_zero", "cartesian_n_out_zero", "reduced_n_out_zero",
            "infinite_t_end", "zero_t_end", "nan_alpha", "infinite_alpha", "nan_grid_stop",
            "nan_gamma", "negative_h", "zero_count", "negative_count", "fractional_count",
            "boolean_count", "fractional_order", "fractional_n_out", "boolean_n_out",
            "fractional_grid_num", "boolean_grid_num", "zero_grid_num", "empty_grid",
            "nested_alpha_grid", "nested_nf_table_grid", "nf_table_h_and_gamma",
            "params_h_and_gamma"])
    def test_malformed_block_is_config_error(self, command, cfg, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", cfg)
        assert run([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]  # nothing written


_SWEEP_AXIS = {"start": 0.0, "stop": 0.5, "num": 1000}


class TestWorkBounds:
    # (command, config, the library function that does the command's work)
    @pytest.mark.parametrize("command, cfg, work", [
        ("integrate", {"kind": "cartesian", "state": _STATE, "t_end": 1.0, "n_out": 1e13},
         (model, "integrate")),
        ("integrate", {"kind": "reduced", "integrals": _INTEGRALS, "t_end": 1.0,
                       "n_out": cli.MAX_SAMPLES + 1}, (invariants, "reduced_flow")),
        ("integrate", {"kind": "normalized", "delaunay": _DELAUNAY,
                       "params": {"epsilon": 1e-3, "h": 4.0}, "t_end": 1.0, "n_out": 1e13},
         (model, "_solve_ivp")),
        ("reduce", {"integrals": _INTEGRALS, "count": 1e13}, (invariants, "surface_samples")),
        ("reduce", {"integrals": _INTEGRALS, "count": cli.MAX_SAMPLES + 1},
         (invariants, "surface_samples")),
        ("equilibria", {**_GRIDS, "alpha_grid": {"start": 0.0, "stop": 1.0, "num": 1e13}},
         (equilibria, "sweep")),
        ("equilibria", {**_GRIDS, "w_grid": {"start": 0.0, "stop": 0.5, "num": cli.MAX_CELLS + 1}},
         (equilibria, "sweep")),
        ("nf-table", {"eta_grid": {"start": 0.1, "stop": 0.9, "num": 1e13}},
         (normalform, "_kernel_terms")),
        # every grid within the num bound, their product above the cell bound
        ("equilibria", {"alpha_grid": [1.0], "w_grid": _SWEEP_AXIS, "z_grid": _SWEEP_AXIS},
         (equilibria, "sweep")),
        ("nf-table", {"c1_grid": _SWEEP_AXIS, "c2_grid": _SWEEP_AXIS},
         (normalform, "_kernel_terms")),
    ], ids=["cartesian_n_out", "reduced_n_out", "normalized_n_out", "count", "count_past_bound",
            "grid_num", "grid_num_past_bound", "nf_table_grid_num", "sweep_cells",
            "nf_table_cells"])
    def test_work_above_the_bound_fails_before_any_work(self, command, cfg, work, tmp_path,
                                                        monkeypatch, capsys):
        def not_reached(*args, **kwargs):
            raise AssertionError("the command started its work")

        monkeypatch.setattr(*work, not_reached)
        path = write_config(tmp_path / "c.json", cfg)
        assert run([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]  # nothing written

    def test_grid_bounds_are_inclusive(self):
        axis = {"start": 0.0, "stop": 1.0, "num": cli.MAX_CELLS // 10}
        grids = cli._grids({"a": {**axis, "num": cli.MAX_CELLS}}, a=[], b=[0.0])
        assert [g.size for g in grids] == [cli.MAX_CELLS, 1]
        grids = cli._grids({"a": axis}, a=[], b=list(range(10)))
        assert [g.size for g in grids] == [cli.MAX_CELLS // 10, 10]


class TestOutputPaths:
    # (command, config, the library function that does the command's work)
    @pytest.mark.parametrize("command, cfg, work", [
        ("nf-table", {"out": "nodir/x.csv"}, (normalform, "_kernel_terms")),
        ("integrate", {"kind": "cartesian", "state": _STATE, "out": "nodir/x.csv"},
         (model, "integrate")),
        ("integrate", {"kind": "reduced", "integrals": _INTEGRALS, "out": "nodir/x.csv"},
         (invariants, "reduced_flow")),
        ("equilibria", {**_GRIDS, "out": "nodir/x.csv"}, (equilibria, "sweep")),
        ("equilibria", {**_GRIDS, "json_out": "nodir/x.json"}, (equilibria, "sweep")),
        ("reduce", {"state": _STATE, "out": "nodir/x.json"}, (invariants, "pi_map")),
        ("reduce", {"integrals": _INTEGRALS, "surface_out": "nodir/x.csv"},
         (invariants, "surface_samples")),
        ("verify", {"suites": ["reduced_relations"], "report": "nodir/x.json"},
         (verify, "run_suites")),
        ("nf-table", {"out": "."}, (normalform, "_kernel_terms")),
    ], ids=["nf_table_out", "cartesian_out", "reduced_out", "equilibria_out", "json_out",
            "invariants_out", "surface_out", "report", "out_is_a_directory"])
    def test_unwritable_name_fails_before_any_work(self, command, cfg, work, tmp_path,
                                                   monkeypatch, capsys):
        def not_reached(*args, **kwargs):
            raise AssertionError("the command started its work")

        monkeypatch.setattr(*work, not_reached)
        path = write_config(tmp_path / "c.json", cfg)
        assert run([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_existing_subdirectory_is_accepted(self, tmp_path):
        (tmp_path / "sub").mkdir()
        cfg = write_config(tmp_path / "nf.json", {
            "gamma": 1.0, "beta_grid": [1.0], "L_grid": [1.0], "eta_grid": [0.8],
            "c1_grid": [0.3], "c2_grid": [0.2], "out": "sub/nf.csv"})
        assert run(["nf-table", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "sub" / "nf.csv").exists()


# Every CSV the CLI writes: (command, config, file, header, library rows).  In
# the library rows, None is an empty cell, a str is compared as text and
# Ellipsis is not checked; every other cell must parse back to the float the
# library returned.
def _cartesian_rows():
    traj = model.integrate(model.CartesianState(q=(1.0, 0.0, 0.0, 0.0), Q=(0.0, 1.0, 0.0, 0.0)),
                           model.ModelParams(epsilon=1e-3, beta=1.5), 1.0, 1e-10, n_out=4)
    return np.column_stack([traj.t, traj.states, traj.energy, traj.xi, traj.l1])


def _reduced_rows():
    iv = model.IntegralValues(n=1.0, xi=0.3, l=0.1)
    lo, hi = invariants.feasible_interval(iv)
    pt0 = invariants.reduced_point_on_surface(0.5 * (lo + hi), iv, angle=0.3)
    traj = invariants.reduced_flow(pt0, 1.0, 1.0, 1e-10, n_out=4)
    return np.column_stack([traj.t, traj.K, traj.N, traj.S, traj.h3, traj.casimir])


def _reduced_state_rows():
    iv = model.IntegralValues(n=1.0, xi=0.3, l=0.1)
    pt0 = invariants.reduced_point(0.0, math.sqrt(0.2016), 0.0, iv)
    traj = invariants.reduced_flow(pt0, 1.0, 1.0, 1e-10, n_out=4)
    return np.column_stack([traj.t, traj.K, traj.N, traj.S, traj.h3, traj.casimir])


def _normalized_rows():
    # the fast and slow angles come from a solver run inside the CLI; the
    # sample times and the conserved momenta are known in advance
    return [[t, ..., ..., ..., ..., 1.0, ..., 0.2, -0.1] for t in np.linspace(0.0, 2.0, 5)]


def _surface_rows():
    return invariants.surface_samples(model.IntegralValues(n=1.0, xi=0.2, l=-0.1), count=7)


def _nf_table_rows():
    G = 0.8 * 1.0
    U1, U3 = 0.3 * G, 0.2 * G
    c = normalform.order1_coeffs(1.0, G, U1, U3, 1.0, 1.0)
    C02, C12, C22, C32, C42 = normalform._kernel_terms(1.0, G, U1, U3, 1.0, 1.0, order=2)[3:]
    return [[1.0, 1.0, G, U1, U3, c.C01, c.C11, c.C21, C02, C12, C22, C32, C42]]


def _sweep_rows():
    return [[r["alpha"], r["w"], r["z"], r["kind"], r["eta"], r["g"], r["residual"],
             ";".join(r["flags"])] for r in equilibria.sweep([1.0], [0.0, 0.2], [0.1])]


CSV_CASES = {
    "cartesian": ("integrate", {
        "kind": "cartesian", "state": {"q": [1, 0, 0, 0], "Q": [0, 1, 0, 0]},
        "params": {"epsilon": 1e-3, "beta": 1.5}, "t_end": 1.0, "tol": 1e-10, "n_out": 4,
        "out": "t.csv"}, "t.csv", "t,q1,q2,q3,q4,Q1,Q2,Q3,Q4,H,Xi,L1", _cartesian_rows),
    "reduced": ("integrate", {
        "kind": "reduced", "integrals": {"n": 1.0, "xi": 0.3, "l": 0.1}, "params": {"beta": 1.0},
        "angle": 0.3, "t_end": 1.0, "tol": 1e-10, "n_out": 4, "out": "r.csv"},
        "r.csv", "t,K,N,S,H3,casimir_residual", _reduced_rows),
    # f(0) = 1.68 * 0.48 = 4 (N^2 + S^2) at these integrals
    "reduced_state": ("integrate", {
        "kind": "reduced", "integrals": {"n": 1.0, "xi": 0.3, "l": 0.1}, "params": {"beta": 1.0},
        "reduced_state": {"K": 0.0, "N": math.sqrt(0.2016), "S": 0.0}, "t_end": 1.0,
        "tol": 1e-10, "n_out": 4, "out": "r.csv"},
        "r.csv", "t,K,N,S,H3,casimir_residual", _reduced_state_rows),
    "normalized": ("integrate", {
        "kind": "normalized", "delaunay": {"ell": 0.1, "g": 1.0, "u1": 0.0, "u3": 0.0,
                                           "L": 1.0, "G": 0.7, "U1": 0.2, "U3": -0.1},
        "params": {"epsilon": 1e-3, "beta": 1.5, "h": 4.0}, "t_end": 2.0, "tol": 1e-10,
        "n_out": 5, "out": "n.csv"}, "n.csv", "t,ell,g,u1,u3,L,G,U1,U3", _normalized_rows),
    "surface": ("reduce", {
        "integrals": {"n": 1.0, "xi": 0.2, "l": -0.1}, "count": 7, "surface_out": "s.csv"},
        "s.csv", "K,sqrt_f_over_2", _surface_rows),
    "nf_table": ("nf-table", {
        "gamma": 1.0, "beta_grid": [1.0], "L_grid": [1.0], "eta_grid": [0.8],
        "c1_grid": [0.3], "c2_grid": [0.2], "out": "nf.csv"},
        "nf.csv", "beta,L,G,U1,U3,C01,C11,C21,C02,C12,C22,C32,C42", _nf_table_rows),
    "sweep": ("equilibria", {
        "alpha_grid": [1.0], "w_grid": [0.0, 0.2], "z_grid": [0.1], "out": "e.csv"},
        "e.csv", "alpha,w,z,kind,eta,g,residual,flags", _sweep_rows),
}


class TestCsvOutputs:
    @pytest.mark.parametrize("case", CSV_CASES)
    def test_header_rows_and_round_trip(self, case, tmp_path):
        command, cfg, name, header, library_rows = CSV_CASES[case]
        path = write_config(tmp_path / "c.json", cfg)
        assert run([command, "--config", path, "--out", str(tmp_path)]) == 0
        # none of these tables holds a comma inside a cell, so a plain split
        # also proves that no cell is quoted
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header
        want = library_rows()
        assert len(lines) == len(want) + 1
        for line, row in zip(lines[1:], want):
            cells = line.split(",")
            assert len(cells) == len(row)
            for cell, value in zip(cells, row):
                if value is ...:
                    continue
                if value is None or isinstance(value, str):
                    assert cell == (value or "")
                else:
                    assert float(cell) == value


    @settings(max_examples=300, deadline=None)
    @given(row=st.lists(st.one_of(st.text(), st.floats()), min_size=2, max_size=5))
    def test_text_cells_are_quoted_as_csv_writer_quotes_them(self, row, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "quoting.csv"
        cli._write_csv(path, "h", [row])
        want = io.StringIO()
        csv.writer(want).writerow([v if type(v) is str else cli.format_float(v) for v in row])
        with open(path, newline="") as fh:
            # csv.writer ends its line with its dialect's "\r\n", _write_csv with "\n"
            assert fh.read() == "h\n" + want.getvalue()[:-2] + "\n"


def _importers(module):
    """Names of the package's files that import ``module``."""
    importers = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            else:
                continue
            if any(module in name.split(".") for name in names):
                importers.append(path.name)
    return importers


class TestLayering:
    def test_only_cli_imports_cli(self):
        assert set(_importers("cli")) <= {"cli.py"}

    def test_no_module_imports_csv(self):
        # cli._write_csv is the one table writer
        assert _importers("csv") == []


class TestCsvWriter:
    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=1,
                         max_size=6))
    def test_an_ndarray_table_writes_the_bytes_of_its_rows_as_lists(self, rows, tmp_path_factory):
        base = tmp_path_factory.getbasetemp()
        cli._write_csv(base / "lists.csv", "a,b,c", rows)
        cli._write_csv(base / "array.csv", "a,b,c", np.array(rows))
        assert (base / "array.csv").read_bytes() == (base / "lists.csv").read_bytes()

    def test_every_numeric_cell_goes_through_format_float(self, tmp_path, monkeypatch):
        cells = []
        monkeypatch.setattr(cli, "format_float", lambda x: cells.append(x) or "x")
        cli._write_csv(tmp_path / "t.csv", "a,b", np.arange(6.0).reshape(3, 2))
        assert cells == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert {type(c) for c in cells} == {float}
        assert (tmp_path / "t.csv").read_text() == "a,b\nx,x\nx,x\nx,x\n"
