import csv
import json
import math

from resonance_lab import cli


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
        cfg = write_config(tmp_path / "v.json", {
            "suites": ["bracket_table", "reduced_relations", "chart_roundtrips"],
        })
        rc = run(["verify", "--config", cfg, "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        assert {s["name"] for s in report["suites"]} == {
            "bracket_table", "reduced_relations", "chart_roundtrips"}
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

    def test_error_rows_keep_the_header_width(self, tmp_path):
        # w = 1.0 fails its cell with a message that contains commas
        cfg = write_config(tmp_path / "eq.json", {
            "alpha_grid": [0.5], "w_grid": [0.2, 1.0], "z_grid": [0.1], "out": "s.csv",
        })
        run(["equilibria", "--config", cfg, "--out", str(tmp_path)])
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


class TestEnvironment:
    def test_default_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "envout"))
        cfg = write_config(tmp_path / "eq.json", {
            "alpha_grid": [1.0], "w_grid": [0.0], "z_grid": [0.0], "out": "s.csv",
        })
        assert run(["equilibria", "--config", cfg]) == 0
        assert (tmp_path / "envout" / "s.csv").exists()
