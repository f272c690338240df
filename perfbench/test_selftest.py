"""Self-tests of the benchmark: exact span counts and injected faults.

Run from the repository root (about two minutes):

    python3 -m pytest -q perfbench/test_selftest.py
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads, then imports the library from src/)

workloads = run.load_workloads()
import spans  # noqa: E402

from resonance_lab import cli, equilibria, model, normalform  # noqa: E402

SEED = 3
# items per workload: two cli rounds, and two rounds of sweep's (w, z) pattern
ITEMS = {"averaging": 3, "sweep": 8, "trajectory": 1, "cli": 14}


def _fresh(name, tmp_path):
    workdir = tmp_path / name
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](SEED, workdir)
    run.warm_up(wl)
    return wl


def _traced_counts(name, tmp_path):
    wl = _fresh(name, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        phase = run.run_phase(wl, float("inf"), tracer=tracer, max_items=ITEMS[name])
    finally:
        tracer.uninstall()
    assert not phase["failures"]
    return tracer.per_item_counts()


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = _traced_counts(name, tmp_path / "a")
    second = _traced_counts(name, tmp_path / "b")
    assert sorted(first) == list(range(ITEMS[name]))
    assert first == second
    if name == "averaging":
        # 512 nodes for R1 plus 512 for W1: the wrappers sit at both binding sites
        assert all(c["charts.kepler_solve.calls"] == 1024 for c in first.values())


def test_wrappers_are_removed(tmp_path):
    original = normalform.kepler_solve
    tracer = spans.Tracer()
    tracer.install()
    assert normalform.kepler_solve is not original
    tracer.uninstall()
    assert normalform.kepler_solve is original


# -- fault injection -----------------------------------------------------------

def _c01_shift(fn):
    def patched(*args, **kwargs):
        c = fn(*args, **kwargs)
        return dataclasses.replace(c, C01=c.C01 + 1e-6)
    return normalform, "order1_coeffs", patched


def _rhs_scale(fn):
    def patched(*args, **kwargs):
        cv = fn(*args, **kwargs)
        return dataclasses.replace(cv, reduced_rhs_max=cv.reduced_rhs_max * 1e7)
    return equilibria, "cross_validate", patched


def _energy_drift(fn):
    def patched(*args, **kwargs):
        traj = fn(*args, **kwargs)
        traj.energy[-1] += 1e-6 * abs(traj.energy[0])
        return traj
    return model, "integrate", patched


def _no_G_rate(fn):
    def patched(*args, **kwargs):
        return dataclasses.replace(fn(*args, **kwargs), G=0.0)
    return normalform, "normalized_rhs", patched


def _output_byte(fn):
    def patched(x):
        return fn(x).replace(".", ",", 1)
    return cli, "format_float", patched


FAULTS = {
    "order1_coeffs_c01": (normalform.order1_coeffs, _c01_shift, "averaging"),
    "cross_validate_rhs": (equilibria.cross_validate, _rhs_scale, "sweep"),
    "trajectory_drift": (model.integrate, _energy_drift, "trajectory"),
    "normalized_rhs_no_G_rate": (normalform.normalized_rhs, _no_G_rate, "trajectory"),
    "cli_output_byte": (cli.format_float, _output_byte, "cli"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_fails_only_its_workload(fault, tmp_path, monkeypatch):
    original, make_patch, target = FAULTS[fault]
    module, attr, patched = make_patch(original)
    monkeypatch.setattr(module, attr, patched)
    for name in run.NAMES:
        wl = _fresh(name, tmp_path)
        phase = run.run_phase(wl, float("inf"), max_items=ITEMS[name])
        fail_ratio = len(phase["failures"]) / len(phase["starts"])
        if name == target:
            assert fail_ratio > 0, name
        else:
            assert fail_ratio == 0, (name, phase["failures"])
