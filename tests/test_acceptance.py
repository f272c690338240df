"""Acceptance battery: one test per criterion, each at its stated tolerance.

Every test prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to see
them on success).  Each criterion runs its suites through
``verify.run_suites`` at seed 0, so tier-1 checks exactly the streams, sizes
and tolerances that ``resonance-lab verify --seed 0`` reports.
"""

from resonance_lab import verify

SEED = 0

# test name, the verify suites it runs, what it checks
CRITERIA = [
    ("test_c01_bracket_table", ["bracket_table"],
     "bracket table reproduced at 1000 states, tol 1e-10"),
    ("test_c02_reduced_space_relations", ["reduced_relations"],
     "second-space and final-space relations vanish, tol 1e-12"),
    ("test_c03_chart_validity", ["chart_roundtrips", "chart_symplectic", "composed_h0"],
     "chart roundtrips 1e-9, symplecticity 1e-8, composed energy 1e-10"),
    ("test_c04_averaging_oracle", ["averaging_oracle"],
     "closed-form first-order coefficients vs 512-node quadrature, tol 1e-8"),
    ("test_c05_homological_residual", ["homological"],
     "generating function solves the averaging identity, tol 1e-6"),
    ("test_c06_second_order_audit", ["order2_audit"],
     "second-order tables vs bracket oracle, rel tol 1e-4"),
    ("test_c07_equilibria_soundness", ["equilibria_soundness"],
     "equilibria soundness: residuals 1e-8, circular family, continuum, small-coupling limit"),
    ("test_c08_cross_formalism", ["cross_formalism"],
     "mapped equilibria annihilate the reduced field, tol 1e-6"),
    ("test_c09_dynamics_consistency", ["dynamics_conservation"],
     "t = 1e3 conservation at tol 1e-12 (rel drift 1e-8); reduced "
     "Casimir/energy 1e-8; frozen-K case 1e-10"),
    ("test_c10_normal_form_predictivity", ["nf_predictivity"],
     "averaged-flow error halves with epsilon (ratio 2.0 +- 0.3)"),
]


def _criterion(name, number, names, label):
    def test():
        report = verify.run_suites(seed=SEED, names=names)
        detail = "; ".join(
            f"{s['name']} max residual {s['max_residual']:.3e} (tol {s['tolerance']:.0e})"
            + "".join(f", {k} {v if isinstance(v, bool) else format(v, '.4g')}"
                      for k, v in s["details"].items())
            for s in report["suites"])
        line = f"[{'PASS' if report['passed'] else 'FAIL'}] criterion {number}: {label} ({detail})"
        print(line)
        assert [s["name"] for s in report["suites"]] == names
        assert report["passed"], line
    test.__name__ = name
    return test


for _number, (_name, _names, _label) in enumerate(CRITERIA, 1):
    globals()[_name] = _criterion(_name, _number, _names, _label)


def test_criteria_run_every_suite_once():
    names = [n for _, suites, _ in CRITERIA for n in suites]
    assert sorted(names) == sorted(verify.SUITES)
