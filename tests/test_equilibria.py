import math

import numpy as np
import pytest

from resonance_lab import equilibria as eq
from resonance_lab.model import IntegralValues


class TestEtaPolynomial:
    def test_symmetric_family_collapses(self):
        p = eq.assemble_eta_poly(0.0, 0.0, 1.0)
        # (3 + 4 alpha)^2 eta^5 (1 - eta)
        assert p.coeffs == (0.0, 0.0, 0.0, 0.0, 0.0, 49.0, -49.0)
        assert p(1.0) == 0.0

    def test_degenerate_family(self):
        p = eq.assemble_eta_poly(0.0, 0.0, -0.75)
        assert p.scale == 0.0

    def test_leading_coefficient(self, rng):
        for _ in range(20):
            w = float(rng.uniform(-0.8, 0.8))
            z = float(rng.uniform(-0.8, 0.8))
            alpha = float(rng.uniform(-2.0, 3.0))
            p = eq.assemble_eta_poly(w, z, alpha)
            assert p.coeffs[6] == pytest.approx(-9 - 24 * alpha - 16 * alpha ** 2, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            eq.assemble_eta_poly(1.2, 0.0, 1.0)

    def test_single_ratio_specialization(self, rng):
        # with z = 0 the table collapses to closed forms in (w, alpha) alone
        for _ in range(10):
            w = float(rng.uniform(-0.8, 0.8))
            al = float(rng.uniform(-2.0, 3.0))
            a = eq.assemble_eta_poly(w, 0.0, al).coeffs
            s = (3 + 4 * al) ** 2
            w2 = w * w
            expected = (
                -25.0 * al * al * w2 ** 3,
                25.0 * al * al * w2 * w2 * (1 + w2),
                15.0 * al * w2 * w2 * (2 + al),
                10.0 * al * (3 + 4 * al) * w2 * (1 - w2),
                w2 * (24 * al * al + 6 * al - 9),
                s * (1 + w2),
                -s,
            )
            for k in range(7):
                assert a[k] == pytest.approx(expected[k], rel=1e-12, abs=1e-12)


class TestBranchProduct:
    def test_matches_branch_equations(self, rng):
        # the exact product polynomial vanishes exactly on F+ F- = 0
        for _ in range(10):
            w = float(rng.uniform(-0.4, 0.4))
            z = float(rng.uniform(-0.4, 0.4))
            alpha = float(rng.uniform(-0.9, 2.5))
            b = eq.branch_product_coeffs(w, z, alpha)
            lo = max(abs(w), abs(z)) + 1e-6
            for eta in np.linspace(lo + 0.05, 0.95, 7):
                t = float(eta) ** 2
                val = 0.0
                for c in b[::-1]:
                    val = val * t + c
                fp = eq.branch_equation(float(eta), w, z, alpha, 1.0)
                fm = eq.branch_equation(float(eta), w, z, alpha, -1.0)
                # product relation up to the positive chart denominator
                den = 16 * eta ** 4 * (t - w * w) * (t - z * z) * (t - 1)
                assert val == pytest.approx(fp * fm * den, rel=1e-8, abs=1e-12)

    def test_root_isolation_exhaustive(self, rng):
        # no sign change of the polynomial on a fine grid may be missed
        for _ in range(10):
            w = float(rng.uniform(-0.4, 0.4))
            z = float(rng.uniform(-0.4, 0.4))
            alpha = float(rng.uniform(-0.9, 2.5))
            b = eq.branch_product_coeffs(w, z, alpha)
            lo = max(w * w, z * z) + 1e-11

            def val(t):
                acc = 0.0
                for c in b[::-1]:
                    acc = acc * t + c
                return acc

            roots = eq._isolate_roots(b, lo, 1.0 - 1e-11)
            ts = np.linspace(lo, 1.0 - 1e-11, 10000)
            vs = np.array([val(float(t)) for t in ts])
            crossings = int(np.sum(np.sign(vs[:-1]) * np.sign(vs[1:]) < 0))
            assert len(roots) >= crossings
            assert len(roots) <= 6

    def test_no_point_counted_twice(self, rng, monkeypatch):
        # each stack interval carries the variation counts at its ends
        seen = []
        variations = eq._variations

        def spy(chain, x):
            seen.append(x)
            return variations(chain, x)

        monkeypatch.setattr(eq, "_variations", spy)
        for _ in range(10):
            w, z = (float(v) for v in rng.uniform(-0.4, 0.4, 2))
            b = eq.branch_product_coeffs(w, z, float(rng.uniform(-0.9, 2.5)))
            seen.clear()
            eq._isolate_roots(b, max(w * w, z * z) + 1e-11, 1.0 - 1e-11)
            assert len(seen) == len(set(seen)) > 2


class TestSolveTori3:
    def test_symmetric_family(self):
        res = eq.solve_tori3(0.0, 0.0, 1.0)
        assert not res.continuum
        assert len(res.records) == 1
        rec = res.records[0]
        assert rec.eta == 1.0
        assert "circular" in rec.flags
        assert rec.residual < 1e-10

    def test_continuum_flag(self):
        res = eq.solve_tori3(0.0, 0.0, -0.75)
        assert res.continuum
        assert res.records == ()

    def test_records_satisfy_branch_equations(self, rng):
        for _ in range(8):
            w = float(rng.uniform(-0.4, 0.4))
            z = float(rng.uniform(-0.4, 0.4))
            alpha = float(rng.uniform(-0.9, 2.5))
            res = eq.solve_tori3(w, z, alpha)
            for rec in res.records:
                if "circular" in rec.flags:
                    continue
                cosg = 1.0 if rec.g == 0.0 else -1.0
                f = eq.branch_equation(rec.eta, w, z, alpha, cosg)
                assert abs(f) < 1e-8
                assert rec.residual < 1e-8
                assert max(abs(w), abs(z)) < rec.eta <= 1.0

    def test_published_roots_classified(self):
        # every root of the published polynomial is matched or spurious
        res = eq.solve_tori3(0.2, 0.1, 1.0)
        assert len(res.spurious) >= 1
        for sp in res.spurious:
            assert "no branch satisfied" in sp["reason"]

    def test_spurious_square_root_filter(self):
        # at this cell the published polynomial has a root below the chart
        # domain; both R x + Q and R x - Q stay away from zero there
        res = eq.solve_tori3(0.2, 0.1, 1.0)
        sp = [s for s in res.spurious if s["eta"] < 0.2]
        assert sp
        for s in sp:
            assert abs(s["rq_plus"]) > 0.0 and abs(s["rq_minus"]) > 0.0

    def test_sensitivity_off_root(self):
        res = eq.solve_tori3(0.2, 0.1, 1.0)
        rec = next(r for r in res.records if "circular" not in r.flags)
        cosg = 1.0 if rec.g == 0.0 else -1.0
        off = eq.branch_equation(rec.eta + 1e-2, rec.w, rec.z, rec.alpha, cosg)
        assert abs(off) > 1e-6

    def test_degenerate_g_for_circular(self):
        res = eq.solve_tori3(0.3, 0.0, 1.5)
        circ = [r for r in res.records if "circular" in r.flags]
        assert len(circ) == 1 and "g_undefined" in circ[0].flags


class TestPeriodicBranches:
    def test_small_alpha_limit(self):
        bs = [b for b in eq.periodic_branches(1e-4) if b.case == "i"]
        assert len(bs) == 1
        assert bs[0].e < 5e-4
        assert bs[0].c2sq == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_axial_family_at_special_alpha(self):
        bs = eq.periodic_branches(-0.75)
        cases = {b.case for b in bs}
        assert "axial" in cases

    def test_case_i_residual(self):
        bs = [b for b in eq.periodic_branches(1.0) if b.case == "i"]
        assert len(bs) == 1
        assert bs[0].residual < 1e-8
        assert bs[0].g == 0.0

    def test_case_ii_exists_for_negative_alpha(self):
        bs = [b for b in eq.periodic_branches(-0.5) if b.case == "ii"]
        assert len(bs) == 1
        assert bs[0].g == math.pi
        assert bs[0].residual < 1e-8

    def test_published_ratio_characterization(self):
        # the nonzero |U1| = |U3| expressions equal G sqrt(c2sq) on both cases
        for alpha in (0.6, 1.5, -0.4):
            for b in eq.periodic_branches(alpha):
                if b.case == "axial" or b.u_ratio_printed is None:
                    continue
                assert b.u_ratio_printed == pytest.approx(math.sqrt(b.c2sq), abs=1e-8)
                assert "u_ratio_mismatch" not in b.flags

    @staticmethod
    def case_alpha(e, cosg):
        # the published alpha(e) = num/den; case (ii) is case (i) at -e
        s = cosg * e
        return 3.0 * s * (3.0 + 2.0 * s) ** 2 / (3.0 * s**4 + 2.0 * s**3 - 10.0 * s**2 - 3.0 * s + 8.0)

    def test_records_solve_the_alpha_relation(self):
        count = 0
        for alpha in np.linspace(-0.95, 4.95, 25):
            for b in eq.periodic_branches(float(alpha)):
                if b.case == "axial":
                    continue
                cosg = 1.0 if b.case == "i" else -1.0
                assert self.case_alpha(b.e, cosg) == pytest.approx(alpha, rel=1e-12)
                count += 1
        assert count >= 20

    def test_isolator_misses_no_sign_change(self):
        # the isolator finds at least as many roots as a dense grid sees sign changes
        es = np.linspace(1e-6, 1.0 - 1e-6, 20000)
        for alpha in np.linspace(-0.99, 4.99, 41):
            for cosg in (1.0, -1.0):
                coeffs = eq._case_coeffs(float(alpha), cosg)
                roots = eq._isolate_roots(coeffs, 1e-6, 1.0 - 1e-6)
                vals = self.case_alpha(es, cosg) - alpha
                crossings = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
                assert len(roots) >= crossings
                assert all(1e-6 < r <= 1.0 - 1e-6 for r in roots)


class TestCrossValidation:
    def test_stationary_on_reduced_space(self, rng):
        checked = 0
        for _ in range(6):
            w = float(rng.uniform(-0.4, 0.4))
            z = float(rng.uniform(-0.4, 0.4))
            alpha = float(rng.uniform(-0.9, 2.5))
            beta = math.sqrt(alpha + 1.0)
            res = eq.solve_tori3(w, z, alpha)
            for rec in res.records:
                cv = eq.cross_validate(rec, beta)
                assert cv.reduced_rhs_max < 1e-6
                if cv.s_expected_zero:
                    assert abs(cv.S) < 1e-6
                assert abs(cv.casimir_residual) < 1e-8
                checked += 1
        assert checked > 0

    def test_beta_sq_4_path(self):
        # alpha = 3: dK/dt vanishes identically, S is unconstrained
        res = eq.solve_tori3(0.2, 0.1, 3.0)
        rec = next(r for r in res.records if "circular" not in r.flags)
        cv = eq.cross_validate(rec, beta=2.0)
        assert not cv.s_expected_zero
        assert cv.reduced_rhs_max < 1e-6

    def test_inconsistent_integrals_rejected(self):
        res = eq.solve_tori3(0.2, 0.1, 1.0)
        rec = res.records[0]
        bad = IntegralValues(n=3.0, xi=0.0, l=0.0)
        with pytest.raises(ValueError):
            eq.cross_validate(rec, beta=math.sqrt(2.0), iv=bad)

    def test_connection_consistency(self, rng):
        res = eq.solve_tori3(0.25, -0.15, 1.2)
        for rec in res.records:
            if "circular" in rec.flags:
                continue
            cv = eq.cross_validate(rec, beta=math.sqrt(2.2))
            assert cv.connection_residual < 1e-9


class TestSweep:
    def test_singleton_matches_direct(self):
        table = eq.sweep([1.0], [0.2], [0.1])
        direct = eq.solve_tori3(0.2, 0.1, 1.0)
        kinds = [row["kind"] for row in table.rows]
        assert kinds.count("torus3") == len(direct.records)
        assert kinds.count("spurious") == len(direct.spurious)
        # each record row carries its cross-validation against the reduced flow
        checked = [row["reduced_rhs_max"] for row in table.rows if row["kind"] == "torus3"]
        assert checked == [eq.cross_validate(rec, math.sqrt(2.0)).reduced_rhs_max
                           for rec in direct.records]

    def test_sharded_is_identical(self):
        grids = ([-0.75, 0.0, 1.0], [0.0, 0.2], [0.0, 0.1])
        a = eq.sweep(*grids, workers=1)
        b = eq.sweep(*grids, workers=2)
        assert a.rows == b.rows

    def test_degenerate_cell_flagged(self):
        table = eq.sweep([-0.75], [0.0], [0.0])
        assert table.rows[0]["kind"] == "continuum"
        assert "degenerate_family" in table.rows[0]["flags"]

    def test_alpha_below_minus_one_is_an_error_row(self):
        # no real beta = sqrt(alpha + 1): the cell fails instead of reporting a record
        with pytest.raises(ValueError, match="must be >= -1"):
            eq.solve_tori3(0.0, 0.0, -1.5)
        (row,) = eq.sweep([-1.5], [0.0], [0.0]).rows
        assert row["kind"] == "error"
        assert "must be >= -1" in row["flags"][0]
