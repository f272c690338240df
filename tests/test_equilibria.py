import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from resonance_lab import equilibria as eq, model


class TestEtaPolynomial:
    def test_symmetric_family_collapses(self):
        p = eq.assemble_eta_poly(0.0, 0.0, 1.0)
        # (3 + 4 alpha)^2 eta^5 (1 - eta)
        assert p.tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 49.0, -49.0]
        assert np.polynomial.polynomial.polyval(1.0, p) == 0.0

    def test_degenerate_family(self):
        p = eq.assemble_eta_poly(0.0, 0.0, -0.75)
        assert np.max(np.abs(p)) == 0.0

    def test_leading_coefficient(self, rng):
        for _ in range(20):
            w = float(rng.uniform(-0.8, 0.8))
            z = float(rng.uniform(-0.8, 0.8))
            alpha = float(rng.uniform(-2.0, 3.0))
            p = eq.assemble_eta_poly(w, z, alpha)
            assert p[6] == pytest.approx(-9 - 24 * alpha - 16 * alpha ** 2, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            eq.assemble_eta_poly(1.2, 0.0, 1.0)

    def test_single_ratio_specialization(self, rng):
        # with z = 0 the table collapses to closed forms in (w, alpha) alone
        for _ in range(10):
            w = float(rng.uniform(-0.8, 0.8))
            al = float(rng.uniform(-2.0, 3.0))
            a = eq.assemble_eta_poly(w, 0.0, al)
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


# The Sturm isolator on numpy arrays, as it was before it moved to lists of
# Python floats: the float form must build the same chains and return the
# same roots bit for bit.
def _trim_reference(c, tol):
    k = len(c)
    while k > 1 and abs(c[k - 1]) <= tol:
        k -= 1
    return c[:k]


def _polyder_reference(c):
    if len(c) <= 1:
        return np.zeros(1)
    return c[1:] * np.arange(1, len(c))


def _polyrem_reference(a, b):
    r = a.astype(float).copy()
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and len(r) > 1:
        k = len(r) - 1 - db
        f = r[-1] / lead
        r[k:k + db + 1] -= f * b
        r = r[:-1]
    return r


def _sturm_chain_reference(c):
    scale = max(1e-300, float(np.max(np.abs(c))))
    tol = 1e-13 * scale
    chain = [_trim_reference(c, tol)]
    d = _trim_reference(_polyder_reference(c), tol)
    if len(d) >= 1 and np.any(d != 0.0):
        chain.append(d)
    while len(chain[-1]) > 1:
        rem = _polyrem_reference(chain[-2], chain[-1])
        rem = _trim_reference(rem, tol * 10.0)
        if len(rem) == 1 and abs(rem[0]) <= tol * 10.0:
            break
        chain.append(-rem)
    return chain


def _trim_low_reference(c):
    """Drop negligible low-order coefficients, as the isolator does on entry."""
    c = np.asarray(c, dtype=float)
    return _trim_reference(c[::-1], 1e-14 * float(np.max(np.abs(c))))[::-1]


def _polyval_reference(c, x):
    acc = 0.0
    for v in c[::-1]:
        acc = acc * x + v
    return acc


def _variations_reference(chain, x):
    signs = []
    for p in chain:
        v = _polyval_reference(p, x)
        if v != 0.0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _refine_by_counts(c, chain, a, b, va):
    """Bisect an isolating interval on the Sturm variation count."""
    for _ in range(200):
        if b - a < eq._ROOT_WIDTH:
            break
        m = 0.5 * (a + b)
        vm = _variations_reference(chain, m)
        if va - vm >= 1:
            b = m
        else:
            a, va = m, vm
    return a, b


def _refine_by_sign(c, chain, a, b, va):
    """Bisect on the sign of p g, g = gcd(p, p'); counts where p g does not change sign."""
    g = chain[-1] if len(chain[-1]) > 1 else np.ones(1)
    sa = _polyval_reference(c, a) * _polyval_reference(g, a)
    sb = _polyval_reference(c, b) * _polyval_reference(g, b)
    if not (sa < 0.0 < sb or sb < 0.0 < sa):
        return _refine_by_counts(c, chain, a, b, va)
    for _ in range(200):
        if b - a < eq._ROOT_WIDTH:
            break
        m = 0.5 * (a + b)
        sm = _polyval_reference(c, m) * _polyval_reference(g, m)
        if sm == 0.0:
            return m, m
        if (sm < 0.0) == (sa < 0.0):
            a = m
        else:
            b = m
    return a, b


def _isolate_roots_reference(c, lo, hi, refine=_refine_by_sign):
    c = _trim_low_reference(c)
    chain = _sturm_chain_reference(c)
    roots = []
    stack = [(lo, hi, _variations_reference(chain, lo), _variations_reference(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n <= 0:
            continue
        if b - a < eq._ROOT_WIDTH:
            roots.append(0.5 * (a + b))
            continue
        if n == 1:
            aa, bb = refine(c, chain, a, b, va)
            r = 0.5 * (aa + bb)
            d = _polyder_reference(c)
            for _ in range(3):
                fp = _polyval_reference(d, r)
                if fp == 0.0:
                    break
                step = _polyval_reference(c, r) / fp
                if abs(step) > (b - a):
                    break
                r -= step
            if a < r <= b + 1e-15:
                roots.append(min(r, b))
            else:
                roots.append(0.5 * (aa + bb))
            continue
        m = 0.5 * (a + b)
        vm = _variations_reference(chain, m)
        stack.append((a, m, va, vm))
        stack.append((m, b, vm, vb))
    return sorted(roots)


def _isolate_roots_by_counts(c, lo, hi):
    """The isolator as it was before the sign refinement: every step a Sturm count."""
    return _isolate_roots_reference(c, lo, hi, refine=_refine_by_counts)


# w z = 0 cells make every root of the branch product double; w = z cells put
# a double root of f at the end of the interval
_RATIO = st.one_of(st.just(0.0), st.floats(-0.45, 0.45))


def _root_cases(w, z, alpha):
    """(name, coefficients, lo, hi) of every polynomial solve_tori3 and periodic_branches isolate."""
    cases = [("branch", eq.branch_product_coeffs(w, z, alpha),
              max(w * w, z * z) + 1e-11, 1.0 - 1e-11),
             ("published", eq.assemble_eta_poly(w, z, alpha), 1e-12, 1.0 + 1e-9)]
    cases += [("case", eq._case_coeffs(alpha, cosg), 1e-6, 1.0 - 1e-6) for cosg in (1.0, -1.0)]
    # a vanishing polynomial is reported as a continuum instead
    return [case for case in cases if max(abs(float(c)) for c in case[1]) >= 1e-12]


def _hex(p):
    assert all(type(v) is float for v in p)
    return [v.hex() for v in p]


@settings(max_examples=200, deadline=None)
@given(_RATIO, _RATIO, st.booleans(), st.floats(-0.99, 5.0))
def test_list_chain_matches_the_ndarray_chain_exactly(w, z, tie, alpha):
    # every member of the chain, element by element, and the derivative
    if tie:
        z = w
    for _, coeffs, _, _ in _root_cases(w, z, alpha):
        c = _trim_low_reference(coeffs)
        got = eq._sturm_chain(c.tolist())
        want = _sturm_chain_reference(c)
        assert [_hex(p) for p in got] == [_hex(p.tolist()) for p in want]
        assert _hex(eq._polyder(c.tolist())) == _hex(_polyder_reference(c).tolist())


@settings(max_examples=200, deadline=None)
@given(_RATIO, _RATIO, st.booleans(), st.floats(-0.99, 5.0))
def test_float_sturm_matches_the_ndarray_form_exactly(w, z, tie, alpha):
    if tie:
        z = w
    for _, coeffs, lo, hi in _root_cases(w, z, alpha):
        got = eq._isolate_roots(coeffs, lo, hi)
        want = _isolate_roots_reference(coeffs, lo, hi)
        assert len(got) == len(want)
        assert all(g == r for g, r in zip(got, want))
        assert all(type(g) is float for g in got)


@settings(max_examples=200, deadline=None)
@given(_RATIO, _RATIO, st.booleans(), st.floats(-0.99, 5.0))
def test_sign_refinement_agrees_with_count_bisection(w, z, tie, alpha):
    if tie:
        z = w
    for name, coeffs, lo, hi in _root_cases(w, z, alpha):
        got = eq._isolate_roots(coeffs, lo, hi)
        old = _isolate_roots_by_counts(coeffs, lo, hi)
        assert len(got) == len(old)
        if name != "branch":  # the branch product's double roots are ill-conditioned
            assert all(abs(g - r) <= 2e-15 for g, r in zip(got, old))
    new = eq.solve_tori3(w, z, alpha)
    with mock.patch.object(eq, "_isolate_roots", _isolate_roots_by_counts):
        ref = eq.solve_tori3(w, z, alpha)
    assert new.continuum == ref.continuum
    assert [(r.g, r.flags) for r in new.records] == [(r.g, r.flags) for r in ref.records]
    assert all(abs(a.eta - b.eta) <= 1e-12 for a, b in zip(new.records, ref.records))
    assert [s["reason"] for s in new.spurious] == [s["reason"] for s in ref.spurious]


@pytest.mark.parametrize("w, z, alpha", [(0.3, 0.0, 1.5), (0.2, 0.3, 1.0)],
                         ids=["wz_zero", "generic"])
def test_isolated_roots_take_no_sturm_count(w, z, alpha, monkeypatch):
    # the counted points split [lo, hi] into neighbouring intervals; a count
    # may only split one whose end counts differ by two or more roots
    counted = {}
    spent_on_one_root = []
    variations = eq._variations

    def spy(chain, x):
        v = variations(chain, x)
        if len(counted) >= 2:
            left = max(p for p in counted if p < x)
            right = min(p for p in counted if p > x)
            if x != 0.5 * (left + right) or counted[left] - counted[right] < 2:
                spent_on_one_root.append(x)
        counted[x] = v
        return v

    monkeypatch.setattr(eq, "_variations", spy)
    roots = eq._isolate_roots(eq.branch_product_coeffs(w, z, alpha),
                              max(w * w, z * z) + 1e-11, 1.0 - 1e-11)
    assert roots
    assert spent_on_one_root == []


def test_same_sign_at_both_ends_falls_back_to_counts(monkeypatch):
    # at this w = z cell float noise gives p g one sign across one isolating
    # interval, so that root alone is bisected on the variation count
    w = z = 0.4
    alpha = -0.9 + 3.9 * 6 / 7
    coeffs = eq.branch_product_coeffs(w, z, alpha)
    lo, hi = w * w + 1e-11, 1.0 - 1e-11
    fallbacks = []
    bisect_count = eq._bisect_count

    def spy(chain, a, b, va):
        fallbacks.append((a, b))
        return bisect_count(chain, a, b, va)

    monkeypatch.setattr(eq, "_bisect_count", spy)
    roots = eq._isolate_roots(coeffs, lo, hi)
    assert len(fallbacks) == 1
    assert len(roots) == 3
    assert roots == _isolate_roots_reference(coeffs, lo, hi)


@settings(max_examples=300, deadline=None)
@given(_RATIO, _RATIO, st.floats(-0.99, 5.0), st.sampled_from([1.0, -1.0]),
       st.floats(0.0, 1.0, exclude_min=True))
def test_scalar_complex_step_matches_the_jacobian_entry(w, z, alpha, cosg, frac):
    # branch_equation's G-partial: one input, one output, the same step
    lo = max(abs(w), abs(z))
    eta = lo + frac * (1.0 - lo)
    assume(lo < eta <= 1.0)
    P = eq._sin_g_zero_kernel(alpha, cosg)
    want = float(model._complex_step_jacobian(lambda G: P(G, w, z), (eta,))[0, 0])
    assert eq.branch_equation(eta, w, z, alpha, cosg) == want


def _polish_branch_reference(eta0, w, z, alpha, cosg):
    """The polish as it was before the cycle exit: every one of the 60 iterations run."""
    lo = max(abs(w), abs(z)) + 1e-12
    eta = min(max(eta0, lo + 1e-9), 1.0 - 1e-12)
    h = 1e-7
    for _ in range(60):
        try:
            f = eq.branch_equation(eta, w, z, alpha, cosg)
        except ValueError:
            return None
        if abs(f) < 1e-12:
            break
        fp = (eq.branch_equation(min(eta + h, 1.0 - 1e-13), w, z, alpha, cosg)
              - eq.branch_equation(max(eta - h, lo + 1e-13), w, z, alpha, cosg)) / (2 * h)
        if fp == 0.0:
            return None
        step = f / fp
        step = max(min(step, 0.1), -0.1)
        eta_new = eta - step
        if not lo < eta_new < 1.0:
            eta_new = 0.5 * (eta + (lo if eta_new <= lo else 1.0))
        if abs(eta_new - eta) < 1e-15:
            eta = eta_new
            f = eq.branch_equation(eta, w, z, alpha, cosg)
            break
        eta = eta_new
    else:
        f = eq.branch_equation(eta, w, z, alpha, cosg)
    if abs(f) < 1e-9 and abs(eta - eta0) < 0.05:
        return eta, abs(f)
    return None


def _hex_or_none(out):
    return None if out is None else _hex(out)


@st.composite
def _polish_starts(draw):
    """(eta0, w, z, alpha, cosg): a start solve_tori3 would polish from, or any eta0 in (0, 1]."""
    w, z = draw(_RATIO), draw(_RATIO)
    alpha = draw(st.floats(-0.99, 5.0))
    starts = [math.sqrt(t) for t in eq._isolate_roots(
        eq.branch_product_coeffs(w, z, alpha), max(w * w, z * z) + 1e-11, 1.0 - 1e-11)]
    eta0 = draw(st.sampled_from(starts) if starts and draw(st.booleans())
                else st.floats(0.0, 1.0, exclude_min=True))
    return eta0, w, z, alpha, draw(st.sampled_from([1.0, -1.0]))


@settings(max_examples=300, deadline=None)
@given(_polish_starts())
def test_polish_matches_the_full_sixty_iterations(start):
    assert _hex_or_none(eq._polish_branch(*start)) == _hex_or_none(_polish_branch_reference(*start))


# (eta0, w, z, alpha, cosg) of failing polishes whose eta falls into a cycle of
# period 2 from iteration 2, 12 and 7; run to the cap they take 181
# branch_equation calls each
_CYCLING_STARTS = [
    (0.99899220386673, 0.05978776105505401, 0.2881392617199279, -0.5943694744631585, 1.0),
    (0.19029920351423785, -0.15085407313644483, 0.12430537886514659, -0.1780046385425017, 1.0),
    (0.9999840788170504, -0.15085407313644483, 0.12430537886514659, -0.1780046385425017, -1.0),
]


@pytest.mark.parametrize("start", _CYCLING_STARTS, ids=["from_2", "from_12", "g_pi_from_7"])
def test_a_cycling_polish_stops_at_the_repeat(start, monkeypatch):
    want = _polish_branch_reference(*start)
    calls = []
    branch_equation = eq.branch_equation

    def counted(*args):
        calls.append(args[0])
        return branch_equation(*args)

    monkeypatch.setattr(eq, "branch_equation", counted)
    assert _hex_or_none(eq._polish_branch(*start)) == _hex_or_none(want)
    assert len(calls) <= 45


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

    @settings(max_examples=200, deadline=None)
    @given(_RATIO, _RATIO, st.booleans(), st.floats(-0.99, 5.0))
    def test_published_root_is_matched_or_spurious(self, w, z, tie, alpha):
        # a published root in (0, 1] is near a record or logged, never both
        if tie:
            z = w
        res = eq.solve_tori3(w, z, alpha)
        coeffs = eq.assemble_eta_poly(w, z, alpha)
        assume(not res.continuum and max(abs(float(c)) for c in coeffs) >= 1e-12)
        logged = [sp["eta"] for sp in res.spurious
                  if sp["reason"].startswith("published-polynomial root")]
        roots = [min(r, 1.0) for r in eq._isolate_roots(coeffs, 1e-12, 1.0 + 1e-9)]
        near = [any(abs(rec.eta - r) < 1e-6 for rec in res.records) for r in roots]
        assert logged == [r for r, n in zip(roots, near) if not n]

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
            rq_plus, rq_minus = eq._rq_values(s["eta"], 0.2, 0.1, 1.0)
            assert abs(rq_plus) > 0.0 and abs(rq_minus) > 0.0

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


def test_record_fields_are_pinned():
    # a record holds what solve_tori3 computes; (L, G, U1, U3) = (1, eta, w, z)
    assert [f.name for f in dataclasses.fields(eq.EquilibriumRecord)] == \
        ["eta", "g", "residual", "w", "z", "alpha", "flags"]
    assert [f.name for f in dataclasses.fields(eq.PeriodicBranch)] == \
        ["case", "e", "c2sq", "g", "residual", "u_ratio_printed", "flags"]


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

    def test_connection_consistency(self, rng):
        res = eq.solve_tori3(0.25, -0.15, 1.2)
        for rec in res.records:
            if "circular" in rec.flags:
                continue
            cv = eq.cross_validate(rec, beta=math.sqrt(2.2))
            assert cv.connection_residual < 1e-9


class TestSweep:
    def test_singleton_matches_direct(self):
        rows = eq.sweep([1.0], [0.2], [0.1])
        direct = eq.solve_tori3(0.2, 0.1, 1.0)
        kinds = [row["kind"] for row in rows]
        assert kinds.count("torus3") == len(direct.records)
        assert kinds.count("spurious") == len(direct.spurious)
        # each record row carries its cross-validation against the reduced flow
        checked = [row["reduced_rhs_max"] for row in rows if row["kind"] == "torus3"]
        assert checked == [eq.cross_validate(rec, math.sqrt(2.0)).reduced_rhs_max
                           for rec in direct.records]

    def test_sharded_is_identical(self):
        grids = ([-0.75, 0.0, 1.0], [0.0, 0.2], [0.0, 0.1])
        a = eq.sweep(*grids, workers=1)
        b = eq.sweep(*grids, workers=2)
        assert a == b

    @pytest.mark.parametrize("grids, pool_sizes", [
        (([1.0], [0.2], [0.1]), []),
        (([-0.75, 0.0, 1.0], [0.2], [0.1]), [3]),
    ], ids=["one_cell_runs_serially", "three_cells"])
    def test_workers_are_capped_at_the_cell_count(self, grids, pool_sizes, monkeypatch):
        # the recording pool maps in this process, so no worker is started
        asked = []

        class RecordingPool:
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr("multiprocessing.Pool", RecordingPool)
        assert eq.sweep(*grids, workers=10000) == eq.sweep(*grids)
        assert asked == pool_sizes

    def test_degenerate_cell_flagged(self):
        (row,) = eq.sweep([-0.75], [0.0], [0.0])
        assert row["kind"] == "continuum"
        assert "degenerate_family" in row["flags"]

    def test_alpha_below_minus_one_is_an_error_row(self):
        # no real beta = sqrt(alpha + 1): the cell fails instead of reporting a record
        with pytest.raises(ValueError, match="must be >= -1"):
            eq.solve_tori3(0.0, 0.0, -1.5)
        (row,) = eq.sweep([-1.5], [0.0], [0.0])
        assert row["kind"] == "error"
        assert "must be >= -1" in row["flags"][0]

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_is_an_error_row(self, alpha):
        # a NaN alpha used to pass the alpha < -1 guard and give a circular record
        with pytest.raises(ValueError, match="must be >= -1 and finite"):
            eq.solve_tori3(0.0, 0.0, alpha)
        with pytest.raises(ValueError, match="must be >= -1 and finite"):
            eq._sin_g_zero_kernel(alpha, 1.0)
        (row,) = eq.sweep([alpha], [0.0], [0.0])
        assert row["kind"] == "error"
