import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from resonance_lab import equilibria as eq, model, normalform


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
    got, _ = eq.published_audit(w, z, alpha, new.records)
    with mock.patch.object(eq, "_isolate_roots", _isolate_roots_by_counts):
        want, _ = eq.published_audit(w, z, alpha, ref.records)
    assert len(got) == len(want)
    assert all(abs(a["eta"] - b["eta"]) <= 2e-15 for a, b in zip(got, want))


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
    beta = eq._branch_beta(alpha, cosg)
    g = 0.0 if cosg > 0.0 else math.pi
    want = float(model._complex_step_jacobian(
        lambda G: (normalform._kernel(g, 1.0, G, w, z, beta, 1.0),), (eta,))[0, 0])
    assert eq.branch_equation(eta, w, z, alpha, cosg) == want


def _periodic_residual_reference(e, c, alpha, cosg):
    """_periodic_residual as it was: the partials of a closure over normalform._kernel at g = 0 or pi."""
    beta = eq._branch_beta(alpha, cosg)
    g = 0.0 if cosg > 0.0 else math.pi
    eta = math.sqrt(max(0.0, 1.0 - e * e))
    jac = model._complex_step_jacobian(
        lambda G, U1, U3: (normalform._kernel(g, 1.0, G, U1, U3, beta, 1.0),),
        (eta, c * eta, c * eta))
    return float(np.max(np.abs(jac)))


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True),
       st.floats(-1.0, 5.0), st.sampled_from([1.0, -1.0]))
def test_periodic_residual_keeps_its_bits(e, c, alpha, cosg):
    # an arbitrary point, then every family periodic_branches finds at this alpha
    want = _periodic_residual_reference(e, c, alpha, cosg)
    assert eq._periodic_residual(e, c, alpha, cosg).hex() == want.hex()
    for b in eq.periodic_branches(alpha):
        if b.case != "axial":
            cosg = 1.0 if b.case == "i" else -1.0
            want = _periodic_residual_reference(b.e, math.sqrt(b.c2sq), alpha, cosg)
            assert b.residual.hex() == want.hex()


def _polish_branch_reference(eta0, w, z, alpha, cosg, model_calls=None):
    """The polish without its cycle exit: Newton on the closed form, every one of the 60 iterations run."""
    lo = max(abs(w), abs(z)) + 1e-12
    eta = min(max(eta0, lo + 1e-9), 1.0 - 1e-12)
    for _ in range(60):
        v = eq._branch_model(complex(eta, model._COMPLEX_STEP), w, z, alpha, cosg)
        if model_calls is not None:
            model_calls.append(eta)
        f = v.real
        if abs(f) < 1e-12:
            break
        fp = v.imag / model._COMPLEX_STEP
        if fp == 0.0:
            return None
        step = f / fp
        step = max(min(step, 0.1), -0.1)
        eta_new = eta - step
        if not lo < eta_new < 1.0:
            eta_new = 0.5 * (eta + (lo if eta_new <= lo else 1.0))
        if abs(eta_new - eta) < 1e-15:
            eta = eta_new
            break
        eta = eta_new
    try:
        f = eq.branch_equation(eta, w, z, alpha, cosg)
    except ValueError:
        return None
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


# (eta0, w, z, alpha, cosg) of failing polishes whose Newton iterates on the
# closed form fall into a cycle of period 2 from iteration 2, 12 and 7; run to
# the cap they take 60 model evaluations each.  Picked from a seeded search
# (numpy seed 1) of 20,000 starts drawn like _polish_starts, 1,658 of which cycle.
_CYCLING_STARTS = [
    (0.26185604559240633, -0.18992150527460105, 0.19801000728424528, -0.1938929973448823, 1.0),
    (0.7244341931988902, -0.05154901802516004, -0.3001940307778269, -0.8743906003454633, 1.0),
    (0.13766755167571368, 0.12968382056311184, -0.10579733144969616, 0.022773424262784836, -1.0),
]


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(eq, name)

    def counted(*args):
        calls.append(args[0])
        return fn(*args)

    monkeypatch.setattr(eq, name, counted)
    return calls


@pytest.mark.parametrize("start, repeat_at", zip(_CYCLING_STARTS, [4, 14, 9]),
                         ids=["from_2", "from_12", "g_pi_from_7"])
def test_a_cycling_polish_stops_at_the_repeat(start, repeat_at, monkeypatch):
    capped = []
    want = _polish_branch_reference(*start, model_calls=capped)
    assert len(capped) == 60 and want is None
    models = _counting(monkeypatch, "_branch_model")
    kernels = _counting(monkeypatch, "branch_equation")
    assert _hex_or_none(eq._polish_branch(*start)) == _hex_or_none(want)
    assert [c.real for c in models] == capped[:repeat_at]
    assert len(kernels) == 1


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
        spurious, _ = eq.published_audit(w, z, alpha, res.records)
        assert all(sp["reason"] == "published-polynomial root; no branch satisfied"
                   for sp in spurious)
        roots = [min(r, 1.0) for r in eq._isolate_roots(coeffs, 1e-12, 1.0 + 1e-9)]
        near = [any(abs(rec.eta - r) < 1e-6 for rec in res.records) for r in roots]
        assert [sp["eta"] for sp in spurious] == [r for r, n in zip(roots, near) if not n]

    def test_published_roots_classified(self):
        # every root of the published polynomial is matched or spurious, and
        # R x +- Q is judged once per record, never on the circular one
        res = eq.solve_tori3(0.2, 0.1, 1.0)
        spurious, rq_mismatch = eq.published_audit(0.2, 0.1, 1.0, res.records)
        assert len(spurious) >= 1
        for sp in res.spurious + spurious:
            assert "no branch satisfied" in sp["reason"]
        assert len(rq_mismatch) == len(res.records)
        assert not any(bad for rec, bad in zip(res.records, rq_mismatch) if "circular" in rec.flags)

    def test_spurious_square_root_filter(self):
        # at this cell the published polynomial has a root below the chart
        # domain; both R x + Q and R x - Q stay away from zero there
        res = eq.solve_tori3(0.2, 0.1, 1.0)
        spurious, _ = eq.published_audit(0.2, 0.1, 1.0, res.records)
        sp = [s for s in spurious if s["eta"] < 0.2]
        assert sp
        for s in sp:
            R, Q, x = eq.rq_x(s["eta"], 0.2, 0.1, 1.0)
            assert abs(R * x + Q) > 0.0 and abs(R * x - Q) > 0.0

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
        published, rq_mismatch = eq.published_audit(0.2, 0.1, 1.0, direct.records)
        kinds = [row["kind"] for row in rows]
        assert kinds.count("torus3") == len(direct.records)
        assert kinds.count("spurious") == len(direct.spurious) + len(published)
        assert [("rq_mismatch" in row["flags"]) for row in rows if row["kind"] == "torus3"] == \
            list(rq_mismatch)
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
            eq._branch_beta(alpha, 1.0)
        with pytest.raises(ValueError, match="must be >= -1 and finite"):
            eq._periodic_residual(0.5, 0.3, alpha, 1.0)
        (row,) = eq.sweep([alpha], [0.0], [0.0])
        assert row["kind"] == "error"

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -1.5])
    def test_periodic_branches_reject_what_the_solve_rejects(self, alpha):
        # these used to return [] without a word while solve_tori3 raised
        with pytest.raises(ValueError, match="must be >= -1 and finite"):
            eq.periodic_branches(alpha)


# -- the Sturm bisection against its former form --------------------------------------

# _bisect_sign and _variations as they were before the bisection evaluated
# p g in one call per point and the count stopped building a list of signs
def _bisect_sign_before(c, g, a, b):
    def s(x):
        v = eq._polyval(c, x)
        return v if g is None else v * eq._polyval(g, x)

    sa, sb = s(a), s(b)
    if not (sa < 0.0 < sb or sb < 0.0 < sa):
        return None
    neg = sa < 0.0
    for _ in range(200):
        if b - a < eq._ROOT_WIDTH:
            break
        m = 0.5 * (a + b)
        sm = s(m)
        if sm == 0.0:
            return m, m
        if (sm < 0.0) == neg:
            a = m
        else:
            b = m
    return a, b


def _variations_before(chain, x):
    signs = []
    for p in chain:
        v = eq._polyval(p, x)
        if v != 0.0:
            signs.append(1 if v > 0 else -1)
    count = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            count += 1
    return count


def _sweep_cells():
    """The README grid, the w z = 0 axes, alpha = 3, the alpha = -3/4 continuum and 480 seeded cells."""
    cells = [(w, z, float(a)) for a in np.linspace(-0.9, 3.0, 14)
             for w in (0.0, 0.2) for z in (0.0, 0.1)]
    rng = np.random.default_rng(2201)
    for k in range(480):
        alpha = float(rng.uniform(-0.9, 3.0))
        w, z = (float(v) for v in rng.uniform(-0.4, 0.4, 2))
        # one cell in four on each axis, one at w = z = 0, and every tenth at alpha = 3
        cells.append((0.0 if k % 4 in (0, 1) else w, 0.0 if k % 4 in (0, 2) else z,
                      3.0 if k % 10 == 0 else alpha))
    cells += [(w, z, -0.75) for w in (0.0, 0.2, -0.3) for z in (0.0, 0.1, 0.3)]
    return cells


def _cell_bits(w, z, alpha):
    """Every record, flag, spurious entry and CrossValidation field of a cell, floats as float.hex.

    The published audit's spurious entries follow the solve's, and its
    rq_mismatch verdict follows each record's fields.
    """
    res = eq.solve_tori3(w, z, alpha)
    published, rq_mismatch = eq.published_audit(w, z, alpha, res.records)
    beta = math.sqrt(alpha + 1.0)
    hexed = lambda v: v.hex() if type(v) is float else repr(v)  # noqa: E731
    return (res.continuum,
            [[hexed(v) for v in dataclasses.astuple(rec)] + [repr(bad)]
             for rec, bad in zip(res.records, rq_mismatch)],
            [{k: hexed(v) for k, v in sp.items()} for sp in res.spurious + published],
            [[hexed(v) for v in dataclasses.astuple(eq.cross_validate(rec, beta))]
             for rec in res.records])


def test_sweep_cells_keep_their_bits():
    cells = _sweep_cells()
    got = [_cell_bits(*cell) for cell in cells]
    with mock.patch.object(eq, "_bisect_sign", _bisect_sign_before), \
            mock.patch.object(eq, "_variations", _variations_before):
        want = [_cell_bits(*cell) for cell in cells]
    assert got == want
    # the mix reaches every kind of outcome
    assert sum(continuum for continuum, _, _, _ in got) >= 1
    assert sum(len(recs) for _, recs, _, _ in got) > 500
    assert sum(len(sp) for _, _, sp, _ in got) > 100
    assert any("'circular'" in rec[-2] for _, recs, _, _ in got for rec in recs)


# -- the solve without the paper's printed forms ---------------------------------------

def _solve_tori3_reference(w, z, alpha):
    """solve_tori3 as it was, with rq_mismatch flags and published spurious roots inside."""
    if not -1.0 <= alpha < math.inf:
        raise ValueError(f"alpha = beta^2 - 1 must be >= -1 and finite, got {alpha}")
    pcoeffs = eq.assemble_eta_poly(w, z, alpha)
    pscale = float(np.max(np.abs(pcoeffs)))
    bcoeffs = eq.branch_product_coeffs(w, z, alpha)
    bscale = float(np.max(np.abs(bcoeffs)))
    if pscale < 1e-12 and bscale < 1e-12:
        return eq.Tori3Result(records=(), spurious=(), continuum=True)
    records = []
    spurious = []
    if abs(w * z) < 1e-14:
        records.append(eq.EquilibriumRecord(
            eta=1.0, g=0.0, residual=0.0, w=w, z=z, alpha=alpha,
            flags=("circular", "g_undefined")))
    t_lo = max(w * w, z * z) + 1e-11
    t_roots = eq._isolate_roots(bcoeffs, t_lo, 1.0 - 1e-11) if bscale >= 1e-12 else []
    for t in t_roots:
        eta0 = math.sqrt(t)
        hit = False
        for cosg, gval in ((1.0, 0.0), (-1.0, math.pi)):
            out = eq._polish_branch(eta0, w, z, alpha, cosg)
            if out is None:
                continue
            eta_star, resid = out
            if any(rec.g == gval and abs(rec.eta - eta_star) < 1e-8 for rec in records):
                hit = True
                continue
            R, Q, x = eq.rq_x(eta_star, w, z, alpha)
            rq_p_val, rq_m_val = R * x + Q, R * x - Q
            rq_val = rq_p_val if cosg > 0 else rq_m_val
            flags = []
            if abs(rq_val) > 1e-6 * (1.0 + abs(rq_p_val) + abs(rq_m_val)):
                flags.append("rq_mismatch")
            records.append(eq.EquilibriumRecord(
                eta=eta_star, g=gval, residual=resid, w=w, z=z, alpha=alpha,
                flags=tuple(flags)))
            hit = True
        if not hit:
            spurious.append({"eta": eta0, "reason": "branch-product root; no branch satisfied"})
    if pscale >= 1e-12:
        for r in eq._isolate_roots(pcoeffs, 1e-12, 1.0 + 1e-9):
            r = min(r, 1.0)
            if not any(abs(rec.eta - r) < 1e-6 for rec in records):
                spurious.append({"eta": r,
                                 "reason": "published-polynomial root; no branch satisfied"})
    return eq.Tori3Result(records=tuple(records), spurious=tuple(spurious), continuum=False)


def _sweep_rows_reference(w, z, alpha):
    """The sweep's rows of one cell as they were built from _solve_tori3_reference."""
    base = {"alpha": alpha, "w": w, "z": z, "ia": 0, "iw": 0, "iz": 0}
    try:
        res = _solve_tori3_reference(w, z, alpha)
        beta = math.sqrt(alpha + 1.0)
        rhs_max = [eq.cross_validate(rec, beta).reduced_rhs_max for rec in res.records]
    except Exception as exc:
        return [{**base, "kind": "error", "eta": None, "g": None,
                 "residual": None, "flags": (f"error:{exc}",)}]
    if res.continuum:
        return [{**base, "kind": "continuum", "eta": None, "g": None,
                 "residual": None, "flags": ("degenerate_family",)}]
    rows = [{**base, "kind": "torus3", "eta": rec.eta, "g": rec.g,
             "residual": rec.residual, "flags": rec.flags, "reduced_rhs_max": rhs}
            for rec, rhs in zip(res.records, rhs_max)]
    rows += [{**base, "kind": "spurious", "eta": sp["eta"], "g": None,
              "residual": None, "flags": (sp["reason"],)} for sp in res.spurious]
    if not rows:
        rows.append({**base, "kind": "none", "eta": None, "g": None,
                     "residual": None, "flags": ()})
    return rows


# Cells near alpha = -3/4 with tiny w and z, where the branch product is below
# the 1e-12 scale and the published P(eta) is not: a circular record alone, a
# published spurious root alone, both, and neither.
_ALPHA_BAND_CELLS = [
    (0.0, 5.5e-6, -0.7500000005),
    (0.0, -3.93935146361373e-06, -0.7499999935754317),
    (0.0, 7.6066430796165725e-06, -0.7500000069107784),
    (5.513713804903871e-06, -5.495856200188163e-06, -0.7499999974980907),
    (-6.758794934942181e-07, 8.343355463857045e-06, -0.7499999997022236),
]


def _hexed_row(row):
    return {k: v.hex() if type(v) is float else v for k, v in row.items()}


def _gained(new, old):
    """Match each old (eta, g, flags) to a new record with the same g and flags and eta within 1e-10.

    ``new`` pairs each record with its (eta, g, flags).  Fails on an old
    record without a match; returns the new records left over.
    """
    left = list(new)
    for eta, g, flags in old:
        match = [k for k, (_, (e, gk, fk)) in enumerate(left)
                 if gk == g and fk == flags and abs(e - eta) <= 1e-10]
        assert match, (eta, g, flags)
        del left[match[0]]
    return [rec for rec, _ in left]


def test_sweep_rows_keep_the_bits_of_the_solve_with_the_comparison_inside():
    # off the w z = 0 axes bit for bit; on them every reference record is kept
    # and a spurious row can only go, never come
    key = lambda row: (row["eta"], row["g"], row["flags"])  # noqa: E731
    gained = 0
    for w, z, alpha in _sweep_cells() + _ALPHA_BAND_CELLS:
        rows = eq.sweep([alpha], [w], [z])
        want = _sweep_rows_reference(w, z, alpha)
        if w * z != 0.0:
            assert [_hexed_row(row) for row in rows] == [_hexed_row(row) for row in want]
            continue
        for row in _gained([(row, key(row)) for row in rows if row["kind"] == "torus3"],
                           [key(row) for row in want if row["kind"] == "torus3"]):
            assert row["residual"] <= 1e-9 and row["reduced_rhs_max"] <= 1e-6
            gained += 1
        # the other rows are a subsequence of the reference's
        others = iter([_hexed_row(row) for row in want if row["kind"] != "torus3"])
        assert all(_hexed_row(row) in others for row in rows if row["kind"] not in ("torus3", "none"))
    assert gained >= 2


def test_solve_keeps_the_derived_part_of_the_reference():
    hexed = lambda v: v.hex() if type(v) is float else v  # noqa: E731
    key = lambda rec: (rec.eta, rec.g, rec.flags)  # noqa: E731
    gained = 0
    for w, z, alpha in _sweep_cells() + _ALPHA_BAND_CELLS:
        new = eq.solve_tori3(w, z, alpha)
        old = _solve_tori3_reference(w, z, alpha)
        assert new.continuum == old.continuum
        old_records = [dataclasses.replace(rec, flags=tuple(f for f in rec.flags if f != "rq_mismatch"))
                       for rec in old.records]
        old_spurious = [{k: hexed(v) for k, v in sp.items()} for sp in old.spurious
                        if sp["reason"].startswith("branch-product root")]
        new_spurious = [{k: hexed(v) for k, v in sp.items()} for sp in new.spurious]
        if w * z != 0.0:
            assert [[hexed(v) for v in dataclasses.astuple(rec)] for rec in new.records] == \
                [[hexed(v) for v in dataclasses.astuple(rec)] for rec in old_records]
            assert new_spurious == old_spurious
            continue
        # on the axes the closed-form root: nothing lost, no new spurious root
        for rec in _gained([(rec, key(rec)) for rec in new.records], map(key, old_records)):
            assert rec.residual <= 1e-9
            gained += 1
        spurious = iter(old_spurious)
        assert all(sp in spurious for sp in new_spurious)
    assert gained >= 2


def test_alpha_band_cells_are_no_continuum():
    published = 0
    for w, z, alpha in _ALPHA_BAND_CELLS:
        bscale = max(abs(float(c)) for c in eq.branch_product_coeffs(w, z, alpha))
        pscale = max(abs(float(c)) for c in eq.assemble_eta_poly(w, z, alpha))
        assert bscale < 1e-12 <= pscale
        res = eq.solve_tori3(w, z, alpha)
        assert not res.continuum
        assert [rec.flags for rec in res.records] == \
            ([("circular", "g_undefined")] if abs(w * z) < 1e-14 else [])
        published += len(eq.published_audit(w, z, alpha, res.records)[0])
    assert published >= 2


def test_the_solve_reads_no_printed_form(monkeypatch):
    # rq_x is never called, and the one polynomial isolated is the branch product
    cells = _sweep_cells() + _ALPHA_BAND_CELLS
    want = [eq.solve_tori3(*cell) for cell in cells]
    isolated = []
    isolate_roots = eq._isolate_roots

    def spy(c, lo, hi):
        isolated.append([float(v) for v in c])
        return isolate_roots(c, lo, hi)

    def refuse(*args):
        raise AssertionError("rq_x called")

    monkeypatch.setattr(eq, "rq_x", refuse)
    monkeypatch.setattr(eq, "_isolate_roots", spy)
    # on the w z = 0 axes the one candidate is in closed form: nothing is isolated
    solved = on_axis = 0
    for cell, res in zip(cells, want):
        isolated.clear()
        assert eq.solve_tori3(*cell) == res
        bcoeffs = eq.branch_product_coeffs(*cell).tolist()
        once = (not res.continuum and max(map(abs, bcoeffs)) >= 1e-12
                and cell[0] * cell[1] != 0.0)
        assert isolated == ([bcoeffs] if once else [])
        solved += once
        on_axis += cell[0] * cell[1] == 0.0 and not res.continuum
    assert solved > 100 and on_axis > 300


# -- the branch equations in closed form ---------------------------------------------

def _term_scale(eta, w, z, alpha):
    """|dC01/dG| + |dC11/dG| + |dC21/dG| at G = eta: the size of the terms F sums."""
    terms = normalform._kernel_terms(1.0, complex(eta, model._COMPLEX_STEP), w, z,
                                     math.sqrt(alpha + 1.0), 1.0)
    return sum(abs(v.imag) for v in terms) / model._COMPLEX_STEP


@st.composite
def _branch_points(draw):
    """(eta, w, z, alpha, cosg) where the polish evaluates, a third within 1e-6 of each end."""
    w, z = draw(_RATIO), draw(_RATIO)
    alpha = draw(st.floats(-0.99, 5.0))
    lo = max(abs(w), abs(z))
    frac = draw(st.floats(0.0, 1.0, exclude_min=True))
    eta = draw(st.sampled_from([lo + frac * (1.0 - lo), lo + 1e-6 * frac, 1.0 - 1e-6 * frac]))
    assume(lo + 1e-12 < eta < 1.0)
    return eta, w, z, alpha, draw(st.sampled_from([1.0, -1.0]))


@settings(max_examples=600, deadline=None)
@given(_branch_points())
def test_the_closed_form_is_the_kernel_partial(point):
    # rtol 1e-12 on the size of the terms.  Near eta = max(|w|, |z|) the
    # kernel's 1 - (w/eta)^2 cancels, and loses t/(t - w^2) ulps that the
    # closed form's (eta - w)(eta + w) keeps.  The kernel reads alpha as
    # beta^2 - 1, beta = sqrt(alpha + 1), and the closed form gets that alpha.
    eta, w, z, alpha, cosg = point
    t = eta * eta
    kappa = t / (t - max(w * w, z * z))
    beta = math.sqrt(alpha + 1.0)
    f = eq._branch_model(eta, w, z, beta * beta - 1.0, cosg).real
    assert abs(f - eq.branch_equation(*point)) <= 1e-12 * kappa * _term_scale(eta, w, z, alpha)


@settings(max_examples=200, deadline=None)
@given(_RATIO, _RATIO, st.floats(-0.99, 5.0), st.sampled_from([1.0, -1.0]), st.floats(0.05, 0.95))
def test_the_closed_form_slope_is_the_kernel_slope(w, z, alpha, cosg, frac):
    # a central difference of branch_equation, with a step well inside the domain
    lo = max(abs(w), abs(z))
    eta = lo + frac * (1.0 - lo)
    room = min(eta - lo, 1.0 - eta)
    h = 1e-4 * room
    fd = (eq.branch_equation(eta + h, w, z, alpha, cosg)
          - eq.branch_equation(eta - h, w, z, alpha, cosg)) / (2.0 * h)
    v = eq._branch_model(complex(eta, model._COMPLEX_STEP), w, z, alpha, cosg)
    fp = v.imag / model._COMPLEX_STEP
    assert abs(fp - fd) <= 1e-6 * max(abs(fd), _term_scale(eta, w, z, alpha) / room)


@settings(max_examples=300, deadline=None)
@given(_branch_points())
def test_the_closed_form_keeps_the_branch_symmetries(point):
    # w <-> z, and w -> -w with g -> g + pi, bit for bit in F and in its slope
    eta, w, z, alpha, cosg = point
    x = complex(eta, model._COMPLEX_STEP)
    f = eq._branch_model(x, w, z, alpha, cosg)
    assert eq._branch_model(x, z, w, alpha, cosg) == f
    assert eq._branch_model(x, -w, z, alpha, -cosg) == f
    assert eq._branch_model(x, w, -z, alpha, -cosg) == f


def test_a_polish_asks_the_kernel_once(monkeypatch):
    # one branch_equation call per polish, accepted or not
    w, z, alpha = 0.2, 0.1, 1.0
    starts = [math.sqrt(t) for t in eq._isolate_roots(
        eq.branch_product_coeffs(w, z, alpha), w * w + 1e-11, 1.0 - 1e-11)]
    kernels = _counting(monkeypatch, "branch_equation")
    outs = []
    for eta0 in starts:
        for cosg in (1.0, -1.0):
            kernels.clear()
            outs.append(eq._polish_branch(eta0, w, z, alpha, cosg))
            assert len(kernels) == 1
    assert any(out is None for out in outs) and any(out is not None for out in outs)


def test_an_axis_root_is_polished_once(monkeypatch):
    polishes = _counting(monkeypatch, "_polish_branch")
    for cell in ((0.2, 0.0, 1.0), (0.0, -0.2, 1.0)):
        polishes.clear()
        res = eq.solve_tori3(*cell)
        assert len(polishes) == 1
        assert [rec.g for rec in res.records if not rec.flags] == [0.0, math.pi]


def _axis_root(r, alpha):
    """The eta of (4 alpha + 3) eta^4 = 5 alpha r^2 that solve_tori3 takes, or None when infeasible."""
    den = 4.0 * alpha + 3.0
    t2 = 5.0 * alpha * r * r / den if den != 0.0 else -1.0
    if t2 > 0.0 and r * r + 1e-11 < math.sqrt(t2) < 1.0 - 1e-11:
        return math.sqrt(math.sqrt(t2))
    return None


@settings(max_examples=300, deadline=None)
@given(st.floats(-6.0, math.log10(0.4)), st.booleans(), st.booleans(), st.floats(-0.9, 3.0))
def test_the_axes_carry_the_closed_form_records(log_r, negative, on_w, alpha):
    # every feasible root gives a record at g = 0 and g = pi, and there is no
    # other non-circular record
    r = (-1.0 if negative else 1.0) * 10.0 ** log_r
    w, z = (r, 0.0) if on_w else (0.0, r)
    res = eq.solve_tori3(w, z, alpha)
    assume(not res.continuum)
    recs = [rec for rec in res.records if "circular" not in rec.flags]
    eta = _axis_root(r, alpha)
    if eta is None:
        assert recs == []
    else:
        assert sorted(rec.g for rec in recs) == [0.0, math.pi]
        assert all(abs(rec.eta - eta) <= 1e-10 for rec in recs)


@pytest.mark.parametrize("cell", [(-0.0048, 0.0, 1.137), (0.0, -0.0048, 1.137)],
                         ids=["z_zero", "w_zero"])
def test_an_axis_double_root_is_not_lost(cell):
    # the branch product's double root at t = 4.17e-3 is a complex pair in
    # floats, and the isolation used to return only the circular record here
    res = eq.solve_tori3(*cell)
    recs = [(rec.g, rec.eta) for rec in res.records if "circular" not in rec.flags]
    assert [g for g, _ in recs] == [0.0, math.pi]
    assert all(eta == pytest.approx(0.064542, abs=1e-6) for _, eta in recs)
    assert res.spurious == ()


def test_the_closed_form_is_exact():
    # A, B and D reproduce the kernel's sin g = 0 slice symbolically; on z = 0
    # F's numerator is (4 alpha + 3) t^2 - 5 alpha w^2; and _branch_model's own
    # expression is the G-partial of the kernel to 60 digits at rational points
    sp = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    eta, w, z = sp.symbols("eta w z", positive=True)
    alpha, T = sp.symbols("alpha t", real=True)
    t, W, Z = eta ** 2, w ** 2, z ** 2
    q = (t - W) * (t - Z)
    A = (5 - 3 * t) * (2 + alpha * (2 * W * Z + q) / t ** 2) / 16 + 5 * alpha * (1 - t) * q / (16 * t ** 2)
    B = -alpha * w * z * (5 - t) / (4 * t ** 2)
    D = (1 - t) * q
    with mock.patch.object(normalform, "_sqrt", sp.sqrt):
        c01, c11, c21 = (sp.nsimplify(c, rational=True)
                         for c in normalform._kernel_terms(1, eta, w, z, sp.sqrt(alpha + 1), 1))
    assert sp.cancel(c01 + c21 - A) == 0
    root = sp.powsimp(c11 / B)             # sqrt(D): square roots times eta^2 > 0
    assert all(f.is_positive or f.is_Pow and f.exp == sp.Rational(1, 2)
               for f in sp.Mul.make_args(root))
    assert sp.cancel(root ** 2 - D) == 0
    num = sp.numer(sp.together(sp.diff(A.subs({z: 0, eta: sp.sqrt(T)}), T)))
    assert sp.cancel(num / ((4 * alpha + 3) * T ** 2 - 5 * alpha * W)).free_symbols <= {alpha}

    with mock.patch.object(eq, "cmath", sp):
        gaps = [eq._branch_model(eta, w, z, alpha, cosg) - sp.diff(c01 + cosg * c11 + c21, eta)
                for cosg in (1, -1)]
    gap = sp.lambdify([eta, w, z, alpha], gaps, "mpmath")
    rng = np.random.default_rng(37)
    with mpmath.workdps(60):
        for _ in range(40):
            wv, zv = (mpmath.mpf(int(k)) / 1000 for k in rng.integers(-400, 401, 2))
            lo = max(abs(wv), abs(zv))
            etav = lo + (1 - lo) * mpmath.mpf(int(rng.integers(1, 1000))) / 1000
            av = mpmath.mpf(int(rng.integers(-990, 5001))) / 1000
            assert max(abs(v) for v in gap(etav, wv, zv, av)) < 1e-45
