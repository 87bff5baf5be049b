import copy
from collections import Counter

import pytest

from qcanon.qarith import LaurentPoly, qint, qbinom, qfact
from qcanon.cartan import contents_up_to, parse_quiver_dict
from qcanon.hwmodule import HighestWeightModule
from qcanon.canonical import CanonicalBasis, CompletionError
from qcanon.uminus import normalized_words, word_str
from qcanon import qarith, verify

KRON3 = {"vertices": ["1", "2"], "edges": [["1", "2"]] * 3,
         "highest_weight": {"1": 1, "2": 0}}
D4 = {"vertices": ["c", "1", "2", "3"],
      "edges": [["1", "c"], ["2", "c"], ["3", "c"]],
      "highest_weight": {"c": 1}}


def ctx_for(datum, hmax):
    q, hw = datum
    return verify.VerifyContext(q, hw, hmax)


def test_all_suites_pass_on_adjoint(a2_adjoint):
    ctx = ctx_for(a2_adjoint, 4)
    results = verify.run_suites(ctx, verify.DEFAULT_SUITES)
    for r in results:
        assert r.passed, (r.name, r.failures)
        assert r.checks > 0


def test_all_suites_pass_on_kronecker(kronecker):
    ctx = ctx_for(kronecker, 3)
    for r in verify.run_suites(ctx, verify.DEFAULT_SUITES):
        assert r.passed, (r.name, r.failures)


def test_suites_are_deterministic(a2_fund):
    r1 = verify.run_suites(ctx_for(a2_fund, 3), ["contravariance", "coproduct"])
    r2 = verify.run_suites(ctx_for(a2_fund, 3), ["contravariance", "coproduct"])
    assert [(r.name, r.checks, r.failures) for r in r1] == \
        [(r.name, r.checks, r.failures) for r in r2]


def test_injected_sign_error_is_detected(a2_adjoint, monkeypatch):
    # flip the sign of the E action: the derivation-identity suite must
    # fail and print a counterexample monomial
    orig = HighestWeightModule.apply_E

    def flipped(self, i, u):
        return orig(self, i, u).scale(LaurentPoly(-1))

    monkeypatch.setattr(HighestWeightModule, "apply_E", flipped)
    ctx = ctx_for(a2_adjoint, 3)
    res = verify.suite_derivation(ctx)
    assert not res.passed
    assert any("1^" in msg or "2^" in msg for msg in res.failures)


def test_injected_pairing_error_is_detected(a2_adjoint, monkeypatch):
    # a uniform skew of the coroot pairing mimics a different highest
    # weight: the operator relations stay self-consistent, but the
    # independent Weyl-Kac oracle disagrees with the module.  The basis
    # build counts its elements against that oracle, so it stops before the
    # counts suite could run; the Gram ranks disagree with the oracle too
    orig = HighestWeightModule.coroot_pairing

    def skewed(self, nu, i):
        return orig(self, nu, i) + 1

    monkeypatch.setattr(HighestWeightModule, "coroot_pairing", skewed)
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    with pytest.raises(CompletionError, match="Weyl-Kac multiplicity"):
        CanonicalBasis(m).compute_up_to(2)
    assert any(m.weight_space(nu).rank != m.freudenthal_multiplicity(nu)
               for nu in contents_up_to(q.n, 2))


def test_wrong_quantum_integer_fails_relations(monkeypatch):
    # [E_i, F_i] u = [<wt, a_i^vee>] u is compared through the self-pairing
    # zero test; with [n] off by one every one of these checks must fail
    monkeypatch.setattr(verify, "qint", lambda n: qint(n) + 1)
    q, hw = parse_quiver_dict(KRON3)
    res = verify.suite_relations(verify.VerifyContext(q, hw, 3))
    assert not res.passed
    assert res.checks == 90 and len(res.failures) == 30
    assert sum(msg.startswith("[E") for msg in res.failures) == 10


def test_wrong_serre_exponent_fails_serre():
    # the module keeps the true 3-Kronecker quiver; the suite reads a copy
    # whose arrow count is one short, so its Serre elements do not vanish
    q, hw = parse_quiver_dict(KRON3)
    ctx = verify.VerifyContext(q, hw, 3)
    assert verify.suite_serre(ctx).passed
    wrong = copy.deepcopy(q)
    wrong.a[0][1] -= 1
    wrong.a[1][0] -= 1
    ctx.quiver = wrong
    res = verify.suite_serre(ctx)
    assert not res.passed
    assert res.checks == 20 and len(res.failures) == 9


def test_contravariance_draws_no_vacuous_pair(monkeypatch):
    # over every word of a content, u = 0 in the module in 48 of 100 draws
    # on 3-Kronecker h=6 and 77 on D4 h=4; over the bases of nonzero weight
    # spaces one step apart neither u nor w is ever 0
    real = verify._random_vector
    drawn = []

    def recorded(m, nu, rng):
        drawn.append(real(m, nu, rng))
        return drawn[-1]

    monkeypatch.setattr(verify, "_random_vector", recorded)
    for datum, hmax in ((KRON3, 6), (D4, 4)):
        drawn.clear()
        ctx = ctx_for(parse_quiver_dict(datum), hmax)
        m, n = ctx.module, ctx.quiver.n
        assert verify.suite_contravariance(ctx).checks == 100
        assert len(drawn) == 200
        for u, w in zip(drawn[::2], drawn[1::2]):
            assert not m.is_zero_vector(u), u
            assert not m.is_zero_vector(w), w
            assert sum(w.content) == sum(u.content) + 1


def test_contravariance_makes_no_check_without_a_nonzero_pair():
    # at Lambda = 0 only L_0 is nonzero, so no (nu, i) has L_{nu + alpha_i} != 0
    datum = parse_quiver_dict({"vertices": ["1", "2"], "edges": [["1", "2"]],
                               "highest_weight": {"1": 0, "2": 0}})
    res = verify.suite_contravariance(ctx_for(datum, 2))
    assert res.passed and res.checks == 0


def test_coproduct_suite_expands_each_word_once(monkeypatch):
    calls = Counter()
    real = verify.restriction_coproduct

    def counted(q, word):
        calls[word] += 1
        return real(q, word)

    monkeypatch.setattr(verify, "restriction_coproduct", counted)
    q, hw = parse_quiver_dict(D4)
    res = verify.suite_coproduct(verify.VerifyContext(q, hw, 4))
    assert res.passed and res.checks == 832
    assert calls and max(calls.values()) == 1


def test_coproduct_suite_catches_a_height_dependent_shift(monkeypatch):
    # every coproduct term gains v^|tau|: the left side of coassociativity
    # gains v^(2|t1| + |t2|) and the right side v^(|t1| + |t2|), so every
    # word of positive height fails once
    real = verify.restriction_coproduct

    def shifted(q, word):
        terms = real(q, word)
        return [(tau, om, c.shift(sum(a for _, a in tau))) for tau, om, c in terms]

    monkeypatch.setattr(verify, "restriction_coproduct", shifted)
    q, hw = parse_quiver_dict(D4)
    ctx = verify.VerifyContext(q, hw, 3)
    words = [w for nu in contents_up_to(q.n, 3) if any(nu)
             for w in normalized_words(nu)]
    res = verify.suite_coproduct(ctx)
    assert len(words) == len(res.failures) == 84
    assert sorted(res.failures) == sorted(
        f"coassociativity fails on {word_str(w, q)}" for w in words)


def test_coassociativity_sees_one_unit_moved_by_v_squared(monkeypatch):
    # one unit of one coefficient of the coproduct of a height-2 word u moves
    # from v^k to v^(k+2), which keeps every value at v = 1.  On a word w of
    # height 3 with two distinct vertices that has u as a tau factor, the
    # moved unit lands on keys (t, o, om) of the left side and (tau, t, o)
    # of the right side, which never coincide, so only a comparison at
    # every exponent sees it
    real = verify.restriction_coproduct
    for datum in (D4, KRON3):
        q, _ = parse_quiver_dict(datum)
        words = [w for nu in contents_up_to(q.n, 3) if sum(nu) == 3
                 for w in normalized_words(nu) if len({i for i, _ in w}) > 1]
        assert words
        for w in words:
            assert verify._coassoc_holds(q, w)
            u = next(t for t, _, _ in real(q, w) if sum(a for _, a in t) == 2)
            terms = real(q, u)
            s = next(s for s, (t, o, _) in enumerate(terms) if t and o)
            t, o, c = terms[s]
            e = min(c.c)
            moved = c + LaurentPoly({e: -1, e + 2: 1})
            assert moved != c and moved.at_one() == c.at_one()
            bad = terms[:s] + [(t, o, moved)] + terms[s + 1:]

            def patched(q1, word, u=u, bad=bad):
                return bad if word == u else real(q1, word)

            monkeypatch.setattr(verify, "restriction_coproduct", patched)
            assert not verify._coassoc_holds(q, w), w
            monkeypatch.setattr(verify, "restriction_coproduct", real)


def _fresh_qint(n):
    if n < 0:
        return -_fresh_qint(-n)
    return LaurentPoly({n - 1 - 2 * m: 1 for m in range(n)})


def _fresh_qbinom(n, k):
    num = den = LaurentPoly(1)
    for s in range(1, k + 1):
        num = num * _fresh_qint(n - s + 1)
        den = den * _fresh_qint(s)
    return num.divexact(den)


def _fresh_qfact(n):
    out = LaurentPoly(1)
    for m in range(2, n + 1):
        out = out * _fresh_qint(m)
    return out


def test_cached_quantum_numbers_are_unchanged_by_a_verify_run(a2_adjoint):
    # qint, qbinom and qfact hand out shared values; no code path, and no
    # accumulator of the form sums, may write into one
    qarith.qint.cache_clear()
    qarith.qbinom.cache_clear()
    qarith.qfact.cache_clear()
    for r in verify.run_suites(ctx_for(a2_adjoint, 4), verify.DEFAULT_SUITES):
        assert r.passed, (r.name, r.failures)
    assert qarith.qint.cache_info().hits and qarith.qbinom.cache_info().hits
    assert qarith.qfact.cache_info().hits
    for n in range(-12, 13):
        assert qint(n).c == _fresh_qint(n).c
        for k in range(9):
            assert qbinom(n, k).c == _fresh_qbinom(n, k).c
    for n in range(13):
        assert qfact(n).c == _fresh_qfact(n).c


def test_crystal_suite_compares_elements_across_schedules(kronecker):
    # the vertex lists of the two graphs only count elements: a self-pairing
    # that differs between the schedules must fail the invariance check
    ctx = ctx_for(kronecker, 3)
    assert verify.suite_crystal(ctx).passed
    nu = [nu for nu in ctx.cb.contents() if ctx.cb.elements(nu)][-1]
    b = ctx.cb.elements(nu)[0]
    b.self_pairing = b.self_pairing + LaurentPoly({-1: 1})
    res = verify.suite_crystal(ctx)
    assert res.failures == ["left graph differs under a permuted vertex order"]
