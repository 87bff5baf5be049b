import copy
from collections import Counter

from qcanon.qarith import LaurentPoly, qint
from qcanon.cartan import parse_quiver_dict
from qcanon.hwmodule import HighestWeightModule
from qcanon import verify

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
    # independent Freudenthal oracle disagrees with the Gram ranks
    orig = HighestWeightModule.coroot_pairing

    def skewed(self, nu, i):
        return orig(self, nu, i) + 1

    monkeypatch.setattr(HighestWeightModule, "coroot_pairing", skewed)
    ctx = ctx_for(a2_adjoint, 2)
    res = verify.suite_counts(ctx)
    assert not res.passed


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


def test_coproduct_suite_expands_each_word_split_once(monkeypatch):
    calls = Counter()
    real = verify.restriction_coproduct

    def counted(q, word, split):
        calls[(word, split)] += 1
        return real(q, word, split)

    monkeypatch.setattr(verify, "restriction_coproduct", counted)
    q, hw = parse_quiver_dict(D4)
    res = verify.suite_coproduct(verify.VerifyContext(q, hw, 4))
    assert res.passed and res.checks == 832
    assert calls and max(calls.values()) == 1
