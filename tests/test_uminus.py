import copy
import itertools
import random
from collections import Counter

import pytest

from qcanon.qarith import LaurentPoly, ZERO, ONE, qint, qbinom
from qcanon.cartan import contents_of_height, contents_up_to
from qcanon.uminus import (UMinusElement, EMPTY_WORD, mono_mul, word_str,
                           word_content, count_words, normalized_words)
from qcanon.coproduct import (restriction_coproduct, rbar, ibar, rbar_derivation,
                              ibar_derivation, serre_element)
from qcanon import coproduct, uminus, verify
from qcanon.cartan import parse_quiver_dict

from oracles import normalize_slots, shift_exponent, slotwise_coproduct

KRON3 = {"vertices": ["1", "2"], "edges": [["1", "2"]] * 3, "highest_weight": {"1": 1}}
D4 = {"vertices": ["c", "1", "2", "3"], "edges": [["1", "c"], ["2", "c"], ["3", "c"]],
      "highest_weight": {"c": 1}}
A3 = {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]]}
WILD3 = {"vertices": ["1", "2", "3"], "edges": [["1", "2"]] * 2 + [["2", "3"]] * 2}


def vp(k):
    return LaurentPoly.v_power(k)


def mono(q, word):
    return UMinusElement.monomial(q, word) if word else UMinusElement.unit(q)


def all_words(q, hmax):
    out = []
    for h in range(hmax + 1):
        for nu in contents_of_height(q.n, h):
            out.extend(normalized_words(nu))
    return out


# -- product -----------------------------------------------------------------


def test_mono_mul_merges_equal_vertices(a1_d3):
    q, _ = a1_d3
    x = mono(q, ((0, 1),))
    assert mono_mul(x, x).terms == {((0, 2),): qint(2)}


def test_mono_mul_unit_and_concatenation(a2_adjoint):
    q, _ = a2_adjoint
    x = mono(q, ((0, 1),))
    assert mono_mul(UMinusElement.unit(q), x).terms == x.terms
    y = mono(q, ((1, 1),))
    assert mono_mul(x, y).terms == {((0, 1), (1, 1)): ONE}


def test_mono_mul_associative_on_random_monomials(a2_adjoint, kronecker):
    rng = random.Random(11)
    for q, _ in (a2_adjoint, kronecker):
        words = [w for w in all_words(q, 6) if w]
        for _ in range(100):
            x, y, z = (mono(q, words[rng.randrange(len(words))]) for _ in range(3))
            left = mono_mul(mono_mul(x, y), z)
            right = mono_mul(x, mono_mul(y, z))
            assert left.content == right.content and left.terms == right.terms


def test_divided_power_merge_scalar(a1_d3):
    q, _ = a1_d3
    for a in range(1, 4):
        for b in range(1, 4):
            prod = mono_mul(mono(q, ((0, a),)), mono(q, ((0, b),)))
            assert prod.terms == {((0, a + b),): qbinom(a + b, a)}


def test_word_text_form(a2_adjoint):
    q, _ = a2_adjoint
    w = ((0, 2), (1, 1), (0, 1))
    assert word_str(w, q) == "1^2.2^1.1^1"
    assert word_str(EMPTY_WORD, q) == "1"


# -- restriction coproduct ------------------------------------------------------


def test_word_count_matches_the_enumeration(a2_adjoint):
    # the count is memoized for the process: start empty, ask for the
    # tallest contents first, and let two quivers on two vertices share it
    uminus._count_from.cache_clear()
    for (q, _), hmax in ((a2_adjoint, 8), (parse_quiver_dict(KRON3), 7),
                         (parse_quiver_dict(D4), 5)):
        for nu in reversed(contents_up_to(q.n, hmax)):
            assert count_words(nu) == len(list(normalized_words(nu))), nu


def components(q, word, tau_content):
    """The coproduct terms of a word whose first factor has the given content."""
    return [(t, o, c) for t, o, c in restriction_coproduct(q, word)
            if word_content(t, q.n) == tau_content]


def five_term_shift(quiver, slots, bs):
    """Oracle for ``oracles.shift_exponent``: Lusztig's shift M(tau, omega)
    as its five terms, in order: the cross term over edge pairs with
    l' < l, the global edge term on total dimensions, the two same-vertex
    slot-order terms, and the global same-vertex term."""
    n = quiver.n
    k = len(slots)
    cs = [slots[l][1] - bs[l] for l in range(k)]
    tau = [0] * n
    omega = [0] * n
    for l in range(k):
        tau[slots[l][0]] += bs[l]
        omega[slots[l][0]] += cs[l]
    m = 0
    # - sum_{h in H, l' < l} (tau^{l'}_{h'} omega^{l}_{h''} + tau^{l'}_{h''} omega^{l}_{h'})
    for lp in range(k):
        for l in range(lp + 1, k):
            m -= 2 * quiver.a[slots[lp][0]][slots[l][0]] * bs[lp] * cs[l]
    # + sum_{h in H} (dim T_{h'} dim W_{h''} + dim T_{h''} dim W_{h'})
    m += 2 * sum(quiver.a[i][j] * tau[i] * omega[j] for i in range(n) for j in range(n))
    # - sum_{i, l < l'} tau_i^{l'} omega_i^{l}  and  + sum_{i, l > l'} ...
    for lp in range(k):
        for l in range(k):
            if l != lp and slots[l][0] == slots[lp][0]:
                m += (1 if l > lp else -1) * bs[lp] * cs[l]
    # - sum_i dim T_i dim W_i
    m -= sum(tau[i] * omega[i] for i in range(n))
    return m


def random_word(rng, n, slots=6, mult=3):
    word = []
    for _ in range(rng.randint(1, slots)):
        i = rng.choice([j for j in range(n) if not word or j != word[-1][0]])
        word.append((i, rng.randint(1, mult)))
    return tuple(word)


SHIFT_DATA = (KRON3, D4, A3, WILD3)


@pytest.mark.parametrize("datum", SHIFT_DATA, ids=("kronecker3", "d4", "a3", "wild3"))
def test_one_scan_shift_matches_the_five_terms(datum):
    q, _ = parse_quiver_dict(datum)
    rng = random.Random(16)
    for _ in range(40):
        w = random_word(rng, q.n)
        for bs in itertools.product(*(range(a + 1) for _, a in w)):
            assert shift_exponent(q, w, bs) == five_term_shift(q, w, bs), (w, bs)


def extraction_oracle(q, w, i, right, twisted):
    """Slot extraction with each term's exponent from the five-term shift
    and the twist -sum_k a_ik mu_k read off the content mu beside the slot."""
    out = {}
    for l, (j, a) in enumerate(w):
        if j != i:
            continue
        bs = [b for _, b in w] if right else [0] * len(w)
        bs[l] = a - 1 if right else 1
        m = five_term_shift(q, w, bs)
        if twisted:
            mu = word_content(w[l + 1:] if right else w[:l], q.n)
            m -= sum(q.a[i][k] * mu[k] for k in range(q.n))
        reduced, scal = normalize_slots(w[:l] + ((i, a - 1),) + w[l + 1:])
        out[reduced] = out.get(reduced, ZERO) + vp(m) * scal
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("datum", SHIFT_DATA, ids=("kronecker3", "d4", "a3", "wild3"))
def test_extraction_exponents_match_the_five_terms(datum):
    q, _ = parse_quiver_dict(datum)
    rng = random.Random(17)
    for _ in range(60):
        w = random_word(rng, q.n)
        c = LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(3)}) or ONE
        x = UMinusElement.monomial(q, w, c)
        for i in {i for i, _ in w}:
            for extract, right, twisted in ((rbar, True, False), (ibar, False, False),
                                            (rbar_derivation, True, True),
                                            (ibar_derivation, False, True)):
                expect = extraction_oracle(q, w, i, right, twisted)
                assert extract(q, x, i).terms == {k: v * c for k, v in expect.items()}


def test_coproduct_spec_examples(a2_adjoint):
    q, _ = a2_adjoint
    m = ((0, 1), (1, 1))
    assert components(q, m, (1, 0)) == [(((0, 1),), ((1, 1),), ONE)]
    assert components(q, m, (0, 1)) == [(((1, 1),), ((0, 1),), vp(2))]
    assert components(q, m, (1, 1)) == [(m, EMPTY_WORD, ONE)]
    assert components(q, m, (0, 0)) == [(EMPTY_WORD, m, ONE)]


def test_coproduct_v1_counts_match_classical_binomials(a2_adjoint):
    # at v = 1 each tau content's coefficients add up to its number of
    # slotwise splittings; no merges are possible in this word
    q, _ = a2_adjoint
    w = ((0, 2), (1, 2))
    splittings = Counter(
        word_content(tuple(zip((i for i, _ in w), bs)), q.n)
        for bs in itertools.product(*(range(a + 1) for _, a in w)))
    assert len(splittings) == 9
    for tau_content, count in splittings.items():
        assert sum(c.at_one() for _, _, c in components(q, w, tau_content)) == count


def as_data(terms):
    return [(t, o, c.c) for t, o, c in terms]


@pytest.mark.parametrize("datum", SHIFT_DATA, ids=("kronecker3", "d4", "a3", "wild3"))
def test_suffix_coproduct_matches_the_slotwise_pass_on_random_words(datum):
    q, _ = parse_quiver_dict(datum)
    rng = random.Random(25)
    for _ in range(60):
        w = random_word(rng, q.n)
        assert as_data(restriction_coproduct(q, w)) == as_data(slotwise_coproduct(q, w)), w


def test_suffix_coproduct_matches_the_slotwise_pass_up_to_height_5():
    for datum in (D4, KRON3):
        q, _ = parse_quiver_dict(datum)
        words = all_words(q, 5)
        assert len(words) > 60
        for w in words:
            assert as_data(restriction_coproduct(q, w)) == as_data(slotwise_coproduct(q, w)), w


def test_a_verify_run_leaves_the_memoized_coproducts_unchanged():
    # the components are kept for the process and handed out in new lists;
    # no suite may write into them or into their coefficients
    q, hw = parse_quiver_dict(D4)
    coproduct._coproduct.cache_clear()
    for r in verify.run_suites(verify.VerifyContext(q, hw, 4), verify.DEFAULT_SUITES):
        assert r.passed, (r.name, r.failures)
    info = coproduct._coproduct.cache_info()
    assert info.hits and info.currsize
    words = [w for w in all_words(q, 4) if w]
    for w in words:
        assert as_data(restriction_coproduct(q, w)) == as_data(slotwise_coproduct(q, w)), w
    assert coproduct._coproduct.cache_info().currsize == info.currsize
    first = restriction_coproduct(q, words[-1])
    first.clear()
    assert restriction_coproduct(q, words[-1])


def test_the_coproduct_memo_is_keyed_by_the_arrow_matrix():
    # a copy of the quiver with one arrow fewer gets its own coproducts
    q, _ = parse_quiver_dict(KRON3)
    w = ((1, 1), (0, 1))
    fewer = copy.deepcopy(q)
    fewer.a[0][1] -= 1
    fewer.a[1][0] -= 1
    assert restriction_coproduct(fewer, w) != restriction_coproduct(q, w)
    assert as_data(restriction_coproduct(fewer, w)) == as_data(slotwise_coproduct(fewer, w))


def test_coproduct_components_are_the_extractions(a2_adjoint):
    # the coproduct's terms with one factor F_i are rbar (second factor) and
    # ibar (first factor), read off the full slotwise pass
    for q, _ in (a2_adjoint, parse_quiver_dict(KRON3), parse_quiver_dict(D4)):
        for nu in contents_up_to(q.n, 4):
            for w in normalized_words(nu):
                delta = restriction_coproduct(q, w)
                x = mono(q, w)
                for i in {i for i, _ in w}:
                    single = ((i, 1),)
                    assert rbar(q, x, i).terms == {
                        t: c for t, o, c in delta if o == single}, (w, i)
                    assert ibar(q, x, i).terms == {
                        o: c for t, o, c in delta if t == single}, (w, i)


# -- derivations -----------------------------------------------------------------


def test_rbar_examples(a1_d3, a2_adjoint):
    q1, _ = a1_d3
    assert rbar(q1, mono(q1, ((0, 1),)), 0).terms == {EMPTY_WORD: ONE}
    assert rbar(q1, mono(q1, ((0, 2),)), 0).terms == {((0, 1),): vp(-1)}
    q2, _ = a2_adjoint
    got = ibar(q2, mono(q2, ((0, 1), (1, 1))), 1)
    assert got.terms == {((0, 1),): vp(2)}


def test_rbar_of_missing_vertex_is_zero(a2_adjoint):
    q, _ = a2_adjoint
    x = mono(q, ((0, 2),))
    assert not rbar(q, x, 1).terms
    assert not ibar_derivation(q, x, 1).terms


def test_derivations_satisfy_hand_rolled_leibniz(a2_adjoint, kronecker):
    # independent recursions live in the verify module; exercised here on
    # every word of height <= 5
    from qcanon.verify import _right_leibniz, _left_leibniz, _leibniz_twists
    for q, _ in (a2_adjoint, kronecker):
        for w in all_words(q, 5):
            x = mono(q, w)
            for i in range(q.n):
                if word_content(w, q.n)[i] == 0:
                    continue
                cop, der = _leibniz_twists(q, i)
                assert rbar(q, x, i).terms == _right_leibniz(q, w, i, cop)
                assert ibar(q, x, i).terms == _left_leibniz(q, w, i, cop)
                assert rbar_derivation(q, x, i).terms == _right_leibniz(q, w, i, der)
                assert ibar_derivation(q, x, i).terms == _left_leibniz(q, w, i, der)


def test_single_slot_derivation_values(a1_d3):
    # r(F^{(n)}) = v^{1-n} F^{(n-1)} in every convention
    q, _ = a1_d3
    for n in range(1, 6):
        x = mono(q, ((0, n),))
        expect = {((0, n - 1),): vp(1 - n)} if n > 1 else {EMPTY_WORD: ONE}
        assert rbar(q, x, 0).terms == expect
        assert rbar_derivation(q, x, 0).terms == expect
        assert ibar(q, x, 0).terms == expect


def test_coassociativity_shadow(a2_adjoint):
    from qcanon.verify import _coassoc_holds
    q, _ = a2_adjoint
    for w in all_words(q, 4):
        if w:
            assert _coassoc_holds(q, w)


# -- Serre elements -----------------------------------------------------------------


def test_serre_element_a2(a2_adjoint):
    q, _ = a2_adjoint
    s = serre_element(q, 0, 1)
    assert s.terms == {
        ((1, 1), (0, 2)): ONE,
        ((0, 1), (1, 1), (0, 1)): LaurentPoly(-1),
        ((0, 2), (1, 1)): ONE,
    }


def test_serre_element_disconnected():
    from qcanon.cartan import parse_quiver_dict
    q, _ = parse_quiver_dict({"vertices": ["1", "2"], "edges": []})
    s = serre_element(q, 0, 1)
    assert s.terms == {((1, 1), (0, 1)): ONE, ((0, 1), (1, 1)): LaurentPoly(-1)}


def test_serre_element_kronecker(kronecker):
    q, _ = kronecker
    s = serre_element(q, 0, 1)
    assert len(s.terms) == 4
    assert s.terms[((1, 1), (0, 3))] == ONE
    assert s.terms[((0, 1), (1, 1), (0, 2))] == LaurentPoly(-1)
    assert s.terms[((0, 2), (1, 1), (0, 1))] == ONE
    assert s.terms[((0, 3), (1, 1))] == LaurentPoly(-1)
    with pytest.raises(ValueError):
        serre_element(q, 1, 1)


def test_normalize_slots_merges_across_dropped_slots():
    word, scal = normalize_slots([(0, 1), (1, 0), (0, 2)])
    assert word == ((0, 3),)
    assert scal == qbinom(3, 1)
