from dataclasses import replace

import pytest

from qcanon.qarith import LaurentPoly, ZERO, ONE, qint
from qcanon.cartan import HighestWeight, parse_quiver_dict, contents_up_to
from qcanon.hwmodule import HighestWeightModule, ModuleVector, InternalCheckError
from qcanon.canonical import (CanonicalBasis, CBElement, verify_bar_invariant,
                              element_key)
from qcanon import crystalgraph as cg


def vp(k):
    return LaurentPoly.v_power(k)


def build(quiver_hw, hmax, order=None):
    q, hw = quiver_hw
    m = HighestWeightModule(q, hw)
    cb = CanonicalBasis(m, order).compute_up_to(hmax)
    return m, cb


# -- the three running examples ---------------------------------------------------


def test_rank1_string(a1_d3):
    m, cb = build(a1_d3, 5)
    for k in range(6):
        elems = cb.elements((k,))
        assert len(elems) == (1 if k <= 3 else 0)
    for k in range(1, 4):
        (b,) = cb.elements((k,))
        assert b.vector.terms == {((0, k),): ONE}
        assert b.self_pairing.is_one_plus_lower()


def test_a2_fundamental(a2_fund):
    m, cb = build(a2_fund, 3)
    found = [(nu, b.vector.terms) for nu in cb.contents() for b in cb.elements(nu)]
    assert found == [
        ((0, 0), {(): ONE}),
        ((1, 0), {((0, 1),): ONE}),
        ((1, 1), {((1, 1), (0, 1)): ONE}),
    ]


def test_rank_zero_space_is_empty(a2_fund):
    m, cb = build(a2_fund, 3)
    assert cb.elements((0, 1)) == []
    assert cb.elements((2, 0)) == []


def test_a2_adjoint_counts(a2_adjoint):
    m, cb = build(a2_adjoint, 4)
    total = sum(len(cb.elements(nu)) for nu in cb.contents())
    assert total == 8
    assert len(cb.elements((1, 1))) == 2
    for nu in cb.contents():
        assert len(cb.elements(nu)) == m.freudenthal_multiplicity(nu)


# -- invariants ----------------------------------------------------------------------


def test_bar_invariance(a2_adjoint):
    m, cb = build(a2_adjoint, 4)
    for nu in cb.contents():
        for b in cb.elements(nu):
            assert verify_bar_invariant(m, b)
    # monomial vectors are bar-fixed, v-shifted ones are not
    f1 = m.apply_F(0, 1, m.vacuum())
    mono = CBElement((1, 0), f1, (None, 0, None))
    assert verify_bar_invariant(m, mono)
    shifted = f1.scale(vp(1))
    bad = CBElement((1, 0), shifted, (None, 0, None))
    assert not verify_bar_invariant(m, bad)


def test_self_pairings_and_orthogonality(a2_adjoint, kronecker):
    for datum in (a2_adjoint, kronecker):
        m, cb = build(datum, 4)
        for nu in cb.contents():
            elems = cb.elements(nu)
            for s, b in enumerate(elems):
                assert b.self_pairing.is_one_plus_lower()
                assert cb.expand(b.vector) == [ONE if t == s else ZERO
                                               for t in range(len(elems))]
                for t, b2 in enumerate(elems):
                    if s != t:
                        assert m.form(b.vector, b2.vector).in_vinv_span()


def test_schedule_order_invariance(a2_adjoint, kronecker):
    for datum in (a2_adjoint, kronecker):
        m, cb1 = build(datum, 4)
        cb2 = CanonicalBasis(m, (1, 0)).compute_up_to(4)
        for nu in cb1.contents():
            k1 = sorted(element_key(m, b) for b in cb1.elements(nu))
            k2 = sorted(element_key(m, b) for b in cb2.elements(nu))
            assert k1 == k2


def test_orthogonalization_strips_accepted_components(a1_d2):
    m, cb = build(a1_d2, 2)
    (b1,) = cb.elements((1,))
    candidate = b1.vector + b1.vector.scale(qint(2))  # degree-1 pairing excess
    cleaned = cb._orthogonalize(candidate, [b1])
    assert m.is_zero_vector(cleaned)


# -- transitions ------------------------------------------------------------------------


def test_transition_rank1(a1_d3):
    m, cb = build(a1_d3, 3)
    (b,) = cb.elements((2,))
    assert cb.expand(m.apply_F(0, 2, m.vacuum())) == [ONE]


def test_transition_a2_adjoint_zero_weight(a2_adjoint):
    m, cb = build(a2_adjoint, 4)
    graph = cg.build_left_graph(m, cb)
    T = cg.monomial_basis(m, cb, graph, (1, 1), (0, 1))[3]
    assert len(T) == 2
    for t in range(2):
        assert T[t][t] == ONE
        for s in range(t):
            assert not T[s][t]
        for s in range(2):
            if T[s][t]:
                assert T[s][t].is_bar_invariant()
    # v = 1 specialization stays unitriangular with diagonal 1
    T1 = [[c.at_one() for c in row] for row in T]
    assert T1[0][0] == 1 and T1[1][1] == 1 and T1[0][1] == 0


def test_transition_nontrivial_entries():
    # L(2,2) on the rank-2 chain quiver has genuine orthogonalization
    q, _ = parse_quiver_dict({"vertices": ["1", "2"], "edges": [["1", "2"]]})
    m = HighestWeightModule(q, HighestWeight([2, 2]))
    cb = CanonicalBasis(m).compute_up_to(5)
    multi = [b for nu in cb.contents() for b in cb.elements(nu)
             if len(b.vector.terms) > 1]
    assert multi  # corrections really happen
    for b in multi:
        assert b.self_pairing.is_one_plus_lower()
        assert verify_bar_invariant(m, b)


def test_completion_error_on_wrong_rank(a1_d3, monkeypatch):
    from qcanon import canonical
    q, hw = a1_d3
    m = HighestWeightModule(q, hw)
    cb = CanonicalBasis(m)
    # sabotage the t-statistic so the (1,1) seed is skipped at nu = (1,)
    monkeypatch.setattr(canonical.crystalgraph, "t_stat",
                        lambda *a, **k: 1)
    cb.store[(0,)] = cb._compute_content((0,))
    with pytest.raises(canonical.CompletionError):
        cb._compute_content((1,))


# -- Lusztig's closed form in type A2 (independent oracle) ---------------------


@pytest.mark.parametrize("hw", [(1, 1), (2, 1), (2, 2), (3, 3)])
def test_a2_closed_form_monomials_are_the_canonical_basis(hw):
    # Lusztig (J. AMS 1990): the canonical basis of U^- in type A2 is the
    # set of F_i^(a) F_j^(b) F_i^(c) with b >= a + c, {i, j} = {1, 2}; its
    # nonzero images on v are the canonical basis of L(Lambda).  Compared
    # through the pairing zero test only, never through coordinates.
    q, h = parse_quiver_dict({"vertices": ["1", "2"], "edges": [["1", "2"]],
                              "highest_weight": {"1": hw[0], "2": hw[1]}})
    m, cb = build((q, h), 6)
    monomials = {}
    for i, j in [(0, 1), (1, 0)]:
        for a in range(4):
            for c in range(4 - a):
                for b in range(a + c, 4):
                    u = m.vacuum()
                    for k, e in [(i, c), (j, b), (i, a)]:
                        if e:
                            u = m.apply_F(k, e, u)
                    if not m.is_zero_vector(u):
                        monomials.setdefault(u.content, []).append(u)
    for nu in contents_up_to(2, 6):
        if max(nu) > 3:
            continue
        vectors = [e.vector for e in cb.elements(nu)]
        mono = monomials.get(nu, [])
        assert all(any(m.vectors_equal(u, b) for b in vectors) for u in mono)
        assert all(any(m.vectors_equal(u, b) for u in mono) for b in vectors)


# -- canonical-basis coordinates against a reconstruction oracle -----------------

# name -> (quiver document, height bound)
EXPAND_DATA = {
    "a2_adjoint": ({"vertices": ["1", "2"], "edges": [["1", "2"]],
                    "highest_weight": {"1": 1, "2": 1}}, 5),
    "kronecker": ({"vertices": ["1", "2"], "edges": [["1", "2"]] * 2,
                   "highest_weight": {"1": 1, "2": 0}}, 6),
    "kronecker3": ({"vertices": ["1", "2"], "edges": [["1", "2"]] * 3,
                    "highest_weight": {"1": 1, "2": 0}}, 5),
    "d4": ({"vertices": ["c", "1", "2", "3"],
            "edges": [["1", "c"], ["2", "c"], ["3", "c"]],
            "highest_weight": {"c": 1}}, 5),
}


@pytest.mark.parametrize("name", sorted(EXPAND_DATA))
def test_expand_reconstructs_every_basis_word_and_image(name):
    # the oracle rebuilds u from its coordinates and tests the difference
    # with the self-pairing zero test: it reads neither the Gram matrix of
    # the elements nor the recurrence that expand solves with
    datum, hmax = EXPAND_DATA[name]
    m, cb = build(parse_quiver_dict(datum), hmax)
    checked = 0
    for nu in contents_up_to(m.quiver.n, hmax):
        elems = cb.elements(nu)
        vectors = [m.monomial_vector(w) for w in m.weight_space(nu).basis]
        for i in range(m.quiver.n):
            for r in range(1, nu[i] + 1):
                low = tuple(x - (r if k == i else 0) for k, x in enumerate(nu))
                vectors.extend(m.apply_F(i, r, m.monomial_vector(w))
                               for w in m.weight_space(low).basis)
        for u in vectors:
            x = cb.expand(u)
            assert len(x) == len(elems)
            assert all(isinstance(c, LaurentPoly) for c in x)
            rebuilt = ModuleVector(nu)
            for c, b in zip(x, elems):
                rebuilt = rebuilt + b.vector.scale(c)
            assert m.is_zero_vector(u - rebuilt)
            checked += 1
    assert checked > 0


def test_expand_rejects_a_gram_matrix_off_the_lattice():
    # an element scaled by v^-1 pairs with itself in v^-2 + ..., outside
    # 1 + v^-1 Z[v^-1]: the Gram check refuses to expand against it
    datum, _ = EXPAND_DATA["kronecker"]
    m, cb = build(parse_quiver_dict(datum), 4)
    nu = (2, 2)
    u = m.apply_F(1, 2, m.monomial_vector(((0, 2),)))
    assert len(cb.expand(u)) == len(cb.elements(nu)) == 2
    mutated = CanonicalBasis(m)
    mutated.store = dict(cb.store)
    elems = list(cb.elements(nu))
    elems[0] = replace(elems[0], vector=elems[0].vector.scale(vp(-1)))
    mutated.store[nu] = elems
    with pytest.raises(InternalCheckError, match="Gram entry"):
        mutated.expand(u)
