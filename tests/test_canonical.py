import pytest

from qcanon.qarith import LaurentPoly, ONE, RF_ONE, qint
from qcanon.cartan import HighestWeight, parse_quiver_dict, contents_up_to
from qcanon.hwmodule import HighestWeightModule, ModuleVector
from qcanon.canonical import (CanonicalBasis, CBElement, verify_bar_invariant,
                              transition_matrix, element_key)
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
    mono = CBElement((1, 0), f1, m.coordinates(f1), (None, 0, None))
    assert verify_bar_invariant(m, mono)
    shifted = f1.scale(vp(1))
    bad = CBElement((1, 0), shifted, m.coordinates(shifted), (None, 0, None))
    assert not verify_bar_invariant(m, bad)


def test_self_pairings_and_orthogonality(a2_adjoint, kronecker):
    for datum in (a2_adjoint, kronecker):
        m, cb = build(datum, 4)
        for nu in cb.contents():
            elems = cb.elements(nu)
            for s, b in enumerate(elems):
                assert b.self_pairing.is_one_plus_lower()
                assert all(c.is_laurent() for c in b.coords)
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
    T = transition_matrix(m, [b], [m.apply_F(0, 2, m.vacuum())])
    assert T == [[RF_ONE]]


def test_transition_a2_adjoint_zero_weight(a2_adjoint):
    m, cb = build(a2_adjoint, 4)
    graph = cg.build_left_graph(m, cb)
    positions, paths, vectors = cg.monomial_basis(m, cb, graph, (1, 1), (0, 1))
    elems = [cb.elements((1, 1))[p] for p in positions]
    T = transition_matrix(m, elems, vectors)
    assert len(T) == 2
    for t in range(2):
        assert T[t][t] == RF_ONE
        for s in range(t):
            assert not T[s][t]
        for s in range(2):
            if T[s][t]:
                entry = T[s][t].as_laurent()
                assert entry.is_bar_invariant()
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
