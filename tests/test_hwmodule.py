import random

import pytest

from qcanon.qarith import (LaurentPoly, RatFunc, ZERO, ONE, qint, qfact, qbinom,
                           lp_rank, rf_solve)
from qcanon.cartan import (HighestWeight, contents_of_height, contents_up_to,
                           parse_quiver_dict)
from qcanon.hwmodule import (HighestWeightModule, ModuleVector,
                             ResourceCapError, weight_space_report)


def vp(k):
    return LaurentPoly.v_power(k)


# -- rank-1 brute-force oracle (non-divided powers) ---------------------------


class Rank1Oracle:
    """F^k v with E acting through [E, F] = (K - K^-1)/(v - v^-1) only."""

    def __init__(self, d):
        self.d = d

    def e_coeff(self, k):
        # E F^k v = e_coeff(k) * F^(k-1) v, from the commutator recursion
        if k == 0:
            return ZERO
        return self.e_coeff(k - 1) + qint(self.d - 2 * (k - 1))

    def pair(self, j, k):
        # (F^j v, F^k v) via (F x, y) = v (x, K^- E y)
        if j != k:
            return ZERO
        if j == 0:
            return ONE
        scal = vp(1 - (self.d - 2 * (k - 1)))
        return scal * self.e_coeff(k) * self.pair(j - 1, k - 1)


def test_apply_e_matches_rank1_oracle(a1_d3):
    q, _ = a1_d3
    for d in range(0, 5):
        m = HighestWeightModule(q, HighestWeight([d]))
        oracle = Rank1Oracle(d)
        for n in range(1, 6):
            u = m.apply_F(0, n, m.vacuum())
            got = m.apply_E(0, u)
            expect = oracle.e_coeff(n).divexact(qint(n))
            target = {((0, n - 1),): expect} if n > 1 else {(): expect}
            if not expect:
                target = {}
            assert got.terms == target
            # and the stated divided-power coefficient [d - n + 1]
            assert expect == qint(d - n + 1)


def test_form_matches_rank1_oracle_and_closed_form(a1_d3):
    q, _ = a1_d3
    for d in range(0, 5):
        m = HighestWeightModule(q, HighestWeight([d]))
        oracle = Rank1Oracle(d)
        for k in range(0, 5):
            u = m.apply_F(0, k, m.vacuum()) if k else m.vacuum()
            got = m.form(u, u)
            expect = oracle.pair(k, k).divexact(qfact(k) * qfact(k))
            assert got == expect
            assert got == vp(-k * (d - k)) * qbinom(d, k)


# -- operator examples ----------------------------------------------------------


def test_apply_f_examples(a1_d3, a2_adjoint):
    q1, hw3 = a1_d3
    m = HighestWeightModule(q1, hw3)
    v = m.vacuum()
    assert m.apply_F(0, 1, v).terms == {((0, 1),): ONE}
    assert m.apply_F(0, 1, m.apply_F(0, 1, v)).terms == {((0, 2),): qint(2)}
    q2, hw = a2_adjoint
    m2 = HighestWeightModule(q2, hw)
    assert m2.apply_F(1, 1, m2.apply_F(0, 1, m2.vacuum())).terms == \
        {((1, 1), (0, 1)): ONE}


def test_apply_e_examples(a1_d3):
    q, hw = a1_d3
    m = HighestWeightModule(q, hw)
    v = m.vacuum()
    assert m.apply_E(0, v).terms == {}
    assert m.apply_E(0, m.apply_F(0, 1, v)).terms == {(): qint(3)}


def test_apply_k_examples(a1_d3, a1_d2):
    q, hw3 = a1_d3
    m = HighestWeightModule(q, hw3)
    v = m.vacuum()
    assert m.apply_K(0, +1, v).terms == {(): vp(3)}
    q2, hw2 = a1_d2
    m2 = HighestWeightModule(q2, hw2)
    f = m2.apply_F(0, 1, m2.vacuum())
    assert m2.apply_K(0, +1, f).terms == f.terms  # pairing 0 at d=2, nu=1
    assert m2.apply_K(0, -1, m2.apply_K(0, +1, f)).terms == f.terms


def test_form_examples(a1_d2):
    q, hw = a1_d2
    m = HighestWeightModule(q, hw)
    v = m.vacuum()
    assert m.form(v, v) == ONE
    f = m.apply_F(0, 1, v)
    assert m.form(f, f) == LaurentPoly({0: 1, -2: 1})
    f2 = m.apply_F(0, 2, v)
    assert m.form(f2, f2) == ONE
    assert m.form(v, f) == ZERO  # distinct contents


def test_form_is_symmetric(a2_adjoint, kronecker):
    for q, hw in (a2_adjoint, kronecker):
        m = HighestWeightModule(q, hw)
        for nu in contents_up_to(q.n, 4):
            ws = m.weight_space(nu)
            n = len(ws.spanning)
            for s in range(n):
                for t in range(n):
                    assert ws.gram[s][t] == ws.gram[t][s]


def test_contravariance_on_random_pairs(a2_adjoint):
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    rng = random.Random(13)
    contents = contents_up_to(2, 3)
    for _ in range(100):
        nu = contents[rng.randrange(len(contents))]
        i = rng.randrange(2)
        words_u = m.spanning_words(nu)
        nu2 = tuple(x + (1 if k == i else 0) for k, x in enumerate(nu))
        words_w = m.spanning_words(nu2)
        u = ModuleVector(nu, {words_u[rng.randrange(len(words_u))]:
                              LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) or 1})})
        w = ModuleVector(nu2, {words_w[rng.randrange(len(words_w))]: ONE})
        lhs = m.form(m.apply_F(i, 1, u), w)
        ew = m.apply_E(i, w)
        kew = m.apply_K(i, -1, ew) if ew.terms else ew
        rhs = m.form(u, ModuleVector(nu, kew.terms)).shift(1)
        assert lhs == rhs


# -- weight spaces ----------------------------------------------------------------


def test_spanning_enumeration_order(a2_adjoint):
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    assert m.spanning_words((0, 0)) == [()]
    assert m.spanning_words((1, 1)) == [((0, 1), (1, 1)), ((1, 1), (0, 1))]
    # vertex order lexicographic, higher multiplicities first
    assert m.spanning_words((2, 1)) == [
        ((0, 2), (1, 1)),
        ((0, 1), (1, 1), (0, 1)),
        ((1, 1), (0, 2)),
    ]


def test_weight_space_examples(a1_d3, a2_adjoint):
    q1, hw3 = a1_d3
    m = HighestWeightModule(q1, hw3)
    ws0 = m.weight_space((0,))
    assert ws0.spanning == [()] and ws0.rank == 1
    ws2 = m.weight_space((2,))
    assert ws2.spanning == [((0, 2),)] and ws2.rank == 1
    q2, hw = a2_adjoint
    m2 = HighestWeightModule(q2, hw)
    assert m2.weight_space((1, 1)).rank == 2


def test_rank_equals_freudenthal(a2_adjoint, kronecker):
    for q, hw in (a2_adjoint, kronecker):
        m = HighestWeightModule(q, hw)
        for nu in contents_up_to(q.n, 5):
            assert m.weight_space(nu).rank == m.freudenthal_multiplicity(nu)


def test_coordinates_examples(a1_d3):
    q, hw = a1_d3
    m = HighestWeightModule(q, hw)
    # basis monomial -> unit coordinate vector
    u = m.monomial_vector(((0, 2),))
    assert [str(c) for c in m.coordinates(u)] == ["1"]
    # F^(4) v vanishes: empty coordinates at a rank-0 space
    f4 = m.apply_F(0, 4, m.vacuum())
    assert m.coordinates(f4) == ()
    assert m.is_zero_vector(f4)
    # residual vector pairs to zero with every spanning monomial
    assert all(not p for p in m.pairing_row(f4))


def test_divided_power_self_consistency(a2_adjoint):
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    for nu in contents_up_to(2, 3):
        for w in m.spanning_words(nu):
            u = m.monomial_vector(w)
            for i in range(2):
                for n in (2, 3):
                    assert m.apply_F(i, n, u).scale(qint(n)) == \
                        m.apply_F(i, 1, m.apply_F(i, n - 1, u))


def test_integrability_bounds(a2_adjoint):
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    for nu in contents_up_to(2, 3):
        ws = m.weight_space(nu)
        for t in ws.basis_index:
            u = m.monomial_vector(ws.spanning[t])
            for i in range(2):
                bound = max(m.coroot_pairing(nu, i), 0) + nu[i]
                assert m.is_zero_vector(m.apply_F(i, bound + 1, u))
                # E_i^(n) u = 0 for n > nu_i, by content bookkeeping
                e = u
                for _ in range(nu[i] + 1):
                    e = m.apply_E(i, e)
                assert not e.terms


# -- Freudenthal oracle --------------------------------------------------------------


def test_freudenthal_examples(a1_d3, a2_adjoint):
    q2, hw = a2_adjoint
    m = HighestWeightModule(q2, hw)
    assert m.freudenthal_multiplicity((0, 0)) == 1
    assert m.freudenthal_multiplicity((1, 1)) == 2
    q1, hw3 = a1_d3
    m1 = HighestWeightModule(q1, hw3)
    for k in range(8):
        assert m1.freudenthal_multiplicity((k,)) == (1 if k <= 3 else 0)


def test_freudenthal_total_dimension(a2_adjoint):
    # adjoint module of the rank-2 special linear algebra is 8-dimensional
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    total = sum(m.freudenthal_multiplicity(nu) for nu in contents_up_to(2, 6))
    assert total == 8


def test_weyl_dimension_cross_check(a2_adjoint):
    # dim L(a,b) = (a+1)(b+1)(a+b+2)/2 in type A2
    q, _ = a2_adjoint
    for a, b in [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]:
        m = HighestWeightModule(q, HighestWeight([a, b]))
        total = sum(m.freudenthal_multiplicity(nu)
                    for nu in contents_up_to(2, 2 * (a + b)))
        assert total == (a + 1) * (b + 1) * (a + b + 2) // 2


def test_kronecker_root_multiplicities(kronecker):
    q, hw = kronecker
    m = HighestWeightModule(q, hw)
    roots = m.positive_roots(6)
    # affine rank-2: real roots mult 1, imaginary multiples of (1,1) mult 1
    assert roots[(1, 0)] == roots[(0, 1)] == 1
    assert roots[(1, 1)] == roots[(2, 2)] == roots[(3, 3)] == 1
    assert roots[(2, 1)] == roots[(1, 2)] == roots[(3, 2)] == 1
    assert (2, 0) not in roots and (3, 1) not in roots


def test_finite_type_roots(a2_adjoint):
    q, _ = a2_adjoint
    m = HighestWeightModule(q, HighestWeight([0, 0]))
    assert m.positive_roots(6) == {(1, 0): 1, (0, 1): 1, (1, 1): 1}


# -- plumbing ------------------------------------------------------------------------


def test_serre_elements_annihilate_the_module(a2_adjoint, kronecker):
    from qcanon.uminus import mono_mul, serre_element
    for q, hw in (a2_adjoint, kronecker):
        m = HighestWeightModule(q, hw)
        for i in range(2):
            for j in range(2):
                if i == j:
                    continue
                rel = serre_element(q, i, j)
                for nu in contents_up_to(2, 3):
                    ws = m.weight_space(nu)
                    for t in ws.basis_index:
                        u = m.monomial_vector(ws.spanning[t])
                        x = mono_mul(q, rel, u)
                        assert m.is_zero_vector(ModuleVector(x.content, x.terms))


def test_resource_cap(kronecker):
    q, hw = kronecker
    m = HighestWeightModule(q, hw, spanning_cap=3)
    with pytest.raises(ResourceCapError):
        m.spanning_words((3, 3))


def test_weight_space_report_schema(a2_adjoint):
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    rep = weight_space_report(m, (1, 1))
    assert rep["content"] == {"1": 1, "2": 1}
    assert rep["spanning_count"] == 2
    assert rep["rank"] == 2
    assert rep["basis"] == ["1^1.2^1", "2^1.1^1"]
    assert rep["gram"][0][0] == [[-2, "1"], [0, "1"]]


# -- the symmetric elimination against independent references -------------------

# name -> (quiver document, height bound)
ELIMINATION_DATA = {
    "a2_adjoint": ({"vertices": ["1", "2"], "edges": [["1", "2"]],
                    "highest_weight": {"1": 1, "2": 1}}, 5),
    "kronecker": ({"vertices": ["1", "2"], "edges": [["1", "2"]] * 2,
                   "highest_weight": {"1": 1, "2": 0}}, 6),
    "kronecker3": ({"vertices": ["1", "2"], "edges": [["1", "2"]] * 3,
                    "highest_weight": {"1": 1, "2": 0}}, 6),
}


@pytest.mark.parametrize("name", sorted(ELIMINATION_DATA))
def test_elimination_matches_reference_on_every_spanning_word(name):
    datum, hmax = ELIMINATION_DATA[name]
    q, hw = parse_quiver_dict(datum)
    m = HighestWeightModule(q, hw)
    rf = RatFunc.from_laurent
    for nu in contents_up_to(q.n, hmax):
        space = m.weight_space(nu)
        # the rank agrees with a plain Bareiss echelon of the whole Gram matrix
        assert lp_rank(space.gram) == space.rank == len(space.basis_index)
        # the basis is the greedy prefix: s is kept iff its Gram row raises
        # the rank of the rows kept before it
        kept = []
        for s, row in enumerate(space.gram):
            raises = lp_rank(kept + [row]) > len(kept)
            assert (s in space.basis_index) == raises
            if raises:
                kept.append(row)
        # every word's coordinates equal the rf_solve reference on G_B
        basis = space.basis_index
        gb = [[rf(space.gram[s][t]) for t in basis] for s in basis]
        for w in space.spanning:
            expect = ()
            if basis:
                rhs = [rf(m.pair_words(w, space.spanning[t])) for t in basis]
                expect = tuple(rf_solve(gb, rhs))
            assert m.word_coordinates(nu, w) == expect
