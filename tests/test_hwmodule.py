import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcanon.qarith import LaurentPoly, ZERO, ONE, qint, qfact, qbinom
from qcanon.cartan import (HighestWeight, contents_of_height, contents_up_to,
                           parse_quiver_dict)
from qcanon import cli, elimination, hwmodule
from qcanon.hwmodule import HighestWeightModule
from qcanon.uminus import UMinusElement, count_words, mono_mul, normalized_words
from qcanon.coproduct import serre_element
from qcanon.canonical import CanonicalBasis

from oracles import PairingOracle, greedy_prefix, lp_rank, pairing_row
from test_golden import DATA as GOLDEN_DATA, GOLDEN


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
            words = list(normalized_words(nu))
            gram = [[m.pair_words(s, t) for t in words] for s in words]
            n = len(words)
            for s in range(n):
                for t in range(n):
                    assert gram[s][t] == gram[t][s]


def test_contravariance_on_random_pairs(a2_adjoint):
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    rng = random.Random(13)
    contents = contents_up_to(2, 3)
    for _ in range(100):
        nu = contents[rng.randrange(len(contents))]
        i = rng.randrange(2)
        words_u = list(normalized_words(nu))
        nu2 = tuple(x + (1 if k == i else 0) for k, x in enumerate(nu))
        words_w = list(normalized_words(nu2))
        u = UMinusElement(nu, {words_u[rng.randrange(len(words_u))]:
                              LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) or 1})})
        w = UMinusElement(nu2, {words_w[rng.randrange(len(words_w))]: ONE})
        lhs = m.form(m.apply_F(i, 1, u), w)
        ew = m.apply_E(i, w)
        kew = m.apply_K(i, -1, ew) if ew.terms else ew
        rhs = m.form(u, UMinusElement(nu, kew.terms)).shift(1)
        assert lhs == rhs


# -- weight spaces ----------------------------------------------------------------


def test_spanning_enumeration_order():
    assert list(normalized_words((0, 0))) == [()]
    assert list(normalized_words((1, 1))) == [((0, 1), (1, 1)), ((1, 1), (0, 1))]
    # vertex order lexicographic, higher multiplicities first
    assert list(normalized_words((2, 1))) == [
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
    cb = CanonicalBasis(m).compute_up_to(4)
    # F^(2) v is the canonical basis element: unit coordinate vector
    u = m.monomial_vector(((0, 2),))
    assert [str(c) for c in cb.expand(u)] == ["1"]
    # F^(4) v vanishes: empty coordinates at a rank-0 space
    f4 = m.apply_F(0, 4, m.vacuum())
    assert cb.expand(f4) == []
    assert m.is_zero_vector(f4)
    # residual vector pairs to zero with every spanning monomial
    assert all(not p for p in pairing_row(m, f4))


def test_divided_power_self_consistency(a2_adjoint):
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    for nu in contents_up_to(2, 3):
        for w in normalized_words(nu):
            u = m.monomial_vector(w)
            for i in range(2):
                for n in (2, 3):
                    assert m.apply_F(i, n, u).scale(qint(n)) == \
                        m.apply_F(i, 1, m.apply_F(i, n - 1, u))


def _e_divided(m, i, n, u):
    """E_i^(n) u as n plain ``apply_E`` calls divided once by [n]!."""
    for _ in range(n):
        u = m.apply_E(i, u)
    if n > 1 and u.terms:
        fact = qfact(n)
        u = u.map_coeffs(lambda c: c.divexact(fact))
    return u


@pytest.mark.parametrize("datum,hmax", [
    ({"vertices": ["1", "2"], "edges": [["1", "2"]] * 3, "highest_weight": {"1": 1}}, 5),
    ({"vertices": ["c", "1", "2", "3"], "edges": [["1", "c"], ["2", "c"], ["3", "c"]],
      "highest_weight": {"c": 1}}, 4),
], ids=["kronecker3", "d4"])
def test_e_chain_matches_one_division_by_the_factorial(datum, hmax):
    # the E-Serre sums read E_i^(r) off e_chain, for r up to 1 + max_j a_ij;
    # the reference rebuilds each power from u alone
    q, hw = parse_quiver_dict(datum)
    m = HighestWeightModule(q, hw)
    tops = [1 + max(q.a[i][j] for j in range(q.n) if j != i) for i in range(q.n)]
    cases = 0
    for nu in contents_up_to(q.n, hmax):
        for w in m.weight_space(nu).basis:
            u = m.monomial_vector(w)
            for i in range(q.n):
                chain = m.e_chain(i, u, tops[i])
                for n in range(tops[i] + 1):
                    assert chain[n] == _e_divided(m, i, n, u), (w, i, n)
                    cases += bool(chain[n].terms) and n > 1
    assert cases


def test_integrability_bounds(a2_adjoint):
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    for nu in contents_up_to(2, 3):
        ws = m.weight_space(nu)
        for w in ws.basis:
            u = m.monomial_vector(w)
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


def denominator_product(roots, n, hmax):
    """prod (1 - e^-alpha)^mult(alpha) over ``roots``, as {content: coefficient}
    truncated above height hmax."""
    prod = {(0,) * n: 1}
    for alpha, mult in roots.items():
        for _ in range(mult):
            out = dict(prod)
            for beta, c in prod.items():
                gamma = tuple(b + a for b, a in zip(beta, alpha))
                if sum(gamma) <= hmax:
                    out[gamma] = out.get(gamma, 0) - c
            prod = out
    return {beta: c for beta, c in prod.items() if c}


def test_kronecker_root_multiplicities(kronecker):
    # affine rank-2: real roots (k, k +- 1) and imaginary roots (k, k), all of
    # multiplicity 1; the denominator identity prod (1 - e^-alpha)^mult = N_0
    # determines the multiplicities, so these are all roots up to height 6
    q, hw = kronecker
    m = HighestWeightModule(q, hw)
    roots = {(1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 1, (1, 2): 1, (2, 2): 1,
             (3, 2): 1, (2, 3): 1, (3, 3): 1}
    assert denominator_product(roots, 2, 6) == dot_orbit(q, (0, 0), 6)


def test_finite_type_roots(a2_adjoint):
    q, _ = a2_adjoint
    roots = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert denominator_product(roots, 2, 6) == dot_orbit(q, (0, 0), 6)
    # the six elements of the Weyl group, signed by length
    assert len(dot_orbit(q, (0, 0), 6)) == 6


def dot_orbit(q, lam, hmax):
    orbit = hwmodule.DotOrbit(q.cartan, lam)
    orbit.grow(hmax)
    return orbit.signs


def test_dot_orbit_grown_in_steps_equals_grown_at_once(kronecker, a2_adjoint):
    # each grow takes the steps up to its height and keeps the rest
    for q, lam in [(kronecker[0], (0, 0)), (kronecker[0], (1, 0)), (a2_adjoint[0], (1, 1))]:
        orbit = hwmodule.DotOrbit(q.cartan, lam)
        new = [entry for h in (0, 2, 3, 7, 7, 9) for entry in orbit.grow(h)]
        assert orbit.signs == dot_orbit(q, lam, 9)
        assert new == sorted(new) and len(new) == len(orbit.signs) - 1
        assert all(h == sum(nu) and orbit.signs[nu] == sign for h, nu, sign in new)


def test_oracle_checks_raise(a1_d3, a2_adjoint):
    # a Cartan matrix off the hypothesis of the Weyl-Kac formula: a diagonal
    # entry 0 makes the dot orbit meet (1, 2) with both signs, and on one
    # vertex it makes the character quotient negative at (2,)
    q, hw = a2_adjoint
    q.cartan = [[0, 0], [-1, 0]]
    with pytest.raises(hwmodule.InternalCheckError, match="both signs"):
        dot_orbit(q, (0, 0), 4)
    q1, _ = a1_d3
    q1.cartan = [[0]]
    m = HighestWeightModule(q1, HighestWeight([1]))
    assert m.freudenthal_multiplicity((1,)) == 1
    with pytest.raises(hwmodule.InternalCheckError, match="negative"):
        m.freudenthal_multiplicity((2,))


# Weight multiplicities of every content up to the given height, recorded
# from the Peterson-Freudenthal recursions before the Weyl-Kac oracle
# replaced them: (quiver, max height, total dimension, sha256 of the
# "nu_1,...,nu_n:m" lines in contents_up_to order).
MULTIPLICITY_PINS = {
    "kronecker3": ({"vertices": ["1", "2"], "edges": [["1", "2"]] * 3,
                    "highest_weight": {"1": 1, "2": 0}}, 12, 867,
                   "b14b9b52c30d436da2c6821fa3858a8ebb2749d6143a5b4c9ce1bd5d1e6129e9"),
    "kronecker4": ({"vertices": ["1", "2"], "edges": [["1", "2"]] * 4,
                    "highest_weight": {"1": 2, "2": 1}}, 10, 1067,
                   "3df262304676e6f151a48e76dd6ae9c57df7b8cb124ac18c4147d51d7515a00b"),
    "d4": ({"vertices": ["c", "1", "2", "3"],
            "edges": [["1", "c"], ["2", "c"], ["3", "c"]],
            "highest_weight": {"c": 1}}, 8, 26,
           "ba2c048e18c8a9405e2d1be201a580d954e43fad7c31828d66a0160bd1471533"),
    "a3": ({"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]],
            "highest_weight": {"1": 1, "3": 1}}, 9, 15,
           "513bc08c29ae1dbb4ecd0aa3b76ef67325e6575a14a3a29f6993274caa8db38f"),
    "cyclic": ({"vertices": ["1", "2", "3"],
                "edges": [["1", "2"], ["1", "2"], ["2", "3"], ["3", "1"]],
                "highest_weight": {"1": 1, "2": 2}}, 7, 449,
               "f2071a47d937b0fff5c8b244f34be0bc7038aa7d904eab25242dab1b0e87d97b"),
}


@pytest.mark.parametrize("datum", sorted(MULTIPLICITY_PINS))
def test_multiplicities_pinned(datum):
    data, hmax, total, digest = MULTIPLICITY_PINS[datum]
    q, hw = parse_quiver_dict(data)
    m = HighestWeightModule(q, hw)
    mults = [(nu, m.freudenthal_multiplicity(nu)) for nu in contents_up_to(q.n, hmax)]
    text = "".join(f"{','.join(map(str, nu))}:{k}\n" for nu, k in mults)
    assert sum(k for _, k in mults) == total
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- plumbing ------------------------------------------------------------------------


def test_serre_elements_annihilate_the_module(a2_adjoint, kronecker):
    from qcanon.uminus import mono_mul
    from qcanon.coproduct import serre_element
    for q, hw in (a2_adjoint, kronecker):
        m = HighestWeightModule(q, hw)
        for i in range(2):
            for j in range(2):
                if i == j:
                    continue
                rel = serre_element(q, i, j)
                for nu in contents_up_to(2, 3):
                    ws = m.weight_space(nu)
                    for w in ws.basis:
                        u = m.monomial_vector(w)
                        assert m.is_zero_vector(mono_mul(rel, u))


def test_weight_spaces_pair_only_candidate_words(a2_adjoint):
    # the Gram matrices run over F_i-images of the lower bases: 28
    # memoized pairings here, against 250,952 for a Gram over every word
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    for nu in contents_up_to(2, 10):
        m.weight_space(nu)
    assert len(m._pair) < 1000


def test_gram_and_elimination_checks_raise(a2_adjoint, monkeypatch):
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    # the Gram matrix at (1,1) runs over two candidate words
    assert len(m._candidates((1, 1))) == 2
    monkeypatch.setattr(m, "pair_words", lambda s, t: ONE if s < t else ZERO)
    with pytest.raises(hwmodule.InternalCheckError, match="Gram asymmetry"):
        m.weight_space((1, 1))
    # symmetric, but every self-pairing vanishes over a nonzero row: the
    # elimination breaks down, which the anisotropic form rules out
    v = LaurentPoly.v_power(1)
    monkeypatch.setattr(m, "pair_words", lambda s, t: ZERO if s == t else v)
    with pytest.raises(hwmodule.InternalCheckError, match="isotropic nonzero row"):
        m.weight_space((1, 1))


def test_an_uncertified_row_is_an_internal_check_error(kronecker, monkeypatch):
    q, hw = kronecker
    m = HighestWeightModule(q, hw)
    for nu in ((1, 3), (2, 2)):
        m.weight_space(nu)
    # at (2, 3) two candidates have rank 1; with no candidate relation the
    # rejected row is refused
    monkeypatch.setattr(elimination, "_relations", lambda rows, support, mult: iter(()))
    with pytest.raises(hwmodule.InternalCheckError, match="no certified kernel relation"):
        m.weight_space((2, 3))


# -- the symmetric elimination against independent references -------------------

# name -> (quiver document, height bound)
ELIMINATION_DATA = {
    "a2_adjoint": ({"vertices": ["1", "2"], "edges": [["1", "2"]],
                    "highest_weight": {"1": 1, "2": 1}}, 5),
    "kronecker": ({"vertices": ["1", "2"], "edges": [["1", "2"]] * 2,
                   "highest_weight": {"1": 1, "2": 0}}, 6),
    "kronecker3": ({"vertices": ["1", "2"], "edges": [["1", "2"]] * 3,
                    "highest_weight": {"1": 1, "2": 0}}, 6),
    "d4": ({"vertices": ["c", "1", "2", "3"],
            "edges": [["1", "c"], ["2", "c"], ["3", "c"]],
            "highest_weight": {"c": 1}}, 5),
    "a3": ({"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]],
            "highest_weight": {"1": 1, "3": 1}}, 5),
}


@pytest.mark.parametrize("name", sorted(ELIMINATION_DATA))
def test_elimination_matches_reference_on_every_spanning_word(name):
    datum, hmax = ELIMINATION_DATA[name]
    q, hw = parse_quiver_dict(datum)
    m = HighestWeightModule(q, hw)
    for nu in contents_up_to(q.n, hmax):
        space = m.weight_space(nu)
        # the reference Gram matrix over every normalized word of nu
        words = list(normalized_words(nu))
        gram = [[m.pair_words(s, t) for t in words] for s in words]
        # the rank agrees with a plain Bareiss echelon of the whole Gram matrix
        assert lp_rank(gram) == space.rank == len(space.basis)
        # the basis words pair with all words in rank-many independent rows,
        # so they are independent and span the weight space
        rows = [[m.pair_words(s, t) for t in words] for s in space.basis]
        assert lp_rank(rows) == space.rank


@pytest.mark.parametrize("arrows,weight,hmax", [(2, (3, 3), 7), (1, (6, 6), 8),
                                                (2, (7, 7), 6)])
def test_large_weights_need_no_exact_fallback(arrows, weight, hmax):
    # the elimination has no exact loop to fall back on: every weight space
    # at these large highest weights is certified, and its rank is right
    q, hw = parse_quiver_dict({"vertices": ["1", "2"], "edges": [["1", "2"]] * arrows,
                               "highest_weight": {"1": weight[0], "2": weight[1]}})
    m = HighestWeightModule(q, hw)
    for nu in contents_up_to(q.n, hmax):
        assert m.weight_space(nu).rank == m.freudenthal_multiplicity(nu)


@pytest.mark.parametrize("arrows,weight,nu", [(1, (3, 4), (4, 7)), (2, (1, 0), (8, 6)),
                                              (3, (1, 0), (7, 3))])
def test_relations_wider_than_eight_certify_rejected_rows(arrows, weight, nu):
    # 3, 11 and 9 candidates, each set with a rejected row whose kernel
    # relation has span 10 to 16; coefficients reach 40
    q, hw = parse_quiver_dict({"vertices": ["1", "2"], "edges": [["1", "2"]] * arrows,
                               "highest_weight": {"1": weight[0], "2": weight[1]}})
    m = HighestWeightModule(q, hw)
    space = m.weight_space(nu)
    pivots = [space.spanning.index(w) for w in space.basis]
    assert pivots == greedy_prefix(m._gram(space.spanning))
    assert space.rank == m.freudenthal_multiplicity(nu) < len(space.spanning)


def _golden_runs(*commands):
    """(datum, height) of every golden pin of one of the subcommands, its
    tallest."""
    tallest = {}
    for datum, height, command, _ in GOLDEN:
        if command[0] in commands:
            tallest[datum] = max(tallest.get(datum, 0), height)
    return sorted(tallest.items())


@pytest.mark.parametrize("datum,height", _golden_runs("dims"))
def test_golden_dims_rows_are_certified_on_the_support_columns(monkeypatch, datum, height):
    # the relation search falls back on the probes over every column only
    # when those over the support columns certify nothing; on the golden
    # dims data they never do, so a row that needed the fallback would show
    # here as a failure, not as a slower run
    solve = elimination._span_form
    columns_seen = []

    def counted(rows, support, d, least, columns=None):
        columns_seen.append(columns)
        return solve(rows, support, d, least, columns)
    monkeypatch.setattr(elimination, "_span_form", counted)
    q, hw = parse_quiver_dict(GOLDEN_DATA[datum])
    m = HighestWeightModule(q, hw)
    for nu in contents_up_to(q.n, height):
        m.weight_space(nu)
    assert None not in columns_seen


class ReversedModule(HighestWeightModule):
    """Keeps the greedy prefix of the candidates in reverse order, so every
    weight space is built on a different basis of the spaces below it."""

    def _candidates(self, nu):
        return super()._candidates(nu)[::-1]


@pytest.mark.parametrize("datum,hmax", [
    ({"vertices": ["1", "2"], "edges": [["1", "2"]] * 2,
      "highest_weight": {"1": 1, "2": 0}}, 7),
    ({"vertices": ["1", "2"], "edges": [["1", "2"]],
      "highest_weight": {"1": 3, "2": 3}}, 7),
    ({"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"], ["3", "1"]],
      "highest_weight": {"1": 1, "2": 0, "3": 0}}, 7),
])
def test_any_lower_basis_spans(datum, hmax):
    # L_nu = sum_i F_i L_{nu - alpha_i} holds for any basis of the lower spaces
    q, hw = parse_quiver_dict(datum)
    m = ReversedModule(q, hw)
    reference = HighestWeightModule(q, hw)
    differ = 0
    for nu in contents_up_to(q.n, hmax):
        space = m.weight_space(nu)
        assert space.rank == m.freudenthal_multiplicity(nu)
        differ += space.basis != reference.weight_space(nu).basis
    assert differ


# -- the self-pairing zero test against the pairing-row oracle --------------------


def _random_laurent(rng):
    return LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)
                        for _ in range(rng.randint(1, 2))})


@pytest.mark.parametrize("name", ["a2_adjoint", "kronecker", "kronecker3", "d4"])
def test_self_pairing_zero_test_matches_pairing_rows(name):
    # is_zero_vector tests (u, u) = 0; the oracle pairs u with every
    # normalized word of its content, which the form is nondegenerate on
    q, hw = parse_quiver_dict(ELIMINATION_DATA[name][0])
    m = HighestWeightModule(q, hw)
    rng = random.Random(20261018)
    verdicts = {True: 0, False: 0}

    def agree(u):
        zero = m.is_zero_vector(u)
        assert zero == (not any(pairing_row(m, u))), u
        if u.terms:
            verdicts[zero] += 1
        return zero

    for nu in contents_up_to(q.n, 5):
        words = list(normalized_words(nu))
        vectors = []
        for _ in range(3):
            picked = rng.sample(words, min(len(words), rng.randint(1, 4)))
            vectors.append(UMinusElement(nu, {w: _random_laurent(rng) for w in picked}))
        for u in vectors:
            agree(u)
        for u, w in itertools.combinations(vectors, 2):
            agree(u - w)
        u = vectors[0]
        for i in range(q.n):
            # [E_i, F_i] u - [<wt, a_i^vee>] u vanishes at nu itself
            comm = (m.apply_E(i, m.apply_F(i, 1, u))
                    - u.scale(qint(m.coroot_pairing(nu, i))))
            if nu[i]:
                comm = comm - m.apply_F(i, 1, m.apply_E(i, u))
            assert agree(comm)
            # F_i^(b+1) kills the weight space beyond its i-string bound;
            # the image's content is far above nu, and the oracle row runs
            # over every word of it, so only low contents are sent up
            if sum(nu) <= 3:
                bound = max(m.coroot_pairing(nu, i), 0) + nu[i]
                assert agree(m.apply_F(i, bound + 1, u))
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("name", ["kronecker3", "d4"])
def test_self_pairing_equals_the_full_double_sum(name):
    # self_pairing pairs each unordered pair of words once and doubles the
    # off-diagonal terms; the reference sums c1 c2 (w1, w2) over all
    # ordered pairs
    q, hw = parse_quiver_dict(ELIMINATION_DATA[name][0])
    m = HighestWeightModule(q, hw)
    rng = random.Random(20261019)

    def double_sum(u):
        acc = ZERO
        for w1, c1 in u.terms.items():
            for w2, c2 in u.terms.items():
                acc = acc + c1 * c2 * m.pair_words(w1, w2)
        return acc

    vectors = []
    for nu in contents_up_to(q.n, 4):
        words = list(normalized_words(nu))
        for _ in range(3):
            picked = rng.sample(words, min(len(words), rng.randint(1, 5)))
            vectors.append(UMinusElement(nu, {w: _random_laurent(rng) for w in picked}))
    # F-Serre images lie above the height of any built weight space, and
    # vanish in the module
    serre = [mono_mul(serre_element(q, i, j), u)
             for u in vectors if sum(u.content) <= 3
             for i in range(q.n) for j in range(q.n) if i != j]
    values = [m.self_pairing(u) for u in vectors + serre]
    assert values == [double_sum(u) for u in vectors + serre]
    assert any(values[:len(vectors)]) and not any(values[len(vectors):])


def test_zero_test_refuses_non_laurent_coefficients(a2_adjoint):
    # anisotropy holds on the Z[v, v^-1]-form only; a rational coefficient
    # is an input the argument does not cover
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    u = UMinusElement((1, 0), {((0, 1),): Fraction(1, 2)})
    with pytest.raises(hwmodule.InternalCheckError):
        m.is_zero_vector(u)


# -- the packed form against the Laurent-polynomial oracle -------------------------

# most word pairs one golden datum compares over every content up to a height
PAIR_BUDGET = 12000


def _compare_with_oracle(m, oracle, nu, words, rng):
    """Every pairing of the words at nu, and the form, the self-pairing and
    the zero test of three random vectors over them, against the oracle."""
    for w1 in words:
        for w2 in words:
            assert m.pair_words(w1, w2) == oracle.pair(w1, w2), (w1, w2)
    vectors = [UMinusElement(nu, {w: _random_laurent(rng)
                                  for w in rng.sample(words, min(len(words), k))})
               for k in (1, 2, 4)]
    for u in vectors:
        for w in vectors:
            assert m.form(u, w) == oracle.form(u, w)
        square = oracle.form(u, u)
        assert m.self_pairing(u) == square
        assert m.is_zero_vector(u) == (not square)


@pytest.mark.parametrize("datum,height", _golden_runs("dims", "basis"))
def test_packed_form_matches_the_laurent_oracle_on_golden_data(datum, height):
    # every word pair at each height up to the pin's, while the pairs so far
    # fit the budget: height 4 or more on every datum, 6 or more on the
    # two-vertex ones
    q, hw = parse_quiver_dict(GOLDEN_DATA[datum])
    m = HighestWeightModule(q, hw)
    oracle = PairingOracle(m)
    rng = random.Random(20261021)
    pairs = covered = 0
    for h in range(height + 1):
        pairs += sum(count_words(nu) ** 2 for nu in contents_of_height(q.n, h))
        if pairs > PAIR_BUDGET:
            break
        for nu in contents_of_height(q.n, h):
            _compare_with_oracle(m, oracle, nu, list(normalized_words(nu)), rng)
        covered = h
    assert covered >= 4


@pytest.mark.parametrize("datum,height", [("kronecker3", 6), ("d4", 4)])
def test_packed_form_matches_the_laurent_oracle_on_f_serre_images(datum, height):
    # the images vanish in the module; their word pairs do not
    q, hw = parse_quiver_dict(GOLDEN_DATA[datum])
    m = HighestWeightModule(q, hw)
    oracle = PairingOracle(m)
    relators = [serre_element(q, i, j) for i in range(q.n) for j in range(q.n) if i != j]
    images = 0
    for nu in contents_up_to(q.n, height):
        for w in m.weight_space(nu).basis:
            for rel in relators:
                image = mono_mul(rel, m.monomial_vector(w))
                for w1, w2 in itertools.product(image.terms, repeat=2):
                    assert m.pair_words(w1, w2) == oracle.pair(w1, w2), (w1, w2)
                assert m.self_pairing(image) == oracle.form(image, image) == ZERO
                assert m.is_zero_vector(image)
                images += 1
    assert images > 50


@st.composite
def small_quivers(draw):
    """Quivers of at most 3 vertices, at most 3 arrows between two of them,
    and a dominant weight of entries at most 3."""
    names = [str(k) for k in range(1, draw(st.integers(1, 3)) + 1)]
    edges = [[a, b] for k, a in enumerate(names) for b in names[k + 1:]
             for _ in range(draw(st.integers(0, 3)))]
    return {"vertices": names, "edges": edges,
            "highest_weight": {a: draw(st.integers(0, 3)) for a in names}}


@given(small_quivers(), st.integers(0, 4), st.sampled_from([8, 64]), st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_packed_form_matches_the_laurent_oracle_on_random_quivers(doc, height, width, seed):
    # at width 8 most data widen on the way
    q, hw = parse_quiver_dict(doc)
    m = HighestWeightModule(q, hw)
    m.width = width
    oracle = PairingOracle(m)
    rng = random.Random(seed)
    for nu in contents_of_height(q.n, height):
        _compare_with_oracle(m, oracle, nu, list(normalized_words(nu)), rng)


@pytest.mark.parametrize("datum,height", [("kronecker3", 5), ("kronecker_33", 5)])
def test_a_narrow_width_widens_to_the_same_pairings_and_bytes(
        datum, height, tmp_path, capsys, monkeypatch):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(GOLDEN_DATA[datum]))
    q, hw = parse_quiver_dict(GOLDEN_DATA[datum])

    def outputs():
        out = []
        for command in ("dims", "basis", "verify"):
            assert cli.main([command, "--quiver", str(path), "--max-height", str(height)]) == 0
            out.append(capsys.readouterr().out)
        return out

    def pairings():
        m = HighestWeightModule(q, hw)
        return [m.pair_words(w1, w2) for nu in contents_up_to(q.n, height)
                for w1 in m.weight_space(nu).spanning for w2 in normalized_words(nu)]

    expect = outputs(), pairings()
    widened = []
    widen = HighestWeightModule._widen

    def spy(self):
        widened.append(self.width)
        widen(self)

    monkeypatch.setattr(HighestWeightModule, "_widen", spy)
    monkeypatch.setattr(HighestWeightModule, "width", 8)
    assert (outputs(), pairings()) == expect
    assert 8 in widened
