import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from qcanon.qarith import LaurentPoly, ZERO, ONE, qint, qfact, qbinom, lp_rank
from qcanon.cartan import (HighestWeight, contents_of_height, contents_up_to,
                           parse_quiver_dict)
from qcanon import hwmodule
from qcanon.hwmodule import HighestWeightModule, ModuleVector, ResourceCapError
from qcanon.canonical import CanonicalBasis


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
            words = m.spanning_words(nu)
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
    cb = CanonicalBasis(m).compute_up_to(4)
    # F^(2) v is the canonical basis element: unit coordinate vector
    u = m.monomial_vector(((0, 2),))
    assert [str(c) for c in cb.expand(u)] == ["1"]
    # F^(4) v vanishes: empty coordinates at a rank-0 space
    f4 = m.apply_F(0, 4, m.vacuum())
    assert cb.expand(f4) == []
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
    assert denominator_product(roots, 2, 6) == m._dot_orbit((0, 0), 6)


def test_finite_type_roots(a2_adjoint):
    q, _ = a2_adjoint
    m = HighestWeightModule(q, HighestWeight([0, 0]))
    roots = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert denominator_product(roots, 2, 6) == m._dot_orbit((0, 0), 6)
    # the six elements of the Weyl group, signed by length
    assert len(m._dot_orbit((0, 0), 6)) == 6


def test_oracle_checks_raise(a1_d3, a2_adjoint):
    # a Cartan matrix off the hypothesis of the Weyl-Kac formula: a diagonal
    # entry 0 makes the dot orbit meet (1, 2) with both signs, and on one
    # vertex it makes the character quotient negative at (2,)
    q, hw = a2_adjoint
    q.cartan = [[0, 0], [-1, 0]]
    with pytest.raises(hwmodule.InternalCheckError, match="both signs"):
        HighestWeightModule(q, HighestWeight([0, 0]))._dot_orbit((0, 0), 4)
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
                    for w in ws.basis:
                        u = m.monomial_vector(w)
                        x = mono_mul(q, rel, u)
                        assert m.is_zero_vector(ModuleVector(x.content, x.terms))


def test_weight_spaces_pair_only_candidate_words(a2_adjoint):
    # the Gram matrices run over F_i^(a)-images of the lower bases: 154
    # memoized pairings here, against 250,952 for a Gram over every word
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    for nu in contents_up_to(2, 10):
        m.weight_space(nu)
    assert len(m._pair) < 1000


def test_resource_cap(kronecker, monkeypatch):
    q, hw = kronecker
    monkeypatch.setattr(hwmodule, "SPANNING_CAP", 3)
    m = HighestWeightModule(q, hw)
    with pytest.raises(ResourceCapError):
        m.spanning_words((3, 3))


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
        words = m.spanning_words(nu)
        gram = [[m.pair_words(s, t) for t in words] for s in words]
        # the rank agrees with a plain Bareiss echelon of the whole Gram matrix
        assert lp_rank(gram) == space.rank == len(space.basis)
        # the basis is the greedy prefix of all words: s is kept iff its
        # Gram row raises the rank of the rows kept before it
        kept, prefix = [], []
        for w, row in zip(words, gram):
            if lp_rank(kept + [row]) > len(kept):
                kept.append(row)
                prefix.append(w)
        assert space.basis == prefix


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
        assert zero == (not any(m.pairing_row(u))), u
        if u.terms:
            verdicts[zero] += 1
        return zero

    for nu in contents_up_to(q.n, 5):
        words = m.spanning_words(nu)
        vectors = []
        for _ in range(3):
            picked = rng.sample(words, min(len(words), rng.randint(1, 4)))
            vectors.append(ModuleVector(nu, {w: _random_laurent(rng) for w in picked}))
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


def test_zero_test_refuses_non_laurent_coefficients(a2_adjoint):
    # anisotropy holds on the Z[v, v^-1]-form only; a rational coefficient
    # is an input the argument does not cover
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    u = ModuleVector((1, 0), {((0, 1),): Fraction(1, 2)})
    with pytest.raises(hwmodule.InternalCheckError):
        m.is_zero_vector(u)
