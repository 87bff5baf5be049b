import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcanon.qarith import (LaurentPoly, RatFunc, ZERO, ONE, RF_ONE, bar,
                           sym_truncate, qint, qfact, qbinom, lp_gcd, lp_rank,
                           rf_rank, rf_solve, specialize_v1, lp_sym_echelon,
                           lp_sym_solve, ExactDivisionError, PivotBreakdown,
                           PoleAtOne)

PRIME = 2147483647


def lp(d):
    return LaurentPoly(d)


def random_poly(rng, span=20, coeff=10**6):
    lo = rng.randint(-span, 0)
    hi = rng.randint(0, span)
    return LaurentPoly({k: rng.randint(-coeff, coeff) for k in range(lo, hi + 1)})


# -- bar involution ----------------------------------------------------------


def test_bar_examples():
    assert bar(lp({2: 1, 0: 3})) == lp({-2: 1, 0: 3})
    assert bar(ZERO) == ZERO
    assert bar(lp({1: 1, -1: 1})) == lp({1: 1, -1: 1})


def test_bar_is_involutive_on_random_polys():
    rng = random.Random(1)
    for _ in range(1000):
        p = random_poly(rng)
        assert bar(bar(p)) == p


# -- quantum numbers ----------------------------------------------------------


def test_qint_examples():
    assert qint(3) == lp({2: 1, 0: 1, -2: 1})
    assert qint(0) == ZERO
    assert qint(-2) == lp({1: -1, -1: -1})


def test_qint_product_specializes_to_integer_product():
    for n in range(-12, 13):
        for m in range(-12, 13):
            assert (qint(n) * qint(m)).at_one() == n * m


def test_qbinom_examples():
    assert qbinom(4, 2) == lp({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert qbinom(7, 0) == ONE
    assert qbinom(2, 3) == ZERO


def test_qbinom_bar_invariant_and_binomial_at_one():
    from math import comb
    for n in range(13):
        for k in range(n + 1):
            b = qbinom(n, k)
            assert b.is_bar_invariant()
            assert b.at_one() == comb(n, k)


def test_qfact_merge_identity():
    for n in range(1, 8):
        assert qfact(n) == qfact(n - 1) * qint(n)


# -- ring laws (property tests) -----------------------------------------------

small_polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                              max_size=6).map(LaurentPoly)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=200, deadline=None)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(small_polys, small_polys)
@settings(max_examples=100, deadline=None)
def test_exact_division_inverts_multiplication(a, b):
    if not b:
        return
    assert (a * b).divexact(b) == a


def test_divexact_raises_on_remainder():
    with pytest.raises(ExactDivisionError):
        qint(3).divexact(qint(2))


# -- sym_truncate ----------------------------------------------------------------


def test_sym_truncate_examples():
    assert sym_truncate(lp({2: 1, 0: 5, -1: 1})) == lp({2: 1, 0: 5, -2: 1})
    assert sym_truncate(lp({-3: 1})) == ZERO
    p = lp({1: 1, -1: 1})
    assert sym_truncate(p) == p


def test_sym_truncate_contract():
    # q = sym_truncate(p) is the unique bar-invariant poly whose part in
    # degrees >= 0 matches p
    rng = random.Random(2)
    for _ in range(300):
        p = random_poly(rng, span=8, coeff=50)
        q = sym_truncate(p)
        assert q.is_bar_invariant()
        for k in range(0, 10):
            assert q.coeff(k) == p.coeff(k)
        # uniqueness: any bar-invariant q' agreeing in degrees >= 0 equals q
        diff = p - q
        assert all(k < 0 for k in diff.c)


# -- rational functions -----------------------------------------------------------


def test_ratfunc_canonical_form():
    x = RatFunc(qint(2), qint(4))
    assert x.den.coeff(0) != 0
    assert x.den.c[x.den.degree()] > 0
    assert RatFunc(qint(2) * qint(3), qint(3)) == RatFunc(qint(2))


def test_ratfunc_equality_matches_cross_multiplication():
    rng = random.Random(3)
    for _ in range(200):
        a, b = random_poly(rng, 5, 9), random_poly(rng, 5, 9)
        c, d = random_poly(rng, 5, 9), random_poly(rng, 5, 9)
        if not b or not d:
            continue
        x, y = RatFunc(a, b), RatFunc(c, d)
        assert (x == y) == (a * d == c * b)


def test_ratfunc_arithmetic():
    v = LaurentPoly.v_power(1)
    x = RatFunc(v, lp({2: 1, 0: -1}))
    assert x + x == RatFunc(lp({1: 2}), lp({2: 1, 0: -1}))
    assert x - x == 0
    assert x / x == RF_ONE
    assert (x * RatFunc(lp({2: 1, 0: -1}))) == RatFunc(v)


def test_ratfunc_pole_detection():
    x = RatFunc(ONE, lp({1: 1, 0: -1}))
    with pytest.raises(PoleAtOne):
        x.at_one()
    assert RatFunc(qint(2), qint(3)).at_one() == Fraction(2, 3)


# -- linear algebra -----------------------------------------------------------------


def rf(p):
    return RatFunc.from_laurent(p)


def test_rank_examples():
    eye = [[rf(ONE if i == j else ZERO) for j in range(3)] for i in range(3)]
    assert rf_rank(eye) == 3
    v = LaurentPoly.v_power(1)
    prop = [[rf(v), rf(ONE)], [rf(v * v), rf(v)]]
    assert rf_rank(prop) == 1


def test_solve_identity_and_inconsistent():
    eye = [[rf(ONE if i == j else ZERO) for j in range(2)] for i in range(2)]
    sol = rf_solve(eye, [rf(qint(2)), rf(ZERO)])
    assert sol == [rf(qint(2)), rf(ZERO)]
    bad = [[rf(ONE), rf(ONE)], [rf(ONE), rf(ONE)]]
    assert rf_solve(bad, [rf(ONE), rf(ZERO)]) is None
    # consistent but singular: the solution is not unique
    assert rf_solve(bad, [rf(ONE), rf(ONE)]) is None


def int_rank_mod_p(rows, a):
    m = [[e.eval_mod(a, PRIME) for e in r] for r in rows]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] % PRIME), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], PRIME - 2, PRIME)
        for i in range(r + 1, nrows):
            f = (m[i][c] * inv) % PRIME
            for j in range(c, ncols):
                m[i][j] = (m[i][j] - f * m[r][j]) % PRIME
        r += 1
    return r


def test_rank_agrees_with_random_prime_field_specialization():
    # probabilistic cross-check on 100 random matrices
    rng = random.Random(4)
    for _ in range(100):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[random_poly(rng, 3, 4) for _ in range(nc)] for _ in range(nr)]
        rk = lp_rank(rows)
        rk_p = int_rank_mod_p(rows, rng.randint(2, PRIME - 2))
        # specialization can only drop the rank; equality with overwhelming
        # probability at a random point
        assert rk == rk_p


def test_solve_verifies_on_random_systems():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 4)
        A = [[rf(random_poly(rng, 2, 3)) for _ in range(n)] for _ in range(n)]
        x = [rf(random_poly(rng, 1, 3)) for _ in range(n)]
        b = []
        for i in range(n):
            acc = rf(ZERO)
            for j in range(n):
                acc = acc + A[i][j] * x[j]
            b.append(acc)
        sol = rf_solve(A, b)
        assert sol is not None
        for i in range(n):
            acc = rf(ZERO)
            for j in range(n):
                acc = acc + A[i][j] * sol[j]
            assert acc == b[i]


# -- symmetric elimination against the rf_solve reference --------------------


def _transpose_times(m, d):
    """m^T diag(d) m."""
    n = len(m)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                if m[k][i] and m[k][j]:
                    acc = acc + m[k][i] * d[k] * m[k][j]
            row.append(acc)
        out.append(row)
    return out


def _check_against_reference(a, rhs):
    n = len(a)
    try:
        pivots, factor = lp_sym_echelon(a)
    except PivotBreakdown:
        return None
    assert len(pivots) == lp_rank(a)
    assert [f[0] for f in factor] == [
        _det([[a[s][t] for t in pivots[:k + 1]] for s in pivots[:k + 1]])
        for k in range(len(pivots))]
    if len(pivots) == n:
        sol = lp_sym_solve(factor, rhs)
        ref = rf_solve([[rf(e) for e in row] for row in a], [rf(e) for e in rhs])
        assert ref is not None and sol == ref
    return pivots


def _det(m):
    """Cofactor expansion (small matrices only), independent of Bareiss."""
    if len(m) == 1:
        return m[0][0]
    acc = ZERO
    for j, e in enumerate(m[0]):
        if e:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = e * _det(minor)
            acc = acc + term if j % 2 == 0 else acc - term
    return acc


sym_sizes = st.integers(1, 4)
sym_entries = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3),
                              max_size=3).map(LaurentPoly)
positive_scales = st.tuples(st.integers(1, 5), st.integers(-3, 3)).map(
    lambda ck: LaurentPoly({ck[1]: ck[0]}))


@given(st.data(), sym_sizes)
@settings(max_examples=60, deadline=None)
def test_sym_elimination_matches_rf_solve_on_gram_matrices(data, n):
    # m^T D m with D positive at every real v > 0 is positive semidefinite
    # there, so a vanishing residual diagonal forces a vanishing residual
    # row: diagonal pivoting never breaks down
    m = [data.draw(st.lists(sym_entries, min_size=n, max_size=n)) for _ in range(n)]
    d = data.draw(st.lists(positive_scales, min_size=n, max_size=n))
    rhs = data.draw(st.lists(sym_entries, min_size=n, max_size=n))
    a = _transpose_times(m, d)
    pivots = _check_against_reference(a, rhs)
    assert pivots is not None
    # a repeated row of m makes the matrix singular: reported as a lost pivot
    if n > 1:
        m[-1] = list(m[0])
        singular = _transpose_times(m, d)
        pivots = lp_sym_echelon(singular)[0]
        assert len(pivots) < n and len(pivots) == lp_rank(singular)


@given(st.data(), sym_sizes)
@settings(max_examples=60, deadline=None)
def test_sym_elimination_matches_rf_solve_on_symmetric_matrices(data, n):
    upper = {(i, j): data.draw(sym_entries) for i in range(n) for j in range(i, n)}
    a = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    rhs = data.draw(st.lists(sym_entries, min_size=n, max_size=n))
    _check_against_reference(a, rhs)


def test_sym_elimination_reports_breakdown_and_singular_factor():
    v = LaurentPoly.v_power(1)
    with pytest.raises(PivotBreakdown):
        lp_sym_echelon([[ZERO, v], [v, ONE]])
    # a zero row is dependent, not a breakdown
    assert lp_sym_echelon([[ZERO, ZERO], [ZERO, ONE]]) == ([1], [[ONE]])
    assert lp_sym_solve([[ONE, v], [ZERO]], [ONE, ONE]) is None
    assert lp_sym_solve([], []) == []


def test_gcd_divides_both():
    rng = random.Random(6)
    for _ in range(100):
        a, b = random_poly(rng, 4, 6), random_poly(rng, 4, 6)
        g = lp_gcd(a, b)
        if a or b:
            assert g
            if a:
                a.divexact(g)
            if b:
                b.divexact(g)


# -- serialization ---------------------------------------------------------------


def test_json_terms_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        p = random_poly(rng)
        terms = p.to_terms()
        assert terms == sorted(terms)
        assert LaurentPoly.from_terms(terms) == p
    big = lp({-5: 10**40, 3: -(10**38)})
    assert LaurentPoly.from_terms(big.to_terms()) == big


def test_specialize_v1():
    assert specialize_v1(qint(5)) == 5
    assert specialize_v1(qbinom(4, 2)) == 6
    assert specialize_v1([[qint(2), ZERO]]) == [[2, 0]]
