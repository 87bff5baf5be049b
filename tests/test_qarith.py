import random

import pytest
from hypothesis import given, settings, strategies as st

from qcanon import elimination, qarith
from qcanon.cartan import parse_quiver_dict
from qcanon.hwmodule import HighestWeightModule
from qcanon.qarith import (LaurentPoly, ZERO, ONE, sym_truncate, qint,
                           qfact, qbinom, addmul, finish, ExactDivisionError,
                           PZERO, WidthError, pack, pdivexact, pdot, pqint, unpack)
from qcanon.elimination import (lp_sym_echelon, PivotBreakdown, UncertifiedRow,
                                EVAL_POINT, EVAL_PRIME)

from oracles import divexact as oracle_divexact, greedy_prefix, lp_rank

PRIME = 2147483647


def lp(d):
    return LaurentPoly(d)


def random_poly(rng, span=20, coeff=10**6):
    lo = rng.randint(-span, 0)
    hi = rng.randint(0, span)
    return LaurentPoly({k: rng.randint(-coeff, coeff) for k in range(lo, hi + 1)})


# -- bar involution ----------------------------------------------------------


def test_bar_examples():
    assert lp({2: 1, 0: 3}).bar() == lp({-2: 1, 0: 3})
    assert ZERO.bar() == ZERO
    assert lp({1: 1, -1: 1}).bar() == lp({1: 1, -1: 1})


def test_bar_is_involutive_on_random_polys():
    rng = random.Random(1)
    for _ in range(1000):
        p = random_poly(rng)
        assert p.bar().bar() == p


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


monomials = st.tuples(st.integers(-6, 6), st.integers(-9, 9).filter(bool)).map(
    lambda kx: LaurentPoly({kx[0]: kx[1]}))


@given(monomials, small_polys)
@settings(max_examples=200, deadline=None)
def test_monomial_product_matches_the_schoolbook_loop(m, p):
    expect = qarith._schoolbook(m.c, p.c)
    assert (m * p).c == expect and (p * m).c == expect


# coefficients up to about 2^70 and leading coefficients other than +-1
wide_polys = st.dictionaries(st.integers(-8, 8), st.integers(-2**70, 2**70),
                             max_size=6).map(LaurentPoly)


@given(small_polys | wide_polys, small_polys | wide_polys)
@settings(max_examples=300, deadline=None)
def test_exact_division_inverts_multiplication(a, b):
    if not b:
        return
    assert (a * b).divexact(b) == a


def test_divexact_raises_on_remainder():
    with pytest.raises(ExactDivisionError):
        qint(3).divexact(qint(2))


@given(small_polys, small_polys.filter(bool), small_polys, st.booleans())
@settings(max_examples=300, deadline=None)
def test_divexact_raises_exactly_where_long_division_leaves_a_remainder(a, d, e, exact):
    p = a * d if exact else a * d + e
    try:
        expect = oracle_divexact(p, d)
    except ExactDivisionError:
        expect = None
    if expect is None:
        with pytest.raises(ExactDivisionError) as err:
            p.divexact(d)
        assert not isinstance(err.value, WidthError)
    else:
        assert p.divexact(d) == expect


def recorded_widths(monkeypatch):
    """The widths of the ``pdivexact`` calls that ``divexact`` makes."""
    widths = []

    def recorded(x, d, width):
        widths.append(width)
        return pdivexact(x, d, width)
    monkeypatch.setattr(qarith, "pdivexact", recorded)
    return widths


def test_divexact_refuses_a_non_monic_remainder_without_widening(monkeypatch):
    # (2 + v) / 2 is 1 + v/2: at any width B the integer quotient
    # 2^(B-1) + 1 exists and does not decode, so a loop that widened on
    # the undecodable quotient would never end
    widths = recorded_widths(monkeypatch)
    with pytest.raises(ExactDivisionError) as err:
        lp({0: 2, 1: 1}).divexact(lp({0: 2}))
    assert not isinstance(err.value, WidthError)
    assert widths == [64]


def test_divexact_refuses_an_integer_quotient_that_is_no_polynomial(monkeypatch):
    # divisible at v = 16 (see the packed test above), not as polynomials
    widths = recorded_widths(monkeypatch)
    with pytest.raises(ExactDivisionError) as err:
        lp({0: 7, 2: -2, 3: 1, 4: 7}).divexact(lp({0: 1, 2: 1}))
    assert not isinstance(err.value, WidthError)
    assert widths == [64]


def test_divexact_sizes_the_width_for_a_quotient_larger_than_the_dividend(monkeypatch):
    # (1 - v^10)^6 has l1 norm 2^6 = 64; its quotient by (1 - v)^6 is
    # (1 + v + ... + v^9)^6, of l1 norm 10^6
    widths = recorded_widths(monkeypatch)
    p = lp({0: 1, 10: -1})
    d = lp({0: 1, 1: -1})
    p6, d6 = ONE, ONE
    for _ in range(6):
        p6, d6 = p6 * p, d6 * d
    q = p6.divexact(d6)
    assert sum(map(abs, p6.c.values())) == 64
    assert sum(map(abs, q.c.values())) == 10**6
    assert q * d6 == p6
    assert widths == [(64 * 64).bit_length() + 54 + 2]
    assert (p6.shift(-7)).divexact(d6.shift(4)) == q.shift(-11)


def test_divexact_by_a_divisor_of_larger_span_raises(monkeypatch):
    widths = recorded_widths(monkeypatch)
    with pytest.raises(ExactDivisionError) as err:
        qint(2).divexact(qint(3))
    assert not isinstance(err.value, WidthError)
    assert ZERO.divexact(qint(3)) == ZERO
    assert widths == []


def test_divexact_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        qint(2).divexact(ZERO)
    with pytest.raises(ZeroDivisionError):
        ZERO.divexact(ZERO)


@given(st.lists(st.tuples(small_polys, small_polys, st.integers(-3, 3),
                          st.integers(-4, 4)), max_size=5))
@settings(max_examples=300, deadline=None)
def test_addmul_sums_products_without_touching_its_inputs(terms):
    out = {}
    expect = ZERO
    for a, b, k, shift in terms:
        before = (dict(a.c), dict(b.c))
        addmul(out, a.c, b.c, k, shift)
        assert (a.c, b.c) == before
        expect = expect + (a * b * k).shift(shift)
    got = finish(out)
    assert got == expect
    assert got.c is not out and all(got.c.values())


def test_addmul_finishes_a_full_cancellation_as_the_shared_zero():
    out = {}
    p = LaurentPoly({0: 1, 3: -2})
    addmul(out, p.c, qint(3).c)
    addmul(out, qint(3).c, p.c, -1)
    assert out and not any(out.values())
    assert finish(out) is ZERO


# -- Kronecker packing ------------------------------------------------------------

# coefficients whose absolute values reach 2^62 - 1, and exponents -40..40
wide_coeffs = st.integers(1 - 2 ** 62, 2 ** 62 - 1) | st.sampled_from(
    [2 ** 62 - 1, 1 - 2 ** 62, 2 ** 62 - 2, 2 - 2 ** 62, -1, 1])
wide_polys = st.dictionaries(st.integers(-40, 40), wide_coeffs, max_size=12).map(LaurentPoly)
# products of these stay far below 2^63 in l1 norm
packable_polys = st.dictionaries(st.integers(-40, 40), st.integers(-10 ** 4, 10 ** 4),
                                 max_size=8).map(LaurentPoly)


@given(wide_polys)
@settings(max_examples=120, deadline=None)
def test_pack_round_trips(p):
    n, lo, bound = pack(p, 64)
    assert unpack(n, lo, 64) == p
    assert bound == sum(abs(x) for x in p.c.values())
    assert (n == 0) == (not p)
    # a wider packing decodes the same polynomial, through the shift path
    assert unpack(*pack(p, 128)[:2], 128) == p


@given(st.dictionaries(st.integers(-40, 40), st.integers(-128, 127), max_size=12)
       .map(LaurentPoly), st.sampled_from([8, 16, 32]))
@settings(max_examples=100, deadline=None)
def test_pack_round_trips_at_narrow_widths(p, width):
    assert unpack(*pack(p, width)[:2], width) == p


@given(st.lists(st.tuples(packable_polys, packable_polys), max_size=6))
@settings(max_examples=120, deadline=None)
def test_packed_sum_of_products_matches_addmul(terms):
    out = {}
    for a, b in terms:
        addmul(out, a.c, b.c)
    expect = finish(out)
    n, lo, bound = pdot([(pack(a, 64), pack(b, 64)) for a, b in terms], 64)
    assert unpack(n, lo, 64) == expect
    # the packed value is zero exactly when the polynomial is
    assert (n == 0) == (not expect)
    assert bound >= sum(abs(x) for x in expect.c.values())


@given(packable_polys, packable_polys)
@settings(max_examples=100, deadline=None)
def test_a_cancelling_packed_sum_is_zero(a, b):
    neg = pack(-a, 64)
    assert pdot([(pack(a, 64), pack(b, 64)), (neg, pack(b, 64))], 64) == PZERO


def test_a_packed_sum_past_the_width_raises():
    p = pack(LaurentPoly({0: 100, 3: -100}), 8)
    with pytest.raises(WidthError):
        pdot([(p, p)], 8)


@given(packable_polys, st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_packed_division_inverts_multiplication(a, n):
    x = pdot([(pack(a, 64), pack(qint(n), 64))], 64)
    q, lo, bound = pdivexact(x, pqint(n, 64), 64)
    assert unpack(q, lo, 64) == a
    assert bound == sum(abs(c) for c in a.c.values())


def test_packed_division_refuses_a_remainder():
    with pytest.raises(ExactDivisionError):
        pdivexact(pack(qint(3), 64), pqint(2, 64), 64)


def test_an_integer_quotient_that_is_no_polynomial_is_refused():
    # at width 4 (v = 16), 7 - 2v^2 + v^3 + 7v^4 = 462343 = 257 * 1799, so
    # 1 + v^2 divides it as an integer; 1799 decodes to 7 + 7v^2, but
    # (1 + v^2)(7 + 7v^2) = 7 + 14v^2 + 7v^4: the coefficient check refuses
    p = LaurentPoly({0: 7, 2: -2, 3: 1, 4: 7})
    n, lo, _ = pack(p, 4)
    d = pack(LaurentPoly({0: 1, 2: 1}), 4)
    assert n % d[0] == 0 and unpack(n // d[0], 0, 4) == LaurentPoly({0: 7, 2: 7})
    # 7 bounds every coefficient of p, so p decodes exactly at width 4
    with pytest.raises(ExactDivisionError):
        pdivexact((n, lo, 7), d, 4)
    # at width 8 the remainder shows
    with pytest.raises(ExactDivisionError) as err:
        pdivexact(pack(p, 8), pack(LaurentPoly({0: 1, 2: 1}), 8), 8)
    assert not isinstance(err.value, WidthError)


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


# -- linear algebra -----------------------------------------------------------------


def test_rank_examples():
    eye = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    assert lp_rank(eye) == 3
    v = LaurentPoly.v_power(1)
    prop = [[v, ONE], [v * v, v]]
    assert lp_rank(prop) == 1


def termwise(p, a, prime):
    """p at v = a over F_prime, one power per term."""
    return sum(x * pow(a, k, prime) for k, x in p.c.items()) % prime


def int_rank_mod_p(rows, a):
    m = [[termwise(e, a, PRIME) for e in r] for r in rows]
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


# -- symmetric elimination against independent references ---------------------


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


def _check_against_reference(a):
    try:
        pivots = lp_sym_echelon(a)
    except PivotBreakdown:
        return None
    assert len(pivots) == lp_rank(a)
    # the pivots are the greedy prefix of independent rows
    assert pivots == greedy_prefix(a)
    # and every leading principal minor of the pivot block is nonzero
    assert all(_det([[a[s][t] for t in pivots[:k + 1]] for s in pivots[:k + 1]])
               for k in range(len(pivots)))
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
def test_sym_elimination_matches_greedy_rank_prefix_on_gram_matrices(data, n):
    # m^T D m with D positive at every real v > 0 is positive semidefinite
    # there, so a vanishing residual diagonal forces a vanishing residual
    # row: diagonal pivoting never breaks down
    m = [data.draw(st.lists(sym_entries, min_size=n, max_size=n)) for _ in range(n)]
    d = data.draw(st.lists(positive_scales, min_size=n, max_size=n))
    a = _transpose_times(m, d)
    pivots = _check_against_reference(a)
    assert pivots is not None
    # a repeated row of m makes the matrix singular: reported as a lost pivot
    if n > 1:
        m[-1] = list(m[0])
        singular = _transpose_times(m, d)
        pivots = lp_sym_echelon(singular)
        assert len(pivots) < n and len(pivots) == lp_rank(singular)


@given(st.data(), sym_sizes)
@settings(max_examples=60, deadline=None)
def test_sym_elimination_matches_greedy_rank_prefix_on_symmetric_matrices(data, n):
    upper = {(i, j): data.draw(sym_entries) for i in range(n) for j in range(i, n)}
    a = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    _check_against_reference(a)


def test_sym_elimination_reports_breakdown_and_singular_factor():
    v = LaurentPoly.v_power(1)
    with pytest.raises(PivotBreakdown):
        lp_sym_echelon([[ZERO, v], [v, ONE]])
    # the breakdown at row 1 comes after a pivot the certificate accepted
    with pytest.raises(PivotBreakdown):
        lp_sym_echelon([[ONE, ONE, ZERO], [ONE, ONE, v], [ZERO, v, ONE]])
    # a zero row is dependent, not a breakdown
    assert lp_sym_echelon([[ZERO, ZERO], [ZERO, ONE]]) == [1]
    assert lp_sym_echelon([]) == []


# -- the modular full-rank certificate and its refusals --------------------------


V = LaurentPoly.v_power(1)
VANISHING = V - EVAL_POINT  # nonzero, but zero at the evaluation point


def test_eval_mod_matches_termwise_evaluation():
    # the elimination's one evaluation, at its fixed point, against powers
    # taken term by term
    rng = random.Random(5)
    for _ in range(200):
        p = random_poly(rng)
        assert elimination._eval(p) == termwise(p, EVAL_POINT, EVAL_PRIME)
    assert VANISHING.c == {1: 1, 0: -EVAL_POINT}
    assert elimination._eval(VANISHING) == 0
    assert elimination._eval(ZERO) == 0


def test_modular_zero_pivot_is_refused_as_a_breakdown():
    # 1 x 1: the only pivot vanishes mod p but not in Z[v, v^-1]; with no
    # exact loop to tell an unlucky point from a breakdown, both are refused
    with pytest.raises(PivotBreakdown):
        lp_sym_echelon([[VANISHING]])
    # unit first pivot, determinant (v^2 + v - a) - v^2 = v - a: row 1
    # vanishes mod p, but no relation with row 0 exists even mod p
    a = [[ONE, V], [V, V * V + VANISHING]]
    assert _det(a) == VANISHING
    with pytest.raises(PivotBreakdown):
        lp_sym_echelon(a)


def test_singular_matrix_keeps_fewer_pivots_than_rows():
    m = [[ONE, V, ZERO], [V, ONE, ONE], [ONE, V, ZERO]]  # repeated row
    a = _transpose_times(m, [ONE, V * V, ONE])
    pivots = lp_sym_echelon(a)
    assert len(pivots) < 3 and len(pivots) == lp_rank(a)
    assert lp_sym_echelon([[ONE, V], [V, V * V]]) == [0]


def test_modular_rank_is_a_lower_bound():
    # a nonzero entry that vanishes at the evaluation point keeps its exact
    # rank: the reference rank evaluates at no point
    assert lp_rank([[VANISHING]]) == 1
    a = [[ONE, V], [V, V * V + VANISHING]]
    assert lp_rank(a) == 2


def test_full_rank_is_certified_without_laurent_arithmetic(monkeypatch):
    a = [[ONE, V, V * V], [V, V * V + ONE, ONE], [V * V, ONE, V.shift(-3)]]
    assert all(_det([r[:k] for r in a[:k]]) for k in (1, 2, 3))
    # rank-deficient: a span-0 and a span-6 certificate, built beforehand
    _, span0 = _kronecker_space(["2", "1"], (5, 5))
    _, span6 = _kronecker_space(["1", "2"], (4, 6))

    def forbidden(*args):
        raise AssertionError("Laurent arithmetic in a certified elimination")
    monkeypatch.setattr(LaurentPoly, "__mul__", forbidden)
    monkeypatch.setattr(LaurentPoly, "divexact", forbidden)
    assert lp_sym_echelon(a) == [0, 1, 2]
    assert lp_sym_echelon(span0) == [0, 1, 2, 3, 4, 6, 7]
    assert lp_sym_echelon(span6) == [0]


# -- serialization ---------------------------------------------------------------


def test_json_terms_form():
    rng = random.Random(7)
    for _ in range(200):
        p = random_poly(rng)
        terms = p.to_terms()
        assert terms == sorted(terms)
        assert terms == [[k, str(x)] for k, x in sorted(p.c.items()) if x]
    assert ZERO.to_terms() == []
    assert lp({2: 3, -1: -4}).to_terms() == [[-1, "-4"], [2, "3"]]
    big = lp({-5: 10**40, 3: -(10**38)})
    assert big.to_terms() == [[-5, "1" + "0" * 40], [3, "-1" + "0" * 38]]


def test_laurent_polys_are_unhashable():
    with pytest.raises(TypeError):
        hash(ONE)


# -- exact kernel relations for rank-deficient matrices ---------------------------


# Candidate words of Kronecker (1,0) under an earlier candidate rule (F_i^(a)
# applied to lower basis words), kept so that these matrices stay fixed: eight
# words at (5, 5) with vertex 2 declared first, six at (4, 6)
_CERTIFICATE_WORDS = {
    (5, 5): [((0, 2), (1, 3), (0, 2), (1, 1), (0, 1), (1, 1)),
             ((0, 1), (1, 2), (0, 2), (1, 2), (0, 2), (1, 1)),
             ((0, 1), (1, 2), (0, 2), (1, 1), (0, 1), (1, 1), (0, 1), (1, 1)),
             ((0, 1), (1, 1), (0, 2), (1, 3), (0, 2), (1, 1)),
             ((0, 1), (1, 1), (0, 1), (1, 1), (0, 1), (1, 1), (0, 1), (1, 1), (0, 1), (1, 1)),
             ((1, 1), (0, 3), (1, 3), (0, 2), (1, 1)),
             ((1, 1), (0, 2), (1, 2), (0, 2), (1, 1), (0, 1), (1, 1)),
             ((1, 1), (0, 2), (1, 1), (0, 1), (1, 1), (0, 1), (1, 1), (0, 1), (1, 1))],
    (4, 6): [((1, 4), (0, 3), (1, 2), (0, 1)),
             ((1, 3), (0, 2), (1, 2), (0, 1), (1, 1), (0, 1)),
             ((1, 3), (0, 1), (1, 1), (0, 2), (1, 2), (0, 1)),
             ((1, 3), (0, 1), (1, 1), (0, 1), (1, 1), (0, 1), (1, 1), (0, 1)),
             ((1, 2), (0, 1), (1, 2), (0, 2), (1, 2), (0, 1)),
             ((1, 2), (0, 1), (1, 2), (0, 1), (1, 1), (0, 1), (1, 1), (0, 1))],
}


def _kronecker_space(vertices, nu):
    """The weight space at nu and the Gram matrix of its certificate words."""
    q, hw = parse_quiver_dict({"vertices": vertices, "edges": [["1", "2"]] * 2,
                               "highest_weight": {"1": 1, "2": 0}})
    module = HighestWeightModule(q, hw)
    return module.weight_space(nu), module._gram(_CERTIFICATE_WORDS[nu])


def test_span_zero_relation_certifies_a_rejected_row():
    # Kronecker (1,0) with vertex 2 declared first: at (5, 5) eight
    # words have rank 7, and rows 0 - 3 + 5 = 0 reject row 5
    _, gram = _kronecker_space(["2", "1"], (5, 5))
    assert len(gram) == 8
    expected = greedy_prefix(gram)
    assert expected == [0, 1, 2, 3, 4, 6, 7]
    assert elimination._is_relation(gram, {0: {0: 1}, 3: {0: -1}, 5: {0: 1}})
    assert lp_sym_echelon(gram) == expected


def test_wide_relations_are_found_by_the_span_solve():
    # Kronecker (1,0) at (4, 6): six words of rank 1, rejected by
    # relations of span up to 6 such as (1 + 2v^2 + 2v^4 + v^6) r_0 = v^3 r_2
    _, gram = _kronecker_space(["1", "2"], (4, 6))
    expected = greedy_prefix(gram)
    assert expected == [0]
    relation = {0: {0: -1, 2: -2, 4: -2, 6: -1}, 2: {3: 1}}
    assert elimination._is_relation(gram, relation)
    # probes capped at span 5 certify nothing; capped at 6 they find this one
    narrow = list(elimination._probes(gram, [0, 2], 5, None))
    assert not any(elimination._is_relation(gram, c) for c in narrow)
    wide = list(elimination._probes(gram, [0, 2], 6, None))
    assert [c for c in wide if elimination._is_relation(gram, c)] in (
        [relation], [{k: {e: -x for e, x in c.items()} for k, c in relation.items()}])
    # the Cramer bound of those two rows admits span 6
    assert elimination._cramer_span(gram, [0, 2]) >= 6
    assert lp_sym_echelon(gram) == expected


def test_each_rejected_row_takes_logarithmically_many_solves(monkeypatch):
    # Kronecker (1,0) at (4, 6): rows 1 - 5 are rejected by relations of
    # span 2 to 6.  A row whose minimal relation has span d takes one probe
    # per power of two from 2 up to the first >= d, where a span-by-span
    # search takes d solves
    _, gram = _kronecker_space(["1", "2"], (4, 6))
    rows = []
    solve, certify, is_relation = elimination._span_form, elimination._certify, elimination._is_relation

    def counted_certify(rows_, s, mult):
        rows.append({"row": s, "solves": 0, "span": None})
        return certify(rows_, s, mult)

    def counted_solve(*args):
        rows[-1]["solves"] += 1
        return solve(*args)

    def spanned(rows_, c):
        ok = is_relation(rows_, c)
        if ok:
            exponents = [e for ck in c.values() for e in ck]
            rows[-1]["span"] = max(exponents) - min(exponents)
        return ok

    monkeypatch.setattr(elimination, "_certify", counted_certify)
    monkeypatch.setattr(elimination, "_span_form", counted_solve)
    monkeypatch.setattr(elimination, "_is_relation", spanned)
    assert lp_sym_echelon(gram) == greedy_prefix(gram) == [0]
    assert [r["row"] for r in rows] == [1, 2, 3, 4, 5]
    assert [r["span"] for r in rows] == [2, 6, 6, 4, 4]
    for r in rows:
        assert r["solves"] <= max(1, (r["span"] - 1).bit_length()), r
    assert sum(r["solves"] for r in rows) < sum(r["span"] for r in rows)


def test_a_singular_support_block_falls_back_to_the_span_search():
    # an indefinite symmetric matrix: pivots 0, 1, 2 and row 3 = row 1 +
    # v^2 row 2.  Row 1 vanishes on the support columns 1, 2, 3, so the
    # probe there leaves four free unknowns at span 2 and reads no line;
    # the probes over every column certify the row
    a = [[ONE, V, ONE], [V, ZERO, ZERO], [ONE, ZERO, ONE]]
    t = [[ONE, ZERO, ZERO, ZERO], [ZERO, ONE, ZERO, ONE], [ZERO, ZERO, ONE, V * V]]
    gram = [[sum((t[r][i] * a[r][k] * t[k][j] for r in range(3) for k in range(3)), ZERO)
             for j in range(4)] for i in range(4)]
    support = [1, 2, 3]
    assert len(elimination._span_form(gram, support, 2, 1, support).free) == 4
    bound = elimination._cramer_span(gram, support)
    assert not any(elimination._is_relation(gram, c)
                   for c in elimination._probes(gram, support, bound, support))
    relation = {1: {0: -1}, 2: {2: -1}, 3: {0: 1}}
    found = [c for c in elimination._probes(gram, support, bound, None)
             if elimination._is_relation(gram, c)]
    assert found and all(c in (relation, {k: {e: -x for e, x in ck.items()}
                                          for k, ck in relation.items()}) for c in found)
    assert lp_sym_echelon(gram) == greedy_prefix(gram) == [0, 1, 2]


@pytest.mark.parametrize("vertices,nu", [(["2", "1"], (5, 5)), (["1", "2"], (4, 6))])
def test_a_wrong_relation_is_refused(monkeypatch, vertices, nu):
    _, gram = _kronecker_space(vertices, nu)

    def wrong(rows, support, mult):
        # the rejected row alone: c_s != 0, but the row is not zero
        yield {support[-1]: {0: 1}}
    monkeypatch.setattr(elimination, "_relations", wrong)
    with pytest.raises(UncertifiedRow, match="row"):
        lp_sym_echelon(gram)


def test_a_bound_below_the_relation_span_is_refused(monkeypatch):
    _, gram = _kronecker_space(["1", "2"], (4, 6))
    assert lp_sym_echelon(gram) == [0]
    # no relation of span <= 5 rejects row 2, so the row reads as outside
    # the span of row 0, and no pivots are returned
    monkeypatch.setattr(elimination, "_cramer_span", lambda rows, support: 5)
    pivots = None
    with pytest.raises(PivotBreakdown, match="at 2"):
        pivots = lp_sym_echelon(gram)
    assert pivots is None


def test_lift_reads_small_fractions_off_residues():
    p = EVAL_PRIME
    residues = [3 * pow(2, -1, p) % p, p - 1, 0, 5]
    assert elimination._lift(residues) == [3, -2, 0, 10]
    # a residue with no small numerator and denominator does not lift
    assert elimination._lift([pow(3, 61, p) * pow(7, -40, p) % p]) is None
