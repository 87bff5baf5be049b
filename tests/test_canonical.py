import json
import random
from collections import Counter

import pytest

from qcanon.qarith import LaurentPoly, ZERO, ONE, qint
from qcanon.cartan import HighestWeight, parse_quiver_dict, contents_up_to
from qcanon.hwmodule import HighestWeightModule, InternalCheckError
from qcanon.uminus import UMinusElement, normalized_words
from qcanon.canonical import CanonicalBasis, CBElement, CompletionError, verify_bar_invariant
from qcanon import cli, crystalgraph as cg
from oracles import element_key


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


# -- completeness against the Weyl-Kac oracle, with no weight space --------------

# name -> (quiver document, height bound)
NO_WEIGHT_SPACE_DATA = {
    "kronecker": ({"vertices": ["1", "2"], "edges": [["1", "2"]] * 2,
                   "highest_weight": {"1": 1, "2": 0}}, 6),
    "d4": ({"vertices": ["c", "1", "2", "3"],
            "edges": [["1", "c"], ["2", "c"], ["3", "c"]],
            "highest_weight": {"c": 1}}, 5),
    "wild3": ({"vertices": ["1", "2", "3"], "edges": [["1", "2"]] * 2 + [["2", "3"]] * 2,
               "highest_weight": {"2": 1}}, 5),
}


@pytest.mark.parametrize("name", sorted(NO_WEIGHT_SPACE_DATA))
def test_basis_graph_and_monomials_build_no_weight_space(name, monkeypatch):
    # the induction counts each content against the Weyl-Kac oracle, so the
    # basis, the left graph and the path monomials need no Gram matrix
    def refused(*args):
        pytest.fail(f"weight space built: {args[1:]}")

    monkeypatch.setattr(HighestWeightModule, "weight_space", refused)
    monkeypatch.setattr(HighestWeightModule, "_gram", refused)
    datum, hmax = NO_WEIGHT_SPACE_DATA[name]
    q, hw = parse_quiver_dict(datum)
    m = HighestWeightModule(q, hw)
    cb = CanonicalBasis(m).compute_up_to(hmax)
    graph = cg.build_left_graph(cb)
    counted = 0
    for nu in contents_up_to(q.n, hmax):
        count = len(cb.elements(nu))
        assert count == m.freudenthal_multiplicity(nu), nu
        if count:
            positions, paths, vectors, transition = cg.monomial_basis(cb, graph, nu, cb.order)
            assert len(positions) == len(paths) == len(vectors) == len(transition) == count
        counted += count
    assert counted > 10


def test_a_count_off_the_weyl_kac_multiplicity_stops_the_basis(kronecker, monkeypatch):
    # one more than the oracle at the single content (2, 2), where the
    # induction finds its 2 elements
    orig = HighestWeightModule.freudenthal_multiplicity
    monkeypatch.setattr(HighestWeightModule, "freudenthal_multiplicity",
                        lambda self, nu: orig(self, nu) + (tuple(nu) == (2, 2)))
    m = HighestWeightModule(*kronecker)
    with pytest.raises(CompletionError, match=r"content \(2, 2\): found 2 elements, "
                                              r"Weyl-Kac multiplicity 3"):
        CanonicalBasis(m).compute_up_to(6)


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
    # each content is stored in id order, so a reversed schedule stores the
    # same elements at the same positions, with strictly increasing keys
    data = [(a2_adjoint, 4), (kronecker, 4),
            (parse_quiver_dict(EXPAND_DATA["kronecker3"][0]), 6),
            (parse_quiver_dict(EXPAND_DATA["d4"][0]), 5)]
    for datum, hmax in data:
        m, cb1 = build(datum, hmax)
        cb2 = CanonicalBasis(m, tuple(reversed(range(m.quiver.n)))).compute_up_to(hmax)
        for nu in cb1.contents():
            e1, e2 = cb1.elements(nu), cb2.elements(nu)
            k1 = [element_key(m, b) for b in e1]
            assert k1 == [element_key(m, b) for b in e2]
            assert all(a < b for a, b in zip(k1, k1[1:]))
            for b1, b2 in zip(e1, e2):
                assert b1.t == b2.t
                assert m.vectors_equal(b1.vector, b2.vector)


def test_orthogonalization_strips_accepted_components(a1_d2):
    m, cb = build(a1_d2, 2)
    (b1,) = cb.elements((1,))
    candidate = b1.vector + b1.vector.scale(qint(2))  # degree-1 pairing excess
    cleaned, coords = cb._orthogonalize(candidate, [b1])
    assert m.is_zero_vector(cleaned)
    # the input is the result plus the recorded multiple of b1
    assert coords == {0: qint(2) + ONE}


# -- transitions ------------------------------------------------------------------------


def test_transition_rank1(a1_d3):
    m, cb = build(a1_d3, 3)
    (b,) = cb.elements((2,))
    assert cb.expand(m.apply_F(0, 2, m.vacuum())) == [ONE]


def test_transition_a2_adjoint_zero_weight(a2_adjoint):
    m, cb = build(a2_adjoint, 4)
    graph = cg.build_left_graph(cb)
    T = cg.monomial_basis(cb, graph, (1, 1), (0, 1))[3]
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


def test_completion_error_on_wrong_rank(a1_d3):
    from qcanon import canonical
    q, hw = a1_d3
    m = HighestWeightModule(q, hw)
    cb = CanonicalBasis(m).compute_up_to(0)
    # sabotage the t-statistic so the (1,1) seed is skipped at nu = (1,)
    (top,) = cb.elements((0,))
    top.t = (1,)
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


ID_ORDER_DATA = {
    "a2_34": ({"vertices": ["1", "2"], "edges": [["1", "2"]],
               "highest_weight": {"1": 3, "2": 4}}, 7),
    "kronecker3": (EXPAND_DATA["kronecker3"][0], 6),
    # the same quiver with its vertices declared in reverse
    "kronecker3_21": ({"vertices": ["2", "1"], "edges": [["1", "2"]] * 3,
                       "highest_weight": {"1": 1, "2": 0}}, 6),
    # ids whose string order ("10" < "11" < "9") is not their numeric one
    "multidigit": ({"vertices": ["9", "10", "11"],
                    "edges": [["9", "10"], ["9", "10"], ["10", "11"]],
                    "highest_weight": {"9": 1, "10": 0, "11": 1}}, 6),
    # the 3-cycle: many words end in a zero weight space
    "affine_a2": ({"vertices": ["1", "2", "3"],
                   "edges": [["1", "2"], ["2", "3"], ["3", "1"]],
                   "highest_weight": {"1": 1}}, 7),
}


@pytest.mark.parametrize("name", sorted(ID_ORDER_DATA))
def test_stored_order_is_the_sorted_order_of_full_pairing_rows(name):
    # the basis compares pairing rows lazily and skips the words that end in
    # a zero weight space; the oracle lists every word and sorts whole keys
    datum, hmax = ID_ORDER_DATA[name]
    m, cb = build(parse_quiver_dict(datum), hmax)
    sorted_contents = 0
    for nu in cb.contents():
        keys = [element_key(m, b) for b in cb.elements(nu)]
        assert all(a < b for a, b in zip(keys, keys[1:])), nu
        sorted_contents += len(keys) > 1
    assert sorted_contents >= 5


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
            rebuilt = UMinusElement(nu)
            for c, b in zip(x, elems):
                rebuilt = rebuilt + b.vector.scale(c)
            assert m.is_zero_vector(u - rebuilt)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", ["a2_adjoint", "kronecker3", "d4"])
def test_t_is_a_property_of_the_basis(name):
    # every element carries t once its content is built, and t does not
    # depend on the order in which the induction visits the vertices
    datum, hmax = EXPAND_DATA[name]
    q, hw = parse_quiver_dict(datum)
    m = HighestWeightModule(q, hw)

    def t_by_id(order):
        cb = CanonicalBasis(m, order).compute_up_to(hmax)
        out = {}
        for nu in cb.contents():
            for pos, b in enumerate(cb.elements(nu)):
                assert isinstance(b.t, tuple) and len(b.t) == q.n, (nu, pos)
                out[cb.element_id(nu, pos)] = b.t
        return out

    forward = t_by_id(tuple(range(q.n)))
    assert forward and forward == t_by_id(tuple(reversed(range(q.n))))


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
    b = elems[0]
    elems[0] = CBElement(b.content, b.vector.scale(vp(-1)), b.provenance,
                         self_pairing=b.self_pairing)
    mutated.store[nu] = elems
    with pytest.raises(InternalCheckError, match="Gram entry"):
        mutated.expand(u)


# -- per-word coordinates against the two-row solve ------------------------------


def two_row_expand(cb, u):
    """Reference coordinates of u: pair u and bar(u) with every element and
    run the integer recurrence against I + N from max deg y down to
    -max deg y', where y' is the pairing row of bar(u) (whose coordinates
    are the bars of x); the residual (I + N) x - y must vanish.  Valid for
    any Laurent coefficients, bar-invariant or not, and solved per vector
    with no cache."""
    elems = cb.elements(u.content)
    offsets = cb._gram_offsets(u.content)
    form = cb.module.form
    y = [form(u, b.vector) for b in elems]
    ubar = u.map_coeffs(LaurentPoly.bar)
    ybar = [form(ubar, b.vector) for b in elems]
    top = max((p.degree() for p in y if p), default=0)
    bottom = -max((p.degree() for p in ybar if p), default=0)
    x = [{} for _ in elems]
    for d in range(top, bottom - 1, -1):
        for s, row in enumerate(offsets):
            c = y[s].coeff(d)
            for t, p in row:
                for k, a in p.c.items():
                    c -= a * x[t].get(d - k, 0)
            if c:
                x[s][d] = c
    x = [LaurentPoly(xs) for xs in x]
    for s, row in enumerate(offsets):
        acc = x[s]
        for t, p in row:
            acc = acc + p * x[t]
        assert acc == y[s], (u.content, s)
    return x


# name -> (quiver document, height bound)
ORACLE_DATA = {
    "kronecker3": (EXPAND_DATA["kronecker3"][0], 6),
    "d4": (EXPAND_DATA["d4"][0], 5),
    # two arrows 1 -> 2 and two arrows 2 -> 3
    "wild3": ({"vertices": ["1", "2", "3"],
               "edges": [["1", "2"], ["1", "2"], ["2", "3"], ["2", "3"]],
               "highest_weight": {"1": 0, "2": 1, "3": 0}}, 5),
}


# name -> (quiver document, height bound)
IMAGE_DATA = {
    "kronecker": (EXPAND_DATA["kronecker"][0], 6),
    "d4": (EXPAND_DATA["d4"][0], 5),
    "wild3": (ORACLE_DATA["wild3"][0], 5),
    # the 3-cycle 1 -> 2 -> 3 -> 1
    "affine_a2_222": ({"vertices": ["1", "2", "3"],
                       "edges": [["1", "2"], ["2", "3"], ["3", "1"]],
                       "highest_weight": {"1": 2, "2": 2, "3": 2}}, 5),
}


@pytest.mark.parametrize("name", sorted(IMAGE_DATA))
def test_seed_images_are_exact(name):
    # every recorded image rebuilds F_i^(t) of its seed from the stored
    # elements, by the module's zero test, and its leader's coordinate is 1
    datum, hmax = IMAGE_DATA[name]
    m, cb = build(parse_quiver_dict(datum), hmax)
    assert cb.images.keys() == cb.leaders.keys()
    led = 0
    for key, coords in cb.images.items():
        low, pos, i, t = key
        nu = tuple(x + (t if k == i else 0) for k, x in enumerate(low))
        elems = cb.elements(nu)
        rebuilt = UMinusElement(nu)
        for p, c in coords.items():
            assert c, key
            rebuilt = rebuilt + elems[p].vector.scale(c)
        assert m.vectors_equal(rebuilt, m.apply_F(i, t, cb.elements(low)[pos].vector)), key
        lead = cb.leaders[key]
        if lead is not None:
            assert coords[lead] == ONE, key
            led += 1
    assert led > 0


def random_laurent(rng):
    return LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4)
                        for _ in range(rng.randint(1, 3))})


@pytest.mark.parametrize("name", sorted(ORACLE_DATA))
def test_expand_matches_the_two_row_solve(name):
    # random Laurent coefficients on spanning words (not bar-invariant, and
    # the words are linearly dependent in the module), then every pi_arrow
    # image
    datum, hmax = ORACLE_DATA[name]
    m, cb = build(parse_quiver_dict(datum), hmax)
    rng = random.Random(name)
    vectors = []
    for nu in cb.contents():
        words = list(normalized_words(nu))
        for _ in range(3):
            picked = rng.sample(words, min(len(words), rng.randint(1, 4)))
            vectors.append(UMinusElement(nu, {w: random_laurent(rng) for w in picked}))
    assert any(not c.is_bar_invariant() for u in vectors for c in u.terms.values())
    for nu in cb.contents():
        room = hmax - sum(nu)
        for b in cb.elements(nu):
            for i in range(m.quiver.n):
                if b.t[i] == 0:
                    for t in range(1, min(m.coroot_pairing(nu, i), room) + 1):
                        vectors.append(m.apply_F(i, t, b.vector))
    for u in vectors:
        assert cb.expand(u) == two_row_expand(cb, u)
    assert len(vectors) > 3 * len(cb.contents())


def test_a_basis_build_solves_each_word_once(monkeypatch, tmp_path):
    calls = Counter()
    real = CanonicalBasis._solve_word

    def counted(self, w):
        calls[w] += 1
        return real(self, w)

    monkeypatch.setattr(CanonicalBasis, "_solve_word", counted)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(EXPAND_DATA["kronecker3"][0]))
    # `basis` reads its transitions off the induction's seed images and
    # solves no word; the suites that expand solve each word at most once
    assert cli.main(["basis", "--quiver", str(path), "--max-height", "6"]) == 0
    assert not calls
    assert cli.main(["verify", "--quiver", str(path), "--max-height", "6",
                     "--suite", "orthogonality,crystal"]) == 0
    assert calls and max(calls.values()) == 1


def test_expand_sees_a_dropped_gram_entry():
    # N without one off-diagonal entry: the element whose column lost it no
    # longer solves to its unit vector, and the residual check says so
    datum, _ = EXPAND_DATA["kronecker3"]
    m, cb = build(parse_quiver_dict(datum), 5)
    nu = (2, 3)
    rows = cb._gram_offsets(nu)
    s, k = next((s, k) for s, row in enumerate(rows)
                for k, (t, _) in enumerate(row) if t != s)
    t = rows[s][k][0]
    mutated = CanonicalBasis(m)
    mutated.store = cb.store
    mutated._offsets[nu] = [row[:k] + row[k + 1:] if r == s else row
                            for r, row in enumerate(rows)]
    u = cb.elements(nu)[t].vector
    assert cb.expand(u) == [ONE if r == t else ZERO for r in range(len(rows))]
    with pytest.raises(InternalCheckError, match="leaves a residual"):
        mutated.expand(u)


def test_expand_returns_a_fresh_list():
    datum, _ = EXPAND_DATA["kronecker3"]
    m, cb = build(parse_quiver_dict(datum), 4)
    for w in m.weight_space((2, 2)).basis:
        u = m.monomial_vector(w)
        first = cb.expand(u)
        kept = list(first)
        first[0] = LaurentPoly.v_power(7)
        first.append(ONE)
        assert cb.expand(u) == kept
