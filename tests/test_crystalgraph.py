import re

import pytest

from qcanon.qarith import ZERO, ONE, qbinom
from qcanon import qarith
from qcanon.cartan import HighestWeight, parse_quiver_dict
from qcanon.hwmodule import HighestWeightModule
from qcanon import canonical
from qcanon.canonical import CanonicalBasis
from qcanon import crystalgraph as cg

from oracles import lp_rank


def build(quiver_hw, hmax, order=None):
    q, hw = quiver_hw
    m = HighestWeightModule(q, hw)
    cb = CanonicalBasis(m, order).compute_up_to(hmax)
    return m, cb


# -- t statistic ---------------------------------------------------------------


def test_t_stat_rank1(a1_d3):
    m, cb = build(a1_d3, 3)
    for k in range(4):
        (b,) = cb.elements((k,))
        assert b.t[0] == k


def test_t_stat_highest(a2_adjoint):
    m, cb = build(a2_adjoint, 1)
    (b,) = cb.elements((0, 0))
    assert b.t[0] == 0
    assert b.t[1] == 0


def test_t_stat_a2_fundamental(a2_fund):
    m, cb = build(a2_fund, 2)
    (b,) = cb.elements((1, 1))  # F2 F1 v
    assert b.t[1] == 1
    assert b.t[0] == 0


def test_t_stat_distinguishes_zero_weight_elements(a2_adjoint):
    m, cb = build(a2_adjoint, 2)
    stats = sorted(b.t for b in cb.elements((1, 1)))
    # one element heads each string: F1F2 v has t_1 = 1, F2F1 v has t_2 = 1
    assert stats == [(0, 1), (1, 0)]


def test_t_stat_matches_the_membership_rank():
    # the rule the support certificate replaced, kept as its oracle: b is in
    # the image of F_i^(r) iff adding its unit row to the image rows keeps
    # the rank
    dependent = 0  # nonzero image rows less their rank
    for data in (A2_ADJ_Q, KRON3_Q, D4_Q, A2_33_Q, KRON_21_Q):
        m, cb = build(parse_quiver_dict(data), 5)
        cases = 0
        for nu in cb.contents():
            elems = cb.elements(nu)
            for i in range(m.quiver.n):
                expected = [0] * len(elems)
                for r in range(1, nu[i] + 1):
                    low = tuple(x - (r if k == i else 0) for k, x in enumerate(nu))
                    rows = [cb.expand(m.apply_F(i, r, m.monomial_vector(w)))
                            for w in m.weight_space(low).basis]
                    base = lp_rank(rows)
                    dependent += sum(1 for row in rows if any(row)) - base
                    for pos in range(len(elems)):
                        unit = [ONE if p == pos else ZERO for p in range(len(elems))]
                        if lp_rank(rows + [unit]) == base:
                            expected[pos] = r
                for pos, b in enumerate(elems):
                    assert b.t[i] == expected[pos], (data, nu, pos, i)
                    cases += 1
        assert cases > 0
    # F_i^(r) has a kernel on the basis words below, so the certificate
    # meets dependent rows: 2 on the A2 adjoint, 6 on A2 (3,3) and 7 on
    # Kronecker (2,1)
    assert dependent == 15


def test_t_stat_rejects_a_corrupted_seed_record(a2_adjoint, monkeypatch):
    m, cb = build(a2_adjoint, 1)
    real = cb._orthogonalize

    def with_extra_unit(cand, accepted):
        # every record also reads coordinate 1 on every accepted element: at
        # (1,1) the seed F_2 F_1 v then touches two elements without t_2
        cand, coords = real(cand, accepted)
        return cand, {**coords, **dict.fromkeys(range(len(accepted)), ONE)}

    monkeypatch.setattr(cb, "_orthogonalize", with_extra_unit)
    with pytest.raises(canonical.CompletionError, match="two summands"):
        cb.compute_up_to(2)


def test_t_stat_rejects_a_leader_past_the_string(a2_adjoint, monkeypatch):
    # a reading that takes the first nonzero coordinate as the leader: at
    # (2,1), F_1 of the (1,1) element with t_1 = 0 (where <wt, alpha_1^vee>
    # = 0) has only a summand with t_1 = 2, which it would take as the leader
    m, cb = build(a2_adjoint, 2)
    monkeypatch.setattr(canonical, "_leader", lambda nu, i, t, coords, ts: next(
        (k for k, c in coords.items() if c), None))
    with pytest.raises(canonical.CompletionError, match="past the"):
        cb.compute_up_to(3)


def test_t_stat_rejects_a_record_off_the_string_property():
    # a leader whose coordinate is not 1, and a summand whose t_i is not
    # above the seed's t
    ts = [[0, 0], [2, 0], [1, 0]]
    assert canonical._leader((2, 1), 0, 1, {0: ONE, 1: qbinom(2, 1)}, ts) == 0
    assert canonical._leader((2, 1), 0, 1, {1: ONE}, ts) is None
    with pytest.raises(canonical.CompletionError, match="expected 1"):
        canonical._leader((2, 1), 0, 1, {0: qbinom(2, 1)}, ts)
    with pytest.raises(canonical.CompletionError, match="<= 1"):
        canonical._leader((2, 1), 0, 1, {0: ONE, 2: ONE}, ts)


# -- arrows ---------------------------------------------------------------------


def test_pi_arrow_rank1(a1_d3):
    m, cb = build(a1_d3, 3)
    (top,) = cb.elements((0,))
    for k in range(1, 4):
        elem, pos = cg.pi_arrow(cb, 0, k, top)
        assert elem is cb.elements((k,))[pos]
        assert elem.vector.terms == {((0, k),): m.form(m.vacuum(), m.vacuum())}


def test_pi_arrow_a2(a2_fund):
    m, cb = build(a2_fund, 2)
    (b1,) = cb.elements((1, 0))
    elem, _ = cg.pi_arrow(cb, 1, 1, b1)
    assert elem.vector.terms == {((1, 1), (0, 1)): ONE}


def test_pi_arrow_missing_image():
    q, hw = parse_quiver_dict({"vertices": ["1"], "edges": [],
                               "highest_weight": {"1": 1}})
    m = HighestWeightModule(q, hw)
    cb = CanonicalBasis(m).compute_up_to(2)
    (top,) = cb.elements((0,))
    assert cg.pi_arrow(cb, 0, 2, top, missing_ok=True) is None
    with pytest.raises(cg.GraphError):
        cg.pi_arrow(cb, 0, 2, top)


def test_pi_arrow_rejects_bad_seed(a1_d3):
    m, cb = build(a1_d3, 3)
    (b1,) = cb.elements((1,))  # t_1 = 1, not a valid seed
    with pytest.raises(cg.GraphError):
        cg.pi_arrow(cb, 0, 1, b1)


def test_left_graph_rank1_fan(a1_d2):
    m, cb = build(a1_d2, 2)
    g = cg.build_left_graph(cb)
    assert sorted(g.arrows) == [
        ("1/0", "0/0", ("1", 1)),
        ("2/0", "0/0", ("1", 2)),
    ]


def test_left_graph_a2_fundamental(a2_fund):
    m, cb = build(a2_fund, 2)
    g = cg.build_left_graph(cb)
    assert g.arrows == [
        ("1,0/0", "0,0/0", ("1", 1)),
        ("1,1/0", "1,0/0", ("2", 1)),
    ]


def test_arrows_jump_whole_strings(a2_adjoint):
    m, cb = build(a2_adjoint, 4)
    g = cg.build_left_graph(cb)
    for (nu, pos, i), (t, low, qpos) in g.arrow_map.items():
        target = cb.elements(low)[qpos]
        assert target.t[i] == 0
        assert cb.elements(nu)[pos].t[i] == t


def test_pi_bijectivity_double_count(a2_adjoint):
    m, cb = build(a2_adjoint, 4)
    for nu in cb.contents():
        elems = cb.elements(nu)
        for i in range(2):
            for t in range(1, nu[i] + 1):
                low = tuple(x - (t if k == i else 0) for k, x in enumerate(nu))
                upper = [pos for pos, b in enumerate(elems)
                         if b.t[i] == t]
                images = []
                for b2 in cb.elements(low):
                    if b2.t[i] != 0:
                        continue
                    hit = cg.pi_arrow(cb, i, t, b2, missing_ok=True)
                    if hit is not None:
                        images.append(hit[1])
                assert sorted(images) == upper
                assert len(set(images)) == len(images)


def test_no_image_rank_and_no_arrow_expansion(monkeypatch):
    # t_i and the arrows are read off the induction's own seed records:
    # the build ranks no image, and the left graph expands no vector
    calls = {"expand": 0, "pi_arrow": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(CanonicalBasis, "expand",
                        counted("expand", CanonicalBasis.expand))
    monkeypatch.setattr(cg, "pi_arrow", counted("pi_arrow", cg.pi_arrow))
    m, cb = build(parse_quiver_dict(KRON3_Q), 7)
    assert calls == {"expand": 0, "pi_arrow": 0}
    g = cg.build_left_graph(cb)
    assert calls == {"expand": 0, "pi_arrow": 0}
    assert len(g.arrows) == 45
    # no modular rank is left to rank with
    assert not any(hasattr(mod, "rank_mod_p") for mod in (qarith, canonical, cg))


def test_monomial_basis_reads_only_the_seed_images(monkeypatch):
    # every transition column is a Laurent combination of the recorded seed
    # images: with the form and the expansion disabled the columns still
    # come out
    m, cb = build(parse_quiver_dict(KRON3_Q), 7)
    g = cg.build_left_graph(cb)

    def disabled(*args, **kwargs):
        raise AssertionError("monomial_basis evaluated a form or an expansion")

    monkeypatch.setattr(m, "form", disabled)
    monkeypatch.setattr(cb, "expand", disabled)
    monkeypatch.setattr(cb, "_solve_word", disabled)
    monkeypatch.setattr(cb, "_gram_offsets", disabled)
    for nu in cb.contents():
        if cb.elements(nu):
            assert len(cg.monomial_basis(cb, g, nu, (0, 1))[3]) == len(cb.elements(nu))


def test_left_graph_rejects_two_seeds_on_one_element():
    # on 3-Kronecker, color 2 reaches (2,3) from a seed at (2,1) with t = 2
    # and from one at (2,2) with t = 1; recording the first element of its
    # target content as every seed's leader makes those two collide
    m, cb = build(parse_quiver_dict(KRON3_Q), 5)
    cb.leaders = {key: 0 for key in cb.leaders}
    with pytest.raises(cg.GraphError, match="two seeds"):
        cg.build_left_graph(cb)


# -- paths and order ---------------------------------------------------------------


def test_sbar_rank1(a1_d3):
    m, cb = build(a1_d3, 3)
    g = cg.build_left_graph(cb)
    assert cg.sbar(cb, g, (0,), 0, (0,)) == ()
    for k in range(1, 4):
        assert cg.sbar(cb, g, (k,), 0, (0,)) == ((0, k),)


def test_sbar_zero_weight_paths_distinct(a2_adjoint):
    m, cb = build(a2_adjoint, 4)
    g = cg.build_left_graph(cb)
    paths = {cg.sbar(cb, g, (1, 1), pos, (0, 1)) for pos in range(2)}
    assert len(paths) == 2


def test_path_replay(a2_adjoint, kronecker):
    for datum in (a2_adjoint, kronecker):
        m, cb = build(datum, 4)
        g = cg.build_left_graph(cb)
        for nu in cb.contents():
            for pos in range(len(cb.elements(nu))):
                path = cg.sbar(cb, g, nu, pos, (0, 1))
                assert cg.replay_path(cb, path) == (nu, pos)


def test_path_order():
    order = (0, 1)

    def lt(p, q):
        return cg.path_sort_key(p, order) < cg.path_sort_key(q, order)

    p = ((0, 2),)
    assert not lt(p, p)
    assert lt(((0, 1), (1, 1)), ((1, 1), (0, 1)))
    assert not lt(((1, 1), (0, 1)), ((0, 1), (1, 1)))
    # multiplicity breaks ties within a vertex
    assert lt(((0, 1), (0, 2)), ((0, 2), (0, 1)))


def test_path_order_strict_on_zero_weight(a2_adjoint):
    m, cb = build(a2_adjoint, 4)
    g = cg.build_left_graph(cb)
    p0 = cg.sbar(cb, g, (1, 1), 0, (0, 1))
    p1 = cg.sbar(cb, g, (1, 1), 1, (0, 1))
    assert cg.path_sort_key(p0, (0, 1)) != cg.path_sort_key(p1, (0, 1))


def test_path_order_sorts_and_rejects_a_repeated_path(a2_adjoint, monkeypatch):
    m, cb = build(a2_adjoint, 4)
    g = cg.build_left_graph(cb)
    items = cg.path_order(cb, g, (1, 1), (1, 0))
    assert sorted(pos for pos, _ in items) == [0, 1]
    assert [path for _, path in items] == sorted(
        (path for _, path in items), key=lambda p: cg.path_sort_key(p, (1, 0)))
    monkeypatch.setattr(cg, "sbar", lambda *args: ((0, 1), (1, 1)))
    with pytest.raises(cg.GraphError, match="not injective"):
        cg.path_order(cb, g, (1, 1), (0, 1))


def test_monomial_basis_examples(a1_d3, a2_adjoint):
    m1, cb1 = build(a1_d3, 3)
    g1 = cg.build_left_graph(cb1)
    positions, paths, vectors, _ = cg.monomial_basis(cb1, g1, (2,), (0,))
    assert paths == [((0, 2),)]
    assert vectors[0].terms == {((0, 2),): ONE}
    m2, cb2 = build(a2_adjoint, 4)
    g2 = cg.build_left_graph(cb2)
    positions, paths, vectors, _ = cg.monomial_basis(cb2, g2, (1, 1), (0, 1))
    assert len(vectors) == 2
    words = sorted(w for vec in vectors for w in vec.terms)
    assert words == [((0, 1), (1, 1)), ((1, 1), (0, 1))]


def test_monomial_basis_certifies_the_span(a2_adjoint, monkeypatch):
    m, cb = build(a2_adjoint, 4)
    g = cg.build_left_graph(cb)
    # every path monomial reads as the sum of all elements: at (1,1) the two
    # columns are equal, so the second has a 1 above its diagonal
    monkeypatch.setattr(cg, "path_coords", lambda cb, graph, nu, path, images:
                        {p: ONE for p in range(len(cb.elements(nu)))})
    with pytest.raises(cg.GraphError,
                       match=re.escape("not unitriangular at (1, 1): transition entry (0,1) is 1")):
        cg.monomial_basis(cb, g, (1, 1), (0, 1))


def test_monomial_basis_refuses_a_basis_that_is_not_unitriangular(a2_adjoint, monkeypatch):
    # at (1,1) the two path monomials are the two elements, in path order;
    # read with the two unit columns swapped they still span (a rank test
    # passes), but the transition matrix is a permutation, not
    # unitriangular, so each path's monomial has lost its own element
    m, cb = build(a2_adjoint, 4)
    g = cg.build_left_graph(cb)
    positions, _, _, T = cg.monomial_basis(cb, g, (1, 1), (0, 1))
    assert T == [[ONE, ZERO], [ZERO, ONE]]
    real = cg.path_coords
    swap = {positions[0]: positions[1], positions[1]: positions[0]}

    def swapped(cb, graph, nu, path, images):
        col = real(cb, graph, nu, path, images)
        return {swap[p]: x for p, x in col.items()} if nu == (1, 1) else col

    monkeypatch.setattr(cg, "path_coords", swapped)
    with pytest.raises(cg.GraphError,
                       match=re.escape("not unitriangular at (1, 1): transition entry (0,0) is 0")):
        cg.monomial_basis(cb, g, (1, 1), (0, 1))


def test_graph_invariant_under_declaration_order(a2_adjoint):
    # rebuild everything with the two vertices declared in the other order
    q1, hw1 = a2_adjoint
    m1 = HighestWeightModule(q1, hw1)
    cb1 = CanonicalBasis(m1).compute_up_to(4)
    g1 = cg.build_left_graph(cb1)
    q2, hw2 = parse_quiver_dict({"vertices": ["2", "1"], "edges": [["1", "2"]],
                                 "highest_weight": {"1": 1, "2": 1}})
    m2 = HighestWeightModule(q2, hw2)
    cb2 = CanonicalBasis(m2).compute_up_to(4)
    g2 = cg.build_left_graph(cb2)

    def relabel(graph, quiver, cb):
        arrows = set()
        for nu in cb.contents():
            pass
        for src, dst, color in graph.arrows:
            arrows.add((_content_by_id(src, quiver), src.split("/")[1],
                        _content_by_id(dst, quiver), dst.split("/")[1], color))
        return arrows

    def _content_by_id(vid, quiver):
        parts = vid.split("/")[0].split(",")
        return frozenset(zip(quiver.vertices, map(int, parts)))

    assert relabel(g1, q1, cb1) == relabel(g2, q2, cb2)


def test_dot_export_is_deterministic_and_wellformed(a2_adjoint):
    m, cb = build(a2_adjoint, 2)
    g = cg.build_left_graph(cb)
    dot1 = cg.graph_to_dot(g)
    dot2 = cg.graph_to_dot(cg.build_left_graph(cb))
    assert dot1 == dot2
    assert dot1.startswith("digraph ") and dot1.rstrip().endswith("}")
    body = dot1.splitlines()[2:-1]
    for line in body:
        assert line.startswith('  "') and line.endswith(";")
    assert dot1.count('->') == len(g.arrows)


def test_dot_export_escapes_quotes_and_backslashes():
    ids = ['a"b', "c\\d"]
    m, cb = build(parse_quiver_dict({"vertices": ids, "edges": [ids],
                                     "highest_weight": dict.fromkeys(ids, 1)}), 2)
    dot = cg.graph_to_dot(cg.build_left_graph(cb))
    assert '[label="(a\\"b,1)"];' in dot
    assert '[label="(c\\\\d,1)"];' in dot
    # with each well-formed quoted string replaced by Q, every body line is a
    # node or an edge statement: no quote closes early, no escape dangles
    quoted = re.compile(r'"(?:[^"\\]|\\["\\])*"')
    for line in dot.splitlines()[2:-1]:
        assert re.fullmatch(r"  Q( -> Q)? \[label=Q\];", quoted.sub("Q", line)), line


# -- string-length oracle ----------------------------------------------------------

A3_Q = {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]],
        "highest_weight": {"1": 1, "2": 0, "3": 1}}
KRON_Q = {"vertices": ["1", "2"], "edges": [["1", "2"]] * 2,
          "highest_weight": {"1": 1, "2": 0}}
KRON3_Q = {"vertices": ["1", "2"], "edges": [["1", "2"]] * 3,
           "highest_weight": {"1": 1, "2": 0}}
A2_ADJ_Q = {"vertices": ["1", "2"], "edges": [["1", "2"]],
            "highest_weight": {"1": 1, "2": 1}}
D4_Q = {"vertices": ["c", "1", "2", "3"], "edges": [["1", "c"], ["2", "c"], ["3", "c"]],
        "highest_weight": {"c": 1}}
A2_33_Q = {"vertices": ["1", "2"], "edges": [["1", "2"]],
           "highest_weight": {"1": 3, "2": 3}}
KRON_21_Q = {"vertices": ["1", "2"], "edges": [["1", "2"]] * 2,
             "highest_weight": {"1": 2, "2": 1}}


@pytest.mark.parametrize("data,hmax", [(A2_ADJ_Q, 5), (A3_Q, 5), (KRON_Q, 6),
                                       (KRON3_Q, 5)],
                         ids=["a2_adjoint", "a3", "kronecker", "kronecker3"])
def test_string_length_axiom(data, hmax):
    # Kashiwara's string axiom, which build_left_graph relies on, checked
    # here on its own: an element b heading its i-string (t_i(b) = 0) has a
    # t-th arrow image iff 1 <= t <= <wt b, alpha_i^vee>.  Only t reaching a
    # computed content can be checked.
    m, cb = build(parse_quiver_dict(data), hmax)
    cases = 0
    for nu in cb.contents():
        for b in cb.elements(nu):
            for i in range(m.quiver.n):
                if b.t[i] != 0:
                    continue
                length = m.coroot_pairing(nu, i)
                for t in range(1, hmax - sum(nu) + 1):
                    hit = cg.pi_arrow(cb, i, t, b, missing_ok=True)
                    assert (hit is not None) == (t <= length), (nu, i, t)
                    cases += 1
    assert cases > 0


# -- positivity and leading terms of the divided powers -----------------------------

A2_21_Q = {"vertices": ["1", "2"], "edges": [["1", "2"]],
           "highest_weight": {"1": 2, "2": 1}}
AFFINE_A2_Q = {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"], ["3", "1"]],
               "highest_weight": {"1": 1, "2": 0, "3": 0}}
WILD3_Q = {"vertices": ["1", "2", "3"], "edges": [["1", "2"]] * 2 + [["2", "3"]] * 2,
           "highest_weight": {"1": 0, "2": 1, "3": 0}}


@pytest.mark.parametrize("data,hmax", [(A2_21_Q, 6), (KRON_Q, 7), (AFFINE_A2_Q, 7),
                                       (WILD3_Q, 5)],
                         ids=["a2_21", "kronecker", "affine_a2", "wild3"])
def test_divided_powers_are_positive_with_crystal_leading_terms(data, hmax):
    # Let t = t_i(b) and phi = t + <h_i, wt b>.  On the canonical basis
    # (Kashiwara, Duke 63 (1991); Lusztig, ch. 14), with positive
    # coefficients in N[v, v^-1]:
    #   F_i^(n) b = [t+n choose n] b'' + sum c b', t_i(b') > t + n,
    #   E_i^(n) b = [phi+n choose n] b''' + sum c b', t_i(b') > t - n,
    # where b'' (t_i = t + n) occurs iff n <= phi and b''' (t_i = t - n)
    # iff n <= t.  Both lie on b's i-string, so they are read off the left
    # graph: the arrows of b's seed (the string head, t_i = 0).
    m, cb = build(parse_quiver_dict(data), hmax)
    g = cg.build_left_graph(cb)
    on_string = {(i, t, low, qpos): (nu, pos)
                 for (nu, pos, i), (t, low, qpos) in g.arrow_map.items()}
    cases = 0
    for nu in cb.contents():
        for pos, b in enumerate(cb.elements(nu)):
            for i in range(m.quiver.n):
                t = b.t[i]
                phi = t + m.coroot_pairing(nu, i)
                seed = g.arrow_map[(nu, pos, i)][1:] if t else (nu, pos)

                def string_element(s):
                    return seed if s == 0 else on_string.get((i, s) + seed)

                for n in range(1, hmax - sum(nu) + 1):
                    up = tuple(x + (n if k == i else 0) for k, x in enumerate(nu))
                    lead = string_element(t + n) if n <= phi else None
                    assert (lead is not None) == (n <= phi), (nu, pos, i, n)
                    _check_expansion(cb, cb.expand(m.apply_F(i, n, b.vector)), up, i,
                                     t + n, lead, qbinom(t + n, n))
                    cases += 1
                for n in range(1, nu[i] + 1):
                    down = tuple(x - (n if k == i else 0) for k, x in enumerate(nu))
                    lead = string_element(t - n) if n <= t else None
                    assert (lead is not None) == (n <= t), (nu, pos, i, n)
                    _check_expansion(cb, cb.expand(m.e_chain(i, b.vector, n)[n]),
                                     down, i, t - n, lead, qbinom(phi + n, n))
                    cases += 1
    assert cases > 0


def _check_expansion(cb, coeffs, content, i, level, lead, binom):
    """Coefficients in N[v, v^-1]; the element ``lead`` (content, pos) has
    coefficient ``binom``; every other summand has t_i > ``level``."""
    elems = cb.elements(content)
    for pos, c in enumerate(coeffs):
        if (content, pos) == lead:
            assert c == binom, (content, pos, i)
        elif c:
            assert elems[pos].t[i] > level, (content, pos, i)
            assert all(x > 0 for x in c.c.values()), (content, pos, i, c)
