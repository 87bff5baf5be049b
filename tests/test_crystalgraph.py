import pytest

from qcanon.qarith import ONE
from qcanon.cartan import HighestWeight, parse_quiver_dict
from qcanon.hwmodule import HighestWeightModule
from qcanon.canonical import CanonicalBasis
from qcanon import crystalgraph as cg


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
        assert cg.t_stat(m, cb, b, 0) == k


def test_t_stat_highest(a2_adjoint):
    m, cb = build(a2_adjoint, 1)
    (b,) = cb.elements((0, 0))
    assert cg.t_stat(m, cb, b, 0) == 0
    assert cg.t_stat(m, cb, b, 1) == 0


def test_t_stat_a2_fundamental(a2_fund):
    m, cb = build(a2_fund, 2)
    (b,) = cb.elements((1, 1))  # F2 F1 v
    assert cg.t_stat(m, cb, b, 1) == 1
    assert cg.t_stat(m, cb, b, 0) == 0


def test_t_stat_distinguishes_zero_weight_elements(a2_adjoint):
    m, cb = build(a2_adjoint, 2)
    stats = sorted((cg.t_stat(m, cb, b, 0), cg.t_stat(m, cb, b, 1))
                   for b in cb.elements((1, 1)))
    # one element heads each string: F1F2 v has t_1 = 1, F2F1 v has t_2 = 1
    assert stats == [(0, 1), (1, 0)]


# -- arrows ---------------------------------------------------------------------


def test_pi_arrow_rank1(a1_d3):
    m, cb = build(a1_d3, 3)
    (top,) = cb.elements((0,))
    for k in range(1, 4):
        elem, pos = cg.pi_arrow(m, cb, 0, k, top)
        assert elem is cb.elements((k,))[pos]
        assert elem.vector.terms == {((0, k),): m.form(m.vacuum(), m.vacuum())}


def test_pi_arrow_a2(a2_fund):
    m, cb = build(a2_fund, 2)
    (b1,) = cb.elements((1, 0))
    elem, _ = cg.pi_arrow(m, cb, 1, 1, b1)
    assert elem.vector.terms == {((1, 1), (0, 1)): ONE}


def test_pi_arrow_missing_image():
    q, hw = parse_quiver_dict({"vertices": ["1"], "edges": [],
                               "highest_weight": {"1": 1}})
    m = HighestWeightModule(q, hw)
    cb = CanonicalBasis(m).compute_up_to(2)
    (top,) = cb.elements((0,))
    assert cg.pi_arrow(m, cb, 0, 2, top, missing_ok=True) is None
    with pytest.raises(cg.GraphError):
        cg.pi_arrow(m, cb, 0, 2, top)


def test_pi_arrow_rejects_bad_seed(a1_d3):
    m, cb = build(a1_d3, 3)
    (b1,) = cb.elements((1,))  # t_1 = 1, not a valid seed
    with pytest.raises(cg.GraphError):
        cg.pi_arrow(m, cb, 0, 1, b1)


def test_left_graph_rank1_fan(a1_d2):
    m, cb = build(a1_d2, 2)
    g = cg.build_left_graph(m, cb)
    assert sorted(g.arrows) == [
        ("1/0", "0/0", ("1", 1)),
        ("2/0", "0/0", ("1", 2)),
    ]


def test_left_graph_a2_fundamental(a2_fund):
    m, cb = build(a2_fund, 2)
    g = cg.build_left_graph(m, cb)
    assert g.arrows == [
        ("1,0/0", "0,0/0", ("1", 1)),
        ("1,1/0", "1,0/0", ("2", 1)),
    ]


def test_arrows_jump_whole_strings(a2_adjoint):
    m, cb = build(a2_adjoint, 4)
    g = cg.build_left_graph(m, cb)
    for (nu, pos, i), (t, low, qpos) in g.arrow_map.items():
        target = cb.elements(low)[qpos]
        assert cg.t_stat(m, cb, target, i) == 0
        assert cg.t_stat(m, cb, cb.elements(nu)[pos], i) == t


def test_pi_bijectivity_double_count(a2_adjoint):
    m, cb = build(a2_adjoint, 4)
    for nu in cb.contents():
        elems = cb.elements(nu)
        for i in range(2):
            for t in range(1, nu[i] + 1):
                low = tuple(x - (t if k == i else 0) for k, x in enumerate(nu))
                upper = [pos for pos, b in enumerate(elems)
                         if cg.t_stat(m, cb, b, i) == t]
                images = []
                for b2 in cb.elements(low):
                    if cg.t_stat(m, cb, b2, i) != 0:
                        continue
                    hit = cg.pi_arrow(m, cb, i, t, b2, missing_ok=True)
                    if hit is not None:
                        images.append(hit[1])
                assert sorted(images) == upper
                assert len(set(images)) == len(images)


# -- paths and order ---------------------------------------------------------------


def test_sbar_rank1(a1_d3):
    m, cb = build(a1_d3, 3)
    g = cg.build_left_graph(m, cb)
    assert cg.sbar(m, cb, g, (0,), 0, (0,)) == ()
    for k in range(1, 4):
        assert cg.sbar(m, cb, g, (k,), 0, (0,)) == ((0, k),)


def test_sbar_zero_weight_paths_distinct(a2_adjoint):
    m, cb = build(a2_adjoint, 4)
    g = cg.build_left_graph(m, cb)
    paths = {cg.sbar(m, cb, g, (1, 1), pos, (0, 1)) for pos in range(2)}
    assert len(paths) == 2


def test_path_replay(a2_adjoint, kronecker):
    for datum in (a2_adjoint, kronecker):
        m, cb = build(datum, 4)
        g = cg.build_left_graph(m, cb)
        for nu in cb.contents():
            for pos in range(len(cb.elements(nu))):
                path = cg.sbar(m, cb, g, nu, pos, (0, 1))
                assert cg.replay_path(m, cb, path) == (nu, pos)


def test_path_order():
    order = (0, 1)
    p = ((0, 2),)
    assert not cg.path_order_lt(p, p, order)
    assert cg.path_order_lt(((0, 1), (1, 1)), ((1, 1), (0, 1)), order)
    assert not cg.path_order_lt(((1, 1), (0, 1)), ((0, 1), (1, 1)), order)
    # multiplicity breaks ties within a vertex
    assert cg.path_order_lt(((0, 1), (0, 2)), ((0, 2), (0, 1)), order)


def test_path_order_strict_on_zero_weight(a2_adjoint):
    m, cb = build(a2_adjoint, 4)
    g = cg.build_left_graph(m, cb)
    p0 = cg.sbar(m, cb, g, (1, 1), 0, (0, 1))
    p1 = cg.sbar(m, cb, g, (1, 1), 1, (0, 1))
    assert cg.path_order_lt(p0, p1, (0, 1)) != cg.path_order_lt(p1, p0, (0, 1))


def test_monomial_basis_examples(a1_d3, a2_adjoint):
    m1, cb1 = build(a1_d3, 3)
    g1 = cg.build_left_graph(m1, cb1)
    positions, paths, vectors, _ = cg.monomial_basis(m1, cb1, g1, (2,), (0,))
    assert paths == [((0, 2),)]
    assert vectors[0].terms == {((0, 2),): ONE}
    m2, cb2 = build(a2_adjoint, 4)
    g2 = cg.build_left_graph(m2, cb2)
    positions, paths, vectors, _ = cg.monomial_basis(m2, cb2, g2, (1, 1), (0, 1))
    assert len(vectors) == 2
    words = sorted(w for vec in vectors for w in vec.terms)
    assert words == [((0, 1), (1, 1)), ((1, 1), (0, 1))]


def test_graph_invariant_under_declaration_order(a2_adjoint):
    # rebuild everything with the two vertices declared in the other order
    q1, hw1 = a2_adjoint
    m1 = HighestWeightModule(q1, hw1)
    cb1 = CanonicalBasis(m1).compute_up_to(4)
    g1 = cg.build_left_graph(m1, cb1)
    q2, hw2 = parse_quiver_dict({"vertices": ["2", "1"], "edges": [["1", "2"]],
                                 "highest_weight": {"1": 1, "2": 1}})
    m2 = HighestWeightModule(q2, hw2)
    cb2 = CanonicalBasis(m2).compute_up_to(4)
    g2 = cg.build_left_graph(m2, cb2)

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
    g = cg.build_left_graph(m, cb)
    dot1 = cg.graph_to_dot(g, m.quiver)
    dot2 = cg.graph_to_dot(cg.build_left_graph(m, cb), m.quiver)
    assert dot1 == dot2
    assert dot1.startswith("digraph ") and dot1.rstrip().endswith("}")
    body = dot1.splitlines()[2:-1]
    for line in body:
        assert line.startswith('  "') and line.endswith(";")
    assert dot1.count('->') == len(g.arrows)


# -- string-length oracle ----------------------------------------------------------

A3_Q = {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]],
        "highest_weight": {"1": 1, "2": 0, "3": 1}}
KRON_Q = {"vertices": ["1", "2"], "edges": [["1", "2"]] * 2,
          "highest_weight": {"1": 1, "2": 0}}
KRON3_Q = {"vertices": ["1", "2"], "edges": [["1", "2"]] * 3,
           "highest_weight": {"1": 1, "2": 0}}
A2_ADJ_Q = {"vertices": ["1", "2"], "edges": [["1", "2"]],
            "highest_weight": {"1": 1, "2": 1}}


@pytest.mark.parametrize("data,hmax", [(A2_ADJ_Q, 5), (A3_Q, 5), (KRON_Q, 6),
                                       (KRON3_Q, 5)],
                         ids=["a2_adjoint", "a3", "kronecker", "kronecker3"])
def test_string_length_axiom(data, hmax):
    # Kashiwara's string axiom, independent of the t_i membership test: an
    # element b heading its i-string (t_i(b) = 0) has a t-th arrow image
    # iff 1 <= t <= <wt b, alpha_i^vee>.  Only t reaching a computed content
    # can be checked.
    m, cb = build(parse_quiver_dict(data), hmax)
    cases = 0
    for nu in cb.contents():
        for b in cb.elements(nu):
            for i in range(m.quiver.n):
                if cg.t_stat(m, cb, b, i) != 0:
                    continue
                length = m.coroot_pairing(nu, i)
                for t in range(1, hmax - sum(nu) + 1):
                    hit = cg.pi_arrow(m, cb, i, t, b, missing_ok=True)
                    assert (hit is not None) == (t <= length), (nu, i, t)
                    cases += 1
    assert cases > 0
