import pytest

from qcanon.cartan import (Quiver, HighestWeight, QuiverError, parse_quiver_dict,
                           coroot_pairing, nu_tilde, height, weight_leq,
                           contents_of_height, contents_up_to, unit_vector,
                           subvectors)


def test_parse_and_cartan_matrix(a2_adjoint):
    q, hw = a2_adjoint
    assert q.vertices == ("1", "2")
    assert q.cartan == [[2, -1], [-1, 2]]
    assert hw.d == (1, 1)


def test_a_n_cartan_matrices_match_textbook():
    for n in range(2, 6):
        vertices = [str(i) for i in range(1, n + 1)]
        edges = [[str(i), str(i + 1)] for i in range(1, n)]
        q, _ = parse_quiver_dict({"vertices": vertices, "edges": edges})
        for i in range(n):
            for j in range(n):
                expect = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
                assert q.cartan[i][j] == expect
        assert q.cartan == [list(r) for r in zip(*q.cartan)]


def test_parse_rejects_bad_input():
    with pytest.raises(QuiverError):
        parse_quiver_dict({"edges": []})
    with pytest.raises(QuiverError):
        parse_quiver_dict({"vertices": ["1", "1"]})
    with pytest.raises(QuiverError):
        parse_quiver_dict({"vertices": ["1"], "edges": [["1", "1"]]})
    with pytest.raises(QuiverError):
        parse_quiver_dict({"vertices": ["1"], "edges": [["1", "2"]]})
    with pytest.raises(QuiverError):
        parse_quiver_dict({"vertices": ["1"], "edges": [],
                           "highest_weight": {"1": -1}})
    with pytest.raises(QuiverError):
        parse_quiver_dict({"vertices": ["1"], "edges": [],
                           "highest_weight": {"x": 1}})
    for flag in (True, False):
        with pytest.raises(QuiverError):
            parse_quiver_dict({"vertices": ["1"], "edges": [],
                               "highest_weight": {"1": flag}})
    for doc in ({"vertices": 5}, {"vertices": "12"}, {"vertices": {"1": 0}},
                {"vertices": ["1", "2"], "edges": 5},
                {"vertices": ["1", "2"], "edges": "12"},
                {"vertices": [["x"], "2"]}, {"vertices": [True, "2"]},
                {"vertices": [1.5]}, {"vertices": [None]},
                {"vertices": ["1", "2"], "edges": [[["1"], "2"]]}):
        with pytest.raises(QuiverError):
            parse_quiver_dict(doc)


def test_coroot_pairing_examples(a2_adjoint):
    q1, _ = parse_quiver_dict({"vertices": ["1"], "edges": []})
    assert coroot_pairing(q1, HighestWeight([2]), (1,), 0) == 0
    q2, hw = a2_adjoint
    assert coroot_pairing(q2, hw, (1, 0), 1) == 2
    for i in range(2):
        assert coroot_pairing(q2, hw, (0, 0), i) == hw[i]
    with pytest.raises(QuiverError):
        coroot_pairing(q2, hw, (0, 0), 5)


def test_nu_tilde_examples(kronecker):
    q1, _ = parse_quiver_dict({"vertices": ["1"], "edges": []})
    assert nu_tilde(q1, HighestWeight([3]), (2,), 0) == 3
    q2, _ = parse_quiver_dict({"vertices": ["1", "2"], "edges": [["1", "2"]]})
    assert nu_tilde(q2, HighestWeight([0, 0]), (1, 1), 0) == 1
    qk, _ = kronecker
    assert nu_tilde(qk, HighestWeight([1, 0]), (0, 3), 0) == 7


def test_pairing_identity_on_random_data(a2_adjoint, kronecker):
    # coroot_pairing + 2 nu_i - nu_tilde = 0
    for q, hw in (a2_adjoint, kronecker):
        for nu in contents_up_to(q.n, 5):
            for i in range(q.n):
                assert (coroot_pairing(q, hw, nu, i) + 2 * nu[i]
                        - nu_tilde(q, hw, nu, i)) == 0


def test_height_and_order():
    assert height((1, 2)) == 3
    assert height((0, 0, 0)) == 0
    assert weight_leq((1, 0), (1, 2))
    assert not weight_leq((2, 0), (1, 2))


def test_content_enumeration():
    assert contents_of_height(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(contents_up_to(2, 4)) == 15
    assert unit_vector(3, 1, 2) == (0, 2, 0)


@pytest.mark.parametrize("beta", [(0,), (3,), (0, 0), (2, 1), (1, 0, 2),
                                  (2, 2, 1), (1, 3, 0, 2)])
def test_subvectors_are_the_contents_below(beta):
    # the direct enumeration equals filtering every content of lower height
    below = [t for t in contents_up_to(len(beta), height(beta)) if weight_leq(t, beta)]
    got = list(subvectors(beta))
    assert sorted(got) == sorted(below)
    assert got == sorted(got) and len(set(got)) == len(got)
