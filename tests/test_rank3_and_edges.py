import json
import random

import pytest

from qcanon.qarith import LaurentPoly, ONE
from qcanon.cartan import HighestWeight, parse_quiver_dict, contents_up_to
from qcanon.hwmodule import HighestWeightModule, ModuleVector
from qcanon.canonical import CanonicalBasis
from qcanon import crystalgraph as cg
from qcanon import verify
from qcanon import cli


A3 = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]],
      "highest_weight": {"a": 1, "b": 0, "c": 1}}


def test_rank3_full_stack():
    # L(1,0,1) on the A3 chain: 15-dimensional, multiplicity 3 at content (1,1,1)
    q, hw = parse_quiver_dict(A3)
    m = HighestWeightModule(q, hw)
    cb = CanonicalBasis(m).compute_up_to(4)
    total = sum(m.freudenthal_multiplicity(nu) for nu in contents_up_to(3, 8))
    assert total == 15
    assert m.freudenthal_multiplicity((1, 1, 1)) == 3
    for nu in cb.contents():
        assert len(cb.elements(nu)) == m.freudenthal_multiplicity(nu)
    graph = cg.build_left_graph(m, cb)
    order = (0, 1, 2)
    for nu in cb.contents():
        if not cb.elements(nu):
            continue
        positions, paths, vectors, T = cg.monomial_basis(m, cb, graph, nu, order)
        for t in range(len(T)):
            assert T[t][t] == ONE
            for s in range(t):
                assert not T[s][t]
        for pos in positions:
            path = cg.sbar(m, cb, graph, nu, pos, order)
            assert cg.replay_path(m, cb, path) == (nu, pos)


def test_rank3_verify_suites():
    q, hw = parse_quiver_dict(A3)
    ctx = verify.VerifyContext(q, hw, 3)
    for r in verify.run_suites(ctx, ("relations", "serre", "counts",
                                     "barinv", "orthogonality",
                                     "triangularity", "crystal")):
        assert r.passed, (r.name, r.failures)


def test_substantial_relations_beyond_adjoint_support():
    # heights above the adjoint's support are vacuous there; L(2,2) is not
    q, _ = parse_quiver_dict({"vertices": ["1", "2"], "edges": [["1", "2"]]})
    ctx = verify.VerifyContext(q, HighestWeight([2, 2]), 5)
    res = verify.suite_relations(ctx)
    assert res.passed and res.checks > 300
    res = verify.suite_serre(ctx)
    assert res.passed, res.failures


def test_kronecker_height6_counts(kronecker):
    q, hw = kronecker
    m = HighestWeightModule(q, hw)
    cb = CanonicalBasis(m).compute_up_to(6)
    for nu in cb.contents():
        assert len(cb.elements(nu)) == m.freudenthal_multiplicity(nu)
    multi = [b for nu in cb.contents() for b in cb.elements(nu)
             if len(b.vector.terms) > 1]
    assert multi  # genuine corrections occur at height >= 5
    graph = cg.build_left_graph(m, cb)
    for nu in cb.contents():
        for pos in range(len(cb.elements(nu))):
            path = cg.sbar(m, cb, graph, nu, pos, (0, 1))
            assert cg.replay_path(m, cb, path) == (nu, pos)


def test_trivial_module():
    q, _ = parse_quiver_dict({"vertices": ["1", "2"], "edges": [["1", "2"]]})
    m = HighestWeightModule(q, HighestWeight([0, 0]))
    cb = CanonicalBasis(m).compute_up_to(3)
    assert len(cb.elements((0, 0))) == 1
    for nu in cb.contents():
        if sum(nu):
            assert cb.elements(nu) == []


def test_coordinates_residual_pairs_to_zero(a2_adjoint):
    q, hw = a2_adjoint
    m = HighestWeightModule(q, hw)
    cb = CanonicalBasis(m).compute_up_to(4)
    rng = random.Random(17)
    for nu in [(1, 1), (2, 1), (2, 2)]:
        elems = cb.elements(nu)
        words = m.spanning_words(nu)
        u = ModuleVector(nu, {w: LaurentPoly({rng.randint(-2, 2):
                                              rng.randint(-3, 3) or 1})
                              for w in words})
        coords = cb.expand(u)
        # residual = u - sum coords_t * b_t pairs to zero with every
        # spanning monomial (here checked through linearity of the form)
        row = m.pairing_row(u)
        for s, word in enumerate(words):
            acc = LaurentPoly(0)
            for t, b in enumerate(elems):
                acc = acc + coords[t] * m.form(b.vector, m.monomial_vector(word))
            assert acc == row[s]


def test_graph_dot_two_vertex_syntax(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": ["1", "0"], "edges": [],
                                "highest_weight": {"1": 2}}))
    code = cli.main(["graph", "--quiver", str(path), "--max-height", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "digraph left_graph {"
    assert '"1,0/0" -> "0,0/0" [label="(1,1)"];' in out
    assert '"2,0/0" -> "0,0/0" [label="(1,2)"];' in out


def test_graph_dot_golden_rank1(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": ["1"], "edges": [],
                                "highest_weight": {"1": 2}}))
    code = cli.main(["graph", "--quiver", str(path), "--max-height", "2"])
    out = capsys.readouterr().out
    assert code == 0
    expect = (
        'digraph left_graph {\n'
        '  rankdir=BT;\n'
        '  "0/0" [label="0/0"];\n'
        '  "1/0" [label="1/0"];\n'
        '  "2/0" [label="2/0"];\n'
        '  "1/0" -> "0/0" [label="(1,1)"];\n'
        '  "2/0" -> "0/0" [label="(1,2)"];\n'
        '}\n'
    )
    assert out == expect


def test_cli_format_rejections(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(A3))
    assert cli.main(["dims", "--quiver", str(path), "--format", "dot"]) == 2
    capsys.readouterr()
    assert cli.main(["basis", "--quiver", str(path), "--format", "table"]) == 2
    capsys.readouterr()
    assert cli.main(["graph", "--quiver", str(path), "--format", "table"]) == 2
    capsys.readouterr()
    assert cli.main(["dims", "--quiver", str(path), "--max-height", "-1"]) == 2
    capsys.readouterr()


def test_height_zero_single_row(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(A3))
    code = cli.main(["dims", "--quiver", str(path), "--max-height", "0"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].split()[2] == "1"


def test_cache_on_randomized_configs(tmp_path, capsys):
    rng = random.Random(23)
    data = [
        {"vertices": ["1"], "edges": [], "highest_weight": {"1": 2}},
        {"vertices": ["1", "2"], "edges": [["1", "2"]],
         "highest_weight": {"1": 1, "2": 1}},
        {"vertices": ["1", "2"], "edges": [["1", "2"], ["1", "2"]],
         "highest_weight": {"1": 1, "2": 0}},
    ]
    cache = str(tmp_path / "cache.json")
    for idx in range(10):
        datum = data[rng.randrange(len(data))]
        hmax = str(rng.randint(0, 3))
        command = ("dims", "basis", "graph")[rng.randrange(3)]
        path = tmp_path / f"r{idx}.json"
        path.write_text(json.dumps(datum))
        code = cli.main([command, "--quiver", str(path), "--max-height", hmax])
        fresh = capsys.readouterr().out
        assert code == 0
        code = cli.main([command, "--quiver", str(path), "--max-height", hmax,
                         "--cache", cache])
        first = capsys.readouterr().out
        code = cli.main([command, "--quiver", str(path), "--max-height", hmax,
                         "--cache", cache])
        second = capsys.readouterr().out
        assert fresh == first == second
