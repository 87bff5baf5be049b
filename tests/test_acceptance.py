"""Acceptance criteria, one test per criterion, exact equality throughout.

Each test prints a single PASS line (visible with -s or on failure); the
stated runtime budgets are asserted.
"""

import json
import time

import pytest

from qcanon.qarith import ONE
from qcanon.cartan import HighestWeight, parse_quiver_dict, contents_up_to
from qcanon.hwmodule import HighestWeightModule
from qcanon.canonical import CanonicalBasis
from qcanon import crystalgraph as cg
from qcanon import verify
from qcanon import cli


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name}: {elapsed:.2f}s over the {self.seconds}s budget"
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL")
        return False


A1D3 = {"vertices": ["1"], "edges": [], "highest_weight": {"1": 3}}
A2FUND = {"vertices": ["1", "2"], "edges": [["1", "2"]],
          "highest_weight": {"1": 1, "2": 0}}
A2ADJ = {"vertices": ["1", "2"], "edges": [["1", "2"]],
         "highest_weight": {"1": 1, "2": 1}}
KRON = {"vertices": ["1", "2"], "edges": [["1", "2"], ["1", "2"]],
        "highest_weight": {"1": 1, "2": 0}}


def test_criterion_1_rank1_string():
    with Budget("1 (rank-1 string)", 1.0):
        q, hw = parse_quiver_dict(A1D3)
        m = HighestWeightModule(q, hw)
        mults = [m.weight_space((k,)).rank for k in range(7)]
        assert mults == [1, 1, 1, 1, 0, 0, 0]
        cb = CanonicalBasis(m).compute_up_to(5)
        for k in range(4):
            (b,) = cb.elements((k,))
            expect = {((0, k),): ONE} if k else {(): ONE}
            assert b.vector.terms == expect
            assert b.self_pairing.is_one_plus_lower()
        f4 = m.apply_F(0, 4, m.vacuum())
        assert cb.expand(f4) == [] and m.is_zero_vector(f4)


def test_criterion_2_a2_fundamental():
    with Budget("2 (A2 fundamental)", 1.0):
        q, hw = parse_quiver_dict(A2FUND)
        m = HighestWeightModule(q, hw)
        cb = CanonicalBasis(m).compute_up_to(2)
        elems = [(nu, b.vector.terms) for nu in cb.contents()
                 for b in cb.elements(nu)]
        assert elems == [
            ((0, 0), {(): ONE}),
            ((1, 0), {((0, 1),): ONE}),
            ((1, 1), {((1, 1), (0, 1)): ONE}),
        ]
        graph = cg.build_left_graph(m, cb)
        assert sum(len(v) for v in graph.vertices.values()) == 3
        assert sorted(c for _, _, c in graph.arrows) == [("1", 1), ("2", 1)]


def test_criterion_3_a2_adjoint():
    with Budget("3 (A2 adjoint)", 30.0):
        q, hw = parse_quiver_dict(A2ADJ)
        m = HighestWeightModule(q, hw)
        cb = CanonicalBasis(m).compute_up_to(4)
        total = 0
        for nu in contents_up_to(2, 4):
            count = len(cb.elements(nu))
            assert count == m.freudenthal_multiplicity(nu), nu
            total += count
        assert total == 8
        assert len(cb.elements((1, 1))) == 2
        graph = cg.build_left_graph(m, cb)
        order = (0, 1)
        for nu in cb.contents():
            if not cb.elements(nu):
                continue
            positions, paths, vectors, T = cg.monomial_basis(m, cb, graph, nu, order)
            r = len(T)
            for t in range(r):
                assert T[t][t] == ONE
                for s in range(t):
                    assert not T[s][t]
            T1 = [[c.at_one() for c in row] for row in T]
            for t in range(r):
                assert T1[t][t] == 1
                for s in range(t):
                    assert T1[s][t] == 0


def test_criterion_4_operator_relations():
    with Budget("4 (operator relations)", 300.0):
        for datum, hmax in ((A2ADJ, 6), (KRON, 4)):
            q, hw = parse_quiver_dict(datum)
            ctx = verify.VerifyContext(q, hw, hmax)
            for suite in (verify.suite_relations, verify.suite_serre):
                res = suite(ctx)
                assert res.passed, res.failures


def test_criterion_5_derivation_identity():
    with Budget("5 (derivation identity)", 120.0):
        for datum in (A2ADJ, KRON):
            q, hw = parse_quiver_dict(datum)
            ctx = verify.VerifyContext(q, hw, 4)
            res = verify.suite_derivation(ctx, hcap=4)
            assert res.passed, res.failures
            assert res.checks > 0


def test_criterion_6_coproduct_consistency():
    with Budget("6 (coproduct self-consistency)", 120.0):
        for datum in (A2ADJ, KRON):
            q, hw = parse_quiver_dict(datum)
            ctx = verify.VerifyContext(q, hw, 5)
            res = verify.suite_coproduct(ctx, samples=50, hcap=4)
            assert res.passed, res.failures


def test_criterion_7_crystal_layer():
    with Budget("7 (crystal layer)", 300.0):
        q, hw = parse_quiver_dict(A2ADJ)
        ctx = verify.VerifyContext(q, hw, 6)
        res = verify.suite_crystal(ctx)
        assert res.passed, res.failures


def test_criterion_8_determinism_and_cache(tmp_path, capsys):
    with Budget("8 (determinism and cache)", 300.0):
        configs = [
            (A1D3, "4"), (A2FUND, "2"), (A2ADJ, "4"), (KRON, "3"),
        ]
        for idx, (datum, hmax) in enumerate(configs):
            path = tmp_path / f"q{idx}.json"
            path.write_text(json.dumps(datum))
            for command in ("dims", "basis", "graph"):
                outputs = set()
                for threads in ("1", "2"):
                    code = cli.main([command, "--quiver", str(path),
                                     "--max-height", hmax,
                                     "--threads", threads])
                    assert code == 0
                    outputs.add(capsys.readouterr().out)
                cache = tmp_path / f"cache{idx}-{command}.json"
                for _ in range(2):
                    code = cli.main([command, "--quiver", str(path),
                                     "--max-height", hmax,
                                     "--cache", str(cache)])
                    assert code == 0
                    outputs.add(capsys.readouterr().out)
                assert len(outputs) == 1, f"{command} not deterministic"
