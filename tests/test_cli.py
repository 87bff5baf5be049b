import functools
import json
import os

import pytest

from qcanon import cli
from qcanon.hwmodule import HighestWeightModule


A1D3 = {"vertices": ["1"], "edges": [], "highest_weight": {"1": 3}}
A2ADJ = {"vertices": ["1", "2"], "edges": [["1", "2"]],
         "highest_weight": {"1": 1, "2": 1}}
KRON = {"vertices": ["1", "2"], "edges": [["1", "2"], ["1", "2"]],
        "highest_weight": {"1": 1, "2": 0}}


@pytest.fixture
def qfile(tmp_path):
    def write(data, name="q.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return write


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dims_table_rank1(qfile, capsys):
    code, out, _ = run_cli(capsys, "dims", "--quiver", qfile(A1D3),
                           "--max-height", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["content", "spanning", "rank", "freudenthal", "agree"]
    ranks = [line.split()[2] for line in lines[1:]]
    assert ranks == ["1", "1", "1", "1", "0"]
    assert all(line.split()[-1] == "yes" for line in lines[1:])


def test_dims_json(qfile, capsys):
    code, out, _ = run_cli(capsys, "dims", "--quiver", qfile(A2ADJ),
                           "--max-height", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = {tuple(sorted(r["content"].items())): r for r in doc["rows"]}
    r11 = rows[(("1", 1), ("2", 1))]
    assert r11["rank"] == 2 and r11["freudenthal"] == 2 and r11["agree"]


def test_basis_document(qfile, capsys):
    code, out, _ = run_cli(capsys, "basis", "--quiver", qfile(A2ADJ),
                           "--max-height", "4")
    assert code == 0
    doc = json.loads(out)
    total = sum(len(c["elements"]) for c in doc["contents"])
    assert total == 8
    for block in doc["contents"]:
        for elem in block["elements"]:
            assert set(elem) == {"id", "vector", "self_pairing", "provenance"}
        if block["rank"]:
            n = block["rank"]
            T1 = block["transition_v1"]
            assert all(T1[t][t] == 1 for t in range(n))
            assert all(T1[s][t] == 0 for t in range(n) for s in range(t))


def test_kronecker_basis_counts_match_freudenthal(qfile, capsys):
    code, out, _ = run_cli(capsys, "basis", "--quiver", qfile(KRON),
                           "--max-height", "3")
    assert code == 0
    doc = json.loads(out)
    q, hw = cli.load_quiver.__globals__["parse_quiver_dict"](KRON)
    m = HighestWeightModule(q, hw)
    for block in doc["contents"]:
        nu = tuple(block["content"][v] for v in ("1", "2"))
        assert block["rank"] == m.freudenthal_multiplicity(nu)


def test_outputs_are_deterministic(qfile, capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "basis", "--quiver", qfile(A2ADJ),
                               "--max-height", "3")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_outputs_independent_of_thread_count(qfile, capsys):
    path = qfile(A2ADJ)
    outs = set()
    for threads in ("1", "3"):
        code, out, _ = run_cli(capsys, "basis", "--quiver", path,
                               "--max-height", "3", "--threads", threads)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_cache_round_trip(qfile, capsys, tmp_path):
    path = qfile(A2ADJ)
    cache = str(tmp_path / "cache.json")
    code, fresh, _ = run_cli(capsys, "basis", "--quiver", path,
                             "--max-height", "3", "--cache", cache)
    assert code == 0 and os.path.exists(cache)
    code, cached, _ = run_cli(capsys, "basis", "--quiver", path,
                              "--max-height", "3", "--cache", cache)
    assert code == 0
    assert cached == fresh
    # prove the second run served the stored payload
    store = json.loads(open(cache).read())
    (key,) = store["entries"]
    store["entries"][key]["payload"] = "tampered\n"
    open(cache, "w").write(json.dumps(store))
    code, out, _ = run_cli(capsys, "basis", "--quiver", path,
                           "--max-height", "3", "--cache", cache)
    assert out == "tampered\n"
    # a different configuration must miss the tampered entry
    code, out, _ = run_cli(capsys, "basis", "--quiver", path,
                           "--max-height", "2", "--cache", cache)
    assert out != "tampered\n" and json.loads(out)


def test_graph_dot_invariant_under_order_override(qfile, capsys):
    path = qfile(A2ADJ)
    code, dot1, _ = run_cli(capsys, "graph", "--quiver", path, "--max-height", "4")
    code, dot2, _ = run_cli(capsys, "graph", "--quiver", path, "--max-height", "4",
                            "--order", "2,1")
    assert dot1 == dot2
    assert dot1.startswith("digraph")
    code, j1, _ = run_cli(capsys, "graph", "--quiver", path, "--max-height", "4",
                          "--format", "json")
    code, j2, _ = run_cli(capsys, "graph", "--quiver", path, "--max-height", "4",
                          "--format", "json", "--order", "2,1")
    d1, d2 = json.loads(j1), json.loads(j2)
    assert d1["graph"] == d2["graph"]
    assert d1["paths"] != d2["paths"]  # the path listing follows the order
    assert d1["metadata"]["sign_twist"] == "unknown"


def test_verify_passes_and_suite_selection(qfile, capsys):
    path = qfile(A2ADJ)
    code, out, _ = run_cli(capsys, "verify", "--quiver", path,
                           "--max-height", "3", "--suite", "counts,barinv")
    assert code == 0
    assert "counts" in out and "PASS" in out
    # empty selection is a trivial pass
    code, out, _ = run_cli(capsys, "verify", "--quiver", path,
                           "--max-height", "3", "--suite", "")
    assert code == 0


def test_verify_failure_exit_code(qfile, capsys, monkeypatch):
    orig = HighestWeightModule.apply_E

    def flipped(self, i, u):
        from qcanon.qarith import LaurentPoly
        return orig(self, i, u).scale(LaurentPoly(-1))

    monkeypatch.setattr(HighestWeightModule, "apply_E", flipped)
    code, out, _ = run_cli(capsys, "verify", "--quiver", qfile(A2ADJ),
                           "--max-height", "2", "--suite", "derivation")
    assert code == 1
    assert "counterexample" in out


def test_input_errors_exit_2(qfile, capsys, tmp_path):
    code, _, err = run_cli(capsys, "dims", "--quiver", str(tmp_path / "no.json"))
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "dims", "--quiver", str(bad))
    assert code == 2 and "line" in err
    loop = qfile({"vertices": ["1"], "edges": [["1", "1"]]}, "loop.json")
    code, _, err = run_cli(capsys, "dims", "--quiver", loop)
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--quiver", qfile(A1D3),
                           "--suite", "nonsense")
    assert code == 2
    code, _, err = run_cli(capsys, "dims", "--quiver", qfile(A1D3),
                           "--order", "1,2")
    assert code == 2


def test_boolean_highest_weight_exits_2(qfile, capsys):
    doc = {"vertices": ["1"], "edges": [], "highest_weight": {"1": True}}
    code, out, err = run_cli(capsys, "dims", "--quiver", qfile(doc))
    assert code == 2 and "highest_weight" in err and not out


def test_verify_at_height_zero_passes(qfile, capsys):
    code, out, _ = run_cli(capsys, "verify", "--quiver", qfile(A2ADJ),
                           "--max-height", "0")
    assert code == 0
    assert out.splitlines()[-1] == "all suites passed"
    assert "contravariance   PASS  (0 checks)" in out


def test_resource_cap_exit_3(qfile, capsys, monkeypatch):
    capped = functools.partial(HighestWeightModule, spanning_cap=1)
    monkeypatch.setattr(cli, "HighestWeightModule", capped)
    code, _, err = run_cli(capsys, "dims", "--quiver", qfile(KRON),
                           "--max-height", "3")
    assert code == 3 and "cap" in err
