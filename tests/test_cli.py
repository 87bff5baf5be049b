import json
import os
import subprocess
import sys

import pytest

import qcanon
from qcanon import cli, hwmodule
from qcanon.cartan import parse_quiver_dict
from qcanon.hwmodule import (CONTENT_CAP, HighestWeightModule, ResourceCapError,
                             check_content_count)
from qcanon.verify import VerifyContext


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
    with open(cache) as fh:
        store = json.load(fh)
    (key,) = store["entries"]
    store["entries"][key]["payload"] = "tampered\n"
    with open(cache, "w") as fh:
        fh.write(json.dumps(store))
    code, out, _ = run_cli(capsys, "basis", "--quiver", path,
                           "--max-height", "3", "--cache", cache)
    assert out == "tampered\n"
    # a different configuration must miss the tampered entry
    code, out, _ = run_cli(capsys, "basis", "--quiver", path,
                           "--max-height", "2", "--cache", cache)
    assert out != "tampered\n" and json.loads(out)


@pytest.mark.parametrize("content", [
    "[]",
    '{"version": "0.1.0", "entries": []}',
    '{"version": 1, "entries": {}}',
    '{"entries": {}}',
    "null",
    "{not json",
    "",
    "[" * 100000,
], ids=["list", "entries-list", "version-int", "no-version", "null",
        "unparsable", "empty", "deeply-nested"])
def test_corrupt_cache_is_reported_and_rewritten(qfile, capsys, tmp_path, content):
    path = qfile(A2ADJ)
    code, fresh, _ = run_cli(capsys, "basis", "--quiver", path, "--max-height", "2")
    assert code == 0
    cache = tmp_path / "cache.json"
    cache.write_text(content)
    code, out, err = run_cli(capsys, "basis", "--quiver", path,
                             "--max-height", "2", "--cache", str(cache))
    assert code == 0
    assert out == fresh
    assert "warning: cache file" in err
    store = json.loads(cache.read_text())
    assert store["version"] == cli.__version__
    (entry,) = store["entries"].values()
    assert entry["payload"] == fresh
    # the rewritten store is served without a warning
    code, out, err = run_cli(capsys, "basis", "--quiver", path,
                             "--max-height", "2", "--cache", str(cache))
    assert (code, out, err) == (0, fresh, "")


def test_malformed_cache_entry_is_recomputed(qfile, capsys, tmp_path):
    path = qfile(A2ADJ)
    cache = tmp_path / "cache.json"
    code, fresh, _ = run_cli(capsys, "basis", "--quiver", path,
                             "--max-height", "2", "--cache", str(cache))
    store = json.loads(cache.read_text())
    (key,) = store["entries"]
    for entry in ([], {"key": store["entries"][key]["key"]}):
        store["entries"][key] = entry
        cache.write_text(json.dumps(store))
        code, out, _ = run_cli(capsys, "basis", "--quiver", path,
                               "--max-height", "2", "--cache", str(cache))
        assert (code, out) == (0, fresh)
        assert json.loads(cache.read_text())["entries"][key]["payload"] == fresh


def test_failed_cache_write_keeps_previous_file(qfile, capsys, tmp_path, monkeypatch):
    path = qfile(A2ADJ)
    cache = tmp_path / "cache.json"
    code, _, _ = run_cli(capsys, "basis", "--quiver", path,
                         "--max-height", "2", "--cache", str(cache))
    assert code == 0
    before = cache.read_bytes()

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"version": ')
        raise OSError("disk full")

    code, fresh, _ = run_cli(capsys, "basis", "--quiver", path, "--max-height", "3")
    assert code == 0
    monkeypatch.setattr(cli.json, "dump", broken_dump)
    code, out, err = run_cli(capsys, "basis", "--quiver", path, "--max-height", "3",
                             "--cache", str(cache))
    assert (code, out) == (0, fresh)
    assert "warning: cache file" in err and "disk full" in err
    assert cache.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json", "q.json"]


def test_unwritable_cache_still_prints_the_result(qfile, capsys, tmp_path):
    path = qfile(A2ADJ)
    code, fresh, _ = run_cli(capsys, "dims", "--quiver", path, "--max-height", "3")
    assert code == 0
    cache = tmp_path / "no" / "such" / "dir" / "c.json"
    code, out, err = run_cli(capsys, "dims", "--quiver", path, "--max-height", "3",
                             "--cache", str(cache))
    assert (code, out) == (0, fresh)
    assert "warning: cache file" in err and "Traceback" not in err
    assert not cache.parent.exists()


@pytest.mark.parametrize("argv,message", [
    (("verify", "--cache", "vc.json"), "--cache"),
    (("verify", "--format", "dot"), "dot"),
    (("dims", "--suite", "counts"), "--suite"),
    (("basis", "--suite", "counts"), "--suite"),
    (("graph", "--suite", "counts"), "--suite"),
], ids=["verify-cache", "verify-dot", "dims-suite", "basis-suite", "graph-suite"])
def test_unused_options_are_rejected(qfile, capsys, tmp_path, monkeypatch,
                                     argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, argv[0], "--quiver", qfile(A2ADJ),
                             "--max-height", "2", *argv[1:])
    assert code == 2 and not out
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "vc.json").exists()


def test_content_enumeration_cap_exits_3(qfile, capsys):
    d4 = {"vertices": ["c", "1", "2", "3"],
          "edges": [["1", "c"], ["2", "c"], ["3", "c"]],
          "highest_weight": {"c": 1}}
    for command in ("dims", "basis", "graph", "verify"):
        code, out, err = run_cli(capsys, command, "--quiver", qfile(d4),
                                 "--max-height", "1000")
        assert code == 3 and not out
        assert "resource cap" in err and "contents" in err
    # the cap counts contents exactly: C(hmax + n, n) of them
    check_content_count(1, CONTENT_CAP - 1)
    with pytest.raises(ResourceCapError):
        check_content_count(1, CONTENT_CAP)
    with pytest.raises(ResourceCapError):
        VerifyContext(*parse_quiver_dict(d4), 1000)


def test_threads_flag_is_an_accepted_no_op(capsys):
    with pytest.raises(SystemExit):
        cli.main(["dims", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--threads THREADS accepted for compatibility and ignored" in help_text


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


D4 = {"vertices": ["c", "1", "2", "3"], "edges": [["1", "c"], ["2", "c"], ["3", "c"]],
      "highest_weight": {"c": 1}}


@pytest.mark.parametrize("data, height, order", [
    (KRON, 5, None), (KRON, 5, "2,1"), (D4, 4, None), (D4, 4, "3,2,1,c")])
def test_basis_and_graph_share_one_path_order(qfile, capsys, data, height, order):
    # both outputs list every content's ids in the same path order
    args = ["--quiver", qfile(data), "--max-height", str(height)]
    if order is not None:
        args += ["--order", order]
    code, out, _ = run_cli(capsys, "basis", *args)
    assert code == 0
    basis = {",".join(str(x) for x in block["content"].values()): block["path_order"]
             for block in json.loads(out)["contents"] if block["rank"]}
    code, out, _ = run_cli(capsys, "graph", "--format", "json", *args)
    assert code == 0
    assert basis and basis == json.loads(out)["order_listing"]


def test_verify_passes_and_suite_selection(qfile, capsys):
    path = qfile(A2ADJ)
    code, out, _ = run_cli(capsys, "verify", "--quiver", path,
                           "--max-height", "3", "--suite", "counts,barinv")
    assert code == 0
    assert "counts" in out and "PASS" in out


@pytest.mark.parametrize("names", ["", ",", " ", " , "])
def test_verify_empty_suite_list_exits_2(qfile, capsys, names):
    # a selection that names no suite would run nothing and report a pass
    code, out, err = run_cli(capsys, "verify", "--quiver", qfile(A2ADJ),
                             "--max-height", "3", "--suite", names)
    assert code == 2
    assert err.startswith("error:") and "no suite" in err
    assert out == ""


def test_verify_repeated_suite_exits_2(qfile, capsys):
    # a repeated name would run its suite twice and print two rows
    code, out, err = run_cli(capsys, "verify", "--quiver", qfile(A2ADJ),
                             "--max-height", "3", "--suite", "serre,counts,serre")
    assert code == 2
    assert err.startswith("error:") and "'serre'" in err
    assert out == ""


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


def test_non_array_quiver_fields_exit_2(qfile, capsys):
    for doc in ({"vertices": 5}, {"vertices": ["1", "2"], "edges": 5},
                {"vertices": "12"}, {"vertices": [["x"], "2"]}):
        code, out, err = run_cli(capsys, "dims", "--quiver", qfile(doc))
        assert code == 2 and err.startswith("error:") and not out


@pytest.mark.parametrize("content, reason", [
    (b'{"vertices": ["\xe9"], "edges": []}', "UTF-8"),
    (b"[" * 100000, "nested"),
    (b'{"vertices": ["1"], "highest_weight": {"1": ' + b"9" * 5000 + b"}}", "digits"),
], ids=["not-utf8", "deeply-nested", "huge-integer"])
def test_unreadable_quiver_file_exits_2(tmp_path, capsys, content, reason):
    path = tmp_path / "q.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "dims", "--quiver", str(path))
    assert code == 2 and err.startswith("error:") and reason in err and not out


def test_verify_at_height_zero_passes(qfile, capsys):
    code, out, _ = run_cli(capsys, "verify", "--quiver", qfile(A2ADJ),
                           "--max-height", "0")
    assert code == 0
    assert out.splitlines()[-1] == "all suites passed"
    assert "contravariance   PASS  (0 checks)" in out


def test_resource_cap_exit_3(qfile, capsys, monkeypatch):
    # dims counts words without listing them; basis walks them for the
    # element ids of every content with two elements or more, the first
    # of which is (2,2) at height 4, and each walk reaches a word
    monkeypatch.setattr(hwmodule, "SPANNING_CAP", 1)
    code, _, err = run_cli(capsys, "basis", "--quiver", qfile(KRON),
                           "--max-height", "4")
    assert code == 3 and "cap" in err


@pytest.mark.parametrize("command", [("basis",), ("graph", "--format", "json")])
def test_basis_and_graph_list_no_words(qfile, capsys, monkeypatch, command):
    # element ids walk the normalized words of a content lazily, so neither
    # command lists all of them
    listed = []
    spanning_words = HighestWeightModule.spanning_words

    def recorded(self, nu):
        listed.append(nu)
        return spanning_words(self, nu)

    monkeypatch.setattr(HighestWeightModule, "spanning_words", recorded)
    code, out, _ = run_cli(capsys, command[0], "--quiver", qfile(KRON),
                           "--max-height", "6", *command[1:])
    assert code == 0 and out
    assert listed == []


def test_gram_cap_exit_3(qfile, capsys, monkeypatch):
    # (1,1) of A2 (1,1) has two candidates, so four Gram entries, over a
    # cap of 3: it is refused before its Gram matrix is built
    monkeypatch.setattr(hwmodule, "GRAM_CAP", 3)
    built = []
    gram = HighestWeightModule._gram

    def counted_gram(self, spanning):
        built.append(len(spanning))
        return gram(self, spanning)

    monkeypatch.setattr(HighestWeightModule, "_gram", counted_gram)
    code, out, err = run_cli(capsys, "dims", "--quiver", qfile(A2ADJ),
                             "--max-height", "2")
    assert code == 3 and not out
    assert err.startswith("resource cap:") and "exceeding cap 3" in err
    assert built and max(built) == 1


@pytest.mark.parametrize("command", ["dims", "basis", "graph", "verify"])
def test_closed_stdout_exits_quietly(qfile, command):
    # the read end is closed before the child starts, so its first write
    # meets a broken pipe: no traceback, and not the verification-failure code
    src = os.path.dirname(os.path.dirname(qcanon.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qcanon.cli", command, "--quiver", qfile(A2ADJ),
             "--max-height", "2"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_PIPE
    assert proc.stderr == b""


# the child reports the modules that importing and running the CLI added
IMPORT_PROBE = """
import sys
before = set(sys.modules)
from qcanon import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(" ".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

LAYERS_PAST_HWMODULE = {"qcanon.canonical", "qcanon.crystalgraph", "qcanon.verify"}


@pytest.mark.parametrize("command, cache, loaded, not_loaded", [
    ("dims", False, {"qcanon.hwmodule"}, LAYERS_PAST_HWMODULE | {"hashlib"}),
    ("dims", True, {"hashlib"}, LAYERS_PAST_HWMODULE),
    ("basis", False, {"qcanon.canonical", "qcanon.crystalgraph"},
     {"qcanon.verify", "hashlib"}),
    ("graph", False, {"qcanon.canonical", "qcanon.crystalgraph"},
     {"qcanon.verify", "hashlib"}),
    ("graph", True, {"hashlib"}, {"qcanon.verify"}),
    ("verify", False, LAYERS_PAST_HWMODULE, {"hashlib"}),
], ids=["dims", "dims-cache", "basis", "graph", "graph-cache", "verify"])
def test_each_subcommand_imports_only_its_layers(qfile, tmp_path, command, cache,
                                                 loaded, not_loaded):
    src = os.path.dirname(os.path.dirname(qcanon.__file__))
    argv = [command, "--quiver", qfile(A2ADJ), "--max-height", "2"]
    if cache:
        argv += ["--cache", str(tmp_path / "cache.json")]
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stdout
    added = set(proc.stderr.split())
    assert loaded <= added
    assert not added & (not_loaded | {"dataclasses"})


def test_package_runs_as_a_module(qfile):
    # python -m qcanon is the same front end as python -m qcanon.cli
    src = os.path.dirname(os.path.dirname(qcanon.__file__))
    args = ["dims", "--quiver", qfile(A2ADJ), "--max-height", "4"]
    outs = []
    for module in ("qcanon", "qcanon.cli"):
        proc = subprocess.run([sys.executable, "-m", module, *args],
                              capture_output=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0 and proc.stderr == b""
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0]
