"""Output bytes pinned by sha256.

The `basis` and `graph --format json` digests were recorded before the
weight-space elimination was rewritten, the `dims` and `verify` digests
before the Gram thread pool was deleted, and the D4 and A3 `basis` digests
before the weight spaces were built from candidate spanning sets, and the
D4 h=6 `basis` digest before the per-word coordinate memo was deleted, and
the 3-Kronecker h=6 and D4 h=4 `verify` digests before the zero test
became a self-pairing, and the 3-Kronecker h=7 `basis` and D4 h=6 `graph`
digests before canonical-basis coordinates replaced the greedy-basis solve
and the fraction field, and the 3-Kronecker h=8 `dims` digest before
full-rank weight spaces were certified modulo a prime, and the affine A2 and
wild-3 `dims` and `basis` digests before the coproduct shift became a
one-scan closed form and the form sums a fused accumulation, and the affine
A2 h=7 and wild-3 h=5 `graph` digests before canonical-basis coordinates
were solved once per word, and the D4 h=6 `basis` digest under a
non-default schedule order and the 3-Kronecker h=7 `graph` digest under a
non-default vertex declaration order before each content was stored in id
order, and the Kronecker-4 h=8 and affine A2 h=10 `dims` digests before
rank-deficient weight spaces were certified by exact kernel relations
instead of the fraction-free fallback, and the large-weight A2 (6,6) h=8
`dims` and `basis` and Kronecker (3,3) h=7 `dims` digests before each
weight-space candidate became F_i applied to a basis word one content
lower, and the A2 (6,6) h=10 `dims` and A2 (3,4) h=11 `basis` digests
before the exact fraction-free fallback of the weight-space elimination
was deleted, and the affine A3 h=8 and multi-digit-id h=6 `basis` digests
before element ids were read off lazily compared pairing streams instead
of full pairing rows, and the wild-3 h=8 `basis` and `graph` and affine
A2 (3,3,3) h=6 `basis` digests before t_i and the left-graph arrows were
read off the canonical-basis induction, and the wild-3 h=6 `basis` digest
under the schedule order 3,1,2, the Kronecker (3,3) h=6 `basis` digest
under the schedule order 2,1 and the 3-Kronecker h=9 `basis` digest before
the path-monomial coordinates were read off the canonical-basis induction,
and the D4 h=7 `verify` digest before the contravariance suite drew its
vectors over weight-space bases instead of every normalized word, and the
affine A2 (7,7,7) h=7 `basis`, Kronecker-4 h=10 `dims` and 3-Kronecker
h=8 `verify --suite serre` digests before the form values were carried as
Kronecker-packed integers;
every later change that is meant to keep the output must keep these bytes.  Every `dims` row must also agree with the
multiplicity oracle.
"""

import hashlib
import json

import pytest

from oracles import arrows_by_expansion, t_values, transition_by_expansion
from qcanon import cli
from qcanon.canonical import CanonicalBasis
from qcanon.cartan import parse_quiver_dict
from qcanon.crystalgraph import build_left_graph, monomial_basis
from qcanon.hwmodule import HighestWeightModule

DATA = {
    "a2_adjoint": {"vertices": ["1", "2"], "edges": [["1", "2"]],
                   "highest_weight": {"1": 1, "2": 1}},
    "kronecker": {"vertices": ["1", "2"], "edges": [["1", "2"]] * 2,
                  "highest_weight": {"1": 1, "2": 0}},
    "kronecker3": {"vertices": ["1", "2"], "edges": [["1", "2"]] * 3,
                   "highest_weight": {"1": 1, "2": 0}},
    # 3-Kronecker with its vertices declared in reverse
    "kronecker3_21": {"vertices": ["2", "1"], "edges": [["1", "2"]] * 3,
                      "highest_weight": {"1": 1, "2": 0}},
    "d4": {"vertices": ["c", "1", "2", "3"],
           "edges": [["1", "c"], ["2", "c"], ["3", "c"]],
           "highest_weight": {"c": 1, "1": 0, "2": 0, "3": 0}},
    "a3": {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]],
           "highest_weight": {"1": 1, "2": 0, "3": 1}},
    "a2_66": {"vertices": ["1", "2"], "edges": [["1", "2"]],
              "highest_weight": {"1": 6, "2": 6}},
    "a2_34": {"vertices": ["1", "2"], "edges": [["1", "2"]],
              "highest_weight": {"1": 3, "2": 4}},
    "kronecker_33": {"vertices": ["1", "2"], "edges": [["1", "2"]] * 2,
                     "highest_weight": {"1": 3, "2": 3}},
    "kronecker4": {"vertices": ["1", "2"], "edges": [["1", "2"]] * 4,
                   "highest_weight": {"1": 1, "2": 0}},
    # the 3-cycle 1 -> 2 -> 3 -> 1
    "affine_a2": {"vertices": ["1", "2", "3"],
                  "edges": [["1", "2"], ["2", "3"], ["3", "1"]],
                  "highest_weight": {"1": 1, "2": 0, "3": 0}},
    # the 4-cycle 1 -> 2 -> 3 -> 4 -> 1
    "affine_a3": {"vertices": ["1", "2", "3", "4"],
                  "edges": [["1", "2"], ["2", "3"], ["3", "4"], ["4", "1"]],
                  "highest_weight": {"1": 1, "2": 0, "3": 0, "4": 0}},
    # ids that sort as strings ("10" < "11" < "9") against their
    # declaration order; two arrows 9 -> 10 and one 10 -> 11
    "multidigit": {"vertices": ["9", "10", "11"],
                   "edges": [["9", "10"], ["9", "10"], ["10", "11"]],
                   "highest_weight": {"9": 1, "10": 0, "11": 1}},
    # two arrows 1 -> 2 and two arrows 2 -> 3
    "wild3": {"vertices": ["1", "2", "3"],
              "edges": [["1", "2"], ["1", "2"], ["2", "3"], ["2", "3"]],
              "highest_weight": {"1": 0, "2": 1, "3": 0}},
    # a weight large against the height: every word up to h=6 is nonzero
    "affine_a2_333": {"vertices": ["1", "2", "3"],
                      "edges": [["1", "2"], ["2", "3"], ["3", "1"]],
                      "highest_weight": {"1": 3, "2": 3, "3": 3}},
    "affine_a2_777": {"vertices": ["1", "2", "3"],
                      "edges": [["1", "2"], ["2", "3"], ["3", "1"]],
                      "highest_weight": {"1": 7, "2": 7, "3": 7}},
}

# (datum, max height, subcommand arguments) -> sha256 of stdout
GOLDEN = [
    ("a2_adjoint", 4, ("basis",),
     "eab6fe93d4f6715ec60c2b36137d68dbee2d8dfda588da15aae76ad1129f8a0c"),
    ("a2_adjoint", 4, ("graph", "--format", "json"),
     "40c4b1b4c89ab6fbd2b553a4e12ce45b9ee208e9336386cd1cb823f7a8a013ac"),
    ("kronecker", 5, ("basis",),
     "1b99a4db3dace2e32b9d3a02601751da33ef3afe33f49b1196ebafeba22a3a92"),
    ("kronecker", 5, ("graph", "--format", "json"),
     "0fbbb82aeb8ff4e0b31eea53992c19f12fcde4f0b086cbfd05119a447992b046"),
    ("kronecker3", 5, ("basis",),
     "a6076b4c18d9343f264c0d15d8f483dd51b844a20f322ebd75c942bf1db7c768"),
    ("kronecker3", 5, ("graph", "--format", "json"),
     "3a83d25b294804032fd9eb738bfe265a05d4cdd1250cf7b5c8b87851e212e4c2"),
    ("kronecker", 8, ("dims", "--format", "json"),
     "dfb4bf2acc974ef19ba18bb16402cdfdd5ba541268c1c5b6732f21c4873b7504"),
    ("a2_adjoint", 6, ("dims", "--format", "json"),
     "f84aea3310d2daa2bc56fdc638c63584e279492827e405fa7b93a4884fede567"),
    ("kronecker3", 4, ("verify", "--format", "json"),
     "7ee67a819d0e1e0fcf92daa8a173e813a2f74e1018d3b11b5628119ed6a97ca9"),
    ("d4", 4, ("basis",),
     "41bc31319e0c395a4d5a09a5b566a31f942ddb577562500e7ea322e28c51e328"),
    ("a3", 5, ("basis",),
     "bc2c75802bad0e571dd06861cb1a6ebe5e61d878f28eafd6df2ba45f1dd5bd81"),
    ("d4", 6, ("basis",),
     "3d1803ff564d9cc87ca6266a6b9d2e7c1baefea9f61974c08151c216a088f77f"),
    ("kronecker3", 6, ("verify", "--format", "json"),
     "9204b59e9fd6764ab5e5919b231f56e344e127c46d8556917c6bf6d762323427"),
    ("d4", 4, ("verify", "--format", "json"),
     "66800c13c72abb5bd7dd93994f3dc73743a03bc1596addcba4734d1fa54baf1e"),
    ("kronecker3", 7, ("basis",),
     "b1ae4932758f436e51c930dbc461aa9f0624d01008d177cace3fc91d00c7ce3d"),
    ("d4", 6, ("graph", "--format", "json"),
     "ecde4d97c0ccd8a61f6f7f35feb947834b12151b75dfb4050f92bf19ea1d1499"),
    ("kronecker3", 8, ("dims", "--format", "json"),
     "4b88d649d900e04af372669c43c2936411a2b543717257fd4d398e4c03ccfd73"),
    ("affine_a2", 8, ("dims", "--format", "json"),
     "a2f139d3fe74097b3cda9da2df3fe0eff5aea5a9acab2e8743af492098c19bca"),
    ("affine_a2", 7, ("basis",),
     "4051da563c9aeb695aa9107aca17f25743bbae576fce0b5d25990601d1abd099"),
    ("wild3", 6, ("dims", "--format", "json"),
     "863bab19c5961a97d047b9f34dda9f6a7ca3e34bbc7e4c704d825b90565ff635"),
    ("wild3", 5, ("basis",),
     "4299850a9c372fe37453b435dd48e9c16d65e0c10d02f90573237b5e424752a8"),
    ("affine_a2", 7, ("graph", "--format", "json"),
     "7025fd483684c38b4a79541cd44486872e89ac136e9e2b050a52fb74f6576982"),
    ("wild3", 5, ("graph", "--format", "json"),
     "01eae76ad823883c41e0e9b37dad29555231e54f41694bf46036451fb89b315f"),
    ("d4", 6, ("basis", "--order", "3,2,1,c"),
     "794457c2f6aa53fd050a66482509f35bdf6b507182d70282b7ddf694d8e610b6"),
    ("kronecker3_21", 7, ("graph", "--format", "json"),
     "486ec002bc5451dbfdc572b4726279226f87ed737ed8f1fd4c5d73afacb41454"),
    ("kronecker4", 8, ("dims", "--format", "json"),
     "656cae171f2ac8737916a6bcb20e8c8e2bc041e3be119452915a3015a701c196"),
    ("affine_a2", 10, ("dims", "--format", "json"),
     "f33b582fded437a1772576b9c9319e49821c82d7304c9582d869948b13181df5"),
    ("a2_66", 8, ("dims", "--format", "json"),
     "d6e5cbb1b1809392554f485f53d0afd5e7c91722aeb009b5e58065cdc5356042"),
    ("kronecker_33", 7, ("dims", "--format", "json"),
     "7be08135a76310cc2660d0d06e50b691fa50cec9a131bac00a8e5e084117bcd3"),
    ("a2_66", 8, ("basis",),
     "56d8c13ece7d11b95d72cbffb20ac8518f6f431670aff5e579e9a41374da6a8a"),
    ("a2_66", 10, ("dims", "--format", "json"),
     "bf452262b4d01b612079067ba120b1cfcf9ccc8431f0c930f436c0b6a7b05bcd"),
    ("a2_34", 11, ("basis",),
     "cc2d8c247b4cdd942454c5119f9f5f655a376295b35ad8eeb610b73a1878119f"),
    ("affine_a3", 8, ("basis",),
     "28e6320293ec5710511f3baca0ea693ff885f8f9f7d73003c850686ffa9e024c"),
    ("multidigit", 6, ("basis",),
     "34d2b5161e84f2379d9f33feb4820e811be959adbca99e343b75ccf1e1cab954"),
    ("wild3", 8, ("basis",),
     "8343774f9d1904e282be0234c8fc71b2393f10212cc2266c42e842fe0255d46a"),
    ("wild3", 8, ("graph", "--format", "json"),
     "bbcca405740c95ba264095c8a37a130139d8746b4795a3251d5fc94962664471"),
    ("affine_a2_333", 6, ("basis",),
     "001549d0522dc02637643125a9c4b0927068ececbfaac9a90bd502fd04aadec7"),
    ("wild3", 6, ("basis", "--order", "3,1,2"),
     "6309f1739199527ae44f3620722fa9de86bdcda371c5e6b2935dccec351c4c3d"),
    ("kronecker_33", 6, ("basis", "--order", "2,1"),
     "e28d49c955ee633821ce534bbd107a4a8f6eaa64798dea7cb1a3aeeceaa85d8d"),
    ("kronecker3", 9, ("basis",),
     "55da3b4a39839b80b16884d281c4a94f12b9f56cc7ae0a6085ee1222d6ddf6cd"),
    ("d4", 7, ("verify", "--format", "json"),
     "d340e88cb1b50545fa2060f2785699cbe9dc9b0ec7c46f7a67f7575c2d36421c"),
]

# Pins of taller runs, one to two seconds each, checked for their bytes
# only: the expansion oracles below take about 12 s on affine A2 (7,7,7).
TALL = [
    ("affine_a2_777", 7, ("basis",),
     "123543b39a0ccf38a47b481b1929d7bb99fb4bc867bae3cac8f1db18aac2121d"),
    ("kronecker4", 10, ("dims", "--format", "json"),
     "7394fc14b13f8166a675d5f336262095b1448dd5c0b3eec8d303520fc4c677b1"),
    ("kronecker3", 8, ("verify", "--suite", "serre", "--format", "json"),
     "fcd620bf00afae0eae982707a6974f8d6f7ed9c228d124713c640eb244391ea2"),
]


@pytest.mark.parametrize("datum,height,command,digest", GOLDEN + TALL)
def test_output_bytes_unchanged(tmp_path, capsys, datum, height, command, digest):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(DATA[datum]))
    code = cli.main([command[0], "--quiver", str(path), "--max-height", str(height),
                     "--threads", "1", *command[1:]])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if command[0] == "dims":
        assert all(row["agree"] for row in json.loads(out)["rows"])


def _runs(commands):
    """(datum, height, --order) of every pin of one of the subcommands."""
    return sorted({(datum, height, dict(zip(command[1::2], command[2::2])).get("--order"))
                   for datum, height, command, _ in GOLDEN
                   if command[0] in commands}, key=str)


BASES = _runs(("basis", "graph"))


@pytest.mark.parametrize("datum,height,order", BASES)
def test_t_and_arrows_match_the_expansion_oracles(datum, height, order):
    # the induction reads t_i and the arrows off its seeds' coordinates;
    # the oracles read them off expansions of F_i^(r) images, certified by
    # an exact rank, and off pi_arrow
    quiver, hw = parse_quiver_dict(DATA[datum])
    schedule = None if order is None else [quiver.index[v] for v in order.split(",")]
    cb = CanonicalBasis(HighestWeightModule(quiver, hw), schedule).compute_up_to(height)
    for nu in cb.contents():
        assert [b.t for b in cb.elements(nu)] == t_values(cb, nu), nu
    assert build_left_graph(cb).arrows == arrows_by_expansion(cb)


@pytest.mark.parametrize("datum,height,order", _runs(("basis",)))
def test_transitions_match_the_expansion_oracle(datum, height, order):
    # monomial_basis reads its columns off the induction's seed images; the
    # oracle expands every path monomial against the stored elements
    quiver, hw = parse_quiver_dict(DATA[datum])
    schedule = (tuple(range(quiver.n)) if order is None
                else tuple(quiver.index[v] for v in order.split(",")))
    cb = CanonicalBasis(HighestWeightModule(quiver, hw), schedule).compute_up_to(height)
    graph = build_left_graph(cb)
    for nu in cb.contents():
        if cb.elements(nu):
            assert (monomial_basis(cb, graph, nu, schedule)[3]
                    == transition_by_expansion(cb, graph, nu, schedule)), nu
