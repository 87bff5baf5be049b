"""Output bytes pinned by sha256.

The `basis` and `graph --format json` digests were recorded before the
weight-space elimination was rewritten, the `dims` and `verify` digests
before the Gram thread pool was deleted; every later change that is meant
to keep the output must keep these bytes.
"""

import hashlib
import json

import pytest

from qcanon import cli

DATA = {
    "a2_adjoint": {"vertices": ["1", "2"], "edges": [["1", "2"]],
                   "highest_weight": {"1": 1, "2": 1}},
    "kronecker": {"vertices": ["1", "2"], "edges": [["1", "2"]] * 2,
                  "highest_weight": {"1": 1, "2": 0}},
    "kronecker3": {"vertices": ["1", "2"], "edges": [["1", "2"]] * 3,
                   "highest_weight": {"1": 1, "2": 0}},
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
]


@pytest.mark.parametrize("datum,height,command,digest", GOLDEN)
def test_output_bytes_unchanged(tmp_path, capsys, datum, height, command, digest):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(DATA[datum]))
    code = cli.main([command[0], "--quiver", str(path), "--max-height", str(height),
                     "--threads", "1", *command[1:]])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
