"""Quiver data, workloads, seeded relabelling and the correctness gate.

A workload is a fixed list of CLI commands over quiver data.  The seed only
draws each datum's vertex-declaration order; the program sees nothing but
the relabelled quiver file.  Outputs are checked against summaries that do
not change under relabelling (see ``summarize``), recorded in
``expected.json`` from the declared order.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# name -> quiver document in the CLI's input format (declared order)
DATA = {
    "kronecker": {"vertices": ["1", "2"], "edges": [["1", "2"]] * 2,
                  "highest_weight": {"1": 1}},
    "kronecker3": {"vertices": ["1", "2"], "edges": [["1", "2"]] * 3,
                   "highest_weight": {"1": 1}},
    "a2": {"vertices": ["1", "2"], "edges": [["1", "2"]],
           "highest_weight": {"1": 1, "2": 1}},
    "a2_fundamental": {"vertices": ["1", "2"], "edges": [["1", "2"]],
                       "highest_weight": {"1": 1}},
    "a3": {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]],
           "highest_weight": {"1": 1, "3": 1}},
    "d4": {"vertices": ["c", "1", "2", "3"],
           "edges": [["1", "c"], ["2", "c"], ["3", "c"]],
           "highest_weight": {"c": 1}},
}

# workload -> commands (subcommand, datum, max height).  Why each one is
# here, and what it should move, is in README.md.
WORKLOADS = {
    "dims-ladder": [("dims", "kronecker", 10), ("dims", "a3", 7),
                    ("dims", "d4", 6), ("dims", "a2", 10)],
    "basis-wild": [("basis", "kronecker3", 7)],
    "verify-suites": [("verify", "kronecker3", 6), ("verify", "d4", 4)],
}

# Height of the set-up probe per subcommand.  `verify --max-height 0`
# raises ValueError in suite_contravariance (it samples from an empty
# content list), so its probe uses the smallest height that runs.
SETUP_HEIGHT = {"dims": 0, "basis": 0, "verify": 1}


def relabel(datum, seed):
    """The datum with its vertex-declaration order drawn from the seed."""
    doc = json.loads(json.dumps(DATA[datum]))
    random.Random(f"{seed}/{datum}").shuffle(doc["vertices"])
    return doc


def cli_args(command, quiver_path, height):
    """Arguments after `qcanon`; every command runs single-threaded."""
    args = [command, "--quiver", str(quiver_path), "--max-height", str(height),
            "--threads", "1"]
    if command == "dims":
        args += ["--format", "json"]
    return args


def _content_key(content):
    return ",".join(f"{v}={content[v]}" for v in sorted(content))


def _poly_key(terms):
    return json.dumps(terms, separators=(",", ":"))


def summarize(command, stdout):
    """Relabelling-invariant summary of one command's output.

    dims: content -> [spanning, rank, freudenthal, agree].
    basis: content -> [rank, sorted self_pairing values].
    verify: the last line of the table.
    """
    if command == "verify":
        lines = stdout.strip().splitlines()
        return lines[-1] if lines else ""
    doc = json.loads(stdout)
    if command == "dims":
        return {_content_key(r["content"]):
                [r["spanning"], r["rank"], r["freudenthal"], r["agree"]]
                for r in doc["rows"]}
    return {_content_key(b["content"]):
            [b["rank"], sorted(_poly_key(e["self_pairing"]) for e in b["elements"])]
            for b in doc["contents"]}


def _height(key):
    return sum(int(part.split("=")[1]) for part in key.split(","))


def expected_summary(expected, command, datum, height):
    """The recorded summary for (command, datum), cut at `height`."""
    if command == "verify":
        return "all suites passed"
    full = expected[f"{command}/{datum}"]
    return {k: v for k, v in full.items() if _height(k) <= height}


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


_VERSION = re.compile(rb'"version": "[^"]*"')


def output_digest(stdout_bytes):
    """sha256 of the output with the version field masked (reported only)."""
    return hashlib.sha256(_VERSION.sub(b'"version": "*"', stdout_bytes)).hexdigest()
