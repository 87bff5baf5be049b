#!/usr/bin/env python3
"""Self-test of the benchmark's own arithmetic, hooks and correctness gate.

    python3 perfbench/selftest.py

Checks the self-time and inclusive-time arithmetic on synthetic nested
spans, that the invariant summaries agree across relabellings of the A2
fundamental module at height 3, that the hooks rebind imported names and
report absent targets as missing, and that BENCHMARK.json names exactly
the metrics run.py prints.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layertrace as lt  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

# root [0,10] > a [1,4] > b [2,3];  root > c [5,9] > b [6,8.5]
SPANS = [
    ["root", 0.0, 10.0, -1],
    ["a", 1.0, 4.0, 0],
    ["b", 2.0, 3.0, 1],
    ["c", 5.0, 9.0, 0],
    ["b", 6.0, 8.5, 3],
]


def cli_output(*argv):
    from qcanon import cli
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


class SpanArithmetic(unittest.TestCase):
    def test_self_times(self):
        got = lt.self_times(SPANS)
        want = {"root": (1, 3.0), "a": (1, 2.0), "b": (2, 3.5), "c": (1, 1.5)}
        self.assertEqual(set(got), set(want))
        for name, (calls, self_s) in want.items():
            self.assertEqual(got[name][0], calls)
            self.assertAlmostEqual(got[name][1], self_s)

    def test_self_times_sum_to_root(self):
        total = sum(s for _, s in lt.self_times(SPANS).values())
        self.assertAlmostEqual(total, 10.0)

    def test_inclusive_counts_nested_once(self):
        self.assertAlmostEqual(lt.inclusive_time(SPANS, {"a", "b"}), 3.0 + 2.5)
        self.assertAlmostEqual(lt.inclusive_time(SPANS, {"root", "b"}), 10.0)
        self.assertAlmostEqual(lt.inclusive_time(SPANS, {"c"}), 4.0)


class InvariantSummaries(unittest.TestCase):
    """A2 fundamental at height 3, declared and reversed vertex order."""

    def summaries(self, vertices, command):
        doc = dict(wl.DATA["a2_fundamental"], vertices=vertices)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "q.json"
            path.write_text(json.dumps(doc))
            code, out = cli_output(*wl.cli_args(command, path, 3))
        self.assertEqual(code, 0)
        return out, wl.summarize(command, out)

    def test_dims_and_basis_invariant(self):
        for command in ("dims", "basis"):
            out12, s12 = self.summaries(["1", "2"], command)
            out21, s21 = self.summaries(["2", "1"], command)
            self.assertEqual(s12, s21)
            self.assertNotEqual(out12, out21)  # the bytes do change
        _, dims = self.summaries(["2", "1"], "dims")
        weights = {"1=0,2=0", "1=1,2=0", "1=1,2=1"}
        for key, (spanning, rank, freudenthal, agree) in dims.items():
            self.assertEqual(rank, 1 if key in weights else 0, key)
            self.assertEqual(rank, freudenthal)
            self.assertTrue(agree)

    def test_basis_self_pairings(self):
        _, summary = self.summaries(["2", "1"], "basis")
        for key, (rank, pairings) in summary.items():
            self.assertEqual(pairings, ['[[0,"1"]]'] * rank, key)

    def test_gate_catches_a_changed_rank(self):
        _, summary = self.summaries(["1", "2"], "dims")
        expected = {"dims/a2_fundamental": summary}
        self.assertEqual(wl.expected_summary(expected, "dims", "a2_fundamental", 3),
                         summary)
        bad = json.loads(json.dumps(summary))
        bad["1=1,2=1"][1] = 2
        self.assertNotEqual(bad, summary)
        cut = wl.expected_summary(expected, "dims", "a2_fundamental", 1)
        self.assertEqual(set(cut), {"1=0,2=0", "1=1,2=0", "1=0,2=1"})

    def test_verify_passes(self):
        doc = dict(wl.DATA["a2_fundamental"], vertices=["2", "1"])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "q.json"
            path.write_text(json.dumps(doc))
            code, out = cli_output(*wl.cli_args("verify", path, 3))
        self.assertEqual(code, 0)
        self.assertEqual(wl.summarize("verify", out), "all suites passed")

    def test_relabel_is_seeded(self):
        self.assertEqual(wl.relabel("d4", 7), wl.relabel("d4", 7))
        orders = {tuple(wl.relabel("d4", s)["vertices"]) for s in range(20)}
        self.assertGreater(len(orders), 1)


class Hooks(unittest.TestCase):
    def test_rebinding_and_missing_targets(self):
        from qcanon import hwmodule, qarith, verify
        original = qarith.rf_solve
        saved = list(lt.SPAN_HOOKS)
        lt.SPAN_HOOKS.append(("qarith", "no_such_function", "qarith.gone"))
        lt.SPAN_HOOKS.append(("no_such_module", "f", "nowhere.f"))
        try:
            rec = lt.Recorder()
            lt.install(rec)
        finally:
            lt.SPAN_HOOKS[:] = saved
        self.assertEqual(rec.missing, ["qarith.gone", "nowhere.f"])
        self.assertIsNot(qarith.rf_solve, original)
        self.assertIs(hwmodule.rf_solve, qarith.rf_solve)  # from-import rebound
        self.assertIs(verify.SUITES["counts"], verify.suite_counts)
        doc = dict(wl.DATA["a2_fundamental"])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "q.json"
            path.write_text(json.dumps(doc))
            code, _ = cli_output(*wl.cli_args("basis", path, 3))
        self.assertEqual(code, 0)
        names = {s[0] for s in rec.spans}
        self.assertIn("canonical.compute_up_to", names)
        self.assertIn("qarith.rf_solve", names)
        self.assertGreater(rec.counts["qarith.laurent_mul"], 0)
        counters = lt.end_counters(rec)
        self.assertEqual(counters["canonical.elements"], 3)
        self.assertEqual(counters["hwmodule.useful_ratio.rank"], 3)


class Calibration(unittest.TestCase):
    def test_reference_time_rescales_by_the_probe(self):
        probe = run.SpeedProbe()
        probe.close()
        slow = 2 * run.PROBE_REF_S
        probe.samples = [(t / 10, slow) for t in range(100)]
        self.assertAlmostEqual(probe.reference_time(2.0, 3.0), 1.5)
        # a window too short for five samples uses the nearest five
        probe.samples[50:55] = [(5.0 + k / 100, run.PROBE_REF_S) for k in range(5)]
        self.assertAlmostEqual(probe.reference_time(5.02, 0.001), 0.001)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(wl.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
