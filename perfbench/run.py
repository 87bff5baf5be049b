#!/usr/bin/env python3
"""End-to-end benchmark of the qcanon CLI, with an optional per-layer trace.

    python3 perfbench/run.py --workload dims-ladder --seed 1 --seconds 30 --trace 0

Every command runs in a fresh child process with this checkout's ``src/`` on
PYTHONPATH, the way a user runs ``qcanon``.  One pass runs the workload's
commands in order; passes repeat until ``--seconds`` have been measured.
Each output is checked against relabelling-invariant summaries.

--trace 0 reports the end-to-end metrics: wall_s (the sum over the
commands of each one's median wall time), peak_rss_mb (the largest
per-command median child max-RSS) and setup_s (the median wall time of the
same commands at the set-up height).  Both times are rescaled to a
reference machine speed (see SpeedProbe); the raw times are printed too.
--trace 1 also runs one traced pass (layertrace.py) and reports the
per-layer metrics instead.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.

`--workload all` runs every workload; `--record` rewrites expected.json
from the declared vertex order.  README.md has the rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layertrace
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
COMMAND_TIMEOUT_S = 60   # a hang becomes a failed command, not a stuck run
RUN_BUDGET_S = 165       # commands are cut off this long after a run starts
SETUP_PROBES = 12        # set-up probes per run, spread over the data

# Machine-speed calibration.  On a shared box the CPU speed drifts by tens
# of percent within seconds to minutes, and a run cannot average that out.
# While a child runs, a thread of this process times a fixed pure-Python
# loop every PROBE_PERIOD_S on the spare CPU; the child's wall time over the
# loop's median duration during it drifts far less than the wall time.  The
# ratio is reported in seconds by multiplying with PROBE_REF_S, the loop's
# median on the 2-CPU box where this benchmark was written, at a time when
# Kronecker h=10 `dims` ran in about 2.5 s there.
PROBE_LOOP = 3000
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 0.00056

SELF_S = ["hwmodule.weight_space", "hwmodule.spanning_words", "hwmodule.freudenthal",
          "hwmodule.word_coordinates", "hwmodule.coordinates", "hwmodule.form",
          "hwmodule.is_zero_vector", "qarith.lp_rank", "qarith.rf_solve",
          "qarith.rf_rank", "canonical.compute_up_to", "canonical.transition_matrix",
          "crystalgraph.t_stat", "crystalgraph.pi_arrow",
          "crystalgraph.build_left_graph", "crystalgraph.monomial_basis",
          "uminus.restriction_coproduct", "cli.main"]
SELF_S += [f"verify.{s}" for s in layertrace.VERIFY_SUITES]
CALLS = ["hwmodule.word_coordinates", "hwmodule.form", "hwmodule.is_zero_vector",
         "qarith.lp_rank", "qarith.rf_solve", "qarith.rf_rank",
         "crystalgraph.t_stat", "crystalgraph.pi_arrow",
         "uminus.restriction_coproduct"]
COUNTERS = ["hwmodule.spanning_words.words", "hwmodule.gram_entries",
            "hwmodule.pair_memo", "hwmodule.e_memo", "hwmodule.word_coords_memo",
            "canonical.elements", "crystalgraph.arrows", "verify.checks",
            "hwmodule.useful_ratio.base"]
# traced-wall shares: each workload should be dominated by its own layer
SHARES = {
    "trace.ws_freudenthal_share": ("hwmodule.weight_space", "hwmodule.freudenthal"),
    "trace.cb_graph_share": ("canonical.compute_up_to", "canonical.transition_matrix",
                             "crystalgraph.t_stat", "crystalgraph.pi_arrow",
                             "crystalgraph.build_left_graph",
                             "crystalgraph.monomial_basis"),
    "trace.verify_share": tuple(f"verify.{s}" for s in layertrace.VERIFY_SUITES),
}

PER_LAYER = ([(f"{n}.self_s", "s") for n in SELF_S]
             + [(f"{n}.calls", "count") for n in CALLS]
             + [(n, "count") for n in COUNTERS]
             + [("hwmodule.useful_ratio", "ratio"),
                ("qarith.laurent_mul.calls", "count"),
                ("qarith.ratfunc_new.calls", "count"),
                ("cli.stdout_bytes", "bytes"),
                ("trace.wall_s", "s"),
                ("tracing_overhead_s", "s")]
             + [(n, "ratio") for n in SHARES])
END_TO_END = [("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no qcanon sources)."""


@dataclass
class Command:
    name: str
    command: str
    datum: str
    height: int
    quiver: Path
    order: str   # the drawn vertex-declaration order, for the report


@dataclass
class Outcome:
    cmd: Command
    wall_s: float
    rss_mb: float
    ok: bool
    digest: str
    stdout_bytes: int
    note: str = ""
    ref_s: float = 0.0   # wall time at the probe's reference speed


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, outcome):
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            self.failures.append(f"{outcome.cmd.name}: {outcome.note}")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class SpeedProbe:
    """Durations of a fixed loop, timed by a thread while children run."""

    def __init__(self):
        self.samples = []   # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.is_set():
            t0 = time.perf_counter()
            x = 1
            for _ in range(PROBE_LOOP):
                x = (x * 1103515245 + 12345) % 2147483648
            self.samples.append((t0, time.perf_counter() - t0))
            self._stop.wait(PROBE_PERIOD_S)

    def reference_time(self, start, wall):
        """`wall` rescaled by the loop's median duration over [start,
        start + wall], or over the five samples nearest to it."""
        samples = list(self.samples)
        inside = [d for t, d in samples if start <= t <= start + wall]
        if len(inside) < 5:
            mid = start + wall / 2
            inside = [d for _, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:5]]
        return wall * PROBE_REF_S / statistics.median(inside)

    def close(self):
        self._stop.set()
        self._thread.join()


def spawn(argv, out_path, timeout):
    """Run one child; (start, wall seconds, max-RSS MB, exit code or None on
    timeout).

    Max-RSS comes from the child's own rusage (wait4), not from the
    cumulative RUSAGE_CHILDREN of this process.
    """
    with open(out_path, "wb") as out, open(f"{out_path}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        fired = threading.Event()
        timer = threading.Timer(max(timeout, 0.1), lambda: (fired.set(), proc.kill()))
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, wall, usage.ru_maxrss / 1024.0, None if fired.is_set() else proc.returncode


def run_command(cmd, height, expected, work, timeout, probe, traced=None):
    out_path = work / f"{cmd.name}.h{height}.out"
    args = wl.cli_args(cmd.command, cmd.quiver, height)
    if traced is None:
        argv = [sys.executable, "-m", "qcanon.cli"] + args
    else:
        argv = [sys.executable, str(HERE / "layertrace.py"), str(traced),
                f"{cmd.name}/h{height}", "--"] + args
    start, wall, rss, code = spawn(argv, out_path, timeout)
    data = out_path.read_bytes()
    outcome = Outcome(cmd, wall, rss, False, wl.output_digest(data), len(data),
                      ref_s=probe.reference_time(start, wall))
    if code is None:
        outcome.note = f"timeout after {timeout:.0f} s"
    elif code != 0:
        err = Path(f"{out_path}.err").read_text(errors="replace").strip()
        outcome.note = f"exit {code}: {err[-300:]}"
    else:
        try:
            got = wl.summarize(cmd.command, data.decode())
        except (ValueError, KeyError, TypeError) as exc:
            got, outcome.note = None, f"unreadable output: {exc}"
        want = wl.expected_summary(expected, cmd.command, cmd.datum, height)
        outcome.ok = got == want
        if not outcome.ok and not outcome.note:
            outcome.note = "summary mismatch"
    return outcome


def resolve_qcanon(work):
    """The qcanon package a child imports; it must be this checkout's src/."""
    if not (SRC / "qcanon" / "cli.py").is_file():
        raise SetupError(f"no qcanon sources under {SRC}")
    out = work / "qcanon_file.txt"
    *_, code = spawn([sys.executable, "-c", "import qcanon; print(qcanon.__file__)"],
                     out, COMMAND_TIMEOUT_S)
    path = out.read_text().strip()
    if code != 0 or not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"import qcanon failed or resolved outside {SRC}: {path!r}")
    return path


def prepare(workload, seed, work):
    cmds = []
    for k, (command, datum, height) in enumerate(wl.WORKLOADS[workload]):
        doc = wl.relabel(datum, seed)
        quiver = work / f"{datum}.json"
        quiver.write_text(json.dumps(doc))
        cmds.append(Command(f"{k}-{command}-{datum}", command, datum, height, quiver,
                            ",".join(doc["vertices"])))
    return cmds


class Run:
    """One measured run of one workload."""

    def __init__(self, workload, seed, seconds, work, probe):
        self.seconds, self.work, self.probe = seconds, work, probe
        self.expected = wl.load_expected()
        self.tally = Tally()
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.cmds = prepare(workload, seed, work)
        self.qcanon_file = resolve_qcanon(work)

    def _timeout(self):
        return min(COMMAND_TIMEOUT_S, self.deadline - time.monotonic())

    def _run(self, cmd, height, traced=None):
        outcome = run_command(cmd, height, self.expected, self.work,
                              self._timeout(), self.probe, traced)
        self.tally.add(outcome)
        return outcome

    def setup(self):
        return [self._run(cmd, wl.SETUP_HEIGHT[cmd.command])
                for cmd in (self.cmds[k % len(self.cmds)] for k in range(SETUP_PROBES))]

    def one_pass(self, traced_dir=None):
        outcomes = []
        for cmd in self.cmds:
            if self._timeout() <= 1:
                break
            traced = None if traced_dir is None else traced_dir / f"{cmd.name}.json"
            outcomes.append(self._run(cmd, cmd.height, traced))
        return outcomes

    def passes(self):
        """At least two full passes, then more until --seconds are measured;
        a further pass starts only if it should end within 1.2 x --seconds,
        so a run stays near its length on a slow box too."""
        out = []
        t0 = time.monotonic()
        while True:
            outcomes = self.one_pass()
            if len(outcomes) < len(self.cmds):
                break
            out.append(outcomes)
            elapsed = time.monotonic() - t0
            last = sum(o.wall_s for o in outcomes)
            if self._timeout() < 2 * last:
                break
            if len(out) >= 2 and (elapsed + last > 1.2 * self.seconds
                                  or elapsed >= self.seconds):
                break
        return out


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(probes, passes, calibrated=True):
    """wall_s sums each command's median over passes; peak_rss_mb is the
    largest per-command median max-RSS; setup_s is the median probe.  Times
    are at the speed probe's reference speed unless calibrated is false."""
    per_cmd = list(zip(*passes))
    time_of = (lambda o: o.ref_s) if calibrated else (lambda o: o.wall_s)
    return {
        "wall_s": sum(median([time_of(o) for o in runs]) for runs in per_cmd),
        "peak_rss_mb": max((median([o.rss_mb for o in runs]) for runs in per_cmd),
                           default=0.0),
        "setup_s": median([time_of(o) for o in probes]),
    }


def per_layer(traces, traced_outcomes, untraced_wall):
    """Per-layer metrics from the traced pass; missing hooks read 0."""
    selfs, counts, counters, missing = {}, {}, {}, set()
    shares = dict.fromkeys(SHARES, 0.0)
    for doc in traces:
        missing.update(doc["missing"])
        for name, (calls, self_s) in layertrace.self_times(doc["spans"]).items():
            c, s = selfs.get(name, (0, 0.0))
            selfs[name] = (c + calls, s + self_s)
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in doc["counters"].items():
            if value is None:
                missing.add(name)
            else:
                counters[name] = counters.get(name, 0) + value
        for share, names in SHARES.items():
            shares[share] += layertrace.inclusive_time(doc["spans"], set(names))
    traced_wall = sum(o.wall_s for o in traced_outcomes)
    metrics = {}
    for name in SELF_S:
        metrics[f"{name}.self_s"] = selfs.get(name, (0, 0.0))[1]
    for name in CALLS:
        metrics[f"{name}.calls"] = selfs.get(name, (0, 0.0))[0]
    metrics.update({name: counters.get(name, 0) for name in COUNTERS})
    base = counters.get("hwmodule.useful_ratio.base", 0)
    metrics["hwmodule.useful_ratio"] = (counters.get("hwmodule.useful_ratio.rank", 0) / base
                                        if base else 0.0)
    metrics["qarith.laurent_mul.calls"] = counts.get("qarith.laurent_mul", 0)
    metrics["qarith.ratfunc_new.calls"] = counts.get("qarith.ratfunc_new", 0)
    metrics["cli.stdout_bytes"] = sum(o.stdout_bytes for o in traced_outcomes)
    metrics["trace.wall_s"] = traced_wall
    metrics["tracing_overhead_s"] = traced_wall - untraced_wall
    for share, covered in shares.items():
        metrics[share] = covered / traced_wall if traced_wall else 0.0
    return metrics, sorted(missing)


def measure(workload, seed, seconds, trace):
    """Returns (result dict for the last line, report lines)."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    probe = SpeedProbe()
    try:
        run = Run(workload, seed, seconds, work, probe)
        probes = run.setup()
        passes = run.passes()
        e2e = end_to_end(probes, passes)
        raw = end_to_end(probes, passes, calibrated=False)
        lines = [f"workload={workload} seed={seed} seconds={seconds} trace={trace} "
                 f"passes={len(passes)} qcanon={run.qcanon_file}",
                 f"  uncalibrated: wall_s {raw['wall_s']} s, setup_s {raw['setup_s']} s; "
                 f"probe median {median([d for _, d in probe.samples])} s "
                 f"(reference {PROBE_REF_S} s)"]
        for cmd in run.cmds:
            done = [o for p in passes for o in p if o.cmd is cmd]
            lines.append(f"  {cmd.name} h={cmd.height} order={cmd.order} "
                         f"median_s={median([o.wall_s for o in done]):.4f} "
                         f"ref_s={median([o.ref_s for o in done]):.4f} runs={len(done)} "
                         f"sha256={done[-1].digest if done else '-'}")
        if trace:
            traced_dir = work / "traces"
            traced_dir.mkdir()
            traced = run.one_pass(traced_dir)
            docs = [json.loads((traced_dir / f"{o.cmd.name}.json").read_text())
                    for o in traced if o.ok]
            metrics, missing = per_layer(docs, traced, raw["wall_s"])
            units = dict(PER_LAYER)
            lines.append(f"  missing hooks: {', '.join(missing) or 'none'}")
        else:
            metrics, units = e2e, dict(END_TO_END)
    finally:
        probe.close()
        shutil.rmtree(work, ignore_errors=True)
    tally = run.tally
    lines.append(f"  fail_ratio {tally.failed}/{tally.attempted} = "
                 f"{tally.failed / max(tally.attempted, 1)} ratio")
    lines += [f"  FAILED {f}" for f in tally.failures]
    lines += [f"  {name} {value} {units[name]}" for name, value in metrics.items()]
    result = {
        "correct": tally.failed == 0 and bool(passes),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def record():
    """Rewrite expected.json from the declared order (seedless)."""
    heights = {}
    for cmds in wl.WORKLOADS.values():
        for command, datum, height in cmds:
            if command != "verify":
                key = f"{command}/{datum}"
                heights[key] = max(heights.get(key, 0), height)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=WORK))
    try:
        expected = {}
        for key, height in sorted(heights.items()):
            command, datum = key.split("/")
            quiver = work / f"{datum}.json"
            quiver.write_text(json.dumps(wl.DATA[datum]))
            out = work / f"{datum}.out"
            argv = [sys.executable, "-m", "qcanon.cli"] + wl.cli_args(command, quiver, height)
            *_, code = spawn(argv, out, 600)
            if code != 0:
                raise SetupError(f"{key} exited with {code}")
            expected[key] = wl.summarize(command, out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite expected.json from the declared vertex order")
    args = p.parse_args(argv)
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            p.error("--workload is required")
        names = sorted(wl.WORKLOADS) if args.workload == "all" else [args.workload]
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            result, lines = measure(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, value in result["metrics"].items():
                combined["metrics"][prefix + metric] = value
            if len(names) > 1:
                combined["metrics"][prefix + "fail_ratio"] = {
                    "value": result["failed"] / result["attempted"], "unit": "ratio"}
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
