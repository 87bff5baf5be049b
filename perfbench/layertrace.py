"""Per-layer tracing of one qcanon CLI command, from outside the program.

Run as a child process:

    python3 perfbench/layertrace.py TRACE_OUT TRACE_ID -- <qcanon arguments>

It wraps the public functions of the qcanon layers in timing hooks, runs
``qcanon.cli.main`` in-process, and writes the spans plus end-of-command
counters to TRACE_OUT as JSON.  Spans live in memory until the command ends.
A span is ``[name, start, end, parent index]``; all spans of one command
share TRACE_ID.  The arithmetic that turns spans into self times is in
``self_times`` and ``inclusive_time``, which the parent process uses.

A hook whose target no longer exists is reported as missing, never fatal,
so the trace survives refactors that delete or rename a function.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute path, span name).  pair_words and _e_word stay
# unwrapped: they are recursive and run millions of times per command.
SPAN_HOOKS = [
    ("hwmodule", "HighestWeightModule.weight_space", "hwmodule.weight_space"),
    ("hwmodule", "HighestWeightModule.spanning_words", "hwmodule.spanning_words"),
    ("hwmodule", "HighestWeightModule.freudenthal_multiplicity", "hwmodule.freudenthal"),
    ("hwmodule", "HighestWeightModule.word_coordinates", "hwmodule.word_coordinates"),
    ("hwmodule", "HighestWeightModule.coordinates", "hwmodule.coordinates"),
    ("hwmodule", "HighestWeightModule.form", "hwmodule.form"),
    ("hwmodule", "HighestWeightModule.is_zero_vector", "hwmodule.is_zero_vector"),
    ("qarith", "lp_rank", "qarith.lp_rank"),
    ("qarith", "rf_solve", "qarith.rf_solve"),
    ("qarith", "rf_rank", "qarith.rf_rank"),
    ("canonical", "CanonicalBasis.compute_up_to", "canonical.compute_up_to"),
    ("canonical", "transition_matrix", "canonical.transition_matrix"),
    ("crystalgraph", "t_stat", "crystalgraph.t_stat"),
    ("crystalgraph", "pi_arrow", "crystalgraph.pi_arrow"),
    ("crystalgraph", "build_left_graph", "crystalgraph.build_left_graph"),
    ("crystalgraph", "monomial_basis", "crystalgraph.monomial_basis"),
    ("uminus", "restriction_coproduct", "uminus.restriction_coproduct"),
    ("cli", "main", "cli.main"),
]

VERIFY_SUITES = ("relations", "serre", "contravariance", "derivation",
                 "coproduct", "counts", "barinv", "orthogonality",
                 "triangularity", "crystal")
SPAN_HOOKS += [("verify", f"suite_{s}", f"verify.{s}") for s in VERIFY_SUITES]

# Kernel operations: counted, not timed (a span per call would dominate).
COUNT_HOOKS = [
    ("qarith", "LaurentPoly.__mul__", "qarith.laurent_mul"),
    ("qarith", "RatFunc.__new__", "qarith.ratfunc_new"),
]

# Constructors whose instances are inspected when the command ends.
CAPTURE_HOOKS = [
    ("hwmodule", "HighestWeightModule.__init__", "modules"),
    ("canonical", "CanonicalBasis.__init__", "bases"),
]

LAYER_MODULES = ("hwmodule", "qarith", "canonical", "crystalgraph", "verify",
                 "uminus", "cli")


# -- span arithmetic (used by the parent) -----------------------------------


def self_times(spans):
    """name -> (calls, total self seconds).

    A span's self time is its duration minus the durations of its direct
    children; children run inside their parent and one after another.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for k, (name, start, end, _) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child[k])
    return out


def inclusive_time(spans, names):
    """Wall time covered by spans named in `names`, nested ones counted once."""
    inside = [False] * len(spans)
    total = 0.0
    for k, (name, start, end, parent) in enumerate(spans):
        if parent >= 0 and (inside[parent] or spans[parent][0] in names):
            inside[k] = True
        elif name in names:
            total += end - start
    return total


# -- hooks (used in the traced child) ----------------------------------------


class Recorder:
    """Spans, call counts and captured objects of one command."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.captured = {"modules": [], "bases": [], "graphs": [], "suites": []}
        self.missing = []

    def span(self, name, fn, keep=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def hooked(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep is not None:
                keep.append(result)
            return result

        return hooked

    def count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def hooked(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return hooked

    def capture(self, bucket, fn):
        kept = self.captured[bucket]

        def hooked(obj, *args, **kwargs):
            kept.append(obj)
            return fn(obj, *args, **kwargs)

        return hooked


def _resolve(modname, path):
    """(owner, attribute name, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(f"qcanon.{modname}")
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    if isinstance(owner, type):
        if attr == "__new__":
            return owner, attr, owner.__dict__.get("__new__")
        raw = owner.__dict__.get(attr)
        return (owner, attr, raw) if callable(raw) else None
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


def _rebind(orig, hooked):
    """Replace `orig` wherever a qcanon module or class binds it, including
    names imported with `from .x import f` and dict values (suite tables)."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "qcanon" or modname.startswith("qcanon.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, hooked)
            elif isinstance(val, dict):
                for dkey, dval in list(val.items()):
                    if dval is orig:
                        val[dkey] = hooked
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                for ckey, cval in list(vars(val).items()):
                    if cval is orig:
                        setattr(val, ckey, hooked)


def install(rec):
    """Wrap every hook target that exists; record the rest as missing."""
    for modname in LAYER_MODULES:
        try:
            importlib.import_module(f"qcanon.{modname}")
        except ImportError:
            rec.missing.append(f"qcanon.{modname}")
    for modname, path, name in SPAN_HOOKS:
        target = _resolve(modname, path)
        if target is None:
            rec.missing.append(name)
            continue
        keep = None
        if name == "crystalgraph.build_left_graph":
            keep = rec.captured["graphs"]
        elif name.startswith("verify."):
            keep = rec.captured["suites"]
        _rebind(target[2], rec.span(name, target[2], keep))
    for modname, path, name in COUNT_HOOKS:
        target = _resolve(modname, path)
        if target is None:
            rec.missing.append(name)
            continue
        owner, attr, orig = target
        if attr == "__new__":
            inner = orig.__func__ if isinstance(orig, staticmethod) else orig
            if inner is None:
                def inner(cls, *args, **kwargs):
                    return object.__new__(cls)
            setattr(owner, attr, staticmethod(rec.count(name, inner)))
        else:
            _rebind(orig, rec.count(name, orig))
    for modname, path, bucket in CAPTURE_HOOKS:
        target = _resolve(modname, path)
        if target is None:
            rec.missing.append(f"capture:{modname}.{path}")
            rec.captured[bucket] = None
            continue
        owner, attr, orig = target
        setattr(owner, attr, rec.capture(bucket, orig))


def _size(fn, items):
    """Sum of fn over items, or None when the items or an attribute are gone."""
    if items is None:
        return None
    try:
        return sum(fn(x) for x in items)
    except AttributeError:
        return None


def end_counters(rec):
    """Object counts read from the program's state when the command ends."""
    mods, bases = rec.captured["modules"], rec.captured["bases"]
    try:
        spaces = [ws for m in mods for ws in m._spaces.values()]
    except (AttributeError, TypeError):
        spaces = None
    return {
        "hwmodule.spanning_words.words":
            _size(lambda m: sum(map(len, m._spanning.values())), mods),
        "hwmodule.gram_entries": _size(lambda ws: len(ws.spanning) ** 2, spaces),
        "hwmodule.useful_ratio.rank": _size(lambda ws: ws.rank, spaces),
        "hwmodule.useful_ratio.base": _size(lambda ws: len(ws.spanning), spaces),
        "hwmodule.pair_memo": _size(lambda m: len(m._pair), mods),
        "hwmodule.e_memo": _size(lambda m: len(m._e_cache), mods),
        "hwmodule.word_coords_memo": _size(lambda ws: len(ws._word_coords), spaces),
        "canonical.elements": _size(lambda b: sum(map(len, b.store.values())), bases),
        "crystalgraph.arrows": _size(lambda g: len(g.arrows), rec.captured["graphs"]),
        "verify.checks": _size(lambda r: r.checks, rec.captured["suites"]),
    }


def main(argv):
    out_path, trace_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: layertrace.py TRACE_OUT TRACE_ID -- <qcanon args>")
    import qcanon
    from qcanon import cli
    rec = Recorder()
    install(rec)
    code = cli.main(cli_argv)
    sys.stdout.flush()
    doc = {
        "trace_id": trace_id,
        "exit": code,
        "qcanon_file": qcanon.__file__,
        "spans": rec.spans,
        "counts": rec.counts,
        "counters": end_counters(rec),
        "missing": rec.missing,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
