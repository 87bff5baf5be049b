"""Command-line front end: dims, basis, graph, verify.

All machine output is JSON (DOT for graphs) printed to stdout and built
deterministically: identical configuration yields byte-identical bytes
across runs and cache hits.  Exit codes: 0 success,
1 verification failure, 2 input error, 3 resource cap exceeded, 4 an
internal check failed (an exact self-check of the computation, such as the
basis count against the Weyl-Kac multiplicity; one line on stderr and
nothing on stdout), 141 (128 + SIGPIPE, as a shell reports it) when the
reader closed stdout before the output was written.

Each subcommand imports only the layers it runs: ``canonical`` and
``crystalgraph`` inside the basis and graph payloads, ``verify`` inside
``_run_verify`` and ``hashlib`` inside ``_cache_key``, so ``dims`` starts
without them.  ``hwmodule`` loads ``elimination`` only when it builds a
weight space (``dims``, ``verify``), and only ``verify`` loads
``coproduct``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from . import cartan
from .cartan import QuiverError, load_quiver
from .uminus import count_words, word_str
from .hwmodule import (HighestWeightModule, InternalCheckError, ResourceCapError,
                       check_content_count)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141


def build_parser():
    p = argparse.ArgumentParser(
        prog="qcanon",
        description="exact canonical bases, crystal graphs and verification "
                    "for integrable highest weight modules from quiver data")
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in (("dims", "weight-space dimensions vs the independent oracle"),
                      ("basis", "canonical basis, monomial bases and transitions"),
                      ("graph", "left graph with path data"),
                      ("verify", "run verification suites")):
        c = sub.add_parser(name, help=doc)
        c.add_argument("--quiver", required=True, help="path to the quiver JSON file")
        c.add_argument("--max-height", type=int, default=6)
        c.add_argument("--order", default=None,
                       help="comma-separated vertex ids fixing the path order")
        c.add_argument("--format", dest="fmt", default=None,
                       choices=["json", "dot", "table"])
        c.add_argument("--cache", default=None,
                       help="path to the result cache file (not verify)")
        c.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility and ignored")
        c.add_argument("--suite", default=None,
                       help="comma-separated suite names (verify only)")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = run(args)
        # flush here, so a closed stdout is seen inside this handler rather
        # than at interpreter shutdown
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _detach_stdout()
        return EXIT_PIPE
    except QuiverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except _internal_errors() as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _internal_errors():
    """The exceptions of a failed exact self-check.  An ``except`` clause
    evaluates this only when an exception reaches it, so the layers are
    imported on that path alone and a run that succeeds loads no more."""
    from .qarith import ExactDivisionError
    from .canonical import CompletionError, OrthogonalizationError
    from .crystalgraph import GraphError
    return (InternalCheckError, CompletionError, OrthogonalizationError, GraphError,
            ExactDivisionError)


def main_and_exit():
    """Run ``main`` on the process's arguments and end the process with its
    exit code once stdout and stderr are flushed, skipping interpreter
    teardown: ``main`` closes every file it opens, so nothing is left to
    write.  The ``python -m`` guards and the console script enter here;
    in-process callers call ``main``."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


def _detach_stdout():
    """Point the stdout descriptor at the null device, so the flush at
    interpreter shutdown drops the unwritten output instead of raising
    BrokenPipeError a second time."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def run(args):
    if args.command == "verify":
        if args.cache is not None:
            raise QuiverError("verify does not use --cache")
    elif args.suite is not None:
        raise QuiverError(f"{args.command} does not use --suite (verify only)")
    quiver, hw = load_quiver(args.quiver)
    if args.max_height < 0:
        raise QuiverError("--max-height must be >= 0")
    check_content_count(quiver.n, args.max_height)
    order = _parse_order(quiver, args.order)
    fmt = args.fmt
    if args.command == "dims":
        fmt = fmt or "table"
        if fmt == "dot":
            raise QuiverError("dims has no dot format")
        return _cached_emit(args, quiver, hw, order, fmt,
                            lambda: _dims_payload(quiver, hw, order, args.max_height, fmt))
    if args.command == "basis":
        fmt = fmt or "json"
        if fmt != "json":
            raise QuiverError("basis output is JSON only")
        return _cached_emit(args, quiver, hw, order, fmt,
                            lambda: _basis_payload(quiver, hw, order, args.max_height))
    if args.command == "graph":
        fmt = fmt or "dot"
        if fmt == "table":
            raise QuiverError("graph has no table format")
        return _cached_emit(args, quiver, hw, order, fmt,
                            lambda: _graph_payload(quiver, hw, order, args.max_height, fmt))
    if args.command == "verify":
        return _run_verify(args, quiver, hw, order)
    raise QuiverError(f"unknown command {args.command}")


def _parse_order(quiver, text):
    if text is None:
        return tuple(range(quiver.n))
    ids = [x.strip() for x in text.split(",") if x.strip()]
    if sorted(ids) != sorted(quiver.vertices):
        raise QuiverError(f"--order must be a permutation of {list(quiver.vertices)}")
    return tuple(quiver.index[v] for v in ids)


# -- cache ---------------------------------------------------------------------


def _cache_key(args, quiver, hw, order, fmt):
    import hashlib
    datum = {
        "command": args.command,
        "vertices": list(quiver.vertices),
        "edges": [[quiver.vertex_id(s), quiver.vertex_id(t)] for s, t in quiver.edges],
        "highest_weight": {quiver.vertex_id(i): hw[i] for i in range(quiver.n)},
        "max_height": args.max_height,
        "order": [quiver.vertex_id(i) for i in order],
        "format": fmt,
        "version": __version__,
    }
    blob = json.dumps(datum, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest(), datum


def _load_store(path):
    """The cache store at path, or an empty one.

    A file that cannot be read as ``{"version": str, "entries": {...}}`` is
    reported on stderr and replaced on the next write; a store of another
    version is dropped silently (a version bump invalidates the cache).
    """
    fresh = {"version": __version__, "entries": {}}
    if not os.path.exists(path):
        return fresh
    try:
        with open(path, "r", encoding="utf-8") as fh:
            store = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"warning: cache file {path} is unreadable ({exc}); recomputing",
              file=sys.stderr)
        return fresh
    if not (isinstance(store, dict) and isinstance(store.get("version"), str)
            and isinstance(store.get("entries"), dict)):
        print(f"warning: cache file {path} has an unexpected layout; recomputing",
              file=sys.stderr)
        return fresh
    return store if store["version"] == __version__ else fresh


def _write_store(path, store):
    """Write through a temporary file in the same directory, then rename, so
    an interrupted write leaves the previous file intact."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _cached_emit(args, quiver, hw, order, fmt, producer):
    if not args.cache:
        sys.stdout.write(producer())
        return EXIT_OK
    key, datum = _cache_key(args, quiver, hw, order, fmt)
    store = _load_store(args.cache)
    entry = store["entries"].get(key)
    if (isinstance(entry, dict) and entry.get("key") == datum
            and isinstance(entry.get("payload"), str)):
        sys.stdout.write(entry["payload"])
        return EXIT_OK
    payload = producer()
    store["entries"][key] = {"key": datum, "payload": payload}
    try:
        _write_store(args.cache, store)
    except OSError as exc:
        # the result is computed; a cache that cannot be written only costs
        # the next run a recomputation
        print(f"warning: cache file {args.cache} not written ({exc})",
              file=sys.stderr)
    sys.stdout.write(payload)
    return EXIT_OK


# -- shared pieces ----------------------------------------------------------------


def _metadata(quiver, hw, order, max_height):
    return {
        "artifact": "qcanon",
        "version": __version__,
        "vertices": list(quiver.vertices),
        "orientation": [[quiver.vertex_id(s), quiver.vertex_id(t)]
                        for s, t in quiver.edges],
        "highest_weight": {quiver.vertex_id(i): hw[i] for i in range(quiver.n)},
        "max_height": max_height,
        "vertex_order": [quiver.vertex_id(i) for i in order],
    }


def _vector_json(quiver, vec):
    return [[word_str(w, quiver), c.to_terms()] for w, c in vec.sorted_terms()]


def _dump(doc):
    return json.dumps(doc, indent=2) + "\n"


# -- dims --------------------------------------------------------------------------


def _dims_payload(quiver, hw, order, hmax, fmt):
    module = HighestWeightModule(quiver, hw)
    rows = []
    for nu in cartan.contents_up_to(quiver.n, hmax):
        ws = module.weight_space(nu)
        fr = module.freudenthal_multiplicity(nu)
        rows.append({
            "content": cartan.content_to_dict(quiver, nu),
            "spanning": count_words(nu),
            "rank": ws.rank,
            "freudenthal": fr,
            "agree": ws.rank == fr,
        })
    if fmt == "json":
        return _dump({"metadata": _metadata(quiver, hw, order, hmax), "rows": rows})
    head = ["content", "spanning", "rank", "freudenthal", "agree"]
    table = [head]
    for r in rows:
        content = ",".join(str(r["content"][v]) for v in quiver.vertices)
        table.append([content, str(r["spanning"]), str(r["rank"]),
                      str(r["freudenthal"]), "yes" if r["agree"] else "NO"])
    widths = [max(len(row[c]) for row in table) for c in range(len(head))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    return "\n".join(lines) + "\n"


# -- basis --------------------------------------------------------------------------


def _basis_payload(quiver, hw, order, hmax):
    from .canonical import CanonicalBasis
    from . import crystalgraph as cg
    cb = CanonicalBasis(HighestWeightModule(quiver, hw), order).compute_up_to(hmax)
    graph = cg.build_left_graph(cb)
    contents_doc = []
    for nu in cartan.contents_up_to(quiver.n, hmax):
        elems = cb.elements(nu)
        block = {
            "content": cartan.content_to_dict(quiver, nu),
            "rank": len(elems),
            "elements": [],
        }
        for pos, b in enumerate(elems):
            i, t, parent = b.provenance
            parent_id = None
            if parent is not None:
                parent_id = cb.element_id(parent[0], parent[1])
            block["elements"].append({
                "id": cb.element_id(nu, pos),
                "vector": _vector_json(quiver, b.vector),
                "self_pairing": b.self_pairing.to_terms(),
                "provenance": {
                    "i": quiver.vertex_id(i) if i is not None else None,
                    "t": t,
                    "parent": parent_id,
                },
            })
        if elems:
            positions, paths, vectors, T = cg.monomial_basis(cb, graph, nu, order)
            block["path_order"] = [cb.element_id(nu, p) for p in positions]
            block["monomial_basis"] = [
                {"path": [[quiver.vertex_id(i), t] for i, t in path],
                 "vector": _vector_json(quiver, vec)}
                for path, vec in zip(paths, vectors)]
            block["transition_monomial_to_cb"] = [
                [entry.to_terms() for entry in row] for row in T]
            block["transition_v1"] = [
                [entry.at_one() for entry in row] for row in T]
        contents_doc.append(block)
    doc = {"metadata": _metadata(quiver, hw, order, hmax), "contents": contents_doc}
    return _dump(doc)


# -- graph --------------------------------------------------------------------------


def _graph_payload(quiver, hw, order, hmax, fmt):
    from .canonical import CanonicalBasis
    from . import crystalgraph as cg
    cb = CanonicalBasis(HighestWeightModule(quiver, hw), order).compute_up_to(hmax)
    graph = cg.build_left_graph(cb)
    if fmt == "dot":
        return cg.graph_to_dot(graph)
    paths = {}
    listings = {}
    for nu in cb.contents():
        if not cb.elements(nu):
            continue
        items = [(cb.element_id(nu, pos), path)
                 for pos, path in cg.path_order(cb, graph, nu, order)]
        key = cartan.content_str(nu)
        paths[key] = [{"id": eid, "path": [[quiver.vertex_id(i), t] for i, t in path]}
                      for eid, path in items]
        listings[key] = [eid for eid, _ in items]
    doc = {
        "metadata": dict(_metadata(quiver, hw, order, hmax),
                         isomorphic_component_graph="nakajima-lagrangian",
                         sign_twist="unknown"),
        "graph": cg.graph_to_dict(graph),
        "paths": paths,
        "order_listing": listings,
    }
    return _dump(doc)


# -- verify --------------------------------------------------------------------------


def _run_verify(args, quiver, hw, order):
    from . import verify as verify_mod
    fmt = args.fmt or "table"
    if fmt == "dot":
        raise QuiverError("verify has no dot format")
    if args.suite is None:
        names = list(verify_mod.DEFAULT_SUITES)
    else:
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
        if not names:
            raise QuiverError(f"--suite {args.suite!r} names no suite")
    for pos, name in enumerate(names):
        if name not in verify_mod.SUITES:
            raise QuiverError(f"unknown suite {name!r}; known: "
                              f"{', '.join(sorted(verify_mod.SUITES))}")
        if name in names[:pos]:
            raise QuiverError(f"--suite names {name!r} more than once")
    ctx = verify_mod.VerifyContext(quiver, hw, args.max_height, order)
    results = verify_mod.run_suites(ctx, names)
    failed = any(not r.passed for r in results)
    if fmt == "json":
        doc = {
            "metadata": _metadata(quiver, hw, order, args.max_height),
            "suites": [{"name": r.name, "checks": r.checks,
                        "passed": r.passed, "failures": r.failures}
                       for r in results],
            "passed": not failed,
        }
        sys.stdout.write(_dump(doc))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            sys.stdout.write(f"{r.name:<16} {status}  ({r.checks} checks)\n")
            for msg in r.failures:
                sys.stdout.write(f"  counterexample: {msg}\n")
        sys.stdout.write("all suites passed\n" if not failed
                         else "verification FAILED\n")
    return EXIT_VERIFY if failed else EXIT_OK


if __name__ == "__main__":
    main_and_exit()
