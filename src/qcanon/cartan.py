"""Symmetric Cartan data from loop-free quivers, dominant weights, and the
dimension-vector bookkeeping shared by every other module.

Vertices are referred to by their position in the declaration order
everywhere inside the package; string ids appear only at the I/O boundary.
Dimension vectors are plain tuples of non-negative integers aligned with
that order.
"""

from __future__ import annotations

import itertools
import json


class QuiverError(ValueError):
    """Malformed quiver input."""


class Quiver:
    """A finite graph without loops plus a chosen orientation.

    ``edges`` lists ordered pairs (source index, target index), one entry
    per arrow of the orientation; repeated pairs encode multiplicity.
    ``a[i][j]`` is the symmetrized arrow count and ``cartan[i][j]`` the
    associated symmetric Cartan matrix 2*delta_ij - a_ij.
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex ids")
        self.index = {vid: k for k, vid in enumerate(self.vertices)}
        n = len(self.vertices)
        self.edges = tuple((int(s), int(t)) for s, t in edges)
        for s, t in self.edges:
            if not (0 <= s < n and 0 <= t < n):
                raise QuiverError("edge endpoint out of range")
            if s == t:
                raise QuiverError(f"loop at vertex {self.vertices[s]!r}")
        self.a = [[0] * n for _ in range(n)]
        for s, t in self.edges:
            self.a[s][t] += 1
            self.a[t][s] += 1
        self.cartan = [[2 * (i == j) - self.a[i][j] for j in range(n)]
                       for i in range(n)]

    @property
    def n(self):
        return len(self.vertices)

    def vertex_id(self, i):
        return self.vertices[i]

    def sym_form(self, alpha, beta):
        """Symmetric bilinear form (alpha, beta) = sum c_ij alpha_i beta_j."""
        total = 0
        for i, x in enumerate(alpha):
            if not x:
                continue
            row = self.cartan[i]
            for j, y in enumerate(beta):
                if y:
                    total += row[j] * x * y
        return total

    def __repr__(self):
        return f"Quiver(vertices={self.vertices!r}, edges={self.edges!r})"


class HighestWeight:
    """Dominant integral weight given by d_i = <Lambda, alpha_i^vee> >= 0."""

    def __init__(self, d):
        self.d = tuple(int(x) for x in d)
        if any(x < 0 for x in self.d):
            raise QuiverError("highest weight coordinates must be >= 0")

    def __getitem__(self, i):
        return self.d[i]

    def __eq__(self, other):
        return isinstance(other, HighestWeight) and self.d == other.d

    def __repr__(self):
        return f"HighestWeight({self.d!r})"


# -- dimension vectors (plain tuples) ------------------------------------


def zero_vector(n):
    return (0,) * n


def height(nu):
    return sum(nu)


def weight_leq(nu, nu2):
    """Componentwise order on dimension vectors."""
    return all(a <= b for a, b in zip(nu, nu2))


def subvectors(beta):
    """All 0 <= gamma <= beta in the componentwise order, lexicographically."""
    return itertools.product(*(range(x + 1) for x in beta))


def vec_add(nu, nu2):
    return tuple(a + b for a, b in zip(nu, nu2))


def vec_sub(nu, nu2):
    if not weight_leq(nu2, nu):
        raise ValueError(f"{nu} - {nu2} leaves the positive cone")
    return tuple(a - b for a, b in zip(nu, nu2))


def unit_vector(n, i, mult=1):
    return tuple(mult if k == i else 0 for k in range(n))


def contents_of_height(n, h):
    """All dimension vectors of a given height, lexicographically."""
    out = []

    def rec(prefix, remaining, pos):
        if pos == n - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for x in range(remaining + 1):
            rec(prefix + [x], remaining - x, pos + 1)

    if n == 0:
        return [()] if h == 0 else []
    rec([], h, 0)
    return out


def contents_up_to(n, hmax):
    out = []
    for h in range(hmax + 1):
        out.extend(contents_of_height(n, h))
    return out


# -- the weight bookkeeping of the module layer ---------------------------


def coroot_pairing(quiver, hw, nu, i):
    """<Lambda - sum nu_j alpha_j, alpha_i^vee> = d_i - sum_j c_ij nu_j."""
    if not (0 <= i < quiver.n):
        raise QuiverError(f"unknown vertex index {i}")
    return hw[i] - sum(quiver.cartan[i][j] * nu[j] for j in range(quiver.n))


# -- input format ----------------------------------------------------------


def _vertex_id(x):
    """A vertex id as a string; ids are JSON strings or integers."""
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise QuiverError(f"vertex id {x!r} must be a string or an integer")
    return str(x)


def parse_quiver_dict(data):
    """Build (Quiver, HighestWeight) from the JSON input format.

    {"vertices": ["1","2"], "edges": [["1","2"],["1","2"]],
     "highest_weight": {"1": 1, "2": 0}}

    Repeated edge pairs encode multiplicity; the pair order fixes the
    orientation (first entry is the source).  Missing highest_weight
    entries default to zero.
    """
    if not isinstance(data, dict):
        raise QuiverError("quiver file must contain a JSON object")
    if "vertices" not in data:
        raise QuiverError("missing 'vertices'")
    for key in ("vertices", "edges"):
        if not isinstance(data.get(key, []), list):
            raise QuiverError(f"'{key}' must be an array")
    if not data["vertices"]:
        raise QuiverError("empty vertex list")
    vertices = [_vertex_id(x) for x in data["vertices"]]
    idx = {vid: k for k, vid in enumerate(vertices)}
    if len(idx) != len(vertices):
        raise QuiverError("duplicate vertex ids")
    edges = []
    for e in data.get("edges", []):
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise QuiverError(f"bad edge entry {e!r}")
        s, t = _vertex_id(e[0]), _vertex_id(e[1])
        if s not in idx or t not in idx:
            raise QuiverError(f"edge {e!r} uses an unknown vertex")
        edges.append((idx[s], idx[t]))
    hw_raw = data.get("highest_weight", {})
    if not isinstance(hw_raw, dict):
        raise QuiverError("'highest_weight' must be an object")
    d = [0] * len(vertices)
    for key, val in hw_raw.items():
        if str(key) not in idx:
            raise QuiverError(f"highest_weight key {key!r} is not a vertex")
        if not isinstance(val, int) or isinstance(val, bool) or val < 0:
            raise QuiverError(f"highest_weight[{key!r}] must be a non-negative integer")
        d[idx[str(key)]] = val
    return Quiver(vertices, edges), HighestWeight(d)


def load_quiver(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise QuiverError(f"cannot read quiver file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise QuiverError(f"quiver file {path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise QuiverError(
            f"invalid JSON in {path} (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from None
    except ValueError as exc:
        # an integer literal longer than the interpreter converts
        raise QuiverError(f"cannot parse quiver file {path}: {exc}") from None
    except RecursionError:
        raise QuiverError(f"quiver file {path} is nested too deeply") from None
    return parse_quiver_dict(data)


def content_to_dict(quiver, nu):
    return {quiver.vertex_id(i): nu[i] for i in range(quiver.n)}


def content_str(nu):
    return ",".join(str(x) for x in nu)
