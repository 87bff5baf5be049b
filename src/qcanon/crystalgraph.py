"""The t_i statistic, the string-jumping arrows between canonical basis
elements, the left graph, the path map and its lexicographic order, and the
monomial bases read off from paths.

t_i is computed as the largest r with the element inside the image of
F_i^(r) on the weight space below (a linear-algebra membership test, not an
E_i-vanishing count).  Arrows jump whole i-strings: an arrow colored (i, t)
connects an element with t_i = t to the unique lower element with t_i = 0
whose F_i^(t)-expansion it leads with coefficient exactly 1.  Every vector
is read in canonical-basis coordinates (``CanonicalBasis.expand``), where a
stored element is its own unit vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .qarith import ZERO, ONE, lp_rank
from . import cartan


class GraphError(RuntimeError):
    """A structural guarantee of the arrow combinatorics failed."""


def t_stat(module, cb, b, i):
    """Largest r >= 0 with b inside the image of F_i^(r) (0 when none)."""
    hit = b.stats.get(i)
    if hit is not None:
        return hit
    nu = b.content
    t = 0
    r = 1
    while nu[i] - r >= 0:
        rows, base_rank = _image_rows(module, cb, nu, i, r)
        if base_rank == 0:
            break
        if lp_rank(rows + [_unit_row(cb, b)]) == base_rank:
            t = r
            r += 1
        else:
            break
    b.stats[i] = t
    return t


def _unit_row(cb, b):
    """Canonical-basis coordinates of the stored element b."""
    elems = cb.elements(b.content)
    return [ONE if e is b else ZERO for e in elems]


def _image_rows(module, cb, nu, i, r):
    """Canonical-basis coordinate rows of F_i^(r) applied to the basis words
    one i-string step down (they span the image of F_i^(r)), cached on the
    basis object."""
    cache = cb.graph_cache.setdefault("images", {})
    key = (nu, i, r)
    hit = cache.get(key)
    if hit is not None:
        return hit
    low = tuple(x - (r if k == i else 0) for k, x in enumerate(nu))
    rows = []
    for m in module.weight_space(low).basis:
        rows.append(cb.expand(module.apply_F(i, r, module.monomial_vector(m))))
    rank = lp_rank(rows)
    cache[key] = (rows, rank)
    return rows, rank


def pi_arrow(module, cb, i, t, bprime, missing_ok=False):
    """The unique leading element of F_i^(t) applied to bprime.

    Requires t_i(bprime) = 0.  Expands the image in the canonical basis of
    the higher content; at most one summand has t_i = t, and then with
    coefficient exactly 1; all others have t_i > t with bar-invariant
    Laurent coefficients.  When no t_i = t summand survives, the image of
    the seed died in the quotient (the other summands may well survive):
    returns None if missing_ok else raises GraphError.
    """
    if t < 1:
        raise ValueError("arrow multiplicity must be positive")
    if t_stat(module, cb, bprime, i) != 0:
        raise GraphError("pi_arrow seed must have t_i = 0")
    target = tuple(x + (t if k == i else 0) for k, x in enumerate(bprime.content))
    image = module.apply_F(i, t, bprime.vector)
    elems = cb.elements(target)
    coeffs = cb.expand(image)
    leader = None
    for pos, c in enumerate(coeffs):
        if not c:
            continue
        ts = t_stat(module, cb, elems[pos], i)
        if ts == t:
            if leader is not None:
                raise GraphError(f"two leading summands at {target} color ({i},{t})")
            if c != ONE:
                raise GraphError(
                    f"leading summand at {target} has coefficient {c}, expected 1")
            leader = pos
        else:
            if ts < t:
                raise GraphError(
                    f"summand with t_i = {ts} < {t} in an (i,{t})-expansion")
            if not c.is_bar_invariant():
                raise GraphError(f"non bar-invariant expansion coefficient {c}")
    if leader is None:
        if missing_ok:
            return None
        raise GraphError(f"image of seed vanished at {target} color ({i},{t})")
    return elems[leader], leader


@dataclass
class LeftGraph:
    """Colored digraph on canonical basis elements.

    ``vertices`` maps content -> canonical ids; ``arrows`` is a sorted list
    of (source id, target id, (vertex id, multiplicity)); ``arrow_map``
    keeps the storage-level arrows (content, pos, i) -> (t, low content,
    low pos) for replay.
    """

    vertices: dict
    arrows: list
    arrow_map: dict = field(repr=False, default_factory=dict)


def build_left_graph(module, cb):
    """All arrows between computed contents, found by confirming each
    element against every t_i = 0 candidate one string below."""
    vertices = {}
    arrows = []
    arrow_map = {}
    for nu in cb.contents():
        elems = cb.elements(nu)
        order = cb.canonical_order(nu)
        vertices[nu] = [cb.element_id(nu, pos) for pos in order]
        for pos, b in enumerate(elems):
            for i in range(module.quiver.n):
                t = t_stat(module, cb, b, i)
                if t == 0:
                    continue
                low = tuple(x - (t if k == i else 0) for k, x in enumerate(nu))
                found = None
                for qpos, candidate in enumerate(cb.elements(low)):
                    if t_stat(module, cb, candidate, i) != 0:
                        continue
                    hit = pi_arrow(module, cb, i, t, candidate, missing_ok=True)
                    if hit is not None and hit[1] == pos:
                        found = qpos
                        break
                if found is None:
                    raise GraphError(
                        f"no preimage for element {pos} at {nu}, color ({i},{t})")
                arrow_map[(nu, pos, i)] = (t, low, found)
                arrows.append((cb.element_id(nu, pos), cb.element_id(low, found),
                               (module.quiver.vertex_id(i), t)))
    arrows.sort()
    return LeftGraph(vertices, arrows, arrow_map)


def sbar(module, cb, graph, nu, pos, order):
    """Admissible path of the element: repeatedly take the arrow whose
    color is maximal in the vertex order among the colors with t_i > 0."""
    cache = cb.graph_cache.setdefault(("sbar", tuple(order)), {})
    key = (nu, pos)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if cartan.height(nu) == 0:
        cache[key] = ()
        return ()
    b = cb.elements(nu)[pos]
    chosen = None
    for i in order:
        if t_stat(module, cb, b, i) > 0:
            chosen = i
    if chosen is None:
        raise GraphError(f"non-highest element at {nu} with all t_i = 0")
    t = t_stat(module, cb, b, chosen)
    if (nu, pos, chosen) not in graph.arrow_map:
        raise GraphError(f"missing arrow for sbar at {nu}, color ({chosen},{t})")
    _, low, qpos = graph.arrow_map[(nu, pos, chosen)]
    path = ((chosen, t),) + sbar(module, cb, graph, low, qpos, order)
    cache[key] = path
    return path


def replay_path(module, cb, path):
    """Follow pi_arrow along the path from the highest element."""
    nu = cartan.zero_vector(module.quiver.n)
    pos = 0
    for i, t in reversed(path):
        elem, pos2 = pi_arrow(module, cb, i, t, cb.elements(nu)[pos])
        nu = elem.content
        pos = pos2
    return nu, pos


def path_sort_key(path, order):
    """Key realizing the lexicographic path order for a fixed vertex order."""
    rank = {i: k for k, i in enumerate(order)}
    return tuple((rank[i], t) for i, t in path)


def path_order_lt(p, q, order):
    """Strict lexicographic comparison of two paths of equal total content."""
    return path_sort_key(p, order) < path_sort_key(q, order)


def monomial_basis(module, cb, graph, nu, order):
    """Path monomials at one content, one per basis element.

    Returns (positions, paths, vectors, transition): the first three sorted
    by the path order ascending, and the transition matrix whose columns
    are the canonical-basis coordinates of the vectors and whose rows are
    the stored elements at ``positions``.  The vectors are asserted to form
    a basis of the weight space.
    """
    elems = cb.elements(nu)
    items = []
    seen = set()
    for pos in range(len(elems)):
        path = sbar(module, cb, graph, nu, pos, order)
        key = path_sort_key(path, order)
        if key in seen:
            raise GraphError(f"sbar not injective at {nu}")
        seen.add(key)
        items.append((key, pos, path))
    items.sort()
    positions = [pos for _, pos, _ in items]
    paths = [path for _, _, path in items]
    vectors = [module.monomial_vector(tuple(path)) for path in paths]
    cols = [cb.expand(vec) for vec in vectors]
    if lp_rank(cols) != len(vectors):
        raise GraphError(f"path monomials do not span at {nu}")
    return positions, paths, vectors, [[col[p] for col in cols] for p in positions]


# -- exports ---------------------------------------------------------------


def graph_to_dot(graph, quiver):
    """Deterministic DOT rendering of the left graph."""
    lines = ["digraph left_graph {", "  rankdir=BT;"]
    for nu in sorted(graph.vertices, key=lambda x: (cartan.height(x), x)):
        for vid in graph.vertices[nu]:
            lines.append(f'  "{vid}" [label="{vid}"];')
    for src, dst, (vid, t) in graph.arrows:
        lines.append(f'  "{src}" -> "{dst}" [label="({vid},{t})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dict(graph, quiver):
    vertices = {}
    for nu in sorted(graph.vertices, key=lambda x: (cartan.height(x), x)):
        vertices[cartan.content_str(quiver, nu)] = list(graph.vertices[nu])
    return {
        "vertices": vertices,
        "arrows": [{"src": s, "dst": d, "color": [vid, t]}
                   for s, d, (vid, t) in graph.arrows],
    }
