"""The string-jumping arrows between canonical basis elements, the left
graph, the path map and its lexicographic order, and the monomial bases
read off from paths.

The functions that walk the basis take it alone: they read the module as
``cb.module``, t_i(b) as ``b.t[i]`` and the arrow targets as
``cb.leaders``, all of which the canonical-basis induction reads off the
exact coordinates of its seeds' images.  Arrows jump whole i-strings: each
element with t_i = 0 seeds one arrow (i, t) for every
1 <= t <= <wt, alpha_i^vee>, to the unique element with t_i = t whose
F_i^(t)-expansion it leads with coefficient exactly 1, and every element
with t_i > 0 must be reached exactly once.  ``pi_arrow`` re-derives one
arrow from an expansion of the seed's image in canonical-basis coordinates
(``CanonicalBasis.expand``, where a stored element is its own unit
vector); path replay and the verify suites use it.

A path monomial's canonical-basis coordinates are read off the seeds'
recorded images (``cb.images``) with Laurent products only, one string
step at a time (``path_coords``): F_i^(t) of an element with t_i = 0 is
its recorded image, and F_i^(t) of the leader of a seed's F_i^(s) image
follows from F_i^(t) F_i^(s) = [t+s choose t] F_i^(t+s) (``_image``).  No
form is evaluated and no vector expanded.  The path monomials at a content
are proved to be a basis by their transition matrix to the canonical basis
itself: taken in path order it must be unitriangular, 1 on the diagonal
and 0 above it, so its determinant is 1.  Any other matrix raises
GraphError.  The proof is exact; nothing is evaluated at a point.
"""

from __future__ import annotations

from .qarith import ONE, ZERO, addmul, finish, qbinom
from . import cartan


class GraphError(RuntimeError):
    """A structural guarantee of the arrow combinatorics failed."""


def pi_arrow(cb, i, t, bprime, missing_ok=False):
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
    if bprime.t[i] != 0:
        raise GraphError("pi_arrow seed must have t_i = 0")
    target = tuple(x + (t if k == i else 0) for k, x in enumerate(bprime.content))
    image = cb.module.apply_F(i, t, bprime.vector)
    elems = cb.elements(target)
    coeffs = cb.expand(image)
    leader = None
    for pos, c in enumerate(coeffs):
        if not c:
            continue
        ts = elems[pos].t[i]
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


class LeftGraph:
    """Colored digraph on canonical basis elements.

    ``vertices`` maps content -> canonical ids; ``arrows`` is a sorted list
    of (source id, target id, (vertex id, multiplicity)); ``arrow_map``
    keeps the arrows (content, pos, i) -> (t, low content, low pos) for
    replay.  A position is the index of the element's id, since the basis
    stores each content in id order.  ``columns`` keeps the path monomials'
    canonical-basis coordinates by path (``path_coords``).
    """

    def __init__(self, vertices, arrows, arrow_map):
        self.vertices = vertices
        self.arrows = arrows
        self.arrow_map = arrow_map
        self.columns = {}


def build_left_graph(cb):
    """All arrows between computed contents: each seed with t_i = 0 sends
    one arrow per string step 1 <= t <= <wt, alpha_i^vee> that stays within
    the computed height, to the leader the induction recorded for it.
    Every element with t_i > 0 must be reached by exactly one seed (the
    pi_{i,t} bijection)."""
    module = cb.module
    vertices = {}
    arrows = []
    arrow_map = {}
    targets = []
    for nu in cb.contents():
        elems = cb.elements(nu)
        vertices[nu] = [cb.element_id(nu, pos) for pos in range(len(elems))]
        room = cb.max_height - cartan.height(nu)
        for qpos, b in enumerate(elems):
            for i in range(module.quiver.n):
                t = b.t[i]
                if t > 0:
                    targets.append((nu, qpos, i, t))
                    continue
                for t in range(1, min(module.coroot_pairing(nu, i), room) + 1):
                    target = tuple(x + (t if k == i else 0) for k, x in enumerate(nu))
                    pos = cb.leaders[(nu, qpos, i, t)]
                    if pos is None:
                        raise GraphError(
                            f"image of seed vanished at {target} color ({i},{t})")
                    key = (target, pos, i)
                    if key in arrow_map:
                        raise GraphError(f"two seeds reach element {pos} at "
                                         f"{target}, color ({i},{t})")
                    arrow_map[key] = (t, nu, qpos)
                    arrows.append((cb.element_id(target, pos),
                                   cb.element_id(nu, qpos),
                                   (module.quiver.vertex_id(i), t)))
    for nu, pos, i, t in targets:
        if (nu, pos, i) not in arrow_map:
            raise GraphError(f"no preimage for element {pos} at {nu}, color ({i},{t})")
    arrows.sort()
    return LeftGraph(vertices, arrows, arrow_map)


def sbar(cb, graph, nu, pos, order):
    """Admissible path of the element: repeatedly take the arrow whose
    color is maximal in the vertex order among the colors with t_i > 0."""
    if cartan.height(nu) == 0:
        return ()
    b = cb.elements(nu)[pos]
    chosen = None
    for i in order:
        if b.t[i] > 0:
            chosen = i
    if chosen is None:
        raise GraphError(f"non-highest element at {nu} with all t_i = 0")
    t = b.t[chosen]
    if (nu, pos, chosen) not in graph.arrow_map:
        raise GraphError(f"missing arrow for sbar at {nu}, color ({chosen},{t})")
    _, low, qpos = graph.arrow_map[(nu, pos, chosen)]
    return ((chosen, t),) + sbar(cb, graph, low, qpos, order)


def replay_path(cb, path):
    """Follow pi_arrow along the path from the highest element."""
    nu = cartan.zero_vector(cb.module.quiver.n)
    pos = 0
    for i, t in reversed(path):
        elem, pos2 = pi_arrow(cb, i, t, cb.elements(nu)[pos])
        nu = elem.content
        pos = pos2
    return nu, pos


def path_sort_key(path, order):
    """Key realizing the lexicographic path order for a fixed vertex order."""
    rank = {i: k for k, i in enumerate(order)}
    return tuple((rank[i], t) for i, t in path)


def path_order(cb, graph, nu, order):
    """(pos, sbar path) for every element at nu, sorted by the path order.
    Paths are distinct (sbar is injective); a repeat raises GraphError."""
    items = []
    for pos in range(len(cb.elements(nu))):
        path = sbar(cb, graph, nu, pos, order)
        items.append((path_sort_key(path, order), pos, path))
    if len({key for key, _, _ in items}) != len(items):
        raise GraphError(f"sbar not injective at {nu}")
    items.sort()
    return [(pos, path) for _, pos, path in items]


def monomial_basis(cb, graph, nu, order):
    """Path monomials at one content, one per basis element.

    Returns (positions, paths, vectors, transition): the first three in
    ``path_order``, and the transition matrix T whose column t holds the
    canonical-basis coordinates of vector t (``path_coords``) and whose row
    s is the stored element at positions[s].  The vectors are proved to
    form a basis of the weight space by T itself: in every column t,
    T[t][t] must be exactly 1 and T[s][t] must be 0 for every s < t.  A
    unitriangular T has determinant 1, so the proof is exact; any other T
    raises GraphError naming the content and the first bad entry.
    """
    items = path_order(cb, graph, nu, order)
    positions = [pos for pos, _ in items]
    paths = [path for _, path in items]
    vectors = [cb.module.monomial_vector(tuple(path)) for path in paths]
    images = {}
    cols = [path_coords(cb, graph, nu, path, images) for path in paths]
    T = [[col.get(p, ZERO) for col in cols] for p in positions]
    for t in range(len(T)):
        for s in range(t + 1):
            if T[s][t] != (ONE if s == t else ZERO):
                raise GraphError(f"path monomials are not unitriangular at {nu}: "
                                 f"transition entry ({s},{t}) is {T[s][t]}")
    return positions, paths, vectors, T


def path_coords(cb, graph, nu, path, images):
    """Coordinates {position: coefficient} of the path monomial of ``path``
    against the stored elements at its content nu, nonzero ones only; kept
    in ``graph.columns``.

    With path = ((i, t),) + rest the monomial is F_i^(t) applied to that of
    rest, so its coordinates are sum_c x_c F_i^(t) c over the coordinates x
    of rest, each F_i^(t) c read by ``_image`` (memoized in ``images``).
    Only Laurent products: no form and no expansion.
    """
    col = graph.columns.get(path)
    if col is None:
        if not path:
            col = {0: ONE}
        else:
            (i, t), rest = path[0], path[1:]
            low = tuple(x - (t if k == i else 0) for k, x in enumerate(nu))
            acc = {}
            for c, x in path_coords(cb, graph, low, rest, images).items():
                for q, p in _image(cb, graph, low, c, i, t, images).items():
                    addmul(acc.setdefault(q, {}), x.c, p.c)
            col = {q: y for q, a in acc.items() if (y := finish(a))}
        graph.columns[path] = col
    return col


def _image(cb, graph, mu, pos, i, t, memo):
    """Coordinates of F_i^(t) applied to the element at (mu, pos), against
    the stored elements at mu + t alpha_i.

    An element with t_i = 0 is a seed, whose image the induction recorded
    (``cb.images``).  An element c with t_i = s > 0 leads, with coordinate
    1, the image X of the source c0 of its i-arrow under F_i^(s), and every
    other summand c' of X has t_i > s.  Since F_i^(t) F_i^(s) is
    [t+s choose t] F_i^(t+s),
    F_i^(t) c = [t+s choose t] F_i^(t+s) c0 - sum_{c' != c} X_c' F_i^(t) c',
    a recursion that ends because t_i grows along it.
    """
    s = cb.elements(mu)[pos].t[i]
    if s == 0:
        return cb.images[(mu, pos, i, t)]
    key = (mu, pos, i, t)
    out = memo.get(key)
    if out is None:
        _, low, q0 = graph.arrow_map[(mu, pos, i)]
        acc = {}
        binom = qbinom(t + s, t).c
        for q, p in cb.images[(low, q0, i, t + s)].items():
            addmul(acc.setdefault(q, {}), binom, p.c)
        for c, x in cb.images[(low, q0, i, s)].items():
            if c != pos:
                for q, p in _image(cb, graph, mu, c, i, t, memo).items():
                    addmul(acc.setdefault(q, {}), x.c, p.c, k=-1)
        out = memo[key] = {q: y for q, a in acc.items() if (y := finish(a))}
    return out


# -- exports ---------------------------------------------------------------


def _dot_quoted(text):
    """A DOT quoted string: backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(graph):
    """Deterministic DOT rendering of the left graph."""
    lines = ["digraph left_graph {", "  rankdir=BT;"]
    for nu in sorted(graph.vertices, key=lambda x: (cartan.height(x), x)):
        for vid in graph.vertices[nu]:
            lines.append(f"  {_dot_quoted(vid)} [label={_dot_quoted(vid)}];")
    for src, dst, (vid, t) in graph.arrows:
        lines.append(f"  {_dot_quoted(src)} -> {_dot_quoted(dst)} "
                     f"[label={_dot_quoted(f'({vid},{t})')}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dict(graph):
    vertices = {}
    for nu in sorted(graph.vertices, key=lambda x: (cartan.height(x), x)):
        vertices[cartan.content_str(nu)] = list(graph.vertices[nu])
    return {
        "vertices": vertices,
        "arrows": [{"src": s, "dst": d, "color": [vid, t]}
                   for s, d, (vid, t) in graph.arrows],
    }
