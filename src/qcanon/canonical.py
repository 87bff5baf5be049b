"""Canonical basis of each weight space: bar-invariant, almost-orthonormal,
unitriangular against the path monomial basis.

The computation is a seeded induction.  Every basis element of t_i-value t
at a content nu is the leading term of F_i^(t) applied to a lower element
with t_i = 0; candidates are orthogonalized against the already-accepted
elements by subtracting sym_truncate of the offending pairings until every
pairing drops into v^-1 Z[v^-1].  Convergence is guarded: the maximal
degree of an offending pairing must strictly decrease on every pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .qarith import sym_truncate
from . import cartan
from . import crystalgraph


class OrthogonalizationError(RuntimeError):
    """The degree guard fired; wrong design assumption or a bug upstream."""


class CompletionError(RuntimeError):
    """Element count at some content disagrees with the Gram rank."""


@dataclass
class CBElement:
    """One canonical basis element.

    ``vector`` is the exact monomial combination, ``coords`` its weight-space
    coordinates, ``stats`` a lazily filled map vertex -> t_i value, and
    ``provenance`` the seeding datum (i, t, parent position in the lower
    content's list; None for the highest weight vector).
    """

    content: tuple
    vector: object
    coords: tuple
    provenance: tuple
    stats: dict = field(default_factory=dict)
    self_pairing: object = None
    pairing_key: tuple = field(default=None, repr=False)


class CanonicalBasis:
    """Per-content storage of canonical basis elements, built bottom-up."""

    def __init__(self, module, schedule_order=None):
        self.module = module
        n = module.quiver.n
        self.order = tuple(schedule_order) if schedule_order is not None else tuple(range(n))
        if sorted(self.order) != list(range(n)):
            raise ValueError("schedule order must be a permutation of the vertices")
        self.store = {}
        self.max_height = -1
        self._canon_cache = {}
        self.graph_cache = {}  # crystalgraph's t_i image rows and sbar paths

    def elements(self, nu):
        nu = tuple(nu)
        if nu not in self.store:
            raise KeyError(f"canonical basis at {nu} not computed yet")
        return self.store[nu]

    def contents(self):
        return sorted(self.store, key=lambda nu: (cartan.height(nu), nu))

    def compute_up_to(self, hmax):
        n = self.module.quiver.n
        for h in range(self.max_height + 1, hmax + 1):
            for nu in cartan.contents_of_height(n, h):
                self.store[nu] = self._compute_content(nu)
        self.max_height = max(self.max_height, hmax)
        return self

    # -- the induction ---------------------------------------------------

    def _compute_content(self, nu):
        mod = self.module
        if cartan.height(nu) == 0:
            vac = mod.vacuum()
            return [CBElement(nu, vac, mod.coordinates(vac), (None, 0, None),
                              self_pairing=mod.form(vac, vac))]
        space = mod.weight_space(nu)
        accepted = []
        for i in self.order:
            for t in range(nu[i], 0, -1):
                low = tuple(x - (t if k == i else 0) for k, x in enumerate(nu))
                for parent_pos, parent in enumerate(self.store[low]):
                    if crystalgraph.t_stat(mod, self, parent, i) != 0:
                        continue
                    cand = mod.apply_F(i, t, parent.vector)
                    cand = self._orthogonalize(cand, accepted)
                    if mod.is_zero_vector(cand):
                        continue  # duplicate of an earlier seed
                    sp = mod.form(cand, cand)
                    if not sp.is_one_plus_lower():
                        raise CompletionError(
                            f"nonzero candidate at {nu} with self-pairing {sp}")
                    elem = CBElement(nu, cand, mod.coordinates(cand),
                                     (i, t, (low, parent_pos)), self_pairing=sp)
                    if not verify_bar_invariant(mod, elem):
                        raise CompletionError(
                            f"accepted element at {nu} is not bar-invariant")
                    accepted.append(elem)
        if len(accepted) != space.rank:
            raise CompletionError(
                f"content {nu}: found {len(accepted)} elements, Gram rank {space.rank}")
        return accepted

    def _orthogonalize(self, cand, accepted):
        mod = self.module
        prev_max = None
        while True:
            worst = None
            for b in accepted:
                p = mod.form(cand, b.vector)
                d = p.degree()
                if d is not None and d >= 0:
                    worst = d if worst is None else max(worst, d)
                    cand = cand - b.vector.scale(sym_truncate(p))
            if worst is None:
                return cand
            if prev_max is not None and worst >= prev_max:
                raise OrthogonalizationError(
                    f"offending degree did not decrease ({prev_max} -> {worst})")
            prev_max = worst

    # -- views -------------------------------------------------------------

    def canonical_order(self, nu):
        """Storage positions sorted by a presentation-free invariant.

        Stored word expansions of one module element are not unique (words
        are linearly dependent in the module), so the sort key is the
        pairing row against the spanning monomials, serialized through
        vertex ids: identical across scheduling orders and vertex
        declaration orders.
        """
        nu = tuple(nu)
        hit = self._canon_cache.get(nu)
        if hit is not None:
            return hit
        elems = self.elements(nu)
        order = sorted(range(len(elems)),
                       key=lambda s: element_key(self.module, elems[s]))
        self._canon_cache[nu] = order
        return order

    def element_id(self, nu, pos):
        """Canonical id 'content/index' of the element stored at pos."""
        idx = self.canonical_order(nu).index(pos)
        return f"{cartan.content_str(self.module.quiver, nu)}/{idx}"


def element_key(module, elem):
    """Canonical sort key: the nonzero form values against the spanning
    monomials, tagged by id-serialized words and sorted."""
    if elem.pairing_key is not None:
        return elem.pairing_key
    q = module.quiver
    words = module.spanning_words(elem.content)
    row = module.pairing_row(elem.vector)
    key = tuple(sorted(
        (tuple((q.vertex_id(i), a) for i, a in w), tuple(sorted(p.c.items())))
        for w, p in zip(words, row) if p))
    elem.pairing_key = key
    return key


def verify_bar_invariant(module, b):
    """Whether replacing every coefficient by its bar image leaves the
    coordinates unchanged (word vectors are bar-fixed)."""
    barred = b.vector.map_coeffs(lambda c: c.bar())
    return module.coordinates(barred) == b.coords


def transition_matrix(module, cb_elements, vectors):
    """Columns are the canonical-basis coordinates of the given vectors."""
    if not cb_elements:
        return []
    cols = [crystalgraph.expand_in_cb(cb_elements, module.coordinates(vec))
            for vec in vectors]
    return [[col[s] for col in cols] for s in range(len(cb_elements))]
