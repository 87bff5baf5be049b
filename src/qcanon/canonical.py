"""Canonical basis of each weight space: bar-invariant, almost-orthonormal,
unitriangular against the path monomial basis.

The computation is a seeded induction.  Every basis element of t_i-value t
at a content nu is the leading term of F_i^(t) applied to a lower element
with t_i = 0; candidates are orthogonalized against the already-accepted
elements by subtracting sym_truncate of the offending pairings until every
pairing drops into v^-1 Z[v^-1].  Convergence is guarded: the maximal
degree of an offending pairing must strictly decrease on every pass.

The stored elements are the only coordinate system: ``expand`` writes a
vector in them with Laurent coefficients, from its pairings with the
elements and one integer recurrence against their Gram matrix I + N, N in
v^-1 Z[v^-1], checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .qarith import LaurentPoly, ONE, bar, sym_truncate
from .hwmodule import InternalCheckError
from . import cartan
from . import crystalgraph


class OrthogonalizationError(RuntimeError):
    """The degree guard fired; wrong design assumption or a bug upstream."""


class CompletionError(RuntimeError):
    """Element count at some content disagrees with the Gram rank."""


@dataclass
class CBElement:
    """One canonical basis element.

    ``vector`` is the exact monomial combination, ``stats`` a lazily filled
    map vertex -> t_i value, and ``provenance`` the seeding datum (i, t,
    parent position in the lower content's list; None for the highest
    weight vector).  ``CanonicalBasis.expand`` reads every vector against
    the content's list of elements, in which each element is a unit vector.
    """

    content: tuple
    vector: object
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
        self._offsets = {}  # content -> N = Gram - I of the stored elements
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
            return [CBElement(nu, vac, (None, 0, None),
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
                    sp = mod.form(cand, cand)
                    if not sp:
                        continue  # duplicate of an earlier seed (anisotropy)
                    if not sp.is_one_plus_lower():
                        raise CompletionError(
                            f"nonzero candidate at {nu} with self-pairing {sp}")
                    elem = CBElement(nu, cand, (i, t, (low, parent_pos)),
                                     self_pairing=sp)
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

    # -- coordinates -----------------------------------------------------------

    def expand(self, u):
        """Laurent coordinates x of u against the stored elements at its
        content, so that u = sum_t x_t b_t.

        With y_t = (u, b_t) and the Gram matrix I + N of the elements, x
        solves (I + N) x = y.  N lies in v^-1 Z[v^-1], so reading degree d
        gives x_d = y_d - sum_{k >= 1} N_k x_{d+k}: integers only, from the
        top degree max deg y down to -max deg y', where y' is the pairing
        vector of bar(u) (its coordinates are the bars of x).  The result
        is checked exactly: a nonzero residual raises InternalCheckError.
        A passing check is a proof.  The count-vs-rank check of the
        induction makes the elements as many as the rank, and
        det(I + N) is 1 mod v^-1, so they are a basis of the weight space;
        u - sum_t x_t b_t is then orthogonal to a basis, hence 0 by the
        nondegeneracy of the form.
        """
        elems = self.elements(u.content)
        offsets = self._gram_offsets(u.content)
        form = self.module.form
        y = [form(u, b.vector) for b in elems]
        ubar = u.map_coeffs(bar)
        ybar = [form(ubar, b.vector) for b in elems]
        top = max((p.degree() for p in y if p), default=0)
        bottom = -max((p.degree() for p in ybar if p), default=0)
        x = [{} for _ in elems]
        for d in range(top, bottom - 1, -1):
            for s, row in enumerate(offsets):
                c = y[s].coeff(d)
                for t, p in row:
                    xt = x[t]
                    for k, a in p.c.items():
                        c -= a * xt.get(d - k, 0)
                if c:
                    x[s][d] = c
        x = [LaurentPoly(xs) for xs in x]
        for s, row in enumerate(offsets):
            acc = x[s]
            for t, p in row:
                acc = acc + p * x[t]
            if acc != y[s]:
                raise InternalCheckError(
                    f"canonical-basis expansion at {u.content} leaves a residual")
        return x

    def _gram_offsets(self, nu):
        """N = Gram - I of the stored elements at nu, as rows of nonzero
        (t, N_st); every entry is checked to lie in v^-1 Z[v^-1]."""
        hit = self._offsets.get(nu)
        if hit is not None:
            return hit
        elems = self.elements(nu)
        form = self.module.form
        rows = []
        for s, b in enumerate(elems):
            row = []
            for t, b2 in enumerate(elems):
                g = form(b.vector, b2.vector)
                p = g - ONE if s == t else g
                if not p.in_vinv_span():
                    raise InternalCheckError(
                        f"Gram entry ({s},{t}) at {nu} is {g}, "
                        f"not in delta + v^-1 Z[v^-1]")
                if p:
                    row.append((t, p))
            rows.append(row)
        self._offsets[nu] = rows
        return rows

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
    """Whether the bar involution fixes the element: bar(b) - b is zero in
    the module (word vectors are bar-fixed, so bar acts on coefficients)."""
    return module.is_zero_vector(b.vector.map_coeffs(bar) - b.vector)
