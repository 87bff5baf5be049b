"""Canonical basis of each weight space: bar-invariant, almost-orthonormal,
unitriangular against the path monomial basis.

The computation is a seeded induction.  Every basis element of t_i-value t
at a content nu is the leading term of F_i^(t) applied to a lower element
with t_i = 0; candidates are orthogonalized against the already-accepted
elements by subtracting sym_truncate of the offending pairings until every
pairing drops into v^-1 Z[v^-1].  Convergence is guarded: the maximal
degree of an offending pairing must strictly decrease on every pass.

Once a content's elements are stored, each element b gets ``b.t``, where
``b.t[i]`` is t_i(b): the largest r with b inside the image of F_i^(r) on
the weight space below.  That image is spanned by the canonical basis
elements it contains (Kashiwara; Lusztig), so it is read as a set of
positions: the columns touched by the canonical-basis coordinates of
F_i^(r) applied to the basis words below.  One modular rank per
(content, i, r) (``qarith.rank_mod_p``) certifies that those rows span the
coordinate subspace of the columns they touch; a rank that falls short at
the evaluation point raises CompletionError, with no exact fallback.  The
induction seeds from t_i = 0, and the left graph reads the same values.

Each content's elements are stored in id order the moment the content is
built, before any higher content is, so a storage position is the index of
the element's id 'content/index'.  The order is that of the elements'
pairing rows against the normalized words of the content; the rows are
walked lazily, word by word, only as far as two of them first differ, and
the walk skips the words whose suffix lies in a zero weight space.  The
sort moves no byte of the output.

An element is stored as F_i^(t) applied to its parent's vector, less
sum_b C_b b.vector over the elements accepted before it (every element
with a larger t_i among them).  Those elements and the new one are
independent, so the C_b are the unique coordinates of the parent's image
against them and do not depend on the order in which the elements are
listed.  Which seed (i, t, parent) wins depends only on the schedule's
order of the vertices.  Renumbering a lower content changes a parent's
index, and no vector, provenance id or output order.

The stored elements are the only coordinate system: ``expand`` writes a
vector in them with Laurent coefficients, as the sum over its words of the
coefficient times the word's coordinates.  Those are solved once per word
and kept on the basis: one pairing row against the elements and one integer
recurrence against their Gram matrix I + N, N in v^-1 Z[v^-1], checked
exactly.  Word vectors are bar-invariant, so the recurrence needs no second
row for the bar of the vector.
"""

from __future__ import annotations

from .qarith import LaurentPoly, ONE, addmul, finish, rank_mod_p, sym_truncate
from .hwmodule import InternalCheckError, ResourceCapError
from . import cartan, hwmodule


class OrthogonalizationError(RuntimeError):
    """The degree guard fired; wrong design assumption or a bug upstream."""


class CompletionError(RuntimeError):
    """A content fails a completeness check: its element count against the
    Gram rank, an element's self-pairing or bar-invariance, or the
    certificate of an image of F_i^(r)."""


class CBElement:
    """One canonical basis element.

    ``vector`` is the exact monomial combination, ``t`` the tuple of t_i
    values (set by the basis once the content is complete), and
    ``provenance`` the seeding datum (i, t, (lower content, parent
    position)); the parent is None for the highest weight vector.
    ``CanonicalBasis.expand`` reads every vector against the content's list
    of elements, in which each element is a unit vector.
    """

    def __init__(self, content, vector, provenance, self_pairing=None):
        self.content = content
        self.vector = vector
        self.provenance = provenance
        self.self_pairing = self_pairing
        self.t = None


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
        self._offsets = {}  # content -> N = Gram - I of the stored elements
        self._word_coords = {}  # word -> its coordinates, from _solve_word
        self._by_id = sorted(range(n), key=module.quiver.vertex_id)  # a slot's walk order

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
                elems = self.store[nu] = self._id_sorted(nu, self._compute_content(nu))
                if elems:
                    self._set_t(nu, elems)
        self.max_height = max(self.max_height, hmax)
        return self

    # -- the induction ---------------------------------------------------

    def _compute_content(self, nu):
        mod = self.module
        if cartan.height(nu) == 0:
            vac = mod.vacuum()
            return [CBElement(nu, vac, (None, 0, None),
                              self_pairing=mod.self_pairing(vac))]
        space = mod.weight_space(nu)
        accepted = []
        for i in self.order:
            for t in range(nu[i], 0, -1):
                low = tuple(x - (t if k == i else 0) for k, x in enumerate(nu))
                for parent_pos, parent in enumerate(self.store[low]):
                    if parent.t[i] != 0:
                        continue
                    cand = mod.apply_F(i, t, parent.vector)
                    cand = self._orthogonalize(cand, accepted)
                    sp = mod.self_pairing(cand)
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

    # -- id order ----------------------------------------------------------

    def _id_sorted(self, nu, elems):
        """The elements at nu in id order: by their nonzero pairings with the
        normalized words of nu, each tagged by its word serialized through
        vertex ids, in the order of the serialized words.

        That order is a pairing row, not the stored word expansion, because
        words are linearly dependent in the module: one element has many
        expansions, and which one the induction stores depends on the
        schedule.  The form is nondegenerate, so distinct elements have
        distinct rows, and the row does not see the schedule or the vertex
        declaration order.  Each row is a lazy stream (``_pairing_entries``)
        and a comparison reads two of them only as far as their first
        difference; a row that ends first sorts first.
        """
        if len(elems) < 2:
            return elems
        visits = [0]
        return [s.elem for s in sorted(
            _Stream(b, self._pairing_entries(nu, b, visits)) for b in elems)]

    def _pairing_entries(self, nu, b, visits):
        """Yield (serialized word, sorted pairing terms) for the normalized
        words of nu that pair nonzero with b, in the order of the serialized
        words.

        The walk is depth first: each slot takes the vertices sorted by
        their ids as strings, then a ascending.  No word of a content is a
        prefix of another, so this is the sorted order of the serialized
        words.  A word is F applied to the vector of its suffix, which lies
        in L_mu for the suffix's content mu; the walk skips every subtree
        whose remaining content stores no element (L_mu = 0), since each of
        its words is zero in the module.  ``visits`` counts the words the
        walks of one content reach, against ``hwmodule.SPANNING_CAP``.
        """
        mod = self.module
        vid = mod.quiver.vertex_id
        terms = list(b.vector.terms.items())
        word = []

        def walk(remaining, last):
            if not any(remaining):
                visits[0] += 1
                if visits[0] > hwmodule.SPANNING_CAP:
                    raise ResourceCapError(
                        f"id walk at {nu} visits more than cap "
                        f"{hwmodule.SPANNING_CAP} words")
                w = tuple(word)
                acc = {}
                for t, c in terms:
                    p = mod.pair_words(t, w)
                    if p:
                        addmul(acc, c.c, p.c)
                p = finish(acc)
                if p:
                    yield tuple((vid(i), a) for i, a in w), tuple(sorted(p.c.items()))
                return
            for i in self._by_id:
                if i == last or remaining[i] == 0:
                    continue
                for a in range(1, remaining[i] + 1):
                    remaining[i] -= a
                    if self.store[tuple(remaining)]:
                        word.append((i, a))
                        yield from walk(remaining, i)
                        word.pop()
                    remaining[i] += a

        return walk(list(nu), None)

    # -- the t_i statistic ------------------------------------------------

    def _set_t(self, nu, elems):
        """Set ``b.t`` on the elements at nu.  For each i, r walks upward
        and t = r goes to the positions that had r - 1 and lie in the image
        of F_i^(r); the walk stops at the first r that promotes nobody."""
        ts = [[0] * len(nu) for _ in elems]
        for i in range(len(nu)):
            for r in range(1, nu[i] + 1):
                support = self._image_support(nu, i, r)
                promoted = [t for pos, t in enumerate(ts)
                            if t[i] == r - 1 and pos in support]
                if not promoted:
                    break
                for t in promoted:
                    t[i] = r
        for b, t in zip(elems, ts):
            b.t = tuple(t)

    def _image_support(self, nu, i, r):
        """Positions at nu of the canonical basis elements in the image of
        F_i^(r).  The coordinate rows of F_i^(r) on the basis words at
        nu - r alpha_i span the coordinate subspace of the positions they
        touch, so their rank must equal the number of those positions.  The
        rows live on those positions, so a modular rank (a lower bound) that
        reaches the number certifies the span."""
        mod = self.module
        low = nu[:i] + (nu[i] - r,) + nu[i + 1:]
        rows = [self.expand(mod.apply_F(i, r, mod.monomial_vector(w)))
                for w in mod.weight_space(low).basis]
        support = {pos for row in rows for pos, c in enumerate(row) if c}
        rank = rank_mod_p(rows)
        if rank < len(support):
            raise CompletionError(
                f"image of F_{i}^({r}) at {nu} is not spanned by the canonical basis "
                f"elements it contains, or its rank is not certified at the evaluation "
                f"point ({rank} < {len(support)})")
        return support

    # -- coordinates -----------------------------------------------------------

    def expand(self, u):
        """Laurent coordinates x of u against the stored elements at its
        content, so that u = sum_t x_t b_t; a fresh list.

        Coordinates are linear in u: u = sum_w c_w w over its words, so
        x = sum_w c_w x(w), where x(w) are the coordinates of the word
        vector w, solved once per basis (``_solve_word``) and kept, keyed
        by the word (a word fixes its content).
        """
        x = [{} for _ in self.elements(u.content)]
        for w, c in u.terms.items():
            xw = self._word_coords.get(w)
            if xw is None:
                xw = self._word_coords[w] = self._solve_word(w)
            for xs, p in zip(x, xw):
                if p:
                    addmul(xs, c.c, p.c)
        return [finish(xs) for xs in x]

    def _solve_word(self, w):
        """Coordinates of the word vector w against the stored elements.

        With y_t = (w, b_t) and the Gram matrix I + N of the elements, x
        solves (I + N) x = y.  N lies in v^-1 Z[v^-1], so reading degree d
        gives x_d = y_d - sum_{k >= 1} N_k x_{d+k}: integers only, from
        D = max deg y (above it x vanishes) down to -D.  Word vectors and
        the elements are bar-invariant, hence so is x, and [-D, D] is its
        whole degree window.  The result is checked exactly: a nonzero
        residual raises InternalCheckError.  A passing check is a proof.
        The count-vs-rank check of the induction makes the elements as
        many as the rank, and det(I + N) is 1 mod v^-1, so they are a basis
        of the weight space; w - sum_t x_t b_t is then orthogonal to a
        basis, hence 0 by the nondegeneracy of the form.
        """
        vec = self.module.monomial_vector(w)
        elems = self.elements(vec.content)
        offsets = self._gram_offsets(vec.content)
        form = self.module.form
        y = [form(vec, b.vector) for b in elems]
        top = max((p.degree() for p in y if p), default=0)
        x = [{} for _ in elems]
        for d in range(top, -top - 1, -1):
            for s, row in enumerate(offsets):
                c = y[s].coeff(d)
                for t, p in row:
                    xt = x[t]
                    for k, a in p.c.items():
                        c -= a * xt.get(d - k, 0)
                if c:
                    x[s][d] = c
        for s, row in enumerate(offsets):
            acc = dict(x[s])
            for t, p in row:
                addmul(acc, p.c, x[t])
            if finish(acc) != y[s]:
                raise InternalCheckError(
                    f"canonical-basis expansion at {vec.content} leaves a residual")
        return [finish(xs) for xs in x]

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

    # -- ids -------------------------------------------------------------

    def element_id(self, nu, pos):
        """Canonical id 'content/index' of the element stored at pos; the
        elements of a content are stored in id order."""
        return f"{cartan.content_str(nu)}/{pos}"


class _Stream:
    """One element's pairing entries, read only as far as a comparison
    needs."""

    __slots__ = ("elem", "_entries", "_seen")

    def __init__(self, elem, entries):
        self.elem = elem
        self._entries = entries
        self._seen = []

    def _entry(self, k):
        seen = self._seen
        while len(seen) <= k:
            e = next(self._entries, None)
            if e is None:
                return None
            seen.append(e)
        return seen[k]

    def __lt__(self, other):
        k = 0
        while True:
            a, b = self._entry(k), other._entry(k)
            if a != b:
                return b is not None and (a is None or a < b)
            if a is None:
                return False
            k += 1


def verify_bar_invariant(module, b):
    """Whether the bar involution fixes the element: bar(b) - b is zero in
    the module (word vectors are bar-fixed, so bar acts on coefficients)."""
    return module.is_zero_vector(b.vector.map_coeffs(LaurentPoly.bar) - b.vector)
