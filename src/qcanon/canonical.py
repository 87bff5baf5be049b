"""Canonical basis of each weight space: bar-invariant, almost-orthonormal,
unitriangular against the path monomial basis.

The computation is a seeded induction.  Every basis element of t_i-value t
at a content nu is the leading term of F_i^(t) applied to a lower element
with t_i = 0; candidates are orthogonalized against the already-accepted
elements by subtracting sym_truncate of the offending pairings until every
pairing drops into v^-1 Z[v^-1].  Convergence is guarded: the maximal
degree of an offending pairing must strictly decrease on every pass.
Each content's element count must equal the weight multiplicity that the
Weyl-Kac oracle gives (``hwmodule.freudenthal_multiplicity``): the
nonzero simple perverse sheaves of the localization are the canonical
basis of L(Lambda), so they are as many as that multiplicity.  The oracle
reads only the Cartan matrix and Lambda and shares no code with the module
action, and the induction builds no weight-space model (no spanning set,
candidate Gram matrix or elimination).

The induction also reads t_i.  At every seed (i, t, b0) it records the
exact coordinates of F_i^(t) b0 against the elements accepted so far: the
orthogonalization's own sym_truncate subtractions, plus coordinate 1 on the
candidate itself when it is accepted.  By the string property (Kashiwara,
Duke 63 (1991); Lusztig, Introduction to Quantum Groups, ch. 14),
F_i^(t) b0 = b'' + sum c b', where t_i(b'') = t, every b' has
t_i(b') > t, and b'' occurs iff t <= <wt b0, alpha_i^vee>.  The seeds of
vertex i come with t descending, so every b' already has its t_i, and b''
is the one element of nonzero coordinate that has none; its coordinate
must be exactly 1.  It gets t_i = t and becomes the seed's arrow target
(``leaders``, read by the left graph); an element that no seed reaches has
t_i = 0.  A record that breaks this raises CompletionError.  The
coordinates themselves are kept too (``images``, by position once the
content is sorted): the path monomials' transition columns are Laurent
combinations of them (``crystalgraph.monomial_basis``).  The exact
coordinates prove t_i(b'') >= t.  The upper bound, that the image of
F_i^(t+1) is spanned by the elements with t_i > t and so misses b'', is
the spanning half of the same string property: the theorem the seeding
itself rests on, and the certificate here.

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

The stored elements are the only coordinate system: ``expand`` writes any
vector in them with Laurent coefficients (for ``pi_arrow`` and the verify
suites), as the sum over its words of the coefficient times the word's
coordinates.  Those are solved once per word
and kept on the basis: one pairing row against the elements and one integer
recurrence against their Gram matrix I + N, N in v^-1 Z[v^-1], checked
exactly.  Word vectors are bar-invariant, so the recurrence needs no second
row for the bar of the vector.
"""

from __future__ import annotations

from .qarith import LaurentPoly, ONE, addmul, finish, sym_truncate
from .hwmodule import InternalCheckError, ResourceCapError
from . import cartan

# Most normalized words the id walks of one content may reach.
SPANNING_CAP = 200_000


class OrthogonalizationError(RuntimeError):
    """The degree guard fired; wrong design assumption or a bug upstream."""


class CompletionError(RuntimeError):
    """A content fails a completeness check: its element count against the
    Weyl-Kac multiplicity, an element's self-pairing or bar-invariance, or
    the string property of a seed's recorded coordinates."""


class CBElement:
    """One canonical basis element.

    ``vector`` is the exact monomial combination, ``t`` the tuple of t_i
    values (read off the seeds' coordinates once the content is built), and
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
        # (content, pos, i, t) of a seed b with t_i(b) = 0 -> position of the
        # leading element of F_i^(t) b one string step up, or None
        self.leaders = {}
        # the same key -> the exact coordinates {position: coefficient} of
        # F_i^(t) b against the elements at its content, nonzero ones only
        self.images = {}

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
                accepted, records = self._compute_content(nu)
                elems = self.store[nu] = self._id_sorted(nu, accepted)
                at = {b: p for p, b in enumerate(elems)}
                pos = [at[b] for b in accepted]  # accepted index -> position
                for key, lead, coords in records:
                    self.leaders[key] = None if lead is None else pos[lead]
                    self.images[key] = {pos[k]: c for k, c in coords.items() if c}
        self.max_height = max(self.max_height, hmax)
        return self

    # -- the induction ---------------------------------------------------

    def _compute_content(self, nu):
        """The elements at nu in the order accepted, with ``t`` set, and
        one record per seed: ((parent content, parent position, i, t), index
        of the leading element or None, coordinates of the seed's image by
        element index)."""
        mod = self.module
        if cartan.height(nu) == 0:
            vac = mod.vacuum()
            top = CBElement(nu, vac, (None, 0, None), self_pairing=mod.self_pairing(vac))
            top.t = (0,) * len(nu)
            return [top], []
        accepted = []
        ts = []  # ts[k][i] is t_i of accepted[k], 0 until a seed reaches it
        records = []
        for i in self.order:
            for t in range(nu[i], 0, -1):
                low = tuple(x - (t if k == i else 0) for k, x in enumerate(nu))
                for parent_pos, parent in enumerate(self.store[low]):
                    if parent.t[i] != 0:
                        continue
                    cand = mod.apply_F(i, t, parent.vector)
                    cand, coords = self._orthogonalize(cand, accepted)
                    sp = mod.self_pairing(cand)
                    if sp:  # else a duplicate of an earlier seed (anisotropy)
                        if not sp.is_one_plus_lower():
                            raise CompletionError(
                                f"nonzero candidate at {nu} with self-pairing {sp}")
                        elem = CBElement(nu, cand, (i, t, (low, parent_pos)),
                                         self_pairing=sp)
                        if not verify_bar_invariant(mod, elem):
                            raise CompletionError(
                                f"accepted element at {nu} is not bar-invariant")
                        coords[len(accepted)] = ONE
                        accepted.append(elem)
                        ts.append([0] * len(nu))
                    lead = _leader(nu, i, t, coords, ts)
                    if lead is not None:
                        if t > mod.coroot_pairing(low, i):
                            raise CompletionError(
                                f"F_{i}^({t}) image at {nu} leads past the "
                                f"{i}-string of its seed")
                        ts[lead][i] = t
                    records.append(((low, parent_pos, i, t), lead, coords))
        mult = mod.freudenthal_multiplicity(nu)
        if len(accepted) != mult:
            raise CompletionError(
                f"content {nu}: found {len(accepted)} elements, Weyl-Kac "
                f"multiplicity {mult}")
        for b, t in zip(accepted, ts):
            b.t = tuple(t)
        return accepted, records

    def _orthogonalize(self, cand, accepted):
        """(cand less its offending components, coords): coords maps the
        index k of an accepted element to the sum of the multiples of
        ``accepted[k].vector`` taken off, so the input is the result plus
        sum_k coords[k] accepted[k].vector."""
        mod = self.module
        coords = {}
        prev_max = None
        while True:
            worst = None
            for k, b in enumerate(accepted):
                p = mod.form(cand, b.vector)
                d = p.degree()
                if d is not None and d >= 0:
                    worst = d if worst is None else max(worst, d)
                    s = sym_truncate(p)
                    cand = cand - b.vector.scale(s)
                    coords[k] = coords[k] + s if k in coords else s
            if worst is None:
                return cand, coords
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
        walks of one content reach, against ``SPANNING_CAP``.
        """
        mod = self.module
        vid = mod.quiver.vertex_id
        word = []

        def walk(remaining, last):
            if not any(remaining):
                visits[0] += 1
                if visits[0] > SPANNING_CAP:
                    raise ResourceCapError(
                        f"id walk at {nu} visits more than cap "
                        f"{SPANNING_CAP} words")
                w = tuple(word)
                p = mod.form(b.vector, mod.monomial_vector(w))
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
        The count check of the induction makes the elements as many as
        the Weyl-Kac multiplicity, the dimension of the weight space, and
        det(I + N) is 1 mod v^-1, so they are a basis of the weight space;
        w - sum_t x_t b_t is then orthogonal to a basis, hence 0 by the
        nondegeneracy of the form.
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


def _leader(nu, i, t, coords, ts):
    """The index of the leading element of a seed's F_i^(t) image from its
    coordinates ``coords`` (index -> Laurent coefficient): the one element
    of nonzero coordinate whose t_i is not yet set (``ts[k][i] == 0``), with
    coordinate exactly 1, or None when there is none.  Every other nonzero
    coordinate must sit on an element with t_i > t."""
    lead = None
    for k, c in coords.items():
        if not c:
            continue
        s = ts[k][i]
        if s == 0:
            if lead is not None:
                raise CompletionError(
                    f"F_{i}^({t}) image at {nu} has two summands without t_{i}")
            if c != ONE:
                raise CompletionError(
                    f"leading summand of an F_{i}^({t}) image at {nu} has "
                    f"coefficient {c}, expected 1")
            lead = k
        elif s <= t:
            raise CompletionError(
                f"summand with t_{i} = {s} <= {t} in an F_{i}^({t}) image at {nu}")
    return lead


def verify_bar_invariant(module, b):
    """Whether the bar involution fixes the element: bar(b) - b is zero in
    the module (word vectors are bar-fixed, so bar acts on coefficients)."""
    return module.is_zero_vector(b.vector.map_coeffs(LaurentPoly.bar) - b.vector)
