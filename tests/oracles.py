"""Reference implementations the tests compare the package against.

Not a test module (pytest collects only ``test_*.py``).  Nothing here
evaluates at a point of F_p or imports the package's elimination, so a
check against these references shares no code with what it checks, apart
from ``pair_words``, which the pairing rows below read.  The pairing
reference sums Laurent polynomials and takes no Kronecker packing helper
from ``qarith``; it shares only the E action (``_e_word``).  The slotwise
coproduct takes nothing from the path of ``coproduct.restriction_coproduct``;
it shares only the Laurent accumulation and the Gaussian binomials.
"""

import itertools

from qcanon import cartan
from qcanon.crystalgraph import path_order, pi_arrow
from qcanon.qarith import ONE, ZERO, addmul, finish, qint
from qcanon.coproduct import normalize_slots
from qcanon.uminus import normalized_words, word_content


def span(p):
    """Difference of extreme exponents; 0 for zero (pivot heuristic)."""
    if not p.c:
        return 0
    return max(p.c) - min(p.c)


def lp_rank(rows):
    """Rank of a LaurentPoly matrix by Bareiss elimination, free of fractions.

    Pivot choice within a column: nonzero entry with minimal exponent span,
    first such row on ties (bounds coefficient growth, no correctness
    impact).
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    prev = ONE
    r = 0
    for c in range(n):
        if r >= m:
            break
        best = None
        for rr in range(r, m):
            e = rows[rr][c]
            if e:
                sp = span(e)
                if best is None or sp < best[0]:
                    best = (sp, rr)
        if best is None:
            continue
        rr = best[1]
        if rr != r:
            rows[r], rows[rr] = rows[rr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, m):
            fac = rows[i][c]
            # rows with fac = 0 still rescale by piv/prev (Sylvester identity)
            for j in range(c + 1, n):
                rows[i][j] = (rows[i][j] * piv - fac * rows[r][j]).divexact(prev)
            rows[i][c] = ZERO
        prev = piv
        r += 1
    return r


def greedy_prefix(rows):
    """The indices of the rows that raise the ``lp_rank`` of the rows kept
    before them."""
    kept, prefix = [], []
    for s, row in enumerate(rows):
        if lp_rank(kept + [row]) > len(kept):
            kept.append(row)
            prefix.append(s)
    return prefix


def image_support(cb, nu, i, r):
    """Positions at nu of the canonical basis elements in the image of
    F_i^(r): the columns touched by the canonical-basis coordinates of
    F_i^(r) on the basis words at nu - r alpha_i.  Those rows must span the
    coordinate subspace of the columns they touch, so their ``lp_rank``
    must equal the number of those columns."""
    mod = cb.module
    low = nu[:i] + (nu[i] - r,) + nu[i + 1:]
    rows = [cb.expand(mod.apply_F(i, r, mod.monomial_vector(w)))
            for w in mod.weight_space(low).basis]
    support = {pos for row in rows for pos, c in enumerate(row) if c}
    assert lp_rank(rows) == len(support), (nu, i, r)
    return support


def t_values(cb, nu):
    """t_i of every element at nu from the images of F_i^(r): for each i,
    r walks upward and t_i = r goes to the positions that had r - 1 and lie
    in the image; the walk stops at the first r that promotes nobody.  The
    reference for ``b.t``, which the induction reads off its seeds."""
    ts = [[0] * len(nu) for _ in cb.elements(nu)]
    for i in range(len(nu)):
        for r in range(1, nu[i] + 1):
            support = image_support(cb, nu, i, r)
            promoted = [t for pos, t in enumerate(ts)
                        if t[i] == r - 1 and pos in support]
            if not promoted:
                break
            for t in promoted:
                t[i] = r
    return [tuple(t) for t in ts]


def arrows_by_expansion(cb):
    """The left graph's sorted arrows, each from ``pi_arrow``'s expansion of
    its seed's image: the reference for ``build_left_graph``, which reads
    the leaders the induction recorded."""
    module = cb.module
    arrows = []
    for nu in cb.contents():
        room = cb.max_height - cartan.height(nu)
        for qpos, b in enumerate(cb.elements(nu)):
            for i in range(module.quiver.n):
                if b.t[i]:
                    continue
                for t in range(1, min(module.coroot_pairing(nu, i), room) + 1):
                    elem, pos = pi_arrow(cb, i, t, b)
                    arrows.append((cb.element_id(elem.content, pos),
                                   cb.element_id(nu, qpos),
                                   (module.quiver.vertex_id(i), t)))
    return sorted(arrows)


def transition_by_expansion(cb, graph, nu, order):
    """The transition matrix of ``monomial_basis`` at nu, each column from
    ``CanonicalBasis.expand`` of its path monomial: the reference for the
    columns that ``monomial_basis`` reads off the induction's seed images."""
    items = path_order(cb, graph, nu, order)
    cols = [cb.expand(cb.module.monomial_vector(path)) for _, path in items]
    return [[col[pos] for col in cols] for pos, _ in items]


class PairingOracle:
    """The contravariant form of a module on Laurent polynomials: the
    reference for ``pair_words``, ``form`` and ``self_pairing``, which sum
    packed integers.

    ``pair`` peels the leftmost divided power of w1:
    (F_i^(n) x, y) = v/[n] (F_i^(n-1) x, K_i^- E_i y), the sum over the
    words y of E_i y accumulated in one exponent map, times
    v^(-1 - <wt w2, a_i^vee>), then divided by [n] (``divexact``)."""

    def __init__(self, module):
        self.module = module
        self.memo = {}

    def pair(self, w1, w2):
        if not w1:
            return ONE if not w2 else ZERO
        key = (w1, w2)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        mod = self.module
        (i, n), x = w1[0], w1[1:]
        x1 = ((i, n - 1),) + x if n > 1 else x
        p = mod.coroot_pairing(word_content(w2, mod.quiver.n), i)
        out = {}
        for y, c in mod._e_word(i, w2).items():
            sub = self.pair(x1, y)
            if sub:
                addmul(out, c.c, sub.c, shift=-1 - p)
        acc = finish(out)
        if acc and n > 1:
            acc = acc.divexact(qint(n))
        self.memo[key] = acc
        return acc

    def form(self, u, w):
        """sum c1 c2 (w1, w2) over the words of u and of w."""
        if u.content != w.content:
            return ZERO
        out = {}
        for w1, c1 in u.terms.items():
            for w2, c2 in w.terms.items():
                p = self.pair(w1, w2)
                if p:
                    addmul(out, (c1 * c2).c, p.c)
        return finish(out)


def pairing_row(module, u):
    """Pairings of u against every normalized word of its content
    (``uminus.normalized_words``), one ``pair_words`` sum per word: the
    reference for ``is_zero_vector`` and for the element ids, sharing only
    ``pair_words`` with them."""
    row = []
    for m in normalized_words(u.content):
        acc = {}
        for w, c in u.terms.items():
            p = module.pair_words(w, m)
            if p:
                addmul(acc, c.c, p.c)
        row.append(finish(acc))
    return row


def element_key(module, elem):
    """Id sort key: the nonzero form values of the element against the
    normalized words of its content, each tagged by its word serialized
    through vertex ids, sorted.  The package stores each content in the
    order of these keys, compared lazily; this lists every word."""
    q = module.quiver
    words = normalized_words(elem.content)
    return tuple(sorted(
        (tuple((q.vertex_id(i), a) for i, a in w), tuple(sorted(p.c.items())))
        for w, p in zip(words, pairing_row(module, elem.vector)) if p))


def shift_exponent(quiver, slots, bs):
    """The shift M(tau, omega) for one slotwise splitting, in one
    right-to-left scan.

    ``slots`` is the raw word ((i_l, a_l)); ``bs`` the tau-multiplicities
    b_l (the omega part is c_l = a_l - b_l).  With A = ``quiver.a``
    (symmetric, zero diagonal) and tau_{>l} the tau content right of slot l,

        M = - sum_l c_l (b_l + 2 tau_{>l}[i_l] - 2 (A tau_{>l})[i_l]).

    This is Lusztig's five-term shift (Introduction to Quantum Groups,
    1993, 1.2-1.4) summed slot by slot.  Each term pairs the omega part
    c_l of a slot with tau on one side of it: the cross term over edge
    pairs l' < l is -2 sum_l c_l (A tau_{<l})[i_l]; the global edge term
    2 sum_l c_l (A tau)[i_l] cancels it on the left and leaves
    2 (A tau_{>l})[i_l], since A has no diagonal; the two same-vertex
    slot-order terms give c_l (tau_{<l} - tau_{>l})[i_l]; and the global
    term -sum_i tau_i omega_i gives -c_l (tau_{<l} + b_l + tau_{>l})[i_l].
    """
    a = quiver.a
    d = [0] * quiver.n  # (I - A) tau_{>l}
    m = 0
    for l in range(len(slots) - 1, -1, -1):
        i, top = slots[l]
        b = bs[l]
        if top - b:
            m -= (top - b) * (b + 2 * d[i])
        if b:
            d[i] += b
            for j, x in enumerate(a[i]):
                if x:
                    d[j] -= x * b
    return m


def slotwise_coproduct(quiver, word):
    """Every coproduct component of a word, from one slotwise pass: the
    reference for ``coproduct.restriction_coproduct``, which builds each word's
    components from those of its suffix.

    Each splitting 0 <= b_l <= a_l of the slot multiplicities gives the tau
    slots (i_l, b_l) and the omega slots (i_l, a_l - b_l), with coefficient
    v^M times the merge scalars of both.  Returns a list of (tau word, omega
    word, coefficient) with normalized words and aggregated coefficients,
    sorted by (tau content, tau word, omega word).
    """
    n = quiver.n
    agg = {}
    for bs in itertools.product(*(range(a + 1) for _, a in word)):
        tau_word, s1 = normalize_slots((i, b) for (i, _), b in zip(word, bs))
        omega_word, s2 = normalize_slots((i, a - b) for (i, a), b in zip(word, bs))
        key = (word_content(tau_word, n), tau_word, omega_word)
        addmul(agg.setdefault(key, {}), s1.c, s2.c, shift=shift_exponent(quiver, word, bs))
    return [(t, o, c) for (_, t, o), acc in sorted(agg.items()) if (c := finish(acc))]
