"""Reference implementations the tests compare the package against.

Not a test module (pytest collects only ``test_*.py``).  Nothing here
evaluates at a point of F_p or imports the package's elimination, so a
check against these references shares no code with what it checks, apart
from ``pair_words``, which the pairing rows below read.  The slotwise
coproduct takes nothing from the path of ``uminus.restriction_coproduct``;
it shares only the Laurent accumulation and the Gaussian binomials.
"""

import itertools

from qcanon.qarith import ONE, ZERO, addmul, finish
from qcanon.uminus import normalize_slots, word_content


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


def pairing_row(module, u):
    """Pairings of u against every normalized word of its content
    (``spanning_words``), one ``pair_words`` sum per word: the reference
    for ``is_zero_vector`` and for the element ids, sharing only
    ``pair_words`` with them."""
    row = []
    for m in module.spanning_words(u.content):
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
    words = module.spanning_words(elem.content)
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
    reference for ``uminus.restriction_coproduct``, which builds each word's
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
