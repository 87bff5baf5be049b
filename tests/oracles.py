"""Reference implementations the tests compare the package against.

Not a test module (pytest collects only ``test_*.py``).  Nothing here
evaluates at a point of F_p or imports the package's elimination, so a
check against these references shares no code with what it checks, apart
from ``pair_words``, which the pairing rows below read.
"""

from qcanon.qarith import ONE, ZERO, addmul, finish


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
