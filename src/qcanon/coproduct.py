"""The U^- structure that only ``verify`` reads: the restriction coproduct
with its explicit shift, the four derivations and the Serre elements,
over the words of ``uminus``.

The coproduct of a word is built from that of its suffix, one slot at a
time and memoized for the process (``_coproduct``); each slot adds its
term of Lusztig's five-term shift.  The four derivations are its
components with one factor F_i, read off by a single slot extraction that
takes the side and, for the two that pair with the module, a twist; their
exponents need only the running content beside the slot.  Coefficient
sums accumulate in one exponent map per word (``qarith.addmul``), not a
new polynomial per term.

Only ``verify`` imports this module, so ``dims``, ``basis`` and ``graph``
do not load it.
"""

from __future__ import annotations

from functools import lru_cache

from .qarith import LaurentPoly, ZERO, ONE, addmul, finish
from .uminus import EMPTY_WORD, UMinusElement, concat_words
from . import cartan


# -- restriction coproduct -------------------------------------------------


def restriction_coproduct(quiver, word):
    """Every coproduct component of a word: a new list of (tau word, omega
    word, coefficient) with normalized words and aggregated coefficients,
    sorted by (tau content, tau word, omega word), over the components
    ``_coproduct`` keeps for the process."""
    return [(t, o, c) for _, t, o, c in _coproduct(tuple(map(tuple, quiver.a)), word)]


@lru_cache(maxsize=None)
def _coproduct(a, word):
    """The components of a word as a tuple of (tau content, tau, omega,
    coefficient), built from those of its suffix: memoized for the process
    over the arrow-matrix rows ``a`` and the word, so words that share a
    suffix expand it once.

    For word = F_i^(x) w', each component (tau', omega') of w' and each
    split x = b + c of the new slot give tau = F_i^(b) tau' and omega =
    F_i^(c) omega', times the merge scalars and v^(-c (b + 2 d)), where d =
    tau'_i - (A tau')_i.  Summed over the slots, these are Lusztig's
    five-term shift (Introduction to Quantum Groups, 1993, 1.2-1.4): each
    slot pairs its omega part c with the tau content right of it.
    """
    if not word:
        return (((0,) * len(a), EMPTY_WORD, EMPTY_WORD, ONE),)
    (i, x), rest = word[0], word[1:]
    agg = {}
    for mu, tau, omega, coeff in _coproduct(a, rest):
        d = mu[i] - sum(e * y for e, y in zip(a[i], mu))
        for b in range(x + 1):
            t, s1 = concat_words(((i, b),) if b else EMPTY_WORD, tau)
            o, s2 = concat_words(((i, x - b),) if x - b else EMPTY_WORD, omega)
            s = s2 if s1 is ONE else s1 if s2 is ONE else s1 * s2
            key = (mu[:i] + (mu[i] + b,) + mu[i + 1:], t, o)
            addmul(agg.setdefault(key, {}), coeff.c, s.c, shift=-(x - b) * (b + 2 * d))
    return tuple((mu, t, o, c) for (mu, t, o), acc in sorted(agg.items()) if (c := finish(acc)))


def rbar(quiver, x, i):
    """Derivation extracting the coproduct component with second factor F_i."""
    return _extraction(quiver, x, i, right=True, twisted=False)


def ibar(quiver, x, i):
    """Derivation extracting the coproduct component with first factor F_i."""
    return _extraction(quiver, x, i, right=False, twisted=False)


def rbar_derivation(quiver, x, i):
    """Right bar-derivation in the convention that pairs with the module.

    Same slot extraction as ``rbar`` but with each slot term twisted by
    v^{-n_i(mu)}, where mu is the content of the slots to the right and
    n_i(mu) counts arrows from i into mu.  With this twist the operator
    satisfies rd(xy) = v^{-(a_i, |y|)} rd(x) y + x rd(y) and the module
    identity linking E_i to the two derivations holds on the nose.
    """
    return _extraction(quiver, x, i, right=True, twisted=True)


def ibar_derivation(quiver, x, i):
    """Left bar-derivation: ld(xy) = ld(x) y + v^{-(a_i, |x|)} x ld(y)."""
    return _extraction(quiver, x, i, right=False, twisted=True)


def _extraction(quiver, x, i, right, twisted):
    """Remove one F_i from each slot l of vertex i in every word of x.

    The term is the coproduct component with tau multiplicities a - delta_l
    (right: omega is the single F_i) or delta_l (left: tau is the single
    F_i), so it carries v^M of that splitting.  Summed over the slot terms
    of ``_coproduct`` that is M = 1 - a + 2 (A mu)_i - 2 mu_i, with mu
    the content of the slots right (right) or left (left) of slot l.  With
    ``twisted`` it also carries v^{-(A mu)_i}.  mu is kept as a running
    weight sum over the slots passed.  The words of x are normalized, so
    only a slot emptied to 0 can merge its two neighbours (``concat_words``).
    """
    top = x.content[i]
    if top == 0:
        return UMinusElement(x.content)
    per_edge = 1 if twisted else 2
    weight = [per_edge * e - 2 * (k == i) for k, e in enumerate(quiver.a[i])]
    out = {}
    for word, c in x.terms.items():
        slots = range(len(word) - 1, -1, -1) if right else range(len(word))
        passed = 0  # the mu terms of M: weight[j] * a summed over the slots passed
        for l in slots:
            j, a = word[l]
            if j == i:
                if a == 1:
                    reduced, scal = concat_words(word[:l], word[l + 1:])
                else:
                    reduced, scal = word[:l] + ((i, a - 1),) + word[l + 1:], ONE
                addmul(out.setdefault(reduced, {}), c.c, scal.c, shift=1 - a + passed)
            passed += weight[j] * a
    return UMinusElement(x.content[:i] + (top - 1,) + x.content[i + 1:],
                         {w: finish(acc) for w, acc in out.items()})


def serre_element(quiver, i, j):
    """sum_m (-1)^m F_i^(m) F_j F_i^(1+a_ij-m), the quantum Serre relator."""
    if i == j:
        raise ValueError("serre_element needs two distinct vertices")
    a = quiver.a[i][j]
    n = quiver.n
    content = cartan.vec_add(cartan.unit_vector(n, i, 1 + a), cartan.unit_vector(n, j))
    terms = {}
    for m in range(0, a + 2):
        slots = []
        if m:
            slots.append((i, m))
        slots.append((j, 1))
        if 1 + a - m:
            slots.append((i, 1 + a - m))
        word = tuple(slots)
        sign = LaurentPoly(-1 if m % 2 else 1)
        terms[word] = terms.get(word, ZERO) + sign
    return UMinusElement(content, terms)
