"""The monomial model of the negative half of the quantized enveloping
algebra: words in divided powers, their product, the restriction coproduct
with its explicit shift, the derivations, and Serre elements.

The coproduct of a word is built from that of its suffix, one slot at a
time and memoized for the process (``_coproduct``); each slot adds its
term of Lusztig's five-term shift.  The four derivations are its
components with one factor F_i, read off by a single slot extraction that
takes the side and, for the two that pair with the module, a twist; their
exponents need only the running content beside the slot.  Coefficient sums accumulate in one
exponent map per word (``qarith.addmul``), not a new polynomial per term.

A word is a tuple ((i_1, a_1), ..., (i_k, a_k)) of (vertex index,
multiplicity) pairs with all a_l >= 1 and no two adjacent entries sharing a
vertex; it stands for the product F_{i_1}^{(a_1)} ... F_{i_k}^{(a_k)}.
Merging of adjacent equal vertices is performed by the product and emits a
Gaussian binomial scalar, F_i^{(a)} F_i^{(b)} = [a+b choose a] F_i^{(a+b)}.
No further straightening is attempted; relations are imposed only in the
module quotient.  ``normalized_words`` lists the normalized words of a content
and ``count_words`` counts them without listing.

``UMinusElement`` is the one type that holds a content and a word ->
coefficient map.  The highest weight module is a quotient of this algebra,
so a module vector is an element x applied to the highest weight vector
and is stored as the ``UMinusElement`` x; the module's F_i^(n) is
``mono_mul`` with the monomial F_i^(n) on the left.
"""

from __future__ import annotations

from functools import lru_cache

from .qarith import LaurentPoly, ZERO, ONE, addmul, finish, qbinom
from . import cartan


EMPTY_WORD = ()


def word_content(word, n):
    out = [0] * n
    for i, a in word:
        out[i] += a
    return tuple(out)


def word_str(word, quiver):
    """Text form '1^2.2^1' with vertex ids."""
    if not word:
        return "1"  # the empty monomial acts as the identity
    return ".".join(f"{quiver.vertex_id(i)}^{a}" for i, a in word)


def count_words(content):
    """Number of normalized words of a content, without listing them: a
    count over (remaining content, last vertex), memoized for the process
    (``_count_from``), so a run that counts every content up to a height
    counts each lower one once."""
    return _count_from(tuple(content), None)


def normalized_words(content):
    """Yield every normalized word of a content, slot by slot: vertex index
    ascending, then multiplicity descending.  Nothing is kept: the low-height
    ``verify`` samples and the tests list words with it, the weight spaces
    and the element ids do not."""
    remaining = list(content)
    word = []

    def walk(last):
        if not any(remaining):
            yield tuple(word)
            return
        for i, top in enumerate(remaining):
            if i == last or not top:
                continue
            for a in range(top, 0, -1):
                remaining[i] = top - a
                word.append((i, a))
                yield from walk(i)
                word.pop()
            remaining[i] = top

    yield from walk(None)


@lru_cache(maxsize=None)
def _count_from(remaining, last):
    """Normalized words of content ``remaining`` whose first letter is not
    vertex ``last``; depends on nothing but the two arguments."""
    if not any(remaining):
        return 1
    total = 0
    for i, top in enumerate(remaining):
        if i != last:
            for a in range(1, top + 1):
                total += _count_from(remaining[:i] + (top - a,) + remaining[i + 1:], i)
    return total


def normalize_slots(slots):
    """Drop zero-multiplicity slots and merge adjacent equal vertices.

    Returns (word, scalar): the Gaussian-binomial scalar emitted by the
    merges, so that the raw slot sequence equals scalar * word in the
    Grothendieck-group model.
    """
    out = []
    scalar = ONE
    for i, a in slots:
        if a == 0:
            continue
        if out and out[-1][0] == i:
            b = out[-1][1]
            scalar = scalar * qbinom(a + b, a)
            out[-1] = (i, a + b)
        else:
            out.append((i, a))
    return tuple(out), scalar


def concat_words(w1, w2):
    """Concatenation with boundary merge; returns (word, scalar)."""
    if not w1:
        return w2, ONE
    if not w2:
        return w1, ONE
    if w1[-1][0] == w2[0][0]:
        i, a = w1[-1]
        b = w2[0][1]
        return w1[:-1] + ((i, a + b),) + w2[1:], qbinom(a + b, a)
    return w1 + w2, ONE


class UMinusElement:
    """Content-homogeneous A-linear combination of words.

    The same data is a vector of the module, the element applied to the
    highest weight vector.  The zero element keeps its declared content;
    module operators that would push the content outside the positive cone
    return a zero element with the content left unchanged, and downstream
    code only ever inspects such elements for vanishing.
    """

    __slots__ = ("content", "terms")

    def __init__(self, content, terms=None):
        self.content = tuple(content)
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[w] = c

    @staticmethod
    def monomial(quiver, word, coeff=ONE):
        return UMinusElement(word_content(word, quiver.n), {word: coeff})

    @staticmethod
    def unit(quiver):
        return UMinusElement(cartan.zero_vector(quiver.n), {EMPTY_WORD: ONE})

    def __eq__(self, other):
        return (isinstance(other, UMinusElement)
                and self.content == other.content and self.terms == other.terms)

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        if self.content != other.content:
            raise ValueError("adding inhomogeneous elements")
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, ZERO) + c
            if s:
                out[w] = s
            else:
                del out[w]
        return UMinusElement(self.content, out)

    def __neg__(self):
        return UMinusElement(self.content, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        if not coeff:
            return UMinusElement(self.content)
        if coeff == ONE:
            return self
        return UMinusElement(self.content,
                             {w: c * coeff for w, c in self.terms.items()})

    def map_coeffs(self, f):
        return UMinusElement(self.content, {w: f(c) for w, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        return f"UMinusElement({self.content!r}, {self.terms!r})"


def mono_mul(x, y):
    """Bilinear extension of concatenation with the merge rule."""
    out = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            w, scal = concat_words(w1, w2)
            addmul(out.setdefault(w, {}), c1.c, c2.c if scal is ONE else (c2 * scal).c)
    return UMinusElement(cartan.vec_add(x.content, y.content),
                         {w: finish(acc) for w, acc in out.items()})


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
    weight sum over the slots passed.
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
                reduced, scal = normalize_slots(word[:l] + ((i, a - 1),) + word[l + 1:])
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
