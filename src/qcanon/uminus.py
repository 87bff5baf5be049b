"""The monomial model of the negative half of the quantized enveloping
algebra: words in divided powers, their product, and the listing and
counting of normalized words.  The restriction coproduct, the derivations
and the Serre elements, which only ``verify`` reads, are in ``coproduct``,
so the commands that build a basis or a graph do not load them.  The
product accumulates coefficient sums in one exponent map per word
(``qarith.addmul``), not a new polynomial per term.

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

from .qarith import ZERO, ONE, addmul, finish, qbinom
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
