"""The integrable highest weight module realized on divided-power words.

A ``ModuleVector`` is a content-homogeneous combination of words applied to
the highest weight vector.  ``HighestWeightModule`` carries the operator
actions E_i, F_i^(n), K_i^{+-}, the contravariant bilinear form normalized
by (v_L, v_L) = 1 with F_i adjoint to v K_i^-1 E_i, weight-space models
(a candidate spanning set, its Gram matrix, and one fraction-free symmetric
elimination of it that yields the basis and the rank), and an independent
weight-multiplicity oracle: the Weyl-Kac character formula divided by the
denominator identity, which needs only the signed dot orbit of the Weyl
group, in integers.

The module is generated from v_L by the divided powers, so
L_nu = sum_{i, a} F_i^(a) L_{nu - a alpha_i}, and the weight space of nu is
spanned by the candidates F_i^(a) b, with 1 <= a <= nu_i and b a basis word
of nu - a alpha_i that does not start with vertex i.  Their number grows
with the module, not with the number of normalized words of nu.  The basis
is still the greedy prefix of independent words in ``spanning_words``
order: a word (i, a) w' whose tail w' is not a basis word of
nu - a alpha_i lies in the span of earlier words of nu, namely F_i^(a)
applied to earlier words of the lower content, where an earlier word
starting with (i, b) turns into the word (i, a + b) ..., and higher
multiplicities sort first.  So every greedy basis word is a candidate, and
the greedy prefix of the candidates in the same order is the same basis.

Vector coordinates are read against the canonical basis
(``canonical.CanonicalBasis.expand``), not against these monomial bases.
``is_zero_vector`` tests (u, u) = 0: the form is anisotropic on the
Z[v, v^-1]-form of the module, so the self-pairing of a vector with Laurent
coefficients vanishes only when the vector does.  It pairs the words of u
among themselves, builds no weight space and enumerates no words, which is
why ``verify`` uses it above the height bound.

Everything is exact; a non-polynomial value surfacing anywhere in the form
computation raises ExactDivisionError and means a genuine bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .qarith import LaurentPoly, ZERO, ONE, PivotBreakdown, qint, qfact, lp_sym_echelon
from .uminus import EMPTY_WORD, concat_words, word_content
from . import cartan


class ResourceCapError(RuntimeError):
    """A configured size cap was exceeded; reported, never silent."""


class InternalCheckError(AssertionError):
    """An exact-arithmetic self-check failed; escalate, do not fall back."""


# Most contents of height <= max height a run may enumerate.
CONTENT_CAP = 100_000
# Most normalized words ``spanning_words`` may enumerate at one content.
SPANNING_CAP = 200_000


def check_content_count(n, hmax):
    """Raise ResourceCapError when n vertices have more than CONTENT_CAP
    contents of height <= hmax (there are C(hmax + n, n) of them)."""
    count = math.comb(hmax + n, n)
    if count > CONTENT_CAP:
        raise ResourceCapError(
            f"{count} contents up to height {hmax} exceed cap {CONTENT_CAP}")


class ModuleVector:
    """Weight-homogeneous element of the module, as word -> coefficient.

    The zero vector keeps its declared content.  Operators that would push
    the content outside the positive cone return a zero vector with the
    content left unchanged; downstream code only ever inspects such
    vectors for vanishing.
    """

    __slots__ = ("content", "terms")

    def __init__(self, content, terms=None):
        self.content = tuple(content)
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[w] = c

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        if self.content != other.content:
            raise ValueError("adding vectors of different contents")
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, ZERO) + c
            if s:
                out[w] = s
            else:
                del out[w]
        return ModuleVector(self.content, out)

    def __neg__(self):
        return ModuleVector(self.content, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        if not coeff:
            return ModuleVector(self.content)
        if coeff == ONE:
            return self
        return ModuleVector(self.content,
                            {w: c * coeff for w, c in self.terms.items()})

    def map_coeffs(self, f):
        return ModuleVector(self.content, {w: f(c) for w, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (isinstance(other, ModuleVector)
                and self.content == other.content and self.terms == other.terms)

    def __repr__(self):
        return f"ModuleVector({self.content!r}, {self.terms!r})"


@dataclass
class WeightSpaceModel:
    """Selected monomial model of one weight space.

    ``spanning`` is the candidate spanning set (F_i^(a) applied to the basis
    words of each nu - a alpha_i, in ``spanning_words`` order; see the
    module docstring), ``gram`` its Gram matrix, and ``basis`` the words
    the greedy prefix of that Gram keeps (the pivots of
    ``qarith.lp_sym_echelon``), which is the greedy-prefix basis of all
    normalized words of nu.
    """

    content: tuple
    spanning: list
    gram: list
    basis: list
    rank: int


class HighestWeightModule:
    """Exact model of L(Lambda) for one quiver and dominant weight."""

    def __init__(self, quiver, hw):
        self.quiver = quiver
        self.hw = hw
        self._e_cache = {}
        self._pair = {}
        self._spanning = {}
        self._spaces = {}
        # (height, N_Lambda, N_0 less its 0 term), regrown for a higher nu
        self._orbits = (-1, {}, {})
        self._weight_mult = {}

    # -- vectors --------------------------------------------------------

    def vacuum(self):
        return ModuleVector(cartan.zero_vector(self.quiver.n), {EMPTY_WORD: ONE})

    def monomial_vector(self, word, coeff=ONE):
        return ModuleVector(word_content(word, self.quiver.n), {word: coeff})

    def coroot_pairing(self, nu, i):
        return cartan.coroot_pairing(self.quiver, self.hw, nu, i)

    # -- operators ------------------------------------------------------

    def apply_F(self, i, n, u):
        """Left multiplication by F_i^(n)."""
        if n < 1:
            raise ValueError("divided power exponent must be >= 1")
        content = cartan.vec_add(u.content, cartan.unit_vector(self.quiver.n, i, n))
        out = {}
        for w, c in u.terms.items():
            nw, scal = concat_words(((i, n),), w)
            s = out.get(nw, ZERO) + c * scal
            if s:
                out[nw] = s
            else:
                del out[nw]
        return ModuleVector(content, out)

    def _e_word(self, i, w):
        """E_i(w . v_L) as a word -> coefficient map one step down."""
        if not w:
            return {}
        key = (i, w)
        hit = self._e_cache.get(key)
        if hit is not None:
            return hit
        (j, a), rest = w[0], w[1:]
        out = {}
        for y, c in self._e_word(i, rest).items():
            yw, scal = concat_words(((j, a),), y)
            s = out.get(yw, ZERO) + c * scal
            if s:
                out[yw] = s
            else:
                del out[yw]
        if j == i:
            # E_i F_i^(a) w' = F_i^(a) E_i w' + [<wt(w'), a_i^vee> + 1 - a] F_i^(a-1) w'
            p = self.coroot_pairing(word_content(rest, self.quiver.n), i)
            coeff = qint(p + 1 - a)
            if coeff:
                yw = ((i, a - 1),) + rest if a > 1 else rest
                s = out.get(yw, ZERO) + coeff
                if s:
                    out[yw] = s
                else:
                    del out[yw]
        self._e_cache[key] = out
        return out

    def apply_E(self, i, u):
        if u.content[i] == 0:
            return ModuleVector(u.content)
        content = cartan.vec_sub(u.content, cartan.unit_vector(self.quiver.n, i))
        out = ModuleVector(content)
        for w, c in u.terms.items():
            out = out + ModuleVector(content, {y: c * cy for y, cy in self._e_word(i, w).items()})
        return out

    def apply_E_divided(self, i, n, u):
        """E_i^(n) = E_i^n / [n]!; exact by construction on the module."""
        out = u
        for _ in range(n):
            out = self.apply_E(i, out)
        if n > 1 and out.terms:
            fact = qfact(n)
            out = out.map_coeffs(lambda c: c.divexact(fact))
        return out

    def apply_K(self, i, sign, u):
        k = sign * self.coroot_pairing(u.content, i)
        return u.scale(LaurentPoly.v_power(k))

    # -- contravariant form ----------------------------------------------

    def pair_words(self, w1, w2):
        """(w1 . v_L, w2 . v_L), peeling the leftmost divided power of w1.

        Recursion: (F_i^(n) x, y) = v/[n] (F_i^(n-1) x, K_i^- E_i y).
        Every recursion node is itself a form value, so the division by
        [n] is asserted exact at each step.
        """
        if not w1:
            return ONE if not w2 else ZERO
        key = (w1, w2)
        hit = self._pair.get(key)
        if hit is not None:
            return hit
        (i, n), x = w1[0], w1[1:]
        x1 = ((i, n - 1),) + x if n > 1 else x
        acc = ZERO
        for y, c in self._e_word(i, w2).items():
            sub = self.pair_words(x1, y)
            if sub:
                acc = acc + c * sub
        if acc:
            nu2 = word_content(w2, self.quiver.n)
            low = tuple(a - b for a, b in zip(nu2, cartan.unit_vector(self.quiver.n, i)))
            acc = acc.shift(1 - self.coroot_pairing(low, i))
            if n > 1:
                acc = acc.divexact(qint(n))
        self._pair[key] = acc
        return acc

    def form(self, u, w):
        """The contravariant form, zero across distinct contents."""
        if u.content != w.content:
            return ZERO
        acc = ZERO
        for w1, c1 in u.terms.items():
            for w2, c2 in w.terms.items():
                p = self.pair_words(w1, w2)
                if p:
                    acc = acc + c1 * c2 * p
        return acc

    # -- weight spaces ----------------------------------------------------

    def spanning_words(self, nu):
        """All normalized words of content nu; vertex order lexicographic,
        higher multiplicities first.

        The weight-space build does not read this list; it serves the
        ``dims`` spanning count, the pairing rows behind the canonical
        element ids, and the word samples of the low-height ``verify``
        suites.
        """
        nu = tuple(nu)
        hit = self._spanning.get(nu)
        if hit is not None:
            return hit
        n = self.quiver.n
        out = []

        def rec(prefix, remaining, last):
            if not any(remaining):
                out.append(tuple(prefix))
                if len(out) > SPANNING_CAP:
                    raise ResourceCapError(
                        f"spanning enumeration at {nu} exceeds cap {SPANNING_CAP}")
                return
            for i in range(n):
                if i == last or remaining[i] == 0:
                    continue
                for a in range(remaining[i], 0, -1):
                    remaining[i] -= a
                    prefix.append((i, a))
                    rec(prefix, remaining, i)
                    prefix.pop()
                    remaining[i] += a

        rec([], list(nu), None)
        self._spanning[nu] = out
        return out

    def _candidates(self, nu):
        """F_i^(a) applied to the basis words of every nu - a alpha_i,
        sorted like ``spanning_words``; [()] at nu = 0."""
        if not any(nu):
            return [EMPTY_WORD]
        out = []
        for i, top in enumerate(nu):
            for a in range(1, top + 1):
                low = nu[:i] + (top - a,) + nu[i + 1:]
                out.extend(((i, a),) + b for b in self.weight_space(low).basis
                           if not b or b[0][0] != i)
        out.sort(key=lambda w: [(i, -a) for i, a in w])
        return out

    def _gram(self, spanning):
        n = len(spanning)
        rows = [[self.pair_words(ws, wt) for wt in spanning] for ws in spanning]
        for s in range(n):
            for t in range(s + 1, n):
                if rows[s][t] != rows[t][s]:
                    raise InternalCheckError(
                        f"Gram asymmetry at {spanning[s]} / {spanning[t]}")
        return rows

    def weight_space(self, nu):
        nu = tuple(nu)
        hit = self._spaces.get(nu)
        if hit is not None:
            return hit
        if any(x < 0 for x in nu):
            raise ValueError(f"content {nu} has negative entries")
        spanning = self._candidates(nu)
        gram = self._gram(spanning)
        try:
            sel = lp_sym_echelon(gram)
        except PivotBreakdown as exc:
            # the form is anisotropic on the module, so a vanishing
            # self-pairing must force the whole pairing row to vanish
            raise InternalCheckError(
                f"isotropic nonzero row in Gram matrix at {nu}; form degeneracy") from exc
        model = WeightSpaceModel(nu, spanning, gram, [spanning[s] for s in sel],
                                 len(sel))
        self._spaces[nu] = model
        return model

    # -- pairing rows and the zero test --------------------------------------

    def pairing_row(self, u):
        """Pairings of u against every normalized word of its content.

        Enumerates ``spanning_words``; ``canonical.element_key`` reads
        element ids off this row, and the tests use it as an oracle for
        ``is_zero_vector`` that shares only ``pair_words`` with it.
        """
        spanning = self.spanning_words(u.content)
        row = []
        for m in spanning:
            acc = ZERO
            for w, c in u.terms.items():
                p = self.pair_words(w, m)
                if p:
                    acc = acc + c * p
            row.append(acc)
        return row

    def is_zero_vector(self, u):
        """Zero in the module iff (u, u) = 0.

        With Laurent coefficients u lies in the Z[v, v^-1]-form of L(Lambda),
        and the canonical basis is an almost-orthonormal Z[v, v^-1]-basis
        of that form: (b, b') lies in delta_{b b'} + v^-1 Z[[v^-1]]
        (Lusztig, Introduction to Quantum Groups (1993), ch. 19; Kashiwara,
        Duke Math. J. 63 (1991)).  If D is the largest degree among the
        coordinates of a nonzero u, then (u, u) has degree 2D and its
        leading coefficient is a sum of squares, so the form is anisotropic
        there.  The test pairs the words of u among themselves only: it
        builds no weight space and enumerates no words.  Other coefficients
        fall outside the argument and raise InternalCheckError.
        """
        if not u.terms:
            return True
        for c in u.terms.values():
            if not isinstance(c, LaurentPoly):
                raise InternalCheckError(
                    f"zero test needs Laurent coefficients, got {type(c).__name__}")
        return not self.form(u, u)

    def vectors_equal(self, u, w):
        if u.content != w.content:
            return self.is_zero_vector(u) and self.is_zero_vector(w)
        return self.is_zero_vector(u - w)

    # -- Weyl-Kac multiplicity oracle -----------------------------------------

    def _dot_orbit(self, lam, hmax):
        """{nu: (-1)^l(w)} over the w in W with w(lam + rho) - rho = lam - nu
        and height(nu) <= hmax.

        The walk starts at nu = 0.  A step at vertex i reflects
        lam + rho - nu in alpha_i; it goes down by
        (<lam - nu, alpha_i^vee> + 1) alpha_i when that number is positive,
        and it flips the sign.  lam + rho is regular dominant, so such a
        step lengthens w by one, and every w has a reduced word whose steps
        all go strictly down: the walk meets each orbit weight of height
        <= hmax, with the sign of its length.  Reads only the Cartan matrix.
        """
        cart = self.quiver.cartan
        n = len(lam)
        orbit = {(0,) * n: 1}
        frontier = [(0,) * n]
        while frontier:
            reached = []
            for nu in frontier:
                sign = -orbit[nu]
                room = hmax - cartan.height(nu)
                for i, row in enumerate(cart):
                    step = lam[i] - sum(c * x for c, x in zip(row, nu)) + 1
                    if not 0 < step <= room:
                        continue
                    low = nu[:i] + (nu[i] + step,) + nu[i + 1:]
                    seen = orbit.get(low)
                    if seen is None:
                        orbit[low] = sign
                        reached.append(low)
                    elif seen != sign:
                        raise InternalCheckError(
                            f"dot orbit of {lam} meets {low} with both signs")
            frontier = reached
        return orbit

    def freudenthal_multiplicity(self, nu):
        """Weight multiplicity of Lambda - sum nu_i alpha_i, independently of
        the Gram-rank computation.

        The method keeps the name of the Freudenthal recursion it replaced,
        because the ``dims`` column ``freudenthal`` and the
        ``hwmodule.freudenthal`` layer of ``perfbench`` read it by that
        name.  The value comes from the Weyl-Kac character formula with the
        denominator identity (Kac, Infinite-dimensional Lie algebras, 3rd
        ed. 1990, Thm 10.4 and (10.4.4)): ch L(Lambda) . N_0 = N_Lambda,
        with N_lam = sum_w (-1)^l(w) e^{w(lam + rho) - rho}.  N_0(0) = 1,
        so m(nu) = N_Lambda(nu) - sum_{beta != 0} N_0(beta) m(nu - beta),
        in integers.  It reads only the Cartan matrix and Lambda and shares
        no code with the module action or the Gram build.
        """
        nu = tuple(nu)
        if any(x < 0 for x in nu):
            return 0
        hit = self._weight_mult.get(nu)
        if hit is not None:
            return hit
        h = cartan.height(nu)
        if h > self._orbits[0]:
            origin = cartan.zero_vector(len(nu))
            zero = self._dot_orbit(origin, h)
            del zero[origin]
            self._orbits = (h, self._dot_orbit(self.hw.d, h), zero)
        _, top, zero = self._orbits
        # every mu <= nu, each after all contents below it (lexicographic)
        for mu in cartan.subvectors(nu):
            if mu in self._weight_mult:
                continue
            m = top.get(mu, 0)
            for beta, sign in zero.items():
                if cartan.weight_leq(beta, mu):
                    m -= sign * self._weight_mult[cartan.vec_sub(mu, beta)]
            if m < 0:
                raise InternalCheckError(f"negative weight multiplicity {m} at {mu}")
            self._weight_mult[mu] = m
        return self._weight_mult[nu]
