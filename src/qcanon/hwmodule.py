"""The integrable highest weight module realized on divided-power words.

A vector is a ``uminus.UMinusElement`` x standing for x applied to the
highest weight vector: the module is a quotient of U^-, and F_i^(n) acts
by the U^- product ``uminus.mono_mul``.  Vectors equal in the module may
differ as combinations of words; ``is_zero_vector`` and ``vectors_equal``
compare them in the module.  ``HighestWeightModule`` carries the operator
actions E_i, F_i^(n), K_i^{+-}, the contravariant bilinear form normalized
by (v_L, v_L) = 1 with F_i adjoint to v K_i^-1 E_i, weight-space models
(a candidate spanning set, its Gram matrix, and one symmetric elimination
of it that yields the basis and the rank: each pivot certified modulo a
prime, each rejected word by an exact kernel relation among the words kept
before it, and InternalCheckError when either is missing), and an
independent weight-multiplicity oracle: the Weyl-Kac character formula
divided by the denominator identity, which needs only the signed dot orbit
of the Weyl group, in integers.

The module is generated from v_L by the F_i, so
L_nu = sum_i F_i L_{nu - alpha_i} for any basis of the lower weight spaces,
and the candidates F_i b, b a basis word of nu - alpha_i, span L_nu; their
number grows with the module, not with the number of normalized words.

Vector coordinates are read against the canonical basis
(``canonical.CanonicalBasis.expand``), not against these monomial bases.
``is_zero_vector`` tests (u, u) = 0: the form is anisotropic on the
Z[v, v^-1]-form of the module, so the self-pairing of a vector with Laurent
coefficients vanishes only when the vector does.  ``self_pairing`` pairs
the words of u among themselves, each unordered pair once; it builds no
weight space and enumerates no words, which is why ``verify`` uses the
test above the height bound.

Everything is exact; a non-polynomial value surfacing anywhere in the form
computation raises ExactDivisionError and means a genuine bug.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from operator import add, sub

from .qarith import (LaurentPoly, ZERO, ONE, PivotBreakdown, UncertifiedRow, addmul, finish,
                     qint, qfact, lp_sym_echelon)
from .uminus import EMPTY_WORD, UMinusElement, concat_words, mono_mul, word_content
from . import cartan


class ResourceCapError(RuntimeError):
    """A configured size cap was exceeded; reported, never silent."""


class InternalCheckError(AssertionError):
    """An exact-arithmetic self-check failed; escalate, do not fall back."""


# Most contents of height <= max height a run may enumerate.
CONTENT_CAP = 100_000
# Most normalized words ``spanning_words`` may enumerate, and the id walks
# of ``canonical`` may reach, at one content.
SPANNING_CAP = 200_000
# Most Gram entries (candidates squared) ``weight_space`` may build at one
# content; 3-Kronecker (1,0) reaches 17 ** 2 at (4,4), the most of any
# benchmark datum.
GRAM_CAP = 250_000


def check_content_count(n, hmax):
    """Raise ResourceCapError when n vertices have more than CONTENT_CAP
    contents of height <= hmax (there are C(hmax + n, n) of them)."""
    count = math.comb(hmax + n, n)
    if count > CONTENT_CAP:
        raise ResourceCapError(
            f"{count} contents up to height {hmax} exceed cap {CONTENT_CAP}")


class DotOrbit:
    """The signed dot orbit {nu: (-1)^l(w)} of lam over the w in W with
    w(lam + rho) - rho = lam - nu, grown height by height (``signs``).

    A step at vertex i reflects lam + rho - nu in alpha_i; it goes down by
    (<lam - nu, alpha_i^vee> + 1) alpha_i when that number is positive, and
    it flips the sign.  lam + rho is regular dominant, so such a step
    lengthens w by one, and every w has a reduced word whose steps all go
    strictly down: the steps from nu = 0 meet each orbit weight with the
    sign of its length.  Steps wait in a heap by the height they reach, so
    ``grow`` takes each step once over all heights.  Reads only the Cartan
    matrix.
    """

    def __init__(self, cart, lam):
        self.cart = cart
        self.lam = lam
        origin = (0,) * len(lam)
        self.signs = {origin: 1}
        self._steps = []  # heap of (height, nu, sign) not yet taken
        self._step_from(origin, 0)

    def _step_from(self, nu, h):
        sign = -self.signs[nu]
        for i, row in enumerate(self.cart):
            step = self.lam[i] - sum(c * x for c, x in zip(row, nu)) + 1
            if step > 0:
                low = nu[:i] + (nu[i] + step,) + nu[i + 1:]
                heappush(self._steps, (h + step, low, sign))

    def grow(self, hmax):
        """Reach every orbit weight of height <= hmax; the ones new since the
        last call, as (height, nu, sign) in increasing order."""
        new = []
        steps = self._steps
        while steps and steps[0][0] <= hmax:
            h, low, sign = heappop(steps)
            seen = self.signs.get(low)
            if seen is None:
                self.signs[low] = sign
                new.append((h, low, sign))
                self._step_from(low, h)
            elif seen != sign:
                raise InternalCheckError(
                    f"dot orbit of {self.lam} meets {low} with both signs")
        return new


class WeightSpaceModel:
    """Selected monomial model of one weight space.

    ``spanning`` is the candidate spanning set (F_i applied to the basis
    words of each nu - alpha_i, shortest words first; see the module
    docstring) and ``basis`` the words the greedy prefix of its Gram matrix
    keeps (the pivots of ``qarith.lp_sym_echelon``).
    """

    def __init__(self, content, spanning, basis, rank):
        self.content = content
        self.spanning = spanning
        self.basis = basis
        self.rank = rank


class HighestWeightModule:
    """Exact model of L(Lambda) for one quiver and dominant weight."""

    def __init__(self, quiver, hw):
        self.quiver = quiver
        self.hw = hw
        self._e_cache = {}
        self._pair = {}
        self._coweights = {}  # content -> <wt, a_j^vee> over every j
        self._spanning = {}
        self._spaces = {}
        self._top = DotOrbit(quiver.cartan, hw.d)  # N_Lambda
        self._zero = DotOrbit(quiver.cartan, (0,) * quiver.n)  # N_0
        self._zero_tall = []  # N_0 less its 0 term, as (height, beta, sign)
        self._weight_mult = {}

    # -- vectors --------------------------------------------------------

    def vacuum(self):
        return UMinusElement.unit(self.quiver)

    def monomial_vector(self, word, coeff=ONE):
        return UMinusElement.monomial(self.quiver, word, coeff)

    def coroot_pairing(self, nu, i):
        return cartan.coroot_pairing(self.quiver, self.hw, nu, i)

    # -- operators ------------------------------------------------------

    def apply_F(self, i, n, u):
        """Left multiplication by F_i^(n): the U^- product with that monomial."""
        if n < 1:
            raise ValueError("divided power exponent must be >= 1")
        return mono_mul(self.monomial_vector(((i, n),)), u)

    def _e_word(self, i, w, p=None):
        """E_i(w . v_L) as a word -> coefficient map one step down; ``p`` is
        <wt(w), a_i^vee>, read off w when not passed down."""
        if not w:
            return {}
        key = (i, w)
        hit = self._e_cache.get(key)
        if hit is not None:
            return hit
        if p is None:
            p = self.coroot_pairing(word_content(w, self.quiver.n), i)
        (j, a), rest = w[0], w[1:]
        # wt(w') = wt(w) + a alpha_j for w = F_j^(a) w'
        p += a * self.quiver.cartan[i][j]
        out = {}
        for y, c in self._e_word(i, rest, p).items():
            yw, scal = concat_words(((j, a),), y)
            addmul(out.setdefault(yw, {}), c.c, scal.c)
        if j == i:
            # E_i F_i^(a) w' = F_i^(a) E_i w' + [<wt(w'), a_i^vee> + 1 - a] F_i^(a-1) w'
            coeff = qint(p + 1 - a)
            if coeff:
                yw = ((i, a - 1),) + rest if a > 1 else rest
                addmul(out.setdefault(yw, {}), coeff.c, ONE.c)
        out = {y: c for y, acc in out.items() if (c := finish(acc))}
        self._e_cache[key] = out
        return out

    def apply_E(self, i, u):
        top = u.content[i]
        if top == 0:
            return UMinusElement(u.content)
        content = u.content[:i] + (top - 1,) + u.content[i + 1:]
        out = {}
        for w, c in u.terms.items():
            for y, cy in self._e_word(i, w).items():
                addmul(out.setdefault(y, {}), c.c, cy.c)
        return UMinusElement(content, {y: finish(acc) for y, acc in out.items()})

    def e_chain(self, i, u, top):
        """[E_i^(r) u for r = 0, ..., top]: each entry is one ``apply_E`` on
        the entry before, divided by [r], since E_i^(r) = E_i E_i^(r-1) / [r];
        exact by construction on the module."""
        chain = [u]
        for r in range(1, top + 1):
            out = self.apply_E(i, chain[-1])
            if r > 1 and out.terms:
                d = qint(r)
                out = out.map_coeffs(lambda c: c.divexact(d))
            chain.append(out)
        return chain

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

    def pair_words(self, w1, w2, wt=None):
        """(w1 . v_L, w2 . v_L), peeling the leftmost divided power of w1;
        ``wt`` is <wt(w2), a_j^vee> over every j, read off w2 when not
        passed down.

        Recursion: (F_i^(n) x, y) = v/[n] (F_i^(n-1) x, K_i^- E_i y).
        The sum over the words y of E_i y, each pairing times its
        coefficient, accumulates in one exponent map (``qarith.addmul``).
        The v^(1 - <wt y, a_i^vee>) of K_i^- is the same for every y: wt y
        is wt w2 + alpha_i and <alpha_i, alpha_i^vee> = 2, so it is
        v^(-1 - <wt w2, a_i^vee>), computed once and passed to each
        ``addmul`` as its shift.  Every recursion node is itself a form
        value, so the division by [n] is asserted exact at each step.  A
        vanishing pairing is memoized as the shared ZERO.
        """
        if not w1:
            return ONE if not w2 else ZERO
        key = (w1, w2)
        hit = self._pair.get(key)
        if hit is not None:
            return hit
        (i, n), x = w1[0], w1[1:]
        x1 = ((i, n - 1),) + x if n > 1 else x
        if wt is None:
            nu = word_content(w2, self.quiver.n)
            wt = self._coweights.get(nu)
            if wt is None:
                wt = self._coweights[nu] = tuple(
                    self.coroot_pairing(nu, j) for j in range(len(nu)))
        shift = -1 - wt[i]
        wt_y = tuple(map(add, wt, self.quiver.cartan[i]))  # wt y = wt w2 + alpha_i
        out = {}
        for y, c in self._e_word(i, w2, wt[i]).items():
            sub = self.pair_words(x1, y, wt_y)
            if sub:
                addmul(out, c.c, sub.c, shift=shift)
        acc = finish(out)
        if acc and n > 1:
            acc = acc.divexact(qint(n))
        self._pair[key] = acc
        return acc

    def form(self, u, w):
        """The contravariant form, zero across distinct contents."""
        if u.content != w.content:
            return ZERO
        out = {}
        for w1, c1 in u.terms.items():
            row = {}
            for w2, c2 in w.terms.items():
                p = self.pair_words(w1, w2)
                if p:
                    addmul(row, c2.c, p.c)
            addmul(out, c1.c, row)
        return finish(out)

    def self_pairing(self, u):
        """(u, u), pairing each unordered pair of words of u once.

        The form is symmetric, so an off-diagonal pair counts twice; the
        Gram build checks that symmetry on every weight space it builds.
        Word s contributes c_s (c_s (w_s, w_s) + 2 sum_{t > s} c_t (w_s, w_t)),
        summed in one exponent map per row.
        """
        items = list(u.terms.items())
        out = {}
        for s, (w1, c1) in enumerate(items):
            row = {}
            p = self.pair_words(w1, w1)
            if p:
                addmul(row, c1.c, p.c)
            for w2, c2 in items[s + 1:]:
                p = self.pair_words(w1, w2)
                if p:
                    addmul(row, c2.c, p.c, 2)
            addmul(out, c1.c, row)
        return finish(out)

    # -- weight spaces ----------------------------------------------------

    def spanning_words(self, nu):
        """All normalized words of content nu; vertex order lexicographic,
        higher multiplicities first.

        The weight-space build does not read this list, and neither does
        ``dims``, which counts the words with ``uminus.count_words``, nor do
        ``basis`` and ``graph``, whose element ids walk the words lazily
        (``canonical.CanonicalBasis._id_sorted``).  It serves the word
        samples of the low-height ``verify`` suites.
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
        """F_i applied to the basis words of every nu - alpha_i, shortest
        words first, then in ``spanning_words`` order; [()] at nu = 0.

        The order picks which candidates the elimination keeps; short words
        first keep its kernel relations narrow, so their search is short."""
        if not any(nu):
            return [EMPTY_WORD]
        out = []
        for i, top in enumerate(nu):
            if top:
                low = nu[:i] + (top - 1,) + nu[i + 1:]
                out.extend(concat_words(((i, 1),), b)[0] for b in self.weight_space(low).basis)
        out.sort(key=lambda w: (len(w), [(i, -a) for i, a in w]))
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
        if len(spanning) ** 2 > GRAM_CAP:
            raise ResourceCapError(
                f"Gram matrix at {nu} has {len(spanning) ** 2} entries, "
                f"exceeding cap {GRAM_CAP}")
        gram = self._gram(spanning)
        try:
            sel = lp_sym_echelon(gram)
        except PivotBreakdown as exc:
            # the form is anisotropic on the module, so a vanishing
            # self-pairing must force the whole pairing row to vanish; a
            # diagonal that vanishes only at the evaluation point lands here too
            raise InternalCheckError(
                f"isotropic nonzero row in Gram matrix at {nu}: form degeneracy "
                f"or an unlucky evaluation point") from exc
        except UncertifiedRow as exc:
            raise InternalCheckError(f"Gram matrix at {nu}: {exc}") from exc
        model = WeightSpaceModel(nu, spanning, [spanning[s] for s in sel], len(sel))
        self._spaces[nu] = model
        return model

    # -- the zero test ----------------------------------------------------

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
        return not self.self_pairing(u)

    def vectors_equal(self, u, w):
        if u.content != w.content:
            return self.is_zero_vector(u) and self.is_zero_vector(w)
        return self.is_zero_vector(u - w)

    # -- Weyl-Kac multiplicity oracle -----------------------------------------

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

        Each content's entry is filled once, after every content below it.
        Both orbits grow once per module (``DotOrbit``), as far as the
        tallest nu asked for; the weights beta of N_0 are kept sorted by
        height, so the sum stops at the first one taller than nu and looks
        m(nu - beta) up directly.
        """
        nu = tuple(nu)
        if any(x < 0 for x in nu):
            return 0
        table = self._weight_mult
        hit = table.get(nu)
        if hit is not None:
            return hit
        h = cartan.height(nu)
        self._top.grow(h)
        self._zero_tall.extend(self._zero.grow(h))
        top, zero = self._top.signs, self._zero_tall
        # the table is a down-set, so nu is its only missing content when
        # every nu - alpha_i is in it; else fill every missing mu <= nu, each
        # after all contents below it (lexicographic)
        below = (nu[:i] + (x - 1,) + nu[i + 1:] for i, x in enumerate(nu) if x)
        if all(b in table for b in below):
            todo = [nu]
        else:
            todo = [mu for mu in cartan.subvectors(nu) if mu not in table]
        for mu in todo:
            hmu = cartan.height(mu)
            m = top.get(mu, 0)
            for hbeta, beta, sign in zero:
                if hbeta > hmu:
                    break
                # mu - beta is in the table exactly when it has no negative entry
                low = table.get(tuple(map(sub, mu, beta)))
                if low:
                    m -= sign * low
            if m < 0:
                raise InternalCheckError(f"negative weight multiplicity {m} at {mu}")
            table[mu] = m
        return table[nu]
