"""The integrable highest weight module realized on divided-power words.

A ``ModuleVector`` is a content-homogeneous combination of words applied to
the highest weight vector.  ``HighestWeightModule`` carries the operator
actions E_i, F_i^(n), K_i^{+-}, the contravariant bilinear form normalized
by (v_L, v_L) = 1 with F_i adjoint to v K_i^-1 E_i, weight-space models
(spanning monomials, Gram matrix, and one fraction-free symmetric
elimination of it that yields the basis, the rank and the factor every
word's coordinates are solved from), and an independent Freudenthal
multiplicity oracle driven by Peterson's root-multiplicity recursion.

Everything is exact; a non-polynomial value surfacing anywhere in the form
computation raises ExactDivisionError and means a genuine bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .qarith import (LaurentPoly, ZERO, ONE, RatFunc, RF_ZERO, PivotBreakdown,
                     qint, qfact, lp_sym_echelon, lp_sym_solve)
from .uminus import EMPTY_WORD, concat_words, word_content
from . import cartan


class ResourceCapError(RuntimeError):
    """A configured size cap was exceeded; reported, never silent."""


class InternalCheckError(AssertionError):
    """An exact-arithmetic self-check failed; escalate, do not fall back."""


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

    ``factor`` is the upper triangle of the fraction-free symmetric
    elimination of the Gram matrix, restricted to the basis columns (see
    ``qarith.lp_sym_echelon``); word coordinates are solved from it.
    """

    content: tuple
    spanning: list
    gram: list
    basis_index: list
    rank: int
    factor: list
    _word_coords: dict = field(default_factory=dict, repr=False)


class HighestWeightModule:
    """Exact model of L(Lambda) for one quiver and dominant weight."""

    def __init__(self, quiver, hw, spanning_cap=200000):
        self.quiver = quiver
        self.hw = hw
        self.spanning_cap = spanning_cap
        self._e_cache = {}
        self._pair = {}
        self._spanning = {}
        self._spaces = {}
        self._peterson_c = {}
        self._root_mult = {}
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
        higher multiplicities first."""
        nu = tuple(nu)
        hit = self._spanning.get(nu)
        if hit is not None:
            return hit
        n = self.quiver.n
        out = []
        cap = self.spanning_cap

        def rec(prefix, remaining, last):
            if not any(remaining):
                out.append(tuple(prefix))
                if len(out) > cap:
                    raise ResourceCapError(
                        f"spanning enumeration at {nu} exceeds cap {cap}")
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
        spanning = self.spanning_words(nu)
        gram = self._gram(spanning)
        try:
            sel, factor = lp_sym_echelon(gram)
        except PivotBreakdown as exc:
            # the form is anisotropic on the module, so a vanishing
            # self-pairing must force the whole pairing row to vanish
            raise InternalCheckError(
                f"isotropic nonzero row in Gram matrix at {nu}; form degeneracy") from exc
        model = WeightSpaceModel(nu, spanning, gram, sel, len(sel), factor)
        self._spaces[nu] = model
        return model

    # -- membership, coordinates ------------------------------------------

    def pairing_row(self, u):
        """Pairings of u against every spanning monomial of its content."""
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
        """Zero in the module: the form is nondegenerate on each weight
        space, so vanishing against the whole spanning set is equivalent."""
        if not u.terms:
            return True
        return not any(self.pairing_row(u))

    def vectors_equal(self, u, w):
        if u.content != w.content:
            return self.is_zero_vector(u) and self.is_zero_vector(w)
        return self.is_zero_vector(u - w)

    def word_coordinates(self, nu, word):
        """Coordinates of one word against the weight-space basis."""
        space = self.weight_space(nu)
        hit = space._word_coords.get(word)
        if hit is not None:
            return hit
        if space.rank == 0:
            coords = ()
        else:
            rhs = [self.pair_words(word, space.spanning[t]) for t in space.basis_index]
            sol = lp_sym_solve(space.factor, rhs)
            if sol is None:
                raise InternalCheckError("basis Gram matrix is singular")
            coords = tuple(sol)
        space._word_coords[word] = coords
        return coords

    def coordinates(self, u, nu=None):
        """Coordinates of u in its weight-space basis; empty tuple at rank 0.

        Two vectors are equal in the module iff their coordinates agree.
        """
        nu = u.content if nu is None else tuple(nu)
        space = self.weight_space(nu)
        if space.rank == 0:
            return ()
        out = [RF_ZERO] * space.rank
        for w, c in u.terms.items():
            wc = self.word_coordinates(nu, w)
            cf = RatFunc.from_laurent(c)
            for t in range(space.rank):
                if wc[t]:
                    out[t] = out[t] + cf * wc[t]
        return tuple(out)

    # -- Freudenthal / Peterson oracle --------------------------------------

    def _peterson(self, beta):
        """Peterson's c_beta = sum_{k | beta} mult(beta/k)/k, memoized."""
        hit = self._peterson_c.get(beta)
        if hit is not None:
            return hit
        n = self.quiver.n
        ht = cartan.height(beta)
        if ht == 1:
            self._peterson_c[beta] = Fraction(1)
            self._root_mult[beta] = 1
            return Fraction(1)
        total = Fraction(0)
        for gamma in _proper_subvectors(beta):
            rest = tuple(b - g for b, g in zip(beta, gamma))
            pairing = self.quiver.sym_form(gamma, rest)
            if pairing:
                total += pairing * self._peterson(gamma) * self._peterson(rest)
        divisor_part = Fraction(0)
        for k in range(2, ht + 1):
            if all(x % k == 0 for x in beta):
                divisor_part += Fraction(self._mult(tuple(x // k for x in beta)), k)
        denom = self.quiver.sym_form(beta, beta) - 2 * ht
        if denom == 0:
            # (beta, beta - 2 rho) = 0 rules out real and imaginary roots,
            # so mult(beta) = 0 and c_beta carries only divisor contributions
            if total != 0:
                raise InternalCheckError(f"Peterson recursion degenerate at {beta}")
            mult = Fraction(0)
            c = divisor_part
        else:
            c = total / denom
            mult = c - divisor_part
        if mult.denominator != 1 or mult < 0:
            raise InternalCheckError(f"non-integral root multiplicity at {beta}: {mult}")
        self._peterson_c[beta] = c
        self._root_mult[beta] = int(mult)
        return c

    def _mult(self, beta):
        self._peterson(beta)
        return self._root_mult[beta]

    def positive_roots(self, hmax):
        """dict content -> multiplicity, over heights 1..hmax."""
        out = {}
        for h in range(1, hmax + 1):
            for beta in cartan.contents_of_height(self.quiver.n, h):
                m = self._mult(beta)
                if m:
                    out[beta] = m
        return out

    def freudenthal_multiplicity(self, nu):
        """Weight multiplicity of Lambda - sum nu_i alpha_i, independently of
        the Gram-rank computation (classical Freudenthal recursion)."""
        nu = tuple(nu)
        if any(x < 0 for x in nu):
            return 0
        if cartan.height(nu) == 0:
            return 1
        hit = self._weight_mult.get(nu)
        if hit is not None:
            return hit
        q = self.quiver
        d = self.hw.d
        roots = self.positive_roots(cartan.height(nu))
        total = Fraction(0)
        for alpha, mult in roots.items():
            k = 1
            while True:
                rest = tuple(x - k * a for x, a in zip(nu, alpha))
                if any(x < 0 for x in rest):
                    break
                m = self.freudenthal_multiplicity(rest)
                if m:
                    # (Lambda - nu + k*alpha, alpha)
                    val = (sum(d[i] * alpha[i] for i in range(q.n))
                           - q.sym_form(nu, alpha) + k * q.sym_form(alpha, alpha))
                    total += mult * m * val
                k += 1
        denom = (2 * sum(d[i] * nu[i] for i in range(q.n))
                 + 2 * cartan.height(nu) - q.sym_form(nu, nu))
        if denom == 0:
            if total != 0:
                raise InternalCheckError(f"Freudenthal recursion degenerate at {nu}")
            result = 0
        else:
            val = 2 * total / denom
            if val.denominator != 1 or val < 0:
                raise InternalCheckError(f"non-integral weight multiplicity at {nu}")
            result = int(val)
        self._weight_mult[nu] = result
        return result


def weight_space_report(module, nu):
    """JSON-ready report of one weight-space model."""
    from .uminus import word_str
    space = module.weight_space(nu)
    q = module.quiver
    return {
        "content": cartan.content_to_dict(q, nu),
        "spanning_count": len(space.spanning),
        "rank": space.rank,
        "basis": [word_str(space.spanning[t], q) for t in space.basis_index],
        "gram": [[entry.to_terms() for entry in row] for row in space.gram],
    }


def _proper_subvectors(beta):
    """All 0 < gamma < beta in the componentwise order."""
    n = len(beta)

    def rec(pos, acc):
        if pos == n:
            g = tuple(acc)
            if any(g) and g != beta:
                yield g
            return
        for x in range(beta[pos] + 1):
            yield from rec(pos + 1, acc + [x])

    yield from rec(0, [])
