"""Exact arithmetic in Z[v, v^-1].

Everything downstream (forms, Gram matrices, basis transitions) is built on
``LaurentPoly``, a sparse Laurent polynomial with arbitrary-precision
integer coefficients, stored as a map exponent -> nonzero coefficient.

Sums of products accumulate in one exponent -> int map (``addmul``, then
``finish``) instead of a new polynomial per term.

A sum of products whose terms are long and many (the contravariant form)
runs on packed values instead (``pack``): Kronecker substitution, a
polynomial P evaluated at v = 2^B as one integer (Harvey, J. Symbolic
Comput. 44 (2009)), where a product is one integer product and a shift by
v^k is a shift by B k bits.  A packed value is a triple (n, lo, N):
n = P(2^B) 2^(-B lo) for an exponent lo at or below every exponent of P,
and N >= ||P||_1, the sum of the absolute coefficients.  Integer sums and
products of packed values are exact evaluations whatever the coefficients;
the bound is what makes them decodable.  A product of two values bounds its
l1 norm by the product of their bounds, so a sum of products adds the
products of the bounds.  While N < 2^(B-1), every coefficient of P lies in
[-2^(B-1), 2^(B-1)), so P is the unique expansion of n in balanced base-2^B
digits (``unpack``), and n = 0 exactly when P = 0.  ``pdivexact`` divides
one value by another and certifies the quotient as a polynomial quotient.
A value or quotient that would not decode at width B raises
``WidthError``; the caller widens B and recomputes, so a breach costs time,
never a wrong answer.

It is the package's one exact division.  ``LaurentPoly.divexact`` packs
both operands at a width fixed from them, W = max(64, bits(||P||_1
||d||_1) + deg Q + 2) with deg Q = span(P) - span(d), which the Mignotte
bound on the quotient makes wide enough for every check to pass when d
divides P; so it makes one ``pdivexact`` call and never widens, and a
``WidthError`` at W is a plain ``ExactDivisionError``.

The module also provides the quantum combinatorial numbers [n], [n]!,
Gaussian binomials, the bar involution v -> v^-1 and the symmetric
truncation used by the basis orthogonalization.  It is exact arithmetic
only: nothing here evaluates modulo a prime.  The one modular pass of the
package, the symmetric elimination that weight spaces are built on, lives
with its evaluation point in ``elimination``; only
``hwmodule.weight_space`` imports it, so a run that builds no weight space
does not load it.  The package has no fraction-free loop.
"""

from __future__ import annotations

import sys
from functools import lru_cache


class ExactDivisionError(ArithmeticError):
    """Division in Z[v,v^-1] left a remainder where none was expected."""


class WidthError(ExactDivisionError):
    """A packed value or quotient is not certified at its digit width; a
    wider packing decides it."""


class LaurentPoly:
    """Sparse element of Z[v, v^-1]; immutable by convention."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            c = {}
        elif isinstance(coeffs, int):
            c = {0: coeffs} if coeffs else {}
        else:
            c = {k: int(x) for k, x in coeffs.items() if x}
        self.c = c

    # -- constructors -------------------------------------------------

    @staticmethod
    def v_power(k):
        return LaurentPoly({k: 1})

    # -- basic structure ----------------------------------------------

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.c == other.c

    def degree(self):
        """Maximal exponent, or None for the zero polynomial."""
        return max(self.c) if self.c else None

    def coeff(self, k):
        return self.c.get(k, 0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly(other)
        out = dict(self.c)
        for k, x in other.c.items():
            s = out.get(k, 0) + x
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = {k: -x for k, x in self.c.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly(other)
        return self + (-other)

    def __rsub__(self, other):
        return LaurentPoly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return ZERO
            r = LaurentPoly.__new__(LaurentPoly)
            r.c = {k: x * other for k, x in self.c.items()}
            return r
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.c, other.c
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a monomial: shift and scale, no coefficient can cancel
            (k1, x1), = a.items()
            out = {k1 + k2: x1 * x2 for k2, x2 in b.items()}
        else:
            out = _schoolbook(a, b)
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = out
        return r

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by v^k."""
        if not self.c or k == 0:
            return self
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = {e + k: x for e, x in self.c.items()}
        return r

    def divexact(self, other):
        """Exact division in Z[v,v^-1]; raises ExactDivisionError otherwise.

        One ``pdivexact`` at a width fixed from the inputs: with deg Q =
        span(P) - span(d), W = max(64, bits(||P||_1 ||d||_1) + deg Q + 2).
        Any quotient Q has ||Q||_1 <= 2^deg Q ||P||_2 (Mignotte, Math.
        Comp. 28 (1974)), so at W every check of ``pdivexact`` passes when d
        divides P, and a ``WidthError`` there means that it does not."""
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.c:
            return ZERO
        a, b = self.c, other.c
        deg = max(a) - min(a) - max(b) + min(b)
        if deg < 0:
            raise ExactDivisionError(f"{self} not divisible by {other}")
        norms = sum(map(abs, a.values())) * sum(map(abs, b.values()))
        width = max(64, norms.bit_length() + deg + 2)
        try:
            q, lo, _ = pdivexact(pack(self, width), pack(other, width), width)
        except WidthError:
            raise ExactDivisionError(f"{self} not divisible by {other}") from None
        return unpack(q, lo, width)

    # -- involutions and specializations -------------------------------

    def bar(self):
        """The bar involution v -> v^-1."""
        return LaurentPoly({-k: x for k, x in self.c.items()})

    def is_bar_invariant(self):
        return all(self.c.get(-k, 0) == x for k, x in self.c.items())

    def at_one(self):
        """Specialize v = 1."""
        return sum(self.c.values())

    def in_vinv_span(self):
        """True when every exponent is strictly negative (p in v^-1 Z[v^-1])."""
        return all(k < 0 for k in self.c)

    def is_one_plus_lower(self):
        """True when p lies in 1 + v^-1 Z[v^-1]."""
        return self.c.get(0, 0) == 1 and all(k <= 0 for k in self.c)

    # -- I/O -----------------------------------------------------------

    def to_terms(self):
        """JSON form: list of [exponent, coefficient-as-decimal-string]."""
        return [[k, str(self.c[k])] for k in sorted(self.c)]

    def __repr__(self):
        return f"LaurentPoly({self.c!r})"

    def __str__(self):
        if not self.c:
            return "0"
        bits = []
        for k in sorted(self.c, reverse=True):
            x = self.c[k]
            sign = "-" if x < 0 else "+"
            ax = abs(x)
            if k == 0:
                body = str(ax)
            else:
                var = "v" if k == 1 else f"v^{k}"
                body = var if ax == 1 else f"{ax}*{var}"
            bits.append((sign, body))
        first_sign, first_body = bits[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in bits[1:]:
            out += f" {sign} {body}"
        return out


ZERO = LaurentPoly()
ONE = LaurentPoly(1)


# -- fused accumulation --------------------------------------------------


def addmul(out, a, b, k=1, shift=0):
    """Add k v^shift a b into ``out``, a fresh exponent -> int map that the
    caller owns; ``a`` and ``b`` are exponent -> coefficient maps (such as
    ``LaurentPoly.c``) and are only read.

    A sum of products accumulates in one map instead of a new polynomial
    per term.  The shorter operand drives the outer loop, so a monomial
    costs one pass over the other operand.  Entries of ``out`` may cancel
    to 0; ``finish`` drops them.
    """
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for e, x in a.items():
        e += shift
        x *= k
        for f, y in b.items():
            g = e + f
            out[g] = get(g, 0) + x * y


def finish(out):
    """The polynomial accumulated in ``out`` by ``addmul``: its nonzero
    entries, or the shared ZERO when every entry cancelled."""
    c = {e: x for e, x in out.items() if x}
    if not c:
        return ZERO
    r = LaurentPoly.__new__(LaurentPoly)
    r.c = c
    return r


# -- Kronecker packing (see the module docstring) --------------------------

PZERO = (0, 0, 0)
PONE = (1, 0, 1)
# memoryview formats of unsigned digits 8, 16, 32 and 64 bits wide
_DIGIT_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def pack(p, width):
    """The packed value (n, lo, ||p||_1) of p at v = 2^width, lo the least
    exponent of p."""
    c = p.c
    if len(c) == 1:
        (lo, x), = c.items()
        return x, lo, abs(x)
    if not c:
        return PZERO
    lo = min(c)
    n = bound = 0
    for k, x in c.items():
        n += x << width * (k - lo)
        bound += abs(x)
    return n, lo, bound


def pdot(pairs, width):
    """sum a b over the pairs (a, b) of packed values, packed.

    Each product is one integer product; a term whose offset lies below
    the running sum's shifts the sum up instead.  Raises WidthError when
    the bound reaches 2^(width-1), so every value returned decodes."""
    acc = lo = bound = 0
    for (an, alo, abound), (bn, blo, bbound) in pairs:
        if an and bn:
            e = alo + blo
            t = an * bn
            if not acc:
                acc, lo = t, e
            elif e >= lo:
                acc += t << width * (e - lo)
            else:
                acc, lo = (acc << width * (lo - e)) + t, e
            bound += abound * bbound
    if bound >> width - 1:
        raise WidthError(f"bound {bound} at width {width}")
    return (acc, lo, bound) if acc else PZERO


@lru_cache(maxsize=None)
def _halves(width, k):
    """The integer whose k base-2^width digits are all 2^(width-1)."""
    return ((1 << width * k) - 1) // ((1 << width) - 1) << width - 1


def _digits(n, width):
    """The balanced base-2^width digits of n, each in [-2^(width-1),
    2^(width-1)), least significant first.

    Adding 2^(width-1) to every digit (``_halves``) makes them the plain
    base-2^width digits of a non-negative integer; at a width of 8, 16, 32
    or 64 bits its bytes hold them.  k digits suffice: a top nonzero digit
    at place t leaves |n| > 2^(width t - 2), so n has width t - 1 bits or
    more."""
    half = 1 << width - 1
    if -half <= n < half:
        return [n]
    k = (n.bit_length() + 1) // width + 1
    m = n + _halves(width, k)
    fmt = _DIGIT_FORMATS.get(width)
    if fmt:
        digits = memoryview(m.to_bytes(k * width >> 3, sys.byteorder)).cast(fmt)
    else:
        mask = (1 << width) - 1
        digits = (m >> width * i & mask for i in range(k))
    return [x - half for x in digits]


def unpack(n, lo, width):
    """The polynomial of the packed value (n, lo, N); exact when N is below
    2^(width-1)."""
    if not n:
        return ZERO
    r = LaurentPoly.__new__(LaurentPoly)
    r.c = {e: x for e, x in enumerate(_digits(n, width), lo) if x}
    return r


def pdivexact(x, d, width):
    """The quotient Q = P / d of the packed values x = (n, lo, N) of P and
    d, packed with the bound ||Q||_1; N must bound every coefficient of P,
    and d's bound must be ||d||_1.

    Three checks certify Q: the integer division leaves no remainder; the
    quotient decodes to Q (``_digits``); and ||d||_1 max|Q| < 2^(width-1).
    The last bounds every coefficient of d Q below 2^(width-1), so d Q and
    P are both the balanced expansion of n, and d Q = P as polynomials.
    The integer test alone is weaker: at width 4, 7 - 2v^2 + v^3 + 7v^4 is
    divisible by 1 + v^2 at v = 16 but not as a polynomial.

    A remainder means that d does not divide P, since a polynomial quotient
    divides the integers too (ExactDivisionError).  A failed last check,
    N at or above 2^(width-1), or ||Q||_1 as large, leaves the quotient open
    at this width (WidthError).  When d is monic, as [n] is, a quotient
    that is not a polynomial leaves a remainder at every large enough
    width, so widening ends."""
    n, lo, bound = x
    dn, dlo, dbound = d
    if bound >> width - 1:
        raise WidthError(f"dividend bound {bound} at width {width}")
    q, r = divmod(n, dn)
    if r:
        raise ExactDivisionError(f"{unpack(n, lo, width)} not divisible by "
                                 f"{unpack(dn, dlo, width)}")
    digits = _digits(q, width)
    bound = sum(map(abs, digits))
    if dbound * max(map(abs, digits)) >> width - 1 or bound >> width - 1:
        raise WidthError(f"quotient not certified at width {width}")
    return q, lo - dlo, bound


@lru_cache(maxsize=None)
def pqint(n, width):
    """[n] packed at ``width``.  Cached like ``qint``."""
    return pack(qint(n), width)


def _schoolbook(a, b):
    """Product of two exponent -> coefficient maps, term by term."""
    out = {}
    for k1, x1 in a.items():
        for k2, x2 in b.items():
            k = k1 + k2
            s = out.get(k, 0) + x1 * x2
            if s:
                out[k] = s
            else:
                del out[k]
    return out


# -- symmetric truncation ------------------------------------------------


def sym_truncate(p):
    """The unique bar-invariant q whose part in degrees >= 0 matches p.

    Concretely q = c_0 + sum_{k>0} c_k (v^k + v^-k) where c_k are the
    coefficients of p in degrees k >= 0.
    """
    out = {}
    for k, x in p.c.items():
        if k == 0:
            out[0] = out.get(0, 0) + x
        elif k > 0:
            out[k] = x
            out[-k] = out.get(-k, 0) + x
    return LaurentPoly(out)


# -- quantum combinatorial numbers ---------------------------------------


@lru_cache(maxsize=None)
def qint(n):
    """[n] = (v^n - v^-n)/(v - v^-1); [-n] = -[n].  Cached: callers share
    the returned value and never mutate it."""
    if n == 0:
        return ZERO
    if n < 0:
        return -qint(-n)
    return LaurentPoly({n - 1 - 2 * m: 1 for m in range(n)})


@lru_cache(maxsize=None)
def qfact(n):
    """[n]! for n >= 0.  Cached like ``qint``."""
    if n < 0:
        raise ValueError("quantum factorial of a negative integer")
    out = ONE
    for m in range(2, n + 1):
        out = out * qint(m)
    return out


@lru_cache(maxsize=None)
def qbinom(n, k):
    """Gaussian binomial [n choose k] for k >= 0 and any integer n.  Cached
    like ``qint``."""
    if k < 0:
        raise ValueError("qbinom needs k >= 0")
    out = ONE
    for s in range(1, k + 1):
        out = (out * qint(n - s + 1)).divexact(qint(s))
        if not out:
            return ZERO
    return out
