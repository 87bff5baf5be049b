"""Exact arithmetic in Z[v, v^-1].

Everything downstream (forms, Gram matrices, basis transitions) is built on
``LaurentPoly``, a sparse Laurent polynomial with arbitrary-precision
integer coefficients, stored as a map exponent -> nonzero coefficient.

Sums of products accumulate in one exponent -> int map (``addmul``, then
``finish``) instead of a new polynomial per term.

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

from functools import lru_cache


class ExactDivisionError(ArithmeticError):
    """Division in Z[v,v^-1] left a remainder where none was expected."""


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
    def v_power(k, coeff=1):
        return LaurentPoly({k: coeff})

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

    def low(self):
        """Minimal exponent, or None for the zero polynomial."""
        return min(self.c) if self.c else None

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
        """Exact division in Z[v,v^-1]; raises ExactDivisionError otherwise."""
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.c:
            return ZERO
        sh = self.low() - other.low()
        num = _to_dense(self)
        den = _to_dense(other)
        quo, rem = _dense_divmod(num, den)
        if quo is None or any(rem):
            raise ExactDivisionError(f"{self} not divisible by {other}")
        out = {i + sh: x for i, x in enumerate(quo) if x}
        return LaurentPoly(out)

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


# -- dense helpers for division (exponents shifted to >= 0) -------------


def _to_dense(p):
    lo, hi = p.low(), p.degree()
    out = [0] * (hi - lo + 1)
    for k, x in p.c.items():
        out[k - lo] = x
    return out


def _dense_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _dense_divmod(num, den):
    """Long division in Z[v]; returns (quotient, remainder) or (None, num)
    when an integer coefficient division fails (so num is not divisible)."""
    num = list(num)
    den = _dense_trim(list(den))
    dn = len(den) - 1
    lead = den[-1]
    quo = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            return None, num
        quo[i - dn] = q
        for j, d in enumerate(den):
            num[i - dn + j] -= q * d
    return quo, _dense_trim(num)


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
