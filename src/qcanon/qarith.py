"""Exact arithmetic in Z[v, v^-1].

Everything downstream (forms, Gram matrices, basis transitions) is built on
``LaurentPoly``, a sparse Laurent polynomial with arbitrary-precision
integer coefficients, stored as a map exponent -> nonzero coefficient.

Sums of products accumulate in one exponent -> int map (``addmul``, then
``finish``) instead of a new polynomial per term.

The module also provides the quantum combinatorial numbers [n], [n]!,
Gaussian binomials, the bar involution v -> v^-1, the symmetric truncation
used by the basis orthogonalization, and elimination at one fixed point of
F_p, p = 2^61 - 1: the symmetric elimination with diagonal pivots that
weight spaces are built on, and ``rank_mod_p``, a certified lower bound of
a rank, against which the canonical-basis image supports and the path
monomial bases are checked.  The package has no fraction-free loop.

The symmetric elimination is one pass at that point plus exact
certificates.  A residual diagonal that is nonzero at that point is
nonzero in Z[v, v^-1], so pivots need no Laurent arithmetic.  A row whose
residual vanishes there is rejected only under an exact kernel relation: a
combination of it and the earlier pivots with Laurent coefficients of span
at most a Cramer bound, found modulo p, lifted to integers and checked to
vanish in every column.  Anything else is refused, never retried:
PivotBreakdown when the diagonal vanishes at the point over a row that no
relation can reject (a true breakdown or an unlucky point), and
UncertifiedRow when a row that vanishes there has no checked relation.
"""

from __future__ import annotations

import math
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

    def eval_mod(self, a, p):
        """Evaluate at v = a over the prime field F_p (a invertible mod p),
        term by term from a table of the powers of a shared by every call
        at the same point."""
        powers = _POWERS.setdefault((a, p), {})
        total = 0
        for k, x in self.c.items():
            w = powers.get(k)
            if w is None:
                w = powers[k] = pow(a, k, p)
            total += x * w
        return total % p

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
# (a, p) -> {k: a^k mod p}, the powers ``eval_mod`` has met so far
_POWERS = {}


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


# -- elimination ---------------------------------------------------------


class PivotBreakdown(ArithmeticError):
    """Diagonal pivoting met a residual diagonal that is 0 at the evaluation
    point over a row it cannot reject: a true breakdown or an unlucky point,
    not told apart."""


class UncertifiedRow(ArithmeticError):
    """A row whose residual vanishes at the evaluation point has no kernel
    relation that passes the exact check."""


# The evaluation point of both modular passes: v = EVAL_POINT in F_EVAL_PRIME.
EVAL_PRIME = (1 << 61) - 1
EVAL_POINT = 1234567
# Numerator and denominator bound of a lifted residue; a wrong lift only
# fails the exact check.
_LIFT_BOUND = 1 << 20


def lp_sym_echelon(rows):
    """The pivots of a symmetric LaurentPoly matrix with diagonal pivots
    taken in row order: the greedy prefix of independent rows.

    Read off one modular pass plus exact certificates.  The pass runs the
    pivots on the matrix evaluated at v = EVAL_POINT over F_EVAL_PRIME,
    carrying beside each row its multipliers on the original rows (an
    identity block).  Evaluation is a ring map Z[v, v^-1] -> F_p, so while
    the pivots so far are exact, the modular residual diagonal of row s is
    its exact residual (a bordered minor over the minor of the pivots)
    evaluated.  Each row has one of four outcomes:

    - pivot: the residual diagonal is nonzero mod p, so it is nonzero in
      Z[v, v^-1];
    - rejected: the whole residual row is 0 mod p, and a relation
      sum_k c_k rows[k] = 0 with Laurent c over the earlier pivots and s,
      c_s != 0, passes an exact check in every column, so row s lies in the
      span of the pivots.  The search tries span 0 (integer coefficients,
      lifted from the multipliers by rational reconstruction) and then
      spans 1, ..., B, where B bounds the span of every primitive relation
      over those rows (``_cramer_span``);
    - PivotBreakdown: the residual diagonal is 0 mod p over a row whose
      residual is nonzero mod p, or that no relation of span <= B over
      those rows admits even modulo p;
    - UncertifiedRow: the residual row is 0 mod p, but no relation passes
      the exact check.

    Laurent polynomials are evaluated, and their products are summed by
    ``addmul`` in the exact check; no LaurentPoly is multiplied or divided.
    """
    n = len(rows)
    p, a = EVAL_PRIME, EVAL_POINT
    ev = [[0] * (2 * n) for _ in range(n)]  # the matrix mod p | an identity block
    for s, row in enumerate(rows):
        ev[s][n + s] = 1
        for t in range(s, n):
            ev[s][t] = ev[t][s] = row[t].eval_mod(a, p)
    pivots = []
    kept = []  # (pivot index, inverse of its diagonal, reduced row | multipliers)
    for s in range(n):
        row = ev[s]
        for t, inv, prow in kept:
            f = row[t] * inv % p
            if f:
                row = [(x - f * y) % p for x, y in zip(row, prow)]
        if row[s]:
            pivots.append(s)
            kept.append((s, pow(row[s], -1, p), row))
        elif any(row[:n]):
            raise PivotBreakdown(f"zero residual diagonal over a nonzero row at {s}")
        else:
            _certify(rows, s, row[n:])
    return pivots


def rank_mod_p(rows):
    """A certified lower bound of the rank of a LaurentPoly matrix: the rank
    of the matrix evaluated at v = EVAL_POINT over F_EVAL_PRIME.

    Evaluation is a ring map Z[v, v^-1] -> F_p, so a minor that is nonzero
    there is nonzero in Z[v, v^-1].  The bound falls short of the rank only
    when EVAL_POINT is a root mod p of every maximal nonzero minor; a caller
    that needs the rank refuses then, and no exact rank runs.
    """
    p, a = EVAL_PRIME, EVAL_POINT
    kept = []  # (pivot column, inverse of its entry, reduced row)
    for row in rows:
        row = [e.eval_mod(a, p) for e in row]
        for c, inv, prow in kept:
            f = row[c] * inv % p
            if f:
                row = [(x - f * y) % p for x, y in zip(row, prow)]
        c = next((c for c, x in enumerate(row) if x), None)
        if c is not None:
            kept.append((c, pow(row[c], -1, p), row))
    return len(kept)


def _certify(rows, s, mult):
    """Return when a relation with c_s != 0, supported where the modular
    multipliers ``mult`` of row s are nonzero, passes the exact check.

    Else raise PivotBreakdown when the equations of span B =
    ``_cramer_span`` over the support admit only 0 modulo EVAL_PRIME: a
    primitive relation over the support would reduce to a nonzero solution,
    so row s is outside the span of the other support rows though its
    diagonal vanishes at the point.  Else raise UncertifiedRow."""
    support = [k for k, x in enumerate(mult) if x]
    if any(c.get(s) and _is_relation(rows, c) for c in _relations(rows, support, mult)):
        return
    d = _cramer_span(rows, support)
    if sum(1 for _ in _span_echelon(rows, support, d)) == len(support) * (d + 1):
        raise PivotBreakdown(f"zero residual diagonal over an independent row at {s}")
    raise UncertifiedRow(f"no certified kernel relation rejects row {s}")


def _relations(rows, support, mult):
    """Candidate relations {k: exponent -> int}: span 0 from the
    multipliers, then one per span 1, ..., ``_cramer_span`` that the
    coefficient equations pin to a line."""
    ints = _lift([mult[k] for k in support])
    if ints is not None:
        yield {k: {0: x} for k, x in zip(support, ints)}
    for d in range(1, _cramer_span(rows, support) + 1):
        c = _span_relation(rows, support, d)
        if c is not None:
            yield c


def _cramer_span(rows, support):
    """A bound on the span of every primitive relation over the ``support``
    rows: the span of the Cramer relation, whose c_k is a signed maximal
    minor of the other rows.

    With lo_k and hi_k the least and greatest exponents over the nonzero
    entries of row k, c_k lies in degrees [sum lo - lo_k, sum hi - hi_k].
    Every relation is a Laurent multiple of the primitive one, so the
    minimal span is at most (sum hi - min hi) - (sum lo - max lo)."""
    lo = [min(min(e.c) for e in rows[k] if e) for k in support]
    hi = [max(max(e.c) for e in rows[k] if e) for k in support]
    return sum(hi) - min(hi) - sum(lo) + max(lo)


def _span_echelon(rows, support, d):
    """The coefficient equations of sum_k c_k rows[k][t] = 0, with
    c_k = sum_{e=0}^{d} c_{k,e} v^e over k in ``support``, joined in column
    order into a reduced echelon form modulo EVAL_PRIME (leading unknown ->
    equation, leading entry 1); yields the form each time an equation
    raises its rank."""
    p = EVAL_PRIME
    width = d + 1
    echelon = {}
    for t in range(len(rows)):
        col = [rows[k][t].c for k in support]
        for g in sorted({f + e for c in col for f in c for e in range(width)}):
            eq = [c.get(g - e, 0) % p for c in col for e in range(width)]
            for lead, prow in echelon.items():
                f = eq[lead]
                if f:
                    eq = [(x - f * y) % p for x, y in zip(eq, prow)]
            lead = next((i for i, x in enumerate(eq) if x), None)
            if lead is None:
                continue
            inv = pow(eq[lead], -1, p)
            eq = [x * inv % p for x in eq]
            for other, prow in echelon.items():
                f = prow[lead]
                if f:
                    echelon[other] = [(x - f * y) % p for x, y in zip(prow, eq)]
            echelon[lead] = eq
            yield echelon


def _span_relation(rows, support, d):
    """The relation of span d over ``support`` that the coefficient
    equations (``_span_echelon``) fix up to scale modulo EVAL_PRIME, lifted
    to integers; None when they leave no line or the line does not lift.

    The first time the equations leave one free unknown, the line they cut
    contains every relation of this shape, so it is lifted then and the
    remaining equations are never read: the exact check is the proof.
    """
    width = d + 1
    unknowns = len(support) * width
    for echelon in _span_echelon(rows, support, d):
        if len(echelon) == unknowns - 1:
            free = next(i for i in range(unknowns) if i not in echelon)
            sol = [0] * unknowns
            sol[free] = 1
            for other, prow in echelon.items():
                sol[other] = -prow[free] % EVAL_PRIME
            ints = _lift(sol)
            if ints is None:
                return None
            return {k: {e: x for e, x in enumerate(ints[j * width:(j + 1) * width]) if x}
                    for j, k in enumerate(support)}
    return None


def _lift(residues):
    """Integers proportional to ``residues`` mod EVAL_PRIME, each residue
    read as a fraction with numerator and denominator at most _LIFT_BOUND
    (rational reconstruction by the extended Euclidean algorithm); None
    when one has no such fraction."""
    p = EVAL_PRIME
    fracs = []
    for x in residues:
        r0, r1, s0, s1 = p, x, 0, 1
        while r1 > _LIFT_BOUND:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if abs(s1) > _LIFT_BOUND:
            return None
        fracs.append((r1, s1) if s1 > 0 else (-r1, -s1))
    den = math.lcm(*(b for _, b in fracs))
    return [a * (den // b) for a, b in fracs]


def _is_relation(rows, c):
    """Exactly: sum_k c_k rows[k][t] = 0 in every column t."""
    for t in range(len(rows)):
        acc = {}
        for k, ck in c.items():
            e = rows[k][t]
            if e:
                addmul(acc, ck, e.c)
        if any(acc.values()):
            return False
    return True
