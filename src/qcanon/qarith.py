"""Exact arithmetic in Z[v, v^-1].

Everything downstream (forms, Gram matrices, basis transitions) is built on
``LaurentPoly``, a sparse Laurent polynomial with arbitrary-precision
integer coefficients, stored as a map exponent -> nonzero coefficient.

The module also provides the quantum combinatorial numbers [n], [n]!,
Gaussian binomials, the bar involution v -> v^-1, the symmetric truncation
used by the basis orthogonalization, and fraction-free (Bareiss)
elimination: the rank of a Laurent matrix, and the symmetric elimination
with diagonal pivots that weight spaces are built on.
"""

from __future__ import annotations


class ExactDivisionError(ArithmeticError):
    """Division in Z[v,v^-1] left a remainder where none was expected."""


class LaurentPoly:
    """Sparse element of Z[v, v^-1]; immutable by convention."""

    __slots__ = ("c", "_hash")

    def __init__(self, coeffs=None):
        if coeffs is None:
            c = {}
        elif isinstance(coeffs, int):
            c = {0: coeffs} if coeffs else {}
        else:
            c = {k: int(x) for k, x in coeffs.items() if x}
        self.c = c
        self._hash = None

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

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.c.items()))
        return self._hash

    def degree(self):
        """Maximal exponent, or None for the zero polynomial."""
        return max(self.c) if self.c else None

    def low(self):
        """Minimal exponent, or None for the zero polynomial."""
        return min(self.c) if self.c else None

    def span(self):
        """Difference of extreme exponents; 0 for zero (pivot heuristic)."""
        if not self.c:
            return 0
        return max(self.c) - min(self.c)

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
        r._hash = None
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = {k: -x for k, x in self.c.items()}
        r._hash = None
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
            r._hash = None
            return r
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.c, other.c
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for k1, x1 in a.items():
            for k2, x2 in b.items():
                k = k1 + k2
                s = out.get(k, 0) + x1 * x2
                if s:
                    out[k] = s
                else:
                    del out[k]
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = out
        r._hash = None
        return r

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k):
        """Multiply by v^k."""
        if not self.c or k == 0:
            return self
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = {e + k: x for e, x in self.c.items()}
        r._hash = None
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
        """Evaluate at v = a over the prime field F_p."""
        inv = pow(a % p, p - 2, p)
        total = 0
        for k, x in self.c.items():
            base = pow(a % p, k, p) if k >= 0 else pow(inv, -k, p)
            total = (total + x * base) % p
        return total

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

    @staticmethod
    def from_terms(terms):
        return LaurentPoly({int(k): int(s) for k, s in terms})

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


# -- bar involution and symmetric truncation ----------------------------


def bar(p):
    """The bar involution v -> v^-1."""
    return p.bar()


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


def qint(n):
    """[n] = (v^n - v^-n)/(v - v^-1); [-n] = -[n]."""
    if n == 0:
        return ZERO
    if n < 0:
        return -qint(-n)
    return LaurentPoly({n - 1 - 2 * m: 1 for m in range(n)})


def qfact(n):
    """[n]! for n >= 0."""
    if n < 0:
        raise ValueError("quantum factorial of a negative integer")
    out = ONE
    for m in range(2, n + 1):
        out = out * qint(m)
    return out


def qbinom(n, k):
    """Gaussian binomial [n choose k] for k >= 0 and any integer n."""
    if k < 0:
        raise ValueError("qbinom needs k >= 0")
    out = ONE
    for s in range(1, k + 1):
        out = (out * qint(n - s + 1)).divexact(qint(s))
        if not out:
            return ZERO
    return out


# -- fraction-free linear algebra ----------------------------------------


def lp_echelon(rows):
    """Bareiss echelon form of a LaurentPoly matrix, free of fractions.

    Returns (rows, pivots) where pivots is a list of (row, col).  Pivot
    choice within a column: nonzero entry with minimal exponent span,
    first such row on ties (bounds coefficient growth, no correctness
    impact).
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    prev = ONE
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        best = None
        for rr in range(r, m):
            e = rows[rr][c]
            if e:
                sp = e.span()
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
        pivots.append((r, c))
        r += 1
    return rows, pivots


def lp_rank(rows):
    if not rows or not rows[0]:
        return 0
    return len(lp_echelon(rows)[1])


class PivotBreakdown(ArithmeticError):
    """Diagonal pivoting met a zero residual diagonal over a nonzero row."""


def lp_sym_echelon(rows):
    """Elimination free of fractions of a symmetric LaurentPoly matrix with
    diagonal pivots taken in row order (Bareiss 1968).

    Row s is reduced against the pivot rows kept so far and becomes a pivot
    when its residual diagonal is nonzero; that diagonal is the leading
    principal minor of the pivot block so far.  Returns the list of kept
    indices.  A zero residual diagonal over a nonzero residual row raises
    PivotBreakdown; otherwise the pivots are the greedy prefix of
    independent rows.

    Every division is exact: after j stages the entry (s, t) is the
    bordered minor det A[P_j + s, P_j + t] of the first j pivots P_j, and
    Sylvester's identity makes d_{j-1} times the stage-j entry equal to
    d_j * old - old[p_j] * pivot[t] (d_j is the j-th pivot).
    Symmetry halves the work: the bordered minors are symmetric in (s, t),
    so the residual of row s at an earlier non-pivot column t equals the
    residual of row t at column s, which vanished when t was rejected.
    Only pivot columns and columns >= s are carried.
    """
    n = len(rows)
    pivots = []
    kept = []  # pivot row p as {column: entry} over columns > p
    diag = []
    for s in range(n):
        cols = pivots + list(range(s, n))
        row = {t: rows[s][t] for t in cols}
        for j, p in enumerate(pivots):
            d, fac, prow = diag[j], row.pop(p), kept[j]
            for t in cols[j + 1:]:
                e = row[t] * d if row[t] else ZERO
                if fac and prow[t]:
                    e = e - fac * prow[t]
                if e and j:
                    e = e.divexact(diag[j - 1])
                row[t] = e
        d = row.pop(s)
        if d:
            pivots.append(s)
            kept.append(row)
            diag.append(d)
        elif any(row.values()):
            raise PivotBreakdown(f"zero residual diagonal over a nonzero row at {s}")
    return pivots


def specialize_v1(x):
    """Substitute v = 1 in a scalar, vector, or matrix.

    LaurentPoly -> int; lists map recursively.
    """
    if isinstance(x, LaurentPoly):
        return x.at_one()
    if isinstance(x, (list, tuple)):
        return [specialize_v1(e) for e in x]
    raise TypeError(f"cannot specialize {type(x)}")
