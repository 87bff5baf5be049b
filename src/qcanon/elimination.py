"""Certified symmetric elimination of a Gram matrix over Z[v, v^-1], the
one that ``hwmodule.weight_space`` builds weight spaces on: the pivots of a
symmetric LaurentPoly matrix, taken in row order, read at the fixed point
v = ``EVAL_POINT`` of F_p, p = ``EVAL_PRIME`` = 2^61 - 1.  The point and
the evaluation at it (``_eval``) belong to this module: it is the only
place in the package that computes modulo a prime.

The elimination is one pass at that point plus exact certificates.  A
residual diagonal that is nonzero at that point is nonzero in Z[v, v^-1],
so pivots need no Laurent arithmetic.  A row whose residual vanishes there
is rejected only under an exact kernel relation: a combination of it and
the earlier pivots with Laurent coefficients of span at most a Cramer
bound, found modulo p, lifted to integers and checked to vanish in every
column.  Anything else is refused, never retried: PivotBreakdown when the
diagonal vanishes at the point over a row that no relation can reject (a
true breakdown or an unlucky point), and UncertifiedRow when a row that
vanishes there has no checked relation.

Only ``hwmodule.weight_space`` imports this module, on a cache miss, so the
commands that build no weight space (``basis``, ``graph``) do not load it.
"""

from __future__ import annotations

import math

from .qarith import addmul


class PivotBreakdown(ArithmeticError):
    """Diagonal pivoting met a residual diagonal that is 0 at the evaluation
    point over a row it cannot reject: a true breakdown or an unlucky point,
    not told apart."""


class UncertifiedRow(ArithmeticError):
    """A row whose residual vanishes at the evaluation point has no kernel
    relation that passes the exact check."""


# The evaluation point of the modular pass: v = EVAL_POINT in F_EVAL_PRIME.
EVAL_PRIME = (1 << 61) - 1
EVAL_POINT = 1234567
# k -> EVAL_POINT^k mod EVAL_PRIME, the powers ``_eval`` has met so far
_POWERS = {}

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
      lifted from the multipliers by rational reconstruction), span 1, and
      then probe spans 2, 4, 8, ... up to B, which bounds the span of every
      primitive relation over those rows (``_cramer_span``); the first
      probe past the minimal span reads it off its nullity (``_relations``);
    - PivotBreakdown: the residual diagonal is 0 mod p over a row whose
      residual is nonzero mod p, or that no relation of span <= B over
      those rows admits even modulo p;
    - UncertifiedRow: the residual row is 0 mod p, but no relation passes
      the exact check.

    Laurent polynomials are evaluated, and their products are summed by
    ``addmul`` in the exact check; no LaurentPoly is multiplied or divided.
    """
    n = len(rows)
    p = EVAL_PRIME
    ev = [[0] * (2 * n) for _ in range(n)]  # the matrix mod p | an identity block
    for s, row in enumerate(rows):
        ev[s][n + s] = 1
        for t in range(s, n):
            ev[s][t] = ev[t][s] = _eval(row[t])
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


def _eval(e):
    """The LaurentPoly e at v = EVAL_POINT over F_EVAL_PRIME, term by term
    from the table of the powers of EVAL_POINT shared by every call."""
    total = 0
    for k, x in e.c.items():
        w = _POWERS.get(k)
        if w is None:
            w = _POWERS[k] = pow(EVAL_POINT, k, EVAL_PRIME)
        total += x * w
    return total % EVAL_PRIME


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
    if not _span_form(rows, support, _cramer_span(rows, support), 0).free:
        raise PivotBreakdown(f"zero residual diagonal over an independent row at {s}")
    raise UncertifiedRow(f"no certified kernel relation rejects row {s}")


def _relations(rows, support, mult):
    """Candidate relations {k: exponent -> int}, in order: span 0 from the
    multipliers; span 1; the line of each probe span D = 2, 4, 8, ...
    (capped at B = ``_cramer_span``) whose support-column equations leave
    one free unknown; at the first probe that leaves N >= 2, the relation
    of span D - N + 1 read off it; then spans D - N + 1, ..., B, one solve
    over every column each.

    The support rows other than s are pivots, so independent, and every
    relation over the support is a Laurent multiple g c of the primitive
    relation c, of span d <= B.  The relations of span <= D are the g of
    span <= D - d, so the equations of span D have nullity D - d + 1 when
    D >= d and none below: a probe's line is c when D = d.  Fewer
    equations or a prime can only add nullity, so a probe left with N >= 2
    has D > d >= D - N + 1.  On the Gram matrix of an anisotropic form the
    support block alone, of rank |support| - 1, fixes c, so d = D - N + 1,
    and with the exponents above d set to 0 the probe's solutions are the
    constant multiples of c: one line.  The last solves serve other
    matrices."""
    ints = _lift([mult[k] for k in support])
    if ints is not None:
        yield {k: {0: x} for k, x in zip(support, ints)}
    bound = _cramer_span(rows, support)
    if bound < 1:
        return
    c = _span_relation(rows, support, 1)
    if c is not None:
        yield c
    probe = 1
    while probe < bound:
        probe = min(2 * probe, bound)
        form = _span_form(rows, support, probe, 1, support)
        if len(form.free) > 1:
            break
        c = _line(form, support, probe)
        if c is not None:
            yield c
    else:
        return
    low = max(2, probe + 1 - len(form.free))
    width = probe + 1
    for j in range(len(support)):
        for e in range(low + 1, width):
            unit = [0] * (len(support) * width)
            unit[j * width + e] = 1
            form.join(unit)
    if len(form.free) == 1:
        c = _line(form, support, probe)
        if c is not None:
            yield c
    for d in range(low, bound + 1):
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
    minimal span is at most (sum hi - min hi) - (sum lo - max lo).  The
    bound is loose: on 3-Kronecker (1,0) up to height 10 it runs from 10 to
    246 over relations of span 2 to 16."""
    lo = [min(min(e.c) for e in rows[k] if e) for k in support]
    hi = [max(max(e.c) for e in rows[k] if e) for k in support]
    return sum(hi) - min(hi) - sum(lo) + max(lo)


class _Echelon:
    """A reduced echelon form modulo EVAL_PRIME, kept on its free unknowns
    only: ``free`` lists the unknowns that lead no equation, ascending, and
    ``rows`` maps each leading unknown to the entries of its equation at
    ``free`` (the equation is 1 at its own leading unknown and 0 at the
    others).  Reducing an equation costs rank times nullity, not rank times
    the number of unknowns."""

    __slots__ = ("rows", "free")

    def __init__(self, unknowns):
        self.rows = {}
        self.free = list(range(unknowns))

    def join(self, eq):
        """Join the equation ``eq``, its entries at every unknown; True when
        it raises the rank.  Its leading unknown is then its first free
        unknown with a nonzero entry after the reduction."""
        p = EVAL_PRIME
        red = [eq[j] for j in self.free]
        for lead, prow in self.rows.items():
            f = eq[lead]
            if f:
                red = [(x - f * y) % p for x, y in zip(red, prow)]
        pos = next((j for j, x in enumerate(red) if x), None)
        if pos is None:
            return False
        inv = pow(red[pos], -1, p)
        red = [x * inv % p for x in red]
        for lead, prow in self.rows.items():
            f = prow[pos]
            if f:
                prow = [(x - f * y) % p for x, y in zip(prow, red)]
            self.rows[lead] = prow[:pos] + prow[pos + 1:]
        self.rows[self.free.pop(pos)] = red[:pos] + red[pos + 1:]
        return True


def _span_form(rows, support, d, least, columns=None):
    """The coefficient equations of sum_k c_k rows[k][t] = 0, with
    c_k = sum_{e=0}^{d} c_{k,e} v^e over k in ``support``, joined column by
    column (``columns``; default the support columns, then the others) into
    an ``_Echelon`` until its nullity is ``least``."""
    if columns is None:
        columns = support + [t for t in range(len(rows)) if t not in support]
    width = d + 1
    form = _Echelon(len(support) * width)
    for t in columns:
        col = [rows[k][t].c for k in support]
        for g in sorted({f + e for c in col for f in c for e in range(width)}):
            if form.join([c.get(g - e, 0) % EVAL_PRIME for c in col for e in range(width)]) \
                    and len(form.free) == least:
                return form
    return form


def _span_relation(rows, support, d):
    """The relation of span d over ``support`` that the coefficient
    equations (``_span_form``) fix up to scale modulo EVAL_PRIME, lifted to
    integers; None when they leave no line or the line does not lift.

    The first time the equations leave one free unknown, the line they cut
    contains every relation of this shape, so it is lifted then and the
    remaining equations are never read: the exact check is the proof.
    """
    form = _span_form(rows, support, d, 1)
    return _line(form, support, d) if len(form.free) == 1 else None


def _line(form, support, d):
    """The solution of span d with 1 at the one free unknown of ``form``,
    lifted to integers (``_lift``) as {k: exponent -> int}; None when it
    does not lift."""
    width = d + 1
    sol = [0] * (len(support) * width)
    sol[form.free[0]] = 1
    for lead, (x,) in form.rows.items():
        sol[lead] = -x % EVAL_PRIME
    ints = _lift(sol)
    if ints is None:
        return None
    return {k: {e: x for e, x in enumerate(ints[j * width:(j + 1) * width]) if x}
            for j, k in enumerate(support)}


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
