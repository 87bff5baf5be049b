"""Machine verification suites for one quiver datum.

Each suite replays a family of exact identities (operator relations,
contravariance, Serre annihilation, the derivation identity, coproduct
self-consistency, bar-invariance, almost-orthogonality, triangularity,
crystal axioms, dimension agreement) and reports every failure with a
counterexample.  All randomness is seeded; repeated runs are identical.
"""

from __future__ import annotations

import random

from .qarith import LaurentPoly, ZERO, ONE, addmul, finish, qint, ExactDivisionError
from . import cartan
from .cartan import contents_of_height, contents_up_to, unit_vector, vec_add, vec_sub
from .uminus import (UMinusElement, concat_words, mono_mul, normalized_words, word_content,
                     word_str)
from .coproduct import (restriction_coproduct, rbar, ibar, rbar_derivation, ibar_derivation,
                        serre_element)
from .hwmodule import HighestWeightModule, check_content_count
from .canonical import CanonicalBasis, verify_bar_invariant
from . import crystalgraph as cg

RNG_SEED = 20260809
# vector pairs that ``contravariance`` draws, words that ``coproduct`` draws
# for its Leibniz checks, and the height up to which ``derivation`` and the
# coassociativity checks of ``coproduct`` run over every word
CONTRAVARIANCE_PAIRS = 100
COPRODUCT_SAMPLES = 50
ALL_WORDS_HEIGHT = 4
V_INV_MINUS_V = LaurentPoly({-1: 1, 1: -1})


class SuiteResult:
    def __init__(self, name, checks=0, failures=None):
        self.name = name
        self.checks = checks
        self.failures = [] if failures is None else failures

    @property
    def passed(self):
        return not self.failures

    def ok(self):
        self.checks += 1

    def fail(self, message):
        self.checks += 1
        self.failures.append(message)


class VerifyContext:
    """Shared lazily-built state for the suites of one datum."""

    def __init__(self, quiver, hw, max_height, order=None):
        check_content_count(quiver.n, max_height)
        self.quiver = quiver
        self.hw = hw
        self.max_height = max_height
        self.order = tuple(order) if order is not None else tuple(range(quiver.n))
        self.module = HighestWeightModule(quiver, hw)
        self._cb = None
        self._graph = None

    @property
    def cb(self):
        if self._cb is None:
            self._cb = CanonicalBasis(self.module, self.order).compute_up_to(self.max_height)
        return self._cb

    @property
    def graph(self):
        if self._graph is None:
            self._graph = cg.build_left_graph(self.cb)
        return self._graph

    def basis_vectors(self, nu):
        ws = self.module.weight_space(nu)
        return [self.module.monomial_vector(w) for w in ws.basis]

    def all_contents(self):
        return contents_up_to(self.quiver.n, self.max_height)


def _fmt_vec(quiver, u):
    if not u.terms:
        return "0"
    return " + ".join(f"({c})*{word_str(w, quiver)}" for w, c in u.sorted_terms())


# -- operator relation suite -------------------------------------------------


def suite_relations(ctx):
    res = SuiteResult("relations")
    m, q = ctx.module, ctx.quiver
    n = q.n
    for nu in ctx.all_contents():
        for u in ctx.basis_vectors(nu):
            # the images of u that the checks below read, each built once;
            # both sides of every check still go through the operators
            E = [m.apply_E(i, u) for i in range(n)]
            F = [m.apply_F(i, 1, u) for i in range(n)]
            K = [m.apply_K(j, +1, u) for j in range(n)]
            F2 = [m.apply_F(i, 2, u) for i in range(n)]
            for i in range(n):
                # E_i F_i - F_i E_i = [<wt, a_i^vee>] Id
                lhs = m.apply_E(i, F[i]) - m.apply_F(i, 1, E[i])
                rhs = u.scale(qint(m.coroot_pairing(nu, i)))
                if m.vectors_equal(lhs, rhs):
                    res.ok()
                else:
                    res.fail(f"[E{i},F{i}] != [pairing] on {_fmt_vec(q, u)} at {nu}")
                for j in range(n):
                    if j != i:
                        a = m.apply_E(i, F[j])
                        b = m.apply_F(j, 1, E[i])
                        if m.vectors_equal(a, b):
                            res.ok()
                        else:
                            res.fail(f"E{i}F{j} != F{j}E{i} on {_fmt_vec(q, u)} at {nu}")
                    # K commutations: E_i K_j = v^{-c_ji} K_j E_i, F_i K_j = v^{c_ij} K_j F_i
                    a = m.apply_E(i, K[j])
                    b = m.apply_K(j, +1, E[i]).scale(LaurentPoly.v_power(-q.cartan[j][i]))
                    if m.vectors_equal(a, b):
                        res.ok()
                    else:
                        res.fail(f"E{i}K{j} twist wrong at {nu}")
                    a = m.apply_F(i, 1, K[j])
                    b = m.apply_K(j, +1, F[i]).scale(LaurentPoly.v_power(q.cartan[i][j]))
                    if m.vectors_equal(a, b):
                        res.ok()
                    else:
                        res.fail(f"F{i}K{j} twist wrong at {nu}")
                # divided-power self-consistency: [n] F^(n) u = F(F^(n-1) u)
                for dp, a, low in ((2, F2[i], F[i]), (3, m.apply_F(i, 3, u), F2[i])):
                    if a.scale(qint(dp)) == m.apply_F(i, 1, low):
                        res.ok()
                    else:
                        res.fail(f"[{dp}]F^({dp}) != F F^({dp-1}) at {nu}")
                # integrability: F_i^(b+1) u = 0 beyond the string bound
                bound = max(m.coroot_pairing(nu, i), 0) + nu[i]
                big = m.apply_F(i, bound + 1, u)
                if m.is_zero_vector(big):
                    res.ok()
                else:
                    res.fail(f"F{i}^({bound+1}) did not kill {_fmt_vec(q, u)} at {nu}")
    return res


def suite_serre(ctx):
    res = SuiteResult("serre")
    m, q = ctx.module, ctx.quiver
    n = q.n
    relators = {(i, j): serre_element(q, i, j) for i in range(n) for j in range(n) if i != j}
    # the E-Serre sums at vertex i read E_i^(r) u for r <= 1 + max_j a_ij
    tops = [1 + max((q.a[i][j] for j in range(n) if j != i), default=-1) for i in range(n)]
    for nu in ctx.all_contents():
        for u in ctx.basis_vectors(nu):
            for i in range(n):
                chain = m.e_chain(i, u, tops[i])
                for j in range(n):
                    if i == j:
                        continue
                    if m.is_zero_vector(mono_mul(relators[i, j], u)):
                        res.ok()
                    else:
                        res.fail(f"F-Serre({i},{j}) nonzero on {_fmt_vec(q, u)} at {nu}")
                    a = q.a[i][j]
                    acc = None
                    for mm in range(a + 2):
                        t = chain[1 + a - mm]
                        if t.terms:
                            t = m.apply_E(j, t)
                        if mm and t.terms:
                            t = m.e_chain(i, t, mm)[mm]
                        t = t.scale(LaurentPoly(-1 if mm % 2 else 1))
                        if t.terms:
                            acc = t if acc is None else acc + t
                    if acc is None or m.is_zero_vector(acc):
                        res.ok()
                    else:
                        res.fail(f"E-Serre({i},{j}) nonzero on {_fmt_vec(q, u)} at {nu}")
    return res


def suite_contravariance(ctx):
    """(F_i u, w) = v (u, K_i^-1 E_i w) on random vectors over weight-space
    bases.  Both sides are bilinear, so basis words test the same identity
    as all words of a content.  nu is drawn among the nonzero weight spaces
    below the height bound, so u != 0, and i among the vertices with
    L_{nu + alpha_i} != 0 when there is one, uniformly otherwise; the
    check count stays CONTRAVARIANCE_PAIRS for every datum."""
    res = SuiteResult("contravariance")
    m, q = ctx.module, ctx.quiver
    rng = random.Random(RNG_SEED)
    contents = [nu for nu in ctx.all_contents()
                if cartan.height(nu) < ctx.max_height and m.weight_space(nu).rank]
    if not contents:
        return res  # nothing below the height bound to sample from
    for _ in range(CONTRAVARIANCE_PAIRS):
        nu = contents[rng.randrange(len(contents))]
        up = [vec_add(nu, unit_vector(q.n, i)) for i in range(q.n)]
        vertices = [i for i in range(q.n) if m.weight_space(up[i]).rank] or range(q.n)
        i = vertices[rng.randrange(len(vertices))]
        u = _random_vector(m, nu, rng)
        w = _random_vector(m, up[i], rng)
        lhs = m.form(m.apply_F(i, 1, u), w)
        rhs = m.form(u, m.apply_K(i, -1, m.apply_E(i, w))).shift(1)
        if lhs == rhs:
            res.ok()
        else:
            res.fail(f"(F{i} u, w) != v (u, K-E{i} w) at {nu}: {lhs} vs {rhs}")
    return res


def _random_vector(m, nu, rng):
    """A random Laurent combination of the basis words of L_nu, nonzero
    when L_nu is."""
    words = m.weight_space(nu).basis
    terms = {}
    for w in words:
        if rng.random() < 0.5:
            c = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
            if c:
                terms[w] = c
    if not terms and words:
        terms[words[0]] = ONE
    return UMinusElement(nu, terms)


# -- derivation identity ------------------------------------------------------


def suite_derivation(ctx):
    res = SuiteResult("derivation")
    m, q = ctx.module, ctx.quiver
    n = q.n
    hmax = min(ALL_WORDS_HEIGHT, ctx.max_height)
    for h in range(hmax + 1):
        for nu in contents_of_height(n, h):
            # the exponents of the identity at (nu, i), once per content: it
            # adds ibar times v^((alpha_i, nu - alpha_i) - Lambda_i) and
            # subtracts rbar times v^(Lambda_i)
            shifts = [(q.sym_form(unit_vector(n, i), vec_sub(nu, unit_vector(n, i)))
                       - ctx.hw[i], ctx.hw[i]) if nu[i] else None for i in range(n)]
            for w in normalized_words(nu):
                x = m.monomial_vector(w)
                for i in range(n):
                    lhs = m.apply_E(i, x)
                    if nu[i] == 0:
                        if lhs.terms:
                            res.fail(f"E{i} nonzero on i-free word {word_str(w, q)}")
                        else:
                            res.ok()
                        continue
                    ishift, rshift = shifts[i]
                    combo = {}
                    for w2, c in ibar_derivation(q, x, i).terms.items():
                        addmul(combo.setdefault(w2, {}), c.c, ONE.c, shift=ishift)
                    for w2, c in rbar_derivation(q, x, i).terms.items():
                        addmul(combo.setdefault(w2, {}), c.c, ONE.c, k=-1, shift=rshift)
                    combo = {k: c for k, acc in combo.items() if (c := finish(acc))}
                    try:
                        divided = {k: v.divexact(V_INV_MINUS_V) for k, v in combo.items()}
                    except ExactDivisionError:
                        res.fail(f"derivation combo not divisible by (v^-1 - v) "
                                 f"for {word_str(w, q)}, i={q.vertex_id(i)}")
                        continue
                    if divided == lhs.terms:
                        res.ok()
                    else:
                        res.fail(f"derivation identity fails on {word_str(w, q)}, "
                                 f"i={q.vertex_id(i)}: E gives {_fmt_vec(q, lhs)}")
    return res


# -- coproduct self-consistency ------------------------------------------------


def _right_leibniz(q, word, i, twist):
    """Independent recursion for a right extraction: the slot of vertex i
    leaves with v^(1 - a + twist(mu)), mu the content to its right."""
    if not word:
        return {}
    (j, a), rest = word[0], word[1:]
    out = {}
    for w, c in _right_leibniz(q, rest, i, twist).items():
        nw, s = concat_words(((j, a),), w)
        out[nw] = out.get(nw, ZERO) + c * s
    if j == i:
        w = ((i, a - 1),) + rest if a > 1 else rest
        tw = twist(word_content(rest, q.n))
        out[w] = out.get(w, ZERO) + LaurentPoly.v_power(1 - a + tw)
    return {w: c for w, c in out.items() if c}


def _left_leibniz(q, word, i, twist):
    """Independent recursion for a left extraction: the slot of vertex i
    leaves with v^(1 - a), and each slot (j, a) it passes contributes
    v^twist(a alpha_j)."""
    if not word:
        return {}
    (j, a), rest = word[0], word[1:]
    out = {}
    if j == i:
        w = ((i, a - 1),) + rest if a > 1 else rest
        out[w] = out.get(w, ZERO) + LaurentPoly.v_power(1 - a)
    tw = LaurentPoly.v_power(twist(word_content(((j, a),), q.n)))
    for w, c in _left_leibniz(q, rest, i, twist).items():
        nw, s = concat_words(((j, a),), w)
        out[nw] = out.get(nw, ZERO) + c * s * tw
    return {w: c for w, c in out.items() if c}


def _leibniz_twists(q, i):
    """The twists of the coproduct extractions (rbar, ibar) and of the
    derivations: 2 sum_k a_ik mu_k - 2 mu_i and -(alpha_i, mu)."""
    def coproduct(mu):
        return 2 * sum(q.a[i][k] * mu[k] for k in range(q.n)) - 2 * mu[i]

    def derivation(mu):
        return -q.sym_form(unit_vector(q.n, i), mu)

    return coproduct, derivation


def suite_coproduct(ctx):
    res = SuiteResult("coproduct")
    q = ctx.quiver
    n = q.n
    rng = random.Random(RNG_SEED + 1)
    # (a) extraction == Leibniz recursion on random words of height <= 5
    pool = []
    for h in range(1, min(5, ctx.max_height) + 1):
        for nu in contents_of_height(n, h):
            pool.extend(normalized_words(nu))
    for _ in range(COPRODUCT_SAMPLES if pool else 0):
        w = pool[rng.randrange(len(pool))]
        x = UMinusElement.monomial(q, w)
        for i in range(n):
            if word_content(w, n)[i] == 0:
                continue
            cop, der = _leibniz_twists(q, i)
            checks = (
                (rbar(q, x, i).terms, _right_leibniz(q, w, i, cop), "rbar"),
                (ibar(q, x, i).terms, _left_leibniz(q, w, i, cop), "ibar"),
                (rbar_derivation(q, x, i).terms, _right_leibniz(q, w, i, der),
                 "rbar_derivation"),
                (ibar_derivation(q, x, i).terms, _left_leibniz(q, w, i, der),
                 "ibar_derivation"),
            )
            for got, expect, tag in checks:
                if got == expect:
                    res.ok()
                else:
                    res.fail(f"{tag} != Leibniz on {word_str(w, q)}, i={q.vertex_id(i)}")
    # (b) coassociativity shadow on all monomials of height <=
    # ALL_WORDS_HEIGHT; the inner coproducts of different words repeat, so
    # each word's full coproduct is expanded once per suite run
    hmax = min(ALL_WORDS_HEIGHT, ctx.max_height)
    memo = {}
    for h in range(1, hmax + 1):
        for nu in contents_of_height(n, h):
            for w in normalized_words(nu):
                if _coassoc_holds(q, w, memo):
                    res.ok()
                else:
                    res.fail(f"coassociativity fails on {word_str(w, q)}")
    return res


def _coassoc_holds(q, w, memo=None):
    """(Delta x 1) Delta w == (1 x Delta) Delta w on every three-way split.

    All splits are compared at once, in one signed map keyed by
    (tau2, om2, om) and exponent: the left side adds into it, the right
    side subtracts, and the check passes when every entry is 0.  Each word
    gets a small integer id the first time it is seen, so a key is four
    ints, and each coefficient is kept as a tuple of its (exponent, value)
    items.  The map is flat on purpose: one exponent map per
    (tau2, om2, om) through ``qarith.addmul`` measured slower and larger on
    D4, where almost every coefficient is a monomial.  The contents of the
    words of a key fix its split (t1, t2, t3), so the merged comparison
    fails exactly when the comparison of some split fails.  ``memo`` maps a
    word to [its id, its full ``restriction_coproduct`` or None until it
    is needed] and may be shared across the calls of one suite run; both
    sides of the comparison read it alike.
    """
    if memo is None:
        memo = {}

    def entry(word):
        hit = memo.get(word)
        if hit is None:
            hit = memo[word] = [len(memo), None]
        return hit

    def coproduct(word):
        hit = entry(word)
        if hit[1] is None:
            hit[1] = [(tau, entry(tau)[0], om, entry(om)[0], tuple(c.c.items()))
                      for tau, om, c in restriction_coproduct(q, word)]
        return hit[1]

    signed = {}
    for tau, t, om, o, items in coproduct(w):
        for _, t2, _, o2, items2 in coproduct(tau):
            for e1, x1 in items:
                for e2, x2 in items2:
                    key = (t2, o2, o, e1 + e2)
                    signed[key] = signed.get(key, 0) + x1 * x2
        for _, t2, _, o2, items2 in coproduct(om):
            for e1, x1 in items:
                for e2, x2 in items2:
                    key = (t, t2, o2, e1 + e2)
                    signed[key] = signed.get(key, 0) - x1 * x2
    return not any(signed.values())


# -- canonical basis suites ------------------------------------------------------


def suite_counts(ctx):
    res = SuiteResult("counts")
    m = ctx.module
    for nu in ctx.all_contents():
        ws = m.weight_space(nu)
        fr = m.freudenthal_multiplicity(nu)
        if ws.rank == fr:
            res.ok()
        else:
            res.fail(f"rank {ws.rank} != freudenthal {fr} at {nu}")
        if len(ctx.cb.elements(nu)) == ws.rank:
            res.ok()
        else:
            res.fail(f"CB count {len(ctx.cb.elements(nu))} != rank {ws.rank} at {nu}")
    return res


def suite_barinv(ctx):
    res = SuiteResult("barinv")
    for nu in ctx.cb.contents():
        for pos, b in enumerate(ctx.cb.elements(nu)):
            if verify_bar_invariant(ctx.module, b):
                res.ok()
            else:
                res.fail(f"element {pos} at {nu} is not bar-invariant")
    return res


def suite_orthogonality(ctx):
    res = SuiteResult("orthogonality")
    m = ctx.module
    for nu in ctx.cb.contents():
        elems = ctx.cb.elements(nu)
        for s, b in enumerate(elems):
            for t, b2 in enumerate(elems):
                p = m.form(b.vector, b2.vector)
                good = p.is_one_plus_lower() if s == t else p.in_vinv_span()
                if good:
                    res.ok()
                else:
                    res.fail(f"pairing ({s},{t}) at {nu} = {p}")
            unit = [ONE if t == s else ZERO for t in range(len(elems))]
            if ctx.cb.expand(b.vector) == unit:
                res.ok()
            else:
                res.fail(f"element {s} at {nu} does not expand to its unit vector")
    return res


def suite_triangularity(ctx):
    res = SuiteResult("triangularity")
    for nu in ctx.cb.contents():
        elems = ctx.cb.elements(nu)
        if not elems:
            continue
        T = cg.monomial_basis(ctx.cb, ctx.graph, nu, ctx.order)[3]
        r = len(T)
        good = True
        for t in range(r):
            if T[t][t] != ONE:
                good = False
            for s in range(t):
                if T[s][t]:
                    good = False
        if good:
            res.ok()
        else:
            res.fail(f"transition matrix not unitriangular at {nu}")
        for t in range(r):
            for s in range(r):
                c = T[s][t]
                if not c:
                    continue
                if c.is_bar_invariant():
                    res.ok()
                else:
                    res.fail(f"transition entry ({s},{t}) at {nu} = {c}")
        T1 = [[c.at_one() for c in row] for row in T]
        if all(T1[t][t] == 1 for t in range(r)) and \
                all(T1[s][t] == 0 for t in range(r) for s in range(t)):
            res.ok()
        else:
            res.fail(f"v=1 transition not unitriangular at {nu}")
    return res


def _t_and_pairings(basis, nu):
    """Each element's t_i tuple and self-pairing at nu, in id order."""
    return [(b.t, b.self_pairing) for b in basis.elements(nu)]


def suite_crystal(ctx):
    res = SuiteResult("crystal")
    q = ctx.quiver
    cb, graph = ctx.cb, ctx.graph
    n = q.n
    # bijectivity double-counting at every (i, t, content)
    for nu in cb.contents():
        elems = cb.elements(nu)
        for i in range(n):
            for t in range(1, nu[i] + 1):
                low = tuple(x - (t if k == i else 0) for k, x in enumerate(nu))
                upper = [pos for pos, b in enumerate(elems)
                         if b.t[i] == t]
                images = []
                for b2 in cb.elements(low):
                    if b2.t[i] != 0:
                        continue
                    hit = cg.pi_arrow(cb, i, t, b2, missing_ok=True)
                    if hit is not None:
                        images.append(hit[1])
                if sorted(images) == upper and len(set(images)) == len(images):
                    res.ok()
                else:
                    res.fail(f"pi bijection fails at {nu}, color ({q.vertex_id(i)},{t})")
    # sbar injectivity and replay
    for nu in cb.contents():
        seen = {}
        for pos in range(len(cb.elements(nu))):
            path = cg.sbar(cb, graph, nu, pos, ctx.order)
            if path in seen:
                res.fail(f"sbar collision at {nu}: positions {seen[path]} and {pos}")
            else:
                res.ok()
            seen[path] = pos
            if cg.replay_path(cb, path) == (nu, pos):
                res.ok()
            else:
                res.fail(f"path replay fails at {nu} position {pos}")
    # arrows target t_i = 0 and jump whole strings
    for (nu, pos, i), (t, low, qpos) in graph.arrow_map.items():
        if cb.elements(low)[qpos].t[i] == 0:
            res.ok()
        else:
            res.fail(f"arrow ({q.vertex_id(i)},{t}) at {nu} targets t_i != 0")
    # graph invariance under a permuted scheduling order; the vertex lists
    # only count elements, so the elements' t_i and self-pairings are
    # compared too, content by content in id order
    if n > 1:
        other = CanonicalBasis(ctx.module, tuple(reversed(ctx.order))).compute_up_to(ctx.max_height)
        g2 = cg.build_left_graph(other)
        if (g2.arrows == graph.arrows and g2.vertices == graph.vertices
                and other.contents() == cb.contents()
                and all(_t_and_pairings(other, nu) == _t_and_pairings(cb, nu)
                        for nu in cb.contents())):
            res.ok()
        else:
            res.fail("left graph differs under a permuted vertex order")
    return res


SUITES = {
    "relations": suite_relations,
    "serre": suite_serre,
    "contravariance": suite_contravariance,
    "derivation": suite_derivation,
    "coproduct": suite_coproduct,
    "counts": suite_counts,
    "barinv": suite_barinv,
    "orthogonality": suite_orthogonality,
    "triangularity": suite_triangularity,
    "crystal": suite_crystal,
}

DEFAULT_SUITES = tuple(SUITES)


def run_suites(ctx, names):
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        results.append(SUITES[name](ctx))
    return results
