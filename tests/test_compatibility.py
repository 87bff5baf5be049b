"""The paper's main theorem at generic v: B(infinity) maps onto B(Lambda).

The localization sends each simple perverse sheaf of Lusztig's category to
a simple one or to 0, and the nonzero ones are the canonical basis of
L(Lambda).  In algebra: for b in Lusztig's canonical basis B(infinity) of
U^-, b v_Lambda lies in B(Lambda) or is 0, and the nonzero images are
B(Lambda), each once (Lusztig, Introduction to Quantum Groups (1993),
ch. 14).  The images that survive are the b with eps*_i(b) <= <h_i, Lambda>
at every i (Kashiwara, Duke Math. J. 71 (1993)).

B(infinity) up to height h is the canonical basis of L(Lambda_big) with
d_i = h at every vertex: the kernel of U^- -> L(Lambda_big) is
sum_i U^- F_i^(d_i + 1), so it is 0 up to that height.  Module vectors are
U^- elements, so the same element is applied in L(Lambda).  Kashiwara's
involution * fixes every F_i^(a) and reverses products: it reverses every
word.  eps*_i(b) is eps_i(b*), which the induction records as t_i.  The
checks use the package's module and canonical basis only, and no verify
suite.
"""

import pytest

from qcanon.canonical import CanonicalBasis
from qcanon.cartan import HighestWeight, parse_quiver_dict
from qcanon.hwmodule import HighestWeightModule
from qcanon.qarith import ONE
from qcanon.uminus import UMinusElement


def quiver(vertices, edges, hw):
    return {"vertices": vertices, "edges": edges, "highest_weight": hw}


# datum, height, elements of B(infinity) up to that height, and how many of
# them die in L(Lambda)
CASES = {
    "kronecker_10": (quiver(["1", "2"], [["1", "2"]] * 2, {"1": 1, "2": 0}), 7, 157, 138),
    "kronecker_21": (quiver(["1", "2"], [["1", "2"]] * 2, {"1": 2, "2": 1}), 6, 93, 44),
    "kronecker3_10": (quiver(["1", "2"], [["1", "2"]] * 3, {"1": 1, "2": 0}), 6, 117, 91),
    "affine_a2_100": (quiver(["1", "2", "3"], [["1", "2"], ["2", "3"], ["3", "1"]],
                             {"1": 1, "2": 0, "3": 0}), 5, 181, 166),
    "wild3_010": (quiver(["1", "2", "3"], [["1", "2"]] * 2 + [["2", "3"]] * 2,
                         {"1": 0, "2": 1, "3": 0}), 5, 204, 166),
    "d4": (quiver(["c", "1", "2", "3"], [["1", "c"], ["2", "c"], ["3", "c"]],
                  {"c": 1}), 4, 137, 125),
}


def the_one(elems, module, u):
    """The position of the one element of ``elems`` equal to u in
    ``module``; fails when none or several are."""
    hits = [k for k, b in enumerate(elems) if module.vectors_equal(u, b.vector)]
    assert len(hits) == 1, hits
    return hits[0]


def unit_position(coords):
    """The position of the one coordinate 1 of a unit vector; fails on any
    other coordinates."""
    hits = [k for k, c in enumerate(coords) if c]
    assert len(hits) == 1 and coords[hits[0]] == ONE, coords
    return hits[0]


def star(u):
    """Kashiwara's involution: every word reversed."""
    return UMinusElement(u.content, {tuple(reversed(w)): c for w, c in u.terms.items()})


def compare(datum, h):
    """(b v_Lambda != 0, t(b), t(b*)) for every b of B(infinity) up to
    height h, after checking at every content that the nonzero images are
    B(Lambda) once each, that the zeros number the multiplicity at
    Lambda_big less that at Lambda, and that * permutes B(infinity)."""
    q, hw = parse_quiver_dict(datum)
    big = HighestWeightModule(q, HighestWeight((h,) * q.n))
    small = HighestWeightModule(q, hw)
    b_inf = CanonicalBasis(big).compute_up_to(h)
    b_lam = CanonicalBasis(small).compute_up_to(h)
    rows = []
    for nu in b_inf.contents():
        elems, targets = b_inf.elements(nu), b_lam.elements(nu)
        images = [None if small.is_zero_vector(b.vector)
                  else the_one(targets, small, b.vector) for b in elems]
        assert sorted(k for k in images if k is not None) == list(range(len(targets))), nu
        assert images.count(None) == (big.freudenthal_multiplicity(nu)
                                      - small.freudenthal_multiplicity(nu)), nu
        # the expansion of b* in B(infinity)_nu is exact, checked against
        # the form, so a unit vector proves b* an element
        stars = [unit_position(b_inf.expand(star(b.vector))) for b in elems]
        assert sorted(stars) == list(range(len(elems))), nu
        assert all(stars[k] == s for s, k in enumerate(stars)), nu  # an involution
        rows += [(k is not None, b.t, elems[k_star].t)
                 for k, b, k_star in zip(images, elems, stars)]
    return hw, rows


def mismatches(hw, rows, use_star=True):
    """How many elements "b v_Lambda != 0" and "t_i <= d_i at every i"
    disagree on, t_i read off b* (eps*) or, with use_star False, off b."""
    return sum(alive != all(x <= hw[i] for i, x in enumerate(t_star if use_star else t))
               for alive, t, t_star in rows)


@pytest.mark.parametrize("case", sorted(CASES))
def test_canonical_basis_of_u_minus_maps_onto_the_module_basis(case):
    datum, h, elements, zeros = CASES[case]
    hw, rows = compare(datum, h)
    assert len(rows) == elements
    assert sum(not alive for alive, _, _ in rows) == zeros
    assert mismatches(hw, rows) == 0


@pytest.mark.parametrize("case, h, wrong", [("kronecker_10", 6, 16), ("wild3_010", 5, 50)])
def test_eps_star_criterion_discriminates(case, h, wrong):
    # t_i(b) in place of t_i(b*) misreads which elements survive
    hw, rows = compare(CASES[case][0], h)
    assert mismatches(hw, rows) == 0
    assert mismatches(hw, rows, use_star=False) == wrong
