"""Injected faults give every rewritten verify suite the same checks and
failures as before the suites shared their operator images.

The suites build each image once (the E, F, K and F^(2) images in
``relations``, the E-chains and Serre relators in ``serre``, the per-content
shifts in ``derivation``, the memoized coproducts behind ``coproduct``).
Each side of each check must still go through the operators, so a fault in
an operator moves the same checks as it did when every image was rebuilt.
The values below were recorded before that change, on the code that
rebuilt every image: per fault, datum and suite, the number of checks, the
number of failures, and the first 16 hex digits of the sha256 of the
failure messages joined by newlines (which pins their text and order).
The contravariance suite draws other vectors since it sampled weight-space
bases instead of every word; under each fault it must fail at least as
often as it did before.
"""

import hashlib

import pytest

from qcanon.cartan import parse_quiver_dict
from qcanon.hwmodule import HighestWeightModule
from qcanon.qarith import LaurentPoly, qint
from qcanon import verify

KRON3 = {"vertices": ["1", "2"], "edges": [["1", "2"]] * 3,
         "highest_weight": {"1": 1, "2": 0}}
D4 = {"vertices": ["c", "1", "2", "3"],
      "edges": [["1", "c"], ["2", "c"], ["3", "c"]],
      "highest_weight": {"c": 1}}
DATA = {"kron3": (KRON3, 4), "d4": (D4, 3)}
SUITES = ("relations", "serre", "derivation", "coproduct")

REAL_K = HighestWeightModule.apply_K
REAL_E = HighestWeightModule.apply_E


def k_off_by_one(self, i, sign, u):
    """K_i with its exponent one too high at vertex 0."""
    out = REAL_K(self, i, sign, u)
    return out.scale(LaurentPoly.v_power(1)) if i == 0 else out


def k_off_by_content(self, i, sign, u):
    """K_i with its exponent off by the vertex-0 content at vertex 0."""
    out = REAL_K(self, i, sign, u)
    return out.scale(LaurentPoly.v_power(u.content[0])) if i == 0 else out


def e_times_v_squared(self, i, u):
    """E_i scaled by v^2 at vertex 0."""
    out = REAL_E(self, i, u)
    return out.scale(LaurentPoly.v_power(2)) if i == 0 else out


def e_times_own_content(self, i, u):
    """E_i scaled by v^(vertex-0 content) at vertex 0."""
    out = REAL_E(self, i, u)
    return out.scale(LaurentPoly.v_power(u.content[0])) if i == 0 else out


def e_times_other_content(self, i, u):
    """E_i scaled by v^(vertex-1 content) at vertex 0: the E-Serre terms
    apply it at different contents, so the Serre sums see it."""
    out = REAL_E(self, i, u)
    return out.scale(LaurentPoly.v_power(u.content[1])) if i == 0 else out


FAULTS = {
    "apply_K": (HighestWeightModule, "apply_K", k_off_by_one),
    "apply_K_content": (HighestWeightModule, "apply_K", k_off_by_content),
    "apply_E": (HighestWeightModule, "apply_E", e_times_v_squared),
    "apply_E_content": (HighestWeightModule, "apply_E", e_times_own_content),
    "apply_E_cross": (HighestWeightModule, "apply_E", e_times_other_content),
    "qint": (verify, "qint", lambda n: qint(n) + 1),
}

RECORDED = {
    "apply_K/kron3/relations": (162, 0, "e3b0c44298fc1c14"),
    "apply_K/kron3/serre": (36, 0, "e3b0c44298fc1c14"),
    "apply_K/kron3/derivation": (62, 0, "e3b0c44298fc1c14"),
    "apply_K/kron3/coproduct": (374, 0, "e3b0c44298fc1c14"),
    "apply_K/d4/relations": (480, 0, "e3b0c44298fc1c14"),
    "apply_K/d4/serre": (192, 0, "e3b0c44298fc1c14"),
    "apply_K/d4/derivation": (340, 0, "e3b0c44298fc1c14"),
    "apply_K/d4/coproduct": (532, 0, "e3b0c44298fc1c14"),
    "apply_K_content/kron3/relations": (162, 12, "d09d396c0b210eb6"),
    "apply_K_content/kron3/serre": (36, 0, "e3b0c44298fc1c14"),
    "apply_K_content/kron3/derivation": (62, 0, "e3b0c44298fc1c14"),
    "apply_K_content/kron3/coproduct": (374, 0, "e3b0c44298fc1c14"),
    "apply_K_content/d4/relations": (480, 5, "64653641c0b4c595"),
    "apply_K_content/d4/serre": (192, 0, "e3b0c44298fc1c14"),
    "apply_K_content/d4/derivation": (340, 0, "e3b0c44298fc1c14"),
    "apply_K_content/d4/coproduct": (532, 0, "e3b0c44298fc1c14"),
    "apply_E/kron3/relations": (162, 8, "79edd04536439e6b"),
    "apply_E/kron3/serre": (36, 0, "e3b0c44298fc1c14"),
    "apply_E/kron3/derivation": (62, 22, "d6b5cf9cc6528618"),
    "apply_E/kron3/coproduct": (374, 0, "e3b0c44298fc1c14"),
    "apply_E/d4/relations": (480, 5, "23b3ee4893c3b7fb"),
    "apply_E/d4/serre": (192, 0, "e3b0c44298fc1c14"),
    "apply_E/d4/derivation": (340, 41, "590f1196d5f74b63"),
    "apply_E/d4/coproduct": (532, 0, "e3b0c44298fc1c14"),
    "apply_E_content/kron3/relations": (162, 9, "4aed4e96b66192cf"),
    "apply_E_content/kron3/serre": (36, 0, "e3b0c44298fc1c14"),
    "apply_E_content/kron3/derivation": (62, 22, "6ccb21be764d3690"),
    "apply_E_content/kron3/coproduct": (374, 0, "e3b0c44298fc1c14"),
    "apply_E_content/d4/relations": (480, 5, "23b3ee4893c3b7fb"),
    "apply_E_content/d4/serre": (192, 0, "e3b0c44298fc1c14"),
    "apply_E_content/d4/derivation": (340, 41, "7c21441b2c63b889"),
    "apply_E_content/d4/coproduct": (532, 0, "e3b0c44298fc1c14"),
    "apply_E_cross/kron3/relations": (162, 10, "d96deb1dc443d73d"),
    "apply_E_cross/kron3/serre": (36, 0, "e3b0c44298fc1c14"),
    "apply_E_cross/kron3/derivation": (62, 19, "6c5a0a1d1a90a957"),
    "apply_E_cross/kron3/coproduct": (374, 0, "e3b0c44298fc1c14"),
    "apply_E_cross/d4/relations": (480, 2, "9f2c86ea051e4105"),
    "apply_E_cross/d4/serre": (192, 0, "e3b0c44298fc1c14"),
    "apply_E_cross/d4/derivation": (340, 19, "3d6632ac5b4461b5"),
    "apply_E_cross/d4/coproduct": (532, 0, "e3b0c44298fc1c14"),
    "qint/kron3/relations": (162, 54, "5e13767d3fceed0a"),
    "qint/kron3/serre": (36, 0, "e3b0c44298fc1c14"),
    "qint/kron3/derivation": (62, 0, "e3b0c44298fc1c14"),
    "qint/kron3/coproduct": (374, 0, "e3b0c44298fc1c14"),
    "qint/d4/relations": (480, 96, "3657a24dbf275807"),
    "qint/d4/serre": (192, 0, "e3b0c44298fc1c14"),
    "qint/d4/derivation": (340, 0, "e3b0c44298fc1c14"),
    "qint/d4/coproduct": (532, 0, "e3b0c44298fc1c14"),
}


def summary(result):
    digest = hashlib.sha256("\n".join(result.failures).encode()).hexdigest()[:16]
    return result.checks, len(result.failures), digest


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_faults_move_the_recorded_checks(monkeypatch, fault):
    owner, attr, bad = FAULTS[fault]
    monkeypatch.setattr(owner, attr, bad)
    for name, (datum, hmax) in DATA.items():
        q, hw = parse_quiver_dict(datum)
        ctx = verify.VerifyContext(q, hw, hmax)
        for suite in SUITES:
            key = f"{fault}/{name}/{suite}"
            assert summary(verify.SUITES[suite](ctx)) == RECORDED[key], key


def test_the_serre_sums_see_a_fault_in_their_e_chains(monkeypatch):
    # at 3-Kronecker h=6 the E-Serre sums of (1, 0) have nonzero terms; E_0
    # scaled by v^(vertex-1 content) weighs them differently, recorded as
    # (checks, failures, digest) before the chains were shared
    monkeypatch.setattr(HighestWeightModule, "apply_E", e_times_other_content)
    q, hw = parse_quiver_dict(KRON3)
    res = verify.suite_serre(verify.VerifyContext(q, hw, 6))
    assert summary(res) == (104, 2, "3cb312b3ca9d685a")
    assert all(msg.startswith("E-Serre(1,0)") for msg in res.failures)


# failures of ``suite_contravariance`` under each fault, recorded when its
# vectors were drawn over every normalized word of a content, at 100 checks
CONTRAVARIANCE_BEFORE = {
    "kron3": {"apply_K": 13, "apply_K_content": 5, "apply_E": 13,
              "apply_E_content": 13, "apply_E_cross": 5, "qint": 0},
    "d4": {"apply_K": 1, "apply_K_content": 0, "apply_E": 1,
           "apply_E_content": 1, "apply_E_cross": 0, "qint": 0},
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_contravariance_sees_every_fault_it_saw_before(monkeypatch, fault):
    # the suite draws its vectors over the bases of nonzero weight spaces,
    # so no draw is vacuous; it must fail at least as often as before
    owner, attr, bad = FAULTS[fault]
    monkeypatch.setattr(owner, attr, bad)
    for name, (datum, hmax) in DATA.items():
        q, hw = parse_quiver_dict(datum)
        res = verify.suite_contravariance(verify.VerifyContext(q, hw, hmax))
        assert res.checks == 100
        assert len(res.failures) >= CONTRAVARIANCE_BEFORE[name][fault], (name, len(res.failures))
