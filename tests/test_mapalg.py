import itertools

import pytest

from conftest import brute_invariant_functions
from gpdgalois.action import invariants, subalgebra_closure
from gpdgalois.errors import HypothesisFailure, SupportViolation
from gpdgalois.groupoid import make_subgroupoid, quotient_gset, regular_gset
from gpdgalois.mapalg import (
    build_eval_gset,
    double_dual_check,
    eval_hom_family,
    eval_iso_check,
    evaluation_hom,
    function_algebra,
    grothendieck_algebra_check,
    grothendieck_set_check,
    hom_gset_check,
    hom_set,
    invariant_algebra,
    quotient_iso_pair,
    require_faithful_hypotheses,
    tensor_split_check,
    transversal_hom_family,
)


def test_function_algebra_structure(fix1):
    G = fix1.groupoid
    M = function_algebra(regular_gset(G), fix1.action)
    # the ideal at e1 consists of functions vanishing on the e2 fiber
    slots_e1 = M.ideal_slots("e1")
    assert all(x in {"e1", "gi"} for x, _ in slots_e1)
    one = M.space.one()
    assert M.space.add(M.one_prime("e1"), M.one_prime("e2")) == one


def test_function_algebra_one_point(fixc2):
    G = fixc2.groupoid
    X = quotient_gset(G, make_subgroupoid(G, G.elements))
    M = function_algebra(X, fixc2.action)
    assert len(M.space.slots) == len(fixc2.ring.blocks)


def test_map_space_support_constraint(fix1):
    M = function_algebra(regular_gset(fix1.groupoid), fix1.action)
    R = fix1.ring
    with pytest.raises(SupportViolation):
        M.space.from_values({"e1": R.element({"v3": 1})})


def test_invariant_algebra_counts(fix1, fixc2):
    G = fix1.groupoid
    A = fix1.action
    quot_full = quotient_gset(G, fix1.wide_subgroupoids["all"])
    assert len(invariant_algebra(quot_full, A).elements) == 4
    quot_ids = quotient_gset(G, fix1.wide_subgroupoids["G0"])
    assert len(invariant_algebra(quot_ids, A).elements) == 16
    reg_c2 = regular_gset(fixc2.groupoid)
    assert len(invariant_algebra(reg_c2, fixc2.action).elements) == 4


def test_invariant_algebra_matches_oracle(all_galois_fixtures):
    for fix in all_galois_fixtures:
        X = regular_gset(fix.groupoid)
        structural = set(invariant_algebra(X, fix.action).elements)
        assert structural == brute_invariant_functions(X, fix.action)


def test_evaluation_homs(fix1):
    A = fix1.action
    X = regular_gset(fix1.groupoid)
    AX = invariant_algebra(X, A)
    rho = evaluation_hom(AX, "e1")
    f = AX.elements[1]
    assert rho.apply(f) == AX.space.value_at(f, "e1")
    fam_e1 = eval_hom_family(AX, "e1")
    assert [h.label for h in fam_e1] == ["rho_e1", "rho_gi"]
    for g in fix1.groupoid.elements:
        same = eval_hom_family(AX, fix1.groupoid.r[g])
        assert [h.key() for h in eval_hom_family(AX, g)] == [h.key() for h in same]


def test_eval_gset_transport(fix1):
    A = fix1.action
    X = regular_gset(fix1.groupoid)
    AX = invariant_algebra(X, A)
    ev = build_eval_gset(AX)
    assert ev.point_label["e1"] == "rho_e1"
    assert ev.gset.gamma["g"]["rho_e1"] == "rho_g"


def test_omega_isomorphism(fix1, fix2):
    for fix in (fix1, fix2):
        G = fix.groupoid
        for X in (
            regular_gset(G),
            quotient_gset(G, fix.wide_subgroupoids["G0"]),
        ):
            AX = invariant_algebra(X, fix.action)
            rep = eval_iso_check(X, AX)
            assert rep.isomorphism


def test_hom_set_counts(fix1):
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    E = A.support["g"]
    homs = hom_set(R1, K, E, R)
    # four base-linear block projections exist: v3 pulls back from v1 or
    # v3, v4 independently from v2 or v4
    assert len(homs) == 4
    base_homs = hom_set(K, K, E, R)
    assert len(base_homs) == 1
    assert base_homs[0].apply(R.one()) == R.unit(E.support)


def test_hom_set_members_are_homs(fix1):
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    for hom in hom_set(R1, K, A.support["g"], R):
        for a, b in itertools.product(R1.elements, repeat=2):
            assert hom.apply(R.mul(a, b)) == R.mul(hom.apply(a), hom.apply(b))


def test_eval_family_inside_hom_set(fix1):
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    X = regular_gset(fix1.groupoid)
    AX = invariant_algebra(X, A)
    enumerated = {h.images for h in hom_set(AX, K, A.support["g"], R)}
    for rho in eval_hom_family(AX, "g"):
        assert rho.images in enumerated


def test_tensor_split_eval_families(fix1, fixf4, fixf4swap):
    for fix in (fix1, fixf4, fixf4swap):
        A = fix.action
        K = A.base_subalgebra()
        X = regular_gset(fix.groupoid)
        AX = invariant_algebra(X, A)
        for g in fix.groupoid.elements:
            fam = eval_hom_family(AX, g)
            rep = tensor_split_check(A.support[g], AX, K, fam, A)
            assert rep.ok, (fix.name, g)
            assert rep.n == len(X.fiber_points(fix.groupoid.r[g]))


def test_tensor_split_rejects_forced_duplicate(fix1):
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    E = A.support["g"]
    hom = hom_set(K, K, E, R)[0]
    rep = tensor_split_check(E, K, K, [hom, hom], A)
    assert not rep.square and not rep.bijective


def test_transversal_families(fix1):
    A = fix1.action
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    fams = transversal_hom_family(R1, A, fix1.wide_subgroupoids["G0"])
    assert [h.label for h in fams["e2"]] == ["phi_e2", "phi_g"]
    K = A.base_subalgebra()
    famK = transversal_hom_family(K, A, fix1.wide_subgroupoids["all"])
    assert [h.label for h in famK["e1"]] == ["phi_e1"]


def test_hom_gset_check(fix1, fixc2):
    A = fix1.action
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    for B in (R1, K):
        rep = hom_gset_check(B, A)
        assert rep.ok and rep.gset_valid and rep.families_strongly_distinct
    assert len(hom_gset_check(K, A).gset.carrier) == 2

    full_c2 = invariants(fixc2.action, fixc2.wide_subgroupoids["G0"])
    assert hom_gset_check(full_c2, fixc2.action).ok


def test_hom_gset_check_non_invariant(fix1):
    A, R = fix1.action, fix1.ring
    T = subalgebra_closure(
        R, [R.element({"v1": 1})], include=A.base_subalgebra().basis
    )
    rep = hom_gset_check(T, A)
    assert not rep.is_invariant_subalgebra and not rep.gset_valid


def test_double_dual(fix1):
    A = fix1.action
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    rep = double_dual_check(R1, A)
    assert rep.ok and len(R1.elements) == 16
    repK = double_dual_check(K, A)
    assert repK.ok and len(K.elements) == 4


def test_quotient_iso_all_wide_subgroupoids(fix1, fix2, fixc2):
    count = 0
    for fix in (fix1, fix2, fixc2):
        for labels in fix.wide_subgroupoids.values():
            rep = quotient_iso_pair(fix.action, labels)
            assert rep.ok, (fix.name, labels)
            count += 1
    assert count == 8


def test_quotient_iso_half_invariants(fix2):
    rep = quotient_iso_pair(fix2.action, fix2.wide_subgroupoids["loop"])
    assert rep.ok
    T = invariants(fix2.action, fix2.wide_subgroupoids["loop"])
    assert len(T.elements) == 32


def test_grothendieck_set_side(fix1):
    G = fix1.groupoid
    for X in (
        regular_gset(G),
        quotient_gset(G, fix1.wide_subgroupoids["G0"]),
        quotient_gset(G, fix1.wide_subgroupoids["all"]),
    ):
        rep = grothendieck_set_check(fix1.action, X)
        assert rep.ok


def test_grothendieck_algebra_side(fix1):
    A = fix1.action
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    assert grothendieck_algebra_check(A, K).ok
    assert grothendieck_algebra_check(A, R1).ok


def test_grothendieck_hypothesis_failure(fix2):
    X = regular_gset(fix2.groupoid)
    with pytest.raises(HypothesisFailure) as err:
        grothendieck_set_check(fix2.action, X)
    g, outside, annihilator = err.value.witness
    # e3 is the identity outside the component {e1, e2} of r(e1)
    assert (g, outside) == ("e1", "e3")
    assert annihilator is not None


def test_hypothesis_gate_requires_galois():
    from test_action import trivial_involution_action

    with pytest.raises(HypothesisFailure):
        require_faithful_hypotheses(trivial_involution_action())
