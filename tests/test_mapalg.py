import functools
import itertools
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FIXTURE_FILES,
    PAIR_CYCLIC_SPECS,
    PROBLEM_SOURCES,
    brute_invariant_functions,
    corrupted_basis_outcomes,
    distinct_subgroupoids,
    elementwise_alpha,
    pairwise_tensor_split_check,
    problem_action,
    unmemoised_pure,
)
from gpdgalois import action as action_mod, mapalg
from gpdgalois.action import (
    AlgebraAction,
    Submodule,
    _complete_maps,
    invariants,
    stabilizer,
    subalgebra_closure,
)
from gpdgalois.blockring import fixed_elements, ideal_fp_basis, make_ring
from gpdgalois.errors import HypothesisFailure, OracleMismatch, ValidationError
from gpdgalois.galois import is_beta_strong, strong_subalgebra_check
from gpdgalois.groupoid import (
    coset_space,
    enumerate_wide_subgroupoids,
    make_subgroupoid,
    quotient_gset,
    regular_gset,
    validate_groupoid,
)
from gpdgalois.gset import GMap, check_gmap, validate_gset
from gpdgalois.mapalg import (
    HomRecord,
    MapSpace,
    build_eval_gset,
    eval_hom_family,
    evaluation_hom,
    function_algebra,
    grothendieck_set_check,
    hom_gset_check,
    invariant_algebra,
    require_faithful_hypotheses,
    splits_per_target,
    tensor_split_check,
    transversal_hom_family,
)
from gpdgalois.scalar import fp_basis_scalars, make_field
from gpdgalois.tensor import TensorOverK
from theorems import (
    double_dual_check,
    from_values,
    grothendieck_algebra_check,
    hom_set,
    quotient_iso_pair,
    two_sided_hom_gset_check,
)


def test_function_algebra_structure(fix1):
    G = fix1.groupoid
    M = function_algebra(regular_gset(G), fix1.action)
    # the ideal at e1 consists of functions vanishing on the e2 fiber
    slots_e1 = M.support["e1"]
    assert all(x in {"e1", "gi"} for x, _ in slots_e1)
    one = M.space.one()
    assert M.space.add(M.space.unit(slots_e1), M.space.unit(M.support["e2"])) == one


def test_function_algebra_one_point(fixc2):
    G = fixc2.groupoid
    X = quotient_gset(coset_space(G, make_subgroupoid(G, G.elements)))
    M = function_algebra(X, fixc2.action)
    assert len(M.space.slots) == len(fixc2.ring.blocks)


def test_function_algebra_rejects_broken_composition(fix1):
    # gi sends v3, v4 to v2, v1: a bijection onto the blocks of e1, but
    # gi o g swaps v1 and v2 instead of fixing them
    G, R = fix1.groupoid, fix1.ring
    sigma = {"g": {"v1": "v3", "v2": "v4"}, "gi": {"v3": "v2", "v4": "v1"}}
    A = AlgebraAction(G, R, *_complete_maps(G, R, sigma, {}))
    with pytest.raises(ValidationError, match=re.escape("alpha['g'] o alpha['gi'] != alpha['e2']")):
        function_algebra(regular_gset(G), A)


def test_gset_with_empty_fiber(fix2):
    # points over e1 and e2 only: h acts on the empty fiber over e3
    G, A = fix2.groupoid, fix2.action
    X = validate_gset(
        G, ["x1", "x2"], {"x1": "e1", "x2": "e2"},
        {"g": {"x1": "x2"}, "gi": {"x2": "x1"}, "h": {}},
    )
    M = function_algebra(X, A)
    assert M.space.ideal("e3") == ()
    assert M.apply("h", M.space.one()) == M.space.zero()
    assert invariant_algebra(X, A).dim == 2


def test_map_space_support_constraint(fix1):
    M = function_algebra(regular_gset(fix1.groupoid), fix1.action)
    R = fix1.ring
    with pytest.raises(ValidationError, match="value at 'e1' leaves the fiber ideal"):
        from_values(M.space, {"e1": R.element({"v3": 1})})


def test_invariant_algebra_counts(fix1, fixc2):
    G = fix1.groupoid
    A = fix1.action
    quot_full = quotient_gset(coset_space(G, fix1.wide_subgroupoids["all"]))
    assert len(invariant_algebra(quot_full, A).elements) == 4
    quot_ids = quotient_gset(coset_space(G, fix1.wide_subgroupoids["G0"]))
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
            quotient_gset(coset_space(G, fix.wide_subgroupoids["G0"])),
        ):
            ev = build_eval_gset(invariant_algebra(X, fix.action))
            # the map is a G-map by construction, so bijective is isomorphic
            assert len(ev.gset.carrier) == len(X.carrier)
            assert check_gmap(GMap(X, ev.gset, ev.point_label)).isomorphism


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
    assert base_homs[0].apply(R.one()) == R.unit(E)


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
    fams = transversal_hom_family(R1, A, coset_space(A.groupoid, fix1.wide_subgroupoids["G0"]))
    assert [h.label for h in fams["e2"]] == ["phi_e2", "phi_g"]
    K = A.base_subalgebra()
    famK = transversal_hom_family(K, A, coset_space(A.groupoid, fix1.wide_subgroupoids["all"]))
    assert [h.label for h in famK["e1"]] == ["phi_e1"]


def images_by_target(families):
    """The hom images of each family, by target identity."""
    return {e: [h.images for h in homs] for e, homs in families.items()}


def test_hom_gset_check(fix1, fixc2):
    A = fix1.action
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])

    for B in (R1, K):
        H = stabilizer(B, A)
        families = hom_gset_check(B, A, coset_space(A.groupoid, H))
        rep = two_sided_hom_gset_check(B, A)
        assert rep.ok and rep.transport_consistent and rep.families_strongly_distinct
        assert len(rep.gset.carrier) == sum(map(len, families.values())) == (
            2 if B is K else 4
        )
        assert images_by_target(families) == images_by_target(rep.families)

    A = fixc2.action
    full_c2 = invariants(A, fixc2.wide_subgroupoids["G0"])
    assert two_sided_hom_gset_check(full_c2, A).ok
    assert hom_gset_check(full_c2, A, coset_space(A.groupoid, stabilizer(full_c2, A)))


def test_hom_gset_check_non_invariant(fix1):
    A, R = fix1.action, fix1.ring
    T = subalgebra_closure(
        R, [R.element({"v1": 1})], include=A.base_subalgebra().basis
    )
    rep = two_sided_hom_gset_check(T, A)
    assert not rep.is_invariant_subalgebra and not rep.transport_consistent
    # the transport law needs only that the stabilizer fixes T, so the
    # self-check passes on T too
    hom_gset_check(T, A, coset_space(A.groupoid, stabilizer(T, A)))


def test_hom_gset_check_builds_one_coset_space_and_transports_once():
    # twisted P_2 x C_2 over F_4 and H its C_2 at both objects: B = R^H
    # has H as its stabilizer, four cosets and F_2-dimension four
    A = problem_action(("twisted", 2, 2, 2))
    G = A.groupoid
    H = ("g0_0_0", "g0_0_1", "g1_1_0", "g1_1_1")
    B = invariants(A, H)
    assert stabilizer(B, A) == H
    cs = coset_space(G, H)
    transports = sum(
        1 for g in G.elements for rep in cs.representatives if G.r[rep] == G.d[g]
    )
    with mock.patch.object(A, "apply", wraps=A.apply) as applied:
        families = hom_gset_check(B, A, cs)
    # one beta_l per representative builds phi_l; one beta_g per transport
    assert applied.call_count == (len(cs.representatives) + transports) * B.dim
    assert (len(cs.representatives), transports, B.dim) == (4, 16, 4)
    assert {e: [h.label for h in homs] for e, homs in families.items()} == {
        "g0_0_0": ["phi_g0_0_0", "phi_g0_1_0"], "g1_1_0": ["phi_g1_0_0", "phi_g1_1_0"],
    }
    # strong_subalgebra_check asks for the cosets of B's stabilizer once
    spaces = mock.Mock(wraps=lambda labels: coset_space(G, labels))
    assert strong_subalgebra_check(B, A, lambda _: B, spaces).r_split
    assert spaces.call_args_list == [mock.call(H)]


@pytest.mark.parametrize("source", ["fix1.json", "fixc2.json", ("twisted", 2, 2, 2)], ids=str)
def test_hom_gset_check_catches_corrupted_apply(source):
    # beta_g replaced by zero for the first non-identity g, which is not a
    # representative of G/G: the families are unchanged, and the transport
    # law fails first at g and its one representative l with r l = d g
    A = problem_action(source)
    G = A.groupoid
    g = next(x for x in G.elements if x not in G.identities)
    apply = A.apply

    def corrupted(h, x):
        return A.ring.zero() if h == g else apply(h, x)

    K = invariants(A, G.elements)
    cs = coset_space(G, G.elements)
    assert g not in cs.representatives
    with mock.patch.object(A, "apply", corrupted):
        with pytest.raises(OracleMismatch, match=f"beta_{g} phi_") as err:
            hom_gset_check(K, A, cs)
    assert err.value.witness == (g, cs.representatives[cs.class_of[G.d[g]]])


def non_free_c2_action():
    """C_2 over F_2 swapping the blocks v1 and v2 and fixing v3: a valid
    action that is not free, so R is not beta-strong."""
    G = validate_groupoid(
        ["e", "s"],
        [("e", "e", "e"), ("e", "s", "s"), ("s", "e", "s"), ("s", "s", "e")],
    )
    R = make_ring(make_field(2), ["v1", "v2", "v3"], {"e": ["v1", "v2", "v3"]})
    return action_mod.validate_action(G, R, {"s": {"v1": "v2", "v2": "v1", "v3": "v3"}})


STRONG_SOURCES = [s for s in PROBLEM_SOURCES
                  if isinstance(s, str) or s[1] * s[1] * s[2] <= 20] + ["non-free C_2"]


@pytest.mark.parametrize("source", STRONG_SOURCES, ids=str)
def test_strong_distinctness_is_the_beta_strong_verdict(source):
    # for B = R^H and every wide subgroupoid H: the two-sided reference's
    # strong distinctness is is_beta_strong on B's stabilizer, and
    # hom_gset_check passes and builds the reference's families
    A = non_free_c2_action() if source == "non-free C_2" else problem_action(source)
    G = A.groupoid
    verdicts = {}
    for H in enumerate_wide_subgroupoids(G):
        B = invariants(A, H)
        stab = stabilizer(B, A)
        ref = two_sided_hom_gset_check(B, A)
        assert ref.is_invariant_subalgebra and ref.transport_consistent, H
        assert ref.families_strongly_distinct == is_beta_strong(B, A, stab)[0], H
        families = hom_gset_check(B, A, coset_space(G, stab))
        assert images_by_target(families) == images_by_target(ref.families), H
        verdicts[H] = ref.families_strongly_distinct
    if source == "non-free C_2":
        # R = R^{identities} is not beta-strong: v3 equalises beta_e and beta_s
        assert verdicts == {G.identities: False, G.elements: True}


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
        for labels in distinct_subgroupoids(fix):
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
        quotient_gset(coset_space(G, fix1.wide_subgroupoids["G0"])),
        quotient_gset(coset_space(G, fix1.wide_subgroupoids["all"])),
    ):
        rep = grothendieck_set_check(fix1.action, X)
        assert rep.ok


def test_grothendieck_set_check_builds_the_evaluation_gset_once(fix1):
    # the bijection check and the independent isomorphism search share one
    # evaluation G-set
    G = fix1.groupoid
    calls = []

    def counting(AX):
        calls.append(AX)
        return build_eval_gset(AX)

    for X in (regular_gset(G), quotient_gset(coset_space(G, fix1.wide_subgroupoids["G0"]))):
        calls.clear()
        with mock.patch.object(mapalg, "build_eval_gset", counting):
            rep = grothendieck_set_check(fix1.action, X)
        assert len(calls) == 1 and rep.ok


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


# Compiled alpha and the invariant-functions oracle ------------------------

def small_gsets(G):
    """The regular G-set and the quotient by the whole groupoid."""
    return {"regular": regular_gset(G), "by-all": quotient_gset(coset_space(G, G.elements))}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(PROBLEM_SOURCES), st.sampled_from(["regular", "by-all"]), st.data()
)
def test_compiled_alpha_matches_elementwise_oracle(source, gset, data):
    A = problem_action(source)
    M = function_algebra(small_gsets(A.groupoid)[gset], A)
    space = M.space
    functions = [
        space.embed({slot: s})
        for slot in space.slots
        for s in fp_basis_scalars(space.field)
    ]
    n = len(space.slots)
    for _ in range(3):
        functions.append(tuple(data.draw(
            st.lists(st.sampled_from(space.field.elements()), min_size=n, max_size=n)
        )))
    for g in A.groupoid.elements:
        for f in functions:
            assert M.apply(g, f) == elementwise_alpha(M, g, f)


def test_alpha_fixed_set_matches_bruteforce_oracle():
    compared = 0
    for source in PROBLEM_SOURCES:
        A = problem_action(source)
        for X in small_gsets(A.groupoid).values():
            if A.ring.field.order ** len(MapSpace(X, A.ring).slots) > 1 << 12:
                continue
            M = function_algebra(X, A)
            fixed = fixed_elements(M.space, M._moves.values())
            assert fixed == brute_invariant_functions(X, A), source
            assert fixed == set(invariant_algebra(X, A).elements)
            compared += 1
    assert compared >= 40


def test_invariant_algebra_oracle_catches_corrupted_basis():
    caught = set()
    for source in PROBLEM_SOURCES:
        A = problem_action(source)
        for X in small_gsets(A.groupoid).values():
            space = MapSpace(X, A.ring)
            if space.field.order ** len(space.slots) > 1 << 8:
                continue
            caught |= corrupted_basis_outcomes(
                action_mod, lambda: invariant_algebra(X, A), space
            )
    assert caught == {"drop", "twist"}


# The tensor split against the pairwise oracle -----------------------------

def fp_dim(source):
    A = problem_action(source)
    return len(A.ring.blocks) * A.ring.field.k


SPLIT_SOURCES = FIXTURE_FILES + [
    spec for spec in PAIR_CYCLIC_SPECS if spec[1] ** 2 * spec[2] <= 8 and fp_dim(spec) <= 4
]


def family_variants(family, E, ring):
    """The family itself, one hom with its last image replaced by the unit
    of E (or by zero where it is the unit), the first hom appended once
    more, every hom followed by the Frobenius x -> x^p of R (multiplicative
    but not K-linear where K holds scalars outside F_p) and, in families
    of two or more, the last hom replaced by a copy of the first."""
    hom = family[0]
    unit = ring.unit(E)
    last = ring.zero() if hom.images[-1] == unit else unit
    replaced = HomRecord(hom.source, ring, hom.target_support,
                         hom.images[:-1] + (last,))
    frob = ring.field.frobenius_table(ring.field.p)
    out = {
        "valid": list(family),
        "replaced": [replaced] + list(family[1:]),
        "appended": list(family) + [hom],
        "frobenius": [
            HomRecord(h.source, ring, h.target_support,
                      [tuple(frob[v] for v in img) for img in h.images])
            for h in family
        ],
    }
    if len(family) > 1:
        out["duplicated"] = list(family[:-1]) + [hom]
    return out


def split_families(A):
    """(name, B, family at g) for the evaluation families of A(X) on the
    regular G-set and the transversal families of R and of K."""
    G = A.groupoid
    AX = invariant_algebra(regular_gset(G), A)
    out = [("eval", AX, lambda g: eval_hom_family(AX, g))]
    for name, H in (("R", G.identities), ("K", G.elements)):
        T = invariants(A, H)
        fams = transversal_hom_family(T, A, coset_space(G, make_subgroupoid(G, H)))
        out.append((name, T, lambda g, fams=fams: fams[G.r[g]]))
    return out


@pytest.mark.parametrize("source", SPLIT_SOURCES, ids=str)
def test_tensor_split_matches_pairwise_oracle(source):
    A = problem_action(source)
    K = A.base_subalgebra()
    verdicts = set()
    for name, B, family_at in split_families(A):
        for g in A.groupoid.elements:
            E = A.support[g]
            for kind, fam in family_variants(family_at(g), E, A.ring).items():
                rep = tensor_split_check(E, B, K, fam, A)
                assert rep == pairwise_tensor_split_check(E, B, K, fam, A), (name, g, kind)
                verdicts.add((kind, rep.ok))
    assert ("valid", True) in verdicts
    assert ("appended", False) in verdicts
    assert any(not ok for kind, ok in verdicts if kind != "valid")


@pytest.mark.parametrize("source", SPLIT_SOURCES, ids=str)
def test_components_match_is_k_linearity(source):
    # M(1_E tensor b) is L(b) on E, L the K-linear map equal to f on each
    # block's K·u-basis of B, so the components match exactly when every
    # f_i is K-linear into E
    A = problem_action(source)
    R, K = A.ring, A.base_subalgebra()
    for name, B, family_at in split_families(A):
        for g in A.groupoid.elements:
            E = A.support[g]
            slot_ids = [R.slot_index(b) for b in E]
            for kind, fam in family_variants(family_at(g), E, R).items():
                k_linear = all(
                    hom.apply(B.space.k_scale(c, y))[i] == R.mul(c, hom.apply(y))[i]
                    for hom in fam for c in K.basis for y in B.basis for i in slot_ids
                )
                rep = tensor_split_check(E, B, K, fam, A)
                assert rep.components_match == k_linear, (name, g, kind)


def test_split_verdicts_are_independent():
    # multiplicativity is decided apart from the components: each pair of
    # the two verdicts occurs outside the valid families
    verdicts = set()
    for source in SPLIT_SOURCES:
        A = problem_action(source)
        K = A.base_subalgebra()
        for _, B, family_at in split_families(A):
            for g in A.groupoid.elements:
                E = A.support[g]
                for kind, fam in family_variants(family_at(g), E, A.ring).items():
                    if kind != "valid":
                        rep = tensor_split_check(E, B, K, fam, A)
                        verdicts.add((rep.multiplicative, rep.components_match))
    assert verdicts == set(itertools.product((True, False), repeat=2))


@functools.lru_cache(maxsize=None)
def _split_setting(source):
    A = problem_action(source)
    return A, A.base_subalgebra(), split_families(A)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SPLIT_SOURCES),
    st.sampled_from(["valid", "replaced", "frobenius"]),
    st.data(),
)
def test_split_matrix_is_x_times_the_k_linearisation(source, kind, data):
    # M(x tensor y) = x L(y) on E for x in E and y in B, M read off the
    # columns at the coordinates of x tensor y and L_i(z) the sum over
    # blocks u and basis vectors n of lift(c_n(z u)) f_i(n), which is
    # K-linear whether or not the f_i are.  Only the twisted F_4 source
    # has a K-block of degree above 1, hence the many examples
    A, K, families = _split_setting(source)
    R, F = A.ring, A.ring.field
    _, B, family_at = data.draw(st.sampled_from(families))
    g = data.draw(st.sampled_from(A.groupoid.elements))
    E = A.support[g]
    fam = family_variants(family_at(g), E, R)[kind]
    tens = TensorOverK(R, B.space, K, Submodule(R, ideal_fp_basis(R, E)).basis, B.basis)
    slot_ids = [R.slot_index(b) for b in E]

    def on_E(members):
        return F.flatten(m[i] for m in members for i in slot_ids)

    x = R.embed({b: data.draw(st.sampled_from(F.elements())) for b in E})
    coeffs = data.draw(st.lists(st.integers(0, F.p - 1),
                                min_size=len(B.basis), max_size=len(B.basis)))
    y = B.space.int_combine(coeffs, B.basis)
    M = [0] * (len(fam) * len(E) * F.k)
    for c, (xb, yb) in zip(unmemoised_pure(tens, x, y), tens.basis_vectors()):
        col = on_E([R.mul(xb, hom.apply(yb)) for hom in fam])
        M = [(m + c * v) % F.p for m, v in zip(M, col)]
    L = [R.zero() for _ in fam]
    for part, blk in zip(tens.n_parts, tens.blocks):
        for c, n in zip(part.decompose(B.space.k_scale(blk.u, y)), part.basis):
            L = [R.add(acc, R.mul(blk.lift(R, c), hom.apply(n))) for acc, hom in zip(L, fam)]
    assert tuple(M) == on_E([R.mul(x, l) for l in L])


# fix2 has an unfaithful ideal, so grothendieck_set_check refuses it
@pytest.mark.parametrize("source", [s for s in SPLIT_SOURCES if s != "fix2.json"], ids=str)
def test_split_reports_per_target_match_pairwise_oracle(source):
    A = problem_action(source)
    G, K = A.groupoid, A.base_subalgebra()
    X = regular_gset(G)
    AX = invariant_algebra(X, A)
    splits = grothendieck_set_check(A, X).splits
    assert list(splits) == list(G.elements)
    for g in G.elements:
        assert splits[g] == pairwise_tensor_split_check(
            A.support[g], AX, K, eval_hom_family(AX, g), A
        ), g
    for H in (G.identities, G.elements):
        T = invariants(A, H)
        report = strong_subalgebra_check(
            T, A, lambda H: invariants(A, H), lambda H: coset_space(G, H)
        )
        fams = transversal_hom_family(
            T, A, coset_space(G, make_subgroupoid(G, report.stabilizer_labels))
        )
        assert list(report.splits) == list(G.elements)
        for g in G.elements:
            assert report.splits[g] == pairwise_tensor_split_check(
                A.support[g], T, K, fams[G.r[g]], A
            ), (H, g)


def test_splits_per_target_runs_once_per_identity(fix1):
    A = fix1.action
    calls = []

    def counting(E, B, K, family, A, blocks=None):
        calls.append((E, family))
        return len(calls)

    with mock.patch.object(mapalg, "tensor_split_check", counting):
        splits = splits_per_target(A, A.ring, A.base_subalgebra(), lambda e: [e])
    assert calls == [(A.support["e1"], ["e1"]), (A.support["e2"], ["e2"])]
    assert splits == {"e1": 1, "e2": 2, "g": 2, "gi": 1}
