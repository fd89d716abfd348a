
import pytest

from conftest import brute_subalgebras
from gpdgalois.action import Submodule, invariants, subalgebra_closure
from gpdgalois.blockring import ideal_fp_basis
from gpdgalois.errors import HypothesisFailure, NotAModule
from gpdgalois.galois import (
    associated_idempotent,
    coords_from_separability,
    dual_basis_solve,
    freeness_check,
    galois_correspondence,
    is_beta_strong,
    pairwise_strongly_distinct,
    rank_profile,
    separability_idempotent,
    separability_idempotent_from_structure,
    strong_subalgebra_check,
    strongly_distinct,
    tri_equivalence_check,
)
from gpdgalois.groupoid import regular_gset
from gpdgalois.mapalg import (
    eval_hom_family,
    hom_set,
    invariant_algebra,
    transversal_hom_family,
)
from gpdgalois.scalar import make_field


@pytest.fixture(scope="module")
def frame(fix1):
    A = fix1.action
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    fams = transversal_hom_family(R1, A, fix1.wide_subgroupoids["G0"])
    return A, fix1.ring, K, R1, fams["e2"]


def test_transversal_family_strongly_distinct(frame):
    A, R, K, R1, family = frame
    ok, _ = strongly_distinct(family[0], family[1])
    assert ok


def test_equal_homs_not_strongly_distinct(frame):
    A, R, K, R1, family = frame
    ok, witness = strongly_distinct(family[0], family[0])
    assert not ok
    # any equalizing idempotent certifies; the first in block order is v3
    assert witness == R.element({"v3": 1})


def test_evaluations_strongly_distinct(fix1):
    A = fix1.action
    X = regular_gset(fix1.groupoid)
    AX = invariant_algebra(X, A)
    fam = eval_hom_family(AX, "e1")
    ok, _ = pairwise_strongly_distinct(fam)
    assert ok


def test_dual_basis_certificates(frame):
    A, R, K, R1, family = frame
    certs = dual_basis_solve(family)
    assert certs is not None and len(certs) == 2
    # entries stay within the block span of the target ideal
    for pairs in certs:
        for x, _ in pairs:
            assert set(R.support_of(x)) <= {"v3", "v4"}


def test_dual_basis_trivial_base(fix1):
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    single = transversal_hom_family(K, A, fix1.wide_subgroupoids["all"])["e2"]
    certs = dual_basis_solve(single)
    assert certs is not None
    # the classical certificate x = 1_v, y = 1 also verifies directly
    unit = R.unit(A.support["g"].support)
    total = R.zero()
    for x, y in [(unit, R.one())]:
        total = R.add(total, R.mul(x, single[0].apply(y)))
    assert total == unit


def test_dual_basis_duplicate_inconsistent(frame):
    A, R, K, R1, family = frame
    assert dual_basis_solve([family[0], family[0]]) is None


def test_freeness(frame):
    A, R, K, R1, family = frame
    assert freeness_check(family)
    assert not freeness_check([family[0], family[0]])
    assert freeness_check([])


def test_tri_equivalence_instances(fix1, fixc2, fixf4):
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    fam = transversal_hom_family(R1, A, fix1.wide_subgroupoids["G0"])["e2"]
    full = hom_set(R1, K, A.support["g"], R)
    AX = invariant_algebra(regular_gset(fix1.groupoid), A)
    evals = eval_hom_family(AX, "g")
    singleK = transversal_hom_family(K, A, fix1.wide_subgroupoids["all"])["e1"]

    Ac = fixc2.action
    Kc = Ac.base_subalgebra()
    Rc = invariants(Ac, fixc2.wide_subgroupoids["G0"])
    famc = transversal_hom_family(Rc, Ac, fixc2.wide_subgroupoids["G0"])["e"]

    Af = fixf4.action
    Kf = Af.base_subalgebra()
    Rf = invariants(Af, fixf4.wide_subgroupoids["G0"])
    famf = hom_set(Rf, Kf, Af.support["a"], fixf4.ring)
    assert len(famf) == 2  # identity and the field automorphism

    instances = [
        (fam, K, True),
        (full, K, False),
        ([fam[0], fam[0]], K, False),
        (singleK, K, True),
        (famc, Kc, True),
        (famf, Kf, True),
        (evals, K, True),
    ]
    assert len(instances) >= 6
    for family, base, expected in instances:
        report = tri_equivalence_check(family, base)
        assert report.agree
        assert report.values == (expected,) * 3


def test_rank_profiles(fix1, fix2):
    A = fix1.action
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    prof = rank_profile(R1, K)
    assert prof.ranks == (2, 2) and prof.constant and prof.faithful
    assert rank_profile(K, K).ranks == (1, 1)

    A2 = fix2.action
    K2 = A2.base_subalgebra()
    R2 = invariants(A2, fix2.wide_subgroupoids["G0"])
    assert rank_profile(R2, K2).ranks == (2, 2, 2)
    Eh = Submodule(fix2.ring, ideal_fp_basis(fix2.ring, fix2.ring.ideal("e3").support))
    prof_h = rank_profile(Eh, K2)
    assert prof_h.ranks == (0, 0, 2) and not prof_h.faithful


def test_rank_profile_rejects_non_module(fix1):
    R = fix1.ring
    K = fix1.action.base_subalgebra()
    T = Submodule(R, [R.one(), R.element({"v1": 1})])
    with pytest.raises(NotAModule):
        rank_profile(T, K)


def test_quartic_base_block_rank(fixf4swap):
    A = fixf4swap.action
    K = A.base_subalgebra()
    full = invariants(A, fixf4swap.wide_subgroupoids["G0"])
    prof = rank_profile(full, K)
    assert prof.ranks == (2,) and prof.constant  # one quartic base block


def test_separability_idempotent_values(frame):
    A, R, K, R1, _ = frame
    sep = separability_idempotent(R1, K)
    assert set(sep.pairs) == {(R.unit([b]), R.unit([b])) for b in R.blocks}
    sepK = separability_idempotent(K, K)
    total = R.zero()
    for x, y in sepK.pairs:
        total = R.add(total, R.mul(x, y))
    assert total == R.one()


def test_separability_structure_solver_nilpotent_case():
    # F_2[x]/(x^2) presented by structure constants: 1*1=1, 1*x=x, x*x=0
    F = make_field(2)
    one, zero = F.one, F.zero
    mult = [
        [(one, zero), (zero, one)],
        [(zero, one), (zero, zero)],
    ]
    unit = (one, zero)
    assert separability_idempotent_from_structure(F, mult, unit) is None
    # nilpotency oracle: the span contains x with x*x = 0
    assert mult[1][1] == (zero, zero)


def test_separability_structure_solver_split_case():
    # F_2 x F_2 with idempotent basis: the solver finds u1@u1 + u2@u2
    F = make_field(2)
    one, zero = F.one, F.zero
    mult = [
        [(one, zero), (zero, zero)],
        [(zero, zero), (zero, one)],
    ]
    unit = (one, one)
    coeffs = separability_idempotent_from_structure(F, mult, unit)
    assert coeffs == [[one, zero], [zero, one]]


def test_associated_idempotents_projection_family(fix1):
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    base = subalgebra_closure(R, [])
    u1 = R.element({"v1": 1, "v3": 1})
    u2 = R.element({"v2": 1, "v4": 1})
    proj1 = {u1: R.one(), u2: R.zero()}
    proj2 = {u1: R.zero(), u2: R.one()}
    pi1 = associated_idempotent(K, proj1, base)
    pi2 = associated_idempotent(K, proj2, base)
    assert pi1 == u1 and pi2 == u2
    assert R.mul(pi1, pi2) == R.zero()
    # f_i(pi_j) is the identity matrix
    assert proj1[u1] == R.one() and proj2[u2] == R.one()


def test_associated_idempotent_identity_map(fix1):
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    pi = associated_idempotent(K, {b: b for b in K.basis}, K)
    assert pi == R.one()


def test_associated_idempotent_rejects_non_hom(fix1):
    from gpdgalois.errors import InvalidInput

    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    base = subalgebra_closure(R, [])
    u1, u2 = K.basis
    with pytest.raises(InvalidInput):
        associated_idempotent(K, {u1: R.one(), u2: R.one()}, base)


def test_separability_transport_full_invariants(frame):
    # stabilizer is the identity set: the support pattern matches the
    # classical expectation and the dual maps reconstruct every element
    A, R, K, R1, _ = frame
    rep = coords_from_separability(R1, A)
    assert rep.separable and rep.beta_strong
    assert rep.stabilizer_labels == ("e1", "e2")
    assert rep.all_idempotent and rep.unit_on_identities
    assert rep.zero_outside_stabilizer and rep.unit_on_stabilizer
    assert rep.zero_outside_identities
    assert rep.reconstruction_exact and rep.reconstruction_formula


def test_separability_transport_base_algebra(frame):
    # the stabilizer of the base is the whole groupoid, so the transported
    # idempotents are the ideal units everywhere and the classical pattern
    # does not apply
    A, R, K, R1, _ = frame
    rep = coords_from_separability(K, A)
    assert rep.separable and rep.beta_strong
    assert rep.stabilizer_labels == ("e1", "e2", "g", "gi")
    assert rep.all_idempotent and rep.unit_on_identities
    assert rep.zero_outside_stabilizer and rep.unit_on_stabilizer
    assert not rep.zero_outside_identities
    assert rep.values["g"] == R.unit(A.support["g"].support)
    assert not rep.reconstruction_exact
    assert rep.reconstruction_formula


def test_beta_strong_values(fix1):
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    assert is_beta_strong(K, A)[0]
    assert is_beta_strong(R1, A)[0]
    T = subalgebra_closure(R, [R.element({"v1": 1})], include=K.basis)
    ok, witness = is_beta_strong(T, A)
    assert not ok
    g, h, pi = witness
    # oracle: the witness idempotent really equalizes the transported copies
    assert all(
        R.mul(A.apply(g, t, truncate=True), pi)
        == R.mul(A.apply(h, t, truncate=True), pi)
        for t in T.basis
    )


def test_strong_subalgebra_equivalence(fix1):
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    for T in (K, R1):
        rep = strong_subalgebra_check(T, A)
        assert rep.separable and rep.beta_strong
        assert rep.equals_invariants_of_stabilizer
        assert rep.equivalence_holds and rep.r_split
    T = subalgebra_closure(R, [R.element({"v1": 1})], include=K.basis)
    rep = strong_subalgebra_check(T, A)
    assert not rep.beta_strong
    assert not rep.equals_invariants_of_stabilizer
    assert rep.equivalence_holds


def test_correspondence_fixture_one(fix1):
    table = galois_correspondence(fix1.action)
    assert table.ok
    assert [(r.subgroupoid, len(r.subalgebra.elements)) for r in table.rows] == [
        (("e1", "e2"), 16),
        (("e1", "e2", "g", "gi"), 4),
    ]
    assert all(r.separable and r.beta_strong and r.r_split for r in table.rows)


def test_correspondence_group_case(fixc2):
    table = galois_correspondence(fixc2.action)
    assert table.ok
    assert [len(r.subalgebra.elements) for r in table.rows] == [4, 2]


def test_correspondence_quartic(fixf4):
    table = galois_correspondence(fixf4.action)
    assert table.ok
    assert [len(r.subalgebra.elements) for r in table.rows] == [4, 2]


def test_correspondence_hypothesis_failure(fix2):
    with pytest.raises(HypothesisFailure) as err:
        galois_correspondence(fix2.action)
    assert err.value.witness[1] == "e3"


def test_strong_subalgebras_match_bruteforce(fix1, fixc2, fixf4):
    # oracle: enumerate every subalgebra of the small rings directly
    for fix in (fix1, fixc2, fixf4):
        A, R = fix.action, fix.ring
        K = A.base_subalgebra()
        expected = []
        for members in brute_subalgebras(R, K):
            T = subalgebra_closure(R, list(members))
            sep = separability_idempotent(T, K) is not None
            strong = is_beta_strong(T, A)[0]
            if sep and strong:
                expected.append(T.key())
        table = galois_correspondence(A)
        assert sorted(expected) == sorted(
            T.key() for T in table.strong_subalgebras
        )


def test_family_bound_by_rank(fix1, fixf4):
    # strongly distinct families never exceed the smallest block rank
    for fix, g in ((fix1, "g"), (fixf4, "a")):
        A, R = fix.action, fix.ring
        K = A.base_subalgebra()
        full = invariants(A, fix.wide_subgroupoids["G0"])
        fam = transversal_hom_family(full, A, fix.wide_subgroupoids["G0"])
        for e, members in fam.items():
            if not members:
                continue
            ok, _ = pairwise_strongly_distinct(members)
            assert ok
            assert len(members) <= min(rank_profile(full, K).ranks)


def test_rank_family_split_agree_on_galois_fixtures(fix1, fixc2, fixf4):
    # the three faces of the splitting condition evaluate identically on
    # evaluation families over Galois actions with faithful ideals
    from gpdgalois.mapalg import tensor_split_check

    for fix in (fix1, fixc2, fixf4):
        A = fix.action
        K = A.base_subalgebra()
        X = regular_gset(fix.groupoid)
        AX = invariant_algebra(X, A)
        prof = rank_profile(AX, K)
        for g in fix.groupoid.elements:
            fam = eval_hom_family(AX, g)
            sd, _ = pairwise_strongly_distinct(fam)
            split = tensor_split_check(A.support[g], AX, K, fam, A).ok
            counts = prof.constant and prof.value == len(fam)
            assert sd and split and counts


def test_strong_from_distinct_quotient_families(fix1, fixc2):
    # pairwise strongly distinct coset families force beta-strength
    for fix in (fix1, fixc2):
        A = fix.action
        for labels in fix.wide_subgroupoids.values():
            T = invariants(A, labels)
            fams = transversal_hom_family(T, A, labels)
            if all(pairwise_strongly_distinct(f)[0] for f in fams.values()):
                assert is_beta_strong(T, A)[0]
