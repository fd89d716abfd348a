
import functools
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    PROBLEM_SOURCES,
    brute_subalgebras,
    ORBIT_DOCS,
    corrupted_basis_outcomes,
    distinct_subgroupoids,
    field_sub,
    idempotent_is_beta_strong,
    idempotent_strongly_distinct,
    doc_action,
    partition_correspondence,
    problem_action,
    unmemoised_pure,
    unpruned_partition_subalgebras,
)
from gpdgalois import action as action_mod
from gpdgalois import galois as galois_mod
from gpdgalois import omega as omega_mod
from gpdgalois.action import (
    Subalgebra,
    Submodule,
    invariants,
    stabilizer,
    subalgebra_closure,
    twisted_invariant_basis,
)
from gpdgalois.blockring import BRUTE_FORCE_BOUND, ideal_fp_basis, is_faithful_ideal
from gpdgalois.errors import (
    HypothesisFailure,
    OracleMismatch,
    SizeBoundExceeded,
    ValidationError,
)
from gpdgalois.galois import (
    galois_correspondence,
    is_beta_strong,
    inverse_trace_form,
    separability_idempotent,
    strong_subalgebra_check,
)
from gpdgalois.groupoid import coset_space, enumerate_wide_subgroupoids, regular_gset
from gpdgalois.mapalg import (
    HomRecord,
    eval_hom_family,
    invariant_algebra,
    tensor_split_check,
    transversal_hom_family,
)
from gpdgalois.scalar import FpSpan, fp_basis_scalars, make_field, solve_linear
from gpdgalois.tensor import TensorOverK, kblocks, rank_profile
import theorems
from theorems import (
    associated_idempotent,
    coords_from_separability,
    dual_basis_solve,
    freeness_check,
    hom_set,
    listed_faithful_ideal,
    listed_primitive_idempotents,
    pairwise_strongly_distinct,
    per_column_inverse_trace_form,
    reference_separability_pairs,
    separability_idempotent_from_structure,
    strongly_distinct,
    tri_equivalence_check,
)


@pytest.fixture(scope="module")
def frame(fix1):
    A = fix1.action
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    fams = transversal_hom_family(R1, A, coset_space(fix1.groupoid, fix1.wide_subgroupoids["G0"]))
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
            assert {s for s, v in zip(R.slots, x) if v != R.field.zero} <= {"v3", "v4"}


def test_dual_basis_trivial_base(fix1):
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    single = transversal_hom_family(
        K, A, coset_space(fix1.groupoid, fix1.wide_subgroupoids["all"])
    )["e2"]
    certs = dual_basis_solve(single)
    assert certs is not None
    # the classical certificate x = 1_v, y = 1 also verifies directly
    unit = R.unit(A.support["g"])
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


def brute_free(family):
    """Oracle: no nonzero coefficient tuple c in E^|family|, E the target
    ideal, has sum c_u u vanishing on the source basis."""
    R = family[0].ring
    support = family[0].target_support
    ideal = [
        R.embed(dict(zip(support, vals)))
        for vals in itertools.product(R.field.elements(), repeat=len(support))
    ]
    for cs in itertools.product(ideal, repeat=len(family)):
        if all(c == R.zero() for c in cs):
            continue
        if all(
            functools.reduce(R.add, (R.mul(c, u.images[i]) for c, u in zip(cs, family)))
            == R.zero()
            for i in range(len(family[0].source.basis))
        ):
            return False
    return True


def test_freeness_and_dual_basis_match_brute_force(fix1, fixc2, fixf4):
    """freeness_check and dual_basis_solve against brute_free on every
    nonempty subfamily of small F_2 and F_4 frames, and on each frame with
    a member repeated.  A dual basis exists exactly when the family is
    free: both questions split over the slots s of E, and in slot s the
    dual basis asks for a left inverse of the matrix (u(y_i)[s])_{i,u},
    which exists exactly when its columns are independent, which is
    freeness in that slot."""
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    Ac = fixc2.action
    Rc = invariants(Ac, fixc2.wide_subgroupoids["G0"])
    Af = fixf4.action
    Rf = invariants(Af, fixf4.wide_subgroupoids["G0"])
    frames = [
        hom_set(R1, K, A.support["g"], R),
        eval_hom_family(invariant_algebra(regular_gset(fix1.groupoid), A), "g"),
        transversal_hom_family(
            K, A, coset_space(fix1.groupoid, fix1.wide_subgroupoids["all"])
        )["e1"],
        transversal_hom_family(
            Rc, Ac, coset_space(fixc2.groupoid, fixc2.wide_subgroupoids["G0"])
        )["e"],
        hom_set(Rf, Af.base_subalgebra(), Af.support["a"], fixf4.ring),
    ]
    families = [fam + [fam[0]] for fam in frames] + [
        list(sub)
        for fam in frames
        for size in range(1, len(fam) + 1)
        for sub in itertools.combinations(fam, size)
    ]
    verdicts = set()
    for family in families:
        free = brute_free(family)
        assert freeness_check(family) == free
        assert (dual_basis_solve(family) is not None) == free
        verdicts.add((family[0].ring.field.k, free))
    assert verdicts == {(1, True), (1, False), (2, True), (2, False)}


def test_tri_equivalence_instances(fix1, fixc2, fixf4):
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    fam = transversal_hom_family(
        R1, A, coset_space(fix1.groupoid, fix1.wide_subgroupoids["G0"])
    )["e2"]
    full = hom_set(R1, K, A.support["g"], R)
    AX = invariant_algebra(regular_gset(fix1.groupoid), A)
    evals = eval_hom_family(AX, "g")
    singleK = transversal_hom_family(
        K, A, coset_space(fix1.groupoid, fix1.wide_subgroupoids["all"])
    )["e1"]

    Ac = fixc2.action
    Kc = Ac.base_subalgebra()
    Rc = invariants(Ac, fixc2.wide_subgroupoids["G0"])
    famc = transversal_hom_family(
        Rc, Ac, coset_space(fixc2.groupoid, fixc2.wide_subgroupoids["G0"])
    )["e"]

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
    Eh = Submodule(fix2.ring, ideal_fp_basis(fix2.ring, fix2.ring.ideal("e3")))
    prof_h = rank_profile(Eh, K2)
    assert prof_h.ranks == (0, 0, 2) and not prof_h.faithful


def test_rank_profile_rejects_non_module(fix1):
    R = fix1.ring
    K = fix1.action.base_subalgebra()
    T = Submodule(R, [R.one(), R.element({"v1": 1})])
    with pytest.raises(ValidationError, match="module not closed under base multiplication"):
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
    assert set(sep) == {(R.unit([b]), R.unit([b])) for b in R.blocks}
    sepK = separability_idempotent(K, K)
    total = R.zero()
    for x, y in sepK:
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
    assert inverse_trace_form(F, mult, fp_basis_scalars(F)) is None
    # nilpotency oracle: the span contains x with x*x = 0
    assert mult[1][1] == (zero, zero)


def test_separability_structure_solver_split_case():
    # F_2 x F_2 with idempotent basis: the trace form is the identity, so
    # the idempotent is u1@u1 + u2@u2
    F = make_field(2)
    one, zero = F.one, F.zero
    mult = [
        [(one, zero), (zero, zero)],
        [(zero, zero), (zero, one)],
    ]
    coeffs = inverse_trace_form(F, mult, fp_basis_scalars(F))
    assert coeffs == [[one, zero], [zero, one]]


ALGEBRA_FIELDS = [make_field(2), make_field(3), make_field(2, 2, [1, 1, 1])]


def _mulmod(F, a, b, f):
    """a * b mod f for polynomials over F, coefficients lowest first; f is
    monic of degree d and a, b have d coefficients."""
    d = len(f) - 1
    prod = [F.zero] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = F.add(prod[i + j], F.mul(x, y))
    for top in range(len(prod) - 1, d - 1, -1):
        c = prod[top]
        for i, fi in enumerate(f):
            prod[top - d + i] = field_sub(F, prod[top - d + i], F.mul(c, fi))
    return prod[:d]


@st.composite
def commutative_algebras(draw):
    """(F, mult, unit, squared) for a product of F[x]/(f), f monic of
    degree at most 3 over F_2, F_3 or F_4, at most 5 dimensions in all,
    presented in a random basis.  Some factors are drawn as squares
    (x - a)^2 or (x - a)^2 (x - b); squared says whether any was."""
    F = draw(st.sampled_from(ALGEBRA_FIELDS))
    scalar = st.sampled_from(F.elements())
    factors, squared = [], False
    while not factors or draw(st.booleans()):
        room = 5 - sum(len(f) - 1 for f in factors)
        if room < 1:
            break
        if room >= 2 and draw(st.integers(0, 3)) == 0:
            a = draw(scalar)
            f = [F.mul(a, a), field_sub(F, F.zero, F.add(a, a)), F.one]  # (x - a)^2
            if room >= 3 and draw(st.booleans()):
                b = draw(scalar)  # times (x - b)
                f = [field_sub(F, hi, F.mul(b, lo))
                     for hi, lo in zip([F.zero] + f, f + [F.zero])]
            squared = True
        else:
            d = draw(st.integers(1, min(3, room)))
            f = [draw(scalar) for _ in range(d)] + [F.one]
        factors.append(f)
    # the standard basis: x^k in each factor, factor by factor
    std, offset = [], 0
    n = sum(len(f) - 1 for f in factors)
    for f in factors:
        d = len(f) - 1
        for k in range(d):
            row = []
            for l in range(n):
                vec = [F.zero] * n
                if offset <= l < offset + d:
                    xk = [F.one if i == k else F.zero for i in range(d)]
                    xl = [F.one if i == l - offset else F.zero for i in range(d)]
                    vec[offset:offset + d] = _mulmod(F, xk, xl, f)
                row.append(vec)
            std.append(row)
        offset += d
    unit_std = [F.zero] * n
    offset = 0
    for f in factors:
        unit_std[offset] = F.one
        offset += len(f) - 1
    # b_i = sum_k P[i][k] e_k with P = L U, L unit lower and U upper
    # triangular with a nonzero diagonal, so P is invertible
    nonzero = st.sampled_from(F.elements()[1:])
    lower = [[F.one if i == k else draw(scalar) if k < i else F.zero
              for k in range(n)] for i in range(n)]
    upper = [[draw(nonzero) if i == k else draw(scalar) if k > i else F.zero
              for k in range(n)] for i in range(n)]
    P = [[functools.reduce(F.add, (F.mul(lower[i][m], upper[m][k]) for m in range(n)))
          for k in range(n)] for i in range(n)]
    PT = [[P[r][k] for r in range(n)] for k in range(n)]

    def in_new_basis(vec):
        return solve_linear(F, PT, [vec], fp_basis_scalars(F))[0]

    def std_mul(x, y):
        out = [F.zero] * n
        for k, xk in enumerate(x):
            for l, yl in enumerate(y):
                c = F.mul(xk, yl)
                out = [F.add(o, F.mul(c, s)) for o, s in zip(out, std[k][l])]
        return out

    mult = [[tuple(in_new_basis(std_mul(P[i], P[j]))) for j in range(n)]
            for i in range(n)]
    return F, mult, tuple(in_new_basis(unit_std)), squared


@settings(max_examples=150, deadline=None)
@given(commutative_algebras())
def test_inverse_trace_form_matches_the_separability_system(algebra):
    # the inverse Gram matrix of the trace form is the solution of the
    # n^2-unknown defining system, and None exactly when that system is
    # inconsistent; a square factor is never separable
    F, mult, unit, squared = algebra
    got = inverse_trace_form(F, mult, fp_basis_scalars(F))
    assert got == separability_idempotent_from_structure(F, mult, unit)
    if squared:
        assert got is None


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


def test_associated_idempotent_dependent_column_is_oracle_mismatch(fix1):
    # a consistent system has a unique solution (associated_idempotent's
    # docstring), so a solve that reports a dependent column is a library
    # fault, not an input without a unique idempotent
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    base = subalgebra_closure(R, [])
    u1 = R.element({"v1": 1, "v3": 1})
    u2 = R.element({"v2": 1, "v4": 1})
    proj = {u1: R.one(), u2: R.zero()}

    class LastColumnDependent(FpSpan):
        def insert(self, vec):
            return super().insert(vec) and self.count < len(K.basis)

    with mock.patch.object(theorems, "FpSpan", LastColumnDependent):
        with pytest.raises(OracleMismatch):
            associated_idempotent(K, proj, base)


def test_associated_idempotent_rejects_non_hom(fix1):
    from gpdgalois.errors import InvalidInput

    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    base = subalgebra_closure(R, [])
    u1, u2 = K.basis
    with pytest.raises(InvalidInput, match="f is not unital"):
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
    assert rep.values["g"] == R.unit(A.support["g"])
    assert not rep.reconstruction_exact
    assert rep.reconstruction_formula


def test_beta_strong_values(fix1):
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()
    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    assert is_beta_strong(K, A, stabilizer(K, A))[0]
    assert is_beta_strong(R1, A, stabilizer(R1, A))[0]
    T = subalgebra_closure(R, [R.element({"v1": 1})], include=K.basis)
    ok, witness = is_beta_strong(T, A, stabilizer(T, A))
    assert not ok
    g, h, pi = witness
    # oracle: the witness idempotent really equalizes the transported copies
    assert all(R.mul(A.apply(g, t), pi) == R.mul(A.apply(h, t), pi) for t in T.basis)


def test_strong_subalgebra_equivalence(fix1):
    A, R = fix1.action, fix1.ring
    K = A.base_subalgebra()

    def cosets_of(H):
        return coset_space(A.groupoid, H)

    R1 = invariants(A, fix1.wide_subgroupoids["G0"])
    for T in (K, R1):
        rep = strong_subalgebra_check(T, A, lambda H: invariants(A, H), cosets_of)
        assert rep.separable and rep.beta_strong
        assert rep.equals_invariants_of_stabilizer
        assert (rep.separable and rep.beta_strong) == rep.equals_invariants_of_stabilizer
        assert rep.r_split
    T = subalgebra_closure(R, [R.element({"v1": 1})], include=K.basis)
    rep = strong_subalgebra_check(T, A, lambda H: invariants(A, H), cosets_of)
    assert not rep.beta_strong
    assert not rep.equals_invariants_of_stabilizer
    assert (rep.separable and rep.beta_strong) == rep.equals_invariants_of_stabilizer


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
            strong = is_beta_strong(T, A, stabilizer(T, A))[0]
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
        fam = transversal_hom_family(full, A, coset_space(A.groupoid, fix.wide_subgroupoids["G0"]))
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
            counts = prof.constant and prof.ranks[:1] == (len(fam),)
            assert sd and split and counts


def test_strong_from_distinct_quotient_families(fix1, fixc2):
    # pairwise strongly distinct coset families force beta-strength
    for fix in (fix1, fixc2):
        A = fix.action
        for labels in distinct_subgroupoids(fix):
            T = invariants(A, labels)
            fams = transversal_hom_family(T, A, coset_space(A.groupoid, labels))
            if all(pairwise_strongly_distinct(f)[0] for f in fams.values()):
                assert is_beta_strong(T, A, stabilizer(T, A))[0]


def _candidate_subalgebras(A):
    """Subalgebras to test on: the closures over K of at most three
    F_p-basis vectors of R, each subalgebra once."""
    R, K = A.ring, A.base_subalgebra()
    family = ideal_fp_basis(R, R.blocks)
    seen = {}
    for size in range(4):
        for combo in itertools.combinations(family, size):
            T = subalgebra_closure(R, combo, include=K.basis)
            seen.setdefault(T.key(), T)
    return list(seen.values())


def _small(source):
    """A fixture, or a generated problem with |G| <= 16 and at most 8
    F_p-dimensions of blocks."""
    if isinstance(source, str):
        return True
    family, n, m, k = source
    return n * n * m <= 16 and (n if family == "frobenius" else n * m) * k <= 8


EQUALISER_SOURCES = [s for s in PROBLEM_SOURCES if _small(s)]


@pytest.mark.parametrize("source", EQUALISER_SOURCES, ids=str)
def test_single_block_scan_matches_idempotent_oracle(source):
    # every candidate subalgebra T: is_beta_strong, and strongly_distinct on
    # every pair of transports t -> beta_g(t) with the same target
    A = problem_action(source)
    G, R = A.groupoid, A.ring
    for T in _candidate_subalgebras(A):
        H = stabilizer(T, A)
        assert is_beta_strong(T, A, H) == idempotent_is_beta_strong(T, A, H)
        homs = [
            HomRecord(T, R, A.support[g], [A.apply(g, t) for t in T.basis])
            for g in G.elements
        ]
        for f, h in itertools.product(homs, repeat=2):
            if f.target_support == h.target_support:
                assert strongly_distinct(f, h) == idempotent_strongly_distinct(f, h)


def _separability_candidates(A):
    """The invariants of every wide subgroupoid when |G| is within the
    default bound of enumerate_wide_subgroupoids (none otherwise), then
    the closures over K of no, one and two F_p-basis vectors of R; each
    subalgebra once, in that order.  The invariants are the structural
    basis that invariants() builds, without its brute-force cross-check,
    which the invariants tests run."""
    R, K = A.ring, A.base_subalgebra()
    seen = {}
    try:
        for H in enumerate_wide_subgroupoids(A.groupoid):
            edges = [(b, A.sigma[h][b], A.frob[h][b])
                     for h in H for b in A.source_ideal(h)]
            T = Subalgebra(R, [R.embed(v) for v in
                               twisted_invariant_basis(R.field, R.blocks, edges)])
            seen.setdefault(T.key(), T)
    except SizeBoundExceeded:
        pass
    family = ideal_fp_basis(R, R.blocks)
    for size in range(3):
        for combo in itertools.combinations(family, size):
            T = subalgebra_closure(R, combo, include=K.basis)
            seen.setdefault(T.key(), T)
    return list(seen.values())


def _tensor_sum(tens, pairs):
    """The coordinates of sum x tensor y over pairs, from pure tensors."""
    p = tens.blocks[0].field.p
    total = [0] * tens.dim
    for x, y in pairs:
        total = [(a + b) % p for a, b in zip(total, unmemoised_pure(tens, x, y))]
    return tuple(total)


@pytest.mark.parametrize("source", PROBLEM_SOURCES, ids=str)
def test_separability_idempotent_matches_the_separability_system(source):
    # the trace-form inverse gives the pairs of the solved n^2-unknown
    # system in the same order, and None exactly when it does; the
    # idempotence the package proves rather than checks holds in
    # T tensor_K T
    A = problem_action(source)
    K = A.base_subalgebra()
    for T in _separability_candidates(A):
        sep = separability_idempotent(T, K)
        expected = reference_separability_pairs(T, K)
        assert (sep is None) == (expected is None)
        if sep is None:
            continue
        assert sep == expected
        space = T.space
        tens = TensorOverK(space, space, K, T.basis, T.basis)
        square = [
            (space.mul(x1, x2), space.mul(y1, y2))
            for (x1, y1), (x2, y2) in itertools.product(sep, repeat=2)
        ]
        assert _tensor_sum(tens, square) == _tensor_sum(tens, sep)


@pytest.mark.parametrize("source", PROBLEM_SOURCES, ids=str)
def test_one_elimination_gives_the_per_column_idempotent(source):
    # the inverse read off one elimination over K·u's subfield gives the
    # idempotent of one solve over F_{p^k} per column, and None exactly
    # when it does
    A = problem_action(source)
    K = A.base_subalgebra()
    for T in _separability_candidates(A):
        got = separability_idempotent(T, K)
        with mock.patch.object(galois_mod, "inverse_trace_form",
                               per_column_inverse_trace_form):
            assert separability_idempotent(T, K) == got


@pytest.mark.parametrize("source", PROBLEM_SOURCES + ["fixf4swap.json"], ids=str)
def test_kblocks_and_annihilators_match_listing(source):
    # the signature partition gives the primitive idempotents that listing
    # K finds, in its order, and the basis-order annihilator gives the
    # verdict and first witness of listing K, on every single block, every
    # pair of blocks and every ideal E_g.  Listing refuses a T of more than
    # BRUTE_FORCE_BOUND elements; there only the new rule answers.
    A = problem_action(source)
    R = A.ring
    ideals = [list(c) for size in (1, 2) for c in itertools.combinations(R.blocks, size)]
    ideals += [list(A.support[g]) for g in A.groupoid.elements]
    for T in _separability_candidates(A):
        units = [blk.u for blk in kblocks(T)]
        if T.size > BRUTE_FORCE_BOUND:
            continue
        assert units == listed_primitive_idempotents(T)
        for E in ideals:
            assert is_faithful_ideal(T, E) == listed_faithful_ideal(T, E)


CORRESPONDENCE_SOURCES = [
    s for s in PROBLEM_SOURCES if isinstance(s, str) or s[1] * s[1] * s[2] <= 16
] + list(ORBIT_DOCS)


def _action(source):
    """The validated action of an ORBIT_DOCS entry or a problem source."""
    return doc_action(ORBIT_DOCS[source]) if source in ORBIT_DOCS else problem_action(source)


@functools.cache
def _oracle_table(source):
    """partition_correspondence on its own action, once per source."""
    return partition_correspondence(_action(source))


def _table_summary(table):
    return (
        [(r.subgroupoid, r.subalgebra.key(), r.stabilizer_labels, r.separable,
          r.beta_strong, r.r_split) for r in table.rows],
        [T.key() for T in table.strong_subalgebras],
        (table.injective, table.partition_injective,
         table.image_equals_strong_subalgebras, table.closure_holds),
    )


@pytest.mark.parametrize("source", CORRESPONDENCE_SOURCES, ids=str)
def test_correspondence_matches_candidate_loop(source):
    # shared invariants and row verdicts over the pruned candidates give
    # the same table as solving every row afresh and deciding every
    # unpruned partition's T, each on its own action
    try:
        expected = _oracle_table(source)
    except HypothesisFailure as err:
        with pytest.raises(type(err)):
            galois_correspondence(_action(source))
        return
    table = galois_correspondence(_action(source))
    assert _table_summary(table) == _table_summary(expected)
    assert table.ok


OMEGA_SOURCES = [s for s in CORRESPONDENCE_SOURCES if not isinstance(s, str)
                 or s in ORBIT_DOCS]


@pytest.mark.parametrize("source", OMEGA_SOURCES, ids=str)
def test_pruned_survivors_are_the_strong_partitions_and_the_rows(source):
    # the unpruned partitions give distinct subalgebras, each containing
    # K and separable; the survivors of the pruned search are exactly
    # those that are also beta-strong, and exactly the rows' invariants;
    # each survivor's T gives back its partition
    A = _action(source)
    R, K = A.ring, A.base_subalgebra()
    candidates = unpruned_partition_subalgebras(A)
    assert len({T.key() for T in candidates}) == len(candidates)
    assert all(T.contains(x) for T in candidates for x in K.basis)
    assert all(separability_idempotent(T, K) is not None for T in candidates)
    survivors = list(omega_mod.Omega(A).strong_partitions())
    assert len(set(survivors)) == len(survivors)
    keys = []
    for part in survivors:
        basis = omega_mod.subalgebra_basis(R, part)
        assert omega_mod.signature_partition(R, basis) == part
        keys.append(Subalgebra(R, basis).key())
    oracle = _oracle_table(source)
    assert sorted(keys) == sorted(T.key() for T in oracle.strong_subalgebras)
    assert sorted(keys) == sorted(row.subalgebra.key() for row in oracle.rows)


def test_correspondence_computes_each_stabilizer_once():
    # strong_subalgebra_check hands the cosets of the stabilizer it
    # computed to hom_gset_check, and every candidate on twisted P_2 x C_2
    # over F_4 is a row: one stabilizer per row (7), and the table of
    # solving every row and unpruned candidate afresh
    source = ("twisted", 2, 2, 2)
    asked = []

    def counting(T, A):
        asked.append(T.key())
        return stabilizer(T, A)

    with mock.patch.object(action_mod, "stabilizer", counting), \
            mock.patch.object(galois_mod, "stabilizer", counting):
        table = galois_correspondence(problem_action(source))
    assert len(asked) == len(set(asked)) == 7
    assert _table_summary(table) == _table_summary(_oracle_table(source))


def test_a_survivor_that_is_no_row_is_decided_on_its_own():
    # with one subgroupoid left out of the rows, its invariants survive
    # the search as a candidate that no row shares: it is decided by
    # separability_idempotent and is_beta_strong, found strong, and the
    # image line fails
    source = ("twisted", 2, 2, 2)
    full = enumerate_wide_subgroupoids
    with mock.patch.object(galois_mod, "enumerate_wide_subgroupoids",
                           lambda G, bound: full(G, bound)[:-1]):
        table = galois_correspondence(problem_action(source))
    assert len(table.rows) == 6 and not table.image_equals_strong_subalgebras
    assert ([T.key() for T in table.strong_subalgebras]
            == [T.key() for T in _oracle_table(source).strong_subalgebras])


def test_search_past_its_node_bound_refuses():
    # P_4 x C_4 fits the bound; with the bound one short it refuses
    A = problem_action(("shift", 4, 4, 1))
    assert sum(1 for _ in omega_mod.Omega(A).strong_partitions()) == 931
    nodes = 20967
    with mock.patch.object(omega_mod, "MAX_SEARCH_NODES", nodes):
        assert sum(1 for _ in omega_mod.Omega(A).strong_partitions()) == 931
    with mock.patch.object(omega_mod, "MAX_SEARCH_NODES", nodes - 1), \
            pytest.raises(SizeBoundExceeded):
        list(omega_mod.Omega(A).strong_partitions())


def test_correspondence_builds_one_coset_space_per_row():
    # a row's partition and hom_gset_check's cosets of the row's
    # stabilizer, which is the row's subgroupoid wherever closure holds,
    # are one coset space: on twisted P_2 x C_2 over F_4, 7 rows
    with mock.patch.object(galois_mod, "coset_space", wraps=coset_space) as spaces:
        table = galois_correspondence(problem_action(("twisted", 2, 2, 2)))
    assert len(table.rows) == 7 and table.closure_holds
    built = [c.args[1] for c in spaces.call_args_list]
    assert built == [row.subgroupoid for row in table.rows]


def test_invariants_oracle_live_after_correspondence():
    # nothing galois_correspondence shares outlives it: afterwards a
    # corrupted structural basis still raises OracleMismatch on that action
    caught = set()
    for source in ["fix1.json", "fixc2.json", "fixf4.json",
                   ("twisted", 1, 2, 2), ("frobenius", 2, 2, 2)]:
        A = problem_action(source)
        for row in galois_correspondence(A).rows:
            caught |= corrupted_basis_outcomes(
                action_mod, lambda labels=row.subgroupoid: invariants(A, labels),
                A.ring,
            )
    assert caught == {"drop", "twist"}
