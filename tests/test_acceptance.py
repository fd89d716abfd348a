"""Acceptance suite: every top-level criterion as one test (the
separability-transport criterion is split per subalgebra because its two
instances are independent claims).

Each test prints one PASS/FAIL line; run with -s to see them.  All checks
are exact.
"""

import time
from contextlib import contextmanager

import pytest

from conftest import brute_invariant_functions, brute_invariants, distinct_subgroupoids
from gpdgalois.action import (
    AlgebraAction,
    check_galois_coordinates,
    find_galois_coordinates,
    invariants,
    subalgebra_closure,
    verify_skew_ring,
)
from gpdgalois.blockring import faithfulness_criterion, is_faithful_ideal
from gpdgalois.errors import HypothesisFailure
from gpdgalois.galois import galois_correspondence
from gpdgalois.groupoid import (
    coset_space,
    enumerate_wide_subgroupoids,
    quotient_gset,
    regular_gset,
)
from gpdgalois.mapalg import (
    eval_hom_family,
    grothendieck_set_check,
    invariant_algebra,
    transversal_hom_family,
)
from gpdgalois.tensor import rank_profile
from theorems import (
    associated_idempotent,
    coords_from_separability,
    grothendieck_algebra_check,
    hom_set,
    pairwise_strongly_distinct,
    quotient_iso_pair,
    tri_equivalence_check,
)


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - start:.2f}s)")


def test_c01_invariants_and_coordinates(fix1):
    with criterion("C1 four-block reproduction"):
        A, R = fix1.action, fix1.ring
        u1 = R.element({"v1": 1, "v3": 1})
        u2 = R.element({"v2": 1, "v4": 1})
        K = invariants(A)
        assert set(K.elements) == {R.zero(), u1, u2, R.add(u1, u2)}
        assert len(K.elements) == 4

        coords = find_galois_coordinates(A)
        assert coords is not None
        assert check_galois_coordinates(A, coords.pairs) == (True, None)
        candidate = tuple((R.unit([b]), R.unit([b])) for b in R.blocks)
        assert check_galois_coordinates(A, candidate) == (True, None)


def test_c02_faithfulness_and_criterion(fix1, fix2):
    with criterion("C2 six-block faithfulness"):
        A2, R2 = fix2.action, fix2.ring
        K2 = A2.base_subalgebra()
        ok, witness = is_faithful_ideal(K2, R2.ideal("e3"))
        assert not ok
        assert witness == R2.element({"v1": 1, "v3": 1})
        for fix in (fix1, fix2):
            K = fix.action.base_subalgebra()
            for g in fix.groupoid.elements:
                direct, _ = is_faithful_ideal(K, fix.action.support[g])
                assert faithfulness_criterion(fix.groupoid, g) == direct


def test_c03_quotient_round_trips(fix1, fix2, fixc2):
    with criterion("C3 quotient round trips"):
        total = 0
        for fix in (fix1, fix2, fixc2):
            for H in enumerate_wide_subgroupoids(fix.groupoid):
                report = quotient_iso_pair(fix.action, H)
                assert report.ok, (fix.name, H)
                total += 1
        assert total == 8


def test_c04_correspondence(fix1, fix2, fixc2):
    with criterion("C4 subgroupoid correspondence"):
        for fix in (fix1, fixc2):
            table = galois_correspondence(fix.action)
            assert table.bijective
            assert table.closure_holds
            assert len(table.rows) == len(table.strong_subalgebras)
        with pytest.raises(HypothesisFailure):
            galois_correspondence(fix2.action)


def test_c05_equivalence_object_level(fix1):
    with criterion("C5 set/algebra equivalence"):
        A = fix1.action
        G = fix1.groupoid
        for X in (
            regular_gset(G),
            quotient_gset(coset_space(G, fix1.wide_subgroupoids["G0"])),
            quotient_gset(coset_space(G, fix1.wide_subgroupoids["all"])),
        ):
            report = grothendieck_set_check(A, X)
            assert report.eval_bijective
            assert report.independent_iso_found
            assert report.proof_identity
            assert all(s.ok for s in report.splits.values())
        K = A.base_subalgebra()
        R1 = invariants(A, fix1.wide_subgroupoids["G0"])
        for B in (K, R1):
            assert grothendieck_algebra_check(A, B).ok


def test_c06_hom_family_suite(fix1, fixc2, fixf4):
    with criterion("C6 hom family suite"):
        A, R, G = fix1.action, fix1.ring, fix1.groupoid
        K = A.base_subalgebra()
        R1 = invariants(A, fix1.wide_subgroupoids["G0"])
        fam = transversal_hom_family(R1, A, coset_space(G, fix1.wide_subgroupoids["G0"]))["e2"]
        full = hom_set(R1, K, A.support["g"], R)
        AX = invariant_algebra(regular_gset(G), A)
        evals = eval_hom_family(AX, "g")
        singleK = transversal_hom_family(K, A, coset_space(G, fix1.wide_subgroupoids["all"]))["e1"]
        Ac = fixc2.action
        famc = transversal_hom_family(
            invariants(Ac, fixc2.wide_subgroupoids["G0"]),
            Ac,
            coset_space(Ac.groupoid, fixc2.wide_subgroupoids["G0"]),
        )["e"]
        Af = fixf4.action
        Kf = Af.base_subalgebra()
        Rf = invariants(Af, fixf4.wide_subgroupoids["G0"])
        famf = hom_set(Rf, Kf, Af.support["a"], fixf4.ring)
        instances = [
            (fam, K),
            (full, K),
            ([fam[0], fam[0]], K),
            (singleK, K),
            (famc, Ac.base_subalgebra()),
            (famf, Kf),
            (evals, K),
        ]
        assert len(instances) >= 6
        for family, base in instances:
            assert tri_equivalence_check(family, base).agree

        # bound: a strongly distinct family never exceeds the block rank
        bound_cases = [
            (fam, R1, K),
            (singleK, K, K),
            (famf, Rf, Kf),
            (evals, AX, K),
        ]
        for family, source, base in bound_cases:
            ok, _ = pairwise_strongly_distinct(family)
            assert ok
            assert len(family) <= min(rank_profile(source, base).ranks)

        # projection family: unique orthogonal idempotents with the
        # identity evaluation matrix
        base_prime = subalgebra_closure(R, [])
        u1 = R.element({"v1": 1, "v3": 1})
        u2 = R.element({"v2": 1, "v4": 1})
        projections = [
            {u1: R.one(), u2: R.zero()},
            {u1: R.zero(), u2: R.one()},
        ]
        pis = [associated_idempotent(K, f, base_prime) for f in projections]
        assert pis == [u1, u2]
        assert R.mul(pis[0], pis[1]) == R.zero()
        for i, f in enumerate(projections):
            for j, pi in enumerate(pis):
                coords = K.coords(pi)
                value = R.zero()
                for c, b in zip(coords, K.basis):
                    value = R.add(value, R.int_combine([c], [f[b]]))
                assert value == (R.one() if i == j else R.zero())


def _separability_transport_claims(fix, subgroupoid_key):
    A, R = fix.action, fix.ring
    T = invariants(A, fix.wide_subgroupoids[subgroupoid_key])
    report = coords_from_separability(T, A)
    assert report.separable and report.beta_strong
    assert report.all_idempotent
    assert report.unit_on_identities
    assert report.zero_outside_identities
    assert report.reconstruction_exact


def test_c07_separability_transport_full_invariants(fix1):
    with criterion("C7 separability transport (identity stabilizer)"):
        _separability_transport_claims(fix1, "G0")


def test_c07_separability_transport_base_algebra(fix1):
    # The stated expectation (transported idempotents vanish off the
    # identities and the dual maps reconstruct every element) is provably
    # unattainable for the base algebra: its stabilizer is the whole
    # groupoid, which forces v_g = 1_g on every g, and in characteristic
    # two the trace of the base vanishes.  See the decisions ledger.
    with criterion("C7 separability transport (base algebra)"):
        _separability_transport_claims(fix1, "all")


def test_c08_oracle_equivalence(all_galois_fixtures):
    with criterion("C8 structural vs brute force"):
        for fix in all_galois_fixtures:
            for labels in distinct_subgroupoids(fix):
                structural = set(invariants(fix.action, labels).elements)
                assert structural == brute_invariants(fix.action, labels)
            X = regular_gset(fix.groupoid)
            structural = set(invariant_algebra(X, fix.action).elements)
            assert structural == brute_invariant_functions(X, fix.action)
            for labels in distinct_subgroupoids(fix):
                Xq = quotient_gset(coset_space(fix.groupoid, labels))
                structural = set(invariant_algebra(Xq, fix.action).elements)
                assert structural == brute_invariant_functions(Xq, fix.action)


def test_c09_skew_ring_suite(fix1, fix2):
    with criterion("C9 skew ring suite"):
        for fix in (fix1, fix2):
            report = verify_skew_ring(fix.action)
            assert report.ok and report.associative and report.unital
        sigma = {g: dict(m) for g, m in fix1.action.sigma.items()}
        sigma["g"] = {"v1": "v4", "v2": "v3"}
        broken = AlgebraAction(fix1.groupoid, fix1.ring, sigma, fix1.action.frob)
        report = verify_skew_ring(broken)
        assert not report.ok and report.witness is not None


def test_c10_twisted_block_case(fixf4):
    with criterion("C10 twisted single block"):
        A, R = fixf4.action, fixf4.ring
        coords = find_galois_coordinates(A)
        assert coords is not None and coords.strategy == "linear-solve"
        assert check_galois_coordinates(A, coords.pairs) == (True, None)
        K = A.base_subalgebra()
        assert set(K.elements) == {R.zero(), R.one()}
        table = galois_correspondence(A)
        assert table.ok
        assert [(r.subgroupoid, len(r.subalgebra.elements)) for r in table.rows] == [
            (("e",), 4),
            (("e", "a"), 2),
        ]
