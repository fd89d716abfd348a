import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FIXTURE_FILES,
    PAIR_CYCLIC_SPECS,
    brute_invariants,
    cli_outcome,
    elementwise_validate_action,
    fixture_doc,
    pair_cyclic_doc,
)
from gpdgalois.action import (
    AlgebraAction,
    check_galois_coordinates,
    find_galois_coordinates,
    invariants,
    module_invariants_check,
    skew_element,
    skew_identity,
    skew_mul,
    stabilizer,
    subalgebra_closure,
    trace,
    validate_action,
    verify_skew_ring,
)
from gpdgalois.blockring import make_ring
from gpdgalois.errors import (
    CompositionFailure,
    NotBijective,
    NotSubgroupoid,
    SupportMismatch,
    SupportViolation,
    ValidationError,
)
from gpdgalois.groupoid import quotient_gset, regular_gset, validate_groupoid
from gpdgalois.scalar import make_field

TWISTED_SPECS = [spec for spec in PAIR_CYCLIC_SPECS if spec[3] > 1]


def trivial_involution_action():
    """Order-two group acting trivially on one prime-field block: a valid
    action with no Galois coordinates (the trace vanishes)."""
    F = make_field(2)
    G = validate_groupoid(
        ["e", "a"],
        [("e", "e", "e"), ("e", "a", "a"), ("a", "e", "a"), ("a", "a", "e")],
    )
    R = make_ring(F, ["w"], {"e": ["w"]})
    return validate_action(G, R, {"a": {"w": "w"}})


def test_validate_rejects_non_bijection(fix1):
    with pytest.raises(NotBijective):
        validate_action(
            fix1.groupoid,
            fix1.ring,
            {"g": {"v1": "v4", "v2": "v4"}, "gi": {"v3": "v1", "v4": "v2"}},
        )


def test_validate_rejects_wrong_domain(fix1):
    with pytest.raises(SupportMismatch):
        validate_action(
            fix1.groupoid,
            fix1.ring,
            {"g": {"v3": "v1", "v4": "v2"}, "gi": {"v3": "v1", "v4": "v2"}},
        )


def test_validate_rejects_non_composing(fix1):
    with pytest.raises(CompositionFailure):
        validate_action(
            fix1.groupoid,
            fix1.ring,
            {"g": {"v1": "v4", "v2": "v3"}, "gi": {"v3": "v1", "v4": "v2"}},
        )


def test_apply_beta_values(fix1, fixf4):
    A, R = fix1.action, fix1.ring
    assert A.apply("g", R.element({"v1": 1})) == R.element({"v3": 1})
    x = R.element({"v1": 1, "v2": 1})
    assert A.apply("e1", x) == x

    Rf = fixf4.ring
    t = Rf.element({"w": [0, 1]})
    assert fixf4.action.apply("a", t) == Rf.element({"w": [1, 1]})


def test_apply_beta_support_violation(fix1):
    R = fix1.ring
    with pytest.raises(SupportViolation):
        fix1.action.apply("g", R.element({"v3": 1}))
    assert fix1.action.apply("g", R.element({"v3": 1}), truncate=True) == R.zero()


def test_invariants_values(fix1, fix2):
    R = fix1.ring
    K = invariants(fix1.action)
    u1 = R.element({"v1": 1, "v3": 1})
    u2 = R.element({"v2": 1, "v4": 1})
    assert set(K.elements) == {R.zero(), u1, u2, R.add(u1, u2)}
    assert K.basis == (u1, u2)

    all_of_r = invariants(fix1.action, fix1.wide_subgroupoids["G0"])
    assert len(all_of_r.elements) == 16

    K2 = invariants(fix2.action)
    R2 = fix2.ring
    assert set(K2.basis) == {
        R2.element({"v1": 1, "v3": 1}),
        R2.element({"v2": 1, "v4": 1}),
        R2.element({"v5": 1, "v6": 1}),
    }
    half = invariants(fix2.action, fix2.wide_subgroupoids["loop"])
    assert len(half.elements) == 32


def test_invariants_rejects_non_subgroupoid(fix1):
    with pytest.raises(NotSubgroupoid):
        invariants(fix1.action, ("e1", "e2", "g"))


def test_invariants_match_bruteforce_oracle(all_galois_fixtures):
    for fix in all_galois_fixtures:
        for labels in fix.wide_subgroupoids.values():
            structural = set(invariants(fix.action, labels).elements)
            assert structural == brute_invariants(fix.action, labels)


def test_trace_values(fix1):
    A, R = fix1.action, fix1.ring
    expected = R.element({"v1": 1, "v3": 1})
    assert trace(A, R.element({"v1": 1})) == expected
    assert trace(A, R.element({"v3": 1})) == expected
    assert trace(A, R.zero()) == R.zero()


def test_trace_image_is_base(fix1, fixc2, fixf4):
    for fix in (fix1, fixc2, fixf4):
        A, R = fix.action, fix.ring
        K = set(A.base_subalgebra().elements)
        assert {trace(A, x) for x in R.all_elements()} == K


def test_base_is_direct_summand(fix1, fixc2, fixf4, fixf4swap):
    # a trace preimage of one yields a base-linear projection fixing the base
    for fix in (fix1, fixc2, fixf4, fixf4swap):
        A, R = fix.action, fix.ring
        K = A.base_subalgebra()
        c = next(x for x in R.all_elements() if trace(A, x) == R.one())
        for r in K.elements:
            assert trace(A, R.mul(c, r)) == r
        for x in R.all_elements():
            assert K.contains(trace(A, R.mul(c, x)))


def test_galois_coordinates_block_case(fix1, fix2):
    for fix in (fix1, fix2):
        coords = find_galois_coordinates(fix.action)
        assert coords.strategy == "block-idempotents"
        expected = tuple(
            (fix.ring.unit([b]), fix.ring.unit([b])) for b in fix.ring.blocks
        )
        assert coords.pairs == expected
        ok, _ = check_galois_coordinates(fix.action, expected)
        assert ok


def test_galois_coordinates_twisted_case(fixf4):
    A, R = fixf4.action, fixf4.ring
    coords = find_galois_coordinates(A)
    assert coords.strategy == "linear-solve"
    ok, _ = check_galois_coordinates(A, coords.pairs)
    assert ok


def test_galois_coordinates_bruteforce_existence(fixf4):
    # oracle: search all two-pair systems over the quartic field directly
    A, R = fixf4.action, fixf4.ring
    elems = list(R.all_elements())
    found = []
    for x1, y1, x2, y2 in itertools.product(elems, repeat=4):
        pairs = ((x1, y1), (x2, y2))
        if check_galois_coordinates(A, pairs)[0]:
            found.append(pairs)
    assert found
    solved = find_galois_coordinates(A)
    total = {trace(A, R.mul(y, x)) for x, y in solved.pairs}
    assert total  # solved system exists alongside the brute-force witnesses


def test_no_coordinates_for_trivial_involution():
    A = trivial_involution_action()
    assert find_galois_coordinates(A) is None


def test_check_coordinates_witness(fix1):
    R = fix1.ring
    bad = ((R.one(), R.one()),)
    ok, witness = check_galois_coordinates(fix1.action, bad)
    assert not ok and witness[0] in fix1.groupoid.elements


def test_stabilizer_values(fix1, fix2):
    A = fix1.action
    K = A.base_subalgebra()
    assert stabilizer(K, A).labels == ("e1", "e2", "g", "gi")
    full = invariants(A, fix1.wide_subgroupoids["G0"])
    assert stabilizer(full, A).labels == ("e1", "e2")

    A2 = fix2.action
    R2 = fix2.ring
    T = subalgebra_closure(
        R2,
        [R2.element({"v5": 1}), R2.element({"v6": 1})],
        include=A2.base_subalgebra().basis,
    )
    assert stabilizer(T, A2).labels == ("e1", "e2", "g", "gi", "e3")


def test_skew_monomial_product(fix1):
    A, R = fix1.action, fix1.ring
    u = skew_element(A, {"g": R.element({"v3": 1})})
    w = skew_element(A, {"gi": R.element({"v1": 1})})
    assert skew_mul(A, u, w) == {"e2": R.element({"v3": 1})}


def test_skew_non_composable_vanishes(fix1):
    A, R = fix1.action, fix1.ring
    u = skew_element(A, {"e1": R.unit(R.ideal("e1").support)})
    w = skew_element(A, {"e2": R.unit(R.ideal("e2").support)})
    assert skew_mul(A, u, w) == {}


def test_skew_identity_law(fix1, fix2):
    for fix in (fix1, fix2):
        A, R = fix.action, fix.ring
        one = skew_identity(A)
        for g in fix.groupoid.elements:
            for b in A.support[g].support:
                u = skew_element(A, {g: R.element({b: 1})})
                assert skew_mul(A, one, u) == u
                assert skew_mul(A, u, one) == u


def test_skew_coefficient_support_enforced(fix1):
    with pytest.raises(SupportViolation):
        skew_element(fix1.action, {"g": fix1.ring.element({"v1": 1})})


def test_verify_skew_ring(fix1, fix2, fixf4swap):
    for fix in (fix1, fix2, fixf4swap):
        report = verify_skew_ring(fix.action)
        assert report.ok and report.associative and report.unital


def test_verify_skew_ring_detects_corruption(fix1):
    # bypass validation to build a non-composing transport
    sigma = {g: dict(m) for g, m in fix1.action.sigma.items()}
    sigma["g"] = {"v1": "v4", "v2": "v3"}
    broken = AlgebraAction(fix1.groupoid, fix1.ring, sigma, fix1.action.frob)
    report = verify_skew_ring(broken)
    assert not report.ok and report.witness is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_skew_distributes(a, b, c):
    import gpdgalois.fixtures as fx

    fix = fx.fixture_one()
    A, R = fix.action, fix.ring
    elems = list(R.all_elements())

    def sk(g, n):
        x = R.mul(elems[n], R.unit(A.support[g].support))
        return skew_element(A, {g: x})

    u, v, w = sk("g", a), sk("gi", b), sk("e1", c)
    from gpdgalois.action import skew_add

    lhs = skew_mul(A, u, skew_add(A, v, w))
    rhs = skew_add(A, skew_mul(A, u, v), skew_mul(A, u, w))
    assert lhs == rhs


def test_module_invariants(fix1, fixc2):
    G = fix1.groupoid
    for X in (regular_gset(G), quotient_gset(G, fix1.wide_subgroupoids["all"])):
        report = module_invariants_check(fix1.action, X)
        assert report.ok
    report = module_invariants_check(fixc2.action, regular_gset(fixc2.groupoid))
    assert report.ok


@st.composite
def mutated_actions(draw):
    """A fixture or generated problem (twisted ones drawn as often as the
    rest) with at most one sigma entry swapped or retargeted, or one
    Frobenius exponent changed."""
    source = draw(st.sampled_from(FIXTURE_FILES + PAIR_CYCLIC_SPECS + TWISTED_SPECS))
    doc = fixture_doc(source) if isinstance(source, str) else pair_cyclic_doc(*source)
    ideals, action = doc["ring"]["ideals"], doc["action"]
    g = draw(st.sampled_from(doc["groupoid"]["elements"]))
    spec = action.get(g) or {"sigma": {b: b for b in ideals[g]}}
    sigma, frob = dict(spec["sigma"]), dict(spec.get("frob", {}))
    kind = draw(st.sampled_from(["none", "swap", "retarget", "retwist"]))
    b = draw(st.sampled_from(sorted(sigma)))
    if kind == "swap":
        c = draw(st.sampled_from(sorted(sigma)))
        sigma[b], sigma[c] = sigma[c], sigma[b]
    elif kind == "retarget":
        sigma[b] = draw(st.sampled_from(doc["ring"]["blocks"]))
    elif kind == "retwist":
        frob[b] = draw(st.integers(0, doc["field"].get("k", 1) - 1))
    action[g] = {"sigma": sigma, "frob": frob}
    return doc


@settings(max_examples=400, deadline=None)
@given(mutated_actions())
def test_validate_action_matches_elementwise_oracle(doc):
    grp, ring, fld = doc["groupoid"], doc["ring"], doc["field"]
    G = validate_groupoid(grp["elements"], grp["products"], grp.get("inverses"))
    F = make_field(fld["p"], fld.get("k", 1), fld.get("modulus"))
    R = make_ring(F, ring["blocks"], ring["ideals"], identities=G.identities)
    sigma = {g: spec["sigma"] for g, spec in doc["action"].items()}
    frob = {g: spec.get("frob", {}) for g, spec in doc["action"].items()}
    outcomes = []
    for validate in (validate_action, elementwise_validate_action):
        try:
            outcomes.append(validate(G, R, sigma, frob))
        except ValidationError as err:
            outcomes.append(err)
    new, old = outcomes
    if isinstance(old, ValidationError):
        assert type(new) is type(old)
        assert (str(new), new.witness) == (str(old), old.witness)
    else:
        assert not isinstance(new, ValidationError)
        assert (new.sigma, new.frob) == (old.sigma, old.frob)


@settings(max_examples=60, deadline=None)
@given(mutated_actions())
def test_check_command_matches_elementwise_oracle(doc):
    assert cli_outcome(doc) == cli_outcome(doc, oracle=True)


def test_composition_twist_wraps_mod_k():
    # over F_8, g0_0_2 after g0_0_1 is the identity: exponents 1 + 2 = 3
    # agree with 0 only mod 3
    doc = pair_cyclic_doc("frobenius", 1, 3, 3)
    grp, fld = doc["groupoid"], doc["field"]
    G = validate_groupoid(grp["elements"], grp["products"])
    R = make_ring(make_field(2, 3, fld["modulus"]), ["v0"], {"g0_0_0": ["v0"]})
    sigma = {g: s["sigma"] for g, s in doc["action"].items()}
    frob = {g: s["frob"] for g, s in doc["action"].items()}
    assert frob["g0_0_1"] == {"v0": 1} and frob["g0_0_2"] == {"v0": 2}
    validate_action(G, R, sigma, frob)
    frob["g0_0_1"] = {"v0": 2}
    with pytest.raises(CompositionFailure) as err:
        validate_action(G, R, sigma, frob)
    with pytest.raises(CompositionFailure) as oracle_err:
        elementwise_validate_action(G, R, sigma, frob)
    assert err.value.witness == oracle_err.value.witness
