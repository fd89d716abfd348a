import itertools
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    ORBIT_DOCS,
    PAIR_CYCLIC_SPECS,
    PROBLEM_SOURCES,
    brute_invariants,
    cli_outcome,
    corrupted_basis_outcomes,
    direct_verify_skew_ring,
    distinct_subgroupoids,
    doc_action,
    elementwise_validate_action,
    pair_cyclic_doc,
    problem_action,
    problem_doc,
)
from gpdgalois import action as action_mod
from gpdgalois.action import (
    AlgebraAction,
    Submodule,
    check_galois_coordinates,
    find_galois_coordinates,
    invariants,
    skew_identity,
    skew_mul,
    span_elements,
    stabilizer,
    subalgebra_closure,
    trace,
    trace_image_is_base,
    validate_action,
    verify_skew_ring,
)
from gpdgalois.blockring import ProductSpace, fixed_elements, make_ring
from gpdgalois.errors import InvalidInput, SizeBoundExceeded, ValidationError
from gpdgalois.groupoid import (
    enumerate_wide_subgroupoids,
    validate_groupoid,
)
from gpdgalois.scalar import FpSpan, fp_basis_scalars, make_field
from theorems import skew_add, skew_element, whole_system_galois_coordinates

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
    with pytest.raises(ValidationError, match=r"sigma\['g'\] is not a bijection onto 'e2'"):
        validate_action(
            fix1.groupoid,
            fix1.ring,
            {"g": {"v1": "v4", "v2": "v4"}, "gi": {"v3": "v1", "v4": "v2"}},
        )


def test_validate_rejects_wrong_domain(fix1):
    with pytest.raises(ValidationError,
                       match=r"sigma\['g'\] defined on \['v3', 'v4'\], expected blocks of 'e1'"):
        validate_action(
            fix1.groupoid,
            fix1.ring,
            {"g": {"v3": "v1", "v4": "v2"}, "gi": {"v3": "v1", "v4": "v2"}},
        )


def test_validate_rejects_non_composing(fix1):
    with pytest.raises(ValidationError, match=re.escape("beta['g'] o beta['gi'] != beta['e2']")):
        validate_action(
            fix1.groupoid,
            fix1.ring,
            {"g": {"v1": "v4", "v2": "v3"}, "gi": {"v3": "v1", "v4": "v2"}},
        )


@pytest.mark.parametrize("sigma_e, frob_e, ok", [
    ({"w1": "w1", "w2": "w2"}, {"w1": 0, "w2": 0}, True),
    ({"w1": "w2", "w2": "w1"}, {}, False),
    ({"w1": "w1", "w2": "w2"}, {"w2": 1}, False),
], ids=["identity", "swap", "twist"])
def test_explicit_identity_component_must_be_the_identity(sigma_e, frob_e, ok):
    # C_2 = {e, a} over F_4 with a swapping two blocks; an identity
    # component given in the input is checked, not overwritten
    G = validate_groupoid(
        ["e", "a"],
        [("e", "e", "e"), ("e", "a", "a"), ("a", "e", "a"), ("a", "a", "e")],
    )
    R = make_ring(make_field(2, 2, [1, 1, 1]), ["w1", "w2"], {"e": ["w1", "w2"]})
    sigma = {"e": sigma_e, "a": {"w1": "w2", "w2": "w1"}}
    if ok:
        A = validate_action(G, R, sigma, {"e": frob_e})
        assert (A.sigma["e"], A.frob["e"]) == (sigma_e, frob_e)
    else:
        with pytest.raises(ValidationError, match=re.escape("beta['e'] must be the identity map")):
            validate_action(G, R, sigma, {"e": frob_e})


def test_apply_beta_values(fix1, fixf4):
    A, R = fix1.action, fix1.ring
    assert A.apply("g", R.element({"v1": 1})) == R.element({"v3": 1})
    x = R.element({"v1": 1, "v2": 1})
    assert A.apply("e1", x) == x

    Rf = fixf4.ring
    t = Rf.element({"w": [0, 1]})
    assert fixf4.action.apply("a", t) == Rf.element({"w": [1, 1]})


def test_apply_beta_support_violation(fix1):
    # apply is beta_g(x 1_{g^{-1}}): a value off E_{g^{-1}} is cut off, and
    # only an element of the wrong length is refused
    R = fix1.ring
    assert fix1.action.apply("g", R.element({"v3": 1})) == R.zero()
    with pytest.raises(InvalidInput, match="element has wrong number of coordinates"):
        fix1.action.apply("g", R.zero()[1:])


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
    with pytest.raises(ValidationError, match="not closed under inverse: 'g'"):
        invariants(fix1.action, ("e1", "e2", "g"))


def test_invariants_match_bruteforce_oracle(all_galois_fixtures):
    for fix in all_galois_fixtures:
        for labels in distinct_subgroupoids(fix):
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


def trivial_shift_action(m):
    """C_m acting trivially on m blocks over F_2: not free, and the trace
    is m times the identity, so its image is K exactly when m is odd."""
    doc = problem_doc(("shift", 1, m, 1))
    for spec in doc["action"].values():
        spec["sigma"] = {b: b for b in spec["sigma"]}
    return doc_action(doc)


def trace_image_by_enumeration(A):
    R = A.ring
    return {trace(A, x) for x in R.all_elements()} == set(A.base_subalgebra().elements)


def test_trace_image_check_matches_enumeration(fixf4swap):
    actions = [problem_action(source) for source in PROBLEM_SOURCES]
    actions += [fixf4swap.action, trivial_involution_action()]
    actions += [trivial_shift_action(m) for m in (2, 3)]
    verdicts = []
    for A in actions:
        if A.ring.field.order ** len(A.ring.blocks) > 1 << 12:
            continue
        verdicts.append(trace_image_is_base(A))
        assert verdicts[-1] == trace_image_by_enumeration(A)
    assert len(verdicts) >= 30 and verdicts.count(False) == 2


def test_trace_image_check_on_non_free_actions():
    # the trace of a trivial involution vanishes; that of a trivial C_3 is
    # the identity, so its image is K although the action is not free
    assert not trace_image_is_base(trivial_involution_action())
    assert not trace_image_is_base(trivial_shift_action(2))
    assert trace_image_is_base(trivial_shift_action(3))


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
    assert whole_system_galois_coordinates(A) is None


STAGE_TWO_DOCS = {**{str(s): problem_doc(s) for s in PROBLEM_SOURCES}, **ORBIT_DOCS}


@pytest.mark.parametrize("name", STAGE_TWO_DOCS)
def test_slot_by_slot_stage_two_matches_the_whole_system(name):
    # where the block idempotents fail, the slot-by-slot solve gives the
    # pairs and strategy of one solve of the whole block-diagonal system
    A = doc_action(STAGE_TWO_DOCS[name])
    R = A.ring
    got = find_galois_coordinates(A)
    if check_galois_coordinates(A, tuple((R.unit([b]), R.unit([b])) for b in R.blocks))[0]:
        assert got.strategy == "block-idempotents"
    else:
        assert got == whole_system_galois_coordinates(A)


def test_check_coordinates_witness(fix1):
    R = fix1.ring
    bad = ((R.one(), R.one()),)
    ok, witness = check_galois_coordinates(fix1.action, bad)
    assert not ok and witness[0] in fix1.groupoid.elements


def test_stabilizer_values(fix1, fix2):
    A = fix1.action
    K = A.base_subalgebra()
    assert stabilizer(K, A) == ("e1", "e2", "g", "gi")
    full = invariants(A, fix1.wide_subgroupoids["G0"])
    assert stabilizer(full, A) == ("e1", "e2")

    A2 = fix2.action
    R2 = fix2.ring
    T = subalgebra_closure(
        R2,
        [R2.element({"v5": 1}), R2.element({"v6": 1})],
        include=A2.base_subalgebra().basis,
    )
    assert stabilizer(T, A2) == ("e1", "e2", "g", "gi", "e3")


def test_skew_monomial_product(fix1):
    A, R = fix1.action, fix1.ring
    u = skew_element(A, {"g": R.element({"v3": 1})})
    w = skew_element(A, {"gi": R.element({"v1": 1})})
    assert skew_mul(A, u, w) == {"e2": R.element({"v3": 1})}


def test_skew_non_composable_vanishes(fix1):
    A, R = fix1.action, fix1.ring
    u = skew_element(A, {"e1": R.unit(R.ideal("e1"))})
    w = skew_element(A, {"e2": R.unit(R.ideal("e2"))})
    assert skew_mul(A, u, w) == {}


def test_skew_identity_law(fix1, fix2):
    for fix in (fix1, fix2):
        A, R = fix.action, fix.ring
        one = skew_identity(A)
        for g in fix.groupoid.elements:
            for b in A.support[g]:
                u = skew_element(A, {g: R.element({b: 1})})
                assert skew_mul(A, one, u) == u
                assert skew_mul(A, u, one) == u


def test_skew_coefficient_support_enforced(fix1):
    with pytest.raises(ValidationError, match=r"coefficient of delta_'g' outside E_'g'"):
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


# The structure-constant skew ring check against the direct triple loop ---

def monomial_count(A):
    return sum(len(A.support[g]) for g in A.groupoid.elements) * A.ring.field.k


MONOMIALS = {source: monomial_count(problem_action(source)) for source in PROBLEM_SOURCES}
SKEW_SOURCES = [source for source, m in MONOMIALS.items() if m <= 32]
SMALL_SKEW_SOURCES = [source for source, m in MONOMIALS.items() if m <= 16]


@pytest.mark.parametrize("source", SKEW_SOURCES, ids=str)
def test_skew_table_matches_direct_oracle(source):
    A = problem_action(source)
    assert verify_skew_ring(A) == direct_verify_skew_ring(A)


def test_skew_table_matches_direct_oracle_on_f4_swap(fixf4swap):
    assert verify_skew_ring(fixf4swap.action) == direct_verify_skew_ring(fixf4swap.action)


def corrupted_action(A, g, kind, b, value):
    """A copy of A, built without validation, with sigma_g(b) swapped with
    sigma_g(value) ("swap"), sent to block value ("retarget"), or with the
    Frobenius exponent of b under g set to value ("retwist")."""
    sigma = {h: dict(m) for h, m in A.sigma.items()}
    frob = {h: dict(m) for h, m in A.frob.items()}
    if kind == "swap":
        sigma[g][b], sigma[g][value] = sigma[g][value], sigma[g][b]
    elif kind == "retarget":
        sigma[g][b] = value
    else:
        frob[g][b] = value
    return AlgebraAction(A.groupoid, A.ring, sigma, frob)


@st.composite
def corrupted_skew_actions(draw):
    A = problem_action(draw(st.sampled_from(SMALL_SKEW_SOURCES)))
    g = draw(st.sampled_from(A.groupoid.elements))
    b = draw(st.sampled_from(sorted(A.sigma[g])))
    kind = draw(st.sampled_from(["swap", "retarget", "retwist"]))
    if kind == "swap":
        value = draw(st.sampled_from(sorted(A.sigma[g])))
    elif kind == "retarget":
        value = draw(st.sampled_from(A.ring.blocks))
    else:
        value = draw(st.integers(0, A.ring.field.k - 1))
    return corrupted_action(A, g, kind, b, value)


@settings(max_examples=40, deadline=None)
@given(corrupted_skew_actions())
def test_skew_table_matches_direct_oracle_on_corrupted_actions(A):
    assert verify_skew_ring(A) == direct_verify_skew_ring(A)


def test_skew_table_reports_the_oracle_witness(fix1, fixf4):
    # non-composing corruptions over F_2 and F_4, each caught by associativity
    cases = [
        corrupted_action(fix1.action, "g", "swap", "v1", "v2"),
        corrupted_action(fix1.action, "gi", "retarget", "v3", "v3"),
        corrupted_action(problem_action(("twisted", 1, 2, 2)), "g0_0_1", "retwist",
                         "v0_0", 0),
        corrupted_action(problem_action(("frobenius", 2, 2, 2)), "g1_0_1", "retwist",
                         "v0", 0),
    ]
    for A in cases:
        report = verify_skew_ring(A)
        assert not report.associative and report.witness is not None
        assert report == direct_verify_skew_ring(A)


def skew_vector(A, z):
    """The F_p coordinates of a skew ring element over every (g, slot)."""
    R = A.ring
    return R.flat(itertools.chain.from_iterable(z.get(g, R.zero()) for g in A.groupoid.elements))


@pytest.mark.parametrize("source", SKEW_SOURCES, ids=str)
def test_monomials_at_generators_and_identities_generate_the_skew_ring(source):
    A = problem_action(source)
    R, G = A.ring, A.groupoid
    gens = set(G.generators) | set(G.identities)
    span, basis = FpSpan(R.field.p), []
    for g in [g for g in G.elements if g in gens]:
        for b in A.support[g]:
            for s in fp_basis_scalars(R.field):
                m = {g: R.embed({b: s})}
                if span.insert(skew_vector(A, m)):
                    basis.append(m)
    grown = True
    while grown:
        products = [skew_mul(A, u, w) for u in basis for w in basis]
        grown = False
        for z in products:
            if span.insert(skew_vector(A, z)):
                basis.append(z)
                grown = True
    assert span.dim == MONOMIALS[source]
    # a valid action passes the unit guard, so only the generator triples run
    with mock.patch.object(action_mod.itertools, "product", wraps=itertools.product) as prod:
        assert verify_skew_ring(A).ok
    assert [call.kwargs for call in prod.call_args_list] == [{}]


@pytest.mark.parametrize("A", [
    corrupted_action(problem_action(("shift", 2, 2, 1)), "g1_0_0", "retarget", "v0_1", "v1_0"),
    corrupted_action(problem_action(("twisted", 2, 2, 2)), "g1_0_1", "retarget", "v0_0",
                     "v1_0"),
], ids=["F2", "F4"])
def test_a_non_unital_corruption_takes_the_full_triple_loop(A):
    # sigma_g sends two blocks onto one, so beta_g(1) misses a block of r(g)
    R, G = A.ring, A.groupoid
    assert any(A.apply(g, R.unit(A.source_ideal(g))) != R.unit(A.support[g])
               for g in G.elements)
    with mock.patch.object(action_mod.itertools, "product", wraps=itertools.product) as prod:
        report = verify_skew_ring(A)
    assert [call.kwargs for call in prod.call_args_list] == [{"repeat": 3}]
    assert report == direct_verify_skew_ring(A)
    assert not report.ok and report.witness is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_skew_distributes(fix1, a, b, c):
    A, R = fix1.action, fix1.ring
    elems = list(R.all_elements())

    def sk(g, n):
        x = R.mul(elems[n], R.unit(A.support[g]))
        return skew_element(A, {g: x})

    u, v, w = sk("g", a), sk("gi", b), sk("e1", c)
    lhs = skew_mul(A, u, skew_add(A, v, w))
    rhs = skew_add(A, skew_mul(A, u, v), skew_mul(A, u, w))
    assert lhs == rhs


@st.composite
def mutated_actions(draw):
    """A fixture or generated problem (twisted ones drawn as often as the
    rest) with at most one sigma entry swapped or retargeted, or one
    Frobenius exponent changed."""
    doc = problem_doc(draw(st.sampled_from(PROBLEM_SOURCES + TWISTED_SPECS)))
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
    message = r"beta\['g0_0_1'\] o beta\['g0_0_1'\] != beta\['g0_0_2'\]"
    with pytest.raises(ValidationError, match=message) as err:
        validate_action(G, R, sigma, frob)
    with pytest.raises(ValidationError, match=message) as oracle_err:
        elementwise_validate_action(G, R, sigma, frob)
    assert err.value.witness == oracle_err.value.witness


def test_apply_rejects_short_element(fix1):
    # the first two of four coordinates: too short, whatever they hold
    R = fix1.ring
    with pytest.raises(InvalidInput, match="element has wrong number of coordinates"):
        fix1.action.apply("g", R.element({"v1": 1})[:2])


def test_subspace_above_the_bound_refuses_to_list():
    A = doc_action(pair_cyclic_doc("shift", 5, 4))
    T = invariants(A, A.groupoid.identities)
    assert T.size == 2 ** 20
    with pytest.raises(SizeBoundExceeded):
        T.elements


# The invariants oracle on compiled beta moves ----------------------------

def small_subgroupoids(G):
    """Every wide subgroupoid when |G| <= 16, else the identities and G."""
    if len(G.elements) <= 16:
        return enumerate_wide_subgroupoids(G, 16)
    return [tuple(G.identities), tuple(G.elements)]


def test_beta_fixed_set_matches_bruteforce_oracle():
    compared = 0
    for source in PROBLEM_SOURCES:
        A = problem_action(source)
        R = A.ring
        if R.field.order ** len(R.blocks) > 1 << 12:
            continue
        for labels in small_subgroupoids(A.groupoid):
            fixed = fixed_elements(R, [A._moves[h] for h in labels])
            assert fixed == brute_invariants(A, labels), (source, labels)
            assert fixed == set(invariants(A, labels).elements)
            compared += 1
    assert compared >= 100


def test_invariants_oracle_catches_corrupted_basis():
    caught = set()
    for source in PROBLEM_SOURCES:
        A = problem_action(source)
        if A.ring.field.order ** len(A.ring.blocks) > 1 << 8:
            continue
        for labels in (tuple(A.groupoid.identities), tuple(A.groupoid.elements)):
            caught |= corrupted_basis_outcomes(
                action_mod, lambda: invariants(A, labels), A.ring
            )
    assert caught == {"drop", "twist"}


SPAN_SPACES = [
    ProductSpace(make_field(2), ["a", "b", "c", "d"]),
    ProductSpace(make_field(3), ["a", "b", "c"]),
    ProductSpace(make_field(2, 2, [1, 1, 1]), ["a", "b", "c"]),
]


@st.composite
def generator_lists(draw):
    """A product space and two generator lists.  Half the time the second
    list is made of F_p-combinations of the first, so equal spans occur."""
    space = draw(st.sampled_from(SPAN_SPACES))
    vector = st.tuples(*[st.sampled_from(space.field.elements())] * len(space.slots))
    first = draw(st.lists(vector, max_size=4))
    if first and draw(st.booleans()):
        coeffs = st.lists(st.integers(0, space.field.p - 1),
                          min_size=len(first), max_size=len(first))
        second = [space.int_combine(draw(coeffs), first)
                  for _ in range(draw(st.integers(0, 4)))]
    else:
        second = draw(st.lists(vector, max_size=4))
    return space, first, second


@settings(max_examples=200, deadline=None)
@given(generator_lists())
def test_submodule_key_decides_equality_and_elements_are_lazy(case):
    space, first, second = case
    S, T = Submodule(space, first), Submodule(space, second)
    assert "elements" not in vars(S)
    assert S.key() == Submodule(space, first[::-1]).key()
    assert (S.key() == T.key()) == (set(S.elements) == set(T.elements))
    assert S.elements == span_elements(space, S.basis)
    assert S.size == len(S.elements)


@pytest.mark.parametrize("space", SPAN_SPACES, ids=lambda s: f"F_{s.field.order}")
def test_span_elements_is_little_endian(space):
    # element number sum c_i p^i is sum c_i b_i, over F_3 as well as F_2
    one, s = space.field.one, space.field.elements()[-1]
    basis = [space.embed({"a": one, "b": s}), space.embed({"b": one}),
             space.embed({"c": s, "a": one})]
    p = space.field.p
    listed = span_elements(space, basis)
    assert len(listed) == p ** len(basis)
    for idx, x in enumerate(listed):
        coeffs = [idx // p**i % p for i in range(len(basis))]
        assert x == space.int_combine(coeffs, basis)
