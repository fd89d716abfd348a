import copy
import itertools
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FIXTURE_FILES,
    PAIR_CYCLIC_SPECS,
    PROBLEM_SOURCES,
    cli_outcome,
    disjoint_union,
    first_nonassociative_triple,
    fixture_doc,
    greedy_generators,
    left_normed_closure,
    oracle_validate_groupoid,
    pair_cyclic_doc,
    pairwise_coset_space,
    problem_doc,
    subset_wide_subgroupoids,
    wide_subgroupoid_count,
)
from gpdgalois import groupoid as groupoid_mod
from gpdgalois.errors import InvalidInput, OracleMismatch, SizeBoundExceeded, ValidationError
from gpdgalois.groupoid import (
    coset_space,
    enumerate_wide_subgroupoids,
    is_wide_subgroupoid,
    make_subgroupoid,
    quotient_gset,
    regular_gset,
    validate_groupoid,
)


def test_two_object_arrow_table(fix1):
    G = fix1.groupoid
    assert G.identities == ("e1", "e2")
    expected = {
        ("e1", "e1"), ("e2", "e2"), ("g", "e1"), ("e2", "g"),
        ("gi", "e2"), ("e1", "gi"), ("gi", "g"), ("g", "gi"),
    }
    assert set(G.composable) == expected
    assert G.d["g"] == "e1" and G.r["g"] == "e2"
    assert G.inverse["g"] == "gi"


def test_group_case_table(fixc2):
    G = fixc2.groupoid
    assert G.identities == ("e",)
    assert len(G.composable) == 4


def test_broken_inverse_rejected():
    elements = ["e1", "e2", "g", "gi"]
    products = [
        ("e1", "e1", "e1"), ("e2", "e2", "e2"),
        ("g", "e1", "g"), ("e2", "g", "g"),
        ("gi", "e2", "gi"), ("e1", "gi", "gi"),
        ("gi", "g", "e2"), ("g", "gi", "e2"),
    ]
    with pytest.raises(ValidationError, match=re.escape("axiom product-endpoints violated (witness: ('gi', 'g'))")):
        validate_groupoid(elements, products)


def test_composable_matches_endpoint_rule(fix1, fix2):
    for fix in (fix1, fix2):
        G = fix.groupoid
        oracle = {
            (g, h)
            for g, h in itertools.product(G.elements, repeat=2)
            if G.d[g] == G.r[h]
        }
        assert set(G.composable) == oracle


@pytest.mark.parametrize("source", PROBLEM_SOURCES, ids=str)
def test_composable_is_the_product_in_element_order(source):
    G = _groupoid_of(problem_doc(source))
    index = {g: i for i, g in enumerate(G.elements)}
    assert G.composable == tuple(sorted(G.product, key=lambda p: (index[p[0]], index[p[1]])))


def test_standard_consequences_hold(fix1, fix2, fixc2):
    for fix in (fix1, fix2, fixc2):
        G = fix.groupoid
        for g in G.elements:
            gi = G.inverse[g]
            assert G.d[gi] == G.r[g] and G.r[gi] == G.d[g]
            assert G.inverse[gi] == g
        for (g, h), gh in G.product.items():
            assert G.d[gh] == G.d[h] and G.r[gh] == G.r[g]
            assert G.product[(G.inverse[h], G.inverse[g])] == G.inverse[gh]
        for e in G.identities:
            assert G.d[e] == e == G.r[e] and G.inverse[e] == e


def test_wide_subgroupoid_queries(fix1, fix2):
    G2 = fix2.groupoid
    assert is_wide_subgroupoid(G2, ["e1", "e2", "e3", "h"]) == (True, None)
    ok, cert = is_wide_subgroupoid(G2, ["e1", "e2", "g", "gi"])
    assert not ok and "e3" in cert
    ok, cert = is_wide_subgroupoid(fix1.groupoid, ["e1", "e2", "g"])
    assert not ok and "inverse" in cert
    with pytest.raises(InvalidInput, match=r"unknown labels \['nope'\]"):
        is_wide_subgroupoid(fix1.groupoid, ["nope"])


def test_make_subgroupoid_requires_closure(fix1):
    with pytest.raises(ValidationError, match="not closed under inverse: 'g'"):
        make_subgroupoid(fix1.groupoid, ["e1", "e2", "g"])


def test_enumerate_wide_subgroupoids(fix1, fix2, fixc2):
    subs1 = enumerate_wide_subgroupoids(fix1.groupoid)
    assert subs1 == [("e1", "e2"), ("e1", "e2", "g", "gi")]
    subs2 = enumerate_wide_subgroupoids(fix2.groupoid)
    # labels are reported in ambient element order (e3, h come last)
    assert subs2 == [
        ("e1", "e2", "e3"),
        ("e1", "e2", "e3", "h"),
        ("e1", "e2", "g", "gi", "e3"),
        ("e1", "e2", "g", "gi", "e3", "h"),
    ]
    subsc = enumerate_wide_subgroupoids(fixc2.groupoid)
    assert subsc == [("e",), ("e", "a")]
    for fix, subs in ((fix1, subs1), (fix2, subs2), (fixc2, subsc)):
        assert {frozenset(s) for s in subs} == {
            frozenset(s) for s in subset_wide_subgroupoids(fix.groupoid)
        }


def test_enumerate_bound(fix1):
    with pytest.raises(SizeBoundExceeded):
        enumerate_wide_subgroupoids(fix1.groupoid, max_elements=2)


def _groupoid_of(doc):
    grp = doc["groupoid"]
    return validate_groupoid(grp["elements"], grp["products"])


# The groupoid of a PAIR_CYCLIC_SPECS entry depends on n and m only.
SMALL_PAIR_CYCLIC = sorted({(n, m) for _, n, m, _ in PAIR_CYCLIC_SPECS if n * n * m <= 20})


def _same_enumeration(G):
    found = enumerate_wide_subgroupoids(G)
    assert found == subset_wide_subgroupoids(G)
    return found


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_closure_search_matches_subset_oracle_on_fixtures(name):
    _same_enumeration(_groupoid_of(fixture_doc(name)))


@pytest.mark.parametrize("n,m", SMALL_PAIR_CYCLIC)
def test_closure_search_matches_subset_oracle_on_pair_cyclic(n, m):
    found = _same_enumeration(_groupoid_of(pair_cyclic_doc("shift", n, m)))
    assert len(found) == wide_subgroupoid_count(n, m)


UNION_PAIRS = [
    (a, b) for a, b in itertools.combinations_with_replacement(SMALL_PAIR_CYCLIC, 2)
    if a[0] * a[0] * a[1] + b[0] * b[0] * b[1] <= 12
]


@pytest.mark.parametrize("first,second", UNION_PAIRS,
                         ids=[f"P{a[0]}xC{a[1]}+P{b[0]}xC{b[1]}" for a, b in UNION_PAIRS])
def test_closure_search_matches_subset_oracle_on_disjoint_unions(first, second):
    docs = [pair_cyclic_doc("shift", *first), pair_cyclic_doc("shift", *second)]
    found = _same_enumeration(_groupoid_of(disjoint_union(docs, lambda c, x: f"c{c}.{x}")))
    assert len(found) == wide_subgroupoid_count(*first) * wide_subgroupoid_count(*second)


def test_closure_search_count_beyond_the_default_bound():
    # P_3 x C_4 has |G| = 36, above the default bound of 20
    G = _groupoid_of(pair_cyclic_doc("shift", 3, 4))
    with pytest.raises(SizeBoundExceeded):
        enumerate_wide_subgroupoids(G)
    found = enumerate_wide_subgroupoids(G, max_elements=36)
    assert len(found) == wide_subgroupoid_count(3, 4) == 111
    assert len(set(found)) == 111
    assert all(is_wide_subgroupoid(G, s) == (True, None) for s in found)


def test_coset_space_oracle(fix1):
    G = fix1.groupoid
    cs = coset_space(G, make_subgroupoid(G, ["e1", "e2"]))
    assert cs.classes == (("e1",), ("e2",), ("g",), ("gi",))
    full = coset_space(G, make_subgroupoid(G, G.elements))
    assert full.classes == (("e1", "gi"), ("e2", "g"))
    # oracle: the relation partitions G into {b : b^{-1} a in H}
    for a in G.elements:
        members = {
            b
            for b in G.elements
            if G.product.get((G.inverse[b], a)) in set(G.elements)
        }
        assert a in members


@pytest.mark.parametrize("source", FIXTURE_FILES + SMALL_PAIR_CYCLIC, ids=str)
def test_coset_space_matches_pairwise_oracle(source):
    # every wide subgroupoid of the fixtures and of P_n x C_m, |G| <= 20
    doc = fixture_doc(source) if isinstance(source, str) else pair_cyclic_doc("shift", *source)
    G = _groupoid_of(doc)
    for H in enumerate_wide_subgroupoids(G):
        cs, ref = coset_space(G, H), pairwise_coset_space(G, H)
        assert (cs.classes, cs.representatives, cs.class_of) == (
            ref.classes, ref.representatives, ref.class_of), H


def test_coset_space_self_checks_are_oracle_mismatches(fix1):
    # a product table altered after validation: g e1 = gi puts g outside
    # its own coset gH, H the identities; e2 g = gi puts gi, already in
    # e1H, into e2H, H everything
    G = copy.copy(fix1.groupoid)
    G.product = dict(G.product)
    G.product[("g", "e1")] = "gi"
    with pytest.raises(OracleMismatch, match="'g' not in its own coset"):
        coset_space(G, ("e1", "e2"))
    G.product = dict(fix1.groupoid.product)
    G.product[("e2", "g")] = "gi"
    with pytest.raises(OracleMismatch, match="cosets do not partition the groupoid"):
        coset_space(G, G.elements)


def test_left_transversal(fix1, fixc2):
    G = fix1.groupoid
    assert coset_space(G, make_subgroupoid(G, ["e1", "e2"])).representatives == (
        "e1", "e2", "g", "gi",
    )
    assert coset_space(G, make_subgroupoid(G, G.elements)).representatives == ("e1", "e2")
    Gc = fixc2.groupoid
    assert coset_space(Gc, make_subgroupoid(Gc, Gc.elements)).representatives == ("e",)
    with pytest.raises(ValidationError, match=r"missing identities: \['e2'\]"):
        coset_space(G, ["e1"])


def test_quotient_gset_values(fix1, fixc2):
    G = fix1.groupoid
    X = quotient_gset(coset_space(G, make_subgroupoid(G, ["e1", "e2"])))
    assert set(X.carrier) == {"e1H", "e2H", "gH", "giH"}
    assert set(X.fiber_points("e1")) == {"e1H", "giH"}
    assert set(X.fiber_points("e2")) == {"e2H", "gH"}
    assert X.gamma["g"]["e1H"] == "gH"
    assert X.gamma["g"]["giH"] == "e2H"

    Xfull = quotient_gset(coset_space(G, make_subgroupoid(G, G.elements)))
    assert Xfull.carrier == ("e1H", "e2H")
    assert Xfull.fiber_points("e1") == ("e1H",)

    Gc = fixc2.groupoid
    assert len(quotient_gset(coset_space(Gc, make_subgroupoid(Gc, Gc.elements))).carrier) == 1


def test_quotient_gset_failure_is_an_oracle_mismatch(fix1):
    # the coset action of a wide subgroupoid is a G-set, so a rejection is
    # a fault of the library, not of the input
    G = fix1.groupoid
    cs = coset_space(G, fix1.wide_subgroupoids["G0"])
    with mock.patch.object(groupoid_mod.gset_mod, "validate_gset",
                           side_effect=ValidationError("rejected")):
        with pytest.raises(OracleMismatch, match="coset action is not a G-set: rejected"):
            quotient_gset(cs)


def test_regular_gset_values(fix1, fix2, fixc2):
    G = fix1.groupoid
    X = regular_gset(G)
    assert set(X.fiber_points("e1")) == {"e1", "gi"}
    assert set(X.fiber_points("e2")) == {"e2", "g"}
    assert X.gamma["g"]["e1"] == "g" and X.gamma["g"]["gi"] == "e2"

    Xc = regular_gset(fixc2.groupoid)
    assert Xc.gamma["a"]["e"] == "a" and Xc.gamma["a"]["a"] == "e"

    X2 = regular_gset(fix2.groupoid)
    assert set(X2.fiber_points("e3")) == {"e3", "h"}


@st.composite
def problem_docs(draw):
    """A shipped fixture or a generated P_n x C_m problem (n*m <= 8)."""
    source = draw(st.sampled_from(FIXTURE_FILES + PAIR_CYCLIC_SPECS))
    return fixture_doc(source) if isinstance(source, str) else pair_cyclic_doc(*source)


@st.composite
def mutated_tables(draw):
    """A problem whose product table has at most one entry changed,
    deleted, added or swapped with another's."""
    doc = draw(problem_docs())
    grp = doc["groupoid"]
    elements = grp["elements"]
    products = [list(t) for t in grp["products"]]
    kind = draw(st.sampled_from(["none", "change", "delete", "add", "swap"]))
    i = draw(st.integers(0, len(products) - 1))
    defined = {(a, b) for a, b, _ in products}
    free = [(a, b) for a in elements for b in elements if (a, b) not in defined]
    if kind == "add" and free:
        a, b = draw(st.sampled_from(free))
        products.append([a, b, draw(st.sampled_from(elements))])
    elif kind in ("change", "add"):
        products[i][2] = draw(st.sampled_from(elements))
    elif kind == "delete":
        del products[i]
    elif kind == "swap":
        j = draw(st.integers(0, len(products) - 1))
        products[i][2], products[j][2] = products[j][2], products[i][2]
    grp["products"] = products
    return doc


def _outcome(validate, doc):
    grp = doc["groupoid"]
    try:
        return validate(grp["elements"], grp["products"], grp.get("inverses"))
    except ValidationError as err:
        return err


@settings(max_examples=400, deadline=None)
@given(mutated_tables())
def test_validate_groupoid_matches_exhaustive_oracle(doc):
    new = _outcome(validate_groupoid, doc)
    old = _outcome(oracle_validate_groupoid, doc)
    assert isinstance(new, ValidationError) == isinstance(old, ValidationError)
    if not isinstance(new, ValidationError):
        for attr in ("elements", "product", "inverse", "d", "r", "identities",
                     "composable", "generators"):
            assert getattr(new, attr) == getattr(old, attr)


@settings(max_examples=60, deadline=None)
@given(mutated_tables())
def test_check_command_matches_exhaustive_oracle(doc):
    assert cli_outcome(doc) == cli_outcome(doc, oracle=True)


def _moufang_loop_table():
    """Chein's loop M(S_3, 2) of order 12: (g,0)(h,0) = (gh,0),
    (g,0)(h,1) = (hg,1), (g,1)(h,0) = (gh^-1,1), (g,1)(h,1) = (h^-1 g,0).
    It has units, unique inverses, (xy)^-1 = y^-1 x^-1 and division, but
    is not associative, so only the associativity check can reject it."""
    perms = list(itertools.permutations(range(3)))

    def mul(a, b):
        return tuple(a[b[i]] for i in range(3))

    def inv(a):
        return tuple(sorted(range(3), key=a.__getitem__))

    def label(g, s):
        return "".join(map(str, g)) + f"/{s}"

    rules = {
        (0, 0): lambda g, h: (mul(g, h), 0),
        (0, 1): lambda g, h: (mul(h, g), 1),
        (1, 0): lambda g, h: (mul(g, inv(h)), 1),
        (1, 1): lambda g, h: (mul(inv(h), g), 0),
    }
    elements = [label(g, s) for s in (0, 1) for g in perms]
    products = [
        (label(g, s), label(h, t), label(*rules[(s, t)](g, h)))
        for s in (0, 1) for g in perms for t in (0, 1) for h in perms
    ]
    return elements, products


def test_moufang_loop_rejected_by_associativity():
    elements, products = _moufang_loop_table()
    for validate in (validate_groupoid, oracle_validate_groupoid):
        with pytest.raises(ValidationError, match=r"^axiom associativity violated "):
            validate(elements, products)


# The generating set and Light's associativity test --------------------------

def _shuffled(doc, seed):
    """The document with its element list in a seeded random order."""
    elements = list(doc["groupoid"]["elements"])
    random.Random(seed).shuffle(elements)
    return {**doc, "groupoid": {**doc["groupoid"], "elements": elements}}


GENERATED_SOURCES = (
    [("fixture", name) for name in FIXTURE_FILES]
    + [("pair-cyclic", spec) for spec in PAIR_CYCLIC_SPECS]
    + [("union", pair) for pair in UNION_PAIRS]
)


def _generated_doc(kind, source):
    if kind == "fixture":
        return fixture_doc(source)
    if kind == "pair-cyclic":
        return pair_cyclic_doc(*source)
    docs = [pair_cyclic_doc("shift", *source[0]), pair_cyclic_doc("shift", *source[1])]
    return disjoint_union(docs, lambda c, x: f"c{c}.{x}")


@pytest.mark.parametrize("kind,source", GENERATED_SOURCES, ids=str)
def test_generators_generate_in_file_and_shuffled_order(kind, source):
    doc = _generated_doc(kind, source)
    for seed in (None, 1, 2):
        G = _groupoid_of(doc if seed is None else _shuffled(doc, seed))
        assert left_normed_closure(G.product, G.generators) == set(G.elements)
        # each generator is missing from the closure of the ones before it
        for i, g in enumerate(G.generators):
            assert g not in left_normed_closure(G.product, G.generators[:i])


@pytest.mark.parametrize("n,m", [(1, 1), (1, 4), (3, 1), (3, 2), (5, 4)])
def test_pair_cyclic_generators_in_file_order(n, m):
    # e_0 and g0_0_1, then g0_j_0 and gj_0_0 for each other object j
    G = _groupoid_of(pair_cyclic_doc("shift", n, m))
    expected = ["g0_0_0"] + (["g0_0_1"] if m > 1 else [])
    expected += [f"g0_{j}_0" for j in range(1, n)] + [f"g{j}_0_0" for j in range(1, n)]
    assert list(G.generators) == expected


def _cyclic_loop_table():
    """A loop of order 5 in which right multiplication by q1 is the cycle
    q_i -> q_(i+1), so the left-normed powers of q1 are every element and
    the generating set is (q0, q1).  It is not associative:
    (q1 q1) q1 = q3 but q1 (q1 q1) = q0, so Light's test must compare the
    triples whose middle factor is q1."""
    rows = [[0, 1, 2, 3, 4], [1, 2, 0, 4, 3], [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0], [4, 0, 3, 1, 2]]
    elements = [f"q{i}" for i in range(5)]
    products = [(f"q{i}", f"q{j}", f"q{rows[i][j]}") for i in range(5) for j in range(5)]
    return elements, products


def _nonassociative_tables():
    """The cyclic loop, and Chein's loop alone and in a disjoint union with
    P_2 x C_2 or P_3 x C_2, its elements listed before, after or
    interleaved with the other component's."""
    yield "cyclic-loop", _cyclic_loop_table()
    loop = _moufang_loop_table()
    yield "moufang", loop
    for n in (2, 3):
        grp = pair_cyclic_doc("shift", n, 2)["groupoid"]
        other = (grp["elements"], grp["products"])
        products = loop[1] + [tuple(t) for t in other[1]]
        interleaved = [x for pair in itertools.zip_longest(loop[0], other[0])
                       for x in pair if x is not None]
        for order, elements in (("before", loop[0] + other[0]),
                                ("after", other[0] + loop[0]),
                                ("interleaved", interleaved)):
            yield f"moufang+P{n}xC2-{order}", (elements, products)


def test_cyclic_loop_has_one_generator_besides_its_unit():
    elements, products = _cyclic_loop_table()
    product = {(a, b): ab for a, b, ab in products}
    assert greedy_generators(elements, product) == ("q0", "q1")


@pytest.mark.parametrize("name,table", list(_nonassociative_tables()),
                         ids=[name for name, _ in _nonassociative_tables()])
def test_associativity_witness_matches_composable_triple_loop(name, table):
    elements, products = table
    witness = first_nonassociative_triple(elements, products)
    assert witness is not None
    with pytest.raises(ValidationError) as err:
        validate_groupoid(elements, products)
    expected = ValidationError.axiom("associativity", witness)
    assert (str(err.value), err.value.witness) == (str(expected), expected.witness)
