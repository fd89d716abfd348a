import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FIXTURE_FILES,
    PAIR_CYCLIC_SPECS,
    cli_outcome,
    fixture_doc,
    oracle_validate_groupoid,
    pair_cyclic_doc,
)
from gpdgalois.errors import (
    AxiomViolation,
    NotSubgroupoid,
    NotWide,
    SizeBoundExceeded,
    UnknownLabel,
    ValidationError,
)
from gpdgalois.groupoid import (
    coset_space,
    enumerate_wide_subgroupoids,
    is_wide_subgroupoid,
    left_transversal,
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
    with pytest.raises(AxiomViolation):
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
    with pytest.raises(UnknownLabel):
        is_wide_subgroupoid(fix1.groupoid, ["nope"])


def test_make_subgroupoid_requires_closure(fix1):
    with pytest.raises(NotSubgroupoid):
        make_subgroupoid(fix1.groupoid, ["e1", "e2", "g"])


def _brute_wide(G):
    non_ids = [g for g in G.elements if g not in set(G.identities)]
    out = []
    for size in range(len(non_ids) + 1):
        for combo in itertools.combinations(non_ids, size):
            subset = set(G.identities) | set(combo)
            closed = all(
                G.product[(a, b)] in subset
                for a, b in itertools.product(subset, repeat=2)
                if (a, b) in G.product
            ) and all(G.inverse[a] in subset for a in subset)
            if closed:
                out.append(frozenset(subset))
    return out


def test_enumerate_wide_subgroupoids(fix1, fix2, fixc2):
    subs1 = enumerate_wide_subgroupoids(fix1.groupoid)
    assert [s.labels for s in subs1] == [("e1", "e2"), ("e1", "e2", "g", "gi")]
    subs2 = enumerate_wide_subgroupoids(fix2.groupoid)
    # labels are reported in ambient element order (e3, h come last)
    assert [s.labels for s in subs2] == [
        ("e1", "e2", "e3"),
        ("e1", "e2", "e3", "h"),
        ("e1", "e2", "g", "gi", "e3"),
        ("e1", "e2", "g", "gi", "e3", "h"),
    ]
    subsc = enumerate_wide_subgroupoids(fixc2.groupoid)
    assert [s.labels for s in subsc] == [("e",), ("e", "a")]
    for fix, subs in ((fix1, subs1), (fix2, subs2), (fixc2, subsc)):
        assert {frozenset(s.labels) for s in subs} == set(_brute_wide(fix.groupoid))


def test_enumerate_bound(fix1):
    with pytest.raises(SizeBoundExceeded):
        enumerate_wide_subgroupoids(fix1.groupoid, max_elements=2)


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


def test_left_transversal(fix1, fixc2):
    G = fix1.groupoid
    assert left_transversal(G, make_subgroupoid(G, ["e1", "e2"])) == [
        "e1", "e2", "g", "gi",
    ]
    assert left_transversal(G, make_subgroupoid(G, G.elements)) == ["e1", "e2"]
    Gc = fixc2.groupoid
    assert left_transversal(Gc, make_subgroupoid(Gc, Gc.elements)) == ["e"]
    with pytest.raises(NotWide):
        left_transversal(G, ["e1"])


def test_quotient_gset_values(fix1, fixc2):
    G = fix1.groupoid
    X = quotient_gset(G, make_subgroupoid(G, ["e1", "e2"]))
    assert set(X.carrier) == {"e1H", "e2H", "gH", "giH"}
    assert set(X.fiber_points("e1")) == {"e1H", "giH"}
    assert set(X.fiber_points("e2")) == {"e2H", "gH"}
    assert X.gamma["g"]["e1H"] == "gH"
    assert X.gamma["g"]["giH"] == "e2H"

    Xfull = quotient_gset(G, make_subgroupoid(G, G.elements))
    assert Xfull.carrier == ("e1H", "e2H")
    assert Xfull.fiber_points("e1") == ("e1H",)

    Gc = fixc2.groupoid
    assert len(quotient_gset(Gc, make_subgroupoid(Gc, Gc.elements)).carrier) == 1


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
                     "composable"):
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
        with pytest.raises(AxiomViolation) as err:
            validate(elements, products)
        assert err.value.axiom == "associativity"
