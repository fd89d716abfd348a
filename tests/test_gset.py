import functools
import itertools
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import theorems
from conftest import PROBLEM_SOURCES, pairwise_validate_gset, problem_doc
from gpdgalois.errors import InvalidInput, SizeBoundExceeded, ValidationError
from gpdgalois.groupoid import (
    coset_space,
    enumerate_wide_subgroupoids,
    make_subgroupoid,
    quotient_gset,
    regular_gset,
    validate_groupoid,
)
from gpdgalois.gset import GMap, check_gmap, gset_isomorphic, validate_gset
from theorems import backtracking_gset_isomorphic


def test_regular_validates(fix1):
    X = regular_gset(fix1.groupoid)
    assert len(X.carrier) == 4


def test_quotient_validates(fix2):
    G = fix2.groupoid
    X = quotient_gset(coset_space(G, make_subgroupoid(G, ["e1", "e2", "e3", "h"])))
    assert len(X.carrier) == 5


def test_swapped_gamma_fails_composition(fix1):
    G = fix1.groupoid
    fiber = {l: G.r[l] for l in G.elements}
    gamma = {
        g: {l: G.product[(g, l)] for l in G.elements if G.r[l] == G.d[g]}
        for g in G.elements
    }
    gamma["g"] = {"e1": "e2", "gi": "g"}
    with pytest.raises(ValidationError, match=re.escape("gamma['g'] o gamma['gi'] != gamma['e2'] at 'e2'")):
        validate_gset(G, G.elements, fiber, gamma)


def test_unfibered_point_rejected(fix1):
    G = fix1.groupoid
    with pytest.raises(ValidationError, match="point 'x' lies in no fiber"):
        validate_gset(G, ["x"], {}, {})


def test_identity_gmap_is_isomorphism(fix1):
    X = regular_gset(fix1.groupoid)
    report = check_gmap(GMap(X, X, {x: x for x in X.carrier}))
    assert report.valid and report.isomorphism


def test_collapsing_gmap_fails_equivariance(fix1):
    G = fix1.groupoid
    X = quotient_gset(coset_space(G, make_subgroupoid(G, ["e1", "e2"])))
    collapse = {"e1H": "e1H", "giH": "e1H", "e2H": "e2H", "gH": "e2H"}
    report = check_gmap(GMap(X, X, collapse))
    assert not report.valid
    assert "equivariant" in report.certificate


def _brute_isomorphic(a, b):
    if len(a.carrier) != len(b.carrier):
        return False
    G = a.groupoid
    for perm in itertools.permutations(b.carrier):
        mapping = dict(zip(a.carrier, perm))
        if any(a.fiber[x] != b.fiber[y] for x, y in mapping.items()):
            continue
        ok = True
        for g in G.elements:
            for x in a.fiber_points(G.d[g]):
                if mapping[a.gamma[g][x]] != b.gamma[g][mapping[x]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def test_isomorphism_search(fix1):
    G = fix1.groupoid
    reg = regular_gset(G)
    singles = quotient_gset(coset_space(G, make_subgroupoid(G, ["e1", "e2"])))
    collapsed = quotient_gset(coset_space(G, make_subgroupoid(G, G.elements)))

    assert gset_isomorphic(reg, reg) is not None
    found = gset_isomorphic(singles, reg)
    assert found is not None and check_gmap(found).isomorphism
    assert gset_isomorphic(collapsed, reg) is None

    # oracle: exhaustive search over fiber-respecting bijections
    assert _brute_isomorphic(singles, reg)
    assert not _brute_isomorphic(collapsed, reg)


def _c2_gset(G, carrier, swapped):
    """The G-set of the group G = C_2 = {e, s} on the carrier in which s
    swaps each given pair and fixes every other point."""
    s = {x: x for x in carrier}
    for x, y in swapped:
        s[x], s[y] = y, x
    return validate_gset(G, carrier, {x: "e" for x in carrier}, {"s": s})


def test_isomorphism_search_backtracks_and_exhausts():
    # a's first point is fixed by s and b's first point is not, so the
    # search first maps one onto the other and has to backtrack.  c has the
    # fiber sizes of a but no fixed point, so the search exhausts every
    # fiber-respecting bijection and returns None.
    G = validate_groupoid(
        ["e", "s"], [["e", "e", "e"], ["e", "s", "s"], ["s", "e", "s"], ["s", "s", "e"]]
    )
    a = _c2_gset(G, ["f1", "m1", "m2", "f2"], [("m1", "m2")])
    b = _c2_gset(G, ["n1", "n2", "g1", "g2"], [("n1", "n2")])
    c = _c2_gset(G, ["p1", "p2", "q1", "q2"], [("p1", "p2"), ("q1", "q2")])
    found = gset_isomorphic(a, b)
    assert found is not None and check_gmap(found).isomorphism
    assert found.mapping == {"f1": "g1", "m1": "n1", "m2": "n2", "f2": "g2"}
    assert _brute_isomorphic(a, b)
    assert gset_isomorphic(a, c) is None
    assert not _brute_isomorphic(a, c)
    # x1 -> y1 is kept, then z -> y2 is assigned.  x2, which s swaps with
    # x1, then has no image: y1 and y2 are used, and s swaps u1 and u2, not
    # u1 and y1.  So the search undoes z -> y2 and maps z into u1's orbit.
    x = _c2_gset(G, ["x1", "z", "x2", "w"], [("x1", "x2"), ("z", "w")])
    y = _c2_gset(G, ["y1", "y2", "u1", "u2"], [("y1", "y2"), ("u1", "u2")])
    found = gset_isomorphic(x, y)
    assert found is not None and check_gmap(found).isomorphism
    assert found.mapping == {"x1": "y1", "z": "u1", "x2": "y2", "w": "u2"}
    assert _brute_isomorphic(x, y)


def test_isomorphism_reflexive_symmetric(fix1, fix2, fixc2):
    for fix in (fix1, fix2, fixc2):
        G = fix.groupoid
        reg = regular_gset(G)
        assert gset_isomorphic(reg, reg) is not None
        quot = quotient_gset(coset_space(G, make_subgroupoid(G, G.elements)))
        assert (gset_isomorphic(reg, quot) is None) == (
            gset_isomorphic(quot, reg) is None
        )


def test_isomorphism_bound(fix1):
    # the backtracking reference keeps the 20-point bound; orbit transport
    # has none
    reg = regular_gset(fix1.groupoid)
    with mock.patch.object(theorems, "DEFAULT_MAX_POINTS", 2), \
            pytest.raises(SizeBoundExceeded, match="carrier larger than 2"):
        backtracking_gset_isomorphic(reg, reg)


def test_gsets_over_different_groupoids_are_refused(fix1, fix2):
    a, b = regular_gset(fix1.groupoid), regular_gset(fix2.groupoid)
    with pytest.raises(InvalidInput, match="G-sets over different groupoids"):
        gset_isomorphic(a, b)
    with pytest.raises(InvalidInput, match="source and target live over different groupoids"):
        check_gmap(GMap(a, b, dict(zip(a.carrier, b.carrier))))


def _agrees_with_backtracking(a, b):
    found = gset_isomorphic(a, b)
    assert (found is None) == (backtracking_gset_isomorphic(a, b) is None)
    assert found is None or check_gmap(found).isomorphism
    return found is not None


@pytest.mark.parametrize("source", [
    s for s in PROBLEM_SOURCES if len(problem_doc(s)["groupoid"]["elements"]) <= 16
], ids=str)
def test_orbit_transport_matches_backtracking(source):
    # every ordered pair of the regular and quotient G-sets, isomorphic
    # or not
    _, gsets = _gsets_of(source)
    for i, a in enumerate(gsets):
        for j, b in enumerate(gsets):
            assert _agrees_with_backtracking(a, b) or i != j


def _permutation_group(gens):
    """The one-object groupoid of the permutations the tuples gens
    generate, (gh)(i) = g(h(i))."""
    perms = {tuple(range(len(gens[0])))}
    frontier = list(perms)
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = tuple(g[i] for i in h)
            if gh not in perms:
                perms.add(gh)
                frontier.append(gh)
    perms = sorted(perms)
    name = {g: "".join(map(str, g)) for g in perms}
    products = [[name[g], name[h], name[tuple(g[i] for i in h)]] for g in perms for h in perms]
    return validate_groupoid([name[g] for g in perms], products)


def _disjoint_union(a, b):
    """The G-set a + b, its points tagged 0 and 1."""
    parts = list(enumerate((a, b)))
    carrier = [(c, x) for c, X in parts for x in X.carrier]
    fiber = {(c, x): X.fiber[x] for c, X in parts for x in X.carrier}
    gamma = {g: {(c, x): (c, y) for c, X in parts for x, y in X.gamma[g].items()}
             for g in a.groupoid.elements}
    return validate_gset(a.groupoid, carrier, fiber, gamma)


@pytest.mark.parametrize("gens", [
    [(1, 0, 2), (1, 2, 0)],          # S_3
    [(1, 2, 3, 0), (0, 3, 2, 1)],    # D_4
], ids=["S3", "D4"])
def test_orbit_transport_with_conjugate_stabilizers(gens):
    # the vertex group is not abelian, so the points of one orbit have
    # different, conjugate stabilizers; unions of two quotients have two
    # orbits, and G/H + G/H' is isomorphic to G/H' + G/H
    G = _permutation_group(gens)
    quotients = [quotient_gset(coset_space(G, H)) for H in enumerate_wide_subgroupoids(G)]
    pairs = list(itertools.combinations_with_replacement(quotients, 2))
    unions = [_disjoint_union(a, b) for a, b in pairs]
    gsets = quotients + unions
    found = sum(_agrees_with_backtracking(a, b) for a in gsets for b in gsets)
    assert found > len(gsets)
    for (a, b), ab in zip(pairs, unions):
        assert gset_isomorphic(_disjoint_union(b, a), ab) is not None


def test_split_fiber_count(fix1, fix2):
    for fix in (fix1, fix2):
        X = regular_gset(fix.groupoid)
        total = sum(len(X.fiber_points(e)) for e in fix.groupoid.identities)
        assert total == len(X.carrier)


def test_gamma_inverse_is_inverse_map(fix1, fix2):
    for fix in (fix1, fix2):
        G = fix.groupoid
        X = regular_gset(G)
        for g in G.elements:
            gi = G.inverse[g]
            for x in X.fiber_points(G.d[g]):
                assert X.gamma[gi][X.gamma[g][x]] == x


@functools.lru_cache(maxsize=None)
def _gsets_of(source):
    """The regular G-set and the quotient G-sets of a problem's groupoid:
    by every wide subgroupoid when |G| <= 20, else by the identities and
    by the whole groupoid."""
    grp = problem_doc(source)["groupoid"]
    G = validate_groupoid(grp["elements"], grp["products"])
    if len(G.elements) <= 20:
        subs = enumerate_wide_subgroupoids(G)
    else:
        subs = [G.identities, G.elements]
    return G, [regular_gset(G)] + [quotient_gset(coset_space(G, H)) for H in subs]


@st.composite
def mutated_gsets(draw):
    """A regular or quotient G-set of a fixture or generated problem with
    at most one gamma_g changed: two images swapped, or one image moved
    to any point of the carrier."""
    G, gsets = _gsets_of(draw(st.sampled_from(PROBLEM_SOURCES)))
    X = draw(st.sampled_from(gsets))
    gamma = {g: dict(m) for g, m in X.gamma.items()}
    g = draw(st.sampled_from(G.elements))
    points = list(gamma[g])
    x = draw(st.sampled_from(points))
    kind = draw(st.sampled_from(["none", "swap", "retarget"]))
    if kind == "swap" and len(points) > 1:
        y = draw(st.sampled_from([y for y in points if y != x]))
        gamma[g][x], gamma[g][y] = gamma[g][y], gamma[g][x]
    elif kind == "retarget":
        gamma[g][x] = draw(st.sampled_from(X.carrier))
    return G, X.carrier, X.fiber, gamma


def _gset_outcome(validate, G, carrier, fiber, gamma):
    try:
        X = validate(G, carrier, fiber, gamma)
    except ValidationError as err:
        return type(err), str(err), err.witness
    return X.carrier, X.fiber, X.gamma


@settings(max_examples=300, deadline=None)
@given(mutated_gsets())
def test_validate_gset_matches_pairwise_oracle(case):
    assert _gset_outcome(validate_gset, *case) == _gset_outcome(pairwise_validate_gset, *case)
