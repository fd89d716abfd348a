import itertools

import pytest
from hypothesis import find, given, settings, strategies as st

from conftest import PAIR_CYCLIC_SPECS, disjoint_union, idempotents_of, pair_cyclic_doc
from gpdgalois.action import span_elements, subalgebra_closure, validate_action
from gpdgalois.blockring import (
    ProductSpace,
    disconnected_identity,
    faithfulness_criterion,
    is_faithful_ideal,
    make_ring,
)
from gpdgalois.errors import (
    HypothesisFailure,
    InvalidInput,
    SizeBoundExceeded,
)
from gpdgalois.groupoid import validate_groupoid
from gpdgalois.mapalg import require_faithful_hypotheses
from gpdgalois.scalar import make_field
from gpdgalois.tensor import kblocks
from theorems import listed_faithful_ideal, listed_primitive_idempotents


def test_blockwise_product(fix1):
    R = fix1.ring
    x = R.element({"v1": 1, "v3": 1})
    y = R.element({"v1": 1, "v2": 1})
    assert R.mul(x, y) == R.element({"v1": 1})


def test_unit_law_exhaustive(fix1):
    R = fix1.ring
    one = R.one()
    for x in R.all_elements():
        assert R.mul(x, one) == x


def test_orthogonal_blocks(fix1):
    R = fix1.ring
    assert R.mul(R.element({"v1": 1}), R.element({"v2": 1})) == R.zero()


def test_ring_axioms_exhaustive(fix1):
    R = fix1.ring
    elems = list(R.all_elements())
    for x, y, z in itertools.product(elems[:8], repeat=3):
        assert R.mul(x, R.mul(y, z)) == R.mul(R.mul(x, y), z)
        assert R.mul(x, R.add(y, z)) == R.add(R.mul(x, y), R.mul(x, z))
    for x, y in itertools.product(elems, repeat=2):
        assert R.mul(x, y) == R.mul(y, x)


# (field, most slots): up to 8 slots, and at most 8192 elements per space
# so that each example filters the whole product quickly
SEARCH_FIELDS = [(make_field(2), 8), (make_field(3), 8),
                 (make_field(2, 2, [1, 1, 1]), 6), (make_field(2, 3, [1, 1, 0, 1]), 4)]


@st.composite
def spaces_with_moves(draw):
    field, most = draw(st.sampled_from(SEARCH_FIELDS))
    n = draw(st.integers(0, most))
    slot = st.integers(0, n - 1)
    # (i, j, p^t): i = j, i > j and repeated or contradicting pairs all occur
    move = st.tuples(slot, slot, st.integers(0, field.k - 1).map(lambda t: field.p**t))
    moves = draw(st.lists(move, max_size=10)) if n else []
    return ProductSpace(field, range(n)), moves


def filtered_product(space, moves):
    """The search's reference: every element of the product, in the order
    of itertools.product, rejected at its first violated move."""
    field = space.field
    compiled = [(i, j, None if q == 1 else field.frobenius_table(q)) for i, j, q in moves]
    out = []
    for x in itertools.product(field.elements(), repeat=len(space.slots)):
        for i, j, frob in compiled:
            if x[j] != (x[i] if frob is None else frob[x[i]]):
                break
        else:
            out.append(x)
    return out


@settings(max_examples=200, deadline=None)
@given(spaces_with_moves())
def test_pruned_search_equals_the_filtered_product(case):
    space, moves = case
    product = list(itertools.product(space.field.elements(), repeat=len(space.slots)))
    assert list(space.all_elements(())) == product
    assert list(space.all_elements(moves)) == filtered_product(space, moves)


def test_make_ring_rejects_bad_tables():
    F = make_field(2)
    with pytest.raises(InvalidInput, match="block 'v1' assigned to two ideals"):
        make_ring(F, ["v1"], {"e1": ["v1"], "e2": ["v1"]})
    with pytest.raises(InvalidInput, match=r"blocks \['v2'\] belong to no ideal"):
        make_ring(F, ["v1", "v2"], {"e1": ["v1"]})
    with pytest.raises(InvalidInput, match="unknown block 'v9' in ideal of 'e1'"):
        make_ring(F, ["v1"], {"e1": ["v9"]})


def test_idempotents_enumeration(fix1, fix2):
    # idempotents_of is the conftest oracle of the single-block scan in
    # galois; these three tests hold it to its definition
    R = fix1.ring
    out = idempotents_of(R, R.ideal("e2"))
    assert out == [("v3",), ("v4",), ("v3", "v4")]
    single = idempotents_of(R, ("v1",))
    assert single == [("v1",)]
    out2 = idempotents_of(fix2.ring, fix2.ring.ideal("e3"))
    assert out2 == [("v5",), ("v6",), ("v5", "v6")]


def test_idempotents_match_bruteforce(fix1):
    # oracle: x*x = x over the span of the ideal
    R = fix1.ring
    E = R.ideal("e2")
    from gpdgalois.blockring import ideal_fp_basis

    brute = {
        x
        for x in span_elements(R, ideal_fp_basis(R, E))
        if x != R.zero() and R.mul(x, x) == x
    }
    assert {R.unit(sup) for sup in idempotents_of(R, E)} == brute


def test_idempotents_bound(fix1):
    with pytest.raises(SizeBoundExceeded):
        idempotents_of(fix1.ring, fix1.ring.ideal("e2"), max_support=1)


def test_faithful_ideal_direct(fix1, fix2):
    K1 = fix1.action.base_subalgebra()
    ok, witness = is_faithful_ideal(K1, fix1.ring.ideal("e2"))
    assert ok and witness is None

    K2 = fix2.action.base_subalgebra()
    ok, witness = is_faithful_ideal(K2, fix2.ring.ideal("e3"))
    assert not ok
    assert witness == fix2.ring.element({"v1": 1, "v3": 1})

    ok, _ = is_faithful_ideal(K2, fix2.ring.blocks)
    assert ok


def test_faithfulness_criterion_values(fix1, fix2, fixc2):
    assert faithfulness_criterion(fix1.groupoid, "g") is True
    assert faithfulness_criterion(fix2.groupoid, "g") is False
    assert faithfulness_criterion(fixc2.groupoid, "a") is True
    with pytest.raises(InvalidInput, match="unknown element 'zz'"):
        faithfulness_criterion(fix1.groupoid, "zz")


def test_criterion_matches_direct_check_everywhere(fix1, fix2):
    # the combinatorial test must agree with annihilator search on every
    # element of both canonical fixtures
    for fix in (fix1, fix2):
        K = fix.action.base_subalgebra()
        for g in fix.groupoid.elements:
            direct, _ = is_faithful_ideal(K, fix.action.support[g])
            assert faithfulness_criterion(fix.groupoid, g) == direct


def _fp_dim(spec):
    family, n, m, k = spec
    return n * k if family == "frobenius" else n * m * k


@st.composite
def disjoint_families(draw, max_fp_dim=8):
    """Disjoint unions of one to three P_n x C_m problems over one field,
    with at most max_fp_dim F_p-dimensions of blocks in all."""
    k = draw(st.sampled_from([1, 2, 3]))
    fits = [s for s in PAIR_CYCLIC_SPECS if s[3] == k and _fp_dim(s) <= max_fp_dim]
    specs = [draw(st.sampled_from(fits))]
    for _ in range(draw(st.integers(0, 2))):
        room = max_fp_dim - sum(map(_fp_dim, specs))
        fits = [s for s in fits if _fp_dim(s) <= room]
        if not fits:
            break
        specs.append(draw(st.sampled_from(fits)))
    return disjoint_union(
        [pair_cyclic_doc(*s) for s in specs], lambda c, x: f"c{c}.{x}"
    )


@settings(max_examples=60, deadline=None)
@given(disjoint_families())
def test_criterion_matches_direct_check_on_generated_families(doc):
    grp, ring, fld = doc["groupoid"], doc["ring"], doc["field"]
    G = validate_groupoid(grp["elements"], grp["products"])
    F = make_field(fld["p"], fld["k"], fld.get("modulus"))
    R = make_ring(F, ring["blocks"], ring["ideals"], identities=G.identities)
    A = validate_action(
        G, R,
        {g: s["sigma"] for g, s in doc["action"].items()},
        {g: s["frob"] for g, s in doc["action"].items()},
    )
    K = A.base_subalgebra()
    faithful = {}
    for g in G.elements:
        faithful[g], _ = is_faithful_ideal(K, A.support[g])
        assert faithfulness_criterion(G, g) == faithful[g]
        outside = disconnected_identity(G, g)
        assert (outside is None) == faithful[g]
        if outside is not None:
            assert not any(G.d[h] == G.r[g] and G.r[h] == outside for h in G.elements)
    if all(faithful.values()):
        require_faithful_hypotheses(A)
    else:
        with pytest.raises(HypothesisFailure) as err:
            require_faithful_hypotheses(A)
        g, outside, annihilator = err.value.witness
        assert not faithful[g] and outside == disconnected_identity(G, g)
        assert annihilator is not None


@st.composite
def subalgebras_with_ideals(draw):
    """The subalgebra of F^n that up to three random elements generate,
    F in F_2, F_3 and F_4 and n <= 5, with a nonempty set of blocks.
    Over F_4 a generator may be a Frobenius pair (x, x^2) on two blocks,
    so that the blocks of one field of K differ by a twist."""
    field = draw(st.sampled_from([make_field(2), make_field(3), make_field(2, 2, [1, 1, 1])]))
    n = draw(st.integers(1, 5))
    space = ProductSpace(field, [f"b{i}" for i in range(n)])
    scalars = st.sampled_from(field.elements())
    gens = [tuple(g) for g in draw(st.lists(
        st.lists(scalars, min_size=n, max_size=n), max_size=3))]
    if field.k == 2 and n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        x = draw(scalars)
        gens.append(space.embed({f"b{i}": x, f"b{j}": field.power(x, 2)}))
    E = draw(st.lists(st.sampled_from(space.slots), min_size=1, unique=True))
    return subalgebra_closure(space, gens), E


@settings(max_examples=300, deadline=None)
@given(subalgebras_with_ideals())
def test_kblocks_and_annihilators_match_listing_on_random_subalgebras(case):
    K, E = case
    assert [blk.u for blk in kblocks(K)] == listed_primitive_idempotents(K)
    assert is_faithful_ideal(K, E) == listed_faithful_ideal(K, E)


@st.composite
def subalgebras_over_extensions(draw):
    """The subalgebra of F^n that up to three random elements generate,
    F in F_4, F_8 and F_9 and n <= 4, sometimes with a Frobenius pair
    (x, x^p) on two slots, so that K-block fields K·u of every degree
    d <= k occur, proper subfields (d < k) among them."""
    field = draw(st.sampled_from([make_field(2, 2, [1, 1, 1]), make_field(2, 3, [1, 1, 0, 1]),
                                  make_field(3, 2, [1, 0, 1])]))
    n = draw(st.integers(1, 4))
    space = ProductSpace(field, [f"b{i}" for i in range(n)])
    scalars = st.sampled_from(field.elements())
    gens = [tuple(g) for g in draw(st.lists(
        st.lists(scalars, min_size=n, max_size=n), max_size=3))]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        x = draw(scalars)
        gens.append(space.embed({f"b{i}": x, f"b{j}": field.power(x, field.p)}))
    return subalgebra_closure(space, gens)


def has_proper_subfield_block(K):
    return any(blk.degree < K.space.field.k for blk in kblocks(K))


@settings(max_examples=150, deadline=None)
@given(subalgebras_over_extensions())
def test_kblock_fields_are_read_inside_the_ring_field(K):
    # x -> x_b at the block's first slot is an injective ring map on K·u,
    # lift inverts it, and the coordinate tables are mutually inverse
    space, F = K.space, K.space.field
    for blk in kblocks(K):
        b = blk.slot
        assert blk.u[b] == F.one and blk.field is F
        members = span_elements(space, blk.fp_basis)
        assert len({x[b] for x in members}) == len(members) == F.p**blk.degree
        for x, y in itertools.product(members, repeat=2):
            assert space.add(x, y)[b] == F.add(x[b], y[b])
            assert space.mul(x, y)[b] == F.mul(x[b], y[b])
        for x in members:
            assert K.contains(x) and space.mul(x, blk.u) == x
            assert blk.lift(space, x[b]) == x
        assert len(blk.from_coords) == len(blk.to_coords) == len(members)
        for coords, s in blk.from_coords.items():
            assert blk.to_coords[s] == coords
            assert space.int_combine(coords, blk.fp_basis)[b] == s


def test_random_subalgebras_over_extensions_include_proper_subfield_blocks():
    # the strategy above reaches blocks with d < k, over F_4, F_8 and F_9
    for k, p in ((2, 2), (3, 2), (2, 3)):
        K = find(subalgebras_over_extensions(),
                 lambda K: (K.space.field.k, K.space.field.p) == (k, p)
                 and has_proper_subfield_block(K),
                 settings=settings(database=None))
        assert has_proper_subfield_block(K)
