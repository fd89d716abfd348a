import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import PAIR_CYCLIC_SPECS, disjoint_union, pair_cyclic_doc
from gpdgalois.action import validate_action
from gpdgalois.blockring import (
    IdealRef,
    disconnected_identity,
    faithfulness_criterion,
    idempotents_of,
    is_faithful_ideal,
    make_ring,
    ring_arith,
)
from gpdgalois.errors import (
    HypothesisFailure,
    InvalidInput,
    SizeBoundExceeded,
    UnknownLabel,
)
from gpdgalois.groupoid import validate_groupoid
from gpdgalois.mapalg import require_faithful_hypotheses
from gpdgalois.scalar import make_field


def test_blockwise_product(fix1):
    R = fix1.ring
    x = R.element({"v1": 1, "v3": 1})
    y = R.element({"v1": 1, "v2": 1})
    assert ring_arith(R, "mul", x, y) == R.element({"v1": 1})


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


def test_make_ring_rejects_bad_tables():
    F = make_field(2)
    with pytest.raises(InvalidInput):
        make_ring(F, ["v1"], {"e1": ["v1"], "e2": ["v1"]})
    with pytest.raises(InvalidInput):
        make_ring(F, ["v1", "v2"], {"e1": ["v1"]})
    with pytest.raises(UnknownLabel):
        make_ring(F, ["v1"], {"e1": ["v9"]})


def test_idempotents_enumeration(fix1, fix2):
    R = fix1.ring
    out = idempotents_of(R, R.ideal("e2"))
    assert [i.support for i in out] == [("v3",), ("v4",), ("v3", "v4")]
    single = idempotents_of(R, IdealRef(("v1",)))
    assert [i.support for i in single] == [("v1",)]
    out2 = idempotents_of(fix2.ring, fix2.ring.ideal("e3"))
    assert [i.support for i in out2] == [("v5",), ("v6",), ("v5", "v6")]


def test_idempotents_match_bruteforce(fix1):
    # oracle: x*x = x over the span of the ideal
    R = fix1.ring
    E = R.ideal("e2")
    from gpdgalois.action import span_elements
    from gpdgalois.blockring import ideal_fp_basis

    brute = {
        x
        for x in span_elements(R, ideal_fp_basis(R, E.support))
        if x != R.zero() and R.mul(x, x) == x
    }
    assert {R.unit(i.support) for i in idempotents_of(R, E)} == brute


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

    ok, _ = is_faithful_ideal(K2, IdealRef(fix2.ring.blocks))
    assert ok


def test_faithfulness_criterion_values(fix1, fix2, fixc2):
    assert faithfulness_criterion(fix1.groupoid, "g") is True
    assert faithfulness_criterion(fix2.groupoid, "g") is False
    assert faithfulness_criterion(fixc2.groupoid, "a") is True
    with pytest.raises(UnknownLabel):
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
