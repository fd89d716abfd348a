"""Finite groupoids as validated partial product tables.

The product is given extensionally as triples; sources d, targets r and
inverses are derived from the table and cross-checked against any values
the caller supplies.  Validation decides every groupoid axiom and its
standard consequences exactly, but does work proportional to the table
rather than to |G|^3:

- the unit candidates, inverse candidates and the division sets come from
  the product entries;
- the composability rule ((g, h) defined iff d g = r h) and the product
  endpoints (d(gh) = d h, r(gh) = r g) are checked on pairs first, and
  together they imply the existence axiom on every triple;
- associativity is then compared on the composable triples only, which
  are the only triples where both sides are defined.

The cost is O(|G| + |products| + composable triples); see
:func:`validate_groupoid` for the proofs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gset as gset_mod
from .errors import (
    AxiomViolation,
    InvalidInput,
    MissingIdentity,
    MissingInverse,
    NonUniqueInverse,
    NotSubgroupoid,
    NotWide,
    OracleMismatch,
    SizeBoundExceeded,
    UnknownLabel,
)

DEFAULT_MAX_ELEMENTS = 20


class Groupoid:
    """Validated finite groupoid; construct through :func:`validate_groupoid`."""

    def __init__(self, elements, product, inverse, d, r, identities):
        self.elements = tuple(elements)
        self.product = dict(product)
        self.inverse = dict(inverse)
        self.d = dict(d)
        self.r = dict(r)
        self.identities = tuple(identities)
        self._index = {g: i for i, g in enumerate(self.elements)}
        self.composable = tuple(
            sorted(self.product, key=lambda p: (self._index[p[0]], self._index[p[1]]))
        )

    def index(self, g) -> int:
        try:
            return self._index[g]
        except KeyError:
            raise UnknownLabel(f"unknown element {g!r}") from None

    def is_identity(self, g) -> bool:
        return g in self._index and self.d[g] == g == self.r[g]

    def __repr__(self):
        return f"Groupoid({list(self.elements)})"


def validate_groupoid(elements, products, inverses=None) -> Groupoid:
    """Build a groupoid from raw data, verifying every axiom exactly.

    The checks run in this order, each on the table's entries or pairs:
    unique units d g and r g; the composability rule (g, h) defined iff
    d g = r h; the product endpoints d(gh) = d h and r(gh) = r g;
    associativity on composable triples; unique inverses; and the standard
    consequences (inverse endpoints and involution, antihomomorphism,
    identity products, fixed identities, left and right division).

    This accepts exactly the tables on which the existence axiom
    ("g(hl) is defined iff gh and hl are, iff (gh)l is") and associativity
    ("(gh)l = g(hl) when defined") hold on every triple:

    1. Composability and endpoints imply existence on every triple.  If gh
       and hl are defined then d g = r h and d h = r l, so g(hl) is defined
       because r(hl) = r h = d g, and (gh)l is defined because
       d(gh) = d h = r l.  If hl is undefined then d h != r l, so (gh)l is
       undefined too, since d(gh) = d h whenever gh exists; symmetrically,
       if gh is undefined then d g != r h = r(hl) and g(hl) is undefined.
    2. By 1, both sides of the associativity law are defined exactly on the
       composable triples (d g = r h, d h = r l), so comparing them there
       decides associativity everywhere.

    Conversely every check made here is an axiom or a consequence of the
    axioms, so no groupoid is rejected.
    """
    elements = list(elements)
    if not elements:
        raise InvalidInput("empty element list")
    if len(set(elements)) != len(elements):
        raise InvalidInput("duplicate element labels")
    index = {g: i for i, g in enumerate(elements)}
    product: dict = {}
    for triple in products:
        if len(triple) != 3:
            raise InvalidInput(f"product triple {triple!r} must have 3 entries")
        a, b, ab = triple
        for lbl in (a, b, ab):
            if lbl not in index:
                raise UnknownLabel(f"product triple references unknown label {lbl!r}")
        if (a, b) in product and product[(a, b)] != ab:
            raise InvalidInput(f"conflicting products for ({a!r}, {b!r})")
        product[(a, b)] = ab

    def in_order(labels):
        return sorted(labels, key=index.__getitem__)

    # Units: x is a right unit of g when gx = g, a left unit when xg = g.
    right_units = {g: set() for g in elements}
    left_units = {g: set() for g in elements}
    for (a, b), ab in product.items():
        if ab == a:
            right_units[a].add(b)
        if ab == b:
            left_units[b].add(a)
    d, r = {}, {}
    for g in elements:
        rights, lefts = in_order(right_units[g]), in_order(left_units[g])
        if not rights or not lefts:
            raise MissingIdentity(f"no d/r identities for {g!r}")
        if len(rights) > 1 or len(lefts) > 1:
            raise AxiomViolation("unique-identities", (g, rights, lefts))
        d[g], r[g] = rights[0], lefts[0]
    with_d = {g: [] for g in elements}
    with_r = {g: [] for g in elements}
    for g in elements:
        with_d[d[g]].append(g)
        with_r[r[g]].append(g)

    # The product is defined exactly on pairs with matching endpoints: every
    # entry matches, and there are as many entries as matching pairs.
    for a, b in product:
        if d[a] != r[b]:
            raise AxiomViolation("composability", (a, b))
    if len(product) != sum(len(with_d[e]) * len(with_r[e]) for e in elements):
        missing = next(
            (g, h) for g in elements for h in with_r[d[g]] if (g, h) not in product
        )
        raise AxiomViolation("composability", missing)
    for (a, b), ab in product.items():
        if d[ab] != d[b] or r[ab] != r[a]:
            raise AxiomViolation("product-endpoints", (a, b))

    # Associativity on composable triples, in (g, h, l) element order.
    for g in elements:
        for h in with_r[d[g]]:
            gh = product[(g, h)]
            for l in with_r[d[h]]:
                if product[(gh, l)] != product[(g, product[(h, l)])]:
                    raise AxiomViolation("associativity", (g, h, l))

    # x is the inverse of g when xg = d g and gx = r g.
    left_inverses = {g: set() for g in elements}
    right_inverses = {g: set() for g in elements}
    for (a, b), ab in product.items():
        if ab == d[b]:
            left_inverses[b].add(a)
        if ab == r[a]:
            right_inverses[a].add(b)
    inverse = {}
    for g in elements:
        cands = in_order(left_inverses[g] & right_inverses[g])
        if not cands:
            raise MissingInverse(f"no inverse for {g!r}")
        if len(cands) > 1:
            raise NonUniqueInverse(f"multiple inverses for {g!r}: {cands}")
        inverse[g] = cands[0]
    if inverses:
        for g, gi in inverses.items():
            if g not in index or gi not in index:
                raise UnknownLabel("inverse map references unknown label")
            if inverse[g] != gi:
                raise AxiomViolation("user-inverse", (g, gi, inverse[g]))

    endpoints = set(d.values()) | set(r.values())
    identities = [g for g in elements if g in endpoints]

    # Standard consequences, tested rather than assumed.
    for g in elements:
        gi = inverse[g]
        if d[gi] != r[g] or r[gi] != d[g]:
            raise AxiomViolation("inverse-endpoints", g)
        if inverse[gi] != g:
            raise AxiomViolation("double-inverse", g)
    for (g, h), gh in product.items():
        if (inverse[h], inverse[g]) not in product:
            raise AxiomViolation("inverse-pair", (g, h))
        if product[(inverse[h], inverse[g])] != inverse[gh]:
            raise AxiomViolation("antihomomorphism", (g, h))
        if (gh in endpoints) != (g == inverse[h]):
            raise AxiomViolation("identity-product", (g, h))
    for e in identities:
        if d[e] != e or r[e] != e or inverse[e] != e:
            raise AxiomViolation("identity-fixed", e)
    # Division: g = hl for some l iff r g = r h, and g = lh for some l iff
    # d g = d h.  Each product set is compared with its endpoint class.
    row = {g: set() for g in elements}
    col = {g: set() for g in elements}
    for (a, b), ab in product.items():
        row[a].add(ab)
        col[b].add(ab)
    for h in elements:
        for axiom, got, want in (
            ("right-division", row[h], with_r[r[h]]),
            ("left-division", col[h], with_d[d[h]]),
        ):
            if got != set(want):
                g = in_order(got.symmetric_difference(want))[0]
                raise AxiomViolation(axiom, (g, h))

    return Groupoid(elements, product, inverse, d, r, identities)


@dataclass(frozen=True)
class SubgroupoidSpec:
    """A product- and inverse-closed subset, in ambient element order."""

    labels: tuple

    def __contains__(self, g):
        return g in self.labels

    def __len__(self):
        return len(self.labels)


def _closure_certificate(G: Groupoid, subset) -> str | None:
    sset = set(subset)
    for g in subset:
        G.index(g)
    for g, h in itertools.product(subset, repeat=2):
        gh = G.product.get((g, h))
        if gh is not None and gh not in sset:
            return f"not closed under product: {g!r}*{h!r}={gh!r}"
    for g in subset:
        if G.inverse[g] not in sset:
            return f"not closed under inverse: {g!r}"
    return None


def make_subgroupoid(G: Groupoid, labels) -> SubgroupoidSpec:
    ordered = tuple(g for g in G.elements if g in set(labels))
    if len(ordered) != len(set(labels)):
        raise UnknownLabel("subgroupoid references unknown labels")
    cert = _closure_certificate(G, ordered)
    if cert:
        raise NotSubgroupoid(cert)
    if not ordered:
        raise NotSubgroupoid("empty subset")
    return SubgroupoidSpec(ordered)


def is_wide_subgroupoid(G: Groupoid, labels) -> tuple[bool, str | None]:
    """True iff the subset is a subgroupoid containing every identity."""
    subset = tuple(g for g in G.elements if g in set(labels))
    unknown = set(labels) - set(G.elements)
    if unknown:
        raise UnknownLabel(f"unknown labels {sorted(map(str, unknown))}")
    cert = _closure_certificate(G, subset)
    if cert:
        return False, cert
    missing = [e for e in G.identities if e not in set(subset)]
    if missing:
        return False, f"missing identities: {missing}"
    return True, None


def enumerate_wide_subgroupoids(
    G: Groupoid, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> list[SubgroupoidSpec]:
    """All wide subgroupoids, ordered by size then lexicographically by
    element index.  Brute force over subsets containing every identity."""
    if len(G.elements) > max_elements:
        raise SizeBoundExceeded(
            f"|G|={len(G.elements)} exceeds bound {max_elements}"
        )
    non_identities = [g for g in G.elements if g not in set(G.identities)]
    out = []
    for size in range(len(non_identities) + 1):
        for combo in itertools.combinations(range(len(non_identities)), size):
            subset = list(G.identities) + [non_identities[i] for i in combo]
            if _closure_certificate(G, subset) is None:
                out.append(make_subgroupoid(G, subset))
    return out


class CosetSpace:
    """Left cosets gH of a wide subgroupoid, with fixed representatives."""

    def __init__(self, groupoid, subgroupoid, classes, representatives, class_of):
        self.groupoid = groupoid
        self.subgroupoid = subgroupoid
        self.classes = classes
        self.representatives = representatives
        self.class_of = class_of


def coset_space(G: Groupoid, H) -> CosetSpace:
    """Partition G into left cosets; a ~ b iff b^{-1}a exists and lies in H."""
    labels = H.labels if isinstance(H, SubgroupoidSpec) else tuple(H)
    wide, cert = is_wide_subgroupoid(G, labels)
    if not wide:
        raise NotWide(cert)
    hset = set(labels)

    def related(a, b):
        prod = G.product.get((G.inverse[b], a))
        return prod is not None and prod in hset

    class_of = {}
    classes = []
    reps = []
    for a in G.elements:
        if a in class_of:
            continue
        members = tuple(b for b in G.elements if related(b, a))
        if a not in members:
            raise OracleMismatch(f"{a!r} not in its own coset")
        for b in members:
            if b in class_of:
                raise OracleMismatch("cosets do not partition the groupoid")
            class_of[b] = len(classes)
        classes.append(members)
        reps.append(a)
    # symmetry and transitivity, checked as a partition property
    for a, b in itertools.product(G.elements, repeat=2):
        if related(a, b) != (class_of[a] == class_of[b]):
            raise OracleMismatch(f"coset relation not an equivalence at ({a!r}, {b!r})")
    return CosetSpace(G, SubgroupoidSpec(labels), tuple(classes), tuple(reps), class_of)


def left_transversal(G: Groupoid, H) -> list:
    """One representative per left coset, smallest label in input order."""
    return list(coset_space(G, H).representatives)


def _coset_label(rep) -> str:
    return f"{rep}H"


def quotient_gset(G: Groupoid, H) -> gset_mod.GSet:
    """The coset space G/H as a split G-set with gamma_g(lH) = (gl)H."""
    cs = coset_space(G, H)
    carrier = [_coset_label(rep) for rep in cs.representatives]
    fiber = {
        _coset_label(rep): G.r[rep] for rep in cs.representatives
    }
    gamma = {}
    for g in G.elements:
        m = {}
        for idx, rep in enumerate(cs.representatives):
            if G.r[rep] != G.d[g]:
                continue
            targets = {cs.class_of[G.product[(g, member)]] for member in cs.classes[idx]}
            if len(targets) != 1:
                raise OracleMismatch(f"coset action ill-defined at ({g!r}, {rep!r}H)")
            m[_coset_label(rep)] = _coset_label(cs.representatives[targets.pop()])
        gamma[g] = m
    return gset_mod.validate_gset(G, carrier, fiber, gamma)


def regular_gset(G: Groupoid) -> gset_mod.GSet:
    """G acting on itself by left translation, fibered by the target map."""
    fiber = {l: G.r[l] for l in G.elements}
    gamma = {
        g: {l: G.product[(g, l)] for l in G.elements if G.r[l] == G.d[g]}
        for g in G.elements
    }
    return gset_mod.validate_gset(G, G.elements, fiber, gamma)
