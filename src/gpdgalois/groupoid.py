"""Finite groupoids as validated partial product tables.

The product is given extensionally as triples; sources d, targets r and
inverses are derived from the table and cross-checked against any values
the caller supplies.  Validation decides every groupoid axiom exactly,
and with them their standard consequences, which are theorems of the
axioms (see :func:`validate_groupoid`).  It does work proportional to
the table rather than to |G|^3:

- the unit candidates and inverse candidates come from the product
  entries;
- the composability rule ((g, h) defined iff d g = r h) and the product
  endpoints (d(gh) = d h, r(gh) = r g) are checked on pairs first, and
  together they imply the existence axiom on every triple;
- a generating set Gamma is read off the table, and associativity is
  compared on the composable triples whose middle factor lies in Gamma
  (Light's test), which decides it on every triple.

The cost is O(|G| + |products| + |Gamma| |G|) plus one comparison per
composable triple with its middle factor in Gamma.  On a connected
groupoid with n objects that is |Gamma| |G|^2 / n^2 comparisons, the
fraction |Gamma| / |G| of the composable triples; P_n x C_m (m > 1),
listed by target, source and label, has |Gamma| = 2n.  See :func:`validate_groupoid` for the proofs.  Every
validated groupoid carries Gamma, and the composition laws of actions and
G-sets over it (:func:`gpdgalois.action.check_composition`,
:func:`gpdgalois.gset.validate_gset`) are decided on Gamma too.
"""

from __future__ import annotations

from . import gset as gset_mod
from .errors import InvalidInput, OracleMismatch, SizeBoundExceeded, ValidationError

DEFAULT_MAX_ELEMENTS = 20


class Groupoid:
    """Validated finite groupoid; construct through :func:`validate_groupoid`."""

    def __init__(self, elements, product, inverse, d, r, identities, generators):
        self.elements = tuple(elements)
        self.product = dict(product)
        self.inverse = dict(inverse)
        self.d = dict(d)
        self.r = dict(r)
        self.identities = tuple(identities)
        self.generators = tuple(generators)
        self._index = {g: i for i, g in enumerate(self.elements)}
        into = _by_target(self.r, self.elements)
        # the product is defined exactly when d g = r h, so these are its
        # keys in (g, h) element order
        self.composable = tuple(
            (g, h) for g in self.elements for h in into[self.d[g]]
        )
        gens = set(self.generators)
        # the composable pairs on which a composition law is decided
        self.generator_pairs = tuple(p for p in self.composable if p[1] in gens)

    def index(self, g) -> int:
        try:
            return self._index[g]
        except KeyError:
            raise InvalidInput(f"unknown element {g!r}") from None

    def __repr__(self):
        return f"Groupoid({list(self.elements)})"


def _by_target(r, labels) -> dict:
    """identity e -> the labels h with r h = e, in the order given."""
    into: dict = {}
    for h in labels:
        into.setdefault(r[h], []).append(h)
    return into


def _generating_set(elements, product, d, r) -> tuple:
    """Gamma: the elements, in the given order, that are not left-normed
    products (...((g1 g2) g3) ... gk) of the elements taken before them.

    The set reached so far is kept closed under right multiplication by
    Gamma: a new generator is multiplied onto every reached element, and
    every newly reached element by every generator.  So each element of G
    is multiplied by each generator once, O(|G| |Gamma|) products.  Only
    the product of composable pairs is read, never associativity, so this
    runs before associativity is known.  Every element is reached, so the
    left-normed products of Gamma are all of G."""
    gens, reached = [], set()
    gens_into: dict = {}  # identity e -> the generators h with r h = e
    reached_from: dict = {}  # identity e -> the reached x with d x = e
    for g in elements:
        if g in reached:
            continue
        gens.append(g)
        gens_into.setdefault(r[g], []).append(g)
        queue = [g] + [product[(x, g)] for x in reached_from.get(r[g], ())]
        while queue:
            y = queue.pop()
            if y in reached:
                continue
            reached.add(y)
            reached_from.setdefault(d[y], []).append(y)
            queue.extend(product[(y, h)] for h in gens_into.get(d[y], ()))
    return tuple(gens)


def validate_groupoid(elements, products, inverses=None) -> Groupoid:
    """Build a groupoid from raw data, verifying every axiom exactly.

    The checks run in this order, each on the table's entries or pairs:
    unique units d g and r g; the composability rule (g, h) defined iff
    d g = r h; the product endpoints d(gh) = d h and r(gh) = r g;
    associativity by Light's test on the generating set Gamma; and unique
    inverses.

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
    3. Light's test (Clifford and Preston, The Algebraic Theory of
       Semigroups I, 1961, section 1.2), for a partial product: it is
       enough to compare the composable triples whose middle factor h lies
       in Gamma.  Call h good when (xh)y = x(hy) for every x, y with
       d x = r h and d h = r y.  If a and b are good and ab is defined,
       then ab is good: for x, y composable with ab,
       (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y),
       using a, then b, then a, then b, and by 1 every product in this
       chain is defined.  Each element of Gamma is good by the comparison,
       so by induction every left-normed product of Gamma is good, and
       these are all of G (:func:`_generating_set`).

    When the comparison on Gamma finds a failure, the composable triples
    are scanned in (g, h, l) element order and the first failing one is
    the witness, so the report does not depend on Gamma.

    Conversely every check made here is an axiom, so no groupoid is
    rejected.

    The standard consequences are theorems of the checked axioms, so they
    are not checked again.  Write g' for the inverse of g, so g'g = d g
    and gg' = r g, and use associativity on every triple (3).
    4. Units are identities: g d g is defined, so d g = r(d g), and
       d(g d g) = d(d g) gives d(d g) = d g; symmetrically r(r g) = r g.
       An identity e is its own unit on both sides, so ee = e, d e = r e
       = e, and e is its own inverse by uniqueness.
    5. Inverse endpoints: g'g and gg' are defined, so d g' = r g and
       d g = r g'.  Involution: g satisfies the inverse equations of g'
       (g g' = r g = d g', g'g = d g = r g'), so g'' = g by uniqueness.
    6. Antihomomorphism: for gh defined, h'g' is defined since
       d h' = r h = d g = r g', and (h'g')(gh) = h'(d g)h = h'h = d(gh),
       (gh)(h'g') = g(r h)g' = gg' = r(gh); so (gh)' = h'g'.
    7. Identity products: gh is an identity exactly when g = h'.  If so,
       gh = d h.  If gh = e is an identity then e = d e = d(gh) = d h
       and e = r e = r(gh) = r g, so g = g(hh') = (gh)h' = (d h)h' = h'.
    8. Division: for r g = r h, l = h'g is defined and hl = (r h)g = g;
       for d g = d h, l = gh' is defined and lh = g(d h) = g.  Every hl
       has r(hl) = r h and every lh has d(lh) = d h, by the endpoints.
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
                raise InvalidInput(f"product triple references unknown label {lbl!r}")
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
            raise ValidationError(f"no d/r identities for {g!r}")
        if len(rights) > 1 or len(lefts) > 1:
            raise ValidationError.axiom("unique-identities", (g, rights, lefts))
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
            raise ValidationError.axiom("composability", (a, b))
    if len(product) != sum(len(with_d[e]) * len(with_r[e]) for e in elements):
        missing = next(
            (g, h) for g in elements for h in with_r[d[g]] if (g, h) not in product
        )
        raise ValidationError.axiom("composability", missing)
    for (a, b), ab in product.items():
        if d[ab] != d[b] or r[ab] != r[a]:
            raise ValidationError.axiom("product-endpoints", (a, b))

    def nonassociative(pairs):
        for g, h in pairs:
            gh = product[(g, h)]
            for l in with_r[d[h]]:
                if product[(gh, l)] != product[(g, product[(h, l)])]:
                    yield g, h, l

    generators = _generating_set(elements, product, d, r)
    if next(nonassociative((g, h) for h in generators for g in with_d[r[h]]), None):
        raise ValidationError.axiom("associativity", next(
            nonassociative((g, h) for g in elements for h in with_r[d[g]])
        ))

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
            raise ValidationError(f"no inverse for {g!r}")
        if len(cands) > 1:
            raise ValidationError(f"multiple inverses for {g!r}: {cands}")
        inverse[g] = cands[0]
    if inverses:
        for g, gi in inverses.items():
            if g not in index or gi not in index:
                raise InvalidInput("inverse map references unknown label")
            if inverse[g] != gi:
                raise ValidationError.axiom("user-inverse", (g, gi, inverse[g]))

    endpoints = set(d.values()) | set(r.values())
    identities = [g for g in elements if g in endpoints]

    return Groupoid(elements, product, inverse, d, r, identities, generators)


def _closure_certificate(G: Groupoid, subset) -> str | None:
    """Why a subset of G's elements is not closed, or None if it is.

    The pairs are visited in subset order, but only the composable ones:
    for each g, the h with r h = d g.  A pair that is not composable has
    no product to leave the subset, so the first certificate is the one
    that a scan of all |S|^2 pairs finds."""
    sset = set(subset)
    into = _by_target(G.r, subset)
    for g in subset:
        for h in into.get(G.d[g], ()):
            gh = G.product[(g, h)]
            if gh not in sset:
                return f"not closed under product: {g!r}*{h!r}={gh!r}"
    for g in subset:
        if G.inverse[g] not in sset:
            return f"not closed under inverse: {g!r}"
    return None


def _known_subset(G: Groupoid, labels) -> tuple:
    """The labels in G's element order; InvalidInput names any label that
    is not an element of G."""
    wanted = set(labels)
    unknown = wanted - set(G.elements)
    if unknown:
        raise InvalidInput(f"unknown labels {sorted(map(str, unknown))}")
    return tuple(g for g in G.elements if g in wanted)


def make_subgroupoid(G: Groupoid, labels) -> tuple:
    """A subgroupoid as the tuple of its labels in G's element order, the
    one form every function here takes.  Raises InvalidInput on an
    unknown label and ValidationError on an empty or unclosed subset."""
    ordered = _known_subset(G, labels)
    cert = _closure_certificate(G, ordered)
    if cert:
        raise ValidationError(cert)
    if not ordered:
        raise ValidationError("empty subset")
    return ordered


def is_wide_subgroupoid(G: Groupoid, labels) -> tuple[bool, str | None]:
    """True iff the subset is a subgroupoid containing every identity."""
    subset = _known_subset(G, labels)
    cert = _closure_certificate(G, subset)
    if cert:
        return False, cert
    missing = [e for e in G.identities if e not in set(subset)]
    if missing:
        return False, f"missing identities: {missing}"
    return True, None


def _closure(G: Groupoid, members: frozenset, g) -> frozenset:
    """The smallest subset containing members and g that is closed under
    product and inverse; members must already be closed."""
    out = set(members)
    queue = [g]
    while queue:
        x = queue.pop()
        if x in out:
            continue
        out.add(x)
        queue.append(G.inverse[x])
        for y in out:
            for pair in ((x, y), (y, x)):
                xy = G.product.get(pair)
                if xy is not None and xy not in out:
                    queue.append(xy)
    return frozenset(out)


def enumerate_wide_subgroupoids(
    G: Groupoid, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> list[tuple]:
    """All wide subgroupoids as label tuples, ordered by size, then
    lexicographically by the element indices of their non-identities.

    Closure search (cyclic extension; Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, ch. 10): start from the identities and
    close S together with each element g outside S under product and
    inverse, for every S found, keeping each result once.  Every result
    contains the identities and is closed, so it is a wide subgroupoid.
    Every wide subgroupoid W is found: the identities lie in W, and while
    S is a proper subset of W, any g in W outside S gives a closure that
    lies inside W, because W is closed and contains S and g, and that is
    strictly larger than S.  G is finite, so this chain of one-element
    closures, each found from the one before, ends at W.

    For each S, g and its inverse are tried once between them: a set
    closed under inverse that contains one of them contains the other, so
    _closure(G, S, g) = _closure(G, S, g^{-1}).  The set of results is the
    same, and so is the returned order, which is a sort.
    """
    if len(G.elements) > max_elements:
        raise SizeBoundExceeded(
            f"|G|={len(G.elements)} exceeds bound {max_elements}"
        )
    identities = frozenset(G.identities)
    found = {identities}
    frontier = [identities]
    while frontier:
        S = frontier.pop()
        tried = set(S)
        for g in G.elements:
            if g not in tried:
                tried.add(G.inverse[g])
                T = _closure(G, S, g)
                if T not in found:
                    found.add(T)
                    frontier.append(T)

    def order(S):
        return len(S), sorted(G.index(g) for g in S - identities)

    return [make_subgroupoid(G, S) for S in sorted(found, key=order)]


class CosetSpace:
    """Left cosets gH of a wide subgroupoid, with fixed representatives."""

    def __init__(self, groupoid, classes, representatives, class_of):
        self.groupoid = groupoid
        self.classes = classes
        self.representatives = representatives
        self.class_of = class_of


def coset_space(G: Groupoid, H) -> CosetSpace:
    """Partition G into the left cosets aH, a ~ b iff b^{-1}a exists and
    lies in H, each class listed in element order and represented by its
    first element.

    The class of a is aH = {a h : h in H, r h = d a}: b ~ a iff
    h = a^{-1}b lies in H, that is b = a h.  Each class is read off as
    those products, O(|G| |H|) in all.  H is checked to be a wide
    subgroupoid, so ~ is an equivalence: reflexive because d a lies in H,
    symmetric because H is closed under inverse, transitive because it is
    closed under product.  The cosets therefore partition G, and no
    relation is re-checked pair by pair; a class that misses its own
    element or meets an earlier class is a fault of this library and
    raises OracleMismatch."""
    wide, cert = is_wide_subgroupoid(G, H)
    if not wide:
        raise ValidationError(cert)
    into = _by_target(G.r, H)
    class_of = {}
    classes = []
    reps = []
    for a in G.elements:
        if a in class_of:
            continue
        members = tuple(sorted((G.product[(a, h)] for h in into[G.d[a]]), key=G.index))
        if a not in members:
            raise OracleMismatch(f"{a!r} not in its own coset")
        for b in members:
            if b in class_of:
                raise OracleMismatch("cosets do not partition the groupoid")
            class_of[b] = len(classes)
        classes.append(members)
        reps.append(a)
    return CosetSpace(G, tuple(classes), tuple(reps), class_of)


def _coset_label(rep) -> str:
    return f"{rep}H"


def quotient_gset(cs: CosetSpace) -> gset_mod.GSet:
    """The coset space G/H as a split G-set with gamma_g(lH) = (gl)H, its
    points in the order of the representatives.  The coset action of a
    wide subgroupoid is always a G-set, so a failed validation is a fault
    of this library and raises OracleMismatch."""
    G = cs.groupoid
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
    try:
        return gset_mod.validate_gset(G, carrier, fiber, gamma)
    except ValidationError as err:
        raise OracleMismatch(f"coset action is not a G-set: {err}") from err


def regular_gset(G: Groupoid) -> gset_mod.GSet:
    """G acting on itself by left translation, fibered by the target map."""
    fiber = {l: G.r[l] for l in G.elements}
    gamma = {
        g: {l: G.product[(g, l)] for l in G.elements if G.r[l] == G.d[g]}
        for g in G.elements
    }
    return gset_mod.validate_gset(G, G.elements, fiber, gamma)
