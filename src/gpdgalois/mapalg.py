"""Function algebras over split G-sets and the structure maps between
sets and algebras.

Map(X, R) is again a product of field blocks, one slot per (point, block)
pair with the block drawn from the point's fiber ideal.  The lifted action
alpha, the invariant algebra A(X), evaluation homomorphisms, the G-set of
homomorphisms of an algebra, and the mutually inverse maps between A(G/H)
and the H-invariants all live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .action import (
    AlgebraAction,
    Subalgebra,
    Submodule,
    invariants,
    span_elements,
    twisted_invariant_basis,
)
from .blockring import (
    BlockRing,
    IdealRef,
    ProductSpace,
    disconnected_identity,
    ideal_fp_basis,
    is_faithful_ideal,
)
from .errors import (
    CarrierMismatch,
    CompositionFailure,
    HypothesisFailure,
    NotIdentityOnFiber,
    OracleMismatch,
    SizeBoundExceeded,
    SupportViolation,
    UnknownPoint,
    ValidationError,
)
from .gset import GMap, GSet, check_gmap, gset_isomorphic, validate_gset
from .groupoid import coset_space, quotient_gset
from .scalar import FpSpan, flatten, fp_basis_scalars
from .tensor import RankProfile, TensorOverK, kblocks, rank_profile

BRUTE_FORCE_BOUND = 1 << 16
HOM_SEARCH_BOUND = 1 << 20


class MapSpace(ProductSpace):
    """Functions X -> R with f(x) supported in the fiber ideal of x,
    as a product space with slots (point, block)."""

    def __init__(self, X: GSet, ring: BlockRing):
        slots = []
        for x in X.carrier:
            for b in ring.ideal(X.fiber[x]).support:
                slots.append((x, b))
        super().__init__(ring.field, slots)
        self.gset = X
        self.ring = ring

    def block_of_slot(self, slot):
        return slot[1]

    def k_scale(self, c, x) -> tuple:
        """Pointwise action of a ring element on a function."""
        return tuple(
            self.field.mul(c[self.ring.slot_index(s[1])], v)
            for s, v in zip(self.slots, x)
        )

    def value_at(self, f, point) -> tuple:
        """The ring element f(point)."""
        if point not in self.gset.fiber:
            raise UnknownPoint(f"unknown point {point!r}")
        coords = {}
        for (x, b), v in zip(self.slots, f):
            if x == point:
                coords[b] = v
        return self.ring.element(coords)

    def from_values(self, values: dict) -> tuple:
        """Build a function from point -> ring element, enforcing the
        fiber support constraint."""
        out = []
        zero = self.ring.zero()
        vals = {x: values.get(x, zero) for x in self.gset.carrier}
        for x, v in values.items():
            if x not in self.gset.fiber:
                raise UnknownPoint(f"unknown point {x!r}")
        for x, v in vals.items():
            allowed = set(self.ring.ideal(self.gset.fiber[x]).support)
            for s in self.ring.support_of(v):
                if s not in allowed:
                    raise SupportViolation(
                        f"value at {x!r} leaves the fiber ideal", witness=(x, s)
                    )
        return tuple(vals[x][self.ring.slot_index(b)] for x, b in self.slots)


class MapAlgebra:
    """Map(X, R) with its ideals, indicators and the lifted action alpha."""

    def __init__(self, space: MapSpace, action: AlgebraAction):
        self.space = space
        self.action = action
        G = action.groupoid
        self._inv_sigma = {
            g: {v: k for k, v in action.sigma[g].items()} for g in G.elements
        }

    def one_prime(self, g) -> tuple:
        """The indicator function of the fiber X_g with value 1_g."""
        G = self.action.groupoid
        e = G.r[g]
        return tuple(
            self.space.field.one if self.space.gset.fiber[x] == e else self.space.field.zero
            for x, _ in self.space.slots
        )

    def ideal_slots(self, g) -> tuple:
        G = self.action.groupoid
        e = G.r[g]
        return tuple(s for s in self.space.slots if self.space.gset.fiber[s[0]] == e)

    def alpha(self, g, f) -> tuple:
        """alpha_g(f 1'_{g^{-1}}): transport f along gamma_g and beta_g,
        supported on the fiber X_g."""
        G = self.action.groupoid
        X = self.space.gset
        R = self.action.ring
        gi = G.inverse[g]
        out = [self.space.field.zero] * len(self.space.slots)
        for idx, (x, b) in enumerate(self.space.slots):
            if X.fiber[x] != G.r[g]:
                continue
            if b not in self._inv_sigma[g]:
                continue
            src_point = X.gamma[gi][x]
            src_block = self._inv_sigma[g][b]
            v = f[self.space.slot_index((src_point, src_block))]
            t = self.action.frob[g][src_block]
            out[idx] = self.space.field.power(v, self.space.field.p**t)
        return tuple(out)


def function_algebra(X: GSet, A: AlgebraAction) -> MapAlgebra:
    """Construct Map(X, R) with alpha and verify alpha is an action."""
    G = A.groupoid
    if X.groupoid is not G and X.groupoid.elements != G.elements:
        raise CarrierMismatch("G-set and action live over different groupoids")
    M = MapAlgebra(MapSpace(X, A.ring), A)
    space = M.space

    def slot_basis(e):
        for idx, (x, b) in enumerate(space.slots):
            if X.fiber[x] != e:
                continue
            for s in fp_basis_scalars(space.field):
                vec = [space.field.zero] * len(space.slots)
                vec[idx] = s
                yield tuple(vec)

    for e in G.identities:
        for f in slot_basis(e):
            if M.alpha(e, f) != f:
                raise NotIdentityOnFiber(f"alpha[{e!r}] is not the identity")
    for g, h in G.composable:
        gh = G.product[(g, h)]
        for f in slot_basis(G.d[h]):
            if M.alpha(g, M.alpha(h, f)) != M.alpha(gh, f):
                raise CompositionFailure(
                    f"alpha[{g!r}] o alpha[{h!r}] != alpha[{gh!r}]", witness=(g, h)
                )
    return M


class InvariantAlgebra(Subalgebra):
    """A(X): the invariants of Map(X, R) under alpha."""

    def __init__(self, mapalgebra: MapAlgebra, basis):
        super().__init__(mapalgebra.space, basis)
        self.mapalgebra = mapalgebra
        self.gset = mapalgebra.space.gset
        self.action = mapalgebra.action


def invariant_algebra(X: GSet, A: AlgebraAction, brute: str = "auto") -> InvariantAlgebra:
    """Compute A(X) by orbit analysis on (point, block) slots, optionally
    cross-checked against brute-force filtering of every function."""
    M = function_algebra(X, A)
    space = M.space
    G = A.groupoid
    edges = []
    for g in G.elements:
        for y in X.fiber_points(G.d[g]):
            for b in A.source_ideal(g).support:
                edges.append(
                    ((y, b), (X.gamma[g][y], A.sigma[g][b]), A.frob[g][b])
                )
    vec_basis = twisted_invariant_basis(space.field, space.slots, edges)
    basis = [
        tuple(vec.get(s, space.field.zero) for s in space.slots) for vec in vec_basis
    ]
    out = InvariantAlgebra(M, basis)

    size = space.field.order ** len(space.slots)
    if brute == "always" and size > BRUTE_FORCE_BOUND:
        raise SizeBoundExceeded(f"brute force over {size} functions refused")
    if brute != "never" and size <= BRUTE_FORCE_BOUND:
        wanted = set()
        for f in space.all_elements():
            if all(
                M.alpha(g, f) == space.mul(f, M.one_prime(g)) for g in G.elements
            ):
                wanted.add(f)
        if wanted != set(out.elements):
            raise OracleMismatch("invariant functions disagree with brute force")
    return out


class HomRecord:
    """A base-linear multiplicative unital map from a finite algebra into
    an ideal of R, stored by its images on the source basis."""

    def __init__(self, source, ring: BlockRing, target_support, images, label=None):
        self.source = source
        self.ring = ring
        self.target_support = tuple(target_support)
        self.images = tuple(images)
        self.label = label

    def apply(self, x) -> tuple:
        coeffs = self.source.coords(x)
        return self.ring.int_combine(coeffs, self.images)

    def key(self) -> tuple:
        return (self.target_support, self.images)

    def __eq__(self, other):
        return isinstance(other, HomRecord) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"HomRecord({self.label or self.images})"


def evaluation_hom(AX: InvariantAlgebra, x) -> HomRecord:
    """rho_x: f -> f(x), landing in the fiber ideal of x."""
    space = AX.space
    if x not in AX.gset.fiber:
        raise UnknownPoint(f"unknown point {x!r}")
    ring = space.ring
    support = ring.ideal(AX.gset.fiber[x]).support
    images = [space.value_at(f, x) for f in AX.basis]
    return HomRecord(AX, ring, support, images, label=f"rho_{x}")


def eval_hom_family(AX: InvariantAlgebra, g) -> list[HomRecord]:
    """V_g(X) = {rho_x : x in X_g}, one entry per point."""
    G = AX.action.groupoid
    return [evaluation_hom(AX, x) for x in AX.gset.fiber_points(G.r[g])]


@dataclass
class EvalGSet:
    gset: GSet
    point_label: dict
    hom_of_label: dict


def build_eval_gset(AX: InvariantAlgebra) -> EvalGSet:
    """The split G-set of evaluation homomorphisms, with sigma acting by
    beta after evaluation; verified against transport of points."""
    X = AX.gset
    A = AX.action
    G = A.groupoid
    by_key: dict = {}
    point_label: dict = {}
    for x in X.carrier:
        hom = evaluation_hom(AX, x)
        if hom.key() not in by_key:
            by_key[hom.key()] = (f"rho_{x}", hom)
        point_label[x] = by_key[hom.key()][0]
    carrier = [label for label, _ in by_key.values()]
    hom_of_label = {label: hom for label, hom in by_key.values()}
    fiber = {point_label[x]: X.fiber[x] for x in X.carrier}
    gamma: dict = {}
    for g in G.elements:
        m = {}
        for x in X.fiber_points(G.d[g]):
            src = point_label[x]
            tgt = point_label[X.gamma[g][x]]
            if src in m and m[src] != tgt:
                raise OracleMismatch("sigma on evaluation homs is ill-defined")
            m[src] = tgt
        gamma[g] = m
    V = validate_gset(G, carrier, fiber, gamma)
    # sigma_g(rho_x) must equal beta_g after evaluation, not just transport
    for g in G.elements:
        for x in X.fiber_points(G.d[g]):
            transported = [
                A.apply(g, img, truncate=True)
                for img in hom_of_label[point_label[x]].images
            ]
            if tuple(transported) != hom_of_label[point_label[X.gamma[g][x]]].images:
                raise OracleMismatch(
                    "beta after evaluation disagrees with point transport"
                )
    return EvalGSet(V, point_label, hom_of_label)


@dataclass
class EvalIsoReport:
    bijective: bool
    valid_map: bool
    isomorphism: bool
    certificate: str | None = None


def eval_iso_check(X: GSet, AX: InvariantAlgebra) -> EvalIsoReport:
    """The point -> evaluation map as a candidate G-set isomorphism."""
    ev = build_eval_gset(AX)
    bijective = len(ev.gset.carrier) == len(X.carrier)
    psi = GMap(X, ev.gset, dict(ev.point_label))
    rep = check_gmap(psi)
    return EvalIsoReport(bijective, rep.valid, rep.isomorphism and bijective, rep.certificate)


def hom_set(B, K: Subalgebra, E: IdealRef, ring: BlockRing,
            max_candidates: int = HOM_SEARCH_BOUND) -> list[HomRecord]:
    """All unital K-linear multiplicative maps B -> E, by exhaustive
    assignment of basis images with filtering; deterministic order."""
    targets = span_elements(ring, ideal_fp_basis(ring, E.support))
    dim = len(B.basis)
    if len(targets) ** dim > max_candidates:
        raise SizeBoundExceeded(
            f"{len(targets)}^{dim} candidate assignments exceed the bound"
        )
    unit = ring.unit(E.support)
    one_coords = B.coords(B.space.one())
    prod_coords = {}
    for i, j in itertools.combinations_with_replacement(range(dim), 2):
        prod_coords[(i, j)] = B.coords(B.space.mul(B.basis[i], B.basis[j]))
    k_source = {}
    for ci, c in enumerate(K.basis):
        for i, b in enumerate(B.basis):
            k_source[(ci, i)] = B.coords(B.space.k_scale(c, b))

    out = []
    for images in itertools.product(targets, repeat=dim):
        if ring.int_combine(one_coords, images) != unit:
            continue
        ok = True
        for (i, j), coords in prod_coords.items():
            if ring.int_combine(coords, images) != ring.mul(images[i], images[j]):
                ok = False
                break
        if not ok:
            continue
        for (ci, i), coords in k_source.items():
            if ring.int_combine(coords, images) != ring.mul(K.basis[ci], images[i]):
                ok = False
                break
        if ok:
            out.append(HomRecord(B, ring, E.support, images))
    return out


def transversal_hom_family(B, A: AlgebraAction, H) -> dict:
    """For an invariant subalgebra B of R: the coset-transversal maps
    t -> beta_l(t 1_{l^{-1}}), grouped by target identity r(l)."""
    G = A.groupoid
    cs = coset_space(G, H)
    families: dict = {e: [] for e in G.identities}
    for rep in cs.representatives:
        e = G.r[rep]
        images = [A.apply(rep, b, truncate=True) for b in B.basis]
        families[e].append(
            HomRecord(B, A.ring, A.ring.ideal(e).support, images, label=f"phi_{rep}")
        )
    return families


@dataclass
class SplitReport:
    """Is E tensor B (over K) isomorphic to E^n via the family's map?"""

    square: bool
    bijective: bool
    unital: bool
    multiplicative: bool
    components_match: bool
    n: int
    ranks: RankProfile
    tensor_dim: int
    target_dim: int

    @property
    def ok(self) -> bool:
        return (
            self.square
            and self.bijective
            and self.unital
            and self.multiplicative
            and self.components_match
        )


def tensor_split_check(E: IdealRef, B, K: Subalgebra, family,
                       A: AlgebraAction, blocks=None) -> SplitReport:
    """Materialize (r tensor b) -> (r * f_i(b))_i as a prime-field matrix
    and check it is a bijective unital multiplicative map onto the product
    of copies of E indexed by the family."""
    R = A.ring
    E_mod = Submodule(R, ideal_fp_basis(R, E.support))
    blocks = blocks if blocks is not None else kblocks(K)
    tens = TensorOverK(R, B.space, K, E_mod.basis, B.basis, blocks=blocks)

    slot_ids = [R.slot_index(b) for b in E.support]

    def phi_tuple(x, y):
        """(x * f_i(y)) per family member, as ring elements."""
        return tuple(R.mul(x, hom.apply(y)) for hom in family)

    def flat_tuple(members):
        # restrict to the ideal's slots; every value lives inside E
        return flatten(
            itertools.chain.from_iterable(
                (member[i] for i in slot_ids) for member in members
            )
        )

    target_dim = len(family) * len(E.support) * R.field.k
    square = tens.dim == target_dim

    columns = []
    span = FpSpan(R.field.p)
    independent = True
    basis_data = list(tens.basis_vectors())
    for _, x, y in basis_data:
        col = flat_tuple(phi_tuple(x, y))
        columns.append(col)
        if not span.insert(col):
            independent = False
    bijective = square and independent

    def matrix_apply(tcoords):
        total = [0] * target_dim
        for c, col in zip(tcoords, columns):
            if c:
                for i, v in enumerate(col):
                    total[i] = (total[i] + c * v) % R.field.p
        return tuple(total)

    unital = flat_tuple(phi_tuple(R.unit(E.support), B.space.one())) == flat_tuple(
        tuple(R.unit(E.support) for _ in family)
    )

    multiplicative = True
    pures = [(x, y) for _, x, y in basis_data]
    for (x1, y1), (x2, y2) in itertools.combinations_with_replacement(pures, 2):
        lhs = matrix_apply(tens.pure(R.mul(x1, x2), B.space.mul(y1, y2)))
        rhs = flat_tuple(
            tuple(
                R.mul(a, b)
                for a, b in zip(phi_tuple(x1, y1), phi_tuple(x2, y2))
            )
        )
        if lhs != rhs:
            multiplicative = False
            break

    components_match = True
    width = len(E.support) * R.field.k
    for i, hom in enumerate(family):
        for b in B.basis:
            img = matrix_apply(tens.pure(R.unit(E.support), b))
            expected = flatten(hom.apply(b)[s] for s in slot_ids)
            if img[i * width : (i + 1) * width] != expected:
                components_match = False
                break
        if not components_match:
            break

    ranks = rank_profile(B, K, blocks=blocks)
    return SplitReport(
        square,
        bijective,
        unital,
        multiplicative,
        components_match,
        len(family),
        ranks,
        tens.dim,
        target_dim,
    )


@dataclass
class HomGSetReport:
    """V(B) as a split G-set (condition one) versus strong distinctness of
    the transported families (condition two)."""

    is_invariant_subalgebra: bool
    transport_consistent: bool
    gset_valid: bool
    families_strongly_distinct: bool
    equivalent: bool
    gset: GSet | None = None
    families: dict = dc_field(default_factory=dict)
    labels: dict = dc_field(default_factory=dict)
    certificate: str | None = None

    @property
    def ok(self) -> bool:
        return self.gset_valid and self.equivalent


def hom_gset_check(B, A: AlgebraAction) -> HomGSetReport:
    """Build the canonical hom family of an invariant subalgebra (one map
    per coset of its stabilizer), let beta act on it, and test both
    characterizations of V(B) being a G-set."""
    from .action import stabilizer
    from . import galois as galois_mod

    G = A.groupoid
    H = stabilizer(B, A)
    T_check = invariants(A, H)
    if set(T_check.elements) != set(B.elements):
        return HomGSetReport(
            False, False, False, False, True,
            certificate="not the invariants of its own stabilizer",
        )
    cs = coset_space(G, H)
    families = transversal_hom_family(B, A, H)
    label_of_rep = {rep: f"phi_{rep}" for rep in cs.representatives}
    carrier = [label_of_rep[rep] for rep in cs.representatives]
    fiber = {label_of_rep[rep]: G.r[rep] for rep in cs.representatives}
    hom_by_label = {}
    for e, homs in families.items():
        for hom in homs:
            hom_by_label[hom.label] = hom

    transport_consistent = True
    gamma: dict = {}
    for g in G.elements:
        m = {}
        for idx, rep in enumerate(cs.representatives):
            if G.r[rep] != G.d[g]:
                continue
            target_rep = cs.representatives[cs.class_of[G.product[(g, rep)]]]
            transported = tuple(
                A.apply(g, img, truncate=True) for img in hom_by_label[label_of_rep[rep]].images
            )
            if transported != hom_by_label[label_of_rep[target_rep]].images:
                transport_consistent = False
            m[label_of_rep[rep]] = label_of_rep[target_rep]
        gamma[g] = m
    gset_valid = False
    V = None
    if transport_consistent:
        try:
            V = validate_gset(G, carrier, fiber, gamma)
            gset_valid = True
        except ValidationError:
            gset_valid = False

    sd_ok = True
    for e in G.identities:
        transported_set: dict = {}
        for h in G.elements:
            if G.r[h] != e:
                continue
            for hom in families[G.d[h]]:
                moved = tuple(A.apply(h, img, truncate=True) for img in hom.images)
                transported_set[moved] = HomRecord(
                    B, A.ring, A.ring.ideal(e).support, moved
                )
        homs = list(transported_set.values())
        for f1, f2 in itertools.combinations(homs, 2):
            ok, _ = galois_mod.strongly_distinct(f1, f2)
            if not ok:
                sd_ok = False
    equivalent = gset_valid == sd_ok
    return HomGSetReport(
        True, transport_consistent, gset_valid, sd_ok, equivalent,
        gset=V, families=families, labels=label_of_rep,
    )


@dataclass
class DoubleDualReport:
    """Is b -> (f -> f(b)) an isomorphism of B onto A(V(B))?"""

    well_defined: bool
    injective: bool
    surjective: bool
    multiplicative: bool
    unital: bool
    k_linear: bool
    hom_gset: HomGSetReport | None = None

    @property
    def ok(self) -> bool:
        return (
            self.well_defined
            and self.injective
            and self.surjective
            and self.multiplicative
            and self.unital
            and self.k_linear
        )


def double_dual_check(B, A: AlgebraAction) -> DoubleDualReport:
    """Evaluate every element of B on the canonical hom G-set and compare
    with the invariant algebra of that G-set, elementwise."""
    hg = hom_gset_check(B, A)
    if not hg.gset_valid:
        return DoubleDualReport(False, False, False, False, False, False, hg)
    V = hg.gset
    AX = invariant_algebra(V, A)
    space = AX.space
    hom_by_label = {}
    for homs in hg.families.values():
        for hom in homs:
            hom_by_label[hom.label] = hom

    def nu(b):
        return space.from_values(
            {label: hom_by_label[label].apply(b) for label in V.carrier}
        )

    images = {}
    well_defined = True
    for b in B.elements:
        img = nu(b)
        if not AX.contains(img):
            well_defined = False
        images[b] = img
    injective = len(set(images.values())) == len(B.elements)
    surjective = set(images.values()) == set(AX.elements)
    multiplicative = all(
        images[B.space.mul(a, b)] == space.mul(images[a], images[b])
        for a, b in itertools.combinations_with_replacement(B.basis, 2)
    )
    unital = images[B.space.one()] == space.one()
    K = A.base_subalgebra()
    k_linear = all(
        images[B.space.k_scale(c, b)] == space.k_scale(c, images[b])
        for c in K.basis
        for b in B.basis
    )
    return DoubleDualReport(
        well_defined, injective, surjective, multiplicative, unital, k_linear, hg
    )


@dataclass
class QuotientIsoReport:
    """The mutually inverse maps between A(G/H) and the H-invariants."""

    expand_well_defined: bool
    collapse_lands_in_invariants: bool
    expand_lands_in_functions: bool
    round_trip_on_invariants: bool
    round_trip_on_functions: bool
    algebra_maps: bool

    @property
    def ok(self) -> bool:
        return all(
            (
                self.expand_well_defined,
                self.collapse_lands_in_invariants,
                self.expand_lands_in_functions,
                self.round_trip_on_invariants,
                self.round_trip_on_functions,
                self.algebra_maps,
            )
        )


def quotient_iso_pair(A: AlgebraAction, H) -> QuotientIsoReport:
    """collapse(f) = sum of f over the identity cosets; expand(r) sends a
    coset lH to beta_l(r 1_{l^{-1}}).  Both are verified elementwise."""
    G, R = A.groupoid, A.ring
    cs = coset_space(G, H)
    X = quotient_gset(G, H)
    AX = invariant_algebra(X, A)
    T = invariants(A, H)
    space = AX.space

    label_of_class = {i: f"{rep}H" for i, rep in enumerate(cs.representatives)}
    identity_labels = []
    for e in G.identities:
        identity_labels.append(label_of_class[cs.class_of[e]])

    def collapse(f):
        out = R.zero()
        for label in identity_labels:
            out = R.add(out, space.value_at(f, label))
        return out

    expand_well_defined = True
    for r in T.basis:
        for idx, members in enumerate(cs.classes):
            vals = {A.apply(l, r, truncate=True) for l in members}
            if len(vals) != 1:
                expand_well_defined = False

    def expand(r):
        return space.from_values(
            {
                label_of_class[i]: A.apply(rep, r, truncate=True)
                for i, rep in enumerate(cs.representatives)
            }
        )

    collapse_ok = all(T.contains(collapse(f)) for f in AX.elements)
    expand_ok = all(AX.contains(expand(r)) for r in T.elements)
    round_inv = all(collapse(expand(r)) == r for r in T.elements)
    round_fun = all(expand(collapse(f)) == f for f in AX.elements)

    K = A.base_subalgebra()
    algebra_maps = (
        collapse(space.one()) == R.one()
        and all(
            collapse(space.mul(f1, f2)) == R.mul(collapse(f1), collapse(f2))
            for f1, f2 in itertools.combinations_with_replacement(AX.basis, 2)
        )
        and all(
            collapse(space.k_scale(c, f)) == R.mul(c, collapse(f))
            for c in K.basis
            for f in AX.basis
        )
    )
    return QuotientIsoReport(
        expand_well_defined, collapse_ok, expand_ok, round_inv, round_fun, algebra_maps
    )


def require_faithful_hypotheses(A: AlgebraAction):
    """Gate shared by the equivalence and correspondence results: the
    action must admit Galois coordinates and every E_g must be faithful
    over the base.  Raises HypothesisFailure with a witness otherwise.

    The witness names the first unfaithful ideal E_g, an identity outside
    the connected component of r(g) (see
    :func:`~gpdgalois.blockring.faithfulness_criterion`), and an
    annihilator from the base algebra.
    """
    G = A.groupoid
    if not A.is_galois():
        raise HypothesisFailure("action admits no Galois coordinates")
    K = A.base_subalgebra()
    for g in G.elements:
        direct, annihilator = is_faithful_ideal(K, A.support[g])
        if direct:
            continue
        raise HypothesisFailure(
            f"E_{g!r} is not faithful over the base algebra",
            witness=(g, disconnected_identity(G, g), annihilator),
        )


@dataclass
class SetRoundTripReport:
    eval_iso: EvalIsoReport
    independent_iso_found: bool
    splits: dict
    proof_identity: bool

    @property
    def ok(self) -> bool:
        return (
            self.eval_iso.isomorphism
            and self.independent_iso_found
            and all(rep.ok for rep in self.splits.values())
            and self.proof_identity
        )


def grothendieck_set_check(A: AlgebraAction, X: GSet) -> SetRoundTripReport:
    """Object-level round trip on the set side: X is isomorphic to the
    G-set of evaluation homomorphisms of A(X), and each fiber family splits
    the corresponding ideal tensor A(X)."""
    require_faithful_hypotheses(A)
    G = A.groupoid
    AX = invariant_algebra(X, A)
    K = A.base_subalgebra()
    blocks = kblocks(K)
    ev = eval_iso_check(X, AX)
    indep = gset_isomorphic(X, build_eval_gset(AX).gset) is not None
    splits = {}
    proof_identity = True
    for g in G.elements:
        family = eval_hom_family(AX, g)
        rep = tensor_split_check(A.support[g], AX, K, family, A, blocks=blocks)
        splits[g] = rep
        if not rep.components_match:
            proof_identity = False
    return SetRoundTripReport(ev, indep, splits, proof_identity)


@dataclass
class AlgebraRoundTripReport:
    hom_gset: HomGSetReport
    double_dual: DoubleDualReport

    @property
    def ok(self) -> bool:
        return self.hom_gset.ok and self.double_dual.ok


def grothendieck_algebra_check(A: AlgebraAction, B) -> AlgebraRoundTripReport:
    """Object-level round trip on the algebra side: B is isomorphic to the
    invariant algebra of its hom G-set."""
    require_faithful_hypotheses(A)
    dd = double_dual_check(B, A)
    return AlgebraRoundTripReport(dd.hom_gset, dd)
