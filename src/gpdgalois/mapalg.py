"""Function algebras over split G-sets and the structure maps between
sets and algebras.

Map(X, R) is again a product of field blocks, one slot per (point, block)
pair with the block drawn from the point's fiber ideal, and the lifted
action alpha is a block action on it.  Its invariants A(X), evaluation
homomorphisms, strongly distinct hom families, the tensor split and the
G-set of homomorphisms of an algebra all live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .action import (
    AlgebraAction,
    Subalgebra,
    check_composition,
    find_galois_coordinates,
    invariants,
)
from .blockring import (
    BlockRing,
    disconnected_identity,
    is_faithful_ideal,
)
from .errors import (
    HypothesisFailure,
    InvalidInput,
    OracleMismatch,
    ValidationError,
)
from .gset import GSet, gset_isomorphic, validate_gset
from .groupoid import CosetSpace
from .scalar import FpSpan, fp_basis_scalars
from .tensor import RankProfile, block_parts


class MapSpace(BlockRing):
    """Functions X -> R with f(x) supported in the fiber ideal of x: a
    block ring whose blocks are the slots (point, block), the slot (x, b)
    owned by the point's fiber X.fiber[x]."""

    def __init__(self, X: GSet, ring: BlockRing):
        slots = [
            (x, b) for x in X.carrier for b in ring.ideal(X.fiber[x])
        ]
        super().__init__(ring.field, slots, {(x, b): X.fiber[x] for x, b in slots})
        self.gset = X
        self.ring = ring
        self._ring_slot = [ring.slot_index(b) for _, b in slots]

    def ideal(self, e) -> tuple:
        """The functions supported on the fiber X_e, as their slots; empty
        when X_e is."""
        return tuple(s for s in self.slots if self.owner[s] == e)

    def k_scale(self, c, x) -> tuple:
        """Pointwise action of a ring element on a function."""
        table = self.field.mul_table
        return tuple([table[c[i]][v] for i, v in zip(self._ring_slot, x)])

    def value_at(self, f, point) -> tuple:
        """The ring element f(point)."""
        if point not in self.gset.fiber:
            raise InvalidInput(f"unknown point {point!r}")
        return self.ring.embed({b: v for (x, b), v in zip(self.slots, f) if x == point})


class MapAlgebra(AlgebraAction):
    """Map(X, R) with the lifted action alpha, a block action on the slots
    of the MapSpace: sigma'_g(y, b) = (gamma_g y, sigma_g b) with the twist
    frob'_g(y, b) = frob_g(b).  So `apply` is alpha_g(f 1'_{g^{-1}}): the
    value at (y, b) goes to (gamma_g y, sigma_g b) raised to p^t, supported
    on the fiber X_g."""

    def __init__(self, space: MapSpace, action: AlgebraAction):
        G, X = action.groupoid, space.gset
        sigma, frob = {}, {}
        for g in G.elements:
            src = space.ideal(G.d[g])
            sigma[g] = {(y, b): (X.gamma[g][y], action.sigma[g][b]) for y, b in src}
            frob[g] = {(y, b): action.frob[g][b] for y, b in src}
        super().__init__(G, space, sigma, frob)
        self.space = space
        self.action = action


def function_algebra(X: GSet, A: AlgebraAction) -> MapAlgebra:
    """Construct Map(X, R) with alpha and verify alpha is an action, as
    validate_action verifies beta: each identity's block map is the
    identity with no twist mod k, and check_composition holds."""
    G = A.groupoid
    if X.groupoid is not G and X.groupoid.elements != G.elements:
        raise InvalidInput("G-set and action live over different groupoids")
    M = MapAlgebra(MapSpace(X, A.ring), A)
    k = M.ring.field.k
    for e in G.identities:
        if any(M.sigma[e][s] != s or M.frob[e][s] % k for s in M.source_ideal(e)):
            raise ValidationError(f"alpha[{e!r}] is not the identity")
    check_composition(M, "alpha")
    return M


class InvariantAlgebra(Subalgebra):
    """A(X): the invariants of Map(X, R) under alpha."""

    def __init__(self, mapalgebra: MapAlgebra, basis):
        super().__init__(mapalgebra.space, basis)
        self.gset = mapalgebra.space.gset
        self.action = mapalgebra.action


def invariant_algebra(X: GSet, A: AlgebraAction) -> InvariantAlgebra:
    """A(X): the invariants of alpha, computed and oracle-checked by
    `invariants` on the MapAlgebra.  delta_g acts on Map(X, R) as alpha_g,
    so these are also the invariants of Map(X, R) as a module over the
    skew groupoid ring."""
    M = function_algebra(X, A)
    return InvariantAlgebra(M, invariants(M).basis)


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

    def __repr__(self):
        return f"HomRecord({self.label or self.images})"


def evaluation_hom(AX: InvariantAlgebra, x) -> HomRecord:
    """rho_x: f -> f(x), landing in the fiber ideal of x."""
    space = AX.space
    if x not in AX.gset.fiber:
        raise InvalidInput(f"unknown point {x!r}")
    ring = space.ring
    support = ring.ideal(AX.gset.fiber[x])
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


def build_eval_gset(AX: InvariantAlgebra) -> EvalGSet:
    """The split G-set of evaluation homomorphisms, with sigma acting by
    beta after evaluation; verified against transport of points.

    Each point x is labelled by the first point with the same evaluation
    map, and gamma on labels is gamma_g(label x) = label(gamma_g x),
    checked to be well defined and a G-set.  So x -> label x is onto,
    equivariant by construction, and fibre preserving: two points with
    one evaluation map share its target ideal, and distinct identities
    own disjoint nonempty ideals, so they share a fibre.  It is therefore
    a G-set isomorphism exactly when it is injective, that is, when the
    evaluation G-set has as many points as X."""
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
                A.apply(g, img)
                for img in hom_of_label[point_label[x]].images
            ]
            if tuple(transported) != hom_of_label[point_label[X.gamma[g][x]]].images:
                raise OracleMismatch(
                    "beta after evaluation disagrees with point transport"
                )
    return EvalGSet(V, point_label)


def transversal_hom_family(B, A: AlgebraAction, cs: CosetSpace) -> dict:
    """For an invariant subalgebra B of R: the coset-transversal maps
    phi_l: t -> beta_l(t 1_{l^{-1}}), one per representative l of the
    coset space, grouped by target identity r(l) in representative order."""
    G = A.groupoid
    families: dict = {e: [] for e in G.identities}
    for rep in cs.representatives:
        e = G.r[rep]
        images = [A.apply(rep, b) for b in B.basis]
        families[e].append(
            HomRecord(B, A.ring, A.ring.ideal(e), images, label=f"phi_{rep}")
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

    @property
    def ok(self) -> bool:
        return (
            self.square
            and self.bijective
            and self.unital
            and self.multiplicative
            and self.components_match
        )


def tensor_split_check(E, B, parts, family,
                       A: AlgebraAction) -> SplitReport:
    """Is the map M(x tensor y) = (x f_i(y))_i from E tensor_K B onto the
    product of copies of E indexed by the family a bijective unital
    multiplicative map with components M(1_E tensor b) = (f_i(b))_i on E?

    parts is B's BlockModuleBasis per block u of kblocks(K)
    (:func:`~gpdgalois.tensor.block_parts`), with K·u-basis n_{u,j}.  It
    depends on B and K only, so splits_per_target builds it once for
    every target.  Each f_i(y) is computed once per distinct y.

    E tensor_K B is the sum over u of E u tensor_{K u} B u, and B u is free
    on the n_{u,j}, so M is fixed by M(x tensor n_{u,j}) = (x f_i(n_{u,j}))_i
    for x in E u.  E u is the sum of the fields F e_b over the slots b of E
    with u_b = 1, and K u acts on F e_b through x -> x_b.  So M is the sum
    over the slots b of E of F-linear maps F^{rank_u} -> F^n at b, with
    columns (f_i(n_{u,j})_b)_i, u the block with u_b = 1:
    - square: the F_p-dimensions of both sides agree, that is the sum over
      the slots b of E of rank_u is n |E|.
    - bijective: M is square and every slot's map is injective; then no
      slot's rank_u exceeds n, so each is n and each map is onto.  The
      columns at b are F-independent exactly when their multiples by the
      power basis of F are F_p-independent, decided in one FpSpan per slot.
    - unital: M(1_E tensor 1_B) = (f_i(1_B))_i is 1 on every slot of E.

    Multiplicativity and the components are read off L_i, the K-linear
    map equal to f_i on the n_{u,j}: L_i(z) = sum over u, j of
    lift(c_{u,j}) f_i(n_{u,j}), with c_{u,j} the K·u-coordinates of z u.
    For x in E u, x tensor z = x tensor z u = sum over j of
    x lift(c_{u,j}) tensor n_{u,j}, so M(x tensor y) = x L(y) on E for
    every x in E and y in B.  Hence:
    - M(1_E tensor b) = L(b), so the components match exactly when L = f
      on B's basis.  That is when every f_i is K-linear into E: L is, and
      a K-linear f has f(z) = sum over u of f(z u) = L(z).
    - The defect M(t t') - M(t) M(t') of two tensors x n, x' n' is
      x x' d(n, n') with d(n, n') = L(n n') - L(n) L(n').  Tensors of
      different blocks give x x' = 0.  Within block u the products x x'
      span E u, which holds 1_E u, and d(n, n') = u d(n, n'), as
      L(B u) lies in u.  So M is multiplicative exactly when d(n, n') = 0
      on E for n <= n' in each block's basis.
    L(z) is kept per z, from one decomposition of z u per block."""
    R = A.ring
    F = R.field
    slot_ids = [R.slot_index(b) for b in E]
    hom_images: dict = {}

    def images_of(y):
        """(f_i(y))_i, computed once per y."""
        if y not in hom_images:
            hom_images[y] = tuple(hom.apply(y) for hom in family)
        return hom_images[y]

    mul, add = F.mul_table, F.add_table

    def on_E(images):
        """A tuple of elements of R read on the slots of E, member-major."""
        return tuple(img[i] for img in images for i in slot_ids)

    # the part of the block u with u_b = 1, for each slot b of E
    part_at = [next(part for part in parts if part.kblock.u[i] == F.one) for i in slot_ids]
    square = sum(part.rank for part in part_at) == len(family) * len(slot_ids)

    def independent_at(slot, part):
        """Are the columns (f_i(n) at slot)_i, n over the block's basis,
        F-independent?"""
        span = FpSpan(F.p)
        return all(span.insert(F.flatten(mul[t][img[slot]] for img in images_of(n)))
                   for n in part.basis for t in fp_basis_scalars(F))

    bijective = square and all(independent_at(s, part) for s, part in zip(slot_ids, part_at))
    unital = on_E(images_of(B.space.one())) == (F.one,) * (len(family) * len(slot_ids))

    kept_L: dict = {}

    def L_of(z):
        """(L_i(z))_i on the slots of E, computed once per z."""
        if z not in kept_L:
            total = [F.zero] * (len(family) * len(slot_ids))
            for part in parts:
                blk = part.kblock
                for c, n in zip(part.decompose(B.space.k_scale(blk.u, z)), part.basis):
                    if c != F.zero:
                        lc = blk.lift(R, c)
                        terms = (mul[lc[i]][img[i]] for img in images_of(n) for i in slot_ids)
                        total = [add[a][t] for a, t in zip(total, terms)]
            kept_L[z] = tuple(total)
        return kept_L[z]

    components_match = all(L_of(b) == on_E(images_of(b)) for b in B.basis)
    multiplicative = all(
        L_of(B.space.mul(n1, n2)) == tuple(mul[a][b] for a, b in zip(L_of(n1), L_of(n2)))
        for part in parts
        for n1, n2 in itertools.combinations_with_replacement(part.basis, 2)
    )
    return SplitReport(square, bijective, unital, multiplicative, components_match,
                       len(family), RankProfile.of(parts))


def splits_per_target(A: AlgebraAction, B, K: Subalgebra, family_at) -> dict:
    """{g: tensor_split_check(E_g, B, block_parts(B, K), family_at(r(g)), A)}
    for every g in G, with the check run once per target identity, in the
    order the targets first occur in G, and B's block parts built once.

    The split check at g has arguments that depend on r(g) only: E_g is
    the ideal of r(g), the evaluation family V_g(X) is read off the fiber
    X_{r(g)}, and a transversal family is the one grouped under r(g).
    One report therefore serves every g with the same target."""
    G = A.groupoid
    parts = block_parts(B, K)
    by_target: dict = {}
    out = {}
    for g in G.elements:
        e = G.r[g]
        if e not in by_target:
            by_target[e] = tensor_split_check(A.support[e], B, parts, family_at(e), A)
        out[g] = by_target[e]
    return out


def hom_gset_check(B, A: AlgebraAction, cs: CosetSpace) -> dict:
    """The transversal family of B (:func:`transversal_hom_family`),
    self-checked to carry the coset action: beta_g phi_l = phi_{l'} for
    every g and every representative l with r l = d g, where l' is the
    representative of the coset of gl.  So V(B), one map phi_l per coset
    lH, is the G-set G/H.  A failure is a fault of this library and
    raises OracleMismatch naming (g, l).

    cs must be coset_space(G, H) for the stabilizer H of B.  Then the law
    holds.  A.apply(g, x) is beta_g(x 1_{g^{-1}}), phi_l(b) lies in
    E_{r l} = E_{d g}, and gl = l'h with h = l'^{-1}gl in H, so
    beta_g phi_l(b) = beta_gl(b 1_{(gl)^{-1}}) = beta_l'(beta_h(b 1_{h^{-1}}))
    = beta_l'(b 1_h) = phi_l'(b), because h fixes B and 1_h = 1_{l'^{-1}}.

    The strong distinctness of these families is the beta-strong verdict
    :func:`~gpdgalois.galois.is_beta_strong` on (B, A, H), so it is not
    decided here.  By the chain above, beta_g phi_l is beta_gl on B, and
    every m with r m = e is such a gl (l the representative of the coset
    of d m, which lies in H, and g = m l^{-1}).  So the transports into
    E_e are the maps beta_m on B with r m = e.  For r m = r m',
    beta_m = beta_m' on B iff beta_{m^{-1}m'} fixes B, that is iff
    m^{-1}m' lies in H = stab(B).  So the pairs of distinct transports
    are exactly the pairs that is_beta_strong tests, and both test them
    with equalising_block on E_e."""
    G = A.groupoid
    families = transversal_hom_family(B, A, cs)
    # each family lists its maps in representative order
    at = {e: iter(homs) for e, homs in families.items()}
    phi = {l: next(at[G.r[l]]) for l in cs.representatives}
    for g in G.elements:
        for l in cs.representatives:
            if G.r[l] != G.d[g]:
                continue
            moved = tuple(A.apply(g, y) for y in phi[l].images)
            target = phi[cs.representatives[cs.class_of[G.product[(g, l)]]]]
            if moved != target.images:
                raise OracleMismatch(
                    f"beta_{g} phi_{l} is not {target.label}", witness=(g, l)
                )
    return families


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
    if find_galois_coordinates(A) is None:
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
    eval_bijective: bool
    independent_iso_found: bool
    splits: dict
    proof_identity: bool

    @property
    def ok(self) -> bool:
        return (
            self.eval_bijective
            and self.independent_iso_found
            and all(rep.ok for rep in self.splits.values())
            and self.proof_identity
        )


def grothendieck_set_check(A: AlgebraAction, X: GSet) -> SetRoundTripReport:
    """Object-level round trip on the set side: X is isomorphic to the
    G-set of evaluation homomorphisms of A(X), and each fiber family splits
    the corresponding ideal tensor A(X).

    x -> rho_x is an isomorphism exactly when it is a bijection (see
    :func:`build_eval_gset`), so that is what is decided; the independent
    isomorphism is built by orbit transport, for any number of points,
    and check_gmap checks it (:func:`~gpdgalois.gset.gset_isomorphic`)."""
    require_faithful_hypotheses(A)
    AX = invariant_algebra(X, A)
    K = A.base_subalgebra()
    ev = build_eval_gset(AX)
    bijective = len(ev.gset.carrier) == len(X.carrier)
    indep = gset_isomorphic(X, ev.gset) is not None
    splits = splits_per_target(A, AX, K, lambda e: eval_hom_family(AX, e))
    proof_identity = all(rep.components_match for rep in splits.values())
    return SetRoundTripReport(bijective, indep, splits, proof_identity)
