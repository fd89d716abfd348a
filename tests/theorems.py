"""Checks of the paper's results that only the tests run.

No CLI subcommand reaches these, so they live beside the acceptance tests
that use them, not in the package.  Each is exact: the skew-ring element
helpers, the three characterisations of a strongly distinct hom family
(strong distinctness, dual bases, freeness), the idempotent associated with
an algebra map, the defining linear system of a separability idempotent
(the reference for the trace-form inverse the package computes), the
transport of a separability idempotent along beta,
every algebra map into an ideal (`hom_set`), and the algebra-side round
trips of the set/algebra equivalence with the two-sided hom G-set check
they read.  The exhaustive searches the package replaced by exact
constructions are here too, as the references the tests compare them
with: K's primitive idempotents and its first annihilator of an ideal by
listing K, G-set isomorphism by backtracking, and stage two of the Galois
coordinates as one solve of the whole slotwise system.  `hom_set`,
`double_dual_check` and `grothendieck_algebra_check` move back into the
package together with their first CLI caller (ROADMAP item 8).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from conftest import field_sub, gauss_jordan_solve
from gpdgalois.action import (
    AlgebraAction,
    GaloisCoordinates,
    Subalgebra,
    check_galois_coordinates,
    find_galois_coordinates,
    invariants,
    span_elements,
    stabilizer,
    trace,
)
from gpdgalois.blockring import BlockRing, equalising_block, ideal_fp_basis
from gpdgalois.errors import (
    InvalidInput,
    OracleMismatch,
    SizeBoundExceeded,
    ValidationError,
)
from gpdgalois.galois import is_beta_strong, separability_idempotent
from gpdgalois.groupoid import coset_space, quotient_gset
from gpdgalois.gset import GMap, GSet, check_gmap
from gpdgalois.mapalg import (
    HomRecord,
    invariant_algebra,
    require_faithful_hypotheses,
    transversal_hom_family,
)
from gpdgalois.scalar import FpSpan, fp_basis_scalars, solve_linear
from gpdgalois.tensor import BlockModuleBasis, kblocks

HOM_SEARCH_BOUND = 1 << 20


# Skew groupoid ring elements ------------------------------------------

def skew_element(A: AlgebraAction, terms: dict) -> dict:
    """Normalize a delta-expansion; each coefficient must lie in E_g."""
    R = A.ring
    out = {}
    for g, x in terms.items():
        sup = set(A.support[g])
        if any(v != R.field.zero and s not in sup for s, v in zip(R.slots, x)):
            raise ValidationError(f"coefficient of delta_{g!r} outside E_{g!r}")
        if x != R.zero():
            out[g] = x
    return out


def skew_add(A: AlgebraAction, u: dict, w: dict) -> dict:
    R = A.ring
    out = dict(u)
    for g, x in w.items():
        out[g] = R.add(out.get(g, R.zero()), x)
    return {g: x for g, x in out.items() if x != R.zero()}


# Functions on a G-set -------------------------------------------------

def from_values(space, values: dict) -> tuple:
    """Build a function of the MapSpace space from point -> ring element,
    enforcing the fiber support constraint."""
    zero = space.ring.zero()
    vals = {x: values.get(x, zero) for x in space.gset.carrier}
    for x in values:
        if x not in space.gset.fiber:
            raise InvalidInput(f"unknown point {x!r}")
    for x, v in vals.items():
        allowed = set(space.ring.ideal(space.gset.fiber[x]))
        for s, c in zip(space.ring.slots, v):
            if c != space.ring.field.zero and s not in allowed:
                raise ValidationError(
                    f"value at {x!r} leaves the fiber ideal", witness=(x, s)
                )
    return tuple(vals[x][space.ring.slot_index(b)] for x, b in space.slots)


# Hom families: strongly distinct, dual bases, free ---------------------

def require_same_frame(f: HomRecord, g: HomRecord):
    """Raise InvalidInput unless both maps share a source and a target
    ideal."""
    if f.target_support != g.target_support:
        raise InvalidInput("homomorphisms target different ideals")
    if f.source is not g.source and f.source.basis != g.source.basis:
        raise InvalidInput("homomorphisms have different sources")


def strongly_distinct(f: HomRecord, g: HomRecord) -> tuple[bool, tuple | None]:
    """No nonzero idempotent of the target equalizes f and g; the failing
    idempotent is the witness otherwise.  Scanning the source basis
    suffices because both maps are linear."""
    require_same_frame(f, g)
    pi = equalising_block(f.ring, f.target_support, f.images, g.images)
    return pi is None, pi


def pairwise_strongly_distinct(family) -> tuple[bool, tuple | None]:
    """Every two members are strongly distinct; the witness of the first
    pair that is not otherwise."""
    for f, g in itertools.combinations(family, 2):
        ok, pi = strongly_distinct(f, g)
        if not ok:
            return False, pi
    return True, None


def slotwise_matrix(R: BlockRing, images, slot_ids) -> list:
    """The matrix over R.field of x -> (sum_i x_i z_ui)_u, where the
    unknowns x_i live on the given slots and images[u][i] = z_ui: row
    (u, s), column (i, s') holds z_ui[s] when s = s' and 0 otherwise."""
    zero = R.field.zero
    return [
        [z[s] if s == s2 else zero for z in zs for s2 in slot_ids]
        for zs in images
        for s in slot_ids
    ]


def whole_system_galois_coordinates(A: AlgebraAction):
    """Stage two of find_galois_coordinates as one solve of the whole
    system, the reference for its slot-by-slot solve: x_i over every slot
    for the y side ideal_fp_basis(R, R.blocks), with the unknowns in the
    order (i, s).  None when the system is inconsistent."""
    R, G = A.ring, A.groupoid
    ybasis = ideal_fp_basis(R, R.blocks)
    nslots = len(R.blocks)
    idset = set(G.identities)
    matrix = slotwise_matrix(R, [[A.apply(g, y) for y in ybasis] for g in G.elements],
                             range(nslots))
    rhs = [c for g in G.elements
           for c in (R.unit(A.support[g]) if g in idset else R.zero())]
    [solution] = solve_linear(R.field, matrix, [rhs], fp_basis_scalars(R.field))
    if solution is None:
        return None
    pairs = tuple((tuple(solution[i * nslots : (i + 1) * nslots]), y)
                  for i, y in enumerate(ybasis))
    if not check_galois_coordinates(A, pairs)[0]:
        raise OracleMismatch("whole-system coordinates failed verification")
    return GaloisCoordinates(pairs, "linear-solve")


def _frame_matrix(family) -> list:
    """The slotwise matrix D of a frame on the target ideal's slots: D x =
    rhs asks sum x_i u(y_i) = rhs_u for every u in the family and source
    basis element y_i, and D^T c = 0 asks sum c_u u = 0."""
    for h in family[1:]:
        require_same_frame(family[0], h)
    ring = family[0].ring
    slot_ids = [ring.slot_index(b) for b in family[0].target_support]
    return slotwise_matrix(ring, [u.images for u in family], slot_ids)


def dual_basis_solve(family):
    """For each u in the family, elements x_i of the target ideal and y_i
    of the source with sum x_i u'(y_i) = delta_{u,u'} 1_v for every u'.

    The y side ranges over the source basis (a spanning set suffices by
    linearity); the x side is solved per u, each system sharing the
    frame matrix and differing in its right-hand side.  Returns one pair
    list per family member, or None when some system is inconsistent.
    """
    if not family:
        return []
    ring = family[0].ring
    F = ring.field
    matrix = _frame_matrix(family)
    support = family[0].target_support
    ns = len(support)
    unit = ring.unit(support)

    rhss = [[F.one if upi == ui else F.zero for upi in range(len(family)) for _ in support]
            for ui in range(len(family))]
    solutions = solve_linear(F, matrix, rhss, fp_basis_scalars(F))
    if None in solutions:
        return None
    certificates = []
    for ui, solution in enumerate(solutions):
        pairs = [
            (ring.embed(dict(zip(support, solution[i * ns : (i + 1) * ns]))), y)
            for i, y in enumerate(family[0].source.basis)
        ]
        for upi, uprime in enumerate(family):
            total = ring.zero()
            for x, y in pairs:
                total = ring.add(total, ring.mul(x, uprime.apply(y)))
            expected = unit if upi == ui else ring.zero()
            if total != expected:
                raise OracleMismatch("dual basis certificate failed substitution")
        certificates.append(pairs)
    return certificates


def freeness_check(family) -> bool:
    """The family is free over its target ideal inside the linear maps
    from the source: only the zero combination vanishes."""
    if not family:
        return True
    transposed = [list(col) for col in zip(*_frame_matrix(family))]
    F = family[0].ring.field
    return not gauss_jordan_solve(F, transposed, [F.zero] * len(transposed))[1]


@dataclass
class TriEquivalenceReport:
    strongly_distinct: bool
    dual_basis: bool
    free: bool

    @property
    def agree(self) -> bool:
        return self.strongly_distinct == self.dual_basis == self.free

    @property
    def values(self) -> tuple:
        return (self.strongly_distinct, self.dual_basis, self.free)


def tri_equivalence_check(family, K: Subalgebra) -> TriEquivalenceReport:
    """Evaluate the three equivalent characterizations of a hom family
    independently; the source must be separable over K."""
    if not family:
        return TriEquivalenceReport(True, True, True)
    T = family[0].source
    if separability_idempotent(T, K) is None:
        raise ValidationError("source algebra is not separable over the base")
    groups: dict = {}
    for h in family:
        groups.setdefault(h.target_support, []).append(h)
    sd = all(pairwise_strongly_distinct(grp)[0] for grp in groups.values())
    dual = all(dual_basis_solve(grp) is not None for grp in groups.values())
    free = all(freeness_check(grp) for grp in groups.values())
    return TriEquivalenceReport(sd, dual, free)


# The separability system, the reference for inverse_trace_form ----------

def separability_idempotent_from_structure(field, mult, unit_coords):
    """Solve for a separability idempotent of an algebra presented by
    structure constants over one field.

    mult[i][j] is the coefficient vector of basis_i * basis_j; returns the
    coefficient matrix c with v = sum c[i][j] basis_i tensor basis_j, or
    None when the defining system is inconsistent (the algebra is not
    separable).
    """
    n = len(mult)
    nv = n * n
    matrix, rhs = [], []
    for l in range(n):
        matrix.append([mult[i][j][l] for i in range(n) for j in range(n)])
        rhs.append(unit_coords[l])
    for tau in range(n):
        for a in range(n):
            for b in range(n):
                row = [field.zero] * nv
                for i in range(n):
                    row[i * n + b] = field.add(row[i * n + b], mult[tau][i][a])
                for j in range(n):
                    row[a * n + j] = field_sub(field, row[a * n + j], mult[tau][j][b])
                matrix.append(row)
                rhs.append(field.zero)
    solution, nullspace = gauss_jordan_solve(field, matrix, rhs)
    if solution is None:
        return None
    if nullspace:
        raise OracleMismatch("separability idempotent is not unique")
    return [
        [solution[i * n + j] for j in range(n)] for i in range(n)
    ]


def per_column_inverse_trace_form(field, mult, scalars):
    """The inverse of the trace form's Gram matrix, the reference for
    galois.inverse_trace_form: one solve_linear over the whole field, in
    its power basis, per column of the inverse, scalars ignored; None when
    G is singular."""
    n = len(mult)
    tau = [field.zero] * n
    for m in range(n):
        for l in range(n):
            tau[m] = field.add(tau[m], mult[m][l][l])
    gram = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for m in range(n):
                gram[i][j] = field.add(gram[i][j], field.mul(mult[i][j][m], tau[m]))
    columns = []
    for k in range(n):
        # a singular G misses some unit vector, so G C = I proves C = G^-1
        [solution] = solve_linear(field, gram, [[field.one if i == k else field.zero
                                                  for i in range(n)]],
                                  fp_basis_scalars(field))
        if solution is None:
            return None
        columns.append(solution)
    return columns


def reference_separability_pairs(T, K: Subalgebra):
    """The pairs of separability_idempotent(T, K), in its order, with each
    K-block's coefficients solved by separability_idempotent_from_structure;
    None when some block's system is inconsistent."""
    space = T.space
    pairs = []
    for blk in kblocks(K):
        bmb = BlockModuleBasis(space, blk, T.basis)
        mult = [
            [bmb.decompose(space.mul(bi, bj)) for bj in bmb.basis]
            for bi in bmb.basis
        ]
        unit_coords = bmb.decompose(space.k_scale(blk.u, space.one()))
        coeffs = separability_idempotent_from_structure(blk.field, mult, unit_coords)
        if coeffs is None:
            return None
        for i, bi in enumerate(bmb.basis):
            for j, bj in enumerate(bmb.basis):
                c = coeffs[i][j]
                if c != blk.field.zero:
                    x = space.k_scale(blk.lift(K.space, c), bi)
                    pairs.append((x, bj))
    return tuple(pairs)


# Idempotents from algebra maps and separability -----------------------

def associated_idempotent(T, f_on_basis: dict, base: Subalgebra):
    """The unique idempotent pi of a separable algebra with f(pi) = 1 and
    x pi = f(x) pi for all x, for an algebra map f from T onto the unital
    copy of the base.

    f_on_basis maps every basis element of T to its image inside the base
    subalgebra; the idempotent is found by an exact linear solve and its
    uniqueness is part of the verification.

    The solve is over T's basis: (x - f(x)) pi = 0 for every basis x, and
    f(pi) = 1.  By linearity these are the defining conditions.  Once the
    system is consistent its solution is unique.  If pi and pi' both
    solve it, then pi pi' = f(pi) pi' = pi' and pi' pi = f(pi') pi = pi,
    and T is commutative, so pi = pi'.  So every column is independent,
    and a dependent column would be a fault of this library, not of the
    input: it raises OracleMismatch.
    """
    space = T.space
    for b in base.basis:
        if not T.contains(b):
            raise InvalidInput("base is not contained in the algebra")
    images = {}
    for b in T.basis:
        if b not in f_on_basis:
            raise InvalidInput("f must be given on every basis element")
        if not base.contains(f_on_basis[b]):
            raise InvalidInput("f must map into the base subalgebra")
        images[b] = f_on_basis[b]

    def f_apply(x):
        coords = T.coords(x)
        out = space.zero()
        for c, b in zip(coords, T.basis):
            out = space.add(out, space.int_combine([c], [images[b]]))
        return out

    if f_apply(space.one()) != space.one():
        raise InvalidInput("f is not unital")
    for a, b in itertools.combinations_with_replacement(T.basis, 2):
        if f_apply(space.mul(a, b)) != space.mul(f_apply(a), f_apply(b)):
            raise InvalidInput("f is not multiplicative")
    if separability_idempotent(T, base) is None:
        raise ValidationError("algebra is not separable over the base")

    # The column of b_i's coefficient in pi: (x - f(x)) b_i per x, then f(b_i).
    diffs = [
        space.add(x, space.int_combine([-1], [f_apply(x)])) for x in T.basis
    ]
    span = FpSpan(space.field.p)
    independent = [
        span.insert(
            space.flat(c for d in diffs for c in space.mul(d, b)) + space.flat(f_apply(b))
        )
        for b in T.basis
    ]
    coords = span.coords(space.flat(space.zero()) * len(diffs) + space.flat(space.one()))
    if coords is None:
        raise ValidationError("the defining system is inconsistent")
    if not all(independent):
        raise OracleMismatch("the idempotent of a consistent system is not unique")
    pi = space.int_combine(coords, T.basis)
    if space.mul(pi, pi) != pi:
        raise OracleMismatch("solved element is not idempotent")
    for x in T.elements:
        if space.mul(x, pi) != space.mul(f_apply(x), pi):
            raise OracleMismatch("solved idempotent fails the absorption law")
    if f_apply(pi) != space.one():
        raise OracleMismatch("solved idempotent is not mapped to one")
    return pi


@dataclass
class SeparabilityTransportReport:
    """The idempotents v_g = sum x_i beta_g(y_i 1_{g^{-1}}) derived from a
    separability idempotent, with their support pattern."""

    galois: bool
    separable: bool
    beta_strong: bool
    values: dict
    all_idempotent: bool
    unit_on_identities: bool
    zero_outside_stabilizer: bool
    unit_on_stabilizer: bool
    zero_outside_identities: bool
    reconstruction_exact: bool
    reconstruction_formula: bool
    stabilizer_labels: tuple


def coords_from_separability(T, A: AlgebraAction) -> SeparabilityTransportReport:
    """Transport a separability idempotent of T along every beta_g and
    report the resulting support pattern and the dual-map reconstruction.

    The exact dichotomy is: v_g is the ideal unit 1_g for g in the
    stabilizer of T and zero outside it.
    """
    R, G = A.ring, A.groupoid
    K = A.base_subalgebra()
    galois = find_galois_coordinates(A) is not None
    sep = separability_idempotent(T, K)
    H = stabilizer(T, A)
    bs, _ = is_beta_strong(T, A, H)
    if sep is None:
        return SeparabilityTransportReport(
            galois, False, bs, {}, False, False, False, False, False, False, False,
            H,
        )
    values = {}
    for g in G.elements:
        total = R.zero()
        for x, y in sep:
            total = R.add(total, R.mul(x, A.apply(g, y)))
        values[g] = total
    idset = set(G.identities)
    hset = set(H)
    all_idem = all(R.mul(v, v) == v for v in values.values())
    unit_ids = all(values[e] == R.unit(A.support[e]) for e in idset)
    zero_out_stab = all(values[g] == R.zero() for g in G.elements if g not in hset)
    unit_on_stab = all(
        values[g] == R.unit(A.support[g]) for g in hset
    )
    zero_out_ids = all(values[g] == R.zero() for g in G.elements if g not in idset)

    stab_unit_sum = R.zero()
    for h in H:
        stab_unit_sum = R.add(stab_unit_sum, R.unit(A.support[h]))
    recon_exact = True
    recon_formula = True
    for t in T.elements:
        total = R.zero()
        for x, y in sep:
            total = R.add(total, R.mul(trace(A, R.mul(y, t)), x))
        if total != t:
            recon_exact = False
        if total != R.mul(t, stab_unit_sum):
            recon_formula = False
    return SeparabilityTransportReport(
        galois, True, bs, values, all_idem, unit_ids, zero_out_stab,
        unit_on_stab, zero_out_ids, recon_exact, recon_formula, H,
    )


# Algebra maps and the algebra side of the equivalence -----------------

def hom_set(B, K: Subalgebra, E, ring: BlockRing) -> list[HomRecord]:
    """All unital K-linear multiplicative maps B -> E, by exhaustive
    assignment of basis images with filtering; deterministic order.  At
    most HOM_SEARCH_BOUND assignments are tried."""
    targets = span_elements(ring, ideal_fp_basis(ring, E))
    dim = len(B.basis)
    if len(targets) ** dim > HOM_SEARCH_BOUND:
        raise SizeBoundExceeded(
            f"{len(targets)}^{dim} candidate assignments exceed the bound"
        )
    unit = ring.unit(E)
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
            out.append(HomRecord(B, ring, E, images))
    return out


@dataclass
class HomGSetReport:
    """V(B) as a split G-set (condition one) versus strong distinctness of
    the transported families (condition two)."""

    is_invariant_subalgebra: bool
    transport_consistent: bool
    families_strongly_distinct: bool
    equivalent: bool
    gset: GSet | None = None
    families: dict = dc_field(default_factory=dict)
    certificate: str | None = None

    @property
    def ok(self) -> bool:
        return self.transport_consistent and self.equivalent


def two_sided_hom_gset_check(B, A: AlgebraAction) -> HomGSetReport:
    """Reference: build the canonical hom family of B, one map phi_l per
    coset lH of its stabilizer H, and test both characterizations of V(B)
    being a G-set, for any subalgebra B.

    V(B) is read as the quotient G/H, phi_l the point lH.  Condition one
    (transport_consistent) asks that beta agree with the coset action:
    beta_g phi_l = phi_{gl} for every g and l with d g = r l.  Condition
    two asks, for each identity e, that the distinct transports
    beta_g phi_l with r g = e be pairwise strongly distinct.  When B is
    not the invariants of its own stabilizer, neither is tested."""
    G, R = A.groupoid, A.ring
    H = stabilizer(B, A)
    if invariants(A, H).key() != B.key():
        return HomGSetReport(
            False, False, False, True,
            certificate="not the invariants of its own stabilizer",
        )
    cs = coset_space(G, H)
    V = quotient_gset(cs)
    families = transversal_hom_family(B, A, cs)
    # V and each family list the cosets in representative order
    hom_at = {
        x: hom for e, homs in families.items() for x, hom in zip(V.fiber_points(e), homs)
    }
    moved = {
        (g, x): tuple(A.apply(g, y) for y in hom_at[x].images)
        for g in G.elements
        for x in V.fiber_points(G.d[g])
    }
    transport_consistent = all(
        images == hom_at[V.gamma[g][x]].images for (g, x), images in moved.items()
    )
    sd_ok = all(
        pairwise_strongly_distinct([
            HomRecord(B, R, R.ideal(e), images)
            for images in dict.fromkeys(m for (g, _), m in moved.items() if G.r[g] == e)
        ])[0]
        for e in G.identities
    )
    return HomGSetReport(
        True, transport_consistent, sd_ok, transport_consistent == sd_ok,
        gset=V if transport_consistent else None, families=families,
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
    hg = two_sided_hom_gset_check(B, A)
    if not hg.transport_consistent:
        return DoubleDualReport(False, False, False, False, False, False, hg)
    V = hg.gset
    AX = invariant_algebra(V, A)
    space = AX.space
    # V and each family list the cosets in representative order
    hom_at = {
        x: hom for e, homs in hg.families.items() for x, hom in zip(V.fiber_points(e), homs)
    }

    def nu(b):
        return from_values(space, {x: hom.apply(b) for x, hom in hom_at.items()})

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
    X = quotient_gset(cs)
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
        for members in cs.classes:
            vals = {A.apply(l, r) for l in members}
            if len(vals) != 1:
                expand_well_defined = False

    def expand(r):
        return from_values(
            space,
            {
                label_of_class[i]: A.apply(rep, r)
                for i, rep in enumerate(cs.representatives)
            },
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


# Exhaustive references for K's blocks, annihilators and G-set isomorphism

def listed_primitive_idempotents(K: Subalgebra) -> list:
    """The primitive idempotents of K by listing K: every nonzero
    idempotent, kept when it lies over no other, in the order of
    K.elements.  Orthogonality and the sum to one are checked."""
    space = K.space
    idems = [x for x in K.elements if x != space.zero() and space.mul(x, x) == x]
    primitive = [u for u in idems
                 if not any(w != u and space.mul(u, w) == w for w in idems)]
    total = space.zero()
    for u in primitive:
        for w in primitive:
            if w != u and space.mul(u, w) != space.zero():
                raise OracleMismatch("primitive idempotents not orthogonal")
        total = space.add(total, u)
    if total != space.one():
        raise OracleMismatch("primitive idempotents do not sum to one")
    return primitive


def listed_faithful_ideal(K: Subalgebra, E) -> tuple[bool, tuple | None]:
    """No nonzero element of K annihilates the ideal E, by listing K; the
    first annihilator in the order of K.elements is the witness."""
    space = K.space
    unit = space.unit(E)
    zero = space.zero()
    for x in K.elements:
        if x != zero and space.mul(x, unit) == zero:
            return False, x
    return True, None


DEFAULT_MAX_POINTS = 20


def backtracking_gset_isomorphic(a: GSet, b: GSet):
    """A G-set isomorphism a -> b by backtracking over fiber-respecting
    bijections, points tried in carrier order, or None.  Carriers of more
    than DEFAULT_MAX_POINTS refuse."""
    if len(a.carrier) > DEFAULT_MAX_POINTS or len(b.carrier) > DEFAULT_MAX_POINTS:
        raise SizeBoundExceeded(
            f"carrier larger than {DEFAULT_MAX_POINTS}; raise the bound to proceed"
        )
    if a.groupoid is not b.groupoid and a.groupoid.elements != b.groupoid.elements:
        raise InvalidInput("G-sets over different groupoids")
    G = a.groupoid
    if len(a.carrier) != len(b.carrier):
        return None
    for e in G.identities:
        if len(a.fiber_points(e)) != len(b.fiber_points(e)):
            return None

    order = list(a.carrier)
    assignment: dict = {}
    used: set = set()

    def consistent(x, y) -> bool:
        """x -> y agrees with the assignment under every g with d(g) the
        fiber of x.  That covers an assigned w -> ww with gamma_g(w) = x,
        which needs b.gamma_g(ww) = y: g^{-1} starts at x and sends it to
        w, and b is a G-set, so b.gamma_g(ww) = y exactly when
        ww = b.gamma_{g^{-1}}(y)."""
        for g in G.elements:
            if a.fiber[x] == G.d[g]:
                xx = a.gamma[g][x]
                # a point g fixes is x itself, to be mapped to y: not yet assigned
                if (xx == x or xx in assignment) and assignment.get(xx, y) != b.gamma[g][y]:
                    return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        for y in b.fiber_points(a.fiber[x]):
            if y in used or not consistent(x, y):
                continue
            assignment[x] = y
            used.add(y)
            if extend(i + 1):
                return True
            del assignment[x]
            used.discard(y)
        return False

    if not extend(0):
        return None
    psi = GMap(a, b, dict(assignment))
    if not check_gmap(psi).isomorphism:
        raise OracleMismatch("backtracking returned a non-isomorphism")
    return psi
