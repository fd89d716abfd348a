"""Strongly distinct homomorphism families, separability, beta-strong
subalgebras, and the subgroupoid/subalgebra correspondence.

Everything is decided by exact linear algebra: dual bases and freeness are
linear systems over the base field, separability idempotents are solved
per K-block, and the correspondence is verified by enumerating both sides
independently.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .action import (
    AlgebraAction,
    Subalgebra,
    invariants,
    stabilizer,
    subalgebra_closure,
    trace,
)
from .blockring import equalising_block, ideal_fp_basis, slotwise_matrix
from .errors import InvalidInput, OracleMismatch, ValidationError
from .groupoid import DEFAULT_MAX_ELEMENTS, coset_space, enumerate_wide_subgroupoids
from .mapalg import (
    HomGSetReport,
    hom_gset_check,
    require_faithful_hypotheses,
    splits_per_target,
    strongly_distinct,
)
from .scalar import Elimination, FpSpan, flatten, solve_linear
from .tensor import TensorOverK


def pairwise_strongly_distinct(family) -> tuple[bool, tuple | None]:
    for f, g in itertools.combinations(family, 2):
        ok, pi = strongly_distinct(f, g)
        if not ok:
            return False, pi
    return True, None


def _frame_matrix(family) -> list:
    """The slotwise matrix D of a frame on the target ideal's slots: D x =
    rhs asks sum x_i u(y_i) = rhs_u for every u in the family and source
    basis element y_i, and D^T c = 0 asks sum c_u u = 0."""
    for h in family[1:]:
        family[0].require_same_frame(h)
    ring = family[0].ring
    slot_ids = [ring.slot_index(b) for b in family[0].target_support]
    return slotwise_matrix(ring, [u.images for u in family], slot_ids)


def dual_basis_solve(family):
    """For each u in the family, elements x_i of the target ideal and y_i
    of the source with sum x_i u'(y_i) = delta_{u,u'} 1_v for every u'.

    The y side ranges over the source basis (a spanning set suffices by
    linearity); the x side is solved per u.  Only the right-hand side
    depends on u, so the frame matrix is eliminated once and each system
    is read off that elimination.  Returns one pair list per family
    member, or None when some system is inconsistent.
    """
    if not family:
        return []
    ring = family[0].ring
    F = ring.field
    system = Elimination(F, _frame_matrix(family))
    support = family[0].target_support
    ns = len(support)
    unit = ring.unit(support)

    certificates = []
    for ui in range(len(family)):
        rhs = [F.one if upi == ui else F.zero
               for upi in range(len(family)) for _ in support]
        sol = system.solve(rhs)
        if sol.solution is None:
            return None
        pairs = [
            (ring.element(dict(zip(support, sol.solution[i * ns : (i + 1) * ns]))), y)
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
    return not solve_linear(F, transposed, [F.zero] * len(transposed)).nullspace


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


# Separability ---------------------------------------------------------

@dataclass(frozen=True)
class SeparabilityIdempotent:
    """Pairs (x_i, y_i) representing sum x_i tensor y_i in T tensor_K T."""

    pairs: tuple


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
                    row[a * n + j] = field.sub(row[a * n + j], mult[tau][j][b])
                matrix.append(row)
                rhs.append(field.zero)
    sol = solve_linear(field, matrix, rhs)
    if sol.solution is None:
        return None
    if sol.nullspace:
        raise OracleMismatch("separability idempotent is not unique")
    return [
        [sol.solution[i * n + j] for j in range(n)] for i in range(n)
    ]


def separability_idempotent(T, K: Subalgebra) -> SeparabilityIdempotent | None:
    """The unique v in T tensor_K T with mu(v) = 1 and (t tensor 1)v =
    (1 tensor t)v, solved blockwise over the K-blocks; None when some
    block's system is inconsistent.

    Cross-validated structurally: the returned pairs are re-encoded in
    tensor coordinates and all three defining properties are re-checked.
    The tensor's block bases of T, one per K-block, serve the solve and
    both factors of the tensor.
    """
    space = T.space
    tens = TensorOverK(space, space, K, T.basis, T.basis)
    all_pairs = []
    for blk, bmb in zip(tens.blocks, tens.m_parts):
        if bmb.rank == 0:
            continue
        unit_u = space.k_scale(blk.u, space.one())
        mult = [
            [bmb.decompose(space.mul(bi, bj)) for bj in bmb.basis]
            for bi in bmb.basis
        ]
        unit_coords = bmb.decompose(unit_u)
        coeffs = separability_idempotent_from_structure(blk.afield, mult, unit_coords)
        if coeffs is None:
            return None
        for i, bi in enumerate(bmb.basis):
            for j, bj in enumerate(bmb.basis):
                c = coeffs[i][j]
                if c == blk.afield.zero:
                    continue
                x = space.k_scale(blk.from_abstract(K.space, c), bi)
                all_pairs.append((x, bj))

    pairs = tuple(all_pairs)
    coords = tens.from_pairs(pairs)
    total = space.zero()
    for x, y in pairs:
        total = space.add(total, space.mul(x, y))
    if total != space.one():
        raise OracleMismatch("separability idempotent fails mu(v) = 1")
    for t in T.basis:
        left = tens.from_pairs([(space.mul(t, x), y) for x, y in pairs])
        right = tens.from_pairs([(x, space.mul(t, y)) for x, y in pairs])
        if left != right:
            raise OracleMismatch("separability idempotent fails the symmetry law")
    square = tens.from_pairs(
        [
            (space.mul(x1, x2), space.mul(y1, y2))
            for (x1, y1), (x2, y2) in itertools.product(pairs, repeat=2)
        ]
    )
    if square != coords:
        raise OracleMismatch("separability idempotent is not idempotent")
    return SeparabilityIdempotent(pairs)


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
    diffs = [space.sub(x, f_apply(x)) for x in T.basis]
    span = FpSpan(space.field.p)
    independent = [
        span.insert(
            flatten(c for d in diffs for c in space.mul(d, b)) + flatten(f_apply(b))
        )
        for b in T.basis
    ]
    coords = span.coords(flatten(space.zero()) * len(diffs) + flatten(space.one()))
    if coords is None:
        raise ValidationError("the defining system is inconsistent")
    if not all(independent):
        raise OracleMismatch("the idempotent of a consistent system is not unique")
    pi = T.combine(coords)
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
    galois = A.is_galois()
    sep = separability_idempotent(T, K)
    H = stabilizer(T, A)
    bs, _ = is_beta_strong(T, A, H)
    if sep is None:
        return SeparabilityTransportReport(
            galois, False, bs, {}, False, False, False, False, False, False, False,
            H.labels,
        )
    values = {}
    for g in G.elements:
        total = R.zero()
        for x, y in sep.pairs:
            total = R.add(total, R.mul(x, A.apply(g, y)))
        values[g] = total
    idset = set(G.identities)
    hset = set(H.labels)
    all_idem = all(R.is_idempotent(v) for v in values.values())
    unit_ids = all(values[e] == R.unit(A.support[e]) for e in idset)
    zero_out_stab = all(values[g] == R.zero() for g in G.elements if g not in hset)
    unit_on_stab = all(
        values[g] == R.unit(A.support[g]) for g in hset
    )
    zero_out_ids = all(values[g] == R.zero() for g in G.elements if g not in idset)

    stab_unit_sum = R.zero()
    for h in H.labels:
        stab_unit_sum = R.add(stab_unit_sum, R.unit(A.support[h]))
    recon_exact = True
    recon_formula = True
    for t in T.elements:
        total = R.zero()
        for x, y in sep.pairs:
            total = R.add(total, R.mul(trace(A, R.mul(y, t)), x))
        if total != t:
            recon_exact = False
        if total != R.mul(t, stab_unit_sum):
            recon_formula = False
    return SeparabilityTransportReport(
        galois, True, bs, values, all_idem, unit_ids, zero_out_stab,
        unit_on_stab, zero_out_ids, recon_exact, recon_formula, H.labels,
    )


def is_beta_strong(T, A: AlgebraAction, H) -> tuple[bool, tuple | None]:
    """For every pair g, h with the same target and g^{-1}h outside H, the
    stabilizer of T, every nonzero idempotent of E_g must separate the
    transported copies of T; witness (g, h, idempotent) otherwise."""
    G, R = A.groupoid, A.ring
    hset = set(H.labels)

    @functools.cache
    def moved(g):
        """beta_g of T's basis, computed once per g."""
        return [A.apply(g, t) for t in T.basis]

    for gi_idx, g in enumerate(G.elements):
        for h in G.elements[gi_idx + 1 :]:
            if G.r[g] != G.r[h]:
                continue
            q = G.product.get((G.inverse[g], h))
            if q is None or q in hset:
                continue
            pi = equalising_block(R, A.support[g], moved(g), moved(h))
            if pi is not None:
                return False, (g, h, pi)
    return True, None


@dataclass
class StrongSubalgebraReport:
    """Separable-and-beta-strong versus being the invariants of one's own
    stabilizer, plus the split structure when both sides hold."""

    separable: bool
    beta_strong: bool
    strong_witness: tuple | None
    stabilizer_labels: tuple
    equals_invariants_of_stabilizer: bool
    splits: dict
    hom_gset: HomGSetReport | None

    @property
    def equivalence_holds(self) -> bool:
        return (self.separable and self.beta_strong) == (
            self.equals_invariants_of_stabilizer
        )

    @property
    def r_split(self) -> bool:
        return bool(self.splits) and all(s.ok for s in self.splits.values()) and (
            self.hom_gset is not None and self.hom_gset.ok
        )


def strong_subalgebra_check(T, A: AlgebraAction, invariants_of) -> StrongSubalgebraReport:
    """Evaluate both sides of the characterization independently and, when
    they hold, verify the split structure of T.

    invariants_of(H) must return invariants(A, H); a caller passes it so
    that invariants it has already computed are shared."""
    K = A.base_subalgebra()
    sep = separability_idempotent(T, K) is not None
    H = stabilizer(T, A)
    bs, witness = is_beta_strong(T, A, H)
    equals = invariants_of(H).key() == T.key()
    splits: dict = {}
    hom_report = None
    if sep and bs and equals:
        hom_report = hom_gset_check(T, A, invariants_of, H)
        splits = splits_per_target(A, T, K, hom_report.families.__getitem__)
    return StrongSubalgebraReport(sep, bs, witness, H.labels, equals, splits, hom_report)


@dataclass
class CorrespondenceRow:
    subgroupoid: tuple
    subalgebra: Subalgebra
    stabilizer_labels: tuple
    separable: bool
    beta_strong: bool
    r_split: bool

    @property
    def closure_holds(self) -> bool:
        return self.stabilizer_labels == self.subgroupoid


@dataclass
class CorrespondenceTable:
    rows: list
    strong_subalgebras: list
    injective: bool
    partition_injective: bool
    image_equals_strong_subalgebras: bool
    closure_holds: bool

    @property
    def bijective(self) -> bool:
        return self.injective and self.image_equals_strong_subalgebras

    @property
    def ok(self) -> bool:
        return self.bijective and self.closure_holds and self.partition_injective


def galois_correspondence(
    A: AlgebraAction, max_generators: int = 3, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> CorrespondenceTable:
    """Map every wide subgroupoid to its invariants and compare against an
    independent enumeration of the separable beta-strong subalgebras.

    The candidate subalgebras are closures of generator subsets (of the
    prime-field block basis) of size at most `max_generators` over the
    base algebra; the hypothesis gate raises HypothesisFailure when some
    ideal is unfaithful or the action is not Galois.

    Two things are kept for the length of this call, and no longer:
    - invariants(A, H) per subgroupoid H (as a set of labels), shared by
      the rows, strong_subalgebra_check and hom_gset_check.  It is a
      function of A and H, and A does not change during the call.
    - each row's separable and beta-strong verdicts, by the row's key.  A
      candidate with the same key takes them instead of solving again.
      Equal keys mean equal spans, and both verdicts depend on the span
      only: a separability idempotent is a property of the algebra, not
      of the basis it is solved on (DeMeyer and Ingraham, Separable
      Algebras over Commutative Rings, 1971), and the stabilizer and the
      equalising-block test are linear conditions checked on a basis.
    """
    require_faithful_hypotheses(A)
    G, R = A.groupoid, A.ring
    K = A.base_subalgebra()

    kept_invariants: dict = {}

    def invariants_of(H):
        labels = frozenset(H.labels)
        if labels not in kept_invariants:
            kept_invariants[labels] = invariants(A, H)
        return kept_invariants[labels]

    rows = []
    partitions = set()
    for H in enumerate_wide_subgroupoids(G, max_elements):
        T = invariants_of(H)
        report = strong_subalgebra_check(T, A, invariants_of)
        rows.append(
            CorrespondenceRow(
                H.labels,
                T,
                report.stabilizer_labels,
                report.separable,
                report.beta_strong,
                report.r_split,
            )
        )
        partitions.add(frozenset(frozenset(c) for c in coset_space(G, H).classes))

    keys = [row.subalgebra.key() for row in rows]
    injective = len(set(keys)) == len(keys)
    partition_injective = len(partitions) == len(rows)
    closure = all(row.closure_holds for row in rows)

    family = ideal_fp_basis(R, R.blocks)
    seen: dict = {}
    for size in range(max_generators + 1):
        for combo in itertools.combinations(family, size):
            T = subalgebra_closure(R, combo, include=K.basis)
            seen.setdefault(T.key(), T)
    row_verdicts = {
        key: (row.separable, row.beta_strong) for key, row in zip(keys, rows)
    }
    strong = []
    for key in sorted(seen, key=lambda k: (len(k), k)):
        T = seen[key]
        if key in row_verdicts:
            ok = all(row_verdicts[key])
        else:
            ok = (separability_idempotent(T, K) is not None
                  and is_beta_strong(T, A, stabilizer(T, A))[0])
        if ok:
            strong.append(T)
    image_ok = set(keys) == {T.key() for T in strong}
    return CorrespondenceTable(
        rows, strong, injective, partition_injective, image_ok, closure
    )
