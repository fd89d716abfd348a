"""Separability, beta-strong subalgebras, and the subgroupoid/subalgebra
correspondence.

Everything is decided by exact linear algebra: separability idempotents
are solved per K-block, and the correspondence is verified by enumerating
both sides independently.
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
)
from .blockring import equalising_block, ideal_fp_basis
from .errors import OracleMismatch
from .groupoid import DEFAULT_MAX_ELEMENTS, coset_space, enumerate_wide_subgroupoids
from .mapalg import hom_gset_check, require_faithful_hypotheses, splits_per_target
from .scalar import solve_linear
from .tensor import TensorOverK

# galois_correspondence's candidate subalgebras are the closures over the
# base algebra of at most this many prime-field block-basis vectors.
MAX_GENERATORS = 3


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


def is_beta_strong(T, A: AlgebraAction, H) -> tuple[bool, tuple | None]:
    """For every pair g, h with the same target and g^{-1}h outside H, the
    stabilizer of T, every nonzero idempotent of E_g must separate the
    transported copies of T; witness (g, h, idempotent) otherwise."""
    G, R = A.groupoid, A.ring
    hset = set(H)

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
    stabilizer_labels: tuple
    equals_invariants_of_stabilizer: bool
    splits: dict

    @property
    def r_split(self) -> bool:
        return bool(self.splits) and all(s.ok for s in self.splits.values())


def strong_subalgebra_check(
    T, A: AlgebraAction, invariants_of, cosets_of
) -> StrongSubalgebraReport:
    """Evaluate both sides of the characterization independently and, when
    they hold, verify the split structure of T over its transversal
    family, which hom_gset_check builds and self-checks.  The strong
    distinctness of that family is the beta-strong verdict (see
    hom_gset_check), so it is not decided twice.

    invariants_of(H) must return invariants(A, H) and cosets_of(H) must
    return coset_space(A.groupoid, H); a caller passes them so that what
    it has already computed is shared."""
    K = A.base_subalgebra()
    sep = separability_idempotent(T, K) is not None
    H = stabilizer(T, A)
    bs = is_beta_strong(T, A, H)[0]
    equals = invariants_of(H).key() == T.key()
    splits: dict = {}
    if sep and bs and equals:
        families = hom_gset_check(T, A, cosets_of(H))
        splits = splits_per_target(A, T, K, families.__getitem__)
    return StrongSubalgebraReport(sep, bs, H, equals, splits)


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
    A: AlgebraAction, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> CorrespondenceTable:
    """Map every wide subgroupoid to its invariants and compare against an
    independent enumeration of the separable beta-strong subalgebras.

    The candidate subalgebras are closures of generator subsets (of the
    prime-field block basis) of size at most MAX_GENERATORS over the
    base algebra; the hypothesis gate raises HypothesisFailure when some
    ideal is unfaithful or the action is not Galois.

    Three things are kept for the length of this call, and no longer:
    - invariants(A, H) per subgroupoid H, by its label tuple, shared by
      the rows and strong_subalgebra_check.  It is a function of A and H,
      and A does not change during the call.
    - coset_space(G, H) per subgroupoid H, shared in the same way: a row
      reads the partition of its own H, and hom_gset_check the cosets of
      the row's stabilizer, which is H wherever closure holds.
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
    kept_cosets: dict = {}

    def invariants_of(H):
        if H not in kept_invariants:
            kept_invariants[H] = invariants(A, H)
        return kept_invariants[H]

    def cosets_of(H):
        if H not in kept_cosets:
            kept_cosets[H] = coset_space(G, H)
        return kept_cosets[H]

    rows = []
    partitions = set()
    for H in enumerate_wide_subgroupoids(G, max_elements):
        T = invariants_of(H)
        report = strong_subalgebra_check(T, A, invariants_of, cosets_of)
        rows.append(
            CorrespondenceRow(
                H,
                T,
                report.stabilizer_labels,
                report.separable,
                report.beta_strong,
                report.r_split,
            )
        )
        partitions.add(frozenset(frozenset(c) for c in cosets_of(H).classes))

    keys = [row.subalgebra.key() for row in rows]
    injective = len(set(keys)) == len(keys)
    partition_injective = len(partitions) == len(rows)
    closure = all(row.closure_holds for row in rows)

    family = ideal_fp_basis(R, R.blocks)
    seen: dict = {}
    for size in range(MAX_GENERATORS + 1):
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
