"""Separability, beta-strong subalgebras, and the subgroupoid/subalgebra
correspondence.

Everything is decided by exact linear algebra: a separability idempotent
is the inverse of the trace form on each K-block, and the correspondence
is verified by enumerating both sides independently.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .action import AlgebraAction, Subalgebra, Submodule, invariants, stabilizer
from .blockring import equalising_block
from .errors import OracleMismatch
from .groupoid import (
    DEFAULT_MAX_ELEMENTS,
    check_size_bound,
    coset_space,
    enumerate_wide_subgroupoids,
)
from .mapalg import hom_gset_check, require_faithful_hypotheses, splits_per_target
from .omega import Omega, subalgebra_basis
from .scalar import solve_linear
from .tensor import BlockModuleBasis, kblocks

# Separability ---------------------------------------------------------

def inverse_trace_form(field, mult, scalars):
    """The inverse C of the Gram matrix G_ij = Tr(b_i b_j) of the trace
    form of a commutative algebra over a subfield L of a finite field,
    from one elimination of G; None when G is singular.  mult[i][j] is
    the coefficient vector of b_i b_j, with entries in L, so Tr(b_m) =
    tau_m = sum_l mult[m][l][l] and G_ij = sum_m mult[i][j][m] tau_m.
    scalars is an F_p-basis of L inside field.

    One solve_linear call over L solves G C_m = e_m for every unit vector
    e_m of L^n.  G is invertible exactly when every e_m is reached, and
    then the solutions are the columns of C = G^-1, which is unique, so it
    is the inverse over field too.

    v = sum C_ij b_i tensor b_j is the separability idempotent, and None
    means that there is none (DeMeyer and Ingraham, Separable Algebras
    over Commutative Rings, 1971):
    - If G is invertible, y_j = sum_i C_ij b_i is the dual basis, so
      z = sum_j Tr(z y_j) b_j = sum_j Tr(z b_j) y_j, and v = sum_j b_j
      tensor y_j as C is symmetric.  mu(v) = 1: Tr(a) is the trace of
      z -> az, sum_j Tr(a b_j y_j) = Tr(a mu(v)), and the form is
      nondegenerate.  (t tensor 1)v = sum_jk Tr(t b_j y_k) b_k tensor y_j
      = (1 tensor t)v, expanding t b_j over b and t y_k over y.
    - A commutative finite algebra over a finite field is separable
      exactly when it is reduced, and exactly then G is nondegenerate: a
      nilpotent n has Tr(nz) = 0 for every z, and a product of separable
      field extensions has an orthogonal sum of nondegenerate forms.
    """
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
    units = [[field.one if i == m else field.zero for i in range(n)] for m in range(n)]
    columns = solve_linear(field, gram, units, scalars)
    # C is symmetric, so its columns are its rows
    return None if None in columns else columns


def separability_idempotent(T, K: Subalgebra) -> tuple | None:
    """The unique v in T tensor_K T with mu(v) = 1 and (t tensor 1)v =
    (1 tensor t)v, as the tuple of pairs (x_i, y_i) with v = sum x_i
    tensor y_i, found per K-block as the inverse of the block's trace form
    (inverse_trace_form); None when some block's trace form is singular,
    which is exactly when no such v exists.

    The pairs are (c b_i, b_j), block by block, for each nonzero
    coefficient c of b_i tensor b_j over the block's K·u-basis b, solved
    on K·u's values at the block's slot, the subfield of F_{p^k} that
    KBlock reads, and lifted.  Two laws are self-checked: mu(v) = 1 in R,
    and the symmetry law for every block basis element b_m on the block's
    structure constants, which by K-linearity in t gives it for every t in
    T.  Idempotence follows from the two, so it is not checked:
    v v = sum_i (x_i tensor 1)(1 tensor y_i) v
        = sum_i (x_i tensor 1)(y_i tensor 1) v = (mu(v) tensor 1) v = v.
    """
    space = T.space
    all_pairs = []
    for blk in kblocks(K):
        F = blk.field
        bmb = BlockModuleBasis(space, blk, T.basis)
        n = bmb.rank
        mult = [[bmb.decompose(space.mul(bi, bj)) for bj in bmb.basis] for bi in bmb.basis]
        coeffs = inverse_trace_form(F, mult, [f[blk.slot] for f in blk.fp_basis])
        if coeffs is None:
            return None
        # the coefficients of b_k tensor b_j in (b_m tensor 1)v and (1 tensor b_m)v
        for by_m in mult:
            for k, j in itertools.product(range(n), repeat=2):
                left = right = F.zero
                for i in range(n):
                    left = F.add(left, F.mul(by_m[i][k], coeffs[i][j]))
                    right = F.add(right, F.mul(coeffs[k][i], by_m[i][j]))
                if left != right:
                    raise OracleMismatch("separability idempotent fails the symmetry law")
        all_pairs += [(space.k_scale(blk.lift(K.space, c), bi), bj)
                      for bi, row in zip(bmb.basis, coeffs)
                      for bj, c in zip(bmb.basis, row) if c != F.zero]

    total = space.zero()
    for x, y in all_pairs:
        total = space.add(total, space.mul(x, y))
    if total != space.one():
        raise OracleMismatch("separability idempotent fails mu(v) = 1")
    return tuple(all_pairs)


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

    The candidate subalgebras are the T of the partitions of Ω that
    Omega.strong_partitions keeps: every subalgebra between K and R is
    such a T, and the search drops only partitions whose T fails to be
    beta-strong, so every separable beta-strong subalgebra is a candidate.
    Each candidate is still decided by separability_idempotent and
    is_beta_strong, directly or through the row verdicts below; the
    search raises SizeBoundExceeded past omega.MAX_SEARCH_NODES.  It runs
    after the |G| bound of the enumeration and before the enumeration and
    the rows, so both bounds fire before the expensive work; it reads A
    only, and rows and candidates meet only once both exist, so the order
    changes no verdict.  The hypothesis gate raises HypothesisFailure when
    some ideal is unfaithful or the action is not Galois.

    Three things are kept for the length of this call, and no longer:
    - invariants(A, H) per subgroupoid H, by its label tuple, shared by
      the rows and strong_subalgebra_check.  It is a function of A and H,
      and A does not change during the call.
    - coset_space(G, H) per subgroupoid H, shared in the same way: a row
      reads the partition of its own H, and hom_gset_check the cosets of
      the row's stabilizer, which is H wherever closure holds.
    - each row's separable and beta-strong verdicts, by the row's key.  A
      candidate with the same key takes them instead of deciding again,
      and the row's subalgebra stands for it.  Equal keys mean equal
      spans, and both verdicts depend on the span only: a separability
      idempotent is a property of the algebra, not of the basis it is
      computed on (DeMeyer and Ingraham, Separable Algebras over
      Commutative Rings, 1971), and the stabilizer and the equalising-block
      test are linear conditions checked on a basis.  A candidate that is
      no row is built as a Subalgebra, which checks its unit and closure.
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

    check_size_bound(G, max_elements)
    survivors = list(Omega(A).strong_partitions())
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

    row_of = dict(zip(keys, rows))
    found: dict = {}
    for part in survivors:
        basis = subalgebra_basis(R, part)
        key = Submodule(R, basis).key()
        row = row_of.get(key)
        if row is not None:
            if row.separable and row.beta_strong:
                found[key] = row.subalgebra
            continue
        T = Subalgebra(R, basis)
        if (separability_idempotent(T, K) is not None
                and is_beta_strong(T, A, stabilizer(T, A))[0]):
            found[key] = T
    strong = [found[key] for key in sorted(found, key=lambda k: (len(k), k))]
    image_ok = set(keys) == set(found)
    return CorrespondenceTable(
        rows, strong, injective, partition_injective, image_ok, closure
    )
