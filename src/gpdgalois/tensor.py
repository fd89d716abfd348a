"""Base-algebra linear algebra: K-blocks, ranks, blockwise tensor products.

The base algebra K (the invariants) is a product of finite fields; its
primitive idempotents cut every K-module into blocks, each a vector space
over one field.  Ranks, tensor products and separability (galois.py) are
all settled per block by exact prime-field computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import Subalgebra
from .errors import OracleMismatch, ValidationError
from .omega import signature_partition
from .scalar import FpSpan, Scalar


class KBlock:
    """One primitive idempotent u of K and the field K·u, read inside the
    ring's own field F = space.field.

    With b the first slot of u (u_b = 1), x -> x_b is a ring map from K·u
    to F, injective by _find_kblocks, so K·u is the subfield {x_b} of F.
    fp_basis is an F_p-basis of K·u; to_coords takes x_b to the
    coordinates of x over it and from_coords takes them back.  Building
    them is the self-check that K·u is a field, as a finite ring that
    embeds in a field is a domain.
    """

    def __init__(self, space, u, generators):
        self.u = u
        self.field = F = space.field
        self.slot = u.index(F.one)
        span = FpSpan(F.p)
        self.fp_basis = tuple(v for v in (space.mul(g, u) for g in generators)
                              if span.insert(space.flat(v)))
        self.from_coords = {(): F.zero}
        for f in self.fp_basis:
            self.from_coords = {cs + (c,): F.add(s, F.mul(c, f[self.slot]))
                                for cs, s in self.from_coords.items() for c in range(F.p)}
        self.to_coords = {s: coords for coords, s in self.from_coords.items()}
        if len(self.to_coords) < len(self.from_coords):
            raise OracleMismatch("K block is not a field")

    @property
    def degree(self) -> int:
        return len(self.fp_basis)

    def lift(self, space, s: Scalar) -> tuple:
        """The element x of K·u with x_b = s."""
        return space.int_combine(self.to_coords[s], self.fp_basis)


def kblocks(K: Subalgebra) -> tuple[KBlock, ...]:
    """The primitive idempotents of K with their field data, in the order
    of their numbers sum c_i p^i, c = K.coords(u), in K's enumeration.

    They are a function of the subspace K, so they are computed once per K
    and kept on it, and freed with it.  Every K here is a subalgebra of a
    product of fields, finite and reduced, so a product of fields: a failed
    self-check raises OracleMismatch, a fault of this library, and keeps
    nothing."""
    blocks = getattr(K, "_kblocks", None)
    if blocks is None:
        blocks = K._kblocks = _find_kblocks(K)
    return blocks


def _find_kblocks(K: Subalgebra) -> tuple[KBlock, ...]:
    """The idempotents from K's basis, with no listing of K.

    Each slot b gives a unital F_p-linear ring map ev_b: x -> x_b from K
    to F_{p^k}, fixed by its values on K.basis.  signature_partition puts
    two slots in one Frobenius cycle exactly when their value tuples agree
    up to a Frobenius power x -> x^(p^s), s < k.  ev_b factors through the
    one field K u_i of K with u_i = 1 at b.  Two ring maps K -> F_{p^k}
    with the same kernel differ by a Frobenius power, and maps with
    different kernels differ after any, as Frobenius is injective.  So two
    slots share a primitive idempotent exactly when they share a cycle,
    and that idempotent is the unit of their class.  The classes partition
    the slots, so the units are orthogonal and sum to one; that each lies
    in K is self-checked.

    On the class of u with first slot b, each slot c carries b's basis
    values raised to one p^s, which is F_p-linear, so x_c = x_b^(p^s) for
    every x in K: x u -> x_b is injective, and KBlock reads K u there.
    """
    space = K.space
    groups: dict = {}
    for slot, (cycle, _) in zip(space.slots, signature_partition(space, K.basis).place):
        groups.setdefault(cycle, []).append(slot)
    primitive = [space.unit(group) for group in groups.values()]
    if not all(K.contains(u) for u in primitive):
        raise OracleMismatch("a signature class unit lies outside K")
    primitive.sort(key=lambda u: K.coords(u)[::-1])
    return tuple(KBlock(space, u, K.basis) for u in primitive)


class BlockModuleBasis:
    """A K·u-basis of M·u for a K-module M inside some product space,
    with exact decomposition of arbitrary elements of M·u.  K·u is a
    field, so M·u is free over it.  Every M passed here is closed under
    K, so a failed freeness, closure, degree or span check is a fault of
    this library (OracleMismatch)."""

    def __init__(self, space, kblock: KBlock, module_basis):
        self.space, self.kblock = space, kblock
        fp_span = FpSpan(space.field.p)
        fp_vecs = [v for v in (space.k_scale(kblock.u, b) for b in module_basis)
                   if fp_span.insert(space.flat(v))]
        self.basis = []
        self._span = FpSpan(space.field.p)  # f v over fp_basis f, basis v
        for v in fp_vecs:
            if self._span.contains(space.flat(v)):
                continue
            self.basis.append(v)
            for f in kblock.fp_basis:
                vv = space.k_scale(f, v)
                if not self._span.insert(space.flat(vv)):
                    raise OracleMismatch("block not free over its base field")
                if not fp_span.contains(space.flat(vv)):
                    raise OracleMismatch("module not closed under base multiplication")
        if len(self.basis) * kblock.degree != len(fp_vecs):
            raise OracleMismatch("block dimension not divisible by the field degree")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def decompose(self, z) -> tuple[Scalar, ...]:
        """K·u-coordinates of z over the basis, as their values at the
        block's slot."""
        coords = self._span.coords(self.space.flat(z))
        if coords is None:
            raise OracleMismatch("element outside the block span")
        d, table = self.kblock.degree, self.kblock.from_coords
        return tuple(table[coords[i * d : (i + 1) * d]] for i in range(len(self.basis)))


@dataclass
class RankProfile:
    """Per-K-block dimension of a module, with constancy and faithfulness."""

    ranks: tuple
    constant: bool
    faithful: bool

    @classmethod
    def of(cls, parts) -> RankProfile:
        """The profile of a module from its BlockModuleBasis per K-block."""
        ranks = tuple(part.rank for part in parts)
        return cls(ranks, len(set(ranks)) <= 1, all(r >= 1 for r in ranks))


def rank_profile(T, K: Subalgebra) -> RankProfile:
    """dim over K·u of T·u for every primitive idempotent u of K.  Raises
    ValidationError when T is not closed under multiplication by K.
    """
    space = T.space
    for c in K.basis:
        for b in T.basis:
            if not T.contains(space.k_scale(c, b)):
                raise ValidationError("module not closed under base multiplication")
    return RankProfile.of(BlockModuleBasis(space, blk, T.basis) for blk in kblocks(K))


class TensorOverK:
    """M tensor N over K, realized blockwise.

    Elements are prime-field coordinate vectors over the basis
    f_m (m_i tensor n_j), f the block's fp_basis, enumerated block-major.

    m_parts and n_parts are the BlockModuleBasis of M and of N per block
    of kblocks(K).
    """

    def __init__(self, space_m, space_n, K: Subalgebra, m_basis, n_basis):
        self.blocks = kblocks(K)
        self.m_parts = [BlockModuleBasis(space_m, blk, m_basis) for blk in self.blocks]
        self.n_parts = [BlockModuleBasis(space_n, blk, n_basis) for blk in self.blocks]
        self.layout = []
        off = 0
        for bi, blk in enumerate(self.blocks):
            for i in range(self.m_parts[bi].rank):
                for j in range(self.n_parts[bi].rank):
                    self.layout.append(((bi, i, j), off, blk.degree))
                    off += blk.degree
        self.dim = off

    def basis_vectors(self):
        """(x, y) for each basis tensor f_m (m_i tensor n_j), in
        coordinate order."""
        for (bi, i, j), _, _ in self.layout:
            part = self.m_parts[bi]
            for f in self.blocks[bi].fp_basis:
                yield part.space.k_scale(f, part.basis[i]), self.n_parts[bi].basis[j]
