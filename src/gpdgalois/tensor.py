"""Base-algebra linear algebra: K-blocks, ranks, blockwise tensor products.

The base algebra K (the invariants) is a product of finite fields; its
primitive idempotents cut every K-module into blocks, each a vector space
over one field.  Ranks, tensor products and separability (galois.py) are
all settled per block by exact prime-field computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import Subalgebra, span_elements
from .errors import OracleMismatch, ValidationError
from .scalar import FpSpan, Scalar, make_field


class KBlock:
    """One primitive idempotent u of K together with the field K·u.

    `afield` is an abstract copy of K·u (built on the minimal polynomial of
    the chosen generator kappa over F_p); from_abstract maps its scalars
    into a space as combinations of the powers of kappa.
    """

    def __init__(self, space, u, afield, kappa_pows):
        self.u = u
        self.afield = afield
        self.kappa_pows = tuple(kappa_pows)
        span = FpSpan(space.field.p)
        for pw in self.kappa_pows:
            if not span.insert(space.flat(pw)):
                raise OracleMismatch("generator powers are dependent")

    @property
    def degree(self) -> int:
        return self.afield.k

    def from_abstract(self, space, s: Scalar) -> tuple:
        """The element sum c_m kappa^m u for the digits c_m of s."""
        return space.int_combine(self.afield.digits[s], self.kappa_pows)


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
    to F_{p^k}, fixed by its values on K.basis.  The signature of b is the
    set of those value tuples under each Frobenius power x -> x^(p^s),
    s < k.  ev_b factors through the one field K u_i of K with u_i = 1 at
    b.  Two ring maps K -> F_{p^k} with the same kernel differ by a
    Frobenius power, and maps with different kernels differ after any, as
    Frobenius is injective.  So two slots share a primitive idempotent
    exactly when their signatures are equal, and that idempotent is the
    unit of their class.  The classes partition the slots, so the units
    are orthogonal and sum to one; that each lies in K is self-checked,
    and the generator search fails unless K u is a field.
    """
    space = K.space
    F = space.field
    frobs = [F.frobenius_table(F.p**s) for s in range(F.k)]
    groups: dict = {}
    for b, slot in enumerate(space.slots):
        sig = frozenset(tuple(f[x[b]] for x in K.basis) for f in frobs)
        groups.setdefault(sig, []).append(slot)
    primitive = [space.unit(group) for group in groups.values()]
    if not all(K.contains(u) for u in primitive):
        raise OracleMismatch("a signature class unit lies outside K")
    primitive.sort(key=lambda u: K.coords(u)[::-1])

    out = []
    for u in primitive:
        span = FpSpan(F.p)
        fp_basis = [v for v in (space.mul(b, u) for b in K.basis) if span.insert(space.flat(v))]
        d = len(fp_basis)
        for kappa in span_elements(space, fp_basis)[1:]:  # every nonzero element
            deg_span, pows = FpSpan(F.p), [u]
            while deg_span.insert(space.flat(pows[-1])):
                pows.append(space.mul(pows[-1], kappa))
            if len(pows) == d + 1:  # u, kappa u, ..., kappa^d u; the last depends
                break
        else:
            raise OracleMismatch("no field generator found; K block is not a field")
        minpoly = deg_span.coords(space.flat(pows.pop()))
        afield = make_field(F.p, d, tuple((-c) % F.p for c in minpoly) + (1,))
        out.append(KBlock(space, u, afield, pows))
    return tuple(out)


class BlockModuleBasis:
    """A K·u-basis of M·u for a K-module M inside some product space,
    with exact decomposition of arbitrary elements of M·u.  K·u is a
    field, so M·u is free over it, and a failed freeness or degree check
    is a fault of this library (OracleMismatch)."""

    def __init__(self, space, kblock: KBlock, module_basis):
        self.space = space
        self.kblock = kblock
        fp_span = FpSpan(space.field.p)
        fp_vecs = []
        for b in module_basis:
            v = space.k_scale(kblock.u, b)
            if fp_span.insert(space.flat(v)):
                fp_vecs.append(v)
        ku_span = FpSpan(space.field.p)
        self.basis = []
        self._decomp = FpSpan(space.field.p)
        for v in fp_vecs:
            if ku_span.contains(space.flat(v)):
                continue
            self.basis.append(v)
            for pw in kblock.kappa_pows:
                vv = space.k_scale(pw, v)
                if not ku_span.insert(space.flat(vv)):
                    raise OracleMismatch("block not free over its base field")
                if not fp_span.contains(space.flat(vv)):
                    raise ValidationError("module not closed under base multiplication")
                self._decomp.insert(space.flat(vv))
        if len(self.basis) * kblock.degree != len(fp_vecs):
            raise OracleMismatch("block dimension not divisible by the field degree")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def decompose(self, z) -> tuple[Scalar, ...]:
        """K·u-coordinates of z over the basis, as abstract scalars."""
        coords = self._decomp.coords(self.space.flat(z))
        if coords is None:
            raise ValidationError("element outside the block span")
        d, F = self.kblock.degree, self.kblock.afield
        return tuple(F.element(coords[i * d : (i + 1) * d]) for i in range(len(self.basis)))


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
    kappa^m (m_i tensor n_j), enumerated block-major.

    m_parts and n_parts are the BlockModuleBasis of M and of N per block
    of kblocks(K).

    The tensor keeps, for as long as it lives, the per-block coordinates
    of every element it has decomposed and the coordinates of every pure
    tensor it has built.  Both are functions of their arguments over
    fixed parts, so a kept value is the value a new computation would
    give.
    """

    def __init__(self, space_m, space_n, K: Subalgebra, m_basis, n_basis):
        self.space_m = space_m
        self.space_n = space_n
        self.p = K.space.field.p
        self.blocks = kblocks(K)
        self.m_parts = [BlockModuleBasis(space_m, blk, m_basis) for blk in self.blocks]
        self.n_parts = [BlockModuleBasis(space_n, blk, n_basis) for blk in self.blocks]
        self._m_coords: dict = {}
        self._n_coords: dict = {}
        self._pure: dict = {}
        self.layout = []
        off = 0
        for bi, blk in enumerate(self.blocks):
            for i in range(self.m_parts[bi].rank):
                for j in range(self.n_parts[bi].rank):
                    self.layout.append(((bi, i, j), off, blk.degree))
                    off += blk.degree
        self.dim = off

    def _block_coords(self, space, parts, kept, z) -> tuple:
        """The K·u-coordinates of z·u over each block's basis, kept."""
        got = kept.get(z)
        if got is None:
            got = kept[z] = tuple(
                part.decompose(space.k_scale(blk.u, z))
                for part, blk in zip(parts, self.blocks)
            )
        return got

    def pure(self, x, y) -> tuple:
        """Coordinates of the pure tensor (x in M, y in N)."""
        got = self._pure.get((x, y))
        if got is not None:
            return got
        per_block_m = self._block_coords(self.space_m, self.m_parts, self._m_coords, x)
        per_block_n = self._block_coords(self.space_n, self.n_parts, self._n_coords, y)
        coords = [0] * self.dim
        for (bi, i, j), off, d in self.layout:
            F = self.blocks[bi].afield
            prod = F.digits[F.mul_table[per_block_m[bi][i]][per_block_n[bi][j]]]
            for m in range(d):
                coords[off + m] = (coords[off + m] + prod[m]) % self.p
        got = self._pure[(x, y)] = tuple(coords)
        return got

    def basis_vectors(self):
        """(coords, x, y) for each basis tensor kappa^m (m_i tensor n_j)."""
        for (bi, i, j), off, d in self.layout:
            blk = self.blocks[bi]
            for m in range(d):
                coords = [0] * self.dim
                coords[off + m] = 1
                x = self.space_m.k_scale(blk.kappa_pows[m], self.m_parts[bi].basis[i])
                y = self.n_parts[bi].basis[j]
                yield tuple(coords), x, y
