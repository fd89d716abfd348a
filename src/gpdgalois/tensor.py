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
    the idempotents first appear in K's element enumeration.

    They are a function of the subspace K, so they are computed once per K
    and kept on it, as Submodule.elements is, and freed with it.  Every K
    here is a subalgebra of a product of fields, finite and reduced, so a
    product of fields: a failed self-check raises OracleMismatch, a fault
    of this library, and keeps nothing."""
    blocks = getattr(K, "_kblocks", None)
    if blocks is None:
        blocks = K._kblocks = _find_kblocks(K)
    return blocks


def _find_kblocks(K: Subalgebra) -> tuple[KBlock, ...]:
    space = K.space
    idems = [x for x in K.elements if x != space.zero() and space.mul(x, x) == x]
    primitive = []
    for u in idems:
        if not any(w != u and space.mul(u, w) == w for w in idems):
            primitive.append(u)
    total = space.zero()
    for u in primitive:
        for w in primitive:
            if w != u and space.mul(u, w) != space.zero():
                raise OracleMismatch("primitive idempotents not orthogonal")
        total = space.add(total, u)
    if total != space.one():
        raise OracleMismatch("primitive idempotents do not sum to one")

    out = []
    for u in primitive:
        span = FpSpan(space.field.p)
        fp_basis = []
        for b in K.basis:
            v = space.mul(b, u)
            if span.insert(space.flat(v)):
                fp_basis.append(v)
        d = len(fp_basis)
        kappa = minpoly_coords = None
        for cand in span_elements(space, fp_basis):
            if cand == space.zero():
                continue
            deg_span = FpSpan(space.field.p)
            power, degree = u, 0
            while deg_span.insert(space.flat(power)):
                degree += 1
                power = space.mul(power, cand)
            if degree == d:
                kappa = cand
                minpoly_coords = deg_span.coords(space.flat(power))
                break
        if kappa is None:
            raise OracleMismatch("no field generator found; K block is not a field")
        p = space.field.p
        if d == 1:
            afield = make_field(p, 1)
        else:
            modulus = tuple((-c) % p for c in minpoly_coords) + (1,)
            afield = make_field(p, d, modulus)
        kappa_pows = [u]
        for _ in range(d - 1):
            kappa_pows.append(space.mul(kappa_pows[-1], kappa))
        out.append(KBlock(space, u, afield, kappa_pows))
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
