"""Products of finite-field blocks: the ambient ring R and its ideals.

R is a direct sum of field blocks, one scalar coordinate per block; every
ideal that matters here is unital and identified with its block support,
and every idempotent is a 0/1 block vector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BlockMismatch, InvalidInput, SizeBoundExceeded, UnknownLabel
from .scalar import FieldSpec, Scalar, flatten, fp_basis_scalars

DEFAULT_MAX_SUPPORT = 16


class ProductSpace:
    """A finite product of copies of one field, indexed by slot labels.

    Elements are tuples of scalars in slot order; all operations are
    componentwise, so elements are hashable and sets of them are cheap.
    """

    def __init__(self, field: FieldSpec, slots):
        self.field = field
        self.slots = tuple(slots)
        if len(set(self.slots)) != len(self.slots):
            raise InvalidInput("duplicate slot labels")
        self._index = {s: i for i, s in enumerate(self.slots)}

    def slot_index(self, slot) -> int:
        try:
            return self._index[slot]
        except KeyError:
            raise UnknownLabel(f"unknown slot {slot!r}") from None

    def block_of_slot(self, slot):
        """The R-block a slot is tied to; the identity map on a ring."""
        return slot

    def zero(self) -> tuple:
        return (self.field.zero,) * len(self.slots)

    def one(self) -> tuple:
        return (self.field.one,) * len(self.slots)

    def unit(self, support) -> tuple:
        sup = {self.slot_index(s) for s in support}
        return tuple(
            self.field.one if i in sup else self.field.zero
            for i in range(len(self.slots))
        )

    def element(self, coords) -> tuple:
        """Build an element from a slot->coefficient mapping or a full tuple."""
        if isinstance(coords, dict):
            out = [self.field.zero] * len(self.slots)
            for slot, val in coords.items():
                out[self.slot_index(slot)] = self.field.element(val)
            return tuple(out)
        vals = tuple(self.field.element(v) for v in coords)
        if len(vals) != len(self.slots):
            raise BlockMismatch(
                f"expected {len(self.slots)} coordinates, got {len(vals)}"
            )
        return vals

    def _check(self, x):
        if len(x) != len(self.slots):
            raise BlockMismatch("element has wrong number of coordinates")

    def add(self, x, y) -> tuple:
        self._check(x), self._check(y)
        return tuple(self.field.add(a, b) for a, b in zip(x, y))

    def sub(self, x, y) -> tuple:
        return tuple(self.field.sub(a, b) for a, b in zip(x, y))

    def neg(self, x) -> tuple:
        return tuple(self.field.neg(a) for a in x)

    def mul(self, x, y) -> tuple:
        self._check(x), self._check(y)
        return tuple(self.field.mul(a, b) for a, b in zip(x, y))

    def scale(self, c: Scalar, x) -> tuple:
        """Multiply every coordinate by one field scalar."""
        return tuple(self.field.mul(c, a) for a in x)

    def int_combine(self, coeffs, elems) -> tuple:
        """Prime-field linear combination sum(c_i * x_i)."""
        out = self.zero()
        for c, x in zip(coeffs, elems):
            if c % self.field.p:
                out = self.add(out, self.scale(self.field.element(c), x))
        return out

    def support_of(self, x) -> tuple:
        return tuple(s for s, v in zip(self.slots, x) if v != self.field.zero)

    def is_idempotent(self, x) -> bool:
        return self.mul(x, x) == x

    def flat(self, x) -> tuple[int, ...]:
        return flatten(x)

    def fp_dim(self) -> int:
        return len(self.slots) * self.field.k

    def all_elements(self, bound: int = 1 << 16):
        """Every element, little-endian in the slot coordinates."""
        total = self.field.order ** len(self.slots)
        if total > bound:
            raise SizeBoundExceeded(f"product space has {total} elements")
        scalars = self.field.elements()
        for combo in itertools.product(scalars, repeat=len(self.slots)):
            yield combo

    def format(self, x) -> str:
        parts = []
        for s, v in zip(self.slots, x):
            if v == self.field.zero:
                continue
            name = s if isinstance(s, str) else "|".join(map(str, s))
            if v == self.field.one:
                parts.append(name)
            else:
                parts.append(f"({self.field.format(v)})*{name}")
        return "+".join(parts) if parts else "0"


@dataclass(frozen=True)
class IdealRef:
    """A unital ideal of R, identified with its block support."""

    support: tuple

    def __iter__(self):
        return iter(self.support)

    def __len__(self):
        return len(self.support)


@dataclass(frozen=True)
class Idempotent:
    """A 0/1 block vector, the only idempotents a product of fields has."""

    support: tuple


class BlockRing(ProductSpace):
    """R = direct sum of E_e over identities e, one field block at a time."""

    def __init__(self, field: FieldSpec, blocks, owner):
        super().__init__(field, blocks)
        self.blocks = self.slots
        self.owner = dict(owner)
        self.ring = self

    def ideal(self, e) -> IdealRef:
        sup = tuple(b for b in self.blocks if self.owner[b] == e)
        if not sup:
            raise UnknownLabel(f"no blocks owned by {e!r}")
        return IdealRef(sup)

    def k_scale(self, c, x) -> tuple:
        """Coordinatewise action of a ring element c on x (same slot set)."""
        return self.mul(c, x)

    def __repr__(self):
        return f"BlockRing({list(self.blocks)} over F_{self.field.order})"


def make_ring(field: FieldSpec, blocks, ideals, identities=None) -> BlockRing:
    """Build R from named blocks and an identity -> block-list table.

    When the identity list is supplied the table must cover exactly those
    identities, each owning at least one block.
    """
    blocks = list(blocks)
    owner = {}
    for e, blist in ideals.items():
        if not blist:
            raise InvalidInput(f"identity {e!r} owns no blocks")
        for b in blist:
            if b not in set(blocks):
                raise UnknownLabel(f"unknown block {b!r} in ideal of {e!r}")
            if b in owner:
                raise InvalidInput(f"block {b!r} assigned to two ideals")
            owner[b] = e
    missing = [b for b in blocks if b not in owner]
    if missing:
        raise InvalidInput(f"blocks {missing} belong to no ideal")
    if identities is not None:
        if set(ideals) != set(identities):
            raise InvalidInput(
                f"ideal table keys {sorted(map(str, ideals))} != identities"
            )
    return BlockRing(field, blocks, owner)


def ring_arith(R: BlockRing, op: str, x, y=None):
    """Dispatch add | mul | neg on ring elements."""
    if op == "add":
        return R.add(x, y)
    if op == "mul":
        return R.mul(x, y)
    if op == "neg":
        return R.neg(x)
    raise InvalidInput(f"unknown ring operation {op!r}")


def idempotents_of(
    R: BlockRing, E: IdealRef, max_support: int = DEFAULT_MAX_SUPPORT
) -> list[Idempotent]:
    """All nonzero idempotents of a unital ideal: the nonempty block
    subsets, ordered by size then position."""
    sup = tuple(E.support)
    for b in sup:
        R.slot_index(b)
    if len(sup) > max_support:
        raise SizeBoundExceeded(f"ideal support {len(sup)} exceeds {max_support}")
    out = []
    for size in range(1, len(sup) + 1):
        for combo in itertools.combinations(range(len(sup)), size):
            out.append(Idempotent(tuple(sup[i] for i in combo)))
    return out


def idempotent_element(R: BlockRing, idem: Idempotent) -> tuple:
    return R.unit(idem.support)


def is_faithful_ideal(K, E: IdealRef) -> tuple[bool, tuple | None]:
    """No nonzero element of K annihilates the ideal; witness otherwise.

    K is anything with an ordered `elements` collection over R (typically
    the invariant subalgebra); the first annihilator in that order is the
    witness.
    """
    elems = K.elements if hasattr(K, "elements") else tuple(K)
    space = K.space if hasattr(K, "space") else None
    if space is None:
        raise InvalidInput("K must carry its ambient space")
    unit = space.unit(E.support)
    zero = space.zero()
    for x in elems:
        if x == zero:
            continue
        if space.mul(x, unit) == zero:
            return False, x
    return True, None


def ideal_fp_basis(R: BlockRing, support) -> list:
    """Prime-field basis of a unital ideal: every power-basis scalar in
    every supported block."""
    out = []
    for b in support:
        for s in fp_basis_scalars(R.field):
            out.append(R.element({b: s}))
    return out


def disconnected_identity(G, g):
    """The first identity outside the connected component of r(g), or None.

    In a groupoid, "some h has d h = e and r h = e'" is already an
    equivalence on identities (identities, inverses and products give
    reflexivity, symmetry and transitivity), so the component of r(g) is
    {r h : d h = r(g)}.
    """
    G.index(g)
    reached = {G.r[h] for h in G.elements if G.d[h] == G.r[g]}
    return next((e for e in G.identities if e not in reached), None)


def faithfulness_criterion(G, g) -> bool:
    """Combinatorial test for faithfulness of E_g over the invariants K:
    every identity of G lies in the connected component of r(g).

    Proof, for a validated action (every identity owns a block).  The
    orbit of a block b owned by e is {sigma_h(b) : d h = e}; it meets the
    blocks of exactly the identities in the component of e, since
    sigma_h maps the blocks of d h onto those of r h.  The indicator 1_O
    of an orbit O lies in K, because beta_h carries 1_O 1_{d h} to
    1_O 1_{r h}.
    - If an orbit O misses the blocks of r(g), then 1_O is a nonzero
      element of K with 1_O E_g = 0, so E_g is not faithful.
    - If every orbit meets them, let x in K be nonzero at a block b, and
      pick h with d h = owner(b) and sigma_h(b) owned by r(g).
      Invariance gives x at sigma_h(b) equal to x_b^(p^t) != 0, so
      x E_g != 0 and E_g is faithful.
    So E_g is faithful exactly when every orbit meets the blocks of r(g).
    Every identity owns a block, so that means every identity lies in the
    component of r(g).
    """
    return disconnected_identity(G, g) is None
