"""Products of finite-field blocks: the ambient ring R and its ideals.

R is a direct sum of field blocks, one scalar coordinate per block; every
ideal that matters here is unital and identified with its block support,
and every idempotent is a 0/1 block vector.
"""

from __future__ import annotations

from .errors import InvalidInput, SizeBoundExceeded
from .scalar import FieldSpec, FpSpan, Scalar, fp_basis_scalars

BRUTE_FORCE_BOUND = 1 << 16


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
            raise InvalidInput(f"unknown slot {slot!r}") from None

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
        """An element from JSON coefficients: a slot->coefficient mapping or a list."""
        if isinstance(coords, dict):
            return self.embed({s: self.field.element(v) for s, v in coords.items()})
        vals = tuple(self.field.element(v) for v in coords)
        if len(vals) != len(self.slots):
            raise InvalidInput(
                f"expected {len(self.slots)} coordinates, got {len(vals)}"
            )
        return vals

    def embed(self, coords) -> tuple:
        """The element with the scalar coords[s] at each slot s, else zero."""
        out = [self.field.zero] * len(self.slots)
        for slot, val in coords.items():
            out[self.slot_index(slot)] = val
        return tuple(out)

    def _check(self, x):
        if len(x) != len(self.slots):
            raise InvalidInput("element has wrong number of coordinates")

    def add(self, x, y) -> tuple:
        self._check(x), self._check(y)
        table = self.field.add_table
        return tuple([table[a][b] for a, b in zip(x, y)])

    def mul(self, x, y) -> tuple:
        self._check(x), self._check(y)
        table = self.field.mul_table
        return tuple([table[a][b] for a, b in zip(x, y)])

    def scale(self, c: Scalar, x) -> tuple:
        """Multiply every coordinate by one field scalar."""
        row = self.field.mul_table[c]
        return tuple([row[a] for a in x])

    def int_combine(self, coeffs, elems) -> tuple:
        """Prime-field linear combination sum(c_i * x_i), c_i taken mod p."""
        out = self.zero()
        for c, x in zip(coeffs, elems):
            if c % self.field.p:
                out = self.add(out, self.scale(c % self.field.p, x))
        return out

    def flat(self, x) -> tuple[int, ...]:
        return self.field.flatten(x)

    def all_elements(self, moves=()):
        """Every element x with x[j] = x[i]^q for each move (i, j, q), in
        the order of itertools.product over the field's scalars: the first
        slot varies slowest and the last fastest.  With no moves that is
        every element.  A space of more than BRUTE_FORCE_BOUND elements
        refuses.

        The search is exhaustive and pruned.  Each move is indexed at slot
        max(i, j), and prefixes are extended one slot at a time, each kept
        only if it passes every move indexed at its last slot.  A move reads
        no slot past its index, so a prefix that fails it fails it in every
        completion: no dropped prefix extends to an element the full filter
        keeps.  A full element has passed every move, each at its own slot.
        Extending a list in product order slot by slot, and filtering it,
        keeps product order, so the elements and their order are those of
        filtering the whole product.
        """
        total = self.field.order ** len(self.slots)
        if total > BRUTE_FORCE_BOUND:
            raise SizeBoundExceeded(f"product space has {total} elements")
        by_slot = [[] for _ in self.slots]
        for i, j, q in moves:
            by_slot[max(i, j)].append((i, j, None if q == 1 else self.field.frobenius_table(q)))
        scalars = self.field.elements()
        level = [()]
        for checks in by_slot:
            level = [p + (s,) for p in level for s in scalars]
            for i, j, f in checks:
                level = [x for x in level if x[j] == (x[i] if f is None else f[x[i]])]
        yield from level

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


class BlockRing(ProductSpace):
    """R = direct sum of E_e over identities e, one field block at a time."""

    def __init__(self, field: FieldSpec, blocks, owner):
        super().__init__(field, blocks)
        self.blocks = self.slots
        self.owner = dict(owner)

    def ideal(self, e) -> tuple:
        """The unital ideal E_e, as its block support."""
        sup = tuple(b for b in self.blocks if self.owner[b] == e)
        if not sup:
            raise InvalidInput(f"no blocks owned by {e!r}")
        return sup

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
                raise InvalidInput(f"unknown block {b!r} in ideal of {e!r}")
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


def fixed_elements(space: ProductSpace, tables) -> set:
    """Oracle: every element of the space that satisfies every move of
    every table, found by an exhaustive pruned search of the whole space
    (at most BRUTE_FORCE_BOUND elements; `ProductSpace.all_elements`).

    A move (i, j, q) asks x[j] = x[i]^q.  The tables are compiled maps, so
    an element passes exactly when each map carries it, restricted to the
    map's source, onto its own restriction to the map's target.
    """
    return set(space.all_elements([move for table in tables for move in table]))


def is_faithful_ideal(K, E) -> tuple[bool, tuple | None]:
    """No nonzero element of K annihilates the ideal; witness otherwise.

    K is a subalgebra of R (typically the invariants), and the witness is
    the first annihilator in K's enumeration, where sum c_i b_i over
    K.basis is number sum c_i p^i.  Take the b_j 1_E in basis order until
    one is a combination sum c_i b_i 1_E of the earlier ones; then
    x = b_j - sum c_i b_i annihilates E.  No nonzero annihilator has top
    index below j, as the earlier b_i 1_E are independent.  So x is the
    only one with top index j and top coefficient 1 (the difference of two
    would be one), and every other has a larger top index or coefficient,
    so a larger number.  If there is no such j, x -> x 1_E is injective on
    K and E is faithful.
    """
    space = K.space
    unit = space.unit(E)
    span = FpSpan(space.field.p)
    for b in K.basis:
        v = space.flat(space.mul(b, unit))
        coords = span.coords(v)
        if coords is not None:
            return False, space.add(b, space.int_combine([-c for c in coords], K.basis))
        span.insert(v)
    return True, None


def ideal_fp_basis(R: BlockRing, support) -> list:
    """Prime-field basis of a unital ideal: every power-basis scalar in
    every supported block."""
    out = []
    for b in support:
        for s in fp_basis_scalars(R.field):
            out.append(R.embed({b: s}))
    return out


def equalising_block(R, support, xs, ys):
    """The unit 1_b of the first block b of the support with
    x 1_b = y 1_b for every pair of the two lists, or None.

    This decides whether some nonzero idempotent of the ideal equalises
    the lists.  Those idempotents are the units 1_S of the nonempty block
    subsets S, and x 1_S = y 1_S gives x 1_b = y 1_b for each b in S after
    multiplying by 1_b.  So some 1_S equalises exactly when a single block
    does, and the first such block is the first equalising idempotent in
    the order by size, then position."""
    for b in support:
        i = R.slot_index(b)
        if all(x[i] == y[i] for x, y in zip(xs, ys)):
            return R.unit([b])
    return None


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
