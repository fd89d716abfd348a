"""The geometric points Ω of the ring, and the subalgebras between the
base algebra K and R as partitions of Ω.

R is a product of copies of F = F_{p^k}, one per block, and every ring
map R -> F is x -> x_b^(p^s) for one block b and one s in Z/k.  These are
the points Ω = blocks x Z/k, and x reads x(b, s) = x_b^(p^s).  Frobenius
F(b, s) = (b, s + 1) gives x(F w) = x(w)^p.  With g . (b, s) =
(sigma_g b, s - t_g(b)), t_g the Frobenius exponent of g at b, the
transport reads (beta_g x)(g . w) = x(w) for every point w over d(g).

Grothendieck's Galois theory for a product of finite fields (SGA 1,
expose V; Borceux and Janelidze, Galois Theories, ch. 2; Lenstra, Galois
theory for schemes, section 3): the F_p-subalgebras T of R are the
Frobenius-stable partitions of Ω, T being the x constant on each part.
T contains K, the x constant on each G-orbit of Ω, exactly when every
part lies in one G-orbit.  This module holds the points, their G-orbits,
T from a partition and back (signature_partition), and the pruned search
of the partitions whose T is beta-strong (Omega.strong_partitions).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import SizeBoundExceeded

# The most search nodes Omega.strong_partitions visits before it refuses;
# P_4 x C_4 over F_2 takes 20 967.
MAX_SEARCH_NODES = 50_000


class Partition(NamedTuple):
    """A Frobenius-stable partition of Ω.  Its parts fall into Frobenius
    cycles C, F C, ..., F^(l-1) C with F^l C = C; lengths[c] is the length
    l of cycle c, l | k.  place[b] = (c, i) puts (b, 0) in F^i C_c, so
    (b, s) lies in F^((i + s) mod l) C_c.  Cycles are numbered in the order
    of their first block, and the first block of each has i = 0, so every
    partition has exactly one such form."""

    place: tuple
    lengths: tuple


def subalgebra_basis(space, part: Partition) -> list:
    """An F_p-basis of T, the x constant on each part: for each cycle c of
    length l and each a in an F_p-basis of F_{p^l}, the x with
    x_b = a^(p^i) at the blocks b with place[b] = (c, i), and 0 elsewhere.

    x is constant on a part exactly when its value a on C_c determines
    the rest: x(F^i C) = a^(p^i), and F^l C = C asks a^(p^l) = a, that is
    a in F_{p^l}.  So T is the sum over cycles of copies of F_{p^l}, and
    the vectors above are a basis of it."""
    F = space.field
    basis = []
    for c, length in enumerate(part.lengths):
        for a in F.subfield_basis(length):
            basis.append(tuple(F.frobenius_table(F.p**i)[a] if cycle == c else F.zero
                               for cycle, i in part.place))
    return basis


def signature_partition(space, basis) -> Partition:
    """The partition of Ω that the subalgebra with this F_p-basis is
    constant on: the inverse of subalgebra_basis.

    w -> x(w) is F_p-linear for each point w, so two points agree on
    every x of the span exactly when they agree on the basis.  With v_b
    the tuple of basis values at block b, (b, s) and (c, s') lie in one
    part exactly when v_b^(p^s) = v_c^(p^s'), powers taken entrywise.  So
    the Frobenius cycle of (b, 0)'s part is the set of blocks c with v_c
    in the Frobenius orbit of v_b, the signature of b; with b0 the first
    block of the cycle, c sits at the i with v_c = v_b0^(p^i), and the
    cycle's length is the least l >= 1 with v_b0^(p^l) = v_b0.

    For a T from subalgebra_basis this gives back the partition: T
    separates two points of different cycles (the x that is 1 on one cycle
    and 0 elsewhere), and two points F^i C and F^j C of one cycle, i != j
    mod l (a generator of F_{p^l}, as its conjugates are distinct)."""
    F = space.field
    frobs = [F.frobenius_table(F.p**s) for s in range(F.k)]
    cycle_of: dict = {}
    firsts, lengths, place = [], [], []
    for b in range(len(space.slots)):
        v = tuple(x[b] for x in basis)
        orbit = [tuple(f[y] for y in v) for f in frobs]
        c = cycle_of.setdefault(frozenset(orbit), len(firsts))
        if c == len(firsts):
            firsts.append(orbit)
            lengths.append(next(n for n in range(1, F.k + 1) if orbit[n % F.k] == v))
        place.append((c, firsts[c].index(v)))
    return Partition(tuple(place), tuple(lengths))


class Omega:
    """The points of A.ring, their G-orbits, and the search for the
    partitions whose T is beta-strong.

    orbit[b][s] names the G-orbit of (b, s).  The orbits are the classes
    of the equivalence generated by w ~ g . w; identities act trivially.
    """

    def __init__(self, A):
        G, R = A.groupoid, A.ring
        k = self.k = R.field.k
        n = len(R.blocks)
        root = list(range(n * k))

        def find(w):
            while root[w] != w:
                root[w] = root[root[w]]
                w = root[w]
            return w

        identities = set(G.identities)
        # the pairs (u, b, sigma_u b, t_u(b)) decided once block j is placed,
        # j the later of b and sigma_u b in file order
        self._decided_at: list = [[] for _ in range(n)]
        for u in G.elements:
            if u in identities:
                continue
            for blk in A.source_ideal(u):
                b, c, t = R.slot_index(blk), R.slot_index(A.sigma[u][blk]), A.frob[u][blk]
                for s in range(k):
                    root[find(b * k + s)] = find(c * k + (s - t) % k)
                self._decided_at[max(b, c)].append((u, b, c, t))
        self.orbit = [[find(b * k + s) for s in range(k)] for b in range(n)]

    def _options(self, b, firsts, lengths) -> list:
        """The parts that (b, 0) may take, as (cycle, i, length of a new
        cycle or None): every part of an open cycle in the G-orbit of
        (b, 0), then a new cycle of each length l | k with (b, 0) and
        (b, l) in one G-orbit."""
        orbit, k = self.orbit, self.k
        joins = [(c, i, None) for c, length in enumerate(lengths) for i in range(length)
                 if orbit[firsts[c]][i] == orbit[b][0]]
        opens = [(len(lengths), 0, length) for length in range(1, k + 1)
                 if k % length == 0 and orbit[b][length % k] == orbit[b][0]]
        return joins + opens

    def strong_partitions(self):
        """Every partition of Ω into parts each inside one G-orbit whose T
        meets the beta-strong criterion, each once; SizeBoundExceeded
        after MAX_SEARCH_NODES placements.

        The criterion.  Let T come from a partition P.  T separates the
        parts (signature_partition), so beta_g t and beta_h t agree at a
        block c of r(g) = r(h) for every t in T exactly when g^-1 . (c, 0)
        and h^-1 . (c, 0) share a part, that is u . w ~ w with u = g^-1 h
        and w = h^-1 . (c, 0).  And u lies in the stabilizer of T exactly
        when u . w ~ w for every point w over d(u).  is_beta_strong fails
        on (g, h) exactly when u is outside the stabilizer and some block c
        has all of T equalised; so T is beta-strong exactly when every u
        keeps every point over d(u) in its part or moves every one of them
        out of it.  Every u is some g^-1 h (g = 1_{r u}, h = u); u and
        u^-1 pass or fail together; and the points (b, 0) suffice: u
        commutes with F and F maps parts to parts, so u . F^s w ~ F^s w
        exactly when u . w ~ w.  The argument holds for every k.

        The search places the blocks in file order.  (b, 0) joins a part
        of an open cycle in its own G-orbit, and (b, s) goes to F^s of that
        part; or b opens a new cycle of length l | k at i = 0, allowed
        when (b, 0) and (b, l) share a G-orbit.  Then every (b, s) and
        (b, s + l) share one too, since F maps G-orbits to G-orbits, and a
        part joined in (b, 0)'s orbit holds (b, l) as well, as F^l maps
        the part to itself and so its orbit to itself.
        - Every leaf is a partition into Frobenius cycles with each part
          in one G-orbit, placing every point once.
        - Each partition P is reached, and once: the part of (b, 0) in P
          either belongs to a cycle holding an earlier block, and then b
          joins that part, or it does not, and then b opens its cycle with
          P's length, as P's own parts allow.  No other option at b leads
          to P, so distinct paths give distinct partitions.
        - Pruning is sound: the relation between two placed points never
          changes as later blocks are placed.  The pair (u, (b, 0)) is
          decided once b and sigma_u b are both placed, and a partial
          partition is dropped when some u has kept one decided point and
          moved another: every completion keeps both.  At a leaf every
          pair is decided, so the leaves kept are exactly the partitions
          that meet the criterion.
        The criterion only prunes: a caller still decides separability
        and beta-strength of each T independently.
        """
        n = len(self.orbit)
        place: list = [None] * n
        firsts: list = []
        lengths: list = []
        keeps: dict = {}  # u -> whether u keeps its decided points in their parts
        stack = [iter(self._options(0, firsts, lengths))]
        applied: list = []  # per level: (opened a cycle, the u first decided)
        nodes = 0
        while stack:
            b = len(stack) - 1
            if len(applied) > b:  # take back the last option tried at b
                opened, decided = applied.pop()
                if opened:
                    firsts.pop()
                    lengths.pop()
                for u in decided:
                    del keeps[u]
            option = next(stack[-1], None)
            if option is None:
                stack.pop()
                continue
            nodes += 1
            if nodes > MAX_SEARCH_NODES:
                raise SizeBoundExceeded(
                    f"partition search passed {MAX_SEARCH_NODES} nodes")
            c, i, new = option
            if new is not None:
                firsts.append(b)
                lengths.append(new)
            place[b] = (c, i)
            decided, ok = [], True
            for u, x, y, t in self._decided_at[b]:
                (cx, ix), (cy, iy) = place[x], place[y]
                kept = cx == cy and (iy - t - ix) % lengths[cx] == 0
                was = keeps.get(u)
                if was is None:
                    keeps[u] = kept
                    decided.append(u)
                elif was != kept:
                    ok = False
                    break
            applied.append((new is not None, decided))
            if not ok:
                continue
            if b + 1 == n:
                yield Partition(tuple(place), tuple(lengths))
            else:
                stack.append(iter(self._options(b + 1, firsts, lengths)))
