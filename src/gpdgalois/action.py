"""Groupoid actions on block rings: invariants, trace, Galois coordinates,
and the skew groupoid ring.

An action is a block bijection sigma_g plus a per-block Frobenius exponent
for every g; these are exactly the base-field algebra isomorphisms between
unital ideals of a product of field blocks that respect the decomposition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .blockring import BlockRing, IdealRef, ideal_fp_basis
from .errors import (
    CompositionFailure,
    ExponentOutOfRange,
    IdentityNotTrivial,
    InvalidInput,
    NotBijective,
    NotSubgroupoid,
    OracleMismatch,
    SizeBoundExceeded,
    SupportMismatch,
    SupportViolation,
)
from .groupoid import Groupoid, SubgroupoidSpec, make_subgroupoid
from .scalar import FpSpan, fp_basis_scalars

BRUTE_FORCE_BOUND = 1 << 16


def span_elements(space, basis) -> tuple:
    """The full prime-field span, little-endian: the coefficient of the
    first basis vector varies fastest, so basis[0] is element number 1."""
    p = space.field.p
    out = []
    for idx in range(p ** len(basis)):
        coeffs, m = [], idx
        for _ in basis:
            coeffs.append(m % p)
            m //= p
        out.append(space.int_combine(coeffs, basis))
    return tuple(out)


class Submodule:
    """An F_p-subspace of a product space with explicit elements, an
    echelonized basis, and coordinate solving."""

    def __init__(self, space, basis, max_elements: int = BRUTE_FORCE_BOUND):
        self.space = space
        self._span = FpSpan(space.field.p)
        kept = []
        for b in basis:
            if self._span.insert(space.flat(b)):
                kept.append(b)
        self.basis = tuple(kept)
        if space.field.p ** len(kept) > max_elements:
            raise SizeBoundExceeded(
                f"submodule would have {space.field.p ** len(kept)} elements"
            )
        self.elements = span_elements(space, self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x) -> bool:
        return self._span.contains(self.space.flat(x))

    def coords(self, x) -> tuple[int, ...]:
        got = self._span.coords(self.space.flat(x))
        if got is None:
            raise SupportViolation("element outside the submodule")
        return got

    def combine(self, coeffs) -> tuple:
        return self.space.int_combine(coeffs, self.basis)


class Subalgebra(Submodule):
    """A unital subring of a product space, closed under multiplication.

    Closure under the action of a base subalgebra K is a separate, optional
    check (`assert_k_closed`), since K is usually computed later.
    """

    def __init__(self, space, basis, max_elements: int = BRUTE_FORCE_BOUND):
        super().__init__(space, basis, max_elements)
        if not self.contains(space.one()):
            raise SupportViolation("subalgebra does not contain the identity")
        for a, b in itertools.combinations_with_replacement(self.basis, 2):
            if not self.contains(space.mul(a, b)):
                raise SupportViolation("subalgebra not closed under multiplication")

    def assert_k_closed(self, K: "Subalgebra"):
        for c in K.basis:
            for b in self.basis:
                if not self.contains(self.space.k_scale(c, b)):
                    raise SupportViolation(
                        "not closed under base multiplication", witness=(c, b)
                    )

    def key(self) -> tuple:
        """Canonical identity of the underlying element set."""
        return tuple(sorted(self.space.flat(x) for x in self.elements))


def subalgebra_closure(space, gens, include=()) -> Subalgebra:
    """Smallest unital subalgebra containing the generators (and the
    optional seed elements, typically a base-algebra basis)."""
    span = FpSpan(space.field.p)
    basis = []
    for x in itertools.chain([space.one()], include, gens):
        if span.insert(space.flat(x)):
            basis.append(x)
    while True:
        new = []
        for a, b in itertools.combinations_with_replacement(basis, 2):
            prod = space.mul(a, b)
            if span.insert(space.flat(prod)):
                new.append(prod)
        if not new:
            break
        basis.extend(new)
    return Subalgebra(space, basis)


class AlgebraAction:
    """A groupoid action beta on a block ring; build through
    :func:`validate_action` (direct construction skips all checks).

    Each beta_g is compiled once into its moves (source slot, target slot,
    p^t): coordinate b of x goes to slot sigma_g(b) raised to p^t, t the
    Frobenius exponent of b.
    """

    def __init__(self, groupoid: Groupoid, ring: BlockRing, sigma, frob):
        self.groupoid = groupoid
        self.ring = ring
        self.sigma = {g: dict(m) for g, m in sigma.items()}
        self.frob = {g: dict(m) for g, m in frob.items()}
        ideals = {e: ring.ideal(e) for e in groupoid.identities}
        self._source = {g: ideals[groupoid.d[g]] for g in groupoid.elements}
        self.support = {g: ideals[groupoid.r[g]] for g in groupoid.elements}
        p = ring.field.p
        self._moves = {
            g: tuple(
                (ring.slot_index(b), ring.slot_index(self.sigma[g][b]),
                 p ** self.frob[g][b])
                for b in src
            )
            for g, src in self._source.items()
        }
        self._source_slots = {
            g: frozenset(i for i, _, _ in moves) for g, moves in self._moves.items()
        }
        self._base: Subalgebra | None = None
        self._coords = None
        self._coords_known = False

    def source_ideal(self, g) -> IdealRef:
        return self._source[g]

    def apply(self, g, x, truncate: bool = False) -> tuple:
        """Transport x along beta_g; x must live in E_{g^{-1}} unless
        truncate multiplies it into that ideal first."""
        R = self.ring
        moves = self._moves[g]
        if truncate:
            R._check(x)
        else:
            src = self._source_slots[g]
            outside = tuple(
                s
                for i, (s, v) in enumerate(zip(R.slots, x))
                if v != R.field.zero and i not in src
            )
            if outside:
                raise SupportViolation(
                    f"element not supported in the source ideal of {g!r}",
                    witness=outside,
                )
        out = [R.field.zero] * len(R.blocks)
        for i, j, q in moves:
            out[j] = x[i] if q == 1 else R.field.power(x[i], q)
        return tuple(out)

    def base_subalgebra(self) -> Subalgebra:
        """The invariants under the whole groupoid (the base algebra K)."""
        if self._base is None:
            self._base = invariants(self, None)
        return self._base

    def galois_coordinates(self):
        if not self._coords_known:
            self._coords = find_galois_coordinates(self)
            self._coords_known = True
        return self._coords

    def is_galois(self) -> bool:
        return self.galois_coordinates() is not None


def _complete_maps(G: Groupoid, R: BlockRing, sigma, frob) -> tuple[dict, dict]:
    """Check each sigma_g and its twists on their own and fill in the
    identity components; returns the full sigma and frob tables."""
    idset = set(G.identities)
    for e in idset:
        if not any(owner == e for owner in R.owner.values()):
            raise SupportMismatch(f"identity {e!r} owns no blocks")
    for b, e in R.owner.items():
        if e not in idset:
            raise InvalidInput(f"block {b!r} owned by non-identity {e!r}")
    blocks_of = {e: R.ideal(e).support for e in idset}

    full_sigma, full_frob = {}, {}
    for g in G.elements:
        src, tgt = blocks_of[G.d[g]], blocks_of[G.r[g]]
        if g in idset and g not in sigma:
            full_sigma[g] = {b: b for b in src}
            full_frob[g] = {b: 0 for b in src}
            continue
        if g not in sigma:
            raise InvalidInput(f"missing sigma for {g!r}")
        m = dict(sigma[g])
        if set(m) != set(src):
            raise SupportMismatch(
                f"sigma[{g!r}] defined on {sorted(map(str, m))}, expected blocks of {G.d[g]!r}"
            )
        if set(m.values()) - set(tgt):
            raise SupportMismatch(f"sigma[{g!r}] maps outside the blocks of {G.r[g]!r}")
        if len(set(m.values())) != len(m) or set(m.values()) != set(tgt):
            raise NotBijective(f"sigma[{g!r}] is not a bijection onto {G.r[g]!r}")
        tw = {b: 0 for b in src}
        for b, t in dict(frob.get(g, {})).items():
            if b not in tw:
                raise SupportMismatch(f"frob[{g!r}] twists unknown block {b!r}")
            if not 0 <= t < R.field.k:
                raise ExponentOutOfRange(
                    f"frob[{g!r}][{b!r}]={t} outside [0, {R.field.k})"
                )
            tw[b] = t
        if g in idset:
            if any(m[b] != b for b in src) or any(tw[b] for b in src):
                raise IdentityNotTrivial(f"beta[{g!r}] must be the identity map")
        full_sigma[g] = m
        full_frob[g] = tw
    return full_sigma, full_frob


def validate_action(G: Groupoid, R: BlockRing, sigma, frob=None) -> AlgebraAction:
    """Check the action axioms exactly and return the action.

    sigma and frob are given per non-identity element; identity components
    are filled in as the identity map with no twist.

    beta_g o beta_h = beta_gh is checked on the block maps: for every
    composable (g, h) and every block b of d(h), sigma_g(sigma_h b) =
    sigma_gh(b) and t_h(b) + t_g(sigma_h b) = t_gh(b) mod k.  This decides
    the identity exactly.  Every beta is F_p-linear, so equality on the
    F_p-basis {s e_b}, s running over a basis of F_{p^k}, is equality of
    the maps.  On that basis the two sides are s^(p^a) e_{sigma_g sigma_h b}
    and s^(p^c) e_{sigma_gh b} with a = t_h(b) + t_g(sigma_h b) and
    c = t_gh(b); s != 0, so they agree for every s exactly when the blocks
    agree and x -> x^(p^(a-c)) fixes a basis of F_{p^k}, that is, is the
    identity.  The Frobenius has order exactly k, so that happens exactly
    when a = c mod k.  A failing pair is reported with the first F_p-basis
    vector of E_{d(h)} on which the two sides differ.
    """
    full_sigma, full_frob = _complete_maps(G, R, sigma, frob or {})
    action = AlgebraAction(G, R, full_sigma, full_frob)
    k = R.field.k
    for g, h in G.composable:
        gh = G.product[(g, h)]
        sg, sh, sgh = full_sigma[g], full_sigma[h], full_sigma[gh]
        tg, th, tgh = full_frob[g], full_frob[h], full_frob[gh]
        for b in action.source_ideal(h):
            c = sh[b]
            if sg[c] == sgh[b] and (th[b] + tg[c] - tgh[b]) % k == 0:
                continue
            x = next(
                x
                for x in ideal_fp_basis(R, [b])
                if action.apply(g, action.apply(h, x)) != action.apply(gh, x)
            )
            raise CompositionFailure(
                f"beta[{g!r}] o beta[{h!r}] != beta[{gh!r}]",
                witness=(g, h, R.format(x)),
            )
    return action


def apply_beta(A: AlgebraAction, g, x, truncate: bool = False) -> tuple:
    """Blockwise transport with Frobenius twist (see AlgebraAction.apply)."""
    return A.apply(g, x, truncate)


def twisted_invariant_basis(field, nodes, edges) -> list[dict]:
    """Solve x_b = frob^t(x_a) along all edges (a, b, t).

    Returns a prime-field basis of the solution space as node -> scalar
    dictionaries: one generator per connected component and subfield basis
    element, where the subfield is cut out by the component's cycle twists.
    """
    nodes = list(nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    adj: dict = {n: [] for n in nodes}
    for a, b, t in edges:
        t %= field.k
        adj[a].append((b, t))
        adj[b].append((a, (-t) % field.k))
    seen: dict = {}
    basis = []
    for root in nodes:
        if root in seen:
            continue
        comp, w = [root], {root: 0}
        seen[root] = True
        queue = [root]
        while queue:
            a = queue.pop(0)
            for b, t in adj[a]:
                if b not in w:
                    w[b] = (w[a] + t) % field.k
                    seen[b] = True
                    comp.append(b)
                    queue.append(b)
        twist_gcd = field.k
        for a, b, t in edges:
            if a in w:
                twist_gcd = math.gcd(twist_gcd, (w[a] + t - w[b]) % field.k)
        sub_deg = twist_gcd if twist_gcd else field.k
        sub_basis = []
        span = FpSpan(field.p)
        for x in field.elements():
            if field.power(x, field.p**sub_deg) == x and span.insert(x):
                sub_basis.append(x)
        if len(sub_basis) != sub_deg:
            raise OracleMismatch("subfield dimension mismatch")
        comp.sort(key=lambda n: idx[n])
        for s in sub_basis:
            basis.append(
                {n: field.power(s, field.p ** (w[n] % field.k)) for n in comp}
            )
    return basis


def invariants(A: AlgebraAction, H=None) -> Subalgebra:
    """The invariant subalgebra under (a subgroupoid of) the action.

    Computed structurally from the block orbits and their accumulated
    Frobenius twists, then cross-checked against brute-force filtering of
    every ring element whenever the ring is small enough.
    """
    G, R = A.groupoid, A.ring
    if H is None:
        labels = G.elements
    elif isinstance(H, SubgroupoidSpec):
        labels = H.labels
    else:
        labels = make_subgroupoid(G, tuple(H)).labels
    cert_sub = make_subgroupoid(G, labels)  # raises NotSubgroupoid on junk
    labels = cert_sub.labels

    edges = []
    for h in labels:
        for b in A.source_ideal(h).support:
            edges.append((b, A.sigma[h][b], A.frob[h][b]))
    vec_basis = twisted_invariant_basis(R.field, R.blocks, edges)
    basis = [
        R.element({b: v for b, v in vec.items()}) for vec in vec_basis
    ]
    result = Subalgebra(R, basis)

    if R.field.order ** len(R.blocks) <= BRUTE_FORCE_BOUND:
        brute = set()
        units = {h: R.unit(A.source_ideal(h).support) for h in labels}
        tunits = {h: R.unit(A.support[h].support) for h in labels}
        for x in R.all_elements():
            if all(
                A.apply(h, R.mul(x, units[h])) == R.mul(x, tunits[h])
                for h in labels
            ):
                brute.add(x)
        if brute != set(result.elements):
            raise OracleMismatch("structural invariants disagree with brute force")
    return result


def trace(A: AlgebraAction, x) -> tuple:
    """Sum of beta_g(x 1_{g^{-1}}) over all g; lands in the base algebra
    whenever the action admits Galois coordinates."""
    R = A.ring
    out = R.zero()
    for g in A.groupoid.elements:
        out = R.add(out, A.apply(g, x, truncate=True))
    return out


@dataclass(frozen=True)
class GaloisCoordinates:
    """Pairs (x_i, y_i) with sum x_i beta_g(y_i 1_{g^{-1}}) equal to
    1_{r(g)} on identities and 0 elsewhere."""

    pairs: tuple
    strategy: str


def check_galois_coordinates(A: AlgebraAction, pairs) -> tuple[bool, tuple | None]:
    """Verify the defining identity of Galois coordinates for every g."""
    R, G = A.ring, A.groupoid
    idset = set(G.identities)
    for g in G.elements:
        total = R.zero()
        for x, y in pairs:
            total = R.add(total, R.mul(x, A.apply(g, y, truncate=True)))
        expected = R.unit(A.support[g].support) if g in idset else R.zero()
        if total != expected:
            return False, (g, total)
    return True, None


def find_galois_coordinates(A: AlgebraAction) -> GaloisCoordinates | None:
    """Two-stage search.

    Stage one tries the block idempotents x_i = y_i = v_i, which works
    exactly when no sigma_g fixes a block for g outside the identities.
    Stage two fixes the y side to the prime-field block basis of R, which
    generates R over the invariants, and solves the resulting linear system
    for the x side.  Any coordinate system can be rewritten over a
    generating set because each beta_g is linear over the invariants, so an
    inconsistent system proves absence.
    """
    from .scalar import LinearSystem, solve_linear

    R, G = A.ring, A.groupoid
    pairs = tuple((R.unit([b]), R.unit([b])) for b in R.blocks)
    ok, _ = check_galois_coordinates(A, pairs)
    if ok:
        return GaloisCoordinates(pairs, "block-idempotents")

    F = R.field
    ybasis = ideal_fp_basis(R, R.blocks)
    nvars = len(ybasis)
    nslots = len(R.blocks)
    idset = set(G.identities)
    matrix, rhs = [], []
    for g in G.elements:
        transported = [A.apply(g, y, truncate=True) for y in ybasis]
        target = R.unit(A.support[g].support) if g in idset else R.zero()
        for s in range(nslots):
            row = [F.zero] * (nvars * nslots)
            for j in range(nvars):
                row[j * nslots + s] = transported[j][s]
            matrix.append(row)
            rhs.append(target[s])
    sol = solve_linear(F, LinearSystem(matrix, rhs))
    if sol.solution is None:
        return None
    xs = [tuple(sol.solution[j * nslots : (j + 1) * nslots]) for j in range(nvars)]
    pairs = tuple(zip(xs, ybasis))
    ok, witness = check_galois_coordinates(A, pairs)
    if not ok:
        raise OracleMismatch(f"solved coordinates failed verification at {witness}")
    return GaloisCoordinates(pairs, "linear-solve")


def stabilizer(T, A: AlgebraAction) -> SubgroupoidSpec:
    """All g acting trivially on T: beta_g(t 1_{g^{-1}}) = t 1_g for every
    t (the basis suffices by linearity).  Always a wide subgroupoid, which
    is verified rather than assumed."""
    from .groupoid import is_wide_subgroupoid

    G, R = A.groupoid, A.ring
    labels = []
    for g in G.elements:
        tgt = R.unit(A.support[g].support)
        if all(A.apply(g, t, truncate=True) == R.mul(t, tgt) for t in T.basis):
            labels.append(g)
    wide, cert = is_wide_subgroupoid(G, labels)
    if not wide:
        raise OracleMismatch(f"stabilizer is not a wide subgroupoid: {cert}")
    return make_subgroupoid(G, labels)


# Skew groupoid ring ---------------------------------------------------

def skew_element(A: AlgebraAction, terms: dict) -> dict:
    """Normalize a delta-expansion; each coefficient must lie in E_g."""
    R = A.ring
    out = {}
    for g, x in terms.items():
        sup = set(A.support[g].support)
        if any(s not in sup for s in R.support_of(x)):
            raise SupportViolation(f"coefficient of delta_{g!r} outside E_{g!r}")
        if x != R.zero():
            out[g] = x
    return out


def skew_add(A: AlgebraAction, u: dict, w: dict) -> dict:
    R = A.ring
    out = dict(u)
    for g, x in w.items():
        out[g] = R.add(out.get(g, R.zero()), x)
    return {g: x for g, x in out.items() if x != R.zero()}


def skew_mul(A: AlgebraAction, u: dict, w: dict) -> dict:
    """Bilinear extension of (x delta_g)(y delta_h) = x beta_g(y) delta_{gh},
    zero on non-composable pairs."""
    R, G = A.ring, A.groupoid
    out: dict = {}
    for g, x in u.items():
        for h, y in w.items():
            gh = G.product.get((g, h))
            if gh is None:
                continue
            contrib = R.mul(x, A.apply(g, y, truncate=True))
            out[gh] = R.add(out.get(gh, R.zero()), contrib)
    return {g: x for g, x in out.items() if x != R.zero()}


def skew_identity(A: AlgebraAction) -> dict:
    return {e: A.ring.unit(A.support[e].support) for e in A.groupoid.identities}


@dataclass
class SkewReport:
    ok: bool
    associative: bool
    unital: bool
    witness: tuple | None = None


def verify_skew_ring(A: AlgebraAction) -> SkewReport:
    """Associativity on every monomial triple (block basis times delta_g)
    and the two-sided unit law for the identity-indicator sum."""
    R, G = A.ring, A.groupoid
    monomials = []
    for g in G.elements:
        for b in A.support[g].support:
            for s in fp_basis_scalars(R.field):
                monomials.append({g: R.element({b: s})})
    for u, v, w in itertools.product(monomials, repeat=3):
        lhs = skew_mul(A, skew_mul(A, u, v), w)
        rhs = skew_mul(A, u, skew_mul(A, v, w))
        if lhs != rhs:
            return SkewReport(False, False, True, witness=(u, v, w))
    one = skew_identity(A)
    for u in monomials:
        if skew_mul(A, one, u) != u or skew_mul(A, u, one) != u:
            return SkewReport(False, True, False, witness=(u,))
    return SkewReport(True, True, True)


@dataclass
class ModuleInvariantsReport:
    map_side_equal: bool
    ring_side_equal: bool

    @property
    def ok(self) -> bool:
        return self.map_side_equal and self.ring_side_equal


def module_invariants_check(A: AlgebraAction, X) -> ModuleInvariantsReport:
    """The module invariants of Map(X, R) under the delta-action coincide
    with the invariant function algebra, and the ring invariants under the
    delta-action coincide with the base algebra.  Fully enumerated."""
    from . import mapalg

    R, G = A.ring, A.groupoid
    M = mapalg.function_algebra(X, A)
    space = M.space
    invariant_fns = set(mapalg.invariant_algebra(X, A).elements)
    delta_invariant = set()
    for f in space.all_elements():
        ok = True
        for g in G.elements:
            lhs = M.alpha(g, f)
            rhs = space.k_scale(R.unit(A.support[g].support), f)
            if lhs != rhs:
                ok = False
                break
        if ok:
            delta_invariant.add(f)
    map_side = delta_invariant == invariant_fns

    base = set(A.base_subalgebra().elements)
    ring_invariant = set()
    for x in R.all_elements():
        if all(
            A.apply(g, x, truncate=True) == R.mul(x, R.unit(A.support[g].support))
            for g in G.elements
        ):
            ring_invariant.add(x)
    return ModuleInvariantsReport(map_side, ring_invariant == base)
