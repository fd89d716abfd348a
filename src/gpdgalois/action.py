"""Groupoid actions on block rings: invariants, trace, Galois coordinates,
and the skew groupoid ring.

An action is a block bijection sigma_g plus a per-block Frobenius exponent
for every g; these are exactly the base-field algebra isomorphisms between
unital ideals of a product of field blocks that respect the decomposition.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .blockring import BRUTE_FORCE_BOUND, BlockRing, fixed_elements, ideal_fp_basis
from .errors import InvalidInput, OracleMismatch, SizeBoundExceeded, ValidationError
from .groupoid import Groupoid, is_wide_subgroupoid, make_subgroupoid
from .scalar import FpSpan, fp_basis_scalars, solve_linear


def span_elements(space, basis) -> tuple:
    """The full prime-field span, little-endian: the coefficient of the
    first basis vector varies fastest, so basis[0] is element number 1.

    Element number sum c_i p^i is sum c_i b_i.  The span of the first i+1
    vectors lists the span of the first i, then that list plus c b_i for
    c = 1, ..., p-1, so each element costs one addition."""
    out = [space.zero()]
    for b in basis:
        multiples = [space.int_combine([c], [b]) for c in range(1, space.field.p)]
        out.extend([space.add(x, m) for m in multiples for x in out])
    return tuple(out)


class Submodule:
    """An F_p-subspace of a product space with an echelonized basis and
    coordinate solving.  It is identified by its reduced row echelon
    basis; its elements are listed only when something reads them."""

    def __init__(self, space, basis):
        self.space = space
        self._span = FpSpan(space.field.p)
        self.basis = tuple(b for b in basis if self._span.insert(space.flat(b)))

    @functools.cached_property
    def elements(self) -> tuple:
        """Every element, in the little-endian order of span_elements; a
        subspace of more than BRUTE_FORCE_BOUND elements refuses."""
        if self.size > BRUTE_FORCE_BOUND:
            raise SizeBoundExceeded(f"submodule has {self.size} elements")
        return span_elements(self.space, self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        """The number of elements, p^dim."""
        return self.space.field.p ** self.dim

    def key(self) -> tuple:
        """Canonical identity: the reduced row echelon basis of the span.
        Two subspaces of one space are equal exactly when their keys are."""
        return self._span.rref()

    def contains(self, x) -> bool:
        return self._span.contains(self.space.flat(x))

    def coords(self, x) -> tuple[int, ...]:
        got = self._span.coords(self.space.flat(x))
        if got is None:
            raise ValidationError("element outside the submodule")
        return got


class Subalgebra(Submodule):
    """A unital subring of a product space, closed under multiplication."""

    def __init__(self, space, basis):
        super().__init__(space, basis)
        if not self.contains(space.one()):
            raise ValidationError("subalgebra does not contain the identity")
        for a, b in itertools.combinations_with_replacement(self.basis, 2):
            if not self.contains(space.mul(a, b)):
                raise ValidationError("subalgebra not closed under multiplication")


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
    :func:`validate_action` (direct construction skips all checks).  The
    lifted action alpha on Map(X, R) is one too (mapalg.MapAlgebra).

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
        self._base: Subalgebra | None = None

    def source_ideal(self, g) -> tuple:
        return self._source[g]

    def apply(self, g, x) -> tuple:
        """beta_g(x 1_{g^{-1}}): x, with one coordinate per block, is
        multiplied into the source ideal E_{g^{-1}} and transported."""
        R = self.ring
        R._check(x)
        out = [R.field.zero] * len(R.blocks)
        for i, j, q in self._moves[g]:
            out[j] = x[i] if q == 1 else R.field.frobenius_table(q)[x[i]]
        return tuple(out)

    def base_subalgebra(self) -> Subalgebra:
        """The invariants under the whole groupoid (the base algebra K)."""
        if self._base is None:
            self._base = invariants(self, None)
        return self._base


def _complete_maps(G: Groupoid, R: BlockRing, sigma, frob) -> tuple[dict, dict]:
    """Check each sigma_g and its twists on their own and fill in the
    identity components; returns the full sigma and frob tables."""
    idset = set(G.identities)
    for e in idset:
        if not any(owner == e for owner in R.owner.values()):
            raise ValidationError(f"identity {e!r} owns no blocks")
    for b, e in R.owner.items():
        if e not in idset:
            raise InvalidInput(f"block {b!r} owned by non-identity {e!r}")
    blocks_of = {e: R.ideal(e) for e in idset}

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
            raise ValidationError(
                f"sigma[{g!r}] defined on {sorted(map(str, m))}, expected blocks of {G.d[g]!r}"
            )
        if set(m.values()) - set(tgt):
            raise ValidationError(f"sigma[{g!r}] maps outside the blocks of {G.r[g]!r}")
        if len(set(m.values())) != len(m) or set(m.values()) != set(tgt):
            raise ValidationError(f"sigma[{g!r}] is not a bijection onto {G.r[g]!r}")
        tw = {b: 0 for b in src}
        for b, t in dict(frob.get(g, {})).items():
            if b not in tw:
                raise ValidationError(f"frob[{g!r}] twists unknown block {b!r}")
            if not 0 <= t < R.field.k:
                raise InvalidInput(
                    f"frob[{g!r}][{b!r}]={t} outside [0, {R.field.k})"
                )
            tw[b] = t
        if g in idset:
            if any(m[b] != b for b in src) or any(tw[b] for b in src):
                raise ValidationError(f"beta[{g!r}] must be the identity map")
        full_sigma[g] = m
        full_frob[g] = tw
    return full_sigma, full_frob


def validate_action(G: Groupoid, R: BlockRing, sigma, frob=None) -> AlgebraAction:
    """Check the action axioms exactly and return the action.

    sigma and frob are given per non-identity element; identity components
    are filled in as the identity map with no twist.  Each map and twist is
    checked on its own by _complete_maps, and composition by
    check_composition.
    """
    full_sigma, full_frob = _complete_maps(G, R, sigma, frob or {})
    action = AlgebraAction(G, R, full_sigma, full_frob)
    check_composition(action, "beta")
    return action


def check_composition(A: AlgebraAction, name: str) -> None:
    """Raise ValidationError unless A_g o A_h = A_gh for every
    composable (g, h); name is the action's symbol in the message.

    The identity is checked on the block maps: for every composable (g, h)
    and every block b of d(h), sigma_g(sigma_h b) = sigma_gh(b) and
    t_h(b) + t_g(sigma_h b) = t_gh(b) mod k.  This decides it exactly.
    Every A_g is F_p-linear, so equality on the F_p-basis {s e_b}, s
    running over a basis of F_{p^k}, is equality of the maps.  On that
    basis the two sides are s^(p^a) e_{sigma_g sigma_h b} and
    s^(p^c) e_{sigma_gh b} with a = t_h(b) + t_g(sigma_h b) and
    c = t_gh(b); s != 0, so they agree for every s exactly when the blocks
    agree and x -> x^(p^(a-c)) fixes a basis of F_{p^k}, that is, is the
    identity.  The Frobenius has order exactly k, so that happens exactly
    when a = c mod k.  The argument uses only that A moves field blocks
    with Frobenius twists, so it holds for beta on R and for alpha on
    Map(X, R) alike.

    The pairs compared are those with h in the generating set Gamma of
    the groupoid (G.generator_pairs), which decides every composable pair.
    Call h good when A_g o A_h = A_gh for every g with d g = r h.  If a
    and b are good and ab is defined, then for every g with d g = r a,
    A_g A_ab = A_g A_a A_b = A_ga A_b = A_(ga)b = A_g(ab), using b (with
    a), a, b (with ga) and the associativity of G, which validate_groupoid
    has decided.  So every left-normed product of Gamma is good, and these
    are all of G.  When the comparison on Gamma fails, the pairs are
    scanned in G.composable order, and the first failing pair is reported
    with the first F_p-basis vector of E_{d(h)} on which the two sides
    differ.
    """
    G, R = A.groupoid, A.ring
    k = R.field.k

    def failures(pairs):
        for g, h in pairs:
            gh = G.product[(g, h)]
            sg, sh, sgh = A.sigma[g], A.sigma[h], A.sigma[gh]
            tg, th, tgh = A.frob[g], A.frob[h], A.frob[gh]
            for b in A.source_ideal(h):
                c = sh[b]
                if sg[c] != sgh[b] or (th[b] + tg[c] - tgh[b]) % k:
                    yield g, h, b

    if next(failures(G.generator_pairs), None):
        g, h, b = next(failures(G.composable))
        gh = G.product[(g, h)]
        x = next(
            x
            for x in ideal_fp_basis(R, [b])
            if A.apply(g, A.apply(h, x)) != A.apply(gh, x)
        )
        raise ValidationError(
            f"{name}[{g!r}] o {name}[{h!r}] != {name}[{gh!r}]",
            witness=(g, h, R.format(x)),
        )


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
    seen: set = set()
    basis = []
    for root in nodes:
        if root in seen:
            continue
        w, queue = {root: 0}, [root]
        for a in queue:  # breadth first: the list grows as it is read
            for b, t in adj[a]:
                if b not in w:
                    w[b] = (w[a] + t) % field.k
                    queue.append(b)
        seen.update(w)
        sub_deg = field.k  # gcd(k, .) >= 1, so the subfield degree is never 0
        for a, b, t in edges:
            if a in w:
                sub_deg = math.gcd(sub_deg, (w[a] + t - w[b]) % field.k)
        sub_basis = field.subfield_basis(sub_deg)
        if len(sub_basis) != sub_deg:
            raise OracleMismatch("subfield dimension mismatch")
        comp = sorted(w, key=idx.__getitem__)
        basis += [{n: field.frobenius_table(field.p ** w[n])[s] for n in comp}
                  for s in sub_basis]
    return basis


def invariants(A: AlgebraAction, H=None) -> Subalgebra:
    """The invariant subalgebra under (a subgroupoid of) the action.  A is
    any block action: beta on R, or alpha on Map(X, R), whose invariants
    are A(X).

    Computed structurally from the block orbits and their accumulated
    Frobenius twists, then cross-checked against an exhaustive pruned
    search of the ring whenever it has at most BRUTE_FORCE_BOUND elements.
    The oracle compares its fixed set with the span of the structural
    basis before the Subalgebra checks for the unit and for closure run,
    so a wrong basis raises OracleMismatch.

    The search keeps x when beta_h(x 1_{d h}) = x 1_{r h} for every h.  It
    runs on the moves (i, j, q) that `apply` runs on: x[j] = x[i]^q for
    each.  That is the same condition.  Both sides vanish off the blocks of
    r(h), and sigma_h maps the blocks of d(h) onto those of r(h), so the
    moves' targets are exactly the slots where the two sides can differ.
    The oracle thus checks the maps the rest of the package applies, not
    the edge list solved above.
    """
    G, R = A.groupoid, A.ring
    labels = make_subgroupoid(G, G.elements if H is None else H)

    edges = []
    for h in labels:
        for b in A.source_ideal(h):
            edges.append((b, A.sigma[h][b], A.frob[h][b]))
    vec_basis = twisted_invariant_basis(R.field, R.blocks, edges)
    basis = [R.embed(vec) for vec in vec_basis]
    if R.field.order ** len(R.blocks) <= BRUTE_FORCE_BOUND:
        brute = fixed_elements(R, [A._moves[h] for h in labels])
        if brute != set(Submodule(R, basis).elements):
            raise OracleMismatch("structural invariants disagree with brute force")
    return Subalgebra(R, basis)


def trace(A: AlgebraAction, x) -> tuple:
    """Sum of beta_g(x 1_{g^{-1}}) over all g; lands in the base algebra
    whenever the action admits Galois coordinates."""
    R = A.ring
    out = R.zero()
    for g in A.groupoid.elements:
        out = R.add(out, A.apply(g, x))
    return out


def trace_image_is_base(A: AlgebraAction) -> bool:
    """Is the image of the trace exactly the base algebra K?

    The trace is F_p-linear, so its image is the span of the traces of an
    F_p-basis of R.  That span is K exactly when each of those traces lies
    in K and they span a space of dimension dim K."""
    R = A.ring
    K = A.base_subalgebra()
    span = FpSpan(R.field.p)
    for x in ideal_fp_basis(R, R.blocks):
        t = trace(A, x)
        if not K.contains(t):
            return False
        span.insert(R.flat(t))
    return span.dim == K.dim


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
            total = R.add(total, R.mul(x, A.apply(g, y)))
        expected = R.unit(A.support[g]) if g in idset else R.zero()
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

    Row (g, s) of that system, sum_i x_i[s] beta_g(y_i)[s] = 1_g[s] or 0,
    reads only the unknowns x_i[s], so it is solved slot by slot, and the
    pairs are those of one solve of the whole system with unknowns in the
    order (i, s).  There a column is a pivot when it is independent of the
    columns before it.  Columns of other slots are zero on the rows of s,
    so a column of slot s is a combination of earlier columns exactly when
    it is one of the earlier columns of s: the pivots are the union of
    the slots' pivots.  The whole system is consistent exactly when every
    slot's is, and its unique solution with free unknowns zero restricts,
    on each slot, to that slot's unique solution with free unknowns zero.
    """
    R, G = A.ring, A.groupoid
    pairs = tuple((R.unit([b]), R.unit([b])) for b in R.blocks)
    ok, _ = check_galois_coordinates(A, pairs)
    if ok:
        return GaloisCoordinates(pairs, "block-idempotents")

    ybasis = ideal_fp_basis(R, R.blocks)
    idset = set(G.identities)
    images = [[A.apply(g, y) for y in ybasis] for g in G.elements]
    targets = [R.unit(A.support[g]) if g in idset else R.zero() for g in G.elements]
    scalars = fp_basis_scalars(R.field)
    slots = []
    for s in range(len(R.blocks)):
        matrix = [[z[s] for z in zs] for zs in images]
        [solution] = solve_linear(R.field, matrix, [[t[s] for t in targets]], scalars)
        if solution is None:
            return None
        slots.append(solution)
    pairs = tuple(zip(zip(*slots), ybasis))
    ok, witness = check_galois_coordinates(A, pairs)
    if not ok:
        raise OracleMismatch(f"solved coordinates failed verification at {witness}")
    return GaloisCoordinates(pairs, "linear-solve")


def stabilizer(T, A: AlgebraAction) -> tuple:
    """All g acting trivially on T: beta_g(t 1_{g^{-1}}) = t 1_g for every
    t (the basis suffices by linearity).  Always a wide subgroupoid, which
    is verified rather than assumed."""
    G, R = A.groupoid, A.ring
    labels = []
    for g in G.elements:
        tgt = R.unit(A.support[g])
        if all(A.apply(g, t) == R.mul(t, tgt) for t in T.basis):
            labels.append(g)
    wide, cert = is_wide_subgroupoid(G, labels)
    if not wide:
        raise OracleMismatch(f"stabilizer is not a wide subgroupoid: {cert}")
    return make_subgroupoid(G, labels)


# Skew groupoid ring ---------------------------------------------------

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
            contrib = R.mul(x, A.apply(g, y))
            out[gh] = R.add(out.get(gh, R.zero()), contrib)
    return {g: x for g, x in out.items() if x != R.zero()}


def skew_identity(A: AlgebraAction) -> dict:
    return {e: A.ring.unit(A.support[e]) for e in A.groupoid.identities}


@dataclass
class SkewReport:
    ok: bool
    associative: bool
    unital: bool
    witness: tuple | None = None


def verify_skew_ring(A: AlgebraAction) -> SkewReport:
    """Associativity on every monomial triple (block basis times delta_g)
    and the two-sided unit law for the identity-indicator sum.

    The monomials m_k = s e_b delta_g (b a block of E_g, s in the power
    basis of the field) form an F_p-basis of the sum of the E_g delta_g.
    skew_mul is F_p-bilinear: R.mul is bilinear, and apply moves block
    coordinates to other slots and raises them to Frobenius powers
    x -> x^(p^t), which is F_p-linear.  So the associator
    assoc(u, v, w) = (uv)w - u(vw) is trilinear, and with
    u v = sum_k c_uv^k m_k,

        (u v) w = sum_k c_uv^k (m_k w)
        u (v w) = sum_k c_vw^k (u m_k),

    so products expanded over the monomials, each computed once by
    skew_mul, decide a triple exactly.  The expansion is faithful:
    x beta_g(y) is a multiple of x, so it lies in E_g = E_gh.  Where
    u v = 0 and v w = 0, both sides are zero.

    The left and middle factors run over l_g = 1_{E_g} delta_g only, by
    two lemmas, where r.U multiplies every coefficient of U by r in R:
    - Left R-linearity: (r.U)V = r.(UV), since each term of skew_mul is
      (r x) beta_g(y) = r (x beta_g(y)).  So assoc(r.U, V, W) =
      r.assoc(U, V, W), and every monomial s e_b delta_g is (s e_b).l_g.
    - Semilinearity of l_g: l_g(r.V) = beta_g(r).(l_g V), because apply is
      multiplicative slot by slot: each move puts x[i]^q into one slot,
      and (r y)[i]^q = r[i]^q y[i]^q.  This holds for any AlgebraAction,
      validated or not, so the reduction is exact on corrupted ones too.
    Together, assoc(r l_g, r' l_h, w) = r beta_g(r') assoc(l_g, l_h, w),
    so the |G|^2 pairs (l_g, l_h) stand for all M^2 monomial pairs.

    The right factor w runs over a generating set only.  The set S of w
    with (uv)w = u(vw) for all u, v is an F_p-subspace closed under
    products: for a, b in S, (xy)(ab) = ((xy)a)b = (x(ya))b = x((ya)b) =
    x(y(ab)).  When every beta_g carries 1_{E_{d g}} to 1_{E_{r g}}
    (checked, |G| applies), composable a, b and x in E_a give
    (x delta_a)(1_{E_{r b}} delta_b) = x beta_a(1_{E_{d a}}) delta_ab =
    x delta_ab, and 1_{E_{r b}} delta_b is a sum of monomials at b.  The
    left-normed products of Gamma (G.generators) are all of G, so the
    monomials at Gamma and at the identities generate the ring, and
    |G|^2 |W| triples decide associativity, W the monomials at Gamma and
    the identities.  They read the products l_g l_h, l_h w, m_k w and
    l_g m_k, and only the first two are multiplied out by skew_mul: with
    m_k = (s e_b).l_h, the lemmas give m_k w = (s e_b).(l_h w) and
    l_g m_k = beta_g(s e_b).(l_g l_h).  If the guard or a reduced triple
    fails, the full M x M table is built and all M^3 triples run in the
    order of the direct loop, so the first failing one and its witness are
    the same.
    """
    R, G = A.ring, A.groupoid
    p, digits = R.field.p, R.field.digits
    monomials, index = [], {}
    for g in G.elements:
        for b in A.support[g]:
            for t, s in enumerate(fp_basis_scalars(R.field)):
                index[(g, R.slot_index(b), t)] = len(monomials)
                monomials.append({g: R.embed({b: s})})
    gens = set(G.generators) | set(G.identities)

    def expand(z):
        """(k, c) for every nonzero coefficient c of m_k in z."""
        return tuple(
            (index[(g, i, t)], c)
            for g, x in z.items()
            for i, v in enumerate(x)
            for t, c in enumerate(digits[v])
            if c
        )

    def products(lefts, rights):
        return [[expand(skew_mul(A, u, v)) for v in rights] for u in lefts]

    def combine(terms, row):
        """sum of c * row[k] over the (k, c) in terms, as a dict."""
        acc: dict = {}
        for k, c in terms:
            for j, d in row[k]:
                acc[j] = (acc.get(j, 0) + c * d) % p
        return {j: c for j, c in acc.items() if c}

    def fails(uv, vw, w_row, u_row):
        """Is (uv)w != u(vw), where w_row[k] = m_k w and u_row[k] = u m_k?"""
        return bool(uv or vw) and combine(uv, w_row) != combine(vw, u_row)

    def scaled(r, z):
        """expand(r.z): every coefficient of z multiplied by r in R."""
        return expand({g: R.mul(r, x) for g, x in z.items()})

    def reduced_failure():
        ells = [{g: R.unit(A.support[g])} for g in G.elements]
        at_gens = [m for m in monomials if next(iter(m)) in gens]
        ll = [[skew_mul(A, u, v) for v in ells] for u in ells]
        lw = [[skew_mul(A, u, w) for w in at_gens] for u in ells]
        # m_k = r.l_h with r = s e_b, so m_k w = r.(l_h w) and
        # l_g m_k = beta_g(r).(l_g l_h)
        position = {g: i for i, g in enumerate(G.elements)}
        factors = [(position[h], r) for m in monomials for h, r in m.items()]
        w_rows = [[scaled(r, lw[h][w]) for h, r in factors]  # w_rows[w][k] = m_k w
                  for w in range(len(at_gens))]
        l_rows = [[scaled(A.apply(g, r), ll[gi][h]) if ll[gi][h] else ()
                   for h, r in factors]  # l_rows[g][k] = l_g m_k
                  for gi, g in enumerate(G.elements)]
        ll_terms = [[expand(z) for z in row] for row in ll]
        lw_terms = [[expand(z) for z in row] for row in lw]
        gs = range(len(ells))
        return any(fails(ll_terms[g][h], lw_terms[h][w], w_rows[w], l_rows[g])
                   for g, h, w in itertools.product(gs, gs, range(len(at_gens))))

    unital_maps = all(A.apply(g, R.unit(A.source_ideal(g))) == R.unit(A.support[g])
                      for g in G.elements)
    if not unital_maps or reduced_failure():
        table = products(monomials, monomials)
        columns = list(zip(*table))  # columns[w][k] = m_k m_w
        every = range(len(monomials))
        witness = next(((monomials[u], monomials[v], monomials[w])
                        for u, v, w in itertools.product(every, repeat=3)
                        if fails(table[u][v], table[v][w], columns[w], table[u])), None)
        if witness:
            return SkewReport(False, False, True, witness=witness)
    one = skew_identity(A)
    for u in monomials:
        if skew_mul(A, one, u) != u or skew_mul(A, u, one) != u:
            return SkewReport(False, True, False, witness=(u,))
    return SkewReport(True, True, True)
