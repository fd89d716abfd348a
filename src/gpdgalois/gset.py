"""Finite split G-sets: validation, equivariant maps, isomorphism search.

A G-set here is always split: the carrier is the disjoint union of the
fibers X_e over the identities e, and the bijections gamma_g map the fiber
of d(g) to the fiber of r(g).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput, OracleMismatch, SizeBoundExceeded, ValidationError

DEFAULT_MAX_POINTS = 20


class GSet:
    """Validated split G-set; construct through :func:`validate_gset`."""

    def __init__(self, groupoid, carrier, fiber, gamma):
        self.groupoid = groupoid
        self.carrier = tuple(carrier)
        self.fiber = dict(fiber)
        self.gamma = {g: dict(m) for g, m in gamma.items()}

    def fiber_points(self, e) -> tuple:
        return tuple(x for x in self.carrier if self.fiber[x] == e)

    def __repr__(self):
        return f"GSet({len(self.carrier)} points over {len(self.groupoid.elements)} elements)"


def _complete_gamma(G, carrier, fiber, gamma) -> tuple[dict, dict]:
    """Check the carrier, the fibers and each gamma_g on its own and fill
    in the identity components; returns the fibers by identity and the
    full gamma table."""
    if len(set(carrier)) != len(carrier):
        raise InvalidInput("duplicate carrier points")
    identities = set(G.identities)
    for x in carrier:
        if x not in fiber:
            raise ValidationError(f"point {x!r} lies in no fiber")
        if fiber[x] not in identities:
            raise ValidationError(f"point {x!r} assigned to non-identity {fiber[x]!r}")
    for x in fiber:
        if x not in set(carrier):
            raise InvalidInput(f"fiber entry for unknown point {x!r}")

    fibers = {e: tuple(x for x in carrier if fiber[x] == e) for e in G.identities}
    full_gamma = {}
    for g in G.elements:
        src = fibers[G.d[g]]
        tgt = set(fibers[G.r[g]])
        if g in identities and g not in gamma:
            full_gamma[g] = {x: x for x in src}
            continue
        if g not in gamma:
            raise InvalidInput(f"missing gamma for {g!r}")
        m = dict(gamma[g])
        if set(m) != set(src):
            raise ValidationError(
                f"gamma[{g!r}] defined on {sorted(map(str, m))}, expected fiber of {G.d[g]!r}"
            )
        if set(m.values()) != tgt:
            raise ValidationError(f"gamma[{g!r}] is not onto the fiber of {G.r[g]!r}")
        if len(set(m.values())) != len(m):
            raise ValidationError(f"gamma[{g!r}] is not injective")
        full_gamma[g] = m
    for e in G.identities:
        for x in fibers[e]:
            if full_gamma[e][x] != x:
                raise ValidationError(f"gamma[{e!r}] moves {x!r}")
    return fibers, full_gamma


def validate_gset(groupoid, carrier, fiber, gamma) -> GSet:
    """Check the action axioms and splitness exactly.

    gamma maps each non-identity g to a point map on the fiber of d(g);
    identity entries are filled in (and cross-checked when supplied).
    Each gamma_g is checked on its own by _complete_gamma.  Composition,
    gamma_g o gamma_h = gamma_gh, is compared only on the composable
    pairs with h in the generating set Gamma of the groupoid, which
    decides it on every composable pair.  Call h good when
    gamma_g o gamma_h = gamma_gh for every g with d g = r h.  If a and b
    are good and ab is defined, then for every g with d g = r a,
    gamma_g gamma_ab = gamma_g gamma_a gamma_b = gamma_ga gamma_b
    = gamma_(ga)b = gamma_g(ab), using b (with a), a, b (with ga) and the
    associativity of G, which validate_groupoid has decided.  So every
    left-normed product of Gamma is good, and these are all of G.  When
    the comparison on Gamma fails, the composable pairs are scanned in
    G.composable order and the first failing pair and point is the
    witness.
    """
    G = groupoid
    carrier = tuple(carrier)
    fibers, full_gamma = _complete_gamma(G, carrier, fiber, gamma)

    def failures(pairs):
        for g, h in pairs:
            gh = G.product[(g, h)]
            for x in fibers[G.d[h]]:
                if full_gamma[g][full_gamma[h][x]] != full_gamma[gh][x]:
                    yield g, h, x

    if next(failures(G.generator_pairs), None):
        g, h, x = next(failures(G.composable))
        raise ValidationError(
            f"gamma[{g!r}] o gamma[{h!r}] != gamma[{G.product[(g, h)]!r}] at {x!r}",
            witness=(g, h, x),
        )
    return GSet(groupoid, carrier, fiber, full_gamma)


@dataclass
class GMap:
    """A point map between two G-sets over the same groupoid."""

    source: GSet
    target: GSet
    mapping: dict


@dataclass
class GMapReport:
    valid: bool
    isomorphism: bool
    certificate: str | None = None


def check_gmap(psi: GMap) -> GMapReport:
    """Equivariance and fiber preservation; flags isomorphisms."""
    src, tgt = psi.source, psi.target
    if src.groupoid is not tgt.groupoid and src.groupoid.elements != tgt.groupoid.elements:
        raise InvalidInput("source and target live over different groupoids")
    if set(psi.mapping) != set(src.carrier):
        raise InvalidInput("mapping domain differs from source carrier")
    for x, y in psi.mapping.items():
        if y not in tgt.fiber:
            raise InvalidInput(f"image {y!r} not in target carrier")
    G = src.groupoid
    for x, y in psi.mapping.items():
        if src.fiber[x] != tgt.fiber[y]:
            return GMapReport(False, False, f"fiber not preserved at {x!r}")
    for g in G.elements:
        for x in src.fiber_points(G.d[g]):
            if psi.mapping[src.gamma[g][x]] != tgt.gamma[g][psi.mapping[x]]:
                return GMapReport(False, False, f"not equivariant at ({g!r}, {x!r})")
    bijective = len(set(psi.mapping.values())) == len(src.carrier) == len(tgt.carrier)
    return GMapReport(True, bijective, None)


def gset_isomorphic(a: GSet, b: GSet):
    """Search for a G-set isomorphism by backtracking over fiber-respecting
    bijections; returns a GMap or None.  Deterministic: points are tried in
    carrier order.  Carriers of more than DEFAULT_MAX_POINTS refuse."""
    if len(a.carrier) > DEFAULT_MAX_POINTS or len(b.carrier) > DEFAULT_MAX_POINTS:
        raise SizeBoundExceeded(
            f"carrier larger than {DEFAULT_MAX_POINTS}; raise the bound to proceed"
        )
    if a.groupoid is not b.groupoid and a.groupoid.elements != b.groupoid.elements:
        raise InvalidInput("G-sets over different groupoids")
    G = a.groupoid
    if len(a.carrier) != len(b.carrier):
        return None
    for e in G.identities:
        if len(a.fiber_points(e)) != len(b.fiber_points(e)):
            return None

    order = list(a.carrier)
    assignment: dict = {}
    used: set = set()

    def consistent(x, y) -> bool:
        """x -> y agrees with the assignment under every g with d(g) the
        fiber of x.  That covers an assigned w -> ww with gamma_g(w) = x,
        which needs b.gamma_g(ww) = y: g^{-1} starts at x and sends it to
        w, and b is a G-set, so b.gamma_g(ww) = y exactly when
        ww = b.gamma_{g^{-1}}(y)."""
        for g in G.elements:
            if a.fiber[x] == G.d[g]:
                xx = a.gamma[g][x]
                # a point g fixes is x itself, to be mapped to y: not yet assigned
                if (xx == x or xx in assignment) and assignment.get(xx, y) != b.gamma[g][y]:
                    return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        for y in b.fiber_points(a.fiber[x]):
            if y in used:
                continue
            if not consistent(x, y):
                continue
            assignment[x] = y
            used.add(y)
            if extend(i + 1):
                return True
            del assignment[x]
            used.discard(y)
        return False

    if not extend(0):
        return None
    psi = GMap(a, b, dict(assignment))
    report = check_gmap(psi)
    if not report.isomorphism:
        raise OracleMismatch("backtracking returned a non-isomorphism")
    return psi
