"""Finite split G-sets: validation, equivariant maps, isomorphism by orbit
transport.

A G-set here is always split: the carrier is the disjoint union of the
fibers X_e over the identities e, and the bijections gamma_g map the fiber
of d(g) to the fiber of r(g).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput, OracleMismatch, ValidationError


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
    """A G-set isomorphism a -> b by orbit transport, or None.

    Take the points x0 of a in carrier order, skipping mapped ones.  Let y0
    be the first unused point of b over fiber(x0) with Stab(y0) =
    Stab(x0), the loops at fiber(x0) fixing the point, and map g x0 -> g y0
    for every g with d g = fiber(x0).  That is well defined and injective
    on the orbit, as g x0 = h x0 iff h^-1 g fixes x0 iff it fixes y0 iff
    g y0 = h y0.  It keeps fibers (r g) and is equivariant, k (g x0) =
    (kg) x0.  Images are whole orbits, so the map is injective, and with
    equal carrier sizes bijective.  No backtracking is needed.  An
    isomorphism keeps fibers and stabilizers, so for each identity e and
    group S, a and b have equally many points over e with stabilizer S.
    Orbits of points with one stabilizer are both G/S, with equal such
    counts, so the unmapped points of a and b keep equal counts, and an
    isomorphic b always has a y0.  When none exists the counts differ, and
    there is no isomorphism.  check_gmap checks the map found; a failure
    there is a fault of this library.
    """
    if a.groupoid is not b.groupoid and a.groupoid.elements != b.groupoid.elements:
        raise InvalidInput("G-sets over different groupoids")
    if len(a.carrier) != len(b.carrier):
        return None
    G = a.groupoid
    loops = [g for g in G.elements if G.d[g] == G.r[g]]

    def stabilizer(X, x):
        return frozenset(g for g in loops if G.d[g] == X.fiber[x] and X.gamma[g][x] == x)

    mapping: dict = {}
    used: set = set()
    for x0 in a.carrier:
        if x0 in mapping:
            continue
        stab = stabilizer(a, x0)
        y0 = next((y for y in b.fiber_points(a.fiber[x0])
                   if y not in used and stabilizer(b, y) == stab), None)
        if y0 is None:
            return None
        for g in G.elements:
            if G.d[g] == a.fiber[x0]:
                mapping[a.gamma[g][x0]] = b.gamma[g][y0]
                used.add(b.gamma[g][y0])
    psi = GMap(a, b, mapping)
    if not check_gmap(psi).isomorphism:
        raise OracleMismatch("orbit transport returned a non-isomorphism")
    return psi
