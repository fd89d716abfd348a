"""Expectations computed from a problem document without the program.

Nothing here imports gpdgalois.  Each closed-form rule has a brute-force
counterpart, and :func:`cross_check` compares the two on small instances:

- wide subgroupoids of P_n x C_m: sum over set partitions of the objects of
  the product over parts B of sum_{d | m} d^(|B| - 1);
- |R^H|: product over H-orbits of blocks of p^gcd(k, Frobenius exponents
  of the orbit point's stabilizer);
- E_g is faithful over R^G exactly when every G-orbit of blocks meets the
  blocks of r(g);
- the action has Galois coordinates exactly when it is free on the
  geometric points (block, Z/k): no non-identity fixes a block untwisted.
"""

from __future__ import annotations

import itertools
import math


class Field:
    """F_{p^k} on integers 0..p^k-1 (base-p digits, lowest power first)."""

    def __init__(self, p: int, k: int, modulus):
        self.p, self.k = p, k
        self.order = p ** k
        mod = list(modulus) if k > 1 else [0, 1]
        self._mul = [[self._polymul(a, b, mod) for b in range(self.order)]
                     for a in range(self.order)]

    def _digits(self, x):
        return [x // self.p ** i % self.p for i in range(self.k)]

    def _polymul(self, a, b, mod):
        prod = [0] * (2 * self.k)
        for i, x in enumerate(self._digits(a)):
            for j, y in enumerate(self._digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        for top in range(len(prod) - 1, self.k - 1, -1):
            c = prod[top]
            if c:
                for i, y in enumerate(mod):
                    prod[top - self.k + i] = (prod[top - self.k + i] - c * y) % self.p
        return sum(c * self.p ** i for i, c in enumerate(prod[: self.k]))

    def mul(self, a, b):
        return self._mul[a][b]

    def add(self, a, b):
        da, db = self._digits(a), self._digits(b)
        return sum(((x + y) % self.p) * self.p ** i for i, (x, y) in enumerate(zip(da, db)))

    def frob(self, x, t):
        """x^(p^t)."""
        out = x
        for _ in range(t):
            acc = 1
            for _ in range(self.p):
                acc = self.mul(acc, out)
            out = acc
        return out

    def prime_basis(self):
        return [self.p ** i for i in range(self.k)]


class Problem:
    """The parts of a problem document the expectations need."""

    def __init__(self, doc: dict):
        fld = doc["field"]
        self.p, self.k = fld["p"], fld.get("k", 1)
        self.modulus = fld.get("modulus")
        grp = doc["groupoid"]
        self.elements = list(grp["elements"])
        self.product = {(a, b): ab for a, b, ab in grp["products"]}
        self.identities = [e for e in self.elements if self.product.get((e, e)) == e]
        self.d = {g: next(e for e in self.identities if (g, e) in self.product)
                  for g in self.elements}
        self.r = {g: next(e for e in self.identities if (e, g) in self.product)
                  for g in self.elements}
        self.inverse = {g: next(h for h in self.elements
                                if self.product.get((h, g)) == self.d[g])
                        for g in self.elements}
        ring = doc["ring"]
        self.blocks = list(ring["blocks"])
        self.owner = {b: e for e, bl in ring["ideals"].items() for b in bl}
        self.sigma, self.frob = {}, {}
        for g in self.elements:
            src = self.ideal(self.d[g])
            spec = doc["action"].get(g)
            if spec is None:  # identities may be omitted
                self.sigma[g] = {b: b for b in src}
                self.frob[g] = {b: 0 for b in src}
            else:
                self.sigma[g] = dict(spec["sigma"])
                tw = spec.get("frob", {})
                self.frob[g] = {b: tw.get(b, 0) % self.k for b in src}
        self.doc = doc
        self._field = None

    @property
    def field(self) -> Field:
        if self._field is None:
            self._field = Field(self.p, self.k, self.modulus)
        return self._field

    def ideal(self, e):
        return [b for b in self.blocks if self.owner[b] == e]

    def closed(self, labels) -> bool:
        s = set(labels)
        return all(self.inverse[g] in s for g in s) and all(
            self.product.get((g, h), g) in s for g in s for h in s
        )

    def is_wide(self, labels) -> bool:
        return set(self.identities) <= set(labels) and self.closed(labels)


# Closed forms -----------------------------------------------------------

def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def wide_count_pair_cyclic(n: int, m: int) -> int:
    """Wide subgroupoids of P_n x C_m."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    return sum(
        math.prod(sum(d ** (len(part) - 1) for d in divisors) for part in parts)
        for parts in set_partitions(list(range(n)))
    )


def orbits(P: Problem, labels):
    """Block orbits under the listed elements, each with its first block."""
    parent = {b: b for b in P.blocks}

    def find(b):
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        return b

    for h in labels:
        for b, c in P.sigma[h].items():
            parent[find(b)] = find(c)
    groups: dict = {}
    for b in P.blocks:
        groups.setdefault(find(b), []).append(b)
    return list(groups.values())


def orbit_degree(P: Problem, labels, orbit) -> int:
    """gcd of k and the Frobenius exponents of the stabilizer of the
    orbit's first block: the invariants on the orbit form F_{p^gcd}."""
    b0 = orbit[0]
    deg = P.k
    for h in labels:
        if P.sigma[h].get(b0) == b0:
            deg = math.gcd(deg, P.frob[h][b0])
    return deg


def invariant_size(P: Problem, labels) -> int:
    return math.prod(P.p ** orbit_degree(P, labels, o) for o in orbits(P, labels))


def faithful(P: Problem, g) -> bool:
    target = set(P.ideal(P.r[g]))
    return all(target & set(o) for o in orbits(P, P.elements))


def galois(P: Problem) -> bool:
    return not any(
        P.sigma[g][b] == b and P.frob[g][b] == 0
        for g in P.elements if g not in P.identities
        for b in P.sigma[g]
    )


def block_idempotent_coordinates(P: Problem) -> bool:
    """Stage one of the coordinate search succeeds: no non-identity fixes
    a block."""
    return not any(
        P.sigma[g][b] == b for g in P.elements if g not in P.identities
        for b in P.sigma[g]
    )


def subalgebra_size(P: Problem, gens) -> int:
    """Size of the subalgebra generated by R^G and single-block unit
    idempotents: on each orbit, one copy of the orbit's invariant field per
    atom of the partition the chosen blocks cut out."""
    chosen = set()
    for gen in gens:
        if len(gen) != 1 or list(gen.values()) != [1]:
            raise ValueError(f"unsupported generator {gen!r}")
        chosen.update(gen)
    size = 1
    for o in orbits(P, P.elements):
        picked = len(chosen & set(o))
        atoms = picked + (1 if picked < len(o) else 0)
        size *= (P.p ** orbit_degree(P, P.elements, o)) ** atoms
    return size


# Brute force ------------------------------------------------------------

def brute_wide_subgroupoids(P: Problem) -> list[frozenset]:
    rest = [g for g in P.elements if g not in P.identities]
    out = []
    for mask in range(1 << len(rest)):
        labels = list(P.identities) + [g for i, g in enumerate(rest) if mask >> i & 1]
        if P.closed(labels):
            out.append(frozenset(labels))
    return out


def ring_elements(P: Problem):
    return itertools.product(range(P.field.order), repeat=len(P.blocks))


def is_invariant(P: Problem, x, labels) -> bool:
    idx = {b: i for i, b in enumerate(P.blocks)}
    F = P.field
    return all(
        x[idx[c]] == F.frob(x[idx[b]], P.frob[h][b])
        for h in labels for b, c in P.sigma[h].items()
    )


def brute_invariants(P: Problem, labels) -> list:
    return [x for x in ring_elements(P) if is_invariant(P, x, labels)]


def brute_faithful(P: Problem, K, g) -> bool:
    ids = [i for i, b in enumerate(P.blocks) if P.owner[b] == P.r[g]]
    return all(any(x[i] for i in ids) for x in K if any(x))


def brute_galois(P: Problem) -> bool:
    """Exhaustive search for the x side of coordinates over the prime-field
    block basis y_j, one ring slot at a time (the slots decouple)."""
    F = P.field
    ys = [(b, s) for b in P.blocks for s in F.prime_basis()]
    for c in P.blocks:
        rows = []
        for g in P.elements:
            if P.r[g] != P.owner[c]:
                continue
            coeffs = []
            for b, s in ys:
                moved = F.frob(s, P.frob[g][b]) if P.sigma[g].get(b) == c else 0
                coeffs.append(moved)
            rows.append((coeffs, 1 if g in P.identities else 0))
        found = False
        for xs in itertools.product(range(F.order), repeat=len(ys)):
            if all(_dot(F, xs, coeffs) == want for coeffs, want in rows):
                found = True
                break
        if not found:
            return False
    return True


def _dot(F, xs, coeffs):
    total = 0
    for x, c in zip(xs, coeffs):
        if x and c:
            total = F.add(total, F.mul(x, c))
    return total


def cross_check(P: Problem, family=None, n=0, m=0) -> list[str]:
    """Compare every closed form with brute force; returns the mismatches."""
    problems = []
    subs = brute_wide_subgroupoids(P)
    if family is not None and len(subs) != wide_count_pair_cyclic(n, m):
        problems.append(f"wide subgroupoids: formula {wide_count_pair_cyclic(n, m)}"
                        f" brute force {len(subs)}")
    for H in subs:
        got = len(brute_invariants(P, H))
        if got != invariant_size(P, H):
            problems.append(f"|R^H| for {sorted(H)}: formula {invariant_size(P, H)}"
                            f" brute force {got}")
    K = brute_invariants(P, P.elements)
    for g in P.elements:
        if brute_faithful(P, K, g) != faithful(P, g):
            problems.append(f"faithfulness at {g}")
    if brute_galois(P) != galois(P):
        problems.append("galois coordinates")
    return problems
