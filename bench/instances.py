"""Seeded problem files for the benchmark.

Three families of the pair groupoid on n objects times a cyclic group:

- ``shift``: P_n x C_m over F_p, element (j, i, a) sending block v{i}_{t}
  to v{j}_{t+a};
- ``twisted``: the same shift over F_{p^k}, with Frobenius exponent a mod k
  (k must divide m, so the twists compose);
- ``frobenius``: P_n x C_k with one F_{p^k} block per object, element
  (j, i, a) sending v{i} to v{j} with Frobenius exponent a.

The seed picks the numbering of the objects, the order of the blocks and
of the product triples and, where F_{p^k} has several irreducible moduli of
degree k, which one is used.  Elements stay in (target, source, label)
order: the brute-force oracles test the elements in file order and stop at
the first one that rejects a candidate, so a shuffled element order alone
changes their cost by up to a factor of two (README.md, "Seeds").
The program only ever sees the JSON document; the family parameters are
kept alongside it for the benchmark's own expectations.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass
class Instance:
    """A problem document with its family parameters (None for fixtures)."""

    name: str
    doc: dict
    family: str | None = None
    n: int = 0
    m: int = 0


def _has_factor_of_degree(p, poly, deg):
    """True when poly (coefficients, lowest first) has a monic factor of
    degree deg over F_p."""
    for tail in itertools.product(range(p), repeat=deg):
        div = list(tail) + [1]
        rem = list(poly)
        while len(rem) >= len(div):
            c = rem[-1] % p
            shift = len(rem) - len(div)
            for i, y in enumerate(div):
                rem[shift + i] = (rem[shift + i] - c * y) % p
            rem.pop()
        if not any(rem):
            return True
    return False


def irreducible_moduli(p: int, k: int) -> list[list[int]]:
    """Every monic irreducible polynomial of degree k over F_p."""
    out = []
    for tail in itertools.product(range(p), repeat=k):
        poly = list(tail) + [1]
        if k > 1 and poly[0] == 0:
            continue
        if not any(_has_factor_of_degree(p, poly, d) for d in range(1, k // 2 + 1)):
            out.append(poly)
    return out


def _label(j, i, a):
    return f"g{j}_{i}_{a}"


def pair_cyclic(rng: random.Random, name: str, family: str, n: int, m: int,
                p: int = 2, k: int = 1, quotient: bool = True) -> Instance:
    """One member of a P_n x C_m family with seeded orderings.

    The file names the subgroupoids G0 (identities), all, and P (the arrows
    labelled 0, when m > 1); the regular G-set, plus the quotient by P when
    `quotient` is set; and the subalgebras R^G and R^G[v], v one block.
    """
    if family == "frobenius" and m != k:
        raise ValueError("the Frobenius family needs m == k")
    if family == "twisted" and m % k:
        raise ValueError("the twisted shift needs k to divide m")
    objs = list(range(n))
    rng.shuffle(objs)
    elements = [_label(j, i, a) for j in objs for i in objs for a in range(m)]
    products = [
        [_label(q, j, a), _label(j, i, b), _label(q, i, (a + b) % m)]
        for q in objs for j in objs for i in objs
        for a in range(m) for b in range(m)
    ]
    inverses = {_label(j, i, a): _label(i, j, (-a) % m)
                for j in objs for i in objs for a in range(m)}
    if family == "frobenius":
        owned = {i: [f"v{i}"] for i in objs}
    else:
        owned = {i: [f"v{i}_{t}" for t in range(m)] for i in objs}
    action = {}
    for j in objs:
        for i in objs:
            for a in range(m):
                if i == j and a == 0:
                    continue
                if family == "frobenius":
                    sigma, frob = {f"v{i}": f"v{j}"}, {f"v{i}": a}
                else:
                    sigma = {f"v{i}_{t}": f"v{j}_{(t + a) % m}" for t in range(m)}
                    frob = {b: a % k for b in sigma} if family == "twisted" else {}
                spec = {"sigma": sigma}
                if any(frob.values()):
                    spec["frob"] = frob
                action[_label(j, i, a)] = spec

    field_sec = {"p": p, "k": k}
    if k > 1:
        field_sec["modulus"] = rng.choice(irreducible_moduli(p, k))
    blocks = [b for i in objs for b in owned[i]]
    rng.shuffle(products)
    rng.shuffle(blocks)
    ids = [_label(i, i, 0) for i in objs]
    doc = {
        "field": field_sec,
        "groupoid": {"elements": elements, "products": products,
                     "inverses": inverses},
        "ring": {"blocks": blocks,
                 "ideals": {_label(i, i, 0): owned[i] for i in objs}},
        "action": action,
        "subgroupoids": {
            "G0": ids,
            "all": sorted(elements),
        },
        "gsets": {"reg": "regular"},
        "subalgebras": {"base": [], "split": [{owned[objs[0]][0]: 1}]},
    }
    if m > 1:
        # the arrows labelled 0: the wide subgroupoid P_n x {0}
        doc["subgroupoids"]["P"] = [_label(j, i, 0) for j in objs for i in objs]
        if quotient:
            doc["gsets"]["byP"] = "quotient:P"
    return Instance(name, doc, family, n, m)


def reorder_fixture(rng: random.Random, name: str, doc: dict) -> Instance:
    """A shipped fixture with its block and product order seeded."""
    doc = {key: (dict(val) if isinstance(val, dict) else val) for key, val in doc.items()}
    grp = dict(doc["groupoid"])
    grp["products"] = [list(t) for t in grp["products"]]
    rng.shuffle(grp["products"])
    doc["groupoid"] = grp
    ring = dict(doc["ring"])
    ring["blocks"] = list(ring["blocks"])
    rng.shuffle(ring["blocks"])
    doc["ring"] = ring
    return Instance(name, doc)
