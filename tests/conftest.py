import contextlib
import io
import itertools
import json
import os
import tempfile
from unittest import mock

import pytest

from gpdgalois import cli, fixtures
from gpdgalois.action import AlgebraAction, _complete_maps
from gpdgalois.blockring import ideal_fp_basis
from gpdgalois.errors import (
    AxiomViolation,
    CompositionFailure,
    InvalidInput,
    MissingIdentity,
    MissingInverse,
    NonUniqueInverse,
    UnknownLabel,
)
from gpdgalois.groupoid import Groupoid
from gpdgalois.scalar import FpSpan


@pytest.fixture(scope="session")
def fix1():
    return fixtures.fixture_one()


@pytest.fixture(scope="session")
def fix2():
    return fixtures.fixture_two()


@pytest.fixture(scope="session")
def fixc2():
    return fixtures.fixture_c2()


@pytest.fixture(scope="session")
def fixf4():
    return fixtures.fixture_f4()


@pytest.fixture(scope="session")
def fixf4swap():
    return fixtures.fixture_f4_swap()


@pytest.fixture(scope="session")
def all_galois_fixtures(fix1, fix2, fixc2, fixf4, fixf4swap):
    return [fix1, fix2, fixc2, fixf4, fixf4swap]


def brute_invariants(action, labels):
    """Oracle: filter every ring element by the defining identity."""
    R = action.ring
    out = set()
    for x in R.all_elements():
        if all(
            action.apply(h, x, truncate=True)
            == R.mul(x, R.unit(action.support[h].support))
            for h in labels
        ):
            out.add(x)
    return out


def brute_invariant_functions(X, action):
    """Oracle: filter every admissible function by equivariance."""
    from gpdgalois.mapalg import MapSpace

    space = MapSpace(X, action.ring)
    G = action.groupoid
    out = set()
    for f in space.all_elements():
        ok = True
        for g in G.elements:
            for y in X.fiber_points(G.d[g]):
                lhs = action.apply(g, space.value_at(f, y), truncate=True)
                if lhs != space.value_at(f, X.gamma[g][y]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(f)
    return out


def brute_subalgebras(R, K):
    """Oracle: every unital K-closed multiplicatively closed subspace of a
    small ring, found as spans of the K-basis plus up to two vectors."""
    elems = list(R.all_elements(bound=16))
    found = {}
    for extra in itertools.chain(
        [()], itertools.product(elems, repeat=1), itertools.product(elems, repeat=2)
    ):
        span = FpSpan(R.field.p)
        basis = []
        for v in itertools.chain(K.basis, [R.one()], extra):
            if span.insert(R.flat(v)):
                basis.append(v)
        members = set()
        for coeffs in itertools.product(range(R.field.p), repeat=len(basis)):
            members.add(R.int_combine(coeffs, basis))
        closed = all(R.mul(a, b) in members for a in members for b in members)
        k_closed = all(R.mul(c, a) in members for c in K.basis for a in members)
        if closed and k_closed:
            found[tuple(sorted(members))] = members
    return list(found.values())


# Generated problems -------------------------------------------------------

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
MODULI = {1: None, 2: [1, 1, 1], 3: [1, 1, 0, 1]}


def _pair_cyclic_specs():
    """(family, n, m, k) for every P_n x C_m problem with n*m <= 8:
    shifts over F_2, shifts twisted by a mod k over F_4 and F_8, and the
    pure-Frobenius family with one F_{2^m} block per object."""
    specs = []
    for n in range(1, 9):
        for m in range(1, 8 // n + 1):
            specs.append(("shift", n, m, 1))
            for k in (2, 3):
                if m % k == 0:
                    specs.append(("twisted", n, m, k))
                if m == k:
                    specs.append(("frobenius", n, m, k))
    return specs


PAIR_CYCLIC_SPECS = _pair_cyclic_specs()


def pair_cyclic_doc(family, n, m, k=1):
    """P_n x C_m over F_{2^k}: element g{j}_{i}_{a} is an arrow from object
    i to object j labelled a in Z_m.  "shift" and "twisted" send block
    v{i}_{t} to v{j}_{t+a}, twisted with Frobenius exponent a mod k;
    "frobenius" sends the one block v{i} to v{j} with exponent a (m = k)."""
    def label(j, i, a):
        return f"g{j}_{i}_{a}"

    objs = range(n)
    elements = [label(j, i, a) for j in objs for i in objs for a in range(m)]
    products = [
        [label(q, j, a), label(j, i, b), label(q, i, (a + b) % m)]
        for q in objs for j in objs for i in objs
        for a in range(m) for b in range(m)
    ]
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
                    frob = {b: a % k for b in sigma}
                action[label(j, i, a)] = {"sigma": sigma, "frob": frob}
    field = {"p": 2, "k": k}
    if k > 1:
        field["modulus"] = MODULI[k]
    return {
        "field": field,
        "groupoid": {"elements": elements, "products": products},
        "ring": {
            "blocks": [b for i in objs for b in owned[i]],
            "ideals": {label(i, i, 0): owned[i] for i in objs},
        },
        "action": action,
    }


def fixture_doc(name):
    with open(os.path.join(FIXTURE_DIR, name)) as fh:
        doc = json.load(fh)
    return {key: doc[key] for key in ("field", "groupoid", "ring", "action")}


FIXTURE_FILES = ["fix1.json", "fix2.json", "fixc2.json", "fixf4.json"]


def disjoint_union(docs, relabel):
    """The disjoint union of problems over one field; relabel(c, label)
    renames the labels of component c."""
    out = {
        "field": docs[0]["field"],
        "groupoid": {"elements": [], "products": []},
        "ring": {"blocks": [], "ideals": {}},
        "action": {},
    }
    for c, doc in enumerate(docs):
        def ren(x):
            return relabel(c, x)

        grp, ring = doc["groupoid"], doc["ring"]
        out["groupoid"]["elements"] += [ren(g) for g in grp["elements"]]
        out["groupoid"]["products"] += [[ren(x) for x in t] for t in grp["products"]]
        out["ring"]["blocks"] += [ren(b) for b in ring["blocks"]]
        for e, blocks in ring["ideals"].items():
            out["ring"]["ideals"][ren(e)] = [ren(b) for b in blocks]
        for g, spec in doc["action"].items():
            out["action"][ren(g)] = {
                part: {ren(b): v if part == "frob" else ren(v) for b, v in m.items()}
                for part, m in spec.items()
            }
    return out


# Oracles for the validators ----------------------------------------------

def oracle_validate_groupoid(elements, products, inverses=None) -> Groupoid:
    """The exhaustive validator: every axiom and consequence tested on
    every element, pair and triple of G, in O(|G|^3)."""
    elements = list(elements)
    if not elements:
        raise InvalidInput("empty element list")
    if len(set(elements)) != len(elements):
        raise InvalidInput("duplicate element labels")
    known = set(elements)
    product: dict = {}
    for triple in products:
        if len(triple) != 3:
            raise InvalidInput(f"product triple {triple!r} must have 3 entries")
        a, b, ab = triple
        for lbl in (a, b, ab):
            if lbl not in known:
                raise UnknownLabel(f"product triple references unknown label {lbl!r}")
        if (a, b) in product and product[(a, b)] != ab:
            raise InvalidInput(f"conflicting products for ({a!r}, {b!r})")
        product[(a, b)] = ab

    d, r = {}, {}
    for g in elements:
        right_units = [x for x in elements if product.get((g, x)) == g]
        left_units = [x for x in elements if product.get((x, g)) == g]
        if not right_units or not left_units:
            raise MissingIdentity(f"no d/r identities for {g!r}")
        if len(right_units) > 1 or len(left_units) > 1:
            raise AxiomViolation("unique-identities", (g, right_units, left_units))
        d[g], r[g] = right_units[0], left_units[0]

    for g, h, l in itertools.product(elements, repeat=3):
        gh = product.get((g, h))
        hl = product.get((h, l))
        lhs = product.get((gh, l)) if gh is not None else None
        rhs = product.get((g, hl)) if hl is not None else None
        both_factors = gh is not None and hl is not None
        if (rhs is not None) != both_factors:
            raise AxiomViolation("existence", (g, h, l))
        if (rhs is not None) != (lhs is not None):
            raise AxiomViolation("existence", (g, h, l))
        if rhs is not None and lhs != rhs:
            raise AxiomViolation("associativity", (g, h, l))

    for g, h in itertools.product(elements, repeat=2):
        if ((g, h) in product) != (d[g] == r[h]):
            raise AxiomViolation("composability", (g, h))

    inverse = {}
    for g in elements:
        cands = [
            x
            for x in elements
            if product.get((x, g)) == d[g] and product.get((g, x)) == r[g]
        ]
        if not cands:
            raise MissingInverse(f"no inverse for {g!r}")
        if len(cands) > 1:
            raise NonUniqueInverse(f"multiple inverses for {g!r}: {cands}")
        inverse[g] = cands[0]
    if inverses:
        for g, gi in inverses.items():
            if g not in known or gi not in known:
                raise UnknownLabel("inverse map references unknown label")
            if inverse[g] != gi:
                raise AxiomViolation("user-inverse", (g, gi, inverse[g]))

    identities = [g for g in elements if any(d[x] == g or r[x] == g for x in elements)]

    for g in elements:
        gi = inverse[g]
        if d[gi] != r[g] or r[gi] != d[g]:
            raise AxiomViolation("inverse-endpoints", g)
        if inverse[gi] != g:
            raise AxiomViolation("double-inverse", g)
    for (g, h), gh in product.items():
        if d[gh] != d[h] or r[gh] != r[g]:
            raise AxiomViolation("product-endpoints", (g, h))
        if ((inverse[h], inverse[g]) in product) != ((g, h) in product):
            raise AxiomViolation("inverse-pair", (g, h))
        if product[(inverse[h], inverse[g])] != inverse[gh]:
            raise AxiomViolation("antihomomorphism", (g, h))
        if (gh in identities) != (g == inverse[h]):
            raise AxiomViolation("identity-product", (g, h))
    for e in identities:
        if d[e] != e or r[e] != e or inverse[e] != e:
            raise AxiomViolation("identity-fixed", e)
    for g, h in itertools.product(elements, repeat=2):
        right_div = any(product.get((h, l)) == g for l in elements)
        if right_div != (r[g] == r[h]):
            raise AxiomViolation("right-division", (g, h))
        left_div = any(product.get((l, h)) == g for l in elements)
        if left_div != (d[g] == d[h]):
            raise AxiomViolation("left-division", (g, h))

    return Groupoid(elements, product, inverse, d, r, identities)


def elementwise_validate_action(G, R, sigma, frob=None) -> AlgebraAction:
    """The action validator with beta_g o beta_h = beta_gh compared by
    transporting every F_p-basis vector of E_{d(h)}."""
    action = AlgebraAction(G, R, *_complete_maps(G, R, sigma, frob or {}))
    for g, h in G.composable:
        gh = G.product[(g, h)]
        for x in ideal_fp_basis(R, R.ideal(G.d[h]).support):
            if action.apply(g, action.apply(h, x)) != action.apply(gh, x):
                raise CompositionFailure(
                    f"beta[{g!r}] o beta[{h!r}] != beta[{gh!r}]",
                    witness=(g, h, R.format(x)),
                )
    return action


def cli_outcome(doc, oracle=False):
    """(exit code, status, [(line, verdict)]) of `check --json` on a
    document, optionally with both validators replaced by their oracles."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.ExitStack() as stack:
            if oracle:
                stack.enter_context(
                    mock.patch.object(cli, "validate_groupoid", oracle_validate_groupoid)
                )
                stack.enter_context(
                    mock.patch.object(cli, "validate_action", elementwise_validate_action)
                )
            stack.enter_context(contextlib.redirect_stdout(out))
            code = cli.main(["check", path, "--json"])
    report = json.loads(out.getvalue())
    return code, report["status"], [(c["name"], c["verdict"]) for c in report["checks"]]
