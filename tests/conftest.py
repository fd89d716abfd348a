import contextlib
import importlib.util
import io
import itertools
import json
import os
import tempfile
from collections import namedtuple
from unittest import mock

import pytest

from gpdgalois import cli
from gpdgalois.action import (
    AlgebraAction,
    SkewReport,
    Subalgebra,
    Submodule,
    _complete_maps,
    invariants,
    skew_identity,
    skew_mul,
    span_elements,
    stabilizer,
    twisted_invariant_basis,
)
from gpdgalois.blockring import ideal_fp_basis
from gpdgalois.errors import (
    InvalidInput,
    OracleMismatch,
    SizeBoundExceeded,
    ValidationError,
)
from gpdgalois.galois import (
    CorrespondenceRow,
    CorrespondenceTable,
    is_beta_strong,
    separability_idempotent,
    strong_subalgebra_check,
)
from gpdgalois.groupoid import (
    DEFAULT_MAX_ELEMENTS,
    CosetSpace,
    Groupoid,
    coset_space,
    enumerate_wide_subgroupoids,
    is_wide_subgroupoid,
)
from gpdgalois.gset import GSet, _complete_gamma
from gpdgalois.mapalg import SplitReport, require_faithful_hypotheses
from gpdgalois.scalar import FpSpan, fp_basis_scalars
from gpdgalois.tensor import TensorOverK, rank_profile


@pytest.fixture(scope="session")
def fix1():
    return load_fixture("fix1.json")


@pytest.fixture(scope="session")
def fix2():
    return load_fixture("fix2.json")


@pytest.fixture(scope="session")
def fixc2():
    return load_fixture("fixc2.json")


@pytest.fixture(scope="session")
def fixf4():
    return load_fixture("fixf4.json")


@pytest.fixture(scope="session")
def fixf4swap():
    return load_fixture("fixf4swap.json")


@pytest.fixture(scope="session")
def all_galois_fixtures(fix1, fix2, fixc2, fixf4, fixf4swap):
    return [fix1, fix2, fixc2, fixf4, fixf4swap]


def brute_invariants(action, labels):
    """Oracle: filter every ring element by the defining identity."""
    R = action.ring
    out = set()
    for x in R.all_elements():
        if all(
            action.apply(h, x)
            == R.mul(x, R.unit(action.support[h]))
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
                lhs = action.apply(g, space.value_at(f, y))
                if lhs != space.value_at(f, X.gamma[g][y]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(f)
    return out


def elementwise_alpha(M, g, f):
    """Oracle: alpha_g(f 1'_{g^{-1}}) rebuilt slot by slot, looking up the
    source point, the sigma_g-preimage block and its Frobenius exponent."""
    G = M.action.groupoid
    X = M.space.gset
    inv_sigma = {v: k for k, v in M.action.sigma[g].items()}
    out = [M.space.field.zero] * len(M.space.slots)
    for idx, (x, b) in enumerate(M.space.slots):
        if X.fiber[x] != G.r[g] or b not in inv_sigma:
            continue
        src_block = inv_sigma[b]
        v = f[M.space.slot_index((X.gamma[G.inverse[g]][x], src_block))]
        t = M.action.frob[g][src_block]
        out[idx] = M.space.field.power(v, M.space.field.p**t)
    return tuple(out)


def brute_subalgebras(R, K):
    """Oracle: every unital K-closed multiplicatively closed subspace of a
    small ring, found as spans of the K-basis plus up to two vectors.  A
    ring of more than 16 elements refuses."""
    if R.field.order ** len(R.slots) > 16:
        raise SizeBoundExceeded(f"ring has {R.field.order ** len(R.slots)} elements")
    elems = list(R.all_elements())
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


def direct_verify_skew_ring(A):
    """Oracle: associativity by multiplying out every monomial triple with
    skew_mul, in itertools.product order, then the two-sided unit law."""
    R, G = A.ring, A.groupoid
    monomials = []
    for g in G.elements:
        for b in A.support[g]:
            for s in fp_basis_scalars(R.field):
                monomials.append({g: R.embed({b: s})})
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


def pairwise_tensor_split_check(E, B, K, family, A):
    """Oracle: the tensor split check with phi(x tensor y) recomputed, hom
    images included, for the columns and for both factors of every pair."""
    R = A.ring
    E_mod = Submodule(R, ideal_fp_basis(R, E))
    tens = TensorOverK(R, B.space, K, E_mod.basis, B.basis)
    slot_ids = [R.slot_index(b) for b in E]

    def phi_tuple(x, y):
        return tuple(R.mul(x, hom.apply(y)) for hom in family)

    def flat_tuple(members):
        return R.field.flatten(
            itertools.chain.from_iterable(
                (member[i] for i in slot_ids) for member in members
            )
        )

    target_dim = len(family) * len(E) * R.field.k
    square = tens.dim == target_dim
    columns = []
    span = FpSpan(R.field.p)
    independent = True
    basis_data = list(tens.basis_vectors())
    for x, y in basis_data:
        col = flat_tuple(phi_tuple(x, y))
        columns.append(col)
        if not span.insert(col):
            independent = False

    def matrix_apply(tcoords):
        total = [0] * target_dim
        for c, col in zip(tcoords, columns):
            if c:
                for i, v in enumerate(col):
                    total[i] = (total[i] + c * v) % R.field.p
        return tuple(total)

    unit = R.unit(E)
    unital = flat_tuple(phi_tuple(unit, B.space.one())) == flat_tuple(
        tuple(unit for _ in family)
    )
    multiplicative = True
    for (x1, y1), (x2, y2) in itertools.combinations_with_replacement(basis_data, 2):
        lhs = matrix_apply(unmemoised_pure(tens, R.mul(x1, x2), B.space.mul(y1, y2)))
        rhs = flat_tuple(
            tuple(R.mul(a, b) for a, b in zip(phi_tuple(x1, y1), phi_tuple(x2, y2)))
        )
        if lhs != rhs:
            multiplicative = False
            break
    components_match = True
    width = len(E) * R.field.k
    for i, hom in enumerate(family):
        for b in B.basis:
            img = matrix_apply(unmemoised_pure(tens, unit, b))
            expected = R.field.flatten(hom.apply(b)[s] for s in slot_ids)
            if img[i * width : (i + 1) * width] != expected:
                components_match = False
                break
        if not components_match:
            break
    return SplitReport(
        square, square and independent, unital, multiplicative, components_match,
        len(family), rank_profile(B, K),
    )


def unmemoised_pure(tens, x, y):
    """Oracle: the coordinates of the pure tensor x tensor y, with both
    factors decomposed afresh over the tensor's block bases on every
    call, nothing kept."""
    coords = [0] * tens.dim
    per_block_m = [
        part.decompose(part.space.k_scale(blk.u, x))
        for part, blk in zip(tens.m_parts, tens.blocks)
    ]
    per_block_n = [
        part.decompose(part.space.k_scale(blk.u, y))
        for part, blk in zip(tens.n_parts, tens.blocks)
    ]
    for (bi, i, j), off, d in tens.layout:
        blk = tens.blocks[bi]
        prod = blk.to_coords[blk.field.mul(per_block_m[bi][i], per_block_n[bi][j])]
        for m in range(d):
            coords[off + m] = (coords[off + m] + prod[m]) % blk.field.p
    return tuple(coords)


# Partitions of Ω past this many are refused by the unpruned oracle.
PARTITION_ORACLE_BOUND = 4200


def omega_orbits(A):
    """Oracle: the G-orbits of Ω = blocks x Z/k, g . (b, s) =
    (sigma_g b, s - t_g(b)), each a sorted list of points, found by
    closing each point under every element of G in turn."""
    G, R = A.groupoid, A.ring
    k = R.field.k
    orbits, seen = [], set()
    for start in itertools.product(R.blocks, range(k)):
        if start in seen:
            continue
        orbit = [start]
        for b, s in orbit:  # breadth first: the list grows as it is read
            for g in G.elements:
                if G.d[g] == R.owner[b]:
                    image = (A.sigma[g][b], (s - A.frob[g][b]) % k)
                    if image not in orbit:
                        orbit.append(image)
        seen.update(orbit)
        orbits.append(sorted(orbit, key=lambda w: (R.slot_index(w[0]), w[1])))
    return orbits


def unpruned_partition_subalgebras(A):
    """Oracle: T for every Frobenius-stable partition of Ω with each part
    in one G-orbit, with no pruning; SizeBoundExceeded past an orbit of 9
    points or PARTITION_ORACLE_BOUND partitions.

    Frobenius F(b, s) = (b, s + 1) permutes the G-orbits.  On each class
    O, F O, ..., F^(m-1) O (m least with F^m O = O) a stable partition is
    a set partition of O that F^m maps to itself, carried to F^j O by F^j.
    T is solved from the parts as twisted invariants: x(b, s) = x_b^(p^s)
    is one value on a part, so x_c = x_b^(p^(s - s')) along the edge from
    (b, s) to (c, s')."""
    R = A.ring
    k = R.field.k

    def frob(points, j):
        return sorted(((b, (s + j) % k) for b, s in points),
                      key=lambda w: (R.slot_index(w[0]), w[1]))

    orbits = omega_orbits(A)
    done, choices = set(), []
    for orbit in orbits:
        if orbit[0] in done:
            continue
        if len(orbit) > 9:
            raise SizeBoundExceeded(f"a G-orbit of {len(orbit)} points")
        m = next(j for j in range(1, k + 1) if frob(orbit, j) == orbit)
        for j in range(m):
            done.update(frob(orbit, j))
        stable = []
        for parts in set_partitions(orbit):
            as_sets = {frozenset(part) for part in parts}
            if {frozenset(frob(part, m)) for part in parts} == as_sets:
                stable.append([frob(part, j) for part in parts for j in range(m)])
        choices.append(stable)
    count = 1
    for stable in choices:
        count *= len(stable)
    if count > PARTITION_ORACLE_BOUND:
        raise SizeBoundExceeded(f"{count} partitions")
    out = []
    for combo in itertools.product(*choices):
        edges = [(b, c, s - t) for parts in combo for part in parts
                 for (b, s), (c, t) in zip(part, part[1:])]
        basis = twisted_invariant_basis(R.field, R.blocks, edges)
        out.append(Subalgebra(R, [R.embed(v) for v in basis]))
    return out


def partition_correspondence(A, max_elements=DEFAULT_MAX_ELEMENTS):
    """Oracle: galois_correspondence with nothing shared, every row's
    invariants computed afresh, and separability_idempotent plus
    is_beta_strong run on the T of every partition of
    unpruned_partition_subalgebras."""
    G = A.groupoid
    require_faithful_hypotheses(A)
    K = A.base_subalgebra()
    rows, partitions = [], set()
    for H in enumerate_wide_subgroupoids(G, max_elements):
        T = invariants(A, H)
        report = strong_subalgebra_check(
            T, A, lambda H: invariants(A, H), lambda H: coset_space(G, H)
        )
        rows.append(CorrespondenceRow(
            H, T, report.stabilizer_labels, report.separable,
            report.beta_strong, report.r_split,
        ))
        partitions.add(frozenset(frozenset(c) for c in coset_space(G, H).classes))
    keys = [row.subalgebra.key() for row in rows]
    strong = sorted(
        (T for T in unpruned_partition_subalgebras(A)
         if separability_idempotent(T, K) is not None
         and is_beta_strong(T, A, stabilizer(T, A))[0]),
        key=lambda T: (len(T.key()), T.key()),
    )
    return CorrespondenceTable(
        rows, strong, len(set(keys)) == len(keys), len(partitions) == len(rows),
        set(keys) == {T.key() for T in strong},
        all(row.closure_holds for row in rows),
    )


# Reference linear algebra -------------------------------------------------

def field_sub(F, x, y):
    """x - y in F: x plus y times the prime-field constant -1."""
    return F.add(x, F.mul(F.element(-1), y))


def gauss_jordan_solve(F, matrix, rhs):
    """Reference: Gauss-Jordan elimination directly over F_{p^k} with a
    fixed pivot rule (leftmost column first, smallest row index).  Free
    variables are zero in the particular solution and each contributes one
    standard nullspace vector.  Returns (solution or None, nullspace)."""
    mat = [list(row) for row in matrix]
    rhs = list(rhs)
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c] != F.zero), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        rhs[r], rhs[pivot_row] = rhs[pivot_row], rhs[r]
        inv = F.power(mat[r][c], F.order - 2)
        mat[r] = [F.mul(inv, v) for v in mat[r]]
        rhs[r] = F.mul(inv, rhs[r])
        for i in range(nrows):
            if i != r and mat[i][c] != F.zero:
                factor = mat[i][c]
                mat[i] = [field_sub(F, v, F.mul(factor, w)) for v, w in zip(mat[i], mat[r])]
                rhs[i] = field_sub(F, rhs[i], F.mul(factor, rhs[r]))
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    if any(rhs[i] != F.zero for i in range(r, nrows)):
        return None, []
    solution = [F.zero] * ncols
    for row, col in pivots:
        solution[col] = rhs[row]
    pivot_cols = {c for _, c in pivots}
    nullspace = []
    for c in range(ncols):
        if c in pivot_cols:
            continue
        vec = [F.zero] * ncols
        vec[c] = F.one
        for row, col in pivots:
            vec[col] = field_sub(F, F.zero, mat[row][c])
        nullspace.append(vec)
    return solution, nullspace


# Oracles for the enumerations ---------------------------------------------

def subset_wide_subgroupoids(G, max_elements=DEFAULT_MAX_ELEMENTS):
    """Oracle: every wide subgroupoid as a label tuple in element order,
    found by testing every subset that contains the identities for closure
    under product and inverse, in itertools.combinations order over the
    non-identities (by size, then lexicographically by index)."""
    if len(G.elements) > max_elements:
        raise SizeBoundExceeded(
            f"|G|={len(G.elements)} exceeds bound {max_elements}"
        )
    non_identities = [g for g in G.elements if g not in set(G.identities)]
    out = []
    for size in range(len(non_identities) + 1):
        for combo in itertools.combinations(range(len(non_identities)), size):
            subset = set(G.identities) | {non_identities[i] for i in combo}
            closed = all(
                G.product[(a, b)] in subset
                for a, b in itertools.product(subset, repeat=2)
                if (a, b) in G.product
            ) and all(G.inverse[a] in subset for a in subset)
            if closed:
                out.append(tuple(g for g in G.elements if g in subset))
    return out


def pairwise_coset_space(G, H):
    """Oracle: the left cosets of a wide subgroupoid found by testing
    a ~ b iff b^{-1}a exists and lies in H for every b against each new
    a, then the partition checked on all |G|^2 ordered pairs."""
    wide, cert = is_wide_subgroupoid(G, H)
    if not wide:
        raise ValidationError(cert)
    hset = set(H)

    def related(a, b):
        prod = G.product.get((G.inverse[b], a))
        return prod is not None and prod in hset

    class_of = {}
    classes = []
    reps = []
    for a in G.elements:
        if a in class_of:
            continue
        members = tuple(b for b in G.elements if related(b, a))
        if a not in members:
            raise OracleMismatch(f"{a!r} not in its own coset")
        for b in members:
            if b in class_of:
                raise OracleMismatch("cosets do not partition the groupoid")
            class_of[b] = len(classes)
        classes.append(members)
        reps.append(a)
    for a, b in itertools.product(G.elements, repeat=2):
        if related(a, b) != (class_of[a] == class_of[b]):
            raise OracleMismatch(f"coset relation not an equivalence at ({a!r}, {b!r})")
    return CosetSpace(G, tuple(classes), tuple(reps), class_of)


def set_partitions(items):
    """Every set partition of a list, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def wide_subgroupoid_count(n, m):
    """The number of wide subgroupoids of P_n x C_m: the sum over set
    partitions of the objects of the product over parts B of
    sum_{d | m} d^(|B| - 1)."""
    total = 0
    for part in set_partitions(list(range(n))):
        term = 1
        for block in part:
            term *= sum(d ** (len(block) - 1) for d in range(1, m + 1) if m % d == 0)
        total += term
    return total


def idempotents_of(R, E, max_support=16):
    """Oracle: the supports of every nonzero idempotent of a unital ideal,
    that is, every nonempty block subset, by size, then position."""
    sup = tuple(E)
    for b in sup:
        R.slot_index(b)
    if len(sup) > max_support:
        raise SizeBoundExceeded(f"ideal support {len(sup)} exceeds {max_support}")
    return [
        tuple(sup[i] for i in combo)
        for size in range(1, len(sup) + 1)
        for combo in itertools.combinations(range(len(sup)), size)
    ]


def _equalising_idempotent(R, support, xs, ys):
    for sub in idempotents_of(R, support):
        pi = R.unit(sub)
        if all(R.mul(x, pi) == R.mul(y, pi) for x, y in zip(xs, ys)):
            return pi
    return None


def idempotent_strongly_distinct(f, g):
    """Oracle: strongly_distinct scanning every nonzero idempotent of the
    target ideal instead of its single blocks."""
    pi = _equalising_idempotent(f.ring, f.target_support, f.images, g.images)
    return pi is None, pi


def idempotent_is_beta_strong(T, A, H):
    """Oracle: is_beta_strong scanning every nonzero idempotent of E_g."""
    G = A.groupoid
    hset = set(H)
    for gi_idx, g in enumerate(G.elements):
        for h in G.elements[gi_idx + 1:]:
            q = G.product.get((G.inverse[g], h))
            if G.r[g] != G.r[h] or q is None or q in hset:
                continue
            pi = _equalising_idempotent(
                A.ring, A.support[g],
                [A.apply(g, t) for t in T.basis],
                [A.apply(h, t) for t in T.basis],
            )
            if pi is not None:
                return False, (g, h, pi)
    return True, None


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


def pair_cyclic_doc(family, n, m, k=1, p=2):
    """P_n x C_m over F_{p^k}: element g{j}_{i}_{a} is an arrow from object
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
    field = {"p": p, "k": k}
    if k > 1:  # MODULI are over F_2
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


def read_fixture(name):
    """The whole document of a shipped fixture file."""
    with open(os.path.join(FIXTURE_DIR, name)) as fh:
        return json.load(fh)


def fixture_doc(name):
    doc = read_fixture(name)
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


PROBLEM_SOURCES = FIXTURE_FILES + PAIR_CYCLIC_SPECS


def cyclic_on_copies(m, twists, k=1):
    """C_m = {a0, ..., a(m-1)} on one object over F_{2^k}, acting on one
    copy of its regular set per entry of twists: a_j sends block w{c}_{t}
    to w{c}_{t+j} with Frobenius exponent j * twists[c] mod k (m twists[c]
    must be 0 mod k)."""
    elements = [f"a{j}" for j in range(m)]
    blocks = [f"w{c}_{t}" for c in range(len(twists)) for t in range(m)]
    action = {
        f"a{j}": {
            "sigma": {f"w{c}_{t}": f"w{c}_{(t + j) % m}"
                      for c in range(len(twists)) for t in range(m)},
            "frob": {f"w{c}_{t}": j * tw % k
                     for c, tw in enumerate(twists) for t in range(m)},
        }
        for j in range(1, m)
    }
    field = {"p": 2, "k": k}
    if k > 1:
        field["modulus"] = MODULI[k]
    return {
        "field": field,
        "groupoid": {"elements": elements,
                     "products": [[f"a{i}", f"a{j}", f"a{(i + j) % m}"]
                                  for i in range(m) for j in range(m)]},
        "ring": {"blocks": blocks, "ideals": {"a0": blocks}},
        "action": action,
    }


def pair_on_two_orbits():
    """P_2 over F_2, object i owning blocks v{i} and w{i}; the arrow from i
    to j sends v{i} to v{j} and w{i} to w{j}: two orbits of blocks."""
    def label(j, i):
        return f"g{j}_{i}"

    elements = [label(j, i) for j in range(2) for i in range(2)]
    return {
        "field": {"p": 2, "k": 1},
        "groupoid": {"elements": elements,
                     "products": [[label(q, j), label(j, i), label(q, i)]
                                  for q in range(2) for j in range(2) for i in range(2)]},
        "ring": {"blocks": ["v0", "w0", "v1", "w1"],
                 "ideals": {label(i, i): [f"v{i}", f"w{i}"] for i in range(2)}},
        "action": {label(j, i): {"sigma": {f"v{i}": f"v{j}", f"w{i}": f"w{j}"}}
                   for j in range(2) for i in range(2) if i != j},
    }


# Problems with several G-orbits of blocks, by name, for the Ω tests.
ORBIT_DOCS = {
    **{f"C{m} on {r} regular copies": cyclic_on_copies(m, (0,) * r)
       for m, r in ((2, 2), (2, 3), (3, 2), (4, 2))},
    **{f"C2 on 2 orbits over F4, twists {tw}": cyclic_on_copies(2, tw, 2)
       for tw in ((1, 0), (1, 1), (0, 0))},
    "P2 on two orbits": pair_on_two_orbits(),
}


def problem_doc(source):
    """The document of a shipped fixture file or of a PAIR_CYCLIC_SPECS entry."""
    return fixture_doc(source) if isinstance(source, str) else pair_cyclic_doc(*source)


def doc_action(doc):
    """The validated action of a problem document."""
    return cli.Problem(doc).build(lambda line: None)[2]


def problem_action(source):
    """The validated action of problem_doc(source)."""
    return doc_action(problem_doc(source))


Fixture = namedtuple("Fixture", "name groupoid ring action wide_subgroupoids")


def load_fixture(name):
    """A shipped fixture file built through doc_action, with the file's
    named subgroupoids as wide_subgroupoids.  "all" names the whole
    groupoid when the file has no entry of that name (fix1 calls it H1)."""
    doc = read_fixture(name)
    A = doc_action(doc)
    subs = {key: tuple(labels) for key, labels in doc["subgroupoids"].items()}
    subs.setdefault("all", tuple(A.groupoid.elements))
    return Fixture(name, A.groupoid, A.ring, A, subs)


def distinct_subgroupoids(fix):
    """The fixture's named wide subgroupoids, each label set once: fix1
    names its whole groupoid twice, as H1 and as all."""
    named = fix.wide_subgroupoids.values()
    return list({frozenset(labels): labels for labels in named}.values())


# Corrupted structural bases ----------------------------------------------

def basis_mutations(field, vecs):
    """(kind, mutate) pairs that corrupt a twisted_invariant_basis result:
    drop one vector, or apply the Frobenius to one node's value in every
    vector (an automorphism of that block)."""
    out = [("drop", lambda vs, i=i: vs[:i] + vs[i + 1:]) for i in range(len(vecs))]
    for n in dict.fromkeys(n for vec in vecs for n in vec):
        out.append((
            "twist",
            lambda vs, n=n: [
                {m: field.power(v, field.p) if m == n else v for m, v in vec.items()}
                for vec in vs
            ],
        ))
    return out


def corrupted_basis_outcomes(module, compute, space):
    """Run compute() once per corruption of the basis it gets from
    module.twisted_invariant_basis and return the kinds of corruption that
    raised OracleMismatch.

    A corruption that leaves the span unchanged must be accepted.  Every
    other one must raise OracleMismatch: the oracle runs before the
    Subalgebra checks for the unit and for closure."""
    orig = module.twisted_invariant_basis
    expected = set(compute().elements)
    seen = []

    def recording(*args):
        seen.append(orig(*args))
        return seen[-1]

    with mock.patch.object(module, "twisted_invariant_basis", recording):
        compute()
    caught = set()
    zero = space.field.zero
    for kind, mutate in basis_mutations(space.field, seen[-1]):
        basis = [tuple(vec.get(s, zero) for s in space.slots) for vec in mutate(seen[-1])]
        with mock.patch.object(module, "twisted_invariant_basis",
                               lambda *a, m=mutate: m(orig(*a))):
            if set(span_elements(space, basis)) == expected:
                assert set(compute().elements) == expected
            else:
                with pytest.raises(OracleMismatch):
                    compute()
                caught.add(kind)
    return caught


# Oracles for the validators ----------------------------------------------

def walk_conform(value, shape, where):
    """Oracle: cli._conform as an item-by-item walk of the whole shape,
    with no flat isinstance pass over lists and maps of leaves."""
    shapes = shape if isinstance(shape, cli.OneOf) else (shape,)
    for shape in shapes:
        if isinstance(value, cli._type(shape)):
            break
    else:
        raise InvalidInput(f"{cli._where(where)} must be "
                           f"{' or '.join(cli.NAMES[cli._type(s)] for s in shapes)}")
    if isinstance(shape, dict):
        for key, sub in shape.items():
            name = key.rstrip("?")
            if name in value:
                walk_conform(value[name], sub, (where, "{} key {!r}", name))
            elif name == key:
                raise InvalidInput(f"{cli._where(where)} is missing key {name!r}")
    elif isinstance(shape, (list, cli.Each)):
        item = shape[0] if isinstance(shape, list) else shape.shape
        place = ("{} item {}" if isinstance(shape, list) else
                 shape.kind + " {1!r}" if shape.kind else "{} entry {!r}")
        leaf = type(item) in (type, tuple)
        for name, x in enumerate(value) if isinstance(shape, list) else value.items():
            if not (leaf and isinstance(x, item)):
                walk_conform(x, item, (where, place, name))
    return value


def left_normed_closure(product, generators) -> set:
    """Every left-normed product (...((g1 g2) g3) ... gk) of the
    generators that the product table defines."""
    reached = set(generators)
    frontier = list(reached)
    while frontier:
        frontier = [
            xg for x in frontier for g in generators
            if (xg := product.get((x, g))) is not None and xg not in reached
        ]
        reached.update(frontier)
    return reached


def greedy_generators(elements, product) -> tuple:
    """Each element, in order, that is not a left-normed product of the
    elements taken before it, with the closure recomputed from scratch
    for every element."""
    generators = []
    for g in elements:
        if g not in left_normed_closure(product, generators):
            generators.append(g)
    return tuple(generators)


def first_nonassociative_triple(elements, products):
    """The first (g, h, l) in element order with gh and hl defined and
    (gh)l != g(hl): the associativity loop over composable triples that
    validate_groupoid used before Light's test, kept as the reference for
    its witness.  None when there is no such triple."""
    product = {(a, b): ab for a, b, ab in products}
    for g in elements:
        for h in elements:
            if (g, h) not in product:
                continue
            gh = product[(g, h)]
            for l in elements:
                if (h, l) in product and product[(gh, l)] != product[(g, product[(h, l)])]:
                    return g, h, l
    return None


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
                raise InvalidInput(f"product triple references unknown label {lbl!r}")
        if (a, b) in product and product[(a, b)] != ab:
            raise InvalidInput(f"conflicting products for ({a!r}, {b!r})")
        product[(a, b)] = ab

    d, r = {}, {}
    for g in elements:
        right_units = [x for x in elements if product.get((g, x)) == g]
        left_units = [x for x in elements if product.get((x, g)) == g]
        if not right_units or not left_units:
            raise ValidationError(f"no d/r identities for {g!r}")
        if len(right_units) > 1 or len(left_units) > 1:
            raise ValidationError.axiom("unique-identities", (g, right_units, left_units))
        d[g], r[g] = right_units[0], left_units[0]

    for g, h, l in itertools.product(elements, repeat=3):
        gh = product.get((g, h))
        hl = product.get((h, l))
        lhs = product.get((gh, l)) if gh is not None else None
        rhs = product.get((g, hl)) if hl is not None else None
        both_factors = gh is not None and hl is not None
        if (rhs is not None) != both_factors:
            raise ValidationError.axiom("existence", (g, h, l))
        if (rhs is not None) != (lhs is not None):
            raise ValidationError.axiom("existence", (g, h, l))
        if rhs is not None and lhs != rhs:
            raise ValidationError.axiom("associativity", (g, h, l))

    for g, h in itertools.product(elements, repeat=2):
        if ((g, h) in product) != (d[g] == r[h]):
            raise ValidationError.axiom("composability", (g, h))

    inverse = {}
    for g in elements:
        cands = [
            x
            for x in elements
            if product.get((x, g)) == d[g] and product.get((g, x)) == r[g]
        ]
        if not cands:
            raise ValidationError(f"no inverse for {g!r}")
        if len(cands) > 1:
            raise ValidationError(f"multiple inverses for {g!r}: {cands}")
        inverse[g] = cands[0]
    if inverses:
        for g, gi in inverses.items():
            if g not in known or gi not in known:
                raise InvalidInput("inverse map references unknown label")
            if inverse[g] != gi:
                raise ValidationError.axiom("user-inverse", (g, gi, inverse[g]))

    identities = [g for g in elements if any(d[x] == g or r[x] == g for x in elements)]

    for g in elements:
        gi = inverse[g]
        if d[gi] != r[g] or r[gi] != d[g]:
            raise ValidationError.axiom("inverse-endpoints", g)
        if inverse[gi] != g:
            raise ValidationError.axiom("double-inverse", g)
    for (g, h), gh in product.items():
        if d[gh] != d[h] or r[gh] != r[g]:
            raise ValidationError.axiom("product-endpoints", (g, h))
        if ((inverse[h], inverse[g]) in product) != ((g, h) in product):
            raise ValidationError.axiom("inverse-pair", (g, h))
        if product[(inverse[h], inverse[g])] != inverse[gh]:
            raise ValidationError.axiom("antihomomorphism", (g, h))
        if (gh in identities) != (g == inverse[h]):
            raise ValidationError.axiom("identity-product", (g, h))
    for e in identities:
        if d[e] != e or r[e] != e or inverse[e] != e:
            raise ValidationError.axiom("identity-fixed", e)
    for g, h in itertools.product(elements, repeat=2):
        right_div = any(product.get((h, l)) == g for l in elements)
        if right_div != (r[g] == r[h]):
            raise ValidationError.axiom("right-division", (g, h))
        left_div = any(product.get((l, h)) == g for l in elements)
        if left_div != (d[g] == d[h]):
            raise ValidationError.axiom("left-division", (g, h))

    return Groupoid(elements, product, inverse, d, r, identities,
                    greedy_generators(elements, product))


def elementwise_validate_action(G, R, sigma, frob=None) -> AlgebraAction:
    """The action validator with beta_g o beta_h = beta_gh compared by
    transporting every F_p-basis vector of E_{d(h)}."""
    action = AlgebraAction(G, R, *_complete_maps(G, R, sigma, frob or {}))
    for g, h in G.composable:
        gh = G.product[(g, h)]
        for x in ideal_fp_basis(R, R.ideal(G.d[h])):
            if action.apply(g, action.apply(h, x)) != action.apply(gh, x):
                raise ValidationError(
                    f"beta[{g!r}] o beta[{h!r}] != beta[{gh!r}]",
                    witness=(g, h, R.format(x)),
                )
    return action


def pairwise_validate_gset(G, carrier, fiber, gamma) -> GSet:
    """The G-set validator with gamma_g o gamma_h = gamma_gh compared on
    every composable pair, in G.composable order."""
    carrier = tuple(carrier)
    fibers, full_gamma = _complete_gamma(G, carrier, fiber, gamma)
    for g, h in G.composable:
        gh = G.product[(g, h)]
        for x in fibers[G.d[h]]:
            if full_gamma[g][full_gamma[h][x]] != full_gamma[gh][x]:
                raise ValidationError(
                    f"gamma[{g!r}] o gamma[{h!r}] != gamma[{gh!r}] at {x!r}",
                    witness=(g, h, x),
                )
    return GSet(G, carrier, fiber, full_gamma)


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


# The benchmark's traced points ---------------------------------------------

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def layer_points():
    """bench/spans.py's LAYER_POINTS: (module, function or Class.method,
    metric) for every point a traced benchmark run wraps."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_POINTS
