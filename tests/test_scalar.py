import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import gauss_jordan_solve
from gpdgalois.errors import InvalidInput, OracleMismatch, SizeBoundExceeded
from gpdgalois.scalar import (
    FIELD_ORDER_BOUND,
    FpSpan,
    _pmod,
    fp_basis_scalars,
    make_field,
    solve_linear,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2, [1, 1, 1])
F9 = make_field(3, 2, [1, 0, 1])
F8 = make_field(2, 3, [1, 1, 0, 1])
F16 = make_field(2, 4, [1, 1, 0, 0, 1])

T = F4.element([0, 1])


def pmul(p, a, b):
    """The product of two polynomials over F_p, coefficient lists lowest
    degree first and no zero leading coefficient (the zero polynomial is
    []): the reference the field tables are checked against."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def test_make_field_prime():
    assert F2.order == 2
    assert F2.elements() == range(2)


def test_make_field_quartic():
    # irreducibility oracle: x^2+x+1 has no roots over F_2
    for a in (0, 1):
        assert (a * a + a + 1) % 2 == 1
    assert F4.order == 4
    assert len(F4.elements()) == 4


def test_make_field_rejects_nonprime():
    with pytest.raises(InvalidInput, match="4 is not prime"):
        make_field(4)


def test_make_field_rejects_reducible():
    with pytest.raises(InvalidInput, match="modulus has factor of degree 1"):
        make_field(2, 2, [1, 0, 1])  # (x+1)^2


def test_make_field_rejects_bad_degree():
    with pytest.raises(InvalidInput, match=r"modulus must have length k\+1=3, got 4"):
        make_field(2, 2, [1, 1, 1, 1])
    with pytest.raises(InvalidInput, match="modulus required when k > 1"):
        make_field(2, 2)
    with pytest.raises(InvalidInput, match="extension degree must be >= 1, got 0"):
        make_field(2, 0)


def test_frobenius_identity_exponent():
    assert F2.frobenius(F2.one, 0) == F2.one


def test_frobenius_on_quartic_generator():
    # oracle: direct squaring, t^2 = t + 1 under x^2 + x + 1
    assert F4.mul(T, T) == F4.element([1, 1])
    assert F4.frobenius(T, 1) == F4.element([1, 1])
    assert F4.frobenius(F4.add(T, F4.one), 1) == T


def test_frobenius_exponent_range():
    with pytest.raises(InvalidInput, match=r"exponent 2 outside \[0, 2\)"):
        F4.frobenius(T, 2)


@pytest.mark.parametrize("field", [F2, F3, F4, F9])
def test_frobenius_iterated_is_identity(field):
    for x in field.elements():
        y = x
        for _ in range(field.k):
            y = field.frobenius(y, 1 % field.k) if field.k > 1 else y
        if field.k > 1:
            assert y == x
        assert field.power(x, field.p**field.k) == x


@pytest.mark.parametrize("field", [F2, F4, F8, F16], ids=repr)
def test_frobenius_table_matches_repeated_multiplication(field):
    for t in range(field.k):
        q = field.p**t
        table = field.frobenius_table(q)
        for x in field.elements():
            expected = field.one
            for _ in range(q):
                expected = field.mul(expected, x)
            assert table[x] == expected
            assert field.frobenius(x, t) == expected
        assert field.frobenius_table(q) is table
        assert len(table) == field.order


@pytest.mark.parametrize("field", [F4, F9])
def test_field_axioms_exhaustive(field):
    elems = field.elements()
    for x, y, z in itertools.product(elems, repeat=3):
        assert field.mul(x, field.mul(y, z)) == field.mul(field.mul(x, y), z)
        assert field.mul(x, field.add(y, z)) == field.add(
            field.mul(x, y), field.mul(x, z)
        )
    for x in elems:
        assert field.add(x, field.mul(field.element(-1), x)) == field.zero
        if x != field.zero:
            assert field.mul(x, field.power(x, field.order - 2)) == field.one


def solve_one(field, matrix, rhs):
    """solve_linear of one right-hand side over the whole field."""
    return solve_linear(field, matrix, [rhs], fp_basis_scalars(field))[0]


def test_solve_linear_trivial():
    assert solve_one(F2, [[1]], [0]) == [0]


def test_solve_linear_underdetermined():
    # oracle: enumerate all 4 candidate vectors over F_2
    sols = [
        (a, b)
        for a, b in itertools.product((0, 1), repeat=2)
        if (a + b) % 2 == 1
    ]
    assert ((1, 0) in sols) and ((0, 1) in sols)
    assert solve_one(F2, [[1, 1]], [1]) == [1, 0]


def test_solve_linear_inconsistent():
    assert solve_one(F2, [[0]], [1]) is None


def test_solve_linear_ragged_matrix_is_a_library_fault():
    # every caller builds its matrix inside the package
    with pytest.raises(OracleMismatch, match="ragged matrix"):
        solve_linear(F2, [[1, 0], [1]], [[0, 0]], [1])


def test_solve_linear_rhs_length_is_a_library_fault():
    with pytest.raises(OracleMismatch, match="rhs length differs from row count"):
        solve_linear(F2, [[1], [0]], [[0, 1], [1]], [1])


@st.composite
def linear_systems(draw):
    field = draw(st.sampled_from([F2, F3, F4]))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    elems = field.elements()
    matrix = [
        [elems[draw(st.integers(0, len(elems) - 1))] for _ in range(cols)]
        for _ in range(rows)
    ]
    rhs = [elems[draw(st.integers(0, len(elems) - 1))] for _ in range(rows)]
    return field, matrix, rhs


@settings(max_examples=150, deadline=None)
@given(linear_systems())
def test_solve_linear_substitution(data):
    field, matrix, rhs = data
    solution = solve_one(field, matrix, rhs)

    def apply(vec):
        result = []
        for row in matrix:
            acc = field.zero
            for a, v in zip(row, vec):
                acc = field.add(acc, field.mul(a, v))
            result.append(acc)
        return result

    if solution is not None:
        assert apply(solution) == rhs
    else:
        # oracle: small systems can be checked by full enumeration
        total = len(field.elements()) ** len(matrix[0])
        if total <= 256:
            assert not any(
                apply(list(cand)) == rhs
                for cand in itertools.product(field.elements(), repeat=len(matrix[0]))
            )


def _combination(field, coeffs, vectors):
    out = [field.zero] * len(vectors[0])
    for c, vec in zip(coeffs, vectors):
        out = [field.add(a, field.mul(c, v)) for a, v in zip(out, vec)]
    return out


@st.composite
def dependent_systems(draw):
    """Systems over F_2, F_3, F_4 and F_8 in which a column or the
    right-hand side is often a combination of earlier columns, so pivots,
    free variables and inconsistent systems all occur."""
    field = draw(st.sampled_from([F2, F3, F4, F8]))
    pick = st.sampled_from(field.elements())
    rows = draw(st.integers(1, 5))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        if columns and draw(st.booleans()):
            coeffs = [draw(pick) for _ in columns]
            columns.append(_combination(field, coeffs, columns))
        else:
            columns.append([draw(pick) for _ in range(rows)])
    if draw(st.booleans()):
        rhs = _combination(field, [draw(pick) for _ in columns], columns)
    else:
        rhs = [draw(pick) for _ in range(rows)]
    matrix = [[col[i] for col in columns] for i in range(rows)]
    return field, matrix, rhs


@settings(max_examples=300, deadline=None)
@given(dependent_systems())
def test_solve_linear_matches_gauss_jordan(data):
    field, matrix, rhs = data
    assert solve_one(field, matrix, rhs) == gauss_jordan_solve(field, matrix, rhs)[0]


def _subfield(field, d):
    """The elements of the subfield F_{p^d} of field, in scalar order."""
    fixed = field.frobenius_table(field.p**d)
    return [x for x in field.elements() if fixed[x] == x]


@st.composite
def subfield_systems(draw):
    """Systems over F_2 inside F_4 and F_8 and over F_4 inside F_16, with
    the subfield's F_p-basis and several right-hand sides.  Columns and
    right-hand sides are often combinations of earlier columns, and half
    the systems are square, so singular square systems occur."""
    field, d = draw(st.sampled_from([(F4, 1), (F8, 1), (F16, 2)]))
    pick = st.sampled_from(_subfield(field, d))
    rows = draw(st.integers(1, 4))
    ncols = rows if draw(st.booleans()) else draw(st.integers(1, 4))
    columns = []
    for _ in range(ncols):
        if columns and draw(st.booleans()):
            columns.append(_combination(field, [draw(pick) for _ in columns], columns))
        else:
            columns.append([draw(pick) for _ in range(rows)])
    rhss = [
        _combination(field, [draw(pick) for _ in columns], columns)
        if draw(st.booleans()) else [draw(pick) for _ in range(rows)]
        for _ in range(draw(st.integers(1, 3)))
    ]
    matrix = [[col[i] for col in columns] for i in range(rows)]
    return field, field.subfield_basis(d), matrix, rhss


@settings(max_examples=300, deadline=None)
@given(subfield_systems())
def test_solve_linear_over_a_subfield_matches_gauss_jordan(data):
    # each right-hand side gets the answer of elimination over the whole
    # field; a square system reaches every unit vector exactly when it is
    # not singular, so a singular one gives None on some unit vector
    field, scalars, matrix, rhss = data
    n = len(matrix)
    square = n == len(matrix[0])
    if square:
        rhss = rhss + [[field.one if i == m else field.zero for i in range(n)]
                       for m in range(n)]
    got = solve_linear(field, matrix, rhss, scalars)
    assert got == [gauss_jordan_solve(field, matrix, rhs)[0] for rhs in rhss]
    if square:
        singular = bool(gauss_jordan_solve(field, matrix, [field.zero] * n)[1])
        assert (None in got[-n:]) == singular


def test_fpspan_coords_roundtrip():
    span = FpSpan(2)
    vecs = [(1, 1, 0), (0, 1, 1)]
    for v in vecs:
        assert span.insert(v)
    assert not span.insert((1, 0, 1))
    coords = span.coords((1, 0, 1))
    assert coords == (1, 1)
    assert span.coords((1, 0, 0)) is None
    assert span.dim == 2


def test_flatten_concatenates():
    assert F4.flatten([1, T]) == (1, 0, 0, 1)
    assert F2.flatten([1, 0, 1]) == (1, 0, 1)
    assert F9.flatten([F9.element([2, 1])]) == (2, 1)


def monic_irreducibles(p, k):
    """Every monic irreducible polynomial of degree k over F_p: the monic
    polynomials that are no product of two monic ones of lower degree."""
    def monic(d):
        return [list(tail) + [1] for tail in itertools.product(range(p), repeat=d)]

    reducible = {tuple(pmul(p, a, b)) for d in range(1, k) for a in monic(d) for b in monic(k - d)}
    return [f for f in monic(k) if tuple(f) not in reducible]


SMALL_FIELDS = [
    (p, k, modulus)
    for p, k in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1),
                 (13, 1)]
    for modulus in (monic_irreducibles(p, k) if k > 1 else [None])
]


@pytest.mark.parametrize("p,k,modulus", SMALL_FIELDS, ids=str)
def test_tables_match_polynomial_arithmetic(p, k, modulus):
    field = make_field(p, k, modulus)
    mod = modulus or [0, 1]

    def reduce(poly):
        out = _pmod(p, poly, mod)
        return tuple(out + [0] * (k - len(out)))

    digits = list(itertools.product(range(p), repeat=k))
    assert len(field.digits) == field.order == p**k
    assert sorted(field.digits) == digits
    for x, y in itertools.product(field.elements(), repeat=2):
        dx, dy = field.digits[x], field.digits[y]
        assert field.digits[field.add(x, y)] == tuple((a + b) % p for a, b in zip(dx, dy))
        assert field.digits[field.mul(x, y)] == reduce(pmul(p, list(dx), list(dy)))
    for x in field.elements():
        dx = field.digits[x]
        for t in range(k + 1):
            power = [1]
            for _ in range(p**t):
                power = list(reduce(pmul(p, power, list(dx))))
            assert field.digits[field.frobenius_table(p**t)[x]] == tuple(power)


@pytest.mark.parametrize("p,k,modulus", [(3, 5, [1, 2, 0, 0, 0, 1]),
                                         (2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])], ids=str)
def test_largest_tables_match_polynomial_arithmetic_on_a_sample(p, k, modulus):
    # F_243 and F_256 have too many pairs to check all; every pair with
    # one factor among the constants, the powers of t and a seeded sample
    field = make_field(p, k, modulus)

    def reduce(poly):
        out = _pmod(p, poly, modulus)
        return tuple(out + [0] * (k - len(out)))

    rng = random.Random(k)
    special = list(range(p)) + [p**i for i in range(k)] + [field.order - 1]
    sample = special + rng.sample(range(field.order), 40)
    for x in sample:
        for y in itertools.chain(special, rng.sample(range(field.order), 40)):
            dx, dy = field.digits[x], field.digits[y]
            assert field.digits[field.add(x, y)] == tuple((a + b) % p for a, b in zip(dx, dy))
            assert field.digits[field.mul(x, y)] == reduce(pmul(p, list(dx), list(dy)))
            assert field.mul(x, y) == field.mul(y, x)


def test_pmod_trims_the_dividend_first():
    # zero leading coefficients do not count towards the dividend's degree
    assert _pmod(2, [1, 0, 0], [1, 1, 1]) == [1]
    assert _pmod(2, [0, 0, 0], [1, 1, 1]) == []
    assert _pmod(3, [1, 2, 0, 0, 0], [2, 0, 1]) == [1, 2]
    rng = random.Random(0)
    for p, mod in [(2, [1, 1, 1]), (3, [1, 0, 1]), (2, [1, 1, 0, 1])]:
        for _ in range(50):
            a = [rng.randrange(p) for _ in range(rng.randrange(8))]
            assert _pmod(p, a + [0] * rng.randrange(1, 4), mod) == _pmod(p, a, mod)


@pytest.mark.parametrize("p,k,modulus", SMALL_FIELDS, ids=str)
def test_scalars_round_trip_through_coefficients(p, k, modulus):
    field = make_field(p, k, modulus)
    for x in field.elements():
        cs = field.digits[x]
        assert x == sum(c * p**i for i, c in enumerate(cs))  # base-p digits, lowest first
        assert field.element(list(cs)) == x
        assert field.flatten([x]) == cs
        terms = field.format(x).split("+")
        parsed = [0] * k
        for term in terms:
            coeff, _, power = term.partition("t")
            if power or term.endswith("t"):
                parsed[int(power.lstrip("^") or 1)] = int(coeff or 1)
            else:
                parsed[0] = int(coeff)
        assert tuple(parsed) == cs


def test_an_integer_coefficient_is_a_prime_field_constant():
    # JSON's 2 over F_4 is 2 mod 2 = 0, while the scalar 2 is t
    assert F4.element(2) == 0
    assert F4.element(3) == 1
    assert F4.element([0, 1]) == 2 == T
    assert F4.format(2) == "t"
    assert F9.element(5) == 2


def test_a_field_above_the_table_bound_refuses():
    assert FIELD_ORDER_BOUND == 256
    make_field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])  # F_256, the largest built
    with pytest.raises(SizeBoundExceeded, match="field has 257\\^1 elements"):
        make_field(257)
    with pytest.raises(SizeBoundExceeded, match="field has 2\\^9 elements"):
        make_field(2, 9, [1, 1] + [0] * 7 + [1])


@st.composite
def fp_vector_orders(draw):
    """Vectors over F_p, p in 2, 3, 5, the same vectors in another order,
    and one more vector to probe with."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 6))
    vector = st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(tuple)
    vecs = draw(st.lists(vector, max_size=8))
    return p, vecs, draw(st.permutations(vecs)), draw(vector)


@settings(max_examples=300, deadline=None)
@given(fp_vector_orders())
def test_fpspan_does_not_depend_on_insertion_order(case):
    # dim, membership and the reduced basis are the span's, and coords
    # rebuild each vector from the vectors that were kept, in either order
    p, vecs, shuffled, probe = case
    spans = []
    for order in (vecs, shuffled):
        span = FpSpan(p)
        kept = [v for v in order if span.insert(v)]
        assert span.dim == len(kept)
        for v in vecs + [probe]:
            coords = span.coords(v)
            assert (coords is not None) == span.contains(v)
            if coords is not None:
                assert tuple(sum(c * w[i] for c, w in zip(coords, kept)) % p
                             for i in range(len(v))) == v
        spans.append(span)
    a, b = spans
    assert a.dim == b.dim
    assert a.rref() == b.rref()
    assert a.contains(probe) == b.contains(probe)
    assert all(a.contains(v) for v in vecs)
