"""Exact arithmetic in finite fields F_{p^k} and deterministic linear solving.

A scalar of F_{p^k} is the integer n in [0, p^k) whose base-p digits are
its coefficients in the power basis of the modulus, lowest power first
(over F_4 = F_2[t]/(t^2+t+1), 2 is t and 3 is t+1).  Arithmetic reads
tables that make_field builds.  Only FieldSpec.element (JSON coefficients)
and format (reports) deal in coefficients; digits and flatten give the F_p
coordinates that FpSpan works on.  Every module downstream reduces its
questions to the operations here, so determinism (fixed pivot order, fixed
enumeration order) is part of the contract.

There is one elimination engine, FpSpan, over F_p.  Rank, membership,
coordinates and canonical keys use it directly, and solve_linear restricts
a system whose entries lie in a subfield L of F_{p^k}, given by an F_p-basis
of L, to an F_p-system with the same solutions, and reads the solution for
every right-hand side off one elimination of it.
"""

from __future__ import annotations

import bisect
import itertools

from .errors import InvalidInput, OracleMismatch, SizeBoundExceeded

Scalar = int

# The largest field make_field builds: its two product tables have
# FIELD_ORDER_BOUND^2 = 2^16 entries each.
FIELD_ORDER_BOUND = 1 << 8


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# Polynomials over F_p as coefficient lists, lowest degree first.

def _ptrim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _pmod(p, a, m):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while _ptrim(a) and len(a) - 1 >= dm:
        shift = len(a) - 1 - dm
        c = (a[-1] * inv_lead) % p
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
    return a


def _monic_polys(p, degree):
    for tail in itertools.product(range(p), repeat=degree):
        yield list(tail) + [1]


class FieldSpec:
    """A finite field F_{p^k}; build through :func:`make_field`.

    The tables are built here, once per field, and read by every operation:
    add_table[x][y] and mul_table[x][y] hold x + y and x y, digits[x] the
    coefficients of x, and frobenius_table(p^t) the map x -> x^(p^t) for
    0 <= t <= k.  Nothing in the package subtracts scalars: elimination
    happens over F_p, in FpSpan.

    No entry takes a polynomial product: n > 0 is lower[n] + t^i for its
    lowest nonzero digit i, so row n is row lower[n] after y -> y + t^i
    (add) or plus y -> y t^i (mul), with t^k = -(modulus below t^k).
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p, self.k, self.modulus = p, k, modulus
        self.order = q = p**k
        self.zero, self.one = 0, 1
        self.digits = [tuple(n // p**i % p for i in range(k)) for n in range(q)]
        code = self.element
        low = [0] + [next(i for i, c in enumerate(d) if c) for d in self.digits[1:]]
        lower = [n - p ** low[n] for n in range(q)]
        step = [[code(d[:i] + (d[i] + 1,) + d[i + 1:]) for d in self.digits] for i in range(k)]
        times_t = [code([a - d[-1] * c for a, c in zip((0,) + d[:-1], modulus)])
                   for d in self.digits]
        by_t = [list(range(q))]
        for _ in range(k - 1):
            by_t.append([times_t[y] for y in by_t[-1]])
        self.add_table = add = [list(range(q))]
        for n in range(1, q):
            add.append([add[lower[n]][y] for y in step[low[n]]])
        self.mul_table = mul = [[0] * q]
        for n in range(1, q):
            mul.append([add[a][b] for a, b in zip(mul[lower[n]], by_t[low[n]])])
        frob = [self.power(x, p) for x in range(q)]
        self._frobenius_tables = tables = {1: list(range(q))}
        for t in range(1, k + 1):
            tables[p**t] = [frob[x] for x in tables[p ** (t - 1)]]

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, k={self.k})"

    def element(self, coeffs) -> Scalar:
        """The scalar with a JSON coefficient list, lowest power first, each
        coefficient taken mod p; an int c is the F_p constant c mod p."""
        if isinstance(coeffs, int):
            return coeffs % self.p
        cs = [c % self.p for c in coeffs]
        if any(cs[self.k:]):
            raise InvalidInput(f"coefficient vector longer than k={self.k}")
        return sum(c * self.p**i for i, c in enumerate(cs))

    def elements(self) -> range:
        """All p^k scalars in order."""
        return range(self.order)

    def add(self, x: Scalar, y: Scalar) -> Scalar:
        return self.add_table[x][y]

    def mul(self, x: Scalar, y: Scalar) -> Scalar:
        return self.mul_table[x][y]

    def power(self, x: Scalar, n: int) -> Scalar:
        out = self.one
        base = x
        while n:
            if n & 1:
                out = self.mul_table[out][base]
            base = self.mul_table[base][base]
            n >>= 1
        return out

    def frobenius_table(self, q: int) -> list[Scalar]:
        """x -> x^q for a Frobenius power q = p^t, 0 <= t <= k, as a list
        indexed by scalars."""
        return self._frobenius_tables[q]

    def subfield_basis(self, d: int) -> list[Scalar]:
        """An F_p-basis of the subfield F_{p^d}, d | k: the fixed points of
        x -> x^(p^d) in scalar order, each kept when independent of those
        before it."""
        fixed, span = self.frobenius_table(self.p**d), FpSpan(self.p)
        return [x for x in self.elements() if fixed[x] == x and span.insert(self.digits[x])]

    def frobenius(self, x: Scalar, e: int) -> Scalar:
        if not 0 <= e < self.k:
            raise InvalidInput(f"exponent {e} outside [0, {self.k})")
        return self.frobenius_table(self.p**e)[x]

    def flatten(self, scalars) -> tuple[int, ...]:
        """The F_p vector of a sequence of scalars: their digits, in order."""
        if self.k == 1:
            return tuple(scalars)
        digits = self.digits
        return tuple(c for s in scalars for c in digits[s])

    def format(self, x: Scalar) -> str:
        if self.k == 1:
            return str(x)
        terms = []
        for i in range(self.k - 1, -1, -1):
            c = self.digits[x][i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms) if terms else "0"


def make_field(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Validate (p, k, modulus) and return a usable field.

    The modulus must be monic of degree k and irreducible over F_p; it is
    ignored (and may be omitted) when k = 1.
    """
    if not isinstance(p, int) or not _is_prime(p):
        raise InvalidInput(f"{p} is not prime")
    if not isinstance(k, int) or k < 1:
        raise InvalidInput(f"extension degree must be >= 1, got {k}")
    if p**k > FIELD_ORDER_BOUND:
        raise SizeBoundExceeded(f"field has {p}^{k} elements, above {FIELD_ORDER_BOUND}")
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    if modulus is None:
        raise InvalidInput("modulus required when k > 1")
    if not isinstance(modulus, (list, tuple)) or not all(isinstance(c, int) for c in modulus):
        raise InvalidInput(f"modulus must be a list of integers, got {modulus!r}")
    mod = [c % p for c in modulus]
    if len(mod) != k + 1:
        raise InvalidInput(f"modulus must have length k+1={k + 1}, got {len(mod)}")
    if mod[-1] != 1:
        raise InvalidInput("modulus must be monic")
    for d in range(1, k // 2 + 1):
        for cand in _monic_polys(p, d):
            if not _ptrim(_pmod(p, mod, cand)):
                raise InvalidInput(
                    f"modulus has factor of degree {d}", witness=tuple(cand)
                )
    return FieldSpec(p, k, tuple(mod))


# Prime-field span bookkeeping on flattened integer vectors.  Used for
# membership, coordinates and dimension counts everywhere downstream.

class FpSpan:
    """Echelonized span over F_p, remembering coordinates w.r.t. the
    vectors that were inserted (which the callers keep independent).

    Each stored row has a leading 1 at its pivot and the coordinate tuple
    of the row over the vectors inserted before it and itself; a shorter
    tuple reads as zero-padded.  The pivots are kept sorted."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self.pivots: list[int] = []
        self.count = 0

    def _reduce(self, vec):
        vec = list(vec)
        combo = [0] * self.count
        for pivot in self.pivots:
            if pivot < len(vec) and vec[pivot]:
                c = vec[pivot]
                row, rcombo = self.rows[pivot]
                for i in range(pivot, len(row)):
                    vec[i] = (vec[i] - c * row[i]) % self.p
                for i, v in enumerate(rcombo):
                    combo[i] = (combo[i] - c * v) % self.p
        return vec, combo

    def insert(self, vec) -> bool:
        """Add vec to the span; True if it was independent."""
        red, combo = self._reduce(vec)
        pivot = next((i for i, v in enumerate(red) if v), None)
        if pivot is None:
            return False
        inv = pow(red[pivot], self.p - 2, self.p)
        red = tuple((inv * v) % self.p for v in red)
        rcombo = tuple((inv * v) % self.p for v in combo) + (inv % self.p,)
        self.rows[pivot] = (red, rcombo)
        bisect.insort(self.pivots, pivot)
        self.count += 1
        return True

    def contains(self, vec) -> bool:
        red, _ = self._reduce(vec)
        return not any(red)

    def coords(self, vec):
        """Coordinates of vec over the inserted independent vectors, or None."""
        red, combo = self._reduce(vec)
        if any(red):
            return None
        return tuple((-c) % self.p for c in combo)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def rref(self) -> tuple:
        """The reduced row echelon basis of the span, in pivot order.

        Every stored row has a leading 1 at its pivot and zeros before it,
        so only rows with a smaller pivot can be nonzero in a pivot
        column.  Back-substitution from the largest pivot down clears
        those entries.  The reduced row echelon form of a subspace is
        unique, so two spans are equal exactly when these tuples are."""
        pivots = self.pivots
        rows = [list(self.rows[pv][0]) for pv in pivots]
        for i in reversed(range(len(pivots))):
            pv, row = pivots[i], rows[i]
            for above in rows[:i]:
                c = above[pv]
                if c:
                    for j in range(pv, len(row)):
                        above[j] = (above[j] - c * row[j]) % self.p
        return tuple(map(tuple, rows))


def fp_basis_scalars(field_: FieldSpec) -> list[Scalar]:
    """The power basis 1, t, ..., t^{k-1} as scalars: p^m has digit m set."""
    return [field_.p**m for m in range(field_.k)]


def solve_linear(field_: FieldSpec, matrix, rhss, scalars) -> list:
    """Solve matrix · x = rhs over F_{p^k} for every rhs in rhss, all read
    off one elimination: one solution per rhs, free unknowns zero, or None
    where that system is inconsistent.  Every entry of matrix and of the
    rhss lies in the subfield L of F_{p^k} with F_p-basis scalars.

    The system is restricted to F_p: unknown j becomes the d = len(scalars)
    F_p columns F.flatten(a_ij a over rows i), a over scalars, inserted
    into one FpSpan in the order (j, a).  The unknowns with independent
    columns are the pivots, and x_j = sum_a c_ja a for the coordinates c
    of F.flatten(rhs) over the pivot columns.

    This is the answer of row reduction directly over F_{p^k}, leftmost
    pivot column first.  The L-span W of columns 0..j-1 is the F_p-span of
    their columns a_i a.  If a_j lies in W, so does every a_j a.  If not,
    W meets L a_j only in 0, so the d columns a_j a are independent.  So
    the F_p pivots are the d-fold copies of the pivots over L, only the
    first scalar's column needs testing, and as coordinates over the
    pivots are unique, both give the same solution.  Independence and
    consistency of a system over L do not change in the extension
    F_{p^k}, so these are its pivots and solutions over F_{p^k} too.
    """
    F = field_
    ncols = len(matrix[0]) if matrix else 0
    if any(len(row) != ncols for row in matrix):
        raise OracleMismatch("ragged matrix")
    if any(len(rhs) != len(matrix) for rhs in rhss):
        raise OracleMismatch("rhs length differs from row count")

    def column(j, a):
        times_a = F.mul_table[a]
        return F.flatten(times_a[row[j]] for row in matrix)

    span = FpSpan(F.p)
    pivots = []
    for j in range(ncols):
        if span.insert(column(j, scalars[0])):
            pivots.append(j)
            for a in scalars[1:]:
                span.insert(column(j, a))
    d = len(scalars)
    solutions = []
    for rhs in rhss:
        coords = span.coords(F.flatten(rhs))
        if coords is None:
            solutions.append(None)
            continue
        x = [F.zero] * ncols
        for n, j in enumerate(pivots):
            for c, a in zip(coords[n * d : (n + 1) * d], scalars):
                x[j] = F.add_table[x[j]][F.mul_table[c][a]]
        solutions.append(x)
    return solutions
