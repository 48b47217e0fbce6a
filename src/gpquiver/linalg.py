"""Exact linear algebra over the rationals and prime fields.

Scalars are plain Python objects in canonical form: over QQ an int when
integral and else a Fraction with denominator > 1, over GF(p) an int in
range(p), so integral data over QQ does no Fraction arithmetic.  Matrices
are stored densely, but elimination and products skip zero entries, which
both fields make falsy.  All eliminations use a fixed pivot order
(leftmost nonzero, topmost row), so every derived basis and projection is
deterministic for a given input.

`Matrix.rref` is one Gauss-Jordan loop over rows of Python ints for both
fields, so it does no Fraction arithmetic: over QQ each row is kept as a
primitive integer multiple of its scalar row, and Fractions are made only
for the non-integral entries of the result.  The field supplies the row
steps that differ (`Field`).

A canonical kernel basis (`kernel_basis`) is the identity on its free
rows, so the coordinates of a vector in its span are read off at those
rows and checked by one product, with no second elimination
(`free_row_coords`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul


class LinAlgError(Exception):
    pass


class ShapeError(LinAlgError):
    """Operands have incompatible dimensions."""


class FieldMismatchError(LinAlgError):
    """Operands live over different fields."""


class Field:
    """Arithmetic interface shared by QQ and GF(p).

    Contract: a scalar is zero exactly when it is falsy, so `bool(x)` is
    the zero test of the kernels below.  Given canonical scalars (see the
    module docstring), every method returns canonical scalars; other inputs,
    such as Fraction(2, 1) over QQ, give equal results, only slower.  `/` is never applied to
    scalars, so no float arises: `RationalField.inv` builds 1/a from the
    numerator and denominator of a.

    The underscored methods are the row steps of `Matrix.rref`, which works
    on lists of Python ints: `_encode_rows` gives integer rows spanning the
    same lines as the scalar rows, `_pivot_unit(pc)` the unit that
    normalizes a pivot row, `_tidy_row(row, support)` normalizes in place a
    row just changed at `support`, and `_decode_rows(m, pivots)` gives the
    scalar rows of the RREF (row i of m holds pivot i, later rows are zero).
    Over QQ a row is a primitive integer multiple of the scalar row
    (denominators cleared by their lcm, divided by the content gcd after
    every update), a pivot is made positive, and an entry x decodes to
    x // pivot where the pivot divides it, else to Fraction(x, pivot).
    Over GF(p) a row is its residues, a pivot row is scaled to pivot 1,
    changed entries are reduced mod p, and the rows are the result.
    """

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def of(self, value):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def dot(self, row, vec):
        """sum_i row[i] * vec[i], one canonical scalar."""
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def fmt(self, a) -> str:
        raise NotImplementedError


class RationalField(Field):
    name = "Q"

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, value):
        x = Fraction(value)
        return x.numerator if x.denominator == 1 else x

    def add(self, a, b):
        r = a + b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def sub(self, a, b):
        r = a - b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def mul(self, a, b):
        r = a * b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def neg(self, a):
        return -a

    def dot(self, row, vec):
        r = sum(map(mul, row, vec))
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def inv(self, a):
        n, d = a.numerator, a.denominator
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(d, n) if abs(n) > 1 else d * n  # d * n == d / n for n = +-1

    def parse(self, text):
        return self.of(text)

    def fmt(self, a):
        return str(a)

    def _encode_rows(self, rows):
        """Primitive integer multiples: a row of ints copied, any other row
        with its denominators cleared by their lcm, reading only the nonzero
        entries; then divided by the content."""
        out = []
        for row in rows:
            if set(map(type, row)) <= {int}:
                new = row.copy()
            else:
                new = [0] * len(row)
                nz = list(compress(range(len(row)), row))
                den = lcm(*[row[j].denominator for j in nz])
                for j in nz:
                    new[j] = row[j].numerator * (den // row[j].denominator)
            self._tidy_row(new, None)
            out.append(new)
        return out

    def _pivot_unit(self, pc):
        return -1 if pc < 0 else 1

    def _tidy_row(self, row, support):
        """Divide by the content, so rows stay primitive."""
        if (g := gcd(*row)) > 1:
            row[:] = [x // g for x in row]

    def _decode_rows(self, m, pivots):
        for i, c in enumerate(pivots):
            if (pc := m[i][c]) != 1:
                m[i] = [Fraction(x, pc) if x % pc else x // pc for x in m[i]]
        return m

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


# Miller-Rabin to the prime bases 2..41 decides primality exactly below
# MAX_PRIME_MODULUS, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_MODULUS = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality for n < MAX_PRIME_MODULUS."""
    if n >= MAX_PRIME_MODULUS:
        raise ValueError(f"modulus {n} is not below the supported bound {MAX_PRIME_MODULUS}")
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def of(self, value):
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError("denominator vanishes mod p")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def dot(self, row, vec):
        return sum(map(mul, row, vec)) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def parse(self, text):
        return self.of(Fraction(text))

    def fmt(self, a):
        return str(a % self.p)

    def _encode_rows(self, rows):
        return [*map(list.copy, rows)]

    def _pivot_unit(self, pc):
        return pow(pc, -1, self.p)

    def _tidy_row(self, row, support):
        """Reduce mod p where the row changed; pivots are 1, so an update
        never scales the whole row."""
        p = self.p
        for j in support:
            row[j] %= p

    def _decode_rows(self, m, pivots):
        return m

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

_gf_cache: dict = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_name(name: str) -> Field:
    name = name.strip()
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return GF(int(name[1:]))
    raise ValueError(f"unknown field {name!r}")


class Matrix:
    """Immutable dense matrix.  Zero-row and zero-column shapes are legal."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data, rows: int | None = None, cols: int | None = None):
        self.field = field
        data = [list(row) for row in data]
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeError("ragged or mis-sized matrix data")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def _adopt(cls, field: Field, data: list, rows: int, cols: int) -> "Matrix":
        """A matrix that takes row lists just built by its caller as they are,
        without the copy and the shape check of the public constructor."""
        m = cls.__new__(cls)
        m.field, m.data, m.rows, m.cols = field, data, rows, cols
        return m

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix._adopt(field, [[z] * cols for _ in range(rows)], rows, cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix._adopt(field, [[o if i == j else z for j in range(n)] for i in range(n)], n, n)

    def _check_field(self, other: "Matrix"):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError(f"{self.field!r} vs {other.field!r}")

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.data})"

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.data)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("addition shape mismatch")
        f = self.field
        return Matrix(
            f,
            [[f.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            self.rows,
            self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("subtraction shape mismatch")
        f = self.field
        return Matrix(
            f,
            [[f.sub(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            self.rows,
            self.cols,
        )

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.neg(x) for x in row] for row in self.data], self.rows, self.cols)

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.mul(c, x) for x in row] for row in self.data], self.rows, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Product, summing only the nonzero terms, in increasing k."""
        self._check_field(other)
        if self.cols != other.rows:
            raise ShapeError(f"product shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        add, mul = f.add, f.mul
        z = f.zero()
        nonzero = [(k, terms) for k, row in enumerate(other.data)
                   if (terms := [(j, b) for j, b in enumerate(row) if b])]
        out = []
        for row in self.data:
            new = [z] * other.cols
            for k, terms in nonzero:
                if a := row[k]:
                    for j, b in terms:
                        new[j] = add(new[j], mul(a, b))
            out.append(new)
        return Matrix._adopt(f, out, self.rows, other.cols)

    def transpose(self) -> "Matrix":
        if self.rows == 0:
            data = [[] for _ in range(self.cols)]
        else:
            data = [list(col) for col in zip(*self.data)]
        return Matrix._adopt(self.field, data, self.cols, self.rows)

    def col(self, j: int) -> "Matrix":
        return Matrix(self.field, [[row[j]] for row in self.data], self.rows, 1)

    def entries_flat(self) -> list:
        return [x for row in self.data for x in row]

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.rows != other.rows:
            raise ShapeError("hstack row mismatch")
        return Matrix._adopt(self.field, [r1 + r2 for r1, r2 in zip(self.data, other.data)],
                             self.rows, self.cols + other.cols)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return Matrix._adopt(self.field, [[self.data[i][j] for j in col_idx] for i in row_idx],
                             len(row_idx), len(col_idx))

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form with leftmost-pivot, topmost-row order.

        One Gauss-Jordan loop over integer rows for both fields; the field
        encodes the rows, gives the unit that normalizes each pivot row,
        tidies every changed row and decodes the result.
        A row update is row <- (pc/g) row - (a/g) prow with g = gcd(pc, a),
        at the nonzero columns of the pivot row, all at or right of the
        pivot column c; only when pc/g != 1 is the whole row scaled.
        """
        f = self.field
        tidy = f._tidy_row
        m = f._encode_rows(self.data)
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            for sel in range(r, self.rows):
                if m[sel][c]:
                    break
            else:
                continue
            prow = m[sel]
            m[r], m[sel] = prow, m[r]
            support = list(compress(range(c, self.cols), prow[c:]))
            if (unit := f._pivot_unit(prow[c])) != 1:
                for j in support:
                    prow[j] *= unit
                tidy(prow, support)
            pc = prow[c]
            for row in m:
                if (a := row[c]) and row is not prow:
                    g = gcd(pc, a)
                    if (s := pc // g) != 1:
                        row[:] = [s * x for x in row]
                    a //= g
                    for j in support:
                        row[j] -= a * prow[j]
                    tidy(row, support)
            pivots.append(c)
            r += 1
        return Matrix._adopt(f, f._decode_rows(m, pivots), self.rows, self.cols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> tuple[int, "Matrix", list[int]]:
        """Rank, a kernel basis K (columns) in reduced column-echelon form,
        and its free rows: column k of K has a 1 in free row k, zeros in
        the other free rows and below free row k, so K is canonical and the
        identity there."""
        f = self.field
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        z, o = f.zero(), f.one()
        data = [[z] * len(free) for _ in range(self.cols)]
        for k, fc in enumerate(free):
            data[fc][k] = o
        for row, pc in zip(R.data, pivots):
            data[pc] = [f.neg(row[fc]) if row[fc] else z for fc in free]
        return len(pivots), Matrix._adopt(f, data, self.cols, len(free)), free

    def solve(self, b: "Matrix") -> "Matrix | None":
        """One solution x of self @ x == b (free variables set to zero).

        Returns None when the system is inconsistent; raises ShapeError on
        dimension mismatch.
        """
        self._check_field(b)
        if b.rows != self.rows:
            raise ShapeError("solve: rhs row mismatch")
        R, pivots = self.hstack(b).rref()
        n = self.cols
        if pivots and pivots[-1] >= n:
            return None
        z = self.field.zero()
        sol = [[z] * b.cols for _ in range(n)]
        for i, p in enumerate(pivots):
            sol[p] = R.data[i][n:]
        return Matrix._adopt(self.field, sol, n, b.cols)


def free_row_coords(basis: Matrix, free: list, b: Matrix) -> Matrix | None:
    """The coordinates x with basis @ x == b in a canonical kernel basis with
    free rows `free` (Matrix.kernel_basis): the rows of b there, checked by
    one product; None when a column of b is outside the span."""
    x = b.submatrix(free, range(b.cols))
    return x if basis @ x == b else None


def direct_sum_many(field: Field, mats: list[Matrix]) -> Matrix:
    """The block-diagonal matrix of mats, built in one pass."""
    z = field.zero()
    cols = sum(m.cols for m in mats)
    out, left = [], 0
    for m in mats:
        if m.field != field:
            raise FieldMismatchError(f"{m.field!r} vs {field!r}")
        out += [[z] * left + row + [z] * (cols - left - m.cols) for row in m.data]
        left += m.cols
    return Matrix._adopt(field, out, len(out), cols)


def kronecker_product(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i, j) is a[i][j] * b."""
    a._check_field(b)
    f = a.field
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            row = []
            for j in range(a.cols):
                c = a.data[i][j]
                row.extend(f.mul(c, x) for x in b.data[k])
            out.append(row)
    return Matrix._adopt(f, out, a.rows * b.rows, a.cols * b.cols)

