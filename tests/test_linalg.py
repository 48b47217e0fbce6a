import random
import time

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from crosscheck import cokernel_projection, right_inverse
from dense_kernels import dense_kernels

from gpquiver.linalg import (
    GF,
    MAX_PRIME_MODULUS,
    QQ,
    Matrix,
    PrimeField,
    ShapeError,
    direct_sum_many,
    field_from_name,
    kronecker_product,
)


def mat(data, field=QQ):
    return Matrix(field, [[field.of(x) for x in row] for row in data])


def random_matrix(rng, field, rows, cols, span=5):
    data = [[field.of(rng.randrange(-span, span + 1)) for _ in range(cols)] for _ in range(rows)]
    return Matrix(field, data, rows, cols)


def test_field_roundtrip():
    assert field_from_name("Q") is QQ
    assert field_from_name("F5").p == 5
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    assert GF(7).parse("-3/4") == GF(7).of(Fraction(-3, 4))
    with pytest.raises(ValueError):
        field_from_name("F6")


def test_rank_and_kernel_identity():
    rank, ker, _ = Matrix.identity(QQ, 3).kernel_basis()
    assert rank == 3
    assert ker.cols == 0


def test_rank_and_kernel_zero():
    rank, ker, _ = Matrix.zeros(QQ, 2, 3).kernel_basis()
    assert rank == 0
    assert ker == Matrix.identity(QQ, 3)


def test_rank_and_kernel_rank_one():
    # hand row reduction: [[1,2],[2,4]] ~ [[1,2],[0,0]], kernel = span (-2,1)
    rank, ker, _ = mat([[1, 2], [2, 4]]).kernel_basis()
    assert rank == 1
    assert ker == mat([[-2], [1]])


def test_cokernel_identity():
    proj = cokernel_projection(Matrix.identity(QQ, 3))
    assert proj.rows == 0 and proj.cols == 3


def test_cokernel_zero():
    proj = cokernel_projection(Matrix.zeros(QQ, 2, 2))
    assert proj == Matrix.identity(QQ, 2)


def test_cokernel_diagonal_embedding():
    m = mat([[1], [1]])
    proj = cokernel_projection(m)
    assert proj == mat([[-1, 1]])
    assert (proj @ m).is_zero()
    assert proj.rank() == 1


def test_solve_identity():
    b = mat([[3], [-1]])
    assert Matrix.identity(QQ, 2).solve(b) == b


def test_solve_consistent_sets_free_vars_to_zero():
    m = mat([[1, 2], [2, 4]])
    x = m.solve(mat([[1], [2]]))
    assert x == mat([[1], [0]])
    assert m @ x == mat([[1], [2]])


def test_solve_inconsistent_vs_shape_error():
    m = mat([[1, 2], [2, 4]])
    assert m.solve(mat([[1], [0]])) is None
    with pytest.raises(ShapeError):
        m.solve(mat([[1], [0], [0]]))


def test_empty_shapes():
    e = Matrix.zeros(QQ, 0, 3)
    assert e.rank() == 0
    assert e.kernel_basis()[1] == Matrix.identity(QQ, 3)
    tall = Matrix.zeros(QQ, 3, 0)
    assert tall.rank() == 0
    assert (e @ tall).rows == 0
    assert cokernel_projection(tall) == Matrix.identity(QQ, 3)


def test_direct_sum_and_kronecker_shapes():
    a = mat([[1, 2]])
    b = mat([[3], [4]])
    s = direct_sum_many(QQ, [a, b])
    assert (s.rows, s.cols) == (3, 3)
    assert s == mat([[1, 2, 0], [0, 0, 3], [0, 0, 4]])
    k = kronecker_product(a, b)
    assert k == mat([[3, 6], [4, 8]])


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_rank_nullity_random(rows, cols, seed):
    rng = random.Random(seed)
    for field in (QQ, GF(5)):
        m = random_matrix(rng, field, rows, cols)
        rank, ker, _ = m.kernel_basis()
        assert rank + ker.cols == cols
        assert (m @ ker).is_zero()
        # kernel columns are independent
        assert ker.rank() == ker.cols


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_cokernel_projection_random(rows, cols, seed):
    rng = random.Random(seed)
    for field in (QQ, GF(3)):
        m = random_matrix(rng, field, rows, cols)
        proj = cokernel_projection(m)
        assert proj.rows == rows - m.rank()
        assert (proj @ m).is_zero()
        assert proj.rank() == proj.rows


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_solve_random_consistent(rows, cols, seed):
    rng = random.Random(seed)
    for field in (QQ, GF(7)):
        m = random_matrix(rng, field, rows, cols)
        x0 = random_matrix(rng, field, cols, 1)
        b = m @ x0
        x = m.solve(b)
        assert x is not None
        assert m @ x == b


def test_determinism_rational_vs_mod_p():
    rng = random.Random(11)
    m = random_matrix(rng, QQ, 4, 5)
    r1 = m.rref()
    r2 = m.rref()
    assert r1[0] == r2[0] and r1[1] == r2[1]


def test_transpose_involution():
    m = mat([[1, 2, 3], [4, 5, 6]])
    assert m.transpose().transpose() == m


def test_right_inverse():
    m = mat([[1, 0, 2], [0, 1, 3]])
    s = right_inverse(m)
    assert m @ s == Matrix.identity(QQ, 2)


def test_prime_field_modulus_check():
    # 2^61 - 1 is prime; trial division up to its square root takes minutes
    start = time.perf_counter()
    assert field_from_name("F2305843009213693951").p == 2**61 - 1
    assert time.perf_counter() - start < 0.5
    # 561 is a Carmichael number, 2047 a strong pseudoprime to base 2 and
    # 3215031751 one to bases 2, 3, 5 and 7
    for n in (0, 1, 561, 2047, 3215031751):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)
    with pytest.raises(ValueError, match="supported bound"):
        PrimeField(MAX_PRIME_MODULUS)


# QQ, the smallest primes (where many small integers vanish) and a large one
FIELDS = (QQ, GF(2), GF(3), GF(7), GF(2**61 - 1))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_zero_is_exactly_falsy(field):
    p = getattr(field, "p", 7)
    ints = [0, 1, -1, p - 1, p, -p, p + 1, 3 * p, p * 10**20]
    texts = ["0", "-0", "0/11", f"{p}/11", f"-{3 * p}/13", "1/11", f"{p + 1}/13", "22/11"]
    values = [field.of(v) for v in ints] + [field.of(Fraction(v, 11)) for v in ints]
    values += [field.parse(t) for t in texts]
    for v in values:
        assert bool(v) == (v != field.zero())
    assert not field.zero() and field.one()


def sparse_matrix(rng, field, rows, cols, density):
    """Each entry is nonzero with probability `density` before reduction:
    a small fraction over QQ, a small integer (possibly a multiple of p)
    over GF(p)."""
    def entry():
        if rng.random() >= density:
            return field.zero()
        if field is QQ:
            return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10), rng.randrange(1, 5))
        return field.of(rng.randrange(1, 10))
    return Matrix(field, [[entry() for _ in range(cols)] for _ in range(rows)], rows, cols)


@given(st.sampled_from(FIELDS), st.integers(0, 6), st.integers(0, 6),
       st.sampled_from((0.0, 0.15, 0.4, 0.7, 1.0)), st.integers(0, 2**32))
@example(QQ, 0, 4, 1.0, 0)
@example(GF(3), 4, 0, 1.0, 0)
@example(GF(7), 0, 0, 1.0, 0)
@settings(max_examples=150)
def test_kernels_agree_with_dense_reference(field, rows, cols, density, seed):
    rng = random.Random(seed)
    a = sparse_matrix(rng, field, rows, cols, density)
    b = sparse_matrix(rng, field, cols, rng.randrange(4), density)
    consistent = a @ sparse_matrix(rng, field, cols, 2, density)
    arbitrary = sparse_matrix(rng, field, rows, 2, density)

    def results():
        return (a.rref(), a @ b, a.kernel_basis(), a.solve(consistent),
                a.solve(arbitrary), cokernel_projection(a))

    got = results()
    with dense_kernels():
        want = results()
    # repr also tells a Fraction zero from an int one
    assert repr(got) == repr(want)


BIG = GF(2**61 - 1)


@st.composite
def eliminations(draw):
    """A matrix of up to 12 x 12 over QQ or GF(2^61 - 1) for the integer-row
    elimination: rational entries with denominators up to 97, all-integer
    rows, each row one or the other at random, or a rank-deficient product
    of thin factors; in half the examples every row's leading entry is
    negative."""
    field = draw(st.sampled_from((QQ, BIG)))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    kind = draw(st.sampled_from(("rational", "integer", "mixed", "thin")))
    density = draw(st.sampled_from((0.3, 0.7, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry(integral):
        if rng.random() >= density:
            return 0
        return Fraction(rng.randrange(-99, 100), 1 if integral else rng.randrange(1, 98))

    def dense(r, c):
        return [[entry(integral) for _ in range(c)] for integral in (
            kind == "integer" or kind == "mixed" and rng.random() < 0.5 for _ in range(r))]

    if kind == "thin":
        inner = rng.randrange(1, 4)
        a = Matrix(QQ, dense(rows, inner), rows, inner) @ Matrix(QQ, dense(inner, cols), inner, cols)
        data = a.data
    else:
        data = dense(rows, cols)
    if draw(st.booleans()):
        data = [[-x for x in row] if next((x for x in row if x), 0) > 0 else row
                for row in data]
    return Matrix(field, [[field.of(x) for x in row] for row in data], rows, cols)


@given(eliminations(), st.integers(0, 2**32))
@example(mat([[Fraction(-1, 97), Fraction(2, 89)], [Fraction(-3, 2), 0]]), 0)
@example(mat([[0, 6, -9, 3], [Fraction(1, 2), 0, 1, Fraction(-3, 4)], [0, 0, 0, 0],
              [-2, 4, 0, 2], [1, Fraction(5, 7), 0, -1], [4, -2, 1, 0]]), 1)
@settings(max_examples=60)
def test_integer_rows_agree_with_dense_reference(a, seed):
    rng = random.Random(seed)
    f = a.field
    rhs = Matrix(f, [[f.of(rng.randrange(-9, 10)) for _ in range(2)] for _ in range(a.rows)],
                 a.rows, 2)
    consistent = a @ Matrix(f, [[f.of(rng.randrange(-9, 10)) for _ in range(2)]
                                for _ in range(a.cols)], a.cols, 2)

    def results():
        return (a.rref(), a.kernel_basis(), a.solve(consistent), a.solve(rhs),
                cokernel_projection(a))

    got = results()
    with dense_kernels():
        want = results()
    assert repr(got) == repr(want)


@pytest.mark.parametrize("n", (8, 12))
def test_hilbert_inverse_closed_form(n):
    from math import comb

    h = Matrix(QQ, [[Fraction(1, i + j - 1) for j in range(1, n + 1)] for i in range(1, n + 1)])
    inverse = [[(-1) ** (i + j) * (i + j - 1) * comb(n + i - 1, n - j) * comb(n + j - 1, n - i)
                * comb(i + j - 2, i - 1) ** 2 for j in range(1, n + 1)] for i in range(1, n + 1)]
    assert right_inverse(h) == mat(inverse)


class NoArithmetic(Fraction):
    """A Fraction whose arithmetic raises, so a kernel may only read its
    numerator, denominator and truth value."""

    def _refuse(self, *args):
        raise AssertionError("Fraction arithmetic in an exact kernel")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __truediv__ = __rtruediv__ = __neg__ = _refuse


def test_elimination_over_q_does_no_fraction_arithmetic():
    rng = random.Random(5)
    rows = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 12)) if rng.random() < 0.7 else 0
             for _ in range(7)] for _ in range(6)]
    rows[4] = [x + y for x, y in zip(rows[0], rows[1])]
    plain = Matrix(QQ, rows)
    guarded = Matrix(QQ, [[NoArithmetic(x) for x in row] for row in rows])
    b = Matrix(QQ, [[Fraction(k, 3)] for k in range(6)])
    guarded_b = Matrix(QQ, [[NoArithmetic(x) for x in row] for row in b.data])
    with pytest.raises(AssertionError):
        guarded.data[0][0] * 2
    # repr tells a NoArithmetic entry that went through from a Fraction
    assert repr(guarded.rref()) == repr(plain.rref())
    assert repr(guarded.kernel_basis()) == repr(plain.kernel_basis())
    assert repr(guarded.solve(guarded_b)) == repr(plain.solve(b))
