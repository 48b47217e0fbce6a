import random
import time

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dense_kernels import dense_kernels

from gpquiver.linalg import (
    GF,
    MAX_PRIME_MODULUS,
    QQ,
    Matrix,
    PrimeField,
    ShapeError,
    direct_sum,
    field_from_name,
    kronecker_product,
)


def mat(data, field=QQ):
    return Matrix.from_ints(field, data)


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
    rank, ker = Matrix.identity(QQ, 3).rank_and_kernel()
    assert rank == 3
    assert ker.cols == 0


def test_rank_and_kernel_zero():
    rank, ker = Matrix.zeros(QQ, 2, 3).rank_and_kernel()
    assert rank == 0
    assert ker == Matrix.identity(QQ, 3)


def test_rank_and_kernel_rank_one():
    # hand row reduction: [[1,2],[2,4]] ~ [[1,2],[0,0]], kernel = span (-2,1)
    rank, ker = mat([[1, 2], [2, 4]]).rank_and_kernel()
    assert rank == 1
    assert ker == mat([[-2], [1]])


def test_cokernel_identity():
    proj = Matrix.identity(QQ, 3).cokernel_projection()
    assert proj.rows == 0 and proj.cols == 3


def test_cokernel_zero():
    proj = Matrix.zeros(QQ, 2, 2).cokernel_projection()
    assert proj == Matrix.identity(QQ, 2)


def test_cokernel_diagonal_embedding():
    m = mat([[1], [1]])
    proj = m.cokernel_projection()
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
    assert e.kernel() == Matrix.identity(QQ, 3)
    tall = Matrix.zeros(QQ, 3, 0)
    assert tall.rank() == 0
    assert (e @ tall).rows == 0
    assert tall.cokernel_projection() == Matrix.identity(QQ, 3)


def test_direct_sum_and_kronecker_shapes():
    a = mat([[1, 2]])
    b = mat([[3], [4]])
    s = direct_sum(a, b)
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
        rank, ker = m.rank_and_kernel()
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
        proj = m.cokernel_projection()
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
    s = m.right_inverse()
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
        return (a.rref(), a @ b, a.rank_and_kernel(), a.solve(consistent),
                a.solve(arbitrary), a.cokernel_projection())

    got = results()
    with dense_kernels():
        want = results()
    # repr also tells a Fraction zero from an int one
    assert repr(got) == repr(want)
