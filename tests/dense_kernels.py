"""Dense reference kernels for `gpquiver.linalg.Matrix`.

`dense_rref` and `dense_matmul` are the elimination and product kernels
that visit every cell and test zeros by comparison with `f.zero()`, kept
unchanged as the oracle for the zero-skipping kernels in `src/`.
`dense_kernels()` installs them on `Matrix` for the duration of a `with`
block, so the derived operations (`kernel_basis`, `solve`, ...) can be
recomputed on top of them.
"""

from contextlib import contextmanager

from gpquiver.linalg import Matrix, ShapeError


def dense_matmul(self, other):
    self._check_field(other)
    if self.cols != other.rows:
        raise ShapeError(f"product shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
    f = self.field
    z = f.zero()
    ot = list(zip(*other.data)) if other.data else [()] * other.cols
    out = []
    for row in self.data:
        new = []
        for j in range(other.cols):
            col = ot[j] if other.rows else ()
            acc = z
            for a, b in zip(row, col):
                if a != z and b != z:
                    acc = f.add(acc, f.mul(a, b))
            new.append(acc)
        out.append(new)
    return Matrix(f, out, self.rows, other.cols)


def dense_rref(self):
    """Reduced row echelon form with leftmost-pivot, topmost-row order."""
    f = self.field
    z = f.zero()
    m = [row[:] for row in self.data]
    pivots = []
    r = 0
    for c in range(self.cols):
        if r == self.rows:
            break
        sel = None
        for i in range(r, self.rows):
            if m[i][c] != z:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(self.rows):
            if i != r and m[i][c] != z:
                factor = m[i][c]
                m[i] = [f.sub(a, f.mul(factor, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return Matrix(f, m, self.rows, self.cols), pivots


@contextmanager
def dense_kernels():
    """Run `Matrix` on the dense kernels inside the block."""
    saved = Matrix.rref, Matrix.__matmul__
    Matrix.rref, Matrix.__matmul__ = dense_rref, dense_matmul
    try:
        yield
    finally:
        Matrix.rref, Matrix.__matmul__ = saved
