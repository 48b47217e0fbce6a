"""Modules over a bound quiver category.

A Module is a k-linear functor C -> k-Mod: a dimension per object and a
matrix per arrow.  Right C-modules are Modules over C.opposite(), which
keeps one code path for both variances.  Everything downstream (duality,
tensor, Hom, resolutions, Tor, Ext) reduces to exact linear algebra.
Hom and tensor share one naturality system: tensor_over_cat reads M (x)_C F
off the Hom system of F -> DM, since D(M (x)_C F) = Hom_C(F, DM).  A module
applied to a map of free modules, given by the images of its generators, is
one matrix of its path actions (Yoneda, _applied_diff): Tor and Ext over a
projective resolution, and nu and nu^- over the presentations of D(C), are
read off it, without building tensor quotients or Hom systems.  The map is
compiled once into its nonzero terms (_free_map: source and target block,
path, reversed path, coefficient), which depend on the map alone, so
_applied_diff reads only the module's dims and path actions.  Homology
modules are built from kernel and cokernel alone: the incoming differential
lifted into the kernel of the outgoing one, then its cokernel.

In a resolution each syzygy stays inside the free stage before it, as the
canonical kernel basis of the differential, generated by its columns left
as pivots against the radical; stages[i].epi is d_i: P_i -> P_{i-1} for
i >= 1, and the summand vectors of stage i are d_i's generator images, in
P_{i-1}, compiled without rescanning the epi when d_i is first read and kept
on the stage's Cover.  Stages are built when read, up to the cutoff, into a
list that resolutions of the module at other cutoffs may share, with their
compiled differentials; degree i reads up to stage i+1.
Coordinates in a canonical kernel basis are read at its free rows, with no
solve: a kernel's arrows, nu^-'s arrows and maps, and the lift of a
homology module.  A cokernel's section is the unit columns at the free
columns of its projection.

Free modules are known by their generators.  free_module lays out
(+)_k C(c_k,-) once, block k at x spanning the basis paths of C(c_k, x)
with the identity path first; covers and the basis cover
P(M) = i_! i^* M use it, and block_offsets finds generator k.  Each
representable C(c,-) is made once per category (BoundQuiverCategory.cached):
a category never changes, and modules are not changed after they are made.
"""

from __future__ import annotations

from itertools import accumulate, compress, count, takewhile

from .category import BoundQuiverCategory
from .linalg import LinAlgError, Matrix, ShapeError, direct_sum_many, free_row_coords


class ModuleError(Exception):
    pass


class InconclusiveError(ModuleError):
    """A definite answer would need a resolution beyond the cutoff."""


class DerivedValue:
    """Result of a derived-functor dimension count.

    dim is None exactly when the computation was inconclusive at the cutoff;
    a conclusive value is exact.
    """

    def __init__(self, dim: int | None):
        self.dim = dim

    @property
    def conclusive(self) -> bool:
        return self.dim is not None

    def __eq__(self, other):
        return type(other) is DerivedValue and self.dim == other.dim

    def __hash__(self):
        return hash(self.dim)

    def __repr__(self):
        return f"DerivedValue({self.dim!r})"


class Module:
    __slots__ = ("cat", "dims", "mats")

    def __init__(self, cat: BoundQuiverCategory, dims: dict, mats: dict, check: bool = True):
        self.cat = cat
        self.dims = {c: int(dims.get(c, 0)) for c in cat.objects}
        self.mats = {}
        for name, (s, t) in cat.arrow_map.items():
            m = mats.get(name)
            if m is None:
                m = Matrix.zeros(cat.field, self.dims[t], self.dims[s])
            self.mats[name] = m
        if check:
            self.validate()

    def validate(self):
        f = self.cat.field
        for name, (s, t) in self.cat.arrow_map.items():
            m = self.mats[name]
            if (m.rows, m.cols) != (self.dims[t], self.dims[s]):
                raise ShapeError(f"arrow {name}: matrix shape {m.rows}x{m.cols} "
                                 f"vs dims {self.dims[t]}x{self.dims[s]}")
            if m.field != f:
                raise ModuleError(f"arrow {name}: wrong field")
        rel = self.violated_relation()
        if rel is not None:
            raise ModuleError(f"relation {rel.terms} violated")

    def violated_relation(self):
        """The first relation of the category that the matrices break, or None."""
        for rel in self.cat.relations:
            src = self.cat.arrow_map[rel.terms[0][1][0]][0]
            tgt = self.cat.arrow_map[rel.terms[0][1][-1]][1]
            acc = Matrix.zeros(self.cat.field, self.dims[tgt], self.dims[src])
            for coef, path in rel.terms:
                acc = acc + self.act_path(src, path).scale(coef)
            if not acc.is_zero():
                return rel
        return None

    def act_path(self, c, path) -> Matrix:
        """M(path) on M(c); a one-arrow path gives the arrow's own matrix, never changed."""
        if not path:
            return Matrix.identity(self.cat.field, self.dims[c])
        m = self.mats[path[0]]
        for a in path[1:]:
            m = self.mats[a] @ m
        return m

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def dim_vector(self) -> dict:
        return dict(self.dims)

    def __eq__(self, other):
        return (
            isinstance(other, Module)
            and self.cat == other.cat
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def __hash__(self):
        return hash((tuple(sorted(self.dims.items())),))

    def __repr__(self):
        return f"Module({self.dims})"


class ModuleMap:
    __slots__ = ("src", "dst", "mats")

    def __init__(self, src: Module, dst: Module, mats: dict, check: bool = True):
        if src.cat != dst.cat:
            raise ModuleError("module map across different categories")
        self.src = src
        self.dst = dst
        self.mats = {}
        for c in src.cat.objects:
            m = mats.get(c)
            if m is None:
                m = Matrix.zeros(src.cat.field, dst.dims[c], src.dims[c])
            self.mats[c] = m
        if check:
            self.validate()

    def validate(self):
        for c in self.src.cat.objects:
            m = self.mats[c]
            if (m.rows, m.cols) != (self.dst.dims[c], self.src.dims[c]):
                raise ShapeError(f"component at {c}: shape mismatch")
        for name, (s, t) in self.src.cat.arrow_map.items():
            left = self.mats[t] @ self.src.mats[name]
            right = self.dst.mats[name] @ self.mats[s]
            if left != right:
                raise ModuleError(f"naturality fails over arrow {name}")

    @staticmethod
    def identity(m: Module) -> "ModuleMap":
        return ModuleMap(m, m, {c: Matrix.identity(m.cat.field, m.dims[c]) for c in m.cat.objects}, check=False)

    def then(self, other: "ModuleMap") -> "ModuleMap":
        """self followed by other."""
        if self.dst is not other.src and self.dst != other.src:
            raise ModuleError("composition endpoint mismatch")
        return ModuleMap(self.src, other.dst,
                         {c: other.mats[c] @ self.mats[c] for c in self.src.cat.objects},
                         check=False)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.src, self.dst,
                         {c: self.mats[c] + other.mats[c] for c in self.src.cat.objects},
                         check=False)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.src, self.dst,
                         {c: self.mats[c] - other.mats[c] for c in self.src.cat.objects},
                         check=False)

    def is_iso(self) -> bool:
        return all(
            m.rows == m.cols and m.rank() == m.rows for m in self.mats.values()
        )

    def __eq__(self, other):
        return (
            isinstance(other, ModuleMap)
            and self.src == other.src
            and self.dst == other.dst
            and self.mats == other.mats
        )

    def __repr__(self):
        return f"ModuleMap({self.src.dims} -> {self.dst.dims})"


# -- basic constructions --------------------------------------------------


def zero_module(cat: BoundQuiverCategory) -> Module:
    return Module(cat, {}, {}, check=False)


def representable(cat: BoundQuiverCategory, c) -> Module:
    """The covariant representable at c: value Hom(c, x) at x.  Made once
    per category and object; callers must not change its matrices."""
    if c not in cat.objects:
        raise ModuleError(f"unknown object {c!r}")
    return cat.cached(("representable", c), lambda: _representable(cat, c))


def _representable(cat: BoundQuiverCategory, c) -> Module:
    mats = {name: path_matrix(cat, c, [p + (name,) for p in cat.hom_basis_paths(c, s)],
                              cat.hom_basis_paths(c, t))
            for name, (s, t) in cat.arrow_map.items()}
    return Module(cat, {x: cat.hom_dim(c, x) for x in cat.objects}, mats, check=False)


def path_matrix(cat: BoundQuiverCategory, start, words: list, basis: list) -> Matrix:
    """Column j: the reduced word words[j] from start, in the basis paths."""
    idx = {p: i for i, p in enumerate(basis)}
    data = [[cat.field.zero()] * len(words) for _ in basis]
    for j, word in enumerate(words):
        for p, coef in cat.reduce_word(start, word).items():
            data[idx[p]][j] = coef
    return Matrix._adopt(cat.field, data, len(basis), len(words))


def dual(m: Module) -> Module:
    """k-linear dual, a module over the opposite category."""
    op = m.cat.opposite()
    return Module(op, dict(m.dims), {a: mat.transpose() for a, mat in m.mats.items()}, check=False)


def dual_map(f: ModuleMap) -> ModuleMap:
    return ModuleMap(dual(f.dst), dual(f.src),
                     {c: f.mats[c].transpose() for c in f.src.cat.objects},
                     check=False)


def block_sum(cat: BoundQuiverCategory, parts: list) -> Module:
    """The direct sum of parts, block-diagonal in list order."""
    dims = {x: sum(p.dims[x] for p in parts) for x in cat.objects}
    mats = {a: direct_sum_many(cat.field, [p.mats[a] for p in parts]) for a in cat.arrow_map}
    return Module(cat, dims, mats, check=False)


def direct_sum_modules(parts: list) -> tuple:
    """Direct sum with the canonical inclusions and projections."""
    if not parts:
        raise ModuleError("direct sum needs an ambient category; pass at least a zero module")
    cat = parts[0].cat
    total = block_sum(cat, parts)
    incls, projs = [], []
    for i, p in enumerate(parts):
        inc = {}
        for c in cat.objects:
            before = sum(q.dims[c] for q in parts[:i])
            inc[c] = Matrix.identity(cat.field, total.dims[c]).submatrix(
                range(total.dims[c]), range(before, before + p.dims[c]))
        incls.append(ModuleMap(p, total, inc, check=False))
        projs.append(ModuleMap(total, p, {c: m.transpose() for c, m in inc.items()}, check=False))
    return total, incls, projs


def kernel(f: ModuleMap) -> tuple:
    """Kernel module with its inclusion, the canonical kernel basis at each
    object; an arrow acts by the coordinates read at its free rows."""
    cat = f.src.cat
    bases = {c: f.mats[c].kernel_basis()[1:] for c in cat.objects}
    mats = {}
    for name, (s, t) in cat.arrow_map.items():
        mats[name] = free_row_coords(*bases[t], f.src.mats[name] @ bases[s][0])
        if mats[name] is None:
            raise LinAlgError("kernel is not arrow-stable")
    incl = {c: k for c, (k, _) in bases.items()}
    K = Module(cat, {c: k.cols for c, k in incl.items()}, mats, check=False)
    return K, ModuleMap(K, f.src, incl, check=False)


def cokernel(f: ModuleMap) -> tuple:
    """Cokernel module with its projection.  The projection P at each object
    is the transposed canonical kernel basis of the transpose, the identity
    at its free columns, whose unit columns are the section s; an arrow acts
    by P N(a) s, which no other section would change."""
    cat = f.src.cat
    projs, sections = {}, {}
    for c in cat.objects:
        _, k, free = f.mats[c].transpose().kernel_basis()
        projs[c] = k.transpose()
        sections[c] = Matrix.identity(cat.field, k.rows).submatrix(range(k.rows), free)
    mats = {name: projs[t] @ f.dst.mats[name] @ sections[s]
            for name, (s, t) in cat.arrow_map.items()}
    Q = Module(cat, {c: projs[c].rows for c in cat.objects}, mats, check=False)
    return Q, ModuleMap(f.dst, Q, projs, check=False)


# -- Hom ------------------------------------------------------------------


def _naturality_system(m: Module, n: Module) -> Matrix:
    """The linear system of the module maps m -> n: one row per entry (a, i, j)
    of phi_t M(a) - N(a) phi_s, a: s -> t, over the unknowns (phi_c)_c,
    flattened as _map_columns flattens maps (object order, row-major)."""
    cat = m.cat
    f = cat.field
    ends = list(accumulate((n.dims[c] * m.dims[c] for c in cat.objects), initial=0))
    offsets = dict(zip(cat.objects, ends))
    rows = []
    z = f.zero()
    for name, (s, t) in cat.arrow_map.items():
        ma_cols, na = m.mats[name].transpose().data, n.mats[name]
        at, m_s, m_t = offsets[t], m.dims[s], m.dims[t]
        for i in range(n.dims[t]):
            for j in range(m_s):
                row = [z] * ends[-1]
                row[at + i * m_t:at + (i + 1) * m_t] = ma_cols[j]  # phi_t[i] . M(a)[:, j]
                for k, x in enumerate(na.data[i]):  # - N(a)[i] . phi_s[:, j]
                    if x:
                        idx = offsets[s] + k * m_s + j
                        row[idx] = f.sub(row[idx], x)
                rows.append(row)
    return Matrix._adopt(f, rows, len(rows), ends[-1])


class HomBasis(list):
    """A hom basis as module maps; `columns` is the kernel matrix of their
    flattenings (_map_columns), the identity on its `free` rows."""


def hom_basis(m: Module, n: Module) -> HomBasis:
    """Canonical basis of the space of module maps m -> n."""
    _, cols, free = _naturality_system(m, n).kernel_basis()
    basis = HomBasis(_maps_from_columns(m, n, cols))
    basis.columns, basis.free = cols, free
    return basis


def _map_columns(maps: list) -> Matrix:
    """Module maps flattened to columns (object order, row-major)."""
    flat = [[e for c in m.src.cat.objects for e in m.mats[c].entries_flat()] for m in maps]
    return Matrix(maps[0].src.cat.field, [list(r) for r in zip(*flat)], len(flat[0]), len(flat))


def _maps_from_columns(m: Module, n: Module, cols: Matrix) -> list:
    """The inverse of _map_columns: the maps m -> n flattened in the columns."""
    f = m.cat.field
    maps = []
    for flat in cols.transpose().data:
        mats, off = {}, 0
        for c in m.cat.objects:
            r, k = n.dims[c], m.dims[c]
            mats[c] = Matrix._adopt(f, [flat[off + i * k:off + (i + 1) * k] for i in range(r)], r, k)
            off += r * k
        maps.append(ModuleMap(m, n, mats, check=False))
    return maps


# -- tensor over the category --------------------------------------------


class TensorResult:
    """M (x)_C F as an explicit quotient of the direct sum of pointwise tensors.

    Ambient coordinates: blocks per object y in category order, index
    i * dim F(y) + j inside a block for basis tensors m_i (x) f_j.
    """

    __slots__ = ("field", "offsets", "block_dims", "ambient", "proj")

    def __init__(self, field, offsets, block_dims, ambient, proj):
        self.field = field
        self.offsets = offsets
        self.block_dims = block_dims
        self.ambient = ambient
        self.proj = proj

    @property
    def dim(self) -> int:
        return self.proj.rows


def tensor_over_cat(m: Module, f_mod: Module) -> TensorResult:
    """Tensor of a right module (module over the opposite) with a left module.

    Read off the Hom system: D(M (x)_C F) = Hom_C(F, DM), and a map F -> DM
    flattened by _map_columns has the ambient coordinates of M (x)_C F, so
    the quotient map's rows are a basis of those maps.
    """
    cat = f_mod.cat
    if m.cat != cat.opposite():
        raise ModuleError("tensor needs a right module (over the opposite category)")
    ends = list(accumulate((m.dims[y] * f_mod.dims[y] for y in cat.objects), initial=0))
    block_dims = {y: (m.dims[y], f_mod.dims[y]) for y in cat.objects}
    proj = _naturality_system(f_mod, dual(m)).kernel_basis()[1].transpose()
    return TensorResult(cat.field, dict(zip(cat.objects, ends)), block_dims, ends[-1], proj)


# -- projective covers and resolutions ------------------------------------


class Cover:
    """A free module P on generators in M and the map P -> M they give; in a
    resolution, stage i >= 1 maps into P_{i-1}, its epi being d_i.  A summand
    vector is its generator's image under epi, in epi's target: the column
    of epi at the generator's identity-path row.  diff is d_i as
    _applied_diff reads it (_free_map), made when _diff_images first reads
    it and kept for every resolution over the stage list."""

    def __init__(self, module: Module, epi: ModuleMap, summands: list, syzygy: dict | None = None):
        self.module = module      # the free module P
        self.epi = epi            # P -> M
        self.summands = summands  # of (object, generator column in M(object))
        self.syzygy = syzygy      # canonical kernel basis of epi per object
        self.diff = None          # _free_map of d_i, once read


def free_module(cat: BoundQuiverCategory, objs: list) -> Module:
    """(+)_k C(c_k,-) for objs = [c_k]: block k at x spans the basis paths of
    C(c_k, x), the identity path first, and arrows act blockwise as on the
    representables."""
    return block_sum(cat, [representable(cat, c) for c in objs])


def block_offsets(cat: BoundQuiverCategory, objs: list, x) -> list:
    """Where block k of free_module(cat, objs) starts at x, and its end; the
    generator of block k is row block_offsets(cat, objs, c_k)[k]."""
    return list(accumulate((cat.hom_dim(c, x) for c in objs), initial=0))


def free_on_generators(m: Module, summands: list) -> Cover:
    """free_module on the summand objects, with the action map sending the
    generator of C(c,-) to its chosen vector in M(c).  The image of a path
    p.a is M(a) applied to the image of p, each prefix computed once as a
    plain list, one dot product per row of M(a)."""
    cat = m.cat
    dot = cat.field.dot
    rows = {x: [[] for _ in range(m.dims[x])] for x in cat.objects}
    for c, vec in summands:
        images = {(): [r[0] for r in vec.data]}
        for x in cat.objects:
            for p in cat.hom_basis_paths(c, x):
                for k in range(1, len(p) + 1):
                    if p[:k] not in images:
                        prev = images[p[:k - 1]]
                        images[p[:k]] = [dot(row, prev) for row in m.mats[p[k - 1]].data]
                for row, entry in zip(rows[x], images[p]):
                    row.append(entry)
    total = free_module(cat, [c for c, _ in summands])
    epi = {x: Matrix._adopt(cat.field, rows[x], m.dims[x], total.dims[x]) for x in cat.objects}
    return Cover(total, ModuleMap(total, m, epi, check=False), summands)


def basis_cover(m: Module) -> Cover:
    """P(M) = i_! i^* M: the free module on a basis of M, with its counit."""
    f = m.cat.field
    summands = []
    for c in m.cat.objects:
        unit = Matrix.identity(f, m.dims[c])
        summands += [(c, unit.col(j)) for j in range(m.dims[c])]
    return free_on_generators(m, summands)


def projective_cover(m: Module) -> Cover:
    """The minimal projective cover of m, with its syzygy."""
    return _span_cover(m, None)


def _span_cover(x: Module, bases: dict | None) -> Cover:
    """The minimal cover, mapping into x, of the submodule spanned by the
    columns of bases[c] at each c, or of x itself where bases is None, with
    its syzygy.  The generators at c are the columns of bases[c] (of the
    identity) that are pivots of one rref of [rad | bases[c]], rad spanning
    the images of the arrows into c, stacked as row lists; the elimination
    that gives the syzygy also checks that the cover is onto the span."""
    cat = x.cat
    f = cat.field
    summands, spans = [], {}
    for c in cat.objects:
        into = [(name, s) for name, (s, t) in cat.arrow_map.items() if t == c]
        if bases is None:
            rad, basis = [x.mats[name] for name, _ in into], Matrix.identity(f, x.dims[c])
        else:
            rad, basis = [x.mats[name] @ bases[s] for name, s in into], bases[c]
        width, spans[c] = sum(r.cols for r in rad), basis.cols
        stacked = [[e for r in rad for e in r.data[i]] + row for i, row in enumerate(basis.data)]
        _, pivots = Matrix._adopt(f, stacked, basis.rows, width + basis.cols).rref()
        summands += [(c, Matrix._adopt(f, [[row[j - width]] for row in basis.data], basis.rows, 1))
                     for j in pivots if j >= width]
    cov = free_on_generators(x, summands)
    cov.syzygy = {}
    for c in cat.objects:
        rank, cov.syzygy[c], _ = cov.epi.mats[c].kernel_basis()
        if rank != spans[c]:
            raise ModuleError("projective cover failed to surject (radical not nilpotent?)")
    return cov


class Resolution:
    """The minimal projective resolution ... -> P_1 -> P_0 -> M, at most cutoff
    stages past P_0; stages holds only those read so far (length() reads all)."""

    def __init__(self, module: Module, cutoff: int, shared: list | None = None):
        if cutoff < 0:
            raise ModuleError("cutoff must be nonnegative")
        self.module, self.cutoff = module, cutoff
        self.stages, self._shared = [], [] if shared is None else shared
        self._goes_on = True  # the last stage read has a nonzero syzygy

    def reaches(self, i: int) -> bool:
        """Whether stage i exists within the cutoff; builds the stages up to it."""
        stages, shared = self.stages, self._shared
        while self._goes_on and len(stages) <= min(i, self.cutoff):
            if len(stages) == len(shared):
                shared.append(_span_cover(stages[-1].module, stages[-1].syzygy) if stages
                              else projective_cover(self.module))
            stages.append(shared[len(stages)])
            self._goes_on = any(s.cols for s in stages[-1].syzygy.values())
        return i < len(stages)

    @property
    def completed(self) -> bool:  # a truncated resolution leaves the cutoff's degree unsettled
        return self.past_end(self.cutoff) is not None

    def length(self) -> int:
        self.reaches(self.cutoff)
        return len(self.stages) - 1

    def past_end(self, i: int) -> bool | None:
        """Whether degree i of a derived functor, read off P_{i+1}, is past the
        end, where it is 0; None where the cutoff leaves it unsettled."""
        return i >= len(self.stages) if self.reaches(i + 1) or not self._goes_on else None

    def settled_degrees(self):
        """Degrees 1, 2, ... up to the last one settled, each grown as read."""
        return takewhile(lambda i: self.past_end(i) is False, count(1))

    def stage_module(self, i: int) -> Module:
        return self.stages[i].module if self.reaches(i) else zero_module(self.module.cat)

    def pdim(self) -> int | None:
        """Projective dimension of the module, None when the resolution is
        truncated; every stage of a minimal resolution is nonzero."""
        return self.length() if self.completed else None

    def diff(self, i: int) -> ModuleMap:
        """The map P_i -> P_{i-1} (zero beyond the resolution)."""
        if i >= 1 and self.reaches(i):
            return self.stages[i].epi
        return ModuleMap(self.stage_module(i), self.stage_module(i - 1), {}, check=False)


def projective_resolution(m: Module, cutoff: int) -> Resolution:
    """The minimal resolution of m, at most cutoff stages past P_0, built as
    it is read: each syzygy is covered inside the free stage before it."""
    return Resolution(m, cutoff)


# -- Tor and Ext ----------------------------------------------------------


def _free_map(cat: BoundQuiverCategory, src: list, dst: list, images: list) -> tuple:
    """The map of free modules (+)_l C(c_l,-) -> (+)_k C(b_k,-) over cat,
    src = [c_l] and dst = [b_k], that sends generator l to images[l], its
    column at c_l (free_module layout), as _applied_diff reads it:
    (src, dst, blocks).  Block (l, k, terms) holds the nonzero terms
    coef p.g_k of generator l's image, p a basis path of C(b_k, c_l), each
    as ((b_k, p), (c_l, p reversed), coef), the path's keys on the Hom and
    the tensor side, in basis order; blocks with no term are left out."""
    blocks, starts = [], {}
    for l, (c, image) in enumerate(zip(src, images)):
        if c not in starts:
            starts[c] = block_offsets(cat, dst, c)
        for k, b in enumerate(dst):
            row = starts[c][k]
            terms = [((b, p), (c, p[::-1]), coef) for p, coef in
                     zip(cat.hom_basis_paths(b, c), image[row:starts[c][k + 1]]) if coef]
            if terms:
                blocks.append((l, k, terms))
    return src, dst, blocks


def _diff_images(res: Resolution, j: int) -> tuple:
    """d_j: P_j -> P_{j-1} as _applied_diff reads it (_free_map): the
    generator objects of P_j and P_{j-1}, empty outside the resolution, and
    each generator's image, its summand vector (Cover), compiled once per
    stage, on its Cover."""
    src, dst = ([c for c, _ in res.stages[i].summands] if i >= 0 and res.reaches(i) else []
                for i in (j, j - 1))
    if not (src and dst):
        return src, dst, []
    stage = res.stages[j]
    if stage.diff is None:
        stage.diff = _free_map(stage.module.cat, src, dst,
                               [[row[0] for row in v.data] for _, v in stage.summands])
    return stage.diff


def _applied_diff(x: Module, diff: tuple, tensor: bool, acts: dict) -> Matrix:
    """X applied to diff = (src, dst, blocks), a map of free modules
    (+)_l C(c_l,-) -> (+)_k C(b_k,-) from _free_map.

    By Yoneda, Hom(C(c,-), X) = X(c) and C(-,c) (x) X = X(c), so both sides
    are sums of X over generator objects.  With generator l going to
    sum_k sum_p coef_p p.g_k (p a basis path of C(b_k, c_l)), the block
    between X(b_k) and X(c_l) is sum_p coef_p X(p):
      Hom case (X over the map's category): (+)_k X(b_k) -> (+)_l X(c_l);
      tensor case (X over the opposite, paths reversed): (+)_l X(c_l) -> (+)_k X(b_k).
    Only X's dims and path actions are read here: a block where X vanishes
    at either end is skipped, a block's first term with coefficient 1 is
    written as row slices, any other term added at the nonzero entries of
    X(p).  acts caches X's path actions; calls on one X may share it.
    """
    f, dims = x.cat.field, x.dims
    src, dst, blocks = diff
    src_off = list(accumulate((dims[c] for c in src), initial=0))
    dst_off = list(accumulate((dims[c] for c in dst), initial=0))
    rows, cols = (dst_off[-1], src_off[-1]) if tensor else (src_off[-1], dst_off[-1])
    data = [[f.zero()] * cols for _ in range(rows)]
    if not (rows and cols):
        return Matrix._adopt(f, data, rows, cols)
    add, mul = f.add, f.mul
    for l, k, terms in blocks:
        if not (dims[src[l]] and dims[dst[k]]):
            continue
        r0, c0 = (dst_off[k], src_off[l]) if tensor else (src_off[l], dst_off[k])
        fresh = True
        for hom_key, op_key, coef in terms:
            key = op_key if tensor else hom_key
            if (act := acts.get(key)) is None:
                act = acts[key] = x.act_path(*key)
            if fresh and coef == 1:
                for r, block_row in enumerate(act.data, r0):
                    data[r][c0:c0 + len(block_row)] = block_row
            else:
                for r, block_row in enumerate(act.data, r0):
                    out = data[r]
                    for s, v in enumerate(block_row, c0):
                        if v:
                            out[s] = add(out[s], mul(coef, v))
            fresh = False
    return Matrix._adopt(f, data, rows, cols)


def _derived_dim(res: Resolution, x: Module, i: int, tensor: bool) -> DerivedValue:
    """dim H_i of X applied to the resolution: Tor_i when tensor, else Ext^i,
    as dim ker d_out - rank d_in."""
    if i < 0:
        raise ModuleError("negative degree")
    if (past := res.past_end(i)) is not False:
        return DerivedValue(0 if past else None)
    acts = {}
    # tensor: X P_{i+1} -> X P_i -> X P_{i-1}; Hom: X P_{i-1} -> X P_i -> X P_{i+1}
    d_out, d_in = (_applied_diff(x, _diff_images(res, j), tensor, acts)
                   for j in ((i, i + 1) if tensor else (i + 1, i)))
    if not (d_out @ d_in).is_zero():
        raise LinAlgError("homology: composite differential is nonzero")
    return DerivedValue(d_out.cols - d_out.rank() - d_in.rank())


def _derived_either_side(res: Resolution, x: Module, i: int, tensor: bool,
                        other) -> DerivedValue:
    """_derived_dim over (res, x); where res is truncated below degree i, over
    the other side's pair (resolution, module), which other() builds then."""
    v = _derived_dim(res, x, i, tensor)
    return v if v.conclusive else _derived_dim(*other(), i, tensor)


def tor_dim(m_right: Module, f_mod: Module, i: int, cutoff: int,
            resolution: Resolution | None = None) -> DerivedValue:
    """dim Tor_i(M, F) for a right module M and left module F: over the given
    resolution of M, else one made at the cutoff, falling back to resolving F."""
    if i < 0:
        raise ModuleError("negative homological degree")
    return _derived_either_side(resolution or projective_resolution(m_right, cutoff), f_mod, i,
                                True, lambda: (projective_resolution(f_mod, cutoff), m_right))


def ext_dim(m: Module, n_mod: Module, i: int, cutoff: int,
            resolution: Resolution | None = None) -> DerivedValue:
    """dim Ext^i(M, N) over the given resolution of M, else one made at the
    cutoff, falling back to Ext^i(DN, DM) over a resolution of DN."""
    if i < 0:
        raise ModuleError("negative cohomological degree")
    return _derived_either_side(resolution or projective_resolution(m, cutoff), n_mod, i, False,
                                lambda: (projective_resolution(dual(n_mod), cutoff), dual(m)))


def homology_of_modules(d_out: ModuleMap, d_in: ModuleMap) -> Module:
    """Homology ker(d_out) / im(d_in) at the middle of a complex of modules:
    the cokernel of d_in lifted into the kernel of d_out, its coordinates
    read at the free rows of the kernel basis."""
    K, incl = kernel(d_out)
    lift = {}
    for c, k in incl.mats.items():
        # each column of a canonical kernel basis ends at its free row
        free = [max(compress(range(k.rows), col)) for col in zip(*k.data)]
        lift[c] = free_row_coords(k, free, d_in.mats[c])
        if lift[c] is None:
            raise LinAlgError("homology: composite differential is nonzero")
    return cokernel(ModuleMap(d_in.src, K, lift, check=False))[0]
