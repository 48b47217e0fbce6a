"""Modules over a bound quiver category.

A Module is a k-linear functor C -> k-Mod: a dimension per object and a
matrix per arrow.  Right C-modules are Modules over C.opposite(), which
keeps one code path for both variances.  Everything downstream (duality,
tensor, Hom, resolutions, Tor, Ext) reduces to exact linear algebra.
Hom and tensor share one naturality system: tensor_over_cat reads M (x)_C F
off the Hom system of F -> DM, since D(M (x)_C F) = Hom_C(F, DM); the
Nakayama functor nu(F) = D Hom(F, C) is read off hom bases without it, as
nu^- is.  Tor and Ext over a projective resolution are read off the
generators of its free stages (Yoneda), without building tensor quotients
or Hom systems.  Homology modules are built from kernel and cokernel alone:
the incoming differential lifted into the kernel of the outgoing one, then
its cokernel.

Free modules are known by their generators.  free_module lays out
(+)_k C(c_k,-) once, block k at x spanning the basis paths of C(c_k, x)
with the identity path first; covers, i_! and the basis cover
P(M) = i_! i^* M all use it, and block_offsets finds generator k.  Each
representable C(c,-) is made once per category (BoundQuiverCategory.cached):
a category never changes, and modules are not changed after they are made.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .category import BoundQuiverCategory
from .linalg import LinAlgError, Matrix, ShapeError, direct_sum_many


class ModuleError(Exception):
    pass


class InconclusiveError(ModuleError):
    """A definite answer would need a resolution beyond the cutoff."""


@dataclass(frozen=True)
class DerivedValue:
    """Result of a derived-functor dimension count.

    dim is None exactly when the computation was inconclusive at the cutoff;
    a conclusive value is exact.
    """

    dim: int | None
    conclusive: bool
    note: str = ""

    def expect(self) -> int:
        if not self.conclusive:
            raise InconclusiveError(self.note or "inconclusive at cutoff")
        return self.dim


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
        m = Matrix.identity(self.cat.field, self.dims[c])
        for a in path:
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

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def is_iso(self) -> bool:
        return all(
            m.rows == m.cols and m.rank() == m.rows for m in self.mats.values()
        )

    def is_surjective(self) -> bool:
        return all(m.rank() == m.rows for m in self.mats.values())

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


def simple(cat: BoundQuiverCategory, c) -> Module:
    if c not in cat.objects:
        raise ModuleError(f"unknown object {c!r}")
    return Module(cat, {c: 1}, {}, check=False)


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


def _submodule(ambient: Module, bases: dict, what: str) -> tuple:
    """The submodule of ambient spanned at each object by the columns of
    bases[c], with its inclusion; the span must be arrow-stable."""
    cat = ambient.cat
    mats = {}
    for name, (s, t) in cat.arrow_map.items():
        coords = bases[t].solve(ambient.mats[name] @ bases[s])
        if coords is None:
            raise LinAlgError(f"{what} is not arrow-stable")
        mats[name] = coords
    sub = Module(cat, {c: bases[c].cols for c in cat.objects}, mats, check=False)
    return sub, ModuleMap(sub, ambient, bases, check=False)


def kernel(f: ModuleMap) -> tuple:
    """Kernel module with its inclusion."""
    return _submodule(f.src, {c: f.mats[c].kernel() for c in f.src.cat.objects}, "kernel")


def cokernel(f: ModuleMap) -> tuple:
    """Cokernel module with its projection."""
    cat = f.src.cat
    projs = {c: f.mats[c].cokernel_projection() for c in cat.objects}
    sections = {c: projs[c].right_inverse() for c in cat.objects}
    dims = {c: projs[c].rows for c in cat.objects}
    mats = {}
    for name, (s, t) in cat.arrow_map.items():
        mats[name] = projs[t] @ f.dst.mats[name] @ sections[s]
    Q = Module(cat, dims, mats, check=False)
    proj = ModuleMap(f.dst, Q, projs, check=False)
    return Q, proj


def image(f: ModuleMap) -> tuple:
    """Image module with its inclusion into the target."""
    return _submodule(f.dst, {c: f.mats[c].column_space_basis() for c in f.src.cat.objects},
                      "image")


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
        ma, na = m.mats[name], n.mats[name]
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                row = [z] * ends[-1]
                for k in range(m.dims[t]):
                    idx = offsets[t] + i * m.dims[t] + k
                    row[idx] = f.add(row[idx], ma.data[k][j])
                for k in range(n.dims[s]):
                    idx = offsets[s] + k * m.dims[s] + j
                    row[idx] = f.sub(row[idx], na.data[i][k])
                rows.append(row)
    return Matrix._adopt(f, rows, len(rows), ends[-1])


def hom_basis(m: Module, n: Module) -> list:
    """Canonical basis of the space of module maps m -> n."""
    return _maps_from_columns(m, n, _naturality_system(m, n).kernel())


def hom_coords(basis: list, maps: list, field) -> Matrix:
    """Coordinates of maps in a hom basis: one column per map, from one solve."""
    if not basis:
        if not all(m.is_zero() for m in maps):
            raise ModuleError("nonzero map in zero hom space")
        return Matrix.zeros(field, 0, len(maps))
    if not maps:
        return Matrix.zeros(field, len(basis), 0)
    sol = _map_columns(basis).solve(_map_columns(maps))
    if sol is None:
        raise ModuleError("map outside the span of the hom basis")
    return sol


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
    proj = _naturality_system(f_mod, dual(m)).kernel().transpose()
    return TensorResult(cat.field, dict(zip(cat.objects, ends)), block_dims, ends[-1], proj)


# -- projective covers and resolutions ------------------------------------


def radical_inclusion_images(m: Module, c) -> Matrix:
    """Columns spanning the radical (sum of incoming arrow images) at c."""
    f = m.cat.field
    acc = Matrix.zeros(f, m.dims[c], 0)
    for name, (s, t) in m.cat.arrow_map.items():
        if t == c:
            acc = acc.hstack(m.mats[name])
    return acc


@dataclass
class Cover:
    module: Module          # the projective cover P
    epi: ModuleMap          # P -> M
    summands: list          # of (object, generator column in M(object))


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
    p.a is M(a) applied to the image of p, each prefix computed once."""
    cat = m.cat
    rows = {x: [[] for _ in range(m.dims[x])] for x in cat.objects}
    for c, vec in summands:
        images = {(): vec}
        for x in cat.objects:
            for p in cat.hom_basis_paths(c, x):
                for k in range(1, len(p) + 1):
                    if p[:k] not in images:
                        images[p[:k]] = m.mats[p[k - 1]] @ images[p[:k - 1]]
                for row, entry in zip(rows[x], images[p].data):
                    row += entry
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
    summands = []
    for c in m.cat.objects:
        gens = radical_inclusion_images(m, c).cokernel_projection().right_inverse()
        summands += [(c, gens.col(j)) for j in range(gens.cols)]
    cov = free_on_generators(m, summands)
    if not cov.epi.is_surjective():
        raise ModuleError("projective cover failed to surject (radical not nilpotent?)")
    return cov


@dataclass
class Resolution:
    """Projective resolution ... -> P_1 -> P_0 -> M (possibly truncated)."""

    module: Module
    stages: list            # of Cover; stages[i].module = P_i
    diffs: list             # diffs[i]: P_{i+1} -> P_i, for i >= 0
    completed: bool
    cutoff: int

    def length(self) -> int:
        return len(self.stages) - 1

    def stage_module(self, i: int) -> Module:
        if i < len(self.stages):
            return self.stages[i].module
        return zero_module(self.module.cat)

    def pdim(self) -> int | None:
        """Projective dimension of the module, None when the resolution is
        truncated; every stage of a minimal resolution is nonzero."""
        return self.length() if self.completed else None

    def diff(self, i: int) -> ModuleMap:
        """The map P_i -> P_{i-1} (zero beyond the computed range)."""
        if 1 <= i <= len(self.diffs):
            return self.diffs[i - 1]
        return ModuleMap(self.stage_module(i), self.stage_module(i - 1), {}, check=False)


def projective_resolution(m: Module, cutoff: int) -> Resolution:
    if cutoff < 0:
        raise ModuleError("cutoff must be nonnegative")
    cover0 = projective_cover(m)
    stages = [cover0]
    diffs = []
    current_epi = cover0.epi
    completed = m.is_zero() and cover0.module.is_zero()
    for _ in range(cutoff):
        k, incl = kernel(current_epi)
        if k.is_zero():
            completed = True
            break
        cov = projective_cover(k)
        stages.append(cov)
        diffs.append(cov.epi.then(incl))
        current_epi = cov.epi
    else:
        k, _ = kernel(current_epi)
        if k.is_zero():
            completed = True
    return Resolution(m, stages, diffs, completed, cutoff)


def pdim(m: Module, cutoff: int) -> int | None:
    """Projective dimension; None means not settled within the cutoff."""
    return projective_resolution(m, cutoff).pdim()


# -- Tor and Ext ----------------------------------------------------------


def _generators(res: Resolution, j: int) -> list:
    """Objects c_l of the summands C(c_l,-) of P_j; empty outside the resolution."""
    return [c for c, _ in res.stages[j].summands] if 0 <= j < len(res.stages) else []


def _applied_diff(res: Resolution, x: Module, j: int, tensor: bool) -> Matrix:
    """X applied to d_j: P_j -> P_{j-1}, read off the generators of P_j.

    By Yoneda, Hom(C(c,-), X) = X(c) and C(-,c) (x) X = X(c), so both sides
    are sums of X over generator objects.  With d_j sending generator l to
    sum_k sum_p coef_p p.g_k (p a basis path of C(c_k, c_l)), the block
    between X(c_k) and X(c_l) is sum_p coef_p X(p):
      Hom case (X over the resolution's category): (+)_k X(c_k) -> (+)_l X(c_l);
      tensor case (X over the opposite, paths reversed): (+)_l X(c_l) -> (+)_k X(c_k).
    """
    f = x.cat.field
    src, dst = _generators(res, j), _generators(res, j - 1)
    src_off = list(accumulate((x.dims[c] for c in src), initial=0))
    dst_off = list(accumulate((x.dims[c] for c in dst), initial=0))
    rows, cols = (dst_off[-1], src_off[-1]) if tensor else (src_off[-1], dst_off[-1])
    data = [[f.zero()] * cols for _ in range(rows)]
    if src and dst:
        cat = res.module.cat
        d = res.diff(j)
        acts: dict = {}
        for l, c in enumerate(src):
            gen = block_offsets(cat, src, c)[l]
            starts = block_offsets(cat, dst, c)
            for k, b in enumerate(dst):
                for row, p in enumerate(cat.hom_basis_paths(b, c), starts[k]):
                    coef = d.mats[c].data[row][gen]
                    if not coef:
                        continue
                    key = (c, tuple(reversed(p))) if tensor else (b, p)
                    if key not in acts:
                        acts[key] = x.act_path(*key)
                    r0, c0 = (dst_off[k], src_off[l]) if tensor else (src_off[l], dst_off[k])
                    for r, block_row in enumerate(acts[key].data):
                        out = data[r0 + r]
                        for s, v in enumerate(block_row):
                            out[c0 + s] = f.add(out[c0 + s], f.mul(coef, v))
    return Matrix._adopt(f, data, rows, cols)


def _derived_dim(res: Resolution, x: Module, i: int, tensor: bool) -> DerivedValue:
    """dim H_i of X applied to the resolution: Tor_i when tensor, else Ext^i,
    as dim ker d_out - rank d_in."""
    if i < 0:
        raise ModuleError("negative degree")
    n = res.length()
    if not res.completed and i > n - 1:
        return DerivedValue(None, False, "resolution truncated below requested degree")
    if i > n:
        return DerivedValue(0, True)
    if tensor:  # X P_{i+1} -> X P_i -> X P_{i-1}
        d_out, d_in = _applied_diff(res, x, i, True), _applied_diff(res, x, i + 1, True)
    else:       # X P_{i-1} -> X P_i -> X P_{i+1}
        d_out, d_in = _applied_diff(res, x, i + 1, False), _applied_diff(res, x, i, False)
    if not (d_out @ d_in).is_zero():
        raise LinAlgError("homology: composite differential is nonzero")
    return DerivedValue(d_out.cols - d_out.rank() - d_in.rank(), True)


def tor_dim(m_right: Module, f_mod: Module, i: int, cutoff: int,
            resolution: Resolution | None = None) -> DerivedValue:
    """dim Tor_i(M, F) for a right module M and left module F.

    Resolves the right-hand side first; falls back to resolving F when the
    first route is truncated below the requested degree.
    """
    if i < 0:
        raise ModuleError("negative homological degree")
    res = resolution or projective_resolution(m_right, cutoff)
    out = _derived_dim(res, f_mod, i, tensor=True)
    if out.conclusive or resolution is not None:
        return out
    out2 = _derived_dim(projective_resolution(f_mod, cutoff), m_right, i, tensor=True)
    if out2.conclusive:
        return out2
    return DerivedValue(None, False, "both tensor-side resolutions truncated")


def ext_dim(m: Module, n_mod: Module, i: int, cutoff: int,
            resolution: Resolution | None = None) -> DerivedValue:
    """dim Ext^i(M, N); falls back to the dual-side computation when needed."""
    if i < 0:
        raise ModuleError("negative cohomological degree")
    res = resolution or projective_resolution(m, cutoff)
    out = _derived_dim(res, n_mod, i, tensor=False)
    if out.conclusive or resolution is not None:
        return out
    out2 = _derived_dim(projective_resolution(dual(n_mod), cutoff), dual(m), i, tensor=False)
    if out2.conclusive:
        return out2
    return DerivedValue(None, False, "both Ext routes truncated at cutoff")


def homology_of_modules(d_out: ModuleMap, d_in: ModuleMap) -> Module:
    """Homology ker(d_out) / im(d_in) at the middle of a complex of modules:
    the cokernel of d_in lifted into the kernel of d_out, one solve per object."""
    K, incl = kernel(d_out)
    lift = {}
    for c in K.cat.objects:
        lift[c] = incl.mats[c].solve(d_in.mats[c])
        if lift[c] is None:
            raise LinAlgError("homology: composite differential is nonzero")
    return cokernel(ModuleMap(d_in.src, K, lift, check=False))[0]
