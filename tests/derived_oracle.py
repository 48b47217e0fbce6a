"""Reference routes kept apart from the production ones.

`tensor_projection` builds the quotient map of M (x)_C F from the tensor
relations m.a (x) f - m (x) a.f column by column, without the Hom system.

Tor/Ext dimensions are computed without the generator shortcut: every
stage of the resolution is treated as an arbitrary module.  Tor goes
through the explicit tensor quotient (`tensor_over_cat` plus
`tensor_induced`), Ext through the dense Hom system (`hom_basis` plus one
generic solve per differential, not `hom_coords`).  The truncation and
vanishing rules are the same as in `gpquiver.modules`, so results compare
as DerivedValues.

Homology dimensions come from a kernel basis, the lift of the incoming
differential into it, and the cokernel of that lift, not from the rank
formula the production route uses.

`free_cover_by_paths` and `p_counit_kronecker` build free modules the long
way: direct sums of representables, a whole path matrix M(p) per generator
image, and P(F) over a base as Kronecker products of representables with
the coefficients.

`tensor_induced` is the map of tensor quotients induced by u (x) v, its
ambient matrix assembled from Kronecker products, with identity matrices
for a missing factor, and pushed through a section of the source quotient.

`TensorNakayamaEngine` computes nu, nu_map and the unit lambda through the
tensor quotient instead of presentations: nu(F)(c) as D C(c,-) (x)_C F,
arrows and maps through `tensor_induced`, and lambda from the columns of the
quotient map at xi_i (x) e_j; and nu^- and its maps off hom bases,
nu^-(F)(c) = Hom(D C(-,c), F) with coordinates from `hom_coords`.

`applied_diff_by_entries` is the Yoneda matrix of `_applied_diff` built one
entry at a time: every term of every block added at every entry of X(p),
with no row slices and no skipped multiplication.

`kernel_module_resolution` resolves through kernel modules: the cover of
each stage's kernel module, by generators spanning a complement of the
radical (`complement_cover`), followed by the kernel's inclusion, which
also carries its generators' vectors into the stage before, as in a
production `Cover`.
`padded_resolution` is a non-minimal resolution of that shape: every cover
carries one more generator, sent to zero.  Both are `GivenResolution`s,
built whole up front and read as production resolutions are.

`span_cover` is the cover a resolution stage had before stages covered
their syzygy in kernel coordinates: each syzygy stays inside the dense free
stage before it, and its generators are the basis columns left as pivots
by one rref of [rad | basis], rad the images of the arrows into the object.
`span_stages` is the minimal resolution built from it, stage by stage.
"""

from dataclasses import dataclass

from crosscheck import cokernel_projection, hom_coords, right_inverse
from gpquiver.linalg import LinAlgError, Matrix, direct_sum_many, kronecker_product
from gpquiver.modules import (
    Cover,
    DerivedValue,
    Module,
    ModuleMap,
    Resolution,
    _map_columns,
    block_offsets,
    direct_sum_modules,
    free_on_generators,
    hom_basis,
    kernel,
    projective_cover,
    representable,
    tensor_over_cat,
    zero_module,
)
from gpquiver.nakayama import NakayamaEngine


def free_cover_by_paths(m, summands):
    """The module and epi matrices of free_on_generators(m, summands): the
    direct sum of the representables C(c,-), with M(p) @ vec for each basis
    path p of C(c, x) as the columns at x."""
    cat = m.cat
    parts = [representable(cat, c) for c, _ in summands]
    total = direct_sum_modules(parts)[0] if parts else zero_module(cat)
    epi = {}
    for x in cat.objects:
        acc = Matrix.zeros(cat.field, m.dims[x], 0)
        for c, vec in summands:
            for p in cat.hom_basis_paths(c, x):
                acc = acc.hstack(m.act_path(c, p) @ vec)
        epi[x] = acc
    return total, epi


def padded_cover(m):
    """The minimal cover of m with one more generator, at the first object,
    sent to zero."""
    c = m.cat.objects[0]
    return free_on_generators(
        m, projective_cover(m).summands + [(c, Matrix.zeros(m.cat.field, m.dims[c], 1))])


def complement_cover(m):
    """The minimal cover of m with generators at c spanning a complement of
    the radical there: a right inverse of the cokernel projection of the
    images of the arrows into c."""
    cat = m.cat
    summands = []
    for c in cat.objects:
        rad = Matrix.zeros(cat.field, m.dims[c], 0)
        for name, (s, t) in cat.arrow_map.items():
            if t == c:
                rad = rad.hstack(m.mats[name])
        gens = right_inverse(cokernel_projection(rad))
        summands += [(c, gens.col(j)) for j in range(gens.cols)]
    return free_on_generators(m, summands)


def applied_diff_by_entries(cat, x, src, dst, images, tensor):
    """_applied_diff(cat, x, src, dst, images, tensor, {}) entry by entry."""
    f = x.cat.field
    src_off = [sum(x.dims[c] for c in src[:l]) for l in range(len(src) + 1)]
    dst_off = [sum(x.dims[b] for b in dst[:k]) for k in range(len(dst) + 1)]
    rows, cols = (dst_off[-1], src_off[-1]) if tensor else (src_off[-1], dst_off[-1])
    data = [[f.zero()] * cols for _ in range(rows)]
    for l, (c, image) in enumerate(zip(src, images)):
        starts = block_offsets(cat, dst, c)
        for k, b in enumerate(dst):
            for row, p in enumerate(cat.hom_basis_paths(b, c), starts[k]):
                coef = image[row]
                if not coef:
                    continue
                block = x.act_path(c, tuple(reversed(p))) if tensor else x.act_path(b, p)
                r0, c0 = (dst_off[k], src_off[l]) if tensor else (src_off[l], dst_off[k])
                for r, block_row in enumerate(block.data):
                    out = data[r0 + r]
                    for s, v in enumerate(block_row):
                        out[c0 + s] = f.add(out[c0 + s], f.mul(coef, v))
    return Matrix(f, data, rows, cols)


def span_cover(x, bases):
    """The minimal cover, mapping into x, of the submodule spanned by the
    columns of bases[c] at each c, or of x itself where bases is None, with
    its syzygy: the generators at c are the columns of bases[c] (of the
    identity) that are pivots of one rref of [rad | bases[c]], rad spanning
    the images of the arrows into c."""
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
        _, pivots = Matrix(f, stacked, basis.rows, width + basis.cols).rref()
        summands += [(c, basis.col(j - width)) for j in pivots if j >= width]
    cov = free_on_generators(x, summands)
    cov.syzygy = {}
    for c in cat.objects:
        rank, cov.syzygy[c], _ = cov.epi.mats[c].kernel_basis()
        assert rank == spans[c], "the cover is onto the span"
    return cov


def span_stages(m, cutoff):
    """The stages of the minimal resolution of m, at most cutoff past P_0,
    each syzygy covered inside the free stage before it (span_cover)."""
    stages = [span_cover(m, None)]
    while len(stages) <= cutoff and any(k.cols for k in stages[-1].syzygy.values()):
        stages.append(span_cover(stages[-1].module, stages[-1].syzygy))
    return stages


class GivenResolution(Resolution):
    """A resolution whose stages are all given, possibly not minimal; it has
    no stage past them, and goes on past the last one unless completed."""

    def __init__(self, m, stages, completed, cutoff):
        super().__init__(m, cutoff)
        self.stages, self._goes_on = stages, not completed

    def reaches(self, i):
        return i < len(self.stages)


def kernel_module_resolution(m, cutoff, cover=complement_cover):
    """A resolution of m through kernel modules, at most cutoff stages past
    P_0: each stage covers the kernel module of the map before it, and its
    differential is the cover followed by the kernel's inclusion."""
    stages = [cover(m)]
    for _ in range(cutoff):
        k, incl = kernel(stages[-1].epi)
        if k.is_zero():
            return GivenResolution(m, stages, True, cutoff)
        cov = cover(k)
        stages.append(Cover(cov.module, cov.epi.then(incl),
                            [(c, incl.mats[c] @ v) for c, v in cov.summands]))
    return GivenResolution(m, stages, kernel(stages[-1].epi)[0].is_zero(), cutoff)


def padded_resolution(m, cutoff):
    """A resolution of m by padded covers, cutoff stages past P_0; it never
    completes, since every cover kernel contains the padding summand."""
    return kernel_module_resolution(m, cutoff, padded_cover)


def p_counit_kronecker(fact, F):
    """The based counit P(F) -> F with P(F)(d, x) = (+)_c C(c, x) (x) F(d, c),
    coordinates in (c, p, j) order: C acts on the representable leg, the base
    on the coefficient leg."""
    C, B, T = fact.cat, fact.base, fact.total
    f = T.field
    reps = {c: representable(C, c) for c in C.objects}
    dims, mats, eps = {}, {}, {}
    for d in B.objects:
        fib = fact.fiber(F, d)
        for x in C.objects:
            dims[fact.name(d, x)] = sum(C.hom_dim(c, x) * fib.dims[c] for c in C.objects)
            acc = Matrix.zeros(f, fib.dims[x], 0)
            for c in C.objects:
                for p in C.hom_basis_paths(c, x):
                    acc = acc.hstack(fib.act_path(c, p))
            eps[fact.name(d, x)] = acc
        for a in C.arrow_map:
            mats[fact.name(d, a)] = direct_sum_many(f, [
                kronecker_product(reps[c].mats[a], Matrix.identity(f, fib.dims[c]))
                for c in C.objects])
    for b in B.arrow_map:
        for x in C.objects:
            mats[fact.name(b, x)] = direct_sum_many(f, [
                kronecker_product(Matrix.identity(f, C.hom_dim(c, x)),
                                  F.mats[fact.name(b, c)])
                for c in C.objects])
    PF = Module(T, dims, mats, check=False)
    return PF, ModuleMap(PF, F, eps, check=False)


def induced(src, dst, ambient_map):
    """The map of tensor quotients src -> dst given by a map of ambients,
    through a section of the quotient map of src."""
    return dst.proj @ (ambient_map @ right_inverse(src.proj))


def tensor_induced(src, dst, cat, u, v):
    """The map of tensor quotients src -> dst induced by u (x) v, u on the
    right-module side and v on the left one, a missing factor being the
    identity; the ambient matrix is a direct sum of Kronecker products."""
    u_mats = {y: u.mats[y] if u is not None else Matrix.identity(src.field, src.block_dims[y][0])
              for y in cat.objects}
    v_mats = {y: v.mats[y] if v is not None else Matrix.identity(src.field, src.block_dims[y][1])
              for y in cat.objects}
    amb = direct_sum_many(src.field, [kronecker_product(u_mats[y], v_mats[y])
                                      for y in cat.objects])
    return induced(src, dst, amb)


@dataclass
class TensorApplied:
    module: Module
    data: dict  # object c -> TensorResult of D C(c,-) (x)_C F
    source: Module


@dataclass
class HomApplied:
    module: Module
    bases: dict  # object c -> hom basis of D C(-,c) -> F
    source: Module


class TensorNakayamaEngine(NakayamaEngine):
    """nu, nu_map and lambda_unit through the tensor quotients, nu^- and
    nu_minus_map through hom bases; only the coefficient data is shared with
    the production engine."""

    def nu(self, f_mod):
        cat = self.cat
        data = {c: tensor_over_cat(self.coef_right(c), f_mod) for c in cat.objects}
        mats = {a: tensor_induced(data[s], data[t], cat, self.u_map(a), None)
                for a, (s, t) in cat.arrow_map.items()}
        return TensorApplied(Module(cat, {c: data[c].dim for c in cat.objects}, mats,
                                    check=False), data, f_mod)

    def nu_map(self, src, dst, phi):
        cat = self.cat
        mats = {c: tensor_induced(src.data[c], dst.data[c], cat, None, phi) for c in cat.objects}
        return ModuleMap(src.module, dst.module, mats, check=False)

    def nu_minus(self, f_mod):
        """nu^-(F)(c) = Hom(D C(-,c), F), in a hom basis; a: s -> t acts by
        precomposition with w_a."""
        cat = self.cat
        bases = {c: hom_basis(self.coef_left(c), f_mod) for c in cat.objects}
        mats = {a: hom_coords(bases[t], [self.w_map(a).then(psi) for psi in bases[s]], cat.field)
                for a, (s, t) in cat.arrow_map.items()}
        return HomApplied(Module(cat, {c: len(b) for c, b in bases.items()}, mats, check=False),
                          bases, f_mod)

    def nu_minus_map(self, src, dst, phi):
        cat = self.cat
        mats = {c: hom_coords(dst.bases[c], [psi.then(phi) for psi in src.bases[c]], cat.field)
                for c in cat.objects}
        return ModuleMap(src.module, dst.module, mats, check=False)

    def lambda_unit(self, f_mod, nuF=None, nm=None):
        """e_j in F(c) goes to the map D C(-,c) -> nu F sending xi_i to the
        class of xi_i (x) e_j: the columns of the quotient map at x there."""
        cat = self.cat
        nuF = nuF or self.nu(f_mod)
        nm = nm or self.nu_minus(nuF.module)
        n = f_mod.dims
        mats = {}
        for c in cat.objects:
            maps = []
            for j in range(n[c]):
                comps = {}
                for x in cat.objects:
                    t = nuF.data[x]
                    cols = [t.offsets[c] + i * n[c] + j for i in range(cat.hom_dim(x, c))]
                    comps[x] = t.proj.submatrix(range(t.proj.rows), cols)
                maps.append(ModuleMap(self.coef_left(c), nuF.module, comps, check=False))
            mats[c] = hom_coords(nm.bases[c], maps, cat.field)
        return ModuleMap(f_mod, nm.module, mats, check=False)


def tensor_projection(m, f_mod):
    """The quotient map of tensor_over_cat(m, f_mod), from one relation column
    per arrow a: s -> t and basis pair (i, j) of M(t) x F(s)."""
    cat = f_mod.cat
    f = cat.field
    offsets, off = {}, 0
    for y in cat.objects:
        offsets[y] = off
        off += m.dims[y] * f_mod.dims[y]
    cols = []
    for name, (s, t) in cat.arrow_map.items():
        # m is contravariant, so m.mats[a]: M(t) -> M(s)
        ma, fa = m.mats[name], f_mod.mats[name]
        for i in range(m.dims[t]):
            for j in range(f_mod.dims[s]):
                col = [f.zero()] * off
                for k in range(m.dims[s]):
                    idx = offsets[s] + k * f_mod.dims[s] + j
                    col[idx] = f.add(col[idx], ma.data[k][i])
                for l in range(f_mod.dims[t]):
                    idx = offsets[t] + i * f_mod.dims[t] + l
                    col[idx] = f.sub(col[idx], fa.data[l][j])
                cols.append(col)
    rel = Matrix(f, [[c[r] for c in cols] for r in range(off)], off, len(cols))
    return cokernel_projection(rel)


def _homology_dim(d_out, d_in):
    """dim ker d_out / im d_in: d_in lifted into a kernel basis of d_out, then
    the dimension of the cokernel of the lift."""
    incoming = d_out.kernel_basis()[1].solve(d_in)
    if incoming is None:
        raise LinAlgError("homology: composite differential is nonzero")
    return cokernel_projection(incoming).rows


def _out_of_range(res, i):
    n = res.length()
    if not res.completed and i > n - 1:
        return DerivedValue(None)
    if i > n:
        return DerivedValue(0)
    return None


def _tor(res, tens, cat, i, induced):
    n = res.length()
    d_out = Matrix.zeros(cat.field, 0, tens[0].dim) if i == 0 else induced(i)
    d_in = Matrix.zeros(cat.field, tens[i].dim, 0) if i + 1 > n else induced(i + 1)
    return DerivedValue(_homology_dim(d_out, d_in))


def tor_from_resolution_of_right(res, f_mod, i):
    """dim Tor_i(M, F) from a resolution of the right module M."""
    early = _out_of_range(res, i)
    if early is not None:
        return early
    cat = f_mod.cat
    tens = [tensor_over_cat(res.stage_module(j), f_mod)
            for j in range(min(i + 1, res.length()) + 1)]
    return _tor(res, tens, cat, i,
                lambda j: tensor_induced(tens[j], tens[j - 1], cat, res.diff(j), None))


def tor_from_resolution_of_left(m_right, res_f, i):
    """dim Tor_i(M, F) from a resolution of the left module F."""
    early = _out_of_range(res_f, i)
    if early is not None:
        return early
    cat = res_f.module.cat
    tens = [tensor_over_cat(m_right, res_f.stage_module(j))
            for j in range(min(i + 1, res_f.length()) + 1)]
    return _tor(res_f, tens, cat, i,
                lambda j: tensor_induced(tens[j], tens[j - 1], cat, None, res_f.diff(j)))


def ext_from_resolution(res, n_mod, i):
    """dim Ext^i(M, N) from a resolution of M."""
    early = _out_of_range(res, i)
    if early is not None:
        return early
    n = res.length()
    f = n_mod.cat.field
    bases = [hom_basis(res.stage_module(j), n_mod) for j in range(min(i + 1, n) + 1)]

    def delta(j):
        # Hom(P_j, N) -> Hom(P_{j+1}, N), phi -> phi after d_{j+1}, by a
        # generic solve rather than hom_coords' read at the free rows
        d = res.diff(j + 1)
        images = [d.then(phi) for phi in bases[j]]
        if not bases[j + 1] or not images:
            return Matrix.zeros(f, len(bases[j + 1]), len(images))
        coords = _map_columns(bases[j + 1]).solve(_map_columns(images))
        if coords is None:
            raise LinAlgError("map outside the span of the hom basis")
        return coords

    d_out = delta(i) if i + 1 <= n else Matrix.zeros(f, 0, len(bases[i]))
    d_in = delta(i - 1) if i >= 1 else Matrix.zeros(f, len(bases[0]), 0)
    return DerivedValue(_homology_dim(d_out, d_in))
