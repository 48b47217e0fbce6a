"""The Nakayama functor nu = D(C) (x)_C -, its right adjoint, the adjoint
triple around evaluation, derived functors, and the Gorenstein dimension of
the projectivization endofunctor P.

Coefficient modules D(C(c,-)) (right) and D(C(-,c)) (left) and their minimal
resolutions are cached in an engine, and `shared_engine` gives one engine per
category and resolution cutoff, so every verdict over the same category, and
every sweep of its representations, reuses them.  Sharing is safe because a
category never changes and an engine holds nothing but these caches.

Both halves of the bimodule D(C) are written in one basis, the dual of C's
own path basis: D(C)(x, y) = D(C(x, y)), with the left action read off
precomposition and the right one off the representables.

The derived functors have one shape.  Their dimension counts are Tor and Ext
over the cached coefficient resolutions.  As modules, L_i nu (F) and
R^i nu^- (F) are the homology at stage i of nu applied to a projective
resolution of F, and of nu^- applied to the injective coresolution D(P_j) of
F, P a projective resolution of D(F); only stages i-1, i and i+1 are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .category import BoundQuiverCategory
from .linalg import Matrix
from .modules import (
    Cover,
    InconclusiveError,
    Module,
    ModuleMap,
    ModuleError,
    Resolution,
    _derived_dim,
    basis_cover,
    block_offsets,
    direct_sum_modules,
    dual,
    dual_map,
    free_module,
    hom_basis,
    hom_coords,
    homology_of_modules,
    projective_resolution,
    representable,
    tensor_induced,
    tensor_over_cat,
    zero_module,
)


@dataclass
class NuApplied:
    """nu(F) together with the tensor presentations used at each object."""

    module: Module
    data: dict  # object -> TensorResult
    source: Module


@dataclass
class NuMinusApplied:
    """nu^-(F) together with the hom bases used at each object."""

    module: Module
    bases: dict  # object -> list of ModuleMap coef_left[c] -> F
    source: Module


@dataclass
class GorensteinDimension:
    """Result of the two-sided coefficient pdim computation."""

    value: int | None
    status: str               # "finite" or "not-Iwanaga-Gorenstein-at-cutoff"
    left_pdims: dict          # c -> pdim D(C(-,c)) over C, None = unsettled
    right_pdims: dict         # c -> pdim D(C(c,-)) over C^op, None = unsettled
    cutoff: int

    @property
    def finite(self) -> bool:
        return self.status == "finite"


def precomposition(cat: BoundQuiverCategory, arrow: str) -> dict:
    """For a: s -> t, the matrix at each object x of the map C(t,-) -> C(s,-)
    given by q -> q after a, in the path bases."""
    s, t = cat.arrow_map[arrow]
    f = cat.field
    mats = {}
    for x in cat.objects:
        idx = {p: i for i, p in enumerate(cat.hom_basis_paths(s, x))}
        cols = cat.hom_basis_paths(t, x)
        data = [[f.zero()] * len(cols) for _ in idx]
        for j, p in enumerate(cols):
            for q, coef in cat.reduce_word(s, (arrow,) + p).items():
                data[idx[q]][j] = coef
        mats[x] = Matrix._adopt(f, data, len(idx), len(cols))
    return mats


class NakayamaEngine:
    """All Nakayama-side computations for one category, with caching."""

    def __init__(self, cat: BoundQuiverCategory, cutoff: int = 16):
        self.cat = cat
        self.cutoff = cutoff
        self._coef_right: dict = {}
        self._coef_left: dict = {}
        self._res_right: dict = {}
        self._res_left: dict = {}
        self._u: dict = {}
        self._w: dict = {}
        self._gdim: GorensteinDimension | None = None

    # -- coefficient bimodule ---------------------------------------------

    def coef_right(self, c) -> Module:
        """D(C(c,-)): the value of D(C) at c, a right module."""
        if c not in self._coef_right:
            self._coef_right[c] = dual(representable(self.cat, c))
        return self._coef_right[c]

    def coef_left(self, c) -> Module:
        """D(C(-,c)): a left module, the c-th injective I(c); a: s -> t acts
        by the dual of precomposition, D(C(s,c)) -> D(C(t,c))."""
        if c not in self._coef_left:
            cat = self.cat
            if c not in cat.objects:
                raise ModuleError(f"unknown object {c!r}")
            self._coef_left[c] = Module(
                cat, {x: cat.hom_dim(x, c) for x in cat.objects},
                {a: self.u_map(a).mats[c] for a in cat.arrow_map}, check=False)
        return self._coef_left[c]

    def res_right(self, c) -> Resolution:
        if c not in self._res_right:
            self._res_right[c] = projective_resolution(self.coef_right(c), self.cutoff)
        return self._res_right[c]

    def res_left(self, c) -> Resolution:
        if c not in self._res_left:
            self._res_left[c] = projective_resolution(self.coef_left(c), self.cutoff)
        return self._res_left[c]

    def u_map(self, arrow: str) -> ModuleMap:
        """D(C(s,-)) -> D(C(t,-)) for a: s -> t (covariant coefficient maps)."""
        if arrow not in self._u:
            s, t = self.cat.arrow_map[arrow]
            self._u[arrow] = ModuleMap(
                self.coef_right(s), self.coef_right(t),
                {x: m.transpose() for x, m in precomposition(self.cat, arrow).items()},
                check=False)
        return self._u[arrow]

    def w_map(self, arrow: str) -> ModuleMap:
        """D(C(-,t)) -> D(C(-,s)) for a: s -> t (contravariant coefficient
        maps): at x, the action of a on the right module D(C(x,-))."""
        if arrow not in self._w:
            s, t = self.cat.arrow_map[arrow]
            self._w[arrow] = ModuleMap(
                self.coef_left(t), self.coef_left(s),
                {x: self.coef_right(x).mats[arrow] for x in self.cat.objects}, check=False)
        return self._w[arrow]

    # -- the adjoint triple ------------------------------------------------

    def _generator_objects(self, parts: dict) -> list:
        """The object of each summand of i_!(parts), in object order."""
        for c in parts:
            if c not in self.cat.objects:
                raise ModuleError(f"unknown object {c!r} in parts")
        return [c for c in self.cat.objects for _ in range(int(parts.get(c, 0)))]

    def i_shriek(self, parts: dict) -> Cover:
        """(+)_c C(c,-) (x) k^{n_c} = free_module on the generator objects.

        Returns a Cover whose summand list records the source object of each
        representable summand, in object order.
        """
        objs = self._generator_objects(parts)
        total = free_module(self.cat, objs)
        return Cover(total, ModuleMap.identity(total), [(c, None) for c in objs])

    def i_shriek_module(self, parts: dict) -> Module:
        return self.i_shriek(parts).module

    def i_star_restrict(self, f_mod: Module) -> dict:
        return dict(f_mod.dims)

    def counit_P(self, f_mod: Module) -> tuple:
        """P(F) = i_! i^* F with its action epimorphism onto F."""
        cov = basis_cover(f_mod)
        return cov.module, cov.epi

    def unit_parts(self, parts: dict) -> dict:
        """parts -> i^* i_!(parts): at c, generator k of each summand at c."""
        cat = self.cat
        f = cat.field
        objs = self._generator_objects(parts)
        mats = {}
        for c in cat.objects:
            starts = block_offsets(cat, objs, c)
            gens = [starts[k] for k, obj in enumerate(objs) if obj == c]
            mats[c] = Matrix.identity(f, starts[-1]).submatrix(range(starts[-1]), gens)
        return mats

    def i_star_coinduced(self, parts: dict) -> Module:
        """(+)_c D(C(-,c)) (x) k^{n_c}: the coinduction i_* = nu after i_!."""
        mods = [self.coef_left(c) for c in self._generator_objects(parts)]
        return direct_sum_modules(mods)[0] if mods else zero_module(self.cat)

    # -- nu and nu^- -------------------------------------------------------

    def nu(self, f_mod: Module) -> NuApplied:
        cat = self.cat
        data = {c: tensor_over_cat(self.coef_right(c), f_mod) for c in cat.objects}
        dims = {c: data[c].dim for c in cat.objects}
        mats = {}
        for name, (s, t) in cat.arrow_map.items():
            mats[name] = tensor_induced(data[s], data[t], cat, self.u_map(name), None)
        return NuApplied(Module(cat, dims, mats, check=False), data, f_mod)

    def nu_map(self, src: NuApplied, dst: NuApplied, phi: ModuleMap) -> ModuleMap:
        cat = self.cat
        mats = {
            c: tensor_induced(src.data[c], dst.data[c], cat, None, phi)
            for c in cat.objects
        }
        return ModuleMap(src.module, dst.module, mats, check=False)

    def nu_minus(self, f_mod: Module) -> NuMinusApplied:
        cat = self.cat
        bases = {c: hom_basis(self.coef_left(c), f_mod) for c in cat.objects}
        dims = {c: len(bases[c]) for c in cat.objects}
        mats = {}
        for name, (s, t) in cat.arrow_map.items():
            w = self.w_map(name)  # coef_left[t] -> coef_left[s]
            mats[name] = hom_coords(bases[t], [w.then(psi) for psi in bases[s]], cat.field)
        return NuMinusApplied(Module(cat, dims, mats, check=False), bases, f_mod)

    def nu_minus_map(self, src: NuMinusApplied, dst: NuMinusApplied, phi: ModuleMap) -> ModuleMap:
        cat = self.cat
        mats = {c: hom_coords(dst.bases[c], [psi.then(phi) for psi in src.bases[c]], cat.field)
                for c in cat.objects}
        return ModuleMap(src.module, dst.module, mats, check=False)

    # -- unit and counit of nu -| nu^- -------------------------------------

    def _hom_into_nu(self, c, x, nuF: NuApplied, j: int) -> Matrix:
        """Component at x of the map coef_left[c] -> nu(F) sending xi to the
        class of xi (x) e_j, e_j the j-th basis vector of F(c).  The dual
        basis of D(C(x,c)) is block c of coef_right[x], so this selects the
        columns of the tensor projection at xi_i (x) e_j."""
        t = nuF.data[x]
        n = nuF.source.dims[c]
        return t.proj.submatrix(range(t.proj.rows),
                                [t.offsets[c] + i * n + j for i in range(self.cat.hom_dim(x, c))])

    def lambda_unit(self, f_mod: Module, nuF: NuApplied | None = None,
                    nm: NuMinusApplied | None = None) -> ModuleMap:
        """The unit F -> nu^- nu F."""
        cat = self.cat
        nuF = nuF or self.nu(f_mod)
        nm = nm or self.nu_minus(nuF.module)
        mats = {}
        for c in cat.objects:
            maps = [ModuleMap(self.coef_left(c), nuF.module,
                              {x: self._hom_into_nu(c, x, nuF, j) for x in cat.objects},
                              check=False)
                    for j in range(f_mod.dims[c])]
            mats[c] = hom_coords(nm.bases[c], maps, cat.field)
        return ModuleMap(f_mod, nm.module, mats, check=False)

    def sigma_counit(self, f_mod: Module, nm: NuMinusApplied | None = None,
                     nu_nm: NuApplied | None = None) -> ModuleMap:
        """The counit nu nu^- F -> F."""
        cat = self.cat
        f = cat.field
        nm = nm or self.nu_minus(f_mod)
        nu_nm = nu_nm or self.nu(nm.module)
        mats = {}
        for c in cat.objects:
            t = nu_nm.data[c]
            V = Matrix.zeros(f, f_mod.dims[c], t.ambient)
            for y in cat.objects:
                ny = len(nm.bases[y])
                for m_idx, psi in enumerate(nm.bases[y]):
                    # xi_i (x) psi -> psi(xi_i), column i of psi at c
                    for r, row in enumerate(psi.mats[c].data):
                        for i, val in enumerate(row):
                            V.data[r][t.offsets[y] + i * ny + m_idx] = val
            mats[c] = V @ t.section()
        return ModuleMap(nu_nm.module, f_mod, mats, check=False)

    def adjunct(self, psi: ModuleMap, G: Module, nuG: NuApplied,
                nmF: NuMinusApplied) -> ModuleMap:
        """Hom(nu G, F) -> Hom(G, nu^- F) along the adjunction."""
        nm_psi = self.nu_minus_map(self.nu_minus(nuG.module), nmF, psi)
        lam = self.lambda_unit(G, nuG, self.nu_minus(nuG.module))
        return lam.then(nm_psi)

    def coadjunct(self, chi: ModuleMap, G: Module, nuG: NuApplied,
                  nmF: NuMinusApplied, f_mod: Module) -> ModuleMap:
        """Hom(G, nu^- F) -> Hom(nu G, F), the inverse direction."""
        nu_chi = self.nu_map(nuG, self.nu(nmF.module), chi)
        sig = self.sigma_counit(f_mod, nmF, self.nu(nmF.module))
        return nu_chi.then(sig)

    def iso_nu_ishriek(self, parts: dict, shriek: Cover | None = None,
                       nuP: NuApplied | None = None) -> ModuleMap:
        """The canonical map nu(i_!(parts)) -> i_*(parts); an isomorphism.

        A dual path xi tensored with a generator translate p is sent to the
        functional q -> xi(p after q) in the matching coinduced block.
        """
        cat = self.cat
        f = cat.field
        shriek = shriek or self.i_shriek(parts)
        nuP = nuP or self.nu(shriek.module)
        coind = self.i_star_coinduced(parts)
        summands = [c for c, _ in shriek.summands]
        mats = {}
        for x in cat.objects:
            t = nuP.data[x]
            V = Matrix.zeros(f, coind.dims[x], t.ambient)
            offs = list(accumulate((cat.hom_dim(x, c) for c in summands), initial=0))
            for y in cat.objects:
                starts = block_offsets(cat, summands, y)  # i_! at y
                for wi, w in enumerate(cat.hom_basis_paths(x, y)):
                    for k, c in enumerate(summands):
                        for si, p in enumerate(cat.hom_basis_paths(c, y), starts[k]):
                            col = t.offsets[y] + wi * starts[-1] + si
                            # the functional q -> xi(p after q) on the basis of Hom(x, c)
                            for r, q in enumerate(cat.hom_basis_paths(x, c), offs[k]):
                                V.data[r][col] = cat.reduce_word(x, q + p).get(w, f.zero())
            mats[x] = V @ t.section()
        return ModuleMap(nuP.module, coind, mats, check=False)

    # -- derived functors --------------------------------------------------

    def left_derived_nu_dims(self, f_mod: Module, i: int) -> dict:
        """dim L_i nu (F)(c) per object, coefficient route with fallback."""
        out = {}
        res_f = None
        for c in self.cat.objects:
            v = _derived_dim(self.res_right(c), f_mod, i, tensor=True)
            if not v.conclusive:
                if res_f is None:
                    res_f = projective_resolution(f_mod, self.cutoff)
                v = _derived_dim(res_f, self.coef_right(c), i, tensor=True)
            out[c] = v
        return out

    def right_derived_nu_minus_dims(self, f_mod: Module, i: int) -> dict:
        """dim R^i nu^- (F)(c) per object: Ext from a resolution of the
        coefficient injective, falling back to the coresolution side."""
        out = {}
        res_dual = None
        for c in self.cat.objects:
            v = _derived_dim(self.res_left(c), f_mod, i, tensor=False)
            if not v.conclusive:
                if res_dual is None:
                    res_dual = projective_resolution(dual(f_mod), self.cutoff)
                v = _derived_dim(res_dual, dual(self.coef_left(c)), i, tensor=False)
            out[c] = v
        return out

    def left_derived_nu(self, f_mod: Module, i: int) -> Module:
        """L_i nu (F) as a representation: homology of nu applied to a
        projective resolution P of F, at P_i."""
        res = projective_resolution(f_mod, self.cutoff)
        if _past_end(res, i):
            return zero_module(self.cat)
        nus = [self.nu(res.stage_module(j)) for j in (i - 1, i, i + 1)]
        return homology_of_modules(self.nu_map(nus[1], nus[0], res.diff(i)),
                                   self.nu_map(nus[2], nus[1], res.diff(i + 1)))

    def right_derived_nu_minus(self, f_mod: Module, i: int) -> Module:
        """R^i nu^- (F) as a representation: homology of nu^- applied to the
        injective coresolution D(P_j) of F, P a projective resolution of D(F)."""
        res = projective_resolution(dual(f_mod), self.cutoff)
        if _past_end(res, i):
            return zero_module(self.cat)
        nms = [self.nu_minus(dual(res.stage_module(j))) for j in (i - 1, i, i + 1)]
        return homology_of_modules(self.nu_minus_map(nms[1], nms[2], dual_map(res.diff(i + 1))),
                                   self.nu_minus_map(nms[0], nms[1], dual_map(res.diff(i))))

    # -- Gorenstein dimension of P ----------------------------------------

    def gorenstein_dimension(self) -> GorensteinDimension:
        """sup_c pdim of the coefficient modules, from both sides."""
        if self._gdim is None:
            left = {c: self.res_left(c).pdim() for c in self.cat.objects}
            right = {c: self.res_right(c).pdim() for c in self.cat.objects}
            if any(v is None for v in left.values()) or any(v is None for v in right.values()):
                self._gdim = GorensteinDimension(None, "not-Iwanaga-Gorenstein-at-cutoff",
                                                left, right, self.cutoff)
            else:
                s1 = max(left.values(), default=0)
                s2 = max(right.values(), default=0)
                if s1 != s2:
                    raise ModuleError(
                        f"two-sided coefficient dimensions disagree: {s1} vs {s2}"
                    )
                self._gdim = GorensteinDimension(s1, "finite", left, right, self.cutoff)
        return self._gdim


def _past_end(res: Resolution, i: int) -> bool:
    """Whether degree i of a derived functor lies past the end of the completed
    resolution res; raises below degree 1 and where res is truncated too
    early to settle degree i."""
    if i < 1:
        raise ModuleError("derived functor needs degree >= 1")
    n = res.length()
    if not res.completed and i > n - 1:
        raise InconclusiveError(f"resolution truncated at {n} < degree {i}+1")
    return i > n


def shared_engine(cat: BoundQuiverCategory, cutoff: int = 16) -> NakayamaEngine:
    """The one engine of cat at this cutoff, made on first use."""
    return cat.cached(("nakayama", cutoff), lambda: NakayamaEngine(cat, cutoff))


def gorenstein_dimension_of_P(cat: BoundQuiverCategory, cutoff: int = 16) -> GorensteinDimension:
    return shared_engine(cat, cutoff).gorenstein_dimension()
