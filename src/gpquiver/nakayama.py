"""The Nakayama functor nu = D(C) (x)_C -, its right adjoint, the adjoint
triple around evaluation, derived functors, and the Gorenstein dimension of
the projectivization endofunctor P.

The coefficient modules D(C(c,-)) (right) and D(C(-,c)) (left), their maps,
resolutions and the Gorenstein dimension at each cutoff depend on the category
alone and are kept in its memo (BoundQuiverCategory.cached).  An engine holds
only the category and the cutoff, so every verdict and sweep over one category
and cutoff reads the same coefficient data.

nu and nu^- are Hom functors and are read off hom bases alike: nu(F)(c) =
D Hom(F, C(c,-)) and nu^-(F)(c) = Hom(D C(-,c), F), one hom basis per object
and one hom_coords read per arrow or map, as are the unit and counit.  The
tensor D(C) (x)_C F itself stays in modules as tensor_over_cat.  Both halves
of the bimodule D(C) are written in the dual of C's path basis.

The derived functors have one shape.  Their dimension counts are Tor and Ext
over the coefficient resolutions, or, where those are truncated, over one of F
or D(F).  As modules, L_i nu (F) and R^i nu^- (F) are the homology at stage i
of nu applied to a projective resolution of F, and of nu^- applied to the
injective coresolution D(P_j) of F, P a projective resolution of D(F); only
stages i-1, i and i+1 are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .category import BoundQuiverCategory
from .linalg import Matrix
from .modules import (
    Cover,
    InconclusiveError,
    Module,
    ModuleMap,
    ModuleError,
    Resolution,
    _derived_either_side,
    basis_cover,
    block_offsets,
    block_sum,
    dual,
    dual_map,
    free_module,
    free_on_generators,
    hom_basis,
    hom_coords,
    homology_of_modules,
    path_matrix,
    projective_resolution,
    representable,
    zero_module,
)


@dataclass
class Applied:
    """nu(F) or nu^-(F) with the hom basis it is read off at each object:
    maps F -> C(c,-) for nu, maps D C(-,c) -> F for nu^-."""

    module: Module
    bases: dict  # object -> list of ModuleMap
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
    return {x: path_matrix(cat, s, [(arrow,) + q for q in cat.hom_basis_paths(t, x)],
                           cat.hom_basis_paths(s, x))
            for x in cat.objects}


class NakayamaEngine:
    """All Nakayama-side computations for one category at one resolution
    cutoff; the coefficient data they read is kept in the category's memo."""

    def __init__(self, cat: BoundQuiverCategory, cutoff: int = 16):
        self.cat = cat
        self.cutoff = cutoff

    # -- coefficient bimodule ---------------------------------------------

    def coef_right(self, c) -> Module:
        """D(C(c,-)): the value of D(C) at c, a right module."""
        return self.cat.cached(("coef_right", c), lambda: dual(representable(self.cat, c)))

    def coef_left(self, c) -> Module:
        """D(C(-,c)): a left module, the c-th injective I(c); a: s -> t acts
        by the dual of precomposition, D(C(s,c)) -> D(C(t,c))."""
        cat = self.cat
        if c not in cat.objects:
            raise ModuleError(f"unknown object {c!r}")
        return cat.cached(("coef_left", c), lambda: Module(
            cat, {x: cat.hom_dim(x, c) for x in cat.objects},
            {a: self.u_map(a).mats[c] for a in cat.arrow_map}, check=False))

    def res_right(self, c) -> Resolution:
        return self.cat.cached(("res_right", c, self.cutoff),
                               lambda: projective_resolution(self.coef_right(c), self.cutoff))

    def res_left(self, c) -> Resolution:
        return self.cat.cached(("res_left", c, self.cutoff),
                               lambda: projective_resolution(self.coef_left(c), self.cutoff))

    def pre_map(self, arrow: str) -> ModuleMap:
        """C(t,-) -> C(s,-), q -> q after a, for a: s -> t."""
        s, t = self.cat.arrow_map[arrow]
        return self.cat.cached(("pre_map", arrow), lambda: ModuleMap(
            representable(self.cat, t), representable(self.cat, s),
            precomposition(self.cat, arrow), check=False))

    def u_map(self, arrow: str) -> ModuleMap:
        """D(C(s,-)) -> D(C(t,-)) for a: s -> t (covariant coefficient maps),
        the dual of pre_map."""
        s, t = self.cat.arrow_map[arrow]
        return self.cat.cached(("u_map", arrow), lambda: ModuleMap(
            self.coef_right(s), self.coef_right(t),
            {x: m.transpose() for x, m in self.pre_map(arrow).mats.items()}, check=False))

    def w_map(self, arrow: str) -> ModuleMap:
        """D(C(-,t)) -> D(C(-,s)) for a: s -> t (contravariant coefficient
        maps): at x, the action of a on the right module D(C(x,-))."""
        s, t = self.cat.arrow_map[arrow]
        return self.cat.cached(("w_map", arrow), lambda: ModuleMap(
            self.coef_left(t), self.coef_left(s),
            {x: self.coef_right(x).mats[arrow] for x in self.cat.objects}, check=False))

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
        return block_sum(self.cat, [self.coef_left(c) for c in self._generator_objects(parts)])

    # -- nu and nu^- -------------------------------------------------------

    def nu(self, f_mod: Module) -> Applied:
        """nu(F)(c) = D Hom(F, C(c,-)), in the dual of a hom basis; a: s -> t
        acts by the dual of composition with pre_a: C(t,-) -> C(s,-)."""
        cat = self.cat
        bases = {c: hom_basis(f_mod, representable(cat, c)) for c in cat.objects}
        mats = {}
        for name, (s, t) in cat.arrow_map.items():
            pre = self.pre_map(name)
            mats[name] = hom_coords(bases[s], [psi.then(pre) for psi in bases[t]],
                                    cat.field).transpose()
        return Applied(Module(cat, {c: len(b) for c, b in bases.items()}, mats, check=False),
                       bases, f_mod)

    def nu_map(self, src: Applied, dst: Applied, phi: ModuleMap) -> ModuleMap:
        cat = self.cat
        mats = {c: hom_coords(src.bases[c], [phi.then(psi) for psi in dst.bases[c]],
                              cat.field).transpose()
                for c in cat.objects}
        return ModuleMap(src.module, dst.module, mats, check=False)

    def nu_minus(self, f_mod: Module) -> Applied:
        """nu^-(F)(c) = Hom(D C(-,c), F), in a hom basis."""
        cat = self.cat
        bases = {c: hom_basis(self.coef_left(c), f_mod) for c in cat.objects}
        mats = {}
        for name, (s, t) in cat.arrow_map.items():
            w = self.w_map(name)  # coef_left[t] -> coef_left[s]
            mats[name] = hom_coords(bases[t], [w.then(psi) for psi in bases[s]], cat.field)
        return Applied(Module(cat, {c: len(b) for c, b in bases.items()}, mats, check=False),
                       bases, f_mod)

    def nu_minus_map(self, src: Applied, dst: Applied, phi: ModuleMap) -> ModuleMap:
        cat = self.cat
        mats = {c: hom_coords(dst.bases[c], [psi.then(phi) for psi in src.bases[c]], cat.field)
                for c in cat.objects}
        return ModuleMap(src.module, dst.module, mats, check=False)

    # -- unit and counit of nu -| nu^- -------------------------------------

    def lambda_unit(self, f_mod: Module, nuF: Applied | None = None,
                    nm: Applied | None = None) -> ModuleMap:
        """The unit F -> nu^- nu F: e_j in F(c) goes to the map D C(-,c) -> nu F
        whose component at x sends the dual path xi_i to the functional
        psi -> (psi_c)[i][j] on Hom(F, C(x,-))."""
        cat = self.cat
        nuF = nuF or self.nu(f_mod)
        nm = nm or self.nu_minus(nuF.module)
        mats = {}
        for c in cat.objects:
            maps = [ModuleMap(self.coef_left(c), nuF.module, {x: Matrix._adopt(
                cat.field, [[row[j] for row in psi.mats[c].data] for psi in nuF.bases[x]],
                len(nuF.bases[x]), cat.hom_dim(x, c)) for x in cat.objects}, check=False)
                for j in range(f_mod.dims[c])]
            mats[c] = hom_coords(nm.bases[c], maps, cat.field)
        return ModuleMap(f_mod, nm.module, mats, check=False)

    def sigma_counit(self, f_mod: Module, nm: Applied | None = None,
                     nu_nm: Applied | None = None) -> ModuleMap:
        """The counit nu nu^- F -> F.  Its dual at c sends e_r* to the map
        nu^- F -> C(c,-) taking psi to sum_i (psi_c)[r][i] p_i, p_i the basis
        paths of C(c, y)."""
        cat = self.cat
        nm = nm or self.nu_minus(f_mod)
        nu_nm = nu_nm or self.nu(nm.module)
        mats = {}
        for c in cat.objects:
            maps = [ModuleMap(nm.module, representable(cat, c), {y: Matrix._adopt(
                cat.field, [psi.mats[c].data[r] for psi in nm.bases[y]], len(nm.bases[y]),
                cat.hom_dim(c, y)).transpose() for y in cat.objects}, check=False)
                for r in range(f_mod.dims[c])]
            mats[c] = hom_coords(nu_nm.bases[c], maps, cat.field).transpose()
        return ModuleMap(nu_nm.module, f_mod, mats, check=False)

    def adjunct(self, psi: ModuleMap, G: Module, nuG: Applied, nmF: Applied) -> ModuleMap:
        """Hom(nu G, F) -> Hom(G, nu^- F) along the adjunction."""
        nm_nuG = self.nu_minus(nuG.module)
        return self.lambda_unit(G, nuG, nm_nuG).then(self.nu_minus_map(nm_nuG, nmF, psi))

    def coadjunct(self, chi: ModuleMap, G: Module, nuG: Applied,
                  nmF: Applied, f_mod: Module) -> ModuleMap:
        """Hom(G, nu^- F) -> Hom(nu G, F), the inverse direction."""
        nu_nmF = self.nu(nmF.module)
        return self.nu_map(nuG, nu_nmF, chi).then(self.sigma_counit(f_mod, nmF, nu_nmF))

    def iso_nu_ishriek(self, parts: dict, shriek: Cover | None = None,
                       nuP: Applied | None = None) -> ModuleMap:
        """The canonical map nu(i_!(parts)) -> i_*(parts); an isomorphism.

        Its dual at x sends the path q of C(x, c_k) to the map i_!(parts) ->
        C(x,-) taking generator k to q and the other generators to zero.
        """
        cat = self.cat
        f = cat.field
        shriek = shriek or self.i_shriek(parts)
        nuP = nuP or self.nu(shriek.module)
        coind = self.i_star_coinduced(parts)
        summands = [c for c, _ in shriek.summands]
        mats = {}
        for x in cat.objects:
            rep = representable(cat, x)
            zeros = [(c, Matrix.zeros(f, rep.dims[c], 1)) for c in summands]
            maps = [free_on_generators(rep, zeros[:k] + [(c, unit.col(q))] + zeros[k + 1:]).epi
                    for k, c in enumerate(summands)
                    for unit in [Matrix.identity(f, rep.dims[c])] for q in range(unit.cols)]
            mats[x] = hom_coords(nuP.bases[x], maps, f).transpose()
        return ModuleMap(nuP.module, coind, mats, check=False)

    # -- derived functors --------------------------------------------------

    def left_derived_nu_dims(self, f_mod: Module, i: int) -> dict:
        """dim L_i nu (F)(c) per object: Tor over the coefficient resolution,
        falling back to one resolution of F, made when first needed."""
        res_f = cache(lambda: projective_resolution(f_mod, self.cutoff))
        return {c: _derived_either_side(self.res_right(c), f_mod, i, True,
                                        lambda: (res_f(), self.coef_right(c)))
                for c in self.cat.objects}

    def right_derived_nu_minus_dims(self, f_mod: Module, i: int) -> dict:
        """dim R^i nu^- (F)(c) per object: Ext from a resolution of the
        coefficient injective, falling back to the coresolution side, one
        resolution of D(F) made when first needed."""
        res_dual = cache(lambda: projective_resolution(dual(f_mod), self.cutoff))
        return {c: _derived_either_side(self.res_left(c), f_mod, i, False,
                                        lambda: (res_dual(), dual(self.coef_left(c))))
                for c in self.cat.objects}

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
        return self.cat.cached(("gorenstein_dimension", self.cutoff), self._gorenstein_dimension)

    def _gorenstein_dimension(self) -> GorensteinDimension:
        left = {c: self.res_left(c).pdim() for c in self.cat.objects}
        right = {c: self.res_right(c).pdim() for c in self.cat.objects}
        if None in left.values() or None in right.values():
            return GorensteinDimension(None, "not-Iwanaga-Gorenstein-at-cutoff",
                                       left, right, self.cutoff)
        s1 = max(left.values(), default=0)
        s2 = max(right.values(), default=0)
        if s1 != s2:
            raise ModuleError(f"two-sided coefficient dimensions disagree: {s1} vs {s2}")
        return GorensteinDimension(s1, "finite", left, right, self.cutoff)


def _past_end(res: Resolution, i: int) -> bool:
    """Whether degree i of a derived functor lies past the end of the completed
    resolution res; raises below degree 1 and where res is truncated too
    early to settle degree i."""
    if i < 1:
        raise ModuleError("derived functor needs degree >= 1")
    past = i > res.settled()
    if past and not res.completed:
        raise InconclusiveError(f"resolution truncated at {res.length()} < degree {i}+1")
    return past


def gorenstein_dimension_of_P(cat: BoundQuiverCategory, cutoff: int = 16) -> GorensteinDimension:
    return NakayamaEngine(cat, cutoff).gorenstein_dimension()
