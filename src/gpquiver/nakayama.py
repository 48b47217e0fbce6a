"""The Nakayama functor nu = D(C) (x)_C -, its right adjoint nu^-, the unit
of nu -| nu^-, derived functors, and the Gorenstein dimension of the
projectivization endofunctor P.

The coefficient modules D(C(c,-)) (right) and D(C(-,c)) (left), their maps,
resolutions and the Gorenstein dimension at each cutoff depend on the category
alone and are kept in its memo (BoundQuiverCategory.cached).  An engine holds
only the category and the cutoff, so every verdict and sweep over one category
and cutoff reads the same coefficient data.

nu and nu^- are Hom functors and are read off hom bases alike: nu(F)(c) =
D Hom(F, C(c,-)) and nu^-(F)(c) = Hom(D C(-,c), F), one hom basis per object.
The matrices of arrows, of maps and of the unit are coordinates in those
bases, read at their free rows (hom_coords) with no solve.  The tensor
D(C) (x)_C F itself stays in modules as tensor_over_cat.  Both halves of the
bimodule D(C) are written in the dual of C's path basis.

The adjoint triple i_! -| i^* -| i_* around evaluation, the counit sigma of
nu -| nu^- and the triangle identities check these routes; they live with
the tests (tests/crosscheck.py), not here.

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
    InconclusiveError,
    Module,
    ModuleMap,
    ModuleError,
    Resolution,
    _derived_either_side,
    dual,
    dual_map,
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

    # -- the unit of nu -| nu^- -------------------------------------------

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

