"""The Nakayama functor nu = D(C) (x)_C -, its right adjoint nu^-, the unit
of nu -| nu^-, derived functors, and the Gorenstein dimension of the
projectivization endofunctor P.

The coefficient modules D(C(c,-)) (right) and D(C(-,c)) (left), their maps,
one list of resolution stages per module and side, and the Gorenstein
dimension at each cutoff are kept in the category's memo (cached).  An engine
holds only the category and the cutoff, and reads each stage list up to its
cutoff, so every engine of one category reads the same coefficient stages.

nu and nu^- are read off the presentations P_1 -> P_0 of the coefficient
modules, stages 0-1 of their lists: nu is right exact, nu(C(x,-)) = D C(-,x),
so nu(F)(c) = coker F (x) d_1, and nu^-(F)(c) = ker Hom(d_1, F), each one
matrix of F's path actions (Yoneda, modules._applied_diff).  Arrows, maps and
the unit go through lifts to the P_0s, and are read at free rows with no
solve; arrows are made when first read (modules.DeferredModule), as the unit
and dimension counts read only frames and dims.  Each d_1 and each lift is
compiled once into its nonzero path terms (modules._free_map) and kept in
the category's memo (_yoneda); d_1 is the compiled differential of stage 1,
on its Cover, which Tor and Ext over the coefficient resolutions read too.
The tensor D(C) (x)_C F stays in modules as tensor_over_cat.  Both halves of
D(C) are written in the dual of C's path basis.

The adjoint triple i_! -| i^* -| i_* around evaluation, the counit sigma of
nu -| nu^- and the triangle identities check these routes; they live with
the tests (tests/crosscheck.py), not here.

The derived functors have one shape.  Their dimension counts are Tor and Ext
over the coefficient resolutions, or, where those are truncated, over one of F
or D(F); L_i nu (F)(c) = Tor_i(D C(c,-), F) has that one route in
left_derived_nu_dims and both routes of gorenstein.is_gproj_P (Tor is
balanced).  As modules, L_i nu (F) and R^i nu^- (F) are the homology at stage
i of nu applied to a projective resolution of F, and of nu^- applied to the
injective coresolution D(P_j) of F, P a projective resolution of D(F); only
stages i-1, i and i+1 are built.
"""

from __future__ import annotations

from functools import cache

from .category import BoundQuiverCategory
from .linalg import Matrix, direct_sum_many, free_row_coords
from .modules import (
    DeferredModule,
    InconclusiveError,
    Module,
    ModuleMap,
    ModuleError,
    Resolution,
    Stages,
    _applied_diff,
    _derived_either_side,
    _diff_images,
    _free_map,
    dual,
    dual_map,
    homology_of_modules,
    path_matrix,
    projective_resolution,
    representable,
    zero_module,
)


class Applied:
    """nu(F) or nu^-(F) with each object's frame in the Yoneda space (+)_k F(c_k)
    of its presentation's P_0: the cokernel projection and its free columns,
    where the section has unit columns, for nu; the kernel basis for nu^-."""

    def __init__(self, module: Module, frames: dict, source: Module):
        self.module = module
        self.frames = frames  # object -> (projection, free columns) or (kernel basis, free rows)
        self.source = source


class GorensteinDimension:
    """Result of the two-sided coefficient pdim computation."""

    def __init__(self, value: int | None, status: str, left_pdims: dict, right_pdims: dict,
                 cutoff: int):
        self.value = value
        self.status = status            # "finite" or "not-Iwanaga-Gorenstein-at-cutoff"
        self.left_pdims = left_pdims    # c -> pdim D(C(-,c)) over C, None = unsettled
        self.right_pdims = right_pdims  # c -> pdim D(C(c,-)) over C^op, None = unsettled
        self.cutoff = cutoff

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
        return self._resolution("right", c, self.cutoff)

    def res_left(self, c) -> Resolution:
        return self._resolution("left", c, self.cutoff)

    def _resolution(self, side: str, c, cutoff: int) -> Resolution:
        """D C(c,-) (side "right") or D C(-,c) resolved over its one stage list."""
        coef = self.coef_right if side == "right" else self.coef_left
        return self.cat.cached(("resolution", side, c, cutoff), lambda: Resolution(
            coef(c), cutoff, self.cat.cached(("stages", side, c), Stages)))

    def u_map(self, arrow: str) -> ModuleMap:
        """D(C(s,-)) -> D(C(t,-)) for a: s -> t (covariant coefficient maps),
        the dual of precomposition C(t,-) -> C(s,-)."""
        s, t = self.cat.arrow_map[arrow]
        return self.cat.cached(("u_map", arrow), lambda: ModuleMap(
            self.coef_right(s), self.coef_right(t),
            {x: m.transpose() for x, m in precomposition(self.cat, arrow).items()}, check=False))

    def w_map(self, arrow: str) -> ModuleMap:
        """D(C(-,t)) -> D(C(-,s)) for a: s -> t (contravariant coefficient
        maps): at x, the action of a on the right module D(C(x,-))."""
        s, t = self.cat.arrow_map[arrow]
        return self.cat.cached(("w_map", arrow), lambda: ModuleMap(
            self.coef_left(t), self.coef_left(s),
            {x: self.coef_right(x).mats[arrow] for x in self.cat.objects}, check=False))

    # -- nu, nu^- and the unit, off the presentations of D(C) ---------------

    def presentation(self, side: str, c) -> Resolution:
        """P_1 -> P_0 -> D C(c,-) (side "right") or D C(-,c), whatever the cutoff."""
        res = self._resolution(side, c, 1)
        res.reaches(1)
        return res

    def _yoneda(self, what: str, x):
        """A map of free modules nu or nu^- applies F to, compiled once: d_1 of the
        presentation of D C(x,-) ("right") or D C(-,x) ("left"); lifts to the P_0s
        of u_x ("u") and w_x ("w"), x an arrow; for each generator xi_m of
        D C(-,x), at e_m, a lift of xi_m in D C(e_m, x) to the P_0 of D C(e_m,-)."""
        def p0(side, c):
            return self.presentation(side, c).stages[0]

        def make():
            if what in ("right", "left"):
                return _diff_images(self.presentation(what, x), 1)
            if what == "xi":
                return [(e, _lifted([(x, xi)], p0("right", e))) for e, xi in p0("left", x).summands]
            s, t = self.cat.arrow_map[x]
            side, phi, a, b = (("right", self.u_map(x), s, t) if what == "u"
                               else ("left", self.w_map(x), t, s))
            return _lifted([(d, phi.mats[d] @ v) for d, v in p0(side, a).summands], p0(side, b))
        return self.cat.cached(("yoneda", what, x), make)

    def nu(self, f_mod: Module) -> Applied:
        """nu(F)(c) = coker F (x) d_1 over the presentation of D C(c,-), a
        quotient of (+)_k F(d_k); a: s -> t acts by F applied to the lift of
        u_a, between the section at s and the projection at t."""
        cat, acts, frames = self.cat, {}, {}
        for c in cat.objects:
            _, k, free = _applied_diff(f_mod, self._yoneda("right", c), True,
                                       acts).transpose().kernel_basis()
            frames[c] = (k.transpose(), free)
        return Applied(DeferredModule(cat, {c: p.rows for c, (p, _) in frames.items()}, lambda: {
            a: frames[t][0] @ _applied_diff(f_mod, self._yoneda("u", a), True, acts)
            .submatrix(range(frames[t][0].cols), frames[s][1])
            for a, (s, t) in cat.arrow_map.items()}), frames, f_mod)

    def nu_map(self, src: Applied, dst: Applied, phi: ModuleMap) -> ModuleMap:
        """At c, (+)_k phi_{d_k} between the section and the projection."""
        mats = {c: dst.frames[c][0] @ direct_sum_many(self.cat.field, [
            phi.mats[d] for d in self._yoneda("right", c)[1]]).submatrix(
            range(dst.frames[c][0].cols), src.frames[c][1]) for c in self.cat.objects}
        return ModuleMap(src.module, dst.module, mats, check=False)

    def nu_minus(self, f_mod: Module) -> Applied:
        """nu^-(F)(c) = ker Hom(d_1, F) over the presentation of D C(-,c), a
        subspace of (+)_k F(e_k); a: s -> t acts by F applied to the lift of
        w_a, read at the free rows at t."""
        cat, acts = self.cat, {}
        frames = {c: _applied_diff(f_mod, self._yoneda("left", c), False,
                                   acts).kernel_basis()[1:] for c in cat.objects}
        return Applied(DeferredModule(cat, {c: k.cols for c, (k, _) in frames.items()}, lambda: {
            a: _read(frames[t], _applied_diff(f_mod, self._yoneda("w", a), False, acts)
                     @ frames[s][0])
            for a, (s, t) in cat.arrow_map.items()}), frames, f_mod)

    def nu_minus_map(self, src: Applied, dst: Applied, phi: ModuleMap) -> ModuleMap:
        """At c, (+)_k phi_{e_k} on the kernel basis, read at the free rows."""
        mats = {c: _read(dst.frames[c], direct_sum_many(self.cat.field, [
            phi.mats[e] for e in self._yoneda("left", c)[1]]) @ src.frames[c][0])
            for c in self.cat.objects}
        return ModuleMap(src.module, dst.module, mats, check=False)

    def lambda_unit(self, f_mod: Module, nuF: Applied | None = None,
                    nm: Applied | None = None) -> ModuleMap:
        """The unit F -> nu^- nu F: e_j in F(c) goes to the map D C(-,c) -> nu F
        sending each generator xi_m, at e_m, to the class of xi_m (x) e_j in
        nu F(e_m), read at the free rows of nu^- nu F (c)."""
        cat, acts, mats = self.cat, {}, {}
        nuF = nuF or self.nu(f_mod)
        nm = nm or self.nu_minus(nuF.module)
        for c in cat.objects:
            rows = [r for e, lift in self._yoneda("xi", c) for r in
                    (nuF.frames[e][0] @ _applied_diff(f_mod, lift, True, acts)).data]
            mats[c] = _read(nm.frames[c], Matrix._adopt(cat.field, rows, len(rows), f_mod.dims[c]))
        return ModuleMap(f_mod, nm.module, mats, check=False)

    # -- derived functors --------------------------------------------------

    def left_derived_nu_dims(self, f_mod: Module, i: int) -> dict:
        """dim L_i nu (F)(c) per object: Tor over the coefficient resolution,
        falling back to one resolution of F, built when first read."""
        res_f = projective_resolution(f_mod, self.cutoff)
        return {c: _derived_either_side(self.res_right(c), f_mod, i, True,
                                        lambda: (res_f, self.coef_right(c)))
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


def _lifted(vectors: list, cover) -> tuple:
    """The map of free modules sending generator l, at c_l, to a preimage
    under the cover of vectors[l] = (c_l, v), compiled as _applied_diff
    reads it (_free_map)."""
    return _free_map(cover.module.cat, [c for c, _ in vectors], [b for b, _ in cover.summands],
                     [[r[0] for r in cover.epi.mats[c].solve(v).data] for c, v in vectors])


def _read(frame: tuple, b: Matrix) -> Matrix:
    """The coordinates of b's columns in a (kernel basis, free rows) frame."""
    if (coords := free_row_coords(*frame, b)) is None:
        raise ModuleError("map leaves the kernel")
    return coords


def _past_end(res: Resolution, i: int) -> bool:
    """Whether degree i of a derived functor lies past the end of the completed
    resolution res; raises below degree 1 and where res is truncated too
    early to settle degree i."""
    if i < 1:
        raise ModuleError("derived functor needs degree >= 1")
    if (past := res.past_end(i)) is None:
        raise InconclusiveError(f"resolution truncated at {res.length()} < degree {i}+1")
    return past

