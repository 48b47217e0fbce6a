"""Representations with values in modules over a base algebra.

A representation of C with values in Lambda_B-Mod is stored as a single
module over the tensor category T = Lambda_B (x) C; this layer slices such a
module into C-fibers over base objects, restricts it to C, and pushes the
Nakayama functor of the C-factor through the base action.  The based
P(F) = i_! i^* F is the basis cover of each fiber, with base arrows moving
the generators.
"""

from __future__ import annotations

from .category import BoundQuiverCategory
from .linalg import Matrix, direct_sum_many, kronecker_product
from .modules import Module, ModuleMap, ModuleError, basis_cover, block_sum
from .nakayama import NakayamaEngine


class Factorization:
    """A tensor category together with the choice of which factor is C
    (the direction that the Nakayama functor dualizes); the other factor is
    the base algebra."""

    def __init__(self, total: BoundQuiverCategory, cat_side: str):
        if total.tensor_info is None:
            raise ModuleError("factorization requires a tensor-product category")
        if cat_side not in ("left", "right"):
            raise ModuleError("cat_side must be 'left' or 'right'")
        self.total = total
        self.cat_side = cat_side  # "left" or "right"

    @property
    def cat(self) -> BoundQuiverCategory:
        info = self.total.tensor_info
        return info.left if self.cat_side == "left" else info.right

    @property
    def base(self) -> BoundQuiverCategory:
        info = self.total.tensor_info
        return info.right if self.cat_side == "left" else info.left

    def pair_obj(self, base_obj, cat_obj) -> str:
        info = self.total.tensor_info
        if self.cat_side == "left":
            return info.obj_name[(cat_obj, base_obj)]
        return info.obj_name[(base_obj, cat_obj)]

    def cat_arrow_at(self, base_obj, cat_arrow) -> str:
        info = self.total.tensor_info
        if self.cat_side == "left":
            return info.left_arrow[(cat_arrow, base_obj)]
        return info.right_arrow[(base_obj, cat_arrow)]

    def base_arrow_at(self, base_arrow, cat_obj) -> str:
        info = self.total.tensor_info
        if self.cat_side == "left":
            return info.right_arrow[(cat_obj, base_arrow)]
        return info.left_arrow[(base_arrow, cat_obj)]

    # -- slicing -----------------------------------------------------------

    def fiber(self, F: Module, base_obj) -> Module:
        """The C-module F(base_obj, -)."""
        C = self.cat
        dims = {c: F.dims[self.pair_obj(base_obj, c)] for c in C.objects}
        mats = {a: F.mats[self.cat_arrow_at(base_obj, a)] for a in C.arrow_map}
        return Module(C, dims, mats, check=False)

    def base_map(self, F: Module, base_arrow, fibers: dict) -> ModuleMap:
        """The C-module map F(d, -) -> F(d', -) induced by a base arrow."""
        d, d2 = self.base.arrow_map[base_arrow]
        mats = {c: F.mats[self.base_arrow_at(base_arrow, c)] for c in self.cat.objects}
        return ModuleMap(fibers[d], fibers[d2], mats, check=False)

    def fibers(self, F: Module) -> dict:
        return {d: self.fiber(F, d) for d in self.base.objects}

    def restrict_to_cat(self, F: Module) -> Module:
        """Underlying C-module: direct sum of all fibers, base order."""
        return block_sum(self.cat, [self.fiber(F, d) for d in self.base.objects])

    # -- pushing nu through the base action --------------------------------

    def nu_based(self, F: Module, engine: NakayamaEngine) -> tuple:
        """nu applied fiberwise, returning (T-module, per-fiber nu(F(d,-)))."""
        if engine.cat != self.cat:
            raise ModuleError("engine category does not match the factorization")
        fibs = self.fibers(F)
        nus = {d: engine.nu(fibs[d]) for d in self.base.objects}
        dims = {}
        mats = {}
        for d in self.base.objects:
            for c in self.cat.objects:
                dims[self.pair_obj(d, c)] = nus[d].module.dims[c]
            for a in self.cat.arrow_map:
                mats[self.cat_arrow_at(d, a)] = nus[d].module.mats[a]
        for b in self.base.arrow_map:
            d, d2 = self.base.arrow_map[b]
            pushed = engine.nu_map(nus[d], nus[d2], self.base_map(F, b, fibs))
            for c in self.cat.objects:
                mats[self.base_arrow_at(b, c)] = pushed.mats[c]
        return Module(self.total, dims, mats, check=False), nus

    def i_star_nu_components(self, F: Module, engine: NakayamaEngine) -> dict:
        """The base-module components of i^*(nu F): one Lambda_B-module per
        object of C, sliced out of nu_based's T-module."""
        nuF, _ = self.nu_based(F, engine)
        B = self.base
        return {c: Module(B, {d: nuF.dims[self.pair_obj(d, c)] for d in B.objects},
                          {b: nuF.mats[self.base_arrow_at(b, c)] for b in B.arrow_map},
                          check=False)
                for c in self.cat.objects}

    # -- the P endofunctor on based representations ------------------------

    def p_counit_based(self, F: Module) -> tuple:
        """P(F) = i_! i^* F as a T-module, with its counit onto F.

        Over each base object d this is the basis cover of the fiber:
        P(F)(d, -) = (+)_c (+)_j C(c, -), one generator block per basis
        vector j of F(d, c).  A base arrow b acts on the blocks at c as
        F(b)_c (x) id, moving generators and keeping paths.
        """
        C, B, T = self.cat, self.base, self.total
        f = T.field
        dims, mats, eps = {}, {}, {}
        for d in B.objects:
            cov = basis_cover(self.fiber(F, d))
            for x in C.objects:
                dims[self.pair_obj(d, x)] = cov.module.dims[x]
                eps[self.pair_obj(d, x)] = cov.epi.mats[x]
            for a in C.arrow_map:
                mats[self.cat_arrow_at(d, a)] = cov.module.mats[a]
        for b in B.arrow_map:
            for x in C.objects:
                mats[self.base_arrow_at(b, x)] = direct_sum_many(f, [
                    kronecker_product(F.mats[self.base_arrow_at(b, c)],
                                      Matrix.identity(f, C.hom_dim(c, x)))
                    for c in C.objects])
        PF = Module(T, dims, mats, check=False)
        return PF, ModuleMap(PF, F, eps, check=False)
