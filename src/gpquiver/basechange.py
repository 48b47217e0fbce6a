"""Representations with values in modules over a base algebra.

A representation of C with values in Lambda_B-Mod is stored as a single
module over the tensor category T = Lambda_B (x) C; this layer slices such a
module into C-fibers over base objects, restricts it to C, and pushes the
Nakayama functor of the C-factor through the base action.  The based
P(F) = i_! i^* F is the basis cover of each fiber, with base arrows moving
the generators.
"""

from __future__ import annotations

from .category import BoundQuiverCategory, tensor_name
from .linalg import Matrix, direct_sum_many, kronecker_product
from .modules import Module, ModuleMap, ModuleError, basis_cover, block_sum
from .nakayama import NakayamaEngine


class Factorization:
    """A tensor category together with the choice of which factor is C
    (the direction that the Nakayama functor dualizes); the other factor is
    the base algebra."""

    def __init__(self, total: BoundQuiverCategory, cat_side: str):
        if total.factors is None:
            raise ModuleError("factorization requires a tensor-product category")
        if cat_side not in ("left", "right"):
            raise ModuleError("cat_side must be 'left' or 'right'")
        self.total = total
        self.cat_side = cat_side  # "left" or "right"
        left, right = total.factors
        self.cat, self.base = (left, right) if cat_side == "left" else (right, left)

    def name(self, base_part, cat_part) -> str:
        """The object or arrow of the total category pairing a base object or
        arrow with a C object or arrow."""
        if self.cat_side == "left":
            return tensor_name(cat_part, base_part)
        return tensor_name(base_part, cat_part)

    # -- slicing -----------------------------------------------------------

    def fiber(self, F: Module, base_obj) -> Module:
        """The C-module F(base_obj, -)."""
        C = self.cat
        dims = {c: F.dims[self.name(base_obj, c)] for c in C.objects}
        mats = {a: F.mats[self.name(base_obj, a)] for a in C.arrow_map}
        return Module(C, dims, mats, check=False)

    def base_map(self, F: Module, base_arrow, fibers: dict) -> ModuleMap:
        """The C-module map F(d, -) -> F(d', -) induced by a base arrow."""
        d, d2 = self.base.arrow_map[base_arrow]
        mats = {c: F.mats[self.name(base_arrow, c)] for c in self.cat.objects}
        return ModuleMap(fibers[d], fibers[d2], mats, check=False)

    def fibers(self, F: Module) -> dict:
        return {d: self.fiber(F, d) for d in self.base.objects}

    def restrict_to_cat(self, F: Module, fibs: dict | None = None) -> Module:
        """Underlying C-module: direct sum of all fibers, base order; fibs,
        when given, is fibers(F)."""
        fibs = fibs or self.fibers(F)
        return block_sum(self.cat, [fibs[d] for d in self.base.objects])

    # -- pushing nu through the base action --------------------------------

    def i_star_nu_components(self, F: Module, engine: NakayamaEngine,
                             fibs: dict | None = None) -> dict:
        """The base-module components of i^*(nu F): one Lambda_B-module per
        object c of C, whose value at d is nu(F(d, -))(c) and whose base
        arrows act by the maps nu pushes the base action through; fibs,
        when given, is fibers(F)."""
        if engine.cat != self.cat:
            raise ModuleError("engine category does not match the factorization")
        B = self.base
        fibs = fibs or self.fibers(F)
        nus = {d: engine.nu(fibs[d]) for d in B.objects}
        pushed = {b: engine.nu_map(nus[d], nus[d2], self.base_map(F, b, fibs))
                  for b, (d, d2) in B.arrow_map.items()}
        return {c: Module(B, {d: nus[d].module.dims[c] for d in B.objects},
                          {b: m.mats[c] for b, m in pushed.items()}, check=False)
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
                dims[self.name(d, x)] = cov.module.dims[x]
                eps[self.name(d, x)] = cov.epi.mats[x]
            for a in C.arrow_map:
                mats[self.name(d, a)] = cov.module.mats[a]
        for b in B.arrow_map:
            for x in C.objects:
                mats[self.name(b, x)] = direct_sum_many(f, [
                    kronecker_product(F.mats[self.name(b, c)],
                                      Matrix.identity(f, C.hom_dim(c, x)))
                    for c in C.objects])
        PF = Module(T, dims, mats, check=False)
        return PF, ModuleMap(PF, F, eps, check=False)
