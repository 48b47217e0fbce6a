import random

import pytest

import crosscheck
import derived_oracle
from conftest import F5, chain, cyclic3, ex322, exterior2, ka2, ka3, loop_sq, square

from gpquiver.category import Quiver, build_category
from gpquiver.linalg import GF, QQ, Matrix
from gpquiver.modules import (
    DerivedValue,
    InconclusiveError,
    Module,
    ModuleMap,
    basis_cover,
    dual,
    ext_dim,
    hom_basis,
    representable,
    tor_dim,
    zero_module,
)
from gpquiver.nakayama import NakayamaEngine
from test_modules import a2_rep, random_module
from test_sharing import assert_iso, assert_lambda, big_theta, count_stages, theta


def test_i_shriek_a2():
    eng = NakayamaEngine(ka2())
    M = crosscheck.i_shriek(eng, {"1": 1}).module
    assert M.dims == {"1": 1, "2": 1}
    assert M.mats["a"] == Matrix.identity(QQ, 1)
    assert crosscheck.i_shriek(eng, {}).module.is_zero()


def test_i_shriek_square_corner():
    eng = NakayamaEngine(square())
    M = crosscheck.i_shriek(eng, {"c1": 1}).module
    assert [M.dims[c] for c in ("c1", "c2", "c3", "c4")] == [1, 1, 1, 1]


def test_counit_P_surjective():
    for C in (ka2(), square(), ex322()):
        rng = random.Random(1)
        for _ in range(3):
            F = random_module(C, rng)
            eps = basis_cover(F).epi
            eps.validate()
            assert all(m.rank() == m.rows for m in eps.mats.values())


def test_nu_is_cokernel_functor_on_a2():
    eng = NakayamaEngine(ka2())
    rng = random.Random(2)
    for _ in range(10):
        d1, d2 = rng.randrange(0, 4), rng.randrange(0, 4)
        fmat = [[QQ.of(rng.randrange(-2, 3)) for _ in range(d1)] for _ in range(d2)]
        F = Module(ka2(), {"1": d1, "2": d2}, {"a": Matrix(QQ, fmat, d2, d1)})
        nuF = eng.nu(F)
        rank = F.mats["a"].rank()
        assert nuF.module.dims["1"] == d2
        assert nuF.module.dims["2"] == d2 - rank
        nuF.module.validate()


def test_coefficient_maps_label_with_cached_coefficients():
    # u_map(a) for a: s -> t is the dual of precomposition, between the cached
    # D(C(s,-)) and D(C(t,-)); no representable is rebuilt to label it
    for C in (square(), ex322(), exterior2(GF(3))):
        eng = NakayamaEngine(C)
        for a, (s, t) in C.arrow_map.items():
            u = eng.u_map(a)
            assert u.src is eng.coef_right(s) and u.dst is eng.coef_right(t)
            u.validate()


def test_nu_of_zero():
    eng = NakayamaEngine(square())
    assert eng.nu(zero_module(square())).module.is_zero()
    assert eng.nu_minus(zero_module(square())).module.is_zero()


def test_nu_functorial():
    C = square()
    eng = NakayamaEngine(C)
    rng = random.Random(3)
    F, G = random_module(C, rng), random_module(C, rng)
    nuF, nuG = eng.nu(F), eng.nu(G)
    for phi in hom_basis(F, G):
        eng.nu_map(nuF, nuG, phi).validate()


def test_nu_minus_functorial():
    C = ex322()
    eng = NakayamaEngine(C)
    rng = random.Random(4)
    F, G = random_module(C, rng), random_module(C, rng)
    nmF, nmG = eng.nu_minus(F), eng.nu_minus(G)
    for phi in hom_basis(F, G):
        eng.nu_minus_map(nmF, nmG, phi).validate()


def test_iso_nu_ishriek_and_coinduced():
    for C in (ka2(), ka3(), square(), ex322(), cyclic3(), exterior2(GF(3))):
        eng = NakayamaEngine(C)
        rng = random.Random(5)
        for _ in range(3):
            parts = {c: rng.randrange(0, 3) for c in C.objects}
            iso = crosscheck.iso_nu_ishriek(eng, parts)
            iso.validate()
            assert iso.is_iso()


def test_nu_minus_of_coinduced_has_ishriek_dims():
    for C in (ka2(), square()):
        eng = NakayamaEngine(C)
        parts = {C.objects[0]: 1, C.objects[-1]: 2}
        nm = eng.nu_minus(crosscheck.i_star_coinduced(eng, parts))
        assert nm.module.dims == crosscheck.i_shriek(eng, parts).module.dims


def test_lambda_unit_on_projectives_is_iso():
    for C in (ka2(), square(), ex322()):
        eng = NakayamaEngine(C)
        rng = random.Random(6)
        parts = {c: rng.randrange(0, 2) for c in C.objects}
        P = crosscheck.i_shriek(eng, parts).module
        lam = eng.lambda_unit(P)
        lam.validate()
        assert lam.is_iso()


def test_lambda_kills_s1_over_a2():
    C = ka2()
    eng = NakayamaEngine(C)
    S1 = crosscheck.simple(C, "1")
    assert eng.nu(S1).module.is_zero()
    lam = eng.lambda_unit(S1)
    assert not lam.is_iso()
    assert all(m.is_zero() for m in lam.mats.values())


def test_triangle_identities_nu():
    for C in (ka2(), square(), ex322(), exterior2(GF(3))):
        eng = NakayamaEngine(C)
        rng = random.Random(7)
        for _ in range(3):
            F = random_module(C, rng)
            nuF = eng.nu(F)
            nm = eng.nu_minus(nuF.module)
            lam = eng.lambda_unit(F, nuF, nm)
            nu_lam = eng.nu_map(nuF, eng.nu(nm.module), lam)
            sig = crosscheck.sigma_counit(eng, nuF.module, nm, eng.nu(nm.module))
            comp = nu_lam.then(sig)
            assert comp == ModuleMap.identity(nuF.module)

            nmF = eng.nu_minus(F)
            sigF = crosscheck.sigma_counit(eng, F, nmF, eng.nu(nmF.module))
            lam_nm = eng.lambda_unit(nmF.module, eng.nu(nmF.module), eng.nu_minus(eng.nu(nmF.module).module))
            nm_sig = eng.nu_minus_map(eng.nu_minus(eng.nu(nmF.module).module), nmF, sigF)
            comp2 = lam_nm.then(nm_sig)
            assert comp2 == ModuleMap.identity(nmF.module)


def test_triangle_identities_ishriek_istar():
    for C in (ka2(), square(), cyclic3()):
        eng = NakayamaEngine(C)
        rng = random.Random(8)
        for _ in range(3):
            F = random_module(C, rng)
            eps = basis_cover(F).epi
            # i^* eps after eta_{i^* F} = identity on each F(c)
            eta = crosscheck.unit_parts(eng, F.dims)
            for c in C.objects:
                assert eps.mats[c] @ eta[c] == Matrix.identity(C.field, F.dims[c])


def test_adjunction_bijection():
    for C in (ka2(), ex322()):
        eng = NakayamaEngine(C)
        rng = random.Random(9)
        G, F = random_module(C, rng), random_module(C, rng)
        nuG = eng.nu(G)
        nmF = eng.nu_minus(F)
        fwd_basis = hom_basis(nuG.module, F)
        bwd_basis = hom_basis(G, nmF.module)
        assert len(fwd_basis) == len(bwd_basis)
        for psi in fwd_basis:
            chi = crosscheck.adjunct(eng, psi, G, nuG, nmF)
            chi.validate()
            back = crosscheck.coadjunct(eng, chi, G, nuG, nmF, F)
            assert back == psi
        for chi in bwd_basis:
            psi = crosscheck.coadjunct(eng, chi, G, nuG, nmF, F)
            psi.validate()
            assert crosscheck.adjunct(eng, psi, G, nuG, nmF) == chi


def test_gdim_tables():
    assert NakayamaEngine(ka3(), 8).gorenstein_dimension().value == 1
    assert NakayamaEngine(square(), 8).gorenstein_dimension().value == 2
    assert NakayamaEngine(cyclic3(), 8).gorenstein_dimension().value == 0
    assert NakayamaEngine(chain(2), 8).gorenstein_dimension().value == 2
    assert NakayamaEngine(chain(3, cutoff=5), 8).gorenstein_dimension().value == 3


def test_gdim_not_settled_for_ex322():
    g = NakayamaEngine(ex322(), 6).gorenstein_dimension()
    assert g.status == "not-Iwanaga-Gorenstein-at-cutoff"
    assert g.value is None


def test_l1_nu_is_kernel_on_a2():
    eng = NakayamaEngine(ka2())
    F = a2_rep(QQ, 2, 2, [[1, 0], [0, 0]])
    dims = eng.left_derived_nu_dims(F, 1)
    assert dims["1"].dim == 0 and dims["2"].dim == 1
    L1 = eng.left_derived_nu(F, 1)
    assert L1.dims == {"1": 0, "2": 1}
    # degree two vanishes on every A2 representation
    dims2 = eng.left_derived_nu_dims(F, 2)
    assert all(v.conclusive and v.dim == 0 for v in dims2.values())


def test_l_nu_vanishes_on_projectives():
    for C in (square(), cyclic3(), ex322()):
        eng = NakayamaEngine(C, 8)
        parts = {C.objects[0]: 1, C.objects[-1]: 1}
        P = crosscheck.i_shriek(eng, parts).module
        for i in (1, 2):
            dims = eng.left_derived_nu_dims(P, i)
            assert all(v.conclusive and v.dim == 0 for v in dims.values())
            assert eng.left_derived_nu(P, i).is_zero()


def test_l_nu_vanishes_above_gdim():
    C = square()
    eng = NakayamaEngine(C, 8)
    rng = random.Random(10)
    for _ in range(5):
        F = random_module(C, rng)
        for i in (3, 4):
            dims = eng.left_derived_nu_dims(F, i)
            assert all(v.conclusive and v.dim == 0 for v in dims.values())


def test_r_nu_minus_two_routes_agree():
    for C in (ka2(), square()):
        eng = NakayamaEngine(C, 8)
        rng = random.Random(11)
        for _ in range(4):
            F = random_module(C, rng)
            for i in (1, 2):
                ext_route = eng.right_derived_nu_minus_dims(F, i)
                cores = eng.right_derived_nu_minus(F, i)
                for c in C.objects:
                    assert ext_route[c].conclusive
                    assert ext_route[c].dim == cores.dims[c]


def test_derived_dims_fall_back_to_the_other_side():
    """Over ex322 at cutoff 2 the coefficient resolutions at object 1 settle
    degree 1 only; degree 2 is read off the other side, a projective or an
    injective, whose resolution completes."""
    C = ex322()
    eng = NakayamaEngine(C, 2)
    for res in (eng.res_right("1"), eng.res_left("1")):
        assert [res.past_end(i) for i in (1, 2)] == [False, None]
    P, I = representable(C, "1"), eng.coef_left("1")
    zero = DerivedValue(0)
    assert eng.left_derived_nu_dims(P, 2)["1"] == zero
    assert eng.right_derived_nu_minus_dims(I, 2)["1"] == zero
    assert tor_dim(eng.coef_right("1"), P, 2, 2) == zero
    assert tor_dim(eng.coef_right("1"), P, 2, 2, resolution=eng.res_right("1")) == zero
    assert ext_dim(I, I, 2, 2) == zero
    assert ext_dim(I, I, 2, 2, resolution=eng.res_left("1")) == zero
    # both sides truncated: inconclusive
    S = crosscheck.simple(C, "1")
    v = tor_dim(eng.coef_right("1"), S, 2, 2)
    assert v == DerivedValue(None) and not v.conclusive


def test_nu_minus_recovers_mono_source_on_a2():
    C = ka2()
    eng = NakayamaEngine(C)
    F = a2_rep(QQ, 1, 2, [[1], [0]])  # mono k -> k^2
    nuF = eng.nu(F)
    back = eng.nu_minus(nuF.module)
    assert back.module.dims == F.dims
    lam = eng.lambda_unit(F, nuF)
    assert lam.is_iso()


def test_derived_inconclusive_raises():
    C = loop_sq()
    eng = NakayamaEngine(C, 3)
    S = crosscheck.simple(C, "1")
    with pytest.raises(InconclusiveError):
        eng.left_derived_nu(S, 5)


# -- nu stays inside the presentations of D(C) -------------------------------


def linear_a6(field=QQ):
    """1 -> 2 -> ... -> 6 without relations."""
    vs = tuple(str(i) for i in range(1, 7))
    return build_category(Quiver(vs, tuple((f"a{i}", str(i), str(i + 1)) for i in range(1, 6))),
                          (), field, 6)


def test_nu_resolves_no_coefficient_module_past_stage_one(monkeypatch):
    """nu, nu^- and lambda build stages 0 and 1 of the coefficient resolutions
    only, and give the same modules and unit at engine cutoffs 1 and 16;
    derived, tor and ext at degree i build no stage past i+1 of any
    resolution they read."""
    built, made = count_stages(monkeypatch)
    out = {}
    for cutoff in (1, 16):
        for build in (square, ex322, loop_sq):
            cat = build(F5)  # a new category: nothing is cached yet
            F = random_module(cat, random.Random(build.__name__))
            eng = NakayamaEngine(cat, cutoff)
            del built[:]
            nuF, nmF = eng.nu(F), eng.nu_minus(F)
            lam = eng.lambda_unit(F, nuF)
            presented = [len(eng.presentation(side, c).stages)
                         for side in ("right", "left") for c in cat.objects]
            assert len(built) == sum(presented) and max(presented) <= 2
            out.setdefault(cutoff, []).append((nuF.module, nmF.module, lam.dst, lam.mats))
    assert not made
    assert out[1] == out[16]

    # on ex322 the simple at 2 and the coefficient modules at 1 have
    # resolutions longer than the cutoff
    ops = (lambda eng, F, i: eng.left_derived_nu_dims(F, i),
           lambda eng, F, i: eng.right_derived_nu_minus_dims(F, i),
           lambda eng, F, i: eng.left_derived_nu(F, i),
           lambda eng, F, i: eng.right_derived_nu_minus(F, i),
           lambda eng, F, i: tor_dim(eng.coef_right("1"), F, i, eng.cutoff),
           lambda eng, F, i: ext_dim(eng.coef_left("1"), F, i, eng.cutoff),
           lambda eng, F, i: tor_dim(dual(F), eng.coef_left("1"), i, eng.cutoff))
    for i in (1, 2):
        for op in ops:
            cat = ex322(F5)
            eng = NakayamaEngine(cat, 16)
            del built[:], made[:]
            op(eng, crosscheck.simple(cat, "2"), i)
            # F's resolutions, and the stage lists of the coefficient modules;
            # a stage repeated by a periodic resolution is built once
            lists = [r.stages for r in made] + [
                res._shared for c in cat.objects for res in (eng.res_right(c), eng.res_left(c))]
            assert len(built) == len({id(st) for stages in lists for st in stages}) > 0
            assert max(map(len, lists)) <= i + 2


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_nu_on_projective_coefficients_zero_objects_and_zero_module(field):
    """On A6, D C(1,-) and D C(-,6) are projective, so their presentations
    have no P_1; nu, nu^- and lambda still match the oracle through theta and
    Theta on modules with zero objects, on simples and on the zero module."""
    cat = linear_a6(field)
    eng, orc = NakayamaEngine(cat, 4), derived_oracle.TensorNakayamaEngine(cat, 4)
    assert len(eng.presentation("right", "1").stages) == 1
    assert len(eng.presentation("left", "6").stages) == 1
    rng = random.Random(6)
    mods = [random_module(cat, rng) for _ in range(4)] + [zero_module(cat)]
    mods += [crosscheck.simple(cat, c) for c in ("1", "3", "6")] + [representable(cat, "2")]
    assert any(0 in F.dims.values() and not F.is_zero() for F in mods)
    for F in mods:
        nuF, nuF_o, nmF, nmF_o = eng.nu(F), orc.nu(F), eng.nu_minus(F), orc.nu_minus(F)
        th = {c: theta(eng, nuF, nuF_o, c) for c in cat.objects}
        assert_iso(th, nuF.module, nuF_o.module)
        assert_iso({c: big_theta(eng, nmF, nmF_o, c) for c in cat.objects},
                   nmF_o.module, nmF.module)
        assert_lambda(eng, orc, F, nuF, nuF_o, th)
    assert eng.nu(zero_module(cat)).module.is_zero()
    assert eng.lambda_unit(zero_module(cat)).mats == {
        c: Matrix.zeros(field, 0, 0) for c in cat.objects}
