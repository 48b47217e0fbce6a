import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import crosscheck
import derived_oracle
from conftest import cyclic3, ex322, exterior2, ka2, ka3, loop_sq, square

from gpquiver.linalg import GF, QQ, LinAlgError, Matrix
from gpquiver.modules import (
    Module,
    ModuleError,
    ModuleMap,
    _applied_diff,
    _derived_dim,
    _free_map,
    _map_columns,
    cokernel,
    direct_sum_modules,
    dual,
    dual_map,
    basis_cover,
    ext_dim,
    free_module,
    free_on_generators,
    hom_basis,
    homology_of_modules,
    kernel,
    projective_cover,
    projective_resolution,
    representable,
    tensor_over_cat,
    tor_dim,
    zero_module,
)


def mat(field, data, rows=None, cols=None):
    return Matrix(field, [[field.of(x) for x in row] for row in data], rows, cols)


def a2_rep(field, d1, d2, fmat):
    C = ka2(field)
    return Module(C, {"1": d1, "2": d2}, {"a": mat(field, fmat, d2, d1)})


def random_module(C, rng, max_gens=2):
    """Random cokernel of a map between projectives (relations hold for free)."""
    f = C.field
    gens0 = [rng.choice(C.objects) for _ in range(rng.randrange(1, max_gens + 2))]
    gens1 = [rng.choice(C.objects) for _ in range(rng.randrange(0, max_gens + 1))]
    P0, _, _ = direct_sum_modules([representable(C, c) for c in gens0])
    if gens1:
        P1, _, _ = direct_sum_modules([representable(C, c) for c in gens1])
    else:
        P1 = zero_module(C)
    maps = hom_basis(P1, P0)
    phi = ModuleMap(P1, P0, {}, check=False)
    span = getattr(f, "p", 7)
    for b in maps:
        coef = f.of(rng.randrange(span))
        phi = phi + ModuleMap(P1, P0, {c: b.mats[c].scale(coef) for c in C.objects}, check=False)
    M, _ = cokernel(phi)
    return M


def longest_path_quotient(C):
    """C(c,-) modulo the submodule generated by a longest basis path of C."""
    c, d, p = max(((c, d, p) for c, d in product(C.objects, repeat=2)
                   for p in C.hom_basis_paths(c, d)), key=lambda t: len(t[2]))
    unit = Matrix(C.field, [[C.field.of(int(q == p))] for q in C.hom_basis_paths(c, d)])
    M, _ = cokernel(free_on_generators(representable(C, c), [(d, unit)]).epi)
    return M


def test_representable_a2():
    C = ka2()
    P1 = representable(C, "1")
    assert P1.dims == {"1": 1, "2": 1}
    assert P1.mats["a"] == Matrix.identity(QQ, 1)
    P2 = representable(C, "2")
    assert P2.dims == {"1": 0, "2": 1}


def test_representable_square_corner():
    C = square()
    P = representable(C, "c1")
    assert [P.dims[c] for c in ("c1", "c2", "c3", "c4")] == [1, 1, 1, 1]
    # the two paths to the far corner agree on the representable
    assert P.act_path("c1", ("al", "be")) == P.act_path("c1", ("mu", "ga"))


def test_simple_and_dual():
    C = ka2()
    S2 = crosscheck.simple(C, "2")
    assert dual(S2).dims == S2.dims
    # D(C(1,-)) is one-dimensional everywhere, over the opposite
    P1 = representable(C, "1")
    D = dual(P1)
    assert D.cat == C.opposite()
    assert D.dims == {"1": 1, "2": 1}
    D.validate()


def test_module_validation_catches_relation_violation():
    C = loop_sq()
    with pytest.raises(Exception):
        Module(C, {"1": 1}, {"x": mat(QQ, [[1]])})
    Module(C, {"1": 1}, {"x": mat(QQ, [[0]])})


def test_kernel_cokernel_image_rank_nullity():
    field = QQ
    F = a2_rep(field, 2, 2, [[1, 0], [0, 0]])
    G = a2_rep(field, 2, 2, [[1, 0], [0, 0]])
    phi = ModuleMap(F, G, {"1": mat(field, [[1, 0], [0, 0]]), "2": mat(field, [[1, 0], [0, 0]])})
    K, incl = kernel(phi)
    Q, proj = cokernel(phi)
    I, _ = crosscheck.image(phi)
    for c in ("1", "2"):
        assert K.dims[c] + I.dims[c] == F.dims[c]
        assert Q.dims[c] == G.dims[c] - I.dims[c]
    for zero in (incl.then(phi), phi.then(proj)):
        assert all(m.is_zero() for m in zero.mats.values())


def test_kernel_of_identity_and_zero():
    F = a2_rep(QQ, 1, 1, [[1]])
    assert kernel(ModuleMap.identity(F))[0].is_zero()
    Z = zero_module(F.cat)
    zmap = ModuleMap(F, Z, {})
    K, _ = kernel(zmap)
    assert K.dims == F.dims


def test_homology_of_modules():
    M = a2_rep(QQ, 2, 2, [[1, 2], [3, 4]])
    Z = zero_module(M.cat)
    # 0 -> M -> 0 gives M back, arrow matrices included
    assert homology_of_modules(ModuleMap(M, Z, {}), ModuleMap(Z, M, {})) == M
    assert homology_of_modules(ModuleMap(M, Z, {}), ModuleMap.identity(M)).is_zero()
    # N = k^3 -> k^3 by diag(1, 2, 1); d_in spans e3, d_out reads the e1
    # coordinate, so the homology is spanned by e2 and its arrow acts by 2
    N = a2_rep(QQ, 3, 3, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    T = a2_rep(QQ, 1, 1, [[1]])
    e1 = mat(QQ, [[1, 0, 0]])
    d_out = ModuleMap(N, T, {"1": e1, "2": e1})
    e3 = mat(QQ, [[0], [0], [1]])
    d_in = ModuleMap(T, N, {"1": e3, "2": e3})
    H = homology_of_modules(d_out, d_in)
    H.validate()
    assert H.dims == {"1": 1, "2": 1}
    assert H.mats["a"] == mat(QQ, [[2]])
    # a nonzero composite has no homology
    with pytest.raises(LinAlgError, match="composite"):
        homology_of_modules(d_out, ModuleMap.identity(N))


def test_tensor_representable_is_evaluation():
    # C(c,-) (x)_C F = F(c)
    for C in (ka2(), square(), ex322()):
        op = C.opposite()
        rng = random.Random(3)
        F = random_module(C, rng)
        for c in C.objects:
            t = tensor_over_cat(representable(op, c), F)
            assert t.dim == F.dims[c]


def test_tensor_simple_kills_image():
    # S_2 (x) (k ->id k) = 0 over the A2 category
    C = ka2()
    S2_right = crosscheck.simple(C.opposite(), "2")
    F = a2_rep(QQ, 1, 1, [[1]])
    assert tensor_over_cat(S2_right, F).dim == 0
    # and against (k ->0 k) it is one-dimensional
    F0 = a2_rep(QQ, 1, 1, [[0]])
    assert tensor_over_cat(S2_right, F0).dim == 1


def test_tensor_zero():
    C = ka2()
    t = tensor_over_cat(zero_module(C.opposite()), a2_rep(QQ, 1, 1, [[1]]))
    assert t.dim == 0


def test_hom_yoneda():
    for C in (ka2(), square(), ex322()):
        rng = random.Random(5)
        F = random_module(C, rng)
        for c in C.objects:
            maps = hom_basis(representable(C, c), F)
            assert len(maps) == F.dims[c]


def test_hom_simple_into_kernel():
    C = ka2()
    F0 = a2_rep(QQ, 1, 1, [[0]])
    assert len(hom_basis(crosscheck.simple(C, "2"), F0)) == 1
    # maps out of S_1 land in the kernel of the arrow action
    F1 = a2_rep(QQ, 1, 1, [[1]])
    assert len(hom_basis(crosscheck.simple(C, "1"), F1)) == 0
    assert len(hom_basis(crosscheck.simple(C, "1"), F0)) == 1
    assert len(hom_basis(F1, zero_module(C))) == 0


def test_projective_cover_of_representable_is_identity():
    for C in (ka2(), ex322(), square()):
        for c in C.objects:
            P = representable(C, c)
            cov = projective_cover(P)
            assert cov.module.dims == P.dims
            assert cov.epi.is_iso()


def test_simple_resolution_over_path_category():
    # 0 -> (+) e_{s(a)} kQ -> e_i kQ -> S_i -> 0 on the arrow-reversed side
    C = ka3()
    S2 = crosscheck.simple(C, "2")
    res = projective_resolution(S2, 5)
    assert res.completed
    assert res.length() == 1
    assert res.stages[0].module.dims == representable(C, "2").dims
    assert res.stages[1].module.dims == representable(C, "3").dims
    assert projective_resolution(S2, 5).pdim() == 1


def test_resolution_exactness_and_d_squared():
    for C in (ka3(), square(), ex322(), cyclic3()):
        rng = random.Random(7)
        for _ in range(3):
            M = random_module(C, rng)
            res = projective_resolution(M, 4)
            for i in range(1, res.length() + 1):
                if i >= 2:
                    assert all(m.is_zero() for m in res.diff(i).then(res.diff(i - 1)).mats.values())
            # exactness at P_0: augmentation surjective with kernel = im d_1
            assert all(m.rank() == m.rows for m in res.stages[0].epi.mats.values())
            K, _ = kernel(res.stages[0].epi)
            if len(res.stages) > 1:
                I, _ = crosscheck.image(res.diff(1))
                assert K.dims == I.dims


def test_loop_simple_resolution_is_periodic():
    C = loop_sq()
    S = crosscheck.simple(C, "1")
    res = projective_resolution(S, 10)
    assert not res.completed
    assert all(st.module.dims == {"1": 2} for st in res.stages)
    assert projective_resolution(S, 10).pdim() is None


def test_pdim_representable_is_zero():
    for C in (ka2(), loop_sq(), square()):
        for c in C.objects:
            assert projective_resolution(representable(C, c), 4).pdim() == 0


def test_tor_zero_equals_tensor():
    C = ka2()
    S2_right = crosscheck.simple(C.opposite(), "2")
    F0 = a2_rep(QQ, 1, 1, [[0]])
    t0 = tor_dim(S2_right, F0, 0, 5)
    assert t0.conclusive and t0.dim == tensor_over_cat(S2_right, F0).dim


def test_tor_one_is_kernel_of_assembled_map():
    C = ka2()
    S2_right = crosscheck.simple(C.opposite(), "2")
    F0 = a2_rep(QQ, 1, 1, [[0]])
    assert tor_dim(S2_right, F0, 1, 5).dim == 1
    F1 = a2_rep(QQ, 1, 1, [[1]])
    assert tor_dim(S2_right, F1, 1, 5).dim == 0


def test_tor_vanishes_on_projectives():
    C = ka3()
    op = C.opposite()
    rng = random.Random(9)
    M = random_module(op, rng)
    for c in C.objects:
        P = representable(C, c)
        for i in (1, 2):
            v = tor_dim(M, P, i, 5)
            assert v.conclusive and v.dim == 0


def test_ext_zero_is_hom():
    C = square()
    rng = random.Random(13)
    M, N = random_module(C, rng), random_module(C, rng)
    e0 = ext_dim(M, N, 0, 5)
    assert e0.conclusive and e0.dim == len(hom_basis(M, N))


def test_ext_one_loop_simple_self():
    C = loop_sq()
    S = crosscheck.simple(C, "1")
    e = ext_dim(S, S, 1, 8)
    assert e.conclusive and e.dim == 1


def test_ext_vanishes_from_projectives():
    C = ex322()
    rng = random.Random(17)
    N = random_module(C, rng)
    for c in C.objects:
        e = ext_dim(representable(C, c), N, 1, 6)
        assert e.conclusive and e.dim == 0


def test_ext_fallback_through_dual_side():
    # over k[x]/(x^2) the module side never completes and at cutoff 6 settles
    # degree 5 at most; past it the dual side for an injective target
    # completes, giving a conclusive zero
    C = loop_sq()
    S = crosscheck.simple(C, "1")
    J = dual(representable(C.opposite(), "1"))
    for degree in (1, 6):
        e = ext_dim(S, J, degree, 6)
        assert e.conclusive and e.dim == 0


def test_inconclusive_is_reported_not_silent():
    C = loop_sq()
    S = crosscheck.simple(C, "1")
    e = ext_dim(S, S, 7, 4)
    assert not e.conclusive and e.dim is None


def test_tor_agrees_on_both_sides():
    C = ka3()
    op = C.opposite()
    rng = random.Random(21)
    for _ in range(5):
        M = random_module(op, rng)
        F = random_module(C, rng)
        res = projective_resolution(M, 6)
        res_f = projective_resolution(F, 6)
        for i in range(3):
            a = tor_dim(M, F, i, 6, resolution=res)
            assert a.conclusive
            b = _derived_dim(res_f, M, i, tensor=True)
            assert b.conclusive and b.dim == a.dim


@pytest.mark.parametrize("make", [loop_sq, ka3, square, ex322])
@pytest.mark.parametrize("field", [GF(3), QQ], ids=["F3", "Q"])
def test_derived_dims_match_generic_oracle(make, field):
    # Tor from both sides and Ext, read off generators, against the generic
    # tensor-quotient and Hom-system routes on the same resolutions; cutoff 3
    # leaves degree 3 inconclusive where a resolution does not complete
    C = make(field)
    op = C.opposite()
    rng = random.Random(31)
    cases = [(random_module(op, rng), random_module(C, rng), random_module(C, rng),
              random_module(C, rng)) for _ in range(2)]
    # a longest path in the first differential, so path order and reversal matter
    cases.append((longest_path_quotient(op), longest_path_quotient(C),
                  longest_path_quotient(C), random_module(C, rng)))
    for M, F, N, F2 in cases:
        for resolve in (projective_resolution, derived_oracle.padded_resolution):
            res_m = resolve(M, 3)
            res_f = resolve(F, 3)
            res_n = resolve(N, 3)
            for i in range(4):
                pairs = [
                    (_derived_dim(res_m, F, i, tensor=True),
                     derived_oracle.tor_from_resolution_of_right(res_m, F, i)),
                    (_derived_dim(res_f, M, i, tensor=True),
                     derived_oracle.tor_from_resolution_of_left(M, res_f, i)),
                    (_derived_dim(res_n, F2, i, tensor=False),
                     derived_oracle.ext_from_resolution(res_n, F2, i)),
                ]
                for got, want in pairs:
                    assert (got.dim, got.conclusive) == (want.dim, want.conclusive)


@pytest.mark.parametrize("make", [loop_sq, ex322, cyclic3])
@pytest.mark.parametrize("field", [GF(3), QQ], ids=["F3", "Q"])
def test_tensor_projection_matches_column_oracle(make, field):
    # the quotient read off the Hom system of F -> DM equals, entry for entry,
    # the one built from the tensor relations; loop arrows put both terms of
    # a relation in one slot
    C = make(field)
    op = C.opposite()
    rng = random.Random(41)
    lefts = [random_module(C, rng) for _ in range(3)] + [longest_path_quotient(C)]
    rights = [random_module(op, rng) for _ in range(3)] + [
        dual(representable(C, c)) for c in C.objects]
    for M in rights:
        for F in lefts:
            assert tensor_over_cat(M, F).proj == derived_oracle.tensor_projection(M, F)


@pytest.mark.parametrize("make", [loop_sq, square, cyclic3, ex322])
@pytest.mark.parametrize("field", [GF(3), QQ], ids=["F3", "Q"])
def test_free_covers_match_path_oracle(make, field):
    # generator images propagated arrow by arrow against whole path matrices,
    # on minimal, padded and basis covers, zero generators and no generators
    C = make(field)
    rng = random.Random(43)
    assert free_module(C, []) == zero_module(C)
    for M in [random_module(C, rng) for _ in range(3)] + [longest_path_quotient(C)]:
        zeros = [(c, Matrix.zeros(field, M.dims[c], 1)) for c in C.objects]
        minimal = projective_cover(M).summands
        for summands in (minimal, derived_oracle.padded_cover(M).summands,
                         basis_cover(M).summands, zeros + minimal, []):
            cov = free_on_generators(M, summands)
            total, epi = derived_oracle.free_cover_by_paths(M, summands)
            assert cov.module == total
            assert cov.epi.mats == epi
            cov.epi.validate()


def vanishing_at(M, zs):
    """M modulo the submodule generated by its values at the objects zs, so
    zero there."""
    f = M.cat.field
    gens = [(z, Matrix.identity(f, M.dims[z]).col(j)) for z in zs for j in range(M.dims[z])]
    return cokernel(free_on_generators(M, gens).epi)[0]


@pytest.mark.parametrize("make", [loop_sq, exterior2, square, ex322])
@pytest.mark.parametrize("field", [GF(3), QQ], ids=["F3", "Q"])
def test_applied_diff_matches_entrywise_reference(make, field):
    # blocks of several path terms, led by a coefficient 1 or another one,
    # and whole zero blocks, on the Hom and the tensor side, against the
    # entry-by-entry reference; X vanishes at no object, at generator objects
    # of one side of the map, of both sides, or everywhere; a second call
    # reads the cached path actions
    C = make(field)
    rng = random.Random(53)
    z, one = field.zero(), field.one()
    coefs = [z, one, one, field.of(2), field.neg(one), field.of(Fraction(1, 2))]
    seen = set()
    for _ in range(4):
        src = [rng.choice(C.objects) for _ in range(rng.randrange(1, 4))]
        dst = [rng.choice(C.objects) for _ in range(rng.randrange(1, 4))]
        images = [[coef for b in dst
                   for coef in ([z] * C.hom_dim(b, c) if rng.random() < 0.25 else
                                rng.choices(coefs, k=C.hom_dim(b, c)))] for c in src]
        diff = _free_map(C, src, dst, images)
        M, N = random_module(C, rng), random_module(C, rng)
        for n in range(len(C.objects) + 1):
            for zs in combinations(C.objects, n):
                seen.add((bool(set(zs) & set(src)), bool(set(zs) & set(dst)), n))
                for x, tensor in ((vanishing_at(M, zs), False),
                                  (dual(vanishing_at(N, zs)), True)):
                    assert all(x.dims[c] == 0 for c in zs)
                    want = derived_oracle.applied_diff_by_entries(C, x, src, dst, images, tensor)
                    acts = {}
                    for _ in range(2):
                        assert repr(_applied_diff(x, diff, tensor, acts)) == repr(want)
    everywhere = len(C.objects)
    assert (True, True, everywhere) in seen
    if everywhere > 1:  # some objects only: at src's alone, at dst's alone, at both
        assert {(True, False), (False, True), (True, True)} <= {
            (s, d) for s, d, n in seen if n < everywhere}


@pytest.mark.parametrize("make", [ka2, loop_sq, square, ex322])
@pytest.mark.parametrize("field", [GF(3), QQ], ids=["F3", "Q"])
def test_hom_coords_read_off_free_rows_match_solve(make, field):
    # coordinates read at the free rows of the kernel basis against a
    # generic solve, on random combinations of the basis and the zero map
    C = make(field)
    rng = random.Random(47)
    span = getattr(field, "p", 7)
    for _ in range(4):
        F, G = random_module(C, rng), random_module(C, rng)
        basis = hom_basis(F, G)
        maps = [ModuleMap(F, G, {}, check=False)]
        for _ in range(3):
            phi = maps[0]
            for b in basis:
                coef = field.of(rng.randrange(span))
                phi = phi + ModuleMap(F, G, {c: b.mats[c].scale(coef) for c in C.objects},
                                      check=False)
            maps.append(phi)
        coords = crosscheck.hom_coords(basis, maps, field)
        if basis:
            assert coords == _map_columns(basis).solve(_map_columns(maps))
        else:
            assert coords == Matrix.zeros(field, 0, len(maps))
        assert crosscheck.hom_coords(basis, [], field) == Matrix.zeros(field, len(basis), 0)


@pytest.mark.parametrize("field", [GF(3), QQ], ids=["F3", "Q"])
def test_hom_coords_refuse_a_map_outside_the_span(field):
    C = ka2(field)
    P1 = representable(C, "1")
    one = Matrix.identity(field, 1)
    # Hom(P1, P1) is spanned by the identity; identity at 1 and zero at 2 is
    # not natural
    with pytest.raises(ModuleError):
        crosscheck.hom_coords(hom_basis(P1, P1), [ModuleMap(P1, P1, {"1": one}, check=False)], field)
    # Hom(P1, S2) = S2(1) is zero, with a nonzero candidate at 2
    S2 = crosscheck.simple(C, "2")
    assert not hom_basis(P1, S2)
    with pytest.raises(ModuleError):
        crosscheck.hom_coords(hom_basis(P1, S2), [ModuleMap(P1, S2, {"2": one}, check=False)], field)


def test_dual_map_contravariant():
    C = ka2()
    F = a2_rep(QQ, 1, 1, [[1]])
    G = a2_rep(QQ, 1, 1, [[0]])
    for phi in hom_basis(F, G):
        d = dual_map(phi)
        assert d.src.dims == G.dims
        d.validate()
