"""Slicing tensor-category modules into fibers and pushing nu through."""

from collections import Counter

import derived_oracle
from conftest import ka2, loop_sq, module322, tensor322
from gpquiver.basechange import Factorization
from gpquiver.category import tensor_category
from gpquiver.gorenstein import splitting_section
from gpquiver.modules import dual, representable
from gpquiver.nakayama import NakayamaEngine

import pytest


@pytest.fixture(scope="module")
def setup322():
    T = tensor322()
    M = module322(T)
    return T, M


def test_module322_satisfies_total_relations(setup322):
    T, M = setup322
    M.validate()
    assert M.dims == {"1|1": 0, "1|2": 0, "2|1": 1, "2|2": 2}


def test_fibers_right_side(setup322):
    T, M = setup322
    fact = Factorization(T, "right")  # C-direction = the opposite presentation
    lam2 = fact.cat
    assert fact.base.objects == ("1", "2")
    f1 = fact.fiber(M, "1")
    assert f1.is_zero()
    f2 = fact.fiber(M, "2")
    q2 = representable(lam2, "2")
    assert f2.dims == q2.dims
    for a in lam2.arrow_map:
        assert f2.mats[a] == q2.mats[a]


def test_restrict_left_side_dims(setup322):
    T, M = setup322
    fact = Factorization(T, "left")
    r = fact.restrict_to_cat(M)
    # fibers over the two base objects: dims (0,1) and (0,2)
    assert r.dims == {"1": 0, "2": 3}
    r.validate()


def test_base_map_is_module_map(setup322):
    T, M = setup322
    for side in ("left", "right"):
        fact = Factorization(T, side)
        fibs = fact.fibers(M)
        for b in fact.base.arrow_map:
            fact.base_map(M, b, fibs).validate()


def test_i_star_nu_matches_cokernel_formula(setup322):
    # for a representation (M1 -u-> M2, loop v) the value of nu over the
    # arrow vertex is Coker u and over the loop vertex Coker v
    T, M = setup322
    fact = Factorization(T, "left")
    engine = NakayamaEngine(fact.cat, cutoff=8)
    comps = fact.i_star_nu_components(M, engine)
    # nu F is a T-module: each fiber's nu is a C-module, each pushed base
    # action a C-module map, and each component a base module built of them
    fibs = fact.fibers(M)
    nus = {d: engine.nu(fibs[d]) for d in fact.base.objects}
    for nu in nus.values():
        nu.module.validate()
    for b, (d, d2) in fact.base.arrow_map.items():
        pushed = engine.nu_map(nus[d], nus[d2], fact.base_map(M, b, fibs))
        pushed.validate()
        for c in fact.cat.objects:
            assert comps[c].mats[b] == pushed.mats[c]
    for mod in comps.values():
        mod.validate()
    # value at the arrow vertex is Coker v, at the loop vertex Coker u:
    # fiber over base object 1 has u = 0 into k and v = 0, fiber over base
    # object 2 has u = 0 into k^2 and v of rank one
    assert {fact.name(d, c): comps[c].dims[d] for c in comps for d in fact.base.objects} == {
        "1|1": 1, "1|2": 1, "2|1": 1, "2|2": 2}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("build", [tensor322, lambda: tensor_category(ka2(), loop_sq())],
                         ids=["ex322", "ka2-loop_sq"])
def test_total_category_is_named_by_fact_name(build, side):
    """Each object of the total category is name(d, c) for one pair of a base
    object and a C object; each arrow is name(d, a) for a C arrow a or
    name(b, c) for a base arrow b, between the names of its endpoints."""
    fact = Factorization(build(), side)
    B, C, T = fact.base, fact.cat, fact.total
    objects = Counter(fact.name(d, c) for d in B.objects for c in C.objects)
    assert sorted(objects) == sorted(T.objects) and set(objects.values()) == {1}
    arrows = Counter()
    for d in B.objects:
        for a, (s, t) in C.arrow_map.items():
            arrows[fact.name(d, a)] += 1
            assert T.arrow_map[fact.name(d, a)] == (fact.name(d, s), fact.name(d, t))
    for b, (s, t) in B.arrow_map.items():
        for c in C.objects:
            arrows[fact.name(b, c)] += 1
            assert T.arrow_map[fact.name(b, c)] == (fact.name(s, c), fact.name(t, c))
    assert sorted(arrows) == sorted(T.arrow_map) and set(arrows.values()) == {1}


def test_i_star_nu_components(setup322):
    T, M = setup322
    fact = Factorization(T, "left")
    engine = NakayamaEngine(fact.cat, cutoff=8)
    comps = fact.i_star_nu_components(M, engine)
    for c, mod in comps.items():
        mod.validate()
        assert mod.cat == fact.base
    assert comps["1"].dim_vector() == {"1": 1, "2": 1}
    assert comps["2"].dim_vector() == {"1": 1, "2": 2}


def test_p_counit_based_epi_and_natural(setup322):
    # against the Kronecker oracle (representables (x) coefficients): one
    # P(F) in two coordinate orders, so the same p_dims and the same
    # splitting verdict, "no" on M and "yes" on P(M)
    T, M = setup322
    for side in ("left", "right"):
        fact = Factorization(T, side)
        PM, _ = fact.p_counit_based(M)
        for F, splits in ((M, False), (PM, True)):
            PF, eps = fact.p_counit_based(F)
            PF.validate()
            eps.validate()
            assert all(m.rank() == m.rows for m in eps.mats.values())
            PF_k, eps_k = derived_oracle.p_counit_kronecker(fact, F)
            assert PF.dims == PF_k.dims
            assert (splitting_section(eps) is not None) == splits
            assert (splitting_section(eps_k) is not None) == splits


def test_p_counit_splits_on_p_projectives(setup322):
    # P(F) is itself P-projective, so its own counit admits a section
    T, M = setup322
    fact = Factorization(T, "left")
    PF, _ = fact.p_counit_based(M)
    PPF, eps = fact.p_counit_based(PF)
    sec = splitting_section(eps)
    assert sec is not None
    assert sec.then(eps).is_iso()


def test_fiber_of_dualizable_data_roundtrip(setup322):
    T, M = setup322
    fact = Factorization(T, "right")
    f2 = fact.fiber(M, "2")
    assert dual(dual(f2)).dims == f2.dims
