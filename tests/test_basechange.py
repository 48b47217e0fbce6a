"""Slicing tensor-category modules into fibers and pushing nu through."""

import derived_oracle
from conftest import module322, tensor322
from gpquiver.basechange import Factorization
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


def test_nu_based_matches_cokernel_formula(setup322):
    # for a representation (M1 -u-> M2, loop v) the value of nu over the
    # arrow vertex is Coker u and over the loop vertex Coker v
    T, M = setup322
    fact = Factorization(T, "left")
    engine = NakayamaEngine(fact.cat, cutoff=8)
    nuM, _ = fact.nu_based(M, engine)
    nuM.validate()
    # value at the arrow vertex is Coker v, at the loop vertex Coker u:
    # fiber over base object 1 has u = 0 into k and v = 0, fiber over base
    # object 2 has u = 0 into k^2 and v of rank one
    assert nuM.dims == {"1|1": 1, "1|2": 1, "2|1": 1, "2|2": 2}


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
