"""Property tests over generated bound quivers.

Categories are acyclic quivers with random arrow names and relations
p + lambda q between parallel paths, lambda a random nonzero scalar.  The
(length, lex) order on paths then often keeps a different representative of
p and q than the order on their reversals, so the opposite category's basis
differs from the category's own; the Nakayama engine must not depend on it.
"""

import random

from hypothesis import given, settings, strategies as st

import derived_oracle
from gpquiver.category import Quiver, Relation, build_category
from gpquiver.gorenstein import is_gproj_P, is_p_projective, splitting_section
from gpquiver.linalg import GF, QQ
from gpquiver.modules import (
    ModuleMap,
    _tor_from_resolution_of_left,
    _tor_from_resolution_of_right,
    dual,
    free_module,
    projective_resolution,
    tensor_over_cat,
)
from gpquiver.nakayama import NakayamaEngine
from test_modules import random_module


def _paths(arrows):
    """Paths of length >= 2 of an acyclic quiver, grouped by endpoints."""
    out = {}
    frontier = [((name,), s, t) for name, s, t in arrows]
    while frontier:
        nxt = []
        for p, s, t in frontier:
            if len(p) >= 2:
                out.setdefault((s, t), []).append(p)
            nxt += [(p + (name,), s, t2) for name, s2, t2 in arrows if s2 == t]
        frontier = nxt
    return out


@st.composite
def bound_quivers(draw):
    """A diamond v0 -> v1 -> v3, v0 -> v2 -> v3 plus random arrows s -> t,
    s < t, and one or two relations p + lambda q, each on its own set of
    parallel paths."""
    field = draw(st.sampled_from([GF(3), GF(5), QQ]))
    n = draw(st.integers(4, 5))
    extra = draw(st.lists(st.integers(0, n - 2).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(s + 1, n - 1))), max_size=3))
    names = draw(st.randoms(use_true_random=False)).sample("abcdefgh", 8)
    ends = [(0, 1), (1, 3), (0, 2), (2, 3)] + extra
    arrows = tuple((names[k], f"v{s}", f"v{t}") for k, (s, t) in enumerate(ends))
    parallel = [ps for ps in _paths(arrows).values() if len(ps) >= 2]
    relations = []
    for k in draw(st.lists(st.integers(0, len(parallel) - 1), min_size=1, max_size=2,
                           unique=True)):
        p, q = draw(st.permutations(parallel[k]))[:2]
        lam = field.of(draw(st.integers(1, 4 if field == QQ else field.p - 1)))
        relations.append(Relation(((field.one(), p), (lam, q))))
    quiver = Quiver(tuple(f"v{i}" for i in range(n)), arrows)
    # an acyclic quiver has no path of length n, so the cutoff n is exact
    return build_category(quiver, tuple(relations), field, n)


@given(bound_quivers(), st.integers(0, 2**32))
def test_one_basis_nakayama_engine(cat, seed):
    rng = random.Random(seed)
    eng = NakayamaEngine(cat, 8)
    F = random_module(cat, rng, max_gens=1)

    # triangle identities of nu -| nu^-
    nuF = eng.nu(F)
    nm = eng.nu_minus(nuF.module)
    lam = eng.lambda_unit(F, nuF, nm)
    nu_nm = eng.nu(nm.module)
    sig = eng.sigma_counit(nuF.module, nm, nu_nm)
    assert eng.nu_map(nuF, nu_nm, lam).then(sig) == ModuleMap.identity(nuF.module)
    nmF = eng.nu_minus(F)
    nu_nmF = eng.nu(nmF.module)
    nm_nu_nmF = eng.nu_minus(nu_nmF.module)
    lam_nm = eng.lambda_unit(nmF.module, nu_nmF, nm_nu_nmF)
    nm_sig = eng.nu_minus_map(nm_nu_nmF, nmF, eng.sigma_counit(F, nmF, nu_nmF))
    assert lam_nm.then(nm_sig) == ModuleMap.identity(nmF.module)

    # nu(i_!) -> i_* is an isomorphism
    iso = eng.iso_nu_ishriek({c: rng.randrange(0, 2) for c in cat.objects})
    iso.validate()
    assert iso.is_iso()

    # R^i nu^-: Ext from the coefficient injectives against the coresolution
    for i in (1, 2):
        by_ext = eng.right_derived_nu_minus_dims(F, i)
        by_cores = eng.right_derived_nu_minus(F, i).dim_vector()
        assert {c: v.expect() for c, v in by_ext.items()} == by_cores


# each example resolves every coefficient module of a fresh engine; 10 keep
# the test inside the tier-1 time budget
@settings(max_examples=10)
@given(bound_quivers(), st.integers(0, 2**32))
def test_tensor_and_derived_routes_agree(cat, seed):
    rng = random.Random(seed)
    eng = NakayamaEngine(cat, 8)
    F = random_module(cat, rng, max_gens=1)

    # the tensor quotient read off the Hom system against the relation columns
    for M in [eng.coef_right(c) for c in cat.objects] + [dual(random_module(cat, rng))]:
        assert tensor_over_cat(M, F).proj == derived_oracle.tensor_projection(M, F)

    # Tor_i(D C(c,-), F) from a resolution of either side
    res_f = projective_resolution(F, 8)
    for c in cat.objects:
        for i in range(3):
            right = _tor_from_resolution_of_right(eng.res_right(c), F, i)
            left = _tor_from_resolution_of_left(eng.coef_right(c), res_f, i)
            assert right.conclusive and (right.dim, True) == (left.dim, left.conclusive)

    # the shortcut and the full gproj-P routes give the same verdict, unless
    # the full route stops at its cutoff
    short = is_gproj_P(F, eng)
    full = is_gproj_P(F, eng, force_full=True)
    assert short.certificate["route"] == "shortcut"
    assert full.member == short.member or (
        full.member == "inconclusive" and "blocking_cutoff" in full.certificate)


# a splitting search per example; 8 keep the test inside the tier-1 budget
@settings(max_examples=8)
@given(bound_quivers(), st.integers(0, 2**32))
def test_unbased_p_projective_is_counit_splitting(cat, seed):
    # the projective cover decides the verdict, the basis counit P(F) -> F
    # splits exactly on the same modules
    rng = random.Random(seed)
    eng = NakayamaEngine(cat, 8)
    objs = [rng.choice(cat.objects) for _ in range(rng.randrange(1, 3))]
    for F in (random_module(cat, rng, max_gens=1), free_module(cat, objs)):
        split = splitting_section(eng.counit_P(F)[1]) is not None
        assert (is_p_projective(F, eng).member == "yes") == split
