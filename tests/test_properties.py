"""Property tests over generated bound quivers.

Categories are acyclic quivers with random arrow names and relations
p + lambda q between parallel paths, lambda a random nonzero scalar.  The
(length, lex) order on paths then often keeps a different representative of
p and q than the order on their reversals, so the opposite category's basis
differs from the category's own; the Nakayama engine must not depend on it.
The category builder is also compared with its dense oracle on small
presentations with loops and cycles.
"""

import itertools
import random

from hypothesis import example, given, settings, strategies as st

import crosscheck
import derived_oracle
from dense_builder import dense_build_category, dense_builder
from gpquiver.category import PossiblyInfiniteError, Quiver, Relation, build_category
from gpquiver.gorenstein import is_gproj_P, is_p_projective, splitting_section
from gpquiver.linalg import GF, QQ, Matrix
from gpquiver.modules import (
    Module,
    ModuleMap,
    Resolution,
    _derived_dim,
    basis_cover,
    block_offsets,
    dual,
    free_module,
    projective_resolution,
    representable,
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


@st.composite
def presentations(draw):
    """Quiver, relations, field and length cutoff of a small presentation
    with a loop at v0 and one or two random arrows, loops and cycles
    allowed: two to four relations, each a random combination of two or
    three parallel paths of length 2 or 3, and in about half the examples
    every path of length cutoff - 1 set to zero.  The others may still grow
    at the cutoff."""
    field = draw(st.sampled_from([GF(2), GF(3), QQ]))
    n = draw(st.integers(1, 2))
    ends = [(0, 0)] + draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=2))
    arrows = tuple((f"a{k}", f"v{s}", f"v{t}") for k, (s, t) in enumerate(ends))
    by_len = {1: [((name,), s, t) for name, s, t in arrows]}
    for k in (2, 3, 4):
        by_len[k] = [(p + (name,), s, t2) for p, s, t in by_len[k - 1]
                     for name, s2, t2 in arrows if s2 == t]
    parallel = {}
    for p, s, t in by_len[2] + by_len[3]:
        parallel.setdefault((s, t), []).append(p)
    relations = []
    for _ in range(draw(st.integers(2, 4))):
        paths = draw(st.sampled_from(sorted(g for g in parallel.values() if len(g) > 1)))
        terms = draw(st.lists(st.sampled_from(paths), min_size=2, max_size=3, unique=True))
        top = 3 if field == QQ else field.p - 1
        relations.append(Relation(tuple(
            (field.of(draw(st.integers(1, top))), p) for p in terms)))
    cutoff = draw(st.integers(4, 5))
    if draw(st.booleans()):
        relations += [Relation(((field.one(), p),)) for p, _, _ in by_len[cutoff - 1]]
    quiver = Quiver(tuple(f"v{i}" for i in range(n)), arrows)
    return quiver, tuple(relations), field, cutoff


def _tables(cat):
    op = cat.opposite()
    return repr((cat._basis, cat._reduction, cat.max_basis_len, op._basis, op._reduction))


@given(bound_quivers())
def test_builder_agrees_with_dense_oracle(cat):
    # the reduced row echelon form is unique, so the sparse builder keeps
    # the dense one's bases, reduction tables and their order
    with dense_builder():
        oracle = dense_build_category(cat.quiver, cat.relations, cat.field, cat.length_cutoff)
        expected = _tables(oracle)
    assert _tables(cat) == expected


def _trinomial():
    """k<x, y, z>/(xx + yy + zz, all words of length 3): the table entry
    of zz has two terms, so its order is checked as well."""
    quiver = Quiver(("o",), tuple((a, "o", "o") for a in "xyz"))
    one = QQ.one()
    rels = [Relation(((one, ("x", "x")), (one, ("y", "y")), (one, ("z", "z"))))]
    rels += [Relation(((one, w),)) for w in itertools.product("xyz", repeat=3)]
    return quiver, tuple(rels), QQ, 4


# 50 examples take under a second
@settings(max_examples=50)
@given(presentations())
@example(_trinomial())
def test_builder_agrees_with_dense_oracle_on_cyclic_quivers(presentation):
    # the same, also on the witness of a category still growing at its cutoff
    def build(builder):
        try:
            return _tables(builder(*presentation))
        except PossiblyInfiniteError as exc:
            return exc.pair, exc.cutoff

    with dense_builder():
        expected = build(dense_build_category)
    assert build(build_category) == expected


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
    sig = crosscheck.sigma_counit(eng, nuF.module, nm, nu_nm)
    assert eng.nu_map(nuF, nu_nm, lam).then(sig) == ModuleMap.identity(nuF.module)
    nmF = eng.nu_minus(F)
    nu_nmF = eng.nu(nmF.module)
    nm_nu_nmF = eng.nu_minus(nu_nmF.module)
    lam_nm = eng.lambda_unit(nmF.module, nu_nmF, nm_nu_nmF)
    nm_sig = eng.nu_minus_map(nm_nu_nmF, nmF, crosscheck.sigma_counit(eng, F, nmF, nu_nmF))
    assert lam_nm.then(nm_sig) == ModuleMap.identity(nmF.module)

    # nu(i_!) -> i_* is an isomorphism
    iso = crosscheck.iso_nu_ishriek(eng, {c: rng.randrange(0, 2) for c in cat.objects})
    iso.validate()
    assert iso.is_iso()

    # L_i nu and R^i nu^-: the dimension counts against the homology modules
    for i in (1, 2):
        by_tor = eng.left_derived_nu_dims(F, i)
        by_homology = eng.left_derived_nu(F, i)
        by_homology.validate()
        assert {c: v.dim for c, v in by_tor.items()} == by_homology.dim_vector()
        by_ext = eng.right_derived_nu_minus_dims(F, i)
        by_cores = eng.right_derived_nu_minus(F, i)
        by_cores.validate()
        assert {c: v.dim for c, v in by_ext.items()} == by_cores.dim_vector()


@given(bound_quivers(), st.integers(0, 2**32), st.integers(0, 3))
def test_resolution_matches_kernel_module_oracle(cat, seed, cutoff):
    # syzygies covered inside the free stage against covers of kernel
    # modules, on a random module, a simple and an injective; each resolved
    # afresh, and read at the cutoff off a stage list grown past it
    rng = random.Random(seed)
    c0 = rng.choice(cat.objects)
    G = random_module(cat, rng)
    for F in (random_module(cat, rng), crosscheck.simple(cat, c0),
              dual(representable(cat.opposite(), c0))):
        oracle = derived_oracle.kernel_module_resolution(F, cutoff)
        shared = []
        Resolution(F, cutoff + 2, shared).length()
        for res in (Resolution(F, cutoff, shared), projective_resolution(F, cutoff)):
            for i in range(cutoff + 2):
                for x, tensor in ((G, False), (dual(G), True)):
                    assert _derived_dim(res, x, i, tensor) == _derived_dim(oracle, x, i, tensor)
            assert res.length() == oracle.length()
            assert [s.module.dims for s in res.stages] == [s.module.dims for s in oracle.stages]
            assert (res.completed, res.pdim()) == (oracle.completed, oracle.pdim())

        # exact: rank d_i + rank d_{i+1} = dim P_i, with d_0 the cover of F
        # and d_{i+1} = 0 past a completed resolution; minimal: d_{i+1}
        # vanishes on the identity-path rows of P_i
        n = len(res.stages)
        ranks = [{c: s.epi.mats[c].rank() for c in cat.objects} for s in res.stages]
        assert ranks[0] == F.dims
        for i, stage in enumerate(res.stages):
            objs = [c for c, _ in stage.summands]
            d_next = res.diff(i + 1)
            for c in cat.objects:
                if i + 1 < n or res.completed:
                    rank_next = ranks[i + 1][c] if i + 1 < n else 0
                    assert ranks[i][c] + rank_next == stage.module.dims[c]
                starts = block_offsets(cat, objs, c)
                assert not any(any(d_next.mats[c].data[starts[k]])
                               for k, obj in enumerate(objs) if obj == c)


def rebased(m, rng):
    """m in a random basis at each object: M(a) becomes T_t M(a) T_s^-1."""
    f, span = m.cat.field, getattr(m.cat.field, "p", 5)
    T = {}
    for c in m.cat.objects:
        n = m.dims[c]
        while (t := Matrix(f, [[f.of(rng.randrange(span)) for _ in range(n)]
                               for _ in range(n)], n, n)).rank() < n:
            pass
        T[c] = t
    inv = {c: t.solve(Matrix.identity(f, t.rows)) for c, t in T.items()}
    return Module(m.cat, m.dims, {a: T[t] @ m.mats[a] @ inv[s]
                                  for a, (s, t) in m.cat.arrow_map.items()})


@given(bound_quivers(), st.integers(0, 2**32), st.integers(1, 3))
def test_syzygy_covers_match_span_cover_oracle(cat, seed, cutoff):
    # each stage covers its syzygy in kernel coordinates, its tops read off
    # the radical: the same generators, summand vectors, syzygy bases, free
    # module and epi (built when read) and length as covering each syzygy
    # inside the dense free stage before it, on a random module, a simple
    # and an injective, each in a random basis
    rng = random.Random(seed)
    c0 = rng.choice(cat.objects)
    for F in (random_module(cat, rng), crosscheck.simple(cat, c0),
              dual(representable(cat.opposite(), c0))):
        M = rebased(F, rng)
        res, oracle = projective_resolution(M, cutoff), derived_oracle.span_stages(M, cutoff)
        assert res.length() == len(oracle) - 1
        for stage, want in zip(res.stages, oracle):
            assert stage.summands == want.summands
            assert stage.syzygy == want.syzygy
            assert stage.module == want.module and stage.epi.mats == want.epi.mats


# three resolutions per example; 10 keep the test inside the tier-1 budget
@settings(max_examples=10)
@given(bound_quivers(), st.integers(0, 2**32))
def test_summand_vectors_are_generator_images(cat, seed):
    # the Cover contract that _diff_images reads d_j by: each summand vector
    # is the column of the stage's epi at its generator's identity-path row,
    # in production, kernel-module and padded resolutions
    rng = random.Random(seed)
    F = random_module(cat, rng)
    for res in (projective_resolution(F, 3), derived_oracle.kernel_module_resolution(F, 3),
                derived_oracle.padded_resolution(F, 3)):
        res.length()
        for stage in res.stages:
            objs = [c for c, _ in stage.summands]
            for l, (c, v) in enumerate(stage.summands):
                row = block_offsets(cat, objs, c)[l]
                assert [[r[row]] for r in stage.epi.mats[c].data] == v.data


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
            right = _derived_dim(eng.res_right(c), F, i, tensor=True)
            left = _derived_dim(res_f, eng.coef_right(c), i, tensor=True)
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
        split = splitting_section(basis_cover(F).epi) is not None
        assert (is_p_projective(F, eng).member == "yes") == split


# D(C(c,-)) is the same C^op-module whether read as C's right coefficient
# module or as C^op's left one; two engines per example, 10 keep the test
# inside the tier-1 budget
@settings(max_examples=10)
@given(bound_quivers())
def test_left_and_right_gdim_agree(cat):
    g = NakayamaEngine(cat, 8).gorenstein_dimension()
    g_op = NakayamaEngine(cat.opposite(), 8).gorenstein_dimension()
    assert g.right_pdims == g_op.left_pdims
    assert g.left_pdims == g_op.right_pdims
