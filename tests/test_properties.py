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
from dense_builder import dense_build_category, dense_builder, paths_by_pair
from gpquiver.category import (CategoryError, PossiblyInfiniteError, Quiver, Relation,
                               build_category)
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
from test_category import one_loop, two_loops
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


def _tables(cat, cutoff):
    """The hom bases, and the normal form, largest path first, of every path
    up to the cutoff."""
    bases = [cat.hom_basis_paths(c, d) for c in cat.objects for d in cat.objects]
    return bases, [(p, list(cat.reduce_word(c, p).items()))
                   for (c, _), paths in paths_by_pair(cat.quiver, cutoff).items() for p in paths]


def _assert_consistent(cat):
    """Each relation reduces to 0; the normal form of each path up to the
    cutoff is that of the product of the normal forms of any two pieces, so
    the rewriting ends in the same place whichever tip it rewrites first;
    the rules are reduced, each tail normal and every path inside a tip
    but the tip itself normal; and composing basis paths is associative."""
    f = cat.field
    for rel in cat.relations:
        value = {}
        for coef, p in rel.terms:
            for q, c in cat.reduce_word(cat.arrow_map[p[0]][0], p).items():
                value[q] = f.add(value.get(q, f.zero()), f.mul(coef, c))
        assert not any(value.values())
    for (c, d), paths in paths_by_pair(cat.quiver, cat.length_cutoff).items():
        for p in paths:
            for k in range(1, len(p)):
                mid = cat.arrow_map[p[k - 1]][1]
                assert cat.reduce_word(c, p) == crosscheck.compose(
                    cat, c, mid, d, cat.reduce_word(c, p[:k]), cat.reduce_word(mid, p[k:]))
    for tip, tail in cat._rules.items():
        s, t = cat.arrow_map[tip[0]][0], cat.arrow_map[tip[0]][1]
        assert cat.reduce_word(s, tip) == tail
        assert cat.reduce_word(s, tip[:-1]) == {tip[:-1]: f.one()}
        assert cat.reduce_word(t, tip[1:]) == {tip[1:]: f.one()}
    objs = cat.objects
    for a, b, c, d in itertools.product(objs, repeat=4):
        for p in cat.hom_basis_paths(a, b):
            for q in cat.hom_basis_paths(b, c):
                pq = crosscheck.compose(cat, a, b, c, {p: f.one()}, {q: f.one()})
                for r in cat.hom_basis_paths(c, d):
                    qr = crosscheck.compose(cat, b, c, d, {q: f.one()}, {r: f.one()})
                    assert (crosscheck.compose(cat, a, c, d, pq, {r: f.one()})
                            == crosscheck.compose(cat, a, b, d, {p: f.one()}, qr))


@given(bound_quivers())
def test_builder_agrees_with_dense_oracle(cat):
    # an acyclic quiver has no path as long as its cutoff, so the dense
    # oracle is exact there; both sides, and the opposite's too
    _assert_consistent(cat)
    with dense_builder():
        oracle = dense_build_category(cat.quiver, cat.relations, cat.field, cat.length_cutoff)
        for built, want in ((cat, oracle), (cat.opposite(), oracle.opposite())):
            assert _tables(built, cat.length_cutoff) == _tables(want, cat.length_cutoff)


def _trinomial():
    """k<x, y, z>/(xx + yy + zz, all words of length 3): the normal form of
    zz has two terms, so its order is checked as well."""
    quiver = Quiver(("o",), tuple((a, "o", "o") for a in "xyz"))
    one = QQ.one()
    rels = [Relation(((one, ("x", "x")), (one, ("y", "y")), (one, ("z", "z"))))]
    rels += [Relation(((one, w),)) for w in itertools.product("xyz", repeat=3)]
    return quiver, tuple(rels), QQ, 4


def _two_loop_words(field, cutoff, *relations):
    """k<a, b> with the relations, each a tuple of (coefficient, word), and
    a^4 = b^4 = 0, in application order."""
    quiver = Quiver(("o",), (("a", "o", "o"), ("b", "o", "o")))
    rels = [Relation(tuple((field.of(c), tuple(w)) for c, w in r)) for r in relations]
    rels += [Relation(((field.one(), (x,) * 4),)) for x in "ab"]
    return quiver, tuple(rels), field, cutoff


# the dense oracle's rows grow with the square of the paths: three loops at
# one object have 3,280 paths up to length 7, and such an example took 16 s
DENSE_PATHS = 1000


# 50 examples take about a second
@settings(max_examples=50)
@given(presentations())
@example(_trinomial())
@example(two_loops(5))
@example(one_loop(4))
# needs the overlap of a tip with itself, and of a new tip on the left of an
# older one
@example(_two_loop_words(GF(3), 6, ((1, "aab"), (1, "bab")), ((1, "bb"), (1, "aa"))))
def test_builder_agrees_with_dense_oracle_on_cyclic_quivers(presentation):
    # the completion is exact at any cutoff; the dense oracle only once every
    # consequence of the relations shows inside its cutoff: wherever it is
    # stable, the same at the next two cutoffs, the two agree
    quiver, relations, field, cutoff = presentation
    try:
        cat = build_category(*presentation)
    except PossiblyInfiniteError as exc:
        cat, refused = None, exc.pair
    except CategoryError:  # past the work bound: nothing to compare
        return
    else:
        _assert_consistent(cat)
    if sum(map(len, paths_by_pair(quiver, cutoff + 2).values())) > DENSE_PATHS:
        return
    with dense_builder():
        try:
            near, far = (dense_build_category(quiver, relations, field, cutoff + k)
                         for k in (1, 2))
        except PossiblyInfiniteError:
            return
    if _tables(near, cutoff + 1) != _tables(far, cutoff + 1):
        return
    growing = [(c, d) for c in far.objects for d in far.objects
               if any(len(p) >= cutoff for p in far.hom_basis_paths(c, d))]
    if growing:
        assert cat is None and refused == min(growing)
    else:
        assert cat is not None, f"refused as growing at {refused}"
        assert _tables(cat, cutoff) == _tables(far, cutoff)


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


# nine resolutions per example; 10 keep the test inside the tier-1 budget
@settings(max_examples=10)
@given(bound_quivers(), st.integers(0, 2**32))
def test_summand_vectors_are_generator_images(cat, seed):
    # the Cover contract that _diff_images reads d_j by: each summand vector
    # is the column of the stage's epi at its generator's identity-path row,
    # in production, kernel-module and padded resolutions; of a random
    # module (most are projective), the simple at v0, which has arrows out
    # and so is not, and an injective
    rng = random.Random(seed)
    c0 = rng.choice(cat.objects)
    for F in (random_module(cat, rng), crosscheck.simple(cat, "v0"),
              dual(representable(cat.opposite(), c0))):
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
