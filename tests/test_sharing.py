"""What is made once per category: coefficient data and representables,
nu(F) once per full-route verdict; and nu, nu^- and lambda read off the
presentations of D(C) against the tensor and hom-basis oracle routes,
through canonical isomorphisms."""

import os
import random

import pytest

import crosscheck
import derived_oracle
from conftest import cyclic3, ex322, loop_sq, square, tensor322, module322
from gpquiver import cli, gorenstein, modules, nakayama
from gpquiver import io as gio
from gpquiver.basechange import Factorization
from gpquiver.gorenstein import discrepancy_probe, is_gproj_P
from gpquiver.linalg import GF, QQ, Matrix, free_row_coords
from gpquiver.modules import (
    Module,
    ModuleMap,
    hom_basis,
    projective_cover,
    projective_resolution,
    representable,
    zero_module,
)
from gpquiver.nakayama import NakayamaEngine
from test_modules import random_module, vanishing_at

F3 = GF(3)


def theta(eng, nuF, oracle, c):
    """theta at c, production nu F(c) -> the oracle's tensor quotient: g_k (x) v
    in the Yoneda space (+)_k F(d_k) goes to the class of eps(g_k) (x) v, on
    the unit columns of the section."""
    F, t = nuF.source, oracle.data[c]
    cols = []
    for d, v in eng.presentation("right", c).stages[0].summands:
        n = F.dims[d]
        for j in range(n):
            col = [F.cat.field.zero()] * t.ambient
            for i, (x,) in enumerate(v.data):
                col[t.offsets[d] + i * n + j] = x
            cols.append(col)
    amb = crosscheck.from_columns(F.cat.field, cols, t.ambient)
    return t.proj @ (amb @ crosscheck.section(nuF.frames[c]))


def big_theta(eng, nm, oracle, c):
    """Theta at c, the oracle's hom-basis nu^- G(c) -> production nu^- G(c):
    a map psi goes to its values psi_{e_m}(xi_m) on the generators of
    D C(-,c), read in the kernel basis."""
    f = nm.source.cat.field
    gens = eng.presentation("left", c).stages[0].summands
    cols = [[x for e, xi in gens for (x,) in (psi.mats[e] @ xi).data] for psi in oracle.bases[c]]
    rows = sum(nm.source.dims[e] for e, _ in gens)
    return free_row_coords(*nm.frames[c], crosscheck.from_columns(f, cols, rows))


def assert_iso(iso, src, dst):
    """iso (object -> matrix) is invertible and intertwines the arrows."""
    for c, m in iso.items():
        assert (m.rows, m.cols) == (dst.dims[c], src.dims[c]) and m.rank() == m.rows, c
    for a, (s, t) in src.cat.arrow_map.items():
        assert iso[t] @ src.mats[a] == dst.mats[a] @ iso[s], a


def assert_square(iso_src, iso_dst, got, want):
    """iso_dst . got == want . iso_src at every object."""
    for c in iso_src:
        assert iso_dst[c] @ got.mats[c] == want.mats[c] @ iso_src[c], c


def assert_lambda(eng, orc, F, nuF, nuF_o, th):
    """Theta . lambda_oracle == nu^-(theta) . lambda, theta: nu F -> nu_o F."""
    nm_nu, nm_nu_o, nm_to = (eng.nu_minus(nuF.module), orc.nu_minus(nuF_o.module),
                             eng.nu_minus(nuF_o.module))
    nu_th = eng.nu_minus_map(nm_nu, nm_to, ModuleMap(nuF.module, nuF_o.module, th, check=False))
    objs = F.cat.objects
    assert_square({c: Matrix.identity(F.cat.field, F.dims[c]) for c in objs},
                  {c: big_theta(eng, nm_to, nm_nu_o, c) for c in objs},
                  orc.lambda_unit(F, nuF_o, nm_nu_o), eng.lambda_unit(F, nuF, nm_nu).then(nu_th))


@pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "Q"])
@pytest.mark.parametrize("build", [loop_sq, ex322, cyclic3, square])
def test_tensor_induced_matches_kronecker_oracle(build, field):
    """Production nu, nu^-, their maps and lambda, read off the presentations
    of D(C), against the oracle's tensor quotients (nu, through
    tensor_induced, the Kronecker form) and hom bases (nu^-): theta and Theta
    are isomorphisms that carry every arrow, every nu_map and nu_minus_map
    and the unit of one route to the other."""
    cat = build(field)
    rng = random.Random(f"{build.__name__}:{field!r}")
    # zero-dimensional blocks: the zero module, a simple, and the random
    # modules' zero objects
    mods = [random_module(cat, rng) for _ in range(3)]
    mods += [zero_module(cat), crosscheck.simple(cat, cat.objects[-1])]
    eng, orc = NakayamaEngine(cat, 4), derived_oracle.TensorNakayamaEngine(cat, 4)
    objs = cat.objects

    def both(F):
        nuF, nuF_o, nm, nm_o = eng.nu(F), orc.nu(F), eng.nu_minus(F), orc.nu_minus(F)
        th = {c: theta(eng, nuF, nuF_o, c) for c in objs}
        big = {c: big_theta(eng, nm, nm_o, c) for c in objs}
        assert_iso(th, nuF.module, nuF_o.module)
        assert_iso(big, nm_o.module, nm.module)
        return nuF, nuF_o, th, nm, nm_o, big

    seen = [both(F) for F in mods]
    for F, (nuF, nuF_o, th, *_) in zip(mods, seen):
        assert_lambda(eng, orc, F, nuF, nuF_o, th)
        cov = projective_cover(F)
        P, P_o, th_p, *_ = both(cov.module)
        assert_square(th_p, th, eng.nu_map(P, nuF, cov.epi), orc.nu_map(P_o, nuF_o, cov.epi))
    for (F, a), (G, b) in zip(zip(mods, seen), zip(mods[1:], seen[1:])):
        for phi in hom_basis(F, G)[:2]:
            assert_square(a[2], b[2], eng.nu_map(a[0], b[0], phi), orc.nu_map(a[1], b[1], phi))
            assert_square(a[5], b[5], orc.nu_minus_map(a[4], b[4], phi),
                          eng.nu_minus_map(a[3], b[3], phi))


@pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "Q"])
def test_i_star_nu_matches_kronecker_oracle(field):
    """i^*(nu F) through the production engine and through the oracle: theta,
    fiber by fiber, carries each fiber's nu and each component of one route
    to the other's."""
    T = tensor322(field)
    mods = [module322(T), random_module(T, random.Random(5), max_gens=1)]
    for side in ("left", "right"):
        fact = Factorization(T, side)
        eng, orc = NakayamaEngine(fact.cat, 4), derived_oracle.TensorNakayamaEngine(fact.cat, 4)
        for F in mods:
            got = fact.i_star_nu_components(F, eng)
            want = fact.i_star_nu_components(F, orc)
            fibs = fact.fibers(F)
            nus = {d: eng.nu(fibs[d]) for d in fact.base.objects}
            nus_o = {d: orc.nu(fibs[d]) for d in fact.base.objects}
            for d in fact.base.objects:
                assert_iso({c: theta(eng, nus[d], nus_o[d], c) for c in fact.cat.objects},
                           nus[d].module, nus_o[d].module)
            for c in fact.cat.objects:
                assert_iso({d: theta(eng, nus[d], nus_o[d], c) for d in fact.base.objects},
                           got[c], want[c])


def actions_built(m) -> bool:
    """Whether m's arrow matrices are made, asked without making them."""
    try:
        Module.mats.__get__(m)
    except AttributeError:
        return False
    return True


def record_applied(monkeypatch) -> list:
    """Record (name, F, result) of every nu and nu^- an engine computes."""
    made = []
    for name in ("nu", "nu_minus"):
        method = getattr(NakayamaEngine, name)

        def recording(self, f_mod, method=method, name=name):
            made.append((name, f_mod, method(self, f_mod)))
            return made[-1][2]

        monkeypatch.setattr(NakayamaEngine, name, recording)
    return made


def test_nakayama_reads_build_only_the_actions_lambda_reads(monkeypatch):
    """The reads of `gpquiver nakayama` and of the benchmark's nu_trio: the
    dims of nu(F) and nu^-(F) and whether lambda_unit(F) is an isomorphism.
    nu^-(nu F) is read off nu F's path actions, so the nu(F) that lambda
    makes builds its arrow actions; nu^-(nu F), the other nu(F) and
    nu^-(F) build none."""
    made = record_applied(monkeypatch)
    path = os.path.join(cli.fixtures_dir(), "a2_incl.rep")
    assert cli.main(["nakayama", path, "--out", os.devnull]) == 0
    cat = square(F3)
    eng, F = NakayamaEngine(cat, 8), random_module(cat, random.Random(8))
    lam = eng.lambda_unit(F)
    eng.nu(F).module.dim_vector(), eng.nu_minus(F).module.dim_vector(), lam.is_iso()
    # the report reads nu, nu^-, then lambda; nu_trio reads lambda first
    assert [name for name, *_ in made] == ["nu", "nu_minus"] * 4
    assert made[3][1] is made[2][2].module and made[5][1] is made[4][2].module
    built = [actions_built(applied.module) for *_, applied in made]
    assert built == [False, False, True, False, True, False, False, False]


@pytest.mark.parametrize("build", [cyclic3, ex322, square])
def test_deferred_actions_match_the_oracle_in_any_order(build):
    """nu and nu^- of several modules made first, their arrow actions read
    afterwards, last module first: each carries the oracle's arrows through
    theta and Theta."""
    cat = build(F3)
    rng = random.Random(f"deferred:{build.__name__}")
    mods = [random_module(cat, rng) for _ in range(3)] + [crosscheck.simple(cat, cat.objects[0])]
    eng, orc = NakayamaEngine(cat, 4), derived_oracle.TensorNakayamaEngine(cat, 4)
    applied = [(eng.nu(F), eng.nu_minus(F)) for F in mods]
    assert not any(actions_built(a.module) for pair in applied for a in pair)
    for F, (nuF, nmF) in reversed(list(zip(mods, applied))):
        nuF_o, nmF_o = orc.nu(F), orc.nu_minus(F)
        assert_iso({c: theta(eng, nuF, nuF_o, c) for c in cat.objects}, nuF.module, nuF_o.module)
        assert_iso({c: big_theta(eng, nmF, nmF_o, c) for c in cat.objects},
                   nmF_o.module, nmF.module)


def coefficient_resolutions(monkeypatch) -> dict:
    """Record every coefficient resolution an engine hands out, keyed by
    (category, side, object, cutoff); one object per key means none was
    built twice."""
    seen = {}
    for side in ("res_right", "res_left"):
        method = getattr(NakayamaEngine, side)

        def recording(self, c, method=method, side=side):
            res = method(self, c)
            seen.setdefault((id(self.cat), side, c, self.cutoff), []).append(res)
            return res

        monkeypatch.setattr(NakayamaEngine, side, recording)
    return seen


def built_once(seen: dict) -> bool:
    return all(r is rs[0] for rs in seen.values() for r in rs)


def test_discrepancy_probe_reuses_engines(monkeypatch):
    """Repeated probes resolve no coefficient module again."""
    m = gio.parse_module(os.path.join(cli.fixtures_dir(), "m322.rep"))
    facts = Factorization(m.cat, "right"), Factorization(m.cat, "left")
    seen = coefficient_resolutions(monkeypatch)
    first = discrepancy_probe(m, *facts, 4)
    # ex322 and ex322_op, each a direction and a base, at both sides
    assert len({key[0] for key in seen}) == 2
    for _ in range(2):
        again = discrepancy_probe(m, *facts, 4)
        assert again["discrepancy"] == first["discrepancy"]
    assert built_once(seen)


def count_stages(monkeypatch) -> tuple:
    """Count the stages resolutions build, one projective_cover call each
    (stage i >= 1 covers the syzygy before it), and record the resolutions
    projective_resolution makes, through every module's binding of it."""
    built, made = [], []
    cover, resolve = modules.projective_cover, modules.projective_resolution

    def counting(m):
        built.append(m)
        return cover(m)

    def recording(m, cutoff):
        made.append(resolve(m, cutoff))
        return made[-1]

    monkeypatch.setattr(modules, "projective_cover", counting)
    for module in (modules, nakayama, gorenstein):
        monkeypatch.setattr(module, "projective_resolution", recording)
    return built, made


def test_one_engine_per_category_and_cutoff(monkeypatch):
    """Coefficient data is made once per category: engines of one category
    and cutoff share their resolutions, and engines at every cutoff share one
    stage list per side and object, read up to their cutoff; other parses do
    not."""
    path = os.path.join(cli.fixtures_dir(), "square.cat")
    cat = gio.parse_category(path)
    c = cat.objects[0]
    res = NakayamaEngine(cat, 4).res_right(c)
    assert NakayamaEngine(cat, 4).res_right(c) is res
    assert NakayamaEngine(cat, 4).gorenstein_dimension() is NakayamaEngine(
        cat, 4).gorenstein_dimension()
    other = NakayamaEngine(cat, 8).res_right(c)
    assert other is not res and (res.cutoff, other.cutoff) == (4, 8)
    assert NakayamaEngine(gio.parse_category(path), 4).res_right(c) is not res

    built, _ = count_stages(monkeypatch)
    for order in ((1, 4, 16), (16, 4, 1)):
        cat = gio.parse_category(path)
        del built[:]
        reads = {}
        for cutoff in order:
            eng = NakayamaEngine(cat, cutoff)
            for x in cat.objects:
                for res in (eng.res_right(x), eng.res_left(x)):
                    res.length()
                    reads.setdefault(cutoff, []).append(res.stages)
        # the longest reads hold every stage built, and the others are their starts
        assert len(built) == sum(map(len, reads[16])) > sum(map(len, reads[1]))
        for cutoff in (1, 4):
            for short, long in zip(reads[cutoff], reads[16]):
                assert len(short) == min(len(long), cutoff + 1)
                assert all(a is b for a, b in zip(short, long))
    fresh, shared = NakayamaEngine(gio.parse_category(path), 16).res_right(c), reads[16][0]
    assert fresh.length() == len(shared) - 1 and fresh.stages[0] is not shared[0]


def test_representables_are_made_once(monkeypatch):
    cat = cyclic3(F3)
    assert representable(cat, "c0") is representable(cat, "c0")
    made = []
    build = modules._representable

    def counting(cat, c):
        made.append(c)
        return build(cat, c)

    monkeypatch.setattr(modules, "_representable", counting)
    cat = square(F3)
    rng = random.Random(2)
    for _ in range(4):
        projective_resolution(random_module(cat, rng), 4).length()
    assert made and len(made) == len(set(made)) <= len(cat.objects)


def test_full_route_computes_nu_once(monkeypatch):
    cat = square(F3)
    eng = NakayamaEngine(cat, 8)
    calls = []
    nu = NakayamaEngine.nu

    def counting_nu(self, f_mod):
        calls.append(f_mod)
        return nu(self, f_mod)

    monkeypatch.setattr(NakayamaEngine, "nu", counting_nu)
    v = is_gproj_P(representable(cat, "c1"), eng, force_full=True)
    assert (v.member, v.certificate["route"]) == ("yes", "full")
    assert "lambda_ranks" in v.certificate
    assert len(calls) == 1


def record_compiles(monkeypatch) -> list:
    """Record every map of free modules compiled (_free_map): resolution
    stages in modules, presentations and lifts in nakayama."""
    compiled, compile_map = [], modules._free_map

    def recording(*args):
        compiled.append(compile_map(*args))
        return compiled[-1]

    for module in (modules, nakayama):
        monkeypatch.setattr(module, "_free_map", recording)
    return compiled


def test_maps_of_free_modules_are_compiled_once(monkeypatch):
    """Presentations, lifts and coefficient stages are compiled once per
    category: after warm and a first module, nu, nu^-, lambda and L_1 nu on a
    fresh module compile only stages of its own resolution.  A full-route
    verdict compiles each stage it reads at most once: a stage compiled
    twice would leave its first compilation on no stage."""
    cat = square(F3)
    compiled = record_compiles(monkeypatch)
    _, made = count_stages(monkeypatch)
    # at cutoff 1, L_1 nu at c4 (pdim D C(c4,-) = 2) falls back to resolving F
    eng = NakayamaEngine(cat, 1)
    rng = random.Random(3)
    first, fresh = random_module(cat, rng), random_module(cat, rng)
    eng.gorenstein_dimension()  # warm: every coefficient stage built, none compiled
    assert not compiled

    def read(F):
        return eng.nu(F), eng.nu_minus(F), eng.lambda_unit(F), eng.left_derived_nu_dims(F, 1)

    # the first module's nu and nu^- actions compile the lifts of u_a and w_a
    nuF, nmF, *_ = read(first)
    assert nuF.module.mats and nmF.module.mats
    del compiled[:], made[:]
    read(fresh)
    own = [st.diff for res in made if res.module is fresh for st in res.stages]
    assert compiled and all(any(d is o for o in own) for d in compiled)

    del compiled[:], made[:]
    eng = NakayamaEngine(cat, 8)
    simple = vanishing_at(representable(cat, "c1"), cat.objects[1:])  # pdim 2
    assert is_gproj_P(simple, eng, force_full=True).certificate["route"] == "full"
    stages = [st for res in made for st in res.stages] + [
        st for c in cat.objects for res in (eng.res_right(c), eng.res_left(c))
        for st in res.stages]
    assert compiled and all(any(d is st.diff for st in stages) for d in compiled)


def test_verdict_path_builds_no_free_module(monkeypatch):
    """Resolution stages are known by their generators and syzygies: once
    the coefficient stages are built (gdim, as the benchmark's warm does) and
    a first module has made the presentations' lifts, a fresh module's
    full-route verdict, nu, nu^-, lambda, L_1 nu, base_gp and resolution
    length build no free module."""
    cat = square(F3)
    eng = NakayamaEngine(cat, 8)
    profile = gorenstein.self_injective_dimension(cat, 8)
    rng = random.Random(5)
    first = random_module(cat, rng)
    fresh = [random_module(cat, rng), vanishing_at(representable(cat, "c1"), cat.objects[1:])]
    eng.gorenstein_dimension()

    def read(F):
        assert is_gproj_P(F, eng, force_full=True).certificate["route"] == "full"
        eng.nu(F), eng.nu_minus(F), eng.lambda_unit(F), eng.left_derived_nu_dims(F, 1)
        gorenstein.base_gp(F, profile, 8)
        return projective_resolution(F, 8).length()

    read(first)
    built, free_module = [], modules.free_module
    monkeypatch.setattr(modules, "free_module",
                        lambda cat, objs: built.append(objs) or free_module(cat, objs))
    assert max(map(read, fresh)) == 2
    assert not built
