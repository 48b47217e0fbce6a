"""Membership verdicts, base profiles, and exhaustive enumeration."""

import json
import os
import random

import pytest

from conftest import (
    F2,
    F5,
    chain,
    cyclic3,
    ex322,
    ka2,
    ka3,
    loop_sq,
    module322,
    square,
    tensor322,
    trivial,
)
import crosscheck
from gpquiver.basechange import Factorization
from gpquiver.category import Quiver, build_category
from gpquiver.gorenstein import (
    BaseGorensteinProfile,
    Verdict,
    base_gp,
    declared_profile,
    discrepancy_probe,
    enumerate_representations,
    is_gp_functor,
    is_gproj_P,
    is_monic,
    is_p_projective,
    lifted_class_membership,
    self_injective_dimension,
    splitting_section,
)
from gpquiver.linalg import GF, QQ, Matrix
from gpquiver.modules import (Module, ModuleError, basis_cover, kernel, projective_cover,
                              representable)
from gpquiver.nakayama import NakayamaEngine
from test_modules import random_module


def a2_rep(field, d1, d2, rows):
    C = ka2(field)
    return Module(C, {"1": d1, "2": d2},
                  {"a": Matrix(field, [[field.of(x) for x in r] for r in rows], d2, d1)})


def test_verdict_rejects_bad_member():
    with pytest.raises(ValueError):
        Verdict("maybe")


def test_self_injective_dimension_table():
    assert self_injective_dimension(trivial(), 8).g == 0
    assert self_injective_dimension(loop_sq(), 8).g == 0
    assert self_injective_dimension(ka2(), 8).g == 1
    prof = self_injective_dimension(ex322(), 8)
    assert prof.g is None
    assert prof.status == "unknown"


def test_gproj_p_a2_monomorphism_criterion():
    eng = NakayamaEngine(ka2(), 8)
    yes = is_gproj_P(a2_rep(QQ, 1, 1, [[1]]), eng)
    no = is_gproj_P(a2_rep(QQ, 1, 1, [[0]]), eng)
    assert yes.member == "yes"
    assert yes.hypotheses["P_iwanaga_gorenstein"] == 1
    assert no.member == "no"
    assert no.certificate["failure"]["functor"] == "L_nu"


def test_gproj_p_shortcut_and_full_agree_on_a2():
    eng = NakayamaEngine(ka2(), 8)
    for rows, expect in (([[1]], "yes"), ([[0]], "no")):
        m = a2_rep(QQ, 1, 1, rows)
        assert is_gproj_P(m, eng).member == expect
        full = is_gproj_P(m, eng, force_full=True)
        assert full.member == expect
        assert full.certificate["route"] == "full"


def test_gproj_p_shriek_members():
    C = square(QQ, 6)
    eng = NakayamaEngine(C, 8)
    shr = crosscheck.i_shriek(eng, {"c1": 1, "c3": 2}).module
    assert is_gproj_P(shr, eng).member == "yes"


def test_monic_basic_and_witness():
    yes = is_monic(a2_rep(QQ, 1, 1, [[1]]))
    assert yes.member == "yes"
    no = is_monic(a2_rep(QQ, 1, 2, [[0], [0]]))
    assert no.member == "no"
    assert no.certificate["object"] == "2"
    assert no.certificate["kernel_dim"] == 1
    assert list(no.certificate["witness"]) == ["a"]


def test_monic_two_arrows_into_one_vertex():
    q = Quiver(("1", "2", "3"), (("a", "1", "3"), ("b", "2", "3")))
    C = build_category(q, (), QQ, 4)
    m = Module(C, {"1": 1, "2": 1, "3": 1},
               {"a": Matrix(QQ, [[QQ.one()]], 1, 1),
                "b": Matrix(QQ, [[QQ.one()]], 1, 1)})
    v = is_monic(m)
    assert v.member == "no"
    assert v.certificate["object"] == "3"


def test_monic_requires_relation_free():
    C = loop_sq()
    m = crosscheck.simple(C, "1")
    with pytest.raises(ModuleError):
        is_monic(m)


def test_monic_matches_gproj_p_on_small_a3_enumeration():
    C = ka3(F2)
    eng = NakayamaEngine(C, 8)
    for m in enumerate_representations(C, 1):
        assert is_monic(m).member == is_gproj_P(m, eng).member


def test_base_gp_projective_and_semisimple():
    prof = self_injective_dimension(loop_sq(), 8)
    C = loop_sq()
    m = crosscheck.simple(C, "1")  # k with the loop acting by zero
    v = base_gp(m, prof, 8)
    assert v.member == "yes"  # self-injective base: everything passes
    prof2 = self_injective_dimension(ka2(), 8)
    assert base_gp(representable(ka2(), "1"), prof2, 8).member == "yes"
    assert base_gp(crosscheck.simple(ka2(), "1"), prof2, 8).member == "no"


def test_base_gp_simple_at_loop_vertex_is_not_gp():
    lam1 = ex322()
    prof = self_injective_dimension(lam1, 8)
    v = base_gp(crosscheck.simple(lam1, "2"), prof, 8)
    assert v.member == "no"
    assert "failure" in v.certificate
    assert v.hypotheses["profile_status"] == "unknown"


def test_base_gp_injective_indecomposable_is_not_gp():
    # the dual of a projective over the opposite algebra: injective but not
    # projective, and of finite projective dimension, so definitely not GP
    from gpquiver.modules import dual

    lam1 = ex322()
    prof = self_injective_dimension(lam1, 8)
    i2 = dual(representable(lam1.opposite(), "2"))
    v = base_gp(i2, prof, 8)
    assert v.member == "no"


_BASE_GP_CASES = [
    # (base, module, declared g or None for an unknown profile, cutoff, verdict, certificate)
    (loop_sq, "1", 2, 8, "yes", {"ext_dims": {1: {"1": 0}, 2: {"1": 0}}}),
    (ka2, "1", 1, 8, "no", {"ext_dims": {1: {"1": 0, "2": 1}},
                            "failure": {"degree": 1, "object": "2", "dim": 1}}),
    (loop_sq, "1", 2, 1, "inconclusive", {"ext_dims": {1: {"1": None}, 2: {"1": None}},
                                          "blocking_cutoff": 1}),
    (ka2, "1", None, 8, "no", {"reason": "finite-nonzero-projective-dimension", "pdim": 1}),
    (ex322, "2", None, 8, "no", {"ext_dims": {1: {"1": 1}},
                                 "failure": {"degree": 1, "object": "1", "dim": 1}}),
    (loop_sq, "1", None, 4, "inconclusive", {
        "ext_dims": {1: {"1": 0}, 2: {"1": 0}, 3: {"1": 0}}, "blocking_cutoff": 4,
        "note": "Ext vanishing verified only below the cutoff"}),
]


@pytest.mark.parametrize("make, obj, g, cutoff, member, cert", _BASE_GP_CASES)
def test_base_gp_certificates_are_pinned(make, obj, g, cutoff, member, cert):
    base = make()
    profile = (BaseGorensteinProfile(base, None, "unknown") if g is None
               else declared_profile(base, g))
    v = base_gp(crosscheck.simple(base, obj), profile, cutoff)
    assert v.member == member
    assert json.dumps(v.certificate) == json.dumps(cert)


# Verdict certificates and hypotheses recorded as `json.dumps` output (so
# key order counts) before the vanishing scans and the X-side/F-side merges
# shared their helpers. Each case: (category, field, cutoff, max_gens,
# seed) of a random cokernel module, or "m322", and the call made on it.
PINNED_VERDICTS = os.path.join(os.path.dirname(__file__), "pinned_verdicts.json")

_VERDICT_CASES = {
    "gproj_shortcut_yes": ((square, 3, 8, 2, 0), "gproj", {}),
    "gproj_shortcut_no": ((square, 3, 8, 2, 3), "gproj", {}),
    "gproj_full_yes": ((square, 3, 8, 2, 0), "gproj", {"force_full": True}),
    "gproj_full_no_l_nu": ((square, 3, 8, 2, 3), "gproj", {"force_full": True}),
    "gproj_full_no_r_nu_minus": ((ex322, 3, 2, 1, 142), "gproj", {"force_full": True}),
    "gproj_full_no_lambda": ((lambda f, n: chain(3, f, n), 5, 2, 1, 21), "gproj",
                             {"force_full": True}),
    "gproj_full_inconclusive": ((cyclic3, 5, 2, 2, 0), "gproj", {"force_full": True}),
    "gp_field_yes": ((square, 3, 8, 2, 0), "gp", {}),
    "gp_field_inconclusive": ((cyclic3, 5, 2, 2, 0), "gp", {"force_full": True}),
    "lifted_field_gproj_gp_no": ((square, 3, 8, 2, 3), "lifted", {"x": "gproj_P", "f": "gp"}),
    "lifted_field_gproj_proj": ((cyclic3, 5, 2, 2, 0), "lifted",
                                {"x": "gproj_P", "f": "proj"}),
    "gp_m322_right": ("m322", "gp", {"side": "right"}),
    "gp_m322_left": ("m322", "gp", {"side": "left"}),
    "gp_m322_left_declared": ("m322", "gp", {"side": "left", "g": 1}),
    "lifted_m322_right_gproj_gp": ("m322", "lifted", {"side": "right", "x": "gproj_P", "f": "gp"}),
    "lifted_m322_left_gproj_gp": ("m322", "lifted",
                                  {"side": "left", "x": "gproj_P", "f": "gp", "g": 1}),
    "lifted_m322_right_pproj_proj": ("m322", "lifted",
                                     {"side": "right", "x": "P_proj", "f": "proj"}),
    "lifted_m322_left_pproj_proj": ("m322", "lifted", {"side": "left", "x": "P_proj", "f": "proj"}),
}


def pinned_case_verdict(name):
    source, call, opts = _VERDICT_CASES[name]
    fact = profile = None
    if source == "m322":
        T = tensor322()
        F = module322(T)
        fact = Factorization(T, opts["side"])
        eng = NakayamaEngine(fact.cat, 4)
        if "g" in opts:
            profile = declared_profile(fact.base, opts["g"])
    else:
        make, p, cutoff, max_gens, seed = source
        C = make(GF(p), cutoff)
        F = random_module(C, random.Random(seed), max_gens)
        eng = NakayamaEngine(C, cutoff)
    if call == "gproj":
        return is_gproj_P(F, eng, force_full=opts.get("force_full", False))
    if call == "gp":
        return is_gp_functor(F, eng, profile, fact, force_full=opts.get("force_full", False))
    return lifted_class_membership(F, opts["x"], opts["f"], eng, profile, fact)


@pytest.mark.parametrize("name", sorted(_VERDICT_CASES))
def test_verdict_certificates_are_pinned(name):
    with open(PINNED_VERDICTS, encoding="utf-8") as fh:
        pinned = json.load(fh)[name]
    v = pinned_case_verdict(name)
    assert v.member == pinned["member"]
    assert json.dumps(v.certificate) == json.dumps(pinned["certificate"])
    assert json.dumps(v.hypotheses) == json.dumps(pinned["hypotheses"])


def test_p_projective_counit_split():
    C = ka2()
    eng = NakayamaEngine(C, 8)
    s1 = crosscheck.simple(C, "1")
    no = is_p_projective(s1, eng)
    assert no.member == "no"
    assert no.certificate == {"reason": "cover-kernel", "kernel_dims": {"1": 0, "2": 1}}
    assert splitting_section(basis_cover(s1).epi) is None
    yes = is_p_projective(representable(C, "1"), eng)
    assert yes.member == "yes"
    assert yes.certificate == {"reason": "projective", "cover_summands": ["1"]}


@pytest.mark.parametrize("make, bound, count, members", [
    (ka3, 2, 499, 71),
    (square, 1, 39, 5),
    (lambda f: chain(2, f), 2, 207, 46),
    (loop_sq, 2, 6, 4),
], ids=["ka3", "square", "chain2", "loop_x2"])
def test_p_projective_matches_counit_splitting(make, bound, count, members):
    # the unbased verdict reads the projective cover; the counit splitting
    # P(F) -> F is the independent route
    C = make(F2)
    eng = NakayamaEngine(C, 8)
    seen = yes = 0
    for m in enumerate_representations(C, bound):
        split = splitting_section(basis_cover(m).epi) is not None
        assert (is_p_projective(m, eng).member == "yes") == split
        seen += 1
        yes += split
    assert (seen, yes) == (count, members)


def test_gp_functor_base_field_reduces_to_gproj_p():
    eng = NakayamaEngine(ka2(), 8)
    assert is_gp_functor(a2_rep(QQ, 1, 1, [[1]]), eng).member == "yes"
    v = is_gp_functor(crosscheck.simple(ka2(), "1"), eng)
    assert v.member == "no"
    assert v.certificate["f_side"]["base"] == "field"
    assert v.hypotheses["interpretation"] == "P-Iwanaga-Gorenstein"


def test_gp_functor_module322_under_both_factorizations():
    T = tensor322()
    M = module322(T)
    f2 = Factorization(T, "right")
    eng2 = NakayamaEngine(f2.cat, 8)
    prof2 = self_injective_dimension(f2.base, 8)
    v2 = is_gp_functor(M, eng2, prof2, f2)
    assert v2.member == "yes"
    f1 = Factorization(T, "left")
    eng1 = NakayamaEngine(f1.cat, 8)
    prof1 = self_injective_dimension(f1.base, 8)
    v1 = is_gp_functor(M, eng1, prof1, f1)
    assert v1.member == "no"
    assert v1.hypotheses["interpretation"] == "membership in GP(GProj_P) only"


def test_lifted_class_membership_reduces_and_examples():
    eng = NakayamaEngine(ka2(), 8)
    m = a2_rep(QQ, 1, 2, [[1], [0]])
    both = lifted_class_membership(m, "gproj_P", "gp", eng)
    assert both.member == is_gp_functor(m, eng).member == "yes"
    proj_side = lifted_class_membership(m, "gproj_P", "proj", eng)
    assert proj_side.member == "yes"
    p1 = representable(ka2(), "1")
    assert lifted_class_membership(p1, "P_proj", "proj", eng).member == "yes"
    s1 = crosscheck.simple(ka2(), "1")
    assert lifted_class_membership(s1, "P_proj", "gp", eng).member == "no"
    with pytest.raises(ModuleError):
        lifted_class_membership(m, "nonsense", "gp", eng)


def test_gp_resolution_dimension_examples():
    C = ka2()
    eng = NakayamaEngine(C, 8)
    assert crosscheck.gp_resolution_dimension(a2_rep(QQ, 1, 1, [[1]]), eng)[0] == 0
    assert crosscheck.gp_resolution_dimension(crosscheck.simple(C, "1"), eng)[0] == 1


def test_gp_resolution_dimension_square_bound():
    C = square(F5, 6)
    eng = NakayamaEngine(C, 8)
    m = crosscheck.simple(C, "c1")
    val, _ = crosscheck.gp_resolution_dimension(m, eng)
    assert val is not None and val <= 2


def test_gp_resolution_dimension_takes_syzygies_from_the_cover(monkeypatch):
    """Each stage's syzygy is the kernel basis its cover already holds: one
    kernel_basis call per object and stage, and the kernel module of the cover."""
    C = square(GF(3))
    F = random_module(C, random.Random(7))
    stages = []
    monkeypatch.setattr(crosscheck, "is_gp_functor",
                        lambda m, *args: stages.append(m) or Verdict("no"))
    calls = []
    kernel_basis = Matrix.kernel_basis
    monkeypatch.setattr(Matrix, "kernel_basis", lambda m: calls.append(m) or kernel_basis(m))
    val, verdicts = crosscheck.gp_resolution_dimension(F, NakayamaEngine(C, 3))
    assert (val, verdicts, len(calls)) == (None, ["no"] * 4, 4 * len(C.objects))
    monkeypatch.undo()
    for m, syzygy in zip(stages, stages[1:]):
        assert syzygy == kernel(projective_cover(m).epi)[0]


def test_discrepancy_probe_on_module322():
    T = tensor322()
    M = module322(T)
    out = discrepancy_probe(M, Factorization(T, "right"), Factorization(T, "left"),
                            cutoff=8)
    assert out["first"]["verdict"].member == "yes"
    assert out["second"]["verdict"].member == "no"
    assert out["discrepancy"] is True
    table = out["second"]["restriction_exactness"]
    loop_row = next(r for r in table if r["first"] == "be" and r["second"] == "be")
    assert loop_row["image_rank"] == 1
    assert loop_row["kernel_dim"] == 2
    assert loop_row["exact"] is False


def test_discrepancy_probe_projective_agrees():
    T = tensor322()
    fr = Factorization(T, "right")
    p = representable(T, "2|2")
    out = discrepancy_probe(p, fr, Factorization(T, "left"), cutoff=8)
    assert out["first"]["verdict"].member == "yes"
    assert out["second"]["verdict"].member == "yes"
    assert out["discrepancy"] is False


def test_enumerate_a2_f2_count_and_order():
    C = ka2(F2)
    reps = list(enumerate_representations(C, 1))
    assert len(reps) == 5
    dimvecs = [tuple(m.dims[c] for c in C.objects) for m in reps]
    assert dimvecs == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]


def test_enumerate_zero_bound_gives_zero_rep():
    C = ka2(F2)
    reps = list(enumerate_representations(C, 0))
    assert len(reps) == 1
    assert reps[0].is_zero()


def test_enumerate_loop_square_zero_dim2():
    C = loop_sq(F2)
    reps = [m for m in enumerate_representations(C, 2) if m.dims["1"] == 2]
    # 2x2 square-zero matrices over F_2: the zero matrix plus the three
    # nonzero nilpotents
    assert len(reps) == 4


def test_enumerate_requires_finite_field_and_limit():
    with pytest.raises(ModuleError):
        list(enumerate_representations(ka2(QQ), 1))
    with pytest.raises(ModuleError):
        list(enumerate_representations(ka2(F5), 4, limit=10))


def test_enumerated_verdicts_match_monic_on_a2():
    C = ka2(F2)
    eng = NakayamaEngine(C, 8)
    for m in enumerate_representations(C, 1):
        assert is_gp_functor(m, eng).member == is_monic(m).member
