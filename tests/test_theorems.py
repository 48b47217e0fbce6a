"""Oracles from theorems, not from a second implementation.

Kunneth for the coefficient resolutions: over T = C1 (x) C2, D T(c|d,-) is
D C1(c,-) (x) D C2(d,-), and the tensor product of minimal projective
resolutions over the field is a minimal projective resolution, so the
projective dimensions of the coefficient modules add on both sides.

Finite global dimension: there every Gorenstein projective is projective
(Enochs-Jenda, Relative Homological Algebra, 2000), and over the field
P-projective means projective, so the two verdicts coincide.

Syzygies: over an Iwanaga-Gorenstein category of dimension g, the g-th
syzygy of every module is Gorenstein projective (Enochs-Jenda).

Sums: the Gorenstein projectives are closed under direct sums and summands,
and each part of the criterion (L_i nu, R^i nu^- nu and the unit lambda) is
additive, so the verdict on F (+) G is the meet of those on F and G."""

import os
import random

import pytest

import crosscheck
from gpquiver import cli
from gpquiver import io as gio
from gpquiver.category import tensor_category, tensor_name
from gpquiver.gorenstein import is_gproj_P, is_p_projective
from gpquiver.modules import block_sum, kernel, projective_resolution
from gpquiver.nakayama import NakayamaEngine
from test_modules import random_module

PAIRS = [("ka2", "loop_x2"), ("loop_x2", "ka2"), ("ka2", "ka2"), ("ex322", "ka2"),
         ("chain2", "cyclic3"), ("square", "ka2")]


def fixture_category(name):
    return gio.parse_category(os.path.join(cli.fixtures_dir(), f"{name}.cat"),
                              field_override="F3")


def added(p, q, cutoff):
    """pdim of a tensor of coefficient modules from the factors' pdims: None
    where either is unsettled or the sum passes the cutoff."""
    return None if p is None or q is None or p + q > cutoff else p + q


# at 6 every sum settles (0 to 3, and None from ex322); at 2 square (x) ka2
# has sums of 3, past the cutoff
@pytest.mark.parametrize("cutoff", [6, 2])
@pytest.mark.parametrize("left, right", PAIRS, ids=["(x)".join(p) for p in PAIRS])
def test_coefficient_pdims_add_over_tensor_categories(left, right, cutoff):
    C1, C2 = fixture_category(left), fixture_category(right)
    g1, g2, g = (NakayamaEngine(cat, cutoff).gorenstein_dimension()
                 for cat in (C1, C2, tensor_category(C1, C2)))
    for side in ("left_pdims", "right_pdims"):
        want = {tensor_name(c, d): added(getattr(g1, side)[c], getattr(g2, side)[d], cutoff)
                for c in C1.objects for d in C2.objects}
        assert getattr(g, side) == want


# ka3 and the square have global dimension 1 and 2, ka2 (x) ka2 (built by
# completion of its tensor presentation) 2
FINITE_GLOBAL_DIMENSION = [("ka3",), ("square",), ("ka2", "ka2")]


@pytest.mark.parametrize("factors", FINITE_GLOBAL_DIMENSION,
                         ids=["(x)".join(f) for f in FINITE_GLOBAL_DIMENSION])
def test_gorenstein_p_projective_is_projective_under_finite_global_dimension(factors):
    cats = [fixture_category(name) for name in factors]
    cat = cats[0] if len(cats) == 1 else tensor_category(*cats)
    eng = NakayamaEngine(cat, 6)
    rng = random.Random(31)
    modules = [random_module(cat, rng) for _ in range(25)]
    modules += [crosscheck.simple(cat, c) for c in cat.objects]
    verdicts = [(is_gproj_P(F, eng).member, is_p_projective(F, eng).member) for F in modules]
    assert all(gp == proj for gp, proj in verdicts), verdicts
    assert {proj for _, proj in verdicts} == {"yes", "no"}


def syzygy(F, n, cutoff):
    """Omega^n F: F for n = 0, else the kernel of d_{n-1}: P_{n-1} -> P_{n-2}
    (of the cover P_0 -> F for n = 1), read off the stages of F's resolution."""
    if n == 0:
        return F
    res = projective_resolution(F, cutoff)
    return kernel(res.stages[0].epi if n == 1 and res.reaches(0) else res.diff(n - 1))[0]


# the square has Gorenstein dimension 2, ka3 dimension 1
@pytest.mark.parametrize("name, g", [("square", 2), ("ka3", 1)])
def test_the_g_th_syzygy_is_gorenstein_p_projective(name, g):
    cat = fixture_category(name)
    eng = NakayamaEngine(cat, 6)
    assert eng.gorenstein_dimension().value == g
    rng = random.Random(41)
    modules = [random_module(cat, rng) for _ in range(6)]
    modules += [crosscheck.simple(cat, c) for c in cat.objects]
    omegas = [syzygy(F, g, 6) for F in modules]
    assert not all(om.is_zero() for om in omegas)
    assert all(is_gproj_P(om, eng).member == "yes" for om in omegas)
    # one syzygy short, some module is not
    assert any(is_gproj_P(syzygy(F, g - 1, 6), eng).member == "no" for F in modules)


def meet(*members) -> str:
    if "no" in members:
        return "no"
    return "yes" if set(members) == {"yes"} else "inconclusive"


# cyclic3 is self-injective, and its modules of infinite projective
# dimension repeat a stage before cutoff 8; there the full route is
# inconclusive, the shortcut yes
@pytest.mark.parametrize("name", ["square", "chain3", "cyclic3"])
def test_the_verdict_on_a_sum_is_the_meet_of_the_verdicts(name):
    cat = fixture_category(name)
    eng = NakayamaEngine(cat, 8)
    rng = random.Random(43)
    modules = [random_module(cat, rng) for _ in range(5)]
    modules += [crosscheck.simple(cat, c) for c in cat.objects]
    seen = set()
    for full in (False, True):
        members = [is_gproj_P(F, eng, force_full=full).member for F in modules]
        seen.update(members)
        for (F, a), (G, b) in zip(zip(modules, members), zip(modules[1:], members[1:])):
            assert is_gproj_P(block_sum(cat, [F, G]), eng, force_full=full).member == meet(a, b)
    assert len(seen) >= 2
