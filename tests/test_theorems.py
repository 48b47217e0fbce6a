"""Oracles from theorems, not from a second implementation.

Kunneth for the coefficient resolutions: over T = C1 (x) C2, D T(c|d,-) is
D C1(c,-) (x) D C2(d,-), and the tensor product of minimal projective
resolutions over the field is a minimal projective resolution, so the
projective dimensions of the coefficient modules add on both sides.

Finite global dimension: there every Gorenstein projective is projective
(Enochs-Jenda, Relative Homological Algebra, 2000), and over the field
P-projective means projective, so the two verdicts coincide."""

import os
import random

import pytest

import crosscheck
from gpquiver import cli
from gpquiver import io as gio
from gpquiver.category import tensor_category, tensor_name
from gpquiver.gorenstein import is_gproj_P, is_p_projective
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
