"""What is made once per category: coefficient data and representables,
nu(F) once per full-route verdict; and nu read off hom bases against the
tensor route, matrix for matrix."""

import os
import random

import pytest

import crosscheck
import derived_oracle
from conftest import cyclic3, ex322, loop_sq, square, tensor322, module322
from gpquiver import cli, modules
from gpquiver import io as gio
from gpquiver.basechange import Factorization
from gpquiver.gorenstein import discrepancy_probe, is_gproj_P
from gpquiver.linalg import GF, QQ
from gpquiver.modules import (
    hom_basis,
    projective_cover,
    projective_resolution,
    representable,
    zero_module,
)
from gpquiver.nakayama import NakayamaEngine
from test_modules import random_module

F3 = GF(3)


def _mats(m):
    return {a: repr(x) for a, x in m.mats.items()}


def _nu_reprs(eng, mods):
    """repr of nu on each module, of nu on its cover and on hom basis maps, and
    of the unit lambda."""
    out = []
    nus = [eng.nu(F) for F in mods]
    for F, nuF in zip(mods, nus):
        out.append(_mats(nuF.module))
        cov = projective_cover(F)
        out.append(_mats(eng.nu_map(eng.nu(cov.module), nuF, cov.epi)))
        out.append(_mats(eng.lambda_unit(F, nuF)))
    for (F, nuF), (G, nuG) in zip(zip(mods, nus), zip(mods[1:], nus[1:])):
        out += [_mats(eng.nu_map(nuF, nuG, phi)) for phi in hom_basis(F, G)[:2]]
    return out


@pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "Q"])
@pytest.mark.parametrize("build", [loop_sq, ex322, cyclic3, square])
def test_tensor_induced_matches_kronecker_oracle(build, field):
    """Production nu, nu_map and lambda, read off hom bases, against the
    tensor route of derived_oracle, whose tensor_induced is the Kronecker
    form: the same matrices, entry for entry."""
    cat = build(field)
    rng = random.Random(f"{build.__name__}:{field!r}")
    # zero-dimensional blocks: the zero module, a simple, and the random
    # modules' zero objects
    mods = [random_module(cat, rng) for _ in range(3)]
    mods += [zero_module(cat), crosscheck.simple(cat, cat.objects[-1])]
    got = _nu_reprs(NakayamaEngine(cat, 4), mods)
    assert _nu_reprs(derived_oracle.TensorNakayamaEngine(cat, 4), mods) == got


@pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "Q"])
def test_nu_based_matches_kronecker_oracle(field):
    T = tensor322(field)
    mods = [module322(T), random_module(T, random.Random(5), max_gens=1)]
    for side in ("left", "right"):
        fact = Factorization(T, side)
        for F in mods:
            got = fact.nu_based(F, NakayamaEngine(fact.cat, 4))[0]
            want = fact.nu_based(F, derived_oracle.TensorNakayamaEngine(fact.cat, 4))[0]
            assert _mats(got) == _mats(want)


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


def test_one_engine_per_category_and_cutoff():
    """Coefficient data is made once per (category, cutoff): engines of one
    category and cutoff share it, other cutoffs and other parses do not."""
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
        projective_resolution(random_module(cat, rng), 4)
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
