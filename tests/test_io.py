import json
import os

import pytest

import crosscheck
from gpquiver import io as gio
from gpquiver.basechange import Factorization
from gpquiver.gorenstein import is_gp_functor, self_injective_dimension
from gpquiver.linalg import PrimeField, QQ
from gpquiver.nakayama import NakayamaEngine

FIXTURES = os.path.join(os.path.dirname(gio.__file__), "fixtures")


def fix(name):
    return os.path.join(FIXTURES, name)


CAT_FILES = ["ka2.cat", "ka3.cat", "loop_x2.cat", "square.cat", "chain2.cat",
             "chain3.cat", "cyclic3.cat", "ex322.cat", "ex322_op.cat",
             "ex322_tensor.cat"]
REP_FILES = ["m322.rep", "a2_mono.rep", "a2_zero.rep", "a2_incl.rep"]


@pytest.mark.parametrize("name", CAT_FILES)
def test_every_category_fixture_parses(name):
    cat = gio.parse_category(fix(name))
    assert cat.objects
    assert cat.total_dim() >= len(cat.objects)


@pytest.mark.parametrize("name", REP_FILES)
def test_every_representation_fixture_parses(name):
    m = gio.parse_module(fix(name))
    assert set(m.dims) == set(m.cat.objects)


@pytest.mark.parametrize("name",
                         [n for n in CAT_FILES if n != "ex322_tensor.cat"])
def test_category_round_trip(name, tmp_path):
    cat = gio.parse_category(fix(name))
    text = crosscheck.serialize_category(cat)
    p = tmp_path / "rt.cat"
    p.write_text(text)
    cat2 = gio.parse_category(str(p))
    assert cat2.objects == cat.objects
    assert cat2.arrow_map == cat.arrow_map
    assert cat2.total_dim() == cat.total_dim()
    assert crosscheck.serialize_category(cat2) == text


@pytest.mark.parametrize("name", ["a2_mono.rep", "a2_zero.rep", "a2_incl.rep"])
def test_module_round_trip(name, tmp_path):
    m = gio.parse_module(fix(name))
    text = crosscheck.serialize_module(m, "ka2.cat", "rt")
    p = tmp_path / "rt.rep"
    p.write_text(text)
    (tmp_path / "ka2.cat").write_text(open(fix("ka2.cat")).read())
    m2 = gio.parse_module(str(p))
    assert m2.dims == m.dims
    for a in m.cat.arrow_map:
        assert m2.mats[a].rows == m.mats[a].rows
    assert crosscheck.serialize_module(m2, "ka2.cat", "rt") == text


def test_tensor_fixture_supports_both_factorizations():
    t = gio.parse_category(fix("ex322_tensor.cat"))
    left, right = (gio.parse_category(fix(n)) for n in ("ex322.cat", "ex322_op.cat"))
    assert t.factors == (left, right)
    for side, cat, base in (("left", left, right), ("right", right, left)):
        fact = Factorization(t, side)
        assert (fact.cat, fact.base) == (cat, base)
        assert set(fact.cat.objects) == {"1", "2"}


def test_bundled_module_reproduces_membership_discrepancy():
    m = gio.parse_module(fix("m322.rep"))
    assert m.dims == {"1|1": 0, "1|2": 0, "2|1": 1, "2|2": 2}
    verdicts = {}
    for side in ("right", "left"):
        fact = Factorization(m.cat, side)
        engine = NakayamaEngine(fact.cat, 16)
        profile = self_injective_dimension(fact.base, 16)
        verdicts[side] = is_gp_functor(m, engine, profile, fact).member
    assert verdicts == {"right": "yes", "left": "no"}


def test_parse_error_cites_file_and_line(tmp_path):
    p = tmp_path / "bad.cat"
    p.write_text("[category]\nobjects = 1, 2\narrow = a 1 -> 2\n")
    with pytest.raises(gio.ParseError) as excinfo:
        gio.parse_category(str(p))
    assert "bad.cat:3" in str(excinfo.value)


def test_parse_error_on_bad_scalar(tmp_path):
    (tmp_path / "c.cat").write_text(
        "[category]\nobjects = 1, 2\narrow = a: 1 -> 2\nfield = Q\n")
    p = tmp_path / "bad.rep"
    p.write_text("[representation]\ncategory = c.cat\ndim 1 = 1\ndim 2 = 1\n"
                 "mat a = 1/0\n")
    with pytest.raises(gio.ParseError) as excinfo:
        gio.parse_module(str(p))
    assert "bad.rep:5" in str(excinfo.value)


def test_scalar_grammar():
    q = gio.parse_scalar(QQ, "-3/4")
    assert q == QQ.neg(QQ.mul(QQ.of(3), QQ.inv(QQ.of(4))))
    f5 = PrimeField(5)
    assert gio.parse_scalar(f5, "7") == f5.of(7)
    for bad in ["1/0", "1/-2", "a", "1.5", ""]:
        with pytest.raises(gio.ParseError):
            gio.parse_scalar(QQ, bad)


def test_path_notation_is_right_to_left():
    assert gio.parse_path_expr("b*a") == ("a", "b")
    assert gio.format_path(("a", "b")) == "b*a"


def test_field_and_cutoff_overrides():
    cat = gio.parse_category(fix("ka2.cat"), cutoff_override=5,
                             field_override="F7")
    assert isinstance(cat.field, PrimeField) and cat.field.p == 7
    assert cat.length_cutoff == 5


@pytest.mark.parametrize("parse", [gio.parse_category, gio.parse_module])
@pytest.mark.parametrize("bad", ["F4", "R"])
def test_bad_field_override_names_the_override(parse, bad, tmp_path):
    # checked before any file is read: a missing file is never opened
    for path in (fix("ka2.cat") if parse is gio.parse_category else fix("a2_mono.rep"),
                 tmp_path / "missing"):
        with pytest.raises(ValueError, match=f"^bad field override '{bad}': ") as info:
            parse(path, field_override=bad)
        assert not isinstance(info.value, gio.ParseError) and ".cat" not in str(info.value)


def test_report_is_deterministic(tmp_path):
    payload = {"b": 2, "a": {"z": [3, 1]}}
    r1 = gio.build_report("demo", [fix("ka2.cat")], payload, cutoff=16, field=None)
    r2 = gio.build_report("demo", [fix("ka2.cat")], payload, cutoff=16, field=None)
    assert gio.dumps_report(r1) == gio.dumps_report(r2)
    parsed = json.loads(gio.dumps_report(r1))
    assert parsed["schema"] == gio.REPORT_SCHEMA
    assert parsed["inputs"]["ka2.cat"] == gio.file_digest(fix("ka2.cat"))
