"""Scalars over QQ stay in canonical form: an integral value is an int, a
Fraction has denominator > 1, and no float appears.  Every kernel inherits
the form from the field methods, so it is checked on what each layer
returns; and no `/` in the package can make a float."""

import ast
import os
import pathlib
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gpquiver.cli
from crosscheck import right_inverse, serialize_category, serialize_module
from dense_builder import paths_by_pair
from gpquiver import io as gio
from gpquiver.category import build_category
from gpquiver.linalg import QQ, Matrix
from gpquiver.modules import Module, hom_basis, projective_resolution
from gpquiver.nakayama import NakayamaEngine
from test_modules import random_module
from test_properties import bound_quivers

SOURCES = sorted(pathlib.Path(gpquiver.cli.__file__).parent.glob("*.py"))


def is_canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def assert_canonical(where, values):
    bad = [x for x in values if not is_canonical(x)]
    assert not bad, f"{where}: {bad[:3]!r}"


def entries(*mats):
    return [x for m in mats for row in m.data for x in row]


def module_entries(m):
    return entries(*m.mats.values())


def map_entries(f):
    return entries(*f.mats.values())


def test_field_methods_return_canonical_scalars():
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(Fraction(-1, 3))) is int and QQ.inv(Fraction(-1, 3)) == -3
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2) and QQ.inv(-4) == Fraction(-1, 4)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    assert type(QQ.parse("22/11")) is int and QQ.parse("22/11") == 2
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.sub(Fraction(1, 2), Fraction(-1, 2))) is int
    assert type(QQ.mul(Fraction(2, 3), 3)) is int
    assert type(QQ.of(True)) is int and type(QQ.of(Fraction(4, 2))) is int
    assert_canonical("constants", [QQ.zero(), QQ.one(), QQ.neg(QQ.one()), QQ.of(-7)])
    assert_canonical("fractions", [QQ.parse("-1/3"), QQ.of(Fraction(6, 4)), QQ.inv(3)])


def test_non_canonical_input_gives_equal_canonical_results():
    odd = Matrix(QQ, [[Fraction(2, 1), True], [Fraction(4, 2), 1]])
    plain = Matrix(QQ, [[2, 1], [2, 1]])
    assert odd.rref() == plain.rref()
    assert_canonical("rref", entries(odd.rref()[0], odd.kernel_basis()[1], odd @ odd))


def rational_change(m, rng):
    """m with the basis at each object changed by a diagonal of small
    fractions times an elementary matrix, so its entries are fractional;
    the relations still hold."""
    f = m.cat.field
    T, T_inv = {}, {}
    for c, d in m.dims.items():
        t = Matrix(f, [[f.of(Fraction(rng.choice((-3, -1, 1, 2)), rng.randrange(1, 6)))
                        if i == j else 0 for j in range(d)] for i in range(d)], d, d)
        if d > 1:
            e = Matrix.identity(f, d).data
            i, j = rng.sample(range(d), 2)
            e[i][j] = f.of(Fraction(rng.randrange(1, 5), 3))
            t = t @ Matrix(f, e, d, d)
        T[c], T_inv[c] = t, right_inverse(t)
    mats = {a: T[t] @ m.mats[a] @ T_inv[s] for a, (s, t) in m.cat.arrow_map.items()}
    return Module(m.cat, m.dims, mats)


def parsed(cat, m):
    """m written to a .rep file over cat written to a .cat file, read back."""
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "c.cat"), "w", encoding="utf-8") as fh:
            fh.write(serialize_category(cat))
        path = os.path.join(d, "m.rep")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_module(m, "c.cat"))
        return gio.parse_module(path)


@settings(max_examples=25, deadline=None)
@given(bound_quivers().map(lambda c: build_category(c.quiver, c.relations, QQ, c.length_cutoff)),
       st.integers(0, 2**32))
def test_every_layer_returns_canonical_scalars_over_q(cat, seed):
    rng = random.Random(seed)
    # the normal form of every path up to the cutoff, on both sides
    words = [(c, s, p) for c in (cat, cat.opposite())
             for (s, _), paths in paths_by_pair(c.quiver, c.length_cutoff).items() for p in paths]
    assert_canonical("reductions", [x for c, s, p in words for x in c.reduce_word(s, p).values()])
    F = parsed(cat, rational_change(random_module(cat, rng), rng))
    assert_canonical("parse", module_entries(F))

    for a in (m for m in F.mats.values() if m.rows and m.cols):
        _, K, _ = a.kernel_basis()
        assert_canonical("rref/kernel/@", entries(a.rref()[0], K, a @ K, a.transpose() @ a))

    G = random_module(cat, rng)
    assert_canonical("hom_basis", [x for h in hom_basis(F, G) + hom_basis(G, F)
                                   for x in map_entries(h)])
    eng = NakayamaEngine(cat, 4)
    nuF, nmF = eng.nu(F), eng.nu_minus(F)
    assert_canonical("nu", module_entries(nuF.module))
    assert_canonical("nu-", module_entries(nmF.module))
    assert_canonical("lambda", map_entries(eng.lambda_unit(F, nuF)))
    res = projective_resolution(F, 3)
    stages = res.stages[:res.length() + 1]  # length() builds every stage up to the cutoff
    assert stages or not any(F.dims.values())
    assert_canonical("resolution", [x for s in stages
                                    for x in module_entries(s.module) + map_entries(s.epi)])


def test_parsed_fractional_rep_is_canonical(tmp_path):
    fixtures = gpquiver.cli.fixtures_dir()
    with open(os.path.join(fixtures, "square.cat"), encoding="utf-8") as fh:
        (tmp_path / "square.cat").write_text(fh.read())
    # be*al = -1/3 * 1/5 + 1/2 * 22/11 = 14/15 = ga*mu
    (tmp_path / "m.rep").write_text(
        "[representation]\ncategory = square.cat\n"
        "dim c1 = 1\ndim c2 = 2\ndim c3 = 1\ndim c4 = 1\n"
        "mat al = 1/5 ; 22/11\nmat be = -1/3 1/2\nmat mu = 4/2\nmat ga = 7/15\n")
    F = gio.parse_module(str(tmp_path / "m.rep"))
    assert F.mats["al"].data == [[Fraction(1, 5)], [2]] and type(F.mats["mu"].data[0][0]) is int
    eng = NakayamaEngine(F.cat, 4)
    nuF = eng.nu(F)
    res = projective_resolution(F, 4)
    stages = res.stages[:res.length() + 1]
    assert len(stages) >= 2
    assert_canonical("square", module_entries(F) + module_entries(nuF.module)
                     + module_entries(eng.nu_minus(F).module) + map_entries(eng.lambda_unit(F, nuF))
                     + [x for s in stages for x in map_entries(s.epi)]
                     + [x for h in hom_basis(F, F) for x in map_entries(h)])


def divisions_and_float_calls(source: str) -> list:
    """(line, what) of each `/` and each call of `float` in a module's
    source: on two ints `/` gives a float, which is never a scalar."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            out.append((node.lineno, "/"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            out.append((node.lineno, "float"))
    return out


def test_checker_sees_divisions_and_float_calls():
    src = "def f(x, y):\n    x /= y\n    return x / y + float(y) + x // y\n"
    assert divisions_and_float_calls(src) == [(2, "/"), (3, "/"), (3, "float")]


def test_no_division_or_float_in_the_package():
    for path in SOURCES:
        assert divisions_and_float_calls(path.read_text(encoding="utf-8")) == [], path.name
