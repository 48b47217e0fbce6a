"""Every bundled fixture, mutated once, run through the CLI: the run ends in
exit 0, 1 or 2 without a traceback, an input error is one `error:` line, and
no message cites line 0.  A bad `.rep` matrix (a wrong shape, an entry not
in the field, a repeated `mat` line, matrices that break a relation) exits
1 with one `error:` line citing a `mat` line, and an oversized one (dimensions
plus matrix entries above io.MAX_REP_SIZE) exits 1 citing the `dim` line
that crosses the bound, before any matrix is read."""

import contextlib
import io
import os
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpquiver import cli
from gpquiver.io import MAX_REP_SIZE

FIXTURES = cli.fixtures_dir()
NAMES = sorted(n for n in os.listdir(FIXTURES) if n.endswith((".cat", ".rep")))
FIXTURES_TEXT = {n: Path(FIXTURES, n).read_text(encoding="utf-8") for n in NAMES}
CHARS = "0123456789 \n#=:;*+-/|[],>abxyz"
CITED_LINE = re.compile(r"\.(?:cat|rep):(\d+)")


def mutate(text, kind, at, char):
    """text truncated at character `at`, with character `at` replaced by char,
    or with line `at` duplicated or deleted (`at` taken modulo the length)."""
    lines = text.splitlines(keepends=True)
    if kind == "truncate":
        return text[:at % len(text)]
    if kind == "substitute":
        at %= len(text)
        return text[:at] + char + text[at + 1:]
    at %= len(lines)
    if kind == "duplicate":
        return "".join(lines[:at + 1] + lines[at:])
    return "".join(lines[:at] + lines[at + 1:])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A copy of the fixtures, so that a mutant finds the files it names."""
    d = tmp_path_factory.mktemp("fixtures")
    for name in NAMES:
        shutil.copy(os.path.join(FIXTURES, name), d / name)
    return d


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


@given(name=st.sampled_from(NAMES),
       kind=st.sampled_from(["truncate", "substitute", "duplicate", "delete"]),
       at=st.integers(0, 400), char=st.sampled_from(CHARS))
def test_mutated_fixture_fails_cleanly(workdir, name, kind, at, char):
    ext = os.path.splitext(name)[1]
    path = workdir / f"mutant{ext}"
    path.write_text(mutate((workdir / name).read_text(encoding="utf-8"), kind, at, char),
                    encoding="utf-8")
    argv = ["cat-info", str(path)] if ext == ".cat" else ["resolve", str(path), "--cutoff", "4"]
    status, out, err = run_cli(argv)
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    if status == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert all(int(n) >= 1 for n in CITED_LINE.findall(err)), err


REP_NAMES = [n for n in NAMES if n.endswith(".rep")]


def _matrix(rows):
    return " ; ".join(" ".join(row) for row in rows)


@st.composite
def broken_relations(draw):
    """Lines of a .rep whose matrices break a relation of their category."""
    which = draw(st.sampled_from(["loop_x2", "square", "m322"]))
    if which == "m322":
        lines = FIXTURES_TEXT["m322.rep"].splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("mat be|2"))
        lines[at] = "mat be|2 = 1 0 ; 0 1"  # be*be = 0
        return lines
    n = draw(st.integers(1, 3))
    entry = st.integers(0, 2).map(str)
    if which == "loop_x2":  # x = c + strictly upper, so x*x != 0
        c = str(draw(st.integers(1, 4)))
        x = [[c if i == j else draw(entry) if j > i else "0" for j in range(n)]
             for i in range(n)]
        mats = [f"mat x = {_matrix(x)}"]
    else:  # be*al = a, ga*mu = 0
        ident = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
        a = str(draw(st.integers(1, 4)))
        al = [[a if x == "1" else x for x in row] for row in ident]
        mu = [[draw(entry) for _ in range(n)] for _ in range(n)]
        mats = [f"mat al = {_matrix(al)}", f"mat be = {_matrix(ident)}",
                f"mat mu = {_matrix(mu)}", f"mat ga = {_matrix([['0'] * n] * n)}"]
    objs = ["1"] if which == "loop_x2" else ["c1", "c2", "c3", "c4"]
    return (["[representation]", f"category = {which}.cat"]
            + [f"dim {o} = {n}" for o in objs] + draw(st.permutations(mats)))


@st.composite
def matrix_mutants(draw):
    """A .rep with a bad matrix: (its lines, extra CLI flags, the line an
    error must cite or None).  A mat line of a fixture gets a wrong shape,
    an entry 1/3 under --field F3, or a second copy further down; or the
    matrices break a relation."""
    kind = draw(st.sampled_from(["shape", "field", "repeat", "relation"]))
    if kind == "relation":
        return draw(broken_relations()), [], None
    lines = FIXTURES_TEXT[draw(st.sampled_from(REP_NAMES))].splitlines()
    at = draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("mat ")]))
    if kind == "repeat":
        to = draw(st.integers(at + 1, len(lines)))
        return lines[:to] + [lines[at]] + lines[to:], [], to + 1
    key, val = lines[at].split("=", 1)
    rows = [chunk.split() for chunk in val.split(";")]
    r = draw(st.integers(0, len(rows) - 1))
    if kind == "field":
        rows[r][draw(st.integers(0, len(rows[r]) - 1))] = "1/3"
    else:
        how = draw(st.sampled_from(["add-row", "add-entry", "drop-entry"]))
        if how == "add-row":
            rows.append(list(rows[r]))
        elif how == "add-entry":
            rows[r].append("0")
        else:
            rows[r].pop()
    lines[at] = f"{key}= {_matrix(rows)}"
    return lines, ["--field", "F3"] if kind == "field" else [], at + 1


@given(matrix_mutants())
def test_bad_matrix_is_an_error_at_a_mat_line(workdir, mutant):
    lines, flags, cited = mutant
    path = workdir / "matrix_mutant.rep"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    status, out, err = run_cli(["resolve", str(path), "--cutoff", "4", *flags])
    assert (status, out) == (1, ""), err
    assert "Traceback" not in err and err.count("\n") == 1
    m = re.match(rf"error: {re.escape(str(path))}:(\d+): ", err)
    assert m, err
    n = int(m.group(1))
    assert n == cited if cited is not None else lines[n - 1].startswith("mat "), err


@st.composite
def oversized_dims(draw):
    """A fixture .rep whose dim lines cross MAX_REP_SIZE: (its lines, the
    line an error must cite).  One dim line gets a dimension above the bound,
    or on a2 (1 -> 2) both get n with 2n + n^2 above it, so the bound is
    crossed at the later line by the arrow's matrix alone."""
    name = draw(st.sampled_from(REP_NAMES))
    lines = FIXTURES_TEXT[name].splitlines()
    dims = [i for i, line in enumerate(lines) if line.startswith("dim ")]
    if name.startswith("a2_") and draw(st.booleans()):
        n = draw(st.integers(500, 3000))
        for i in dims:
            lines[i] = lines[i].split("=")[0] + f"= {n}"
        return lines, max(dims) + 1
    at = draw(st.sampled_from(dims))
    lines[at] = lines[at].split("=")[0] + f"= {draw(st.integers(MAX_REP_SIZE + 1, 10**12))}"
    return lines, at + 1


@given(oversized_dims())
def test_oversized_representation_is_an_error_at_its_dim_line(workdir, mutant):
    lines, cited = mutant
    path = workdir / "oversized_mutant.rep"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    status, out, err = run_cli(["nakayama", str(path)])
    assert (status, out) == (1, "") and err.count("\n") == 1, err
    m = re.match(rf"error: {re.escape(str(path))}:(\d+): representation too large: \d+, "
                 rf"above the bound {MAX_REP_SIZE} ", err)
    assert m and int(m.group(1)) == cited, err


def test_mutations():
    text = "a\nbc\n"
    assert mutate(text, "truncate", 3, "") == "a\nb"
    assert mutate(text, "substitute", 8, "x") == "a\nbx\n"
    assert mutate(text, "duplicate", 1, "") == "a\nbc\nbc\n"
    assert mutate(text, "delete", 2, "") == "bc\n"
