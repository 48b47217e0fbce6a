"""Every bundled fixture, mutated once, run through the CLI: the run ends in
exit 0, 1 or 2 without a traceback, an input error is one `error:` line, and
no message cites line 0."""

import contextlib
import io
import os
import re
import shutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpquiver import cli

FIXTURES = cli.fixtures_dir()
NAMES = sorted(n for n in os.listdir(FIXTURES) if n.endswith((".cat", ".rep")))
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


def test_mutations():
    text = "a\nbc\n"
    assert mutate(text, "truncate", 3, "") == "a\nb"
    assert mutate(text, "substitute", 8, "x") == "a\nbx\n"
    assert mutate(text, "duplicate", 1, "") == "a\nbc\nbc\n"
    assert mutate(text, "delete", 2, "") == "bc\n"
