"""Golden digests of category and module reports.

`cat-info` and `gdim` run on every bundled category fixture, on the
generated categories of `test_cli.generated_categories` and on Lambda(k^4)
over F2 at length 7.  The module commands (`nakayama`, `resolve` at the
default cutoff and at 12, `derived` L_1 nu and R^2 nu^-, `check gproj-p`
plain and `--full`, and `check p-proj`) run on every bundled `.rep` fixture
and, over F3, on the small cokernel modules in `golden/` (on cyclic3, three
of them of infinite projective dimension, the square, ka3 and
ex322 (x) ex322_op).  Each run's exit code, stdout and stderr are hashed
and compared with `golden/digests.json` and `golden/module_digests.json`.
Reports key their inputs by paths relative to the file named on the
command line, so the digests do not depend on where the checkout lives.
After a deliberate change of output, rewrite the digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

from gpquiver import cli
from test_cli import exterior_text, generated_categories

GOLDEN = pathlib.Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "digests.json"
MODULE_DIGESTS = GOLDEN / "module_digests.json"
MODULE_COMMANDS = (["nakayama"], ["resolve"], ["resolve", "--cutoff", "12"],
                   ["derived", "--functor", "l_nu", "--degree", "1"],
                   ["derived", "--functor", "r_nu_minus", "--degree", "2"],
                   ["check", "gproj-p"], ["check", "gproj-p", "--full"], ["check", "p-proj"])


def commands(workdir) -> list:
    """The argv of every golden category run; generated files go to workdir."""
    fixtures = [os.path.join(cli.fixtures_dir(), n) for n in cli.list_fixtures()
                if n.endswith(".cat")]
    lam4 = os.path.join(workdir, "l4_f2_7.cat")
    with open(lam4, "w", encoding="utf-8") as fh:
        fh.write(exterior_text(4, "F2", 7))
    paths = fixtures + generated_categories(pathlib.Path(workdir)) + [lam4]
    return [[command, path] for path in paths for command in ("cat-info", "gdim")]


def module_commands() -> list:
    """The argv of every golden module run: the command words, the file,
    then the options."""
    inputs = [([os.path.join(cli.fixtures_dir(), n)], []) for n in cli.list_fixtures()
              if n.endswith(".rep")]
    inputs += [([str(p)], ["--field", "F3"]) for p in sorted(GOLDEN.glob("*.rep"))]
    out = []
    for path, field in inputs:
        for words in MODULE_COMMANDS:
            head = 2 if words[0] == "check" else 1
            out.append(words[:head] + path + words[head:] + field)
    return out


def digests(argvs) -> dict:
    """Key: the argv with file names for paths; value: the sha256 of
    (exit code, stdout, stderr)."""
    out = {}
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        blob = json.dumps([status, stdout.getvalue(), stderr.getvalue()]).encode()
        out[" ".join(os.path.basename(a) for a in argv)] = hashlib.sha256(blob).hexdigest()
    return out


def record():
    """Rewrite both digest files from the current code."""
    with tempfile.TemporaryDirectory() as workdir:
        found = {DIGESTS: digests(commands(workdir)), MODULE_DIGESTS: digests(module_commands())}
    for path, table in found.items():
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def test_category_reports_match_their_golden_digests(tmp_path):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert digests(commands(tmp_path)) == want


def test_module_reports_match_their_golden_digests():
    want = json.loads(MODULE_DIGESTS.read_text(encoding="utf-8"))
    assert len(want) == 8 * 15
    assert digests(module_commands()) == want


if __name__ == "__main__":
    record()
