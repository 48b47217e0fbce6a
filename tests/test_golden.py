"""Golden digests of category reports.

`cat-info` and `gdim` run on every bundled category fixture, on the
generated categories of `test_cli.generated_categories` and on Lambda(k^4)
over F2 at length 7; each run's exit code, stdout and stderr are hashed
and compared with `golden/digests.json`.  Reports key their inputs by file
name, so the digests do not depend on where the files live.  After a
deliberate change of output, rewrite the digests with

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

DIGESTS = pathlib.Path(__file__).parent / "golden" / "digests.json"


def commands(workdir) -> list:
    """The argv of every golden run; generated files go to workdir."""
    fixtures = [os.path.join(cli.fixtures_dir(), n) for n in cli.list_fixtures()
                if n.endswith(".cat")]
    lam4 = os.path.join(workdir, "l4_f2_7.cat")
    with open(lam4, "w", encoding="utf-8") as fh:
        fh.write(exterior_text(4, "F2", 7))
    paths = fixtures + generated_categories(pathlib.Path(workdir)) + [lam4]
    return [[command, path] for path in paths for command in ("cat-info", "gdim")]


def digests(workdir) -> dict:
    """Key: the argv with file names for paths; value: the sha256 of
    (exit code, stdout, stderr)."""
    out = {}
    for argv in commands(workdir):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        blob = json.dumps([status, stdout.getvalue(), stderr.getvalue()]).encode()
        out[" ".join(os.path.basename(a) for a in argv)] = hashlib.sha256(blob).hexdigest()
    return out


def record():
    """Rewrite golden/digests.json from the current code."""
    with tempfile.TemporaryDirectory() as workdir:
        found = digests(workdir)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def test_category_reports_match_their_golden_digests(tmp_path):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert digests(tmp_path) == want


if __name__ == "__main__":
    record()
