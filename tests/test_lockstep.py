"""Smoke test of tools/lockstep.py: this checkout against itself."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_lockstep_runs_a_tree_against_itself():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "lockstep.py"), str(ROOT),
                           str(ROOT), "--workload", "large-q", "--groups", "1", "--seed", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("group 0: A ") and "B won" in lines[1]
    assert {line.split()[0] for line in lines[2:]} == {
        "p_proj", "gproj_full", "nu_trio", "r_nu_minus1", "r_nu_minus2", "ext1"}
