"""Record the exit code and `result` payload of every command the cli-cats
workload can pick, into perfbench/expected.json, and the verdicts of the
sweep-fp tensor-category module pool, into perfbench/expected_tensor.json.

    python3 perfbench/record_expected.py

Run it only on a commit whose outputs are trusted: the benchmark checks
later commits against these records. Whole reports are not compared, so
new report keys (such as provenance) do not invalidate them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import workloads  # noqa: E402


def write(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_tensor_pool() -> dict:
    wl = workloads.SweepFp(0, None)
    state = wl.setup()
    cat = state[0][workloads.TENSOR]
    records = {}
    for top, rel in sorted(gen.module_shapes(cat.objects, random.Random(0), n_top=1)):
        for k in range(workloads.TENSOR_POOL):
            F, key = workloads.tensor_pool_module(cat, top, rel, k)
            rec = {"module": workloads.fingerprint(F)}
            for op in wl.ops(workloads.TENSOR, F, state):
                value = op.call()
                if op.kind in workloads.TENSOR_RECORDED:
                    rec[op.kind] = op.summary(value)
            records[key] = rec
            print(key, [rec[kind] for kind in workloads.TENSOR_RECORDED])
    return records


def main() -> int:
    sys.path.insert(0, workloads.SRC)
    os.makedirs(os.path.join(workloads.ROOT, ".perfbench"), exist_ok=True)
    gen_dir = tempfile.mkdtemp(dir=os.path.join(workloads.ROOT, ".perfbench"))
    try:
        workloads.write_cli_inputs(gen_dir)
        records = {}
        for slot in workloads.cli_choices(gen_dir):
            for argv in slot:
                key = workloads.op_key(argv)
                code, out = workloads.run_cli_inprocess(argv)
                records[key] = {"exit": code, "result": json.loads(out)["result"]}
                print(f"{code} {key}")
    finally:
        shutil.rmtree(gen_dir, ignore_errors=True)
    write(workloads.EXPECTED, records)
    write(workloads.EXPECTED_TENSOR, record_tensor_pool())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
