"""Lockstep A/B timing of two source trees of gpquiver in one process.

    python3 tools/lockstep.py TREE_A TREE_B --workload sweep-fp|large-q \
        --groups N --seed S

TREE_A and TREE_B are checkouts (each with `src/gpquiver`); A is the
baseline.  Both trees run the same op groups of `perfbench/workloads.py`
(read from this checkout, never written): the gpquiver modules of the two
trees are loaded side by side and swapped in `sys.modules` before each
call, and the trees alternate whole op calls, each op `workloads.REPEATS`
times, its fastest call counting, as the benchmark counts it; each tree
calls first on every other op.  Calls seconds apart
see a shared machine at different speeds; calls in lockstep see it alike,
so a few groups size a change before the 30 s benchmark pairs do.

Prints, per group, the speedup (A's time over B's, above 1 when B is
faster), then their median, quartiles and the groups B won, and per op
kind the total of each tree and their ratio.  Exits 1 when any op's
summary differs between the trees, or an op raises or fails its check.
"""

from __future__ import annotations

import argparse
import os
import pkgutil
import sys
import tempfile
import time
from statistics import median, quantiles

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _ours(name: str) -> bool:
    return name == "gpquiver" or name.startswith("gpquiver.")


def _activate(mods: dict):
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    sys.modules.update(mods)


def load(tree: str) -> dict:
    """Every module of tree's gpquiver package, imported now, so that no
    later import reads the other tree."""
    _activate({})
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    try:
        import gpquiver
        for info in pkgutil.iter_modules(gpquiver.__path__):
            __import__(f"gpquiver.{info.name}")
    finally:
        sys.path.remove(src)
    return {n: m for n, m in sys.modules.items() if _ours(n)}


class Side:
    """One tree: its modules, workload state and stream of op groups."""

    def __init__(self, tree: str, workload: str, seed: int, workdir: str):
        import workloads
        self.mods = load(tree)
        wl = workloads.WORKLOADS[workload](seed, workdir)
        self.groups = wl.groups(wl.setup())

    def call(self, op):
        """(seconds, value, error) of one call with this tree active."""
        _activate(self.mods)
        t = time.perf_counter()
        try:
            value, err = op.call(), None
        except Exception as exc:  # reported, and the run exits 1
            value, err = None, f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t, value, err

    def judge(self, op, value, err):
        """The op's summary, or the reason it failed."""
        _activate(self.mods)
        if err is not None:
            return None, err
        try:
            if op.check is not None and not op.check(value):
                return None, "result disagrees with its check"
            return op.summary(value), None
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"


def run(tree_a, tree_b, workload, groups, seed, out=sys.stdout) -> int:
    sys.path.insert(0, PERFBENCH)
    saved = {n: m for n, m in sys.modules.items() if _ours(n)}
    bad = 0
    speedups, kinds = [], {}
    try:
        import workloads
        with tempfile.TemporaryDirectory() as dir_a, tempfile.TemporaryDirectory() as dir_b:
            sides = [Side(tree_a, workload, seed, dir_a), Side(tree_b, workload, seed, dir_b)]
            for g in range(groups):
                ops = []
                for side in sides:
                    _activate(side.mods)
                    ops.append(next(side.groups)())
                if len(ops[0]) != len(ops[1]):
                    print(f"group {g}: {len(ops[0])} ops vs {len(ops[1])}", file=out)
                    return 1
                totals = [0.0, 0.0]
                for i, (op_a, op_b) in enumerate(zip(*ops)):
                    calls = [[], []]
                    for _ in range(workloads.REPEATS):
                        # each tree goes first on every other op
                        for k in ((0, 1), (1, 0))[i % 2]:
                            calls[k].append(sides[k].call((op_a, op_b)[k]))
                    results = []
                    for k, (side, op) in enumerate(zip(sides, (op_a, op_b))):
                        best = min(dt for dt, _, _ in calls[k])
                        totals[k] += best
                        kinds.setdefault(op.kind, [0.0, 0.0])[k] += best
                        results.append(side.judge(op, *calls[k][0][1:]))
                    (sum_a, err_a), (sum_b, err_b) = results
                    if err_a or err_b or sum_a != sum_b:
                        bad += 1
                        print(f"group {g} op {op_a.kind}: A {err_a or sum_a!r}, "
                              f"B {err_b or sum_b!r}", file=out)
                speedups.append(totals[0] / totals[1])
                print(f"group {g}: A {totals[0]:.4f} s, B {totals[1]:.4f} s, "
                      f"speedup x{speedups[-1]:.3f}", file=out)
    finally:
        _activate(saved)
        sys.path.remove(PERFBENCH)
    q1, _, q3 = quantiles(speedups, n=4) if len(speedups) > 1 else speedups * 3
    wins = sum(s > 1 for s in speedups)
    print(f"speedup median x{median(speedups):.3f} (quartiles {q1:.3f}-{q3:.3f}), "
          f"B won {wins} of {len(speedups)} groups", file=out)
    for kind, (a, b) in sorted(kinds.items()):
        print(f"  {kind:16s} A {a:8.4f} s  B {b:8.4f} s  x{a / b if b else float('nan'):.3f}",
              file=out)
    if bad:
        print(f"{bad} ops disagree or failed", file=out)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a", help="baseline checkout")
    ap.add_argument("tree_b", help="candidate checkout")
    ap.add_argument("--workload", choices=["sweep-fp", "large-q"], required=True)
    ap.add_argument("--groups", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    return run(args.tree_a, args.tree_b, args.workload, args.groups, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
