"""Benchmark of gpquiver: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload cli-cats|sweep-fp|large-q|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is used from `src/`; generated
inputs, and the span dump of a traced run, go under `.perfbench/` in the
checkout. Human-readable lines come first; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. The exit
code is 0 only when every op succeeded and passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT_DIR = os.path.join(workloads.ROOT, ".perfbench")
END_TO_END = ("setup_s", "ops_per_s", "peak_rss_mb")


def metric_units(trace: bool) -> dict:
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def tail_latency(latencies):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count), or None under 20 samples."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def setup_only(name, seed, workdir) -> float:
    """Seconds of import and set-up of a library workload; run it in a fresh
    process, where nothing of the program is imported yet."""
    wl = workloads.WORKLOADS[name](seed, workdir)
    if any(m.startswith("gpquiver") for m in sys.modules):
        raise RuntimeError("gpquiver is already imported")
    t = time.perf_counter()
    import gpquiver.cli  # noqa: F401
    wl.setup()
    return time.perf_counter() - t


def fresh_setup_s(name, seed) -> float:
    proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                           "--setup-only"], stdout=subprocess.PIPE, text=True,
                          timeout=workloads.OP_LIMIT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} exited with {proc.returncode}")
    return float(proc.stdout.split()[-1])


def measure(name, seed, seconds, workdir) -> tuple:
    """Untraced run: end-to-end metrics. `setup_s` is the median of
    fresh-process set-ups taken across the timed phase: `fixtures` calls for
    cli-cats, import and `setup()` for the library workloads."""
    wl = workloads.WORKLOADS[name](seed, workdir)
    if name == "cli-cats":
        def sample():
            t = time.perf_counter()
            wl.setup()
            return time.perf_counter() - t
    else:
        def sample():
            return fresh_setup_s(name, seed)
    setups = workloads.SetupSampler(sample, seconds)
    setups.tick()
    state = wl.setup()
    ph = workloads.run_ops(wl.groups(state), seconds=seconds, repeats=workloads.REPEATS,
                           between=setups.tick)
    lat = ph.latencies
    metrics = dict(zip(END_TO_END, (
        setups.median(),
        len(lat) / ph.busy_s,
        workloads.peak_rss_mb(children=name == "cli-cats"),
    )))
    notes = [f"fail_frac {ph.failed / len(lat)} ratio ({ph.failed} of {len(lat)} ops)",
             f"latency_p50_s {median(lat)} s"]
    tail = tail_latency(lat)
    if tail is None:
        notes.append(f"latency_tail_s omitted: {len(lat)} ops < 20")
    else:
        notes.append(f"latency_tail_s {tail[0]} s (p{tail[1]:.1f} of {tail[2]} ops)")
    return metrics, len(lat), ph.failed, notes


def _pass(name, seed, workdir, tracer, **limit):
    wl = workloads.WORKLOADS[name](seed, workdir, **({"in_process": True}
                                                     if name == "cli-cats" else {}))
    if tracer is not None:
        tracer.enabled = True
    t = time.perf_counter()
    state = wl.setup()
    setup_s = time.perf_counter() - t
    if tracer is not None:
        tracer.enabled = False
    ph = workloads.run_ops(wl.groups(state), tracer=tracer, **limit)
    return ph, setup_s + ph.busy_s


def trace(name, seed, seconds, workdir) -> tuple:
    """The same ops untraced, traced, then untraced again: per-layer
    metrics, the tracing overhead against the mean of the two untraced
    passes, and a check that tracing leaves every result unchanged."""
    import gpquiver.cli  # noqa: F401
    before, before_s = _pass(name, seed, workdir, None, seconds=seconds / 3)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = _pass(name, seed, workdir, tracer, n_groups=before.groups)
    finally:
        tracer.uninstall()
    after, after_s = _pass(name, seed, workdir, None, n_groups=before.groups)
    plain_s = (before_s + after_s) / 2
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl.gz")
    tracer.write(spans_path)
    passes = (before, traced, after)
    failed = sum(p.failed for p in passes)
    notes = [f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, workloads.ROOT)}"]
    if not before.summaries == traced.summaries == after.summaries:
        failed += 1
        notes.append("traced and untraced results differ")
    return metrics, sum(len(p.latencies) for p in passes), failed, notes


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print the seconds of one import and set-up of a library workload")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.SRC, "gpquiver", "cli.py")):
        print(f"error: no gpquiver sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, workloads.SRC)
    if args.workload == "all":
        return run_all(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        if args.setup_only:
            print(setup_only(args.workload, args.seed, workdir))
            return 0
        units = metric_units(args.trace)
        run = trace if args.trace else measure
        metrics, attempted, failed, notes = run(args.workload, args.seed, args.seconds,
                                                workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are not both reported "
              "and listed in BENCHMARK.json", file=sys.stderr)
        return 2
    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed={args.seed} {mode}: {attempted} ops, {failed} failed")
    for note in notes:
        print(f"  {note}")
    for metric, value in metrics.items():
        print(f"  {metric} {value} {units[metric]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
