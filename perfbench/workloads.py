"""The three workloads and the closed loop that runs them.

Each workload is one client in one process, closed loop: the next op starts
when the previous one has returned and been checked. Ops come in groups (one
CLI cycle, or a round of generated modules) and a run always ends on a group
boundary, so each run measures the same mix of ops.

cli-cats   sequential `python -m gpquiver.cli` subprocesses on generated
           category files and on the bundled fixtures; time goes to path
           enumeration, the build RREF, the rebuild of `opposite()`, parsing,
           start-up and report writing.
sweep-fp   hundreds of small random modules over F3 against warm engine
           caches: many small GF(p) eliminations, route logic, covers and
           resolutions, and per-call overhead; no category build, no Fraction.
large-q    dense Q representations of total dimension 16-17 on A5, A6 and the
           commutative square: a few large Fraction eliminations and generic
           Hom solves; category builds are negligible.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import median

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "gpquiver", "fixtures")
HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
EXPECTED_TENSOR = os.path.join(HERE, "expected_tensor.json")
CUTOFF = 16
OP_LIMIT_S = 60.0      # an op slower than this counts as failed
SETUP_SAMPLES = 9      # fresh-process set-ups per run, spread over the timed phase
REPEATS = 3            # calls per op in an untraced run; the fastest counts


@dataclass
class Op:
    kind: str
    call: object                       # () -> value
    check: object                      # value -> bool, run untimed after the call, or None
    summary: object                    # value -> JSON-able result, compared across calls


@dataclass
class Phase:
    latencies: list = field(default_factory=list)
    failed: int = 0
    groups: int = 0
    busy_s: float = 0.0                # time inside op calls (set-up excluded)
    summaries: list = field(default_factory=list)


def _call(op, tracer):
    """(value, error text, seconds) of one call."""
    if tracer is not None:
        tracer.enabled = True
    t = time.perf_counter()
    try:
        value, err = op.call(), None
    except Exception:
        value, err = None, traceback.format_exc()
    dt = time.perf_counter() - t
    if tracer is not None:
        tracer.enabled = False
    return value, err, dt


def run_ops(groups, seconds=None, n_groups=None, tracer=None, repeats=1,
            between=None) -> Phase:
    """Run whole op groups for at most about `seconds` of wall time (at least
    one group), or exactly `n_groups` groups.

    Each group runs `repeats` times over and an op's latency is the fastest
    of its calls, as `timeit` does: the calls are seconds apart, and the
    speed of a shared machine swings by 2x over seconds, so one call
    measures the neighbours as much as the op. Only one group is alive at a
    time, so memory does not grow with the number of groups. Generation and
    checks are untimed and untraced, and so is `between()`, called after
    every call."""
    ph = Phase()
    start = time.perf_counter()

    def call(op):
        out = _call(op, tracer)
        if between is not None:
            between()
        return out

    for make_group in groups:
        if n_groups is not None and ph.groups >= n_groups:
            break
        ops = make_group()
        calls = [[call(op) for op in ops] for _ in range(repeats)]
        for i, op in enumerate(ops):
            value, err, _ = calls[0][i]
            dt = min(c[i][2] for c in calls)
            ok, summary = err is None and dt <= OP_LIMIT_S, None
            if ok:
                try:
                    summary = op.summary(value)
                    if any(c[i][1] is not None or op.summary(c[i][0]) != summary
                           for c in calls[1:]):
                        ok, err = False, "repeated calls disagree"
                    elif op.check is not None and not op.check(value):
                        ok, err = False, "result disagrees with its check"
                except Exception:
                    ok, err = False, traceback.format_exc()
            if not ok:
                ph.failed += 1
                print(f"op {op.kind} failed ({dt:.3f} s): {err or 'over the time limit'}",
                      file=sys.stderr)
            ph.latencies.append(dt)
            ph.busy_s += dt
            ph.summaries.append((op.kind, summary))
        ph.groups += 1
        elapsed = time.perf_counter() - start
        # stop before a group that would likely end past the time budget
        if n_groups is None and elapsed * (ph.groups + 1) / ph.groups > seconds:
            break
    return ph


def _dims(values: dict) -> dict:
    return {c: (v.dim if v.conclusive else None) for c, v in values.items()}


# -- independent checks ----------------------------------------------------


def euler_form(cat, x: dict, y: dict) -> Fraction:
    """sum_i (-1)^i dim Ext^i(M, N) from dimension vectors alone.

    With finite global dimension [M] = sum_u a_u [C(u,-)] where x = a C for
    the Cartan matrix C[u][v] = dim C(u, v), and dim Hom(C(u,-), N) = y_u."""
    objs = list(cat.objects)
    n = len(objs)
    # solve a C = x, i.e. C^T a^T = x^T, by exact elimination
    rows = [[Fraction(cat.hom_dim(objs[u], objs[v])) for u in range(n)] + [Fraction(x[objs[v]])]
            for v in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [e / rows[col][col] for e in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    return sum(rows[u][n] * y[objs[u]] for u in range(n))


def module_ops(F, eng, ctx: dict) -> list:
    """Ops every module gets, with checks by an independent route. `ctx`
    carries earlier results of the same module to later checks."""
    from gpquiver.gorenstein import is_base_projective, is_gproj_P, is_p_projective
    from gpquiver.modules import ext_dim, tor_dim

    def nu_trio():
        lam = eng.lambda_unit(F)
        return (eng.nu(F).module.dim_vector(), eng.nu_minus(F).module.dim_vector(),
                lam.is_iso())

    def check_nu_trio(v):
        nu, nu_minus, iso = v
        for c in eng.cat.objects:
            if tor_dim(eng.coef_right(c), F, 0, CUTOFF, resolution=eng.res_right(c)).dim != nu[c]:
                return False
            if ext_dim(eng.coef_left(c), F, 0, CUTOFF, resolution=eng.res_left(c)).dim != nu_minus[c]:
                return False
        # the unit of a Gorenstein P-projective is an isomorphism
        return iso or ctx.get("gproj") != "yes"

    def gproj_full():
        v = is_gproj_P(F, eng, force_full=True)
        ctx["gproj"], ctx["gproj_blocked"] = v.member, "blocking_cutoff" in v.certificate
        return v.member

    def check_gproj_full(v):
        # the full route may run out at the cutoff where the other route decides
        return v == ctx["gproj_check"]() or (v == "inconclusive" and ctx["gproj_blocked"])

    return [
        Op("p_proj", lambda: is_p_projective(F, eng).member,
           lambda v: v == is_base_projective(F).member, lambda v: v),
        Op("gproj_full", gproj_full, check_gproj_full, lambda v: v),
        Op("nu_trio", nu_trio, check_nu_trio, lambda v: list(v)),
    ]


def r_nu_minus_op(F, eng, i) -> Op:
    return Op(f"r_nu_minus{i}", lambda: _dims(eng.right_derived_nu_minus_dims(F, i)),
              lambda v: v == eng.right_derived_nu_minus(F, i).dim_vector(), lambda v: v)


# -- sweep-fp --------------------------------------------------------------

TENSOR = "ex322_tensor"
SWEEP_CATS = ("square", "chain3", "cyclic3", "ka3", TENSOR)
# ex322 (x) ex322_op is not Iwanaga-Gorenstein, so its resolutions always run
# to the cutoff; at 16 its set-up alone takes ~7 s
TENSOR_CUTOFF = 4
# Not being Iwanaga-Gorenstein, the tensor category has no second route to
# these verdicts: is_gproj_P takes the full route with or without
# force_full, and discrepancy_probe calls is_gp_functor itself. Its modules
# therefore come from a fixed pool of TENSOR_POOL per shape, whose verdicts
# are recorded in expected_tensor.json by record_expected.py.
TENSOR_POOL = 8
TENSOR_RECORDED = ("gproj_shortcut", "gproj_full", "gp_right", "gp_left", "discrepancy")


def fingerprint(m) -> str:
    """A digest of a module's dimensions and matrices."""
    data = json.dumps([m.dims, {a: x.data for a, x in m.mats.items()}], sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def tensor_pool_module(cat, top, rel, k) -> tuple:
    """(module, record key) of pool module `k` of one shape on the tensor
    category; the same for every seed."""
    key = f"{'+'.join(top)}/{'+'.join(rel)}/{k}"
    return gen.cokernel_module(cat, random.Random(f"sweep-fp:tensor:{key}"), top, rel), key


def with_record(op, record, module_fp) -> Op:
    """`op` whose check also compares its result with the record, which must
    have been made for the same module."""
    want = record.get(op.kind) if record and record["module"] == module_fp else None

    def check(v):
        return (want is not None and op.summary(v) == want
                and (op.check is None or op.check(v)))

    return Op(op.kind, op.call, check, op.summary)


def warm(engines):
    """Compute the gdim and cache every coefficient resolution."""
    for e in engines:
        e.gorenstein_dimension()
        for c in e.cat.objects:
            e.res_right(c)
            e.res_left(c)


class SweepFp:
    """Random cokernel modules over F3 on five small categories."""

    name = "sweep-fp"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        from gpquiver import io as gio
        from gpquiver.basechange import Factorization
        from gpquiver.gorenstein import self_injective_dimension
        from gpquiver.nakayama import NakayamaEngine

        cats = {n: gio.parse_category(os.path.join(FIXTURES, f"{n}.cat"), None, "F3")
                for n in SWEEP_CATS}
        engines = {n: NakayamaEngine(c, TENSOR_CUTOFF if n == TENSOR else CUTOFF)
                   for n, c in cats.items()}
        facts = {s: Factorization(cats[TENSOR], s) for s in ("right", "left")}
        fact_engines = {s: NakayamaEngine(f.cat, TENSOR_CUTOFF) for s, f in facts.items()}
        warm(list(engines.values()) + list(fact_engines.values()))
        profiles = {s: self_injective_dimension(f.base, TENSOR_CUTOFF)
                    for s, f in facts.items()}
        return cats, engines, facts, fact_engines, profiles

    def groups(self, state):
        """One group per round: a module of every shape on every category."""
        cats = state[0]
        order = random.Random(f"sweep-fp:{self.seed}:shapes")
        # modules over the tensor category cost ~20x more; one generator each
        # keeps them from swamping the small categories
        shapes = {n: gen.module_shapes(cats[n].objects, order, n_top=1 if n == TENSOR else 2)
                  for n in SWEEP_CATS}
        with open(EXPECTED_TENSOR, encoding="utf-8") as fh:
            records = json.load(fh)
        r = 0
        while True:
            def make(r=r):
                ops = []
                for name in SWEEP_CATS:
                    for i, (top, rel) in enumerate(shapes[name]):
                        rng = random.Random(f"sweep-fp:{self.seed}:{r}:{name}:{i}")
                        if name == TENSOR:
                            F, key = tensor_pool_module(cats[name], top, rel,
                                                        rng.randrange(TENSOR_POOL))
                            ops += [with_record(op, records.get(key), fingerprint(F))
                                    if op.kind in TENSOR_RECORDED else op
                                    for op in self.ops(name, F, state)]
                        else:
                            F = gen.cokernel_module(cats[name], rng, top, rel)
                            ops += self.ops(name, F, state)
                return ops

            yield make
            r += 1

    def ops(self, name, F, state) -> list:
        from gpquiver.gorenstein import (discrepancy_probe, is_gp_functor, is_gproj_P,
                                         is_monic)

        cats, engines, facts, fact_engines, profiles = state
        eng = engines[name]
        ctx = {"gproj_check": lambda: ctx["shortcut"]}

        def shortcut():
            ctx["shortcut"] = is_gproj_P(F, eng).member
            return ctx["shortcut"]

        def l_nu1():
            ctx["l1"] = _dims(eng.left_derived_nu_dims(F, 1))
            return ctx["l1"]

        ops = [
            Op("l_nu1", l_nu1, lambda v: v == eng.left_derived_nu(F, 1).dim_vector(),
               lambda v: v),
            # a nonzero L_1 nu rules membership out
            Op("gproj_shortcut", shortcut,
               lambda v: v == "no" or not any(ctx["l1"].values()), lambda v: v),
        ]
        ops += module_ops(F, eng, ctx)
        ops.append(r_nu_minus_op(F, eng, 1))
        if name == "ka3":
            # on a relation-free category monic = Gorenstein P-projective
            ops.append(Op("monic", lambda: is_monic(F).member,
                          lambda v: v == ctx["gproj"], lambda v: v))
        if name == TENSOR:
            gp = {}

            def gp_op(side):
                def call():
                    gp[side] = is_gp_functor(F, fact_engines[side], profiles[side],
                                             facts[side]).member
                    return gp[side]
                return Op(f"gp_{side}", call, None, lambda v: v)

            def probe():
                out = discrepancy_probe(F, facts["right"], facts["left"], TENSOR_CUTOFF)
                return (out["first"]["verdict"].member,
                        out["second"]["verdict"].member, out["discrepancy"])

            ops += [gp_op("right"), gp_op("left"),
                    Op("discrepancy", probe,
                       lambda v: v == (gp["right"], gp["left"],
                                       {gp["right"], gp["left"]} == {"yes", "no"}),
                       lambda v: list(v))]
        return ops


# -- large-q ---------------------------------------------------------------

# fixed vertex dimensions, so every seed solves Hom systems of the same size:
# total 16-17 (the square's are V1, V3, V4 and E, with V2 = V3 + E)
LARGE_Q_SIZES = {"A5": (3, 3, 3, 3, 4), "A6": (2, 3, 3, 3, 3, 3), "square": (3, 3, 3, 4)}
LARGE_Q_SMALL = {"A5": (1, 1, 1, 2, 2), "A6": (1, 1, 1, 1, 1, 2), "square": (1, 1, 1, 2)}
# the category whose first representation has ascending dimensions and
# injective maps, for a mix of yes and no verdicts
LARGE_Q_MONIC = ("A6",)


class LargeQ:
    """Dense representations over Q with small integer entries."""

    name = "large-q"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        files = {"A5": gen.linear_quiver(5, "Q"), "A6": gen.linear_quiver(6, "Q"),
                 "square": gen.square("Q", 3)}
        for name, text in files.items():
            with open(os.path.join(workdir, f"{name}.cat"), "w", encoding="utf-8") as fh:
                fh.write(text)

    def setup(self):
        from gpquiver import io as gio
        from gpquiver.nakayama import NakayamaEngine

        cats = {n: gio.parse_category(os.path.join(self.workdir, f"{n}.cat"))
                for n in LARGE_Q_SIZES}
        engines = {n: NakayamaEngine(c, CUTOFF) for n, c in cats.items()}
        warm(engines.values())
        return cats, engines

    def _rep(self, name, rng, sizes, tag, monic=False):
        if name == "square":
            dims, mats = gen.square_rep(rng, sizes)
        else:
            dims, mats = gen.linear_rep(rng, sizes, monic)
        path = os.path.join(self.workdir, f"{tag}.rep")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.rep_text(f"{name}.cat", dims, mats))
        return path

    def groups(self, state):
        """One group per round: a representation pair on each of A5, A6 and
        the square, so every run measures whole rounds of the same mix."""
        from gpquiver import io as gio

        cats = state[0]
        r = 0
        while True:
            def make(r=r):
                ops = []
                for name in LARGE_Q_SIZES:
                    rng = random.Random(f"large-q:{self.seed}:{r}:{name}")
                    F = gio.parse_module(self._rep(name, rng, LARGE_Q_SIZES[name], "F",
                                                   name in LARGE_Q_MONIC),
                                         category=cats[name])
                    G = gio.parse_module(self._rep(name, rng, LARGE_Q_SMALL[name], "G"),
                                         category=cats[name])
                    ops += self.ops(name, F, G, state)
                return ops

            yield make
            r += 1

    def ops(self, name, F, G, state) -> list:
        from gpquiver.gorenstein import is_gproj_P, is_monic
        from gpquiver.modules import ext_dim, hom_basis

        cats, engines = state
        cat, eng = cats[name], engines[name]
        if name == "square":
            ctx = {"gproj_check": lambda: is_gproj_P(F, eng).member}
        else:
            # on a relation-free category monic = Gorenstein P-projective
            ctx = {"gproj_check": lambda: is_monic(F).member}
        ops = module_ops(F, eng, ctx)
        ops += [r_nu_minus_op(F, eng, 1), r_nu_minus_op(F, eng, 2)]

        def check_ext(v):
            chi = len(hom_basis(F, G)) - v + ext_dim(F, G, 2, CUTOFF).dim
            return chi == euler_form(cat, F.dims, G.dims)

        ops.append(Op("ext1", lambda: ext_dim(F, G, 1, CUTOFF).dim, check_ext, lambda v: v))
        return ops


# -- cli-cats --------------------------------------------------------------

FIXTURE_REPS = ("a2_mono.rep", "a2_incl.rep", "a2_zero.rep")


def cli_choices(gen_dir: str) -> list:
    """Per slot of a CLI cycle, the commands a seed may pick from. Every
    choice in a slot reaches the same layers, so no per-layer metric of a
    traced run depends on the seed."""
    def fx(n):
        return os.path.join(FIXTURES, n)

    def g(n):
        return os.path.join(gen_dir, n)

    return [
        [["gdim", g("l4.cat")]],
        [["cat-info", g("l3.cat")]],
        [["gdim", g("sqsq.cat")]],
        # the four commands of acceptance test 10
        [["gdim", fx("square.cat")]],
        [["check", "monic", fx("a2_zero.rep")]],
        [["check", "gp", fx("m322.rep"), "--factor", "right"]],
        [["check", "discrepancy", fx("m322.rep")]],
        [["resolve", fx(r)] for r in FIXTURE_REPS],
        [["nakayama", fx(r)] for r in FIXTURE_REPS],
        [["derived", fx(r), "--functor", "l_nu", "--degree", "1"] for r in FIXTURE_REPS],
        [["derived", fx(r), "--functor", "r_nu_minus", "--degree", "1"] for r in FIXTURE_REPS],
        [["check", "gproj-p", fx(r)] for r in FIXTURE_REPS],
        # P_proj reaches the based counit and its splitting whatever the seed
        [["check", "lifted", fx("m322.rep"), "--factor", "right", "--x", "P_proj", "--f", f]
         for f in ("gp", "proj")],
    ]


def write_cli_inputs(gen_dir: str):
    files = {
        # Lambda(k^4) needs length 5 to be seen finite; at 6 one run takes ~95 s
        "l4.cat": gen.exterior_algebra(4, "F5", 5),
        "l3.cat": gen.exterior_algebra(3, "Q", 5),
        "square3.cat": gen.square("Q", 3),
        "sqsq.cat": gen.tensor("square3.cat", "square3.cat"),
    }
    for name, text in files.items():
        with open(os.path.join(gen_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def op_key(argv) -> str:
    return " ".join(os.path.basename(a) for a in argv)


def run_cli_inprocess(argv):
    """cli.main in this process, its stdout captured: (exit code, stdout)."""
    from gpquiver import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_cli_subprocess(argv, cwd):
    proc = subprocess.Popen([sys.executable, "-m", "gpquiver.cli", *argv], cwd=cwd,
                            env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=OP_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out


class CliCats:
    """One fixed cycle of CLI commands, repeated."""

    name = "cli-cats"

    def __init__(self, seed: int, workdir: str, in_process: bool = False):
        self.workdir = workdir
        self.in_process = in_process
        write_cli_inputs(workdir)
        rng = random.Random(f"cli-cats:{seed}")
        cycle = [rng.choice(slot) for slot in cli_choices(workdir)]
        rng.shuffle(cycle)
        self.cycle = cycle
        with open(EXPECTED, encoding="utf-8") as fh:
            self.expected = json.load(fh)

    def run(self, argv):
        if self.in_process:
            return run_cli_inprocess(argv)
        return run_cli_subprocess(argv, self.workdir)

    def setup(self):
        """A no-op `fixtures` call: interpreter start-up, import and report."""
        code, out = self.run(["fixtures"])
        if code != 0 or "files" not in json.loads(out)["result"]:
            raise RuntimeError("gpquiver fixtures failed")

    def groups(self, state):
        def op(argv):
            key = op_key(argv)
            want = self.expected[key]

            def summary(v):
                return [v[0], json.loads(v[1])["result"]]

            return Op(key, lambda: self.run(argv),
                      lambda v: summary(v) == [want["exit"], want["result"]], summary)

        while True:
            yield lambda: [op(argv) for argv in self.cycle]


WORKLOADS = {"cli-cats": CliCats, "sweep-fp": SweepFp, "large-q": LargeQ}


class SetupSampler:
    """Set-up times taken at even steps of the timed phase, so that their
    median sees the same stretch of a drifting machine as the ops do.

    `sample()` returns the seconds of one set-up in a fresh process. Call
    `tick()` often during the phase; `median()` tops the samples up to `n`
    if the phase ended early."""

    def __init__(self, sample, seconds: float, n: int = SETUP_SAMPLES):
        self.sample, self.n, self.step = sample, n, seconds / n
        self.times = []
        self.start = time.perf_counter()

    def tick(self):
        due = (time.perf_counter() - self.start) >= len(self.times) * self.step
        if due and len(self.times) < self.n:
            self.times.append(self.sample())

    def median(self) -> float:
        while len(self.times) < self.n:
            self.times.append(self.sample())
        return median(self.times)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
