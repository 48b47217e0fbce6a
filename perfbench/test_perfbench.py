"""Fast tests of the benchmark itself: generators, the tail rule, and the
tracing wrappers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import random
import sys

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__))]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, TARGETS, Tracer  # noqa: E402

sys.path.insert(0, workloads.SRC)

from gpquiver import io as gio  # noqa: E402
from gpquiver import modules  # noqa: E402
from gpquiver.gorenstein import is_gproj_P  # noqa: E402
from gpquiver.linalg import Matrix  # noqa: E402
from gpquiver.nakayama import NakayamaEngine  # noqa: E402


def _inputs(seed):
    rng = random.Random(seed)
    return (gen.linear_rep(rng, (3, 4, 4, 4, 5), False),
            gen.square_rep(rng, (3, 4, 4, 5)), gen.module_shapes(("a", "b", "c"), rng))


def test_generators_are_deterministic_per_seed():
    assert _inputs(7) == _inputs(7)
    assert _inputs(7) != _inputs(8)


def test_cli_cycle_is_deterministic_per_seed(tmp_path):
    def cycle(seed):
        return [workloads.op_key(argv) for argv in workloads.CliCats(seed, str(tmp_path)).cycle]

    assert cycle(3) == cycle(3)
    assert cycle(3) != cycle(4)
    assert len(cycle(3)) == len(workloads.cli_choices(str(tmp_path)))


def test_cokernel_modules_are_deterministic_and_valid():
    cat = gio.parse_category(os.path.join(workloads.FIXTURES, "square.cat"), None, "F3")
    shapes = gen.module_shapes(cat.objects, random.Random(1))
    for top, rel in shapes[:4]:
        a = gen.cokernel_module(cat, random.Random(5), top, rel)
        b = gen.cokernel_module(cat, random.Random(5), top, rel)
        assert a == b and not a.is_zero()
        a.validate()


def test_generated_representations_parse_and_commute(tmp_path):
    rng = random.Random(2)
    (tmp_path / "square.cat").write_text(gen.square("Q", 3))
    (tmp_path / "A5.cat").write_text(gen.linear_quiver(5, "Q"))
    for cat_file, (dims, mats) in (("square.cat", gen.square_rep(rng, (3, 4, 4, 5))),
                                   ("A5.cat", gen.linear_rep(rng, (3, 4, 4, 4, 5), True))):
        path = tmp_path / "m.rep"
        path.write_text(gen.rep_text(cat_file, dims, mats))
        m = gio.parse_module(str(path))     # validates relations
        assert 16 <= m.total_dim() <= 24


def test_tensor_pool_matches_its_records():
    cat = gio.parse_category(os.path.join(workloads.FIXTURES, f"{workloads.TENSOR}.cat"),
                             None, "F3")
    with open(workloads.EXPECTED_TENSOR, encoding="utf-8") as fh:
        records = json.load(fh)
    shapes = gen.module_shapes(cat.objects, random.Random(0), n_top=1)
    assert len(records) == len(shapes) * workloads.TENSOR_POOL
    for top, rel in shapes:
        for k in range(workloads.TENSOR_POOL):
            F, key = workloads.tensor_pool_module(cat, top, rel, k)
            assert records[key]["module"] == workloads.fingerprint(F)
            assert set(records[key]) == {"module", *workloads.TENSOR_RECORDED}


def test_recorded_checks_reject_other_results_and_modules():
    op = workloads.Op("gp_right", lambda: "yes", None, lambda v: v)
    record = {"module": "abc", "gp_right": "yes"}
    assert workloads.with_record(op, record, "abc").check("yes")
    assert not workloads.with_record(op, record, "abc").check("no")
    assert not workloads.with_record(op, record, "abd").check("yes")
    assert not workloads.with_record(op, None, "abc").check("yes")


def test_repeats_and_setup_samples_fall_between_calls():
    calls = []

    def group(g):
        return lambda: [workloads.Op(f"op{g}", lambda: calls.append(g) or g, None,
                                     lambda v: v)]

    setups = workloads.SetupSampler(lambda: calls.append("setup") or 1.0, seconds=0.0, n=3)
    ph = workloads.run_ops(iter([group(0), group(1), group(2)]), n_groups=2, repeats=2,
                           between=setups.tick)
    assert [c for c in calls if c != "setup"] == [0, 0, 1, 1]
    assert calls.count("setup") == 3 and calls[0] == 0
    assert setups.median() == 1.0
    assert ph.groups == 2 and ph.failed == 0 and len(ph.latencies) == 2
    assert ph.summaries == [("op0", 0), ("op1", 1)]


def test_tail_rule_keeps_ten_samples_beyond():
    assert run.tail_latency(list(range(19))) is None
    value, pct, n = run.tail_latency(list(range(20)))
    assert (value, pct, n) == (9, 50.0, 20)
    rng = random.Random(0)
    samples = [rng.random() for _ in range(137)]
    value, pct, n = run.tail_latency(samples)
    assert sum(s > value for s in samples) == 10
    assert n == 137 and abs(pct - 100 * 127 / 137) < 1e-9


def test_euler_form_on_a2():
    cat = gio.parse_category(os.path.join(workloads.FIXTURES, "ka2.cat"))
    # Hom(S1, S2) = 0 and Ext^1(S1, S2) = 1 for the arrow 1 -> 2
    assert workloads.euler_form(cat, {"1": 1, "2": 0}, {"1": 0, "2": 1}) == -1
    assert workloads.euler_form(cat, {"1": 1, "2": 1}, {"1": 1, "2": 1}) == 1


def test_every_layer_metric_has_a_span():
    fed = {span for _, span in PER_LAYER.values()}
    assert fed <= set(TARGETS)


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"] for m in bench["per_layer"]} == set(Tracer().metrics()) | {
        "trace.overhead_frac"}
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    assert run.metric_units(True)["linalg.rref_cells"] == "count"
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def _results():
    cat = gio.parse_category(os.path.join(workloads.FIXTURES, "square.cat"), None, "F3")
    eng = NakayamaEngine(cat, 8)
    out = []
    for top, rel in gen.module_shapes(cat.objects, random.Random(3))[:6]:
        F = gen.cokernel_module(cat, random.Random(4), top, rel)
        v = is_gproj_P(F, eng, force_full=True)
        out.append((v.member, v.certificate, eng.nu(F).module.dim_vector(),
                    modules.projective_resolution(F, 8).length()))
    return out


def test_wrappers_are_transparent():
    originals = (Matrix.rref, modules.projective_resolution, modules.hom_basis)
    plain = _results()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        traced = _results()
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert plain == traced
    assert (Matrix.rref, modules.projective_resolution, modules.hom_basis) == originals
    m = tracer.metrics()
    assert m["linalg.rref_calls"] > 0 and m["modules.resolution_calls"] > 0
    assert m["category.build_calls"] == 2          # the parse and the opposite
    for name, start, end, parent, child, _, _ in tracer.spans:
        assert start <= end and 0 <= child <= end - start + 1e-9
        assert parent < 0 or tracer.spans[parent][1] <= start
