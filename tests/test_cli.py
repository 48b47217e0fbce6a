import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time

import pytest

from dense_builder import dense_builder
from gpquiver import category, cli
from gpquiver import io as gio
from test_sharing import built_once, coefficient_resolutions

FIXTURES = cli.fixtures_dir()


def fix(name):
    return os.path.join(FIXTURES, name)


def run(argv, capsys):
    status = cli.main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def run_json(argv, capsys):
    status, out, err = run(argv, capsys)
    assert err == ""
    return status, json.loads(out)


def test_cat_info(capsys):
    status, report = run_json(["cat-info", fix("ka2.cat")], capsys)
    assert status == 0
    r = report["result"]
    assert r["objects"] == ["1", "2"]
    assert r["hom_dims"] == {"1->1": 1, "1->2": 1, "2->2": 1}
    assert r["hom_bases"]["1->2"] == ["a"]


def test_gdim_square_is_two(capsys):
    status, report = run_json(["gdim", fix("square.cat")], capsys)
    assert status == 0
    assert report["result"]["value"] == 2
    assert report["result"]["status"] == "finite"


def test_gdim_unknown_exits_inconclusive(capsys):
    status, report = run_json(["gdim", fix("ex322.cat"), "--cutoff", "6"], capsys)
    assert status == 2
    assert report["result"]["value"] is None


def test_resolve_and_nakayama(capsys):
    status, report = run_json(["resolve", fix("a2_zero.rep")], capsys)
    assert status == 0
    assert report["result"]["completed"] is True
    status, report = run_json(["nakayama", fix("a2_mono.rep")], capsys)
    assert status == 0
    assert report["result"]["nu_dims"] == {"1": 1, "2": 0}
    assert report["result"]["lambda_iso"] is True


def test_derived_functor_dims(capsys):
    status, report = run_json(
        ["derived", fix("a2_zero.rep"), "--functor", "l_nu", "--degree", "1"],
        capsys)
    assert status == 0
    dims = report["result"]["dims"]
    assert dims["1"] == {"dim": 0, "conclusive": True}
    assert dims["2"] == {"dim": 1, "conclusive": True}


def test_tor_and_ext(capsys):
    status, report = run_json(
        ["tor", fix("a2_zero.rep"), "--object", "2", "--degree", "1"], capsys)
    assert status == 0
    assert report["result"]["dim"] == 1
    status, report = run_json(
        ["ext", fix("a2_mono.rep"), "--object", "1", "--degree", "1"], capsys)
    assert status == 0
    assert report["result"]["dim"] == 0


def test_check_monic_reports_kernel_witness(capsys):
    status, report = run_json(["check", "monic", fix("a2_zero.rep")], capsys)
    assert status == 0
    v = report["result"]["verdict"]
    assert v["member"] == "no"
    assert v["certificate"]["object"] == "2"
    assert v["certificate"]["kernel_dim"] == 1
    assert "a" in v["certificate"]["witness"]


def test_check_gproj_p_agrees_with_monicity(capsys):
    for name, expect in [("a2_mono.rep", "yes"), ("a2_incl.rep", "yes"),
                         ("a2_zero.rep", "no")]:
        status, report = run_json(["check", "gproj-p", fix(name)], capsys)
        assert status == 0
        assert report["result"]["verdict"]["member"] == expect


def test_check_gp_depends_on_factorization(capsys):
    status, report = run_json(
        ["check", "gp", fix("m322.rep"), "--factor", "right"], capsys)
    assert status == 0
    assert report["result"]["verdict"]["member"] == "yes"
    status, report = run_json(
        ["check", "gp", fix("m322.rep"), "--factor", "left"], capsys)
    assert status == 0
    assert report["result"]["verdict"]["member"] == "no"


def test_check_discrepancy(monkeypatch, capsys):
    seen = coefficient_resolutions(monkeypatch)
    status, report = run_json(["check", "discrepancy", fix("m322.rep")], capsys)
    # each factor is one factorization's direction and the other's base, and
    # each coefficient module of the two is resolved at most once
    assert len({key[0] for key in seen}) == 2 and built_once(seen)
    assert status == 0
    r = report["result"]
    assert r["discrepancy"] is True
    assert r["first"]["verdict"]["member"] == "yes"
    assert r["second"]["verdict"]["member"] == "no"
    rows = r["second"]["restriction_exactness"]
    bad = [row for row in rows if not row["exact"]]
    assert bad and bad[0]["image_rank"] != bad[0]["kernel_dim"]


def test_check_lifted(capsys):
    status, report = run_json(
        ["check", "lifted", fix("a2_incl.rep"), "--x", "gproj_P", "--f", "proj"],
        capsys)
    assert status == 0
    assert report["result"]["verdict"]["member"] == "yes"


def test_check_lifted_missing_flags_is_input_error(capsys):
    status, out, err = run(["check", "lifted", fix("a2_incl.rep")], capsys)
    assert status == 1
    assert "error" in err


def test_profile_base(capsys):
    status, report = run_json(["profile-base", fix("ka2.cat")], capsys)
    assert status == 0
    assert report["result"]["g"] == 1
    status, report = run_json(["profile-base", fix("ex322.cat")], capsys)
    assert status == 2
    assert report["result"]["status"] == "unknown"


def test_enumerate(capsys):
    status, report = run_json(
        ["enumerate", fix("ka2.cat"), "--field", "F2", "--dims", "1"], capsys)
    assert status == 0
    assert report["result"]["count"] == 5
    status, report = run_json(
        ["enumerate", fix("ka2.cat"), "--field", "F2", "--dims", "1,0"], capsys)
    assert status == 0
    assert report["result"]["count"] == 2


def test_enumerate_rejects_rationals(capsys):
    status, out, err = run(
        ["enumerate", fix("ka2.cat"), "--dims", "1"], capsys)
    assert status == 1
    assert "error" in err


def test_fixtures_listing(capsys):
    status, report = run_json(["fixtures"], capsys)
    assert status == 0
    files = report["result"]["files"]
    assert "ka2.cat" in files and "m322.rep" in files
    assert all(len(d) == 64 for d in files.values())


def test_fixtures_report_names_no_checkout_directory(capsys):
    # two checkouts of one commit give the same bytes
    _, out, _ = run(["fixtures"], capsys)
    assert os.path.dirname(FIXTURES) not in out
    assert json.loads(out)["result"]["directory"] == "gpquiver/fixtures"


def test_parse_error_exit_code_and_message(tmp_path, capsys):
    p = tmp_path / "broken.cat"
    p.write_text("[category]\nobjects = 1\narrow = oops\n")
    status, out, err = run(["cat-info", str(p)], capsys)
    assert status == 1
    assert "broken.cat:3" in err


def _fixture_lines(name):
    with open(fix(name), encoding="utf-8") as fh:
        return fh.read().splitlines()


def _bad_input(tmp_path, name, lines):
    """Fixtures copied into tmp_path, with name replaced by lines."""
    for f in ("ka2.cat", "cyclic3.cat"):
        shutil.copy(fix(f), tmp_path / f)
    (tmp_path / name).parent.mkdir(exist_ok=True)
    (tmp_path / name).write_text("\n".join(lines) + "\n")
    return str(tmp_path / name)


def _assert_error_at(argv, where, capsys):
    status, out, err = run(argv, capsys)
    assert (status, out) == (1, "")
    assert err.startswith(f"error: {where}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_relation_naming_an_undeclared_arrow_is_a_parse_error(tmp_path, capsys):
    lines = _fixture_lines("cyclic3.cat")
    del lines[6]  # arrow = d0: c0 -> c2
    path = _bad_input(tmp_path, "cyclic3.cat", lines)
    _assert_error_at(["cat-info", path], f"{path}:9", capsys)


def test_relation_that_does_not_compose_is_a_parse_error(tmp_path, capsys):
    lines = _fixture_lines("cyclic3.cat")
    at = lines.index("relation = 1 d1*d2")
    lines[at] = "relation = 1 d0*d2"  # d2 ends at c1, d0 starts at c0
    path = _bad_input(tmp_path, "cyclic3.cat", lines)
    _assert_error_at(["cat-info", path], f"{path}:{at + 1}", capsys)


# an arrow with an unknown endpoint, a second arrow a, a second object 1
@pytest.mark.parametrize("bad", ["arrow = x: 1 -> c", "arrow = a: 1 -> 2", "objects = 1, 1"])
def test_bad_arrow_or_objects_line_is_a_parse_error_at_its_line(bad, tmp_path, capsys):
    lines = _fixture_lines("ka2.cat")
    at = next(i for i, line in enumerate(lines) if line.startswith("arrow")) + 1
    lines.insert(at, bad)
    path = _bad_input(tmp_path, "ka2.cat", lines)
    _assert_error_at(["cat-info", path], f"{path}:{at + 1}", capsys)


def test_empty_file_reference_is_a_parse_error(tmp_path, capsys):
    path = _bad_input(tmp_path, "t.cat", ["[tensor]", "left =", "right = ka2.cat"])
    _assert_error_at(["cat-info", path], f"{path}:2", capsys)


@pytest.mark.parametrize("dim_line", ["dim 9 = 1", "dim 1 = -1"])
def test_bad_dim_line_is_a_parse_error_at_its_line(dim_line, tmp_path, capsys):
    lines = _fixture_lines("a2_mono.rep")
    at = next(i for i, line in enumerate(lines) if line.startswith("dim 1"))
    lines[at] = dim_line
    path = _bad_input(tmp_path, "bad.rep", lines)
    _assert_error_at(["resolve", path], f"{path}:{at + 1}", capsys)


def test_violated_relation_cites_a_mat_line_and_the_relation(tmp_path, capsys):
    path = _bad_input(tmp_path, "bad.rep", [
        "[representation]", "category = cyclic3.cat", "dim c0 = 1", "dim c1 = 1",
        "dim c2 = 1", "mat d2 = 0", "mat d1 = 1", "mat d0 = 1"])
    err = _assert_error_at(["resolve", path], f"{path}:7", capsys)
    assert err.endswith("relation 1 d0*d1 violated\n")


# a missing key is cited at the header of its section
@pytest.mark.parametrize("name, lines, at", [
    ("t.cat", ["[tensor]", "left = ka2.cat"], 1),
    ("c.cat", ["# no field", "[category]", "objects = 1"], 2),
    ("c.cat", ["[category]", "field = Q"], 1),
    ("m.rep", ["", "[representation]", "dim 1 = 1"], 2),
], ids=["tensor-right", "field", "objects", "category"])
def test_missing_key_cites_its_section_header(name, lines, at, tmp_path, capsys):
    path = _bad_input(tmp_path, name, lines)
    cmd = "resolve" if name.endswith(".rep") else "cat-info"
    _assert_error_at([cmd, path], f"{path}:{at}", capsys)


# a key that may appear once is refused at its second line, not last-wins
@pytest.mark.parametrize("name, lines, at", [
    ("c.cat", ["[category]", "field = Q", "objects = 1", "objects = 1, 2"], 4),
    ("c.cat", ["[category]", "field = Q", "length_cutoff = 4", "objects = 1",
               "length_cutoff = 5"], 5),
    ("t.cat", ["[tensor]", "left = ka2.cat", "right = ka2.cat", "left = cyclic3.cat"], 4),
    ("m.rep", ["[representation]", "category = ka2.cat", "dim 1 = 1", "dim 2 = 1",
               "mat a = 1", "mat  a = 0"], 6),
    ("m.rep", ["[representation]", "category = ka2.cat", "dim 1 = 1", "dim 2 = 2",
               "dim 2 = 1"], 5),
], ids=["objects", "length-cutoff", "tensor-left", "mat", "dim"])
def test_repeated_key_is_a_parse_error_at_the_repeat(name, lines, at, tmp_path, capsys):
    path = _bad_input(tmp_path, name, lines)
    cmd = ["check", "monic"] if name.endswith(".rep") else ["cat-info"]
    err = _assert_error_at([*cmd, path], f"{path}:{at}", capsys)
    assert "repeated key" in err


def test_bad_field_flag_names_the_flag_not_the_file(capsys):
    status, out, err = run(["gdim", fix("ka2.cat"), "--field", "F4"], capsys)
    assert (status, out) == (1, "")
    assert err == "error: bad --field 'F4': modulus 4 is not prime\n"


@pytest.mark.parametrize("name", ["c.cat", "m.rep"])
def test_file_without_a_section_cites_no_line(name, tmp_path, capsys):
    path = _bad_input(tmp_path, name, ["# a comment only"])
    cmd = "resolve" if name.endswith(".rep") else "cat-info"
    err = _assert_error_at([cmd, path], path, capsys)
    assert err.endswith(" section\n")


def test_missing_file_exit_code(capsys):
    status, out, err = run(["gdim", "/no/such/file.cat"], capsys)
    assert status == 1
    assert err.startswith("error:")


def test_out_flag_writes_report(tmp_path, capsys):
    dest = tmp_path / "r.json"
    status, out, err = run(["gdim", fix("ka2.cat"), "--out", str(dest)], capsys)
    assert status == 0
    assert out == ""
    report = json.loads(dest.read_text())
    assert report["result"]["value"] == 1


def test_out_to_a_missing_directory_is_input_error(tmp_path, capsys):
    status, out, err = run(["fixtures", "--out", str(tmp_path / "missing" / "r.json")], capsys)
    assert (status, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    texts = []
    for i in range(2):
        dest = tmp_path / f"r{i}.json"
        status, _, _ = run(
            ["check", "gp", fix("m322.rep"), "--factor", "right",
             "--out", str(dest)], capsys)
        assert status == 0
        texts.append(dest.read_bytes())
    assert texts[0] == texts[1]


def test_q_report_of_derived_l_nu_on_m322_is_pinned(tmp_path, capsys):
    """Over Q, L_1 nu of the witness module on ex322 (x) ex322_op runs its
    coefficient resolutions to the default cutoff with Fraction elimination.
    The expected bytes were recorded at commit df77480, whose `rref` and
    `@` still visited every cell; the zero-skipping kernels must reproduce
    them exactly."""
    dest = tmp_path / "r.json"
    status, _, _ = run(["derived", fix("m322.rep"), "--functor", "l_nu", "--degree", "1",
                        "--out", str(dest)], capsys)
    assert status == 0
    pinned = os.path.join(os.path.dirname(__file__), "pinned_derived_l_nu_1.json")
    with open(pinned, "rb") as fh:
        assert dest.read_bytes() == fh.read()


def test_report_digests_every_file_read(tmp_path, capsys):
    for name in ("m322.rep", "ex322_tensor.cat", "ex322.cat", "ex322_op.cat"):
        shutil.copy(fix(name), tmp_path / name)
    argv = ["check", "gp", str(tmp_path / "m322.rep"), "--factor", "left"]
    _, before = run_json(argv, capsys)
    assert before["inputs"] == {name: gio.file_digest(tmp_path / name) for name in (
        "m322.rep", "ex322_tensor.cat", "ex322.cat", "ex322_op.cat")}
    with open(tmp_path / "ex322.cat", "a", encoding="utf-8") as fh:
        fh.write("# a comment changes the bytes, not the category\n")
    _, after = run_json(argv, capsys)
    assert after["inputs"]["ex322.cat"] != before["inputs"]["ex322.cat"]
    assert {k: v for k, v in after["inputs"].items() if k != "ex322.cat"} == {
        k: v for k, v in before["inputs"].items() if k != "ex322.cat"}
    assert after["result"] == before["result"]


def test_report_inputs_are_keyed_relative_to_the_named_file(tmp_path, capsys):
    # both factor files are called f.cat; each keeps its own digest
    for side, name in (("left", "ex322.cat"), ("right", "ex322_op.cat")):
        (tmp_path / side).mkdir()
        shutil.copy(fix(name), tmp_path / side / "f.cat")
    (tmp_path / "t.cat").write_text("[tensor]\nleft = left/f.cat\nright = right/f.cat\n")
    (tmp_path / "reps").mkdir()
    with open(fix("m322.rep"), encoding="utf-8") as fh:
        rep = fh.read().replace("ex322_tensor.cat", "../t.cat")
    (tmp_path / "reps" / "m.rep").write_text(rep)
    _, report = run_json(["cat-info", str(tmp_path / "t.cat")], capsys)
    assert report["inputs"] == {
        "t.cat": gio.file_digest(tmp_path / "t.cat"),
        "left/f.cat": gio.file_digest(fix("ex322.cat")),
        "right/f.cat": gio.file_digest(fix("ex322_op.cat"))}
    _, report = run_json(["check", "p-proj", str(tmp_path / "reps" / "m.rep")], capsys)
    assert sorted(report["inputs"]) == ["../left/f.cat", "../right/f.cat", "../t.cat", "m.rep"]


def test_cutoff_below_one_is_input_error(tmp_path, capsys):
    status, out, err = run(["gdim", fix("square.cat"), "--cutoff", "0"], capsys)
    assert status == 1
    assert out == ""
    assert "cutoff must be at least 1" in err
    p = tmp_path / "zero.cat"
    p.write_text("[category]\nfield = Q\nlength_cutoff = 0\nobjects = 1\n")
    status, out, err = run(["cat-info", str(p)], capsys)
    assert status == 1
    assert "zero.cat:3" in err and "at least 1" in err


def test_cutoff_is_the_resolution_depth_only(capsys):
    # the square needs paths of length 2 and a length cutoff of 3; --cutoff
    # bounds the resolutions and leaves the file's length_cutoff = 6 alone
    status, report = run_json(["gdim", fix("square.cat"), "--cutoff", "2"], capsys)
    assert status == 0
    assert report["cutoff"] == 2
    assert report["result"]["value"] == 2


def test_cutoff_leaves_tensor_factors_at_their_file_length(monkeypatch, capsys):
    lengths = []
    build = category.build_category

    def recording_build(quiver, relations, field, length_cutoff):
        lengths.append(length_cutoff)
        return build(quiver, relations, field, length_cutoff)

    monkeypatch.setattr(category, "build_category", recording_build)
    start = time.perf_counter()
    status, report = run_json(
        ["check", "gp", fix("m322.rep"), "--factor", "left", "--cutoff", "4"], capsys)
    # rebuilding the factors at length 4 took about 40 s
    assert time.perf_counter() - start < 20
    # ex322.cat and ex322_op.cat as written, their tensor at the sum, then
    # opposites of these; every build in the process is recorded
    assert lengths[:3] == [2, 2, 4] and set(lengths) == {2, 4}
    assert report["cutoff"] == 4 and status == 0


def test_possibly_infinite_is_input_error_naming_the_length_cutoff(tmp_path, capsys):
    p = tmp_path / "square2.cat"
    with open(fix("square.cat"), encoding="utf-8") as fh:
        p.write_text(fh.read().replace("length_cutoff = 6", "length_cutoff = 2"))
    for argv in (["gdim", str(p)], ["gdim", str(p), "--cutoff", "8"]):
        status, out, err = run(argv, capsys)
        assert status == 1
        assert out == ""
        assert "possibly-infinite" in err and "length cutoff 2" in err


def exterior_text(n, field, length_cutoff):
    """Lambda(k^n): one object, loops x1..xn, x*x = 0 and x*y + y*x = 0."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    lines = ["[category]", f"field = {field}", f"length_cutoff = {length_cutoff}", "objects = o"]
    lines += [f"arrow = {x}: o -> o" for x in xs]
    lines += [f"relation = 1 {x}*{x}" for x in xs]
    lines += [f"relation = 1 {xs[j]}*{xs[i]} + 1 {xs[i]}*{xs[j]}"
              for i in range(n) for j in range(i + 1, n)]
    return "\n".join(lines) + "\n"


def test_too_many_relation_translates_is_input_error(tmp_path, capsys):
    # 364,090 relation translates of length up to 8: the completion lists
    # none of them
    p = tmp_path / "l4.cat"
    p.write_text(exterior_text(4, "F2", 8))
    start = time.perf_counter()
    status, report = run_json(["cat-info", str(p)], capsys)
    assert time.perf_counter() - start < 5
    assert (status, report["result"]["total_dim"]) == (0, 16)


def test_too_many_paths_is_input_error_asking_for_a_lower_cutoff(tmp_path, capsys):
    # 349,525 paths up to length 9, of which 16 are normal
    p = tmp_path / "l4.cat"
    p.write_text(exterior_text(4, "F5", 9))
    status, report = run_json(["cat-info", str(p)], capsys)
    assert (status, report["result"]["total_dim"]) == (0, 16)


# a longer cutoff, also the default 16, costs a finite category nothing
@pytest.mark.parametrize("keep_cutoff", [True, False], ids=["length-cutoff", "default"])
def test_too_many_paths_cite_the_cutoff_line(keep_cutoff, tmp_path, capsys):
    lines = exterior_text(4, "F5", 9).splitlines()
    if not keep_cutoff:
        lines.remove("length_cutoff = 9")
    path = _bad_input(tmp_path, "l4.cat", lines)
    status, report = run_json(["cat-info", path], capsys)
    assert (status, report["result"]["total_dim"]) == (0, 16)


def test_possibly_infinite_cites_the_cutoff_line(tmp_path, capsys):
    path = _bad_input(tmp_path, "loop.cat", [
        "[category]", "field = Q", "objects = o", "arrow = x: o -> o", "length_cutoff = 3"])
    err = _assert_error_at(["gdim", path], f"{path}:5", capsys)
    assert "possibly-infinite" in err and "length cutoff 3" in err


def loop_lines(relations, length_cutoff):
    lines = ["[category]", "field = Q", "objects = o", "arrow = x: o -> o"]
    lines += [f"relation = {r}" for r in relations]
    return lines + [f"length_cutoff = {length_cutoff}"]


def test_relation_longer_than_the_cutoff_that_does_not_hold_cites_the_cutoff_line(
        tmp_path, capsys):
    # x^5 = 0 is longer than the cutoff 4, no translate of it fits, and
    # still x*x = x*x*x gives x^2 = x^5 = 0: k[x]/(x^2), dim 2
    path = _bad_input(tmp_path, "loop.cat", loop_lines(["1 x*x + -1 x*x*x", "1 x*x*x*x*x"], 4))
    status, report = run_json(["cat-info", path], capsys)
    assert (status, report["result"]["total_dim"]) == (0, 2)
    assert report["result"]["hom_bases"] == {"o->o": ["id", "x"]}


@pytest.mark.parametrize("relations, length_cutoff", [
    (["1 x*x + -1 x*x*x", "1 x*x*x*x*x"], 5),
    (["1 x*x", "1 x*x*x*x*x"], 4),  # the long relation already reduces to 0
], ids=["raised-cutoff", "already-zero"])
def test_relation_longer_than_the_cutoff_that_holds_builds(relations, length_cutoff,
                                                           tmp_path, capsys):
    path = _bad_input(tmp_path, "loop.cat", loop_lines(relations, length_cutoff))
    status, report = run_json(["cat-info", path], capsys)
    assert (status, report["result"]["total_dim"]) == (0, 2)


def test_too_many_tensor_paths_name_the_factors_and_advise_nothing(tmp_path, capsys):
    # Lambda(k^3) (x) Lambda(k^3), 335,923 paths up to length 7: Lambda(k^6)
    # up to signs, self-injective of dimension 64
    for name in ("l3.cat", "l3b.cat"):
        (tmp_path / name).write_text(exterior_text(3, "F5", 4))
    path = _bad_input(tmp_path, "t.cat", ["# Lambda(k^3) twice", "[tensor]",
                                          "right = l3b.cat", "left = l3.cat"])
    status, report = run_json(["cat-info", path], capsys)
    assert (status, report["result"]["total_dim"]) == (0, 64)
    status, report = run_json(["gdim", path], capsys)
    assert (status, report["result"]["value"]) == (0, 0)


def test_exterior_algebra_on_six_generators_builds(tmp_path, capsys):
    # 335,923 paths up to length 7; dim 64, self-injective
    p = tmp_path / "l6.cat"
    p.write_text(exterior_text(6, "F5", 7))
    status, report = run_json(["gdim", str(p)], capsys)
    assert (status, report["result"]["value"]) == (0, 0)


RUN_CLI = "import sys\nfrom gpquiver import cli\nsys.exit(cli.main(sys.argv[1:]))\n"


def _limited_memory():
    # 1 GB of address space, as `ulimit -v 1000000`
    resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))


def truncated_loop_lines(n):
    """k[x]/(x^n): n normal paths, up to x^(n-1)."""
    return ["[category]", "field = F3", "objects = o", "arrow = x: o -> o",
            f"relation = 1 {'*'.join('x' * n)}", f"length_cutoff = {n + 1}"]


# an ideal with no finite Groebner basis, and a tensor too big to list:
# each factor k[x]/(x^400) builds, and its square has 160,000 basis paths
@pytest.mark.parametrize("lines, at", [
    (["[category]", "field = F2", "objects = o", "arrow = a0: o -> o", "arrow = a1: o -> o",
      "arrow = a2: o -> o", "relation = 1 a2*a2*a0 + 1 a2*a2",
      "relation = 1 a2*a1*a2 + 1 a2*a1*a0", "length_cutoff = 4"], 9),
    (["[tensor]", "left = x400.cat", "right = x400.cat"], 1),
], ids=["completion", "tensor"])
def test_work_past_the_bound_is_input_error_at_the_cutoff_line(lines, at, tmp_path):
    (tmp_path / "x400.cat").write_text("\n".join(truncated_loop_lines(400)) + "\n")
    path = _bad_input(tmp_path, "big.cat", lines)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", RUN_CLI, "cat-info", path], env=env,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_limited_memory)
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: {path}:{at}: gave up after {category.MAX_WORK} units ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_tensor_over_different_fields_cites_its_header(tmp_path, capsys):
    (tmp_path / "ka2_f3.cat").write_text(
        "\n".join(_fixture_lines("ka2.cat")).replace("field = Q", "field = F3"))
    path = _bad_input(tmp_path, "t.cat", ["# Q and F3", "[tensor]",
                                          "left = ka2.cat", "right = ka2_f3.cat"])
    err = _assert_error_at(["cat-info", path], f"{path}:2", capsys)
    assert err.endswith("tensor factors over different fields\n")


# tensor names are "left|right", so a '|' inside a factor's names can make
# two objects or two arrows of the product coincide: refused at the header
@pytest.mark.parametrize("kind, left, right", [
    ("object", ["objects = x|y, x", "arrow = p: x -> x|y"],
     ["objects = z, y|z", "arrow = q: z -> y|z"]),
    ("arrow", ["objects = x|y, w", "arrow = x: w -> x|y"],
     ["objects = y|z, s", "arrow = z: s -> y|z"]),
], ids=["object", "arrow"])
def test_tensor_name_clash_cites_its_header(kind, left, right, tmp_path, capsys):
    for name, lines in (("l.cat", left), ("r.cat", right)):
        _bad_input(tmp_path, name, ["[category]", "field = Q", *lines])
    path = _bad_input(tmp_path, "t.cat", ["[tensor]", "left = l.cat", "right = r.cat"])
    err = _assert_error_at(["cat-info", path], f"{path}:1", capsys)
    assert err == f"error: {path}:1: {kind} name clash in tensor product\n"


# a file a [tensor] or a representation references is cited by its path
# from the directory the command was run in, as the named file is
@pytest.mark.parametrize("name, lines, cmd", [
    ("t_bad.cat", ["[tensor]", "left = bad.cat", "right = ../ka2.cat"], "cat-info"),
    ("r_bad.rep", ["[representation]", "category = bad.cat", "dim 1 = 1"], "resolve"),
], ids=["tensor", "representation"])
def test_error_in_a_referenced_file_cites_it_as_given(name, lines, cmd, tmp_path,
                                                      monkeypatch, capsys):
    _bad_input(tmp_path, "refs/bad.cat", ["[category]", "field = Q", "objects = 1, 2",
                                         "relation = 1 zz", "arrow = a: 1 -> 2"])
    (tmp_path / "refs" / name).write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    err = _assert_error_at([cmd, f"refs/{name}"], "refs/bad.cat:4", capsys)
    assert err.endswith("unknown arrow 'zz' in relation\n")


CATEGORY_COMMANDS = [["cat-info"], ["gdim"], ["profile-base"], ["enumerate", "--dims", "1"]]
MODULE_COMMANDS = [
    ["resolve"], ["nakayama"], ["derived", "--functor", "l_nu", "--degree", "1"],
    ["tor", "--object", "1", "--degree", "1"], ["ext", "--object", "1", "--degree", "1"],
    *(["check", kind] for kind in ("gproj-p", "monic", "gp", "p-proj", "discrepancy")),
    ["check", "lifted", "--x", "P_proj", "--f", "gp"]]


@pytest.mark.parametrize("cmd", CATEGORY_COMMANDS, ids=lambda c: c[0])
def test_representation_given_for_a_category(cmd, capsys):
    err = _assert_error_at([*cmd, fix("a2_mono.rep")], f"{fix('a2_mono.rep')}:2", capsys)
    assert err.endswith(": expected a [category] file, found [representation]\n")


@pytest.mark.parametrize("cmd", MODULE_COMMANDS, ids=lambda c: "-".join(c[:2]))
@pytest.mark.parametrize("name, section", [("ka2.cat", "category"),
                                           ("ex322_tensor.cat", "tensor")])
def test_category_given_for_a_representation(cmd, name, section, capsys):
    err = _assert_error_at([*cmd, fix(name)], f"{fix(name)}:2", capsys)
    assert err.endswith(f": expected a [representation] file, found [{section}]\n")


@pytest.mark.parametrize("command, kind", [(c[0], "category") for c in CATEGORY_COMMANDS]
                         + [(c[0], "representation") for c in MODULE_COMMANDS[:6]])
def test_path_help_names_the_file_kind(command, kind, capsys):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    assert re.search(rf"^  path +{kind} file$", capsys.readouterr().out, re.M)


def generated_categories(tmp_path):
    (tmp_path / "l3.cat").write_text(exterior_text(3, "Q", 5))
    (tmp_path / "l4.cat").write_text(exterior_text(4, "F5", 5))
    with open(fix("square.cat"), encoding="utf-8") as fh:
        (tmp_path / "square3.cat").write_text(
            fh.read().replace("length_cutoff = 6", "length_cutoff = 3"))
    (tmp_path / "sqsq.cat").write_text("[tensor]\nleft = square3.cat\nright = square3.cat\n")
    return [str(tmp_path / n) for n in ("l3.cat", "l4.cat", "sqsq.cat")]


def test_cat_info_agrees_with_dense_builder(tmp_path, capsys):
    # every fixture, Lambda(k^3) over Q and Lambda(k^4) over F5 at length 5,
    # and square (x) square give byte-identical reports on both builders
    paths = [fix(n) for n in cli.list_fixtures() if n.endswith(".cat")]
    paths += generated_categories(tmp_path)
    for path in paths:
        sparse = run(["cat-info", path], capsys)
        with dense_builder():
            dense = run(["cat-info", path], capsys)
        assert sparse == dense and sparse[0] == 0, path


@pytest.mark.parametrize("argv", [
    ["check", "bogus", fix("a2_incl.rep")],
    ["derived", fix("a2_incl.rep"), "--functor", "l_nu", "--degree", "x"],
    ["gdim"],
])
def test_usage_errors_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ext", fix("a2_zero.rep"), "--object", "9", "--degree", "1"],
    ["derived", fix("a2_zero.rep"), "--functor", "l_nu", "--degree", "-1"],
    ["check", "gp", fix("m322.rep"), "--factor", "left", "--declared-g", "-3"],
    ["enumerate", fix("ka2.cat"), "--dims", "-1", "--field", "F2"],
], ids=["ext-unknown-object", "derived-negative-degree", "negative-declared-g",
        "enumerate-negative-dims"])
def test_bad_inputs_exit_one_with_an_error_line(argv, capsys):
    status, out, err = run(argv, capsys)
    assert (status, out) == (1, "")
    assert err.startswith("error: ")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out
