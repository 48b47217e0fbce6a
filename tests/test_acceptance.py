"""End-to-end acceptance checks: each test states a contract the package
must meet, with the runtime bounds where the contract fixes one."""

import json
import random
import time

import crosscheck
import derived_oracle
from conftest import F2, F5, chain, cyclic3, ka2, ka3, square, tensor322, module322

from gpquiver import cli
from gpquiver.basechange import Factorization
from gpquiver.gorenstein import (
    discrepancy_probe,
    enumerate_representations,
    is_gproj_P,
    is_monic,
)
from gpquiver.linalg import Matrix
from gpquiver.modules import (
    Module,
    ModuleMap,
    basis_cover,
    cokernel,
    direct_sum_modules,
    hom_basis,
    projective_resolution,
    representable,
    zero_module,
    _derived_dim,
)
from gpquiver.nakayama import NakayamaEngine


def random_matrix(rng, field, rows, cols, span):
    return Matrix(field, [[field.of(rng.randrange(span)) for _ in range(cols)]
                          for _ in range(rows)], rows, cols)


def random_rep(cat, rng, dmax, span):
    """Uniform random representation; only valid on relation-free categories."""
    dims = {c: rng.randrange(dmax + 1) for c in cat.objects}
    mats = {a: random_matrix(rng, cat.field, dims[t], dims[s], span)
            for a, (s, t) in cat.arrow_map.items()}
    return Module(cat, dims, mats)


def random_module(cat, rng, max_gens=2):
    """Random cokernel of a map between projectives; respects relations."""
    f = cat.field
    gens0 = [rng.choice(cat.objects) for _ in range(rng.randrange(1, max_gens + 2))]
    gens1 = [rng.choice(cat.objects) for _ in range(rng.randrange(0, max_gens + 1))]
    P0, _, _ = direct_sum_modules([representable(cat, c) for c in gens0])
    if gens1:
        P1, _, _ = direct_sum_modules([representable(cat, c) for c in gens1])
    else:
        P1 = zero_module(cat)
    phi = ModuleMap(P1, P0, {}, check=False)
    span = getattr(f, "p", 7)
    for b in hom_basis(P1, P0):
        coef = f.of(rng.randrange(span))
        phi = phi + ModuleMap(P1, P0, {c: b.mats[c].scale(coef)
                                       for c in cat.objects}, check=False)
    M, _ = cokernel(phi)
    return M


def test_acceptance_01_arrow_category_formulas_and_membership():
    C = ka2(F5)
    eng = NakayamaEngine(C)
    rng = random.Random(20260826)
    start = time.perf_counter()
    for _ in range(50):
        F = random_rep(C, rng, 4, 5)
        f = F.mats["a"]
        r = f.rank()
        nu = eng.nu(F).module
        assert nu.dims == {"1": F.dims["2"], "2": F.dims["2"] - r}
        l1 = eng.left_derived_nu_dims(F, 1)
        assert l1["1"].dim == 0 and l1["1"].conclusive
        assert l1["2"].dim == F.dims["1"] - r and l1["2"].conclusive
        verdict = is_gproj_P(F, eng)
        assert verdict.member == ("yes" if r == F.dims["1"] else "no")
    assert time.perf_counter() - start < 1.0


def test_acceptance_02_gorenstein_dimension_table():
    start = time.perf_counter()
    expected = [(ka3(), 1), (square(), 2), (chain(2), 2), (chain(3), 3),
                (cyclic3(), 0)]
    for cat, g in expected:
        got = NakayamaEngine(cat, 16).gorenstein_dimension()
        assert got.status == "finite" and got.value == g
    assert time.perf_counter() - start < 2.0


def test_acceptance_03_monic_iff_gproj_exhaustive_a3():
    C = ka3(F2)
    eng = NakayamaEngine(C)
    start = time.perf_counter()
    n = 0
    for F in enumerate_representations(C, 2):
        assert is_gproj_P(F, eng).member == is_monic(F).member
        n += 1
    assert n == 499
    assert time.perf_counter() - start < 30.0


def _pullback_characterization(F):
    """Beta and gamma mono, and the square of F is a pullback diagram."""
    f = F.cat.field
    al, mu, be, ga = F.mats["al"], F.mats["mu"], F.mats["be"], F.mats["ga"]
    if be.rank() < be.cols or ga.rank() < ga.cols:
        return False
    stacked = Matrix(f, al.data + mu.data, al.rows + mu.rows, al.cols)
    if stacked.rank() < stacked.cols:
        return False
    pair = be.hstack(ga.scale(f.neg(f.one())))
    _, ker, _ = pair.kernel_basis()
    if stacked.cols != ker.cols:
        return False
    return stacked.hstack(ker).rank() == stacked.cols


def test_acceptance_04_route_agreement_on_square():
    C = square(F2)
    eng = NakayamaEngine(C)
    for F in enumerate_representations(C, 1):
        fast = is_gproj_P(F, eng)
        full = is_gproj_P(F, eng, force_full=True)
        assert fast.member == full.member
        assert fast.member in ("yes", "no")
        assert (fast.member == "yes") == _pullback_characterization(F)


def test_acceptance_05_bundled_discrepancy_module():
    T = tensor322()
    M = module322(T)
    out = discrepancy_probe(M, Factorization(T, "right"), Factorization(T, "left"))
    assert out["first"]["verdict"].member == "yes"
    assert out["second"]["verdict"].member == "no"
    assert out["discrepancy"] is True
    rows = [r for r in out["second"]["restriction_exactness"] if not r["exact"]]
    assert rows and rows[0]["image_rank"] != rows[0]["kernel_dim"]


def test_acceptance_06_tor_independent_of_resolution_padding():
    C = ka3(F5)
    Cop = C.opposite()
    rng = random.Random(6)
    for _ in range(20):
        M = random_module(Cop, rng)
        F = random_rep(C, rng, 3, 5)
        res_min = projective_resolution(F, 16)
        res_pad = derived_oracle.padded_resolution(F, 16)
        for i in range(5):
            a = _derived_dim(res_min, M, i, tensor=True)
            b = _derived_dim(res_pad, M, i, tensor=True)
            assert a.conclusive and b.conclusive
            assert a.dim == b.dim


def test_acceptance_07_adjunction_integrity():
    cats = [ka2(), ka3(), square(), chain(2), cyclic3()]
    for C in cats:
        eng = NakayamaEngine(C)
        rng = random.Random(17)
        for _ in range(50):
            parts = {c: rng.randrange(0, 3) for c in C.objects}
            iso = crosscheck.iso_nu_ishriek(eng, parts)
            iso.validate()
            assert iso.is_iso()
            P = crosscheck.i_shriek(eng, parts).module
            assert eng.lambda_unit(P).is_iso()

            F = random_module(C, rng, max_gens=1)
            eps = basis_cover(F).epi
            eta = crosscheck.unit_parts(eng, F.dims)
            for c in C.objects:
                assert eps.mats[c] @ eta[c] == Matrix.identity(C.field, F.dims[c])

            nuF = eng.nu(F)
            nm = eng.nu_minus(nuF.module)
            lam = eng.lambda_unit(F, nuF, nm)
            nu_lam = eng.nu_map(nuF, eng.nu(nm.module), lam)
            sig = crosscheck.sigma_counit(eng, nuF.module, nm, eng.nu(nm.module))
            assert nu_lam.then(sig) == ModuleMap.identity(nuF.module)


def test_acceptance_08_right_derived_nu_minus_route_crosscheck():
    for C in (ka2(F2), square(F2)):
        eng = NakayamaEngine(C, 8)
        for F in enumerate_representations(C, 1):
            for i in (1, 2):
                by_ext = eng.right_derived_nu_minus_dims(F, i)
                by_cores = eng.right_derived_nu_minus(F, i)
                for c in C.objects:
                    assert by_ext[c].conclusive
                    assert by_ext[c].dim == by_cores.dims[c]


def test_acceptance_09_gp_resolution_dimension_bound():
    C = square(F5)
    eng = NakayamaEngine(C)
    rng = random.Random(9)
    for _ in range(30):
        F = random_module(C, rng)
        k, _ = crosscheck.gp_resolution_dimension(F, eng)
        assert k is not None and k <= 2


def test_acceptance_10_byte_identical_reports(tmp_path):
    fixture = cli.fixtures_dir()
    runs = []
    for attempt in range(2):
        blob = []
        for argv in (
            ["gdim", f"{fixture}/square.cat"],
            ["check", "monic", f"{fixture}/a2_zero.rep"],
            ["check", "gp", f"{fixture}/m322.rep", "--factor", "right"],
            ["check", "discrepancy", f"{fixture}/m322.rep"],
        ):
            dest = tmp_path / f"{attempt}_{len(blob)}.json"
            assert cli.main(argv + ["--out", str(dest)]) == 0
            blob.append(dest.read_bytes())
        runs.append(blob)
    assert runs[0] == runs[1]
    for raw in runs[0]:
        assert json.loads(raw)["schema"] == "gpquiver-report/1"
