"""Certificate-producing membership tests for Gorenstein-projectivity classes.

Every test returns a Verdict: a yes/no answer backed by a checkable
certificate, or an explicit "inconclusive" carrying the blocking cutoff.
"""

from __future__ import annotations

import itertools

from .basechange import Factorization
from .category import BoundQuiverCategory
from .linalg import Matrix, PrimeField
from .modules import (
    Cover,
    Module,
    ModuleMap,
    ModuleError,
    _derived_dim,
    _derived_either_side,
    _map_columns,
    _maps_from_columns,
    dual,
    hom_basis,
    projective_cover,
    projective_resolution,
    representable,
)
from .nakayama import NakayamaEngine


class Verdict:
    def __init__(self, member: str, certificate: dict | None = None,
                 hypotheses: dict | None = None):
        if member not in ("yes", "no", "inconclusive"):
            raise ValueError(f"bad verdict value {member!r}")
        self.member = member
        self.certificate = {} if certificate is None else certificate
        self.hypotheses = {} if hypotheses is None else hypotheses

    @property
    def is_yes(self) -> bool:
        return self.member == "yes"


class BaseGorensteinProfile:
    def __init__(self, base: BoundQuiverCategory, g: int | None, status: str,
                 cutoff: int | None = None, tables: dict | None = None):
        self.base = base
        self.g = g
        self.status = status  # "verified-at-cutoff" | "declared" | "unknown"
        self.cutoff = cutoff
        self.tables = {} if tables is None else tables


def self_injective_dimension(base: BoundQuiverCategory, cutoff: int = 16) -> BaseGorensteinProfile:
    """Profile the base algebra: the two-sided projective dimension of its
    dual regular bimodule, when that settles below the cutoff."""
    g = NakayamaEngine(base, cutoff).gorenstein_dimension()
    return BaseGorensteinProfile(base, g.value, "verified-at-cutoff" if g.finite else "unknown",
                                 cutoff, {"left": g.left_pdims, "right": g.right_pdims})


def declared_profile(base: BoundQuiverCategory, g: int) -> BaseGorensteinProfile:
    if g < 0:
        raise ModuleError(f"a self-injective dimension is at least 0, got {g}")
    return BaseGorensteinProfile(base, g, "declared")


# -- Gorenstein P-projectivity ---------------------------------------------


def _vanishing_scan(cert: dict, key: str, degrees, objects, row_at,
                    failure: dict) -> str:
    """Tabulate derived-functor dimensions into cert[key], degree by degree.

    row_at(i) gives the DerivedValue of each object at degree i, either as a
    dict (a row computed whole, recorded whole) or as a function of the
    object (evaluated object by object, recorded up to the first failure).
    The scan stops at the first conclusive nonzero dimension and records it
    in cert["failure"] after the entries of `failure`. Returns "no" then,
    else "yes" when every value was conclusive and "inconclusive" otherwise.
    """
    table = cert[key] = {}
    settled = True
    for i in degrees:
        at = row_at(i)
        if isinstance(at, dict):
            table[i] = {c: v.dim for c, v in at.items()}
            at = at.__getitem__
        row = table.setdefault(i, {})
        for c in objects:
            v = at(c)
            row[c] = v.dim
            if v.conclusive and v.dim > 0:
                cert["failure"] = dict(failure, degree=i, object=c, dim=v.dim)
                return "no"
            settled = settled and v.conclusive
    return "yes" if settled else "inconclusive"


def is_gproj_P(f_mod: Module, engine: NakayamaEngine, force_full: bool = False) -> Verdict:
    """Membership of F in the Gorenstein P-projective representations.

    If the coefficient bimodule has finite projective dimension g on both
    sides the vanishing of L_i nu for 1 <= i <= g is decisive; otherwise the
    full three-part criterion runs up to the cutoff:
      (a) L_i nu (F) = 0 for i > 0,
      (b) R^i nu^- (nu F) = 0 for i > 0,
      (c) the unit F -> nu^- nu F is an isomorphism.
    """
    cat = engine.cat
    cutoff = engine.cutoff
    g = engine.gorenstein_dimension()
    hyp = {"P_iwanaga_gorenstein": g.value, "cutoff": cutoff}
    l_nu = {"functor": "L_nu"}
    if g.finite and not force_full:
        cert = {"route": "shortcut"}
        member = _vanishing_scan(cert, "l_nu_dims", range(1, g.value + 1), cat.objects,
                                 lambda i: engine.left_derived_nu_dims(f_mod, i), l_nu)
        return Verdict(member, cert, hyp)

    cert = {"route": "full"}

    # (a) vanishing of L_i nu, each read as left_derived_nu_dims reads it
    res_f = projective_resolution(f_mod, cutoff)
    a = _vanishing_scan(
        cert, "l_nu_dims", res_f.settled_degrees(), cat.objects,
        lambda i: lambda c: _derived_either_side(engine.res_right(c), f_mod, i, True,
                                                 lambda: (res_f, engine.coef_right(c))),
        l_nu)
    if a == "no":
        return Verdict("no", cert, hyp)

    # (b) vanishing of the right derived inverse on nu F, falling back to the
    # dual side where the coefficient resolution is truncated
    nu_applied = engine.nu(f_mod)
    nuF = nu_applied.module
    res_dual = projective_resolution(dual(nuF), cutoff)
    b = _vanishing_scan(
        cert, "r_nu_minus_dims", res_dual.settled_degrees(), cat.objects,
        lambda i: lambda c: _derived_either_side(engine.res_left(c), nuF, i, False,
                                                 lambda: (res_dual, dual(engine.coef_left(c)))),
        {"functor": "R_nu_minus"})
    if b == "no":
        return Verdict("no", cert, hyp)

    # (c) the unit is an isomorphism
    lam = engine.lambda_unit(f_mod, nu_applied)
    lam_table = {
        c: {"rank": lam.mats[c].rank(), "src_dim": f_mod.dims[c],
            "dst_dim": lam.dst.dims[c]}
        for c in cat.objects
    }
    cert["lambda_ranks"] = lam_table
    # an iso exactly where every component is square of full rank
    bad = next((c for c, t in lam_table.items()
                if not t["rank"] == t["src_dim"] == t["dst_dim"]), None)
    if bad is not None:
        cert["failure"] = {"functor": "lambda", "object": bad}
        return Verdict("no", cert, hyp)

    if a == b == "yes" and res_f.completed and res_dual.completed:
        return Verdict("yes", cert, hyp)
    cert["blocking_cutoff"] = cutoff
    return Verdict("inconclusive", cert, hyp)


def is_monic(f_mod: Module) -> Verdict:
    """Injectivity of the assembled incoming-arrow matrix at every vertex.

    Only meaningful over a relation-free category, where it coincides with
    Gorenstein P-projectivity."""
    cat = f_mod.cat
    if cat.relations:
        raise ModuleError(
            "monicity characterizes Gorenstein P-projectivity only for "
            "relation-free categories; use is_gproj_P instead"
        )
    fieldk = cat.field
    ranks = {}
    for i in cat.objects:
        incoming = sorted(a for a, (s, t) in cat.arrow_map.items() if t == i)
        acc = Matrix.zeros(fieldk, f_mod.dims[i], 0)
        for a in incoming:
            acc = acc.hstack(f_mod.mats[a])
        rk, ker_basis, _ = acc.kernel_basis()
        ranks[i] = {"arrows": incoming, "domain_dim": acc.cols, "rank": rk}
        if rk < acc.cols:
            witness = {}
            off = 0
            for a in incoming:
                w = f_mod.mats[a].cols
                witness[a] = [fieldk.fmt(ker_basis.data[off + r][0]) for r in range(w)]
                off += w
            return Verdict(
                "no",
                {"object": i, "kernel_dim": acc.cols - rk, "witness": witness,
                 "ranks": ranks},
            )
    return Verdict("yes", {"ranks": ranks})


# -- splitting of the counit P(F) -> F -------------------------------------


def splitting_section(eps: ModuleMap) -> ModuleMap | None:
    """A module map s with s . eps = id on the target of eps, if one exists."""
    F = eps.dst
    if F.is_zero():
        return ModuleMap(F, eps.src, {}, check=False)
    basis = hom_basis(F, eps.src)
    if not basis:
        return None
    coeffs = _map_columns([b.then(eps) for b in basis]).solve(
        _map_columns([ModuleMap.identity(F)]))
    if coeffs is None:  # the identity is not in the span
        return None
    return _maps_from_columns(F, eps.src, basis.columns @ coeffs)[0]


def is_p_projective(f_mod: Module, engine: NakayamaEngine,
                    fact: Factorization | None = None) -> Verdict:
    """Is F P-projective, a summand of P(F) = i_! i^* F?

    Over the field i_!(V) = (+)_c C(c,-) (x) V_c, so P-projective means
    projective, which the projective cover decides (is_base_projective and
    its certificate). Over a base algebra (fact given) P-projective is
    weaker than projective, and the test is whether the based counit
    P(F) -> F splits.
    """
    if fact is None:
        return is_base_projective(f_mod)
    PF, eps = fact.p_counit_based(f_mod)
    cert = {"test": "counit-splitting", "p_dims": dict(PF.dims)}
    if splitting_section(eps) is None:
        return Verdict("no", cert)
    cert["section_found"] = True
    return Verdict("yes", cert)


# -- Gorenstein projectivity over the base ---------------------------------


def is_base_projective(n_mod: Module, cov: Cover | None = None) -> Verdict:
    """Projective exactly when the syzygy of the projective cover, made here
    unless given (a resolution's stage 0), is zero."""
    cov = cov or projective_cover(n_mod)
    kernel_dims = {c: k.cols for c, k in cov.syzygy.items()}
    if not any(kernel_dims.values()):
        return Verdict("yes", {"reason": "projective",
                               "cover_summands": [c for c, _ in cov.summands]})
    return Verdict("no", {"reason": "cover-kernel", "kernel_dims": kernel_dims})


def base_gp(n_mod: Module, profile: BaseGorensteinProfile, cutoff: int = 16) -> Verdict:
    """Gorenstein projectivity over the base algebra.

    Projectives pass outright. With a finite self-injective dimension g the
    test is Ext^i(N, representables) = 0 for 1 <= i <= g; without one, an
    all-zero Ext scan below the cutoff is reported as inconclusive, never as
    a bare yes.
    """
    base = n_mod.cat
    hyp = {"base_self_injective_dimension": profile.g,
           "profile_status": profile.status, "cutoff": cutoff}
    res = projective_resolution(n_mod, cutoff)
    res.reaches(0)
    proj = is_base_projective(n_mod, res.stages[0])
    if proj.is_yes:
        return Verdict("yes", proj.certificate, hyp)
    known = profile.g is not None
    if not known and res.completed:
        # finite projective dimension: Gorenstein projective would force
        # projective, and the cover kernel is nonzero
        return Verdict("no", {"reason": "finite-nonzero-projective-dimension",
                              "pdim": res.pdim()}, hyp)
    cert = {}
    degrees = range(1, profile.g + 1) if known else res.settled_degrees()
    member = _vanishing_scan(
        cert, "ext_dims", degrees, base.objects,
        lambda i: lambda c: _derived_dim(res, representable(base, c), i, tensor=False), {})
    if member == "no" or (known and member == "yes"):
        return Verdict(member, cert, hyp)
    cert["blocking_cutoff"] = cutoff
    if not known:
        # an unknown profile never turns an all-zero scan into a yes
        cert["note"] = "Ext vanishing verified only below the cutoff"
    return Verdict("inconclusive", cert, hyp)


# -- Gorenstein projectivity of a based representation ---------------------


def _components_of_i_star_nu(f_mod: Module, engine: NakayamaEngine,
                             fact: Factorization | None) -> tuple:
    """(restriction to the C-direction, base-valued components of i^*(nu F))."""
    if fact is None:
        return f_mod, dict(engine.nu(f_mod).module.dims)
    fibs = fact.fibers(f_mod)
    return fact.restrict_to_cat(f_mod, fibs), fact.i_star_nu_components(f_mod, engine, fibs)


def _gp_regime(engine: NakayamaEngine, profile: BaseGorensteinProfile | None) -> str:
    g = engine.gorenstein_dimension()
    if g.finite:
        return "P-Iwanaga-Gorenstein"
    if profile is not None and profile.g is not None:
        return "base-Proj-Gorenstein"
    return "membership in GP(GProj_P) only"


def _merge_sides(cert: dict, hyp: dict, xv: Verdict, comps: dict,
                 engine: NakayamaEngine, f_test) -> Verdict:
    """Record the X-side verdict and the F-side verdicts of the components
    in cert and merge them: any no is a no, all yes is a yes, anything else
    is inconclusive at the engine's cutoff. f_test is None over the field,
    where every component passes."""
    cert["x_side"] = {"member": xv.member, "certificate": xv.certificate}
    members = [xv.member]
    if f_test is None:
        cert["f_side"] = {"base": "field", "component_dims": comps, "member": "yes"}
    else:
        fv = {c: f_test(comps[c]) for c in engine.cat.objects}
        cert["f_side"] = {c: {"member": v.member, "certificate": v.certificate}
                          for c, v in fv.items()}
        members += [v.member for v in fv.values()]
    if "no" in members:
        return Verdict("no", cert, hyp)
    if all(m == "yes" for m in members):
        return Verdict("yes", cert, hyp)
    cert["blocking_cutoff"] = engine.cutoff
    return Verdict("inconclusive", cert, hyp)


def is_gp_functor(f_mod: Module, engine: NakayamaEngine,
                  profile: BaseGorensteinProfile | None = None,
                  fact: Factorization | None = None,
                  force_full: bool = False) -> Verdict:
    """Gorenstein projectivity of a representation with base-algebra values:
    the restriction must be Gorenstein P-projective and every base component
    of i^*(nu F) must be Gorenstein projective over the base."""
    restriction, comps = _components_of_i_star_nu(f_mod, engine, fact)
    xv = is_gproj_P(restriction, engine, force_full=force_full)
    if fact is not None and profile is None:
        profile = self_injective_dimension(fact.base, engine.cutoff)
    hyp = {"interpretation": _gp_regime(engine, profile),
           "P_iwanaga_gorenstein": engine.gorenstein_dimension().value,
           "base_self_injective_dimension": profile.g if profile else 0,
           "cutoff": engine.cutoff}
    f_test = None if fact is None else (lambda n: base_gp(n, profile, engine.cutoff))
    return _merge_sides({}, hyp, xv, comps, engine, f_test)


def lifted_class_membership(f_mod: Module, x_class: str, f_class: str,
                            engine: NakayamaEngine,
                            profile: BaseGorensteinProfile | None = None,
                            fact: Factorization | None = None) -> Verdict:
    """Membership in one of the four admissible lifted classes: the X-side
    condition on the restriction crossed with the F-side condition on the
    base components of i^*(nu F)."""
    if x_class not in ("gproj_P", "P_proj"):
        raise ModuleError(f"unknown x_class {x_class!r}")
    if f_class not in ("gp", "proj"):
        raise ModuleError(f"unknown f_class {f_class!r}")
    restriction, comps = _components_of_i_star_nu(f_mod, engine, fact)
    if x_class == "gproj_P":
        xv = is_gproj_P(restriction, engine)
    else:
        xv = is_p_projective(f_mod, engine, fact)
    hyp = {"cutoff": engine.cutoff}
    f_test = None
    if fact is not None:
        if profile is None:
            profile = self_injective_dimension(fact.base, engine.cutoff)
        hyp["base_self_injective_dimension"] = profile.g
        f_test = (is_base_projective if f_class == "proj"
                  else lambda n: base_gp(n, profile, engine.cutoff))
    return _merge_sides({"x_class": x_class, "f_class": f_class}, hyp, xv, comps,
                        engine, f_test)


# -- discrepancy probe ------------------------------------------------------


def exactness_table(f_mod: Module) -> list:
    """For each composable arrow pair with vanishing composite, compare the
    image of the first action with the kernel of the second."""
    cat = f_mod.cat
    out = []
    for a in sorted(cat.arrow_map):
        s, t = cat.arrow_map[a]
        for b in sorted(cat.arrow_map):
            s2, t2 = cat.arrow_map[b]
            if s2 != t:
                continue
            red = cat.reduce_word(s, (a, b))
            if any(red.values()):
                continue
            rank_a = f_mod.mats[a].rank()
            ker_b = f_mod.mats[b].cols - f_mod.mats[b].rank()
            out.append({"first": a, "second": b,
                        "image_rank": rank_a, "kernel_dim": ker_b,
                        "exact": rank_a == ker_b})
    return out


def discrepancy_probe(m_mod: Module, fact_a: Factorization, fact_b: Factorization,
                      cutoff: int = 16) -> dict:
    """Membership of the same total module under two tensor factorizations;
    a (member, non-member) pair witnesses a nonzero discrepancy class."""
    if fact_a.total != m_mod.cat or fact_b.total != m_mod.cat:
        raise ModuleError("factorizations must present the module's category")
    # each factor is one factorization's Nakayama direction and the other's
    # base, and both sides read its coefficient data from its memo
    out = {}
    for tag, fact in (("first", fact_a), ("second", fact_b)):
        v = is_gp_functor(m_mod, NakayamaEngine(fact.cat, cutoff),
                          self_injective_dimension(fact.base, cutoff), fact)
        entry = {"verdict": v,
                 "cat_side": fact.cat_side,
                 "restriction_exactness": exactness_table(fact.restrict_to_cat(m_mod))}
        out[tag] = entry
    out["discrepancy"] = (
        {out["first"]["verdict"].member, out["second"]["verdict"].member}
        == {"yes", "no"}
    )
    return out


# -- exhaustive enumeration -------------------------------------------------

ENUMERATION_LIMIT = 2_000_000


def enumerate_representations(cat: BoundQuiverCategory, dim_bounds,
                              limit: int = ENUMERATION_LIMIT):
    """All representations over a prime field with per-object dimensions up
    to the given bounds, in a fixed deterministic order; relations are
    enforced by filtering. Refuses when the raw matrix-assignment count
    (before relation filtering) exceeds the limit."""
    f = cat.field
    if not isinstance(f, PrimeField):
        raise ModuleError("exhaustive enumeration needs a finite prime field")
    p = f.p
    if isinstance(dim_bounds, int):
        bounds = {c: dim_bounds for c in cat.objects}
    else:
        bounds = dict(dim_bounds)
    if any(b < 0 for b in bounds.values()):
        raise ModuleError(f"dimension bounds must be at least 0, got {bounds}")
    arrows = sorted(cat.arrow_map)
    total = 0
    dim_choices = list(itertools.product(*(range(bounds[c] + 1) for c in cat.objects)))
    for choice in dim_choices:
        dims = dict(zip(cat.objects, choice))
        cells = sum(dims[t] * dims[s] for a in arrows for s, t in [cat.arrow_map[a]])
        total += p ** cells
        if total > limit:
            raise ModuleError(
                f"raw enumeration space exceeds the documented limit {limit}"
            )
    for choice in dim_choices:
        dims = dict(zip(cat.objects, choice))
        shapes = [(a, dims[cat.arrow_map[a][1]], dims[cat.arrow_map[a][0]]) for a in arrows]
        cell_counts = [r * c for _, r, c in shapes]
        for assignment in itertools.product(*(range(p ** n) for n in cell_counts)):
            mats = {}
            for (a, r, c), code in zip(shapes, assignment):
                entries = []
                rem = code
                for _ in range(r * c):
                    entries.append(rem % p)
                    rem //= p
                mats[a] = Matrix(f, [entries[i * c:(i + 1) * c] for i in range(r)], r, c)
            try:
                m = Module(cat, dims, mats)
            except ModuleError:  # a relation fails
                continue
            yield m

