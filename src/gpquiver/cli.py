"""Command-line interface: file ingestion, dispatch, deterministic JSON
reports.

Exit codes: 0 for definite results, 2 for inconclusive ones (raise the
resolution cutoff `--cutoff` and retry), 1 for input errors.  A category
whose hom spaces still grow at its path-length cutoff ("possibly-infinite")
is an input error: that cutoff is the file's `length_cutoff`, which
`--cutoff` does not touch, so the remedy is to raise it in the file.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io as gio

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def fixtures_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def list_fixtures() -> list:
    d = fixtures_dir()
    return sorted(
        f for f in os.listdir(d) if f.endswith(".cat") or f.endswith(".rep")
    )


def verdict_payload(v) -> dict:
    return {"member": v.member, "certificate": v.certificate,
            "hypotheses": v.hypotheses}


def _verdict_exit(member: str) -> int:
    return EXIT_INCONCLUSIVE if member == "inconclusive" else EXIT_OK


def _load_category(args):
    cat = gio.parse_category(args.path, field_override=args.field)
    args.inputs = cat.source_files
    return cat


def _load_module(args):
    m = gio.parse_module(args.path, field_override=args.field)
    args.inputs = (args.path, *m.cat.source_files)
    return m


def _engine_for(cat, args):
    from .nakayama import NakayamaEngine
    return NakayamaEngine(cat, gio.effective_cutoff(args.cutoff))


def _factorization(cat, side):
    from .basechange import Factorization
    from .modules import ModuleError
    if cat.factors is None:
        raise ModuleError("this check needs a tensor-category input (--factor)")
    return Factorization(cat, side)


def cmd_cat_info(args):
    cat = _load_category(args)
    hom = {}
    basis = {}
    for c in cat.objects:
        for d in cat.objects:
            n = cat.hom_dim(c, d)
            if n:
                hom[f"{c}->{d}"] = n
                basis[f"{c}->{d}"] = [gio.format_path(p) or "id"
                                      for p in cat.hom_basis_paths(c, d)]
    payload = {
        "objects": list(cat.objects),
        "arrows": {a: list(st) for a, st in cat.arrow_map.items()},
        "relations": [gio.format_relation(cat.field, r) for r in cat.relations],
        "total_dim": cat.total_dim(),
        "hom_dims": hom,
        "hom_bases": basis,
        "tensor": cat.factors is not None,
    }
    return payload, EXIT_OK


def cmd_gdim(args):
    cat = _load_category(args)
    g = _engine_for(cat, args).gorenstein_dimension()
    payload = {"value": g.value, "status": g.status,
               "left_pdims": g.left_pdims, "right_pdims": g.right_pdims}
    return payload, (EXIT_OK if g.finite else EXIT_INCONCLUSIVE)


def cmd_resolve(args):
    from .modules import projective_resolution
    m = _load_module(args)
    res = projective_resolution(m, gio.effective_cutoff(args.cutoff))
    payload = {
        "completed": res.completed,
        "stages": [res.stage_dims(i) for i in range(res.length() + 1)],
    }
    return payload, (EXIT_OK if res.completed else EXIT_INCONCLUSIVE)


def cmd_nakayama(args):
    m = _load_module(args)
    eng = _engine_for(m.cat, args)
    payload = {
        "nu_dims": eng.nu(m).module.dim_vector(),
        "nu_minus_dims": eng.nu_minus(m).module.dim_vector(),
        "lambda_iso": eng.lambda_unit(m).is_iso(),
    }
    return payload, EXIT_OK


def cmd_derived(args):
    m = _load_module(args)
    eng = _engine_for(m.cat, args)
    if args.functor == "l_nu":
        vals = eng.left_derived_nu_dims(m, args.degree)
    else:
        vals = eng.right_derived_nu_minus_dims(m, args.degree)
    payload = {
        "functor": args.functor,
        "degree": args.degree,
        "dims": {c: {"dim": v.dim, "conclusive": v.conclusive} for c, v in vals.items()},
    }
    ok = all(v.conclusive for v in vals.values())
    return payload, (EXIT_OK if ok else EXIT_INCONCLUSIVE)


def _dim_payload(args, v):
    payload = {"object": args.object, "degree": args.degree,
               "dim": v.dim, "conclusive": v.conclusive}
    return payload, (EXIT_OK if v.conclusive else EXIT_INCONCLUSIVE)


def cmd_tor(args):
    from .modules import tor_dim
    m = _load_module(args)
    eng = _engine_for(m.cat, args)
    return _dim_payload(args, tor_dim(eng.coef_right(args.object), m, args.degree, eng.cutoff))


def cmd_ext(args):
    from .modules import ext_dim
    m = _load_module(args)
    eng = _engine_for(m.cat, args)
    return _dim_payload(args, ext_dim(eng.coef_left(args.object), m, args.degree, eng.cutoff))


def cmd_check(args):
    from .gorenstein import (declared_profile, discrepancy_probe, is_gp_functor, is_gproj_P,
                             is_monic, is_p_projective, lifted_class_membership)
    from .modules import ModuleError
    m = _load_module(args)
    kind = args.kind
    if kind == "discrepancy":
        if m.cat.factors is None:
            raise ModuleError("check discrepancy needs a tensor-category input")
        out = discrepancy_probe(m, _factorization(m.cat, "right"),
                                _factorization(m.cat, "left"), gio.effective_cutoff(args.cutoff))
        payload = {"check": kind, "discrepancy": out["discrepancy"]}
        for tag in ("first", "second"):
            payload[tag] = dict(out[tag], verdict=verdict_payload(out[tag]["verdict"]))
        members = {out["first"]["verdict"].member, out["second"]["verdict"].member}
        return payload, (EXIT_INCONCLUSIVE if "inconclusive" in members else EXIT_OK)
    if kind == "monic":
        v = is_monic(m)
    elif kind == "gproj-p":
        v = is_gproj_P(m, _engine_for(m.cat, args), force_full=args.full)
    else:
        if kind == "lifted" and not (args.x_class and args.f_class):
            raise ModuleError("check lifted requires --x and --f")
        fact = _factorization(m.cat, args.factor) if args.factor else None
        eng = _engine_for(fact.cat if fact else m.cat, args)
        profile = None
        if fact is not None and args.declared_g is not None:
            profile = declared_profile(fact.base, args.declared_g)
        if kind == "p-proj":
            v = is_p_projective(m, eng, fact)
        elif kind == "gp":
            # without a declared profile the base is profiled at the cutoff
            v = is_gp_functor(m, eng, profile, fact, force_full=args.full)
        else:
            v = lifted_class_membership(m, args.x_class, args.f_class, eng, profile, fact)
    return {"check": kind, "verdict": verdict_payload(v)}, _verdict_exit(v.member)


def cmd_profile_base(args):
    from .gorenstein import self_injective_dimension
    cat = _load_category(args)
    prof = self_injective_dimension(cat, gio.effective_cutoff(args.cutoff))
    payload = {"g": prof.g, "status": prof.status, "tables": prof.tables}
    return payload, (EXIT_OK if prof.g is not None else EXIT_INCONCLUSIVE)


def cmd_enumerate(args):
    from .gorenstein import enumerate_representations
    from .modules import ModuleError
    cat = _load_category(args)
    parts = [p.strip() for p in args.dims.split(",")]
    if len(parts) == 1:
        bounds = int(parts[0])
    else:
        if len(parts) != len(cat.objects):
            raise ModuleError(
                f"--dims needs 1 or {len(cat.objects)} entries, got {len(parts)}"
            )
        bounds = {c: int(p) for c, p in zip(cat.objects, parts)}
    per_vector = {}
    total = 0
    for m in enumerate_representations(cat, bounds, args.limit):
        key = ",".join(str(m.dims[c]) for c in cat.objects)
        per_vector[key] = per_vector.get(key, 0) + 1
        total += 1
    return {"count": total, "per_dim_vector": per_vector}, EXIT_OK


def cmd_fixtures(args):
    d = fixtures_dir()
    payload = {
        "directory": "gpquiver/fixtures",
        "files": {f: gio.file_digest(os.path.join(d, f)) for f in list_fixtures()},
    }
    return payload, EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1, since 2 means inconclusive."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="gpquiver",
        description="Exact Nakayama-functor and Gorenstein-projectivity "
                    "computations for bound quiver categories.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, kind):
        if kind:
            p.add_argument("path", help=f"{kind} file")
        p.add_argument("--cutoff", type=int, default=None,
                       help="resolution cutoff, at least 1 (default 16)")
        p.add_argument("--field", default=None, help="field override: Q or F<p>")
        p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("cat-info", help="hom dimensions and bases of a category")
    common(p, "category")
    p.set_defaults(fn=cmd_cat_info)

    p = sub.add_parser("gdim", help="two-sided Gorenstein dimension of P")
    common(p, "category")
    p.set_defaults(fn=cmd_gdim)

    p = sub.add_parser("resolve", help="minimal projective resolution stages")
    common(p, "representation")
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser("nakayama", help="nu and nu^- dimension vectors")
    common(p, "representation")
    p.set_defaults(fn=cmd_nakayama)

    p = sub.add_parser("derived", help="derived Nakayama functor dimensions")
    common(p, "representation")
    p.add_argument("--functor", choices=["l_nu", "r_nu_minus"], required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn=cmd_derived)

    p = sub.add_parser("tor", help="Tor of the dual coefficient at an object")
    common(p, "representation")
    p.add_argument("--object", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn=cmd_tor)

    p = sub.add_parser("ext", help="Ext from the dual coefficient at an object")
    common(p, "representation")
    p.add_argument("--object", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn=cmd_ext)

    p = sub.add_parser("check", help="membership verdicts with certificates")
    p.add_argument("kind", choices=["gproj-p", "monic", "gp", "p-proj",
                                    "lifted", "discrepancy"])
    common(p, "representation")
    p.add_argument("--x", dest="x_class", choices=["gproj_P", "P_proj"], default=None)
    p.add_argument("--f", dest="f_class", choices=["gp", "proj"], default=None)
    p.add_argument("--factor", choices=["left", "right"], default=None,
                   help="which tensor factor is the Nakayama direction")
    p.add_argument("--declared-g", type=int, default=None,
                   help="declare the base self-injective dimension")
    p.add_argument("--full", action="store_true",
                   help="force the full three-part criterion")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("profile-base", help="self-injective dimension of a base algebra")
    common(p, "category")
    p.set_defaults(fn=cmd_profile_base)

    p = sub.add_parser("enumerate", help="exhaustively enumerate representations")
    common(p, "category")
    p.add_argument("--dims", required=True,
                   help="per-object bounds: one integer or a comma list")
    p.add_argument("--limit", type=int, default=2_000_000)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("fixtures", help="list the bundled example files")
    common(p, None)
    p.set_defaults(fn=cmd_fixtures)

    return ap


def _input_errors() -> tuple:
    """The exceptions main reports as input errors.  An except clause calls
    this only when an exception reaches it, so the layers a command did not
    run are imported only then."""
    from .category import CategoryError
    from .linalg import LinAlgError
    from .modules import ModuleError
    return gio.ParseError, CategoryError, ModuleError, LinAlgError, ValueError, OSError


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        gio.check_field_override(args.field, "--field")
        cutoff = gio.effective_cutoff(args.cutoff)
        payload, status = args.fn(args)
    except _input_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    # every file the command read: its input and the category files behind it
    inputs = getattr(args, "inputs", ())
    report = gio.build_report(args.command, inputs, payload,
                              cutoff=cutoff, field=args.field)
    text = gio.dumps_report(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
