"""Per-layer tracing from outside the program.

`Tracer.install()` replaces layer entry points of `gpquiver` with wrappers
that record one span per call: name, start, end and parent. Methods are
patched on their class; module-level functions are patched in every
`gpquiver` module that bound them with `from ... import`. Field arithmetic is
never wrapped: it runs ~1e8 times per heavy op and would swamp the timings.

Spans stay in memory; `metrics()` reduces them to the per-layer metrics and
`write()` dumps them at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time

MODULES = ("cli", "io", "category", "linalg", "modules", "nakayama", "gorenstein", "basechange")


def _rref_attrs(args, out):
    m = args[0]
    return (m.rows * m.cols, len(out[1]), min(m.rows, m.cols), type(m.field).__name__ == "RationalField")


def _hom_unknowns(args, out):
    m, n = args[0], args[1]
    return sum(m.dims[c] * n.dims[c] for c in m.cat.objects)


def _member(args, out):
    return out.member


def _gproj(args, out):
    return out.member, out.certificate.get("route")


# span name -> (module, attribute path, attrs hook or None)
TARGETS = {
    "category.build": ("category", "build_category", lambda a, out: out.total_dim()),
    "category.tensor": ("category", "tensor_category", None),
    "category.opposite": ("category", "BoundQuiverCategory.opposite", None),
    "category.reduce_word": ("category", "BoundQuiverCategory.reduce_word", None),
    "linalg.rref": ("linalg", "Matrix.rref", _rref_attrs),
    "linalg.matmul": ("linalg", "Matrix.__matmul__", None),
    "linalg.solve": ("linalg", "Matrix.solve", None),
    "modules.resolution": ("modules", "projective_resolution", lambda a, out: len(out.stages)),
    "modules.cover": ("modules", "projective_cover", None),
    "modules.kernel": ("modules", "kernel", None),
    "modules.hom_basis": ("modules", "hom_basis", _hom_unknowns),
    "modules.tensor": ("modules", "tensor_over_cat", lambda a, out: out.ambient),
    "modules.representable": ("modules", "representable", None),
    "nakayama.engine_init": ("nakayama", "NakayamaEngine.__init__", None),
    "nakayama.gdim": ("nakayama", "NakayamaEngine.gorenstein_dimension", None),
    "nakayama.nu": ("nakayama", "NakayamaEngine.nu", None),
    "nakayama.nu_minus": ("nakayama", "NakayamaEngine.nu_minus", None),
    "nakayama.lambda": ("nakayama", "NakayamaEngine.lambda_unit", None),
    "nakayama.l_nu_dims": ("nakayama", "NakayamaEngine.left_derived_nu_dims", None),
    "nakayama.r_nu_minus_dims": ("nakayama", "NakayamaEngine.right_derived_nu_minus_dims", None),
    "gorenstein.gproj_p": ("gorenstein", "is_gproj_P", _gproj),
    "gorenstein.p_proj": ("gorenstein", "is_p_projective", _member),
    "gorenstein.splitting": ("gorenstein", "splitting_section", None),
    "gorenstein.gp_functor": ("gorenstein", "is_gp_functor", _member),
    "gorenstein.base_gp": ("gorenstein", "base_gp", _member),
    "basechange.i_star_nu": ("basechange", "Factorization.i_star_nu_components", None),
    "basechange.p_counit_based": ("basechange", "Factorization.p_counit_based", None),
    "basechange.restrict": ("basechange", "Factorization.restrict_to_cat", None),
    "io.parse_category": ("io", "parse_category", None),
    "io.parse_module": ("io", "parse_module", None),
    "io.build_report": ("io", "build_report", None),
    "io.dumps_report": ("io", "dumps_report", lambda a, out: len(out.encode())),
    "cli.main": ("cli", "main", None),
}

# span name -> the per-layer metrics it feeds
#   calls: number of spans; s: inclusive time of outermost spans;
#   self_s: time not covered by child spans
PER_LAYER = {
    "category.build_calls": ("calls", "category.build"),
    "category.build_self_s": ("self_s", "category.build"),
    "category.opposite_calls": ("calls", "category.opposite"),
    "category.opposite_s": ("s", "category.opposite"),
    "category.tensor_s": ("s", "category.tensor"),
    "category.reduce_word_calls": ("calls", "category.reduce_word"),
    "category.reduce_word_s": ("s", "category.reduce_word"),
    "linalg.rref_calls": ("calls", "linalg.rref"),
    "linalg.rref_self_s": ("self_s", "linalg.rref"),
    "linalg.matmul_calls": ("calls", "linalg.matmul"),
    "linalg.matmul_self_s": ("self_s", "linalg.matmul"),
    "linalg.solve_calls": ("calls", "linalg.solve"),
    "linalg.solve_self_s": ("self_s", "linalg.solve"),
    "modules.resolution_calls": ("calls", "modules.resolution"),
    "modules.resolution_s": ("s", "modules.resolution"),
    "modules.cover_calls": ("calls", "modules.cover"),
    "modules.cover_s": ("s", "modules.cover"),
    "modules.kernel_s": ("s", "modules.kernel"),
    "modules.hom_basis_calls": ("calls", "modules.hom_basis"),
    "modules.hom_basis_s": ("s", "modules.hom_basis"),
    "modules.tensor_calls": ("calls", "modules.tensor"),
    "modules.tensor_s": ("s", "modules.tensor"),
    "modules.representable_calls": ("calls", "modules.representable"),
    "nakayama.engine_init_s": ("s", "nakayama.engine_init"),
    "nakayama.gdim_s": ("s", "nakayama.gdim"),
    "nakayama.nu_calls": ("calls", "nakayama.nu"),
    "nakayama.nu_s": ("s", "nakayama.nu"),
    "nakayama.nu_minus_calls": ("calls", "nakayama.nu_minus"),
    "nakayama.nu_minus_s": ("s", "nakayama.nu_minus"),
    "nakayama.lambda_s": ("s", "nakayama.lambda"),
    "nakayama.l_nu_dims_s": ("s", "nakayama.l_nu_dims"),
    "nakayama.r_nu_minus_dims_s": ("s", "nakayama.r_nu_minus_dims"),
    "gorenstein.gproj_p_calls": ("calls", "gorenstein.gproj_p"),
    "gorenstein.gproj_p_s": ("s", "gorenstein.gproj_p"),
    "gorenstein.p_proj_s": ("s", "gorenstein.p_proj"),
    "gorenstein.splitting_s": ("s", "gorenstein.splitting"),
    "gorenstein.gp_functor_s": ("s", "gorenstein.gp_functor"),
    "gorenstein.base_gp_s": ("s", "gorenstein.base_gp"),
    "basechange.i_star_nu_s": ("s", "basechange.i_star_nu"),
    "basechange.p_counit_based_s": ("s", "basechange.p_counit_based"),
    "basechange.restrict_s": ("s", "basechange.restrict"),
    "io.parse_category_s": ("s", "io.parse_category"),
    "io.parse_module_s": ("s", "io.parse_module"),
    "cli.main_calls": ("calls", "cli.main"),
    "cli.main_s": ("s", "cli.main"),
}

VERDICT_SPANS = ("gorenstein.gproj_p", "gorenstein.p_proj", "gorenstein.gp_functor",
                 "gorenstein.base_gp")


class Tracer:
    """Records spans while `enabled`; calls pass straight through otherwise."""

    def __init__(self):
        # span: [name, start, end, parent index, child seconds, outermost, attrs]
        self.spans: list = []
        self.enabled = False
        self._stack: list = []
        self._active: dict = {}
        self._patches: list = []

    def _wrap(self, name, fn, attrs):
        tracer = self
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            depth = active.get(name, 0)
            rec = [name, 0.0, 0.0, parent, 0.0, depth == 0, None]
            stack.append(len(spans))
            spans.append(rec)
            active[name] = depth + 1
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                rec[2] = end
                stack.pop()
                active[name] = depth
                if parent >= 0:
                    spans[parent][4] += end - rec[1]
            if attrs is not None:
                rec[6] = attrs(args, out)
            return out

        return wrapper

    def install(self):
        mods = {m: importlib.import_module(f"gpquiver.{m}") for m in MODULES}
        for name, (mod, attr, attrs) in TARGETS.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, attrs))
                continue
            original = getattr(mods[mod], attr)
            wrapper = self._wrap(name, original, attrs)
            for m in mods.values():
                if getattr(m, attr, None) is original:
                    self._patches.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self) -> dict:
        calls, incl, self_s = {}, {}, {}
        for name, start, end, _, child, outer, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
            if outer:
                incl[name] = incl.get(name, 0.0) + (end - start)
        table = {"calls": calls, "s": incl, "self_s": self_s}
        out = {}
        for metric, (kind, span) in PER_LAYER.items():
            out[metric] = table[kind].get(span, 0 if kind == "calls" else 0.0)

        def attrs(span):
            return [s[6] for s in self.spans if s[0] == span and s[6] is not None]

        rref = attrs("linalg.rref")
        cells = sum(a[0] for a in rref)
        out["linalg.rref_cells"] = cells
        out["linalg.rref_max_cells"] = max((a[0] for a in rref), default=0)
        out["linalg.rref_q_cells_share"] = (
            sum(a[0] for a in rref if a[3]) / cells if cells else 0.0)
        possible = sum(a[2] for a in rref)
        out["linalg.rref_pivot_ratio"] = sum(a[1] for a in rref) / possible if possible else 0.0
        out["category.total_dim"] = sum(attrs("category.build"))
        out["modules.resolution_stages"] = sum(attrs("modules.resolution"))
        unknowns = attrs("modules.hom_basis")
        out["modules.hom_basis_unknowns"] = sum(unknowns)
        out["modules.hom_basis_max_unknowns"] = max(unknowns, default=0)
        out["modules.tensor_ambient"] = sum(attrs("modules.tensor"))
        routes = [r for _, r in attrs("gorenstein.gproj_p")]
        out["gorenstein.shortcut_share"] = (
            routes.count("shortcut") / len(routes) if routes else 0.0)
        members = [a if isinstance(a, str) else a[0]
                   for span in VERDICT_SPANS for a in attrs(span)]
        out["gorenstein.inconclusive_share"] = (
            members.count("inconclusive") / len(members) if members else 0.0)
        out["io.report_s"] = incl.get("io.build_report", 0.0) + incl.get("io.dumps_report", 0.0)
        out["io.report_bytes"] = sum(attrs("io.dumps_report"))
        return out

    def write(self, path):
        """Dump the spans as gzipped JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, _, _, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": round(start - t0, 9),
                                     "end": round(end - t0, 9), "parent": parent}) + "\n")
