"""Constructions only the tests use; the program computes none of them.

The adjoint triple i_! -| i^* -| i_* around evaluation and the counit sigma
of nu -| nu^- check the production nu, nu^-, their maps and the unit lambda
through the triangle identities, the adjunction bijection and the
isomorphism nu i_! -> i_*; each function takes the engine it checks.
`gp_resolution_dimension` runs the production `is_gp_functor` along the
syzygies of a minimal resolution. `submodule` reads a span's arrows by a
generic solve, where the program reads a kernel's at its free rows.
"""

from gpquiver.gorenstein import is_gp_functor
from gpquiver.io import format_relation
from gpquiver.linalg import LinAlgError, Matrix
from gpquiver.modules import (
    Cover,
    Module,
    ModuleError,
    ModuleMap,
    block_offsets,
    block_sum,
    free_module,
    free_on_generators,
    hom_coords,
    projective_cover,
    representable,
)

# -- linear algebra and submodules ------------------------------------------


def right_inverse(m):
    """A section s with m @ s == identity, or None without full row rank."""
    return m.solve(Matrix.identity(m.field, m.rows))


def cokernel_projection(m):
    """Full-row-rank P with P @ m == 0: the canonical kernel basis of the transpose."""
    return m.transpose().kernel_basis()[1].transpose()


def submodule(ambient, bases, what):
    """The submodule of ambient spanned at each object by the columns of
    bases[c], with its inclusion; the span must be arrow-stable."""
    cat = ambient.cat
    mats = {}
    for name, (s, t) in cat.arrow_map.items():
        mats[name] = bases[t].solve(ambient.mats[name] @ bases[s])
        if mats[name] is None:
            raise LinAlgError(f"{what} is not arrow-stable")
    sub = Module(cat, {c: bases[c].cols for c in cat.objects}, mats, check=False)
    return sub, ModuleMap(sub, ambient, bases, check=False)


def image(f):
    """Image module with its inclusion into the target, spanned by the pivot
    columns of f at each object."""
    return submodule(f.dst, {c: m.submatrix(range(m.rows), m.rref()[1])
                             for c, m in f.mats.items()}, "image")


def simple(cat, c):
    if c not in cat.objects:
        raise ModuleError(f"unknown object {c!r}")
    return Module(cat, {c: 1}, {}, check=False)


def compose(cat, c, mid, d, x, y):
    """Composite of x in Hom(c, mid) followed by y in Hom(mid, d), each a
    dict from basis paths to coefficients."""
    f = cat.field
    out = {}
    for p, cp in x.items():
        for q, cq in y.items():
            coef = f.mul(cp, cq)
            for r, cr in cat.reduce_word(c, p + q).items():
                acc = f.add(out.get(r, f.zero()), f.mul(coef, cr))
                if not acc:
                    out.pop(r, None)
                else:
                    out[r] = acc
    return out


# -- the adjoint triple around evaluation -----------------------------------


def _generator_objects(eng, parts):
    """The object of each summand of i_!(parts), in object order."""
    for c in parts:
        if c not in eng.cat.objects:
            raise ModuleError(f"unknown object {c!r} in parts")
    return [c for c in eng.cat.objects for _ in range(int(parts.get(c, 0)))]


def i_shriek(eng, parts):
    """(+)_c C(c,-) (x) k^{n_c} = free_module on the generator objects, as a
    Cover whose summands record the object of each representable summand."""
    objs = _generator_objects(eng, parts)
    total = free_module(eng.cat, objs)
    return Cover(total, ModuleMap.identity(total), [(c, None) for c in objs])


def unit_parts(eng, parts):
    """parts -> i^* i_!(parts): at c, generator k of each summand at c."""
    cat = eng.cat
    objs = _generator_objects(eng, parts)
    mats = {}
    for c in cat.objects:
        starts = block_offsets(cat, objs, c)
        gens = [starts[k] for k, obj in enumerate(objs) if obj == c]
        mats[c] = Matrix.identity(cat.field, starts[-1]).submatrix(range(starts[-1]), gens)
    return mats


def i_star_coinduced(eng, parts):
    """(+)_c D(C(-,c)) (x) k^{n_c}: the coinduction i_* = nu after i_!."""
    return block_sum(eng.cat, [eng.coef_left(c) for c in _generator_objects(eng, parts)])


def iso_nu_ishriek(eng, parts):
    """The canonical map nu(i_!(parts)) -> i_*(parts); an isomorphism.

    Its dual at x sends the path q of C(x, c_k) to the map i_!(parts) ->
    C(x,-) taking generator k to q and the other generators to zero.
    """
    cat = eng.cat
    f = cat.field
    shriek = i_shriek(eng, parts)
    nuP = eng.nu(shriek.module)
    summands = [c for c, _ in shriek.summands]
    mats = {}
    for x in cat.objects:
        rep = representable(cat, x)
        zeros = [(c, Matrix.zeros(f, rep.dims[c], 1)) for c in summands]
        maps = [free_on_generators(rep, zeros[:k] + [(c, unit.col(q))] + zeros[k + 1:]).epi
                for k, c in enumerate(summands)
                for unit in [Matrix.identity(f, rep.dims[c])] for q in range(unit.cols)]
        mats[x] = hom_coords(nuP.bases[x], maps, f).transpose()
    return ModuleMap(nuP.module, i_star_coinduced(eng, parts), mats, check=False)


# -- the counit of nu -| nu^- ------------------------------------------------


def sigma_counit(eng, f_mod, nm, nu_nm):
    """The counit nu nu^- F -> F, nm = nu^-(F) and nu_nm = nu(nm.module).  Its
    dual at c sends e_r* to the map nu^- F -> C(c,-) taking psi to
    sum_i (psi_c)[r][i] p_i, p_i the basis paths of C(c, y)."""
    cat = eng.cat
    mats = {}
    for c in cat.objects:
        maps = [ModuleMap(nm.module, representable(cat, c), {y: Matrix._adopt(
            cat.field, [psi.mats[c].data[r] for psi in nm.bases[y]], len(nm.bases[y]),
            cat.hom_dim(c, y)).transpose() for y in cat.objects}, check=False)
            for r in range(f_mod.dims[c])]
        mats[c] = hom_coords(nu_nm.bases[c], maps, cat.field).transpose()
    return ModuleMap(nu_nm.module, f_mod, mats, check=False)


def adjunct(eng, psi, G, nuG, nmF):
    """Hom(nu G, F) -> Hom(G, nu^- F) along the adjunction."""
    nm_nuG = eng.nu_minus(nuG.module)
    return eng.lambda_unit(G, nuG, nm_nuG).then(eng.nu_minus_map(nm_nuG, nmF, psi))


def coadjunct(eng, chi, G, nuG, nmF, f_mod):
    """Hom(G, nu^- F) -> Hom(nu G, F), the inverse direction."""
    nu_nmF = eng.nu(nmF.module)
    return eng.nu_map(nuG, nu_nmF, chi).then(sigma_counit(eng, f_mod, nmF, nu_nmF))


# -- Gorenstein-projective resolution dimension -----------------------------


def gp_resolution_dimension(f_mod, engine):
    """First stage of the minimal projective resolution whose syzygy is
    Gorenstein projective; returns (value, per-stage verdicts) with value
    None meaning ">= cutoff"."""
    current = f_mod
    verdicts = []
    for k in range(engine.cutoff + 1):
        v = is_gp_functor(current, engine)
        verdicts.append(v.member)
        if v.is_yes:
            return k, verdicts
        cov = projective_cover(current)
        current, _ = submodule(cov.module, cov.syzygy, "syzygy")
    return None, verdicts


# -- writing files -----------------------------------------------------------


def serialize_category(cat):
    """A [category] file of a category that is not a tensor category."""
    lines = ["[category]", f"field = {cat.field.name}"]
    lines.append(f"length_cutoff = {cat.length_cutoff}")
    lines.append("objects = " + ", ".join(cat.quiver.vertices))
    for a, s, t in cat.quiver.arrows:
        lines.append(f"arrow = {a}: {s} -> {t}")
    for rel in cat.relations:
        lines.append("relation = " + format_relation(cat.field, rel))
    return "\n".join(lines) + "\n"


def serialize_module(m, category_ref, name=None):
    f = m.cat.field
    lines = ["[representation]"]
    if name:
        lines.append(f"name = {name}")
    lines.append(f"category = {category_ref}")
    for c in m.cat.objects:
        lines.append(f"dim {c} = {m.dims[c]}")
    for a in sorted(m.cat.arrow_map):
        mat = m.mats[a]
        if mat.rows and mat.cols:
            rows = " ; ".join(" ".join(f.fmt(x) for x in row) for row in mat.data)
            lines.append(f"mat {a} = {rows}")
    return "\n".join(lines) + "\n"
