"""Constructions only the tests use; the program computes none of them.

The adjoint triple i_! -| i^* -| i_* around evaluation and the counit sigma
of nu -| nu^- check the production nu, nu^-, their maps and the unit lambda
through the triangle identities, the adjunction bijection and the
isomorphism nu i_! -> i_*; each function takes the engine it checks.
`gp_resolution_dimension` runs the production `is_gp_functor` along the
syzygies of a minimal resolution. `submodule` reads a span's arrows by a
generic solve, where the program reads a kernel's at its free rows.
`hom_coords` reads a map's coordinates in a hom basis at its free rows, for
the hom-basis oracle of nu^- (derived_oracle).
"""

from itertools import accumulate

from gpquiver.gorenstein import is_gp_functor
from gpquiver.io import format_relation
from gpquiver.linalg import LinAlgError, Matrix, free_row_coords
from gpquiver.modules import (
    Cover,
    Module,
    ModuleError,
    ModuleMap,
    _map_columns,
    block_offsets,
    block_sum,
    free_module,
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


def from_columns(field, cols, rows):
    """The rows x len(cols) matrix whose columns are the lists cols."""
    return Matrix(field, [[col[i] for col in cols] for i in range(rows)], rows, len(cols))


def section(frame):
    """The unit columns at the free columns of a cokernel frame of nu, a
    section of its projection."""
    proj, free = frame
    return Matrix.identity(proj.field, proj.cols).submatrix(range(proj.cols), free)


def hom_coords(basis, maps, field):
    """Coordinates of maps in a hom basis, one column per map: the flattened
    maps at the basis's free rows, checked by one product."""
    if not maps:
        return Matrix.zeros(field, len(basis), 0)
    coords = free_row_coords(basis.columns, basis.free, _map_columns(maps))
    if coords is None:
        raise ModuleError("map outside the span of the hom basis")
    return coords


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

    nu(P)(x) is a quotient of (+)_m P(d_m), one summand per generator g_m of
    the presentation of D C(x,-), at d_m, with image v_m in D C(x, d_m).
    g_m (x) p, p a basis path of C(c_k, d_m) in summand k of P = i_!(parts),
    goes to D C(x, p)(v_m) in D C(x, c_k), summand k of i_*(parts).
    """
    cat = eng.cat
    f = cat.field
    shriek = i_shriek(eng, parts)
    nuP = eng.nu(shriek.module)
    objs = [c for c, _ in shriek.summands]
    mats = {}
    for x in cat.objects:
        rep = representable(cat, x)
        ends = list(accumulate((cat.hom_dim(x, c) for c in objs), initial=0))
        cols = []
        for d, v in eng.presentation("right", x).stages[0].summands:
            for k, c in enumerate(objs):
                for p in cat.hom_basis_paths(c, d):
                    col = [f.zero()] * ends[-1]
                    col[ends[k]:ends[k + 1]] = [r[0] for r in
                                                (rep.act_path(c, p).transpose() @ v).data]
                    cols.append(col)
        mats[x] = from_columns(f, cols, ends[-1]) @ section(nuP.frames[x])
    return ModuleMap(nuP.module, i_star_coinduced(eng, parts), mats, check=False)


# -- the counit of nu -| nu^- ------------------------------------------------


def evaluation(eng, f_mod, d, x, v):
    """Hom(I(d), F) -> F(x), psi -> psi_x(v), on psi given by its values on
    the generators xi_k of I(d)'s presentation, at e_k: with v = sum_{k,q}
    l_{k,q} I(d)(q) xi_k over the basis paths q of C(e_k, x), psi_x(v) is
    sum_{k,q} l_{k,q} F(q) psi(xi_k)."""
    cat = eng.cat
    inj = eng.coef_left(d)
    gens = eng.presentation("left", d).stages[0].summands
    terms = [(k, q) for k, (e, _) in enumerate(gens) for q in cat.hom_basis_paths(e, x)]
    span = Matrix.zeros(cat.field, inj.dims[x], 0)
    for k, q in terms:
        span = span.hstack(inj.act_path(gens[k][0], q) @ gens[k][1])
    coef = span.solve(v)
    out = Matrix.zeros(cat.field, f_mod.dims[x], 0)
    for k, (e, _) in enumerate(gens):
        acc = Matrix.zeros(cat.field, f_mod.dims[x], f_mod.dims[e])
        for (kk, q), row in zip(terms, coef.data):
            if kk == k:
                acc = acc + f_mod.act_path(e, q).scale(row[0])
        out = out.hstack(acc)
    return out


def sigma_counit(eng, f_mod, nm, nu_nm):
    """The counit nu nu^- F -> F, nm = nu^-(F) and nu_nm = nu(nm.module).
    nu nu^- F (x) is a quotient of (+)_m nu^- F(d_m), one summand per
    generator of the presentation of D C(x,-), at d_m, with image v_m in
    D C(x, d_m) = I(d_m)(x); g_m (x) psi goes to psi_x(v_m)."""
    cat = eng.cat
    mats = {}
    for x in cat.objects:
        out = Matrix.zeros(cat.field, f_mod.dims[x], 0)
        for d, v in eng.presentation("right", x).stages[0].summands:
            out = out.hstack(evaluation(eng, f_mod, d, x, v) @ nm.frames[d][0])
        mats[x] = out @ section(nu_nm.frames[x])
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
