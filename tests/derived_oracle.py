"""Reference routes kept apart from the production ones.

`tensor_projection` builds the quotient map of M (x)_C F from the tensor
relations m.a (x) f - m (x) a.f column by column, without the Hom system.

Tor/Ext dimensions are computed without the generator shortcut: every
stage of the resolution is treated as an arbitrary module.  Tor goes
through the explicit tensor quotient (`tensor_over_cat` plus
`tensor_induced`), Ext through the dense Hom system (`hom_basis` plus one
`hom_coords` solve per differential).  The truncation and vanishing rules are
the same as in `gpquiver.modules`, so results compare as DerivedValues.
"""

from gpquiver.linalg import Matrix, Subquotient
from gpquiver.modules import (
    DerivedValue,
    hom_basis,
    hom_coords,
    tensor_induced,
    tensor_over_cat,
)


def tensor_projection(m, f_mod):
    """The quotient map of tensor_over_cat(m, f_mod), from one relation column
    per arrow a: s -> t and basis pair (i, j) of M(t) x F(s)."""
    cat = f_mod.cat
    f = cat.field
    offsets, off = {}, 0
    for y in cat.objects:
        offsets[y] = off
        off += m.dims[y] * f_mod.dims[y]
    cols = []
    for name, (s, t) in cat.arrow_map.items():
        # m is contravariant, so m.mats[a]: M(t) -> M(s)
        ma, fa = m.mats[name], f_mod.mats[name]
        for i in range(m.dims[t]):
            for j in range(f_mod.dims[s]):
                col = [f.zero()] * off
                for k in range(m.dims[s]):
                    idx = offsets[s] + k * f_mod.dims[s] + j
                    col[idx] = f.add(col[idx], ma.data[k][i])
                for l in range(f_mod.dims[t]):
                    idx = offsets[t] + i * f_mod.dims[t] + l
                    col[idx] = f.sub(col[idx], fa.data[l][j])
                cols.append(col)
    rel = Matrix(f, [[c[r] for c in cols] for r in range(off)], off, len(cols))
    return rel.cokernel_projection()


def _out_of_range(res, i):
    n = res.length()
    if not res.completed and i > n - 1:
        return DerivedValue(None, False, "resolution truncated below requested degree")
    if i > n:
        return DerivedValue(0, True)
    return None


def _tor(res, tens, cat, i, induced):
    n = res.length()
    d_out = Matrix.zeros(cat.field, 0, tens[0].dim) if i == 0 else induced(i)
    d_in = Matrix.zeros(cat.field, tens[i].dim, 0) if i + 1 > n else induced(i + 1)
    return DerivedValue(Subquotient.homology(d_out, d_in).dim, True)


def tor_from_resolution_of_right(res, f_mod, i):
    """dim Tor_i(M, F) from a resolution of the right module M."""
    early = _out_of_range(res, i)
    if early is not None:
        return early
    cat = f_mod.cat
    tens = [tensor_over_cat(res.stage_module(j), f_mod)
            for j in range(min(i + 1, res.length()) + 1)]
    return _tor(res, tens, cat, i,
                lambda j: tensor_induced(tens[j], tens[j - 1], cat, res.diff(j), None))


def tor_from_resolution_of_left(m_right, res_f, i):
    """dim Tor_i(M, F) from a resolution of the left module F."""
    early = _out_of_range(res_f, i)
    if early is not None:
        return early
    cat = res_f.module.cat
    tens = [tensor_over_cat(m_right, res_f.stage_module(j))
            for j in range(min(i + 1, res_f.length()) + 1)]
    return _tor(res_f, tens, cat, i,
                lambda j: tensor_induced(tens[j], tens[j - 1], cat, None, res_f.diff(j)))


def ext_from_resolution(res, n_mod, i):
    """dim Ext^i(M, N) from a resolution of M."""
    early = _out_of_range(res, i)
    if early is not None:
        return early
    n = res.length()
    f = n_mod.cat.field
    bases = [hom_basis(res.stage_module(j), n_mod) for j in range(min(i + 1, n) + 1)]

    def delta(j):
        # Hom(P_j, N) -> Hom(P_{j+1}, N), phi -> phi after d_{j+1}
        d = res.diff(j + 1)
        return hom_coords(bases[j + 1], [d.then(phi) for phi in bases[j]], f)

    d_out = delta(i) if i + 1 <= n else Matrix.zeros(f, 0, len(bases[i]))
    d_in = delta(i - 1) if i >= 1 else Matrix.zeros(f, len(bases[0]), 0)
    return DerivedValue(Subquotient.homology(d_out, d_in).dim, True)
