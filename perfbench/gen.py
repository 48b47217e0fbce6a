"""Seeded input generators for the benchmark.

Category and representation files are produced as text, so the program under
test only ever sees generated inputs. Category files have a fixed line order:
the order of relations changes the row order of the build's elimination, and
with it the work, by up to 25%. The seed picks representations, modules and
commands, never the size of the work.
"""

from __future__ import annotations

import itertools
import random


def _category_text(field, length_cutoff, objects, arrows, relations) -> str:
    lines = ["[category]", f"field = {field}", f"length_cutoff = {length_cutoff}",
             "objects = " + ", ".join(objects)]
    lines += [f"arrow = {a}: {s} -> {t}" for a, s, t in arrows]
    lines += ["relation = " + " + ".join(f"{c} {p}" for c, p in terms)
              for terms in relations]
    return "\n".join(lines) + "\n"


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def exterior_algebra(n: int, field: str, length_cutoff: int) -> str:
    """Lambda(k^n): one object, loops x1..xn, x*x = 0 and x*y + y*x = 0."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    rels = [[("1", f"{x}*{x}")] for x in xs]
    rels += [[("1", f"{xs[j]}*{xs[i]}"), ("1", f"{xs[i]}*{xs[j]}")]
             for i in range(n) for j in range(i + 1, n)]
    return _category_text(field, length_cutoff, ["o"], [(x, "o", "o") for x in xs], rels)


def linear_quiver(n: int, field: str) -> str:
    """A_n: objects 1..n and arrows a_i: i -> i+1, no relations."""
    objs = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return _category_text(field, n, objs, arrows, [])


def square(field: str, length_cutoff: int) -> str:
    """The commutative square c1 -> c2, c3 -> c4 with be*al = ga*mu."""
    arrows = [("al", "c1", "c2"), ("be", "c2", "c4"), ("mu", "c1", "c3"), ("ga", "c3", "c4")]
    return _category_text(field, length_cutoff, ["c1", "c2", "c3", "c4"], arrows,
                          [[("1", "be*al"), ("-1", "ga*mu")]])


def tensor(left_file: str, right_file: str) -> str:
    return f"[tensor]\nleft = {left_file}\nright = {right_file}\n"


# -- dense representations with small integer entries ----------------------


def _low_rank(rng: random.Random, rows: int, cols: int, rank: int) -> list:
    x = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rows)]
    y = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rank)]
    return [[sum(x[i][k] * y[k][j] for k in range(rank)) for j in range(cols)]
            for i in range(rows)]


def _mat(rng: random.Random, rows: int, cols: int, deficiency: int) -> list:
    return _low_rank(rng, rows, cols, max(0, min(rows, cols) - deficiency))


def _matmul(a: list, b: list, inner: int) -> list:
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(len(a))]


def _deficiencies(rng: random.Random, n: int) -> list:
    """Rank deficiencies 0, 1, 2, 3, 0, ... for n maps, in seeded order.

    Random ranks, or a random order of the vertex dimensions, make the cost
    of a Hom solve vary by a third from one representation to the next; a
    fixed multiset of deficiencies keeps the ranks mixed and the cost
    steady."""
    return _shuffled(rng, [k % 4 for k in range(n)])


def linear_rep(rng: random.Random, sizes, monic: bool) -> tuple:
    """(dims, matrices) of an A_n representation with mixed-rank maps and
    the vertex dimensions `sizes`.

    With `monic` the dimensions ascend and every map has full rank, so the
    representation is usually projective."""
    dims = sorted(sizes) if monic else list(sizes)
    defs = [0] * len(dims) if monic else _deficiencies(rng, len(dims) - 1)
    mats = {f"a{i}": _mat(rng, dims[i], dims[i - 1], defs[i - 1]) for i in range(1, len(dims))}
    return {str(i + 1): d for i, d in enumerate(dims)}, mats


def square_rep(rng: random.Random, sizes) -> tuple:
    """(dims, matrices) of a commutative-square representation with
    dim V1, V3, V4, E = `sizes`.

    V2 = V3 (+) E with al = [mu; Z] and be = [ga | 0] commutes by
    construction; a random unimodular change of basis of V2 then mixes the
    blocks while keeping integer entries."""
    d1, d3, d4, e = sizes
    d2 = d3 + e
    def_mu, def_ga, def_z = _deficiencies(rng, 3)
    mu = _mat(rng, d3, d1, def_mu)
    ga = _mat(rng, d4, d3, def_ga)
    al = mu + _mat(rng, e, d1, def_z)
    be = [row + [0] * e for row in ga]
    if d2 > 1:
        for _ in range(2 * d2):
            i, j = rng.sample(range(d2), 2)
            s = rng.choice((-1, 1))
            # al <- U al and be <- be U^-1 for U = I + s E_ij
            al[i] = [a + s * b for a, b in zip(al[i], al[j])]
            for row in be:
                row[j] -= s * row[i]
    if _matmul(be, al, d2) != _matmul(ga, mu, d3):
        raise RuntimeError("generated square representation does not commute")
    dims = {"c1": d1, "c2": d2, "c3": d3, "c4": d4}
    return dims, {"al": al, "be": be, "mu": mu, "ga": ga}


def rep_text(category_file: str, dims: dict, mats: dict) -> str:
    lines = ["[representation]", f"category = {category_file}"]
    lines += [f"dim {c} = {d}" for c, d in dims.items()]
    for a, m in mats.items():
        if m and m[0]:
            lines.append(f"mat {a} = " + " ; ".join(" ".join(str(x) for x in row) for row in m))
    return "\n".join(lines) + "\n"


# -- modules that satisfy the relations, built with the library ------------


def module_shapes(objects, rng: random.Random, n_top: int = 2) -> list:
    """Every choice of `n_top` top objects and one relation object, in
    seeded order.

    Cycling through all shapes gives every run the same mix of module sizes,
    so runs with different seeds do comparable work."""
    shapes = [(top, (r,)) for top in itertools.combinations_with_replacement(objects, n_top)
              for r in objects]
    return _shuffled(rng, shapes)


def cokernel_module(cat, rng: random.Random, top, rel):
    """Nonzero cokernel of a random map from the sum of the representables at
    `rel` to the sum of those at `top`.

    Relations hold automatically. It uses the library's representables and
    Hom basis, so callers run it outside timed and traced regions."""
    from gpquiver.modules import ModuleMap, cokernel, direct_sum_modules, hom_basis, representable

    f = cat.field
    p0, _, _ = direct_sum_modules([representable(cat, c) for c in top])
    p1, _, _ = direct_sum_modules([representable(cat, c) for c in rel])
    basis = hom_basis(p1, p0)
    while True:
        phi = ModuleMap(p1, p0, {}, check=False)
        for b in basis:
            coef = f.of(rng.randrange(f.p))
            phi = phi + ModuleMap(p1, p0, {c: b.mats[c].scale(coef) for c in cat.objects},
                                  check=False)
        m = cokernel(phi)[0]
        if not m.is_zero():
            return m
