"""Dense reference builder for `gpquiver.category.build_category`.

`dense_build_category` collects every relation translate q * r * p of an
object pair as a dense row over all paths of the pair, in descending
(length, lex) order, and runs one `Matrix.rref` per pair. It is kept as the
oracle for the sparse row reduction in `src/`: the reduced row echelon form
is unique, so both must give the same bases and reduction tables.
`dense_builder()` installs it in place of `build_category` for the duration
of a `with` block, so parsing, `tensor_category` and `opposite()` build
through it too.
"""

from contextlib import contextmanager

from gpquiver import category
from gpquiver.category import (
    BoundQuiverCategory,
    CategoryError,
    PossiblyInfiniteError,
    MAX_PATHS,
    _path_key,
)
from gpquiver.linalg import Matrix


def dense_build_category(quiver, relations, field, length_cutoff):
    if length_cutoff < 1:
        raise CategoryError("length_cutoff must be at least 1")
    arrow_map = quiver.arrow_map()
    relations = tuple(relations)
    rel_ends = [r.endpoints(arrow_map) for r in relations]

    # enumerate composable paths by length, per (source, target) pair
    by_level = [[(c, c, ()) for c in quiver.vertices]]
    total = len(by_level[0])
    out_arrows = {c: [] for c in quiver.vertices}
    for name, s, t in quiver.arrows:
        out_arrows[s].append((name, t))
    for _ in range(length_cutoff):
        level = []
        for c, d, p in by_level[-1]:
            for name, t in out_arrows[d]:
                level.append((c, t, p + (name,)))
        total += len(level)
        if total > MAX_PATHS:
            raise CategoryError(
                f"{total} paths up to length {len(by_level)}, above the bound {MAX_PATHS}; "
                f"lower length_cutoff (now {length_cutoff}): it only needs to exceed "
                f"the longest nonzero path")
        by_level.append(level)

    paths_by_pair = {}
    for level in by_level:
        for c, d, p in level:
            paths_by_pair.setdefault((c, d), []).append(p)

    # relation translates q * r * p with every term inside the cutoff
    ideal_rows = {}
    for rel, (u, v) in zip(relations, rel_ends):
        max_len = max(len(p) for _, p in rel.terms)
        for (x, u2), pres in paths_by_pair.items():
            if u2 != u:
                continue
            for q in pres:  # stored by length, so the first too long ends the run
                if len(q) + max_len > length_cutoff:
                    break
                for (v2, y), posts in paths_by_pair.items():
                    if v2 != v:
                        continue
                    for p in posts:
                        if len(q) + max_len + len(p) > length_cutoff:
                            break
                        vec = {}
                        for coef, term in rel.terms:
                            w = q + term + p
                            vec[w] = field.add(vec.get(w, field.zero()), coef)
                        ideal_rows.setdefault((x, y), []).append(vec)

    basis = {}
    reduction = {}
    max_basis_len = 0
    witness = None
    for pair, paths in sorted(paths_by_pair.items()):
        cols_desc = sorted(paths, key=_path_key, reverse=True)
        col_idx = {p: j for j, p in enumerate(cols_desc)}
        rows = ideal_rows.get(pair, [])
        if rows:
            data = []
            z = field.zero()
            for vec in rows:
                row = [z] * len(cols_desc)
                for p, coef in vec.items():
                    row[col_idx[p]] = coef
                data.append(row)
            R, pivots = Matrix(field, data, len(rows), len(cols_desc)).rref()
            pivot_set = set(pivots)
            table = {}
            for i, pc in enumerate(pivots):
                expr = {}
                for j in range(len(cols_desc)):
                    if j != pc and R.data[i][j]:
                        expr[cols_desc[j]] = field.neg(R.data[i][j])
                table[cols_desc[pc]] = expr
            surviving = [p for j, p in enumerate(cols_desc) if j not in pivot_set]
        else:
            table = {}
            surviving = list(cols_desc)
        surviving.sort(key=_path_key)
        basis[pair] = tuple(surviving)
        reduction[pair] = table
        if surviving:
            blen = len(surviving[-1])
            if blen > max_basis_len:
                max_basis_len = blen
            if blen >= length_cutoff and witness is None:
                witness = pair
    if witness is not None:
        raise PossiblyInfiniteError(witness, length_cutoff)

    return BoundQuiverCategory(
        quiver, relations, field, length_cutoff, quiver.vertices, arrow_map,
        basis, reduction, max_basis_len,
    )


@contextmanager
def dense_builder():
    """Build categories with `dense_build_category` inside the block."""
    saved = category.build_category
    category.build_category = dense_build_category
    try:
        yield
    finally:
        category.build_category = saved
