"""Dense reference builder for `gpquiver.category.build_category`.

`dense_build_category` collects every relation translate q * r * p of an
object pair that fits within the length cutoff as a dense row over all
paths of the pair, in descending (length, lex) order, and runs one
`Matrix.rref` per pair. The paths without a pivot are the basis, and each
pivot row rewrites its path into them. It knows nothing of Groebner bases,
so it is the oracle for the completion in `src/` wherever it is stable:
once the cutoff is long enough for every consequence of the relations to
show inside it, both give the same bases and normal forms. Its category
rewrites by that table of rows, which `reduce_word` reads as its rules.
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
    _path_key,
)
from gpquiver.linalg import Matrix

# the dense rows of one pair grow with the square of its paths
DENSE_PATH_BOUND = 200_000


def paths_by_pair(quiver, length_cutoff) -> dict:
    """Every path of length up to the cutoff, by (source, target), shortest
    first."""
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
        if total > DENSE_PATH_BOUND:
            raise CategoryError(f"{total} paths up to length {len(by_level)}, above the "
                                f"dense builder's bound {DENSE_PATH_BOUND}")
        by_level.append(level)
    out = {}
    for level in by_level:
        for c, d, p in level:
            out.setdefault((c, d), []).append(p)
    return out


def dense_build_category(quiver, relations, field, length_cutoff):
    if length_cutoff < 1:
        raise CategoryError("length_cutoff must be at least 1")
    arrow_map = quiver.arrow_map()
    relations = tuple(relations)
    rel_ends = [r.endpoints(arrow_map) for r in relations]
    paths = paths_by_pair(quiver, length_cutoff)

    # relation translates q * r * p with every term inside the cutoff
    ideal_rows = {}
    for rel, (u, v) in zip(relations, rel_ends):
        max_len = max(len(p) for _, p in rel.terms)
        for (x, u2), pres in paths.items():
            if u2 != u:
                continue
            for q in pres:  # stored by length, so the first too long ends the run
                if len(q) + max_len > length_cutoff:
                    break
                for (v2, y), posts in paths.items():
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
    rules = {}
    witness = None
    for pair, pair_paths in sorted(paths.items()):
        cols_desc = sorted(pair_paths, key=_path_key, reverse=True)
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
            for i, pc in enumerate(pivots):
                expr = {}
                for j in range(len(cols_desc)):
                    if j != pc and R.data[i][j]:
                        expr[cols_desc[j]] = field.neg(R.data[i][j])
                rules[cols_desc[pc]] = expr
            surviving = [p for j, p in enumerate(cols_desc) if j not in pivot_set]
        else:
            surviving = list(cols_desc)
        surviving.sort(key=_path_key)
        basis[pair] = tuple(surviving)
        if surviving and len(surviving[-1]) >= length_cutoff and witness is None:
            witness = pair
    if witness is not None:
        raise PossiblyInfiniteError(witness, length_cutoff)

    return BoundQuiverCategory(quiver, relations, field, length_cutoff, basis, rules)


@contextmanager
def dense_builder():
    """Build categories with `dense_build_category` inside the block."""
    saved = category.build_category
    category.build_category = dense_build_category
    try:
        yield
    finally:
        category.build_category = saved
