"""Finite k-linear categories presented by a quiver with relations.

Hom spaces are path spans modulo the two-sided ideal generated by the
relations, computed by spanning-set reduction over increasing path length.
Paths are stored in application order: the tuple ("a", "b") means "a then b",
which in function-composition notation is written b*a.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Field, FieldMismatchError, Matrix


class CategoryError(Exception):
    pass


class PossiblyInfiniteError(CategoryError):
    """Hom spaces still growing at the length cutoff."""

    def __init__(self, pair, cutoff):
        self.pair = pair
        self.cutoff = cutoff
        super().__init__(
            f"possibly-infinite-dimensional: Hom{pair} still has independent "
            f"paths at length cutoff {cutoff}"
        )


# Guard against runaway path enumeration before the cutoff is reached.
MAX_PATHS = 200_000
# Guard on the dense elimination of one object pair (ideal rows x paths).
# Lambda(k^4) at length 6 needs 8.7e7 cells and builds; at length 7 it would
# need 1.7e9 and exhaust memory.
MAX_DENSE_CELLS = 10**8

Path = tuple  # tuple of arrow names, application order


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple  # of (name, source, target)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arrows", tuple(tuple(a) for a in self.arrows))
        names = [a[0] for a in self.arrows]
        if len(set(self.vertices)) != len(self.vertices):
            raise CategoryError("duplicate vertex names")
        if len(set(names)) != len(names):
            raise CategoryError("duplicate arrow names")
        vs = set(self.vertices)
        for name, s, t in self.arrows:
            if s not in vs or t not in vs:
                raise CategoryError(f"arrow {name} has unknown endpoint")

    def arrow_map(self) -> dict:
        return {name: (s, t) for name, s, t in self.arrows}


@dataclass(frozen=True)
class Relation:
    """Linear combination of parallel paths, set to zero in the category."""

    terms: tuple  # of (coefficient, path)

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((c, tuple(p)) for c, p in self.terms)
        )
        if not self.terms:
            raise CategoryError("relation with no terms")
        if any(not p for _, p in self.terms):
            raise CategoryError("relation paths must be nonempty")

    def endpoints(self, arrow_map: dict):
        ends = set()
        for _, p in self.terms:
            for a, b in zip(p, p[1:]):
                if arrow_map[a][1] != arrow_map[b][0]:
                    raise CategoryError(f"relation path {p} is not composable")
            ends.add((arrow_map[p[0]][0], arrow_map[p[-1]][1]))
        if len(ends) != 1:
            raise CategoryError(f"relation terms are not parallel: {sorted(ends)}")
        return ends.pop()

    def reversed(self) -> "Relation":
        return Relation(tuple((c, tuple(reversed(p))) for c, p in self.terms))


def _path_key(p: Path):
    return (len(p), p)


class BoundQuiverCategory:
    """Immutable category with explicit hom bases and composition.

    Basis labels are surviving paths; every path of length up to the cutoff
    has a stored rewrite into basis paths of smaller (length, lex) order.
    """

    def __init__(self, quiver, relations, field, length_cutoff, objects, arrow_map,
                 basis, reduction, max_basis_len):
        self.quiver = quiver
        self.relations = tuple(relations)
        self.field: Field = field
        self.length_cutoff = length_cutoff
        self.objects = tuple(objects)
        self.arrow_map = arrow_map
        self._basis = basis
        self._basis_index = {
            pair: {p: i for i, p in enumerate(paths)} for pair, paths in basis.items()
        }
        self._reduction = reduction
        self.max_basis_len = max_basis_len
        self._op = None
        self.tensor_info = None
        self.source_files = ()  # the files it was parsed from, if any

    # -- hom space access -------------------------------------------------

    def hom_basis_paths(self, c, d) -> tuple:
        return self._basis.get((c, d), ())

    def hom_dim(self, c, d) -> int:
        return len(self._basis.get((c, d), ()))

    def total_dim(self) -> int:
        return sum(len(b) for b in self._basis.values())

    def identity(self, c) -> dict:
        return {(): self.field.one()}

    def path_target(self, c, p: Path):
        return c if not p else self.arrow_map[p[-1]][1]

    def reduce_word(self, c, word: Path) -> dict:
        """Express an arbitrary composable word as a basis combination."""
        d = self.path_target(c, word)
        if len(word) <= self.length_cutoff:
            if word in self._basis_index.get((c, d), {}):
                return {word: self.field.one()}
            table = self._reduction.get((c, d), {})
            if word in table:
                return dict(table[word])
            return {}
        # long word: rewrite a cutoff-length prefix, which strictly shortens
        head, tail = word[:self.length_cutoff], word[self.length_cutoff:]
        out: dict = {}
        f = self.field
        for bp, coef in self.reduce_word(c, head).items():
            for q, c2 in self.reduce_word(c, bp + tail).items():
                acc = f.add(out.get(q, f.zero()), f.mul(coef, c2))
                if not acc:
                    out.pop(q, None)
                else:
                    out[q] = acc
        return out

    def compose(self, c, mid, d, x: dict, y: dict) -> dict:
        """Composite of x in Hom(c, mid) followed by y in Hom(mid, d)."""
        f = self.field
        out: dict = {}
        for p, cp in x.items():
            for q, cq in y.items():
                coef = f.mul(cp, cq)
                for r, cr in self.reduce_word(c, p + q).items():
                    acc = f.add(out.get(r, f.zero()), f.mul(coef, cr))
                    if not acc:
                        out.pop(r, None)
                    else:
                        out[r] = acc
        return out

    # -- derived categories ----------------------------------------------

    def opposite(self) -> "BoundQuiverCategory":
        if self._op is None:
            q = Quiver(self.quiver.vertices, tuple((n, t, s) for n, s, t in self.quiver.arrows))
            rels = tuple(r.reversed() for r in self.relations)
            self._op = build_category(q, rels, self.field, self.length_cutoff)
            self._op._op = self
        return self._op

    def __eq__(self, other):
        return (
            isinstance(other, BoundQuiverCategory)
            and self.quiver == other.quiver
            and self.relations == other.relations
            and self.field == other.field
            and self._basis == other._basis
        )

    def __hash__(self):
        return hash((self.quiver, self.field, tuple(sorted(self._basis))))


def build_category(quiver: Quiver, relations, field: Field, length_cutoff: int) -> BoundQuiverCategory:
    if length_cutoff < 1:
        raise CategoryError("length_cutoff must be at least 1")
    arrow_map = quiver.arrow_map()
    relations = tuple(relations)
    rel_ends = [r.endpoints(arrow_map) for r in relations]

    # enumerate composable paths by length, per (source, target) pair
    by_level: list[list[tuple]] = [[(c, c, ()) for c in quiver.vertices]]
    total = len(by_level[0])
    out_arrows: dict = {c: [] for c in quiver.vertices}
    for name, s, t in quiver.arrows:
        out_arrows[s].append((name, t))
    for _ in range(length_cutoff):
        level = []
        for c, d, p in by_level[-1]:
            for name, t in out_arrows[d]:
                level.append((c, t, p + (name,)))
        total += len(level)
        if total > MAX_PATHS:
            c, d, _ = level[-1]
            raise PossiblyInfiniteError((c, d), length_cutoff)
        by_level.append(level)

    paths_by_pair: dict = {}
    for level in by_level:
        for c, d, p in level:
            paths_by_pair.setdefault((c, d), []).append(p)

    # relation translates q * r * p with every term inside the cutoff
    ideal_rows: dict = {}
    for rel, (u, v) in zip(relations, rel_ends):
        min_len = min(len(p) for _, p in rel.terms)
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
                        vec: dict = {}
                        for coef, term in rel.terms:
                            w = q + term + p
                            vec[w] = field.add(vec.get(w, field.zero()), coef)
                        ideal_rows.setdefault((x, y), []).append(vec)

    for pair, rows in sorted(ideal_rows.items()):
        cells = len(rows) * len(paths_by_pair[pair])
        if cells > MAX_DENSE_CELLS:
            raise CategoryError(
                f"Hom{pair} needs a dense elimination of {len(rows)} x {len(paths_by_pair[pair])}"
                f" = {cells} cells, above the bound {MAX_DENSE_CELLS}; lower length_cutoff "
                f"(now {length_cutoff}): it only needs to exceed the longest nonzero path")

    basis: dict = {}
    reduction: dict = {}
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


@dataclass
class TensorInfo:
    """How a tensor-product category decomposes into its two factors."""

    left: BoundQuiverCategory
    right: BoundQuiverCategory
    obj_name: dict      # (c, d) -> object of the product
    obj_pair: dict      # inverse of obj_name
    arrow_origin: dict  # arrow -> ("left", a, d) | ("right", c, b)
    left_arrow: dict    # (a, d) -> arrow name
    right_arrow: dict   # (c, b) -> arrow name


def tensor_category(C1: BoundQuiverCategory, C2: BoundQuiverCategory) -> BoundQuiverCategory:
    if C1.field != C2.field:
        raise FieldMismatchError("tensor factors over different fields")
    obj_name = {(c, d): f"{c}|{d}" for c in C1.objects for d in C2.objects}
    if len(set(obj_name.values())) != len(obj_name):
        raise CategoryError("object name clash in tensor product")
    arrows = []
    arrow_origin = {}
    left_arrow = {}
    right_arrow = {}
    for name, s, t in C1.quiver.arrows:
        for d in C2.objects:
            an = f"{name}|{d}"
            arrows.append((an, obj_name[(s, d)], obj_name[(t, d)]))
            arrow_origin[an] = ("left", name, d)
            left_arrow[(name, d)] = an
    for c in C1.objects:
        for name, s, t in C2.quiver.arrows:
            an = f"{c}|{name}"
            arrows.append((an, obj_name[(c, s)], obj_name[(c, t)]))
            arrow_origin[an] = ("right", c, name)
            right_arrow[(c, name)] = an
    if len(set(a[0] for a in arrows)) != len(arrows):
        raise CategoryError("arrow name clash in tensor product")
    quiver = Quiver(tuple(obj_name[(c, d)] for c in C1.objects for d in C2.objects), tuple(arrows))

    f = C1.field
    relations = []
    for rel in C1.relations:
        for d in C2.objects:
            relations.append(Relation(tuple(
                (coef, tuple(left_arrow[(a, d)] for a in p)) for coef, p in rel.terms
            )))
    for rel in C2.relations:
        for c in C1.objects:
            relations.append(Relation(tuple(
                (coef, tuple(right_arrow[(c, b)] for b in p)) for coef, p in rel.terms
            )))
    amap1, amap2 = C1.arrow_map, C2.arrow_map
    for name1, s1, t1 in C1.quiver.arrows:
        for name2, s2, t2 in C2.quiver.arrows:
            relations.append(Relation((
                (f.one(), (left_arrow[(name1, s2)], right_arrow[(t1, name2)])),
                (f.neg(f.one()), (right_arrow[(s1, name2)], left_arrow[(name1, t2)])),
            )))

    T = build_category(quiver, tuple(relations), f, C1.length_cutoff + C2.length_cutoff)
    T.tensor_info = TensorInfo(
        C1, C2, obj_name, {v: k for k, v in obj_name.items()},
        arrow_origin, left_arrow, right_arrow,
    )
    return T
