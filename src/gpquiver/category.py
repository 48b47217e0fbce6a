"""Finite k-linear categories presented by a quiver with relations.

Hom spaces are path spans modulo the two-sided ideal generated by the
relations. For each pair of objects, the relation translates q*r*p inside the
length cutoff are reduced as sparse rows over the paths of the pair, largest
path in (length, lex) order first; the reduced row echelon form gives the
basis (the paths without a pivot) and the rewrite of every other path.
Paths are stored in application order: the tuple ("a", "b") means "a then b",
which in function-composition notation is written b*a.
"""

from __future__ import annotations

from itertools import accumulate

from .linalg import Field, FieldMismatchError


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


class PathBoundError(CategoryError):
    """More paths, or relation translates of one pair, than MAX_PATHS;
    `count` says which and how many."""

    def __init__(self, count, cutoff):
        self.count = count
        super().__init__(f"{count}, above the bound {MAX_PATHS}; lower length_cutoff "
                         f"(now {cutoff}): it only needs to exceed the longest nonzero path")


# Guard against runaway path enumeration before the cutoff is reached, and on
# the relation translates of one object pair, counted before any is built.
# Lambda(k^4) has 77,370 translates at length 7 and builds in about a second;
# at length 8 it has 364,090 and is refused, and at length 9 its 349,525
# paths are.  Both refusals ask for a lower length_cutoff.
MAX_PATHS = 200_000

Path = tuple  # tuple of arrow names, application order


class Quiver:
    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(tuple(a) for a in arrows)  # of (name, source, target)
        names = [a[0] for a in self.arrows]
        if len(set(self.vertices)) != len(self.vertices):
            raise CategoryError("duplicate vertex names")
        if len(set(names)) != len(names):
            raise CategoryError("duplicate arrow names")
        vs = set(self.vertices)
        for name, s, t in self.arrows:
            if s not in vs or t not in vs:
                raise CategoryError(f"arrow {name} has unknown endpoint")

    def __eq__(self, other):
        return (type(other) is Quiver and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def arrow_map(self) -> dict:
        return {name: (s, t) for name, s, t in self.arrows}


class Relation:
    """Linear combination of parallel paths, set to zero in the category."""

    def __init__(self, terms):
        self.terms = tuple((c, tuple(p)) for c, p in terms)  # of (coefficient, path)
        if not self.terms:
            raise CategoryError("relation with no terms")
        if any(not p for _, p in self.terms):
            raise CategoryError("relation paths must be nonempty")

    def __eq__(self, other):
        return type(other) is Relation and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

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
    Values that depend on the category alone (its representables, the
    coefficient modules of D(C) and their resolutions at each cutoff) are
    made once and kept in `cached`; that is safe because the category never
    changes.
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
        self._memo: dict = {}
        self.factors = None  # (C1, C2) for C1 (x) C2, named by tensor_name
        self.source_files = ()  # the files it was parsed from, if any

    # -- hom space access -------------------------------------------------

    def hom_basis_paths(self, c, d) -> tuple:
        return self._basis.get((c, d), ())

    def hom_dim(self, c, d) -> int:
        return len(self._basis.get((c, d), ()))

    def total_dim(self) -> int:
        return sum(len(b) for b in self._basis.values())

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

    def cached(self, key, make):
        """make(), called once per category and key; later calls return the
        same object, which callers must not change."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    # -- derived categories ----------------------------------------------

    def opposite(self) -> "BoundQuiverCategory":
        if self._op is None:
            q = Quiver(self.quiver.vertices, tuple((n, t, s) for n, s, t in self.quiver.arrows))
            rels = tuple(r.reversed() for r in self.relations)
            self._op = build_category(q, rels, self.field, self.length_cutoff)
            self._op._op = self
        return self._op

    def __eq__(self, other):
        return other is self or (
            isinstance(other, BoundQuiverCategory)
            and self.quiver == other.quiver
            and self.relations == other.relations
            and self.field == other.field
            and self._basis == other._basis
        )

    def __hash__(self):
        return hash((self.quiver, self.field, tuple(sorted(self._basis))))


def _eliminate(row: dict, prow: dict, factor, field) -> None:
    """row -= factor * prow, in place, dropping the entries that cancel."""
    sub, mul = field.sub, field.mul
    for j, c in prow.items():
        if j in row:
            new = sub(row[j], mul(factor, c))
            if new:
                row[j] = new
            else:
                del row[j]
        else:
            row[j] = field.neg(mul(factor, c))


def _add_row(pivots: dict, row: dict, field) -> None:
    """Reduce a sparse row (column -> nonzero scalar) against the pivot rows,
    each keyed by its lead (smallest) column and normalized to 1 there; keep
    what is left as a new pivot row."""
    while row:
        lead = min(row)
        prow = pivots.get(lead)
        if prow is None:
            inv = field.inv(row[lead])
            pivots[lead] = {j: field.mul(inv, c) for j, c in row.items()}
            return
        _eliminate(row, prow, row[lead], field)


def _back_substitute(pivots: dict, field) -> None:
    """Clear every pivot column from the other pivot rows, rightmost pivot
    first: a reduced row holds its lead and free columns only, so one pass
    over each row's pivot columns leaves the reduced row echelon form."""
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for j in [j for j in row if j != lead and j in pivots]:
            _eliminate(row, pivots[j], row[j], field)


def build_category(quiver: Quiver, relations, field: Field, length_cutoff: int) -> BoundQuiverCategory:
    if length_cutoff < 1:
        raise CategoryError("length_cutoff must be at least 1")
    arrow_map = quiver.arrow_map()
    relations = tuple(relations)
    rel_ends = [r.endpoints(arrow_map) for r in relations]
    spans = [max(len(p) for _, p in r.terms) for r in relations]

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
            raise PathBoundError(f"{total} paths up to length {len(by_level)}", length_cutoff)
        by_level.append(level)

    paths_by_pair: dict = {}
    for level in by_level:
        for c, d, p in level:
            paths_by_pair.setdefault((c, d), []).append(p)

    # count the relation translates q * r * p of each pair before building any
    into: dict = {}    # u -> (x, number of paths x -> u of each length)
    out_of: dict = {}  # v -> (y, number of paths v -> y of each length or less)
    for (c, d), paths in paths_by_pair.items():
        lengths = [0] * (length_cutoff + 1)
        for p in paths:
            lengths[len(p)] += 1
        into.setdefault(d, []).append((c, lengths))
        out_of.setdefault(c, []).append((d, list(accumulate(lengths))))
    translates: dict = {}
    for (u, v), span in zip(rel_ends, spans):
        room = length_cutoff - span
        for x, pre in into.get(u, ()):
            for y, upto in out_of.get(v, ()):
                n = sum(pre[k] * upto[room - k] for k in range(room + 1))
                translates[(x, y)] = translates.get((x, y), 0) + n
    for pair, n in sorted(translates.items()):
        if n > MAX_PATHS:
            raise PathBoundError(f"Hom{pair} has {n} relation translates", length_cutoff)

    basis: dict = {}
    reduction: dict = {}
    max_basis_len = 0
    witness = None
    add, zero = field.add, field.zero()
    for pair, paths in sorted(paths_by_pair.items()):
        x, y = pair
        cols_desc = sorted(paths, key=_path_key, reverse=True)
        col_idx = {p: j for j, p in enumerate(cols_desc)}
        # stream each translate, as a row over col_idx, into the reduction
        pivots: dict = {}
        for rel, (u, v), span in zip(relations, rel_ends, spans):
            posts = paths_by_pair.get((v, y), ())
            for q in paths_by_pair.get((x, u), ()):  # stored by length
                if len(q) + span > length_cutoff:
                    break
                for p in posts:
                    if len(q) + span + len(p) > length_cutoff:
                        break
                    row: dict = {}
                    for coef, term in rel.terms:
                        j = col_idx[q + term + p]
                        row[j] = add(row.get(j, zero), coef)
                    _add_row(pivots, {j: c for j, c in row.items() if c}, field)
        _back_substitute(pivots, field)
        table = {}
        for lead in sorted(pivots):
            table[cols_desc[lead]] = {cols_desc[j]: field.neg(c)
                                      for j, c in sorted(pivots[lead].items()) if j != lead}
        surviving = [p for j, p in enumerate(cols_desc) if j not in pivots]
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

    cat = BoundQuiverCategory(
        quiver, relations, field, length_cutoff, quiver.vertices, arrow_map,
        basis, reduction, max_basis_len,
    )
    # a relation longer than the cutoff has no translate: it holds only if it
    # already reduces to 0 in what was built
    for rel, (u, _), span in zip(relations, rel_ends, spans):
        if span > length_cutoff:
            value: dict = {}
            for coef, p in rel.terms:
                for q, c in cat.reduce_word(u, p).items():
                    value[q] = add(value.get(q, zero), field.mul(coef, c))
            if any(value.values()):
                text = " + ".join(f"{field.fmt(c)} {'*'.join(reversed(p))}" for c, p in rel.terms)
                raise CategoryError(f"relation {text} is longer than length_cutoff "
                                    f"{length_cutoff} and does not hold at that cutoff; "
                                    f"raise length_cutoff to at least {span}")
    return cat


def tensor_name(x, y) -> str:
    """The name in C1 (x) C2 of a pair: objects (c, d), and arrows (a, d) and
    (c, b) for arrows a of C1 and b of C2."""
    return f"{x}|{y}"


def tensor_category(C1: BoundQuiverCategory, C2: BoundQuiverCategory) -> BoundQuiverCategory:
    if C1.field != C2.field:
        raise FieldMismatchError("tensor factors over different fields")
    n = tensor_name
    objects = tuple(n(c, d) for c in C1.objects for d in C2.objects)
    if len(set(objects)) != len(objects):
        raise CategoryError("object name clash in tensor product")
    arrows = [(n(a, d), n(s, d), n(t, d)) for a, s, t in C1.quiver.arrows for d in C2.objects]
    arrows += [(n(c, b), n(c, s), n(c, t)) for c in C1.objects for b, s, t in C2.quiver.arrows]
    if len(set(a[0] for a in arrows)) != len(arrows):
        raise CategoryError("arrow name clash in tensor product")

    f, one = C1.field, C1.field.one()
    relations = [Relation(tuple((coef, tuple(n(a, d) for a in p)) for coef, p in rel.terms))
                 for rel in C1.relations for d in C2.objects]
    relations += [Relation(tuple((coef, tuple(n(c, b) for b in p)) for coef, p in rel.terms))
                  for rel in C2.relations for c in C1.objects]
    relations += [Relation(((one, (n(a, s2), n(t1, b))), (f.neg(one), (n(s1, b), n(a, t2)))))
                  for a, s1, t1 in C1.quiver.arrows for b, s2, t2 in C2.quiver.arrows]

    T = build_category(Quiver(objects, arrows), tuple(relations), f,
                       C1.length_cutoff + C2.length_cutoff)
    T.factors = (C1, C2)
    return T
