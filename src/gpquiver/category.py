"""Finite k-linear categories presented by a quiver with relations.

Hom spaces are path spans modulo the two-sided ideal generated by the
relations. The relations are completed to the reduced Groebner basis of the
ideal for the (length, lex) order on paths (Bergman, The diamond lemma for
ring theory, Adv. Math. 29, 1978; Green, Noncommutative Groebner bases, and
projective resolutions, Progr. Math. 173, 1999): monic rules tip -> tail,
each tip the largest path of its rule and no tip inside another, every tail
path normal, that is with no tip inside. The normal paths from c to d are
the basis of Hom(c, d), and rewriting tips by their tails, in any order,
takes every path to the same normal form.
Paths are stored in application order: the tuple ("a", "b") means "a then b",
which in function-composition notation is written b*a.
"""

from __future__ import annotations

from heapq import heappop, heappush

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


# Completion need not end, and below a long cutoff an infinite-dimensional
# category has more normal paths than memory holds, so a build counts work:
# terms and rules scanned, overlaps queued, arrows of listed normal paths.
# Past MAX_WORK units it is refused, within a second; Lambda(k^8) takes 8,500.
MAX_WORK = 200_000


class _Work:
    """The units of work left to one build, or to one normal form."""

    def __init__(self, cutoff):
        self.cutoff = cutoff
        self.left = MAX_WORK

    def spend(self, units=1):
        self.left -= units
        if self.left < 0:
            raise CategoryError(
                f"gave up after {MAX_WORK} units of work completing the relations and "
                f"listing normal paths (length_cutoff {self.cutoff}): the relations may have "
                f"no finite Groebner basis, or the category may be infinite-dimensional")


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

    Basis labels are normal paths, and `rules`, the reduced Groebner basis,
    rewrite every other path into them (see the module docstring).
    Values that depend on the category alone (its representables, the
    coefficient modules of D(C) and their resolutions at each cutoff) are
    made once and kept in `cached`; that is safe because the category never
    changes.
    """

    def __init__(self, quiver, relations, field, length_cutoff, basis, rules):
        self.quiver = quiver
        self.relations = tuple(relations)
        self.field: Field = field
        self.length_cutoff = length_cutoff
        self.objects = quiver.vertices
        self.arrow_map = quiver.arrow_map()
        self._basis = basis
        self._rules = rules
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

    def reduce_word(self, c, word: Path) -> dict:
        """The normal form of a composable word from c: basis paths, largest
        first, with their nonzero coefficients."""
        if not word:
            return {(): self.field.one()}
        return dict(self.cached(("normal form", word), lambda: _reduce(
            {word: self.field.one()}, self._rules, self.field, _Work(self.length_cutoff))))

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


def _inside(part: Path, word: Path) -> bool:
    n = len(part)
    return any(word[i:i + n] == part for i in range(len(word) - n + 1))


def _tip_at(word: Path, rules: dict, lengths):
    """(i, tip) for the first tip of `rules` inside word, at word[i:], or None."""
    for i in range(len(word)):
        for n in lengths:
            if word[i:i + n] in rules:
                return i, word[i:i + n]
    return None


def _add_to(acc: dict, terms, field) -> dict:
    """acc += terms, pairs (path, scalar), dropping the paths that cancel."""
    for p, c in terms:
        c = field.add(acc.get(p, field.zero()), c)
        if c:
            acc[p] = c
        else:
            acc.pop(p, None)
    return acc


def _reduce(poly: dict, rules: dict, field, work: _Work) -> dict:
    """The normal form of a combination of parallel paths (path -> nonzero
    scalar): rewrite its largest path that has a tip inside until none has,
    each step making the paths it rewrites smaller. Paths come out largest
    first."""
    work.spend(len(rules))
    lengths = sorted({len(t) for t in rules})
    todo, out = dict(poly), {}
    while todo:
        word = max(todo, key=_path_key)
        work.spend(len(todo) + len(word) * len(lengths))
        coef = todo.pop(word)
        hit = _tip_at(word, rules, lengths)
        if hit is None:
            out[word] = coef
        else:
            i, tip = hit
            _add_to(todo, ((word[:i] + p + word[i + len(tip):], field.mul(coef, c))
                           for p, c in rules[tip].items()), field)
    return out


def _complete(relations, field, cutoff: int, work: _Work) -> dict:
    """The reduced Groebner basis of the ideal the relations generate, as
    tip -> tail: the rule tip = tail. Every relation and
    every overlap of two tips, smallest overlap first, is reduced; what is
    left becomes a new rule, whose tip sends the rules with that tip inside
    their own tip back to be reduced and is rewritten in the others' tails.
    When every relation is homogeneous, so is every rule, and an overlap
    longer than the cutoff can only give a rule that does too: such rules
    change no path within the cutoff, and a category with a normal path as
    long as the cutoff is refused anyway, so those overlaps are left out."""
    rules: dict = {}
    todo = [_add_to({}, ((p, c) for c, p in rel.terms), field) for rel in relations]
    overlaps: list = []  # heap of (length, word, tip at its start, tip at its end)
    graded = all(len({len(p) for p in poly}) <= 1 for poly in todo)
    while todo or overlaps:
        if todo:
            poly = todo.pop()
        else:
            _, word, left, right = heappop(overlaps)
            if left not in rules or right not in rules:
                continue
            poly = _add_to({p + word[len(left):]: c for p, c in rules[left].items()},
                           ((word[:len(word) - len(right)] + p, field.neg(c))
                            for p, c in rules[right].items()), field)
        poly = _reduce(poly, rules, field, work)
        if not poly:
            continue
        work.spend(len(rules))
        tip, lead = next(iter(poly.items()))
        inv = field.neg(field.inv(lead))
        for old in [t for t in rules if _inside(tip, t)]:
            todo.append({old: field.one(), **{p: field.neg(c) for p, c in rules.pop(old).items()}})
        rules[tip] = {p: field.mul(inv, c) for p, c in poly.items() if p != tip}
        for t, tail in rules.items():
            if t != tip and any(_inside(tip, p) for p in tail):
                rules[t] = _reduce(tail, rules, field, work)
        for t in rules:
            for a, b in ((t, tip), (tip, t)) if t != tip else ((tip, tip),):
                for k in range(1, min(len(a), len(b))):
                    if a[len(a) - k:] == b[:k] and not (graded and len(a) + len(b) - k > cutoff):
                        work.spend()
                        word = a + b[k:]
                        heappush(overlaps, (len(word), word, a, b))
    return rules


def build_category(quiver: Quiver, relations, field: Field, length_cutoff: int) -> BoundQuiverCategory:
    if length_cutoff < 1:
        raise CategoryError("length_cutoff must be at least 1")
    arrow_map = quiver.arrow_map()
    relations = tuple(relations)
    for rel in relations:
        rel.endpoints(arrow_map)
    work = _Work(length_cutoff)
    rules = _complete(relations, field, length_cutoff, work)

    # list the normal paths from each object by length: a path one arrow
    # longer than a normal path is normal unless a tip ends it
    lengths = sorted({len(t) for t in rules})
    out_arrows: dict = {c: [] for c in quiver.vertices}
    for name, s, t in quiver.arrows:
        out_arrows[s].append((name, t))
    basis: dict = {}
    for c in sorted(quiver.vertices):
        level = [((), c)]
        while level:
            if len(level[0][0]) == length_cutoff:
                raise PossiblyInfiniteError((c, min(d for _, d in level)), length_cutoff)
            for p, d in level:
                basis.setdefault((c, d), []).append(p)
            nxt = []
            for p, d in level:
                for name, t in out_arrows[d]:
                    q = p + (name,)
                    if not any(q[-n:] in rules for n in lengths if n <= len(q)):
                        work.spend(len(q))
                        nxt.append((q, t))
            level = nxt
    basis = {pair: tuple(sorted(paths, key=_path_key)) for pair, paths in sorted(basis.items())}
    return BoundQuiverCategory(quiver, relations, field, length_cutoff, basis, rules)


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
