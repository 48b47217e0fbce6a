import time

import pytest

import crosscheck
from conftest import F5, chain, cyclic3, ex322, ka2, ka3, loop_sq, square, trivial

from gpquiver.category import (
    CategoryError,
    PossiblyInfiniteError,
    Quiver,
    Relation,
    build_category,
    tensor_category,
    tensor_name,
)
from gpquiver.linalg import GF, QQ


ALL_BUILDERS = [ka2, ka3, loop_sq, square, lambda f=QQ: chain(2, f), lambda f=QQ: chain(3, f, cutoff=5), cyclic3, ex322, trivial]


def all_cats():
    return [b() for b in ALL_BUILDERS]


def test_a2_hom_dims():
    C = ka2()
    assert C.hom_dim("1", "1") == 1
    assert C.hom_dim("2", "2") == 1
    assert C.hom_dim("1", "2") == 1
    assert C.hom_dim("2", "1") == 0


def test_square_corner_hom():
    C = square()
    assert C.hom_dim("c1", "c4") == 1
    # surviving label is the lexicographically least of the two composites
    assert C.hom_basis_paths("c1", "c4") == (("al", "be"),)


def test_ex322_total_dimension():
    C = ex322()
    assert C.total_dim() == 4
    assert C.hom_basis_paths("1", "1") == ((),)
    assert C.hom_basis_paths("1", "2") == (("al",),)
    assert C.hom_basis_paths("2", "2") == ((), ("be",))


def test_relations_evaluate_to_zero():
    for C in all_cats():
        for rel in C.relations:
            acc = {}
            f = C.field
            src = C.arrow_map[rel.terms[0][1][0]][0]
            for coef, path in rel.terms:
                for bp, c2 in C.reduce_word(src, path).items():
                    acc[bp] = f.add(acc.get(bp, f.zero()), f.mul(coef, c2))
            assert all(v == f.zero() for v in acc.values())


def test_associativity_and_units_exhaustive():
    for C in all_cats():
        f = C.field
        for c in C.objects:
            for d in C.objects:
                for p in C.hom_basis_paths(c, d):
                    x = {p: f.one()}
                    assert crosscheck.compose(C, c, c, d, {(): f.one()}, x) == x
                    assert crosscheck.compose(C, c, d, d, x, {(): f.one()}) == x
        for a in C.objects:
            for b in C.objects:
                for c in C.objects:
                    for d in C.objects:
                        for p in C.hom_basis_paths(a, b):
                            for q in C.hom_basis_paths(b, c):
                                for r in C.hom_basis_paths(c, d):
                                    x, y, z = {p: f.one()}, {q: f.one()}, {r: f.one()}
                                    xy = crosscheck.compose(C, a, b, c, x, y)
                                    yz = crosscheck.compose(C, b, c, d, y, z)
                                    assert (crosscheck.compose(C, a, c, d, xy, z)
                                            == crosscheck.compose(C, a, b, d, x, yz))


def test_opposite_involution_and_dims():
    for C in all_cats():
        op = C.opposite()
        for c in C.objects:
            for d in C.objects:
                assert op.hom_dim(c, d) == C.hom_dim(d, c)
        assert op.opposite() == C


def test_rebuild_with_larger_cutoff_stable():
    for builder, kwargs in [(ex322, {}), (square, {}), (loop_sq, {})]:
        C1 = builder(cutoff=4)
        C2 = builder(cutoff=8)
        for c in C1.objects:
            for d in C1.objects:
                assert C1.hom_dim(c, d) == C2.hom_dim(c, d)


def test_non_parallel_relation_rejected():
    q = Quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")))
    rel = Relation(((QQ.one(), ("a",)), (QQ.one(), ("b",))))
    with pytest.raises(CategoryError):
        build_category(q, (rel,), QQ, 4)


def test_free_loop_is_flagged_infinite():
    q = Quiver(("1",), (("x", "1", "1"),))
    with pytest.raises(PossiblyInfiniteError) as exc:
        build_category(q, (), QQ, 6)
    assert exc.value.pair == ("1", "1")


def exterior4(f):
    """Lambda(k^4) as a one-object quiver with relations."""
    xs = ("x1", "x2", "x3", "x4")
    rels = [Relation(((f.one(), (x, x)),)) for x in xs]
    rels += [Relation(((f.one(), (x, y)), (f.one(), (y, x))))
             for i, x in enumerate(xs) for y in xs[i + 1:]]
    return Quiver(("o",), tuple((x, "o", "o") for x in xs)), tuple(rels)


def test_lambda_k4_at_length_7_builds_quickly():
    # 21,845 paths and 77,370 relation translates; as one dense elimination
    # of 77,370 x 21,845 cells it was killed for lack of memory
    start = time.perf_counter()
    C = build_category(*exterior4(GF(2)), GF(2), 7)
    assert time.perf_counter() - start < 10
    assert C.total_dim() == 16
    assert max(len(p) for p in C.hom_basis_paths("o", "o")) == 4


def test_too_many_relation_translates_are_refused():
    # 364,090 relation translates of length up to 8: the completion lists
    # none of them
    start = time.perf_counter()
    C = build_category(*exterior4(GF(2)), GF(2), 8)
    assert time.perf_counter() - start < 5
    assert C.total_dim() == 16


def test_too_many_paths_are_refused_as_too_long_a_cutoff():
    # 349,525 paths up to length 9: the completion lists only the 16 normal
    # ones, so a longer cutoff costs a finite category nothing
    start = time.perf_counter()
    C = build_category(*exterior4(GF(2)), GF(2), 9)
    assert time.perf_counter() - start < 5
    assert C.total_dim() == 16
    shorter = build_category(*exterior4(GF(2)), GF(2), 7)
    assert C.hom_basis_paths("o", "o") == shorter.hom_basis_paths("o", "o")


def test_tensor_with_point_is_identity_on_dims():
    C = ex322()
    T = tensor_category(trivial(), C)
    for c in C.objects:
        for d in C.objects:
            assert T.hom_dim(f"*|{c}", f"*|{d}") == C.hom_dim(c, d)


def test_tensor_a2_a2_matches_square():
    T = tensor_category(ka2(), ka2())
    S = square()
    # object order: (1,1),(1,2),(2,1),(2,2) against c1,c2,c3,c4
    pairing = {"1|1": "c1", "1|2": "c2", "2|1": "c3", "2|2": "c4"}
    for c in T.objects:
        for d in T.objects:
            assert T.hom_dim(c, d) == S.hom_dim(pairing[c], pairing[d])


def test_tensor_hom_dims_multiply():
    C1, C2 = ka2(), loop_sq()
    T = tensor_category(C1, C2)
    pairs = [(c, d) for c in C1.objects for d in C2.objects]
    assert T.objects == tuple(tensor_name(c, d) for c, d in pairs)
    for c1, d1 in pairs:
        for c2, d2 in pairs:
            assert (T.hom_dim(tensor_name(c1, d1), tensor_name(c2, d2))
                    == C1.hom_dim(c1, c2) * C2.hom_dim(d1, d2))


def test_tensor_over_f5():
    T = tensor_category(ka2(F5), ka2(F5))
    assert T.hom_dim("1|1", "2|2") == 1


def test_long_word_reduction():
    C = loop_sq(cutoff=4)
    assert C.reduce_word("1", ("x",) * 7) == {}
    assert C.reduce_word("1", ("x",)) == {("x",): QQ.one()}


def two_loops(cutoff):
    """k<a, b>/(a*a, b*b, b*a + a*b*a*b), in application order aa, bb and
    ab + baba: aba = 0 follows from a translate of length 5 and ab = 0
    from one of length 6, so a build from translates within length 5 kept
    ab and abab, dim 6."""
    q = Quiver(("o",), (("a", "o", "o"), ("b", "o", "o")))
    one = QQ.one()
    rels = (Relation(((one, ("a", "a")),)), Relation(((one, ("b", "b")),)),
            Relation(((one, ("a", "b")), (one, ("b", "a", "b", "a")))))
    return q, rels, QQ, cutoff


@pytest.mark.parametrize("cutoff", range(3, 10))
def test_mixed_length_relations_build_exactly(cutoff):
    # below 5 the overlap babaa that gives aba = 0 is longer than the cutoff
    C = build_category(*two_loops(cutoff))
    assert C.hom_basis_paths("o", "o") == ((), ("a",), ("b",), ("b", "a"))
    assert C.reduce_word("o", ("a", "b")) == {}
    assert C.reduce_word("o", ("b", "a", "b")) == {}


def one_loop(cutoff):
    """k[x]/(x*x - x*x*x, x^5): x^2 = x^5 = 0 takes overlaps of length 5,
    and no translate of x^5 fits within a cutoff below 5."""
    q = Quiver(("1",), (("x", "1", "1"),))
    one = QQ.one()
    rels = (Relation(((one, ("x", "x")), (QQ.neg(one), ("x", "x", "x")))),
            Relation(((one, ("x",) * 5),)))
    return q, rels, QQ, cutoff


@pytest.mark.parametrize("cutoff", [4, 5])
def test_relation_longer_than_the_cutoff_is_imposed(cutoff):
    C = build_category(*one_loop(cutoff))
    assert C.hom_basis_paths("1", "1") == ((), ("x",))
    assert C.reduce_word("1", ("x",) * 3) == {}
