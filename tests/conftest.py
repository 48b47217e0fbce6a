"""Shared category builders for the test suite."""

from hypothesis import Phase, settings

from gpquiver.category import Quiver, Relation, build_category
from gpquiver.linalg import GF, QQ


def one(field):
    return field.one()


def neg_one(field):
    return field.neg(field.one())


def ka2(field=QQ, cutoff=4):
    q = Quiver(("1", "2"), (("a", "1", "2"),))
    return build_category(q, (), field, cutoff)


def ka3(field=QQ, cutoff=4):
    q = Quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")))
    return build_category(q, (), field, cutoff)


def loop_sq(field=QQ, cutoff=4):
    # k[x]/(x^2) as a one-object category
    q = Quiver(("1",), (("x", "1", "1"),))
    rel = Relation(((one(field), ("x", "x")),))
    return build_category(q, (rel,), field, cutoff)


def exterior2(field=QQ, cutoff=4):
    # the exterior algebra on two generators as a one-object category
    q = Quiver(("o",), (("x1", "o", "o"), ("x2", "o", "o")))
    rels = (
        Relation(((one(field), ("x1", "x1")),)),
        Relation(((one(field), ("x2", "x2")),)),
        Relation(((one(field), ("x1", "x2")), (one(field), ("x2", "x1")))),
    )
    return build_category(q, rels, field, cutoff)


def square(field=QQ, cutoff=4):
    # commutative square: both length-two composites agree
    q = Quiver(
        ("c1", "c2", "c3", "c4"),
        (("al", "c1", "c2"), ("be", "c2", "c4"), ("mu", "c1", "c3"), ("ga", "c3", "c4")),
    )
    rel = Relation(((one(field), ("al", "be")), (neg_one(field), ("mu", "ga"))))
    return build_category(q, (rel,), field, cutoff)


def chain(n, field=QQ, cutoff=4):
    # c_n -> ... -> c_0 with consecutive composites zero
    vs = tuple(f"c{i}" for i in range(n + 1))
    arrows = tuple((f"d{i}", f"c{i}", f"c{i-1}") for i in range(1, n + 1))
    rels = tuple(
        Relation(((one(field), (f"d{i+1}", f"d{i}")),)) for i in range(1, n)
    )
    return build_category(Quiver(vs, arrows), rels, field, cutoff)


def cyclic3(field=QQ, cutoff=4):
    # three objects in a cycle, all length-two composites zero
    vs = ("c0", "c1", "c2")
    arrows = (("d0", "c0", "c2"), ("d1", "c1", "c0"), ("d2", "c2", "c1"))
    succ = {"d1": "d0", "d2": "d1", "d0": "d2"}
    rels = tuple(Relation(((one(field), (a, succ[a])),)) for a in ("d0", "d1", "d2"))
    return build_category(Quiver(vs, arrows), rels, field, cutoff)


def ex322(field=QQ, cutoff=4):
    # arrow into a vertex with a loop, loop square and loop-after-arrow zero
    q = Quiver(("1", "2"), (("al", "1", "2"), ("be", "2", "2")))
    rels = (
        Relation(((one(field), ("be", "be")),)),
        Relation(((one(field), ("al", "be")),)),
    )
    return build_category(q, rels, field, cutoff)


def ex322_op(field=QQ, cutoff=4):
    # the opposite presentation: arrow out of the loop vertex
    q = Quiver(("1", "2"), (("ao", "2", "1"), ("bo", "2", "2")))
    rels = (
        Relation(((one(field), ("bo", "bo")),)),
        Relation(((one(field), ("bo", "ao")),)),
    )
    return build_category(q, rels, field, cutoff)


_tensor_cache = {}


def tensor322(field=QQ):
    from gpquiver.category import tensor_category

    key = repr(field)
    if key not in _tensor_cache:
        # the factors are nilpotent at length two, so cutoff 2 is exact
        _tensor_cache[key] = tensor_category(ex322(field, 2), ex322_op(field, 2))
    return _tensor_cache[key]


def module322(T):
    """The witness module: zero over the source vertex, the representable at
    the loop vertex over the loop vertex, with the loop acting as the unique
    square-zero endomorphism."""
    from gpquiver.modules import Module, representable
    from gpquiver.nakayama import precomposition

    lam2 = T.factors[1]
    q2 = representable(lam2, "2")
    s = precomposition(lam2, "bo")
    dims = {"1|1": 0, "1|2": 0, "2|1": q2.dims["1"], "2|2": q2.dims["2"]}
    mats = {}
    for d in lam2.objects:
        mats[f"be|{d}"] = s[d]
    for b in lam2.arrow_map:
        mats[f"2|{b}"] = q2.mats[b]
    return Module(T, dims, mats)


def trivial(field=QQ, cutoff=2):
    return build_category(Quiver(("*",), ()), (), field, cutoff)


F2 = GF(2)
F5 = GF(5)


# The property tests run inside the tier-1 time budget, on the same examples
# every run; tests with their own @settings keep them.  The explain phase is
# left out: in hypothesis 6.155 it can crash on a failing example (an
# assertion in its shrinker) and hide the falsifying example it would print.
settings.register_profile("tier1", max_examples=25, deadline=None, derandomize=True,
                          phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("tier1")
