import gc
import weakref
from dataclasses import replace

import pytest

from mtlstab import (
    EmptySubsetError,
    Subset,
    SubsetError,
    all_nonempty_subsets,
    empty,
    from_labels,
    full,
    generated_filter,
    impl_left,
    impl_right,
    impl_stab,
    is_filter,
    mult_left,
    mult_right,
    mult_stab,
    ortho,
    singleton,
    stabilizer_suite,
)
from mtlstab.fixtures import load_fixture
from mtlstab.search import FAMILIES, gen_family

ALL_OPS = (impl_left, impl_right, impl_stab, ortho,
           mult_left, mult_right, mult_stab)


def oracle(A, X, kind):
    """Literal definition, elementwise; no bitmask machinery."""
    preds = {
        "impl_left": lambda a, x: A.imp[a][x] == x,
        "impl_right": lambda a, x: A.imp[x][a] == a,
        "ortho": lambda a, x: A.join[a][x] == A.top,
        "mult_left": lambda a, x: A.mul[a][x] == x,
        "mult_right": lambda a, x: A.mul[x][a] == a,
    }
    pred = preds[kind]
    return frozenset(
        a for a in range(A.n) if all(pred(a, x) for x in X.members())
    )


def test_impl_left_examples(fixtures):
    a4, a5 = fixtures["a4"], fixtures["a5"]
    assert impl_left(a4, from_labels(a4, "b")).render() == "1"
    assert impl_left(a5, from_labels(a5, "b")).render() == "a,1"
    for A in fixtures.values():
        assert impl_left(A, singleton(A, A.top)) == full(A)


def test_impl_right_examples(fixtures):
    a4, g6 = fixtures["a4"], fixtures["g6"]
    assert impl_right(a4, from_labels(a4, "b")).render() == "a,1"
    assert impl_right(g6, from_labels(g6, "b")).render() == "a,1"
    for A in fixtures.values():
        assert impl_right(A, singleton(A, A.bot)) == singleton(A, A.top)


def test_impl_stab_examples(fixtures):
    a4 = fixtures["a4"]
    assert impl_stab(a4, from_labels(a4, "b")).render() == "1"
    for A in fixtures.values():
        assert impl_stab(A, singleton(A, A.bot)) == singleton(A, A.top)
        assert impl_stab(A, singleton(A, A.top)) == full(A)


def test_ortho_examples(fixtures, diamond):
    a4 = fixtures["a4"]
    assert ortho(a4, singleton(a4, a4.bot)).render() == "1"
    assert ortho(diamond, from_labels(diamond, "a")).render() == "b,1"


def test_ortho_equals_impl_stab_everywhere(small_corpus):
    for A in small_corpus.values():
        for X in all_nonempty_subsets(A):
            assert ortho(A, X) == impl_stab(A, X)


def test_mult_left_examples(fixtures):
    b4, a4 = fixtures["b4"], fixtures["a4"]
    assert mult_left(b4, from_labels(b4, "b")).render() == "b,1"
    assert mult_left(a4, from_labels(a4, "a,b")).render() == "1"
    for A in fixtures.values():
        assert mult_left(A, singleton(A, A.bot)) == full(A)


def test_mult_right_examples(fixtures):
    c5 = fixtures["c5"]
    assert mult_right(c5, from_labels(c5, "a,c")).render() == "0,a"
    for A in fixtures.values():
        assert mult_right(A, singleton(A, A.bot)) == singleton(A, A.bot)
        assert mult_right(A, singleton(A, A.top)) == full(A)


def test_mult_stab_examples(fixtures):
    a4, g6 = fixtures["a4"], fixtures["g6"]
    assert mult_stab(a4, from_labels(a4, "a,b")).is_empty()
    assert mult_stab(g6, from_labels(g6, "b")).render() == "b"
    for A in fixtures.values():
        assert mult_stab(A, singleton(A, A.bot)) == singleton(A, A.bot)


def test_suite_reports_all_seven(fixtures):
    a4 = fixtures["a4"]
    rep = stabilizer_suite(a4, from_labels(a4, "b"))
    got = {k: v for t, k, v in rep.records if t == "stab"}
    assert got == {
        "set": "b",
        "impl_left": "1", "impl_right": "a,1", "impl_stab": "1",
        "ortho": "1",
        "mult_left": "b,1", "mult_right": "0,b", "mult_stab": "b",
    }
    rep_top = stabilizer_suite(a4, singleton(a4, a4.top))
    got_top = {k: v for t, k, v in rep_top.records if t == "stab"}
    assert got_top["impl_left"] == got_top["impl_right"] == "0,a,b,1"
    assert got_top["mult_left"] == "1"
    assert got_top["mult_right"] == "0,a,b,1"
    rep_bot = stabilizer_suite(a4, singleton(a4, a4.bot))
    got_bot = {k: v for t, k, v in rep_bot.records if t == "stab"}
    assert got_bot["impl_right"] == "1"
    assert got_bot["mult_left"] == "0,a,b,1"
    assert got_bot["mult_right"] == "0"


def test_empty_input_rejected(fixtures):
    a4 = fixtures["a4"]
    for op in ALL_OPS:
        with pytest.raises(EmptySubsetError):
            op(a4, empty(a4))


def test_cross_algebra_subset_rejected(fixtures):
    a4, b4 = fixtures["a4"], fixtures["b4"]
    with pytest.raises((SubsetError, ValueError)):
        impl_left(a4, singleton(b4, 1))


def test_matches_literal_definition(small_corpus):
    kinds = ("impl_left", "impl_right", "ortho", "mult_left", "mult_right")
    ops = (impl_left, impl_right, ortho, mult_left, mult_right)
    for A in small_corpus.values():
        for X in all_nonempty_subsets(A):
            for kind, op in zip(kinds, ops):
                assert frozenset(op(A, X).members()) == oracle(A, X, kind)


def test_intersection_of_singletons(small_corpus):
    for A in small_corpus.values():
        for X in all_nonempty_subsets(A):
            for op in (impl_left, impl_right, impl_stab,
                       mult_left, mult_right, mult_stab):
                inter = full(A)
                for x in X.members():
                    inter &= op(A, singleton(A, x))
                assert op(A, X) == inter


def test_antitone_in_the_subset(small_corpus):
    for A in small_corpus.values():
        for Y in all_nonempty_subsets(A):
            sub = (Y.bits - 1) & Y.bits
            while sub:
                X = Subset(A, sub)
                for op in (impl_left, impl_right, mult_left, mult_right):
                    assert op(A, Y).issubset(op(A, X))
                sub = (sub - 1) & Y.bits


def test_generated_filter_blindness(small_corpus):
    for A in small_corpus.values():
        for X in all_nonempty_subsets(A):
            gen = generated_filter(A, X)
            assert impl_right(A, gen) == impl_right(A, X)
            assert mult_right(A, gen) == mult_right(A, X)


def test_left_stabilizers_are_filters(small_corpus):
    for A in small_corpus.values():
        for X in all_nonempty_subsets(A):
            assert is_filter(A, impl_left(A, X))
            assert is_filter(A, mult_left(A, X))


def test_generated_filter_meets_right_stab_in_top(small_corpus):
    for A in small_corpus.values():
        top = singleton(A, A.top)
        for X in all_nonempty_subsets(A):
            gen = generated_filter(A, X)
            assert (gen & impl_right(A, X)) == top
            assert (gen & impl_stab(A, X)) == top


def test_mult_left_members_dominate(small_corpus):
    # mul(a, x) == x forces x <= a
    for A in small_corpus.values():
        for X in all_nonempty_subsets(A):
            for a in mult_left(A, X).members():
                for x in X.members():
                    assert A.meet[x][a] == x


ONE_SIDED_OPS = (impl_left, impl_right, ortho, mult_left, mult_right)


def test_operator_values_match_literal_definitions(small_corpus):
    # Every subset ascending on a cold algebra, then descending on the warm
    # one.  The claims that read operator values on the singletons only
    # rest on this test for the value of every other subset.
    algebras = ([replace(A) for A in small_corpus.values()]
                + [gen_family(f, 9) for f in FAMILIES]
                + [gen_family(f, 13) for f in ("lukasiewicz", "godel")])
    for A in algebras:
        subsets = list(all_nonempty_subsets(A))
        literal = [[oracle(A, X, op.__name__) for op in ONE_SIDED_OPS]
                   for X in subsets]
        for order in (range(len(subsets)), range(len(subsets) - 1, -1, -1)):
            for i in order:
                X = subsets[i]
                got = [frozenset(op(A, X).members()) for op in ONE_SIDED_OPS]
                assert got == literal[i], (A.name, X.render())


def test_preconditions_run_on_a_warm_algebra():
    a4, b4 = load_fixture("a4"), load_fixture("b4")
    for op in ALL_OPS:
        for X in all_nonempty_subsets(a4):
            op(a4, X)
    # b4's {1} has the bits of a4's {1}, whose value a4 has computed.
    with pytest.raises(ValueError):
        impl_left(a4, singleton(b4, 1))
    for op in ALL_OPS:
        with pytest.raises(EmptySubsetError):
            op(a4, empty(a4))


def test_mask_cache_makes_no_reference_cycle():
    # With the cyclic collector off, the algebra must die by reference
    # counting alone: a cache that kept Subset values would hold it alive.
    gc.disable()
    try:
        A = load_fixture("a4")
        for op in ALL_OPS:
            for x in range(A.n):
                op(A, singleton(A, x))
        ref = weakref.ref(A)
        del A
        assert ref() is None
    finally:
        gc.enable()
