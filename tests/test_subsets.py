"""The `Subset` boundary: the public constructors check their input, the
library's unchecked values are the same values, and a subset is an
immutable, hashable, copyable value."""

import copy
import pickle
import re

import pytest

from mtlstab import (
    EmptySubsetError,
    NotValidatedError,
    Subset,
    SubsetError,
    all_filters,
    all_nonempty_subsets,
    from_elements,
    from_labels,
    generated_filter,
    godel_center,
    impl_left,
    impl_right,
    impl_stab,
    leq,
    mult_left,
    mult_right,
    mult_stab,
    neg,
    ortho,
    power,
    principal_filter,
    principal_ideal,
    singleton,
)
from mtlstab.fixtures import load_fixture_raw
from mtlstab.induced import (left_mult_algebra, mv_left_iso, order_iso_right,
                             right_mult_algebra)

ALL_OPS = (impl_left, impl_right, impl_stab, ortho,
           mult_left, mult_right, mult_stab)


def test_constructors_reject_out_of_range_input(fixtures):
    a4 = fixtures["a4"]
    for bits in (-1, 1 << a4.n, 1 << 70):
        with pytest.raises(SubsetError):
            Subset(a4, bits)
    for x in (-1, a4.n):
        with pytest.raises(SubsetError):
            singleton(a4, x)
        with pytest.raises(SubsetError):
            from_elements(a4, [0, x])
    with pytest.raises(KeyError):
        from_labels(a4, "a,zz")


# Every public entry point that takes a carrier element, as (fixture, call).
ELEMENT_ENTRY_POINTS = {
    "singleton": ("a4", singleton),
    "from_elements": ("a4", lambda A, x: from_elements(A, [0, x])),
    "principal_filter": ("a4", principal_filter),
    "principal_ideal": ("a4", principal_ideal),
    "leq-left": ("a4", lambda A, x: leq(A, x, 0)),
    "leq-right": ("a4", lambda A, x: leq(A, 0, x)),
    "neg": ("a4", neg),
    "power": ("a4", lambda A, x: power(A, x, 2)),
    "left_mult_algebra": ("a4", left_mult_algebra),
    "right_mult_algebra": ("a4", right_mult_algebra),
    "order_iso_right": ("a4", order_iso_right),
    "mv_left_iso": ("m6", mv_left_iso),
}


@pytest.mark.parametrize("entry", ELEMENT_ENTRY_POINTS)
@pytest.mark.parametrize("outside", ["-1", "n"])
def test_element_entry_points_reject_elements_outside_the_carrier(
        fixtures, entry, outside):
    # An unchecked -1 reads top's table entries, and n raises IndexError.
    name, call = ELEMENT_ENTRY_POINTS[entry]
    A = fixtures[name]
    x = -1 if outside == "-1" else A.n
    with pytest.raises(SubsetError,
                       match=f"^{re.escape(f'element {x} outside carrier')}$"):
        call(A, x)


def test_membership_is_false_outside_the_carrier(fixtures):
    a4 = fixtures["a4"]
    for X in (singleton(a4, 0), Subset(a4, (1 << a4.n) - 1)):
        assert 0 in X
        assert -1 not in X and a4.n not in X


def test_constructors_reject_unvalidated_algebras():
    raw = load_fixture_raw("a4")
    for make in (lambda: Subset(raw, 1), lambda: singleton(raw, 0),
                 lambda: from_elements(raw, [0, 1]), lambda: from_labels(raw, "a")):
        with pytest.raises(NotValidatedError):
            make()


def test_operators_reject_bad_input(fixtures):
    a4, b4 = fixtures["a4"], fixtures["b4"]
    raw = load_fixture_raw("a4")
    for op in ALL_OPS:
        with pytest.raises(EmptySubsetError):
            op(a4, Subset(a4, 0))
        with pytest.raises(SubsetError, match="^subsets belong to different algebras$"):
            op(a4, singleton(b4, 1))
        with pytest.raises(NotValidatedError):
            op(raw, Subset._of(raw, 1))
    with pytest.raises(SubsetError):
        singleton(a4, 0) & singleton(b4, 0)


def test_subsets_are_immutable_hashable_values(fixtures):
    A = fixtures["g6"]
    X = from_labels(A, "a,c")
    for name in ("bits", "algebra", "other"):
        with pytest.raises(AttributeError):
            setattr(X, name, 1)
        with pytest.raises(AttributeError):
            delattr(X, name)
    assert X == Subset(A, X.bits) and hash(X) == hash(Subset(A, X.bits))
    assert len({X, Subset(A, X.bits), singleton(A, 0)}) == 2
    clone = copy.copy(X)
    assert clone == X and clone.algebra is A
    B, Y = pickle.loads(pickle.dumps((A, X)))
    assert Y.algebra is B and B == A and Y.bits == X.bits
    assert Y.render() == X.render() == "a,c"
    assert impl_right(B, Y).render() == impl_right(A, X).render()


def test_library_values_equal_checked_subsets(small_corpus):
    def checked(S):
        assert type(S) is Subset
        return Subset(S.algebra, S.bits)

    for A in small_corpus.values():
        derived = [*all_filters(A), godel_center(A)]
        derived += [f(A, t) for f in (principal_filter, principal_ideal)
                    for t in range(A.n)]
        for X in all_nonempty_subsets(A):
            values = [op(A, X) for op in ALL_OPS]
            derived += [X, *values, generated_filter(A, X),
                        values[0] & values[1], values[0] | values[4]]
        for S in derived:
            assert S.algebra is A and S == checked(S)
