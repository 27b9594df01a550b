"""Property tests under random carrier relabellings.

A relabelling moves every element, bot and top included, to a new carrier
position.  Claim verdicts and scopes and the canonical form must not notice,
and every stabilizer operator must equal its literal definition on any
subset of the relabelled algebra.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mtlstab import (  # noqa: E402
    Subset,
    construct,
    impl_left,
    impl_right,
    impl_stab,
    mult_left,
    mult_right,
    mult_stab,
    ortho,
    validate,
)
from mtlstab.claims import verify_all  # noqa: E402
from mtlstab.fixtures import load_all_fixtures  # noqa: E402
from mtlstab.search import canonical_form, enumerate_all  # noqa: E402

ALGEBRAS = list(load_all_fixtures().values()) + enumerate_all(4)


def _relabel(A, order):
    """A copy of A whose position p holds the old element order[p]."""
    new = [0] * A.n
    for position, old in enumerate(order):
        new[old] = position

    def move(table):
        return [[new[table[order[i]][order[j]]] for j in range(A.n)]
                for i in range(A.n)]

    B = construct(A.n, move(A.mul), move(A.imp), bot=new[A.bot],
                  top=new[A.top], labels=[A.labels[old] for old in order],
                  name=A.name)
    assert validate(B).valid
    return B


@st.composite
def relabelled(draw):
    A = draw(st.sampled_from(ALGEBRAS))
    return A, _relabel(A, draw(st.permutations(range(A.n))))


def _verdicts(A):
    return [(o.claim, o.verdict, o.scope) for o in verify_all(A)]


@settings(max_examples=25, deadline=None)
@given(relabelled())
def test_verify_vector_and_canonical_form_survive_relabelling(pair):
    A, B = pair
    assert _verdicts(B) == _verdicts(A)
    assert canonical_form(B) == canonical_form(A)


def _literal(A, X, fixed):
    return sum(1 << a for a in range(A.n) if all(fixed(A, a, x) for x in X))


LITERAL = {
    impl_left: lambda A, a, x: A.imp[a][x] == x,
    impl_right: lambda A, a, x: A.imp[x][a] == a,
    ortho: lambda A, a, x: A.join[a][x] == A.top,
    mult_left: lambda A, a, x: A.mul[a][x] == x,
    mult_right: lambda A, a, x: A.mul[x][a] == a,
}
TWO_SIDED = {impl_stab: (impl_left, impl_right),
             mult_stab: (mult_left, mult_right)}


@settings(max_examples=60, deadline=None)
@given(relabelled(), st.data())
def test_operators_match_literal_definitions(pair, data):
    _, B = pair
    full = (1 << B.n) - 1
    for bits in data.draw(st.lists(st.integers(1, full), min_size=1,
                                   max_size=8)):
        X = Subset(B, bits)
        literal = {op: _literal(B, X, fixed) for op, fixed in LITERAL.items()}
        for op, bits_expected in literal.items():
            assert op(B, X).bits == bits_expected, (op.__name__, X)
        for op, (left, right) in TWO_SIDED.items():
            assert op(B, X).bits == literal[left] & literal[right], (
                op.__name__, X)
