import pytest

from mtlstab import construct, validate
from mtlstab.fixtures import FIXTURE_NAMES, load_fixture


@pytest.fixture(scope="session")
def fixtures():
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


def relabel(A, order):
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


def _make(n, mul, imp, labels, name):
    A = construct(n, mul, imp, labels=labels, name=name)
    report = validate(A)
    assert report.valid, report.violations
    return A


@pytest.fixture(scope="session")
def boolean2():
    return _make(
        2,
        [[0, 0], [0, 1]],
        [[1, 1], [0, 1]],
        ("0", "1"),
        "boolean2",
    )


@pytest.fixture(scope="session")
def diamond():
    # 2x2 Boolean algebra: atoms a, b with a ^ b = 0, a v b = 1.
    return _make(
        4,
        [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]],
        [[3, 3, 3, 3], [2, 3, 2, 3], [1, 1, 3, 3], [0, 1, 2, 3]],
        ("0", "a", "b", "1"),
        "diamond",
    )


@pytest.fixture(scope="session")
def small_corpus(fixtures, boolean2, diamond):
    """Fixtures plus the two handmade algebras; n <= 6 throughout."""
    corpus = dict(fixtures)
    corpus["boolean2"] = boolean2
    corpus["diamond"] = diamond
    return corpus
