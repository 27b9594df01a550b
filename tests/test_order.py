import pytest

from conftest import (ORACLE_SOURCES, closed_by_pair_scan, generated_by_fixpoint,
                      oracle_corpus, prime_by_pair_scan)
from mtlstab import (
    NotALatticeIdealError,
    NotAProperFilterError,
    Subset,
    SubsetError,
    all_filters,
    all_nonempty_subsets,
    from_labels,
    full,
    generated_filter,
    generated_lattice_ideal,
    godel_center,
    is_filter,
    is_lattice_ideal,
    is_prime_filter,
    is_prime_lattice_ideal,
    is_proper_filter,
    is_subalgebra,
    principal_filter,
    principal_ideal,
    singleton,
    subalgebra_violation,
)
from mtlstab.core import _downsets, _upsets


def brute_filters(A):
    """Independent oracle: test every subset against the filter definition."""
    out = []
    for X in all_nonempty_subsets(A):
        xs = X.members()
        closed = all(A.mul[x][y] in X for x in xs for y in xs)
        upward = all(y in X for x in xs for y in range(A.n)
                     if A.meet[x][y] == x)
        if closed and upward:
            out.append(X.bits)
    return out


def test_is_filter_examples(fixtures):
    m6, a4 = fixtures["m6"], fixtures["a4"]
    # the published tables make mul(a, a) = b, so {a, 1} is not mul-closed
    assert not is_filter(m6, from_labels(m6, "a,1"))
    assert is_filter(m6, from_labels(m6, "a,b,1"))
    for A in fixtures.values():
        assert is_filter(A, singleton(A, A.top))
    assert not is_filter(a4, from_labels(a4, "a,1"))


def test_generated_filter_examples(fixtures):
    a4 = fixtures["a4"]
    assert generated_filter(a4, from_labels(a4, "b")) == from_labels(a4, "b,1")
    assert generated_filter(a4, from_labels(a4, "a")) == full(a4)
    for A in fixtures.values():
        top = singleton(A, A.top)
        assert generated_filter(A, top) == top


def test_generated_filter_is_least_filter(small_corpus):
    for A in small_corpus.values():
        filters = brute_filters(A)
        for X in all_nonempty_subsets(A):
            expect = None
            for bits in filters:
                if X.bits & ~bits == 0:
                    expect = bits if expect is None else expect & bits
            assert generated_filter(A, X).bits == expect


def test_generated_filter_idempotent_and_monotone(small_corpus):
    for A in small_corpus.values():
        for X in all_nonempty_subsets(A):
            gen = generated_filter(A, X)
            assert generated_filter(A, gen) == gen
        for Y in all_nonempty_subsets(A):
            sub = (Y.bits - 1) & Y.bits
            while sub:
                genx = generated_filter(A, Subset(A, sub))
                assert genx.issubset(generated_filter(A, Y))
                sub = (sub - 1) & Y.bits


def test_prime_filter_examples(fixtures, diamond):
    a4 = fixtures["a4"]
    assert is_prime_filter(a4, from_labels(a4, "b,1"))
    assert not is_prime_filter(diamond, singleton(diamond, diamond.top))
    with pytest.raises(NotAProperFilterError):
        is_prime_filter(a4, full(a4))
    with pytest.raises(NotAProperFilterError):
        is_prime_filter(a4, from_labels(a4, "a,1"))


def test_all_filters(fixtures, boolean2, small_corpus):
    a4, m6 = fixtures["a4"], fixtures["m6"]
    got = [F.render() for F in all_filters(a4)]
    assert got == ["1", "b,1", "0,a,b,1"] or sorted(got) == sorted(
        ["1", "b,1", "0,a,b,1"])
    assert [F.bits for F in all_filters(a4)] == sorted(
        F.bits for F in all_filters(a4))
    assert [F.render() for F in all_filters(boolean2)] == ["1", "0,1"]
    assert from_labels(m6, "a,b,1") in all_filters(m6)
    assert from_labels(m6, "a,1") not in all_filters(m6)
    for A in small_corpus.values():
        assert [F.bits for F in all_filters(A)] == brute_filters(A)


def test_lattice_ideal_examples(fixtures):
    c5, a4 = fixtures["c5"], fixtures["a4"]
    for A in fixtures.values():
        assert is_lattice_ideal(A, singleton(A, A.bot))
    assert not is_lattice_ideal(c5, from_labels(c5, "0,a,c"))
    assert is_lattice_ideal(a4, from_labels(a4, "0,a"))


def test_principal_ideal_and_filter(fixtures, small_corpus):
    a4 = fixtures["a4"]
    b = a4.index("b")
    assert principal_ideal(a4, b) == from_labels(a4, "0,a,b")
    assert principal_filter(a4, b) == from_labels(a4, "b,1")
    for A in small_corpus.values():
        assert principal_ideal(A, A.bot) == singleton(A, A.bot)
        for t in range(A.n):
            assert principal_ideal(A, t) == generated_lattice_ideal(
                A, singleton(A, t))


def test_principal_cones_reject_elements_outside_the_carrier(fixtures):
    a4 = fixtures["a4"]
    for cone in (principal_filter, principal_ideal):
        for t in (-1, -a4.n, a4.n, a4.n + 5):
            with pytest.raises(SubsetError, match="outside carrier"):
                cone(a4, t)


def test_order_rejects_a_subset_of_another_algebra(fixtures):
    # The same error the stabilizer operators raise, before any table read.
    a4, b4 = fixtures["a4"], fixtures["b4"]
    foreign = singleton(b4, b4.top)
    for check in (is_filter, is_proper_filter, generated_filter,
                  is_prime_filter, is_lattice_ideal, generated_lattice_ideal,
                  is_prime_lattice_ideal, subalgebra_violation,
                  is_subalgebra):
        with pytest.raises(SubsetError,
                           match="^subsets belong to different algebras$"):
            check(a4, foreign)


def test_generated_lattice_ideal_examples(fixtures):
    a5, a4 = fixtures["a5"], fixtures["a4"]
    for A in fixtures.values():
        bot = singleton(A, A.bot)
        assert generated_lattice_ideal(A, bot) == bot
    assert generated_lattice_ideal(a5, from_labels(a5, "a,b")) == full(a5)
    assert generated_lattice_ideal(a4, from_labels(a4, "a")) == \
        from_labels(a4, "0,a")


def test_prime_lattice_ideal_examples(fixtures, diamond):
    a4 = fixtures["a4"]
    assert is_prime_lattice_ideal(a4, from_labels(a4, "0,a"))
    assert not is_prime_lattice_ideal(diamond, singleton(diamond, diamond.bot))
    assert is_prime_lattice_ideal(a4, full(a4))
    with pytest.raises(NotALatticeIdealError):
        is_prime_lattice_ideal(a4, from_labels(a4, "a,b"))


def test_chain_algebras_have_all_proper_filters_and_ideals_prime(fixtures):
    for name in ("a4", "b4", "c5", "i6"):
        A = fixtures[name]
        for F in all_filters(A):
            if is_proper_filter(A, F):
                assert is_prime_filter(A, F)
        for X in all_nonempty_subsets(A):
            if is_lattice_ideal(A, X):
                assert is_prime_lattice_ideal(A, X)


@pytest.mark.parametrize("source", ORACLE_SOURCES)
def test_cone_routines_match_pair_scan_oracles(source):
    for A in oracle_corpus(source):
        ups, downs = _upsets(A), _downsets(A)
        for bits in range(1 << A.n):
            S = Subset(A, bits)
            where = (A.name, S.render())
            is_f = is_filter(A, S)
            is_i = is_lattice_ideal(A, S)
            assert is_f == closed_by_pair_scan(A, S, A.mul, ups), where
            assert is_i == closed_by_pair_scan(A, S, A.join, downs), where
            if bits:
                assert generated_filter(A, S) \
                    == generated_by_fixpoint(A, S, A.mul, ups), where
                assert generated_lattice_ideal(A, S) \
                    == generated_by_fixpoint(A, S, A.join, downs), where
            if is_f and is_proper_filter(A, S):
                assert is_prime_filter(A, S) \
                    == prime_by_pair_scan(A, S, A.join), where
            if is_i:
                assert is_prime_lattice_ideal(A, S) \
                    == prime_by_pair_scan(A, S, A.meet), where


def test_godel_center(fixtures, small_corpus):
    a4, g6 = fixtures["a4"], fixtures["g6"]
    assert godel_center(a4) == from_labels(a4, "0,b,1")
    assert godel_center(g6) == full(g6)
    for A in small_corpus.values():
        center = godel_center(A)
        assert A.bot in center and A.top in center
        for e in center.members():
            for f in center.members():
                assert A.mul[e][f] in center
                assert A.meet[e][f] in center
                assert A.join[e][f] in center


def test_subalgebra_examples(fixtures, small_corpus):
    g6, a4 = fixtures["g6"], fixtures["a4"]
    S = from_labels(g6, "0,a,1")
    assert not is_subalgebra(g6, S)
    op, x, y, r = subalgebra_violation(g6, S)
    assert (op, g6.labels[x], g6.labels[y], g6.labels[r]) == ("imp", "a", "0", "d")
    assert is_subalgebra(a4, from_labels(a4, "0,1"))
    for A in small_corpus.values():
        assert is_subalgebra(A, full(A))
