import dataclasses
import random
from collections import Counter
from itertools import product

import pytest

from conftest import ORACLE_SOURCES, oracle_corpus, product_algebra, relabel
from mtlstab import (InternalConsistencyError, Subset, from_labels, mult_right,
                     singleton)
from mtlstab.claims import verify_claim
from mtlstab.induced import (
    InducedAlgebra,
    _build,
    _right_imp,
    _side,
    _validates,
    NotIdempotentError,
    NotMvError,
    check_mtl_iso,
    left_mult_algebra,
    mv_left_iso,
    order_iso_right,
    right_mult_algebra,
)
from mtlstab.order import _first_escape
from mtlstab.search import FAMILIES, gen_family


def test_left_algebra_on_a4(fixtures):
    a4 = fixtures["a4"]
    ind = left_mult_algebra(a4, a4.index("b"))
    assert ind.ok
    assert ind.carrier == from_labels(a4, "b,1")
    assert ind.algebra.n == 2
    assert ind.algebra.labels[ind.algebra.bot] == "b"
    assert ind.algebra.labels[ind.algebra.top] == "1"


def test_right_algebra_on_a4(fixtures):
    a4 = fixtures["a4"]
    ind = right_mult_algebra(a4, a4.index("b"))
    assert ind.ok
    assert ind.carrier == from_labels(a4, "0,b")
    assert ind.algebra.labels[ind.algebra.top] == "b"


def test_trivial_carriers_are_reported_not_validated(fixtures):
    # A result is its carrier and either the algebra or one failure.
    assert [f.name for f in dataclasses.fields(InducedAlgebra)] == \
        ["carrier", "algebra", "failure"]
    a4 = fixtures["a4"]
    top_side = left_mult_algebra(a4, a4.top)
    assert top_side.trivial and top_side.algebra is None
    bot_side = right_mult_algebra(a4, a4.bot)
    assert bot_side.trivial and bot_side.algebra is None
    assert top_side.failure is None and bot_side.failure is None
    assert not top_side.ok and not bot_side.ok


def test_whole_algebra_cases(fixtures):
    a4 = fixtures["a4"]
    assert left_mult_algebra(a4, a4.bot).algebra.n == a4.n
    assert right_mult_algebra(a4, a4.top).algebra.n == a4.n


def test_g6_induced_sizes(fixtures):
    g6 = fixtures["g6"]
    c = g6.index("c")
    left = left_mult_algebra(g6, c)
    right = right_mult_algebra(g6, c)
    assert left.ok and left.carrier == from_labels(g6, "c,1")
    assert right.ok and right.carrier == from_labels(g6, "0,a,b,c")
    assert right.algebra.n == 4


@pytest.mark.parametrize("source", ORACLE_SOURCES + ["families:64"])
def test_validates_decides_build(source):
    corpus = ([gen_family(f, 64) for f in FAMILIES] if source == "families:64"
              else oracle_corpus(source))
    for A in corpus:
        for x in A.idempotents():
            for args in (_side(A, x, 0), _side(A, x, 1)):
                assert _validates(*args) == _build(*args).ok, (A.name, x)


def test_validates_decides_build_on_every_carrier(fixtures):
    # Any subset may stand in for the carrier, as a wrong one-point mask can
    # make it: the check agrees with the build on all of them.
    corpus = list(fixtures.values()) + [A for n in range(2, 7)
                                        for A in oracle_corpus(f"all:{n}")]
    verdicts = Counter()
    for A in corpus:
        for x, bits in product(A.idempotents(), range(1, 1 << A.n)):
            carrier = Subset(A, bits)
            for args in ((A, carrier, x, A.top, A.imp),
                         (A, carrier, A.bot, x, _right_imp(A, x, carrier))):
                verdict = _validates(*args)
                assert verdict == _build(*args).ok, (A.name, x, bits)
                verdicts[verdict] += 1
    assert verdicts[True] > 100 and verdicts[False] > 10000, verdicts


def test_validates_needs_join_closure():
    # In chain5_3 x chain5_3 this carrier is closed under mul and imp and has
    # the constants and the bounds, but join(0a, a0) = aa and meet(ab, ba) =
    # aa leave it.  Meet needs no conjunct of its own, join does.
    chain = next(C for C in oracle_corpus("chains:5") if C.name == "chain5_3")
    A = product_algebra(chain, chain)
    carrier = from_labels(A, ("00", "0a", "0b", "11", "1c", "a0", "ab", "b0",
                              "ba", "bb", "c1", "cc"))
    assert _first_escape(carrier, (("mul", A.mul), ("imp", A.imp))) is None
    left, right = A.index("00"), A.index("11")
    for args in ((A, carrier, left, A.top, A.imp),
                 (A, carrier, A.bot, right, _right_imp(A, right, carrier))):
        assert not _validates(*args)
        assert _build(*args).failure == {
            "violation": "join(0a,a0)=aa leaves the carrier"}


def test_non_idempotent_rejected(fixtures):
    a4 = fixtures["a4"]
    a = a4.index("a")
    with pytest.raises(NotIdempotentError):
        left_mult_algebra(a4, a)


def test_order_iso_right_on_g6(fixtures):
    g6 = fixtures["g6"]
    g = order_iso_right(g6, g6.index("c"))
    rendered = {g6.labels[k]: g6.labels[v] for k, v in g.items()}
    assert rendered == {"0": "0", "a": "a", "b": "d", "c": "1"}


def test_order_iso_right_top_is_identity(small_corpus):
    for A in small_corpus.values():
        g = order_iso_right(A, A.top)
        assert g == {x: x for x in range(A.n)}


def test_order_iso_right_on_a4(fixtures):
    a4 = fixtures["a4"]
    g = order_iso_right(a4, a4.index("b"))
    rendered = {a4.labels[k]: a4.labels[v] for k, v in g.items()}
    assert rendered == {"0": "a", "b": "1"}


def test_order_iso_right_needs_idempotent(fixtures):
    with pytest.raises(NotIdempotentError):
        order_iso_right(fixtures["a4"], fixtures["a4"].index("a"))


def test_order_iso_roundtrips_everywhere(small_corpus):
    for A in small_corpus.values():
        for x in A.idempotents():
            g = order_iso_right(A, x)  # raises on any violation
            for a, u in g.items():
                assert A.mul[x][u] == a
                assert A.imp[x][A.mul[x][u]] == u


def test_order_iso_right_preserves_order(small_corpus):
    # order_iso_right does not check order: residuation makes imp(x, -) and
    # mul(x, -) monotone, so the map and its inverse preserve it.
    for A in small_corpus.values():
        def leq(a, b):
            return A.meet[a][b] == a
        for x in A.idempotents():
            g = order_iso_right(A, x)
            inverse = {u: A.mul[x][u] for u in g.values()}
            for f in (g, inverse):
                assert all(leq(f[a], f[b]) for a in f for b in f if leq(a, b))


def test_order_iso_right_checks_the_inverse_image():
    # With a cleared from the cached mult_right({1}), imp(1, -) still maps
    # {0, b, 1} into impl_right({1}) = {0, a, b, 1} with both round trips,
    # but misses a: mul(1, a) = a leaves the source.
    A = gen_family("lukasiewicz", 4)
    mult_right(A, singleton(A, A.top))  # fills the mask cache
    masks = list(A._mask_cache()["mult_right"])
    masks[A.top] &= ~(1 << A.index("a"))
    A._mask_cache()["mult_right"] = tuple(masks)
    reason = ("order isomorphism fails at x=1:"
              " inverse image leaves the right multiplicative stabilizer")
    with pytest.raises(InternalConsistencyError, match=reason):
        order_iso_right(A, A.top)
    for cid in ("T4.11-order-iso", "T4.12-mv-iso"):
        outcome = verify_claim(A, cid)
        assert (outcome.verdict, outcome.witness) == \
            ("refuted", {"x": "1", "reason": reason})


def test_mv_left_iso(fixtures, boolean2):
    m6 = fixtures["m6"]
    for x in m6.idempotents():
        h = mv_left_iso(m6, x)
        assert len(h) == len(set(h.values()))
    h = mv_left_iso(boolean2, boolean2.bot)
    assert h == {boolean2.top: boolean2.bot}
    with pytest.raises(NotMvError):
        mv_left_iso(fixtures["a4"], fixtures["a4"].index("b"))


def test_check_mtl_iso(fixtures, diamond):
    a4, a5, b4 = fixtures["a4"], fixtures["a5"], fixtures["b4"]
    b = a4.index("b")
    left = left_mult_algebra(a4, b).algebra
    right = right_mult_algebra(a4, b).algebra
    assert check_mtl_iso(left, right) is not None  # both are the 2-chain
    assert check_mtl_iso(a4, a4) == {x: x for x in range(4)}
    assert check_mtl_iso(a4, a5) is None           # size mismatch
    assert check_mtl_iso(a4, b4) is None           # same size, different tables
    # a5 and n5 present the same algebra with permuted carriers
    iso = check_mtl_iso(fixtures["a5"], fixtures["n5"])
    assert iso is not None
    # swapping the diamond's atoms is an automorphism
    swapped = {0: 0, 1: 2, 2: 1, 3: 3}
    assert check_mtl_iso(diamond, diamond) is not None
    for name in ("mul", "imp"):
        ta = getattr(diamond, name)
        for x in range(4):
            for y in range(4):
                assert swapped[ta[x][y]] == ta[swapped[x]][swapped[y]]


def test_check_mtl_iso_preserves_the_lattice(fixtures):
    # Only imp is compared: the map must still carry mul, meet, join and
    # the constants.
    rng = random.Random(5)
    corpus = [*fixtures.values(), *(gen_family(f, 9) for f in FAMILIES),
              product_algebra(gen_family("godel", 3), gen_family("lukasiewicz", 4))]
    for A in corpus:
        order = list(range(A.n))
        rng.shuffle(order)
        B = relabel(A, order)
        iso = check_mtl_iso(A, B)
        assert iso is not None, A.name
        assert (iso[A.bot], iso[A.top]) == (B.bot, B.top), A.name
        for name in ("mul", "meet", "join"):
            ta, tb = getattr(A, name), getattr(B, name)
            assert all(iso[ta[x][y]] == tb[iso[x]][iso[y]]
                       for x in range(A.n) for y in range(A.n)), (A.name, name)


def test_internal_consistency_error_type():
    assert issubclass(InternalConsistencyError, RuntimeError)
