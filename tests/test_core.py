import random
import re
from collections import Counter
from dataclasses import replace
from itertools import combinations, product

import pytest

from conftest import (ORACLE_SOURCES, derive_lattice_oracle, oracle_corpus,
                      product_algebra, relabel)
from mtlstab import (
    AlgebraError,
    LatticeMismatchError,
    NotALatticeError,
    NotValidatedError,
    TableError,
    construct,
    leq,
    neg,
    power,
    replay_violation,
    validate,
)
from mtlstab import core
from mtlstab.core import _derive_lattice, _lattice_rows, _rows_hold, _violations
from mtlstab.fixtures import load_fixture_raw
from mtlstab.search import (FAMILIES, _bounded_lattices, _distributive,
                            _tables_on_lattice, enumerate_all, enumerate_chains,
                            gen_family)


def test_construct_derives_chain_lattice(fixtures):
    a4 = fixtures["a4"]
    # meet/join were omitted in the file; the derived tables are min/max
    for x in range(4):
        for y in range(4):
            assert a4.meet[x][y] == min(x, y)
            assert a4.join[x][y] == max(x, y)


def test_construct_two_element_boolean(boolean2):
    assert boolean2.validated
    assert boolean2.imp[0][0] == 1 and boolean2.imp[1][0] == 0


def test_construct_a5_order_is_a_diamond_over_a_point(fixtures):
    a5 = fixtures["a5"]
    a, b, c = a5.index("a"), a5.index("b"), a5.index("c")
    assert not leq(a5, a, b) and not leq(a5, b, a)
    assert a5.meet[a][b] == c
    assert a5.join[a][b] == a5.top


def test_construct_rejects_out_of_range():
    with pytest.raises(TableError):
        construct(2, [[0, 0], [0, 7]], [[1, 1], [0, 1]])


def test_construct_rejects_wrong_shape():
    with pytest.raises(TableError):
        construct(2, [[0, 0]], [[1, 1], [0, 1]])


@pytest.mark.parametrize("label", ["a,b", ",", "∅"])
def test_construct_rejects_labels_reports_cannot_tell_apart(label):
    # Reports join labels with ',' and render the empty set as ∅.
    with pytest.raises(AlgebraError, match="contains ',' or is ∅"):
        construct(2, [[0, 0], [0, 1]], [[1, 1], [0, 1]], labels=["0", label])
    # A label that only contains ∅ renders unambiguously.
    assert construct(2, [[0, 0], [0, 1]], [[1, 1], [0, 1]],
                     labels=["0", "∅1"]).labels == ("0", "∅1")


@pytest.mark.parametrize("label", ["", "a b", "#x", "a#b"])
def test_construct_rejects_labels_the_file_format_cannot_carry(label):
    # Files split tokens on whitespace, and '#' starts a comment.
    with pytest.raises(AlgebraError, match="is empty or contains whitespace or '#'"):
        construct(2, [[0, 0], [0, 1]], [[1, 1], [0, 1]], labels=["0", label])


def test_construct_rejects_non_lattice_order():
    # 0 < a,b < c,d < 1 with both middle layers incomparable: c and d have
    # two maximal lower bounds, so some pair lacks a meet or a join.
    n, top = 6, 5
    order = {(0, i) for i in range(n)} | {(i, i) for i in range(n)}
    order |= {(i, top) for i in range(n)}
    order |= {(1, 3), (1, 4), (2, 3), (2, 4)}
    imp = [[top if (x, y) in order else 0 for y in range(n)] for x in range(n)]
    mul = [[0] * n for _ in range(n)]
    with pytest.raises(NotALatticeError) as err:
        construct(n, mul, imp)
    assert err.value.pair is not None


def test_construct_rejects_disagreeing_lattice(fixtures):
    a4 = fixtures["a4"]
    with pytest.raises(LatticeMismatchError):
        construct(4, a4.mul, a4.imp, a4.join, a4.meet)  # swapped on purpose


def test_validate_roundtrip_from_own_tables(small_corpus):
    for A in small_corpus.values():
        again = construct(A.n, A.mul, A.imp, A.meet, A.join,
                          bot=A.bot, top=A.top, labels=A.labels)
        assert validate(again).valid


def test_validate_is_deterministic(fixtures):
    a4 = fixtures["a4"]
    assert validate(a4) == validate(a4)


# -- the row pass against the per-tuple laws --------------------------------

def _laws_hold(A):
    """The verdict of validate's per-tuple loop, which stops at its first
    violation here."""
    return next(_violations(A), None) is None


def _moved(A, seed):
    """A seeded relabelling of A with bot off position 0 and top off n-1."""
    rng = random.Random(seed)
    order = list(range(A.n))
    while order.index(A.bot) == 0 or order.index(A.top) == A.n - 1:
        rng.shuffle(order)
    return relabel(A, order)


def _mutants(A):
    """A with one entry of one table changed, or with entries (x, y) and
    (y, x), x < y, both set to a value v that not both hold already, for
    every table, position and value; then A with bot or top moved to each
    other element, which only `lattice.bounds` and the laws that read top
    see.  Built directly, since construct refuses some of them."""
    for name in ("mul", "imp", "meet", "join"):
        table = getattr(A, name)
        for x, y, v in product(range(A.n), repeat=3):
            if v != table[x][y]:
                yield replace(A, **{name: _set(table, {(x, y): v})})
        for (x, y), v in product(combinations(range(A.n), 2), range(A.n)):
            if (table[x][y], table[y][x]) != (v, v):
                yield replace(A, **{name: _set(table, {(x, y): v, (y, x): v})})
    for v in range(A.n):
        if v != A.bot:
            yield replace(A, bot=v)
        if v != A.top:
            yield replace(A, top=v)


def _set(table, entries):
    rows = [list(row) for row in table]
    for (x, y), v in entries.items():
        rows[x][y] = v
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("source", ORACLE_SOURCES)
def test_row_pass_accepts_the_oracle_corpora(source):
    for A in oracle_corpus(source):
        B = _moved(A, A.n)
        assert _rows_hold(A) and _laws_hold(A)
        assert _rows_hold(B) and _laws_hold(B), (A.name, B.bot, B.top)


def test_row_pass_accepts_products_and_64_element_chains(small_corpus):
    chains = enumerate_chains(3) + [small_corpus["boolean2"]]
    algebras = [product_algebra(A, B) for A, B in product(
        chains + [small_corpus["a5"]], chains)]
    algebras.append(product_algebra(algebras[0], small_corpus["c5"]))
    algebras += [gen_family(f, 64) for f in FAMILIES]
    for A in algebras:
        assert _rows_hold(A) and _laws_hold(A), A.name
        assert validate(A).valid


def _mutation_corpus():
    corpus = [A for n in range(2, 6) for A in enumerate_all(n)]
    return corpus + enumerate_chains(6) + [_moved(A, 7) for A in enumerate_all(4)]


def test_row_pass_agrees_with_the_laws_on_every_mutation():
    checked = 0
    for A in _mutation_corpus():
        for B in _mutants(A):
            assert _rows_hold(B) == _laws_hold(B), (B.name, B)
            checked += 1
    assert checked == 115_617


def test_warm_lattice_memo_still_decides_the_bounds():
    # `_lattice_rows` keeps the last lattice it decided.  Straight after A
    # warms it, each move of bot or top keeps A's meet and join, so a memo
    # keyed on those alone would hand back A's verdict on the bounds.
    corpus, checked = _mutation_corpus(), 0
    for A in corpus:
        for v in range(A.n):
            for B in (replace(A, bot=v), replace(A, top=v)):
                if B != A:
                    assert _rows_hold(A)
                    assert _rows_hold(B) == _laws_hold(B), (A.name, B.bot, B.top)
                    checked += 1
    assert checked == 2 * sum(A.n - 1 for A in corpus)


def test_lattice_memo_keeps_no_verdict_on_mul_or_imp():
    # On a fixed lattice mul and imp fix each other, so every mutant of one
    # fails.  Unit and order consistency each follow from the other and
    # adjointness, so a memo that kept either on A's lattice would still
    # reject every mutant; it shows when a mutant fills the memo and A
    # comes next.
    checked = 0
    for A in _mutation_corpus():
        lattice = (A.meet, A.join, A.bot, A.top)
        for B in _mutants(A):
            if (B.meet, B.join, B.bot, B.top) == lattice:
                _lattice_rows.cache_clear()
                assert not _rows_hold(B)
                assert _rows_hold(A), (A.name, B)
                checked += 1
    assert checked == 58_065


class Index:
    """Not an int, yet usable as one and equal to 0 in value."""
    def __index__(self):
        return 0

    def __eq__(self, other):
        return other == 0

    def __hash__(self):
        return hash(0)

    def __repr__(self):
        return "Index()"


def test_table_errors_name_the_first_bad_entry():
    imp = [[1, 1], [0, 1]]
    cases = [
        ([[0, 0], [0]], "mul table row 1 has 1 entries, expected 2"),
        ([[0, 0, 0], [0]], "mul table row 0 has 3 entries, expected 2"),
        ([[0, 0.0], [0, 1]], "mul[0][1] = 0.0 is out of range 0..1"),
        ([[0, 0], [0, 2]], "mul[1][1] = 2 is out of range 0..1"),
        ([[0, -1], [0, 1]], "mul[0][1] = -1 is out of range 0..1"),
        ([[0, 0], [Index(), 1]], "mul[1][0] = Index() is out of range 0..1"),
        ([[0, 0]], "mul table has 1 rows, expected 2"),
    ]
    for mul, message in cases:
        with pytest.raises(TableError, match=f"^{re.escape(message)}$"):
            construct(2, mul, imp)
    A = construct(2, [[False, False], [False, True]], imp)
    assert A.mul == ((False, False), (False, True)) and validate(A).valid


def test_warm_construct_memo_checks_value_equal_tables():
    # construct skips the label and lattice checks only for the very
    # objects it last accepted.  These tables equal the warm meet in value
    # (0 == 0.0 == False == Index()), so a memo keyed on values would hand
    # back the warm table and lose the refusal.
    mul, imp, join = ((0, 0), (0, 1)), ((1, 1), (0, 1)), ((0, 1), (1, 1))
    meet, labels = mul, ("0", "1")
    for bad, message in ((((0, 0.0), (0, 1)), "meet[0][1] = 0.0 is out of range 0..1"),
                         (((0, 0), (Index(), 1)), "meet[1][0] = Index() is out of range 0..1")):
        assert bad == meet
        construct(2, mul, imp, meet, join, labels=labels)
        with pytest.raises(TableError, match=f"^{re.escape(message)}$"):
            construct(2, mul, imp, bad, join, labels=labels)
    falsy = ((False, False), (False, True))
    construct(2, mul, imp, meet, join, labels=labels)
    A = construct(2, mul, imp, falsy, join, labels=labels)
    assert {type(v) for row in A.meet for v in row} == {bool} and validate(A).valid


def test_warm_construct_memo_keeps_the_cold_mismatch_witness(fixtures):
    # A memo hit still compares imp with the declared order on every call.
    a4 = fixtures["a4"]
    lists = [list(map(list, table)) for table in (a4.meet, a4.join)]
    imp = [list(row) for row in a4.imp]
    imp[a4.index("a")][a4.bot] = a4.top  # a <= 0 by imp alone

    def refusal(*args):
        with pytest.raises(LatticeMismatchError) as err:
            construct(4, *args, labels=a4.labels)
        return str(err.value)

    warm = (a4.mul, a4.imp, a4.meet, a4.join)
    swapped = refusal(a4.mul, a4.imp, *lists[::-1])  # lists: never memoized
    assert swapped == "declared lattice disagrees with imp-order at (0, a)"
    construct(4, *warm, labels=a4.labels)
    assert refusal(a4.mul, a4.imp, a4.join, a4.meet) == swapped
    construct(4, *warm, labels=a4.labels)
    assert refusal(a4.mul, imp, a4.meet, a4.join) == refusal(a4.mul, imp, *lists) \
        == "declared lattice disagrees with imp-order at (a, 0)"
    assert construct(4, *warm, labels=a4.labels) == a4


def test_construct_checks_a_mutated_lattice_again(fixtures):
    a4 = fixtures["a4"]
    for kind in (list, tuple):  # a tuple of lists is not frozen either
        meet, join = (kind(list(row) for row in t) for t in (a4.meet, a4.join))
        for _ in range(2):
            assert construct(4, a4.mul, a4.imp, meet, join, labels=a4.labels) == a4
        meet[0][1] = 9
        with pytest.raises(TableError, match=r"^meet\[0\]\[1\] = 9 is out of range 0..3$"):
            construct(4, a4.mul, a4.imp, meet, join, labels=a4.labels)
        meet[0][1] = a4.meet[0][1]
        meet[1][:], join[1][:] = join[1], meet[1]  # rows of the other table
        with pytest.raises(LatticeMismatchError):
            construct(4, a4.mul, a4.imp, meet, join, labels=a4.labels)


def test_construct_checks_each_enumerated_lattice_once(monkeypatch):
    # Enumerators hand every table of a lattice the same meet and join
    # tuples: mul and imp are checked per table, meet and join per lattice.
    real, calls = core._check_table, Counter()

    def counting(name, table, n):
        calls[name] += 1
        return real(name, table, n)

    carried = [_tables_on_lattice(5, L) for L in _bounded_lattices(5)
               if _distributive(5, L)]
    tables, lattices = sum(map(len, carried)), sum(map(bool, carried))
    monkeypatch.setattr(core, "_check_table", counting)
    chains = enumerate_chains(6)
    assert calls == {"mul": len(chains), "imp": len(chains), "meet": 1, "join": 1}
    calls.clear()
    enumerate_all(5)
    assert calls == {"mul": tables, "imp": tables, "meet": lattices, "join": lattices}
    assert lattices > 1


def test_validate_reports_adjointness_break_with_replayable_witness():
    bad = load_fixture_raw("a4")
    a, b = bad.labels.index("a"), bad.labels.index("b")
    mul = [list(row) for row in bad.mul]
    mul[a][b] = b
    broken = construct(4, mul, bad.imp, bad.meet, bad.join, labels=bad.labels)
    report = validate(broken)
    assert not report.valid
    adjoint = [w for ax, w in report.violations if ax == "adjointness"]
    assert any(set(w[:2]) == {a, b} for w in adjoint)
    for axiom, witness in report.violations:
        assert replay_violation(broken, axiom, witness)


@pytest.mark.parametrize("n, kwargs, message", [
    (65, {}, "carrier size 65 outside supported range 2..64"),
    (2, {"labels": ("0",)}, "labels must be n distinct tokens"),
    (2, {"meet": ((0, 0), (0, 1))}, "declare both meet and join or neither"),
    (2, {"join": ((0, 1), (1, 1))}, "declare both meet and join or neither"),
])
def test_construct_refusals(n, kwargs, message):
    table = [[0] * n for _ in range(n)]
    with pytest.raises(AlgebraError, match=f"^{re.escape(message)}$"):
        construct(n, table, table, **kwargs)


def test_replay_refuses_an_unknown_axiom(fixtures):
    with pytest.raises(KeyError, match="unknown axiom id 'monoid.idem'"):
        replay_violation(fixtures["a4"], "monoid.idem", (0,))


def test_ops_require_validated_algebra():
    raw = load_fixture_raw("a4")
    with pytest.raises(NotValidatedError):
        leq(raw, 0, 1)


def test_leq_examples(fixtures):
    a4, a5 = fixtures["a4"], fixtures["a5"]
    assert leq(a4, 0, a4.index("b"))
    assert not leq(a4, a4.index("b"), a4.index("a"))
    assert not leq(a5, a5.index("a"), a5.index("b"))
    assert not leq(a5, a5.index("b"), a5.index("a"))


def test_neg_examples(small_corpus):
    a4 = small_corpus["a4"]
    assert neg(a4, a4.index("a")) == a4.index("b")
    for A in small_corpus.values():
        assert neg(A, A.top) == A.bot
        for x in range(A.n):
            assert neg(A, neg(A, neg(A, x))) == neg(A, x)


def test_power_examples(small_corpus):
    a4 = small_corpus["a4"]
    assert power(a4, a4.index("a"), 2) == a4.bot
    assert power(a4, a4.index("b"), 5) == a4.index("b")
    for A in small_corpus.values():
        for x in range(A.n):
            assert power(A, x, 0) == A.top
            assert power(A, x, 1) == x


def test_power_is_the_k_fold_product_and_stops_once_constant(fixtures):
    # x^(m+1) = x^m for some m < n, so a huge exponent costs at most n steps
    for A in fixtures.values():
        for x in range(A.n):
            plain = A.top
            for k in range(2 * A.n + 1):
                assert power(A, x, k) == plain, (A.name, x, k)
                plain = A.mul[plain][x]
            assert power(A, x, 10**12) == power(A, x, A.n)


def test_power_rejects_negative_exponent(fixtures):
    with pytest.raises(ValueError):
        power(fixtures["a4"], 0, -1)


def test_product_below_meet(small_corpus):
    for A in small_corpus.values():
        for x in range(A.n):
            for y in range(A.n):
                m = A.mul[x][y]
                assert A.meet[m][A.meet[x][y]] == m


def _derived(derive, n, order, bot, top):
    """derive's tables, or the type, message and pair of its refusal."""
    try:
        return derive(n, order, bot, top)
    except NotALatticeError as exc:
        return type(exc), str(exc), exc.pair


def _agree(n, leq, bot, top):
    up = [sum(1 << y for y in range(n) if leq[x][y]) for x in range(n)]
    mask = _derived(_derive_lattice, n, up, bot, top)
    assert mask == _derived(derive_lattice_oracle, n, leq, bot, top), \
        (n, leq, bot, top)
    return mask


@pytest.mark.parametrize("n", [1, 2, 3])
def test_derive_lattice_matches_oracle_on_every_small_relation(n):
    for bits in range(1 << n * n):
        leq = [[bool(bits >> (x * n + y) & 1) for y in range(n)] for x in range(n)]
        for bot, top in product(range(n), repeat=2):
            _agree(n, leq, bot, top)


def _random_relation(rng: random.Random, n: int) -> list[list[bool]]:
    """A random relation, a random reflexive one, or the order of a random
    poset (mostly bounded, sometimes with one pair dropped) on a shuffled
    carrier."""
    p = rng.random()
    kind = rng.choice((0, 1, 2, 3, 3, 3))
    if kind == 3:           # mid densities lack meets and joins most often
        p = 0.2 + 0.4 * p
    if kind < 2:
        return [[x == y and kind == 1 or rng.random() < p for y in range(n)]
                for x in range(n)]
    rank = list(range(n))
    rng.shuffle(rank)
    leq = [[rank[x] <= rank[y] and (x == y or rng.random() < p)
            for y in range(n)] for x in range(n)]
    if kind == 3:           # least and greatest element in the rank order
        for x in range(n):
            leq[rank.index(0)][x] = leq[x][rank.index(n - 1)] = True
    for k, x, y in product(range(n), repeat=3):
        leq[x][y] = leq[x][y] or leq[x][k] and leq[k][y]
    if rng.random() < 0.1:
        leq[rng.randrange(n)][rng.randrange(n)] = False
    return leq


def test_derive_lattice_matches_oracle_on_random_relations():
    rng = random.Random(20240607)
    outcomes = set()
    for _ in range(20_000):
        n = rng.randint(2, 7)
        leq = _random_relation(rng, n)
        least = [x for x in range(n) if all(leq[x])]
        greatest = [y for y in range(n) if all(row[y] for row in leq)]
        if least and greatest and rng.random() < 0.7:
            bot, top = least[0], greatest[0]
        else:
            bot, top = rng.randrange(n), rng.randrange(n)
        got = _agree(n, leq, bot, top)
        outcomes.add("lattice" if isinstance(got[0], tuple)
                     else re.sub(r"\d+", "#", got[1]))
    # every check of the routine decided some relation
    assert outcomes == {
        "lattice",
        "imp-order is not reflexive at element #",
        "imp-order is not antisymmetric at (#, #)",
        "imp-order is not transitive at (#, #, #)",
        "element # is not between bot and top",
        "incomparable pair (#, #) has no meet in the imp-order",
        "incomparable pair (#, #) has no join in the imp-order",
    }
