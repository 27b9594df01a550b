import os
import random
import time
from collections import Counter
from functools import partial
from itertools import product

import pytest

from conftest import (ORACLE_SOURCES, canonical_form_oracle,
                      derive_lattice_oracle, open3_scan_oracle, oracle_corpus,
                      product_algebra, relabel)
from mtlstab import (all_filters, all_nonempty_subsets, full, impl_left,
                     impl_right, singleton)
from mtlstab import _pool, induced, search
from mtlstab.classify import is_bl, is_chain, is_godel, is_imtl, is_mv
from mtlstab.core import (LatticeMismatchError, NotALatticeError,
                          NotValidatedError, _lattice_rows, construct, validate)
from mtlstab.fixtures import FIXTURE_NAMES, load_fixture, load_fixture_raw
from mtlstab.induced import check_mtl_iso
from mtlstab.search import (
    FAMILIES,
    SizeRangeError,
    SearchFinding,
    UnknownFamilyError,
    _bounded_lattices,
    _chain,
    _distributive,
    _tables_on_lattice,
    canonical_form,
    enumerate_all,
    enumerate_chains,
    gen_family,
    open1_scan,
    open2_premise,
    open2_scan,
    open3_scan,
)

EXPECTED_CHAIN_COUNTS = {2: 1, 3: 2, 4: 6, 5: 22, 6: 94, 7: 451, 8: 2386}


def test_family_classes():
    for n in range(2, 8):
        assert is_mv(gen_family("lukasiewicz", n))
        assert is_godel(gen_family("godel", n))
        assert is_imtl(gen_family("nilpotent_minimum", n))


def test_family_rejects_unknown():
    with pytest.raises(UnknownFamilyError):
        gen_family("product", 4)
    with pytest.raises(SizeRangeError):
        gen_family("godel", 1)


def test_nilpotent_minimum_right_stabilizer_band():
    # one-point right stabilizers of interior elements are half-open bands
    # around the fixed point of the negation, plus top
    nm7 = gen_family("nilpotent_minimum", 7)
    got = impl_right(nm7, singleton(nm7, 4)).members()
    assert got == (2, 3, 6)
    left = impl_left(nm7, singleton(nm7, 4)).members()
    assert left == (5, 6)


def test_chain_counts():
    for n, expect in EXPECTED_CHAIN_COUNTS.items():
        chains = enumerate_chains(n)
        assert len(chains) == expect
        assert len({A.mul for A in chains}) == expect
        # distinct chains on one order are not isomorphic: a second route
        # for canonical-form dedup
        assert len({canonical_form(A) for A in chains}) == expect
        tables = [A.mul for A in chains]
        assert tables == sorted(tables)
        for A in chains:
            assert A.validated and is_chain(A)


def brute_chains_3():
    """All 3x3 tables checked against the raw monoid/monotone axioms."""
    found = []
    for cells in product(range(3), repeat=9):
        t = [list(cells[i * 3:(i + 1) * 3]) for i in range(3)]
        if any(t[2][j] != j or t[j][2] != j for j in range(3)):
            continue
        if any(t[x][y] != t[y][x] for x in range(3) for y in range(3)):
            continue
        if any(t[t[x][y]][z] != t[x][t[y][z]]
               for x in range(3) for y in range(3) for z in range(3)):
            continue
        good = all(t[x][y] <= t[x][y + 1] for x in range(3) for y in range(2))
        if good:
            found.append(tuple(map(tuple, t)))
    return sorted(found)


def test_chain_enumeration_against_independent_bruteforce():
    assert [A.mul for A in enumerate_chains(3)] == brute_chains_3()


def test_dual_path_agreement():
    # The Rees coextension against the lattice search on the n-chain.
    for n in range(2, 9):
        direct = sorted(_tables_on_lattice(n, _chain(n)))
        assert [(A.mul, A.imp) for A in enumerate_chains(n)] == direct


def test_chain_class_counts():
    # A third chain check, with no search: BL-chains are the ordinal sums
    # of Lukasiewicz chains over the compositions of n - 1, and the MV- and
    # Gödel chains of each size are the family chains.
    imtl = {2: 1, 3: 1, 4: 2, 5: 3, 6: 7, 7: 12, 8: 31}
    for n, expect in imtl.items():
        chains = enumerate_chains(n)
        assert sum(map(is_bl, chains)) == 2 ** (n - 2)
        assert sum(map(is_mv, chains)) == sum(map(is_godel, chains)) == 1
        assert sum(map(is_imtl, chains)) == expect


def test_enumeration_revalidation_catches_a_broken_table(monkeypatch):
    # Every emitted table is validated again, also after a valid table on
    # the same lattice has warmed the lattice memo.  The last coextension
    # level adds a monotone table with a*b = b*b = a, so (a*b)*b = a but
    # a*(b*b) = 0; the Lukasiewicz 4-chain sorts before it.  On the first
    # lattice, a copy of its first table with mul(a, b) = mul(b, a) raised
    # to top, imp left as it was, breaks associativity at (a, a, b).
    real_coextensions, real_tables = search._coextensions, search._tables_on_lattice
    not_associative = ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 1, 2), (0, 1, 2, 3))

    def broken_coextensions(mul):
        tables = real_coextensions(mul)
        return tables + [not_associative] if len(mul) == 3 else tables

    def broken_tables(n, lattice):
        mul, imp = real_tables(n, lattice)[0]
        broken = [list(row) for row in mul]
        broken[1][2] = broken[2][1] = n - 1
        return [(mul, imp), (broken, imp)]

    monkeypatch.setattr(search, "_coextensions", broken_coextensions)
    monkeypatch.setattr(search, "_tables_on_lattice", broken_tables)
    for enumerate_, witness in ((enumerate_chains, r"chain failed validation:"
                                 r" \('monoid\.assoc', \(1, 2, 2\)\)"),
                                (enumerate_all, r"algebra failed validation:"
                                 r" \('monoid\.assoc', \(1, 1, 2\)\)")):
        _lattice_rows.cache_clear()
        with pytest.raises(AssertionError, match="^enumerated " + witness):
            enumerate_(4)
        assert _lattice_rows.cache_info().hits >= 1  # the broken table hit


def test_enumeration_validates_every_table(monkeypatch):
    calls = Counter()

    def counting(A):
        calls[A.n] += 1
        return validate(A)

    monkeypatch.setattr(search, "validate", counting)
    assert len(enumerate_chains(6)) == calls[6] == 94
    assert len(enumerate_all(5, dedup=False)) == calls[5]


def test_enumerate_all_small_sizes(diamond):
    assert len(enumerate_all(2)) == 1
    assert len(enumerate_all(3)) == 2
    algs4 = enumerate_all(4)
    assert len(algs4) == 7
    chains = [A for A in algs4 if is_chain(A)]
    assert len(chains) == 6
    (non_chain,) = [A for A in algs4 if not is_chain(A)]
    assert canonical_form(non_chain) == canonical_form(diamond)
    forms = [canonical_form(A) for A in algs4]
    assert forms == sorted(forms)
    for A in algs4:
        assert A.validated


def test_enumerate_all_5_contains_the_diamond_fixture(fixtures):
    algs5 = enumerate_all(5)
    assert len(algs5) == 23
    forms = {canonical_form(A) for A in algs5}
    assert canonical_form(fixtures["a5"]) in forms
    assert canonical_form(fixtures["n5"]) in forms


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_bounded_lattices_match_the_oracle(n):
    # every order on 0..n-1 with 0 least and n-1 greatest that refines the
    # integer order, derived by the O(n^4) bool-matrix oracle
    interior = range(1, n - 1)
    pairs = [(i, j) for i in interior for j in interior if i < j]
    expected = []
    for bitmask in range(1 << len(pairs)):
        leq = [[x == y or x == 0 or y == n - 1 for y in range(n)]
               for x in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bitmask >> k & 1:
                leq[i][j] = True
        try:
            expected.append(derive_lattice_oracle(n, leq, 0, n - 1))
        except NotALatticeError:
            continue
    assert _bounded_lattices(n) == expected


def literally_distributive(n, lattice):
    meet, join = lattice
    return all(meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
               for x, y, z in product(range(n), repeat=3))


def test_distributive_matches_the_triple_loop():
    # (lattices, distributive ones) among the labelled bounded lattices
    counts = {2: (1, 1), 3: (1, 1), 4: (2, 2), 5: (7, 3), 6: (39, 9), 7: (320, 16)}
    for n, count in counts.items():
        lattices = _bounded_lattices(n)
        verdicts = [_distributive(n, L) for L in lattices]
        assert verdicts == [literally_distributive(n, L) for L in lattices], n
        assert (len(lattices), sum(verdicts)) == count


def test_no_table_on_a_non_distributive_lattice():
    # enumerate_all skips these lattices: every MTL-algebra is a subdirect
    # product of chains, so its lattice is distributive.
    skipped = [(n, L) for n in range(2, 7) for L in _bounded_lattices(n)
               if not literally_distributive(n, L)]
    assert len(skipped) == 34
    assert all(_tables_on_lattice(n, L) == [] for n, L in skipped)


def naive_algebras(n):
    """Every table with unit top, absorbing bot and commutativity on each
    bounded lattice, kept when construct and validate accept it; imp(x, y)
    is the largest z with mul(x, z) <= y.  Non-associative tables are
    dropped before the residuum only to save time: validate rejects them
    anyway."""
    top = n - 1
    rng = range(n)
    free = [(i, j) for i in range(1, top) for j in range(i, top)]
    found = []
    for meet, join in _bounded_lattices(n):
        leq = [[meet[x][y] == x for y in rng] for x in rng]
        for values in product(rng, repeat=len(free)):
            mul = [[0] * n for _ in rng]
            for x in rng:
                mul[top][x] = mul[x][top] = x
            for (i, j), v in zip(free, values):
                mul[i][j] = mul[j][i] = v
            if any(mul[mul[x][y]][z] != mul[x][mul[y][z]]
                   for x, y, z in product(rng, repeat=3)):
                continue
            imp = [[0] * n for _ in rng]
            for x, y in product(rng, repeat=2):
                below = [z for z in rng if leq[mul[x][z]][y]]
                largest = [z for z in below if all(leq[w][z] for w in below)]
                if len(largest) != 1:
                    break
                imp[x][y] = largest[0]
            else:
                try:
                    A = construct(n, mul, imp, meet, join)
                except LatticeMismatchError:
                    continue
                if validate(A).valid:
                    found.append(A)
    return found


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_full_enumeration_against_naive_table_bruteforce(n):
    naive = naive_algebras(n)
    assert {canonical_form(A) for A in naive} \
        == {canonical_form(A) for A in enumerate_all(n)}
    raw = enumerate_all(n, dedup=False)
    assert sorted((A.meet, A.mul, A.imp) for A in naive) \
        == sorted((A.meet, A.mul, A.imp) for A in raw)
    assert len(raw) == len(naive)


def test_enumeration_size_limits():
    with pytest.raises(SizeRangeError):
        enumerate_chains(9)
    with pytest.raises(SizeRangeError):
        enumerate_all(6)
    assert len(enumerate_all(2, allow_large=False)) == 1


def test_enumeration_spec_limit_and_dedup():
    # the CLI's --limit is a prefix of the full list; --no-dedup is dedup=False
    got = enumerate_chains(4)[:3]
    assert [A.name for A in got] == ["chain4_0", "chain4_1", "chain4_2"]
    raw = enumerate_all(4, dedup=False)
    deduped = enumerate_all(4)
    assert len(raw) >= len(deduped)
    assert {canonical_form(A) for A in raw} \
        == {canonical_form(A) for A in deduped}


def test_canonical_form_properties(fixtures, diamond):
    a4, b4 = fixtures["a4"], fixtures["b4"]
    assert canonical_form(a4) != canonical_form(b4)
    assert canonical_form(fixtures["a5"]) == canonical_form(fixtures["n5"])
    # canonical forms agree exactly when an isomorphism exists, on every
    # ordered pair of size-5 classes, the second also as a relabelled copy
    algs = enumerate_all(5)
    moved = [relabel(B, random.Random(i).sample(range(5), 5))
             for i, B in enumerate(algs)]
    pairs = [(A, C) for A in algs for B, B2 in zip(algs, moved) for C in (B, B2)]
    assert len(pairs) == 2 * 529
    for A, B in pairs:
        same = canonical_form(A) == canonical_form(B)
        assert same == (check_mtl_iso(A, B) is not None), (A.name, B.name)


def test_canonical_form_needs_a_validated_algebra():
    with pytest.raises(NotValidatedError,
                       match="^operation requires a validated algebra$"):
        canonical_form(load_fixture_raw("a4"))


def _off_the_ends(A, seed):
    """A seeded relabelled copy of A with bot off position 0 and top off
    position n-1."""
    rng = random.Random(seed)
    while True:
        order = rng.sample(range(A.n), A.n)
        if order[0] != A.bot and order[-1] != A.top:
            return relabel(A, order)


def test_canonical_form_matches_permutation_oracle():
    L, G, NM = (partial(gen_family, f) for f in FAMILIES)
    corpus = [A for n in range(2, 7) for A in enumerate_all(
        n, allow_large=True, dedup=False)]
    corpus += [A for n in range(2, 8) for A in enumerate_chains(n)]
    corpus += [gen_family(f, n) for f in FAMILIES for n in range(2, 10)]
    corpus += [load_fixture(name) for name in FIXTURE_NAMES]
    corpus += [product_algebra(product_algebra(G(2), G(2)), G(2)),
               product_algebra(L(3), L(3)), product_algebra(G(3), G(3)),
               product_algebra(NM(3), G(3)), product_algebra(G(2), L(4))]
    # the bound cuts most at larger n
    corpus += random.Random(8).sample(enumerate_chains(8), 60)
    for i, A in enumerate(corpus):
        for B in (A, _off_the_ends(A, 2 * i), _off_the_ends(A, 2 * i + 1)):
            assert canonical_form(B) == canonical_form_oracle(B), \
                (A.name, B.bot, B.top)


def test_canonical_form_is_fast_at_ten():
    # the permutation scan takes about 2 s on each of these 10-element algebras
    algebras = [gen_family(f, 10) for f in FAMILIES]
    algebras.append(product_algebra(gen_family("godel", 2), gen_family("godel", 5)))
    start = time.perf_counter()
    forms = {canonical_form(A) for A in algebras}
    assert time.perf_counter() - start < 3
    assert len(forms) == 4


def left_stabilizers(A):
    """Bit patterns of the left stabilizers of every nonempty subset."""
    return {impl_left(A, X).bits for X in all_nonempty_subsets(A)}


def swept_open1(A):
    """Oracle for open1_scan: the filters no swept left stabilizer reaches."""
    achievable = left_stabilizers(A)
    return [SearchFinding("open1", A, {"filter": F.render(),
                                       "reason": "no X has this left stabilizer"})
            for F in all_filters(A) if F.bits not in achievable]


def swept_open2_premise(A):
    """Oracle for open2_premise: left equals right stabilizer on every
    nonempty subset."""
    return all(impl_left(A, X) == impl_right(A, X)
               for X in all_nonempty_subsets(A))


@pytest.mark.parametrize("source", ORACLE_SOURCES)
def test_open_scans_match_subset_sweeps(source):
    for A in oracle_corpus(source):
        assert open1_scan(A) == swept_open1(A), A.name
        assert open2_premise(A) == swept_open2_premise(A), A.name
        # the Galois test open1_scan applies to filters, on every subset
        achievable = left_stabilizers(A)
        for S in all_nonempty_subsets(A):
            closed = impl_left(A, impl_right(A, S)) == S
            assert closed == (S.bits in achievable), (A.name, S.render())


def test_open1(fixtures, boolean2):
    assert open1_scan(boolean2) == []
    assert open1_scan(fixtures["a4"]) == []


def test_open1_catches_corrupted_top_mask():
    # A fresh validated copy, so the shared session fixtures keep their caches.
    A = load_fixture("a4")
    impl_left(A, singleton(A, A.top))
    masks = list(A._mask_cache()["impl_left"])
    masks[A.top] ^= 1 << A.bot
    A._mask_cache()["impl_left"] = tuple(masks)
    findings = open1_scan(A)
    assert [f.witness["filter"] for f in findings] == [full(A).render()]
    assert swept_open1(A) == findings


def test_open2(fixtures):
    luk3 = gen_family("lukasiewicz", 3)
    assert open2_scan([luk3]) == []
    assert open2_scan([fixtures["a4"]]) == []
    findings = open2_scan(enumerate_all(4))
    assert findings, "the size-4 sweep finds a symmetric non-MV algebra"
    for f in findings:
        assert open2_premise(f.algebra)
        assert swept_open2_premise(f.algebra)
        assert not is_mv(f.algebra)
    assert [A for A in enumerate_all(4)
            if swept_open2_premise(A) and not is_mv(A)] \
        == [f.algebra for f in findings]


def test_open3(fixtures, boolean2):
    a4 = fixtures["a4"]
    assert open3_scan(a4) == []  # both induced algebras at b are 2-chains
    assert open3_scan(boolean2) == []
    godel4 = gen_family("godel", 4)
    findings = open3_scan(godel4)
    assert [(f.witness["x"], f.witness["left-size"], f.witness["right-size"])
            for f in findings] == [("a", "3", "2"), ("b", "2", "3")]


def _finding_keys(findings):
    return [(f.problem, f.algebra.name, f.witness) for f in findings]


@pytest.mark.parametrize("source", ORACLE_SOURCES)
def test_open3_scan_matches_build_both_oracle(source):
    for A in oracle_corpus(source):
        findings = open3_scan(A)
        assert all(f.algebra is A for f in findings), A.name
        assert _finding_keys(findings) == _finding_keys(open3_scan_oracle(A)), \
            A.name


@pytest.mark.parametrize("family,count", [("lukasiewicz", 0), ("godel", 62),
                                          ("nilpotent_minimum", 31)])
def test_open3_scan_matches_build_both_oracle_at_64(family, count):
    A = gen_family(family, 64)
    findings = open3_scan(A)
    assert _finding_keys(findings) == _finding_keys(open3_scan_oracle(A))
    assert len(findings) == count


def test_open3_scan_builds_only_the_algebras_it_compares(fixtures, monkeypatch):
    # Carriers of different sizes are a finding without a build; an
    # equal-size non-trivial pair is built, left then right, and compared.
    built = []
    real_build = induced._build

    def counting_build(A, carrier, bot_elt, top_elt, imp_table):
        built.append((A.name, A.labels[bot_elt], A.labels[top_elt]))
        return real_build(A, carrier, bot_elt, top_elt, imp_table)

    monkeypatch.setattr(induced, "_build", counting_build)
    godel4 = gen_family("godel", 4)
    assert len(open3_scan(godel4)) == 2  # sizes 3/2 at a and 2/3 at b
    assert built == []
    assert open3_scan(fixtures["a4"]) == []  # two 2-chains at b
    assert built == [("a4", "b", "1"), ("a4", "0", "b")]


def test_parallel_enumeration_matches_serial(monkeypatch):
    started = []
    real_pool = _pool.Pool

    def recording_pool(processes):
        started.append(processes)
        return real_pool(processes=processes)

    monkeypatch.setattr(_pool, "Pool", recording_pool)
    cores = os.cpu_count() or 1
    serial = [(A.mul, A.imp) for A in enumerate_chains(5, jobs=1)]
    parallel = [(A.mul, A.imp) for A in enumerate_chains(5, jobs=4)]
    assert serial == parallel
    for jobs in (4, cores + 3):
        assert [A.mul for A in enumerate_all(5, jobs=1)] \
            == [A.mul for A in enumerate_all(5, jobs=jobs)]
    assert all(2 <= p <= cores for p in started)
