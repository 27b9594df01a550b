from itertools import combinations_with_replacement, permutations, product

import pytest

from mtlstab import (NotALatticeError, Subset, all_nonempty_subsets, construct,
                     validate)
from mtlstab.claims import _scan
from mtlstab.core import require_validated
from mtlstab.fixtures import FIXTURE_NAMES, load_fixture
from mtlstab.induced import check_mtl_iso, left_mult_algebra, right_mult_algebra
from mtlstab.search import (FAMILIES, SearchFinding, enumerate_all,
                            enumerate_chains, gen_family)
from mtlstab.subsets import require_nonempty

# The corpora that the oracle tests sweep, one test id per source.
ORACLE_SOURCES = (["fixtures", "families"]
                  + [f"all:{n}" for n in range(2, 7)]
                  + [f"chains:{n}" for n in range(2, 8)])


def oracle_corpus(source):
    if source == "fixtures":
        return [load_fixture(name) for name in FIXTURE_NAMES]
    if source == "families":
        return [gen_family(f, n) for f in FAMILIES for n in range(2, 11)]
    kind, n = source.split(":")
    if kind == "all":
        return enumerate_all(int(n), allow_large=True)
    return enumerate_chains(int(n))


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


def derive_lattice_oracle(n, leq, bot, top):
    """The O(n^4) lattice derivation from an n x n bool matrix, kept as the
    oracle for the library's mask routine `core._derive_lattice`: the same
    checks in the same order, each with the same message and pair."""
    for x in range(n):
        if not leq[x][x]:
            raise NotALatticeError(f"imp-order is not reflexive at element {x}")
    for x, y in product(range(n), repeat=2):
        if x != y and leq[x][y] and leq[y][x]:
            raise NotALatticeError(f"imp-order is not antisymmetric at ({x}, {y})", (x, y))
    for x, y, z in product(range(n), repeat=3):
        if leq[x][y] and leq[y][z] and not leq[x][z]:
            raise NotALatticeError(f"imp-order is not transitive at ({x}, {y}, {z})")
    for x in range(n):
        if not (leq[bot][x] and leq[x][top]):
            raise NotALatticeError(f"element {x} is not between bot and top")

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for x, y in product(range(n), repeat=2):
        lower = [z for z in range(n) if leq[z][x] and leq[z][y]]
        greatest = [m for m in lower if all(leq[z][m] for z in lower)]
        if len(greatest) != 1:
            raise NotALatticeError(
                f"incomparable pair ({x}, {y}) has no meet in the imp-order", (x, y)
            )
        meet[x][y] = greatest[0]
        upper = [z for z in range(n) if leq[x][z] and leq[y][z]]
        least = [j for j in upper if all(leq[j][z] for z in upper)]
        if len(least) != 1:
            raise NotALatticeError(
                f"incomparable pair ({x}, {y}) has no join in the imp-order", (x, y)
            )
        join[x][y] = least[0]
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


def canonical_form_oracle(A):
    """The (n-2)! permutation scan for n <= 9, kept as the oracle for the
    library's branch-and-bound `search.canonical_form`: the lexicographically
    minimal (mul, imp) serialization over carrier permutations fixing bot
    and top."""
    assert A.validated and A.n <= 9
    rest = [x for x in range(A.n) if x not in (A.bot, A.top)]
    best = None
    for perm in permutations(range(1, A.n - 1)):
        image = {A.bot: 0, A.top: A.n - 1}
        for src, dst in zip(rest, perm):
            image[src] = dst
        buf = bytearray()
        for table in (A.mul, A.imp):
            rows = [[0] * A.n for _ in range(A.n)]
            for x in range(A.n):
                for y in range(A.n):
                    rows[image[x]][image[y]] = image[table[x][y]]
            for row in rows:
                buf.extend(row)
        cand = bytes(buf)
        if best is None or cand < best:
            best = cand
    return best


def open3_scan_oracle(A):
    """The build-both-then-skip loop, kept as the oracle for the library's
    `search.open3_scan`, which decides triviality from the two carriers
    before building either induced algebra."""
    findings = []
    for x in A.idempotents():
        left = left_mult_algebra(A, x)
        right = right_mult_algebra(A, x)
        if left.trivial or right.trivial:
            continue
        if not (left.ok and right.ok):
            continue  # a failed construction is a T4.7/T4.8 refutation instead
        if left.algebra.n != right.algebra.n \
                or check_mtl_iso(left.algebra, right.algebra) is None:
            findings.append(SearchFinding(
                "open3", A, {
                    "x": A.labels[x],
                    "left-size": str(left.algebra.n),
                    "right-size": str(right.algebra.n),
                }))
    return findings


def full_scan_oracle(pred):
    """The scan over every nonempty subset in ascending bit order, scope
    2^n - 1, kept as the oracle for the library's claims that scan a smaller
    domain through `claims._claim_on`: the same verdict, witness and scope."""
    return lambda A: _scan(A, pred, range(1, 1 << A.n), (1 << A.n) - 1)


def every_subset_oracle(pred):
    """The scan over every nonempty subset, kept as the oracle for the
    library's bundle conditions that `claims._holds_on` settles on a smaller
    domain (the singletons, or the singletons and pairs): pred(A, X) holds
    on every X, for a pred that returns a bool."""
    return lambda A: all(pred(A, X) for X in all_nonempty_subsets(A))


def antitone_all_pairs_oracle(parts):
    """The all-pairs scan for n <= 12, kept as the oracle for the library's
    covering-pair `claims._antitone_check`: X a proper subset of Y forces
    op(Y) <= op(X), for every part, over each nonempty subset Y ascending
    and its nonempty proper subsets X in descending bit order; the scope
    counts the pairs scanned.  Operator bits are computed once per
    subset."""
    def check(A):
        assert A.n <= 12

        def op_bits(bits):
            X = Subset(A, bits)
            return tuple(op(A, X).bits for _, op in parts)

        known = {bits: op_bits(bits) for bits in range(1, 1 << A.n)}
        count = 0
        for ybits, ys in known.items():
            sub = (ybits - 1) & ybits
            while sub:
                count += 1
                xs = known[sub]
                for (name, _), y, x in zip(parts, ys, xs):
                    if y & ~x:
                        return False, {
                            "part": name, "X": Subset(A, sub).render(),
                            "Y": Subset(A, ybits).render(),
                        }, count
                sub = (sub - 1) & ybits
        return True, None, count
    return check


# The pair-scan and fixpoint routines for closedness, generation and
# primality, kept as the oracles for the library's `order` routines, which
# read each filter or lattice ideal as the cone of one element.  `table` is
# the operation the set must be closed under and `cones[x]` the mask of x's
# upset or downset; primality reads the dual lattice operation.

def _closure(A, bits, cones):
    """The union of the cones of the members of `bits`."""
    out = 0
    for x in range(A.n):
        if bits >> x & 1:
            out |= cones[x]
    return out


def closed_by_pair_scan(A, S, table, cones):
    """S is nonempty, closed under `table` and the union of its cones."""
    require_validated(A)
    if S.is_empty():
        return False
    for x, y in combinations_with_replacement(S.members(), 2):
        if table[x][y] not in S:
            return False
    return _closure(A, S.bits, cones) == S.bits


def generated_by_fixpoint(A, X, table, cones):
    """The least superset of X closed under `table` and cones, by closing
    under both to a fixed point."""
    require_validated(A)
    require_nonempty(X)
    bits = _closure(A, X.bits, cones)
    while True:
        new = bits
        members = [x for x in range(A.n) if bits >> x & 1]
        for x, y in combinations_with_replacement(members, 2):
            new |= 1 << table[x][y]
        new = _closure(A, new, cones)
        if new == bits:
            return Subset(A, bits)
        bits = new


def prime_by_pair_scan(A, S, table):
    """table(x, y) in S forces x or y in S."""
    for x in range(A.n):
        for y in range(x, A.n):
            if table[x][y] in S and x not in S and y not in S:
                return False
    return True


def product_algebra(A, B):
    """The direct product A x B; the pair (a, b) sits at a * B.n + b."""
    n = A.n * B.n

    def pair(a, b):
        return a * B.n + b

    def combine(left, right):
        return [[pair(left[x // B.n][y // B.n], right[x % B.n][y % B.n])
                 for y in range(n)] for x in range(n)]

    return _make(n, combine(A.mul, B.mul), combine(A.imp, B.imp),
                 [A.labels[x // B.n] + B.labels[x % B.n] for x in range(n)],
                 f"{A.name}x{B.name}", bot=pair(A.bot, B.bot),
                 top=pair(A.top, B.top))


def _make(n, mul, imp, labels, name, **bounds):
    A = construct(n, mul, imp, labels=labels, name=name, **bounds)
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
