"""Standard chain families, enumeration of small algebras up to isomorphism,
canonical forms, and the three open-problem scans.

Every algebra made here, a family chain or an enumerated table, goes
through one step, `_checked`: `construct` on the chain labels, then
`validate`.  The families are written in closed form, product and residuum
side by side.

Chains are built by Rees coextension, each size from the one below.  Full
enumeration runs one table search, `_tables_on_lattice`, on each
distributive bounded lattice in natural labelling, as MTL-algebras are
subdirect products of chains; on the n-chain alone it is the tests' second
chain route.  Both keep tables monotone while filling; the coextensions check
associativity on finished tables, the lattice search row by row.

The canonical form, which names and deduplicates enumerated algebras, is the
lexicographically least table serialization over carrier relabellings fixing
bot and top.  A branch-and-bound search places interior elements one position
at a time and cuts a branch once a lower bound on its serializations, with
sorted free columns, reaches the best one found; the result is
byte-identical to a scan of all (n-2)! permutations, kept as a test oracle.
Carriers stay capped at 10 elements.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cache, partial

from .core import (MAX_CARRIER, FiniteMtlAlgebra, NotALatticeError,
                   _derive_lattice, _mask, construct, require_validated,
                   validate)
from .classify import is_mv
from .induced import (_side, _trivial, _validates, check_mtl_iso,
                      left_mult_algebra, right_mult_algebra)
from .order import all_filters
from .stabilizers import impl_left, impl_right
from ._pool import pmap

FAMILIES = ("lukasiewicz", "godel", "nilpotent_minimum")

CHAIN_MAX = 8
FULL_MAX = 5
FULL_MAX_OPTIN = 6


class UnknownFamilyError(ValueError):
    pass


class SizeRangeError(ValueError):
    pass


@dataclass(frozen=True)
class SearchFinding:
    problem: str                      # open1 | open2 | open3
    algebra: FiniteMtlAlgebra
    witness: dict[str, str]


@cache
def _chain_labels(n: int) -> tuple[str, ...]:
    """0, the interior a..x, a1..x1, a2.. in that order, then 1."""
    interior = [chr(ord("a") + i % 24) + (str(i // 24) if i >= 24 else "")
                for i in range(n - 2)]
    return tuple(["0"] + interior + ["1"])


def _chain(n: int) -> tuple:
    """(meet, join) of the n-chain 0 < 1 < ... < n-1."""
    return _derive_lattice(n, [(1 << n) - (1 << x) for x in range(n)], 0, n - 1)


def _checked(what: str, n: int, mul, imp, lattice: tuple = (),
             name: str = "") -> FiniteMtlAlgebra:
    """`construct` on the chain labels, then `validate`.  The tables come
    from a generator that should only make algebras, so a table that fails
    is raised as that generator's fault."""
    A = construct(n, mul, imp, *lattice, labels=_chain_labels(n), name=name)
    report = validate(A)
    if not report.valid:
        raise AssertionError(f"{what} failed validation: {report.violations[0]}")
    return A


def gen_family(family: str, n: int) -> FiniteMtlAlgebra:
    """The n-element chain of a named family; always validates.

    With top = n-1, imp(i, j) = top whenever i <= j; otherwise
    lukasiewicz: mul(i, j) = max(0, i + j - top), imp(i, j) = top - i + j;
    godel: mul(i, j) = min(i, j), imp(i, j) = j;
    nilpotent_minimum: mul(i, j) = 0 when i + j <= top, else min(i, j),
    and imp(i, j) = max(top - i, j).
    """
    if not 2 <= n <= MAX_CARRIER:
        raise SizeRangeError(f"family chains support sizes 2..{MAX_CARRIER}")
    top = n - 1
    rng = range(n)
    if family == "lukasiewicz":
        mul = [[max(0, i + j - top) for j in rng] for i in rng]
        imp = [[min(top, top - i + j) for j in rng] for i in rng]
    elif family == "godel":
        mul = [[min(i, j) for j in rng] for i in rng]
        imp = [[top if i <= j else j for j in rng] for i in rng]
    elif family == "nilpotent_minimum":
        mul = [[0 if i + j <= top else min(i, j) for j in rng] for i in rng]
        imp = [[top if i <= j else max(top - i, j) for j in rng] for i in rng]
    else:
        raise UnknownFamilyError(f"unknown family {family!r}; "
                                 f"have {', '.join(FAMILIES)}")
    return _checked("family table", n, mul, imp, name=f"{family}{n}")


# ---------------------------------------------------------------------------
# Enumeration: chains by Rees coextension, and one table search,
# `_tables_on_lattice`, run on each distributive bounded lattice.

def _associative(mul: list, xs, ys, zs) -> bool:
    """mul(mul(x, y), z) == mul(x, mul(y, z)) for x in xs, y in ys, z in zs."""
    for x in xs:
        mx = mul[x]
        for y in ys:
            mxy, my = mul[mx[y]], mul[y]
            for z in zs:
                if mxy[z] != mx[my[z]]:
                    return False
    return True


def _coextensions(mul: tuple) -> list[tuple]:
    """The mul tables of the (n+1)-chains whose Rees quotient by the ideal
    {bot, atom} is the n-chain `mul`; each (n+1)-chain has one (Petrik and
    Vetterlein, J. Logic Comput. 27, 2017).  Old x > 0 becomes x + 1 and the
    atom is 1.  A product c > 0 in the quotient is c + 1; one that is bot
    there, off the bot row and the unit, is bot or atom, filled row-major
    from the lower bound max(mul(x-1, y), mul(x, y-1)), so the atom products
    form an upset; on a chain, monotone and associative tables are MTL.
    """
    top, inner = len(mul), range(1, len(mul))
    new = [[0] * (top + 1)] + [[0] + [c and c + 1 for c in row] for row in mul]
    new[top][1] = new[1][top] = 1
    free = [(x, y) for x in range(1, top) for y in range(x, top) if not new[x][y]]
    out = []

    def fill(k: int) -> None:
        if k == len(free):
            if _associative(new, inner, inner, inner):
                out.append(tuple(map(tuple, new)))
            return
        x, y = free[k]
        for v in range(max(new[x - 1][y], new[x][y - 1]), 2):
            new[x][y] = new[y][x] = v
            fill(k + 1)
        new[x][y] = new[y][x] = 0

    fill(0)
    return out


def enumerate_chains(n: int, jobs: int = 1) -> list[FiniteMtlAlgebra]:
    """All algebras on the n-chain, in ascending table order: the Rees
    coextensions of the (n-1)-chains, from the 2-chain up.  Each mul row is
    monotone, so imp(x, y) = max{z | mul(x, z) <= y} is a bisection.  Chain
    order is rigid, so no isomorphism dedup is needed.  `jobs` is unused;
    the CLI and the benchmark still pass it."""
    if not 2 <= n <= CHAIN_MAX:
        raise SizeRangeError(f"chain enumeration supports sizes 2..{CHAIN_MAX}")
    tables = [((0, 0), (0, 1))]
    for _ in range(n - 2):
        tables = [new for mul in tables for new in _coextensions(mul)]
    rng, chain = range(n), _chain(n)
    return [_checked("enumerated chain", n, mul,
                     [[bisect_right(row, y) - 1 for y in rng] for row in mul],
                     chain, name=f"chain{n}_{idx}")
            for idx, mul in enumerate(sorted(tables))]


def _bounded_lattices(n: int) -> list[tuple]:
    """(meet, join) of every bounded lattice on 0..n-1 with 0 bottom, n-1 top,
    in natural labelling (the order refines the integer order), so every
    isomorphism class appears at least once."""
    interior = range(1, n - 1)
    pairs = [(i, j) for i in interior for j in interior if i < j]
    base = [(1 << n) - 1] + [1 << x | 1 << (n - 1) for x in range(1, n)]
    lattices = []
    for bitmask in range(1 << len(pairs)):
        up = list(base)
        for k, (i, j) in enumerate(pairs):
            if bitmask >> k & 1:
                up[i] |= 1 << j
        try:
            lattices.append(_derive_lattice(n, up, 0, n - 1))
        except NotALatticeError:
            continue
    return lattices


def _distributive(n: int, lattice: tuple) -> bool:
    """meet(x, join(y, z)) == join(meet(x, y), meet(x, z)) for all x, y, z.
    Per x, with m = meet(x, -) as bytes, the left side is the flat join table
    translated by m, and row y of the right side is m translated by join[m[y]]."""
    meet, join = lattice
    pad = bytes(256 - n)
    flat = b"".join(map(bytes, join))
    rows = [bytes(row) + pad for row in join]
    for mx in map(bytes, meet):
        if flat.translate(mx + pad) != b"".join([mx.translate(rows[a]) for a in mx]):
            return False
    return True


def _tables_on_lattice(n: int, lattice: tuple) -> list[tuple]:
    """(mul, imp) of every MTL-algebra on a naturally labelled lattice, given
    as its (meet, join) pair.

    The free entries (i, j), 1 <= i <= j <= n-2, are filled row-major; the
    bot row is absorbing and the top row is the unit.  Lower covers carry
    smaller labels, so when (i, j) is filled the entries mul(p, j) for p
    covered by i and mul(i, q) for q covered by j are already decided, and
    the value must lie between their join and meet(i, j).  The order is the
    transitive closure of its covers, so every finished table is monotone.
    Once row i is decided, associativity is checked on the inner triples
    (i, y, z) with z < i: commutativity covers (z, y, i) and makes (i, y, i)
    hold, as (iy)i = i(iy) = i(yi).  Rows and columns 1..i are then decided,
    and each read lies in one: iy and i(yz) in row i, yz and (iy)z in column
    z (natural labelling also gives iy <= meet(i, y) <= i).  The residuum
    max{z | mul(x, z) <= y} and prelinearity are checked on finished tables.
    """
    meet, join = lattice
    top = n - 1
    rng = range(n)
    inner = range(1, top)
    up = [_mask(meet[x], x) for x in rng]
    down = [sum(1 << y for y in rng if meet[x][y] == y) for x in rng]
    # bot is left out of the covers: mul(bot, y) = bot adds nothing to a join
    covers = [[p for p in range(1, x) if up[p] & down[x] == 1 << p | 1 << x]
              for x in rng]
    between = [[tuple(z for z in rng if (up[a] & down[b]) >> z & 1)
                for b in rng] for a in rng]
    entries = [(i, j) for i in inner for j in range(i, top)]
    below = [[(p, j) for p in covers[i]] + [(i, q) for q in covers[j]]
             for i, j in entries]
    row_ends = {k + 1: i for k, (i, j) in enumerate(entries) if j == top - 1}
    mul = [[0] * n for _ in rng]
    for j in rng:
        mul[top][j] = mul[j][top] = j
    out = []

    def finish() -> None:
        imp = []
        for x in rng:
            mx = mul[x]
            row = []
            for y in rng:
                dy = down[y]
                j = 0
                for z in rng:
                    if dy >> mx[z] & 1:
                        j = join[j][z]
                if not dy >> mx[j] & 1:
                    return
                row.append(j)
            imp.append(tuple(row))
        for x in rng:
            for y in rng:
                if join[imp[x][y]][imp[y][x]] != top:
                    return
        out.append((tuple(map(tuple, mul)), tuple(imp)))

    def fill(k: int) -> None:
        i = row_ends.get(k)
        if i and not _associative(mul, (i,), inner, range(1, i)):
            return
        if k == len(entries):
            finish()
            return
        i, j = entries[k]
        lo = 0
        for p, q in below[k]:
            lo = join[lo][mul[p][q]]
        for v in between[lo][meet[i][j]]:
            mul[i][j] = mul[j][i] = v
            fill(k + 1)
        mul[i][j] = mul[j][i] = 0

    fill(0)
    return out


def canonical_form(A: FiniteMtlAlgebra) -> bytes:
    """Lexicographically minimal (mul, imp) serialization over carrier
    relabellings that put bot at 0 and top at n-1; equal exactly for
    isomorphic algebras.  Carriers above 10 elements raise SizeRangeError.

    The form is found by depth-first search: position k+1 is given to each
    free interior element in turn, once positions 0..k are placed.  The bot
    and top rows and the top column are the same in every serialization, so
    the search leaves them out.  A node is cut when a lower bound on every
    serialization below it is lexicographically at or above the best one
    found so far.  In the bound a free value is translated to k+1, the
    smallest position still free; a placed row's free columns are its
    translated values over the free elements, sorted; the unplaced rows are
    the free elements' rows, each bounded the same way, sorted.  The bound
    is valid: each final value is at least its bound, as a free value's
    final position is at least k+1; so the sorted bounds are at most the
    sorted final values, entry by entry; and these are at most any
    arrangement of them.  The same holds for the unplaced rows as wholes.
    So every leaf is at or above the bound, row by row, and no strictly
    smaller leaf is cut.  At a leaf the bound is the serialization.  The
    result is byte-identical to the minimum over all (n-2)! permutations,
    which `tests/conftest.canonical_form_oracle` computes by scanning them.
    """
    require_validated(A)
    n, bot, top = A.n, A.bot, A.top
    if n > 10:
        raise SizeRangeError("canonical form is for enumeration-scale carriers")
    # rows padded to 256 bytes: translate tables for gathering columns
    tables = [[bytes(row) + bytes(256 - n) for row in table] for table in (A.mul, A.imp)]
    # element -> position; every free element holds the smallest free position
    image = bytearray(256)
    image[:n] = bytes([1]) * n
    image[bot], image[top] = 0, n - 1
    placed = [bot]                      # the elements at positions 0..k
    free = [x for x in range(n) if x not in (bot, top)]
    best: tuple[bytes, ...] | None = None
    order = placed

    def bound():
        """The interior rows of the lower bound, in serialization order."""
        k = len(placed)
        columns = bytes(placed + free)

        def row(t: bytes) -> bytes:
            t = columns.translate(t).translate(image)
            return t[:k] + bytes(sorted(t[k:]))

        for rows in tables:
            for x in placed[1:]:
                yield row(rows[x])
            yield from sorted(row(rows[x]) for x in free)

    def below_best(rows) -> bool:
        for got, have in zip(rows, best):
            if got != have:
                return got < have
        return False

    def descend() -> None:
        nonlocal best, order
        if not free:
            rows = tuple(bound())
            if best is None or rows < best:
                best, order = rows, placed + [top]
            return
        if best is not None and not below_best(bound()):
            return
        position = len(placed)
        for x in list(free):
            free.remove(x)
            placed.append(x)
            for y in free:
                image[y] = position + 1
            descend()
            placed.pop()
            for y in free:
                image[y] = position
            free.append(x)

    descend()
    for position, x in enumerate(order):
        image[x] = position
    columns = bytes(order)
    return b"".join(columns.translate(rows[x]).translate(image)
                    for rows in tables for x in order)


def enumerate_all(n: int, jobs: int = 1, allow_large: bool = False,
                  dedup: bool = True) -> list[FiniteMtlAlgebra]:
    """Every algebra on n elements up to isomorphism, canonical order.

    Sizes 2..FULL_MAX, or up to FULL_MAX_OPTIN with `allow_large`; the
    SizeRangeError names the range that this call accepts.
    """
    cap = FULL_MAX_OPTIN if allow_large else FULL_MAX
    if not 2 <= n <= cap:
        raise SizeRangeError(f"full enumeration supports sizes 2..{cap}")
    lattices = [L for L in _bounded_lattices(n) if _distributive(n, L)]
    chunks = pmap(partial(_tables_on_lattice, n), lattices, jobs)
    seen: dict[bytes, FiniteMtlAlgebra] = {}
    plain: list[FiniteMtlAlgebra] = []
    for lattice, chunk in zip(lattices, chunks):
        for mul, imp in chunk:
            A = _checked("enumerated algebra", n, mul, imp, lattice)
            if dedup:
                seen.setdefault(canonical_form(A), A)
            else:
                plain.append(A)
    if dedup:
        ordered = [seen[key] for key in sorted(seen)]
    else:
        ordered = plain
    return [replace(A, name=f"alg{n}_{idx}") for idx, A in enumerate(ordered)]


# ---------------------------------------------------------------------------
# Open-problem scans.

def open1_scan(A: FiniteMtlAlgebra) -> list[SearchFinding]:
    """Filters that are not the left stabilizer of any nonempty subset.

    impl_left and impl_right are the Galois pair of the relation
    imp(a, x) == x: impl_right(F) is the largest X whose left stabilizer
    contains F, and it always holds top.  So F is a left stabilizer exactly
    when it is that of impl_right(F).  A filter whose impl_right is empty,
    which only a broken one-point mask gives, is skipped.
    """
    findings = []
    for F in all_filters(A):
        right = impl_right(A, F)
        if not right.is_empty() and impl_left(A, right) != F:
            findings.append(SearchFinding(
                "open1", A, {"filter": F.render(),
                             "reason": "no X has this left stabilizer"}))
    return findings


def open2_premise(A: FiniteMtlAlgebra) -> bool:
    """Left equals right stabilizer everywhere.

    The cached one-point masks decide it: both stabilizers of a nonempty X
    are the intersections of the one-point stabilizers of its members.
    """
    require_validated(A)
    return A._fixed_masks("impl_left") == A._fixed_masks("impl_right")


def open2_scan(corpus) -> list[SearchFinding]:
    """Algebras whose stabilizers are symmetric yet are not MV."""
    findings = []
    for A in corpus:
        if open2_premise(A) and not is_mv(A):
            findings.append(SearchFinding(
                "open2", A, {"premise": "left equals right stabilizer",
                             "mv": "false"}))
    return findings


def open3_scan(A: FiniteMtlAlgebra) -> list[SearchFinding]:
    """Idempotents whose two induced stabilizer algebras are not isomorphic.

    Both carriers, mult_left({x}) and mult_right({x}), are x's one-point
    masks; x is skipped when one is trivial (read before anything is built)
    or, by `induced._validates`, would not validate (a T4.7/T4.8 refutation
    instead).  Different sizes are a finding at once; only equal ones are built.
    """
    findings = []
    for x in A.idempotents():
        if any(_trivial(A._fixed_masks(k)[x]) for k in ("mult_left", "mult_right")):
            continue
        sides = _side(A, x, 0), _side(A, x, 1)
        if not all(_validates(*args) for args in sides):
            continue
        left, right = sides[0][1], sides[1][1]
        if len(left) != len(right) or check_mtl_iso(
                left_mult_algebra(A, x).algebra,
                right_mult_algebra(A, x).algebra) is None:
            findings.append(SearchFinding("open3", A, {
                "x": A.labels[x], "left-size": str(len(left)),
                "right-size": str(len(right))}))
    return findings
