"""Finite MTL-algebras as operation tables, with witness-carrying validation.

An MTL-algebra here is a bounded lattice (meet, join, bot, top) carrying a
commutative monoid `mul` with unit top and a residuum `imp` satisfying the
adjointness law ``mul(x, y) <= z  iff  x <= imp(y, z)`` and prelinearity
``join(imp(x, y), imp(y, x)) == top``.

The carrier is always ``0..n-1``; `bot` and `top` are indices into it (they
need not be 0 and n-1, since input files may list elements in any order).
Tables are tuples of tuples so algebras are immutable and hashable; every
later operation is a plain table lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

MAX_CARRIER = 64  # subsets of the carrier must fit in one machine word

Table = tuple[tuple[int, ...], ...]


class AlgebraError(ValueError):
    """Base class for errors raised while building an algebra."""


class TableError(AlgebraError):
    """A table is malformed: wrong shape or out-of-range entry."""


class NotALatticeError(AlgebraError):
    """The order derived from `imp` is not a (bounded) lattice."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class LatticeMismatchError(AlgebraError):
    """Declared meet/join tables disagree with the order derived from `imp`."""


class NotValidatedError(AlgebraError):
    """An operation that needs a validated algebra got an unvalidated one."""


class InternalConsistencyError(RuntimeError):
    """A property that must hold on every validated algebra failed anyway."""


@dataclass(frozen=True)
class FiniteMtlAlgebra:
    n: int
    labels: tuple[str, ...]
    bot: int
    top: int
    mul: Table
    imp: Table
    meet: Table
    join: Table
    name: str = field(default="", compare=False)
    validated: bool = field(default=False, compare=False)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown element label {label!r}") from None

    def elements(self) -> range:
        return range(self.n)

    def idempotents(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.n) if self.mul[x][x] == x)

    # Lazily built bitmask caches; everything downstream of validate() is
    # read-only so these are safe to share between threads and processes.
    def _mask_cache(self) -> dict:
        cache = self.__dict__.get("_masks")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_masks", cache)
        return cache

    def _fixed_masks(self, key: str, fixed) -> tuple[int, ...]:
        """Per-element bitmasks, cached under `key`: bit a of masks[x] is set
        when fixed(a, x)."""
        cache = self._mask_cache()
        masks = cache.get(key)
        if masks is None:
            masks = tuple(sum(1 << a for a in range(self.n) if fixed(a, x))
                          for x in range(self.n))
            cache[key] = masks
        return masks

    def upset_mask(self, x: int) -> int:
        return _upsets(self)[x]

    def downset_mask(self, x: int) -> int:
        return _downsets(self)[x]


def _upsets(A: FiniteMtlAlgebra) -> tuple[int, ...]:
    """Bit y of _upsets(A)[x] is set when x <= y."""
    return A._fixed_masks("up", lambda y, x: A.meet[x][y] == x)


def _downsets(A: FiniteMtlAlgebra) -> tuple[int, ...]:
    """Bit y of _downsets(A)[x] is set when y <= x."""
    return A._fixed_masks("down", lambda y, x: A.meet[y][x] == y)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]


def _check_table(name: str, table, n: int) -> Table:
    if len(table) != n:
        raise TableError(f"{name} table has {len(table)} rows, expected {n}")
    rows = []
    for i, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            raise TableError(f"{name} table row {i} has {len(row)} entries, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise TableError(f"{name}[{i}][{j}] = {v!r} is out of range 0..{n - 1}")
        rows.append(row)
    return tuple(rows)


def construct(
    n: int,
    mul,
    imp,
    meet=None,
    join=None,
    *,
    bot: int = 0,
    top: int | None = None,
    labels: tuple[str, ...] | None = None,
    name: str = "",
) -> FiniteMtlAlgebra:
    """Build an unvalidated algebra, deriving meet/join from `imp` if omitted.

    The derived order is ``x <= y  iff  imp(x, y) == top``.  When meet/join
    are omitted this relation must be a partial order in which every pair has
    a meet and a join; when they are declared, the order they encode must
    agree with the `imp` order.
    """
    if not 2 <= n <= MAX_CARRIER:
        raise AlgebraError(f"carrier size {n} outside supported range 2..{MAX_CARRIER}")
    if top is None:
        top = n - 1
    if not (0 <= bot < n and 0 <= top < n) or bot == top:
        raise AlgebraError(f"bad bot/top pair ({bot}, {top}) for carrier size {n}")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n or len(set(labels)) != n:
            raise AlgebraError("labels must be n distinct tokens")

    mul = _check_table("mul", mul, n)
    imp = _check_table("imp", imp, n)

    # The residuum's order as upset masks; construct() only needs it to be
    # consistent, validate() re-checks the lattice laws in full.
    up = [_mask(imp[x], top) for x in range(n)]

    if meet is None or join is None:
        if meet is not None or join is not None:
            raise AlgebraError("declare both meet and join or neither")
        meet, join = _derive_lattice(n, up, bot, top)
    else:
        meet = _check_table("meet", meet, n)
        join = _check_table("join", join, n)
        for x in range(n):
            differ = up[x] ^ _mask(meet[x], x)
            if differ:
                y = _lowest(differ)
                raise LatticeMismatchError(
                    f"declared lattice disagrees with imp-order at"
                    f" ({labels[x]}, {labels[y]})"
                )

    return FiniteMtlAlgebra(
        n=n, labels=labels, bot=bot, top=top,
        mul=mul, imp=imp, meet=meet, join=join, name=name,
    )


def _mask(row, value: int) -> int:
    """Bit y is set when row[y] == value."""
    return sum(1 << y for y, v in enumerate(row) if v == value)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _derive_lattice(n: int, up, bot: int, top: int) -> tuple[Table, Table]:
    """(meet, join) of the order whose upset masks are `up`: bit y of up[x]
    is set when x <= y.

    Reflexivity, antisymmetry, transitivity and the bounds are checked in
    that order, then meet and join pair by pair; each check reports its
    first witness in index order.  meet(x, y) is the element whose downset
    is down[x] & down[y], and join(x, y) the one whose upset is
    up[x] & up[y]; a pair has none exactly when no element has that cone.
    O(n^2) mask operations.
    """
    down = [sum(1 << x for x in range(n) if up[x] >> y & 1) for y in range(n)]
    for x in range(n):
        if not up[x] >> x & 1:
            raise NotALatticeError(f"imp-order is not reflexive at element {x}")
    for x in range(n):
        both = up[x] & down[x] & ~(1 << x)
        if both:
            y = _lowest(both)
            raise NotALatticeError(f"imp-order is not antisymmetric at ({x}, {y})", (x, y))
    for x, y in product(range(n), repeat=2):
        escape = up[y] & ~up[x]
        if up[x] >> y & 1 and escape:
            raise NotALatticeError(
                f"imp-order is not transitive at ({x}, {y}, {_lowest(escape)})")
    for x in range(n):
        if not (up[bot] >> x & 1 and up[x] >> top & 1):
            raise NotALatticeError(f"element {x} is not between bot and top")

    by_down = {mask: x for x, mask in enumerate(down)}
    by_up = {mask: x for x, mask in enumerate(up)}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for x, y in product(range(n), repeat=2):
        m = by_down.get(down[x] & down[y])
        if m is None:
            raise NotALatticeError(
                f"incomparable pair ({x}, {y}) has no meet in the imp-order", (x, y)
            )
        j = by_up.get(up[x] & up[y])
        if j is None:
            raise NotALatticeError(
                f"incomparable pair ({x}, {y}) has no join in the imp-order", (x, y)
            )
        meet[x][y], join[x][y] = m, j
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


# Axiom identifiers used in validation reports.  Witnesses are the element
# tuples at which the named law fails; replay_violation() re-evaluates them.
AXIOMS = (
    "lattice.meet.comm", "lattice.join.comm",
    "lattice.meet.assoc", "lattice.join.assoc",
    "lattice.absorption", "lattice.bounds",
    "monoid.comm", "monoid.assoc", "monoid.unit",
    "adjointness", "prelinearity", "order.consistency",
)


def validate(A: FiniteMtlAlgebra) -> ValidationReport:
    """Check every axiom over all tuples; accumulate all violations.

    O(n^3).  Failures are reported, never raised; a valid result flips the
    algebra's `validated` flag, after which the value is immutable and safe
    to share.
    """
    n = A.n
    rng = range(n)
    bad: list[tuple[str, tuple[int, ...]]] = []
    meet, join, mul, imp = A.meet, A.join, A.mul, A.imp

    for x, y in product(rng, rng):
        if meet[x][y] != meet[y][x]:
            bad.append(("lattice.meet.comm", (x, y)))
        if join[x][y] != join[y][x]:
            bad.append(("lattice.join.comm", (x, y)))
        if meet[x][join[x][y]] != x or join[x][meet[x][y]] != x:
            bad.append(("lattice.absorption", (x, y)))
        if mul[x][y] != mul[y][x]:
            bad.append(("monoid.comm", (x, y)))
        if join[imp[x][y]][imp[y][x]] != A.top:
            bad.append(("prelinearity", (x, y)))
        if (meet[x][y] == x) != (imp[x][y] == A.top):
            bad.append(("order.consistency", (x, y)))
    for x in rng:
        if meet[A.bot][x] != A.bot or join[A.top][x] != A.top \
                or meet[A.top][x] != x or join[A.bot][x] != x:
            bad.append(("lattice.bounds", (x,)))
        if mul[A.top][x] != x:
            bad.append(("monoid.unit", (x,)))
    for x, y, z in product(rng, rng, rng):
        if meet[meet[x][y]][z] != meet[x][meet[y][z]]:
            bad.append(("lattice.meet.assoc", (x, y, z)))
        if join[join[x][y]][z] != join[x][join[y][z]]:
            bad.append(("lattice.join.assoc", (x, y, z)))
        if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
            bad.append(("monoid.assoc", (x, y, z)))
        if (meet[mul[x][y]][z] == mul[x][y]) != (meet[x][imp[y][z]] == x):
            bad.append(("adjointness", (x, y, z)))

    report = ValidationReport(valid=not bad, violations=tuple(bad))
    if report.valid:
        object.__setattr__(A, "validated", True)
    return report


def replay_violation(A: FiniteMtlAlgebra, axiom: str, witness: tuple[int, ...]) -> bool:
    """Return True when the witness still violates the named axiom."""
    meet, join, mul, imp = A.meet, A.join, A.mul, A.imp
    w = witness
    if axiom == "lattice.meet.comm":
        return meet[w[0]][w[1]] != meet[w[1]][w[0]]
    if axiom == "lattice.join.comm":
        return join[w[0]][w[1]] != join[w[1]][w[0]]
    if axiom == "lattice.absorption":
        x, y = w
        return meet[x][join[x][y]] != x or join[x][meet[x][y]] != x
    if axiom == "monoid.comm":
        return mul[w[0]][w[1]] != mul[w[1]][w[0]]
    if axiom == "prelinearity":
        return join[imp[w[0]][w[1]]][imp[w[1]][w[0]]] != A.top
    if axiom == "order.consistency":
        return (meet[w[0]][w[1]] == w[0]) != (imp[w[0]][w[1]] == A.top)
    if axiom == "lattice.bounds":
        (x,) = w
        return meet[A.bot][x] != A.bot or join[A.top][x] != A.top \
            or meet[A.top][x] != x or join[A.bot][x] != x
    if axiom == "monoid.unit":
        return mul[A.top][w[0]] != w[0]
    if axiom == "lattice.meet.assoc":
        x, y, z = w
        return meet[meet[x][y]][z] != meet[x][meet[y][z]]
    if axiom == "lattice.join.assoc":
        x, y, z = w
        return join[join[x][y]][z] != join[x][join[y][z]]
    if axiom == "monoid.assoc":
        x, y, z = w
        return mul[mul[x][y]][z] != mul[x][mul[y][z]]
    if axiom == "adjointness":
        x, y, z = w
        return (meet[mul[x][y]][z] == mul[x][y]) != (meet[x][imp[y][z]] == x)
    raise KeyError(f"unknown axiom id {axiom!r}")


def require_validated(A: FiniteMtlAlgebra) -> None:
    if not A.validated:
        raise NotValidatedError("operation requires a validated algebra")


def leq(A: FiniteMtlAlgebra, x: int, y: int) -> bool:
    """Lattice order: meet(x, y) == x (equivalently imp(x, y) == top)."""
    require_validated(A)
    return A.meet[x][y] == x


def neg(A: FiniteMtlAlgebra, x: int) -> int:
    """Residual negation imp(x, bot)."""
    require_validated(A)
    return A.imp[x][A.bot]


def power(A: FiniteMtlAlgebra, x: int, k: int) -> int:
    """k-fold mul product of x; the empty product is top."""
    require_validated(A)
    if k < 0:
        raise ValueError("exponent must be a natural number")
    acc = A.top
    for _ in range(k):
        acc = A.mul[acc][x]
    return acc


# The ten basic identities that hold in every MTL-algebra, by item number,
# as (arity, predicate on A and an element tuple).  The claim registry reads
# them as P2.2.1-P2.2.10 and adds items 11 and 12 there: two identities that
# the surrounding development relies on but that are not in the list of ten.
_BASIC_IDENTITIES = {
    "1": (2, lambda A, x, y: (A.meet[x][y] == x) == (A.imp[x][y] == A.top)),
    "2": (2, lambda A, x, y: A.meet[A.mul[x][y]][A.meet[x][y]] == A.mul[x][y]),
    "3": (3, lambda A, x, y, z:
          A.imp[x][A.meet[y][z]] == A.meet[A.imp[x][y]][A.imp[x][z]]),
    "4": (3, lambda A, x, y, z:
          A.imp[A.join[x][y]][z] == A.meet[A.imp[x][z]][A.imp[y][z]]),
    "5": (2, lambda A, x, y: A.imp[x][y] == A.imp[x][A.meet[x][y]]),
    "6": (2, lambda A, x, y: A.imp[x][y] == A.imp[A.join[x][y]][y]),
    "7": (3, lambda A, x, y, z:
          A.imp[A.meet[x][y]][z] == A.join[A.imp[x][z]][A.imp[y][z]]),
    "8": (2, lambda A, x, y: A.join[x][y]
          == A.meet[A.imp[A.imp[x][y]][y]][A.imp[A.imp[y][x]][x]]),
    "9": (2, lambda A, x, y: A.meet[x][A.imp[y][x]] == x),
    "10": (1, lambda A, x: A.imp[x][A.bot]
           == A.imp[A.imp[A.imp[x][A.bot]][A.bot]][A.bot]),
}


def check_basic_identities(A: FiniteMtlAlgebra):
    """Evaluate the ten always-true identities; per-item verdicts.

    Returns a Report whose records carry one verdict per item.  All ten hold
    on every validated algebra; a failure indicates table corruption and is
    counted as a report failure.
    """
    from .report import Report

    require_validated(A)
    report = Report()
    for item, (arity, pred) in _BASIC_IDENTITIES.items():
        witness = next((tup for tup in product(range(A.n), repeat=arity)
                        if not pred(A, *tup)), None)
        if witness is None:
            report.add("identity", item, "holds")
        else:
            rendered = ",".join(A.labels[w] for w in witness)
            report.add_failure("identity", item, f"fails at ({rendered})")
    return report
