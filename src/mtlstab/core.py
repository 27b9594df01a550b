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
from functools import cache, lru_cache
from itertools import chain, product
from operator import getitem, is_

MAX_CARRIER = 64  # subsets of the carrier must fit in one machine word
EMPTY_SET_SYMBOL = "∅"  # how a report renders the empty subset

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


class SubsetError(ValueError):
    """A subset or element does not belong to the algebra it is used with."""


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

    # Lazily built caches, per-element bitmasks and the claims' `_Rows`; none
    # refers back to the algebra, and as the tables are read-only none goes stale.
    def _mask_cache(self) -> dict:
        cache = self.__dict__.get("_masks")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_masks", cache)
        return cache

    def _fixed_masks(self, key: str) -> tuple[int, ...]:
        """The per-element bitmasks `_MASKS[key]` builds, cached under `key`."""
        try:
            return self.__dict__["_masks"][key]
        except KeyError:
            masks = self._mask_cache()[key] = tuple(_MASKS[key](self))
            return masks


def _upsets(A: FiniteMtlAlgebra) -> tuple[int, ...]:
    """Bit y of _upsets(A)[x] is set when x <= y."""
    return A._fixed_masks("up")


def _downsets(A: FiniteMtlAlgebra) -> tuple[int, ...]:
    """Bit y of _downsets(A)[x] is set when y <= x."""
    return A._fixed_masks("down")


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


def _check_labels(n: int, labels) -> tuple[str, ...]:
    if labels is None:
        return tuple(str(i) for i in range(n))
    labels = tuple(labels)
    if len(labels) != n or len(set(labels)) != n:
        raise AlgebraError("labels must be n distinct tokens")
    for label in labels:  # reports join labels with ',' and show {} as ∅
        if "," in label or label == EMPTY_SET_SYMBOL:
            raise AlgebraError(f"label {label!r} contains ',' or is ∅")
        if label.split() != [label] or "#" in label:  # file tokens
            raise AlgebraError(f"label {label!r} is empty or contains"
                               " whitespace or '#'")
    return labels


# n, (labels, meet, join) as handed over, and (labels, (meet, join, upset
# rows) or None) as checked, of the last call that passed with frozen ones;
# kept alive, so `is` on them means these very objects (0 == 0.0 == False).
_accepted = [(0, (), None)]


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
    agree with the `imp` order: imp's entries flagged where they equal top
    are meet's upset rows, byte z of row x being 1 when meet(x, z) == x.
    The labels and a declared meet/join are checked once per object, as
    enumerators hand all tables of a lattice the same tuples; mul, imp and
    the consistency compare run on every call.
    """
    if not 2 <= n <= MAX_CARRIER:
        raise AlgebraError(f"carrier size {n} outside supported range 2..{MAX_CARRIER}")
    if top is None:
        top = n - 1
    if not (0 <= bot < n and 0 <= top < n) or bot == top:
        raise AlgebraError(f"bad bot/top pair ({bot}, {top}) for carrier size {n}")
    key, (size, last, checked) = (labels, meet, join), _accepted[0]
    hit = size == n and all(map(is_, key, last))
    labels, lattice = checked if hit else (_check_labels(n, labels), None)
    mul = _check_table("mul", mul, n)
    imp = _check_table("imp", imp, n)

    if meet is None or join is None:
        if meet is not None or join is not None:
            raise AlgebraError("declare both meet and join or neither")
        meet, join = _derive_lattice(n, [_mask(row, top) for row in imp], bot, top)
    else:
        if lattice is None:
            meet = _check_table("meet", meet, n)
            join = _check_table("join", join, n)
            lattice = meet, join, b"".join(map(bytes.translate, map(bytes, meet),
                                                map(_flag, range(n))))
        meet, join, up = lattice
        flags = b"".join(map(bytes, imp)).translate(_flag(top))
        if flags != up:
            x, y = divmod(next(k for k in range(n * n) if flags[k] != up[k]), n)
            raise LatticeMismatchError(
                f"declared lattice disagrees with imp-order at"
                f" ({labels[x]}, {labels[y]})"
            )
    if not hit and all(k is None or type(k) is tuple  # frozen: nothing can change it
                       and all(type(x) in (tuple, str) for x in k) for k in key):
        _accepted[0] = n, key, (labels, lattice)

    return FiniteMtlAlgebra(
        n=n, labels=labels, bot=bot, top=top,
        mul=mul, imp=imp, meet=meet, join=join, name=name,
    )


def _mask(row, value: int) -> int:
    """Bit y is set when row[y] == value."""
    return int(bytes(row).translate(_flag(value, b"1", b"0"))[::-1], 2)


@cache
def _flag(value: int, on: bytes = b"\1", off: bytes = b"\0") -> bytes:
    """The `translate` table mapping byte `value` to `on`, the rest to `off`;
    values are carrier elements, so at most 2 x 64 tables are cached."""
    return off * value + on + off * (255 - value)


def _fixed_points(row) -> int:
    """Bit y is set when row[y] == y."""
    return sum(1 << y for y, v in enumerate(row) if v == y)


# Per-element masks by cache key: the order's cones and the one-point values.
_MASKS = {
    "up": lambda A: map(_mask, A.meet, range(A.n)),
    "down": lambda A: map(_fixed_points, zip(*A.meet)),
    "impl_left": lambda A: map(_mask, zip(*A.imp), range(A.n)),
    "impl_right": lambda A: map(_fixed_points, A.imp),
    "ortho": lambda A: [_mask(c, A.top) for c in zip(*A.join)],
    "mult_left": lambda A: map(_mask, zip(*A.mul), range(A.n)),
    "mult_right": lambda A: map(_fixed_points, A.mul),
}


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


# Each axiom as (arity, law on the algebra and an element tuple), in the order
# validate() lists violations: pairs, singles, then triples.  Witnesses are the
# tuples where a law fails; replay_violation() re-evaluates them.
_LAWS = {
    "lattice.meet.comm": (2, lambda A, x, y: A.meet[x][y] == A.meet[y][x]),
    "lattice.join.comm": (2, lambda A, x, y: A.join[x][y] == A.join[y][x]),
    "lattice.absorption": (2, lambda A, x, y:
                           A.meet[x][A.join[x][y]] == x == A.join[x][A.meet[x][y]]),
    "monoid.comm": (2, lambda A, x, y: A.mul[x][y] == A.mul[y][x]),
    "prelinearity": (2, lambda A, x, y: A.join[A.imp[x][y]][A.imp[y][x]] == A.top),
    "order.consistency": (2, lambda A, x, y:
                          (A.meet[x][y] == x) == (A.imp[x][y] == A.top)),
    "lattice.bounds": (1, lambda A, x: A.meet[A.bot][x] == A.bot
                       and A.join[A.top][x] == A.top
                       and A.meet[A.top][x] == x and A.join[A.bot][x] == x),
    "monoid.unit": (1, lambda A, x: A.mul[A.top][x] == x),
    "lattice.meet.assoc": (3, lambda A, x, y, z:
                           A.meet[A.meet[x][y]][z] == A.meet[x][A.meet[y][z]]),
    "lattice.join.assoc": (3, lambda A, x, y, z:
                           A.join[A.join[x][y]][z] == A.join[x][A.join[y][z]]),
    "monoid.assoc": (3, lambda A, x, y, z:
                     A.mul[A.mul[x][y]][z] == A.mul[x][A.mul[y][z]]),
    "adjointness": (3, lambda A, x, y, z: (A.meet[A.mul[x][y]][z] == A.mul[x][y])
                    == (A.meet[x][A.imp[y][z]] == x)),
}
AXIOMS = tuple(_LAWS)


def _semigroup_rows(table: Table, pad: bytes):
    """table's rows as bytes, flat, and padded to 256-byte `translate` tables,
    if it commutes and (xy)z == x(yz) for every y and z at once, x by x."""
    rows = list(map(bytes, table))
    flat, padded = b"".join(rows), [r + pad for r in rows]
    if table == tuple(zip(*table)) and \
            b"".join(map(rows.__getitem__, flat)) == b"".join(map(flat.translate, padded)):
        return rows, flat, padded
    return None


@lru_cache(maxsize=1)
def _lattice_rows(meet: Table, join: Table, bot: int, top: int):
    """The join rows and the upset rows (byte z of up[x] is 1 when x <= z),
    if meet and join commute, associate and absorb, with bounds bot and top;
    else None.  These six laws read nothing else, so one entry, keyed by
    these values, decides them once per lattice of an enumeration."""
    n = len(meet)
    pad, ident = bytes(256 - n), bytes(range(n))
    if (m := _semigroup_rows(meet, pad)) and (j := _semigroup_rows(join, pad)):
        (meet, _, meet_pad), (join, _, join_pad) = m, j
        if (meet[bot] == bytes((bot,)) * n and join[top] == bytes((top,)) * n
                and meet[top] == join[bot] == ident  # bounds
                and b"".join(map(bytes.translate, join, meet_pad))  # absorption
                == b"".join(map(bytes.translate, meet, join_pad)) == bytes(sorted(ident * n))):
            return tuple(join), tuple(map(bytes.translate, meet, map(_flag, range(n))))
    return None


def _rows_hold(A: FiniteMtlAlgebra) -> bool:
    """Whether all twelve laws hold, decided on bytes rows.  A row padded to
    256 bytes is a `translate` table, so one C-level call applies an
    element's row to a whole row or table: O(n) calls on at most n^3 bytes.
    The six lattice laws come from `_lattice_rows`, whose one entry is
    enough as enumerators hand over their tables lattice by lattice; the
    six that read mul or imp are decided on every call."""
    n, top, pad = A.n, A.top, bytes(256 - A.n)
    lattice, monoid = _lattice_rows(A.meet, A.join, A.bot, top), _semigroup_rows(A.mul, pad)
    if lattice is None or monoid is None:
        return False
    (join, up), (mul, flat_mul, _), imp = lattice, monoid, b"".join(map(bytes, A.imp))
    return (mul[top] == bytes(range(n))  # unit
            and b"".join(up) == imp.translate(_flag(top))  # order consistency
            and {top} == set(map(getitem, map(join.__getitem__, imp),  # prelinearity
                                 chain.from_iterable(zip(*A.imp))))
            and b"".join(map(up.__getitem__, flat_mul))  # adjointness
            == b"".join([imp.translate(u + pad) for u in up]))


def _violations(A: FiniteMtlAlgebra):
    """Each (axiom, witness) where a law fails, tuple by tuple: O(n^3)."""
    return ((axiom, tup) for arity in (2, 1, 3)
            for tup in product(range(A.n), repeat=arity)
            for axiom, (k, holds) in _LAWS.items() if k == arity and not holds(A, *tup))


def validate(A: FiniteMtlAlgebra) -> ValidationReport:
    """Check every axiom; accumulate all violations.

    The rows decide and the loop explains: `_rows_hold` settles all twelve
    laws with bytes row compares, and only when one fails does the per-tuple
    loop `_violations` run, listing every violation with its witness.
    The lattice laws (meet and join commute, associate and absorb; bounds)
    come from a one-entry memo keyed by meet, join, bot and top, which
    every table after a lattice's first hits; the rest run on every call.
    Failures are reported, never raised; a valid result flips the algebra's
    `validated` flag, after which the value is immutable and safe to share.
    """
    bad = () if _rows_hold(A) else tuple(_violations(A))
    report = ValidationReport(valid=not bad, violations=bad)
    if report.valid:
        object.__setattr__(A, "validated", True)
    return report


def replay_violation(A: FiniteMtlAlgebra, axiom: str, witness: tuple[int, ...]) -> bool:
    """Return True when the witness still violates the named axiom."""
    if axiom not in _LAWS:
        raise KeyError(f"unknown axiom id {axiom!r}")
    return not _LAWS[axiom][1](A, *witness)


def require_validated(A: FiniteMtlAlgebra) -> None:
    if not A.validated:
        raise NotValidatedError("operation requires a validated algebra")


def _require_element(A: FiniteMtlAlgebra, x: int) -> int:
    """x, when it is an element of A's carrier; -1 would index top."""
    if not 0 <= x < A.n:
        raise SubsetError(f"element {x} outside carrier")
    return x


def leq(A: FiniteMtlAlgebra, x: int, y: int) -> bool:
    """Lattice order: meet(x, y) == x (equivalently imp(x, y) == top)."""
    require_validated(A)
    return A.meet[_require_element(A, x)][_require_element(A, y)] == x


def neg(A: FiniteMtlAlgebra, x: int) -> int:
    """Residual negation imp(x, bot)."""
    require_validated(A)
    return A.imp[_require_element(A, x)][A.bot]


def power(A: FiniteMtlAlgebra, x: int, k: int) -> int:
    """k-fold mul product of x; the empty product is top.  The powers fall,
    x^(m+1) <= x^m, so they are constant from the first m with
    x^(m+1) = x^m on, and that m is below n."""
    require_validated(A)
    _require_element(A, x)
    if k < 0:
        raise ValueError("exponent must be a natural number")
    acc = A.top
    for _ in range(k):
        acc, last = A.mul[acc][x], acc
        if acc == last:
            break
    return acc

