"""Algebras induced on one-point multiplicative stabilizers, the order
isomorphism between right stabilizers, and isomorphism testing.

For an idempotent x the left stabilizer carrier gets bot = x and top = 1
with all operations restricted; the right stabilizer carrier gets bot = 0,
top = x, restricted mul/meet/join and, on its rows, ``a ~> b = x imp(a, b)``.
One-element carriers are trivial, not validated.  Every other failure (an
entry that leaves the carrier, a missing constant, tables that `construct`
refuses, a failed axiom) comes back from `_build` as the T4.7/T4.8 witness
fields, not raised; `_validates` says, without building, if it would.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .core import (
    AlgebraError,
    FiniteMtlAlgebra,
    InternalConsistencyError,
    _downsets,
    _require_element,
    _upsets,
    construct,
    require_validated,
    validate,
)
from .order import _first_escape
from .subsets import Subset, singleton
from .stabilizers import impl_left, impl_right, mult_right


class NotIdempotentError(ValueError):
    pass


class NotMvError(ValueError):
    pass


def _require_idempotent(A: FiniteMtlAlgebra, x: int) -> None:
    if A.mul[_require_element(A, x)][x] != x:
        raise NotIdempotentError(f"element {A.labels[x]} is not idempotent")


@dataclass
class InducedAlgebra:
    carrier: Subset
    algebra: FiniteMtlAlgebra | None = None   # set when the restricted tables validate
    failure: dict[str, str] | None = None     # else the T4.7/T4.8 witness fields but x

    @property
    def trivial(self) -> bool:
        return _trivial(self.carrier.bits)

    @property
    def ok(self) -> bool:
        return self.algebra is not None


def _trivial(bits: int) -> bool:
    """A carrier of fewer than two elements gets no algebra."""
    return bits.bit_count() < 2


def _restrict(pos: dict[int, int], ops) -> list | None:
    """Each table of `ops` on the carrier, e at pos[e]; None if one leaves it."""
    try:
        return [[[pos[t[a][b]] for b in pos] for a in pos] for _, t in ops]
    except KeyError:
        return None


def _build(A: FiniteMtlAlgebra, carrier: Subset, bot_elt: int, top_elt: int,
           imp_table) -> InducedAlgebra:
    if _trivial(carrier.bits):
        return InducedAlgebra(carrier)
    members = carrier.members()
    pos = {e: i for i, e in enumerate(members)}
    ops = (("mul", A.mul), ("imp", imp_table), ("meet", A.meet), ("join", A.join))
    tables = _restrict(pos, ops)
    if tables is None:
        op, a, b, r = _first_escape(carrier, ops)
        lbl = A.labels
        return InducedAlgebra(carrier, failure={
            "violation": f"{op}({lbl[a]},{lbl[b]})={lbl[r]} leaves the carrier"})
    missing = [A.labels[e] for e in (bot_elt, top_elt) if e not in pos]
    if missing:
        return InducedAlgebra(carrier, failure={
            "reason": f"{missing[0]} is not in the carrier"})
    try:
        algebra = construct(
            len(members), *tables, bot=pos[bot_elt], top=pos[top_elt],
            labels=tuple(A.labels[e] for e in members),
            name=f"{A.name or 'algebra'}|{A.labels[bot_elt]}..{A.labels[top_elt]}",
        )
    except AlgebraError as exc:
        return InducedAlgebra(carrier, failure={"reason": str(exc)})
    report = validate(algebra)
    if not report.valid:
        axiom, witness = report.violations[0]
        return InducedAlgebra(carrier, failure={"axiom": axiom, "witness": str(witness)})
    return InducedAlgebra(carrier, algebra)


def _validates(A: FiniteMtlAlgebra, carrier: Subset, bot_elt: int, top_elt: int,
              imp_table) -> bool:
    """Whether `_build` validates on the arguments `_side` gives: C holds
    bot' != top', is closed under mul, imp' and join, and has bot' <= a =
    mul(top', a); else `_build` fails.  Meet needs no check, as
    a ^ b = a(a -> b) v b(b -> a) in every MTL-algebra (on chains, so on
    their subdirect products) and a imp'(a, b) = a(a -> b) on both sides.
    Given these, labels and entries come from A, and the laws without imp'
    or a constant hold in C as in A; on the left (imp' = imp, top' = 1) all
    do but the bounds.  On the right (imp'(a, b) = x(a -> b), bot' = 0,
    top' = x), xa = a gives the bounds, order consistency (x <= a -> b iff
    a = xa <= b), adjointness (a <= x(b -> c) <= b -> c; ab <= c gives
    a = xa <= x(b -> c)) and prelinearity (mul distributes over join)."""
    bits, members = carrier.bits, carrier.members()
    if bot_elt == top_elt or not bits >> bot_elt & bits >> top_elt & 1:
        return False
    unit, have, row = A.mul[top_elt], set(members), itemgetter(*members)
    return (not bits & ~_upsets(A)[bot_elt] and all(unit[a] == a for a in members)
            and all(have.issuperset(row(t[a]))  # a tuple: C has two members
                    for t in (A.mul, imp_table, A.join) for a in members))


def _right_imp(A: FiniteMtlAlgebra, x: int, carrier: Subset) -> dict[int, bytes]:
    """The rows of a ~> b = mul(x, imp(a, b)) at the members a of the carrier."""
    by_x = bytes(A.mul[x]) + bytes(256 - A.n)  # a `translate` table
    return {a: bytes(A.imp[a]).translate(by_x) for a in carrier.members()}


def _side(A: FiniteMtlAlgebra, x: int, side: int) -> tuple:
    """The `_build` arguments of left_mult_algebra(A, x) (side 0) or of
    right_mult_algebra(A, x) (side 1); the carrier is x's one-point mask."""
    carrier = Subset._of(A, A._fixed_masks(("mult_left", "mult_right")[side])[x])
    if side:
        return A, carrier, A.bot, x, _right_imp(A, x, carrier)
    return A, carrier, x, A.top, A.imp


def left_mult_algebra(A: FiniteMtlAlgebra, x: int) -> InducedAlgebra:
    """The algebra on mult_left({x}) with bot = x, top = 1."""
    require_validated(A)
    _require_idempotent(A, x)
    return _build(*_side(A, x, 0))


def right_mult_algebra(A: FiniteMtlAlgebra, x: int) -> InducedAlgebra:
    """The algebra on mult_right({x}) with bot = 0, top = x and the
    implication a ~> b = mul(x, imp(a, b))."""
    require_validated(A)
    _require_idempotent(A, x)
    return _build(*_side(A, x, 1))


def order_iso_right(A: FiniteMtlAlgebra, x: int) -> dict[int, int]:
    """The order isomorphism mult_right({x}) -> impl_right({x}).

    Maps a to imp(x, a); the inverse is u to mul(x, u).  Both maps must land
    in the other stabilizer and both round trips must be the identity, which
    makes the map a bijection; x must be idempotent.  Order is not checked:
    residuation makes imp(x, -) and mul(x, -) monotone on every valid table,
    and the stabilizer masks do not touch the tables.
    """
    require_validated(A)
    _require_idempotent(A, x)
    source = mult_right(A, singleton(A, x))
    target = impl_right(A, singleton(A, x))
    g = {a: A.imp[x][a] for a in source.members()}

    def fail(reason: str):
        raise InternalConsistencyError(
            f"order isomorphism fails at x={A.labels[x]}: {reason}"
        )

    if any(v not in target for v in g.values()):
        fail("image leaves the right implicative stabilizer")
    if any(A.mul[x][u] not in source for u in target.members()):
        fail("inverse image leaves the right multiplicative stabilizer")
    for a in source.members():
        if A.mul[x][g[a]] != a:
            fail("inverse round trip g then mul-by-x is not the identity")
    for u in target.members():
        if A.imp[x][A.mul[x][u]] != u:
            fail("round trip mul-by-x then g is not the identity")
    return g


def mv_left_iso(A: FiniteMtlAlgebra, x: int) -> dict[int, int]:
    """Order isomorphism impl_left({x}) -> mult_right({x}) on MV algebras.

    Composes the left/right stabilizer equality available on MV algebras
    with the inverse of order_iso_right, which that function has shown to be
    a bijection (monotone by residuation); maps a to mul(x, a).
    """
    from .classify import is_mv

    require_validated(A)
    if not is_mv(A):
        raise NotMvError("left-to-right stabilizer isomorphism needs an MV algebra")
    _require_idempotent(A, x)
    left = impl_left(A, singleton(A, x))
    right = impl_right(A, singleton(A, x))
    if left != right:
        raise InternalConsistencyError(
            f"left and right implicative stabilizers differ at x={A.labels[x]}"
        )
    order_iso_right(A, x)
    return {a: A.mul[x][a] for a in left.members()}


def _order_profile(A: FiniteMtlAlgebra, x: int) -> tuple[int, int, bool]:
    return (_downsets(A)[x].bit_count(), _upsets(A)[x].bit_count(),
            A.mul[x][x] == x)


def check_mtl_iso(A: FiniteMtlAlgebra, B: FiniteMtlAlgebra) -> dict[int, int] | None:
    """An isomorphism A -> B preserving all four tables and the constants,
    or None.  Backtracking over order-profile-compatible bijections that
    send bot to bot and top to top; imp is the one table compared.

    A bijection phi that fixes top and preserves imp preserves the rest:
    the order, since x <= y exactly when imp(x, y) = top, and with it meet,
    join and bot; and mul, since mul(x, y) is the least z with
    x <= imp(y, z).  Once the sorted profiles agree, bot and top have equal
    profiles on both sides: bot is the only element whose downset has one
    member, and top the only one whose upset has one.
    """
    require_validated(A)
    require_validated(B)
    if A.n != B.n:
        return None
    pa = [_order_profile(A, x) for x in range(A.n)]
    pb = [_order_profile(B, x) for x in range(B.n)]
    if sorted(pa) != sorted(pb):
        return None

    ia, ib = A.imp, B.imp
    mapping: dict[int, int] = {A.bot: B.bot, A.top: B.top}
    used = {B.bot, B.top}
    rest = [x for x in range(A.n) if x not in (A.bot, A.top)]

    def consistent(x: int, y: int) -> bool:
        for u, v in mapping.items():
            for p, q, r, s in ((x, u, y, v), (u, x, v, y)):
                img = mapping.get(ia[p][q])
                if img is not None and img != ib[r][s]:
                    return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(rest):
            # Full check: the incremental test only sees pairs inside the map.
            return all(mapping[ia[x][y]] == ib[mapping[x]][mapping[y]]
                       for x in range(A.n) for y in range(A.n))
        x = rest[i]
        for y in range(B.n):
            if y in used or pb[y] != pa[x] or not consistent(x, y):
                continue
            mapping[x] = y
            used.add(y)
            if backtrack(i + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    return dict(sorted(mapping.items())) if backtrack(0) else None
