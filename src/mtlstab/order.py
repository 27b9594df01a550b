"""Filters, lattice ideals, generation, primality, the idempotent center,
and subalgebra testing.

A filter is a nonempty, mul-closed, upward-closed subset; a lattice ideal is
nonempty, join-closed and downward closed.  The improper filter (the full
carrier) counts as a filter; properness is a predicate, not a type.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product

from .core import (FiniteMtlAlgebra, InternalConsistencyError, _downsets, _upsets,
                   require_validated)
from .subsets import Subset, require_nonempty


class NotAProperFilterError(ValueError):
    pass


class NotALatticeIdealError(ValueError):
    pass


# One routine each for closure, closedness, generation and primality.  A
# filter is the (mul, upsets) case and a lattice ideal the (join, downsets)
# case: `table` is the operation the set must be closed under and `cones[x]`
# the mask of x's upset or downset.  Primality reads the dual lattice
# operation, join for filters and meet for ideals.

def _closure(A: FiniteMtlAlgebra, bits: int, cones) -> int:
    """The union of the cones of the members of `bits`."""
    out = 0
    for x in range(A.n):
        if bits >> x & 1:
            out |= cones[x]
    return out


def _is_closed(A: FiniteMtlAlgebra, S: Subset, table, cones) -> bool:
    """S is nonempty, closed under `table` and the union of its cones."""
    require_validated(A)
    if S.is_empty():
        return False
    for x, y in combinations_with_replacement(S.members(), 2):
        if table[x][y] not in S:
            return False
    return _closure(A, S.bits, cones) == S.bits


def _generated(A: FiniteMtlAlgebra, X: Subset, table, cones) -> Subset:
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


def _is_prime(A: FiniteMtlAlgebra, S: Subset, table) -> bool:
    """table(x, y) in S forces x or y in S."""
    for x in range(A.n):
        for y in range(x, A.n):
            if table[x][y] in S and x not in S and y not in S:
                return False
    return True


def is_filter(A: FiniteMtlAlgebra, F: Subset) -> bool:
    return _is_closed(A, F, A.mul, _upsets(A))


def is_proper_filter(A: FiniteMtlAlgebra, F: Subset) -> bool:
    return is_filter(A, F) and F.bits != (1 << A.n) - 1


def generated_filter(A: FiniteMtlAlgebra, X: Subset) -> Subset:
    """Least filter containing X."""
    return _generated(A, X, A.mul, _upsets(A))


def is_prime_filter(A: FiniteMtlAlgebra, F: Subset) -> bool:
    """Primality of a proper filter: join(x, y) in F forces x or y in F."""
    if not is_proper_filter(A, F):
        raise NotAProperFilterError("primality is defined for proper filters only")
    return _is_prime(A, F, A.join)


def all_filters(A: FiniteMtlAlgebra) -> list[Subset]:
    """Every filter, in ascending bit-pattern order.

    In a finite algebra each filter is the upset of its least element (the
    product of its members), which is idempotent, and the upset of each
    idempotent is mul-closed.  The improper filter is the upset of bot.
    """
    require_validated(A)
    upsets = _upsets(A)
    return [Subset(A, bits) for bits in sorted(upsets[e] for e in A.idempotents())]


def is_lattice_ideal(A: FiniteMtlAlgebra, I: Subset) -> bool:
    return _is_closed(A, I, A.join, _downsets(A))


def principal_ideal(A: FiniteMtlAlgebra, t: int) -> Subset:
    """The downset of t."""
    require_validated(A)
    return Subset(A, A.downset_mask(t))


def principal_filter(A: FiniteMtlAlgebra, t: int) -> Subset:
    """The upset of t."""
    require_validated(A)
    return Subset(A, A.upset_mask(t))


def generated_lattice_ideal(A: FiniteMtlAlgebra, H: Subset) -> Subset:
    """Least join-closed downset containing H."""
    return _generated(A, H, A.join, _downsets(A))


def is_prime_lattice_ideal(A: FiniteMtlAlgebra, I: Subset) -> bool:
    """Primality of a lattice ideal: meet(x, y) in I forces x or y in I."""
    if not is_lattice_ideal(A, I):
        raise NotALatticeIdealError("argument is not a lattice ideal")
    return _is_prime(A, I, A.meet)


def godel_center(A: FiniteMtlAlgebra) -> Subset:
    """The idempotent elements of mul.

    Each member e must also satisfy
    ``e * (x -> y) == e * ((e * x) -> (e * y))`` for all x, y; that identity
    is a consequence of the axioms, so a failure means the algebra value was
    corrupted after validation.
    """
    require_validated(A)
    for e, x, y in product(A.idempotents(), range(A.n), range(A.n)):
        if not _center_identity(A, e, x, y):
            raise InternalConsistencyError(
                f"center identity fails at e={A.labels[e]},"
                f" x={A.labels[x]}, y={A.labels[y]}"
            )
    return Subset(A, sum(1 << e for e in A.idempotents()))


def _center_identity(A: FiniteMtlAlgebra, e: int, x: int, y: int) -> bool:
    """e * (x -> y) == e * ((e * x) -> (e * y)); P2.4.2 reads it too."""
    return A.mul[e][A.imp[x][y]] == A.mul[e][A.imp[A.mul[e][x]][A.mul[e][y]]]


_SUBALG_OPS = ("mul", "imp", "meet", "join")


def _first_escape(A: FiniteMtlAlgebra, S: Subset, ops: tuple[str, ...]):
    """(op-name, x, y, result) for the first x, y in S, lexicographically,
    and op in `ops`, in the order given, whose result leaves S; or None."""
    tables = [(name, getattr(A, name)) for name in ops]
    members = S.members()
    for x in members:
        for y in members:
            for name, table in tables:
                r = table[x][y]
                if r not in S:
                    return (name, x, y, r)
    return None


def subalgebra_violation(A: FiniteMtlAlgebra, S: Subset):
    """First reason S is not a subalgebra, or None.

    Returns ("missing", element) when bot or top is absent, otherwise
    (op-name, x, y, result) for the first non-closed pair in lexicographic
    scan order with operations tried as mul, imp, meet, join.
    """
    require_validated(A)
    if A.bot not in S:
        return ("missing", A.bot)
    if A.top not in S:
        return ("missing", A.top)
    return _first_escape(A, S, _SUBALG_OPS)


def is_subalgebra(A: FiniteMtlAlgebra, S: Subset) -> bool:
    """True iff S contains bot and top and is closed under all four tables."""
    return subalgebra_violation(A, S) is None
