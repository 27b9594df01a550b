"""Filters, lattice ideals, generation, primality, the idempotent set,
and subalgebra testing.

A filter is a nonempty, mul-closed, upward-closed subset; a lattice ideal is
nonempty, join-closed and downward closed.  The improper filter (the full
carrier) counts as a filter; properness is a predicate, not a type.
"""

from __future__ import annotations

from itertools import product

from .core import (FiniteMtlAlgebra, _downsets, _require_element, _upsets,
                   require_validated)
from .subsets import Subset, _require_own, require_nonempty


class NotAProperFilterError(ValueError):
    pass


class NotALatticeIdealError(ValueError):
    pass


# One routine each for closedness, generation and primality.  A filter is
# the (mul, upsets) case and a lattice ideal the (join, downsets) case:
# `table` is the operation the set must be closed under and `cones[x]` the
# mask of x's upset or downset.
#
# In a finite algebra each such set is the cone of one element, found by
# `_least`.  The product p of the members of X lies below each of them, and
# so do its powers; these descend to an idempotent e.  Every filter holding
# X holds p and its powers, hence e, and the upset of an idempotent is
# mul-closed, so the upset of e is the least filter holding X.  Join is
# idempotent, so the least lattice ideal holding X is the downset of the
# join of its members.  A set is closed exactly when it is the cone of its
# own `_least`; the improper filter is the upset of bot.
#
# Primality reads the complement through the dual lattice operation, join
# for filters and meet for ideals: a proper filter is prime exactly when its
# complement is a lattice ideal, and a lattice ideal is prime exactly when
# its complement is empty or a meet-closed upset.

def _least(A: FiniteMtlAlgebra, bits: int, table) -> int:
    """`table` folded over the nonempty `bits`, then squared until idempotent."""
    members = [x for x in range(A.n) if bits >> x & 1]
    e = members[0]
    for x in members[1:]:
        e = table[e][x]
    while table[e][e] != e:
        e = table[e][e]
    return e


def _is_closed(A: FiniteMtlAlgebra, S: Subset, table, cones) -> bool:
    """S is nonempty and the cone of its `_least` element."""
    _require_own(A, S)
    return not S.is_empty() and cones[_least(A, S.bits, table)] == S.bits


def _generated(A: FiniteMtlAlgebra, X: Subset, table, cones) -> Subset:
    """The least superset of X closed under `table` and cones."""
    _require_own(A, X)
    require_nonempty(X)
    return Subset._of(A, cones[_least(A, X.bits, table)])


def _is_prime(A: FiniteMtlAlgebra, S: Subset, dual_table, dual_cones) -> bool:
    """The complement of S is empty or closed under `dual_table` and
    `dual_cones`."""
    rest = ~S.bits & (1 << A.n) - 1
    return not rest or dual_cones[_least(A, rest, dual_table)] == rest


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
    return _is_prime(A, F, A.join, _downsets(A))


def all_filters(A: FiniteMtlAlgebra) -> list[Subset]:
    """Every filter, in ascending bit-pattern order: the upsets of the
    idempotents (see the comment above `_least`)."""
    require_validated(A)
    upsets = _upsets(A)
    return [Subset._of(A, bits) for bits in sorted(upsets[e] for e in A.idempotents())]


def is_lattice_ideal(A: FiniteMtlAlgebra, I: Subset) -> bool:
    return _is_closed(A, I, A.join, _downsets(A))


def principal_ideal(A: FiniteMtlAlgebra, t: int) -> Subset:
    """The downset of t."""
    require_validated(A)
    return Subset._of(A, _downsets(A)[_require_element(A, t)])


def principal_filter(A: FiniteMtlAlgebra, t: int) -> Subset:
    """The upset of t."""
    require_validated(A)
    return Subset._of(A, _upsets(A)[_require_element(A, t)])


def generated_lattice_ideal(A: FiniteMtlAlgebra, H: Subset) -> Subset:
    """Least join-closed downset containing H."""
    return _generated(A, H, A.join, _downsets(A))


def is_prime_lattice_ideal(A: FiniteMtlAlgebra, I: Subset) -> bool:
    """Primality of a lattice ideal: meet(x, y) in I forces x or y in I."""
    if not is_lattice_ideal(A, I):
        raise NotALatticeIdealError("argument is not a lattice ideal")
    return _is_prime(A, I, A.meet, _upsets(A))


def godel_center(A: FiniteMtlAlgebra) -> Subset:
    """The idempotent elements of mul.  Claim P2.4.2 checks that each one
    satisfies ``e * (x -> y) == e * ((e * x) -> (e * y))``."""
    require_validated(A)
    return Subset._of(A, sum(1 << e for e in A.idempotents()))


_SUBALG_OPS = ("mul", "imp", "meet", "join")


def _first_escape(S: Subset, tables):
    """(name, x, y, result) for the first x, y in S, lexicographically, and
    (name, table) in `tables`, in order, whose result leaves S; or None."""
    bits = S.bits
    for x, y in product(S.members(), repeat=2):
        for name, table in tables:
            if not bits >> table[x][y] & 1:
                return (name, x, y, table[x][y])
    return None


def subalgebra_violation(A: FiniteMtlAlgebra, S: Subset):
    """First reason S is not a subalgebra, or None.

    Returns ("missing", element) when bot or top is absent, otherwise
    (op-name, x, y, result) for the first non-closed pair in lexicographic
    scan order with operations tried as mul, imp, meet, join.
    """
    _require_own(A, S)
    if A.bot not in S:
        return ("missing", A.bot)
    if A.top not in S:
        return ("missing", A.top)
    return _first_escape(S, [(op, getattr(A, op)) for op in _SUBALG_OPS])


def is_subalgebra(A: FiniteMtlAlgebra, S: Subset) -> bool:
    """True iff S contains bot and top and is closed under all four tables."""
    return subalgebra_violation(A, S) is None
