"""Algebra subclasses, decided both directly and through stabilizers.

The direct predicates test the defining identity on the tables.  classify()
also evaluates the stabilizer-based characterizations of the same classes
and cross-checks the two routes; a disagreement would refute the theorem
backing the characterization and is reported as a failure record.
"""

from __future__ import annotations

from itertools import product

from .core import FiniteMtlAlgebra, _downsets, _upsets, require_validated
from .order import is_prime_filter, is_prime_lattice_ideal, is_proper_filter
from .report import Report
from .stabilizers import impl_left, impl_stab, ortho
from .subsets import Subset, singleton


def is_bl(A: FiniteMtlAlgebra) -> bool:
    """Divisibility: meet(x, y) == mul(x, imp(x, y)) for all pairs."""
    require_validated(A)
    return all(
        A.meet[x][y] == A.mul[x][A.imp[x][y]]
        for x, y in product(range(A.n), repeat=2)
    )


def is_mv(A: FiniteMtlAlgebra) -> bool:
    """imp(imp(x, y), y) == imp(imp(y, x), x) for all pairs."""
    require_validated(A)
    return all(
        A.imp[A.imp[x][y]][y] == A.imp[A.imp[y][x]][x]
        for x, y in product(range(A.n), repeat=2)
    )


def is_godel(A: FiniteMtlAlgebra) -> bool:
    """mul coincides with meet."""
    require_validated(A)
    return A.mul == A.meet


def is_imtl(A: FiniteMtlAlgebra) -> bool:
    """Involutive negation: neg(neg(x)) == x for every element."""
    require_validated(A)
    b = A.bot
    return all(A.imp[A.imp[x][b]][b] == x for x in range(A.n))


def is_integral_mtl(A: FiniteMtlAlgebra) -> bool:
    """No zero divisors: mul(x, y) == bot only when x or y is bot."""
    require_validated(A)
    return all(
        A.mul[x][y] != A.bot
        for x, y in product(range(A.n), repeat=2)
        if x != A.bot and y != A.bot
    )


def is_chain(A: FiniteMtlAlgebra) -> bool:
    """The lattice order is total."""
    require_validated(A)
    return all(
        A.meet[x][y] in (x, y)
        for x, y in product(range(A.n), repeat=2)
    )


def imtl_by_stabilizers(A: FiniteMtlAlgebra) -> bool:
    """Stabilizer route: left, two-sided and join stabilizers of bot agree."""
    zero = singleton(A, A.bot)
    l0 = impl_left(A, zero)
    return l0 == impl_stab(A, zero) == ortho(A, zero)


def integral_by_stabilizers(A: FiniteMtlAlgebra) -> bool:
    """Stabilizer route: left stabilizer of bot is everything except bot."""
    return impl_left(A, singleton(A, A.bot)).bits == (1 << A.n) - 1 ^ 1 << A.bot


def godel_by_left_stabilizers(A: FiniteMtlAlgebra) -> bool:
    """For every x the left mul stabilizer of {x} is the upset of x."""
    require_validated(A)
    return A._fixed_masks("mult_left") == _upsets(A)


def godel_by_right_stabilizers(A: FiniteMtlAlgebra) -> bool:
    """For every x the right mul stabilizer of {x} is the downset of x."""
    require_validated(A)
    return A._fixed_masks("mult_right") == _downsets(A)


def _left_stabilizers_prime(A: FiniteMtlAlgebra) -> bool:
    """Each proper one-point left mul stabilizer is a prime filter."""
    stabs = (Subset._of(A, bits) for bits in A._fixed_masks("mult_left"))
    return all(is_prime_filter(A, F) for F in stabs if is_proper_filter(A, F))


def _right_stabilizers_prime(A: FiniteMtlAlgebra) -> bool:
    """Each one-point right mul stabilizer is a prime lattice ideal.  Read
    only once they are known to be downsets, which are lattice ideals."""
    return all(is_prime_lattice_ideal(A, Subset._of(A, bits))
               for bits in A._fixed_masks("mult_right"))


def _godel_chain_left(A: FiniteMtlAlgebra) -> bool:
    """Left stabilizers are upsets, and each proper one is a prime filter."""
    return godel_by_left_stabilizers(A) and _left_stabilizers_prime(A)


def _godel_chain_right(A: FiniteMtlAlgebra) -> bool:
    """Right stabilizers are downsets, and each is a prime lattice ideal."""
    return godel_by_right_stabilizers(A) and _right_stabilizers_prime(A)


def godel_chain_by_stabilizers(A: FiniteMtlAlgebra) -> bool:
    """Upset/downset equalities plus primality of every one-point stabilizer."""
    return _godel_chain_left(A) and _godel_chain_right(A)


_DIRECT = (
    ("bl", is_bl), ("mv", is_mv), ("godel", is_godel),
    ("imtl", is_imtl), ("integral", is_integral_mtl), ("chain", is_chain),
)

_ROUTES = (
    # report key, stabilizer route, direct key it must match, claim refuted
    ("imtl-stabilizer", imtl_by_stabilizers, "imtl", "T3.10-imtl"),
    ("integral-stabilizer", integral_by_stabilizers, "integral", "T3.11-integral"),
    ("godel-left-stabilizer", godel_by_left_stabilizers, "godel", "T4.9-godel"),
    ("godel-right-stabilizer", godel_by_right_stabilizers, "godel", "T4.9-godel"),
)


def classify(A: FiniteMtlAlgebra) -> Report:
    """Class records and cross-checks; each predicate and route runs once."""
    require_validated(A)
    report = Report()
    report.add("class", "mtl", "true")
    direct = {key: pred(A) for key, pred in _DIRECT}
    for key, value in direct.items():
        report.add("class", key, str(value).lower())

    routes = {key: route(A) for key, route, _, _ in _ROUTES}
    routes["godel-chain-stabilizer"] = (
        routes["godel-left-stabilizer"] and _left_stabilizers_prime(A)
        and routes["godel-right-stabilizer"] and _right_stabilizers_prime(A))
    for key, value in routes.items():
        report.add("class", key, str(value).lower())
    report.add("class", "left-stab-of-bot",
               impl_left(A, singleton(A, A.bot)).render())

    for key, route, direct_key, claim in _ROUTES:
        if direct[direct_key] != routes[key]:
            report.add_failure(
                "refutation", claim,
                f"direct {direct_key} predicate disagrees with {route.__name__}",
            )
    direct_chain_godel = direct["godel"] and direct["chain"]
    if direct_chain_godel != routes["godel-chain-stabilizer"]:
        report.add_failure(
            "refutation", "T4.10-godel-chain",
            "direct chain+godel predicate disagrees with stabilizer route",
        )
    return report
