"""The six stabilizer operators and the join co-annihilator.

For a nonempty subset X:

    impl_left(X)   = {a | imp(a, x) == x for all x in X}
    impl_right(X)  = {a | imp(x, a) == a for all x in X}
    impl_stab(X)   = impl_left(X) & impl_right(X)
    mult_left(X)   = {a | mul(a, x) == x for all x in X}
    mult_right(X)  = {a | mul(x, a) == a for all x in X}
    mult_stab(X)   = mult_left(X) & mult_right(X)
    ortho(X)       = {a | join(a, x) == top for all x in X}

The universal quantifier is applied verbatim (intersection over the members
of X).  Empty X is rejected everywhere: empty results are legal, empty
inputs are not.

Each one-sided operator ANDs the one-point masks of X's members, built once
per algebra from the table (`core._MASKS`) and cached on it under the
operator's name; values are not kept.  `_intersect` checks its input once,
a nonempty X of a validated A, and builds its value with the unchecked
`Subset._of`.
"""

from __future__ import annotations

from .core import FiniteMtlAlgebra
from .subsets import Subset, _require_own, require_nonempty


def _intersect(A: FiniteMtlAlgebra, X: Subset, key: str) -> Subset:
    """The intersection of the one-point masks cached under `key` over X."""
    _require_own(A, X)
    require_nonempty(X)
    masks, rest = A._fixed_masks(key), X.bits
    if not rest & rest - 1:  # a singleton's value is its mask
        return Subset._of(A, masks[rest.bit_length() - 1])
    bits = (1 << A.n) - 1
    while rest:
        low = rest & -rest
        bits &= masks[low.bit_length() - 1]
        rest ^= low
    return Subset._of(A, bits)


def impl_left(A: FiniteMtlAlgebra, X: Subset) -> Subset:
    return _intersect(A, X, "impl_left")


def impl_right(A: FiniteMtlAlgebra, X: Subset) -> Subset:
    return _intersect(A, X, "impl_right")


def impl_stab(A: FiniteMtlAlgebra, X: Subset) -> Subset:
    return impl_left(A, X) & impl_right(A, X)


def ortho(A: FiniteMtlAlgebra, X: Subset) -> Subset:
    return _intersect(A, X, "ortho")


def mult_left(A: FiniteMtlAlgebra, X: Subset) -> Subset:
    return _intersect(A, X, "mult_left")


def mult_right(A: FiniteMtlAlgebra, X: Subset) -> Subset:
    return _intersect(A, X, "mult_right")


def mult_stab(A: FiniteMtlAlgebra, X: Subset) -> Subset:
    return mult_left(A, X) & mult_right(A, X)


SUITE_ORDER = (
    ("impl_left", impl_left),
    ("impl_right", impl_right),
    ("impl_stab", impl_stab),
    ("ortho", ortho),
    ("mult_left", mult_left),
    ("mult_right", mult_right),
    ("mult_stab", mult_stab),
)


def stabilizer_suite(A: FiniteMtlAlgebra, X: Subset):
    """All seven sets for one X, as labelled report records."""
    from .report import Report

    require_nonempty(X)
    report = Report()
    report.add("stab", "set", X.render())
    for name, op in SUITE_ORDER:
        report.add("stab", name, op(A, X).render())
    return report
