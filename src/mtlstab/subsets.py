"""Subsets of an algebra's carrier as single-word bit vectors.

Every stabilizer and filter operation consumes and produces these.  A subset
is value-typed to the algebra it was built from; mixing subsets of different
algebra objects is a programming error and is rejected at the boundary.

`Subset(A, bits)` and the helpers below check that A is validated and the
bits lie in its carrier.  The unchecked `Subset._of` is the library's alone,
for values it derives from checked ones: operator results, `&`, `|`,
filters and claim-scan domains.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import (EMPTY_SET_SYMBOL, FiniteMtlAlgebra, SubsetError,
                   _require_element, require_validated)


class EmptySubsetError(SubsetError):
    """Raised where an operation is defined only for nonempty inputs."""


class Subset:
    __slots__ = ("algebra", "bits")

    def __new__(cls, algebra: FiniteMtlAlgebra, bits: int) -> "Subset":
        require_validated(algebra)
        if bits < 0 or bits >> algebra.n:
            raise SubsetError(f"bit pattern {bits:#x} exceeds carrier size")
        return Subset._of(algebra, bits)

    @staticmethod
    def _of(algebra: FiniteMtlAlgebra, bits: int) -> "Subset":
        self = _new(Subset)
        _set_algebra(self, algebra)
        _set_bits(self, bits)
        return self

    def __setattr__(self, name, *value):
        raise AttributeError(f"Subset is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through the checks
        return Subset, (self.algebra, self.bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subset):
            return NotImplemented
        return self.algebra is other.algebra and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.bits))

    def __contains__(self, x: int) -> bool:
        return x >= 0 and bool(self.bits >> x & 1)  # no bit is set from n on

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __and__(self, other: "Subset") -> "Subset":
        _require_own(self.algebra, other)
        return Subset._of(self.algebra, self.bits & other.bits)

    def __or__(self, other: "Subset") -> "Subset":
        _require_own(self.algebra, other)
        return Subset._of(self.algebra, self.bits | other.bits)

    def issubset(self, other: "Subset") -> bool:
        _require_own(self.algebra, other)
        return self.bits & ~other.bits == 0

    def is_empty(self) -> bool:
        return self.bits == 0

    def members(self) -> tuple[int, ...]:
        out, rest = [], self.bits
        while rest:
            low = rest & -rest
            out.append(low.bit_length() - 1)
            rest ^= low
        return tuple(out)

    def render(self) -> str:
        """Comma-joined labels in carrier order; the empty set renders as ∅."""
        if self.bits == 0:
            return EMPTY_SET_SYMBOL
        return ",".join(self.algebra.labels[x] for x in self.members())

    def __repr__(self) -> str:
        return f"Subset({{{self.render()}}})"


_new, _set_algebra, _set_bits = object.__new__, Subset.algebra.__set__, Subset.bits.__set__


def empty(A: FiniteMtlAlgebra) -> Subset:
    return Subset(A, 0)


def full(A: FiniteMtlAlgebra) -> Subset:
    return Subset(A, (1 << A.n) - 1)


def singleton(A: FiniteMtlAlgebra, x: int) -> Subset:
    return Subset(A, 1 << _require_element(A, x))


def from_elements(A: FiniteMtlAlgebra, xs: Iterable[int]) -> Subset:
    bits = 0
    for x in xs:
        bits |= 1 << _require_element(A, x)
    return Subset(A, bits)


def from_labels(A: FiniteMtlAlgebra, labels: Iterable[str] | str) -> Subset:
    if isinstance(labels, str):
        labels = [tok for tok in labels.split(",") if tok]
    return from_elements(A, (A.index(lbl) for lbl in labels))


def _require_own(A: FiniteMtlAlgebra, X: Subset) -> None:
    """A is validated and X is one of its subsets."""
    require_validated(A)
    if X.algebra is not A:
        raise SubsetError("subsets belong to different algebras")


def require_nonempty(X: Subset) -> Subset:
    if X.bits == 0:
        raise EmptySubsetError("operation is defined only for nonempty subsets")
    return X


def all_nonempty_subsets(A: FiniteMtlAlgebra) -> Iterator[Subset]:
    """All nonempty subsets in ascending bit-pattern order."""
    for bits in range(1, 1 << A.n):
        yield Subset(A, bits)
