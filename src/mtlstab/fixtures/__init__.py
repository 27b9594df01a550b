"""Bundled algebra fixtures used throughout the tests and demos."""

from __future__ import annotations

from importlib import resources

from ..algfile import parse_algebra_file
from ..core import FiniteMtlAlgebra, validate

FIXTURE_NAMES = ("a4", "a5", "b4", "c5", "g6", "i6", "m6", "n5")


def fixture_text(name: str) -> str:
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; have {', '.join(FIXTURE_NAMES)}")
    return resources.files(__package__).joinpath(f"{name}.alg").read_text()


def load_fixture_raw(name: str) -> FiniteMtlAlgebra:
    """Parse a fixture without validating it."""
    return parse_algebra_file(fixture_text(name))


def load_fixture(name: str) -> FiniteMtlAlgebra:
    """Parse and validate a fixture; raises if its tables break an axiom."""
    A = load_fixture_raw(name)
    report = validate(A)
    if not report.valid:
        first = report.violations[0]
        raise ValueError(f"fixture {name} fails validation: {first}")
    return A


def load_all_fixtures() -> dict[str, FiniteMtlAlgebra]:
    return {name: load_fixture(name) for name in FIXTURE_NAMES}
