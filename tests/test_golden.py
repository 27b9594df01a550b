"""Golden `--format machine` reports: the behaviour contract, byte for byte.

Each case runs the CLI in-process and compares stdout with a file under
`tests/golden/`.  To re-record after a deliberate, documented change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mtlstab.cli import cli_main
from mtlstab.fixtures import FIXTURE_NAMES, fixture_text, load_fixture

GOLDEN = Path(__file__).parent / "golden"
FAMILIES = ("lukasiewicz", "godel", "nilpotent_minimum")
FAMILY_SIZE = 9      # the smallest carrier whose int sets iterate unsorted
ENUM_SIZES = (2, 3, 4, 5)


def _cases() -> list[tuple[str, tuple]]:
    """(golden file name, how to produce the input) pairs."""
    cases = []
    for name in FIXTURE_NAMES:
        cases.append((f"{name}.verify.txt", ("verify", "fixture", name)))
        cases.append((f"{name}.classify.txt", ("classify", "fixture", name)))
        for label in load_fixture(name).labels:
            cases.append((f"{name}.stab-{label}.txt",
                          ("stab", "fixture", name, label)))
    for family in FAMILIES:
        cases.append((f"{family}{FAMILY_SIZE}.verify.txt",
                      ("verify", "family", family)))
    for size in ENUM_SIZES:
        cases.append((f"enumerate-{size}.txt", ("enumerate", size)))
    return cases


def _machine_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli_main(argv + ["--format", "machine"])
    return out.getvalue()


def _render(case: tuple, workdir: Path) -> str:
    command = case[0]
    if command == "enumerate":
        return _machine_stdout(["enumerate", "--size", str(case[1])])
    kind, name = case[1], case[2]
    path = workdir / f"{name}.alg"
    if kind == "fixture":
        path.write_text(fixture_text(name))
    else:
        _machine_stdout(["gen", "--family", name, "--size", str(FAMILY_SIZE),
                         "--out", str(path)])
    argv = [command, str(path)]
    if command == "stab":
        argv += ["--set", case[3]]
    return _machine_stdout(argv)


CASES = _cases()


@pytest.mark.parametrize("filename,case", CASES, ids=[c[0] for c in CASES])
def test_machine_report_matches_golden(filename, case, tmp_path):
    expected = (GOLDEN / filename).read_text(encoding="utf-8")
    assert _render(case, tmp_path) == expected


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for filename, case in CASES:
            text = _render(case, Path(tmp))
            (GOLDEN / filename).write_text(text, encoding="utf-8")
            print(filename, file=sys.stderr)


if __name__ == "__main__":
    _record()
