"""Golden `--format machine` reports: the behaviour contract, byte for byte.

Each case runs the CLI in-process and compares stdout with a file under
`tests/golden/`.  The `search-*` and `*.search-3.txt` cases pin the
open-problem scans over `enumerate_all` and on the 9-element family chains.  The `*.diagnostic.txt` cases are files that `validate`
refuses while deriving or checking the lattice: their golden holds the exit
code and stderr, with the file's directory left out.  To re-record after a
deliberate, documented change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path

import pytest

from mtlstab.cli import cli_main
from mtlstab.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from mtlstab.search import (canonical_form, enumerate_all, enumerate_chains,
                            gen_family)

GOLDEN = Path(__file__).parent / "golden"
FAMILIES = ("lukasiewicz", "godel", "nilpotent_minimum")
FAMILY_SIZE = 9      # the smallest carrier whose int sets iterate unsorted
ENUM_SIZES = (2, 3, 4, 5)
SEARCH_SIZES = (4, 5)

# Orders that fail one lattice check each, as (labels, pairs added to and
# pairs removed from x <= x, 0 <= x <= 1).  The first label is bot and the
# last top.  The bowtie (a, b below both c and d) lacks a join of a and b
# and a meet of c and d; its carrier order decides which pair fails first.
LATTICE_DIAGNOSTICS = {
    "non-reflexive": ("0 a 1", "", "a<=a"),
    "non-antisymmetric": ("0 a b 1", "a<=b b<=a", ""),
    "non-transitive": ("0 a b c 1", "a<=b b<=c", ""),
    "outside-bounds": ("0 a 1", "", "a<=1"),
    "bowtie-no-meet": ("0 c d a b 1", "a<=c a<=d b<=c b<=d", ""),
    "bowtie-no-join": ("0 a b c d 1", "a<=c a<=d b<=c b<=d", ""),
    "declared-mismatch": ("0 a b 1", "", ""),
}


def _order_file(name: str) -> str:
    """An algebra file whose imp-order is LATTICE_DIAGNOSTICS[name]; the
    mismatch case declares the chain lattice over the same carrier."""
    labels, added, removed = LATTICE_DIAGNOSTICS[name]
    labels = labels.split()
    bot, top = labels[0], labels[-1]
    order = {(x, x) for x in labels} | {(bot, x) for x in labels} \
        | {(x, top) for x in labels}
    order |= {tuple(p.split("<=")) for p in added.split()}
    order -= {tuple(p.split("<=")) for p in removed.split()}
    imp = [" ".join(top if (x, y) in order else bot for y in labels)
           for x in labels]
    lines = [f"algebra {name}", f"size {len(labels)}",
             "labels " + " ".join(labels), f"bot {bot}", f"top {top}", "mul"]
    lines += [" ".join(bot for _ in labels)] * len(labels)
    lines += ["imp"] + imp
    if name == "declared-mismatch":
        for keyword, pick in (("meet", min), ("join", max)):
            lines.append(keyword)
            lines += [" ".join(labels[pick(i, j)] for j in range(len(labels)))
                      for i in range(len(labels))]
    return "\n".join(lines + ["end"]) + "\n"


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
        cases.append((f"{family}{FAMILY_SIZE}.search-3.txt",
                      ("search", "family", family, "3")))
    for size in ENUM_SIZES:
        cases.append((f"enumerate-{size}.txt", ("enumerate", size)))
    for problem in ("1", "2", "3"):
        for size in SEARCH_SIZES:
            cases.append((f"search-{problem}-size{size}.txt",
                          ("search", "size", str(size), problem)))
    for name in LATTICE_DIAGNOSTICS:
        cases.append((f"{name}.diagnostic.txt", ("validate", "diagnostic", name)))
    return cases


def _machine_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli_main(argv + ["--format", "machine"])
    return out.getvalue()


def _diagnostic(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv + ["--format", "machine"])
    assert out.getvalue() == ""
    return f"exit {code}\n{err.getvalue()}"


def _render(case: tuple, workdir: Path) -> str:
    command = case[0]
    if command == "enumerate":
        return _machine_stdout(["enumerate", "--size", str(case[1])])
    kind, name = case[1], case[2]
    if kind == "size":
        return _machine_stdout(["search", "--problem", case[3],
                                "--size", name])
    path = workdir / f"{name}.alg"
    if kind == "diagnostic":
        path.write_text(_order_file(name))
        return _diagnostic(["validate", str(path)]).replace(str(path), path.name)
    if kind == "fixture":
        path.write_text(fixture_text(name))
    else:
        _machine_stdout(["gen", "--family", name, "--size", str(FAMILY_SIZE),
                         "--out", str(path)])
    argv = [command, str(path)]
    if command == "stab":
        argv += ["--set", case[3]]
    elif command == "search":
        argv = [command, "--problem", case[3], "--file", str(path)]
    return _machine_stdout(argv)


CASES = _cases()


@pytest.mark.parametrize("filename,case", CASES, ids=[c[0] for c in CASES])
def test_machine_report_matches_golden(filename, case, tmp_path):
    expected = (GOLDEN / filename).read_text(encoding="utf-8")
    assert _render(case, tmp_path) == expected


# SHA-256 of the `enumerate --chains --size k --out F --format machine`
# report and of the corpus file F, recorded while chains still came from the
# lattice search on the n-chain.  The chain engine may change; these bytes
# may not.
CHAIN_DIGESTS = {
    2: ("70c3932d2668391ff09c342132dcf0d1bd97c94e9fdb83786dcaa09008d6f635",
        "b7aaa6bdee527f5f93b6b1d04784371e3e0776b8529a1320bbcab3fa8e00aafd"),
    3: ("1860139d378d6e8e87263be4cc8ee82fb41bb264df3a91eee0ea0c2669e7f640",
        "da567b3c139da500f4db2741cfd8c878286c6f7d45d8aaffa1c885c7eda41a89"),
    4: ("b6b2cc8e7c1524b6653557945c79e790c3125ae55086b9f2a2f59b3e65dc3a1d",
        "144cbf063c95b6e58c74e18e4bd4f8ea6c47da5c3f3d53666041ca817534a6ff"),
    5: ("a2aa5d6129874fadd781283abd8105d807f718d1f6808c706babf4c63afa1455",
        "1862fa950f2a3a6a83292822d7b5ff87b1c1a825e8a5be9c08d5e3b102201c66"),
    6: ("0083710bed1a8daffbd0c71f4eeb46f7339c04b61243047bbee26f555b21c4e0",
        "ca42b7e2f5cf79cbd462414f15a511f98aa8e9261f67be6acd08e0aa01877856"),
    7: ("857b27c56a3b08900a2ca1cae104a71b435a873cca52c1258f22cdf0e32a362f",
        "1d8a2b895b910fe527c5292215d9607a74aeb396ff7917350d2348092a13122a"),
}


@pytest.mark.parametrize("size", sorted(CHAIN_DIGESTS))
def test_chain_enumeration_bytes_are_pinned(size, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report names the --out path
    report = _machine_stdout(["enumerate", "--chains", "--size", str(size),
                              "--out", "F"])
    got = (sha256(report.encode("utf-8")).hexdigest(),
           sha256(Path("F").read_bytes()).hexdigest())
    assert got == CHAIN_DIGESTS[size]


# SHA-256 of the `enumerate --size k --out F --format machine` report and
# of the corpus file F, and of `enumerate_all(6)` with and without dedup,
# recorded before the table search skipped the non-distributive lattices
# and checked associativity row by row.  A class keeps the first table
# found as its representative, so these catch any change in the order of
# lattices or of the search.
ENUM_DIGESTS = {
    2: ("48067dab91dbc5af95e14ce3414ce991a9cfad78f5d37e5f43e9d1b63b78c158",
        "750dfa840c19dd5197fa9fc1dc23243428213aaafb1fa4ebac342888dafe2d1e"),
    3: ("f617849cba7b2ae3fd568ac5e10d27b6e200b5975025858fa5facfce8556c74a",
        "97f10be8ca28f7803bc3be9683f64943725c16bf757ed87c80ca05d8e8a99f26"),
    4: ("303be08c2ee59a4f9ef4729d48520ca10afb970a8cfbb2190f09d10a80b19b59",
        "e42c57f73bd8ae2504991d08cd83f108b77d905d725f75c2b370fd9525210ccc"),
    5: ("927a9accc33345e66ddebcdb41831ebb2287aa95612da7f2d98fadbe987eda72",
        "4454d0d4ca74b54231c25bc85c8f2c793e27d4465f37509e562b27a7ec3c5b9d"),
}
ENUM6_DIGESTS = {
    True: (99, "9cf6abf235c27a3bbc86e50a5ce14f9ebc706c0affd519d0e2123a861f2c786b"),
    False: (108, "63a87c80c43d84539f47740833f89f1a586ac179e71dc526762956e6a9f7592b"),
}


@pytest.mark.parametrize("size", sorted(ENUM_DIGESTS))
def test_full_enumeration_bytes_are_pinned(size, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report names the --out path
    report = _machine_stdout(["enumerate", "--size", str(size), "--out", "F"])
    got = (sha256(report.encode("utf-8")).hexdigest(),
           sha256(Path("F").read_bytes()).hexdigest())
    assert got == ENUM_DIGESTS[size]


@pytest.mark.parametrize("dedup", [True, False])
def test_enumerate_all_6_is_pinned(dedup):
    # names, labels, bot, top, mul and imp of every algebra, in order
    algebras = enumerate_all(6, allow_large=True, dedup=dedup)
    digest = sha256()
    for A in algebras:
        digest.update(repr((A.name, A.labels, A.bot, A.top, A.mul, A.imp)).encode())
    assert (len(algebras), digest.hexdigest()) == ENUM6_DIGESTS[dedup]


# SHA-256 of the canonical forms, concatenated in order, of the chains of 8,
# of every table of `enumerate_all(6)` and of the family chains of 2..10
# elements, recorded before canonical_form gathered columns by `translate`.
# The report digests above stop at 7 elements; these pin the longest rows.
FORM_DIGESTS = {
    "chains8": (2386, "bdf3d78306e7cea66e82647b222f30bf8e9fd848bd5b21b202110a310f3ba9ff"),
    "all6": (108, "dd45bd5274de21990e6e04ca541f0d3d5f58a44de377ca45e53fd51dcf2ff0e5"),
    "families": (27, "11e61764747c786dd0a2f4f257430aaa8ae62b590cbdbc0d5e05748953d84f07"),
}
FORM_CORPORA = {
    "chains8": lambda: enumerate_chains(8),
    "all6": lambda: enumerate_all(6, allow_large=True, dedup=False),
    "families": lambda: [gen_family(f, n) for f in FAMILIES for n in range(2, 11)],
}


@pytest.mark.parametrize("corpus", sorted(FORM_DIGESTS))
def test_canonical_forms_are_pinned(corpus):
    algebras = FORM_CORPORA[corpus]()
    digest = sha256()
    for A in algebras:
        digest.update(canonical_form(A))
    assert (len(algebras), digest.hexdigest()) == FORM_DIGESTS[corpus]


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for filename, case in CASES:
            text = _render(case, Path(tmp))
            (GOLDEN / filename).write_text(text, encoding="utf-8")
            print(filename, file=sys.stderr)


if __name__ == "__main__":
    _record()
