"""Inputs, jobs and reference summaries for each benchmark workload.

A workload is the list of jobs that make up one pass.  A job calls a public
entry point of mtlstab in-process (the CLI's `cli_main` with captured
stdout, or a library function where the CLI refuses a size) and returns its
work units and raw output.  `summarize` reduces that output to the part that
does not depend on how the seed relabelled the carrier; the benchmark
compares it with `references.json`, recorded by `record_references.py`.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

WORKLOADS = ("verify-large", "check-corpus", "enumerate-scan", "verify-large-j2")

# --jobs passed on every call that takes one; nproc is 2 on the machine the
# benchmark was sized on, so 2 workers never oversubscribe it.
JOBS = {"verify-large": 1, "check-corpus": 1, "enumerate-scan": 1,
        "verify-large-j2": 2}

CHAIN_SIZE = 9
CORPUS_SIZES = (2, 3, 4, 5, 6)
ENUM_SIZES = (2, 3, 4, 5, 6)
CHAIN_SIZES = (2, 3, 4, 5, 6, 7)

# Every module a job can reach; `import_program` loads them all so set-up
# time covers the whole import and tracing can wrap every layer.
MODULES = ("core", "subsets", "order", "stabilizers", "classify", "induced",
           "claims", "search", "algfile", "report", "fixtures", "_pool", "cli")

VERDICT_LETTER = {"holds": "h", "refuted": "r", "not-applicable": "n"}


@dataclass
class Job:
    key: str                          # reference key, stable across seeds
    run: Callable[[], tuple[int, Any]]  # -> (work units, raw output)
    summarize: Callable[[Any], dict]  # raw output -> reference summary


def import_program(src: Path) -> SimpleNamespace:
    """Import mtlstab afresh from `src`, dropping any earlier import, so each
    set-up repetition pays the full import cost."""
    for name in [m for m in sys.modules if m == "mtlstab" or m.startswith("mtlstab.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("mtlstab")
    origin = Path(package.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"mtlstab imported from {origin}, not from {src}")
    mods = {name.lstrip("_"): importlib.import_module(f"mtlstab.{name}")
            for name in MODULES}
    return SimpleNamespace(package=package, **mods)


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Seeded relabelling.

def relabel(mods, A, rng: random.Random | None):
    """A copy of A with its carrier order shuffled by `rng` (identity when
    rng is None).  Labels travel with their elements; bot and top are
    re-declared at their new positions."""
    order = list(range(A.n))
    if rng is not None:
        rng.shuffle(order)
    new = [0] * A.n
    for position, old in enumerate(order):
        new[old] = position

    def move(table):
        return [[new[table[order[i]][order[j]]] for j in range(A.n)]
                for i in range(A.n)]

    return mods.core.construct(A.n, move(A.mul), move(A.imp), bot=new[A.bot],
                               top=new[A.top],
                               labels=[A.labels[old] for old in order],
                               name=A.name)


def _input_rng(seed: int | None, name: str) -> random.Random | None:
    return None if seed is None else random.Random(f"{seed}/{name}")


def _write_inputs(mods, seed, workdir: Path, algebras) -> list[tuple[str, Path]]:
    files = []
    for A in algebras:
        path = workdir / f"{A.name}.alg"
        moved = relabel(mods, A, _input_rng(seed, A.name))
        path.write_text(mods.algfile.serialize_algebra(moved))
        files.append((A.name, path))
    return files


# ---------------------------------------------------------------------------
# Output summaries.  Witnesses and discrepancy records are left out: witness
# choice follows the scan order, which follows the carrier order, and
# discrepancy records appear only when a file lists a fixture's tables in the
# fixture's own order.

def run_cli(mods, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = mods.cli.cli_main(argv)
    if err.getvalue():
        return code, out.getvalue() + "stderr: " + err.getvalue()
    return code, out.getvalue()


def _records(stdout: str) -> list[list[str]]:
    return [line.split("\t") for line in stdout.splitlines()]


def verify_summary(output) -> dict:
    """Exit code and the (verdict, scope) vector in report order, written as
    verdict letter plus scope: `h16` is holds over 16 cases."""
    code, stdout = output
    verdicts, tokens = {}, []
    for record in _records(stdout):
        if record[0] == "claim":
            verdicts[record[1]] = record[2]
        elif record[0] == "scope":
            tokens.append(VERDICT_LETTER.get(verdicts.get(record[1]), "?") + record[2])
        elif record[0] not in ("witness", "discrepancy"):
            tokens.append(":".join(record))
    return {"exit": code, "claims": " ".join(tokens)}


def records_summary(output) -> dict:
    """Exit code and every record; a subset value is compared as a set."""
    code, stdout = output
    parts = []
    for record in _records(stdout):
        if record[:2] == ["class", "left-stab-of-bot"]:
            record = record[:2] + [",".join(sorted(record[2].split(",")))]
        parts.append(":".join(record))
    return {"exit": code, "records": ";".join(parts)}


def _check_summary(output) -> dict:
    validate, classify, verify = output
    return {"validate": records_summary(validate),
            "classify": records_summary(classify),
            "verify": verify_summary(verify)}


def _tables_summary(algebras) -> dict:
    tables = [(A.labels, A.bot, A.top, A.mul, A.imp) for A in algebras]
    return {"count": len(algebras), "tables": digest(repr(tables))}


def _corpus_cli_summary(output) -> dict:
    code, stdout, path = output
    records = _records(stdout.replace(str(path), "OUT"))
    count = [r[2] for r in records if r[:2] == ["enum", "count"]]
    return {"exit": code, "count": int(count[0]) if count else None,
            "report": digest("\n".join("\t".join(r) for r in records)),
            "corpus": digest(path.read_bytes())}


def _gen_summary(output) -> dict:
    code, stdout, path = output
    algebra = [r[1:] for r in _records(stdout) if r[0] == "algebra"]
    return {"exit": code, "algebra": algebra, "corpus": digest(path.read_bytes())}


def _findings_summary(findings) -> dict:
    rendered = [(f.problem, f.algebra.name, sorted(f.witness.items()))
                for f in findings]
    return {"count": len(findings), "findings": digest(repr(rendered))}


# ---------------------------------------------------------------------------
# Workloads.

def build(workload: str, seed: int | None, mods, workdir: Path) -> list[Job]:
    """Write the workload's inputs under `workdir` and return one pass of
    jobs.  seed None gives the unpermuted inputs in their natural order."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload in ("verify-large", "verify-large-j2"):
        return _verify_large(mods, seed, workdir, JOBS[workload])
    if workload == "check-corpus":
        return _check_corpus(mods, seed, workdir)
    if workload == "enumerate-scan":
        return _enumerate_scan(mods, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _verify_job(mods, name: str, path: Path, jobs: int) -> Job:
    argv = ["verify", str(path), "--format", "machine", "--jobs", str(jobs)]

    def run():
        code, stdout = run_cli(mods, argv)
        return _count_records(stdout, "claim"), (code, stdout)

    return Job(f"verify:{name}", run, verify_summary)


def _verify_large(mods, seed, workdir: Path, jobs: int) -> list[Job]:
    chains = [mods.search.gen_family(family, CHAIN_SIZE)
              for family in mods.search.FAMILIES]
    return [_verify_job(mods, name, path, jobs)
            for name, path in _write_inputs(mods, seed, workdir, chains)]


def _check_job(mods, name: str, path: Path) -> Job:
    def run():
        return 1, (run_cli(mods, ["validate", str(path), "--format", "machine"]),
                   run_cli(mods, ["classify", str(path), "--format", "machine"]),
                   run_cli(mods, ["verify", str(path), "--format", "machine",
                                  "--jobs", "1"]))

    return Job(f"check:{name}", run, _check_summary)


def _check_corpus(mods, seed, workdir: Path) -> list[Job]:
    algebras = [mods.fixtures.load_fixture_raw(name)
                for name in mods.fixtures.FIXTURE_NAMES]
    for n in CORPUS_SIZES:
        algebras += mods.search.enumerate_all(
            n, jobs=1, allow_large=n > mods.search.FULL_MAX)
    files = _write_inputs(mods, seed, workdir, algebras)
    if seed is not None:
        random.Random(f"{seed}/order").shuffle(files)
    return [_check_job(mods, name, path) for name, path in files]


def _enumerate_scan(mods, workdir: Path) -> list[Job]:
    search = mods.search
    produced: dict[str, list] = {}
    jobs = []

    def library(key, fn):
        def run():
            algebras = fn()
            produced[key] = algebras
            return len(algebras), algebras
        return Job(key, run, _tables_summary)

    for n in ENUM_SIZES:
        jobs.append(library(f"enumerate_all:{n}", lambda n=n: search.enumerate_all(
            n, jobs=1, allow_large=n > search.FULL_MAX)))
    for n in CHAIN_SIZES:
        jobs.append(library(f"enumerate_chains:{n}",
                            lambda n=n: search.enumerate_chains(n, jobs=1)))

    def cli_corpus(key, argv, path, summarize):
        def run():
            code, stdout = run_cli(mods, argv + ["--out", str(path),
                                                 "--format", "machine"])
            return _count_records(stdout, "algebra"), (code, stdout, path)
        return Job(key, run, summarize)

    for key, argv in (
        ("cli-enumerate:5", ["enumerate", "--size", "5", "--jobs", "1"]),
        ("cli-enumerate-chains:7",
         ["enumerate", "--chains", "--size", "7", "--jobs", "1"]),
    ):
        jobs.append(cli_corpus(key, argv, workdir / f"{key.replace(':', '-')}.txt",
                               _corpus_cli_summary))
    for family in search.FAMILIES:
        jobs.append(cli_corpus(
            f"gen:{family}{CHAIN_SIZE}",
            ["gen", "--family", family, "--size", str(CHAIN_SIZE)],
            workdir / f"gen-{family}.txt", _gen_summary))

    corpora = (f"enumerate_all:{ENUM_SIZES[-1]}", f"enumerate_chains:{CHAIN_SIZES[-1]}")

    def scan(key, fn):
        def run():
            corpus = [A for corpus_key in corpora for A in produced[corpus_key]]
            return len(corpus), fn(corpus)
        return Job(f"{key}:all6+chains7", run, _findings_summary)

    jobs.append(scan("open1", lambda c: [f for A in c for f in search.open1_scan(A)]))
    jobs.append(scan("open2", lambda c: search.open2_scan(c)))
    jobs.append(scan("open3", lambda c: [f for A in c for f in search.open3_scan(A)]))
    return jobs


def _count_records(stdout: str, record_type: str) -> int:
    """Work units of a CLI call: claim verdicts, or algebras emitted."""
    return sum(1 for line in stdout.splitlines()
               if line.startswith(record_type + "\t"))
