"""Command line driver.

Subcommands: validate, stab, classify, verify, enumerate, search, gen.
Exit codes: 0 completed with no refutations or findings, 1 completed with
refutations or findings (details in the report), 2 usage or input error.
Reports go to stdout; machine format is selected with --format machine.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import algfile
from .claims import (
    UnknownClaimError,
    documented_divergences,
    outcome_report,
    verify_all,
    verify_claim,
)
from .classify import classify
from .core import AlgebraError, FiniteMtlAlgebra, validate
from .report import Report, emit_report
from .search import (
    EnumerationSpec,
    SizeRangeError,
    UnknownFamilyError,
    canonical_form,
    enumerate_models,
    gen_family,
    open1_scan,
    open2_scan,
    open3_scan,
)
from .stabilizers import stabilizer_suite
from .subsets import from_labels
from ._pool import default_jobs


class _InputError(Exception):
    pass


def _load_algebra(path: str) -> FiniteMtlAlgebra:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    try:
        return algfile.parse_algebra_file(text)
    except (algfile.ParseError, AlgebraError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _validation_report(A: FiniteMtlAlgebra) -> Report:
    result = validate(A)
    report = Report()
    report.add("validate", "algebra", A.name or "unnamed")
    report.add("validate", "valid", str(result.valid).lower())
    for axiom, witness in result.violations:
        rendered = ",".join(A.labels[w] for w in witness)
        report.add_failure("violation", axiom, f"({rendered})")
    return report


def _require_valid(A: FiniteMtlAlgebra, report: Report) -> bool:
    sub = _validation_report(A)
    if sub.ok:
        return True
    report.extend(sub)
    return False


def _cmd_validate(args) -> tuple[Report, int]:
    A = _load_algebra(args.file)
    report = _validation_report(A)
    return report, 0 if report.ok else 1


def _cmd_stab(args) -> tuple[Report, int]:
    A = _load_algebra(args.file)
    report = Report()
    if not _require_valid(A, report):
        return report, 1
    try:
        X = from_labels(A, args.set)
    except KeyError as exc:
        raise _InputError(exc.args[0]) from exc
    if X.is_empty():
        raise _InputError("--set must name at least one element")
    report.extend(stabilizer_suite(A, X))
    return report, 0


def _cmd_classify(args) -> tuple[Report, int]:
    A = _load_algebra(args.file)
    report = Report()
    if not _require_valid(A, report):
        return report, 1
    report.extend(classify(A))
    return report, 0 if report.ok else 1


def _cmd_verify(args) -> tuple[Report, int]:
    A = _load_algebra(args.file)
    report = Report()
    if not _require_valid(A, report):
        return report, 1
    if args.claim is not None:
        try:
            outcomes = [verify_claim(A, args.claim)]
        except UnknownClaimError:
            raise _InputError(f"unknown claim id {args.claim!r}")
    else:
        outcomes = verify_all(A, jobs=args.jobs)
    report.extend(outcome_report(outcomes, documented_divergences(A)))
    return report, 0 if report.ok else 1


def _write_corpus(path: str, algebras, canon_hex: list[str]) -> None:
    headers = dict(enumerate(canon_hex))
    Path(path).write_text(algfile.serialize_corpus(algebras, headers))


def _cmd_enumerate(args) -> tuple[Report, int]:
    try:
        spec = EnumerationSpec(size=args.size, chains_only=args.chains,
                               dedup=not args.no_dedup, limit=args.limit)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    try:
        algebras = enumerate_models(spec, jobs=args.jobs)
    except SizeRangeError as exc:
        raise _InputError(str(exc)) from exc
    canon_hex = [canonical_form(A).hex() for A in algebras]
    report = Report()
    report.add("enum", "size", str(args.size))
    report.add("enum", "mode", "chains" if args.chains else "all")
    report.add("enum", "count", str(len(algebras)))
    for A, canon in zip(algebras, canon_hex):
        report.add("algebra", A.name, canon)
    if args.out:
        _write_corpus(args.out, algebras, canon_hex)
        report.add("enum", "written", args.out)
    return report, 0


def _cmd_search(args) -> tuple[Report, int]:
    report = Report()
    if args.file:
        A = _load_algebra(args.file)
        if not _require_valid(A, report):
            return report, 1
        corpus = [A]
    else:
        try:
            corpus = enumerate_models(EnumerationSpec(size=args.size),
                                      jobs=args.jobs)
        except SizeRangeError as exc:
            raise _InputError(str(exc)) from exc
    report.add("search", "problem", str(args.problem))
    report.add("search", "scanned", str(len(corpus)))

    findings = []
    if args.problem == 1:
        for A in corpus:
            findings.extend(open1_scan(A))
    elif args.problem == 2:
        findings.extend(open2_scan(corpus, full_subsets=args.full_premise))
    else:
        for A in corpus:
            findings.extend(open3_scan(A))
    for finding in findings:
        detail = "; ".join(f"{k}={v}" for k, v in finding.witness.items())
        name = finding.algebra.name or canonical_form(finding.algebra).hex()
        report.add_failure("finding", finding.problem, f"{name}: {detail}")
    report.add("search", "findings", str(len(findings)))
    return report, 0 if not findings else 1


def _cmd_gen(args) -> tuple[Report, int]:
    try:
        A = gen_family(args.family, args.size)
    except (UnknownFamilyError, SizeRangeError) as exc:
        raise _InputError(str(exc)) from exc
    report = Report()
    report.add("gen", "family", args.family)
    report.add("gen", "size", str(args.size))
    try:
        canon_hex = [canonical_form(A).hex()]
    except SizeRangeError:      # beyond enumeration scale: no canon header
        canon_hex = []
    report.add("algebra", A.name, canon_hex[0] if canon_hex else "-")
    if args.out:
        _write_corpus(args.out, [A], canon_hex)
        report.add("gen", "written", args.out)
    return report, 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlstab",
        description="Finite MTL-algebra workbench: validation, stabilizers,"
                    " claim verification, enumeration and counterexample search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs=False):
        p.add_argument("--format", choices=("human", "machine"),
                       default="human", help="report rendering")
        if jobs:
            p.add_argument("--jobs", type=int, default=None,
                           help="worker count (default: MTL_JOBS or 1)")

    p = sub.add_parser("validate", help="check every axiom of an algebra file")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("stab", help="all seven stabilizer sets of a subset")
    p.add_argument("file")
    p.add_argument("--set", required=True,
                   help="comma-separated element labels, e.g. a,b")
    common(p)
    p.set_defaults(fn=_cmd_stab)

    p = sub.add_parser("classify", help="class predicates and stabilizer routes")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("verify", help="run the claim registry against a file")
    p.add_argument("file")
    p.add_argument("--claim", default=None, help="verify one claim id only")
    common(p, jobs=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("enumerate", help="enumerate algebras of a given size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--chains", action="store_true", help="chains only")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--no-dedup", action="store_true",
                   help="skip isomorphism dedup")
    p.add_argument("--out", default=None, help="write a corpus file")
    common(p, jobs=True)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("search", help="scan for open-problem counterexamples")
    p.add_argument("--problem", type=int, choices=(1, 2, 3), required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", default=None)
    group.add_argument("--size", type=int, default=None)
    p.add_argument("--full-premise", action="store_true",
                   help="problem 2: check the premise on every subset,"
                        " not only singletons")
    common(p, jobs=True)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("gen", help="generate a standard chain family member")
    p.add_argument("--family", required=True,
                   choices=("lukasiewicz", "godel", "nilpotent_minimum"))
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(fn=_cmd_gen)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if hasattr(args, "jobs"):
            if args.jobs is None:
                args.jobs = default_jobs()
            elif args.jobs < 1:
                raise _InputError("--jobs must be at least 1")
        report, code = args.fn(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(emit_report(report, machine=args.format == "machine"))
    return code


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
