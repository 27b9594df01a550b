"""Deterministic report records shared by the library and the CLI.

A report is an ordered list of (record-type, key, value) string triples.
The machine rendering is line-oriented with tab-separated fields and no
locale-dependent formatting, so byte-identical inputs give byte-identical
output across runs, machines and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    records: list[tuple[str, str, str]] = field(default_factory=list)
    failures: int = 0

    def add(self, record_type: str, key: str, value: str) -> None:
        self.records.append((record_type, str(key), str(value)))

    def add_failure(self, record_type: str, key: str, value: str) -> None:
        self.add(record_type, key, value)
        self.failures += 1

    @property
    def ok(self) -> bool:
        return self.failures == 0


def emit_report(report: Report, machine: bool = False) -> str:
    """Render a report; tab-separated machine form or aligned human form."""
    if not report.records:
        return ""
    if machine:
        return "".join(f"{t}\t{k}\t{v}\n" for t, k, v in report.records)
    tw = max(len(t) for t, _, _ in report.records)
    kw = max(len(k) for _, k, _ in report.records)
    return "".join(f"{t:<{tw}}  {k:<{kw}}  {v}\n" for t, k, v in report.records)
