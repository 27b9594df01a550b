#!/usr/bin/env python3
"""Build finite MTL-algebras from tables and watch the validator work.

Run:  python3 demos/01_build_and_validate.py
"""

from mtlstab import construct, emit_report, validate
from mtlstab.claims import outcome_report, verify_claim
from mtlstab.fixtures import load_fixture, load_fixture_raw

print("=" * 72)
print("Constructing a four-element chain from its two tables")
print("=" * 72)

a4 = load_fixture("a4")
print(f"carrier: {', '.join(a4.labels)}   bot={a4.labels[a4.bot]}"
      f"  top={a4.labels[a4.top]}")
print("meet/join were not declared in the file; they are derived from the")
print("implication order, which on a chain is just min and max:")
print("  meet row for a:", [a4.labels[v] for v in a4.meet[a4.index('a')]])

report = validate(a4)
print(f"\nvalidate -> valid={report.valid} "
      f"({len(report.violations)} violations)")

print("\nEvery always-true identity (Prop. 2.2), checked over all tuples:")
print(emit_report(outcome_report(verify_claim(a4, f"P2.2.{i}")
                                 for i in range(1, 13))))

print("=" * 72)
print("Corrupting one product entry and validating again")
print("=" * 72)

raw = load_fixture_raw("a4")
mul = [list(row) for row in raw.mul]
a, b = raw.labels.index("a"), raw.labels.index("b")
mul[a][b] = b  # was 0
broken = construct(4, mul, raw.imp, raw.meet, raw.join, labels=raw.labels,
                   name="a4-broken")
report = validate(broken)
print(f"valid={report.valid}; first violations with witnesses:")
for axiom, witness in report.violations[:6]:
    rendered = ",".join(broken.labels[w] for w in witness)
    print(f"  {axiom:<20} at ({rendered})")
print("Violations accumulate rather than failing fast, so a bad table")
print("yields a complete diagnosis in one pass.")
