"""Property tests under random relabellings, table corruptions and file
mutations.

A relabelling moves every element, bot and top included, to a new carrier
position.  Claim verdicts and scopes and the canonical form must not notice,
every stabilizer operator must equal its literal definition on any subset of
the relabelled algebra, and the text format must carry the algebra through
a serialize/parse round trip.  On tables with a few corrupted entries,
`validate` and `replay_violation` must agree on every element tuple.  On
fixture files with mutated tokens, the commands must exit 0, 1 or 2 and
never raise.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import relabel  # noqa: E402

from mtlstab import (  # noqa: E402
    FiniteMtlAlgebra,
    Subset,
    replay_violation,
    validate,
    impl_left,
    impl_right,
    impl_stab,
    mult_left,
    mult_right,
    mult_stab,
    ortho,
)
from mtlstab.algfile import (  # noqa: E402
    parse_algebra_file,
    parse_corpus,
    serialize_algebra,
    serialize_corpus,
)
from mtlstab.claims import verify_all  # noqa: E402
from mtlstab.cli import cli_main  # noqa: E402
from mtlstab.core import AXIOMS  # noqa: E402
from mtlstab.fixtures import FIXTURE_NAMES, fixture_text, load_all_fixtures  # noqa: E402
from mtlstab.search import canonical_form, enumerate_all  # noqa: E402

ALGEBRAS = list(load_all_fixtures().values()) + enumerate_all(4)


@st.composite
def relabelled(draw):
    A = draw(st.sampled_from(ALGEBRAS))
    return A, relabel(A, draw(st.permutations(range(A.n))))


def _verdicts(A):
    return [(o.claim, o.verdict, o.scope) for o in verify_all(A)]


@settings(max_examples=25, deadline=None)
@given(relabelled())
def test_verify_vector_and_canonical_form_survive_relabelling(pair):
    A, B = pair
    assert _verdicts(B) == _verdicts(A)
    assert canonical_form(B) == canonical_form(A)


def _literal(A, X, fixed):
    return sum(1 << a for a in range(A.n) if all(fixed(A, a, x) for x in X))


LITERAL = {
    impl_left: lambda A, a, x: A.imp[a][x] == x,
    impl_right: lambda A, a, x: A.imp[x][a] == a,
    ortho: lambda A, a, x: A.join[a][x] == A.top,
    mult_left: lambda A, a, x: A.mul[a][x] == x,
    mult_right: lambda A, a, x: A.mul[x][a] == a,
}
TWO_SIDED = {impl_stab: (impl_left, impl_right),
             mult_stab: (mult_left, mult_right)}


@settings(max_examples=60, deadline=None)
@given(relabelled(), st.data())
def test_operators_match_literal_definitions(pair, data):
    _, B = pair
    full = (1 << B.n) - 1
    for bits in data.draw(st.lists(st.integers(1, full), min_size=1,
                                   max_size=8)):
        X = Subset(B, bits)
        literal = {op: _literal(B, X, fixed) for op, fixed in LITERAL.items()}
        for op, bits_expected in literal.items():
            assert op(B, X).bits == bits_expected, (op.__name__, X)
        for op, (left, right) in TWO_SIDED.items():
            assert op(B, X).bits == literal[left] & literal[right], (
                op.__name__, X)


# -- serializer and parser round trip ----------------------------------------

FIELDS = ("n", "labels", "bot", "top", "mul", "imp", "meet", "join", "name")


def _fields(A):
    return tuple(getattr(A, name) for name in FIELDS)


@st.composite
def displaced(draw):
    """A relabelling in which bot is not first and top is not last."""
    A = draw(st.sampled_from(ALGEBRAS))
    order = draw(st.permutations(range(A.n)).filter(
        lambda order: order[0] != A.bot and order[-1] != A.top))
    return A, relabel(A, order)


@settings(max_examples=100, deadline=None)
@given(displaced(), st.booleans())
def test_serializer_and_parser_round_trip(pair, include_lattice):
    A, B = pair
    assert B.bot != 0 and B.top != B.n - 1
    again = parse_algebra_file(serialize_algebra(B, include_lattice))
    assert _fields(again) == _fields(B)
    corpus = [B, A]
    headers = {i: canonical_form(C).hex() for i, C in enumerate(corpus)}
    text = serialize_corpus(corpus, headers)
    assert text.count("# canon: ") == len(corpus)
    assert [_fields(C) for C in parse_corpus(text)] == [_fields(C) for C in corpus]


# -- validate against replay_violation on corrupted tables -------------------

ARITY = {axiom: 2 for axiom in AXIOMS}
ARITY.update({"lattice.bounds": 1, "monoid.unit": 1, "lattice.meet.assoc": 3,
              "lattice.join.assoc": 3, "monoid.assoc": 3, "adjointness": 3})
TABLES = ("mul", "imp", "meet", "join")


@st.composite
def corrupted(draw):
    """An algebra with 1-3 table entries overwritten, built directly because
    construct() rejects some of these tables."""
    A = draw(st.sampled_from(ALGEBRAS))
    tables = {name: [list(row) for row in getattr(A, name)] for name in TABLES}
    element = st.integers(0, A.n - 1)
    for _ in range(draw(st.integers(1, 3))):
        table = tables[draw(st.sampled_from(TABLES))]
        table[draw(element)][draw(element)] = draw(element)
    return FiniteMtlAlgebra(
        n=A.n, labels=A.labels, bot=A.bot, top=A.top, name=A.name,
        **{name: tuple(map(tuple, rows)) for name, rows in tables.items()})


@settings(max_examples=300, deadline=None)
@given(corrupted())
def test_replay_agrees_with_validate_on_every_tuple(B):
    listed = {axiom: set() for axiom in AXIOMS}
    for axiom, witness in validate(B).violations:
        listed[axiom].add(witness)
    for axiom in AXIOMS:
        for tup in product(range(B.n), repeat=ARITY[axiom]):
            assert replay_violation(B, axiom, tup) == (tup in listed[axiom]), (
                axiom, tup)


# -- malformed files ---------------------------------------------------------

TEXTS = [fixture_text(name) for name in FIXTURE_NAMES]
VOCABULARY = sorted({tok for text in TEXTS for tok in text.split()}
                    | {"-1", "0x1", "64", "65", "zz", ""})


@st.composite
def mutated(draw):
    """Fixture text with 1-4 token deletions, insertions or substitutions."""
    text = draw(st.sampled_from(TEXTS))
    lines = [line.split(" ") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(line)))
        kind = draw(st.sampled_from(("delete", "insert", "substitute")))
        if kind == "insert":
            line.insert(at, draw(st.sampled_from(VOCABULARY)))
        elif line and at < len(line):
            if kind == "delete":
                del line[at]
            else:
                line[at] = draw(st.sampled_from(VOCABULARY))
    label = parse_algebra_file(text).labels[draw(st.integers(0, 3))]
    return "\n".join(" ".join(line) for line in lines) + "\n", label


@settings(max_examples=200, deadline=None)
@given(mutated())
def test_mutated_files_exit_cleanly(case):
    text, label = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.alg"
        path.write_text(text)
        for argv in (["validate", str(path)], ["classify", str(path)],
                     ["verify", str(path)], ["stab", str(path), "--set", label]):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = cli_main(argv + ["--format", "machine"])
            assert code in (0, 1, 2), (argv[0], code)
