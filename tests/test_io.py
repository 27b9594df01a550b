import pytest

from mtlstab import Report, emit_report, validate
from mtlstab.algfile import (
    ParseError,
    parse_algebra_file,
    parse_corpus,
    serialize_algebra,
    serialize_corpus,
)
from mtlstab.fixtures import FIXTURE_NAMES, fixture_text, load_fixture

A4_TEXT = fixture_text("a4")


def test_fixture_files_parse_and_validate():
    for name in FIXTURE_NAMES:
        A = load_fixture(name)
        assert A.validated
        assert A.name == name


def test_roundtrip_structure(fixtures):
    for name, A in fixtures.items():
        for include_lattice in (False, True):
            text = serialize_algebra(A, include_lattice=include_lattice)
            again = parse_algebra_file(text)
            assert (again.n, again.labels, again.bot, again.top) == \
                (A.n, A.labels, A.bot, A.top)
            assert again.mul == A.mul and again.imp == A.imp
            assert again.meet == A.meet and again.join == A.join
            assert again.name == A.name


def test_short_row_cites_its_line():
    lines = A4_TEXT.splitlines()
    idx = lines.index("0 0 b b")
    lines[idx] = "0 0 b"
    with pytest.raises(ParseError) as err:
        parse_algebra_file("\n".join(lines))
    assert err.value.line == idx + 1
    assert "3 entries, expected 4" in str(err.value)


def test_unknown_label_cites_position():
    broken = A4_TEXT.replace("0 a b 1\nimp", "0 a z 1\nimp")
    with pytest.raises(ParseError) as err:
        parse_algebra_file(broken)
    assert "unknown label 'z'" in str(err.value)
    assert err.value.col == 5


def test_duplicate_block_rejected():
    broken = A4_TEXT.replace(
        "imp\n", "mul\n0 0 0 0\n0 0 0 a\n0 0 b b\n0 a b 1\nimp\n", 1)
    with pytest.raises(ParseError) as err:
        parse_algebra_file(broken)
    assert "duplicate `mul` block" in str(err.value)


def test_missing_block_rejected():
    start = A4_TEXT.index("imp")
    broken = A4_TEXT[:start] + "end\n"
    with pytest.raises(ParseError) as err:
        parse_algebra_file(broken)
    assert "missing required `imp` block" in str(err.value)


@pytest.mark.parametrize("old, new, expected", [
    ("labels 0 a b 1", "labels 0 a a 1", "line 4, col 8: labels are not unique"),
    ("end", "meet\n0 0 0 0\n0 a a a\n0 a b b\n0 a b 1\nend",
     "line 22, col 1: meet and join blocks must be given together"),
])
def test_label_and_lattice_block_refusals(old, new, expected):
    with pytest.raises(ParseError) as err:
        parse_algebra_file(A4_TEXT.replace(old, new))
    assert str(err.value) == expected


def test_unknown_fixture_is_refused():
    with pytest.raises(KeyError, match="unknown fixture 'z4'; have a4, a5, b4"):
        fixture_text("z4")


def test_trailing_content_rejected():
    with pytest.raises(ParseError) as err:
        parse_algebra_file(A4_TEXT + "\nextra token\n")
    assert "trailing content" in str(err.value)


def test_bad_size_token():
    with pytest.raises(ParseError) as err:
        parse_algebra_file(A4_TEXT.replace("size 4", "size four"))
    assert "not an integer" in str(err.value)


@pytest.mark.parametrize("line, broken, expected", [
    ("algebra a4", "algebr a4", "line 2, col 1: expected `algebra <name>`"),
    ("algebra a4", "algebra a4 b4", "line 2, col 1: expected `algebra <name>`"),
    ("size 4", "  sizes 4", "line 3, col 3: expected `size <n>`"),
    ("size 4", "size 4 4", "line 3, col 1: expected `size <n>`"),
    ("bot 0", "top 0", "line 5, col 1: expected `bot <label>`"),
    ("bot 0", " bot 0 1", "line 5, col 2: expected `bot <label>`"),
    ("top 1", "bot 1", "line 6, col 1: expected `top <label>`"),
    ("top 1", "top", "line 6, col 1: expected `top <label>`"),
])
def test_header_line_diagnostics(line, broken, expected):
    lines = A4_TEXT.splitlines()
    lines[lines.index(line)] = broken
    with pytest.raises(ParseError) as err:
        parse_algebra_file("\n".join(lines))
    assert str(err.value) == expected


def test_comments_are_ignored(fixtures):
    text = "# corpus header\n# canon: deadbeef\n" + A4_TEXT
    A = parse_algebra_file(text)
    assert A.mul == fixtures["a4"].mul


def test_corpus_roundtrip(fixtures):
    algs = [fixtures["a4"], fixtures["b4"]]
    text = serialize_corpus(algs, {0: "00ff", 1: "ab"})
    again = parse_corpus(text)
    assert [A.name for A in again] == ["a4", "b4"]
    assert all(validate(A).valid for A in again)


def test_meet_join_blocks_roundtrip(fixtures):
    a4 = fixtures["a4"]
    text = serialize_algebra(a4, include_lattice=True)
    assert "meet" in text and "join" in text
    assert parse_algebra_file(text).meet == a4.meet


def test_emit_report_machine_and_human():
    report = Report()
    report.add("stab", "impl_right", "a,1")
    report.add("class", "mv", "true")
    machine = emit_report(report, machine=True)
    assert machine == "stab\timpl_right\ta,1\nclass\tmv\ttrue\n"
    human = emit_report(report, machine=False)
    assert "impl_right" in human and "\t" not in human


def test_emit_report_empty():
    assert emit_report(Report(), machine=True) == ""
    assert emit_report(Report(), machine=False) == ""
