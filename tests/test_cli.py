import io
import time
from contextlib import redirect_stdout

import pytest

from test_golden import GOLDEN, _render
from mtlstab.algfile import parse_corpus, serialize_algebra
from mtlstab.classify import is_godel
from mtlstab.cli import _build_parser, cli_main
from mtlstab.core import construct, validate
from mtlstab.fixtures import fixture_text
from mtlstab.search import FAMILIES, gen_family


@pytest.fixture()
def fixture_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.alg"
        path.write_text(fixture_text(name))
        return str(path)
    return write


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def test_validate_ok(fixture_file):
    code, out = run_cli(["validate", fixture_file("a4"), "--format", "machine"])
    assert code == 0
    assert "validate\tvalid\ttrue\n" in out


def test_validate_broken_table_exits_1(tmp_path):
    text = fixture_text("a4").replace("0 0 b b", "0 b b b")
    path = tmp_path / "broken.alg"
    path.write_text(text)
    code, out = run_cli(["validate", str(path), "--format", "machine"])
    assert code == 1
    assert "violation" in out


@pytest.mark.parametrize("argv", [["stab", "--set", "a"], ["classify"], ["verify"],
                                  ["search", "--problem", "1", "--file"]],
                         ids=["stab", "classify", "verify", "search"])
@pytest.mark.parametrize("fmt", ["machine", "human"])
def test_invalid_algebra_exits_1_with_its_validate_report(tmp_path, argv, fmt):
    # A file that parses but fails an axiom: every command that needs a valid
    # algebra stops at the gate and prints the file's validate report.
    path = tmp_path / "broken.alg"
    path.write_text(fixture_text("a4").replace("0 0 b b", "0 b b b"))
    code, report = run_cli(["validate", str(path), "--format", fmt])
    assert code == 1
    assert report.splitlines()[2].split() == ["violation", "monoid.comm", "(a,b)"]
    assert run_cli(argv + [str(path), "--format", fmt]) == (1, report)


def test_stab_set_naming_no_element_exits_2(fixture_file, capsys):
    assert cli_main(["stab", fixture_file("a4"), "--set", ","]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == \
        ("", "error: --set must name at least one element\n")


def test_65_element_file_exits_2(tmp_path, capsys):
    labels = [f"e{i}" for i in range(65)]
    row = " ".join(["e0"] * 65)
    path = tmp_path / "big.alg"
    path.write_text("\n".join(["algebra big", "size 65", "labels " + " ".join(labels),
                               "bot e0", "top e64", "mul", *[row] * 65,
                               "imp", *[row] * 65, "end"]) + "\n")
    assert cli_main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == \
        ("", f"error: {path}: carrier size 65 outside supported range 2..64\n")


def test_missing_file_exits_2(capsys):
    assert cli_main(["validate", "/nonexistent/file.alg"]) == 2


def test_unparsable_file_exits_2(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("algebra x\nsize huh\n")
    assert cli_main(["validate", str(path)]) == 2


def _assert_one_error_line(capsys, prefix):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {prefix}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_undecodable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"\xff\xfe")
    for argv in (["validate", str(path)], ["stab", str(path), "--set", "1"],
                 ["classify", str(path)], ["verify", str(path)],
                 ["search", "--problem", "1", "--file", str(path)]):
        assert cli_main(argv) == 2
        _assert_one_error_line(capsys, f"cannot read {path}: ")


@pytest.mark.parametrize("argv", [["gen", "--family", "godel", "--size", "4"],
                                  ["enumerate", "--size", "3"]],
                         ids=["gen", "enumerate"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    # A path under a missing directory, and a directory.
    for target in (tmp_path / "missing" / "x.alg", tmp_path):
        assert cli_main(argv + ["--out", str(target)]) == 2
        _assert_one_error_line(capsys, f"cannot write {target}: ")


@pytest.mark.parametrize("label", ["a,b", "∅"])
def test_ambiguous_label_exits_2(tmp_path, capsys, label):
    # a4 with its element a renamed; the comment line mentions a, so drop it.
    lines = [line for line in fixture_text("a4").splitlines()
             if not line.startswith("#")]
    path = tmp_path / "relabelled.alg"
    path.write_text("\n".join(" ".join(label if t == "a" else t
                                       for t in line.split())
                              for line in lines) + "\n", encoding="utf-8")
    for argv in (["validate", str(path)], ["stab", str(path), "--set", "1"]):
        assert cli_main(argv) == 2
        _assert_one_error_line(
            capsys, f"{path}: label {label!r} contains ',' or is ∅")


def test_usage_error_exits_2():
    assert cli_main(["enumerate"]) == 2          # --size missing
    assert cli_main(["no-such-command"]) == 2


def test_one_parser_serves_every_call(tmp_path, capsys):
    _build_parser.cache_clear()
    # a usage error first, so a parse that fails must leave no state behind
    assert cli_main(["search", "--problem", "1", "--size", "3",
                     "--file", "x.alg"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    for filename, case in (
            ("bowtie-no-meet.diagnostic.txt",
             ("validate", "diagnostic", "bowtie-no-meet")),
            ("a4.verify.txt", ("verify", "fixture", "a4"))):
        expected = (GOLDEN / filename).read_text(encoding="utf-8")
        assert _render(case, tmp_path) == expected
    assert _build_parser.cache_info().misses == 1


def test_stab_machine_records(fixture_file):
    code, out = run_cli(["stab", fixture_file("a4"), "--set", "b",
                         "--format", "machine"])
    assert code == 0
    assert "stab\timpl_right\ta,1\n" in out
    assert "stab\tmult_stab\tb\n" in out


def test_stab_empty_rendering(fixture_file):
    code, out = run_cli(["stab", fixture_file("a4"), "--set", "a,b",
                         "--format", "machine"])
    assert code == 0
    assert "stab\tmult_stab\t∅\n" in out


def test_stab_bad_label_exits_2(fixture_file):
    assert cli_main(["stab", fixture_file("a4"), "--set", "zz"]) == 2


def test_classify_m6(fixture_file):
    code, out = run_cli(["classify", fixture_file("m6"), "--format", "machine"])
    assert code == 0
    assert "class\tmv\ttrue\n" in out


def test_verify_single_claim_exit_code(fixture_file):
    code, out = run_cli(["verify", fixture_file("a4"), "--claim", "P4.3.6",
                         "--format", "machine"])
    assert code == 1
    assert "claim\tP4.3.6\trefuted\n" in out
    assert "witness\tP4.3.6\t" in out


def test_verify_holding_claim_exit_zero(fixture_file):
    code, out = run_cli(["verify", fixture_file("a4"), "--claim", "T3.9-ortho",
                         "--format", "machine"])
    assert code == 0
    assert "claim\tT3.9-ortho\tholds\n" in out


def test_verify_unknown_claim_exits_2(fixture_file):
    assert cli_main(["verify", fixture_file("a4"), "--claim", "nope"]) == 2


def test_enumerate_writes_corpus(tmp_path):
    out_path = tmp_path / "chains3.alg"
    code, out = run_cli(["enumerate", "--size", "3", "--chains",
                         "--out", str(out_path), "--format", "machine"])
    assert code == 0
    assert "enum\tcount\t2\n" in out
    text = out_path.read_text()
    assert text.count("# canon:") == 2
    algs = parse_corpus(text)
    assert len(algs) == 2
    assert all(validate(A).valid for A in algs)


def test_chain_enumeration_cli_sizes(capsys):
    assert cli_main(["enumerate", "--chains", "--size", "8", "--limit", "2",
                     "--format", "machine"]) == 0
    assert "enum\tcount\t2\n" in capsys.readouterr().out
    assert cli_main(["enumerate", "--chains", "--size", "9"]) == 2
    assert capsys.readouterr().err == \
        "error: chain enumeration supports sizes 2..8\n"


def test_enumerate_limit_below_one_exits_2(capsys):
    for mode in ([], ["--chains"]):
        for limit in ("0", "-1"):
            argv = ["enumerate", "--size", "4", "--limit", limit] + mode
            assert cli_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "limit must be at least 1" in captured.err


def test_search_file_mode(fixture_file):
    code, out = run_cli(["search", "--problem", "1",
                         "--file", fixture_file("a4"), "--format", "machine"])
    assert "search\tproblem\t1\n" in out
    assert code in (0, 1)
    has_findings = "finding\t" in out
    assert code == (1 if has_findings else 0)


def boolean64():
    """The Boolean algebra 2^6, unvalidated: elements are bit sets, mul is
    AND and imp(x, y) is (not x) or y."""
    rng = range(64)
    return construct(64, [[x & y for y in rng] for x in rng],
                     [[(63 ^ x) | y for y in rng] for x in rng], name="boolean64")


def _timed_search(problem, path):
    start = time.perf_counter()
    code, out = run_cli(["search", "--problem", problem, "--file", str(path),
                         "--format", "machine"])
    return code, out, time.perf_counter() - start


@pytest.mark.parametrize("problem", ["1", "2", "3"])
def test_search_file_is_bounded_on_64_element_chain(tmp_path, problem):
    # The 64-element chains and the Boolean algebra 2^6; a scan over the
    # 2^64 subsets would never return.  The files leave out the meet and
    # join blocks, so the parse derives both lattices from the imp-order.
    # Problem 3 runs on the three family chains; on the Godel chain each of
    # the 62 interior idempotents induces two algebras to validate.
    if problem == "3":
        algebras = [gen_family(f, 64) for f in FAMILIES]
    else:
        algebras = [gen_family("lukasiewicz", 64), boolean64()]
    for A in algebras:
        path = tmp_path / f"{A.name}.alg"
        path.write_text(serialize_algebra(A))
        assert "meet" not in path.read_text()
        code, out, seconds = _timed_search(problem, path)
        assert code in (0, 1)
        assert "search\tscanned\t1\n" in out
        assert seconds < 10


@pytest.mark.parametrize("family", FAMILIES)
def test_search_problem3_is_bounded_on_gen_26(tmp_path, family):
    path = tmp_path / f"{family}26.alg"
    assert cli_main(["gen", "--family", family, "--size", "26",
                     "--out", str(path)]) == 0
    code, out, seconds = _timed_search("3", path)
    assert code in (0, 1)
    assert "search\tproblem\t3\n" in out
    assert seconds < 10


def test_size_range_message_names_only_the_cli_sizes(capsys):
    for argv in (["enumerate", "--size", "6"], ["enumerate", "--size", "1"],
                 ["search", "--problem", "3", "--size", "6"],
                 ["search", "--problem", "1", "--size", "7"]):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: full enumeration supports sizes 2..5\n"


def test_search_full_premise_flag_is_gone(capsys):
    assert cli_main(["search", "--problem", "2", "--size", "4",
                     "--full-premise"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --full-premise" in captured.err
    assert "Traceback" not in captured.err


def test_search_size_mode_problem3():
    code, out = run_cli(["search", "--problem", "3", "--size", "4",
                         "--format", "machine"])
    assert code == 1
    assert "finding\topen3\t" in out


def test_search_reports_are_worker_count_invariant():
    runs = {}
    for jobs in ("1", "8"):
        code, out = run_cli(["search", "--problem", "2", "--size", "4",
                             "--jobs", jobs, "--format", "machine"])
        runs[jobs] = (code, out)
    assert runs["1"] == runs["8"]


def test_jobs_env_default(monkeypatch, fixture_file):
    monkeypatch.setenv("MTL_JOBS", "2")
    code, out = run_cli(["verify", fixture_file("b4"), "--format", "machine"])
    monkeypatch.delenv("MTL_JOBS")
    code1, out1 = run_cli(["verify", fixture_file("b4"), "--format", "machine"])
    assert (code, out) == (code1, out1)


def test_gen_roundtrip(tmp_path):
    out_path = tmp_path / "godel6.alg"
    code, out = run_cli(["gen", "--family", "godel", "--size", "6",
                         "--out", str(out_path), "--format", "machine"])
    assert code == 0
    (A,) = parse_corpus(out_path.read_text())
    assert validate(A).valid and is_godel(A)


def test_gen_reaches_64_elements(tmp_path, capsys):
    path = tmp_path / "nm64.alg"
    assert cli_main(["gen", "--family", "nilpotent_minimum", "--size", "64",
                     "--out", str(path)]) == 0
    (A,) = parse_corpus(path.read_text())
    assert validate(A).valid and A.n == 64
    assert A.labels[24:27] == ("x", "a1", "b1") and A.labels[-2:] == ("n2", "1")
    capsys.readouterr()
    assert cli_main(["gen", "--family", "godel", "--size", "65"]) == 2
    _assert_one_error_line(capsys, "family chains support sizes 2..64")


def test_gen_unknown_family_exits_2():
    assert cli_main(["gen", "--family", "bogus", "--size", "4"]) == 2


def test_jobs_below_one_exits_2(fixture_file, capsys):
    for argv in (["verify", fixture_file("a4")],
                 ["enumerate", "--size", "3"],
                 ["search", "--problem", "1", "--size", "3"]):
        for jobs in ("0", "-4"):
            assert cli_main(argv + ["--jobs", jobs]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --jobs must be at least 1\n"


def test_stab_unknown_label_message_is_unquoted(fixture_file, capsys):
    assert cli_main(["stab", fixture_file("a4"), "--set", "b,zz"]) == 2
    assert capsys.readouterr().err == "error: unknown element label 'zz'\n"


def test_gen_beyond_canonical_range_writes_plain_file(tmp_path):
    out_path = tmp_path / "luk11.alg"
    code, out = run_cli(["gen", "--family", "lukasiewicz", "--size", "11",
                         "--out", str(out_path), "--format", "machine"])
    assert code == 0
    (record,) = [line for line in out.splitlines()
                 if line.startswith("algebra\t")]
    assert record.endswith("\t-")
    text = out_path.read_text()
    assert "# canon:" not in text
    (A,) = parse_corpus(text)
    assert A.n == 11 and validate(A).valid
