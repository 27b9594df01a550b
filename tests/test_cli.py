import io
from contextlib import redirect_stdout

import pytest

from mtlstab.algfile import parse_corpus
from mtlstab.classify import is_godel
from mtlstab.cli import cli_main
from mtlstab.core import validate
from mtlstab.fixtures import fixture_text


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


def test_missing_file_exits_2(capsys):
    assert cli_main(["validate", "/nonexistent/file.alg"]) == 2


def test_unparsable_file_exits_2(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("algebra x\nsize huh\n")
    assert cli_main(["validate", str(path)]) == 2


def test_usage_error_exits_2():
    assert cli_main(["enumerate"]) == 2          # --size missing
    assert cli_main(["no-such-command"]) == 2


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
