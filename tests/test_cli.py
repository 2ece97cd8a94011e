import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from expanderlab.cli import build_parser, main

FP_SET = {"field": "fp", "p": 101, "elements": [3, 5, 9, 11, 17, 23]}
FP_SET_B = {"field": "fp", "p": 101, "elements": [2, 7, 13, 19]}
Q_SET = {"field": "q", "elements": ["2", "3", "5"]}
Q_WITH_ONE = {"field": "q", "elements": ["1", "2", "3"]}
# its 3/2-energies are irrational, so they need certified enclosures
Q_ENCLOSED = {"field": "q", "elements": ["2", "3", "5", "7/2"]}


def write(tmp_path: Path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_verify_r6_exit_zero(tmp_path, capsys):
    a = write(tmp_path, "a.json", FP_SET)
    b = write(tmp_path, "b.json", FP_SET_B)
    out = tmp_path / "rep.json"
    assert main(["verify", a, b, "--relation", "R6", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["verdict"] == "Holds"
    assert (tmp_path / "rep.manifest.json").exists()


def test_verify_all_with_one_in_set(tmp_path):
    bad = write(tmp_path, "bad.json", Q_WITH_ONE)
    assert main(["verify", bad, "--all"]) == 64


def test_verify_r1_batch(tmp_path):
    a = write(tmp_path, "a.json", FP_SET)
    b = write(tmp_path, "b.json", FP_SET_B)
    c = write(tmp_path, "c.json", {"field": "fp", "p": 101, "elements": [1, 4, 6]})
    assert main(["verify", a, b, c, "--relation", "R1"]) == 0


def test_verify_malformed_input(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad), "--relation", "R2"]) == 64


def test_pipeline_density_violated(tmp_path):
    small = write(tmp_path, "small.json", {"field": "fp", "p": 7, "elements": [1, 2, 3]})
    assert main(["pipeline", small, "--mode", "fp",
                 "--out", str(tmp_path / "t.json")]) == 64


def test_pipeline_real_trace(tmp_path):
    q = write(tmp_path, "q.json", Q_SET)
    out = tmp_path / "trace.json"
    assert main(["pipeline", q, "--mode", "real", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["steps"]) >= 5
    assert doc["mode"] == "real"


def test_pipeline_identical_bytes(tmp_path):
    q = write(tmp_path, "q.json", Q_SET)
    out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
    assert main(["pipeline", q, "--mode", "real", "--out", str(out1)]) == 0
    assert main(["pipeline", q, "--mode", "real", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_search_exhaustive_csv(tmp_path):
    out = tmp_path / "res.csv"
    assert main(["search", "--p", "7", "--n", "2", "--mode", "exhaustive",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("7,2,3,")
    assert "true,2 4" in lines[1]


def test_search_seed_repeatable(tmp_path):
    args = ["search", "--p", "53", "--n", "3", "--mode", "anneal", "--seed", "9",
            "--restarts", "3", "--iterations", "80"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_search_nonprime_exit(tmp_path):
    assert main(["search", "--p", "4", "--n", "2",
                 "--out", str(tmp_path / "x.csv")]) == 64


def test_search_budget_exit(tmp_path):
    assert main(["search", "--p", "101", "--n", "9", "--budget", "10",
                 "--out", str(tmp_path / "x.csv")]) == 65


def test_search_budget_exit_before_the_pool_at_a_large_prime(tmp_path):
    # in a child capped at 1 GiB of address space: a pool of all of F_p
    # would take tens of GB
    import resource
    from pathlib import Path

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import sys; from expanderlab.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "search", "--p", "1000000007", "--n", "2",
         "--mode", "exhaustive", "--budget", "5", "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, cwd=tmp_path, preexec_fn=cap,
        env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 65, proc.stderr
    assert proc.stderr == ("error: 500000004500000010 candidate sets exceed "
                           "budget 5\n")


def test_energy_dump(tmp_path):
    a = write(tmp_path, "a.json", FP_SET)
    out = tmp_path / "e.json"
    assert main(["energy", a, "--kind", "ratio", "--alpha", "2", "--alpha", "3/2",
                 "--delta", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "2" in doc["energies"] and "3/2" in doc["energies"]
    assert doc["split"]["delta"] == 1


def test_the_shared_parser_keeps_nothing_between_calls(tmp_path):
    # one parser serves every call in a process; an --alpha list or default
    # left over from one call must not reach the next
    a = write(tmp_path, "a.json", FP_SET)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["energy", a, "--alpha", "3/2", "--out", str(first)]) == 0
    assert main(["energy", a, "--out", str(second)]) == 0
    assert list(json.loads(first.read_text())["energies"]) == ["3/2"]
    assert list(json.loads(second.read_text())["energies"]) == ["2"]
    manifest = json.loads((tmp_path / "second.manifest.json").read_text())
    assert manifest["config"]["alpha"] == ["2"]
    assert build_parser() is build_parser()


@pytest.mark.parametrize("cap, code, bits", [("8", 3, 8), ("128", 0, 128)])
def test_energy_at_a_precision_cap(tmp_path, capsys, cap, code, bits):
    # below 66 bits the enclosure misses the width target: it is written as
    # reached, at the cap, and the run exits inconclusive
    a = write(tmp_path, "a.json", FP_SET)
    out = tmp_path / "e.json"
    assert main(["energy", a, "--alpha", "3/2", "--alpha", "2", "--precision-cap", cap,
                 "--out", str(out)]) == code
    assert "error:" not in capsys.readouterr().err
    energies = json.loads(out.read_text())["energies"]
    assert energies["3/2"]["precision_bits"] == bits
    assert energies["3/2"]["exact"] is None
    assert energies["2"]["exact"] is not None


def test_energy_with_three_sets_exits_64(tmp_path, capsys):
    files = [write(tmp_path, f"{name}.json", FP_SET) for name in "abc"]
    out = tmp_path / "e.json"
    assert main(["energy", *files, "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert "TooManySets" in err
    assert_one_error_line(err)
    assert not out.exists()


def test_replay_regenerates_identical(tmp_path):
    q = write(tmp_path, "q.json", Q_SET)
    out = tmp_path / "trace.json"
    assert main(["pipeline", q, "--mode", "real", "--out", str(out)]) == 0
    first = out.read_bytes()
    out.unlink()
    assert main(["replay", str(tmp_path / "trace.manifest.json")]) == 0
    assert out.read_bytes() == first


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "expanderlab.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "expanderlab" in proc.stdout


def test_fails_aborts_with_counterexample(tmp_path, monkeypatch):
    from expanderlab import cli as cli_mod
    from expanderlab.verify import InequalityReport

    def fake_check(name, cap=None, **kwargs):
        return InequalityReport(name, 5, 4, "Fails", None, "deadbeef", "forced")

    monkeypatch.setattr(cli_mod, "check", fake_check)
    a = write(tmp_path, "a.json", FP_SET)
    b = write(tmp_path, "b.json", FP_SET_B)
    out = tmp_path / "rep.json"
    assert main(["verify", a, b, "--relation", "R6", "--out", str(out)]) == 2
    bad = out.with_suffix(".counterexample.json")
    assert bad.exists()
    doc = json.loads(bad.read_text())
    assert doc["failed"][0]["verdict"] == "Fails"


def test_inconclusive_exit_code(tmp_path, monkeypatch):
    from expanderlab import cli as cli_mod
    from expanderlab.verify import InequalityReport

    def fake_check(name, cap=None, **kwargs):
        return InequalityReport(name, None, None, "Inconclusive", None, "deadbeef", "")

    monkeypatch.setattr(cli_mod, "check", fake_check)
    a = write(tmp_path, "a.json", FP_SET)
    b = write(tmp_path, "b.json", FP_SET_B)
    assert main(["verify", a, b, "--relation", "R6"]) == 3


@pytest.mark.parametrize("relation", ["R2", "R3", "R8", "R12"])
def test_verify_empty_set_exits_64(tmp_path, capsys, relation):
    empty = write(tmp_path, "empty.json", {"field": "q", "elements": []})
    files = [empty, write(tmp_path, "b.json", Q_SET)] if relation == "R8" else [empty]
    assert main(["verify", *files, "--relation", relation]) == 64
    err = capsys.readouterr().err
    assert "A must be nonempty" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("relation", ["R7", "R9"])
@pytest.mark.parametrize("empty", ["A", "B"])
def test_verify_empty_rich_product_input_exits_64(tmp_path, capsys, relation, empty):
    sets = {"A": write(tmp_path, "a.json", Q_SET), "B": write(tmp_path, "b.json", Q_SET)}
    sets[empty] = write(tmp_path, "empty.json", {"field": "q", "elements": []})
    assert main(["verify", sets["A"], sets["B"], "--relation", relation]) == 64
    err = capsys.readouterr().err
    assert f"{empty} must be nonempty" in err
    assert "outside" not in err
    assert "Traceback" not in err


def capped_commands(tmp_path):
    """Every command that takes a precision cap, each writing to `out.json`.
    None of them needs the cap on these sets: R4 and alpha = 2 are exact."""
    a = write(tmp_path, "a.json", {"field": "q", "elements": ["2", "3", "5", "7"]})
    fp = write(tmp_path, "fp.json", {"field": "fp", "p": 109,
                                     "elements": [1, 5, 10, 31, 36, 40, 43, 65, 71]})
    return [["verify", a, "--relation", "R4"], ["verify", a, "--all"],
            ["pipeline", a, "--mode", "real"], ["pipeline", fp, "--mode", "fp"],
            ["energy", a, "--alpha", "2"]]


def assert_rejected_up_front(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 64, argv
    err = capsys.readouterr().err
    assert [line.split(":")[:2] for line in err.splitlines()] == [
        ["error", " InvalidPrecisionCap"]], argv
    assert not out.exists(), argv


@pytest.mark.parametrize("cap", ["abc", "1.5", "-5"])
def test_bad_precision_cap_env_exits_64(tmp_path, capsys, monkeypatch, cap):
    monkeypatch.setenv("EXPANDERLAB_PRECISION_CAP", cap)
    for argv in capped_commands(tmp_path):
        assert_rejected_up_front(tmp_path, capsys, argv)


def test_negative_precision_cap_option_exits_64(tmp_path, capsys):
    for argv in capped_commands(tmp_path):
        assert_rejected_up_front(tmp_path, capsys, [*argv, "--precision-cap", "-5"])


def test_verify_unknown_relation_exits_64(tmp_path, capsys):
    a = write(tmp_path, "a.json", Q_SET)
    assert main(["verify", a, "--relation", "R99"]) == 64
    assert "no relation named 'R99'" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "8"])
def test_pipeline_real_small_precision_cap(tmp_path, capsys, cap):
    q = write(tmp_path, "q.json", Q_ENCLOSED)
    out = tmp_path / "trace.json"
    assert main(["pipeline", q, "--mode", "real", "--precision-cap", cap,
                 "--out", str(out)]) in (0, 3)
    err = capsys.readouterr().err
    assert "error:" not in err and "Traceback" not in err
    assert json.loads(out.read_text())["steps"][5]["report"]["name"] == "R12"


def test_verify_r12_small_precision_cap(tmp_path):
    q = write(tmp_path, "q.json", Q_ENCLOSED)
    out = tmp_path / "rep.json"
    assert main(["verify", q, "--relation", "R12", "--precision-cap", "8",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [r["verdict"] for r in doc["reports"]] == ["SlackOnly"]
    assert doc["violations"] == []


def test_search_manifest_independent_of_cpu_count(tmp_path, monkeypatch):
    out = tmp_path / "s.csv"
    args = ["search", "--p", "53", "--n", "3", "--mode", "hillclimb", "--seed", "5",
            "--restarts", "2", "--iterations", "40", "--out", str(out)]
    manifests = []
    for cpus in (1, 64):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert main(args) == 0
        manifests.append((tmp_path / "s.manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("bad", [["--seed", "-1"], ["--seed", "18446744073709551616"],
                                 ["--restarts", "0"], ["--iterations", "-1"],
                                 ["--budget", "-1"]])
@pytest.mark.parametrize("mode", ["exhaustive", "anneal"])
def test_search_bad_config_exits_64(tmp_path, capsys, bad, mode):
    out = tmp_path / "s.csv"
    assert main(["search", "--p", "53", "--n", "3", "--mode", mode, *bad,
                 "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert "InvalidSearchConfig" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("select", [["--all"], ["--relation", "R1"]])
def test_verify_more_than_three_sets_exits_64(tmp_path, capsys, select):
    files = [write(tmp_path, f"{name}.json", FP_SET) for name in "abcd"]
    out = tmp_path / "rep.json"
    assert main(["verify", *files, *select, "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert "TooManySets" in err
    assert "Traceback" not in err
    assert not out.exists()


def exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit it raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def assert_one_error_line(err: str) -> None:
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "{q}"],                            # neither --relation nor --all
    ["verify", "{q}", "--all", "--relation", "R5"],  # both
    ["verify", "{q}", "--all", "--t", "x"],
    ["verify", "{q}", "--relation", "R2", "--precision-cap", "1.5"],
    ["pipeline", "{q}"],                          # --mode is required
    ["search", "--p", "7"],                       # --n is required
    ["frobnicate"],
    [],
])
def test_usage_errors_exit_64(tmp_path, capsys, argv):
    q = write(tmp_path, "q.json", Q_SET)
    assert exit_code([a.format(q=q) for a in argv]) == 64
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["search", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    assert exit_code(argv) == 0
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected", [
    (["verify", "{a}", "{b}", "--relation", "R8", "--epsilon", "1/0"], "nonzero denominator"),
    (["verify", "{a}", "{b}", "--relation", "R8", "--epsilon", "abc"], "nonzero denominator"),
    (["pipeline", "{a}", "--mode", "fp", "--epsilon", "1/0"], "nonzero denominator"),
    (["energy", "{a}", "--alpha", "1/0"], "nonzero denominator"),
    (["energy", "{a}", "--alpha", "abc"], "nonzero denominator"),
    (["energy", "{a}", "--alpha", "0"], "AlphaOutOfRange"),
    (["energy", "{a}", "--alpha", "1/2"], "AlphaOutOfRange"),
    (["energy", "{a}", "--alpha", "2", "--alpha", "-3"], "AlphaOutOfRange"),
    (["pipeline", "{a}", "--mode", "fp", "--epsilon", "0"], "SideConditionViolated"),
])
def test_bad_numeric_arguments_exit_64(tmp_path, capsys, argv, expected):
    a = write(tmp_path, "a.json", FP_SET)
    b = write(tmp_path, "b.json", FP_SET_B)
    out = tmp_path / "out.json"
    argv = [x.format(a=a, b=b) for x in argv] + ["--out", str(out)]
    assert exit_code(argv) == 64
    err = capsys.readouterr().err
    assert expected in err
    assert_one_error_line(err)
    assert not out.exists()


def test_verify_manifest_records_epsilon_zero(tmp_path):
    a = write(tmp_path, "a.json", FP_SET)
    b = write(tmp_path, "b.json", FP_SET_B)
    out = tmp_path / "rep.json"
    assert exit_code(["verify", a, b, "--relation", "R8", "--epsilon", "0",
                      "--out", str(out)]) == 64
    manifest = json.loads((tmp_path / "rep.manifest.json").read_text())
    assert manifest["config"]["epsilon"] == "0"


# The config each command records, and the sha256 of its whole manifest as
# the per-command config dicts wrote it before one `_config` replaced them;
# each run starts in the directory of its set files, so the bytes are fixed.
MANIFEST_CASES = {
    "verify": (
        ["verify", "a.json", "b.json", "--relation", "R6", "--out", "out/v.json"],
        {"all": False, "epsilon": "1/4", "precision_cap": None, "relation": "R6", "t": 1},
        "072a3a5790ad08afcb2a793aed5a44b2e9816b1a56d0061b4759058044d828a9"),
    "verify-all": (
        ["verify", "q.json", "--all", "--t", "2", "--epsilon", "1/8",
         "--precision-cap", "512", "--out", "out/v.json"],
        {"all": True, "epsilon": "1/8", "precision_cap": 512, "relation": None, "t": 2},
        "776209dd69a165fecf4bb6cbc41c1efcde1cb70253f284568dac40d8218ba1d7"),
    "pipeline-real": (
        ["pipeline", "q.json", "--mode", "real", "--out", "out/t.json"],
        {"epsilon": None, "mode": "real", "precision_cap": None},
        "d7f8a6d79f81ccf48ae01451f9fbe3b458a044e754ae9e7009f92c09cca9cb0c"),
    "pipeline-fp": (
        ["pipeline", "a.json", "--mode", "fp", "--epsilon", "1/32", "--precision-cap", "256",
         "--out", "out/t.json"],
        {"epsilon": "1/32", "mode": "fp", "precision_cap": 256},
        "8bb639c892f4fa7eb6e0be88f5ada8f5e02481f3ac96311ba3c98b28319a0b27"),
    "energy": (
        ["energy", "a.json", "--out", "out/e.json"],
        {"alpha": ["2"], "delta": None, "kind": "ratio", "precision_cap": None},
        "51fe5a284c47f255d3232cd1dbfdb61c6b16d9c92548a4624663605dffccc9b3"),
    "energy-two-sets": (
        ["energy", "a.json", "b.json", "--kind", "product", "--alpha", "3/2", "--alpha", "2",
         "--delta", "2", "--out", "out/e.json"],
        {"alpha": ["3/2", "2"], "delta": 2, "kind": "product", "precision_cap": None},
        "c0a2231f3fbb537a3cc2d2e15bb07cfa728e32b05a8c4350486e4c9d751f6cdf"),
}


@pytest.mark.parametrize("case", list(MANIFEST_CASES))
def test_manifest_keeps_its_config_and_bytes(tmp_path, monkeypatch, case):
    argv, config, digest = MANIFEST_CASES[case]
    monkeypatch.chdir(tmp_path)
    for name, doc in (("a.json", FP_SET), ("b.json", FP_SET_B), ("q.json", Q_SET)):
        write(tmp_path, name, doc)
    assert main(argv) == 0
    manifest = (tmp_path / (argv[-1].rsplit(".", 1)[0] + ".manifest.json")).read_bytes()
    assert json.loads(manifest)["config"] == config
    assert hashlib.sha256(manifest).hexdigest() == digest


def test_search_manifest_records_admit_degenerate(tmp_path):
    # {0, 6} reaches |A(A+1)| = 2 over F_7 only with 0 and -1 admitted
    out = tmp_path / "s.csv"
    argv = ["search", "--p", "7", "--n", "2", "--mode", "exhaustive", "--out", str(out)]
    found, configs = [], []
    for extra in ([], ["--admit-degenerate"]):
        assert main(argv + extra) == 0
        row = out.read_text().splitlines()[1].split(",")
        found.append((row[2], row[6]))
        configs.append(json.loads((tmp_path / "s.manifest.json").read_text())["config"])
    assert found == [("3", "2 4"), ("2", "0 6")]
    assert configs[0] == {"admit_degenerate": False, "budget": 2000000, "iterations": 2000,
                          "mode": "exhaustive", "n": [2], "p": 7,
                          "rational_range": [-10, 10], "restarts": 20, "seed": 0}
    assert configs[1] == dict(configs[0], admit_degenerate=True)


@pytest.mark.parametrize("content", [
    json.dumps({"field": "fp", "p": "7", "elements": [1, 2]}).encode(),
    json.dumps({"field": "fp", "p": 7.0, "elements": [1, 2]}).encode(),
    json.dumps({"field": "fp", "p": True, "elements": [1]}).encode(),
    json.dumps({"field": "fp", "p": None, "elements": [1]}).encode(),
    b'{"field": "q", "elements": ["2", "\xff"]}',     # not UTF-8
    b"\xfe\xff\x00{",
])
def test_bad_set_files_exit_64(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["verify", str(bad), "--relation", "R2"]) == 64
    err = capsys.readouterr().err
    assert "InvalidSetFile" in err
    assert_one_error_line(err)


@pytest.mark.parametrize("content", [
    b"{not json",
    b"\xff\xfe",
    b"[]",
    json.dumps({"tool": "expanderlab"}).encode(),
    json.dumps({"command": "verify"}).encode(),
    json.dumps({"command": ["verify", 3]}).encode(),
    json.dumps({"command": ["replay", "m.json"]}).encode(),
])
def test_bad_manifest_exits_64(tmp_path, capsys, content):
    manifest = tmp_path / "m.json"
    manifest.write_bytes(content)
    assert exit_code(["replay", str(manifest)]) == 64
    err = capsys.readouterr().err
    assert "InvalidManifest" in err
    assert_one_error_line(err)


def test_no_command_loads_numpy(tmp_path):
    # the package is stdlib only: numpy would cost every command memory and
    # start-up time, so no command, the fp pipeline included, may import it
    sets = {
        "q": Q_ENCLOSED,
        "a": FP_SET,
        "b": FP_SET_B,
        "c": {"field": "fp", "p": 101, "elements": [1, 4, 6]},
        "fp": {"field": "fp", "p": 109, "elements": [1, 5, 10, 31, 36, 40, 43, 65, 71]},
        # large enough for the log-mask kernels of R5, R6 and R11
        "m": {"field": "fp", "p": 1009, "elements": list(range(2, 32))},
        "mb": {"field": "fp", "p": 1009, "elements": list(range(40, 70))},
    }
    for name, doc in sets.items():
        write(tmp_path, f"{name}.json", doc)
    script = tmp_path / "run.py"
    script.write_text(
        "import json, sys\n"
        "from expanderlab.cli import main\n"
        "codes = [main(argv) for argv in (\n"
        "    ['verify', 'q.json', '--all', '--t', '2'],\n"
        "    ['verify', 'a.json', 'b.json', 'c.json', '--all'],\n"
        "    ['verify', 'a.json', '--all'],\n"
        "    ['verify', 'm.json', '--all'],\n"
        "    ['verify', 'm.json', 'mb.json', '--relation', 'R5'],\n"
        "    ['verify', 'm.json', 'mb.json', '--relation', 'R6'],\n"
        "    ['pipeline', 'q.json', '--mode', 'real', '--out', 'real.json'],\n"
        "    ['search', '--p', '31', '--n', '3', '--mode', 'exhaustive', '--out', 's1.csv'],\n"
        "    ['search', '--p', '997', '--n', '6', '--mode', 'anneal', '--seed', '5',\n"
        "     '--out', 's2.csv'],\n"
        ")]\n"
        "before = 'numpy' in sys.modules\n"
        "codes.append(main(['pipeline', 'fp.json', '--mode', 'fp', '--out', 'fp.out.json']))\n"
        "print(json.dumps([codes, before, 'numpy' in sys.modules]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-B", str(script)],
        capture_output=True, text=True, cwd=tmp_path,
        env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    codes, before, after = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == [0] * 10
    assert not before
    assert not after


# -- fuzzing the command line ---------------------------------------------------------
# Every command, on random F_p and Q set files and bad option values, ends in
# a documented exit code and never in a raw traceback.  It pins what the CLI
# does now: nothing here is checked but the code and the absence of a trace.

EXIT_CODES = {0, 2, 3, 64, 65}
PRIMES = (2, 3, 5, 7, 13, 61, 101, 1009)


@st.composite
def set_doc(draw):
    """A set file of 0-12 elements, with 0 and -1 among the draws: over a
    small F_p (sometimes the whole field) or over Q."""
    if draw(st.booleans()):
        p = draw(st.sampled_from(PRIMES))
        if p <= 13 and draw(st.integers(0, 5)) == 0:
            return {"field": "fp", "p": p, "elements": list(range(p))}
        members = st.sampled_from([0, p - 1]) | st.integers(0, p - 1)
        return {"field": "fp", "p": p,
                "elements": draw(st.lists(members, max_size=12, unique=True))}
    values = st.sampled_from(["0", "-1", "1"]) | st.fractions(-20, 20, max_denominator=6).map(str)
    return {"field": "q", "elements": draw(st.lists(values, max_size=12, unique=True))}


# good values repeat, so that most draws get past the parser
EPSILONS = ["1/4", "1/64", "1/100", "1/20", "1/8"] * 2 + ["0", "1", "-1/2", "2", "abc", "1/0"]
CAPS = [[]] * 4 + [["--precision-cap", c] for c in ("0", "8", "128", "-5", "x")]


@st.composite
def command(draw, files):
    """An argv for one of the four commands over the set files `files`."""
    name = draw(st.sampled_from(["verify", "pipeline", "search", "energy"]))
    pick = st.sampled_from
    if name == "verify":
        select = draw(pick([["--all"]] * 3 + [["--relation", f"R{k}"] for k in (1, 2, 6, 8, 99)]))
        return ["verify", *files[:draw(st.integers(1, 4))], *select,
                "--t", draw(pick(["1", "2"] * 2 + ["0", "-1", "99", "x"])),
                "--epsilon", draw(pick(EPSILONS)), *draw(pick(CAPS))]
    if name == "pipeline":
        eps = draw(pick([[], [], ["--epsilon", draw(pick(EPSILONS))]]))
        return ["pipeline", files[0], "--mode", draw(pick(["fp", "real"] * 2 + ["both"])), *eps,
                *draw(pick(CAPS))]
    if name == "search":
        primes = ["13", "61", "101"] * 3 + ["2", "3", "1", "0", "-7", "4", "x"]
        ranges = [("-3", "3"), ("-6", "6")] * 2 + [("0", "0"), ("5", "-5")]
        field = draw(pick([["--p", draw(pick(primes))],
                           ["--rational-range", *draw(pick(ranges))]]))
        sizes = st.lists(pick(["1", "2", "3"] * 3 + ["0", "-1", "20"]), min_size=1, max_size=2)
        return ["search", *field, "--n", *draw(sizes),
                "--mode", draw(pick(["exhaustive", "hillclimb", "anneal"] * 2 + ["random"])),
                "--iterations", draw(pick(["0", "5", "50", "50", "-1"])),
                "--restarts", draw(pick(["1", "2", "2", "0"])),
                "--budget", draw(pick(["3000", "3000", "10", "-1"])),
                "--seed", draw(pick(["0", "7", "7", "-1"])),
                *draw(pick([[], ["--admit-degenerate"]]))]
    alphas = draw(st.lists(pick(["2", "3/2", "1", "5/4"] * 2 + ["0", "1/2", "-3", "x"]),
                           max_size=2))
    delta = draw(pick([[], ["--delta", draw(pick(["0", "1", "3", "-1", "x"]))]]))
    return ["energy", *files[:draw(st.integers(1, 3))],
            "--kind", draw(pick(["product", "ratio", "additive"] * 2 + ["sum"])),
            *[arg for alpha in alphas for arg in ("--alpha", alpha)], *delta, *draw(pick(CAPS))]


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzzed_commands_end_in_an_exit_code(tmp_path, monkeypatch, capsys, data):
    monkeypatch.chdir(tmp_path)
    docs = [data.draw(set_doc()) for _ in range(4)]
    files = [write(tmp_path, f"s{i}.json", doc) for i, doc in enumerate(docs)]
    argv = data.draw(command(files))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    assert code in EXIT_CODES, argv
    assert "Traceback" not in capsys.readouterr().err
