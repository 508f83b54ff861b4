"""Command-line interface: subcommands, formats, exit codes, determinism."""

import ast
import copy
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import sldgf
from sldgf import (BUILTIN_FAMILIES, builtin, parse_family_spec,
                   serialize_family_spec)

from test_custom_family import CATERPILLAR, SPIDER
from test_family import BAD_DOCUMENTS, isolated_vertex_document, still_document

# the child process imports the package from where the tests found it
SRC = str(Path(sldgf.__file__).resolve().parents[1])


def run_python(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *args]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    # a command that hangs fails its test instead of stalling the suite
    return subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return run_python("-m", "sldgf", *args)


def test_families_lists_builtins():
    cp = run_cli("families")
    assert cp.returncode == 0, cp.stderr
    for name in ("path", "star", "cycle", "grid_2"):
        assert name in cp.stdout


def test_gf_latex_golden():
    cp = run_cli("gf", "--family", "path", "--format", "latex")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == (
        "\\frac{1 + 2 y^{2} z^{2} - 2 x y z^{2}}"
        "{1 - y z - y^{3} z^{3} - x z + x^{2} y z^{3}}")


def test_gf_json_schema():
    cp = run_cli("gf", "--family", "star")
    data = json.loads(cp.stdout)
    assert set(data) == {"num", "den"}
    assert data["num"]["vars"] == ["x", "y", "z"]
    exponents = [tuple(t["e"]) for t in data["den"]["terms"]]
    assert exponents == sorted(exponents)


def test_sld_star_member_three():
    cp = run_cli("sld", "--family", "star", "-r", "3", "--format", "json")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout) == [1, 0, 3, 4]


def test_wep_csv():
    cp = run_cli("wep", "--family", "path", "-r", "2", "--format", "csv")
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "k,a_k"
    assert lines[1:] == ["0,1", "2,3"]


def test_verify_exits_zero_on_agreement():
    cp = run_cli("verify", "--family", "path", "--max-qubits", "9")
    assert cp.returncode == 0, cp.stderr
    assert "all agree" in cp.stdout


def test_verify_spider(tmp_path: Path):
    # a custom family with a negative qubit offset, checked by both oracles
    # up to 15 qubits
    spec_file = tmp_path / "spider.json"
    spec_file.write_text(json.dumps(SPIDER))
    cp = run_cli("verify", "--spec", str(spec_file), "--max-qubits", "15")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.endswith("all agree\n")
    assert "n=15" in cp.stdout


def test_verify_parallel_matches_serial(tmp_path: Path):
    # --jobs is still accepted, for built-in and custom families alike, and
    # changes nothing that verify prints
    spec_file = tmp_path / "caterpillar.json"
    spec_file.write_text(json.dumps(CATERPILLAR))
    for source in (("--family", "cycle"), ("--spec", str(spec_file))):
        args = ("verify", *source, "--max-qubits", "8", "--format", "csv")
        serial = run_cli(*args)
        parallel = run_cli(*args, "--jobs", "2")
        assert serial.returncode == parallel.returncode == 0, serial.stderr
        assert serial.stdout == parallel.stdout


@pytest.mark.parametrize("argv", [["gf"], ["verify", "--max-qubits", "8"]],
                         ids=["gf", "verify"])
def test_spec_is_parsed_once(monkeypatch, capsys, tmp_path: Path, argv):
    # a --spec command reads its file and parses it once
    import sldgf.cli as cli

    spec_file = tmp_path / "caterpillar.json"
    spec_file.write_text(json.dumps(CATERPILLAR))
    calls = []

    def counted(text):
        calls.append(text)
        return parse_family_spec(text)

    monkeypatch.setattr(cli, "parse_family_spec", counted)
    cli._cached_system.cache_clear()
    assert cli.main([*argv, "--spec", str(spec_file)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_verify_rejects_a_family_that_does_not_grow(tmp_path: Path):
    # a replacement with as many vertices as the boundary keeps every member
    # at one qubit, so --max-qubits bounds no member range
    spec_file = tmp_path / "still.json"
    spec_file.write_text(json.dumps(still_document()))
    cp = run_cli("verify", "--spec", str(spec_file))
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr.startswith("error:") and cp.stderr.count("\n") == 1


def test_unknown_family_exits_two():
    cp = run_cli("sld", "--family", "moebius", "-r", "3")
    assert cp.returncode == 2


@pytest.mark.parametrize("args", [
    ("ce", "--family", "path", "-r", "-1"),
    ("fidelity", "--family", "path", "-r", "-1", "--lambda", "0.5"),
    ("ce", "--family", "path", "--r-max", "-1"),
    ("wep", "--family", "path", "-r", "-1"),
    ("sld", "--family", "path", "-r", "-1"),
    ("fidelity", "--family", "path", "-r", "3", "--lambda", "abc"),
    ("fidelity", "--family", "path", "-r", "3", "--lambda", "2"),
    ("critical-lambda", "--family", "path", "-r", "3", "--tol", "0"),
    ("critical-lambda", "--family", "path", "-r", "3", "--tol", "-1"),
    ("critical-lambda", "--family", "path", "-r", "3", "--tol", "inf"),
    ("critical-lambda", "--family", "path", "-r", "0"),
    ("verify", "--family", "path", "--max-qubits", "5", "--jobs", "0"),
    ("verify", "--family", "path", "--max-qubits", "5", "--jobs", "-2"),
    ("verify", "--family", "joint_squares", "--max-qubits", "25"),
    ("verify", "--family", "path", "--max-qubits", "-3"),
    ("figure", "fig3", "--r-max", "-1"),
    ("figure", "fig4", "--r-max", "-1"),
], ids=["ce-r", "fidelity-r", "ce-r-max", "wep-r", "sld-r",
        "fidelity-lambda-text", "fidelity-lambda-above-one", "tol-zero",
        "tol-negative", "tol-infinite", "critical-lambda-r-zero", "jobs-zero",
        "jobs-negative", "max-qubits-above-cap", "max-qubits-negative",
        "fig3-r-max", "fig4-r-max"])
def test_negative_member_index_exits_two(args):
    # a negative member index and each malformed option value above is a
    # usage error
    cp = run_cli(*args)
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr.startswith("error:")
    assert "Traceback" not in cp.stderr


def test_zero_denominator_lambda_exits_two():
    cp = run_cli("fidelity", "--family", "path", "-r", "3", "--lambda", "1/0")
    assert (cp.returncode, cp.stdout) == (2, "")
    assert cp.stderr == "error: --lambda must be a number in [0, 1], got " \
        "'1/0'\n"


def test_cli_imports_no_private_names():
    # the command layer uses only the public surface of the other modules
    tree = ast.parse(Path(sldgf.__file__).with_name("cli.py").read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("sldgf"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_unknown_subcommand_exits_two():
    cp = run_cli("frobnicate")
    assert cp.returncode == 2


def test_malformed_spec_exits_two(tmp_path: Path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"name\": \"broken\"}")
    cp = run_cli("gf", "--spec", str(bad))
    assert cp.returncode == 2
    assert "error" in cp.stderr


def test_non_object_spec_exits_two(tmp_path: Path):
    # a document that is valid JSON but not an object gets one error line
    bad = tmp_path / "number.json"
    bad.write_text("5")
    cp = run_cli("gf", "--spec", str(bad))
    assert cp.returncode == 2
    assert cp.stderr == "error: family spec must be a JSON object\n"


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_non_integral_or_negative_size_exits_two(tmp_path: Path, case):
    # "n": 1.9 was truncated into another family, and "n": -1 failed late
    # in the transfer construction with exit code 1; a string boundary,
    # edge or exponent was iterated as a list (exit 0), and a string
    # prefix_weps or glue_map failed with a traceback (exit 1). Every other
    # broken rule (see _bad_documents) is reported the same way.
    document, message = BAD_DOCUMENTS[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    cp = run_cli("gf", "--spec", str(bad))
    assert (cp.returncode, cp.stdout) == (2, "")
    assert cp.stderr == f"error: {message}\n"


@pytest.mark.parametrize("terms, message", [
    ([], "zero polynomial is not a weight enumerator"),
    ([{"e": [2, -1, 0], "c": "1"}],
     "weight enumerator must have nonnegative exponents")],
    ids=["zero", "negative_exponent"])
def test_unreadable_prefix_member_exits_two(tmp_path: Path, terms, message):
    # validation reads every prefix member as a weight enumerator, so one
    # that is none is an input error before any member is computed
    document = copy.deepcopy(CATERPILLAR)
    document.update(recursion_start=2, prefix_weps=[
        document["prefix_weps"][0], {"vars": ["x", "y", "z"], "terms": terms}])
    document["qubit_count"]["offset"] = -3
    spec_file = tmp_path / "prefix.json"
    spec_file.write_text(json.dumps(document))
    cp = run_cli("sld", "--spec", str(spec_file), "-r", "1")
    assert (cp.returncode, cp.stdout) == (2, "")
    assert cp.stderr == f"error: {message}\n"


def test_custom_spec_file_loads(tmp_path: Path):
    spec_file = tmp_path / "path.json"
    spec_file.write_text(serialize_family_spec(builtin("path")))
    from_file = run_cli("gf", "--spec", str(spec_file))
    from_builtin = run_cli("gf", "--family", "path")
    assert from_file.returncode == 0, from_file.stderr
    assert from_file.stdout == from_builtin.stdout


def test_ce_csv():
    cp = run_cli("ce", "--family", "star", "--r-max", "5", "--format", "csv")
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "family,r,c_bar,c"
    assert lines[-1] == "star,5,17/32,15/32"


def test_ce_sweep_rows_equal_per_member_values(capsys):
    # the rows come from one specialised sweep; each must equal the value of
    # its member evaluated on its own
    import sldgf.cli as cli
    from sldgf import build_transfer_system, concentratable_entanglement

    cli._cached_system.cache_clear()
    assert cli.main(["ce", "--family", "grid_2", "--r-max", "12"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["r"] for row in rows] == list(range(13))
    sys_ = build_transfer_system(builtin("grid_2"))
    for row in rows:
        assert (Fraction(row["c_bar"]), Fraction(row["c"])) == \
            concentratable_entanglement(sys_, row["r"])


@pytest.mark.parametrize("family", ["cycle", "complete_bipartite_2"])
def test_fidelity_without_noise(family):
    cp = run_cli("fidelity", "--family", family, "-r", "3", "--lambda", "0")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["F_exact"] == "1/8"


def test_fidelity_report_schema():
    cp = run_cli("fidelity", "--family", "path", "-r", "10", "--lambda",
                 "0.8", "--asymptotic")
    data = json.loads(cp.stdout)
    assert set(data) == {"family", "r", "lambda", "F_exact", "F_approx",
                         "z_star", "gap"}
    assert data["lambda"] == "0.8"
    assert "/" in data["F_exact"]
    assert isinstance(data["F_approx"], float)
    assert isinstance(data["z_star"], float)
    assert data["gap"] > 1


@pytest.mark.parametrize("family", ["path", "grid_2"])
def test_fidelity_asymptotic_finds_the_pole_once(monkeypatch, capsys, family):
    # one leading term serves every row of the sweep
    import sldgf.cli as cli
    from sldgf import (analysis, build_transfer_system, fidelity_asymptotic,
                       fidelity_leading_term)

    calls = []
    dominant_singularity = analysis.dominant_singularity

    def counted(q):
        calls.append(q)
        return dominant_singularity(q)

    monkeypatch.setattr(analysis, "dominant_singularity", counted)
    cli._cached_system.cache_clear()
    assert cli.main(["fidelity", "--family", family, "--r-max", "12",
                     "--lambda", "0.8", "--asymptotic"]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    rows = json.loads(capsys.readouterr().out)
    assert [row["r"] for row in rows] == list(range(13))
    sys_ = build_transfer_system(builtin(family))
    report = fidelity_leading_term(sys_, "0.8").report
    for row in rows:
        assert row["F_approx"] == float(
            fidelity_asymptotic(sys_, Fraction(4, 5), row["r"]))
        assert row["z_star"] == float(mp.re(report.z_star))
        assert row["gap"] == float(report.modulus_gap)


def test_fidelity_gap_without_a_second_root_is_absent(capsys):
    # at lambda = 1 each reduced denominator has a single root, so there is
    # no gap; strict JSON has no Infinity to print in its place
    import sldgf.cli as cli

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    for family in BUILTIN_FAMILIES:
        argv = ["fidelity", "--family", family, "-r", "3", "--lambda", "1",
                "--asymptotic"]
        assert cli.main(argv) == 0
        row = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert row["gap"] is None and isinstance(row["F_approx"], float)
        assert cli.main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",")


def test_critical_lambda_report_schema():
    cp = run_cli("critical-lambda", "--family", "path", "--r-max", "4",
                 "--asymptotic")
    data = json.loads(cp.stdout)
    assert set(data) == {"family", "lambda_c", "lambda_c_approx"}
    assert [entry["r"] for entry in data["lambda_c"]] == [1, 2, 3, 4]
    assert data["lambda_c"][0]["value"] is None
    assert abs(data["lambda_c"][1]["value"] - 3 ** -0.25) < 1e-9
    assert isinstance(data["lambda_c_approx"], float)


def test_critical_lambda_csv():
    cp = run_cli("critical-lambda", "--family", "path", "-r", "2",
                 "--format", "csv")
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "family,r,lambda_c,lambda_c_approx"
    family, r, value, approx = lines[1].split(",")
    assert (family, r, approx) == ("path", "2", "")
    assert abs(float(value) - 3 ** -0.25) < 1e-9


def test_ce_single_member_json():
    cp = run_cli("ce", "--family", "cycle", "-r", "6")
    data = json.loads(cp.stdout)
    assert data == {"family": "cycle", "r": 6, "c_bar": "19/64", "c": "45/64"}


def test_byte_stable_outputs():
    first = run_cli("gf", "--family", "joint_squares")
    second = run_cli("gf", "--family", "joint_squares")
    assert first.stdout == second.stdout
    first = run_cli("figure", "fig3", "--r-max", "4")
    second = run_cli("figure", "fig3", "--r-max", "4")
    assert first.stdout == second.stdout


def test_figure_fig3_shape(tmp_path: Path):
    cp = run_cli("figure", "fig3", "--r-max", "5", "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    target = tmp_path / "fig3.csv"
    assert target.exists()
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "family,r,n,lambda,f_exact,f_approx,delta"
    assert len(lines) == 1 + 3 * 5
    assert all(row.split(",")[3] == "0.8" for row in lines[1:])


@pytest.mark.parametrize("figure, digest", [
    ("fig3", "0071cb40163d6fc293cada540e0283c15828c021785e89dbf464f1364ef568a4"),
    ("fig4", "e8a26c17c566d6c555e3461eb0b9cc19e4108da244e55a8b7b485c587bf466d6"),
])
def test_figure_output_is_pinned(figure, digest):
    # the SHA-256 of each figure's stdout at its default member count,
    # taken with mpmath 1.3.0; fig3's path row at r = 60 prints a delta
    # within five digits of the working precision, so its last printed
    # digits move with the last bits of the pole or the residue
    cp = run_cli("figure", figure)
    assert cp.returncode == 0, cp.stderr
    assert hashlib.sha256(cp.stdout.encode()).hexdigest() == digest


def test_figure_fig4_shape():
    cp = run_cli("figure", "fig4", "--r-max", "3")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "family,r,n,lambda_c,lambda_c_approx"
    families = {row.split(",")[0] for row in lines[1:]}
    assert families == {"path", "star", "joint_squares"}
    assert len(lines) == 1 + 3 * 3


def test_verify_exits_one_on_mismatch(monkeypatch, capsys):
    # force a disagreement to exercise the failure path in process
    import sldgf.cli as cli
    import sldgf.oracle as oracle
    from sldgf import SLD

    # verify looks the oracle up in its module when it runs
    monkeypatch.setattr(oracle, "sld_bruteforce_colouring",
                        lambda g: SLD((1,) + (0,) * (g.vertex_count - 1)
                                      + (2 ** g.vertex_count - 1,))
                        if g.vertex_count else SLD((1,)))
    cli._cached_system.cache_clear()
    code = cli.main(["verify", "--family", "path", "--max-qubits", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "MISMATCH" in out


def _exit_without_threshold(monkeypatch, capsys, argv):
    """Run argv in process with critical_lambda_asymptotic failing."""
    import sldgf.analysis as analysis
    import sldgf.cli as cli
    from sldgf import NoThresholdError

    def no_threshold(sys_, tol=1e-10):
        raise NoThresholdError("no sign change")

    monkeypatch.setattr(analysis, "critical_lambda_asymptotic", no_threshold)
    cli._cached_system.cache_clear()
    code = cli.main(argv)
    return code, capsys.readouterr()


def test_analysis_failure_exits_three(monkeypatch, capsys):
    # a missing asymptotic threshold is reported, not printed as null
    code, captured = _exit_without_threshold(
        monkeypatch, capsys,
        ["critical-lambda", "--family", "path", "--r-max", "3", "--asymptotic"])
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: no sign change\n"


def test_figure_analysis_failure_exits_three(monkeypatch, capsys):
    # fig4 reports a missing limit instead of writing an empty column
    code, captured = _exit_without_threshold(
        monkeypatch, capsys, ["figure", "fig4", "--r-max", "3"])
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: no sign change\n"


def test_isolated_vertex_limit_exits_three(tmp_path: Path):
    # the asymptotic threshold of a family whose members all lack one was
    # printed as 1.0
    spec_file = tmp_path / "isolated.json"
    spec_file.write_text(json.dumps(isolated_vertex_document()))
    cp = run_cli("critical-lambda", "--spec", str(spec_file), "--r-max", "12",
                 "--asymptotic", "--format", "csv")
    assert (cp.returncode, cp.stdout) == (3, "")
    assert cp.stderr.startswith("error: no member has a threshold")
    assert cp.stderr.count("\n") == 1


def test_still_family_limit_exits_three(tmp_path: Path):
    # the cause is named, not the indeterminate ratio it leads to
    spec_file = tmp_path / "still.json"
    spec_file.write_text(json.dumps(still_document()))
    cp = run_cli("critical-lambda", "--spec", str(spec_file), "--r-max", "3",
                 "--asymptotic")
    assert (cp.returncode, cp.stdout) == (3, "")
    assert cp.stderr == ("error: family still does not grow: its "
                         "qubit_count.step is 0\n")


def test_unwritable_figure_directory_exits_four(tmp_path: Path):
    # a file system failure has its own code, apart from verify's mismatch 1
    not_a_directory = tmp_path / "file"
    not_a_directory.write_text("")
    cp = run_cli("figure", "fig4", "--r-max", "3",
                 "--out", str(not_a_directory / "data"))
    assert cp.returncode == 4
    assert cp.stdout == ""
    assert cp.stderr.startswith("error:") and cp.stderr.count("\n") == 1


# the modules whose loading the test below checks: the numerical
# libraries, the worker pool, dataclasses, the output formats and the
# package's layers that not every command needs
_WATCHED = ("numpy", "mpmath", "concurrent.futures.process", "dataclasses",
            "json", "csv", "sldgf.transfer", "sldgf.oracle", "sldgf.analysis")

# runs one command through main in a fresh interpreter and prints, by repr
# so that the interpreter imports no json of its own, its exit code and
# which of the watched modules it loaded
_LOADED_BY = f"""
import contextlib, io, sys
from sldgf.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(repr([code, [name for name in {_WATCHED!r} if name in sys.modules]]))
"""

_SERIES = ["sldgf.transfer"]  # the members and the GF
_ORACLES = [*_SERIES, "sldgf.oracle"]
_ANALYSIS = [*_SERIES, "sldgf.analysis"]


@pytest.mark.parametrize("argv, allowed", [
    (["families"], []),
    (["gf", "--family", "grid_2"], ["json", *_SERIES]),
    (["wep", "--family", "path", "-r", "3"], ["json", *_SERIES]),
    (["sld", "--family", "star", "-r", "3"], ["json", *_SERIES]),
    (["ce", "--family", "grid_2", "--r-max", "5"], ["json", *_SERIES]),
    (["verify", "--family", "path", "--max-qubits", "6", "--jobs", "1"],
     _ORACLES),
    (["verify", "--family", "path", "--max-qubits", "6", "--jobs", "2"],
     _ORACLES),
    (["fidelity", "--family", "path", "-r", "3", "--lambda", "0.8"],
     ["json", *_ANALYSIS]),
    (["critical-lambda", "--family", "path", "--r-max", "5"],
     ["json", *_ANALYSIS]),
    (["fidelity", "--family", "path", "-r", "3", "--lambda", "0.8",
      "--asymptotic"], ["mpmath", "json", *_ANALYSIS]),
    (["critical-lambda", "--family", "path", "--r-max", "5",
      "--asymptotic"], ["mpmath", "json", *_ANALYSIS]),
    (["figure", "fig4", "--r-max", "3"], ["mpmath", "csv", *_ANALYSIS]),
], ids=["families", "gf", "wep", "sld", "ce", "verify", "verify-jobs",
        "fidelity", "critical-lambda", "fidelity-asymptotic",
        "critical-lambda-asymptotic", "figure"])
def test_commands_import_only_what_they_compute_with(argv, allowed):
    # no command loads dataclasses; families loads none of the package's
    # other modules, json or csv; only fidelity, critical-lambda and figure
    # load the analysis layer, and only verify the oracles
    cp = run_python("-c", _LOADED_BY, *argv)
    assert cp.returncode == 0, cp.stderr
    assert ast.literal_eval(cp.stdout) == [0, allowed]

