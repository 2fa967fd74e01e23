import csv
import io
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from ech_staircase.cli import main, parse_rational


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_rational():
    assert parse_rational("4/3") == F(4, 3)
    assert parse_rational("-7") == F(-7)
    for bad in ("4x3", "1.5", "a", "1/ 2", ""):
        with pytest.raises(Exception):
            parse_rational(bad)


def test_capacities_text_output(capsys):
    code, out, _ = run_cli(capsys, "capacities", "--ellipsoid", "1", "4/3", "--count", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert lines[-1] == "10, 4"
    assert lines[2] == "2, 4/3"


def test_capacities_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "capacities", "--ellipsoid", "1", "4/3", "--count", "5", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert [F(r["value"]) for r in rows] == [F(0), F(1), F(4, 3), F(2), F(7, 3)]


def test_accumulation_output(capsys):
    code, out, _ = run_cli(capsys, "accumulation", "--k", "1", "--l", "1")
    assert code == 0
    assert "(7+3√5)/2" in out
    assert "6.854101966" in out
    assert "per = 3" in out


def test_accumulation_usage_error(capsys):
    code, _, err = run_cli(capsys, "accumulation", "--k", "5", "--l", "7")
    assert code == 2
    assert "error" in err
    # a radicand past the surd normalisation limit is a usage error, not a hang
    code, _, err = run_cli(capsys, "accumulation", "--k", str(10**13 + 37), "--l", "2")
    assert code == 2
    assert "radicand" in err
    code, out, err = run_cli(capsys, "accumulation", "--k", "1", "--l", "1", "--precision", "0")
    assert code == 2 and out == ""
    assert "significant digit" in err
    # the digit check comes before the zero shortcut: c_0 = 0 is the only value here
    code, out, err = run_cli(capsys, "capacities", "--ellipsoid", "1", "4/3", "--count", "1",
                             "--precision", "0", "--format", "csv")
    assert code == 2 and out == ""
    assert "significant digit" in err


def test_malformed_rational_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["capacities", "--ellipsoid", "1", "4x3", "--count", "3"])
    assert exc.value.code == 2


def test_ehrhart_counts_and_fit(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "--triangle", "1/2", "1/6", "--t-max", "5")
    assert code == 0
    assert out.strip().splitlines() == ["1, 1", "2, 2", "3, 2", "4, 3", "5, 3"]
    code, out, _ = run_cli(
        capsys, "ehrhart", "--triangle", "1/2", "1/6", "--fit", "--format", "json"
    )
    rows = json.loads(out)
    assert [F(r["constant"]) for r in rows] == [F(1), F(5, 8), F(1), F(5, 8), F(2, 3), F(7, 24)]


def test_scan_csv_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--b", "4/3", "--a-lo", "2", "--a-hi", "4", "--step", "1/2",
        "--n-cap", "20",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    # every rational column re-parses to an equal value
    for row in rows:
        F(row["a"]), F(row["bullet_bound"]), F(row["capacity_bound"])
    by_a = {F(r["a"]): r for r in rows}
    assert F(by_a[F(7, 2)]["capacity_bound"]) == F(13, 8)
    assert by_a[F(3)]["volume_bound"].startswith("1.5")


@pytest.mark.parametrize("argv", [
    ("scan", "--b", "2", "--a-lo", "1", "--a-hi", "2", "--n-cap", "1000000000"),
    ("capacities", "--ellipsoid", "1", "4/3", "--count", "1000000000"),
    ("theorem-report", "--k", "2", "--l", "1", "--n-cap", "1000000000"),
])
def test_over_budget_capacity_request_is_usage_error(capsys, argv):
    # refused before any term is listed
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "at most 1000000 per request" in err


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "ehrhart-tables", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert all(r["verdict"] == "pass" for r in rows)
    assert {"name", "hypothesis", "verdict", "witness"} == set(rows[0])


def test_verify_text_mode(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "diff-identity", "--t-max", "60")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_all_suites_default_ranges(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--t-max", "300")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 10
    assert all(line.startswith("PASS") for line in lines)
    golden = Path(__file__).parent / "golden" / "verify-all.txt"
    assert out.encode("utf-8") == golden.read_bytes()


def test_verify_failure_sets_exit_status(capsys, monkeypatch):
    from ech_staircase import cli as cli_module
    from ech_staircase.analysis import NamedCheck

    forced = [NamedCheck("synthetic", "forced failure", "fail", "witness")]
    monkeypatch.setattr(cli_module, "run_suites", lambda *a, **k: forced)
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas")
    assert code == 1
    assert out.startswith("FAIL synthetic")


def test_report_43_quick(capsys):
    code, out, _ = run_cli(
        capsys, "report-43", "--t-max", "40", "--grid-step", "1/2", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5 and all(r["ok"] for r in rows)


def test_theorem_report_json(capsys):
    code, out, _ = run_cli(
        capsys, "theorem-report", "--k", "5", "--l", "1",
        "--n-cap", "30", "--grid-step", "1/2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["category"] == "general"
    assert payload["lemma"] == "integral"
    assert all(c["verdict"] in ("pass", "info") for c in payload["checks"])
    assert payload["grid"]


@pytest.mark.parametrize("k, l", [(2, 1), (4, 3), (5, 1), (5, 2), (7, 3)])
def test_theorem_report_evidence_ignores_grid_flags(capsys, k, l):
    # the grid flags shape only the scan printed next to the checks
    argv = ["theorem-report", "--k", str(k), "--l", str(l), "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, small, _ = run_cli(capsys, *argv, "--n-cap", "30", "--grid-step", "1/2")
    assert code == 0
    default, small = json.loads(out), json.loads(small)
    assert small["checks"] == default["checks"]
    assert len(small["grid"]) < len(default["grid"])


def test_verify_names_its_seed(capsys):
    rows = {}
    for seed in ("1", "2"):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "capacities", "--seed", seed, "--format", "json"
        )
        assert code == 0
        (rows[seed],) = [r for r in json.loads(out) if r["name"] == "capacity-oracle"]
    assert rows["1"] != rows["2"]
    assert "seed 1," in rows["1"]["hypothesis"]


def test_theorem_report_has_no_truncation_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theorem-report", "--t-max", "5", "--k", "4", "--l", "3"])
    assert exc.value.code == 2


def test_output_file(tmp_path, capsys):
    path = tmp_path / "caps.csv"
    code, out, _ = run_cli(
        capsys, "capacities", "--ellipsoid", "1", "2", "--count", "5",
        "--format", "csv", "--output", str(path),
    )
    assert code == 0 and out == ""
    rows = list(csv.DictReader(path.open()))
    assert [F(r["value"]) for r in rows] == [F(0), F(1), F(2), F(2), F(3)]
