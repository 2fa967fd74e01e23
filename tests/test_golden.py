"""Golden-output guard: the README's CLI commands, shrunk to run fast, must
print exactly the bytes stored under tests/golden/."""

from pathlib import Path

import pytest

from ech_staircase.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "capacities-text": "capacities --ellipsoid 1 4/3 --count 11",
    "capacities-csv": "capacities --ellipsoid 1 4/3 --count 11 --format csv",
    "accumulation-text": "accumulation --k 1 --l 1",
    "accumulation-json": "accumulation --k 1 --l 1 --format json",
    # radicands with a square factor (8 = 4*2 and a 10**18-size one), rounded to many digits
    "accumulation-2-1-p60-json": "accumulation --k 2 --l 1 --precision 60 --format json",
    "accumulation-large-k-p40": "accumulation --k 1000000007 --l 2 --precision 40",
    "ehrhart-counts": "ehrhart --triangle 1/2 1/6 --t-max 12",
    "ehrhart-fit-json": "ehrhart --triangle 1/3 1/4 --fit --format json",
    "scan-43": "scan --b 4/3 --a-lo 2 --a-hi 4 --step 1/20 --n-cap 200",
    "verify-ehrhart-tables-json": "verify --suite ehrhart-tables --format json",
    "verify-slices-json": "verify --suite slices --samples 6 --t-max 60 --format json",
    "report-43": "report-43 --t-max 40 --grid-step 1/4",
    "theorem-2-1-text": "theorem-report --k 2 --l 1 --n-cap 30 --grid-step 1/2",
    "theorem-4-3-csv": "theorem-report --k 4 --l 3 --n-cap 30 --grid-step 1/2 --format csv",
    "theorem-5-2-json": "theorem-report --k 5 --l 2 --n-cap 30 --grid-step 1/2 --format json",
    "theorem-7-3-json": "theorem-report --k 7 --l 3 --n-cap 30 --grid-step 1/2 --format json",
    # full size: default --n-cap 2000, so every capacity column is pinned at its real depth
    "theorem-7-3-full-json": "theorem-report --k 7 --l 3 --format json",
    "scan-1-full": "scan --b 1 --a-lo 1 --a-hi 8 --step 1/10",
    # integer b has the longest runs of equal target capacities
    "scan-2-full": "scan --b 2 --a-lo 1 --a-hi 7 --step 1/10",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name, capsys):
    code = main(COMMANDS[name].split())
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()


def test_theorem_report_output_file_matches_stdout(tmp_path, capsys):
    argv = COMMANDS["theorem-5-2-json"].split()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    path = tmp_path / "report.json"
    assert main(argv + ["--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == stdout.encode("utf-8")
