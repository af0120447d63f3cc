"""Byte identity of CLI outputs against golden files in tests/data.

Each golden file is the exact output of one CLI run written with --out.
A refactor that should not move a number must leave all of them
unchanged.  Regenerate a file only when its output is meant to change,
with the command in GOLDEN below run from the repository root, for
example

    PYTHONPATH=src python -m steerkit.cli reproduce --format json \
        --pairs 2000 --seed 5 --out tests/data/reproduce.json

where the "example" configs are the subcommand's --example-config output.
"""

from pathlib import Path

import pytest

from steerkit.cli import EXIT_OK, main

DATA = Path(__file__).parent / "data"

# golden file -> (argv before --config, config: None, "example" or a data file)
GOLDEN = {
    "reproduce.json": (["reproduce", "--format", "json", "--pairs", "2000", "--seed", "5"], None),
    "reproduce.txt": (["reproduce", "--format", "text", "--pairs", "2000", "--seed", "5"], None),
    "predict_example.json": (["predict", "--format", "json"], "example"),
    "predict_example.txt": (["predict", "--format", "text"], "example"),
    "lhs_example.json": (["lhs", "--format", "json"], "example"),
    "simulate_example.json": (["simulate", "--format", "json", "--pairs", "2000"], "example"),
    "simulate_example.txt": (["simulate", "--format", "text", "--pairs", "2000"], "example"),
    "sweep_example.json": (["sweep", "--format", "json", "--pairs", "2000"], "example"),
    "sweep_example.csv": (["sweep", "--format", "csv", "--pairs", "2000"], "example"),
    # the example sweep with drift_sigma 0.03: a Werner state drawn per point
    "sweep_drift.csv": (["sweep", "--format", "csv", "--pairs", "2000"], "drift_sweep.json"),
    # 0.9 singlet + 0.1 |HH><HH|: nonzero Bloch vectors r_A = r_B = (0, 0, 0.1)
    "simulate_matrix_state.json": (
        ["simulate", "--format", "json", "--pairs", "2000"], "matrix_state.json",
    ),
}


@pytest.mark.parametrize("golden", sorted(GOLDEN))
def test_cli_output_matches_golden_bytes(golden, tmp_path, capsys):
    argv, config = GOLDEN[golden]
    if config == "example":
        assert main([argv[0], "--example-config"]) == EXIT_OK
        path = tmp_path / "example.json"
        path.write_text(capsys.readouterr().out)
        argv = argv + ["--config", str(path)]
    elif config is not None:
        argv = argv + ["--config", str(DATA / config)]
    out = tmp_path / golden
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / golden).read_bytes()
