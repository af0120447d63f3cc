import contextlib
import copy
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steerkit
from steerkit import lhs
from steerkit.cli import (
    EXAMPLE_CONFIGS,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
)
from steerkit.frames import frame_from_spec
from steerkit.lhs import MAX_ALICE_SETTINGS
from steerkit.reproduce import DEFAULT_SEED
from steerkit.simulate import (
    DEFAULT_PAIRS_PER_SETTING,
    MAX_PAIRS_PER_SETTING,
    MAX_RESAMPLES,
    estimate_correlation,
    propagate_uncertainty,
    simulate_counts,
)
from steerkit.states import BlochState, state_from_spec
from steerkit.steering import inequalities_for


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def with_value(config, key, value):
    """A copy of config with value at key, a top-level key or "spec.key" inside a spec."""
    config = copy.deepcopy(config)
    spec, _, name = key.rpartition(".")
    (config[spec] if spec else config)[name] = value
    return config


def assert_bob_frame_rejected(subcommand, tmp_path, capsys):
    config = write_config(tmp_path, NON_ORTHONORMAL_BOB)
    assert main([subcommand, "--config", config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bob_frame" in captured.err


TRIAD_PREDICT = {
    "state": {"kind": "werner", "W": 0.984},
    "alice_frame": {"kind": "named", "name": "standard_triad"},
    "bob_frame": {"kind": "named", "name": "standard_triad"},
}

PAIR_PREDICT = {
    "state": {"kind": "werner", "W": 0.985},
    "alice_frame": {"kind": "pair", "normal": [0, 1, 0]},
    "bob_frame": {"kind": "pair", "normal": [0, 1, 0]},
}

# One Alice setting can never demonstrate steering; with Bob's directions 60
# degrees apart the unit-ball model of his local states does not hold, so a
# "violated" or "infeasible" verdict on this config would be unsound.
NON_ORTHONORMAL_BOB = {
    "state": {"kind": "werner", "W": 0.9},
    "alice_frame": {"kind": "explicit", "directions": [[0.5, 0.0, math.sqrt(3.0) / 2.0]]},
    "bob_frame": {"kind": "explicit", "directions": [
        [0.0, 0.0, 1.0], [math.sqrt(3.0) / 2.0, 0.0, 0.5],
    ]},
    "pairs_per_setting": 2000,
    "n_resamples": 20,
}

SWEEP_CONFIG = {
    "state": {"kind": "werner", "W": 0.985},
    "alice_frame": {"kind": "pair", "normal": [0, 1, 0]},
    "bob_frame": {"kind": "pair", "normal": [0, 1, 0]},
    "sweep": {"alpha_deg": [0.0, 30.0, 60.0, 90.0]},
    "pairs_per_setting": 3000,
    "n_resamples": 20,
    "seed": 5,
}

# A sweep config with Alice's standard triad, and so with no sweep list.
TRIAD_SWEEP = {k: v for k, v in SWEEP_CONFIG.items() if k != "sweep"} | {
    "alice_frame": TRIAD_PREDICT["alice_frame"],
}


@dataclass(frozen=True)
class Around:
    """A bad config value that with_value sets in config rather than in SWEEP_CONFIG."""

    config: dict
    value: object


# every subcommand's --format choices
FORMATS = {
    "predict": ("text", "json"),
    "sweep": ("csv", "json"),
    "lhs": ("json",),
    "simulate": ("text", "json"),
    "reproduce": ("text", "json"),
}


class TestExampleConfigs:
    @pytest.mark.parametrize("subcommand", sorted(EXAMPLE_CONFIGS))
    def test_example_config_prints_valid_json(self, subcommand, capsys):
        assert main([subcommand, "--example-config"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, dict)

    def test_reproduce_example_config_holds_the_defaults(self):
        assert EXAMPLE_CONFIGS["reproduce"] == {
            "pairs_per_setting": DEFAULT_PAIRS_PER_SETTING, "seed": DEFAULT_SEED,
        }

    @pytest.mark.parametrize("subcommand, fmt", [
        (subcommand, fmt) for subcommand, formats in FORMATS.items() for fmt in formats
    ])
    def test_example_configs_actually_run(self, tmp_path, capsys, subcommand, fmt):
        # the printed templates must be accepted by their own subcommands, and
        # every format must reach stdout and --out as the same bytes
        argv = [subcommand, "--config", write_config(tmp_path, EXAMPLE_CONFIGS[subcommand]),
                "--format", fmt]
        if subcommand in ("sweep", "simulate", "reproduce"):
            argv += ["--pairs", "2000"]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert main(argv) == EXIT_OK
        written = out.read_bytes()
        # on stdout _emit ends the output with a newline if it has none
        expected = written if written.endswith(b"\n") else written + b"\n"
        assert capsys.readouterr().out.encode() == expected


class TestPredict:
    def test_json_triads(self, tmp_path, capsys):
        config = write_config(tmp_path, TRIAD_PREDICT)
        assert main(["predict", "--config", config, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["ris"]["parameter"] - 2.952) < 1e-9
        assert payload["ris"]["violated"] is True
        assert abs(payload["ris"]["bound"] - math.sqrt(3.0)) < 1e-12
        assert "nss" not in payload
        correlation = np.asarray(payload["correlation"])
        assert np.allclose(correlation, -0.984 * np.eye(3), atol=1e-12)

    def test_json_pairs_include_nss(self, tmp_path, capsys):
        config = write_config(tmp_path, PAIR_PREDICT)
        assert main(["predict", "--config", config, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["nss"]["parameter"] - 1.97) < 1e-9
        assert abs(payload["ris"]["parameter"] - 1.97) < 1e-9
        # ideal-model parameters carry no uncertainty
        assert payload["ris"]["uncertainty"] is None
        assert payload["nss"]["uncertainty"] is None

    def test_text_output(self, tmp_path, capsys):
        config = write_config(tmp_path, TRIAD_PREDICT)
        assert main(["predict", "--config", config]) == EXIT_OK
        out = capsys.readouterr().out
        assert "correlation matrix (3 x 3):" in out
        assert "ris: parameter 2.952" in out
        assert "violated" in out

    def test_non_orthonormal_bob_frame_rejected(self, tmp_path, capsys):
        # printed "ris: parameter 1.10227, ..., violated" with exit 0 before
        assert_bob_frame_rejected("predict", tmp_path, capsys)

    @pytest.mark.parametrize("gram_error, code", [(5e-10, EXIT_CONFIG), (5e-11, EXIT_OK)])
    def test_bob_frame_gram_tolerance(self, tmp_path, capsys, gram_error, code):
        # Bob's frame was accepted up to a Gram error of 1e-9 before
        config = write_config(tmp_path, dict(TRIAD_PREDICT, bob_frame={
            "kind": "explicit", "directions": [[1.0, 0.0, 0.0], [gram_error, 1.0, 0.0]],
        }))
        assert main(["predict", "--config", config]) == code
        assert ("bob_frame" in capsys.readouterr().err) == (code == EXIT_CONFIG)

    @pytest.mark.parametrize("key, spec, extra", [
        ("alice_frame", {"kind": "explicit", "directions": [[0.0, 0.0, 1.0]], "phi_deg": 30.0},
         "phi_deg"),
        ("state", {"kind": "werner", "W": 0.984, "re": np.eye(4).tolist()}, "re"),
    ], ids=["explicit-phi_deg", "werner-re"])
    def test_spec_key_its_kind_does_not_read_exits_config(self, tmp_path, capsys, key, spec,
                                                          extra):
        # each exited 0 before, with the key ignored
        config = write_config(tmp_path, TRIAD_PREDICT | {key: spec})
        assert main(["predict", "--config", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f'{spec["kind"]} ' in captured.err
        assert f'does not read key "{extra}"' in captured.err

    def test_out_file(self, tmp_path):
        config = write_config(tmp_path, TRIAD_PREDICT)
        out_path = tmp_path / "predict.json"
        assert main(["predict", "--config", config, "--format", "json",
                     "--out", str(out_path)]) == EXIT_OK
        payload = json.loads(out_path.read_text())
        assert "ris" in payload


class TestConfigErrors:
    def test_missing_config_flag(self, capsys):
        assert main(["predict"]) == EXIT_CONFIG
        assert "--config" in capsys.readouterr().err

    def test_nonexistent_config_path(self, capsys):
        assert main(["predict", "--config", "/nonexistent/config.json"]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["predict", "--config", str(path)]) == EXIT_CONFIG

    def test_missing_required_key(self, tmp_path, capsys):
        config = write_config(tmp_path, {"state": {"kind": "werner", "W": 0.9}})
        assert main(["predict", "--config", config]) == EXIT_CONFIG
        assert 'requires key "alice_frame"' in capsys.readouterr().err

    def test_unphysical_state(self, tmp_path, capsys):
        bad = dict(TRIAD_PREDICT, state={"kind": "werner", "W": 1.4})
        config = write_config(tmp_path, bad)
        assert main(["predict", "--config", config]) == EXIT_CONFIG

    @pytest.mark.parametrize("entry, message", [
        ("1e400", "entries must be finite"),
        ("-1e400", "entries must be finite"),
        (str(10**400), '"re"'),
    ], ids=["1e400", "-1e400", "10**400"])
    def test_matrix_entry_past_float_range_exits_config(self, tmp_path, entry, message):
        # 1e400 printed two numpy RuntimeWarnings before its error; 10**400 exited 3
        re = (np.eye(4) / 4.0).tolist()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TRIAD_PREDICT, state={"kind": "matrix", "re": re}))
                        .replace("0.25", entry, 1))
        src = str(Path(steerkit.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "steerkit.cli", "predict", "--config", str(path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == EXIT_CONFIG
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and message in done.stderr
        assert done.stderr.count("\n") == 1, done.stderr

    @pytest.mark.parametrize("key, value", [
        pytest.param("alice_frame.normal", ["0", "1", "0"], id="normal-strings"),
        pytest.param("bob_frame.directions", [[True, 0.0, 0.0], [0.0, 1.0, 0.0]],
                     id="directions-bool"),
        pytest.param("state.re", [["0.25", 0.0, 0.0, 0.0]] + (np.eye(4) / 4.0).tolist()[1:],
                     id="re-string"),
        pytest.param("state.im", [[False] * 4] * 4, id="im-bools"),
    ])
    def test_non_number_array_entry_exits_config(self, tmp_path, capsys, key, value):
        # each exited 0 before: numpy converted the strings and bools to floats
        config = {
            "state": {"kind": "matrix", "re": (np.eye(4) / 4.0).tolist()},
            "alice_frame": {"kind": "pair", "normal": [0, 1, 0]},
            "bob_frame": {"kind": "explicit", "directions": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
        }
        path = write_config(tmp_path, with_value(config, key, value))
        assert main(["predict", "--config", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f'config key "{key.rpartition(".")[2]}"' in captured.err

    def test_non_object_root(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        assert main(["predict", "--config", str(path)]) == EXIT_CONFIG


class TestSweep:
    def test_csv_output_and_determinism(self, tmp_path):
        config = write_config(tmp_path, SWEEP_CONFIG)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["sweep", "--config", config, "--out", str(first)]) == EXIT_OK
        assert main(["sweep", "--config", config, "--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().strip().splitlines()
        assert lines[0].startswith("alpha_deg,ris_pred,ris_sim")
        assert len(lines) == 5

    def test_seed_override_changes_output(self, tmp_path):
        config = write_config(tmp_path, SWEEP_CONFIG)
        base = tmp_path / "a.csv"
        reseeded = tmp_path / "b.csv"
        assert main(["sweep", "--config", config, "--out", str(base)]) == EXIT_OK
        assert main(["sweep", "--config", config, "--seed", "99",
                     "--out", str(reseeded)]) == EXIT_OK
        assert base.read_bytes() != reseeded.read_bytes()

    def test_json_format(self, tmp_path, capsys):
        config = write_config(tmp_path, SWEEP_CONFIG)
        assert main(["sweep", "--config", config, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 4
        assert abs(payload[0]["ris_pred"] - 1.97) < 1e-9
        assert list(payload[0]) == [
            "alpha_deg", "ris_pred", "ris_sim", "ris_err", "nss_pred", "nss_sim", "nss_err",
            "ris_bound", "nss_bound", "ris_violated", "nss_violated",
        ]

    def test_non_orthonormal_bob_frame_rejected(self, tmp_path, capsys):
        assert_bob_frame_rejected("sweep", tmp_path, capsys)

    def test_pairs_override(self, tmp_path, capsys):
        config = write_config(tmp_path, SWEEP_CONFIG)
        assert main(["sweep", "--config", config, "--pairs", "500",
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        # fewer pairs, larger statistical error
        assert payload[0]["ris_err"] > 0.005

    @pytest.mark.parametrize("key, value", [
        ("pairs_per_setting", 0),
        ("pairs_per_setting", 1e30),
        ("pairs_per_setting", "2000"),
        ("pairs_per_setting", 2000.0),
        ("pairs_per_setting", MAX_PAIRS_PER_SETTING + 1),
        ("seed", -1),
        ("seed", True),
        ("n_resamples", "x"),
        ("n_resamples", 1),
        ("n_resamples", MAX_RESAMPLES + 1),
        ("sys_angle_deg", "x"),
        ("drift_sigma", "x"),
        ("phi_deg", "x"),
        ("sweep", 5),
        ("sweep", {"alpha_deg": 5}),
        ("inequalities", "ris"),
        # the removed keys exit whatever their value, their old defaults too
        ("phi_deg", 0.0),
        pytest.param("inequalities", ["ris", "nss"], id="inequalities-default"),
        ("state.W", True),
        ("state.W", "0.9"),
        pytest.param("bob_frame.alpha_deg", 10**400, id="bob_frame.alpha_deg-10**400"),
        ("bob_frame.phi_deg", math.inf),
        pytest.param("bob_frame.normal", [0, 1, 10**400], id="bob_frame.normal-10**400"),
        pytest.param("alice_frame.normal", [0, 1, 10**400], id="alice_frame.normal-10**400"),
        pytest.param("alice_frame.normal", ["0", "1", "0"], id="alice_frame.normal-strings"),
        pytest.param("bob_frame.normal", [False, True, False], id="bob_frame.normal-bools"),
        # the Alice pair spec's own numbers are checked under the sweep list
        ("alice_frame.alpha_deg", "x"),
        ("alice_frame.phi_deg", True),
        # a named frame reads no alpha_deg; it printed alpha_deg 30.0 and the
        # untilted triad's ris_pred before
        pytest.param("alice_frame.alpha_deg", Around(TRIAD_SWEEP, 30),
                     id="alice_frame.alpha_deg-30-triad"),
    ])
    def test_bad_config_value_exits_config(self, tmp_path, capsys, key, value):
        base = SWEEP_CONFIG
        if isinstance(value, Around):
            base, value = value.config, value.value
        config = write_config(tmp_path, with_value(base, key, value))
        assert main(["sweep", "--config", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f'"{key.rpartition(".")[2]}"' in captured.err

    @pytest.mark.parametrize("alpha", ["x", None, math.inf])
    def test_bad_swept_alpha_exits_config(self, tmp_path, capsys, alpha):
        config = write_config(tmp_path, SWEEP_CONFIG | {"sweep": {"alpha_deg": [0.0, alpha]}})
        assert main(["sweep", "--config", config]) == EXIT_CONFIG
        assert "alpha_deg" in capsys.readouterr().err


class TestInequalities:
    # Alice frames of m = 1, 2 and 3 settings against Bob's standard triad
    @pytest.mark.parametrize("alice", [
        {"kind": "explicit", "directions": [[0.0, 0.0, 1.0]]},
        {"kind": "pair", "normal": [0, 1, 0], "alpha_deg": 20.0},
        {"kind": "named", "name": "standard_triad"},
    ], ids=["m1", "m2", "m3"])
    def test_subcommands_agree_on_which_inequalities_apply(self, tmp_path, capsys, alice):
        config = write_config(tmp_path, dict(TRIAD_PREDICT, alice_frame=alice,
                                              pairs_per_setting=500, n_resamples=5))
        m = frame_from_spec(alice).size
        tags = set(inequalities_for(m))
        outputs = {}
        for subcommand in ("predict", "simulate", "sweep"):
            assert main([subcommand, "--config", config, "--format", "json"]) == EXIT_OK
            outputs[subcommand] = json.loads(capsys.readouterr().out)
        assert {"ris", "nss"} & set(outputs["predict"]) == tags
        assert ("nss" in outputs["predict"]) == (m == 2)
        assert set(outputs["simulate"]["assessments"]) == tags
        [row] = outputs["sweep"]
        nss_cells = [row[f"nss_{column}"] for column in ("pred", "sim", "err", "bound", "violated")]
        assert all(cell is not None for cell in nss_cells) == (m == 2)
        assert all(cell is None for cell in nss_cells) == (m != 2)


class TestLhs:
    def test_infeasible_matrix(self, tmp_path, capsys):
        config = write_config(tmp_path, {"matrix": [[-0.8, 0.0], [0.0, -0.8]]})
        assert main(["lhs", "--config", config]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "infeasible"
        assert payload["gap"] > 0.1
        assert np.asarray(payload["separator"]).shape == (2, 2)

    def test_feasible_matrix_with_model(self, tmp_path, capsys):
        config = write_config(tmp_path, {"matrix": [[-0.5, 0.0], [0.0, -0.5]]})
        assert main(["lhs", "--config", config]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "feasible"
        atoms = payload["model"]["atoms"]
        assert 1 <= len(atoms) <= 5
        assert abs(sum(a["weight"] for a in atoms) - 1.0) < 1e-9

    def test_state_and_frames_route(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "state": {"kind": "werner", "W": 0.5},
            "alice_frame": {"kind": "named", "name": "standard_triad"},
            "bob_frame": {"kind": "named", "name": "standard_triad"},
        })
        assert main(["lhs", "--config", config]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "feasible"

    def test_indeterminate_exit_code(self, tmp_path, capsys):
        # -I/sqrt(3) lies exactly on the LHS boundary; the exact oracle
        # decides it, so there is no indeterminate verdict or exit code
        w = 1.0 / math.sqrt(3.0)
        config = write_config(tmp_path, {
            "matrix": [[-w, 0.0, 0.0], [0.0, -w, 0.0], [0.0, 0.0, -w]],
        })
        assert main(["lhs", "--config", config]) == EXIT_OK
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["status"] == "feasible"
        assert payload["gap"] <= 1e-9
        assert "indeterminate" not in captured.err

    def test_grid_degree_flag(self, tmp_path, capsys):
        config = write_config(tmp_path, {"matrix": [[-0.5, 0.0], [0.0, -0.5]]})
        with pytest.raises(SystemExit) as exit_info:
            main(["lhs", "--config", config, "--grid-deg", "3.0"])
        assert exit_info.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --grid-deg" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--sphere-points", "2000"),
        ("--tol", "1e-7"),
    ])
    def test_removed_grid_flags_exit_config(self, tmp_path, capsys, flag, value):
        config = write_config(tmp_path, {"matrix": [[-0.5, 0.0], [0.0, -0.5]]})
        with pytest.raises(SystemExit) as exit_info:
            main(["lhs", "--config", config, flag, value])
        assert exit_info.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_non_orthonormal_bob_frame_rejected(self, tmp_path, capsys):
        assert_bob_frame_rejected("lhs", tmp_path, capsys)

    def test_icosahedron_werner_certified_below_ris(self, capsys):
        # Alice on the six icosahedron axes and W = 0.56, between 1/C_6 = 0.5393
        # and the RIS threshold 1/sqrt(3): only the exact oracle certifies it
        config = str(Path(__file__).parent / "data" / "icosahedron_werner.json")
        assert main(["predict", "--format", "json", "--config", config]) == EXIT_OK
        predicted = json.loads(capsys.readouterr().out)
        assert predicted["ris"]["violated"] is False
        assert abs(predicted["ris"]["parameter"] - 3.0 * math.sqrt(2.0) * 0.56) <= 1e-12
        assert main(["lhs", "--config", config]) == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["status"] == "infeasible"
        g = np.array(verdict["separator"])
        support = max(np.linalg.norm(np.array(a) @ g) for a in itertools.product((-1, 1), repeat=6))
        score = float(np.sum(g * np.array(predicted["correlation"])))
        assert support <= 1.0 + 1e-12
        assert score > support
        assert main(["simulate", "--pairs", "2000", "--config", config]) == EXIT_OK

    def test_undecided_verdict_exits_numeric(self, tmp_path, capsys, monkeypatch):
        # a solver stopped at its starting point Z = 0 leaves the verdict
        # undecided, as in test_lhs's test_undecided_matrix_raises
        raw = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 3))
        config = write_config(tmp_path, {"matrix": (raw / lhs.lhs_gauge(raw)).tolist()})
        monkeypatch.setattr(lhs, "_smoothed_newton", lambda v0, null: (v0, lhs._unit_rows(v0)[1]))
        assert main(["lhs", "--config", config]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "undecided" in captured.err

    @pytest.mark.parametrize("matrix", [
        [[-0.5, 0.0], [0.0]],
        [["a", "b"], ["c", "d"]],
        [[-0.5, None], [0.0, -0.5]],
        "x",
        # ran as [[1.0, 0.0], [0.0, -0.5]] before
        pytest.param([[True, 0.0], [0.0, -0.5]], id="bool-entry"),
    ])
    def test_malformed_matrix_exits_config(self, tmp_path, capsys, matrix):
        config = write_config(tmp_path, {"matrix": matrix})
        assert main(["lhs", "--config", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert '"matrix"' in captured.err


class TestImports:
    def test_scipy_is_not_imported(self):
        src = str(Path(steerkit.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c",
             "import steerkit, steerkit.cli, sys; print('scipy' in sys.modules)"],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.strip() == "False"


class TestSimulate:
    def test_text_run(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(TRIAD_PREDICT, pairs_per_setting=2000,
                                             n_resamples=20, seed=3))
        assert main(["simulate", "--config", config]) == EXIT_OK
        out = capsys.readouterr().out
        assert "estimated correlation (3 x 3), 2000 pairs per setting:" in out
        assert "ris: parameter" in out

    def test_json_run_deterministic(self, tmp_path):
        config = write_config(tmp_path, dict(PAIR_PREDICT, pairs_per_setting=2000,
                                             n_resamples=20, seed=3))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["simulate", "--config", config, "--format", "json",
                     "--out", str(first)]) == EXIT_OK
        assert main(["simulate", "--config", config, "--format", "json",
                     "--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert np.asarray(payload["counts"]).shape == (2, 2, 4)
        assert "nss" in payload["assessments"]
        assert payload["assessments"]["ris"]["uncertainty"] > 0.0

    def test_json_assessments_carry_bootstrap_std(self, tmp_path, capsys):
        config = dict(PAIR_PREDICT, pairs_per_setting=2000, n_resamples=20, seed=3)
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", path, "--format", "json"]) == EXIT_OK
        assessments = json.loads(capsys.readouterr().out)["assessments"]
        state = BlochState(state_from_spec(config["state"]))
        record = simulate_counts(state, frame_from_spec(config["alice_frame"]),
                                 frame_from_spec(config["bob_frame"]), 2000, seed=3)
        est = estimate_correlation(record)
        for tag, stream in (("ris", 1), ("nss", 2)):
            assert list(assessments[tag]) == [
                "inequality", "parameter", "bound", "margin", "violated", "uncertainty",
            ]
            _, std = propagate_uncertainty(est, tag, 20, seed=(3, stream))
            assert assessments[tag]["uncertainty"] == std

    def test_non_orthonormal_bob_frame_rejected(self, tmp_path, capsys):
        # reported a violated ris parameter with exit 0 before
        assert_bob_frame_rejected("simulate", tmp_path, capsys)

    def test_pairs_override(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(TRIAD_PREDICT, pairs_per_setting=2000,
                                             n_resamples=20, seed=3))
        assert main(["simulate", "--config", config, "--pairs", "500"]) == EXIT_OK
        assert "500 pairs per setting" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [
        ("pairs_per_setting", 0),
        ("pairs_per_setting", 1e30),
        ("pairs_per_setting", "2000"),
        ("pairs_per_setting", 2000.0),
        ("pairs_per_setting", MAX_PAIRS_PER_SETTING + 1),
        ("seed", -1),
        ("seed", True),
        ("n_resamples", "x"),
        ("n_resamples", 1),
        ("n_resamples", 20.5),
        ("n_resamples", MAX_RESAMPLES + 1),
        ("sys_angle_deg", "x"),
        ("state.W", True),
        ("state.W", "0.9"),
        pytest.param("alice_frame.alpha_deg", 10**400, id="alice_frame.alpha_deg-10**400"),
        ("alice_frame.phi_deg", math.inf),
        pytest.param("alice_frame.normal", [0, 1, 10**400], id="alice_frame.normal-10**400"),
        pytest.param("bob_frame.normal", [0, 1, 10**400], id="bob_frame.normal-10**400"),
        pytest.param("alice_frame.normal", ["0", "1", "0"], id="alice_frame.normal-strings"),
        pytest.param("bob_frame.normal", [False, True, False], id="bob_frame.normal-bools"),
    ])
    def test_bad_config_value_exits_config(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, with_value(
            dict(PAIR_PREDICT, pairs_per_setting=2000, n_resamples=20, seed=3), key, value))
        assert main(["simulate", "--config", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f'"{key.rpartition(".")[2]}"' in captured.err


class TestReproduce:
    def test_text_report(self, capsys):
        assert main(["reproduce", "--pairs", "2000", "--seed", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("case")
        assert "NO" in out
        assert "note:" in out
        assert "tetrahedron" in out

    def test_json_report(self, capsys):
        assert main(["reproduce", "--pairs", "2000", "--seed", "5",
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 11
        assert list(payload[0]) == [
            "case", "inequality", "reported", "reported_err", "predicted",
            "simulated", "sim_err", "bound", "reproducible", "note",
        ]

    def test_config_matches_flags(self, tmp_path, capsys):
        # the config was accepted but never read before
        config = write_config(tmp_path, {"pairs_per_setting": 2000, "seed": 5})
        assert main(["reproduce", "--config", config]) == EXIT_OK
        from_config = capsys.readouterr().out
        assert main(["reproduce", "--pairs", "2000", "--seed", "5"]) == EXIT_OK
        assert from_config == capsys.readouterr().out

    def test_flags_override_config(self, tmp_path, capsys):
        config = write_config(tmp_path, {"pairs_per_setting": 3000, "seed": 9})
        assert main(["reproduce", "--config", config, "--pairs", "2000",
                     "--seed", "5"]) == EXIT_OK
        from_flags = capsys.readouterr().out
        assert main(["reproduce", "--pairs", "2000", "--seed", "5"]) == EXIT_OK
        assert from_flags == capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [
        ("pairs_per_setting", 0),
        ("pairs_per_setting", 1e30),
        ("pairs_per_setting", "2000"),
        ("pairs_per_setting", 2000.0),
        ("pairs_per_setting", MAX_PAIRS_PER_SETTING + 1),
        ("seed", -1),
        ("seed", True),
    ])
    def test_bad_config_value_exits_config(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, {key: value})
        assert main(["reproduce", "--config", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err


SCALAR_KEYS = (
    "pairs_per_setting", "seed", "n_resamples", "sys_angle_deg", "drift_sigma", "phi_deg",
)
# Any JSON value a scalar key could be given: null, bools, strings, short lists
# and objects, any float (NaN and +-inf included), small integers on both sides
# of each minimum, and integers past both caps.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.floats(), st.integers(min_value=-2, max_value=60),
    st.integers(min_value=MAX_PAIRS_PER_SETTING + 1),
)


class TestScalarKeys:
    @pytest.mark.parametrize("subcommand", ["sweep", "simulate", "reproduce"])
    @pytest.mark.parametrize("flag, value, key", [
        ("--seed", "-1", "seed"),
        ("--pairs", "0", "pairs_per_setting"),
    ])
    def test_bad_flag_exits_config(self, tmp_path, capsys, subcommand, flag, value, key):
        configs = {"sweep": SWEEP_CONFIG, "simulate": dict(TRIAD_PREDICT, n_resamples=20),
                   "reproduce": {}}
        config = write_config(tmp_path, configs[subcommand])
        assert main([subcommand, "--config", config, flag, value]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err

    @pytest.mark.parametrize("subcommand", sorted(EXAMPLE_CONFIGS))
    def test_unknown_key_exits_config(self, tmp_path, capsys, subcommand):
        # a misspelt key used to run on the default it meant to override
        config = write_config(tmp_path, EXAMPLE_CONFIGS[subcommand] | {"pair_per_setting": 50})
        assert main([subcommand, "--config", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert '"pair_per_setting"' in captured.err

    @pytest.mark.parametrize("key, value", [("phi_deg", 64.0), ("inequalities", ["ris"])])
    def test_removed_sweep_key_keeps_its_message(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, SWEEP_CONFIG | {key: value})
        assert main(["sweep", "--config", config]) == EXIT_CONFIG
        assert f'"{key}" was removed' in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(SCALAR_KEYS), value=JSON_VALUES)
    def test_any_scalar_value_exits_ok_or_names_key(self, key, value):
        config = dict(SWEEP_CONFIG, pairs_per_setting=50, n_resamples=5,
                      sweep={"alpha_deg": [0.0, 45.0]}) | {key: value}
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), config)
            out = str(Path(tmp) / "out.txt")
            for subcommand in ("simulate", "sweep", "reproduce"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([subcommand, "--config", path, "--out", out])
                assert code in (EXIT_OK, EXIT_CONFIG), (subcommand, key, value)
                if code == EXIT_CONFIG:
                    assert key in err.getvalue(), (subcommand, key, value, err.getvalue())


# Any JSON value tree: null, bools, ints, any float (NaN and +-inf included),
# strings, lists and objects.  Some objects are specs of a known kind with
# any subset of that kind's keys, so that some trees pass the kind and key
# checks; the spec reader tests cover keys a kind does not read.
SPEC_KEYS = {
    "werner": ("W",),
    "matrix": ("re", "im"),
    "named": ("name",),
    "pair": ("normal", "phi_deg", "alpha_deg"),
    "explicit": ("directions",),
}
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(("standard_triad", "ris", "nss")),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=4)
    | st.sampled_from(sorted(SPEC_KEYS)).flatmap(lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind)}, optional=dict.fromkeys(SPEC_KEYS[kind], children),
    )),
    max_leaves=16,
)
# config key -> the subcommands that read it
TREE_KEYS = {
    "state": ("predict", "sweep", "lhs", "simulate"),
    "alice_frame": ("predict", "sweep", "lhs", "simulate"),
    "bob_frame": ("predict", "sweep", "lhs", "simulate"),
    "sweep": ("sweep",),
    "inequalities": ("sweep",),
    "matrix": ("lhs",),
}


class TestJsonTrees:
    @settings(max_examples=100, deadline=None)
    @given(key=st.sampled_from(sorted(TREE_KEYS)), value=JSON_TREES)
    def test_any_json_tree_exits_ok_config_or_numeric(self, key, value):
        config = dict(SWEEP_CONFIG, pairs_per_setting=50, n_resamples=2,
                      sweep={"alpha_deg": [0.0, 45.0]}) | {key: value}
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), config)
            out = str(Path(tmp) / "out.txt")
            for subcommand in TREE_KEYS[key]:
                with contextlib.redirect_stderr(io.StringIO()):
                    code = main([subcommand, "--config", path, "--out", out])
                assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC), (subcommand, key, value)


# Direction components: a few plain values, so that some frames are accepted,
# mixed with any float, NaN and +-inf included.
COMPONENTS = st.one_of(st.sampled_from((0.0, 1.0, -1.0, 0.5)), st.floats())
DIRECTIONS = st.lists(st.lists(COMPONENTS, min_size=3, max_size=3), min_size=1, max_size=3)
# Alice's frames run one past her cap.
ALICE_DIRECTIONS = st.lists(
    st.lists(COMPONENTS, min_size=3, max_size=3), min_size=1, max_size=MAX_ALICE_SETTINGS + 1
)


class TestExplicitDirections:
    def test_nan_bob_direction_exits_config(self, tmp_path, capsys):
        # exited 3 ("outcome probabilities sum to 0.0") before
        config = write_config(tmp_path, dict(TRIAD_PREDICT, pairs_per_setting=100, bob_frame={
            "kind": "explicit", "directions": [[math.nan, 0.0, 0.0], [0.0, 0.0, 1.0]],
        }))
        assert main(["simulate", "--config", config]) == EXIT_CONFIG
        assert "direction must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["predict", "simulate"])
    @pytest.mark.parametrize("party", ["alice_frame", "bob_frame"])
    def test_direction_past_float_range_exits_config(self, tmp_path, capsys, subcommand, party):
        # exited 3 with "int too large to convert to float" before
        config = write_config(tmp_path, dict(TRIAD_PREDICT, pairs_per_setting=100) | {
            party: {"kind": "explicit", "directions": [[1, 0, 0], [0, 1, 10**400]]},
        })
        assert main([subcommand, "--config", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert '"directions"' in captured.err

    @pytest.mark.parametrize("subcommand", ["predict", "lhs", "simulate"])
    def test_too_many_alice_directions_exit_config(self, tmp_path, capsys, subcommand):
        # one past the cap: the six axes through the edge midpoints of a cube,
        # plus x
        axes = [[0, 1, 1], [0, 1, -1], [1, 1, 0], [1, -1, 0], [1, 0, 1], [-1, 0, 1], [1, 0, 0]]
        directions = (np.array(axes) / np.linalg.norm(axes, axis=1, keepdims=True)).tolist()
        config = write_config(tmp_path, dict(TRIAD_PREDICT, pairs_per_setting=100) | {
            "alice_frame": {"kind": "explicit", "directions": directions},
        })
        assert main([subcommand, "--config", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alice_frame: a frame holds 1 to 6 directions, got 7" in captured.err

    @settings(max_examples=60, deadline=None)
    @given(alice=ALICE_DIRECTIONS, bob=DIRECTIONS)
    def test_any_explicit_directions_exit_ok_or_config(self, alice, bob):
        config = {
            "state": {"kind": "werner", "W": 0.9},
            "alice_frame": {"kind": "explicit", "directions": alice},
            "bob_frame": {"kind": "explicit", "directions": bob},
            "pairs_per_setting": 50,
            "n_resamples": 5,
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), config)
            out = str(Path(tmp) / "out.txt")
            for subcommand in ("predict", "simulate"):
                with contextlib.redirect_stderr(io.StringIO()):
                    code = main([subcommand, "--config", path, "--out", out])
                assert code in (EXIT_OK, EXIT_CONFIG), (subcommand, config)


class TestNonFiniteSettings:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_simulate_sys_angle_config_exits_config(self, tmp_path, capsys, value):
        # NaN exited 0 with the systematic dropped; inf exited 2 with
        # "math domain error"
        config = write_config(tmp_path, dict(TRIAD_PREDICT, pairs_per_setting=200,
                                             n_resamples=5, sys_angle_deg=value))
        assert main(["simulate", "--config", config]) == EXIT_CONFIG
        assert "sys_angle" in capsys.readouterr().err

    def test_simulate_sys_angle_flag_exits_config(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(TRIAD_PREDICT, pairs_per_setting=200,
                                             n_resamples=5))
        assert main(["simulate", "--config", config, "--sys-angle-deg", "nan"]) == EXIT_CONFIG
        assert "sys_angle" in capsys.readouterr().err

    def test_sweep_nan_drift_exits_config(self, tmp_path, capsys):
        # exited 0 with no drift applied before
        config = write_config(tmp_path, dict(SWEEP_CONFIG, drift_sigma=math.nan))
        assert main(["sweep", "--config", config]) == EXIT_CONFIG
        assert "drift_sigma" in capsys.readouterr().err

    @settings(max_examples=40, deadline=None)
    @given(sys_angle_deg=st.floats(), drift_sigma=st.floats())
    def test_any_sys_angle_and_drift_exit_ok_or_config(self, sys_angle_deg, drift_sigma):
        config = dict(SWEEP_CONFIG, pairs_per_setting=50, n_resamples=5,
                      sweep={"alpha_deg": [0.0, 45.0]},
                      sys_angle_deg=sys_angle_deg, drift_sigma=drift_sigma)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), config)
            out = str(Path(tmp) / "out.txt")
            for subcommand in ("simulate", "sweep"):
                with contextlib.redirect_stderr(io.StringIO()):
                    code = main([subcommand, "--config", path, "--out", out])
                assert code in (EXIT_OK, EXIT_CONFIG), (subcommand, config)
