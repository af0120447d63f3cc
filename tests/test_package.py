import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import steerkit
from steerkit.cli import EXAMPLE_CONFIGS


def fresh_output(code: str) -> list[str]:
    """The words `code` prints in a fresh interpreter that imports this steerkit."""
    src = str(Path(steerkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    return done.stdout.split()


def loaded_submodules(statement: str, package: str = "steerkit") -> list[str]:
    """package's submodules in sys.modules after `statement` in a fresh interpreter."""
    return fresh_output(
        f"{statement}; import sys; "
        f"print(' '.join(sorted(m for m in sys.modules if m.startswith({package + '.'!r}))))"
    )


class TestLazyNamespace:
    def test_import_loads_no_submodule(self):
        assert loaded_submodules("import steerkit") == []

    def test_submodule_import_loads_only_that_submodule(self):
        assert loaded_submodules("import steerkit, steerkit.lhs") == ["steerkit.lhs"]

    def test_lhs_on_a_matrix_loads_only_its_layers(self, tmp_path):
        config = tmp_path / "matrix.json"
        config.write_text(json.dumps({"matrix": [[-0.5, 0.0], [0.0, -0.5]]}))
        out = tmp_path / "out.json"
        argv = ["lhs", "--config", str(config), "--out", str(out)]
        statement = f"from steerkit.cli import main; assert main({argv!r}) == 0"
        assert loaded_submodules(statement) == ["steerkit.cli", "steerkit.config", "steerkit.lhs"]

    def test_frames_loads_config_alone(self):
        # frames read MAX_ALICE_SETTINGS from the package root, which loads no
        # submodule, so building a frame never builds the LHS oracle
        assert loaded_submodules("import steerkit.frames") == [
            "steerkit.config", "steerkit.frames",
        ]

    def test_reproduce_does_not_load_lhs(self):
        assert "steerkit.lhs" not in loaded_submodules("import steerkit.reproduce")

    @pytest.mark.parametrize("subcommand, extra", [
        ("predict", []),
        ("simulate", ["steerkit.simulate"]),
    ], ids=["predict", "simulate"])
    def test_subcommand_loads_only_its_layers(self, tmp_path, subcommand, extra):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(EXAMPLE_CONFIGS[subcommand]))
        argv = [subcommand, "--config", str(config), "--out", str(tmp_path / "out.txt")]
        statement = f"from steerkit.cli import main; assert main({argv!r}) == 0"
        layers = ["cli", "config", "frames", "states", "steering"]
        assert loaded_submodules(statement) == sorted(
            [f"steerkit.{name}" for name in layers] + extra
        )

    def test_annotations_do_not_load_numpy_typing(self):
        # each module imported NDArray at run time for annotations that
        # from __future__ import annotations never evaluates
        assert "numpy.typing" not in loaded_submodules("import numpy", "numpy")
        loaded = loaded_submodules("import steerkit.reproduce, steerkit.lhs", "numpy")
        assert "numpy.typing" not in loaded

    def test_root_binds_only_the_setting_cap(self):
        # each public name has one import path: its submodule
        names = fresh_output(
            "import steerkit; print(' '.join(n for n in vars(steerkit) if not n.startswith('_')))"
        )
        assert names == ["MAX_ALICE_SETTINGS"]
        with pytest.raises(ImportError, match="trace_norm"):
            from steerkit import trace_norm  # noqa: F401

    def test_from_import_still_gives_submodule(self):
        from steerkit import lhs

        assert isinstance(lhs, types.ModuleType)
        assert lhs is sys.modules["steerkit.lhs"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nope"):
            steerkit.nope

    @pytest.mark.parametrize("module, name", [
        ("frames", "projection_matrix"),
        ("frames", "random_rotation"),
        ("simulate", "CountsRecord"),
        ("simulate", "outcome_probabilities"),
        ("states", "closest_werner_parameter"),
        ("states", "fidelity_with_pure"),
        ("steering", "optimal_pair_planes"),
        ("steering", "werner_nss_closed_form"),
        ("steering", "werner_ris_closed_form"),
    ])
    def test_removed_helpers_are_gone(self, module, name):
        with pytest.raises(AttributeError, match=name):
            getattr(steerkit, name)
        assert not hasattr(importlib.import_module(f"steerkit.{module}"), name)
