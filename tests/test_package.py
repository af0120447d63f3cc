import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import steerkit


def loaded_submodules(statement: str) -> list[str]:
    """steerkit submodules in sys.modules after `statement` in a fresh interpreter."""
    src = str(Path(steerkit.__file__).resolve().parents[1])
    code = (
        f"{statement}; import sys; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('steerkit.'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    return done.stdout.split()


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

    def test_names_are_the_submodule_objects(self):
        assert len(steerkit.__all__) == len(set(steerkit.__all__))
        for name in steerkit.__all__:
            value = getattr(steerkit, name)
            owner = importlib.import_module(value.__module__)
            assert owner.__name__.startswith("steerkit."), name
            assert value is getattr(owner, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from steerkit import *", namespace)
        for name in steerkit.__all__:
            assert namespace[name] is getattr(steerkit, name), name

    def test_from_import_still_gives_submodule(self):
        from steerkit import lhs

        assert isinstance(lhs, types.ModuleType)
        assert lhs is sys.modules["steerkit.lhs"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nope"):
            steerkit.nope

    def test_dir_lists_exports(self):
        assert set(steerkit.__all__) <= set(dir(steerkit))

    @pytest.mark.parametrize("module, name", [
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
