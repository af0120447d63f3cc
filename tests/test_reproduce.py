import math

import numpy as np
from numpy.testing import assert_allclose

from steerkit import reproduce, simulate, states
from steerkit.cli import cmd_reproduce
from steerkit.reproduce import (
    W_TILT_64,
    ReportRow,
    build_report,
    format_report,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def small_report(seed=11):
    return build_report(pairs_per_setting=3000, seed=seed)


class TestReportStructure:
    def test_row_count_and_case_coverage(self):
        rows = small_report()
        assert len(rows) == 11
        cases = {r.case for r in rows}
        assert len(cases) == 9
        assert all(isinstance(r, ReportRow) for r in rows)

    def test_back_solved_weight(self):
        # the tilted-plane weight reproduces the quoted prediction exactly
        assert_allclose(W_TILT_64 * (1.0 + math.cos(math.radians(64.0))), 1.40, atol=1e-15)
        assert 0.97 < W_TILT_64 < 0.98

    def test_predicted_values(self):
        rows = small_report()
        by_key = {(r.case, r.inequality): r for r in rows}

        coplanar_ris = by_key[("coplanar pairs, tilt 0 deg (W=0.985)", "ris")]
        assert_allclose(coplanar_ris.predicted, 1.97, atol=1e-12)
        coplanar_nss = by_key[("coplanar pairs, tilt 0 deg (W=0.985)", "nss")]
        assert_allclose(coplanar_nss.predicted, 1.97, atol=1e-12)

        tilted = next(r for r in rows if r.case.startswith("tilted pairs"))
        assert_allclose(tilted.predicted, 1.40, atol=1e-12)

        orthogonal = next(r for r in rows if r.case.startswith("orthogonal planes"))
        assert orthogonal.reported is None
        assert orthogonal.predicted < SQRT2

        triads = by_key[("aligned triads (W=0.984)", "ris")]
        assert_allclose(triads.predicted, 2.952, atol=1e-12)

        pair_subset = next(r for r in rows if "m=2 n=3" in r.case)
        assert_allclose(pair_subset.predicted, 2.0 * 0.984, atol=1e-12)
        assert_allclose(pair_subset.bound, SQRT2, atol=1e-15)

        triad_vs_pair = next(r for r in rows if "m=3 n=2" in r.case)
        assert_allclose(triad_vs_pair.predicted, 2.0 * 0.984, atol=1e-12)
        assert_allclose(triad_vs_pair.bound, SQRT3, atol=1e-15)

        misaligned = next(r for r in rows if r.case.startswith("misaligned"))
        assert_allclose(misaligned.predicted, 3.0 * (4.0 * 0.96 - 1.0) / 3.0, atol=1e-12)

        sixty = by_key[("nonorthogonal 60 deg pair (singlet)", "ris")]
        assert_allclose(sixty.predicted, math.sqrt(1.5) + math.sqrt(0.5), atol=1e-12)

        tetra = next(r for r in rows if r.case.startswith("tetrahedron"))
        assert_allclose(tetra.predicted, 2.0 * math.sqrt(2.0) * 0.97, atol=1e-12)

    def test_simulation_tracks_prediction(self):
        rows = small_report()
        for r in rows:
            assert abs(r.simulated - r.predicted) < 0.1, r.case
            assert r.sim_err > 0.0

    def test_annotation_flags(self):
        rows = small_report()
        flagged = {r.case for r in rows if not r.reproducible}
        assert any("aligned triads" in c for c in flagged)
        assert any("misaligned" in c for c in flagged)
        assert any("60 deg pair" in c for c in flagged)
        # every non-reproducible row explains itself
        for r in rows:
            if not r.reproducible:
                assert r.note

    def test_asymmetry_notes(self):
        rows = small_report()
        triads = next(r for r in rows if "aligned triads" in r.case)
        assert "real-state asymmetry" in triads.note
        tilted = next(r for r in rows if r.case.startswith("tilted pairs"))
        assert "back-solved" in tilted.note
        pair_subset = next(r for r in rows if "m=2 n=3" in r.case)
        assert "sqrt(3)" in pair_subset.note

    def test_deterministic(self):
        assert small_report(seed=11) == small_report(seed=11)
        first = small_report(seed=11)
        second = small_report(seed=12)
        assert any(a.simulated != b.simulated for a, b in zip(first, second))

    def test_validates_each_state_once(self, monkeypatch):
        # Every module that looks validate_state up is patched, so a copy
        # imported past states.py would be counted too.
        calls = []
        original = states.validate_state

        def counting(rho):
            calls.append(1)
            return original(rho)

        for module in (states, simulate, reproduce):
            if hasattr(module, "validate_state"):
                monkeypatch.setattr(module, "validate_state", counting)
        build_report(pairs_per_setting=200)
        assert len(calls) == 9


class TestReportSerialization:
    def test_dicts_mirror_rows(self):
        # the JSON payload of reproduce
        rows = build_report(pairs_per_setting=3000, seed=11)
        dicts, _ = cmd_reproduce({"pairs_per_setting": 3000, "seed": 11})
        assert len(dicts) == len(rows)
        assert dicts[0]["case"] == rows[0].case
        assert dicts[0]["predicted"] == rows[0].predicted
        assert list(dicts[0]) == [
            "case", "inequality", "reported", "reported_err", "predicted",
            "simulated", "sim_err", "bound", "reproducible", "note",
        ]

    def test_text_table_content(self):
        rows = small_report()
        text = format_report(rows)
        lines = text.splitlines()
        assert lines[0].startswith("case")
        assert "NO" in text
        assert "note:" in text
        # the unreported orthogonal-planes value renders as a dash
        orthogonal_line = next(l for l in lines if l.startswith("orthogonal planes"))
        assert "  -  " in orthogonal_line or " - " in orthogonal_line

    def test_text_table_aligned(self):
        rows = small_report()
        lines = format_report(rows).splitlines()
        header, rule = lines[0], lines[1]
        assert len(header) == len(rule)
