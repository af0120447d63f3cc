"""Acceptance gate: the nine headline behaviors at their stated tolerances.

Each test prints one pass/fail line (visible with pytest -s, or in the
failure report otherwise) and asserts the stated tolerance.  Criterion 8
documents the one known shortfall honestly: the ideal isotropic-noise
model yields a much smaller triad-parameter uncertainty than the target
band, because the trace norm at a near-diagonal correlation matrix is
first-order insensitive to the off-diagonal systematic errors that
dominate the band's derivation.  See the notes in that test.
"""

import math
import time

import numpy as np

from steerkit.frames import (
    MeasurementFrame,
    pair_in_plane,
    projection_matrix,
    random_rotation,
    rotate_frame,
    standard_triad,
    tetrahedron_frame,
    tilted_pair,
)
from steerkit.lhs import lhs_membership
from steerkit.simulate import SourceModel, estimate_correlation, propagate_uncertainty, simulate_counts
from steerkit.states import singlet_state, spin_correlation_matrix, werner_state
from steerkit.steering import (
    min_nss_over_rotations,
    nss_parameter,
    nss_predicted,
    predicted_correlation,
    ris_predicted,
    trace_norm,
    werner_nss_closed_form,
    werner_ris_closed_form,
)

Y = np.array([0.0, 1.0, 0.0])
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def random_physical_tensor(rng):
    t = rng.uniform(-1.0, 1.0, size=(3, 3))
    top = np.linalg.svd(t, compute_uv=False)[0]
    return t / max(1.0, top / 0.95)


class TestAcceptance:
    def test_criterion_1_rotation_invariance(self):
        start = time.perf_counter()
        t = spin_correlation_matrix(werner_state(1.0))
        rng = np.random.default_rng(2024)
        values = []
        for _ in range(100):
            alice = rotate_frame(standard_triad(), random_rotation(rng))
            bob = rotate_frame(standard_triad(), random_rotation(rng))
            values.append(ris_predicted(t, alice, bob))
        values = np.asarray(values)
        spread = float(values.max() - values.min())
        offset = float(np.abs(values - 3.0).max())
        elapsed = time.perf_counter() - start
        ok = spread < 1e-10 and offset < 1e-9 and elapsed < 1.0
        report(1, "rotation invariance", ok,
               f"spread {spread:.2e}, offset {offset:.2e}, {elapsed:.2f}s")
        assert spread < 1e-10
        assert offset < 1e-9
        assert elapsed < 1.0

    def test_criterion_2_werner_thresholds(self):
        start = time.perf_counter()

        def onset(alice, bob, lo, hi):
            def violated(w):
                t = spin_correlation_matrix(werner_state(w))
                bound = math.sqrt(alice.size)
                return ris_predicted(t, alice, bob) > bound + 1e-12

            assert not violated(lo) and violated(hi)
            while hi - lo > 1e-8:
                mid = (lo + hi) / 2.0
                if violated(mid):
                    hi = mid
                else:
                    lo = mid
            return (lo + hi) / 2.0

        triad_onset = onset(standard_triad(), standard_triad(), 0.4, 0.8)
        pair = pair_in_plane(Y, 0.0)
        pair_onset = onset(pair, pair, 0.5, 0.9)
        err_triad = abs(triad_onset - 1.0 / SQRT3)
        err_pair = abs(pair_onset - 1.0 / SQRT2)
        elapsed = time.perf_counter() - start
        ok = err_triad <= 1e-6 and err_pair <= 1e-6 and elapsed < 1.0
        report(2, "werner thresholds", ok,
               f"triad onset err {err_triad:.2e}, pair onset err {err_pair:.2e}, {elapsed:.2f}s")
        assert err_triad <= 1e-6
        assert err_pair <= 1e-6
        assert elapsed < 1.0

    def test_criterion_3_case_values(self):
        start = time.perf_counter()
        pair = pair_in_plane(Y, 0.0)
        pair_sub = MeasurementFrame([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        sixty_pair = MeasurementFrame([
            [0.0, 0.0, 1.0],
            [math.sqrt(3.0) / 2.0, 0.0, 0.5],
        ])

        checks = []

        v = ris_predicted(spin_correlation_matrix(werner_state(0.985)), pair, pair)
        checks.append(("coplanar", v, 1.970, 0.001))

        v = ris_predicted(
            spin_correlation_matrix(werner_state(0.973)),
            tilted_pair(math.radians(64.0), 0.0, Y), pair,
        )
        checks.append(("tilt 64 deg", v, 1.400, 0.005))

        v = ris_predicted(
            spin_correlation_matrix(werner_state(0.984)), standard_triad(), standard_triad()
        )
        checks.append(("triads", v, 2.952, 1e-9))

        v = ris_predicted(
            spin_correlation_matrix(werner_state(0.984)), pair_sub, standard_triad()
        )
        checks.append(("pair subset", v, 1.968, 1e-9))

        v = trace_norm(predicted_correlation(
            spin_correlation_matrix(werner_state(0.97)), tetrahedron_frame(), standard_triad()
        ))
        checks.append(("tetrahedron", v, 2.744, 0.005))

        v = trace_norm(predicted_correlation(
            spin_correlation_matrix(singlet_state()), sixty_pair, pair_sub
        ))
        checks.append(("60 deg pair", v, 1.93185, 1e-5))

        elapsed = time.perf_counter() - start
        worst = max(abs(v - target) - tol for _, v, target, tol in checks)
        ok = worst <= 0.0 and elapsed < 1.0
        detail = "; ".join(f"{name} {v:.6f}" for name, v, _, _ in checks)
        report(3, "case values", ok, f"{detail}; {elapsed:.2f}s")
        for name, v, target, tol in checks:
            assert abs(v - target) <= tol, f"{name}: {v} vs {target} +- {tol}"
        assert elapsed < 1.0

    def test_criterion_4_minimization_theorem(self):
        start = time.perf_counter()
        rng = np.random.default_rng(404)
        worst_modes = 0.0
        worst_ref = 0.0
        for _ in range(50):
            t = random_physical_tensor(rng)
            alice = rotate_frame(pair_in_plane(Y, rng.uniform(0, np.pi)), random_rotation(rng))
            bob = rotate_frame(pair_in_plane(Y, rng.uniform(0, np.pi)), random_rotation(rng))
            plane = projection_matrix(alice)
            numeric = min_nss_over_rotations(t, plane, bob, mode="numeric")
            analytic = min_nss_over_rotations(t, plane, bob, mode="analytic")
            ref = ris_predicted(t, alice, bob)
            worst_modes = max(worst_modes, abs(numeric - analytic))
            worst_ref = max(worst_ref, abs(numeric - ref), abs(analytic - ref))
        elapsed = time.perf_counter() - start
        ok = worst_modes <= 1e-6 and worst_ref <= 1e-6 and elapsed < 10.0
        report(4, "minimization theorem", ok,
               f"mode gap {worst_modes:.2e}, trace-norm gap {worst_ref:.2e}, {elapsed:.2f}s")
        assert worst_modes <= 1e-6
        assert worst_ref <= 1e-6
        assert elapsed < 10.0

    def test_criterion_5_closed_form_consistency(self):
        start = time.perf_counter()
        bob = pair_in_plane(Y, 0.0)
        worst_ris = 0.0
        worst_nss = 0.0
        for phi in np.linspace(0.0, math.pi / 2.0, 19):
            for alpha in np.linspace(0.0, math.pi / 2.0, 19):
                alice = tilted_pair(phi, alpha, Y)
                for w in np.linspace(0.0, 1.0, 11):
                    t = -w * np.eye(3)
                    worst_ris = max(worst_ris, abs(
                        ris_predicted(t, alice, bob) - werner_ris_closed_form(w, phi)
                    ))
                    worst_nss = max(worst_nss, abs(
                        nss_predicted(t, alice, bob) - werner_nss_closed_form(w, phi, alpha)
                    ))
        elapsed = time.perf_counter() - start
        ok = worst_ris <= 1e-12 and worst_nss <= 1e-12 and elapsed < 5.0
        report(5, "closed-form consistency", ok,
               f"ris dev {worst_ris:.2e}, nss dev {worst_nss:.2e}, {elapsed:.2f}s")
        assert worst_ris <= 1e-12
        assert worst_nss <= 1e-12
        assert elapsed < 5.0

    def test_criterion_6_lhs_soundness_and_tightness(self):
        start = time.perf_counter()
        rng = np.random.default_rng(606)

        feasible_norms = []
        checked = 0
        while checked < 30:
            raw = rng.uniform(-1.0, 1.0, size=(2, 2))
            m = raw * (rng.uniform(0.5, 1.41) / nss_parameter(raw))
            if np.abs(m).max() > 1.0:
                continue
            verdict = lhs_membership(m)
            if verdict.status == "feasible":
                feasible_norms.append((2, trace_norm(m)))
            checked += 1
        for m3 in (np.zeros((3, 3)), -0.5 * np.eye(3)):
            verdict = lhs_membership(m3)
            assert verdict.status == "feasible"
            feasible_norms.append((3, trace_norm(m3)))

        sound = all(norm <= math.sqrt(m) + 1e-6 for m, norm in feasible_norms)

        # Tightness: the extreme point 1 c^T with |c| = 1 is LHS (one
        # hidden state, Alice always answering +1) and has trace norm sqrt(m).
        def extreme_point_norm(m):
            c = rng.standard_normal(m)
            point = np.outer(np.ones(m), c / np.linalg.norm(c))
            assert lhs_membership(point).status == "feasible"
            return trace_norm(point)

        err2 = abs(extreme_point_norm(2) - SQRT2)
        err3 = abs(extreme_point_norm(3) - SQRT3)
        elapsed = time.perf_counter() - start
        ok = sound and err2 <= 1e-12 and err3 <= 1e-12 and elapsed < 30.0
        report(6, "lhs soundness and tightness", ok,
               f"{len(feasible_norms)} feasible verdicts sound={sound}, "
               f"sqrt2 err {err2:.2e}, sqrt3 err {err3:.2e}, {elapsed:.2f}s")
        assert sound
        assert err2 <= 1e-12
        assert err3 <= 1e-12
        assert elapsed < 30.0

    def test_criterion_7_nss_lhs_cross_validation(self):
        start = time.perf_counter()
        rng = np.random.default_rng(707)
        band = 1e-9
        checked = 0
        disagreements = []
        while checked < 200:
            raw = rng.uniform(-1.0, 1.0, size=(2, 2))
            target = rng.uniform(1.2, 1.6)
            m = raw * (target / nss_parameter(raw))
            if np.abs(m).max() > 1.0:
                continue
            checked += 1
            if abs(target - SQRT2) <= band:
                continue  # too close to the boundary to compare
            predicate_says_steerable = target > SQRT2
            verdict = lhs_membership(m)
            oracle_says_steerable = verdict.status == "infeasible"
            if oracle_says_steerable != predicate_says_steerable:
                disagreements.append((target, verdict.status))
        elapsed = time.perf_counter() - start
        ok = not disagreements and elapsed < 60.0
        report(7, "nss-lhs cross-validation", ok,
               f"200 samples, {len(disagreements)} disagreements outside "
               f"the +-{band} band, {elapsed:.2f}s")
        assert not disagreements, disagreements
        assert elapsed < 60.0

    def test_criterion_8_finite_statistics(self):
        # Clause 1 targets the reported error-bar scale (+-0.01).  The
        # ideal isotropic model cannot reach it: with T = -W I the trace
        # norm responds only quadratically to the off-diagonal systematic
        # errors that the tilt model produces, so the bootstrap width is
        # set by the tiny diagonal statistical errors alone (~0.001).
        # The assertion is kept at the stated band and fails honestly;
        # the 1/sqrt(N) scaling clause passes.
        start = time.perf_counter()
        triad = standard_triad()
        sys_angle = math.radians(0.5)

        def uncertainty(pairs, seed):
            source = SourceModel.werner(0.984, pairs)
            record = simulate_counts(source, triad, triad, seed=seed)
            est = estimate_correlation(record, sys_angle)
            _, std = propagate_uncertainty(est, "ris", n_resamples=200, seed=(seed, 1))
            return std

        headline = uncertainty(100_000, seed=1729)

        means = []
        for pairs in (10_000, 100_000, 1_000_000):
            stds = [uncertainty(pairs, seed=(8, pairs, k)) for k in range(50)]
            means.append(float(np.mean(stds)))
        ratio_a = means[0] / means[1]
        ratio_b = means[1] / means[2]
        target = math.sqrt(10.0)
        scaling_ok = (
            abs(ratio_a - target) <= 0.2 * target
            and abs(ratio_b - target) <= 0.2 * target
        )
        band_ok = 0.005 <= headline <= 0.03
        elapsed = time.perf_counter() - start
        ok = band_ok and scaling_ok and elapsed < 60.0
        report(8, "finite statistics", ok,
               f"headline uncertainty {headline:.4f} vs band [0.005, 0.03] "
               f"({'ok' if band_ok else 'MISS'}), scaling ratios {ratio_a:.2f}/"
               f"{ratio_b:.2f} vs {target:.2f} ({'ok' if scaling_ok else 'MISS'}), "
               f"{elapsed:.2f}s")
        assert scaling_ok, (ratio_a, ratio_b)
        assert elapsed < 60.0
        assert band_ok, (
            f"triad uncertainty {headline:.4f} outside [0.005, 0.03]: the ideal "
            "isotropic model's trace norm is first-order insensitive to the "
            "off-diagonal systematic errors; see module notes"
        )

    def test_criterion_9_dominance(self):
        start = time.perf_counter()
        rng = np.random.default_rng(909)
        worst = 0.0
        for _ in range(1000):
            t = random_physical_tensor(rng)
            alpha = rng.uniform(0.0, 2.0 * np.pi)
            alice = rotate_frame(pair_in_plane(Y, alpha), random_rotation(rng))
            bob = rotate_frame(pair_in_plane(Y, rng.uniform(0, 2.0 * np.pi)), random_rotation(rng))
            gap = ris_predicted(t, alice, bob) - nss_predicted(t, alice, bob)
            worst = max(worst, gap)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-10 and elapsed < 5.0
        report(9, "dominance", ok, f"worst ris-over-nss excess {worst:.2e}, {elapsed:.2f}s")
        assert worst <= 1e-10
        assert elapsed < 5.0
