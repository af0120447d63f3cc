"""Acceptance gate: the nine headline behaviors at their stated tolerances.

Each test prints one pass/fail line (visible with pytest -s, or in the
failure report otherwise) and asserts the stated tolerance.

Criterion 8 checks the parametric bootstrap of the RIS parameter at the
triad working point (W = 0.984, 100 000 pairs per setting) in three
clauses: the headline bootstrap width matches its first-order value
sqrt(sum_jk ((U V^T)_jk delta_jk)^2), computed in the test from the
estimate's SVD M = U S V^T; the mean bootstrap width over 50 independent
count records matches the run-to-run spread of their trace norms; and the
width scales as 1/sqrt(N).  At T = -W I the gradient U V^T is -I, so the
first-order width reduces to sqrt(3 (1 - W^2) / N) ~ 9.8e-4.  An earlier
band [0.005, 0.03] treated every entry error as first order,
sqrt(sum_jk delta_jk^2) ~ 0.022, a value dominated by the off-diagonal
tilt systematics that the trace norm near -W I feels only at second order.
"""

import math
import time

import numpy as np

from steerkit.frames import (
    MeasurementFrame,
    pair_in_plane,
    rotate_frame,
    standard_triad,
    tetrahedron_frame,
    tilted_pair,
)
from steerkit.lhs import lhs_membership
from steerkit.simulate import judge, simulate_counts, tilt_systematic
from steerkit.states import BlochState, singlet_state, spin_correlation_matrix, werner_state
from steerkit.steering import (
    assess,
    min_nss_over_rotations,
    nss_predicted,
    predicted_correlation,
    ris_predicted,
)

from _reference import (
    full_data,
    min_nss_by_search,
    random_rotation,
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

        v = assess(predicted_correlation(
            spin_correlation_matrix(werner_state(0.97)), tetrahedron_frame(), standard_triad()
        ), "ris").parameter
        checks.append(("tetrahedron", v, 2.744, 0.005))

        v = assess(predicted_correlation(
            spin_correlation_matrix(singlet_state()), sixty_pair, pair_sub
        ), "ris").parameter
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
        worst_search = 0.0
        worst_ref = 0.0
        for _ in range(50):
            t = random_physical_tensor(rng)
            alice = rotate_frame(pair_in_plane(Y, rng.uniform(0, np.pi)), random_rotation(rng))
            bob = rotate_frame(pair_in_plane(Y, rng.uniform(0, np.pi)), random_rotation(rng))
            searched = min_nss_by_search(t, alice, bob)
            a = alice.directions
            closed = min_nss_over_rotations(t, a.T @ a, bob)
            ref = ris_predicted(t, alice, bob)
            worst_search = max(worst_search, abs(searched - closed))
            worst_ref = max(worst_ref, abs(searched - ref), abs(closed - ref))
        elapsed = time.perf_counter() - start
        ok = worst_search <= 1e-6 and worst_ref <= 1e-6 and elapsed < 10.0
        report(4, "minimization theorem", ok,
               f"search gap {worst_search:.2e}, trace-norm gap {worst_ref:.2e}, {elapsed:.2f}s")
        assert worst_search <= 1e-6
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
            m = raw * (rng.uniform(0.5, 1.41) / assess(raw, "nss").parameter)
            if np.abs(m).max() > 1.0:
                continue
            verdict = lhs_membership(m)
            if verdict.status == "feasible":
                feasible_norms.append((2, np.linalg.norm(m, "nuc")))
            checked += 1
        for m3 in (np.zeros((3, 3)), -0.5 * np.eye(3)):
            verdict = lhs_membership(m3)
            assert verdict.status == "feasible"
            feasible_norms.append((3, np.linalg.norm(m3, "nuc")))

        sound = all(norm <= math.sqrt(m) + 1e-6 for m, norm in feasible_norms)

        # Tightness: the extreme point 1 c^T with |c| = 1 is LHS (one
        # hidden state, Alice always answering +1) and has trace norm sqrt(m).
        def extreme_point_norm(m):
            c = rng.standard_normal(m)
            point = np.outer(np.ones(m), c / np.linalg.norm(c))
            assert lhs_membership(point).status == "feasible"
            return np.linalg.norm(point, "nuc")

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
            m = raw * (target / assess(raw, "nss").parameter)
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
        # The gradient of the trace norm at M = U S V^T is U V^T, so to
        # first order the bootstrap width is sqrt(sum ((U V^T) o delta)^2).
        # Near M = -W I, U V^T is -I to ~3e-3: the off-diagonal tilt
        # systematics (~W sin 0.5 deg) enter only at second order.  The
        # 200-resample std carries ~5 % sampling error (first-order
        # tolerance +-20 %); a 50-run std carries ~10 % (run-to-run
        # tolerance +-30 %).
        start = time.perf_counter()
        triad = standard_triad()
        sys_angle = math.radians(0.5)

        def uncertainty(pairs, seed):
            state = BlochState(werner_state(0.984))
            counts = simulate_counts(*full_data(state, triad, triad), pairs, seed=seed)
            sys = tilt_systematic(triad.directions @ state.t, triad, sys_angle)
            est, assessments = judge(counts, sys, (seed, 1))
            return est, assessments["ris"].uncertainty

        est, headline = uncertainty(100_000, seed=1729)
        u, _, vt = np.linalg.svd(est.matrix)
        first_order = float(np.sqrt(np.sum(((u @ vt) * est.delta) ** 2)))
        first_order_ratio = headline / first_order
        first_order_ok = abs(first_order_ratio - 1.0) <= 0.2

        runs = {
            pairs: [uncertainty(pairs, seed=(8, pairs, k)) for k in range(50)]
            for pairs in (10_000, 100_000, 1_000_000)
        }
        means = [float(np.mean([std for _, std in batch])) for batch in runs.values()]
        ris = [assess(e.matrix, "ris").parameter for e, _ in runs[100_000]]
        spread = float(np.std(ris, ddof=1))
        calibration_ratio = means[1] / spread
        calibration_ok = abs(calibration_ratio - 1.0) <= 0.3
        ratio_a = means[0] / means[1]
        ratio_b = means[1] / means[2]
        target = math.sqrt(10.0)
        scaling_ok = (
            abs(ratio_a - target) <= 0.2 * target
            and abs(ratio_b - target) <= 0.2 * target
        )
        elapsed = time.perf_counter() - start
        ok = first_order_ok and calibration_ok and scaling_ok and elapsed < 60.0
        report(8, "finite statistics", ok,
               f"headline uncertainty {headline:.2e} vs first-order {first_order:.2e} "
               f"(ratio {first_order_ratio:.3f}, {'ok' if first_order_ok else 'MISS'}), "
               f"mean bootstrap {means[1]:.2e} vs run-to-run {spread:.2e} "
               f"(ratio {calibration_ratio:.3f}, {'ok' if calibration_ok else 'MISS'}), "
               f"scaling ratios {ratio_a:.2f}/{ratio_b:.2f} vs {target:.2f} "
               f"({'ok' if scaling_ok else 'MISS'}), {elapsed:.2f}s")
        assert first_order_ok, (
            f"headline bootstrap width {headline:.3e} is not within 20% of its "
            f"first-order value {first_order:.3e} (ratio {first_order_ratio:.3f})"
        )
        assert calibration_ok, (
            f"mean bootstrap width {means[1]:.3e} over 50 runs is not within 30% "
            f"of their run-to-run trace-norm spread {spread:.3e} "
            f"(ratio {calibration_ratio:.3f})"
        )
        assert scaling_ok, (ratio_a, ratio_b)
        assert elapsed < 60.0

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
