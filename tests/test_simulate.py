import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from steerkit.cli import EXAMPLE_CONFIGS, EXIT_CONFIG, EXIT_OK, cmd_sweep, main
from steerkit.config import _config_float, _config_int, _state_and_frames
from steerkit.frames import (
    MeasurementFrame,
    frame_from_spec,
    pair_in_plane,
    rotate_frame,
    standard_triad,
)
from steerkit.lhs import LhsModel, evaluate_lhs_model
from steerkit.reproduce import CASES, build_report
from steerkit.simulate import (
    CSV_HEADER,
    DEFAULT_RESAMPLES,
    MAX_PAIRS_PER_SETTING,
    judge,
    rows_to_csv,
    run_scenario,
    simulate_counts,
    simulate_run,
    tilt_systematic,
)
from steerkit.states import BlochState, singlet_state, spin_correlation_matrix, werner_state
from steerkit.steering import assess, assess_nss, assess_ris, inequalities_for

from _reference import full_data, outcome_probabilities

DATA = Path(__file__).parent / "data"
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# Alice's and Bob's coplanar pairs at alpha = 0
PAIRS = (pair_in_plane(Y, 0.0), pair_in_plane(Y, 0.0))


def random_density_matrix(rng):
    a = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestOutcomeProbabilities:
    def test_singlet_anticorrelation(self):
        probs = outcome_probabilities(singlet_state(), Z, Z)
        assert_allclose(probs, [0.0, 0.5, 0.5, 0.0], atol=1e-14)

    def test_maximally_mixed_uniform(self):
        probs = outcome_probabilities(werner_state(0.0), Z, np.array([1.0, 0.0, 0.0]))
        assert_allclose(probs, [0.25, 0.25, 0.25, 0.25], atol=1e-14)

    def test_werner_correlation(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            w = rng.uniform(0.0, 1.0)
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            probs = outcome_probabilities(werner_state(w), a, b)
            corr = probs[0] + probs[3] - probs[1] - probs[2]
            cos_ab = (a / np.linalg.norm(a)) @ (b / np.linalg.norm(b))
            assert_allclose(corr, -w * cos_ab, atol=1e-12)

    def test_born_consistency_on_random_states(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            rho = random_density_matrix(rng)
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            probs = outcome_probabilities(rho, a, b)
            assert np.all(probs >= 0.0)
            assert_allclose(probs.sum(), 1.0, atol=1e-12)
            t = spin_correlation_matrix(rho)
            corr = probs[0] + probs[3] - probs[1] - probs[2]
            au = a / np.linalg.norm(a)
            bu = b / np.linalg.norm(b)
            assert_allclose(corr, au @ t @ bu, atol=1e-12)

    def test_matches_projector_traces_on_random_states(self):
        # Independent reference: Tr[rho (Pi_a x Pi_b)] with explicit
        # Kronecker products of the outcome projectors.
        sigma = (
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.array([[0.0, -1.0j], [1.0j, 0.0]]),
            np.array([[1.0, 0.0], [0.0, -1.0]]),
        )

        def projectors(v):
            spin = sum(c * s for c, s in zip(v / np.linalg.norm(v), sigma))
            return [(np.eye(2) + sign * spin) / 2.0 for sign in (1.0, -1.0)]

        rng = np.random.default_rng(73)
        for _ in range(100):
            rho = random_density_matrix(rng)
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            ref = [np.trace(rho @ np.kron(pa, pb)).real
                   for pa in projectors(a) for pb in projectors(b)]
            assert_allclose(outcome_probabilities(rho, a, b), ref, rtol=0.0, atol=1e-14)


class TestSimulateCounts:
    def test_deterministic_under_seed(self):
        state = BlochState(werner_state(0.9))
        alice = pair_in_plane(Y, 0.0)
        bob = pair_in_plane(Y, 0.0)
        first = simulate_counts(*full_data(state, alice, bob), 5000, seed=11)
        second = simulate_counts(*full_data(state, alice, bob), 5000, seed=11)
        assert np.array_equal(first, second)
        third = simulate_counts(*full_data(state, alice, bob), 5000, seed=12)
        assert not np.array_equal(first, third)

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError):
            simulate_counts(*full_data(BlochState(werner_state(0.9)), *PAIRS), 0, seed=0)

    @settings(deadline=None)
    @given(
        hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
        st.floats(min_value=0.0, max_value=1e-10, exclude_min=True),
    )
    def test_state_at_the_eigenvalue_tolerance_simulates(self, e, eps):
        # (1 + eps) |psi-><psi-| - eps |ee><ee| gives (++) along e the Born
        # probability -eps; clipping it first moved the row sum by eps
        assume(np.linalg.norm(e) > 0.1)
        e = e / np.linalg.norm(e)
        spin_up = (np.eye(2) + np.einsum("i,ijk->jk", e, PAULI)) / 2.0
        rho = (1.0 + eps) * singlet_state() - eps * np.kron(spin_up, spin_up)
        try:
            state = BlochState(rho)
        except ValueError:
            assume(False)  # past the tolerance after rounding: not a BlochState
        frame = MeasurementFrame([e, *np.linalg.svd(e[None, :])[2][1:]])
        counts = simulate_counts(*full_data(state, frame, frame), 1000, seed=0)
        assert counts[0, 0, 0] == 0

    def test_counts_shape_and_totals(self):
        state = BlochState(werner_state(0.8))
        counts = simulate_counts(*full_data(state, standard_triad(), standard_triad()), 20_000,
                                 seed=3)
        assert counts.shape == (3, 3, 4)
        totals = counts.sum(axis=2)
        # Poisson totals concentrate around the mean
        assert np.all(np.abs(totals - 20_000) < 5.0 * math.sqrt(20_000))

    def test_one_atom_lhs_model_counts(self):
        # Alice always answers +1 and Bob holds |0>: data no quantum state
        # on these frames gives, with every count of Bob's z setting in (++)
        model = LhsModel(np.ones(1), np.ones((1, 3)), np.array([[0.0, 0.0, 1.0]]))
        triad = standard_triad()
        alpha = model.weights @ model.alice_responses
        beta = model.weights @ model.bob_blochs @ triad.directions.T
        correlation = evaluate_lhs_model(model) @ triad.directions.T
        counts = simulate_counts(alpha, beta, correlation, 1000, seed=0)
        est, _ = judge(counts, tilt_systematic(np.tile(Z, (3, 1)), triad), (0, 1))
        assert np.all(counts[:, :, 2:] == 0)
        assert np.all(est.matrix[:, 2] == 1.0)
        assert np.all(est.stat_component[:, 2] == 0.0)

    @pytest.mark.parametrize("alpha, beta, correlation, match", [
        (np.ones(1), np.ones(1), -np.ones((1, 1)), "probability of -0.5"),
        (np.full(1, np.nan), np.zeros(1), np.zeros((1, 1)), "probability of nan"),
        (np.zeros(2), np.zeros(3), np.zeros((3, 2)), "shapes"),
        (np.zeros((2, 1)), np.zeros(1), np.zeros((2, 1)), "shapes"),
    ], ids=["p-- below 0", "nan", "transposed correlation", "2-d alpha"])
    def test_rejects_data_no_source_gives(self, alpha, beta, correlation, match):
        with pytest.raises(ValueError, match=match):
            simulate_counts(alpha, beta, correlation, 1000, seed=0)

    def test_unpolarized_source_splits_evenly(self):
        state = BlochState(werner_state(0.0))
        all_counts = simulate_counts(*full_data(state, *PAIRS), 40_000, seed=5)
        for j in range(2):
            for k in range(2):
                counts = all_counts[j, k]
                expected = counts.sum() / 4.0
                assert np.all(np.abs(counts - expected) < 5.0 * math.sqrt(expected))


def cone_grid_sys_component(u, bob, sys_angle, points=20_001):
    """Largest |u_j.(b' - b)| over a phi-grid of tilts b' of each Bob setting b.

    u holds the rows u_j = T^T a_j.  b' - b = -2 sin^2(theta/2) b +
    sin(theta) (cos(phi) e1 + sin(phi) e2), with (e1, e2) an orthonormal
    basis of the plane orthogonal to b.
    """
    phi = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    sys = np.zeros((len(u), bob.size))
    for k, b in enumerate(bob.directions):
        e1, e2 = np.linalg.svd(b[None, :])[2][1:]
        tilts = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
        shifts = -2.0 * math.sin(sys_angle / 2.0) ** 2 * b + math.sin(sys_angle) * tilts
        sys[:, k] = np.abs(u @ shifts.T).max(axis=1)
    return sys


def assert_on_cone_grid(sys, grid, err_msg=""):
    """The closed form is never below the grid maximum and at most 1e-7 above it."""
    assert np.all(sys >= grid), err_msg
    assert np.all(sys <= grid * (1.0 + 1e-7)), err_msg


def su2_with_rotation(rng):
    """Haar-random U in SU(2) and its rotation R, U sigma_j U^dagger = sum_i R_ij sigma_i."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    u = q[0] * np.eye(2) - 1.0j * np.einsum("i,ijk->jk", q[1:], PAULI)
    r = np.einsum("iab,bc,jcd,da->ij", PAULI, u, PAULI, u.conj().T).real / 2.0
    return u, r


def random_frame(rng, size):
    return MeasurementFrame([v / np.linalg.norm(v) for v in rng.normal(size=(size, 3))])


class TestEstimateCorrelation:
    def test_sys_matches_cone_grid_on_reproduce_frames(self):
        for name, config, _ in CASES:
            state, alice, bob = _state_and_frames(config)
            u = alice.directions @ state.t
            grid = cone_grid_sys_component(u, bob, math.radians(0.5))
            assert_on_cone_grid(tilt_systematic(u, bob), grid, name)

    def test_sys_matches_cone_grid_on_random_frames(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            alice = random_frame(rng, int(rng.integers(1, 4)))
            bob = random_frame(rng, int(rng.integers(1, 4)))
            u = alice.directions @ BlochState(random_density_matrix(rng)).t
            sys_angle = float(rng.uniform(0.0, 0.1))
            sys = tilt_systematic(u, bob, sys_angle)
            assert_on_cone_grid(sys, cone_grid_sys_component(u, bob, sys_angle))

    @settings(deadline=None)
    @given(
        hnp.arrays(np.float64, (2, 4, 4), elements=st.floats(-1.0, 1.0)),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.0, max_value=0.1),
    )
    def test_sys_invariant_under_common_rotation(self, parts, seed, sys_angle):
        # (U x U) rho (U x U)^dagger with both frames rotated by R is the same
        # experiment in other lab axes, so it has the same systematic error.
        a = parts[0] + 1.0j * parts[1]
        rho = a @ a.conj().T
        assume(np.trace(rho).real > 1e-3)
        rho /= np.trace(rho).real
        rng = np.random.default_rng(seed)
        alice = random_frame(rng, int(rng.integers(1, 7)))
        bob = random_frame(rng, int(rng.integers(1, 4)))
        u, r = su2_with_rotation(rng)
        uu = np.kron(u, u)
        lab = tilt_systematic(alice.directions @ BlochState(rho).t, bob, sys_angle)
        rotated_alice = rotate_frame(alice, r)
        rotated_u = rotated_alice.directions @ BlochState(uu @ rho @ uu.conj().T).t
        rotated = tilt_systematic(rotated_u, rotate_frame(bob, r), sys_angle)
        assert_allclose(rotated, lab, rtol=0.0, atol=1e-15)

    @settings(deadline=None)
    @given(
        hnp.arrays(np.float64, (2, 3), elements=st.floats(-1.0, 1.0)),
        st.lists(st.floats(0.0, math.pi / 2.0), min_size=2, max_size=2),
    )
    def test_sys_nondecreasing_in_angle(self, vectors, angles):
        # the closed form is the worst case over tilts up to theta only
        # while it grows with theta, which it does up to a right angle
        u, b = vectors
        assume(np.linalg.norm(b) > 0.1)
        bob = MeasurementFrame([b / np.linalg.norm(b)])
        small, large = (tilt_systematic(u[None, :], bob, angle) for angle in sorted(angles))
        assert small[0, 0] <= large[0, 0]

    def test_aligned_triad_diagonal_is_exact(self):
        # 1 - cos(theta) as 2 sin^2(theta/2) keeps every digit of the diagonal,
        # where the tilt has no transverse response.
        w, sys_angle = 0.984, math.radians(0.5)
        triad = standard_triad()
        sys = tilt_systematic(triad.directions @ BlochState(werner_state(w)).t, triad, sys_angle)
        diagonal = np.diag(sys)
        assert_allclose(diagonal, w * 2.0 * math.sin(sys_angle / 2.0) ** 2, rtol=1e-15, atol=0.0)

    def test_pseudo_count_consistency(self):
        # exact-probability pseudo-counts recover the model correlation
        n = 100_000
        alice = pair_in_plane(Y, 0.0)
        bob = pair_in_plane(Y, 0.0)
        rho = singlet_state()
        counts = np.zeros((2, 2, 4), dtype=np.int64)
        for j in range(2):
            for k in range(2):
                probs = outcome_probabilities(rho, alice.directions[j], bob.directions[k])
                counts[j, k] = np.round(n * probs).astype(np.int64)
        est, _ = judge(counts, np.zeros((2, 2)), (0, 1))
        assert np.abs(est.matrix + np.eye(2)).max() <= 1.0 / n

    def test_stat_vanishes_at_extreme_estimate(self):
        counts = np.array([[[1000, 0, 0, 0]]], dtype=np.int64)
        est, _ = judge(counts, np.zeros((1, 1)), (0, 1))
        assert_allclose(est.matrix, [[1.0]])
        assert_allclose(est.stat_component, [[0.0]])

    def test_zero_sys_angle_collapses_delta_to_stat(self):
        state = BlochState(werner_state(0.9))
        alice, bob = pair_in_plane(Y, 0.2), pair_in_plane(Y, 0.0)
        counts = simulate_counts(*full_data(state, alice, bob), 2000, seed=7)
        est, _ = judge(counts, tilt_systematic(alice.directions @ state.t, bob, 0.0), (0, 1))
        assert_allclose(est.delta, est.stat_component)
        assert_allclose(est.sys_component, np.zeros((2, 2)))

    def test_quadrature_identity(self):
        state, triad = BlochState(werner_state(0.95)), standard_triad()
        counts = simulate_counts(*full_data(state, triad, triad), 2000, seed=9)
        est, _ = judge(counts, tilt_systematic(triad.directions @ state.t, triad), (0, 1))
        assert_allclose(est.delta**2, est.sys_component**2 + est.stat_component**2, atol=1e-15)
        assert np.all(est.delta >= 0.0)

    def test_sys_scales_with_angle(self):
        u = standard_triad().directions @ BlochState(werner_state(0.95)).t
        small = tilt_systematic(u, standard_triad(), sys_angle=math.radians(0.1))
        large = tilt_systematic(u, standard_triad(), sys_angle=math.radians(1.0))
        assert large.max() > 5.0 * small.max()

    def test_rejects_zero_totals(self):
        counts = np.zeros((1, 1, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="pairs_per_setting"):
            judge(counts, np.zeros((1, 1)), (0, 1))

    @pytest.mark.parametrize("counts", [
        np.ones((2, 4), dtype=np.int64),
        np.array([[[3, 0, 0, 0, 7]]]),
        np.array([[[2.5, 0.0, 0.0, 0.5]]]),
        np.array([[[5, -2, 0, 0]]]),
        np.zeros((0, 2, 4), dtype=np.int64),
        np.zeros((2, 0, 4), dtype=np.int64),
    ], ids=["2-d", "five-outcomes", "float", "negative", "no-alice-setting", "no-bob-setting"])
    def test_rejects_counts_no_source_gives(self, counts):
        # unchecked, these fail to unpack, give M_hat = 0.3 with the fifth column
        # counted in the total only, M_hat = 1 with stat 0, M_hat = 2.33 with
        # RIS violated at uncertainty 0, and an empty estimate
        with pytest.raises(ValueError, match="counts must"):
            judge(counts, np.zeros(counts.shape[:2]), (0, 1))

    @pytest.mark.parametrize("u_rows, bob", [(1, standard_triad()), (2, MeasurementFrame([Z]))],
                             ids=["one-u-row", "one-bob-setting"])
    def test_rejects_shapes_that_miss_the_counts(self, u_rows, bob):
        # one row of u, or one Bob setting, broadcast silently over a 2 x 3
        # run and gave every entry that row's or that setting's systematic
        counts = np.ones((2, 3, 4), dtype=np.int64)
        sys = tilt_systematic(np.ones((u_rows, 3)), bob)
        with pytest.raises(ValueError, match="sys_component"):
            judge(counts, sys, (0, 1))

    @pytest.mark.parametrize("sys", [np.zeros((3, 2)), np.zeros(6), np.full((2, 3), -1e-3),
                                     np.full((2, 3), np.nan), np.full((2, 3), np.inf)],
                             ids=["transposed", "flat", "negative", "nan", "inf"])
    def test_rejects_sys_component_no_model_gives(self, sys):
        # the systematic is an input now: a NaN one stopped the bootstrap's SVD with a
        # LinAlgError, and an infinite one clamped every draw to +-1
        counts = np.ones((2, 3, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="sys_component"):
            judge(counts, sys, (0, 1))

    @pytest.mark.parametrize("sys_angle", [math.nan, math.inf, -math.inf, -0.01,
                                           math.pi / 2.0 + 0.01, 2.0 * math.pi])
    def test_rejects_sys_angle_outside_nonnegative_reals(self, sys_angle):
        # NaN used to drop the systematic silently (NaN > 0 is False); past a
        # right angle the closed form falls again, to 0 at a full turn
        state, triad = BlochState(werner_state(0.9)), standard_triad()
        with pytest.raises(ValueError, match="sys_angle"):
            tilt_systematic(triad.directions @ state.t, triad, sys_angle=sys_angle)

    def test_estimator_within_stat_bounds(self):
        # entrywise: the estimate should sit within 3 statistical standard
        # errors of the model value in the vast majority of runs
        t = spin_correlation_matrix(werner_state(0.9))
        alice = standard_triad()
        bob = standard_triad()
        state = BlochState(werner_state(0.9))
        inside = 0
        total = 0
        for seed in range(100):
            counts = simulate_counts(*full_data(state, alice, bob), 10_000, seed=seed)
            est, _ = judge(counts, np.zeros((3, 3)), (seed, 1))
            err = np.abs(est.matrix - t)
            inside += int(np.sum(err <= 3.0 * np.maximum(est.stat_component, 1e-12)))
            total += 9
        assert inside / total >= 0.99

    def test_error_shrinks_with_counts(self):
        t = spin_correlation_matrix(werner_state(0.9))
        errors = []
        for pairs in (1_000, 10_000, 100_000):
            state = BlochState(werner_state(0.9))
            counts = simulate_counts(*full_data(state, *PAIRS), pairs, seed=17)
            est, _ = judge(counts, np.zeros((2, 2)), (17, 1))
            m_model = pair_in_plane(Y, 0.0).directions @ t @ pair_in_plane(Y, 0.0).directions.T
            errors.append(np.abs(est.matrix - m_model).max())
        assert errors[2] < errors[0]

    @pytest.mark.parametrize("golden, config", [
        ("simulate_matrix_state.json", json.loads((DATA / "matrix_state.json").read_text())),
        ("simulate_example.json", EXAMPLE_CONFIGS["simulate"]),
    ], ids=["matrix_state", "example"])
    def test_judge_reproduces_simulate_json(self, golden, config):
        # simulate's own counts and systematic are all the judge needs
        payload = json.loads((DATA / golden).read_text())
        est, assessments = judge(np.array(payload["counts"]), np.array(payload["sys_component"]),
                                 (config["seed"], 1))
        assert est.matrix.tolist() == payload["correlation"]
        assert est.delta.tolist() == payload["delta"]
        assert est.stat_component.tolist() == payload["stat_component"]
        assert {tag: asdict(a) for tag, a in assessments.items()} == payload["assessments"]


class TestPropagateUncertainty:
    def _judge(self, key):
        state = BlochState(werner_state(0.95))
        counts = simulate_counts(*full_data(state, *PAIRS), 20_000, seed=19)
        return judge(counts, tilt_systematic(PAIRS[0].directions @ state.t, PAIRS[1]), key)

    def test_zero_delta_gives_zero_uncertainty(self):
        # every entry at |M_hat| = 1 has no statistical error, and the systematic is 0
        counts = np.array([[[9, 0, 0, 0], [0, 9, 0, 0]], [[0, 0, 0, 9], [0, 0, 9, 0]]])
        est, assessments = judge(counts, np.zeros((2, 2)), (0, 1))
        assert np.array_equal(est.delta, np.zeros((2, 2)))
        for assessment in assessments.values():
            assert_allclose(assessment.uncertainty, 0.0, atol=1e-15)

    def test_deterministic_under_seed(self):
        assert self._judge((5, 0))[1] == self._judge((5, 0))[1]
        assert self._judge((5, 0))[1] != self._judge((6, 0))[1]

    def test_uncertainty_positive_for_noisy_estimate(self):
        assessments = self._judge((1, 0))[1]
        assert assessments["ris"].uncertainty > 0.0
        assert assessments["nss"].uncertainty > 0.0

    @pytest.mark.parametrize("inequality", ["ris", "nss"])
    def test_matches_per_draw_loop(self, inequality):
        # the tag of rank r draws on the key with its last entry advanced by r
        est, assessments = self._judge((11, 0))
        rng = np.random.default_rng((11, inequalities_for(2).index(inequality)))
        values = [
            assess(np.clip(est.matrix + rng.standard_normal(est.matrix.shape) * est.delta,
                           -1.0, 1.0), inequality).parameter
            for _ in range(DEFAULT_RESAMPLES)
        ]
        got = assessments[inequality]
        assert_allclose(got.uncertainty, np.std(values), rtol=0.0, atol=1e-12)
        assert got == replace(assess(est.matrix, inequality), uncertainty=got.uncertainty)


class TestSimulateRun:
    @pytest.mark.parametrize("inequality, assess", [("ris", assess_ris), ("nss", assess_nss)])
    def test_is_assessment_plus_bootstrap_std(self, inequality, assess):
        state = BlochState(werner_state(0.95))
        counts, est, assessments = simulate_run(state, *PAIRS, 20_000, 19, (4, 2))
        assert np.array_equal(counts, simulate_counts(*full_data(state, *PAIRS), 20_000, 19))
        sys = tilt_systematic(PAIRS[0].directions @ state.t, PAIRS[1])
        judged, judged_assessments = judge(counts, sys, (4, 2))
        for name, value in vars(judged).items():
            assert np.array_equal(getattr(est, name), value)
        expected = assess(est.matrix)
        got = assessments[inequality]
        assert got == judged_assessments[inequality]
        assert (got.inequality, got.parameter, got.bound, got.margin, got.violated) == (
            expected.inequality, expected.parameter, expected.bound, expected.margin,
            expected.violated,
        )
        assert expected.uncertainty is None

    def test_rejects_density_matrix(self):
        # a state is validated once, as a BlochState, before its full data is drawn
        with pytest.raises(TypeError, match="BlochState"):
            simulate_run(werner_state(0.9), *PAIRS, 10, 0, (0, 1))

    def test_rejects_non_orthonormal_bob_frame(self):
        # |00> with both parties at (z, z) gave M_hat = [[1, 1], [1, 1]]: ris
        # and nss both read 2.0, violated, on a product state
        product = np.zeros((4, 4), dtype=complex)
        product[0, 0] = 1.0
        both_z = MeasurementFrame([Z, Z])
        with pytest.raises(ValueError, match="bob_frame"):
            simulate_run(BlochState(product), both_z, both_z, 2000, 0, (0, 1))


# numpy's SeedSequence drops a trailing zero from a key only while the key fits
# in four 32-bit words: default_rng((s, 0)) differs from default_rng(s) once
# s >= 2**96, and (s, i, 0) from (s, i) once s >= 2**64.  At this seed a caller
# that wrote one of its streams with an extra zero entry would draw other numbers.
LARGE_SEED = 2**100


def reference_run(state, alice, bob, pairs, counts_seed, bootstrap_key):
    """Counts, estimate and {tag: (parameter, bootstrap std)} on literal stream keys.

    The counts draw on counts_seed and the first tag's bootstrap on bootstrap_key.
    """
    counts = simulate_counts(*full_data(state, alice, bob), pairs, seed=counts_seed)
    est, assessments = judge(counts, tilt_systematic(alice.directions @ state.t, bob),
                             bootstrap_key)
    return counts, est, {tag: (a.parameter, a.uncertainty) for tag, a in assessments.items()}


class TestSeedStreams:
    def test_simulate_subcommand_streams(self, tmp_path, capsys):
        config = coplanar_scenario(pairs_per_setting=2000, seed=LARGE_SEED)
        del config["sweep"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(path), "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        state, alice, bob = _state_and_frames(config)
        counts, est, expected = reference_run(state, alice, bob, 2000, LARGE_SEED,
                                              (LARGE_SEED, 1))
        assert payload["counts"] == counts.tolist()
        assert payload["correlation"] == est.matrix.tolist()
        for tag, (parameter, std) in expected.items():
            got = payload["assessments"][tag]
            assert (got["parameter"], got["uncertainty"]) == (parameter, std)

    def test_sweep_streams(self):
        config = coplanar_scenario(sweep={"alpha_deg": [0.0, 30.0]}, pairs_per_setting=2000,
                                   seed=LARGE_SEED)
        state, _, bob = _state_and_frames(config)
        for i, row in enumerate(run_scenario(config)):
            alice = frame_from_spec(config["alice_frame"] | {"alpha_deg": row.alpha_deg})
            _, _, expected = reference_run(state, alice, bob, 2000, (LARGE_SEED, i, 1),
                                           (LARGE_SEED, i, 2))
            assert (row.ris_sim, row.ris_err) == expected["ris"]
            assert (row.nss_sim, row.nss_err) == expected["nss"]

    def test_reproduce_streams(self):
        rows = build_report(pairs_per_setting=2000, seed=LARGE_SEED)
        checked = 0
        for i, (name, config, _) in enumerate(CASES):
            state, alice, bob = _state_and_frames(config)
            _, _, expected = reference_run(
                state, alice, bob, 2000, (LARGE_SEED, i), (LARGE_SEED, i, 1),
            )
            for row in rows:
                if row.case == name:
                    assert (row.simulated, row.sim_err) == expected[row.inequality]
                    checked += 1
        assert checked == len(rows)


def sweep_exit_code(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return main(["sweep", "--config", str(path)])


def coplanar_scenario(**overrides):
    scenario = {
        "state": {"kind": "werner", "W": 0.985},
        "alice_frame": {"kind": "pair", "normal": [0, 1, 0]},
        "bob_frame": {"kind": "pair", "normal": [0, 1, 0]},
        "sweep": {"alpha_deg": [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0]},
        "pairs_per_setting": 5_000,
        "seed": 101,
    }
    scenario.update(overrides)
    return scenario


class TestRunScenario:
    def test_coplanar_predictions_are_flat(self):
        rows = run_scenario(coplanar_scenario())
        assert len(rows) == 10
        for row in rows:
            assert_allclose(row.ris_pred, 1.97, atol=1e-12)
            assert_allclose(row.nss_pred, 1.97, atol=1e-12)
            assert_allclose(row.ris_bound, math.sqrt(2.0), atol=1e-15)
            assert row.ris_violated
            assert row.nss_violated

    def test_simulated_values_track_predictions(self):
        rows = run_scenario(coplanar_scenario(pairs_per_setting=50_000))
        for row in rows:
            assert abs(row.ris_sim - row.ris_pred) < 0.03
            assert abs(row.nss_sim - row.nss_pred) < 0.03
            assert row.ris_err > 0.0

    def test_tilted_plane_dip(self):
        scenario = coplanar_scenario(
            state={"kind": "werner", "W": 0.973},
            alice_frame={"kind": "pair", "normal": [0, 1, 0], "phi_deg": 64.0},
            sweep={"alpha_deg": [0.0, 45.0, 90.0]},
            pairs_per_setting=50_000,
            seed=7,
        )
        rows = run_scenario(scenario)
        ris_pred = 0.973 * (1.0 + math.cos(math.radians(64.0)))
        for row in rows:
            assert_allclose(row.ris_pred, ris_pred, atol=1e-12)
        # the two-setting parameter dips below its bound mid-sweep
        assert rows[0].nss_pred > math.sqrt(2.0)
        assert rows[1].nss_pred < math.sqrt(2.0)
        assert rows[2].nss_pred > math.sqrt(2.0)
        assert_allclose(rows[1].nss_pred, ris_pred, atol=1e-12)
        assert rows[0].nss_violated
        assert not rows[1].nss_violated

    def test_triad_scenario_skips_nss(self):
        scenario = {
            "state": {"kind": "werner", "W": 0.984},
            "alice_frame": {"kind": "named", "name": "standard_triad"},
            "bob_frame": {"kind": "named", "name": "standard_triad"},
            "pairs_per_setting": 20_000,
            "seed": 3,
        }
        rows = run_scenario(scenario)
        assert len(rows) == 1
        row = rows[0]
        assert_allclose(row.ris_pred, 3.0 * 0.984, atol=1e-12)
        assert row.nss_pred is None
        assert row.nss_sim is None
        assert_allclose(row.ris_bound, math.sqrt(3.0), atol=1e-15)

    def test_tetrahedron_scenario_value(self):
        scenario = {
            "state": {"kind": "werner", "W": 0.97},
            "alice_frame": {"kind": "named", "name": "tetrahedron"},
            "bob_frame": {"kind": "named", "name": "standard_triad"},
            "pairs_per_setting": 20_000,
            "seed": 3,
        }
        rows = run_scenario(scenario)
        assert_allclose(rows[0].ris_pred, 2.0 * math.sqrt(2.0) * 0.97, atol=1e-12)

    def test_deterministic_output(self):
        first = rows_to_csv(run_scenario(coplanar_scenario()))
        second = rows_to_csv(run_scenario(coplanar_scenario()))
        assert first == second
        different = rows_to_csv(run_scenario(coplanar_scenario(seed=102)))
        assert first != different

    def test_drift_scatters_simulated_values(self):
        quiet = run_scenario(coplanar_scenario(pairs_per_setting=100_000, seed=23))
        noisy = run_scenario(coplanar_scenario(pairs_per_setting=100_000, seed=23, drift_sigma=0.03))
        quiet_spread = np.std([r.ris_sim for r in quiet])
        noisy_spread = np.std([r.ris_sim for r in noisy])
        assert noisy_spread > 2.0 * quiet_spread

    @pytest.mark.parametrize("scenario", [[], None, "werner"], ids=["list", "null", "string"])
    def test_rejects_non_mapping(self, scenario):
        with pytest.raises(ValueError, match="scenario must be a mapping"):
            run_scenario(scenario)

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="state"):
            run_scenario({"alice_frame": {}, "bob_frame": {}})

    def test_rejects_sweep_without_pair_frame(self):
        scenario = coplanar_scenario(alice_frame={"kind": "named", "name": "standard_triad"})
        with pytest.raises(ValueError, match="pair"):
            run_scenario(scenario)

    def test_rejects_empty_sweep_list(self):
        with pytest.raises(ValueError, match="sweep alpha list is empty"):
            run_scenario(coplanar_scenario(sweep={"alpha_deg": []}))

    @pytest.mark.parametrize("key, value", [
        ("phi_deg", 64.0),
        ("inequalities", ["ris", "nss"]),
    ], ids=["phi_deg", "inequalities"])
    def test_rejects_removed_key(self, tmp_path, capsys, key, value):
        # phi_deg overrode the alice pair spec's, and inequalities chose
        # among inequalities_for(m); no subcommand reads either any more
        assert sweep_exit_code(tmp_path, coplanar_scenario(**{key: value})) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f'no subcommand reads config key "{key}"' in captured.err

    def test_rejects_nss_for_triads(self, tmp_path, capsys):
        # a triad scenario reports ris alone; nss cannot be asked for
        # because the config loader refuses the inequalities key itself
        scenario = {
            "state": {"kind": "werner", "W": 0.9},
            "alice_frame": {"kind": "named", "name": "standard_triad"},
            "bob_frame": {"kind": "named", "name": "standard_triad"},
            "inequalities": ["ris", "nss"],
            "pairs_per_setting": 1000,
        }
        assert sweep_exit_code(tmp_path, scenario) == EXIT_CONFIG
        assert 'no subcommand reads config key "inequalities"' in capsys.readouterr().err

    def test_rejects_unknown_inequality(self, tmp_path, capsys):
        scenario = coplanar_scenario(inequalities=["ris", "chsh"])
        assert sweep_exit_code(tmp_path, scenario) == EXIT_CONFIG
        assert 'no subcommand reads config key "inequalities"' in capsys.readouterr().err

    def test_rejects_drift_for_matrix_state(self):
        rho = werner_state(0.9)
        scenario = coplanar_scenario(
            state={"kind": "matrix", "re": rho.real.tolist()},
            drift_sigma=0.05,
        )
        with pytest.raises(ValueError, match="drift"):
            run_scenario(scenario)

    @pytest.mark.parametrize("drift", [math.nan, math.inf, -math.inf, -0.01])
    def test_rejects_drift_outside_nonnegative_reals(self, drift):
        # NaN used to run with no drift applied (NaN > 0 is False)
        with pytest.raises(ValueError, match="drift_sigma"):
            run_scenario(coplanar_scenario(drift_sigma=drift))


class TestConfigReaders:
    @pytest.mark.parametrize("key, minimum, cap", [
        ("pairs_per_setting", 1, MAX_PAIRS_PER_SETTING),
    ])
    def test_caps_are_inclusive(self, key, minimum, cap):
        assert _config_int({key: cap}, key, 10, minimum, cap) == cap
        assert _config_int({key: minimum}, key, 10, minimum, cap) == minimum
        for value in (cap + 1, 10**30, minimum - 1):
            with pytest.raises(ValueError, match=f'"{key}" must be an integer in'):
                _config_int({key: value}, key, 10, minimum, cap)

    def test_caps_cover_documented_use(self):
        # 100 000 pairs are the example configs' value
        assert MAX_PAIRS_PER_SETTING >= 100 * 100_000
        # numpy's Poisson sampler rejects means above ~9.2e18
        assert MAX_PAIRS_PER_SETTING < 1e18

    def test_int_reader_uses_default_and_accepts_numpy_integers(self):
        assert _config_int({}, "seed", 7, 0) == 7
        value = _config_int({"seed": np.int64(5)}, "seed", 7, 0)
        assert value == 5 and type(value) is int

    @pytest.mark.parametrize("value", [True, 2.0, "2", None, [2], math.nan])
    def test_int_reader_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match='"seed" must be an integer >= 0'):
            _config_int({"seed": value}, "seed", 0, 0)

    def test_float_reader_returns_floats(self):
        assert _config_float({}, "phi_deg", 0.0) == 0.0
        for value in (3, np.float64(-2.5), -1e308, 10**300):
            number = _config_float({"phi_deg": value}, "phi_deg")
            assert number == float(value) and type(number) is float

    @pytest.mark.parametrize("value", [
        True, "1.5", None, [1.0], {}, math.nan, math.inf, -math.inf, 10**400, -(10**400),
    ])
    def test_float_reader_rejects_non_finite_and_non_numbers(self, value):
        with pytest.raises(ValueError, match='"phi_deg" must be a finite number, got'):
            _config_float({"phi_deg": value}, "phi_deg", 0.0)

    def test_float_reader_minimum(self):
        assert _config_float({"drift_sigma": 0}, "drift_sigma", 0.0, 0.0) == 0.0
        with pytest.raises(ValueError, match='"drift_sigma" must be a finite number >= 0'):
            _config_float({"drift_sigma": -1e-300}, "drift_sigma", 0.0, 0.0)


class TestSerialization:
    def test_csv_header_and_round_trip(self):
        rows = run_scenario(coplanar_scenario(sweep={"alpha_deg": [0.0, 30.0]}))
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER == (
            "alpha_deg,ris_pred,ris_sim,ris_err,nss_pred,nss_sim,nss_err,"
            "ris_bound,nss_bound,ris_violated,nss_violated"
        )
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert float(fields[0]) == 0.0
        # full-precision round trip
        assert float(fields[1]) == rows[0].ris_pred
        assert float(fields[3]) == rows[0].ris_err
        assert fields[9] in ("true", "false")

    def test_csv_empty_cells_for_missing_nss(self):
        scenario = {
            "state": {"kind": "werner", "W": 0.9},
            "alice_frame": {"kind": "named", "name": "standard_triad"},
            "bob_frame": {"kind": "named", "name": "standard_triad"},
            "pairs_per_setting": 1000,
        }
        text = rows_to_csv(run_scenario(scenario))
        fields = text.strip().split("\n")[1].split(",")
        assert fields[4] == ""
        assert fields[5] == ""
        assert fields[10] == ""

    def test_dicts_mirror_rows(self):
        # the JSON payload of sweep
        scenario = coplanar_scenario(sweep={"alpha_deg": [15.0]})
        rows = run_scenario(scenario)
        payload, _ = cmd_sweep(scenario)
        assert payload[0]["alpha_deg"] == 15.0
        assert payload[0]["ris_sim"] == rows[0].ris_sim
        assert payload[0]["nss_violated"] == rows[0].nss_violated
        assert list(payload[0]) == [
            "alpha_deg", "ris_pred", "ris_sim", "ris_err", "nss_pred", "nss_sim", "nss_err",
            "ris_bound", "nss_bound", "ris_violated", "nss_violated",
        ]
