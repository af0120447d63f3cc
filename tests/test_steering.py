import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from steerkit.frames import (
    MeasurementFrame,
    pair_in_plane,
    rotate_frame,
    standard_triad,
    tetrahedron_frame,
    tilted_pair,
)
from steerkit.states import BlochState, spin_correlation_matrix, werner_state
from steerkit.steering import (
    assess,
    assess_nss,
    assess_ris,
    inequalities_for,
    min_nss_over_rotations,
    nss_predicted,
    predicted_correlation,
    ris_predicted,
)

from _reference import (
    haar_orthogonal,
    min_nss_by_search,
    nss_by_projectors,
    optimal_pair_planes,
    random_correlation_tensor,
    random_rotation,
    ris_by_projectors,
    werner_nss_closed_form,
    werner_ris_closed_form,
)

Y = np.array([0.0, 1.0, 0.0])

# Finite entries bounded so that no square or rotated entry overflows.
BOUNDED = st.floats(min_value=-1e100, max_value=1e100)
SETTING_COUNTS = st.integers(min_value=1, max_value=3)
# T of rho = A A^dag / Tr[A A^dag], a physical state for any complex A.
STATE_TS = (
    hnp.arrays(np.float64, (2, 4, 4), elements=st.floats(-1.0, 1.0))
    .map(lambda parts: parts[0] + 1j * parts[1])
    .map(lambda a: a @ a.conj().T)
    .filter(lambda gram: np.trace(gram).real > 1e-3)
    .map(lambda gram: BlochState(gram / np.trace(gram).real).t)
)
ORTHONORMAL_FRAMES = st.sampled_from((pair_in_plane(Y, 0.0), standard_triad()))


def projector(frame):
    """D^T D, the projector onto an orthonormal frame's span."""
    d = frame.directions
    return d.T @ d


class TestTraceNorm:
    def test_two_paths_agree_on_random_matrices(self):
        # the ris parameter wraps numpy's SVD too, so this pins its input
        # handling and summation over every shape from 1x1 to 3x3.
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            a = rng.normal(size=(m, n))
            ref = float(np.linalg.svd(a, compute_uv=False).sum())
            assert_allclose(assess(a, "ris").parameter, ref, atol=1e-10)

    def test_known_values(self):
        assert_allclose(assess(np.eye(3), "ris").parameter, 3.0, atol=1e-14)
        assert_allclose(assess(-0.7 * np.eye(2), "ris").parameter, 1.4, atol=1e-14)

    def test_rejects_nan_entry(self):
        m = np.eye(2)
        m[0, 1] = np.nan
        for tag in inequalities_for(2):
            with pytest.raises(ValueError, match="non-finite"):
                assess(m, tag)

    def test_rejects_non_2d_input(self):
        for tag in inequalities_for(2):
            with pytest.raises(ValueError, match="2-d"):
                assess(np.ones((2, 2, 2)), tag)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)], ids=["no-row", "no-column", "0x0"])
    def test_rejects_empty_input(self, shape):
        # (0, 3) read parameter 0, bound 0, not violated
        for tag in inequalities_for(2):
            with pytest.raises(ValueError, match="at least one row and one column"):
                assess(np.zeros(shape), tag)


class TestAssessments:
    def test_ris_violation_flag(self):
        assessment = assess_ris(-0.8 * np.eye(2))
        assert assessment.inequality == "ris"
        assert_allclose(assessment.parameter, 1.6, atol=1e-14)
        assert_allclose(assessment.bound, math.sqrt(2.0), atol=1e-15)
        assert assessment.violated
        assert assessment.margin > 0.18

    def test_rejects_unknown_inequality(self):
        with pytest.raises(ValueError, match="'chsh'"):
            assess(-np.eye(2), "chsh")

    def test_ris_boundary_is_not_violation(self):
        assessment = assess_ris(-(1.0 / math.sqrt(3.0)) * np.eye(3))
        assert not assessment.violated
        assert abs(assessment.margin) < 1e-12

    def test_nss_parameter_hand_value(self):
        # M = -I2: both rotated rows have norm 1, so the parameter is 2.
        assessment = assess_nss(-np.eye(2))
        assert_allclose(assessment.parameter, 2.0, atol=1e-14)
        assert assessment.violated
        assert_allclose(assessment.bound, math.sqrt(2.0), atol=1e-15)

    def test_nss_rejects_three_settings(self):
        with pytest.raises(ValueError, match="requires m = 2"):
            assess(np.eye(3), "nss")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nss_rejects_non_finite_entry(self, value):
        # NaN used to give parameter nan and violated=False, a silent non-verdict
        m = np.eye(2)
        m[0, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            assess(m, "nss")

    def test_nss_rejects_non_2d_input(self):
        with pytest.raises(ValueError, match="2-d"):
            assess(np.ones((2, 2, 2)), "nss")

    @pytest.mark.parametrize("value", [1e200, -1e200])
    def test_nss_rejects_overflowing_entries(self, value):
        # used to return inf with a RuntimeWarning; the ris parameter stays finite there
        m = np.array([[value, 0.0], [0.0, 1.0]])
        assert math.isfinite(assess(m, "ris").parameter)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="nss parameter overflows"):
                assess(m, "nss")

    def test_ris_rejects_overflowing_sum(self):
        # the trace norm overflows only when its singular values sum past the
        # float maximum; an inf parameter would read as a violation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="ris parameter overflows"):
                assess_ris(np.diag([1e308, 1e308]))


class TestPredictedParameters:
    def test_rotation_invariance_of_ris(self):
        t = spin_correlation_matrix(werner_state(1.0))
        rng = np.random.default_rng(37)
        values = []
        for _ in range(50):
            alice = rotate_frame(standard_triad(), random_rotation(rng))
            bob = rotate_frame(standard_triad(), random_rotation(rng))
            values.append(ris_predicted(t, alice, bob))
        assert_allclose(values, 3.0, atol=1e-10)

    def test_in_plane_invariance_for_pairs(self):
        t = spin_correlation_matrix(werner_state(0.9))
        rng = np.random.default_rng(39)
        base = ris_predicted(t, pair_in_plane(Y, 0.0), pair_in_plane(Y, 0.0))
        for _ in range(20):
            alice = pair_in_plane(Y, rng.uniform(0.0, 2.0 * np.pi))
            bob = pair_in_plane(Y, rng.uniform(0.0, 2.0 * np.pi))
            assert_allclose(ris_predicted(t, alice, bob), base, atol=1e-10)

    def test_projector_form_matches_direct_form(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            t = random_correlation_tensor(rng)
            alice = rotate_frame(pair_in_plane(Y, 0.3), random_rotation(rng))
            bob = rotate_frame(standard_triad(), random_rotation(rng))
            direct = np.linalg.norm(predicted_correlation(t, alice, bob), "nuc")
            assert_allclose(ris_predicted(t, alice, bob), direct, atol=1e-10)

    def test_rejects_non_orthonormal_frames(self):
        t = -np.eye(3)
        with pytest.raises(ValueError, match="orthonormal"):
            ris_predicted(t, tetrahedron_frame(), standard_triad())

    @pytest.mark.parametrize("t", [np.eye(2), np.eye(3)[:, :, None]], ids=["2x2", "3-d"])
    def test_rejects_t_that_is_not_3x3(self, t):
        with pytest.raises(ValueError, match=r"expected a \(3, 3\) spin-correlation"):
            predicted_correlation(t, standard_triad(), standard_triad())

    def test_non_orthonormal_path_via_direct_correlation(self):
        # The tetrahedron frame has no projector form, but the direct
        # correlation matrix still evaluates: value 2*sqrt(2)*W.
        w = 0.97
        t = spin_correlation_matrix(werner_state(w))
        m = predicted_correlation(t, tetrahedron_frame(), standard_triad())
        assert_allclose(assess(m, "ris").parameter, 2.0 * math.sqrt(2.0) * w, atol=1e-12)

    def test_nss_dominates_ris(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            t = random_correlation_tensor(rng)
            rot = random_rotation(rng)
            alpha = rng.uniform(0.0, 2.0 * np.pi)
            alice = rotate_frame(pair_in_plane(Y, alpha), rot)
            bob = rotate_frame(pair_in_plane(Y, rng.uniform(0.0, 2.0 * np.pi)), rot)
            assert nss_predicted(t, alice, bob) >= ris_predicted(t, alice, bob) - 1e-10


class TestWernerClosedForms:
    def test_ris_closed_form_special_cases(self):
        assert_allclose(werner_ris_closed_form(0.985, 0.0), 1.97, atol=1e-12)
        assert_allclose(werner_ris_closed_form(1.0, math.pi / 2.0), 1.0, atol=1e-12)

    def test_nss_closed_form_special_cases(self):
        assert_allclose(werner_nss_closed_form(1.0, math.pi / 2.0, 0.0), math.sqrt(2.0), atol=1e-12)
        assert_allclose(werner_nss_closed_form(1.0, math.pi / 2.0, math.pi / 4.0), 1.0, atol=1e-12)
        for alpha in np.linspace(0.0, np.pi, 7):
            assert_allclose(werner_nss_closed_form(0.9, 0.0, alpha), 1.8, atol=1e-12)

    def test_closed_forms_match_general_pipeline(self):
        for w in (0.4, 0.973, 1.0):
            t = spin_correlation_matrix(werner_state(w))
            for phi_deg in (0.0, 30.0, 64.0, 90.0):
                phi = math.radians(phi_deg)
                bob = pair_in_plane(Y, 0.0)
                for alpha_deg in (0.0, 20.0, 45.0, 70.0):
                    alpha = math.radians(alpha_deg)
                    alice = tilted_pair(phi, alpha, Y)
                    assert_allclose(
                        ris_predicted(t, alice, bob),
                        werner_ris_closed_form(w, phi),
                        atol=1e-12,
                    )
                    assert_allclose(
                        nss_predicted(t, alice, bob),
                        werner_nss_closed_form(w, phi, alpha),
                        atol=1e-12,
                    )

    def test_nss_dominates_ris_in_closed_form(self):
        for phi in np.linspace(0.0, np.pi / 2.0, 13):
            for alpha in np.linspace(0.0, np.pi / 2.0, 13):
                assert (
                    werner_nss_closed_form(0.95, phi, alpha)
                    >= werner_ris_closed_form(0.95, phi) - 1e-12
                )

    def test_minimum_over_alpha_recovers_ris(self):
        for phi_deg in (0.0, 25.0, 64.0, 90.0):
            phi = math.radians(phi_deg)
            alphas = np.radians(np.arange(0.0, 180.0, 0.1))
            nss = [werner_nss_closed_form(0.9, phi, a) for a in alphas]
            assert_allclose(min(nss), werner_ris_closed_form(0.9, phi), atol=1e-6)

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError):
            werner_ris_closed_form(1.5, 0.0)
        with pytest.raises(ValueError):
            werner_nss_closed_form(-0.1, 0.0, 0.0)


class TestMinOverRotations:
    def test_modes_agree_and_equal_trace_norm(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            t = random_correlation_tensor(rng)
            alice = rotate_frame(pair_in_plane(Y, 0.3), random_rotation(rng))
            bob = rotate_frame(pair_in_plane(Y, 1.1), random_rotation(rng))
            ref = ris_predicted(t, alice, bob)
            searched = min_nss_by_search(t, alice, bob)
            closed = min_nss_over_rotations(t, projector(alice), bob)
            assert_allclose(searched, closed, atol=1e-6)
            assert_allclose(searched, ref, atol=1e-6)

    def test_werner_coplanar_value(self):
        t = spin_correlation_matrix(werner_state(0.9))
        plane = projector(pair_in_plane(Y, 0.0))
        bob = pair_in_plane(Y, 0.0)
        assert_allclose(min_nss_over_rotations(t, plane, bob), 1.8, atol=1e-9)

    def test_werner_perpendicular_value(self):
        t = spin_correlation_matrix(werner_state(1.0))
        alice = tilted_pair(math.pi / 2.0, 0.0, Y)
        plane = projector(alice)
        bob = pair_in_plane(Y, 0.0)
        assert_allclose(min_nss_over_rotations(t, plane, bob), 1.0, atol=1e-7)

    def test_rejects_rank_one_plane(self):
        t = -np.eye(3)
        p1 = np.outer(Y, Y)
        with pytest.raises(ValueError, match="rank"):
            min_nss_over_rotations(t, p1, pair_in_plane(Y, 0.0))

    @pytest.mark.parametrize("plane, match", [
        (np.eye(2), r"expected a \(3, 3\) projector"),
        (np.diag([1.0, 1.0, 0.5]), "not a projector"),
        (np.triu(np.ones((3, 3))), "not a projector"),
    ], ids=["2x2", "not-idempotent", "not-symmetric"])
    def test_rejects_plane_that_is_not_a_projector(self, plane, match):
        with pytest.raises(ValueError, match=match):
            min_nss_over_rotations(-np.eye(3), plane, pair_in_plane(Y, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_plane(self, bad):
        plane = projector(pair_in_plane(Y, 0.0))
        plane[0, 0] = bad
        with pytest.raises(ValueError, match="alice_plane must be finite"):
            min_nss_over_rotations(-np.eye(3), plane, pair_in_plane(Y, 0.0))

    def test_rejects_unknown_mode(self):
        t = -np.eye(3)
        plane = projector(pair_in_plane(Y, 0.0))
        with pytest.raises(TypeError, match="mode"):
            min_nss_over_rotations(t, plane, pair_in_plane(Y, 0.0), mode="fast")


class TestOptimalPairPlanes:
    def test_value_is_top_two_singular_values(self):
        t = np.diag([0.9, 0.5, 0.1])
        alice_plane, bob_plane, value = optimal_pair_planes(t)
        assert_allclose(value, 1.4, atol=1e-12)
        expected = np.diag([1.0, 1.0, 0.0])
        assert_allclose(alice_plane, expected, atol=1e-12)
        assert_allclose(bob_plane, expected, atol=1e-12)

    def test_degenerate_spectrum_still_projector(self):
        alice_plane, bob_plane, value = optimal_pair_planes(-0.8 * np.eye(3))
        assert_allclose(value, 1.6, atol=1e-12)
        for p in (alice_plane, bob_plane):
            assert_allclose(p @ p, p, atol=1e-10)
            assert_allclose(np.trace(p), 2.0, atol=1e-10)

    def test_zero_tensor(self):
        _, _, value = optimal_pair_planes(np.zeros((3, 3)))
        assert_allclose(value, 0.0, atol=1e-15)

    def test_dominates_sampled_plane_pairs(self):
        rng = np.random.default_rng(53)
        t = random_correlation_tensor(rng)
        _, _, value = optimal_pair_planes(t)
        for _ in range(100):
            alice = rotate_frame(pair_in_plane(Y, 0.0), random_rotation(rng))
            bob = rotate_frame(pair_in_plane(Y, 0.0), random_rotation(rng))
            assert value >= ris_predicted(t, alice, bob) - 1e-9

    def test_deterministic_output(self):
        t = np.diag([0.9, 0.5, 0.5])
        first = optimal_pair_planes(t)
        second = optimal_pair_planes(t)
        assert_allclose(first[0], second[0])
        assert_allclose(first[1], second[1])


class TestProperties:
    @settings(deadline=None)
    @given(SETTING_COUNTS.flatmap(
        lambda n: hnp.arrays(np.float64, (2, n), elements=BOUNDED)))
    def test_nss_dominates_trace_norm(self, matrix):
        # roundoff scales with the entries; 1e-12 absolute for |M_jk| <= 1
        tol = 1e-12 * max(1.0, float(np.abs(matrix).max()))
        assert assess(matrix, "nss").parameter >= assess(matrix, "ris").parameter - tol

    @settings(deadline=None)
    @given(
        st.tuples(SETTING_COUNTS, SETTING_COUNTS).flatmap(
            lambda shape: hnp.arrays(np.float64, shape, elements=BOUNDED)),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_trace_norm_invariant_under_local_orthogonal_maps(self, matrix, seed):
        rng = np.random.default_rng(seed)
        m, n = matrix.shape
        q_a, q_b = haar_orthogonal(rng, m), haar_orthogonal(rng, n)
        value = assess(matrix, "ris").parameter
        tol = 1e-12 * (1.0 + np.linalg.norm(matrix))
        assert abs(assess(q_a @ matrix @ q_b.T, "ris").parameter - value) <= tol

    @settings(deadline=None)
    @given(
        st.tuples(st.integers(min_value=1, max_value=6), SETTING_COUNTS).flatmap(
            lambda shape: st.tuples(
                hnp.arrays(np.float64, shape[0], elements=st.floats(0.0, 1.0)),
                hnp.arrays(np.float64, shape, elements=st.sampled_from((-1.0, 1.0))),
                hnp.arrays(np.float64, (shape[0], 2), elements=st.floats(0.0, 2.0 * math.pi)),
            )),
        SETTING_COUNTS,
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_lhs_mixture_is_never_flagged(self, mixture, n, seed):
        # M_jk = sum_l w_l a_lj (s_l . b_k) for Alice's deterministic +-1
        # responses a_l and Bob's unit Bloch vectors s_l, seen through a
        # Haar-random orthonormal frame b_1..b_n
        weights, responses, angles = mixture
        assume(weights.sum() > 0.0)
        theta, phi = angles[:, 0] / 2.0, angles[:, 1]
        blochs = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                           np.cos(theta)], axis=1)
        bob = haar_orthogonal(np.random.default_rng(seed), 3)[:, :n]
        matrix = (weights / weights.sum() * responses.T) @ blochs @ bob
        assert not assess_ris(matrix).violated
        if matrix.shape[0] == 2:
            assert not assess_nss(matrix).violated

    @settings(deadline=None)
    @given(
        STATE_TS,
        st.integers(min_value=0, max_value=2**32 - 1),
        ORTHONORMAL_FRAMES,
        st.floats(0.0, 2.0 * math.pi),
    )
    def test_closed_form_never_exceeds_a_rotated_pair(self, t, seed, bob_frame, theta):
        rng = np.random.default_rng(seed)
        rotation = random_rotation(rng)
        plane = projector(rotate_frame(pair_in_plane(Y, 0.0), rotation))
        alice = rotate_frame(pair_in_plane(Y, theta), rotation)
        bob = rotate_frame(bob_frame, random_rotation(rng))
        assert nss_predicted(t, alice, bob) >= min_nss_over_rotations(t, plane, bob) - 1e-12

    @settings(deadline=None)
    @given(
        STATE_TS,
        st.integers(min_value=0, max_value=2**32 - 1),
        ORTHONORMAL_FRAMES,
        ORTHONORMAL_FRAMES,
    )
    def test_predictions_match_projector_forms(self, t, seed, alice_frame, bob_frame):
        rng = np.random.default_rng(seed)
        alice = rotate_frame(alice_frame, random_rotation(rng))
        bob = rotate_frame(bob_frame, random_rotation(rng))
        ris = ris_by_projectors(t, alice, bob)
        assert abs(ris_predicted(t, alice, bob) - ris) <= 1e-12
        if alice.size == 2:
            assert abs(nss_predicted(t, alice, bob) - nss_by_projectors(t, alice, bob)) <= 1e-12
            plane = projector(alice)
            assert abs(min_nss_over_rotations(t, plane, bob) - ris) <= 1e-12
