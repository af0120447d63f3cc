import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import _reference
from steerkit import lhs
from steerkit.frames import ORTHONORMAL_TOL, MeasurementFrame, require_orthonormal
from steerkit.lhs import (
    MAX_ALICE_SETTINGS,
    LhsModel,
    alice_sign_vectors,
    evaluate_lhs_model,
    lhs_gauge,
    lhs_membership,
)
from steerkit.states import spin_correlation_matrix, werner_state
from steerkit.steering import assess, inequalities_for, predicted_correlation

SQRT2 = math.sqrt(2.0)

ALICE_COUNTS = st.integers(min_value=1, max_value=MAX_ALICE_SETTINGS)
UP_TO_THREE = st.integers(min_value=1, max_value=3)
BOB_COUNTS = UP_TO_THREE
UNIT_INTERVAL = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
# The T-state correlations c = (c_1, c_2, c_3) of diag(c) fill the tetrahedron
# whose vertices are the four Bell states'.
TETRAHEDRON = np.array([[-1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])


def random_unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


@st.composite
def correlation_matrices(draw, m=ALICE_COUNTS, n=BOB_COUNTS):
    """Matrices whose rows have length at most 1, so that M R stays in range."""
    shape = (draw(m), draw(n))
    raw = draw(hnp.arrays(np.float64, shape, elements=UNIT_INTERVAL))
    lengths = np.linalg.norm(raw, axis=1, keepdims=True)
    return raw / np.maximum(lengths, 1.0)


@st.composite
def explicit_mixtures(draw, m=ALICE_COUNTS):
    """Mixtures of 1-7 atoms whose Bob vectors all have length 1."""
    m, n = draw(m), draw(BOB_COUNTS)
    atoms = draw(st.integers(min_value=1, max_value=7))
    weights = draw(hnp.arrays(np.float64, atoms, elements=st.floats(0.01, 1.0)))
    signs = draw(hnp.arrays(np.float64, (atoms, m), elements=st.sampled_from((-1.0, 1.0))))
    blochs = draw(hnp.arrays(np.float64, (atoms, n), elements=UNIT_INTERVAL))
    lengths = np.linalg.norm(blochs, axis=1)
    assume(lengths.min() > 1e-3)
    weights = weights / weights.sum()
    blochs = blochs / lengths[:, None]
    return np.einsum("i,ij,ik->jk", weights, signs, blochs)


def verdict_status(matrix) -> str:
    """lhs_membership's status, or "undecided" where it raises."""
    try:
        return lhs_membership(matrix).status
    except ArithmeticError:
        return "undecided"


def haar_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


class TestExtremePoints:
    def test_sign_vector_order(self):
        signs = alice_sign_vectors(2)
        assert_allclose(signs, [[-1, -1], [-1, 1], [1, -1], [1, 1]])

    @pytest.mark.parametrize("m", [0, MAX_ALICE_SETTINGS + 1])
    def test_sign_vectors_reject_setting_count_out_of_range(self, m):
        with pytest.raises(ValueError, match="alice setting count"):
            alice_sign_vectors(m)

    def test_extreme_point_count_and_shape(self):
        # a feasible certificate is a convex combination of extreme points
        # a u^T: at most 2^(m-1) sign-vector atoms plus the +-e1 slack pair
        rng = np.random.default_rng(13)
        for m, n in itertools.product((1, 2, 3), repeat=2):
            matrix = rng.uniform(-1.0, 1.0, size=(m, n))
            matrix *= 0.9 / lhs_gauge(matrix)
            model = lhs_membership(matrix).model
            count = len(model.weights)
            assert 1 <= count <= 2 ** (m - 1) + 2
            assert model.alice_responses.shape == (count, m)
            assert model.bob_blochs.shape == (count, n)
            assert_allclose(np.abs(model.alice_responses), 1.0)
            assert_allclose(np.linalg.norm(model.bob_blochs, axis=1), 1.0, atol=1e-12)

    def test_first_block_is_first_sign_vector(self):
        # the extreme points built on the first sign vector (all -1) have
        # gauge 1 and are certified by a single atom
        rng = np.random.default_rng(17)
        for m, n in itertools.product((1, 2, 3), repeat=2):
            first = alice_sign_vectors(m)[0]
            assert_allclose(first, -np.ones(m))
            point = np.outer(first, random_unit(rng, n))
            assert_allclose(lhs_gauge(point), 1.0, atol=1e-12)
            model = lhs_membership(point).model
            top = int(np.argmax(model.weights))
            assert model.weights[top] >= 1.0 - 1e-12
            atom = np.outer(model.alice_responses[top], model.bob_blochs[top])
            assert_allclose(atom, point, atol=1e-12)

    def test_trace_norm_bound_on_extreme_points(self):
        rng = np.random.default_rng(7)
        for m, n in itertools.product((1, 2, 3), repeat=2):
            for a in alice_sign_vectors(m):
                point = np.outer(a, random_unit(rng, n))
                assert np.linalg.norm(point, "nuc") <= math.sqrt(m) + 1e-12
                assert lhs_membership(point).status == "feasible"


class TestLhsModel:
    def test_single_atom_evaluation(self):
        model = LhsModel(weights=[1.0], alice_responses=[[1.0, 1.0]], bob_blochs=[[0.0, 1.0]])
        assert_allclose(evaluate_lhs_model(model), [[0.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_uniform_sign_mixture_cancels(self):
        model = LhsModel(
            weights=[0.5, 0.5],
            alice_responses=[[1.0, 1.0], [-1.0, -1.0]],
            bob_blochs=[[1.0, 0.0], [1.0, 0.0]],
        )
        assert_allclose(evaluate_lhs_model(model), np.zeros((2, 2)), atol=1e-15)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            LhsModel([0.6, 0.6], [[1.0], [1.0]], [[1.0], [1.0]])
        with pytest.raises(ValueError):
            LhsModel([-0.1, 1.1], [[1.0], [1.0]], [[1.0], [1.0]])
        with pytest.raises(ValueError, match="weights must be finite"):
            LhsModel([math.nan], [[1.0]], [[1.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["alice_responses", "bob_blochs"])
    def test_rejects_non_finite_array(self, name, bad):
        arrays = {"alice_responses": [[1.0]], "bob_blochs": [[0.0, 0.0, 1.0]]}
        arrays[name][0][0] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LhsModel([1.0], **arrays)

    @pytest.mark.parametrize("weights, alice_responses, bob_blochs, match", [
        ([[1.0]], [[1.0]], [[0.0, 0.0, 1.0]], "dimensionality"),
        ([0.5, 0.5], [[1.0]], [[0.0, 0.0, 1.0]], "leading length"),
        ([1.0], [[1.0]], [[0.0, 0.0, 0.0, 1.0]], "bob_blochs must have 1 to 3 components, got 4"),
        ([1.0], [[1.5]], [[0.0, 0.0, 1.0]], r"alice responses must lie in \[-1, 1\]"),
    ], ids=["2-d weights", "short responses", "4-vector bloch", "response 1.5"])
    def test_rejects_malformed_model(self, weights, alice_responses, bob_blochs, match):
        with pytest.raises(ValueError, match=match):
            LhsModel(weights, alice_responses, bob_blochs)

    def test_rejects_long_bloch_vector(self):
        with pytest.raises(ValueError):
            LhsModel([1.0], [[1.0]], [[2.0, 0.0, 0.0]])


class TestProjectiveCriterion:
    @pytest.mark.parametrize("w", [0.0, 0.3, 0.5, 0.75, 1.0])
    def test_werner_is_twice_its_weight(self, w):
        # steerable by projective measurements exactly above W = 1/2
        assert_allclose(_reference.n_projective(-w * np.eye(3)), 2.0 * w, rtol=1e-13, atol=0.0)

    def test_rank_one_is_its_largest_entry(self):
        assert _reference.n_projective(np.diag([1.0, 0.0, 0.0])) == 1.0

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_rank_two_is_a_quarter_turn(self, s):
        # |n^T T| = s sin(theta), whose integral over the sphere is s pi^2
        assert_allclose(_reference.n_projective(np.diag([s, s, 0.0])), s * math.pi / 2.0,
                        rtol=1e-13, atol=0.0)


class TestMembership:
    def test_zero_matrix_feasible(self):
        verdict = lhs_membership(np.zeros((2, 2)))
        assert verdict.status == "feasible"
        assert verdict.gap <= 1e-9
        assert verdict.model is not None

    def test_sub_boundary_diagonal_feasible_with_certificate(self):
        m = -(1.0 / SQRT2 - 0.05) * np.eye(2)
        verdict = lhs_membership(m)
        assert verdict.status == "feasible"
        model = verdict.model
        assert len(model.weights) <= 2 * 2 + 1
        assert_allclose(model.weights.sum(), 1.0, atol=1e-9)
        assert np.abs(evaluate_lhs_model(model) - m).sum() <= 1e-9

    def test_super_boundary_diagonal_infeasible_with_certificate(self):
        m = -0.8 * np.eye(2)
        verdict = lhs_membership(m)
        assert verdict.status == "infeasible"
        g = verdict.separator
        # the exact support over the LHS set is 1, and M scores above it
        signs = alice_sign_vectors(2)
        true_support = np.linalg.norm(signs @ g, axis=1).max()
        assert_allclose(true_support, 1.0, atol=1e-12)
        score_on_m = float(np.sum(g * m))
        assert_allclose(score_on_m, 1.0 + verdict.gap, atol=1e-12)
        assert score_on_m > true_support

    def test_matches_two_setting_predicate_away_from_boundary(self):
        rng = np.random.default_rng(59)
        checked = 0
        while checked < 30:
            raw = rng.uniform(-1.0, 1.0, size=(2, 2))
            target = rng.uniform(1.2, 1.6)
            m = raw * (target / assess(raw, "nss").parameter)
            if np.abs(m).max() > 1.0 or abs(target - SQRT2) <= 1e-9:
                continue
            verdict = lhs_membership(m)
            if target > SQRT2:
                assert verdict.status == "infeasible", f"nss={target}"
            else:
                assert verdict.status == "feasible", f"nss={target}"
            checked += 1

    def test_three_setting_diagonal_cases(self):
        assert lhs_membership(-0.5 * np.eye(3)).status == "feasible"
        assert lhs_membership(-0.9 * np.eye(3)).status == "infeasible"

    def test_boundary_diagonal_feasible(self):
        # -I/sqrt(3) lies exactly on the boundary: the mixture of the four
        # atoms (a, -a/sqrt(3)) with weight 1/4 reproduces it.
        m = -(1.0 / math.sqrt(3.0)) * np.eye(3)
        assert_allclose(lhs_gauge(m), 1.0, atol=1e-12)
        verdict = lhs_membership(m)
        assert verdict.status == "feasible"
        assert np.abs(evaluate_lhs_model(verdict.model) - m).max() <= 1e-12
        # Alice on the axes of a regular polyhedron and Bob on the triad:
        # the gauge of -A is C_n, the inverse of the Werner weight at which
        # the exact test starts to certify (Saunders et al., Nat. Phys. 6,
        # 845, 2010), and -A / C_n lies on the boundary
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        cube = [[1, 1, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1]]
        icosahedron = [[0, 1, phi], [0, 1, -phi], [1, phi, 0], [1, -phi, 0], [phi, 0, 1],
                       [-phi, 0, 1]]
        cuboctahedron = [[1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1], [0, 1, 1], [0, 1, -1]]
        table = [
            (np.eye(3)[:2], SQRT2),
            (np.eye(3), math.sqrt(3.0)),
            (np.array(cube) / math.sqrt(3.0), math.sqrt(3.0)),
            (np.array(icosahedron) / math.hypot(1.0, phi), 3.0 / phi),
            (np.array(cuboctahedron) / SQRT2, math.sqrt(3.6)),
        ]
        for axes, c_n in table:
            assert abs(lhs_gauge(-axes) - c_n) <= 1e-9
            boundary = -axes / c_n
            verdict = lhs_membership(boundary)
            assert verdict.status == "feasible"
            assert np.abs(evaluate_lhs_model(verdict.model) - boundary).max() <= 1e-12

    def test_just_outside_boundary_infeasible(self):
        m = -(1.0 + 1e-6) / math.sqrt(3.0) * np.eye(3)
        verdict = lhs_membership(m)
        assert verdict.status == "infeasible"
        assert_allclose(verdict.gap, 1e-6, rtol=1e-6)

    def test_undecided_matrix_raises(self, monkeypatch):
        rng = np.random.default_rng(5)
        raw = rng.uniform(-1.0, 1.0, size=(3, 3))
        m = raw / lhs_gauge(raw)
        # a solver stopped at its starting point Z = 0 leaves the gauge
        # bracketed around 1, which neither certificate may settle
        monkeypatch.setattr(lhs, "_smoothed_newton", lambda v0, null: (v0, lhs._unit_rows(v0)[1]))
        with pytest.raises(ArithmeticError, match="undecided"):
            lhs_membership(m)

    def test_one_atom_model_through_skewed_pair_is_not_violated(self):
        # Bob's pair is 9e-11 off orthonormal, inside ORTHONORMAL_TOL, and the
        # atom's Bloch vector lies along its top right-singular vector, so RIS
        # and NSS exceed sqrt(2) by 6.4e-11; both read violated before
        bob = MeasurementFrame([[1.0, 0.0, 0.0], [9e-11, 1.0, 0.0]])
        top = np.linalg.svd(bob.directions)[2][0]
        model = LhsModel(np.ones(1), np.ones((1, 2)), top[None, :])
        matrix = evaluate_lhs_model(model) @ bob.directions.T
        for tag in inequalities_for(2):
            assessment = assess(matrix, tag)
            assert assessment.margin > 0.0
            assert not assessment.violated
        assert lhs_membership(matrix).status == "feasible"

    def test_single_setting_cases(self):
        verdict = lhs_membership(np.array([[0.7]]))
        assert verdict.status == "feasible"
        assert_allclose(evaluate_lhs_model(verdict.model), [[0.7]], atol=1e-9)
        row = np.array([[0.6, 0.0, 0.8]])
        assert_allclose(lhs_gauge(row), 1.0, atol=1e-15)
        assert lhs_membership(row).status == "feasible"
        assert lhs_membership(np.array([[0.6, 0.1, 0.8]])).status == "infeasible"

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            lhs_membership(np.array([[1.2]]))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError):
            lhs_membership(np.array([[np.nan, 0.0]]))

    def test_rejects_mismatched_grid(self):
        # the oracle is exact: a grid or a tolerance is no longer accepted
        with pytest.raises(TypeError):
            lhs_membership(np.zeros((2, 3)), grid=None)
        with pytest.raises(TypeError):
            lhs_membership(np.zeros((2, 3)), tol=1e-7)

    def test_rejects_oversized_matrix(self):
        # Alice holds at most MAX_ALICE_SETTINGS settings and Bob three;
        # unchecked, 0.9 [I3 | 0] read infeasible with a 3x4 separator
        with pytest.raises(ValueError, match="at most 6x3, got 7x3"):
            lhs_membership(np.zeros((7, 3)))
        with pytest.raises(ValueError, match="at most 6x3, got 3x4"):
            lhs_membership(0.9 * np.hstack([np.eye(3), np.zeros((3, 1))]))

    def test_rejects_matrix_that_is_not_2d(self):
        with pytest.raises(ValueError, match="2-d correlation matrix"):
            lhs_membership(np.zeros(3))


class TestMaxTraceNorm:
    """The RIS bound sqrt(m) is attained by the extreme point 1 c^T."""

    def test_circle_reaches_sqrt2(self):
        c = np.array([math.cos(0.3), math.sin(0.3)])
        point = np.outer(np.ones(2), c)
        assert_allclose(np.linalg.norm(point, "nuc"), SQRT2, atol=1e-12)
        assert lhs_membership(point).status == "feasible"

    def test_sphere_reaches_sqrt3(self):
        c = random_unit(np.random.default_rng(3), 3)
        point = np.outer(np.ones(3), c)
        assert_allclose(np.linalg.norm(point, "nuc"), math.sqrt(3.0), atol=1e-12)
        assert lhs_membership(point).status == "feasible"
        assert lhs_membership((1.0 + 1e-6) * point).status == "infeasible"

    def test_single_setting_value(self):
        assert_allclose(np.linalg.norm(np.array([[1.0]]), "nuc"), 1.0, atol=1e-12)
        assert lhs_membership(np.array([[1.0]])).status == "feasible"

    def test_never_exceeds_bound(self):
        rng = np.random.default_rng(11)
        for m, n in itertools.product((1, 2, 3), repeat=2):
            for _ in range(20):
                matrix = rng.uniform(-1.0, 1.0, size=(m, n)) * rng.uniform(0.2, 1.0)
                if lhs_membership(matrix).status == "feasible":
                    assert np.linalg.norm(matrix, "nuc") <= math.sqrt(m) + 1e-12


class TestProperties:
    @settings(deadline=None)
    @given(explicit_mixtures())
    def test_explicit_mixture_is_feasible(self, matrix):
        verdict = lhs_membership(matrix)
        assert verdict.status == "feasible"
        assert verdict.model.bob_blochs.shape[1] == matrix.shape[1]
        assert np.abs(evaluate_lhs_model(verdict.model) - matrix).max() <= 1e-9

    @settings(deadline=None)
    @given(st.one_of(correlation_matrices(m=UP_TO_THREE), explicit_mixtures(m=UP_TO_THREE)))
    # four nearly collinear Fermat-Weber points, where the reference once
    # stopped 1.4e-12 short of the optimum that a 50-digit solve confirms
    @example(np.array([[0.0, 1.0], [2.0**-14, 0.75], [0.0, 0.5]]))
    def test_matches_reference_up_to_three_settings(self, matrix):
        # the reference is the earlier closed form (m <= 2) and Fermat-Weber
        # solve (m = 3), patched in for the null-space continuation
        _, v, _ = _reference._optimal_decomposition(matrix)
        assert abs(lhs_gauge(matrix) - _reference._unit_rows(v)[0].sum()) <= 1e-12
        with mock.patch.object(lhs, "_optimal_decomposition", _reference._optimal_decomposition):
            expected = verdict_status(matrix)
        assert verdict_status(matrix) == expected

    @settings(deadline=None)
    @given(correlation_matrices(m=st.just(2)))
    def test_two_setting_gauge_is_nss_over_sqrt2(self, matrix):
        assert abs(lhs_gauge(matrix) - assess(matrix, "nss").parameter / SQRT2) <= 1e-12

    @settings(deadline=None)
    @given(correlation_matrices(n=st.just(1)))
    def test_one_bob_setting_gauge_is_largest_entry(self, matrix):
        # with one Bob setting the LHS set is the cube [-1, 1]^m, so the gauge
        # is exact at every m, past the m <= 3 reference above
        assert abs(lhs_gauge(matrix) - np.abs(matrix).max()) <= 1e-12

    @settings(deadline=None)
    @given(
        correlation_matrices(),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=MAX_ALICE_SETTINGS - 1),
        st.permutations(range(MAX_ALICE_SETTINGS)),
    )
    def test_verdict_invariant_under_symmetries(self, matrix, seed, flipped, order):
        m, n = matrix.shape
        gauge = lhs_gauge(matrix)
        flips = np.ones((m, 1))
        flips[min(flipped, m - 1)] = -1.0
        images = [(flips * matrix)[[i for i in order if i < m]]]
        if n == 3:
            images.append(matrix @ haar_rotation(np.random.default_rng(seed)))
        for image in images:
            assert abs(lhs_gauge(image) - gauge) <= 1e-12 * max(1.0, gauge)
            if abs(gauge - 1.0) > 1e-8:
                assert lhs_membership(image).status == lhs_membership(matrix).status

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(np.float64, 4, elements=st.floats(0.0, 1.0)),
        st.integers(min_value=0, max_value=2**32 - 1),
        ALICE_COUNTS.flatmap(lambda m: hnp.arrays(np.float64, (m, 3), elements=UNIT_INTERVAL)),
        BOB_COUNTS,
    )
    def test_projective_criterion_bounds_the_oracle(self, weights, seed, alice, n):
        # N(T) decides a T-state under every projective measurement of Alice's
        # (Jevtic et al.), so no m of her settings show more than it does
        assume(weights.sum() > 1e-3)
        lengths = np.linalg.norm(alice, axis=1, keepdims=True)
        assume(lengths.min() > 1e-3)
        rng = np.random.default_rng(seed)
        c = weights @ TETRAHEDRON / weights.sum()
        t = _reference.random_rotation(rng) @ np.diag(c) @ _reference.random_rotation(rng).T
        matrix = (alice / lengths) @ t @ _reference.random_rotation(rng)[:n].T
        criterion = _reference.n_projective(t)
        if verdict_status(matrix) == "infeasible":
            assert criterion > 1.0
        if criterion >= 1.0:
            assert lhs_gauge(matrix) <= criterion * (1.0 + 1e-6)

    @settings(deadline=None)
    @given(correlation_matrices())
    def test_infeasible_separator_passes_independent_check(self, matrix):
        verdict = lhs_membership(matrix)
        if verdict.status != "infeasible":
            return
        g = verdict.separator
        support = max(
            math.sqrt(sum(sum(a[j] * g[j, k] for j in range(len(a))) ** 2 for k in range(g.shape[1])))
            for a in itertools.product((-1.0, 1.0), repeat=g.shape[0])
        )
        score = float(np.sum(g * matrix))
        assert support <= 1.0 + 1e-12
        assert score > support
        assert_allclose(score, 1.0 + verdict.gap, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(correlation_matrices())
    def test_infeasible_separator_attains_the_gauge(self, matrix):
        # <G, M> = 1 + gap reaches the gauge, so the separator is the gauge's
        # optimal dual, not only some functional that separates M
        verdict = lhs_membership(matrix)
        if verdict.status == "infeasible":
            assert_allclose(1.0 + verdict.gap, lhs_gauge(matrix), rtol=1e-12, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        # the shapes whose RIS threshold lies at W <= 1 for Haar frames; the
        # others reach it only with Alice's rows in Bob's span
        st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-3e-9, max_value=3e-9),
    )
    def test_violated_werner_state_is_never_certified_feasible(self, shape, seed, offset):
        # a Werner state within 3e-9 of its RIS threshold, seen by Haar frames
        # whose Bob rows are perturbed within ORTHONORMAL_TOL: RIS and NSS may
        # call it violated only where the oracle cannot certify a mixture
        (m, n), rng = shape, np.random.default_rng(seed)
        alice = MeasurementFrame(haar_rotation(rng)[:m])
        skew = rng.uniform(-0.5, 0.5, size=(n, 3)) * ORTHONORMAL_TOL
        bob = MeasurementFrame(haar_rotation(rng)[:n] + skew)
        try:
            require_orthonormal(bob, "bob_frame")
        except ValueError:
            reject()
        threshold = math.sqrt(m) / np.linalg.norm(alice.directions @ bob.directions.T, "nuc")
        w = threshold + offset
        assume(w <= 1.0)
        matrix = predicted_correlation(spin_correlation_matrix(werner_state(w)), alice, bob)
        if any(assess(matrix, tag).violated for tag in inequalities_for(m)):
            try:
                status = lhs_membership(matrix).status
            except ArithmeticError:
                return
            assert status != "feasible"
