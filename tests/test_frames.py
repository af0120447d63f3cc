import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from steerkit import BOUNDARY_MARGIN
from steerkit.frames import (
    ORTHONORMAL_TOL,
    MeasurementFrame,
    frame_from_spec,
    in_plane_reference,
    misaligned_triad,
    pair_in_plane,
    require_orthonormal,
    rotate_frame,
    rotation_about,
    standard_triad,
    tetrahedron_frame,
    tilted_pair,
    unit,
)
from steerkit.steering import ris_predicted

from _reference import random_rotation

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


class TestMeasurementFrame:
    def test_accepts_single_direction(self):
        frame = MeasurementFrame([0.0, 0.0, 1.0])
        assert frame.size == 1
        assert_allclose(frame.directions, [[0.0, 0.0, 1.0]])

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            MeasurementFrame([[0.0, 0.0, 2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="directions must be finite"):
            MeasurementFrame([[bad, 0.0, 0.0], [0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("directions", [[[0.0, 0.0, 1.0, 0.0]], np.zeros((1, 1, 3))],
                             ids=["four-components", "3-d"])
    def test_rejects_array_that_is_not_m_by_3(self, directions):
        with pytest.raises(ValueError, match=r"expected an \(m, 3\) array"):
            MeasurementFrame(directions)

    def test_repr_lists_directions(self):
        frame = MeasurementFrame([[0.6, 0.0, 0.8], [1.0, 0.0, 0.0]])
        assert repr(frame) == f"MeasurementFrame(directions={frame.directions!r})"
        assert "[0.6, 0. , 0.8]" in repr(frame)

    def test_rejects_too_many_rows(self):
        # one more than MAX_ALICE_SETTINGS
        with pytest.raises(ValueError, match="1 to 6 directions, got 7"):
            MeasurementFrame(np.vstack([np.eye(3), np.eye(3), [1.0, 0.0, 0.0]]))

    def test_directions_are_read_only(self):
        frame = standard_triad()
        with pytest.raises(ValueError):
            frame.directions[0, 0] = 2.0
        with pytest.raises(AttributeError):
            frame.directions = np.eye(3)

    def test_tetrahedron_gram(self):
        g = tetrahedron_frame().gram()
        assert_allclose(np.diag(g), np.ones(3), atol=1e-12)
        off = g[~np.eye(3, dtype=bool)]
        assert_allclose(off, np.full(6, 0.5), atol=1e-12)


class TestRequireOrthonormal:
    def test_accepts_orthonormal_frames(self):
        for frame in (standard_triad(), misaligned_triad(), pair_in_plane(Y, 0.3),
                      MeasurementFrame([[0.6, 0.8, 0.0]])):
            require_orthonormal(frame, "bob_frame")

    def test_rejects_tetrahedron(self):
        with pytest.raises(ValueError, match="bob_frame"):
            require_orthonormal(tetrahedron_frame(), "bob_frame")

    @pytest.mark.parametrize("gram_error, accepted", [(5e-10, False), (5e-11, True)])
    def test_tolerance_boundary(self, gram_error, accepted):
        # one tolerance, ORTHONORMAL_TOL = 1e-10, for every check
        frame = MeasurementFrame([[1.0, 0.0, 0.0], [gram_error, 1.0, 0.0]])
        assert_allclose(frame.gram()[0, 1], gram_error, rtol=1e-6)
        t = -np.eye(3)
        if accepted:
            require_orthonormal(frame, "bob_frame")
            assert_allclose(ris_predicted(t, standard_triad(), frame), 2.0, atol=1e-9)
        else:
            with pytest.raises(ValueError, match="bob_frame"):
                require_orthonormal(frame, "bob_frame")
            with pytest.raises(ValueError, match="bob_frame"):
                ris_predicted(t, standard_triad(), frame)

    @pytest.mark.parametrize("n", [2, 3])
    def test_worst_accepted_frame_stretches_within_boundary_margin(self, n):
        # rows e_i + (edge / 2) sum_{k != i} e_k put every Gram entry off the
        # diagonal at edge, a hair under ORTHONORMAL_TOL, and sigma_max(B) at
        # 1 + (n - 1) edge / 2, the largest the check accepts.  An LHS matrix
        # seen through B grows by that factor, which must stay inside the
        # margin that a violated verdict has to clear
        edge = ORTHONORMAL_TOL * (1.0 - 1e-9)
        rows = np.eye(n) + edge / 2.0 * (1.0 - np.eye(n))
        frame = MeasurementFrame(np.pad(rows, ((0, 0), (0, 3 - n))))
        require_orthonormal(frame, "bob_frame")
        assert np.abs(frame.gram() - np.eye(n)).max() > ORTHONORMAL_TOL * (1.0 - 1e-6)
        stretch = np.linalg.norm(frame.directions, 2) - 1.0
        assert_allclose(stretch, (n - 1) * ORTHONORMAL_TOL / 2.0, rtol=1e-4)
        assert stretch < BOUNDARY_MARGIN


class TestRotations:
    def test_rotation_about_is_special_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = rotation_about(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
            assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert_allclose(np.linalg.det(r), 1.0, atol=1e-12)

    def test_right_hand_rule(self):
        r = rotation_about(Z, math.pi / 2.0)
        assert_allclose(r @ X, Y, atol=1e-12)

    def test_random_rotation_is_special_orthogonal(self):
        for seed in range(20):
            r = random_rotation(seed)
            assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert_allclose(np.linalg.det(r), 1.0, atol=1e-12)

    def test_random_rotation_deterministic(self):
        assert_allclose(random_rotation(42), random_rotation(42))

    def test_random_rotation_accepts_generator(self):
        rng = np.random.default_rng(9)
        a = random_rotation(rng)
        b = random_rotation(np.random.default_rng(9))
        assert_allclose(a, b)

    def test_rotate_frame_rejects_improper(self):
        with pytest.raises(ValueError):
            rotate_frame(standard_triad(), -np.eye(3))
        with pytest.raises(ValueError):
            rotate_frame(standard_triad(), 2.0 * np.eye(3))
        with pytest.raises(ValueError, match=r"expected a \(3, 3\) rotation"):
            rotate_frame(standard_triad(), np.eye(2))
        # diag(1, 1, 2) keeps an x-y pair's directions and has determinant 2
        with pytest.raises(ValueError, match="rotation matrix is not orthogonal"):
            rotate_frame(pair_in_plane(Z, 0.0), np.diag([1.0, 1.0, 2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rotate_frame_rejects_non_finite(self, bad):
        rotation = np.eye(3)
        rotation[0, 0] = bad
        with pytest.raises(ValueError, match="rotation matrix must be finite"):
            rotate_frame(standard_triad(), rotation)

    def test_rotate_frame_preserves_gram(self):
        frame = tetrahedron_frame()
        rotated = rotate_frame(frame, random_rotation(5))
        assert_allclose(rotated.gram(), frame.gram(), atol=1e-12)


class TestPlaneConstructions:
    def test_reference_lies_in_plane(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = unit(rng.normal(size=3))
            ref = in_plane_reference(n)
            assert_allclose(ref @ n, 0.0, atol=1e-12)
            assert_allclose(np.linalg.norm(ref), 1.0, atol=1e-12)

    def test_reference_fallback_at_pole(self):
        ref = in_plane_reference(Z)
        assert_allclose(ref, X, atol=1e-12)

    def test_pair_in_plane_geometry(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = unit(rng.normal(size=3))
            alpha = rng.uniform(0.0, np.pi)
            frame = pair_in_plane(n, alpha)
            require_orthonormal(frame, "pair")
            assert_allclose(frame.directions @ n, np.zeros(2), atol=1e-12)

    def test_pair_alpha_convention(self):
        ref = in_plane_reference(Y)
        d1 = pair_in_plane(Y, 0.0).directions[0]
        assert_allclose(d1, ref, atol=1e-12)
        d1 = pair_in_plane(Y, 0.4).directions[0]
        assert_allclose(d1 @ ref, math.cos(0.4), atol=1e-12)

    def test_tilted_pair_dihedral_angle(self):
        phi = math.radians(64.0)
        frame = tilted_pair(phi, 0.2, Y)
        n_a = np.cross(frame.directions[0], frame.directions[1])
        assert_allclose(abs(n_a @ Y), math.cos(phi), atol=1e-12)

    def test_tilted_pair_reduces_to_pair_in_plane(self):
        a = tilted_pair(0.0, 0.7, Y).directions
        b = pair_in_plane(Y, 0.7).directions
        assert_allclose(a, b, atol=1e-12)


class TestFrameFromSpec:
    def test_named(self):
        frame = frame_from_spec({"kind": "named", "name": "tetrahedron"})
        assert_allclose(frame.directions, tetrahedron_frame().directions)

    def test_pair(self):
        frame = frame_from_spec(
            {"kind": "pair", "normal": [0, 1, 0], "phi_deg": 64.0, "alpha_deg": 10.0}
        )
        ref = tilted_pair(math.radians(64.0), math.radians(10.0), Y)
        assert_allclose(frame.directions, ref.directions)

    def test_explicit_renormalizes(self):
        frame = frame_from_spec({"kind": "explicit", "directions": [[0.0, 0.0, 5.0]]})
        assert_allclose(frame.directions, [[0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_explicit_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="direction must be finite"):
            frame_from_spec({"kind": "explicit", "directions": [[bad, 0.0, 0.0], [0.0, 0.0, 1.0]]})

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "pair", "normal": [0, 1]}, r"expected a 3-vector, got shape \(2,\)"),
        ({"kind": "explicit", "directions": [[1, 0]]}, r"expected a 3-vector, got shape \(2,\)"),
        # the norm overflows to inf, and dividing by it gave the zero vector
        ({"kind": "pair", "normal": [1e308, 1e308, 0]}, "too long to normalize"),
    ], ids=["2-vector-normal", "2-vector-direction", "overflowing-normal"])
    def test_rejects_vector_it_cannot_normalize(self, spec, message):
        with pytest.raises(ValueError, match=message):
            frame_from_spec(spec)

    def test_unknown_name_lists_choices(self):
        # a list or an object name raised TypeError (unhashable) before
        for name in ("cube", ["standard_triad"], {"standard_triad": 1}):
            with pytest.raises(ValueError, match="unknown frame name .*standard_triad"):
                frame_from_spec({"kind": "named", "name": name})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            frame_from_spec({"kind": "spiral"})

    def test_explicit_requires_directions(self):
        with pytest.raises(ValueError, match='requires key "directions"'):
            frame_from_spec({"kind": "explicit"})

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "named", "name": "standard_triad", "alpha_deg": 30.0}, "alpha_deg"),
        ({"kind": "pair", "normal": [0, 1, 0], "directions": [[0.0, 0.0, 1.0]]}, "directions"),
        ({"kind": "explicit", "directions": [[0.0, 0.0, 1.0]], "phi_deg": 64.0}, "phi_deg"),
    ], ids=["named-alpha_deg", "pair-directions", "explicit-phi_deg"])
    def test_rejects_key_its_kind_does_not_read(self, spec, key):
        message = f'{spec["kind"]} frame spec does not read key "{key}"'
        with pytest.raises(ValueError, match=message):
            frame_from_spec(spec)
