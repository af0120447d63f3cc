"""Measurement directions, frames, and rotations on the Bloch sphere.

A measurement frame is an ordered set of one to MAX_ALICE_SETTINGS unit
directions; Bob's, which must be orthonormal, holds at most three.  The
cap is the LHS oracle's, read from the package root so that this module
loads config alone and never the oracle.  Frames need not be orthonormal
otherwise: the steering bounds check it with require_orthonormal and raise.

Plane conventions used throughout: a measurement plane is identified by
its unit normal, and the in-plane reference direction is the normalized
projection of the z axis onto the plane (falling back to the x axis when
the normal is parallel to z).  Rotation angles follow the right-hand rule
about the stated axis.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import MAX_ALICE_SETTINGS
from .config import _config_array, _config_float, _spec_keys

if TYPE_CHECKING:
    from numpy.typing import NDArray

UNIT_TOL = 1e-6
ORTHONORMAL_TOL = 1e-10
ROTATION_TOL = 1e-10


def unit(v) -> np.ndarray:
    """Normalize a 3-vector, rejecting near-zero and non-finite input."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"direction must be finite, got {v}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise ValueError("cannot normalize a zero vector")
    if norm == math.inf:
        raise ValueError(f"direction {v} is too long to normalize")
    return v / norm


class MeasurementFrame:
    """Ordered set of 1 to MAX_ALICE_SETTINGS unit measurement directions.

    Directions are stored as rows of a read-only (m, 3) array.  Inputs
    must already be unit length to within UNIT_TOL; they are then
    renormalized exactly so downstream identities hold at full precision.
    """

    def __init__(self, directions):
        arr = np.atleast_2d(np.asarray(directions, dtype=float))
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"expected an (m, 3) array of directions, got shape {arr.shape}")
        m = arr.shape[0]
        if not 1 <= m <= MAX_ALICE_SETTINGS:
            raise ValueError(f"a frame holds 1 to {MAX_ALICE_SETTINGS} directions, got {m}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"directions must be finite, got {arr.tolist()}")
        norms = np.linalg.norm(arr, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_TOL):
            raise ValueError(f"directions must be unit vectors, got norms {norms}")
        arr = arr / norms[:, None]
        arr.setflags(write=False)
        self._directions = arr

    @property
    def directions(self) -> NDArray[np.float64]:
        return self._directions

    @property
    def size(self) -> int:
        return self._directions.shape[0]

    def gram(self) -> np.ndarray:
        return self._directions @ self._directions.T

    def __repr__(self) -> str:
        rows = ", ".join(np.array2string(d, precision=6) for d in self._directions)
        return f"MeasurementFrame([{rows}])"


def require_orthonormal(frame: MeasurementFrame, name: str) -> None:
    """Reject a frame whose directions are not orthonormal, naming it in the error.

    The steering bounds and the LHS oracle take Bob's local states to fill
    the unit ball of his setting space, and d^T d is a frame's projector;
    both hold only for orthonormal directions, so for any other frame a
    verdict would be unsound.  Orthonormal means that no entry of the Gram
    matrix differs from the identity's by more than ORTHONORMAL_TOL.
    """
    if not np.abs(frame.gram() - np.eye(frame.size)).max() <= ORTHONORMAL_TOL:
        raise ValueError(
            f"{name} must be orthonormal: its Gram matrix differs from the "
            f"identity by more than {ORTHONORMAL_TOL:g}"
        )


def rotation_about(axis, angle: float) -> np.ndarray:
    """Right-handed rotation matrix about a (not necessarily unit) axis."""
    n = unit(axis)
    c = math.cos(angle)
    s = math.sin(angle)
    cross = np.array([
        [0.0, -n[2], n[1]],
        [n[2], 0.0, -n[0]],
        [-n[1], n[0], 0.0],
    ])
    return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(n, n)


def in_plane_reference(normal) -> np.ndarray:
    """Reference direction in the plane with the given normal.

    The normalized projection of the z axis onto the plane; when the
    normal is (anti)parallel to z the projection vanishes and the x axis
    is used instead.
    """
    n = unit(normal)
    z = np.array([0.0, 0.0, 1.0])
    proj = z - (z @ n) * n
    if np.linalg.norm(proj) < 1e-9:
        proj = np.array([1.0, 0.0, 0.0]) - (n[0]) * n
    return unit(proj)


def pair_in_plane(normal, alpha: float) -> MeasurementFrame:
    """Orthonormal pair in the plane with the given normal.

    The first direction sits at angle alpha (right-handed about the
    normal) from the in-plane reference; the second is the first rotated
    by a further +90 degrees.
    """
    return tilted_pair(0.0, alpha, normal)


def tilted_pair(phi: float, alpha: float, bob_plane_normal) -> MeasurementFrame:
    """Alice's orthonormal pair in a plane tilted by phi from Bob's.

    Bob's plane is identified by its normal; the two planes meet in the
    line through Bob's in-plane reference direction, and Alice's plane is
    Bob's rotated by phi about that line.  Alpha is measured from the
    intersection line to Alice's first direction, right-handed about
    Alice's plane normal.  With phi = 0 this reduces to pair_in_plane.
    """
    n_b = unit(bob_plane_normal)
    ref = in_plane_reference(n_b)
    n_a = rotation_about(ref, phi) @ n_b
    rot = rotation_about(n_a, alpha)
    d1 = rot @ ref
    d2 = rot @ np.cross(n_a, ref)
    return MeasurementFrame([d1, d2])


def standard_triad() -> MeasurementFrame:
    """The coordinate axes x, y, z."""
    return MeasurementFrame(np.eye(3))


def misaligned_triad() -> MeasurementFrame:
    """Orthonormal triad with no axis aligned to the coordinate axes."""
    s3 = math.sqrt(3.0)
    s12 = math.sqrt(12.0)
    return MeasurementFrame([
        [1.0 / s3, 1.0 / s3, 1.0 / s3],
        [(1.0 + s3) / s12, -2.0 / s12, (1.0 - s3) / s12],
        [(1.0 - s3) / s12, -2.0 / s12, (1.0 + s3) / s12],
    ])


def tetrahedron_frame() -> MeasurementFrame:
    """Three unit directions with all pairwise angles 60 degrees.

    Together with the origin the endpoints form a regular tetrahedron;
    the frame is deliberately non-orthonormal.
    """
    return MeasurementFrame([
        [1.0, 0.0, 0.0],
        [0.5, 1.0 / (2.0 * math.sqrt(3.0)), math.sqrt(2.0 / 3.0)],
        [0.5, math.sqrt(3.0) / 2.0, 0.0],
    ])


def rotate_frame(frame: MeasurementFrame, rotation) -> MeasurementFrame:
    """Apply a proper rotation to every direction of a frame."""
    r = np.asarray(rotation, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"expected a (3, 3) rotation matrix, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError(f"rotation matrix must be finite, got {r.tolist()}")
    if np.abs(r @ r.T - np.eye(3)).max() > ROTATION_TOL:
        raise ValueError("rotation matrix is not orthogonal")
    if np.linalg.det(r) < 0.0:
        raise ValueError("rotation matrix must have determinant +1")
    return MeasurementFrame(frame.directions @ r.T)


_NAMED_FRAMES = {
    "standard_triad": standard_triad,
    "misaligned_triad": misaligned_triad,
    "tetrahedron": tetrahedron_frame,
}


def frame_from_spec(spec: dict) -> MeasurementFrame:
    """Build a frame from a config mapping.

    Supported forms:
        {"kind": "named", "name": "standard_triad" | "misaligned_triad" | "tetrahedron"}
        {"kind": "pair", "normal": [x, y, z], "phi_deg": 0.0, "alpha_deg": 0.0}
        {"kind": "explicit", "directions": [[...], ...]}
    For pair frames phi_deg and alpha_deg default to zero; the normal is
    Bob's plane normal, against which phi tilts (see tilted_pair).  A key
    the spec's kind does not read raises.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"frame spec must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "named":
        _spec_keys(spec, "named frame", ("kind", "name"), ("name",))
        name, choices = spec["name"], sorted(_NAMED_FRAMES)
        # a list, not the dict: a list or object name compares unequal instead of failing to hash
        if name not in choices:
            raise ValueError(f"unknown frame name {name!r}; choices: {choices}")
        return _NAMED_FRAMES[name]()
    if kind == "pair":
        _spec_keys(spec, "pair frame", ("kind", "normal", "phi_deg", "alpha_deg"), ("normal",))
        phi = math.radians(_config_float(spec, "phi_deg", 0.0))
        alpha = math.radians(_config_float(spec, "alpha_deg", 0.0))
        return tilted_pair(phi, alpha, _config_array(spec, "normal"))
    if kind == "explicit":
        _spec_keys(spec, "explicit frame", ("kind", "directions"), ("directions",))
        dirs = [unit(d) for d in np.atleast_2d(_config_array(spec, "directions"))]
        return MeasurementFrame(dirs)
    raise ValueError(f"unknown frame kind {kind!r}")
