"""Independent references for the steering predictions, and helpers only the tests call.

ris_predicted and nss_predicted evaluate the correlation matrix
M = A T B^T.  For orthonormal frames the projector forms here give the
same values: ||P_A T P_B||_tr, with the singular values of M, and
|P_B T^T a+| + |P_B T^T a-| with a+- = (a1 +- a2)/sqrt(2).

min_nss_over_rotations returns the closed form ||P_A T P_B||_tr
(criterion 4).  The search here finds the same minimum without it: it
evaluates the two-setting parameter on a 0.5-degree grid over a quarter
turn of Alice's pair within its plane, then refines by golden-section
search to an interval of 1e-8.

The Werner closed forms are criterion 5's reference for the predictions
on pairs in two planes.  fidelity_with_pure, closest_werner_parameter,
outcome_probabilities and optimal_pair_planes are helpers that no part of
the package calls; their tests keep them here.
"""

import math

import numpy as np
from numpy.typing import NDArray

from steerkit.frames import MeasurementFrame, projection_matrix, unit
from steerkit.simulate import _born_probabilities
from steerkit.states import IMAG_RESIDUE_TOL, BlochState

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def ris_by_projectors(t, alice: MeasurementFrame, bob: MeasurementFrame) -> float:
    """||P_A T P_B||_tr for orthonormal frames."""
    p = projection_matrix(alice) @ np.asarray(t, dtype=float) @ projection_matrix(bob)
    return float(np.linalg.svd(p, compute_uv=False).sum())


def nss_by_projectors(t, alice: MeasurementFrame, bob: MeasurementFrame) -> float:
    """|P_B T^T a+| + |P_B T^T a-| for an orthonormal pair and frame."""
    t = np.asarray(t, dtype=float)
    a1, a2 = alice.directions
    a_plus = (a1 + a2) / math.sqrt(2.0)
    a_minus = (a1 - a2) / math.sqrt(2.0)
    p_b = projection_matrix(bob)
    return float(np.linalg.norm(p_b @ t.T @ a_plus) + np.linalg.norm(p_b @ t.T @ a_minus))


def min_nss_by_search(t, alice: MeasurementFrame, bob: MeasurementFrame) -> float:
    """Minimum of the two-setting parameter over rotations of Alice's pair in its plane.

    Alice's pair and Bob's frame must be orthonormal.
    """
    t = np.asarray(t, dtype=float)
    e1, e2 = alice.directions
    p_b = projection_matrix(bob)
    image1 = p_b @ t.T @ e1
    image2 = p_b @ t.T @ e2

    def objective(theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        # pair (a1, a2) at angle theta: sum directions (a1 +- a2)/sqrt(2)
        # are the same pair rotated by -45 degrees, so scanning theta over
        # a quarter turn covers every orientation of the +- pair.
        plus = c * image1 + s * image2
        minus = s * image1 - c * image2
        return float(np.linalg.norm(plus) + np.linalg.norm(minus))

    grid = np.deg2rad(np.arange(0.0, 90.0 + 0.25, 0.5))
    values = [objective(th) for th in grid]
    best = int(np.argmin(values))
    lo = grid[best] - np.deg2rad(0.5)
    hi = grid[best] + np.deg2rad(0.5)

    # Golden-section refinement on the bracketing interval.
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > 1e-8:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = objective(x2)
    return min(values[best], f1, f2)


def werner_ris_closed_form(w: float, phi: float) -> float:
    """Trace-norm parameter of a Werner state for pairs in planes at dihedral phi.

    W(1 + |cos phi|), independent of the in-plane angle alpha.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"werner weight must lie in [0, 1], got {w}")
    return w * (1.0 + abs(math.cos(phi)))


def werner_nss_closed_form(w: float, phi: float, alpha: float) -> float:
    """Two-setting parameter of a Werner state for pairs in planes at dihedral phi.

    W(sqrt(1 + cos^2 phi + sin 2a sin^2 phi) + sqrt(1 + cos^2 phi - sin 2a sin^2 phi))/sqrt(2);
    alpha is measured from the planes' intersection line.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"werner weight must lie in [0, 1], got {w}")
    c2 = math.cos(phi) ** 2
    s = math.sin(2.0 * alpha) * math.sin(phi) ** 2
    return w * (math.sqrt(1.0 + c2 + s) + math.sqrt(max(0.0, 1.0 + c2 - s))) / math.sqrt(2.0)


def _canonical_singular_vectors(u: np.ndarray, s: np.ndarray, vt: np.ndarray):
    """Deterministic ordering for (possibly degenerate) singular triplets.

    numpy's SVD already sorts by singular value; within groups of equal
    values the triplets are reordered lexicographically by the rounded
    left vector, and each vector's sign is fixed by its largest entry.
    """
    u = u.copy()
    vt = vt.copy()
    for i in range(len(s)):
        col = u[:, i]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0.0:
            u[:, i] = -col
            vt[i, :] = -vt[i, :]
    order = sorted(
        range(len(s)),
        key=lambda i: (-round(s[i], 12), tuple(np.round(u[:, i], 9))),
    )
    return u[:, order], s[order], vt[order, :]


def optimal_pair_planes(t: NDArray[np.float64]):
    """Plane pair maximizing the predicted trace-norm parameter.

    Returns (alice projector, bob projector, value): the spans of the top
    two left and right singular vectors of T, with value sigma_1 + sigma_2.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (3, 3):
        raise ValueError(f"expected a (3, 3) spin-correlation matrix, got shape {t.shape}")
    u, s, vt = np.linalg.svd(t)
    u, s, vt = _canonical_singular_vectors(u, s, vt)
    p_alice = np.outer(u[:, 0], u[:, 0]) + np.outer(u[:, 1], u[:, 1])
    p_bob = np.outer(vt[0], vt[0]) + np.outer(vt[1], vt[1])
    return p_alice, p_bob, float(s[0] + s[1])


def fidelity_with_pure(rho: NDArray[np.complex128], psi: NDArray[np.complex128]) -> float:
    """Overlap <psi| rho |psi> with a normalized pure state."""
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise ValueError(f"expected a 4-component ket, got shape {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"ket is not normalized: |psi| = {norm!r}")
    val = complex(psi.conj() @ rho @ psi)
    if abs(val.imag) > IMAG_RESIDUE_TOL:
        raise ValueError(f"fidelity has imaginary residue {val.imag:.2e}")
    return float(min(1.0, max(0.0, val.real)))


def closest_werner_parameter(fidelity: float) -> float:
    """Werner weight whose singlet fidelity matches the given value.

    Inverts F = (1 + 3w)/4.  This is a convenience for mapping a reported
    fidelity onto the isotropic-noise model; it is approximate for any
    state that is not actually Werner.
    """
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity}")
    return (4.0 * fidelity - 1.0) / 3.0


def outcome_probabilities(rho, a, b) -> np.ndarray:
    """Born probabilities (p++, p+-, p-+, p--) for spin measurements a, b."""
    return _born_probabilities(BlochState(rho), unit(a), unit(b))
