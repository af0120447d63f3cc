"""Independent references for the steering predictions.

ris_predicted and nss_predicted evaluate the correlation matrix
M = A T B^T.  For orthonormal frames the projector forms here give the
same values: ||P_A T P_B||_tr, with the singular values of M, and
|P_B T^T a+| + |P_B T^T a-| with a+- = (a1 +- a2)/sqrt(2).

min_nss_over_rotations returns the closed form ||P_A T P_B||_tr
(criterion 4).  The search here finds the same minimum without it: it
evaluates the two-setting parameter on a 0.5-degree grid over a quarter
turn of Alice's pair within its plane, then refines by golden-section
search to an interval of 1e-8.
"""

import math

import numpy as np

from steerkit.frames import MeasurementFrame, projection_matrix

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
