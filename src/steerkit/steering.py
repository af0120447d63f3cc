"""Trace-norm and two-setting steering parameters.

Two inequalities are implemented.  The trace-norm ("ris") parameter is
the sum of singular values of the correlation matrix M_jk = <A_j B_k>,
bounded by sqrt(m) for any local-hidden-state model and invariant under
local rotations of either party's orthonormal frame.  The two-setting
("nss") parameter |M^T u+| + |M^T u-| with u+- = (1, +-1)/sqrt(2) is
bounded by sqrt(2) and depends on the in-plane angle alpha; minimizing it
over Alice's in-plane rotations recovers the trace-norm value.

inequalities_for and assess are the one rule for which inequality applies
to m Alice settings and how it is judged, by the package's relative
BOUNDARY_MARGIN as in the LHS oracle; every subcommand goes through them.
assess is also the one checked evaluator of a single matrix: the
predictions below return its parameter.

Sign conventions: the singlet gives negative correlations.  Both
parameters are absolute norms, so signs never affect them; nothing is
"corrected" here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import BOUNDARY_MARGIN
from .frames import MeasurementFrame, require_orthonormal

RIS = "ris"
NSS = "nss"


@dataclass(frozen=True)
class SteeringAssessment:
    """One inequality evaluated against its local-hidden-state bound."""

    inequality: str
    parameter: float
    bound: float
    margin: float
    violated: bool
    uncertainty: float | None = None


def predicted_correlation(
    t: np.ndarray, alice: MeasurementFrame, bob: MeasurementFrame
) -> np.ndarray:
    """Correlation matrix M_jk = a_j^T T b_k for the given frames.

    Valid for any frames, orthonormal or not.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (3, 3):
        raise ValueError(f"expected a (3, 3) spin-correlation matrix, got shape {t.shape}")
    return alice.directions @ t @ bob.directions.T


def _trace_norms(stack) -> np.ndarray:
    """Sums of singular values over the last two axes."""
    return np.linalg.svd(stack, compute_uv=False).sum(axis=-1)


# Rows u+ and u- of the two-setting parameter.
_U_PLUS_MINUS = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _nss_parameters(stack) -> np.ndarray:
    """|M^T u+| + |M^T u-| for each (2, n) matrix M over the last two axes."""
    if stack.shape[-2] != 2:
        raise ValueError(f"the two-setting parameter requires m = 2, got shape {stack.shape}")
    return np.linalg.norm(_U_PLUS_MINUS @ stack, axis=-1).sum(axis=-1)


def _kernel(inequality: str):
    """An inequality's unchecked batch kernel over the last two axes of a stack."""
    if inequality == RIS:
        return _trace_norms
    if inequality == NSS:
        return _nss_parameters
    raise ValueError(f"inequality must be 'ris' or 'nss', got {inequality!r}")


def inequalities_for(m: int) -> tuple[str, ...]:
    """The inequalities that apply to m Alice settings: ris, plus nss when m = 2."""
    return (RIS, NSS) if m == 2 else (RIS,)


def assess(matrix, inequality: str) -> SteeringAssessment:
    """An inequality's parameter against its local-hidden-state bound sqrt(m).

    m is the number of Alice settings; nss takes only m = 2, so its bound is sqrt(2).
    Violated only above bound * (1 + BOUNDARY_MARGIN), past any LHS matrix in an accepted frame.

    Raises:
        ValueError: on an unknown inequality, on input that is not 2-d, is
            empty or has a non-finite entry, or if the parameter overflows.
    """
    kernel = _kernel(inequality)
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if 0 in m.shape:
        raise ValueError(f"expected at least one row and one column, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    with np.errstate(over="ignore"):
        parameter = float(kernel(m))
    if not math.isfinite(parameter):
        raise ValueError(f"the {inequality} parameter overflows: matrix entries are too large")
    bound = math.sqrt(m.shape[0])
    margin = parameter - bound
    violated = margin > bound * BOUNDARY_MARGIN
    return SteeringAssessment(inequality, parameter, bound, margin, violated)


def assess_ris(matrix) -> SteeringAssessment:
    """Trace-norm steering parameter against its sqrt(m) bound."""
    return assess(matrix, RIS)


def assess_nss(matrix) -> SteeringAssessment:
    """Two-setting steering parameter against its sqrt(2) bound."""
    return assess(matrix, NSS)


def ris_predicted(t: np.ndarray, alice: MeasurementFrame, bob: MeasurementFrame) -> float:
    """Predicted trace-norm parameter for orthonormal frames.

    ||M||_tr for M = A T B^T, which has the singular values of P_A T P_B.
    """
    require_orthonormal(alice, "alice_frame")
    require_orthonormal(bob, "bob_frame")
    return assess(predicted_correlation(t, alice, bob), RIS).parameter


def nss_predicted(t: np.ndarray, alice: MeasurementFrame, bob: MeasurementFrame) -> float:
    """Predicted two-setting parameter of M = A T B^T for an orthonormal pair and frame."""
    require_orthonormal(alice, "alice_frame")
    require_orthonormal(bob, "bob_frame")
    return assess(predicted_correlation(t, alice, bob), NSS).parameter


def min_nss_over_rotations(t: np.ndarray, alice_plane, bob: MeasurementFrame) -> float:
    """Minimum of the two-setting parameter over Alice's in-plane rotations.

    Alice's orthonormal pair lives in the plane given by a rank-2
    projector P_A; the parameter is minimized over the pair's orientation
    within that plane.  The minimum is the trace-norm prediction
    ||P_A T P_B||_tr (Cavalcanti et al., JOSA B 32, A74 (2015)), returned
    in that closed form as ||P_A T B^T||_tr, which has the same singular
    values.
    """
    p_a = np.asarray(alice_plane, dtype=float)
    if p_a.shape != (3, 3):
        raise ValueError(f"expected a (3, 3) projector, got shape {p_a.shape}")
    if not np.all(np.isfinite(p_a)):
        raise ValueError(f"alice_plane must be finite, got {p_a.tolist()}")
    if np.abs(p_a - p_a.T).max() > 1e-10 or np.abs(p_a @ p_a - p_a).max() > 1e-8:
        raise ValueError("plane argument is not a projector")
    trace = float(np.trace(p_a))
    if abs(trace - 2.0) > 0.5:
        raise ValueError(f"plane projector must have rank 2, its trace is {trace}")
    require_orthonormal(bob, "bob_frame")
    return assess(p_a @ np.asarray(t, dtype=float) @ bob.directions.T, RIS).parameter
