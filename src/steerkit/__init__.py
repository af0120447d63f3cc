"""Steering-inequality numerics for two-qubit states.

Computes and assesses the rotationally-invariant trace-norm steering
parameter and the two-setting steering parameter, decides local-hidden-
state membership of correlation matrices exactly through their LHS gauge,
and simulates finite-statistics photon-counting runs of the corresponding
experiment.

``import steerkit`` loads no submodule: each name below is imported from
its submodule on first access (PEP 562), so a caller builds only the
layers it uses.
"""

import importlib

__version__ = "0.1.0"

# Alice's setting count is at most this, in a frame and in the LHS oracle:
# the oracle's Newton solve builds a dense Hessian in (2^(m-1) - m) n
# variables, 78 at m = 6 but 1506 at m = 10.  It lives here, where frames
# and lhs both read it, so that building a frame does not load the oracle.
MAX_ALICE_SETTINGS = 6

# Submodule -> the names the package re-exports from it.
_EXPORTS = {
    "frames": (
        "MeasurementFrame",
        "frame_from_spec",
        "misaligned_triad",
        "pair_in_plane",
        "projection_matrix",
        "random_rotation",
        "rotate_frame",
        "rotation_about",
        "standard_triad",
        "tetrahedron_frame",
        "tilted_pair",
    ),
    "lhs": (
        "LhsModel",
        "MembershipVerdict",
        "evaluate_lhs_model",
        "lhs_gauge",
        "lhs_membership",
    ),
    "simulate": (
        "EstimatedCorrelation",
        "ScenarioRow",
        "estimate_correlation",
        "propagate_uncertainty",
        "run_scenario",
        "simulate_counts",
        "simulate_run",
    ),
    "states": (
        "BlochState",
        "singlet_state",
        "spin_correlation_matrix",
        "state_from_spec",
        "validate_state",
        "werner_state",
    ),
    "steering": (
        "SteeringAssessment",
        "assess_nss",
        "assess_ris",
        "min_nss_over_rotations",
        "nss_parameter",
        "nss_predicted",
        "predicted_correlation",
        "ris_predicted",
        "trace_norm",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
