"""Steering-inequality numerics for two-qubit states.

Computes and assesses the rotationally-invariant trace-norm steering
parameter and the two-setting steering parameter, decides local-hidden-
state membership of correlation matrices exactly through their LHS gauge,
and simulates finite-statistics photon-counting runs of the corresponding
experiment.
"""

from .frames import (
    MeasurementFrame,
    frame_from_spec,
    misaligned_triad,
    pair_in_plane,
    projection_matrix,
    random_rotation,
    rotate_frame,
    rotation_about,
    standard_triad,
    tetrahedron_frame,
    tilted_pair,
)
from .lhs import (
    LhsModel,
    MembershipVerdict,
    evaluate_lhs_model,
    lhs_gauge,
    lhs_membership,
)
from .simulate import (
    CountsRecord,
    EstimatedCorrelation,
    ScenarioRow,
    SourceModel,
    estimate_correlation,
    outcome_probabilities,
    propagate_uncertainty,
    run_scenario,
    simulate_counts,
)
from .states import (
    BlochMarginals,
    StateDiagnostics,
    closest_werner_parameter,
    fidelity_with_pure,
    marginals,
    singlet_state,
    spin_correlation_matrix,
    state_from_spec,
    validate_state,
    werner_state,
)
from .steering import (
    SteeringAssessment,
    assess_nss,
    assess_ris,
    min_nss_over_rotations,
    nss_parameter,
    nss_predicted,
    optimal_pair_planes,
    predicted_correlation,
    ris_predicted,
    trace_norm,
    werner_nss_closed_form,
    werner_ris_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "BlochMarginals",
    "CountsRecord",
    "EstimatedCorrelation",
    "LhsModel",
    "MeasurementFrame",
    "MembershipVerdict",
    "ScenarioRow",
    "SourceModel",
    "StateDiagnostics",
    "SteeringAssessment",
    "assess_nss",
    "assess_ris",
    "closest_werner_parameter",
    "estimate_correlation",
    "evaluate_lhs_model",
    "fidelity_with_pure",
    "frame_from_spec",
    "lhs_gauge",
    "lhs_membership",
    "marginals",
    "min_nss_over_rotations",
    "misaligned_triad",
    "nss_parameter",
    "nss_predicted",
    "optimal_pair_planes",
    "outcome_probabilities",
    "pair_in_plane",
    "predicted_correlation",
    "projection_matrix",
    "propagate_uncertainty",
    "random_rotation",
    "ris_predicted",
    "rotate_frame",
    "rotation_about",
    "run_scenario",
    "simulate_counts",
    "singlet_state",
    "spin_correlation_matrix",
    "standard_triad",
    "state_from_spec",
    "tetrahedron_frame",
    "tilted_pair",
    "trace_norm",
    "validate_state",
    "werner_nss_closed_form",
    "werner_ris_closed_form",
    "werner_state",
]
