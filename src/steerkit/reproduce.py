"""Comparison table against the reference photonic steering experiment.

Each row pairs a reported steering parameter from the benchmark
experiment with the ideal-model prediction for the same geometry and a
finite-statistics simulation.  Rows whose reported values stem from
real-state asymmetry or source drift cannot be reproduced by the ideal
isotropic-noise model and are annotated as such rather than fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .frames import (
    MeasurementFrame,
    pair_in_plane,
    standard_triad,
    misaligned_triad,
    tetrahedron_frame,
    tilted_pair,
)
from .simulate import (
    DEFAULT_PAIRS_PER_SETTING,
    DEFAULT_RESAMPLES,
    DEFAULT_SYS_ANGLE,
    simulate_run,
)
from .states import BlochState, singlet_state, werner_state
from .steering import assess, predicted_correlation

DEFAULT_SEED = 1729

# Werner weight back-solved from the reported tilted-plane prediction
# 1.40 = W (1 + cos 64 deg); the source quotes the prediction, not W.
W_TILT_64 = 1.40 / (1.0 + math.cos(math.radians(64.0)))

# Werner weight whose singlet fidelity F = (1 + 3W)/4 is the reported 0.96.
W_FIDELITY_96 = (4.0 * 0.96 - 1.0) / 3.0

NOT_REPRODUCIBLE = "not reproducible from ideal model (real-state asymmetry)"

Y_AXIS = (0.0, 1.0, 0.0)


@dataclass(frozen=True)
class ReportRow:
    case: str
    inequality: str
    reported: float | None
    reported_err: float | None
    predicted: float
    simulated: float
    sim_err: float
    bound: float
    reproducible: bool
    note: str


@dataclass(frozen=True)
class _Case:
    name: str
    state: BlochState
    alice: MeasurementFrame
    bob: MeasurementFrame
    # one entry per inequality: (tag, reported, reported_err, reproducible, note)
    entries: tuple


def _cases() -> list[_Case]:
    pair_sub = MeasurementFrame([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    sixty_pair = MeasurementFrame([
        [0.0, 0.0, 1.0],
        [math.sqrt(3.0) / 2.0, 0.0, 0.5],
    ])
    return [
        _Case(
            "coplanar pairs, tilt 0 deg (W=0.985)",
            BlochState(werner_state(0.985)),
            pair_in_plane(Y_AXIS, 0.0),
            pair_in_plane(Y_AXIS, 0.0),
            (
                ("ris", 1.97, None, True,
                 "alpha-independent; the reported dip near alpha=70 deg is "
                 "source drift, emulated qualitatively by the drift_sigma knob"),
                ("nss", 1.97, None, True, "equals the ris value at this tilt"),
            ),
        ),
        _Case(
            f"tilted pairs, 64 deg (W={W_TILT_64:.4f})",
            BlochState(werner_state(W_TILT_64)),
            tilted_pair(math.radians(64.0), 0.0, Y_AXIS),
            pair_in_plane(Y_AXIS, 0.0),
            (
                ("ris", 1.40, None, True,
                 "werner weight back-solved from the reported prediction 1.40"),
            ),
        ),
        _Case(
            f"orthogonal planes, 90 deg (W={W_TILT_64:.4f})",
            BlochState(werner_state(W_TILT_64)),
            tilted_pair(math.radians(90.0), 0.0, Y_AXIS),
            pair_in_plane(Y_AXIS, 0.0),
            (
                ("ris", None, None, True,
                 "below the bound at every alpha, matching the report of no violation"),
            ),
        ),
        _Case(
            "aligned triads (W=0.984)",
            BlochState(werner_state(0.984)),
            standard_triad(),
            standard_triad(),
            (
                ("ris", 2.93, 0.01, False,
                 f"{NOT_REPRODUCIBLE}; the ideal-model maximum is 2.952"),
            ),
        ),
        _Case(
            "pair subset of the triads, m=2 n=3 (W=0.984)",
            BlochState(werner_state(0.984)),
            pair_sub,
            standard_triad(),
            (
                ("ris", 1.96, 0.01, True,
                 "bound sqrt(m) = sqrt(2) for m=2; the source text quotes "
                 "sqrt(3) for this subset"),
            ),
        ),
        _Case(
            "triad vs pair subset, m=3 n=2 (W=0.984)",
            BlochState(werner_state(0.984)),
            standard_triad(),
            pair_sub,
            (
                ("ris", 1.97, 0.01, True, ""),
            ),
        ),
        _Case(
            "misaligned triads (W=0.9467)",
            BlochState(werner_state(W_FIDELITY_96)),
            misaligned_triad(),
            standard_triad(),
            (
                ("ris", 2.21, 0.01, False,
                 f"{NOT_REPRODUCIBLE}; the ideal prediction is rotation-invariant"),
            ),
        ),
        _Case(
            "nonorthogonal 60 deg pair (singlet)",
            BlochState(singlet_state()),
            sixty_pair,
            pair_sub,
            (
                ("ris", 1.85, 0.01, False,
                 "state-limited (reported fidelity 97.2%); ideal-singlet "
                 "prediction shown"),
                ("nss", 1.96, 0.01, False,
                 "state-limited (reported fidelity 97.2%); ideal-singlet "
                 "prediction shown"),
            ),
        ),
        _Case(
            "tetrahedron vs triad (W=0.97)",
            BlochState(werner_state(0.97)),
            tetrahedron_frame(),
            standard_triad(),
            (
                ("ris", 2.74, 0.01, True, ""),
            ),
        ),
    ]


def build_report(
    pairs_per_setting: int = DEFAULT_PAIRS_PER_SETTING, seed: int = DEFAULT_SEED
) -> list[ReportRow]:
    """Evaluate every reference case: prediction, simulation, annotation.

    Each simulated parameter's uncertainty bootstraps over DEFAULT_RESAMPLES draws.
    """
    rows = []
    for index, case in enumerate(_cases()):
        m_pred = predicted_correlation(case.state.t, case.alice, case.bob)
        _, _, assessments = simulate_run(
            case.state, case.alice, case.bob, pairs_per_setting, DEFAULT_SYS_ANGLE,
            DEFAULT_RESAMPLES, (seed, index), (seed, index, 1),
        )
        for tag, reported, reported_err, reproducible, note in case.entries:
            assessment = assessments[tag]
            rows.append(ReportRow(
                case=case.name,
                inequality=tag,
                reported=reported,
                reported_err=reported_err,
                predicted=assess(m_pred, tag).parameter,
                simulated=assessment.parameter,
                sim_err=assessment.uncertainty,
                bound=assessment.bound,
                reproducible=reproducible,
                note=note,
            ))
    return rows


def format_report(rows: list[ReportRow]) -> str:
    """Fixed-width text table with 6-significant-digit numbers."""

    def num(x, err=None):
        if x is None:
            return "-"
        s = f"{x:.6g}"
        if err is not None:
            s += f" +- {err:.2g}"
        return s

    headers = ["case", "ineq", "reported", "predicted", "simulated", "bound", "ok?"]
    table = [
        [
            r.case,
            r.inequality,
            num(r.reported, r.reported_err),
            num(r.predicted),
            num(r.simulated, r.sim_err),
            num(r.bound),
            "yes" if r.reproducible else "NO",
        ]
        for r in rows
    ]
    widths = [max(len(h), *(len(row[i]) for row in table)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row, r in zip(table, rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if r.note:
            lines.append(f"    note: {r.note}")
    return "\n".join(lines) + "\n"
