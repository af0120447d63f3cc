"""Comparison table against the reference photonic steering experiment.

Each case of CASES is a config of the form predict, lhs and simulate read:
a state spec and Alice's and Bob's frame specs, built by the one spec
reader config._state_and_frames.  Each row pairs a reported steering
parameter from the benchmark experiment with the ideal-model prediction
for the case and a finite-statistics simulation.  Rows whose reported
values stem from real-state asymmetry or source drift cannot be
reproduced by the ideal isotropic-noise model and are annotated as such
rather than fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import _state_and_frames
from .simulate import DEFAULT_PAIRS_PER_SETTING, simulate_run
from .steering import assess, predicted_correlation

DEFAULT_SEED = 1729

# Werner weight back-solved from the reported tilted-plane prediction
# 1.40 = W (1 + cos 64 deg); the source quotes the prediction, not W.
W_TILT_64 = 1.40 / (1.0 + math.cos(math.radians(64.0)))

# Werner weight whose singlet fidelity F = (1 + 3W)/4 is the reported 0.96.
W_FIDELITY_96 = (4.0 * 0.96 - 1.0) / 3.0

NOT_REPRODUCIBLE = "not reproducible from ideal model (real-state asymmetry)"


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


# Bob's pairs span the x-z plane, whose normal is the y axis; a tilted
# Alice pair leaves it by phi_deg.
_XZ_PAIR = {"kind": "pair", "normal": [0.0, 1.0, 0.0]}
_TRIAD = {"kind": "named", "name": "standard_triad"}
_PAIR_SUB = {"kind": "explicit", "directions": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]}

# One config per reference case, of the form predict, lhs and simulate
# read: its name, its state and frame specs, and one entry per inequality:
# (tag, reported, reported_err, reproducible, note).
CASES = (
    (
        "coplanar pairs, tilt 0 deg (W=0.985)",
        {"state": {"kind": "werner", "W": 0.985},
         "alice_frame": _XZ_PAIR, "bob_frame": _XZ_PAIR},
        (
            ("ris", 1.97, None, True,
             "alpha-independent; the reported dip near alpha=70 deg is "
             "source drift, emulated qualitatively by the drift_sigma knob"),
            ("nss", 1.97, None, True, "equals the ris value at this tilt"),
        ),
    ),
    (
        f"tilted pairs, 64 deg (W={W_TILT_64:.4f})",
        {"state": {"kind": "werner", "W": W_TILT_64},
         "alice_frame": _XZ_PAIR | {"phi_deg": 64.0}, "bob_frame": _XZ_PAIR},
        (
            ("ris", 1.40, None, True,
             "werner weight back-solved from the reported prediction 1.40"),
        ),
    ),
    (
        f"orthogonal planes, 90 deg (W={W_TILT_64:.4f})",
        {"state": {"kind": "werner", "W": W_TILT_64},
         "alice_frame": _XZ_PAIR | {"phi_deg": 90.0}, "bob_frame": _XZ_PAIR},
        (
            ("ris", None, None, True,
             "below the bound at every alpha, matching the report of no violation"),
        ),
    ),
    (
        "aligned triads (W=0.984)",
        {"state": {"kind": "werner", "W": 0.984},
         "alice_frame": _TRIAD, "bob_frame": _TRIAD},
        (
            ("ris", 2.93, 0.01, False,
             f"{NOT_REPRODUCIBLE}; the ideal-model maximum is 2.952"),
        ),
    ),
    (
        "pair subset of the triads, m=2 n=3 (W=0.984)",
        {"state": {"kind": "werner", "W": 0.984},
         "alice_frame": _PAIR_SUB, "bob_frame": _TRIAD},
        (
            ("ris", 1.96, 0.01, True,
             "bound sqrt(m) = sqrt(2) for m=2; the source text quotes "
             "sqrt(3) for this subset"),
        ),
    ),
    (
        "triad vs pair subset, m=3 n=2 (W=0.984)",
        {"state": {"kind": "werner", "W": 0.984},
         "alice_frame": _TRIAD, "bob_frame": _PAIR_SUB},
        (
            ("ris", 1.97, 0.01, True, ""),
        ),
    ),
    (
        "misaligned triads (W=0.9467)",
        {"state": {"kind": "werner", "W": W_FIDELITY_96},
         "alice_frame": {"kind": "named", "name": "misaligned_triad"}, "bob_frame": _TRIAD},
        (
            ("ris", 2.21, 0.01, False,
             f"{NOT_REPRODUCIBLE}; the ideal prediction is rotation-invariant"),
        ),
    ),
    (
        "nonorthogonal 60 deg pair (singlet)",
        # the singlet is the Werner state of weight 1
        {"state": {"kind": "werner", "W": 1.0},
         "alice_frame": {"kind": "explicit",
                         "directions": [[0.0, 0.0, 1.0], [math.sqrt(3.0) / 2.0, 0.0, 0.5]]},
         "bob_frame": _PAIR_SUB},
        (
            ("ris", 1.85, 0.01, False,
             "state-limited (reported fidelity 97.2%); ideal-singlet "
             "prediction shown"),
            ("nss", 1.96, 0.01, False,
             "state-limited (reported fidelity 97.2%); ideal-singlet "
             "prediction shown"),
        ),
    ),
    (
        "tetrahedron vs triad (W=0.97)",
        {"state": {"kind": "werner", "W": 0.97},
         "alice_frame": {"kind": "named", "name": "tetrahedron"}, "bob_frame": _TRIAD},
        (
            ("ris", 2.74, 0.01, True, ""),
        ),
    ),
)


def build_report(
    pairs_per_setting: int = DEFAULT_PAIRS_PER_SETTING, seed: int = DEFAULT_SEED
) -> list[ReportRow]:
    """Evaluate every reference case: prediction, simulation, annotation.

    Each case's config is read by _state_and_frames on every call.  Each
    simulated parameter's uncertainty bootstraps over simulate's
    DEFAULT_RESAMPLES draws.
    """
    rows = []
    for index, (name, config, entries) in enumerate(CASES):
        state, alice, bob = _state_and_frames(config)
        m_pred = predicted_correlation(state.t, alice, bob)
        _, _, assessments = simulate_run(
            state, alice, bob, pairs_per_setting, (seed, index), (seed, index, 1)
        )
        for tag, reported, reported_err, reproducible, note in entries:
            assessment = assessments[tag]
            rows.append(ReportRow(
                case=name,
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
