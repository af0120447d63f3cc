"""Finite-statistics simulation of a photon-counting steering experiment.

For each setting pair the simulator draws a Poisson total around the
requested pairs-per-setting, splits it multinomially over the four Born
outcome probabilities, and estimates each correlation entry from the
counts.  Entry uncertainties combine the binomial statistical error with
a worst-case analyzer-tilt systematic, added in quadrature; parameter
uncertainties follow by parametric bootstrap over the entries.

All randomness flows through numpy Generators seeded explicitly; a sweep
derives one child seed per point from (base_seed, point_index), so runs
are reproducible point by point.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np
from numpy.typing import NDArray

from .config import _config_float, _config_int, _state_and_frames
from .frames import MeasurementFrame, frame_from_spec
from .states import BlochState, werner_state
from .steering import (
    SteeringAssessment,
    _parameter_functions,
    assess,
    inequalities_for,
    predicted_correlation,
)

DEFAULT_SYS_ANGLE_DEG = 0.5
DEFAULT_SYS_ANGLE = math.radians(DEFAULT_SYS_ANGLE_DEG)
DEFAULT_PAIRS_PER_SETTING = 100_000
DEFAULT_RESAMPLES = 200
# Caps on the two size keys.  Poisson means stay far below numpy's limit
# (~9.2e18), and the bootstrap's (R, m, n) float64 draws, m <= 6 and
# n <= 3, stay below 14.4 MB; both leave headroom above every documented use.
MAX_PAIRS_PER_SETTING = 10**9
MAX_RESAMPLES = 100_000


# Outcome signs (s, t) in the order (++, +-, -+, --).
_SIGN_A = np.array([1.0, 1.0, -1.0, -1.0])
_SIGN_B = np.array([1.0, -1.0, 1.0, -1.0])


def _born_probabilities(state: BlochState, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Born probabilities p(s, t) = (1 + s a.r_A + t b.r_B + s t a^T T b)/4.

    a and b are unit directions of shape (..., 3) that broadcast against
    each other.  The last axis of the result holds (p++, p+-, p-+, p--).
    """
    a_dot = (a @ state.r_a)[..., None]
    b_dot = (b @ state.r_b)[..., None]
    corr = np.einsum("...i,ij,...j->...", a, state.t, b)[..., None]
    probs = np.clip(
        (1.0 + _SIGN_A * a_dot + _SIGN_B * b_dot + _SIGN_A * _SIGN_B * corr) / 4.0, 0.0, None
    )
    # Written so that a NaN deviation fails the check too.
    deviation = float(np.abs(probs.sum(axis=-1) - 1.0).max())
    if not deviation <= 1e-12:
        raise ArithmeticError(f"outcome probabilities miss a unit sum by {deviation!r}")
    return probs


@dataclass(frozen=True)
class CountsRecord:
    """Coincidence counts for every setting pair, plus their provenance.

    counts[j, k] holds (N++, N+-, N-+, N--) for Alice setting j and Bob
    setting k.  The generating state and frames ride along so estimation
    can evaluate the systematic-tilt response of the underlying model.
    """

    counts: NDArray[np.int64]
    state: BlochState
    alice: MeasurementFrame
    bob: MeasurementFrame


def simulate_counts(
    state: BlochState,
    alice: MeasurementFrame,
    bob: MeasurementFrame,
    pairs_per_setting: int,
    seed,
) -> CountsRecord:
    """Draw Poisson totals around pairs_per_setting and multinomial outcome splits."""
    if not isinstance(state, BlochState):
        raise TypeError(f"state must be a BlochState, got {type(state).__name__}")
    if pairs_per_setting < 1:
        raise ValueError(f"pairs_per_setting must be >= 1, got {pairs_per_setting}")
    rng = np.random.default_rng(seed)
    m, n = alice.size, bob.size
    probs = _born_probabilities(state, alice.directions[:, None, :], bob.directions[None, :, :])
    counts = np.zeros((m, n, 4), dtype=np.int64)
    for j in range(m):
        for k in range(n):
            total = rng.poisson(pairs_per_setting)
            if total > 0:
                counts[j, k] = rng.multinomial(total, probs[j, k] / probs[j, k].sum())
    counts.setflags(write=False)
    return CountsRecord(counts, state, alice, bob)


@dataclass(frozen=True)
class EstimatedCorrelation:
    """Correlation estimate with entrywise uncertainty decomposition."""

    matrix: NDArray[np.float64]
    delta: NDArray[np.float64]
    sys_component: NDArray[np.float64]
    stat_component: NDArray[np.float64]


def estimate_correlation(
    record: CountsRecord, sys_angle: float = DEFAULT_SYS_ANGLE
) -> EstimatedCorrelation:
    """Entrywise correlation estimate with statistical and systematic errors.

    M_hat = (N++ + N-- - N+- - N-+)/N; stat is the binomial standard
    error; sys is the worst-case response of the model correlation over
    every tilt of Bob's analyzer by sys_angle.
    """
    if not 0.0 <= sys_angle < math.inf:
        raise ValueError(f"sys_angle must be finite and nonnegative, got {sys_angle}")
    counts = record.counts
    totals = counts.sum(axis=2)
    if np.any(totals == 0):
        raise ValueError("every setting pair needs at least one count; raise pairs_per_setting")
    mhat = (counts[:, :, 0] + counts[:, :, 3] - counts[:, :, 1] - counts[:, :, 2]) / totals
    stat = np.sqrt(np.clip(1.0 - mhat**2, 0.0, None) / totals)

    # Tilting b by theta towards a unit t orthogonal to b moves u.b, with
    # u = T^T a, by (cos theta - 1) u.b + sin theta u.t.  The worst t is
    # parallel to the projection u - (u.b) b, so the maximum has a closed
    # form; 1 - cos theta is written 2 sin^2(theta/2) to keep its digits.
    b = record.bob.directions
    u = record.alice.directions @ record.state.t
    c = u @ b.T
    transverse = np.linalg.norm(u[:, None, :] - c[:, :, None] * b, axis=2)
    sys = 2.0 * math.sin(sys_angle / 2.0) ** 2 * np.abs(c) + abs(math.sin(sys_angle)) * transverse
    delta = np.sqrt(sys**2 + stat**2)
    for arr in (mhat, delta, sys, stat):
        arr.setflags(write=False)
    return EstimatedCorrelation(mhat, delta, sys, stat)


def propagate_uncertainty(
    est: EstimatedCorrelation,
    inequality: str,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed=0,
) -> tuple[float, float]:
    """Parametric bootstrap of a steering parameter over the entry errors.

    Resamples each entry from a normal of width delta (clamped to
    [-1, 1]), evaluates the parameter on all resamples at once, and
    returns (mean, standard deviation) over n_resamples.
    """
    _, evaluate = _parameter_functions(inequality)
    if n_resamples < 2:
        raise ValueError(f"n_resamples must be >= 2, got {n_resamples}")
    rng = np.random.default_rng(seed)
    # One (R, m, n) draw is the same normal stream as R draws of shape (m, n).
    noise = rng.standard_normal((n_resamples, *est.matrix.shape))
    values = evaluate(np.clip(est.matrix + noise * est.delta, -1.0, 1.0))
    return float(values.mean()), float(values.std())


def simulate_run(
    state: BlochState,
    alice: MeasurementFrame,
    bob: MeasurementFrame,
    pairs_per_setting: int,
    sys_angle: float,
    n_resamples: int,
    counts_seed,
    bootstrap_key: tuple,
) -> tuple[CountsRecord, EstimatedCorrelation, dict[str, SteeringAssessment]]:
    """One simulated run: counts, estimate and an assessment per inequality.

    The counts are drawn on counts_seed.  Every tag of inequalities_for(m)
    is assessed on the estimate, with its bootstrap standard deviation as
    uncertainty; the tag of rank r bootstraps on bootstrap_key with its last
    entry advanced by r.  The counts get a key of their own: numpy drops a
    trailing zero from a key only while it fits in four 32-bit words, so
    (seed, 0) and seed are different streams once seed >= 2**96.
    """
    record = simulate_counts(state, alice, bob, pairs_per_setting, counts_seed)
    est = estimate_correlation(record, sys_angle)
    *head, last = bootstrap_key
    assessments = {}
    for rank, tag in enumerate(inequalities_for(alice.size)):
        _, std = propagate_uncertainty(est, tag, n_resamples, (*head, last + rank))
        assessments[tag] = replace(assess(est.matrix, tag), uncertainty=std)
    return record, est, assessments


def _run_keys(config: dict) -> tuple[int, int, float, int]:
    """A run's pairs_per_setting, seed, systematic tilt in radians and n_resamples."""
    return (
        _config_int(config, "pairs_per_setting", DEFAULT_PAIRS_PER_SETTING, 1,
                    MAX_PAIRS_PER_SETTING),
        _config_int(config, "seed", 0, 0),
        math.radians(_config_float(config, "sys_angle_deg", DEFAULT_SYS_ANGLE_DEG, 0.0)),
        _config_int(config, "n_resamples", DEFAULT_RESAMPLES, 2, MAX_RESAMPLES),
    )


@dataclass(frozen=True)
class ScenarioRow:
    """One sweep point: predictions, finite-statistics values, verdicts."""

    alpha_deg: float
    ris_pred: float
    ris_sim: float
    ris_err: float
    nss_pred: float | None
    nss_sim: float | None
    nss_err: float | None
    ris_bound: float
    nss_bound: float | None
    ris_violated: bool
    nss_violated: bool | None


CSV_HEADER = ",".join(f.name for f in fields(ScenarioRow))


def run_scenario(scenario: dict) -> list[ScenarioRow]:
    """Run a full sweep scenario from its config mapping.

    Required keys: "state", "alice_frame", "bob_frame".  Optional:
    "sweep" ({"alpha_deg": [...]}, pair frames only), "pairs_per_setting",
    "sys_angle_deg", "seed", "drift_sigma", "n_resamples".  Each point takes
    the alice spec at its alpha_deg and reports every inequality of
    inequalities_for(m); the removed "phi_deg" and "inequalities" raise.

    "drift_sigma" models slow source drift: each point draws its own
    Werner weight from a normal around the config's W with that width,
    clipped to [0, 1].  It needs a Werner state spec.
    """
    if not isinstance(scenario, dict):
        raise ValueError(f"scenario must be a mapping, got {type(scenario).__name__}")
    for key, home in (("phi_deg", "alice_frame.phi_deg"), ("inequalities", "inequalities_for")):
        if key in scenario:
            raise ValueError(f'config key "{key}" was removed; its value now comes from {home}')
    state, alice, bob = _state_and_frames(scenario)
    pairs, seed, sys_angle, n_resamples = _run_keys(scenario)
    state_spec = scenario["state"]
    drift = _config_float(scenario, "drift_sigma", 0.0, 0.0)
    if drift > 0.0 and state_spec.get("kind") != "werner":
        raise ValueError("drift_sigma requires a werner state spec")

    alice_spec = scenario["alice_frame"]
    sweep = scenario.get("sweep")
    if sweep is None:
        points = [(_config_float(alice_spec, "alpha_deg", 0.0), alice)]
    else:
        if not isinstance(sweep, dict):
            raise ValueError(f'config key "sweep" must be a mapping, got {sweep!r}')
        if "alpha_deg" not in sweep:
            raise ValueError('sweep requires key "alpha_deg"')
        if not isinstance(sweep["alpha_deg"], list):
            raise ValueError(f'config key "sweep" must map "alpha_deg" to a list, got {sweep!r}')
        if alice_spec.get("kind") != "pair":
            raise ValueError("sweeping alpha requires an alice pair frame spec")
        alphas = [_config_float({"alpha_deg": a}, "alpha_deg") for a in sweep["alpha_deg"]]
        if not alphas:
            raise ValueError("sweep alpha list is empty")
        points = [(a, frame_from_spec(alice_spec | {"alpha_deg": a})) for a in alphas]

    rows = []
    for index, (alpha_deg, point_alice) in enumerate(points):
        point_state = state
        if drift > 0.0:
            jitter = np.random.default_rng((seed, index, 0)).normal(0.0, drift)
            w_eff = float(np.clip(_config_float(state_spec, "W") + jitter, 0.0, 1.0))
            point_state = BlochState(werner_state(w_eff))

        m_pred = predicted_correlation(state.t, point_alice, bob)
        _, _, assessments = simulate_run(point_state, point_alice, bob, pairs, sys_angle,
                                         n_resamples, (seed, index, 1), (seed, index, 2))
        cells = dict.fromkeys(f.name for f in fields(ScenarioRow)) | {"alpha_deg": alpha_deg}
        for tag, sim in assessments.items():
            cells |= {
                f"{tag}_pred": assess(m_pred, tag).parameter,
                f"{tag}_sim": sim.parameter,
                f"{tag}_err": sim.uncertainty,
                f"{tag}_bound": sim.bound,
                f"{tag}_violated": sim.violated,
            }
        rows.append(ScenarioRow(**cells))
    return rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(float(value))


def rows_to_csv(rows: list[ScenarioRow]) -> str:
    """Serialize sweep rows to the canonical CSV schema (full precision)."""
    lines = [CSV_HEADER]
    lines.extend(",".join(_csv_cell(v) for v in astuple(r)) for r in rows)
    return "\n".join(lines) + "\n"


def rows_to_dicts(rows: list[ScenarioRow]) -> list[dict]:
    """Serialize sweep rows to JSON-ready dicts (full precision)."""
    return [asdict(r) for r in rows]
