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
import numbers
import sys
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np
from numpy.typing import NDArray

from .frames import MeasurementFrame, frame_from_spec, require_orthonormal_bob, tilted_pair, unit
from .states import BlochState, state_from_spec, werner_state
from .steering import (
    SteeringAssessment,
    _nss_parameters,
    _trace_norms,
    assess_nss,
    assess_ris,
    nss_parameter,
    predicted_correlation,
    trace_norm,
)

DEFAULT_SYS_ANGLE = math.radians(0.5)
DEFAULT_PAIRS_PER_SETTING = 100_000
DEFAULT_RESAMPLES = 200
# Caps on the two size keys.  Poisson means stay far below numpy's limit
# (~9.2e18), and the bootstrap's (R, m, n) float64 draws, m, n <= 3, stay
# below 7.2 MB; both leave headroom above every documented use.
MAX_PAIRS_PER_SETTING = 10**9
MAX_RESAMPLES = 100_000


# Config readers return config[key] or the default, and name the key of a bad value.
def _config_int(
    config: dict, key: str, default: int, minimum: int, maximum: float = math.inf
) -> int:
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not (
        minimum <= value <= maximum
    ):
        bound = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"
        raise ValueError(f'config key "{key}" must be an integer {bound}, got {value!r}')
    return int(value)


def _config_float(config: dict, key: str, default=None, minimum: float = -math.inf) -> float:
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        max(minimum, -sys.float_info.max) <= value <= sys.float_info.max
    ):
        bound = "" if minimum == -math.inf else f" >= {minimum:g}"
        raise ValueError(f'config key "{key}" must be a finite number{bound}, got {value!r}')
    return float(value)


@dataclass(frozen=True)
class SourceModel:
    """Entangled-pair source: a validated state and the mean pairs per setting pair.

    Slow source drift is not part of the source: run_scenario models it as
    a per-point jitter of the config's Werner weight W.
    """

    state: BlochState
    pairs_per_setting: int

    def __post_init__(self):
        if not isinstance(self.state, BlochState):
            raise TypeError(f"source state must be a BlochState, got {type(self.state).__name__}")
        if self.pairs_per_setting < 1:
            raise ValueError(f"pairs_per_setting must be >= 1, got {self.pairs_per_setting}")

    @classmethod
    def werner(cls, w: float, pairs_per_setting: int) -> "SourceModel":
        return cls(BlochState(werner_state(w)), pairs_per_setting)

    @classmethod
    def from_state(cls, rho, pairs_per_setting: int) -> "SourceModel":
        return cls(BlochState(rho), pairs_per_setting)


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


def outcome_probabilities(rho, a, b) -> np.ndarray:
    """Born probabilities (p++, p+-, p-+, p--) for spin measurements a, b."""
    return _born_probabilities(BlochState(rho), unit(a), unit(b))


@dataclass(frozen=True)
class CountsRecord:
    """Coincidence counts for every setting pair, plus their provenance.

    counts[j, k] holds (N++, N+-, N-+, N--) for Alice setting j and Bob
    setting k.  The generating state and frames ride along so estimation
    can evaluate the systematic-tilt response of the underlying model.
    """

    counts: NDArray[np.int64]
    seed: object
    state: BlochState
    alice: MeasurementFrame
    bob: MeasurementFrame


def simulate_counts(
    source: SourceModel, alice: MeasurementFrame, bob: MeasurementFrame, seed
) -> CountsRecord:
    """Draw Poisson totals and multinomial outcome splits for every setting pair."""
    rng = np.random.default_rng(seed)
    m, n = alice.size, bob.size
    probs = _born_probabilities(
        source.state, alice.directions[:, None, :], bob.directions[None, :, :]
    )
    counts = np.zeros((m, n, 4), dtype=np.int64)
    for j in range(m):
        for k in range(n):
            total = rng.poisson(source.pairs_per_setting)
            if total > 0:
                counts[j, k] = rng.multinomial(total, probs[j, k] / probs[j, k].sum())
    counts.setflags(write=False)
    return CountsRecord(counts, seed, source.state, alice, bob)


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
    error; sys is the worst-case response of the model correlation to
    tilting Bob's analyzer by sys_angle in either transverse direction.
    """
    if not 0.0 <= sys_angle < math.inf:
        raise ValueError(f"sys_angle must be finite and nonnegative, got {sys_angle}")
    counts = record.counts
    totals = counts.sum(axis=2)
    if np.any(totals == 0):
        raise ValueError("every setting pair needs at least one count; raise pairs_per_setting")
    mhat = (counts[:, :, 0] + counts[:, :, 3] - counts[:, :, 1] - counts[:, :, 2]) / totals
    stat = np.sqrt(np.clip(1.0 - mhat**2, 0.0, None) / totals)

    # Tilt each Bob direction b towards +-t1 and +-t2, unit vectors
    # orthogonal to b and to each other.
    b = record.bob.directions
    t1 = np.cross(b, np.eye(3)[np.argmin(np.abs(b), axis=1)])
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(b, t1)
    tilts = np.stack([t1, -t1, t2, -t2], axis=1)
    tilted = math.cos(sys_angle) * b[:, None, :] + math.sin(sys_angle) * tilts
    a_t = record.alice.directions @ record.state.t
    # a^T T (b' - b) for every Alice setting, Bob setting and tilt b'.
    responses = np.einsum("ji,kti->jkt", a_t, tilted - b[:, None, :])
    sys = np.abs(responses).max(axis=2)
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
    if inequality == "ris":
        evaluate = _trace_norms
    elif inequality == "nss":
        evaluate = _nss_parameters
    else:
        raise ValueError(f"inequality must be 'ris' or 'nss', got {inequality!r}")
    if n_resamples < 2:
        raise ValueError(f"n_resamples must be >= 2, got {n_resamples}")
    rng = np.random.default_rng(seed)
    # One (R, m, n) draw is the same normal stream as R draws of shape (m, n).
    noise = rng.standard_normal((n_resamples, *est.matrix.shape))
    values = evaluate(np.clip(est.matrix + noise * est.delta, -1.0, 1.0))
    return float(values.mean()), float(values.std())


def assess_estimate(
    est: EstimatedCorrelation,
    inequality: str,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed=0,
) -> SteeringAssessment:
    """Assess an estimated correlation matrix against its LHS bound.

    The parameter is evaluated on est.matrix; its uncertainty is the
    bootstrap standard deviation from propagate_uncertainty.
    """
    _, std = propagate_uncertainty(est, inequality, n_resamples, seed)
    assess = assess_ris if inequality == "ris" else assess_nss
    return replace(assess(est.matrix), uncertainty=std)


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
    "sweep" ({"alpha_deg": [...]}, pair frames only), "phi_deg" (overrides
    the alice pair spec), "pairs_per_setting", "sys_angle_deg", "seed",
    "inequalities" (default ris, plus nss when m = 2), "drift_sigma",
    "n_resamples".

    "drift_sigma" models slow source drift: each point draws its own
    Werner weight from a normal around the config's W with that width,
    clipped to [0, 1].  It needs a Werner state spec.
    """
    if not isinstance(scenario, dict):
        raise ValueError(f"scenario must be a mapping, got {type(scenario).__name__}")
    for key in ("state", "alice_frame", "bob_frame"):
        if key not in scenario:
            raise ValueError(f'scenario requires key "{key}"')
    state_spec = scenario["state"]
    rho = state_from_spec(state_spec)
    pairs = _config_int(
        scenario, "pairs_per_setting", DEFAULT_PAIRS_PER_SETTING, 1, MAX_PAIRS_PER_SETTING
    )
    seed = _config_int(scenario, "seed", 0, 0)
    n_resamples = _config_int(scenario, "n_resamples", DEFAULT_RESAMPLES, 2, MAX_RESAMPLES)
    sys_angle = math.radians(_config_float(scenario, "sys_angle_deg", 0.5, 0.0))
    drift = _config_float(scenario, "drift_sigma", 0.0, 0.0)
    if drift > 0.0 and state_spec.get("kind") != "werner":
        raise ValueError("drift_sigma requires a werner state spec")
    source = SourceModel.from_state(rho, pairs)

    bob = frame_from_spec(scenario["bob_frame"])
    require_orthonormal_bob(bob)
    alice_spec = scenario["alice_frame"]
    alice_mapping = alice_spec if isinstance(alice_spec, dict) else {}
    sweep = scenario.get("sweep")
    if sweep is not None:
        if "alpha_deg" not in sweep:
            raise ValueError('sweep requires key "alpha_deg"')
        if alice_mapping.get("kind") != "pair":
            raise ValueError("sweeping alpha requires an alice pair frame spec")
        alphas = [_config_float({"alpha_deg": a}, "alpha_deg") for a in sweep["alpha_deg"]]
        if not alphas:
            raise ValueError("sweep alpha list is empty")
    else:
        alphas = [_config_float(alice_mapping, "alpha_deg", 0.0)]
    phi = math.radians(_config_float(scenario, "phi_deg", alice_mapping.get("phi_deg", 0.0)))

    def alice_at(alpha_deg: float) -> MeasurementFrame:
        if alice_mapping.get("kind") == "pair":
            return tilted_pair(phi, math.radians(alpha_deg), alice_spec["normal"])
        return frame_from_spec(alice_spec)

    probe = alice_at(alphas[0])
    default_ineqs = ["ris", "nss"] if probe.size == 2 else ["ris"]
    inequalities = list(scenario.get("inequalities", default_ineqs))
    for tag in inequalities:
        if tag not in ("ris", "nss"):
            raise ValueError(f"unknown inequality tag {tag!r}")
    if "nss" in inequalities and probe.size != 2:
        raise ValueError("the nss inequality requires exactly 2 alice settings")

    t_nominal = source.state.t
    rows = []
    for index, alpha_deg in enumerate(alphas):
        alice = alice_at(alpha_deg)
        if drift > 0.0:
            jitter = np.random.default_rng((seed, index, 0)).normal(0.0, drift)
            w_eff = float(np.clip(_config_float(state_spec, "W") + jitter, 0.0, 1.0))
            point_source = SourceModel.werner(w_eff, pairs)
        else:
            point_source = source

        m_pred = predicted_correlation(t_nominal, alice, bob)
        record = simulate_counts(point_source, alice, bob, seed=(seed, index, 1))
        est = estimate_correlation(record, sys_angle)

        ris = assess_estimate(est, "ris", n_resamples, seed=(seed, index, 2))
        ris_pred = trace_norm(m_pred)

        nss_pred = nss_sim = nss_err = nss_bound = nss_violated = None
        if "nss" in inequalities:
            nss_pred = nss_parameter(m_pred)
            nss = assess_estimate(est, "nss", n_resamples, seed=(seed, index, 3))
            nss_sim = nss.parameter
            nss_err = nss.uncertainty
            nss_bound = nss.bound
            nss_violated = nss.violated

        rows.append(ScenarioRow(
            alpha_deg=alpha_deg,
            ris_pred=ris_pred,
            ris_sim=ris.parameter,
            ris_err=ris.uncertainty,
            nss_pred=nss_pred,
            nss_sim=nss_sim,
            nss_err=nss_err,
            ris_bound=ris.bound,
            nss_bound=nss_bound,
            ris_violated=ris.violated,
            nss_violated=nss_violated,
        ))
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
