"""Finite-statistics simulation of a photon-counting steering experiment.

For each setting pair the simulator draws a Poisson total around the
requested pairs-per-setting, splits it multinomially over the four
outcome probabilities, and estimates each correlation entry from the
counts.  Entry uncertainties combine the binomial statistical error with
a worst-case analyzer-tilt systematic, added in quadrature; parameter
uncertainties follow by parametric bootstrap over the entries.

The stages pass plain arrays: counts are drawn from a source's full data
(alpha, beta, M) and estimation reads its correlation vectors u_j = T^T a_j,
so both take any source; simulate_run alone reads a state.

All randomness flows through numpy Generators seeded explicitly; a sweep
derives one child seed per point from (base_seed, point_index), so runs
are reproducible point by point.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from .config import _config_float, _config_int, _spec_keys, _state_and_frames
from .frames import MeasurementFrame, frame_from_spec, require_orthonormal
from .states import EIGENVALUE_TOL, BlochState, werner_state
from .steering import (
    SteeringAssessment,
    _kernel,
    assess,
    inequalities_for,
    predicted_correlation,
)

if TYPE_CHECKING:
    from numpy.typing import NDArray

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


def simulate_counts(
    alpha: NDArray[np.float64],
    beta: NDArray[np.float64],
    correlation: NDArray[np.float64],
    pairs_per_setting: int,
    seed,
) -> NDArray[np.int64]:
    """Draw Poisson totals around pairs_per_setting and multinomial outcome splits.

    Any +-1 source's full data, Alice's mean outcomes alpha (m,), Bob's beta
    (n,) and their correlations M (m, n), give p(s, t | j, k) = (1 + s alpha_j
    + t beta_k + s t M_jk)/4.  The read-only (m, n, 4) result holds
    (N++, N+-, N-+, N--) at [j, k].
    """
    if alpha.ndim != 1 or beta.ndim != 1 or correlation.shape != (alpha.size, beta.size):
        shapes = ", ".join(str(x.shape) for x in (alpha, beta, correlation))
        raise ValueError(f"full data needs shapes (m,), (n,), (m, n), got {shapes}")
    if pairs_per_setting < 1:
        raise ValueError(f"pairs_per_setting must be >= 1, got {pairs_per_setting}")
    probs = (1.0 + _SIGN_A * alpha[:, None, None] + _SIGN_B * beta[None, :, None]
             + _SIGN_A * _SIGN_B * correlation[..., None]) / 4.0
    # a state's probabilities are >= EIGENVALUE_TOL; twice it allows rounding; a NaN fails
    if not probs.min() >= 2.0 * EIGENVALUE_TOL:
        raise ValueError(f"full data gives an outcome probability of {float(probs.min())!r}")
    probs = np.clip(probs, 0.0, None)
    rng = np.random.default_rng(seed)
    counts = np.zeros((*correlation.shape, 4), dtype=np.int64)
    for j, k in np.ndindex(correlation.shape):
        total = rng.poisson(pairs_per_setting)
        if total > 0:
            counts[j, k] = rng.multinomial(total, probs[j, k] / probs[j, k].sum())
    counts.setflags(write=False)
    return counts


@dataclass(frozen=True)
class EstimatedCorrelation:
    """Correlation estimate with entrywise uncertainty decomposition."""

    matrix: NDArray[np.float64]
    delta: NDArray[np.float64]
    sys_component: NDArray[np.float64]
    stat_component: NDArray[np.float64]


def estimate_correlation(
    counts: NDArray[np.int64], correlation_vectors: NDArray[np.float64],
    bob: MeasurementFrame, sys_angle: float = DEFAULT_SYS_ANGLE,
) -> EstimatedCorrelation:
    """Entrywise correlation estimate with statistical and systematic errors.

    M_hat = (N++ + N-- - N+- - N-+)/N over the (m, n, 4) counts; stat is
    the binomial standard error; sys is the worst-case response of the model
    correlation u_j.b_k over every tilt of Bob's analyzer by up to sys_angle
    <= pi/2, with the rows u_j = T^T a_j of correlation_vectors, shape (m, 3).
    """
    if not 0.0 <= sys_angle <= math.pi / 2.0:
        raise ValueError(f"sys_angle must lie in [0, pi/2], got {sys_angle}")
    m, n, _ = counts.shape
    if correlation_vectors.shape != (m, 3) or bob.size != n:
        raise ValueError(f"{m} x {n} counts need ({m}, 3) correlation vectors and {n} Bob settings")
    totals = counts.sum(axis=2)
    if np.any(totals == 0):
        raise ValueError("every setting pair needs at least one count; raise pairs_per_setting")
    mhat = (counts[:, :, 0] + counts[:, :, 3] - counts[:, :, 1] - counts[:, :, 2]) / totals
    stat = np.sqrt(np.clip(1.0 - mhat**2, 0.0, None) / totals)

    # Tilting b by theta towards a unit t orthogonal to b moves u.b, with
    # u = T^T a, by (cos theta - 1) u.b + sin theta u.t.  The worst t is
    # parallel to the projection u - (u.b) b, so the maximum has a closed
    # form; 1 - cos theta is written 2 sin^2(theta/2) to keep its digits.
    b = bob.directions
    u = correlation_vectors
    c = u @ b.T
    transverse = np.linalg.norm(u[:, None, :] - c[:, :, None] * b, axis=2)
    sys = 2.0 * math.sin(sys_angle / 2.0) ** 2 * np.abs(c) + math.sin(sys_angle) * transverse
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
    evaluate = _kernel(inequality)
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
) -> tuple[NDArray[np.int64], EstimatedCorrelation, dict[str, SteeringAssessment]]:
    """One simulated run: counts, estimate and an assessment per inequality.

    The counts are drawn on counts_seed from the state's full data
    (a_j.r_A, b_k.r_B, a_j^T T b_k).  Every tag of inequalities_for(m)
    is assessed on the estimate, with its bootstrap standard deviation as
    uncertainty; the tag of rank r bootstraps on bootstrap_key with its last
    entry advanced by r.  The counts get a key of their own: numpy drops a
    trailing zero from a key only while it fits in four 32-bit words, so
    (seed, 0) and seed are different streams once seed >= 2**96.  Bob's
    frame must be orthonormal, as a config's must.
    """
    if not isinstance(state, BlochState):
        raise TypeError(f"state must be a BlochState, got {type(state).__name__}")
    require_orthonormal(bob, "bob_frame")
    a, b = alice.directions, bob.directions
    u = a @ state.t
    counts = simulate_counts(a @ state.r_a, b @ state.r_b, u @ b.T, pairs_per_setting, counts_seed)
    est = estimate_correlation(counts, u, bob, sys_angle)
    *head, last = bootstrap_key
    assessments = {}
    for rank, tag in enumerate(inequalities_for(alice.size)):
        _, std = propagate_uncertainty(est, tag, n_resamples, (*head, last + rank))
        assessments[tag] = replace(assess(est.matrix, tag), uncertainty=std)
    return counts, est, assessments


def _pairs_and_seed(config: dict, default_seed: int = 0) -> tuple[int, int]:
    """The pairs_per_setting and seed of every subcommand that simulates counts."""
    return (
        _config_int(config, "pairs_per_setting", DEFAULT_PAIRS_PER_SETTING, 1,
                    MAX_PAIRS_PER_SETTING),
        _config_int(config, "seed", default_seed, 0),
    )


def _run_keys(config: dict) -> tuple[int, int, float, int]:
    """A run's pairs_per_setting, seed, systematic tilt in radians and n_resamples."""
    return (
        *_pairs_and_seed(config),
        # the tilt systematic's closed form grows with the tilt up to a right angle only
        math.radians(_config_float(config, "sys_angle_deg", DEFAULT_SYS_ANGLE_DEG, 0.0, 90.0)),
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
    inequalities_for(m).

    "drift_sigma" models slow source drift: each point draws its own
    Werner weight from a normal around the config's W with that width,
    clipped to [0, 1].  It needs a Werner state spec.
    """
    if not isinstance(scenario, dict):
        raise ValueError(f"scenario must be a mapping, got {type(scenario).__name__}")
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
        _spec_keys(sweep, "sweep", ("alpha_deg",), ("alpha_deg",))
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
