"""Finite-statistics simulation of a photon-counting steering experiment.

For each setting pair the simulator draws a Poisson total around the
requested pairs-per-setting, splits it multinomially over the four
outcome probabilities, and judges the counts: each correlation entry's
binomial statistical error and a per-entry systematic add in quadrature,
and parameter uncertainties follow by parametric bootstrap over the entries.

The stages pass plain arrays: counts are drawn from a source's full data
(alpha, beta, M); judge reads only the counts and a systematic, so it takes
measured data too.  tilt_systematic is the model's worst case over Bob's
analyzer tilt, and simulate_run alone reads a state.

All randomness flows through numpy Generators seeded explicitly; a sweep
derives one child seed per point from (base_seed, point_index), so runs
are reproducible point by point.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .config import _config_float, _config_int, _spec_keys, _state_and_frames
from .frames import MeasurementFrame, frame_from_spec, require_orthonormal
from .states import EIGENVALUE_TOL, BlochState, state_from_spec
from .steering import (
    SteeringAssessment,
    _kernel,
    assess,
    inequalities_for,
    predicted_correlation,
)

# The analyzer tilt every simulated run is judged at; tilt_systematic takes any other.
DEFAULT_SYS_ANGLE = math.radians(0.5)
DEFAULT_PAIRS_PER_SETTING = 100_000
DEFAULT_RESAMPLES = 200
# Cap on pairs_per_setting: Poisson means stay far below numpy's limit
# (~9.2e18), with headroom above every documented use.
MAX_PAIRS_PER_SETTING = 10**9


# Outcome signs (s, t) in the order (++, +-, -+, --).
_SIGN_A = np.array([1.0, 1.0, -1.0, -1.0])
_SIGN_B = np.array([1.0, -1.0, 1.0, -1.0])


def simulate_counts(
    alpha: np.ndarray,
    beta: np.ndarray,
    correlation: np.ndarray,
    pairs_per_setting: int,
    seed,
) -> np.ndarray:
    """Draw Poisson totals around pairs_per_setting and multinomial outcome splits.

    Any +-1 source's full data, Alice's mean outcomes alpha (m,), Bob's beta
    (n,) and their correlations M (m, n), give p(s, t | j, k) = (1 + s alpha_j
    + t beta_k + s t M_jk)/4.  The read-only (m, n, 4) int64 result holds
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
        # a zero total draws nothing from the stream and gives zeros
        counts[j, k] = rng.multinomial(total, probs[j, k] / probs[j, k].sum())
    counts.setflags(write=False)
    return counts


@dataclass(frozen=True, eq=False)
class EstimatedCorrelation:
    """Correlation estimate with entrywise uncertainty decomposition."""

    matrix: np.ndarray
    delta: np.ndarray
    sys_component: np.ndarray
    stat_component: np.ndarray


def tilt_systematic(
    correlation_vectors: np.ndarray, bob: MeasurementFrame,
    sys_angle: float = DEFAULT_SYS_ANGLE,
) -> np.ndarray:
    """The model's worst-case entry error over every tilt of Bob's analyzer.

    The (m, n) result bounds how far the model correlation u_j.b_k, with the
    rows u_j = T^T a_j of correlation_vectors, shape (m, 3), moves when Bob's
    setting b_k tilts by up to sys_angle <= pi/2.
    """
    if not 0.0 <= sys_angle <= math.pi / 2.0:
        raise ValueError(f"sys_angle must lie in [0, pi/2], got {sys_angle}")
    # Tilting b by theta towards a unit t orthogonal to b moves u.b, with
    # u = T^T a, by (cos theta - 1) u.b + sin theta u.t.  The worst t is
    # parallel to the projection u - (u.b) b, so the maximum has a closed
    # form; 1 - cos theta is written 2 sin^2(theta/2) to keep its digits.
    b = bob.directions
    u = correlation_vectors
    c = u @ b.T
    transverse = np.linalg.norm(u[:, None, :] - c[:, :, None] * b, axis=2)
    return 2.0 * math.sin(sys_angle / 2.0) ** 2 * np.abs(c) + math.sin(sys_angle) * transverse


def judge(
    counts: np.ndarray, sys_component: np.ndarray, bootstrap_key: tuple,
) -> tuple[EstimatedCorrelation, dict[str, SteeringAssessment]]:
    """The estimate and an assessment per inequality, from counts and a systematic alone.

    M_hat = (N++ + N-- - N+- - N-+)/N over the counts, a non-negative integer
    (m, n, 4) array, m, n >= 1, in the outcome order of simulate_counts; its
    binomial standard error stat and the (m, n) sys_component add in
    quadrature as delta.  Each tag of inequalities_for(m) is assessed on M_hat, with the
    standard deviation of DEFAULT_RESAMPLES parametric bootstrap draws (each
    entry normal of width delta, clamped to [-1, 1]) as uncertainty; the tag
    of rank r draws on bootstrap_key with its last entry advanced by r.  Give
    the counts a key of their own: numpy drops a trailing zero from a key only
    while it fits in four 32-bit words, so (seed, 0) and seed are different
    streams once seed >= 2**96.
    """
    if (counts.ndim != 3 or counts.shape[2] != 4 or 0 in counts.shape
            or counts.dtype.kind not in "iu"):
        raise ValueError(
            f"counts must be an integer (m, n, 4) array with m, n >= 1, "
            f"got {counts.dtype} of shape {counts.shape}"
        )
    if np.any(counts < 0):
        raise ValueError("counts must be >= 0")
    m, n, _ = counts.shape
    sys = np.array(sys_component, dtype=np.float64)
    if sys.shape != (m, n):
        raise ValueError(f"{m} x {n} counts need an ({m}, {n}) sys_component, got {sys.shape}")
    if not np.all(np.isfinite(sys) & (sys >= 0.0)):
        raise ValueError("sys_component entries must be finite and >= 0")
    totals = counts.sum(axis=2)
    if np.any(totals == 0):
        raise ValueError("every setting pair needs at least one count; raise pairs_per_setting")
    mhat = counts @ (_SIGN_A * _SIGN_B) / totals
    stat = np.sqrt(np.clip(1.0 - mhat**2, 0.0, None) / totals)
    delta = np.sqrt(sys**2 + stat**2)
    for arr in (mhat, delta, sys, stat):
        arr.setflags(write=False)
    *head, last = bootstrap_key
    assessments = {}
    for rank, tag in enumerate(inequalities_for(m)):
        rng = np.random.default_rng((*head, last + rank))
        # One (R, m, n) draw is the same normal stream as R draws of shape (m, n).
        noise = rng.standard_normal((DEFAULT_RESAMPLES, m, n))
        values = _kernel(tag)(np.clip(mhat + noise * delta, -1.0, 1.0))
        assessments[tag] = replace(assess(mhat, tag), uncertainty=float(values.std()))
    return EstimatedCorrelation(mhat, delta, sys, stat), assessments


def simulate_run(
    state: BlochState,
    alice: MeasurementFrame,
    bob: MeasurementFrame,
    pairs_per_setting: int,
    counts_seed,
    bootstrap_key: tuple,
) -> tuple[np.ndarray, EstimatedCorrelation, dict[str, SteeringAssessment]]:
    """One simulated run: int64 counts, then judge's estimate and assessments.

    The counts are drawn on counts_seed from the state's full data
    (a_j.r_A, b_k.r_B, a_j^T T b_k) and judged with the state's tilt
    systematic at DEFAULT_SYS_ANGLE on bootstrap_key.  Bob's frame must be
    orthonormal, as a config's must.
    """
    if not isinstance(state, BlochState):
        raise TypeError(f"state must be a BlochState, got {type(state).__name__}")
    # _state_and_frames checks a config's frame; this cheap repeat guards library callers
    require_orthonormal(bob, "bob_frame")
    a, b = alice.directions, bob.directions
    u = a @ state.t
    counts = simulate_counts(a @ state.r_a, b @ state.r_b, u @ b.T, pairs_per_setting, counts_seed)
    return (counts, *judge(counts, tilt_systematic(u, bob), bootstrap_key))


def _run_keys(config: dict, default_seed: int = 0) -> tuple[int, int]:
    """The pairs_per_setting and seed of every subcommand that simulates counts."""
    return (
        _config_int(config, "pairs_per_setting", DEFAULT_PAIRS_PER_SETTING, 1,
                    MAX_PAIRS_PER_SETTING),
        _config_int(config, "seed", default_seed, 0),
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
    "seed", "drift_sigma".  Each point takes the alice spec at its alpha_deg
    and reports every inequality of inequalities_for(m).

    "drift_sigma" models slow source drift: each point draws its own
    Werner weight from a normal around the config's W with that width,
    clipped to [0, 1], and builds its state from the config's state spec
    with that W, as it builds its frame from the alice spec at its
    alpha_deg.  It needs a Werner state spec.
    """
    if not isinstance(scenario, dict):
        raise ValueError(f"scenario must be a mapping, got {type(scenario).__name__}")
    state, alice, bob = _state_and_frames(scenario)
    pairs, seed = _run_keys(scenario)
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
            point_state = BlochState(state_from_spec(state_spec | {"W": w_eff}))

        m_pred = predicted_correlation(state.t, point_alice, bob)
        _, _, assessments = simulate_run(point_state, point_alice, bob, pairs,
                                         (seed, index, 1), (seed, index, 2))
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
