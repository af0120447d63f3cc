"""Workloads of the steerkit benchmark: inputs, operations and output checks.

Each workload turns a seed into a pool of plain inputs (numbers, lists,
dicts) before anything is timed, runs one operation per input through
steerkit's public API, and checks the operation's output against facts
that hold for any correct implementation.  A failed check raises
CheckFailed.

The benchmark looks every steerkit function up on its module at call time
(``steering.assess_ris(...)``), so the tracer can wrap it there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from steerkit import frames, lhs, reproduce, states, steering


class CheckFailed(AssertionError):
    """An operation returned an output that fails its check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Workload:
    name: str
    # Modules a caller of this workload imports; set-up time imports them.
    entry_modules: tuple[str, ...]
    # Distinct inputs generated per run; operation i uses input i % pool.
    pool: int
    # Operations run before measuring; one per input in the pool's head.
    warmup: int
    generate: Callable[[np.random.Generator, int], Any]
    operate: Callable[[Any], Any]
    check: Callable[[Any, Any], None]

    def inputs(self, seed: int) -> list:
        salt = WORKLOAD_NAMES.index(self.name)
        return [
            self.generate(np.random.default_rng((seed, salt, i)), i)
            for i in range(self.pool)
        ]


def _haar_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _unit(rng: np.random.Generator, dim: int = 3) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# --------------------------------------------------------------------------
# reproduce: back-to-back build_report() at its defaults.

# The table's predicted column at the commit that introduced this benchmark,
# with the number of Alice settings m of each row (its bound is sqrt(m)).
REPORT_PREDICTED = (
    (1.9699999999999993, 2),
    (1.9699999999999993, 2),
    (1.3999999999999997, 2),
    (0.973323194868908, 2),
    (2.951999999999999, 3),
    (1.9679999999999995, 2),
    (1.9679999999999995, 3),
    (2.8399999999999994, 3),
    (1.9318516525781364, 2),
    (1.931851652578136, 2),
    (2.7435743110038047, 3),
)


def _reproduce_generate(rng: np.random.Generator, index: int) -> int:
    return int(rng.integers(0, 2**31))


def _reproduce_operate(report_seed: int):
    return reproduce.build_report(seed=report_seed)


def _reproduce_check(report_seed: int, rows) -> None:
    _require(len(rows) == len(REPORT_PREDICTED), f"{len(rows)} report rows")
    for row, (predicted, m) in zip(rows, REPORT_PREDICTED):
        values = (row.predicted, row.simulated, row.sim_err, row.bound)
        _require(all(math.isfinite(v) for v in values), f"non-finite row {values}")
        _require(abs(row.predicted - predicted) <= 1e-9,
                 f"predicted {row.predicted!r}, expected {predicted!r}")
        _require(abs(row.simulated - row.predicted) <= 5.0 * row.sim_err,
                 f"simulated {row.simulated!r} is more than 5 sim_err "
                 f"({row.sim_err!r}) from predicted {row.predicted!r}")
        _require(abs(row.bound - math.sqrt(m)) <= 1e-12, f"bound {row.bound!r} for m = {m}")


# --------------------------------------------------------------------------
# predict: ideal-model evaluations of one seeded state and frame pair.

@dataclass(frozen=True)
class PredictInput:
    state_spec: dict
    werner_w: float | None
    normal: np.ndarray
    phi: float
    alpha: float
    bob_rotation: np.ndarray | None  # None: Bob holds the pair in Alice's reference plane
    spin: float  # in-plane rotation of Alice's pair for the invariance check


@dataclass(frozen=True)
class PredictOutput:
    ris: float
    nss: float
    ris_predicted: float
    nss_predicted: float
    nss_min: float
    ris_spun: float


def _random_state(rng: np.random.Generator) -> np.ndarray:
    """Mixed two-qubit state with both local Bloch vectors of length >= 0.05."""
    while True:
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho = (rho + rho.conj().T) / 2.0
        rho /= rho.trace().real
        blocks = rho.reshape(2, 2, 2, 2)
        rho_a = np.einsum("ijkj->ik", blocks)
        rho_b = np.einsum("ijil->jl", blocks)
        bloch = [np.array([2 * r[0, 1].real, -2 * r[0, 1].imag, (r[0, 0] - r[1, 1]).real])
                 for r in (rho_a, rho_b)]
        if min(np.linalg.norm(b) for b in bloch) >= 0.05:
            return rho


def _predict_generate(rng: np.random.Generator, index: int) -> PredictInput:
    werner = index % 2 == 0
    triad = (index // 2) % 2 == 1
    if werner:
        w = float(rng.uniform(0.0, 1.0))
        spec = {"kind": "werner", "W": w}
    else:
        w = None
        rho = _random_state(rng)
        spec = {"kind": "matrix", "re": rho.real.tolist(), "im": rho.imag.tolist()}
    return PredictInput(
        state_spec=spec,
        werner_w=w,
        normal=_unit(rng),
        phi=float(rng.uniform(0.0, math.pi / 2.0)),
        alpha=float(rng.uniform(0.0, math.pi)),
        bob_rotation=_haar_rotation(rng) if triad else None,
        spin=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def _predict_operate(x: PredictInput) -> PredictOutput:
    rho = states.state_from_spec(x.state_spec)
    alice = frames.tilted_pair(x.phi, x.alpha, x.normal)
    if x.bob_rotation is None:
        bob = frames.pair_in_plane(x.normal, 0.0)
    else:
        bob = frames.rotate_frame(frames.standard_triad(), x.bob_rotation)
    t = states.spin_correlation_matrix(rho)
    m = steering.predicted_correlation(t, alice, bob)
    ris = steering.assess_ris(m)
    nss = steering.assess_nss(m)
    ris_pred = steering.ris_predicted(t, alice, bob)
    nss_pred = steering.nss_predicted(t, alice, bob)
    a = alice.directions
    nss_min = steering.min_nss_over_rotations(t, a.T @ a, bob)
    spun = frames.rotate_frame(alice, frames.rotation_about(np.cross(a[0], a[1]), x.spin))
    ris_spun = steering.assess_ris(steering.predicted_correlation(t, spun, bob))
    return PredictOutput(ris.parameter, nss.parameter, ris_pred, nss_pred, nss_min,
                         ris_spun.parameter)


def _predict_check(x: PredictInput, out: PredictOutput) -> None:
    _require(all(math.isfinite(v) for v in vars(out).values()), f"non-finite output {out}")
    _require(abs(out.nss_min - out.ris_predicted) <= 1e-9,
             f"min over rotations {out.nss_min!r} != ris_predicted {out.ris_predicted!r}")
    _require(abs(out.ris - out.ris_predicted) <= 1e-10,
             f"assess_ris {out.ris!r} != ris_predicted {out.ris_predicted!r}")
    _require(abs(out.ris_spun - out.ris) <= 1e-10,
             f"ris {out.ris!r} moved to {out.ris_spun!r} under an in-plane rotation")
    _require(out.nss >= out.ris - 1e-12, f"nss {out.nss!r} < ris {out.ris!r}")
    if x.werner_w is not None and x.bob_rotation is None:
        w, phi, alpha = x.werner_w, x.phi, x.alpha
        ris_closed = w * (1.0 + abs(math.cos(phi)))
        c2 = math.cos(phi) ** 2
        s = math.sin(2.0 * alpha) * math.sin(phi) ** 2
        nss_closed = w * (math.sqrt(1.0 + c2 + s) + math.sqrt(max(0.0, 1.0 + c2 - s))) / math.sqrt(2.0)
        _require(abs(out.ris_predicted - ris_closed) <= 1e-12,
                 f"werner ris {out.ris_predicted!r} != closed form {ris_closed!r}")
        _require(abs(out.nss_predicted - nss_closed) <= 1e-12,
                 f"werner nss {out.nss_predicted!r} != closed form {nss_closed!r}")


# --------------------------------------------------------------------------
# lhs: lhs_membership(M) at its defaults on matrices whose verdict is known.

# Cost is set by Bob's dimension n: tens of ms at n = 2, 0.4 to 2.6 s at
# n = 3.  Every 25 operations hold one n = 3 case of each kind (2x3 and 3x3,
# feasible and infeasible) spread among 21 n = 2 cases.  The n = 3 cases are
# 16 % of the mix, so the 90th percentile falls inside one kind of them
# (2x3 infeasible) rather than on a boundary between kinds, and a run still
# holds the hundred operations that percentile needs.
LHS_PERIOD = 25
LHS_HEAVY = {3: (2, 3, True), 9: (3, 3, False), 15: (2, 3, False), 21: (3, 3, True)}
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LhsInput:
    matrix: np.ndarray
    label: str


def _trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def _nss(m: np.ndarray) -> float:
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return float(np.linalg.norm(u @ m, axis=1).sum())


def _lhs_case(index: int) -> tuple[int, int, bool, bool]:
    """(m, n, feasible, explicit mixture) of operation `index`; period 50."""
    half, slot = divmod(index % (2 * LHS_PERIOD), LHS_PERIOD)
    if slot in LHS_HEAVY:
        m, n, feasible = LHS_HEAVY[slot]
        return m, n, feasible, half == 0
    light = half * (LHS_PERIOD - len(LHS_HEAVY)) + slot - sum(s < slot for s in LHS_HEAVY)
    m = 2 + light % 2
    return m, 2, light % 4 in (0, 3), (light // 4) % 2 == 0


def _lhs_generate(rng: np.random.Generator, index: int) -> LhsInput:
    m, n, feasible, mixture = _lhs_case(index)
    if feasible and mixture:
        # Explicit LHS mixture, shrunk toward 0 so that every grid fine
        # enough to cover the ball within 5 % contains it.
        atoms = int(rng.integers(1, m * n + 2))
        weights = rng.dirichlet(np.ones(atoms))
        signs = rng.choice((-1.0, 1.0), size=(atoms, m))
        blochs = np.array([_unit(rng, n) for _ in range(atoms)])
        scale = rng.uniform(0.5, 0.95)
        return LhsInput(scale * np.einsum("i,ij,ik->jk", weights, signs, blochs), FEASIBLE)
    while True:
        # Werner correlations -W A B^T on random orthonormal frames.  W <= 1/2
        # is unsteerable for projective measurements; 0.45 leaves a margin.
        a = _haar_rotation(rng)[:m]
        b = _haar_rotation(rng)[:n]
        if feasible:
            return LhsInput(-rng.uniform(0.05, 0.45) * a @ b.T, FEASIBLE)
        matrix = -rng.uniform(0.6, 1.0) * a @ b.T
        # Labelled on the matrix itself: off-axis frames shrink its trace norm.
        if _trace_norm(matrix) >= math.sqrt(m) + 0.05 or (
            m == 2 and _nss(matrix) >= math.sqrt(2.0) + 0.05
        ):
            return LhsInput(matrix, INFEASIBLE)


def _lhs_operate(x: LhsInput):
    return lhs.lhs_membership(x.matrix)


def _lhs_check(x: LhsInput, verdict) -> None:
    _require(verdict.status == x.label, f"verdict {verdict.status!r}, expected {x.label!r}")
    m, n = x.matrix.shape
    if verdict.status == FEASIBLE:
        model = verdict.model
        w = np.asarray(model.weights)
        a = np.asarray(model.alice_responses)
        s = np.asarray(model.bob_blochs)
        _require(bool(np.all(w >= -1e-12)) and abs(w.sum() - 1.0) <= 1e-9,
                 "certificate weights are not a distribution")
        _require(bool(np.all(np.abs(a) <= 1.0 + 1e-9)), "alice response outside [-1, 1]")
        _require(bool(np.all(np.linalg.norm(s, axis=1) <= 1.0 + 1e-9)),
                 "bob bloch vector outside the unit ball")
        error = np.abs(np.einsum("i,ij,ik->jk", w, a, s[:, :n]) - x.matrix).max()
        _require(error <= 1e-6, f"certificate misses M by {error:.3e}")
    else:
        g = np.asarray(verdict.separator, dtype=float)
        _require(g.shape == (m, n), f"separator shape {g.shape}")
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
        support = float(np.linalg.norm(signs @ g, axis=1).max())
        score = float(np.sum(g * x.matrix))
        _require(score > support, f"separator score {score!r} <= LHS support {support!r}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reproduce", ("steerkit", "steerkit.reproduce"), 4096, 1,
                 _reproduce_generate, _reproduce_operate, _reproduce_check),
        Workload("predict", ("steerkit", "steerkit.states", "steerkit.frames", "steerkit.steering"),
                 2048, 64, _predict_generate, _predict_operate, _predict_check),
        Workload("lhs", ("steerkit", "steerkit.lhs"), 4 * LHS_PERIOD, 2,
                 _lhs_generate, _lhs_operate, _lhs_check),
    )
}
WORKLOAD_NAMES = tuple(WORKLOADS)
