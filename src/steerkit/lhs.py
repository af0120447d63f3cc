"""Exact local-hidden-state membership oracle.

A correlation matrix M admits a local-hidden-state model exactly when it
lies in the convex hull of the rank-1 matrices a c^T, where a runs over
deterministic +-1 response vectors for Alice and c over the unit ball of
Bob's setting space (his measurement directions are taken as orthonormal
axes).  Grouping the atoms of a mixture by Alice's response, up to a
global sign, turns membership into a gauge: M is LHS exactly when

    min  sum_a |v_a|   over decompositions   M = sum_a a v_a^T

is at most 1, with a over the 2^(m-1) sign vectors whose first entry is
+1 (Cavalcanti, Jones, Wiseman & Reid, PRA 80, 032112, 2009).  Writing S
for the matrix of those sign vectors, S^T S = K I with K = 2^(m-1), so
V0 = S M / K is one decomposition, and every decomposition is V0 + N Z,
where the K - m columns of N are an orthonormal basis of the null space
of S^T.  The gauge is the minimum of sum_a |(V0 + N Z)_a| over Z, found
by smoothed Newton continuation for any m up to MAX_ALICE_SETTINGS; Bob
holds at most three settings.  N is empty for m <= 2, where V0 is the
only decomposition and, for m = 2, the gauge is the two-setting parameter
divided by sqrt(2).  For m = 3, N is +-z/2 with z = (1, -1, -1, 1), and
the gauge is a Fermat-Weber problem over four points (Vardi & Zhang,
PNAS 97, 1423, 2000).

Verdicts are certified.  A feasible verdict carries the mixture of atoms
(a, v_a/|v_a|), each Bob state an n-vector in the coordinates of his
settings, with weights |v_a|, plus a zero-mean pair that takes up the
slack, and its reconstruction residual is re-checked.  For a gauge in
(1, 1 + BOUNDARY_MARGIN] the weights are |v_a| divided by the gauge, so
the mixture gives M / gauge and the residual can reach BOUNDARY_MARGIN
times |M|_1.  An infeasible verdict carries the dual functional
G = S^T U / K built from the unit directions u_a of the v_a, scaled so
that its exact support max_a |G^T a| over the LHS set is 1, and it is
issued only when <G, M> clears that support.  Both test the gauge against
1 + BOUNDARY_MARGIN, as steering.assess does; a matrix that neither
certificate settles raises instead of guessing.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import BOUNDARY_MARGIN, MAX_ALICE_SETTINGS

if TYPE_CHECKING:
    from numpy.typing import NDArray

# A feasible certificate must reproduce M within this L1 residual.
RESIDUAL_TOL = 1e-7
# Smoothing levels eps of the Newton continuation, relative to the
# largest row length of V0, each LEVEL_RATIO times the last.  The solve at
# each level stops once |grad f_eps| falls below max(eps, GRADIENT_TOL),
# or after NEWTON_STEPS steps.
LEVEL_RATIO = 0.1
SMOOTHING_LEVELS = LEVEL_RATIO ** np.arange(1, 17)
GRADIENT_TOL = 1e-14
NEWTON_STEPS = 50
# Relative rounding of f_eps and of the Hessian's largest entry.
ROUNDING = 4.0 * np.finfo(float).eps

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


def alice_sign_vectors(m: int) -> np.ndarray:
    """All 2^m deterministic +-1 response vectors, in a fixed order."""
    if not 1 <= m <= MAX_ALICE_SETTINGS:
        raise ValueError(f"alice setting count must be 1 to {MAX_ALICE_SETTINGS}, got {m}")
    return np.array(list(itertools.product((-1.0, 1.0), repeat=m)))


@dataclass(frozen=True)
class LhsModel:
    """Explicit local-hidden-state mixture.

    Row i of bob_blochs is Bob's hidden state in the coordinates of his
    settings, one component per column of M, so a mixture of n-component
    rows generates an m x n matrix.
    """

    weights: NDArray[np.float64]
    alice_responses: NDArray[np.float64]
    bob_blochs: NDArray[np.float64]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        a = np.asarray(self.alice_responses, dtype=float)
        s = np.asarray(self.bob_blochs, dtype=float)
        # first: a NaN passes every comparison below
        for name, arr in (("weights", w), ("alice_responses", a), ("bob_blochs", s)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite, got {arr.tolist()}")
        if w.ndim != 1 or a.ndim != 2 or s.ndim != 2:
            raise ValueError("model arrays have wrong dimensionality")
        if not (len(w) == len(a) == len(s)):
            raise ValueError("model arrays must share the leading length")
        if not 1 <= s.shape[1] <= 3:
            raise ValueError(f"bob_blochs must have 1 to 3 components, got {s.shape[1]}")
        if np.any(w < -1e-12):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        if np.any(np.abs(a) > 1.0 + 1e-9):
            raise ValueError("alice responses must lie in [-1, 1]")
        if np.any(np.linalg.norm(s, axis=1) > 1.0 + 1e-9):
            raise ValueError("bob bloch vectors must lie in the unit ball")
        for arr in (w, a, s):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "alice_responses", a)
        object.__setattr__(self, "bob_blochs", s)


def evaluate_lhs_model(model: LhsModel) -> np.ndarray:
    """Correlation matrix M = sum_i w_i a_i s_i^T generated by a hidden-state mixture.

    M's columns are Bob's settings, the coordinates of the rows s_i.  A
    model of physical 3-vectors seen through Bob's frame B gives
    evaluate_lhs_model(model) @ B.T.
    """
    return np.einsum("i,ij,ik->jk", model.weights, model.alice_responses, model.bob_blochs)


@dataclass(frozen=True)
class MembershipVerdict:
    """Certified membership answer.

    For feasible verdicts gap is the L1 reconstruction residual and model
    holds the certifying mixture.  For infeasible verdicts separator holds
    G normalized so its exact maximum max_a |G^T a| over the LHS set is 1,
    and gap = <G, M> - 1 > 0.
    """

    status: str
    gap: float
    model: LhsModel | None = None
    separator: NDArray[np.float64] | None = None


def _true_support(g: np.ndarray) -> float:
    """Exact support function of the LHS set at G.

    max over a in {-1,+1}^m, |c| <= 1 of <G, a c^T> = max_a |G^T a|; a and -a
    give the same norm, so the sign vectors with first entry +1 suffice.
    """
    return float(np.linalg.norm(_sign_basis(g.shape[0])[0] @ g, axis=1).max())


def _unit_rows(x: np.ndarray):
    """Lengths and unit vectors of the rows of x; zero rows stay zero.

    Each row is scaled by its largest entry first, so that the units stay
    accurate at magnitudes whose squares would underflow.
    """
    scale = np.abs(x).max(axis=1, keepdims=True)
    scaled = np.divide(x, scale, out=np.zeros_like(x), where=scale > 0.0)
    lengths = np.linalg.norm(scaled, axis=1, keepdims=True)
    units = np.divide(scaled, lengths, out=np.zeros_like(x), where=lengths > 0.0)
    return (lengths * scale)[:, 0], units


@functools.lru_cache(maxsize=None)
def _sign_basis(m: int):
    """Sign vectors S with first entry +1 and an orthonormal basis N of null(S^T), read-only."""
    signs = alice_sign_vectors(m)[2 ** (m - 1):]
    null = np.linalg.svd(signs)[0][:, m:]
    signs.setflags(write=False)
    null.setflags(write=False)
    return signs, null


def _smoothed_gradient(null: np.ndarray, r: np.ndarray, eps: float):
    """Smoothed row lengths s_a = sqrt(|R_a|^2 + eps^2), the gradient N^T (R / s) and its norm."""
    s = np.sqrt(np.einsum("ai,ai->a", r, r) + eps * eps)
    grad = null.T @ (r / s[:, None])
    return s, grad, math.sqrt(np.vdot(grad, grad))


def _smoothed_newton(v0: np.ndarray, null: np.ndarray):
    """Minimizer R = V0 + N Z of sum_a |R_a| by Newton continuation, for unit scale.

    Solves grad f_eps(Z) = 0 for f_eps(Z) = sum_a sqrt(|R_a|^2 + eps^2)
    from Z = 0, with eps falling through SMOOTHING_LEVELS.  The smoothing
    keeps the Hessian positive definite where rows of R vanish at the
    optimum, the kinks of the gauge.  Such rows shrink in proportion to
    eps, so a level starts from the linear extrapolation of the last two
    levels' solutions when that has the smaller gradient.  Steps backtrack
    until f_eps falls by the Armijo amount beyond its rounding, or until
    |grad f_eps| falls, which still resolves progress where f_eps no longer
    does; f_eps may not rise beyond its rounding.  R moves by the steps
    N dZ, not recomputed from V0, so that a row near 0 keeps its relative
    accuracy.  Returns R and the units R / s at the last level.
    """
    (k, p), n = null.shape, v0.shape[1]
    eye, identity = np.eye(n), np.eye(p * n)
    r = previous = v0
    for eps in SMOOTHING_LEVELS:
        predicted, previous = r + LEVEL_RATIO * (r - previous), r
        starts = [(x, *_smoothed_gradient(null, x, eps)) for x in (r, predicted)]
        r, s, grad, size = min(starts, key=lambda start: start[3])
        for _ in range(NEWTON_STEPS):
            if size <= max(GRADIENT_TOL, eps):
                break
            # the Hessian sum_a (N_a N_a^T) (x) B_a from the rows' n x n blocks
            # B_a = I/s_a - R_a R_a^T/s_a^3; where rounding loses a direction's
            # curvature, as where the optimum is not unique, the damping
            # takes a gradient step along it
            blocks = eye / s[:, None, None] - np.einsum("a,ai,aj->aij", s**-3, r, r)
            weighted = null[:, :, None] * blocks.reshape(k, 1, n * n)
            hess = (null.T @ weighted.reshape(k, p * n * n)).reshape(p, p, n, n)
            hess = hess.transpose(0, 2, 1, 3).reshape(p * n, p * n)
            hess += ROUNDING * hess.max() * identity
            dz = np.linalg.solve(hess, grad.ravel())
            decrease = max(1e-4 * float(grad.ravel() @ dz), 0.0)
            step = null @ dz.reshape(p, n)
            f = float(s.sum())
            alpha = 1.0
            while alpha > 1e-12:
                trial = r - alpha * step
                s_new, grad_new, size_new = _smoothed_gradient(null, trial, eps)
                f_new = float(s_new.sum())
                resolved = f - f_new > alpha * decrease + ROUNDING * f
                smaller = size_new <= (1 - 1e-4 * alpha) * size
                if (resolved or smaller) and f_new <= f + ROUNDING * f:
                    break
                alpha *= 0.5
            else:
                break
            r, s, grad, size = trial, s_new, grad_new, size_new
    return r, r / s[:, None]


def _optimal_decomposition(m_mat: np.ndarray):
    """Sign vectors S, a minimizing V with M = S^T V, and dual directions U.

    Rows of U are unit vectors along the rows of V, or the smoothed solve's
    subgradient where a row vanishes, so that G = S^T U / K satisfies
    <G, M> = sum_a |v_a| at the optimum.  With no null space (m <= 2) V0 is
    the only decomposition, and U its exact unit rows.
    """
    signs, null = _sign_basis(m_mat.shape[0])
    v = signs @ m_mat / len(signs)
    lengths, units = _unit_rows(v)
    scale = lengths.max()
    if null.shape[1] == 0 or scale == 0.0:
        return signs, v, units
    r, u = _smoothed_newton(v / scale, null)
    return signs, scale * r, u


def _validated(matrix) -> np.ndarray:
    m_mat = np.asarray(matrix, dtype=float)
    if m_mat.ndim != 2:
        raise ValueError(f"expected a 2-d correlation matrix, got shape {m_mat.shape}")
    m, n = m_mat.shape
    if not (1 <= m <= MAX_ALICE_SETTINGS and 1 <= n <= 3):
        raise ValueError(f"correlation matrix must be at most {MAX_ALICE_SETTINGS}x3, got {m}x{n}")
    if not np.all(np.isfinite(m_mat)):
        raise ValueError("correlation entries must be finite")
    if np.abs(m_mat).max() > 1.0 + 1e-9:
        raise ValueError("correlation entries must lie in [-1, 1]")
    return m_mat


def lhs_gauge(matrix) -> float:
    """min sum_a |v_a| over decompositions M = sum_a a v_a^T.

    M admits a local-hidden-state model exactly when this is at most 1.
    The value returned is attained by an explicit decomposition.
    """
    _, v, _ = _optimal_decomposition(_validated(matrix))
    return float(_unit_rows(v)[0].sum())


def _feasible(m_mat, signs, lengths, units) -> MembershipVerdict:
    """Mixture certificate from the rows v_a = lengths_a * units_a of V."""
    keep = lengths > 0.0
    weights = list(lengths[keep] / max(lengths.sum(), 1.0))
    responses = list(signs[keep])
    blochs = list(units[keep])
    slack = 1.0 - sum(weights)
    if slack > 0.0:
        pole = np.eye(m_mat.shape[1])[0]
        weights += [slack / 2.0, slack / 2.0]
        responses += [signs[0], signs[0]]
        blochs += [pole, -pole]
    model = LhsModel(np.array(weights), np.array(responses), np.array(blochs))
    residual = float(np.abs(evaluate_lhs_model(model) - m_mat).sum())
    if residual > RESIDUAL_TOL:
        raise ArithmeticError(
            f"certificate residual {residual:.3e} exceeds tolerance {RESIDUAL_TOL:.3e}"
        )
    return MembershipVerdict(status=FEASIBLE, gap=residual, model=model)


def lhs_membership(matrix) -> MembershipVerdict:
    """Decide whether M admits a local-hidden-state model.

    Feasible when the gauge is at most 1 + BOUNDARY_MARGIN, with a mixture
    certificate; infeasible when the normalized dual functional scores
    above 1 + BOUNDARY_MARGIN on M, with the functional as certificate.

    Raises:
        ValueError: for a matrix with more than MAX_ALICE_SETTINGS rows or
            more than 3 columns, or with entries outside [-1, 1].
        ArithmeticError: when neither certificate holds.
    """
    m_mat = _validated(matrix)
    signs, v, u = _optimal_decomposition(m_mat)
    lengths, units = _unit_rows(v)
    primal = float(lengths.sum())
    if primal <= 1.0 + BOUNDARY_MARGIN:
        return _feasible(m_mat, signs, lengths, units)

    g = signs.T @ u / len(signs)
    support = _true_support(g)
    if support <= 1e-12:
        raise ArithmeticError("degenerate separator: zero support on the LHS set")
    g = g / support
    score = float(np.sum(g * m_mat))
    if score > 1.0 + BOUNDARY_MARGIN and score > _true_support(g) + BOUNDARY_MARGIN:
        g.setflags(write=False)
        return MembershipVerdict(status=INFEASIBLE, gap=score - 1.0, separator=g)
    raise ArithmeticError(
        f"membership undecided: the gauge lies in [{score:.12g}, {primal:.12g}], "
        f"within {BOUNDARY_MARGIN:g} of the boundary or unresolved"
    )
