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
V0 = S M / K is one decomposition:

- m = 1, 2: S is square and V0 is the only decomposition.  For m = 2
  the gauge is the two-setting parameter divided by sqrt(2).
- m = 3: every decomposition is V0 + z t^T with z = (1, -1, -1, 1) the
  null vector of S^T, and the gauge is the Fermat-Weber problem
  min_t sum_k |t - p_k| over the four points p_k = -z_k V0_k (Weiszfeld
  1937; Vardi & Zhang, PNAS 97, 1423, 2000).

Verdicts are certified either way.  A feasible verdict carries the
mixture of atoms (a, v_a/|v_a|) with weights |v_a|, plus a zero-mean pair
that takes up the slack, and its reconstruction residual is re-checked.
An infeasible verdict carries the dual functional G = S^T U / K built
from the unit directions u_a of the v_a, scaled so that its exact support
max_a |G^T a| over the LHS set is 1, and it is issued only when <G, M>
clears that support.  A matrix that neither certificate settles raises
instead of guessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

# A feasible certificate must reproduce M within this L1 residual.
RESIDUAL_TOL = 1e-7
# Both verdicts must clear the gauge's boundary value 1 by this margin:
# mixtures of unit Bob vectors sit exactly on it, and rounding moves them
# by a few ulps either way.
BOUNDARY_MARGIN = 1e-9
# Points of the Fermat-Weber problem closer than this, relative to the
# largest distance between them, are treated as one point.
COINCIDENT_TOL = 1e-12
# Smoothing levels eps of the Newton continuation, relative to that
# distance.  The solve at each level stops once |grad f_eps| falls below
# max(eps, GRADIENT_TOL), or after NEWTON_STEPS steps.
SMOOTHING_LEVELS = 10.0 ** -np.arange(1, 17)
GRADIENT_TOL = 1e-14
NEWTON_STEPS = 50

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


def alice_sign_vectors(m: int) -> np.ndarray:
    """All 2^m deterministic +-1 response vectors, in a fixed order."""
    if not 1 <= m <= 3:
        raise ValueError(f"alice setting count must be 1 to 3, got {m}")
    return np.array(list(itertools.product((-1.0, 1.0), repeat=m)))


@dataclass(frozen=True)
class LhsModel:
    """Explicit local-hidden-state mixture.

    bob_blochs holds full 3-vectors under the convention that Bob's k-th
    measurement direction is the k-th coordinate axis; when his setting
    space has fewer than three dimensions the trailing components are 0.
    """

    weights: NDArray[np.float64]
    alice_responses: NDArray[np.float64]
    bob_blochs: NDArray[np.float64]
    n_settings: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        a = np.asarray(self.alice_responses, dtype=float)
        s = np.asarray(self.bob_blochs, dtype=float)
        if w.ndim != 1 or a.ndim != 2 or s.ndim != 2:
            raise ValueError("model arrays have wrong dimensionality")
        if not (len(w) == len(a) == len(s)):
            raise ValueError("model arrays must share the leading length")
        if s.shape[1] != 3:
            raise ValueError("bob_blochs must be 3-vectors")
        if np.any(w < -1e-12):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        if np.any(np.abs(a) > 1.0 + 1e-9):
            raise ValueError("alice responses must lie in [-1, 1]")
        if np.any(np.linalg.norm(s, axis=1) > 1.0 + 1e-9):
            raise ValueError("bob bloch vectors must lie in the unit ball")
        if not 1 <= self.n_settings <= 3:
            raise ValueError(f"n_settings must be 1 to 3, got {self.n_settings}")
        for arr in (w, a, s):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "alice_responses", a)
        object.__setattr__(self, "bob_blochs", s)


def evaluate_lhs_model(model: LhsModel, bob_directions=None) -> np.ndarray:
    """Correlation matrix generated by a hidden-state mixture.

    M_jk = sum_i w_i * a_ij * (s_i . b_k).  By default Bob's directions
    are the first n_settings coordinate axes, matching how lhs_membership
    stores certificates.
    """
    if bob_directions is None:
        b = np.eye(3)[: model.n_settings]
    else:
        b = np.asarray(bob_directions, dtype=float)
        if b.ndim != 2 or b.shape[1] != 3:
            raise ValueError(f"bob directions must be (n, 3), got shape {b.shape}")
    projected = model.bob_blochs @ b.T
    return np.einsum("i,ij,ik->jk", model.weights, model.alice_responses, projected)


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

    max over a in {-1,+1}^m, |c| <= 1 of <G, a c^T> = max_a |G^T a|.
    """
    signs = alice_sign_vectors(g.shape[0])
    return float(np.linalg.norm(signs @ g, axis=1).max())


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


def _unit_directions(points: np.ndarray, t: np.ndarray):
    """Unit vectors e_k = (t - p_k)/|t - p_k|, completed at the points near t.

    The near points are those within COINCIDENT_TOL of t, and always the
    closest one.  Their directions are set to -r/c, where r sums the other
    directions and c counts the near points, so that sum_k e_k = 0: a
    subgradient of sum_k |t - p_k| at t.  They are shortened to -r/|r|
    when that would exceed unit length.  Completing at the closest point
    keeps the directions accurate when t lies close to a point, where
    (t - p_k)/|t - p_k| is sensitive to small errors in t.  Returns the
    directions and whether t is optimal, |r| <= c up to COINCIDENT_TOL.
    """
    dist, e = _unit_rows(t - points)
    is_near = dist <= COINCIDENT_TOL
    is_near[np.argmin(dist)] = True
    r = e[~is_near].sum(axis=0)
    r_norm = float(np.linalg.norm(r))
    count = int(is_near.sum())
    e[is_near] = -r / max(count, r_norm)
    return e, r_norm <= count * (1.0 + COINCIDENT_TOL)


def _smoothed_gradient(points: np.ndarray, t: np.ndarray, eps: float):
    """Offsets t - p_k, smoothed distances s_k and the gradient sum_k (t - p_k)/s_k."""
    d = t - points
    s = np.sqrt(np.einsum("ki,ki->k", d, d) + eps * eps)
    return d, s, (d / s[:, None]).sum(axis=0)


def _smoothed_newton(points: np.ndarray) -> np.ndarray:
    """Minimizer of sum_k |t - p_k| by Newton continuation, for unit spread.

    Solves grad f_eps(t) = 0 for f_eps(t) = sum_k sqrt(|t - p_k|^2 + eps^2),
    with eps falling from 1e-1 to 1e-16 and each solve warm started from
    the last.  The smoothing keeps the Hessian positive definite when the
    optimum lies at or near a point, where plain Weiszfeld iteration
    stalls.  Steps backtrack on |grad f_eps|, which, unlike f_eps itself,
    still resolves progress once t is within sqrt(machine epsilon) of the
    optimum.
    """
    t = points.mean(axis=0)
    eye = np.eye(points.shape[1])
    for eps in SMOOTHING_LEVELS:
        d, s, grad = _smoothed_gradient(points, t, eps)
        size = float(np.linalg.norm(grad))
        for _ in range(NEWTON_STEPS):
            if size <= max(GRADIENT_TOL, eps):
                break
            hess = eye * (1.0 / s).sum() - np.einsum("k,ki,kj->ij", s**-3, d, d)
            step = np.linalg.solve(hess, grad)
            alpha = 1.0
            while alpha > 1e-12:
                trial = t - alpha * step
                d_new, s_new, grad_new = _smoothed_gradient(points, trial, eps)
                size_new = float(np.linalg.norm(grad_new))
                if size_new <= (1.0 - 1e-4 * alpha) * size:
                    break
                alpha *= 0.5
            else:
                break
            t, d, s, grad, size = trial, d_new, s_new, grad_new, size_new
    return t


def _fermat_weber(points: np.ndarray):
    """Minimizer t of sum_k |t - p_k| and the unit directions at it.

    The points are shifted and scaled to unit spread first.  A vertex p_j
    is optimal exactly when the other points' unit directions sum to at
    most the number of points coincident with p_j; this settles n = 1,
    where the optimum is a median.  Otherwise the optimum is found by
    smoothed Newton continuation.
    """
    origin = points[0]
    spread = _unit_rows((points[:, None] - points[None]).reshape(-1, points.shape[1]))[0].max()
    if spread == 0.0:
        return origin, np.zeros_like(points)
    q = (points - origin) / spread
    for vertex in q:
        e, optimal = _unit_directions(q, vertex)
        if optimal:
            return origin + spread * vertex, e
    t = _smoothed_newton(q)
    return origin + spread * t, _unit_directions(q, t)[0]


def _optimal_decomposition(m_mat: np.ndarray):
    """Sign vectors S, a minimizing V with M = S^T V, and dual directions U.

    Rows of U are unit vectors along the rows of V (a subgradient where a
    row vanishes), so that G = S^T U / K satisfies <G, M> = sum_a |v_a|
    at the optimum.
    """
    m = m_mat.shape[0]
    signs = alice_sign_vectors(m)[2 ** (m - 1):]
    v = signs @ m_mat / len(signs)
    if m < 3:
        return signs, v, _unit_rows(v)[1]
    z = signs.prod(axis=1)  # (1, -1, -1, 1): S^T z = 0
    t, e = _fermat_weber(-z[:, None] * v)
    return signs, v + np.outer(z, t), z[:, None] * e


def _validated(matrix) -> np.ndarray:
    m_mat = np.asarray(matrix, dtype=float)
    if m_mat.ndim != 2:
        raise ValueError(f"expected a 2-d correlation matrix, got shape {m_mat.shape}")
    m, n = m_mat.shape
    if not (1 <= m <= 3 and 1 <= n <= 3):
        raise ValueError(f"correlation matrix must be at most 3x3, got {m}x{n}")
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
    n = m_mat.shape[1]
    keep = lengths > 0.0
    weights = list(lengths[keep] / max(lengths.sum(), 1.0))
    responses = list(signs[keep])
    blochs = list(np.pad(units[keep], ((0, 0), (0, 3 - n))))
    slack = 1.0 - sum(weights)
    if slack > 0.0:
        pole = np.eye(3)[0]
        weights += [slack / 2.0, slack / 2.0]
        responses += [signs[0], signs[0]]
        blochs += [pole, -pole]
    model = LhsModel(np.array(weights), np.array(responses), np.array(blochs), n_settings=n)
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
        ValueError: for a matrix that is not at most 3x3 with entries in
            [-1, 1].
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
