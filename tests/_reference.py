"""Independent references for the steering predictions, and helpers only the tests call.

ris_predicted and nss_predicted evaluate the correlation matrix
M = A T B^T.  For orthonormal frames the projector forms here give the
same values: ||P_A T P_B||_tr, with the singular values of M, and
|P_B T^T a+| + |P_B T^T a-| with a+- = (a1 +- a2)/sqrt(2).  A frame's
projector is D^T D, D the frame's directions as rows, written out here
so that the references share no code with the routines they check.

min_nss_over_rotations returns the closed form ||P_A T P_B||_tr
(criterion 4).  The search here finds the same minimum without it: it
evaluates the two-setting parameter on a 0.5-degree grid over a quarter
turn of Alice's pair within its plane, then refines by golden-section
search to an interval of 1e-8.

The Werner closed forms are criterion 5's reference for the predictions
on pairs in two planes.  fidelity_with_pure, closest_werner_parameter,
outcome_probabilities, optimal_pair_planes and random_rotation are helpers
that no part of the package calls; their tests keep them here.  full_data
gives a state's (alpha, beta, M) on two frames, the arguments
simulate_counts draws from.

_optimal_decomposition below is the LHS oracle's earlier decomposition for
up to three Alice settings, kept as the reference for the oracle's one
null-space path: the closed form V0 = S M / K for m <= 2, and for m = 3 the
Fermat-Weber problem over the null vector z of S^T, solved by a vertex
test and else by smoothed Newton continuation.  Patched in for
steerkit.lhs._optimal_decomposition, it gives that oracle's verdicts.  It
enumerates its sign vectors and takes its row units itself, so that it
shares no code with the oracle it checks.

n_projective is the exact criterion for T-states (r_A = r_B = 0) under
every projective measurement of Alice's (Jevtic, Hall, Anderson, Zwierz &
Wiseman, JOSA B 32, A40 (2015)): steerable exactly when N(T) > 1.  It is
the oracle's independent ceiling at any m: lhs_gauge(A T B^T) <= N(T).
"""

import itertools
import math

import numpy as np
from numpy.typing import NDArray

from steerkit.frames import MeasurementFrame, unit
from steerkit.states import BlochState

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# The largest imaginary part fidelity_with_pure lets an overlap keep.
IMAG_RESIDUE_TOL = 1e-12

# Points of the Fermat-Weber problem closer than this, relative to the
# largest distance between them, are treated as one point.
COINCIDENT_TOL = 1e-12
# Smoothing levels eps of the Newton continuation, relative to that
# distance.  The solve at each level stops once |grad f_eps| falls below
# max(eps, GRADIENT_TOL), or after NEWTON_STEPS steps.
SMOOTHING_LEVELS = 10.0 ** -np.arange(1, 17)
GRADIENT_TOL = 1e-14
NEWTON_STEPS = 50
# A relative fall in f_eps past this is progress, not rounding.
ROUNDING = 8.0 * np.finfo(float).eps


def ris_by_projectors(t, alice: MeasurementFrame, bob: MeasurementFrame) -> float:
    """||P_A T P_B||_tr for orthonormal frames."""
    a, b = alice.directions, bob.directions
    p = a.T @ a @ np.asarray(t, dtype=float) @ b.T @ b
    return float(np.linalg.svd(p, compute_uv=False).sum())


def nss_by_projectors(t, alice: MeasurementFrame, bob: MeasurementFrame) -> float:
    """|P_B T^T a+| + |P_B T^T a-| for an orthonormal pair and frame."""
    t = np.asarray(t, dtype=float)
    a1, a2 = alice.directions
    a_plus = (a1 + a2) / math.sqrt(2.0)
    a_minus = (a1 - a2) / math.sqrt(2.0)
    p_b = bob.directions.T @ bob.directions
    return float(np.linalg.norm(p_b @ t.T @ a_plus) + np.linalg.norm(p_b @ t.T @ a_minus))


def min_nss_by_search(t, alice: MeasurementFrame, bob: MeasurementFrame) -> float:
    """Minimum of the two-setting parameter over rotations of Alice's pair in its plane.

    Alice's pair and Bob's frame must be orthonormal.
    """
    t = np.asarray(t, dtype=float)
    e1, e2 = alice.directions
    p_b = bob.directions.T @ bob.directions
    image1 = p_b @ t.T @ e1
    image2 = p_b @ t.T @ e2

    def objective(theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        # pair (a1, a2) at angle theta: sum directions (a1 +- a2)/sqrt(2)
        # are the same pair rotated by -45 degrees, so scanning theta over
        # a quarter turn covers every orientation of the +- pair.
        plus = c * image1 + s * image2
        minus = s * image1 - c * image2
        return float(np.linalg.norm(plus) + np.linalg.norm(minus))

    grid = np.deg2rad(np.arange(0.0, 90.0 + 0.25, 0.5))
    values = [objective(th) for th in grid]
    best = int(np.argmin(values))
    lo = grid[best] - np.deg2rad(0.5)
    hi = grid[best] + np.deg2rad(0.5)

    # Golden-section refinement on the bracketing interval.
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > 1e-8:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = objective(x2)
    return min(values[best], f1, f2)


def werner_ris_closed_form(w: float, phi: float) -> float:
    """Trace-norm parameter of a Werner state for pairs in planes at dihedral phi.

    W(1 + |cos phi|), independent of the in-plane angle alpha.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"werner weight must lie in [0, 1], got {w}")
    return w * (1.0 + abs(math.cos(phi)))


def werner_nss_closed_form(w: float, phi: float, alpha: float) -> float:
    """Two-setting parameter of a Werner state for pairs in planes at dihedral phi.

    W(sqrt(1 + cos^2 phi + sin 2a sin^2 phi) + sqrt(1 + cos^2 phi - sin 2a sin^2 phi))/sqrt(2);
    alpha is measured from the planes' intersection line.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"werner weight must lie in [0, 1], got {w}")
    c2 = math.cos(phi) ** 2
    s = math.sin(2.0 * alpha) * math.sin(phi) ** 2
    return w * (math.sqrt(1.0 + c2 + s) + math.sqrt(max(0.0, 1.0 + c2 - s))) / math.sqrt(2.0)


def _canonical_singular_vectors(u: np.ndarray, s: np.ndarray, vt: np.ndarray):
    """Deterministic ordering for (possibly degenerate) singular triplets.

    numpy's SVD already sorts by singular value; within groups of equal
    values the triplets are reordered lexicographically by the rounded
    left vector, and each vector's sign is fixed by its largest entry.
    """
    u = u.copy()
    vt = vt.copy()
    for i in range(len(s)):
        col = u[:, i]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0.0:
            u[:, i] = -col
            vt[i, :] = -vt[i, :]
    order = sorted(
        range(len(s)),
        key=lambda i: (-round(s[i], 12), tuple(np.round(u[:, i], 9))),
    )
    return u[:, order], s[order], vt[order, :]


def optimal_pair_planes(t: NDArray[np.float64]):
    """Plane pair maximizing the predicted trace-norm parameter.

    Returns (alice projector, bob projector, value): the spans of the top
    two left and right singular vectors of T, with value sigma_1 + sigma_2.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (3, 3):
        raise ValueError(f"expected a (3, 3) spin-correlation matrix, got shape {t.shape}")
    u, s, vt = np.linalg.svd(t)
    u, s, vt = _canonical_singular_vectors(u, s, vt)
    p_alice = np.outer(u[:, 0], u[:, 0]) + np.outer(u[:, 1], u[:, 1])
    p_bob = np.outer(vt[0], vt[0]) + np.outer(vt[1], vt[1])
    return p_alice, p_bob, float(s[0] + s[1])


def fidelity_with_pure(rho: NDArray[np.complex128], psi: NDArray[np.complex128]) -> float:
    """Overlap <psi| rho |psi> with a normalized pure state."""
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise ValueError(f"expected a 4-component ket, got shape {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"ket is not normalized: |psi| = {norm!r}")
    val = complex(psi.conj() @ rho @ psi)
    if abs(val.imag) > IMAG_RESIDUE_TOL:
        raise ValueError(f"fidelity has imaginary residue {val.imag:.2e}")
    return float(min(1.0, max(0.0, val.real)))


def closest_werner_parameter(fidelity: float) -> float:
    """Werner weight whose singlet fidelity matches the given value.

    Inverts F = (1 + 3w)/4.  This is a convenience for mapping a reported
    fidelity onto the isotropic-noise model; it is approximate for any
    state that is not actually Werner.
    """
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity}")
    return (4.0 * fidelity - 1.0) / 3.0


def outcome_probabilities(rho, a, b) -> np.ndarray:
    """Born probabilities (p++, p+-, p-+, p--) for spin measurements a, b.

    p(s, t) = (1 + s a.r_A + t b.r_B + s t a^T T b)/4 in the state's Bloch picture.
    """
    state = BlochState(rho)
    a, b = unit(a), unit(b)
    alpha, beta, corr = a @ state.r_a, b @ state.r_b, a @ state.t @ b
    return np.array([(1.0 + s * alpha + t * beta + s * t * corr) / 4.0
                     for s in (1.0, -1.0) for t in (1.0, -1.0)])


def random_rotation(seed) -> np.ndarray:
    """Haar-uniform rotation matrix from a uniform unit quaternion.

    Args:
        seed: anything numpy.random.default_rng accepts, or a Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def full_data(state: BlochState, alice: MeasurementFrame, bob: MeasurementFrame):
    """A state's (alpha, beta, M) on two frames, the data simulate_counts draws from."""
    a, b = alice.directions, bob.directions
    return a @ state.r_a, b @ state.r_b, a @ state.t @ b.T


def _unit_rows(x: np.ndarray):
    """Lengths and unit vectors of the rows of x; zero rows stay zero.

    math.hypot gives each length without overflow or underflow; each unit
    vector is taken from the row divided by its largest entry first.
    """
    lengths = np.array([math.hypot(*row) for row in x])
    units = np.zeros_like(x)
    for row, length, out in zip(x, lengths, units):
        if length > 0.0:
            scaled = row / np.abs(row).max()
            out[:] = scaled / math.hypot(*scaled)
    return lengths, units


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
    optimum.  A step that lowers f_eps by more than rounding is taken too:
    on nearly collinear points f_eps is nearly flat along the line, and a
    full Newton step there can lower f_eps while |grad f_eps| grows, so
    backtracking on the gradient alone crawls and stops short.
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
                if (size_new <= (1.0 - 1e-4 * alpha) * size
                        or s_new.sum() < (1.0 - ROUNDING) * s.sum()):
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
    # the 2^(m-1) sign vectors with first entry +1
    signs = np.array([(1.0, *rest) for rest in itertools.product((-1.0, 1.0), repeat=m - 1)])
    v = signs @ m_mat / len(signs)
    if m < 3:
        return signs, v, _unit_rows(v)[1]
    z = signs.prod(axis=1)  # (1, -1, -1, 1): S^T z = 0
    t, e = _fermat_weber(-z[:, None] * v)
    return signs, v + np.outer(z, t), z[:, None] * e


def _ellipse_perimeters(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integral of sqrt(a^2 cos^2 phi + b^2 sin^2 phi) over a full turn, 0 < a, 0 <= b <= a.

    The ellipse perimeter by the arithmetic-geometric mean: 2 pi (a^2 -
    sum_n 2^(n-1) c_n^2)/AGM(a, b), with c_0^2 = a^2 - b^2.  Below b = 1e-100 a,
    where the mean's products could underflow, it is 4a, which differs from
    the perimeter by O(b^2 log(a/b)).
    """
    x, y = a, b
    total = (a**2 - b**2) / 2.0
    weight = 0.5
    for _ in range(60):
        x, y, c = (x + y) / 2.0, np.sqrt(x * y), (x - y) / 2.0
        weight *= 2.0
        total = total + weight * c**2
    return np.where(b > 1e-100 * a, 2.0 * math.pi * (a**2 - total) / x, 4.0 * a)


def n_projective(t) -> float:
    """N(T) = (1/2 pi) times the integral of sqrt(n^T T T^T n) over unit vectors n.

    N depends on the singular values s_1 >= s_2 >= s_3 of T alone, and N(kT)
    = k N(T).  It is s_1 = max|c_i| exactly at rank 1, and else a 200-point
    Gauss-Legendre rule in the polar angle, about the axis of s_3, of the
    azimuthal integral in closed form.  A 400-point trapezoid rule in the
    azimuth lost ~1e-5 near rank 1, where the integrand has a kink: it put
    diag(1, 1e-3, -1e-3), whose N is 1.0000076, at 0.9999944.
    """
    s = np.linalg.svd(np.asarray(t, dtype=float), compute_uv=False)
    if s[1] == 0.0:
        return float(s[0])
    x, w = np.polynomial.legendre.leggauss(200)
    theta = (x + 1.0) * math.pi / 2.0
    sin, cos = np.sin(theta), np.cos(theta)
    ratios = s / s[0]
    a = np.hypot(sin, ratios[2] * cos)
    b = np.hypot(ratios[1] * sin, ratios[2] * cos)
    return float(s[0] * (w @ (sin * _ellipse_perimeters(a, b)))) / 4.0
