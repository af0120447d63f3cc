"""Two-qubit states and their spin-correlation structure.

Density matrices are plain complex (4, 4) arrays over the product basis
{HH, HV, VH, VV} with Alice's qubit first; H is the +1 eigenstate of the
third Pauli operator.  The functions here build the reference states,
check physicality (validate_state returns the checked state's Hermitian
part or raises), and extract the Bloch data: the 3x3 spin-correlation
matrix T_pq = Tr[rho (sigma_p x sigma_q)] and the local Bloch vectors, all
read from one expectation table.  Past this module a state is a BlochState,
checked once when it is built; no density matrix travels on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import _config_array, _config_float, _spec_keys

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = -1e-10

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
# (I, sigma_x, sigma_y, sigma_z) stacked along the first axis.
_PAULI_BASIS = np.stack((np.eye(2, dtype=complex),) + PAULI)

SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def singlet_state() -> np.ndarray:
    """Complex density matrix of the two-qubit singlet (HV - VH)/sqrt(2)."""
    return np.outer(SINGLET_KET, SINGLET_KET.conj())


def werner_state(w: float) -> np.ndarray:
    """Singlet mixed with white noise: w * singlet + (1 - w) * I/4, a complex matrix.

    Args:
        w: singlet weight in [0, 1].
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"werner weight must lie in [0, 1], got {w}")
    return w * singlet_state() + (1.0 - w) * np.eye(4, dtype=complex) / 4.0


def validate_state(rho: np.ndarray) -> np.ndarray:
    """rho's complex Hermitian part (rho + rho^H)/2, once rho passes the physicality checks.

    rho must be Hermitian within HERMITICITY_TOL, of unit trace within
    TRACE_TOL, and its Hermitian part's eigenvalues at least EIGENVALUE_TOL.
    For an exactly Hermitian rho the returned array equals rho bit for bit.

    Raises:
        ValueError: on a wrong shape, a non-finite entry, or a matrix that
            is not a physical two-qubit state.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a (4, 4) matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix entries must be finite")
    herm = float(np.abs(rho - rho.conj().T).max())
    trace_dev = float(abs(rho.trace() - 1.0))
    hermitian = (rho + rho.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(hermitian).min())
    if herm > HERMITICITY_TOL or trace_dev > TRACE_TOL or not min_eig >= EIGENVALUE_TOL:
        raise ValueError(
            "not a physical two-qubit state: "
            f"hermiticity residual {herm:.2e}, "
            f"trace deviation {trace_dev:.2e}, "
            f"min eigenvalue {min_eig:.2e}"
        )
    return hermitian


@dataclass(frozen=True, init=False, eq=False)
class BlochState:
    """A two-qubit state in the Bloch picture, validated once when built from rho.

    table is the read-only real table E_pq = Tr[rho (sigma_p x sigma_q)],
    p, q in 0..3, sigma_0 = I: E_00 = 1, r_A and r_B in its first column
    and row, T in the lower-right 3x3 block, read from the Hermitian part
    validate_state returns; their imaginary rounding residue is dropped.
    """

    table: np.ndarray

    def __init__(self, rho: np.ndarray):
        rho = validate_state(rho)
        # Tr[rho (A x B)] = sum rho[(i,k),(j,l)] A[j,i] B[l,k]
        table = np.einsum("ikjl,pji,qlk->pq", rho.reshape(2, 2, 2, 2), _PAULI_BASIS, _PAULI_BASIS)
        table = table.real
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def t(self) -> np.ndarray:
        """Spin-correlation matrix T_pq = Tr[rho (sigma_p x sigma_q)]."""
        return self.table[1:, 1:]

    @property
    def r_a(self) -> np.ndarray:
        """Alice's Bloch vector <sigma_p x I>."""
        return self.table[1:, 0]

    @property
    def r_b(self) -> np.ndarray:
        """Bob's Bloch vector <I x sigma_q>."""
        return self.table[0, 1:]


def spin_correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """Real spin-correlation matrix T_pq = Tr[rho (sigma_p x sigma_q)] of a density matrix."""
    return BlochState(rho).t


def state_from_spec(spec: dict) -> np.ndarray:
    """Build a complex density matrix from a config mapping.

    Supported forms:
        {"kind": "werner", "W": 0.985}
        {"kind": "matrix", "re": [[...4x4...]], "im": [[...4x4...]]}
    The "im" block is optional and defaults to zero.  A key the spec's
    kind does not read raises.  A matrix spec's physicality is not checked
    here: BlochState validates the matrix when it is built, once.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"state spec must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "werner":
        _spec_keys(spec, "werner state", ("kind", "W"), ("W",))
        return werner_state(_config_float(spec, "W"))
    if kind == "matrix":
        _spec_keys(spec, "matrix state", ("kind", "re", "im"), ("re",))
        re = _config_array(spec, "re")
        im = _config_array(spec, "im", np.zeros((4, 4)))
        if re.shape != (4, 4) or im.shape != (4, 4):
            raise ValueError("matrix state spec entries must be 4x4")
        rho = re.astype(complex)
        # set, not multiplied by 1j: an infinite entry then raises no numpy
        # warning before BlochState rejects it
        rho.imag = im
        return rho
    raise ValueError(f"unknown state kind {kind!r}")
