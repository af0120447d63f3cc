import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from steerkit import states
from steerkit.config import _state_and_frames
from steerkit.states import (
    SINGLET_KET,
    BlochState,
    singlet_state,
    spin_correlation_matrix,
    state_from_spec,
    validate_state,
    werner_state,
)

from _reference import closest_werner_parameter, fidelity_with_pure

DATA = Path(__file__).parent / "data"


class TestStateConstruction:
    def test_singlet_is_physical_and_pure(self):
        rho = singlet_state()
        validate_state(rho)
        assert_allclose(rho @ rho, rho, atol=1e-14)

    def test_werner_is_physical_across_range(self):
        for w in np.linspace(0.0, 1.0, 11):
            validate_state(werner_state(w))

    def test_werner_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            werner_state(1.01)
        with pytest.raises(ValueError):
            werner_state(-0.01)

    def test_werner_endpoints(self):
        assert_allclose(werner_state(1.0), singlet_state(), atol=1e-15)
        assert_allclose(werner_state(0.0), np.eye(4) / 4.0, atol=1e-15)


class TestValidateState:
    def test_flags_nonhermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.1
        with pytest.raises(ValueError, match="hermiticity residual 1.00e-01"):
            validate_state(rho)

    def test_flags_wrong_trace(self):
        with pytest.raises(ValueError, match="trace deviation 1.00e[+]00"):
            validate_state(np.eye(4, dtype=complex) / 2.0)

    def test_flags_negative_eigenvalue(self):
        rho = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="min eigenvalue -1.00e-01"):
            validate_state(rho)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            validate_state(np.eye(3, dtype=complex) / 3.0)

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_rejects_non_finite_entry(self, entry):
        # inf - inf in the hermiticity residual warned before the exit-2 error
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 0] = entry
        with pytest.raises(ValueError, match="must be finite"):
            validate_state(rho)

    def test_returns_a_hermitian_state_bit_for_bit(self):
        # (x + x)/2 = x, so the goldens keep their bytes
        rhos = [werner_state(w) for w in (0.0, 1.0 / 3.0, 0.5, 0.9, 0.984, 0.985, 1.0)]
        for path in ("matrix_state.json", "eigenvalue_edge_state.json"):
            rhos.append(state_from_spec(json.loads((DATA / path).read_text())["state"]))
        for rho in rhos:
            assert validate_state(rho).tobytes() == rho.tobytes()

    def test_returns_the_hermitian_part(self):
        # W(0.9) + 4e-13 i diag(1, 1, -1, -1), within the hermiticity tolerance
        spec = json.loads((DATA / "hermiticity_edge_state.json").read_text())["state"]
        rho = state_from_spec(spec)
        assert np.abs(rho.imag).max() == 4e-13
        assert np.array_equal(validate_state(rho), (rho + rho.conj().T) / 2.0)
        assert not validate_state(rho).imag.any()


class TestCorrelationStructure:
    def test_singlet_correlation_is_minus_identity(self):
        assert_allclose(spin_correlation_matrix(singlet_state()), -np.eye(3), atol=1e-14)

    def test_werner_correlation_scales_linearly(self):
        for w in (0.0, 0.3, 0.7, 1.0):
            assert_allclose(
                spin_correlation_matrix(werner_state(w)), -w * np.eye(3), atol=1e-14
            )

    def test_werner_marginals_vanish(self):
        state = BlochState(werner_state(0.8))
        assert_allclose(state.r_a, np.zeros(3), atol=1e-14)
        assert_allclose(state.r_b, np.zeros(3), atol=1e-14)

    def test_product_state_marginals(self):
        up = np.array([1.0, 0.0], dtype=complex)
        ket = np.kron(up, up)
        rho = np.outer(ket, ket.conj())
        state = BlochState(rho)
        assert_allclose(state.r_a, [0.0, 0.0, 1.0], atol=1e-14)
        assert_allclose(state.r_b, [0.0, 0.0, 1.0], atol=1e-14)

    def test_unphysical_input_raises(self):
        with pytest.raises(ValueError):
            spin_correlation_matrix(np.eye(4, dtype=complex))
        with pytest.raises(ValueError, match="not a physical two-qubit state"):
            BlochState(np.eye(4, dtype=complex))

    def test_matches_kronecker_traces_on_random_states(self):
        # Independent reference: Tr[rho (sigma_p x sigma_q)] with explicit
        # Kronecker products, sigma_0 = I.
        sigma = [
            np.eye(2),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.array([[0.0, -1.0j], [1.0j, 0.0]]),
            np.array([[1.0, 0.0], [0.0, -1.0]]),
        ]
        rng = np.random.default_rng(89)
        for _ in range(100):
            g = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            ref = np.array([
                [np.trace(rho @ np.kron(sigma[p], sigma[q])).real for q in range(4)]
                for p in range(4)
            ])
            state = BlochState(rho)
            assert_allclose(state.t, ref[1:, 1:], rtol=0.0, atol=1e-14)
            assert_allclose(state.r_a, ref[1:, 0], rtol=0.0, atol=1e-14)
            assert_allclose(state.r_b, ref[0, 1:], rtol=0.0, atol=1e-14)
            assert np.array_equal(spin_correlation_matrix(rho), state.t)


class TestBlochState:
    def test_table_is_read_only(self):
        state = BlochState(werner_state(0.7))
        for view in (state.table, state.t, state.r_a, state.r_b):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0.5
        with pytest.raises(AttributeError):
            state.table = np.eye(4)
        assert_allclose(state.t, -0.7 * np.eye(3), atol=1e-14)


class TestFidelity:
    def test_werner_singlet_fidelity(self):
        for w in (0.0, 0.5, 0.984):
            f = fidelity_with_pure(werner_state(w), SINGLET_KET)
            assert_allclose(f, (1.0 + 3.0 * w) / 4.0, atol=1e-14)

    def test_closest_werner_inverts_fidelity(self):
        for w in (0.0, 0.25, 0.913, 1.0):
            f = (1.0 + 3.0 * w) / 4.0
            assert_allclose(closest_werner_parameter(f), w, atol=1e-14)

    def test_rejects_unnormalized_ket(self):
        with pytest.raises(ValueError):
            fidelity_with_pure(singlet_state(), 2.0 * SINGLET_KET)

    def test_rejects_out_of_range_fidelity(self):
        with pytest.raises(ValueError):
            closest_werner_parameter(1.2)


class TestStateFromSpec:
    def test_werner_spec(self):
        assert_allclose(
            state_from_spec({"kind": "werner", "W": 0.7}), werner_state(0.7), atol=1e-15
        )

    def test_matrix_spec_round_trip(self):
        rho = werner_state(0.6)
        spec = {"kind": "matrix", "re": rho.real.tolist(), "im": rho.imag.tolist()}
        assert_allclose(state_from_spec(spec), rho, atol=1e-15)

    def test_matrix_spec_defaults_imaginary_to_zero(self):
        rho = werner_state(0.5)
        assert_allclose(
            state_from_spec({"kind": "matrix", "re": rho.real.tolist()}), rho, atol=1e-15
        )

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            state_from_spec({"kind": "bell"})

    def test_rejects_missing_weight(self):
        with pytest.raises(ValueError):
            state_from_spec({"kind": "werner"})

    def test_rejects_unphysical_matrix(self):
        # state_from_spec leaves the check to BlochState, which makes it once
        with pytest.raises(ValueError, match="not a physical two-qubit state"):
            BlochState(state_from_spec({"kind": "matrix", "re": np.eye(4).tolist()}))

    def test_config_matrix_state_is_validated_once(self, monkeypatch):
        # state_from_spec checked a matrix spec, and BlochState checked it again
        calls = []
        original = states.validate_state

        def counting(rho):
            calls.append(1)
            return original(rho)

        monkeypatch.setattr(states, "validate_state", counting)
        config = {
            "state": {"kind": "matrix", "re": werner_state(0.5).real.tolist()},
            "alice_frame": {"kind": "named", "name": "standard_triad"},
            "bob_frame": {"kind": "named", "name": "standard_triad"},
        }
        _state_and_frames(config)
        assert len(calls) == 1

    def test_rejects_matrix_without_real_part(self):
        with pytest.raises(ValueError, match='requires key "re"'):
            state_from_spec({"kind": "matrix", "im": np.zeros((4, 4)).tolist()})

    @pytest.mark.parametrize("key, block", [
        ("re", np.eye(3) / 3.0),
        ("im", np.zeros((4, 3))),
    ], ids=["re-3x3", "im-4x3"])
    def test_rejects_matrix_not_4x4(self, key, block):
        spec = {"kind": "matrix", "re": werner_state(0.5).real.tolist()} | {key: block.tolist()}
        with pytest.raises(ValueError, match="must be 4x4"):
            state_from_spec(spec)

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "werner", "W": 0.7, "re": [[1.0]]}, "re"),
        ({"kind": "matrix", "re": np.eye(4).tolist(), "W": 0.7}, "W"),
    ], ids=["werner-re", "matrix-W"])
    def test_rejects_key_its_kind_does_not_read(self, spec, key):
        message = f'{spec["kind"]} state spec does not read key "{key}"'
        with pytest.raises(ValueError, match=message):
            state_from_spec(spec)
