"""Checked readers of config keys.

Each reader returns config[key], or the default when the key is absent,
and raises a ValueError naming the key when the value has the wrong type,
is not finite or lies out of range.  The spec readers in frames and
states and the subcommands in simulate and cli read every scalar key
through them, and every array key through _config_array.  _spec_keys
rejects a key a spec's kind does not read, then a required key it lacks.
_state_and_frames is the one reader of the state and frame specs.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np


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


def _is_real(value) -> bool:
    """A real number and not a bool: the type rule of every numeric config value."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _config_float(
    config: dict, key: str, default=None, minimum: float = -math.inf, maximum: float = math.inf
) -> float:
    value = config.get(key, default)
    if not _is_real(value) or not (
        max(minimum, -sys.float_info.max) <= value <= min(maximum, sys.float_info.max)
    ):
        bound = "" if minimum == -math.inf else f" >= {minimum:g}"
        bound = bound if maximum == math.inf else f" in [{minimum:g}, {maximum:g}]"
        raise ValueError(f'config key "{key}" must be a finite number{bound}, got {value!r}')
    return float(value)


def _all_real(value) -> bool:
    """Whether value is _is_real, or a nested list, tuple or numeric array of such values."""
    if isinstance(value, (list, tuple)):
        # the exact-type test spares the common float entry the slower ABC check
        return all(type(v) is float or _all_real(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    return _is_real(value)


def _config_array(config: dict, key: str, default=None) -> np.ndarray:
    """config[key] as a rectangular float array whose every entry is _is_real.

    The entries' finiteness and the array's shape are the caller's to check.
    """
    value = config.get(key, default)
    if _all_real(value):
        try:
            return np.asarray(value, dtype=float)
        except (OverflowError, ValueError):  # an int past the float range, or ragged rows
            pass
    raise ValueError(
        f'config key "{key}" must be an array of numbers in the float range, got {value!r}'
    )


def _spec_keys(spec: dict, kind: str, keys: tuple, required: tuple = ()) -> None:
    """Raise naming the first key of spec not in keys, else the first of required it lacks."""
    for key in spec:
        if key not in keys:
            raise ValueError(
                f'{kind} spec does not read key "{key}"; it reads '
                + ", ".join(f'"{k}"' for k in keys)
            )
    for key in required:
        if key not in spec:
            raise ValueError(f'{kind} spec requires key "{key}"')


def _state_and_frames(config: dict):
    """The config's state as a BlochState, and Alice's and Bob's frames.

    An error in a spec names its config key.  Bob's frame must be
    orthonormal.  The layers load here, not at import, so that a caller
    that reads no spec does not build them.
    """
    from .frames import frame_from_spec, require_orthonormal
    from .states import BlochState, state_from_spec

    def read(key, reader):
        if key not in config:
            raise ValueError(f'config requires key "{key}"')
        try:
            return reader(config[key])
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    state = read("state", lambda spec: BlochState(state_from_spec(spec)))
    alice = read("alice_frame", frame_from_spec)
    bob = read("bob_frame", frame_from_spec)
    require_orthonormal(bob, "bob_frame")
    return state, alice, bob
