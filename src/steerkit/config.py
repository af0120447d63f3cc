"""Checked readers of config keys.

Each reader returns config[key], or the default when the key is absent,
and raises a ValueError naming the key when the value has the wrong type,
is not finite or lies out of range.  The spec readers in frames and
states and the subcommands in simulate and cli read every scalar key
through them, and every array key through _config_array.
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


def _config_float(config: dict, key: str, default=None, minimum: float = -math.inf) -> float:
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        max(minimum, -sys.float_info.max) <= value <= sys.float_info.max
    ):
        bound = "" if minimum == -math.inf else f" >= {minimum:g}"
        raise ValueError(f'config key "{key}" must be a finite number{bound}, got {value!r}')
    return float(value)


def _config_array(config: dict, key: str, default=None) -> np.ndarray:
    """config[key] as a float array; its entries' finiteness and shape are the caller's to check."""
    value = config.get(key, default)
    try:
        return np.asarray(value, dtype=float)
    except (OverflowError, TypeError, ValueError):
        raise ValueError(
            f'config key "{key}" must be an array of numbers in the float range, got {value!r}'
        ) from None
