"""Command-line interface.

Subcommands: predict (ideal-model parameters for a state and frames),
sweep (finite-statistics alpha sweep to CSV/JSON), lhs (membership
oracle with certificates), simulate (one finite-statistics run), and
reproduce (comparison table against the reference experiment).

Exit codes: 0 success, 2 configuration error, 3 numeric failure (including
a membership verdict that neither certificate settles).  Angles are
degrees at this surface; printed numbers carry 6 significant digits, JSON
full precision.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .config import _config_float, _config_int
from .frames import frame_from_spec, require_orthonormal
from .lhs import MembershipVerdict, lhs_membership
from .reproduce import DEFAULT_SEED, build_report, format_report, report_to_dicts
from .simulate import (
    DEFAULT_PAIRS_PER_SETTING,
    DEFAULT_RESAMPLES,
    MAX_PAIRS_PER_SETTING,
    MAX_RESAMPLES,
    SourceModel,
    assess_estimate,
    estimate_correlation,
    rows_to_csv,
    rows_to_dicts,
    run_scenario,
    simulate_counts,
)
from .states import spin_correlation_matrix, state_from_spec
from .steering import assess_nss, assess_ris, predicted_correlation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

EXAMPLE_CONFIGS = {
    "predict": {
        "state": {"kind": "werner", "W": 0.984},
        "alice_frame": {"kind": "named", "name": "standard_triad"},
        "bob_frame": {"kind": "named", "name": "standard_triad"},
    },
    "sweep": {
        "state": {"kind": "werner", "W": 0.985},
        "alice_frame": {"kind": "pair", "normal": [0.0, 1.0, 0.0], "phi_deg": 0.0},
        "bob_frame": {"kind": "pair", "normal": [0.0, 1.0, 0.0], "alpha_deg": 0.0},
        "sweep": {"alpha_deg": [0, 10, 20, 30, 40, 45, 50, 60, 70, 80, 90]},
        "phi_deg": 0.0,
        "pairs_per_setting": 100000,
        "sys_angle_deg": 0.5,
        "seed": 7,
        "inequalities": ["ris", "nss"],
        "drift_sigma": 0.0,
        "n_resamples": 200,
    },
    "lhs": {"matrix": [[-0.8, 0.0], [0.0, -0.8]]},
    "simulate": {
        "state": {"kind": "werner", "W": 0.984},
        "alice_frame": {"kind": "named", "name": "standard_triad"},
        "bob_frame": {"kind": "named", "name": "standard_triad"},
        "pairs_per_setting": 100000,
        "sys_angle_deg": 0.5,
        "seed": 7,
        "n_resamples": 200,
    },
    "reproduce": {"pairs_per_setting": 100000, "seed": DEFAULT_SEED},
}


def _config_value(config: dict, key: str):
    if key not in config:
        raise ValueError(f'config requires key "{key}"')
    return config[key]


def _config_matrix(value) -> np.ndarray:
    """The lhs config's "matrix": a rectangular nested list of numbers."""
    try:
        matrix = np.asarray(value)
    except ValueError:  # ragged rows
        matrix = np.asarray(None)
    if matrix.dtype.kind not in "iuf":
        raise ValueError(
            f'config key "matrix" must be a rectangular array of numbers, got {value!r}'
        )
    return matrix.astype(float)


def _with_flags(config: dict, args) -> dict:
    """The config with each given override flag written over its key, the flag's dest."""
    keys = ("pairs_per_setting", "seed", "sys_angle_deg")
    return config | {k: v for k, v in vars(args).items() if k in keys and v is not None}


def _load_config(path: str | None) -> dict:
    if path is None:
        raise ValueError("this subcommand requires --config (see --example-config)")
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config root must be a JSON object")
    return config


def _state_and_frames(config: dict):
    """The config's state and frames; Bob's frame must be orthonormal."""
    rho = state_from_spec(_config_value(config, "state"))
    alice = frame_from_spec(_config_value(config, "alice_frame"))
    bob = frame_from_spec(_config_value(config, "bob_frame"))
    require_orthonormal(bob, "bob_frame")
    return rho, alice, bob


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _format_matrix(m: np.ndarray) -> str:
    return "\n".join("  " + "  ".join(f"{x: .6g}" for x in row) for row in np.atleast_2d(m))


def _assessment_line(a) -> str:
    value = f"{a.parameter:.6g}"
    if a.uncertainty is not None:
        value += f" +- {a.uncertainty:.3g}"
    flag = "violated" if a.violated else "not violated"
    return f"{a.inequality}: parameter {value}, bound {a.bound:.6g}, margin {a.margin:.6g}, {flag}"


def cmd_predict(args) -> int:
    config = _load_config(args.config)
    rho, alice, bob = _state_and_frames(config)
    t = spin_correlation_matrix(rho)
    m = predicted_correlation(t, alice, bob)
    ris = assess_ris(m)
    nss = assess_nss(m) if alice.size == 2 else None

    if args.format == "json":
        payload = {
            "correlation": m.tolist(),
            "spin_correlation": t.tolist(),
            "ris": asdict(ris),
        }
        if nss is not None:
            payload["nss"] = asdict(nss)
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"correlation matrix ({alice.size} x {bob.size}):", _format_matrix(m)]
        lines.append(_assessment_line(ris))
        if nss is not None:
            lines.append(_assessment_line(nss))
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    rows = run_scenario(_with_flags(_load_config(args.config), args))
    if args.format == "json":
        _emit(json.dumps(rows_to_dicts(rows), indent=2), args.out)
    else:
        _emit(rows_to_csv(rows), args.out)
    return EXIT_OK


def _verdict_dict(verdict: MembershipVerdict) -> dict:
    payload: dict = {"status": verdict.status, "gap": verdict.gap}
    if verdict.model is not None:
        payload["model"] = {
            "n_settings": verdict.model.n_settings,
            "atoms": [
                {
                    "weight": float(w),
                    "alice_response": a.tolist(),
                    "bob_bloch": s.tolist(),
                }
                for w, a, s in zip(
                    verdict.model.weights,
                    verdict.model.alice_responses,
                    verdict.model.bob_blochs,
                )
            ],
        }
    if verdict.separator is not None:
        payload["separator"] = verdict.separator.tolist()
    return payload


def cmd_lhs(args) -> int:
    config = _load_config(args.config)
    if "matrix" in config:
        matrix = _config_matrix(config["matrix"])
    else:
        rho, alice, bob = _state_and_frames(config)
        matrix = predicted_correlation(spin_correlation_matrix(rho), alice, bob)
    verdict = lhs_membership(matrix)
    _emit(json.dumps(_verdict_dict(verdict), indent=2), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _with_flags(_load_config(args.config), args)
    rho, alice, bob = _state_and_frames(config)
    pairs = _config_int(
        config, "pairs_per_setting", DEFAULT_PAIRS_PER_SETTING, 1, MAX_PAIRS_PER_SETTING
    )
    seed = _config_int(config, "seed", 0, 0)
    sys_angle_deg = _config_float(config, "sys_angle_deg", 0.5, 0.0)
    n_resamples = _config_int(config, "n_resamples", DEFAULT_RESAMPLES, 2, MAX_RESAMPLES)

    record = simulate_counts(SourceModel.from_state(rho, pairs), alice, bob, seed)
    est = estimate_correlation(record, math.radians(sys_angle_deg))

    assessments = {"ris": assess_estimate(est, "ris", n_resamples, seed=(seed, 1))}
    if alice.size == 2:
        assessments["nss"] = assess_estimate(est, "nss", n_resamples, seed=(seed, 2))

    if args.format == "json":
        payload = {
            "counts": record.counts.tolist(),
            "correlation": est.matrix.tolist(),
            "delta": est.delta.tolist(),
            "stat_component": est.stat_component.tolist(),
            "sys_component": est.sys_component.tolist(),
            "assessments": {tag: asdict(a) for tag, a in assessments.items()},
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [
            f"estimated correlation ({alice.size} x {bob.size}), "
            f"{pairs} pairs per setting:",
            _format_matrix(est.matrix),
            "entry uncertainties:",
            _format_matrix(est.delta),
            *(_assessment_line(a) for a in assessments.values()),
        ]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    config = _with_flags({} if args.config is None else _load_config(args.config), args)
    pairs = _config_int(
        config, "pairs_per_setting", DEFAULT_PAIRS_PER_SETTING, 1, MAX_PAIRS_PER_SETTING
    )
    seed = _config_int(config, "seed", DEFAULT_SEED, 0)
    rows = build_report(pairs_per_setting=pairs, seed=seed)
    if args.format == "json":
        _emit(json.dumps(report_to_dicts(rows), indent=2), args.out)
    else:
        _emit(format_report(rows), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerkit",
        description="Steering-inequality predictions, simulations, and membership checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, formats, default_format):
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument(
            "--example-config", action="store_true",
            help="print a valid config template and exit",
        )

    p = sub.add_parser("predict", help="ideal-model steering parameters")
    add_common(p, ("text", "json"), "text")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("sweep", help="finite-statistics alpha sweep")
    add_common(p, ("csv", "json"), "csv")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--pairs", type=int, dest="pairs_per_setting", help="override pairs_per_setting")
    p.add_argument("--sys-angle-deg", type=float, help="override the systematic tilt angle")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("lhs", help="local-hidden-state membership oracle")
    add_common(p, ("json",), "json")
    p.set_defaults(handler=cmd_lhs)

    p = sub.add_parser("simulate", help="one finite-statistics run")
    add_common(p, ("text", "json"), "text")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--pairs", type=int, dest="pairs_per_setting", help="override pairs_per_setting")
    p.add_argument("--sys-angle-deg", type=float, help="override the systematic tilt angle")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("reproduce", help="comparison table against the reference experiment")
    add_common(p, ("text", "json"), "text")
    p.add_argument("--seed", type=int, help="simulation seed")
    p.add_argument("--pairs", type=int, dest="pairs_per_setting", help="override pairs_per_setting")
    p.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.example_config:
        sys.stdout.write(json.dumps(EXAMPLE_CONFIGS[args.subcommand], indent=2) + "\n")
        return EXIT_OK
    try:
        return args.handler(args)
    except ArithmeticError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
