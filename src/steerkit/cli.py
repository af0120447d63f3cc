"""Command-line interface.

Subcommands: predict (ideal-model parameters for a state and frames),
sweep (finite-statistics alpha sweep to CSV/JSON), lhs (membership
oracle with certificates), simulate (one finite-statistics run), and
reproduce (comparison table against the reference experiment).  Each
handler computes one result and returns its JSON payload and its text (or
CSV) rendering; main loads the config, emits one of the two and maps errors.
Each handler imports the layers it uses, so a run builds only those.

Exit codes: 0 success, 2 configuration error (an OSError or a ValueError),
3 numeric failure (an ArithmeticError, including a membership verdict that
neither certificate settles).  Any other exception is a fault and keeps its
traceback.  Angles are degrees at this surface; printed numbers carry 6
significant digits, JSON full precision.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING

import numpy as np

from .config import _config_array, _state_and_frames

if TYPE_CHECKING:
    from .lhs import MembershipVerdict

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
        "pairs_per_setting": 100000,
        "sys_angle_deg": 0.5,
        "seed": 7,
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
    # the defaults; a test holds them to simulate's and reproduce's constants
    "reproduce": {"pairs_per_setting": 100000, "seed": 1729},
}
# Every top-level key some subcommand reads.
_KNOWN_KEYS = frozenset().union(*EXAMPLE_CONFIGS.values())
# Each override flag, the config key it writes and its type.  A subcommand
# takes the flags whose key its example config holds.
_FLAGS = (
    ("--seed", "seed", int),
    ("--pairs", "pairs_per_setting", int),
    ("--sys-angle-deg", "sys_angle_deg", float),
)
# Each removed top-level key -> where its value now comes from.
_REMOVED_KEYS = {"phi_deg": "alice_frame.phi_deg", "inequalities": "inequalities_for"}


def _with_flags(config: dict, args) -> dict:
    """The config with each given override flag written over its key, the flag's dest."""
    return config | {k: v for k, v in vars(args).items() if k in _KNOWN_KEYS and v is not None}


def _load_config(args) -> dict:
    """The --config file's object; reproduce alone runs without one, on {}."""
    if args.config is None:
        if args.subcommand == "reproduce":
            return {}
        raise ValueError("this subcommand requires --config (see --example-config)")
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config root must be a JSON object")
    for key, home in _REMOVED_KEYS.items():
        if key in config:
            raise ValueError(f'config key "{key}" was removed; its value now comes from {home}')
    unknown = [f'"{key}"' for key in config if key not in _KNOWN_KEYS]
    if unknown:
        noun = "key" if len(unknown) == 1 else "keys"
        raise ValueError(f"no subcommand reads config {noun} {', '.join(unknown)}")
    return config


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


def cmd_predict(config: dict) -> tuple[dict, str]:
    from .steering import assess, inequalities_for, predicted_correlation

    state, alice, bob = _state_and_frames(config)
    t = state.t
    m = predicted_correlation(t, alice, bob)
    assessments = {tag: assess(m, tag) for tag in inequalities_for(alice.size)}
    payload = {"correlation": m.tolist(), "spin_correlation": t.tolist()}
    payload |= {tag: asdict(a) for tag, a in assessments.items()}
    lines = [
        f"correlation matrix ({alice.size} x {bob.size}):",
        _format_matrix(m),
        *(_assessment_line(a) for a in assessments.values()),
    ]
    return payload, "\n".join(lines)


def cmd_sweep(config: dict) -> tuple[list, str]:
    from .simulate import rows_to_csv, run_scenario

    rows = run_scenario(config)
    return [asdict(r) for r in rows], rows_to_csv(rows)


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


def cmd_lhs(config: dict) -> tuple[dict, None]:
    from .lhs import lhs_membership

    if "matrix" in config:
        others = ", ".join(f'"{k}"' for k in ("state", "alice_frame", "bob_frame") if k in config)
        if others:
            raise ValueError(f'lhs reads one matrix source; config key "matrix" excludes {others}')
        matrix = _config_array(config, "matrix")
    else:
        from .steering import predicted_correlation

        state, alice, bob = _state_and_frames(config)
        matrix = predicted_correlation(state.t, alice, bob)
    return _verdict_dict(lhs_membership(matrix)), None


def cmd_simulate(config: dict) -> tuple[dict, str]:
    from .simulate import _run_keys, simulate_run

    state, alice, bob = _state_and_frames(config)
    pairs, seed, sys_angle, n_resamples = _run_keys(config)
    counts, est, assessments = simulate_run(
        state, alice, bob, pairs, sys_angle, n_resamples, seed, (seed, 1)
    )

    payload = {
        "counts": counts.tolist(),
        "correlation": est.matrix.tolist(),
        "delta": est.delta.tolist(),
        "stat_component": est.stat_component.tolist(),
        "sys_component": est.sys_component.tolist(),
        "assessments": {tag: asdict(a) for tag, a in assessments.items()},
    }
    lines = [
        f"estimated correlation ({alice.size} x {bob.size}), {pairs} pairs per setting:",
        _format_matrix(est.matrix),
        "entry uncertainties:",
        _format_matrix(est.delta),
        *(_assessment_line(a) for a in assessments.values()),
    ]
    return payload, "\n".join(lines)


def cmd_reproduce(config: dict) -> tuple[list, str]:
    from .reproduce import DEFAULT_SEED, build_report, format_report
    from .simulate import _pairs_and_seed

    pairs, seed = _pairs_and_seed(config, DEFAULT_SEED)
    rows = build_report(pairs_per_setting=pairs, seed=seed)
    return [asdict(r) for r in rows], format_report(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerkit",
        description="Steering-inequality predictions, simulations, and membership checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, handler, help_text, formats in (
        ("predict", cmd_predict, "ideal-model steering parameters", ("text", "json")),
        ("sweep", cmd_sweep, "finite-statistics alpha sweep", ("csv", "json")),
        ("lhs", cmd_lhs, "local-hidden-state membership oracle", ("json",)),
        ("simulate", cmd_simulate, "one finite-statistics run", ("text", "json")),
        ("reproduce", cmd_reproduce, "comparison table against the reference experiment",
         ("text", "json")),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument(
            "--example-config", action="store_true",
            help="print a valid config template and exit",
        )
        for flag, key, type_ in _FLAGS:
            if key in EXAMPLE_CONFIGS[name]:
                p.add_argument(flag, type=type_, dest=key, help=f'override config key "{key}"')
        p.set_defaults(handler=handler)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.example_config:
        sys.stdout.write(json.dumps(EXAMPLE_CONFIGS[args.subcommand], indent=2) + "\n")
        return EXIT_OK
    try:
        payload, text = args.handler(_with_flags(_load_config(args), args))
        _emit(json.dumps(payload, indent=2) if args.format == "json" else text, args.out)
    except ArithmeticError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
