"""Command-line front end.

Commands:
  validate       run the assumption checks of a scenario config
  run            simulate a scenario and export trajectory/report/manifest
  props          run a named randomized property suite
  list-builtins  show the bundled scenario names

Exit code 0 means every requested check, threshold, or trial passed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import platform
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, load_config, scenario_to_config
from .properties import SUITES, run_suite
from .regulation import GainSynthesisError, RegulatorUnsolvableError
from .scenarios import BUILTIN_SUMMARIES, BUILTINS, build_builtin
from .simkit import (
    FEEDFORWARD,
    OBSERVER_MODES,
    OverflowAbort,
    Scenario,
    analyze,
    report_to_dict,
    run,
    validate_scenario,
    write_report_json,
    write_trajectory_csv,
)


def _resolve_scenario(args) -> Scenario:
    """The scenario the flags name, with --horizon, --mode and --tol applied
    by one ``dataclasses.replace`` whichever the source.  A ValueError from
    building or overriding it (a negative --horizon or --seed, a non-finite
    --tol) is a ConfigError, so the command exits 2 with its message."""
    from dataclasses import replace

    mode, seed = getattr(args, "mode", None), getattr(args, "seed", None)
    try:
        if args.builtin is not None:
            if args.config is not None:
                raise ConfigError("pass either a config path or --builtin, not both")
            scenario = build_builtin(args.builtin, seed)
        else:
            if args.config is None:
                raise ConfigError("a config path or --builtin NAME is required")
            if seed is not None:
                raise ConfigError("--seed applies only to --builtin")
            scenario = load_config(args.config)
        overrides = {key: value for key, value in (("horizon", getattr(args, "horizon", None)),
                                                   ("observer_mode", mode),
                                                   ("regulator_tol", args.tol))
                     if value is not None}
        if mode == "distributed":
            overrides["s0"] = None
        if overrides:
            scenario = replace(scenario, **overrides)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return scenario


def cmd_validate(args) -> int:
    scenario = _resolve_scenario(args)
    results = validate_scenario(scenario)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def _config_hash(scenario: Scenario) -> str:
    canonical = json.dumps(scenario_to_config(scenario), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@contextmanager
def _stage(timings: dict[str, float], name: str):
    """Record the wall time of the enclosed block under ``name``."""
    started = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - started


def cmd_run(args) -> int:
    scenario = _resolve_scenario(args)
    timings: dict[str, float] = {}
    with _stage(timings, "prepare"):
        checks = validate_scenario(scenario)
    failed = [c for c in checks if not c.passed]
    if failed and not args.force:
        for c in failed:
            print(f"[FAIL] {c.name}: {c.detail}")
        print("validation failed; rerun with --force to simulate anyway")
        return 1
    try:
        with _stage(timings, "run"):
            log = run(scenario)
    except OverflowAbort as exc:
        print(f"aborted: {exc}")
        return 1
    except (RegulatorUnsolvableError, GainSynthesisError) as exc:
        print(f"synthesis failed: {exc}")
        return 1
    with _stage(timings, "analyze"):
        report = analyze(log, scenario.thresholds, checks)

    out_dir = Path(args.out)
    csv_path = out_dir / "trajectory.csv"
    report_path = out_dir / "report.json"
    manifest_path = out_dir / "manifest.json"
    try:
        with _stage(timings, "export"):
            out_dir.mkdir(parents=True, exist_ok=True)
            with csv_path.open("w", encoding="utf-8", newline="") as fh:
                write_trajectory_csv(log, fh)
            report_dict = report_to_dict(
                report, scenario.name, scenario.observer_mode, scenario.horizon
            )
            with report_path.open("w", encoding="utf-8") as fh:
                write_report_json(report_dict, fh)
        manifest = {
            "config_sha256": _config_hash(scenario),
            "toolkit_version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "scenario": scenario.name,
            "feedforward": FEEDFORWARD,
            "outputs": {
                "trajectory_csv": str(csv_path),
                "report_json": str(report_path),
            },
            "checks_summary": {
                "passed": sum(1 for c in checks if c.passed),
                "failed": sum(1 for c in checks if not c.passed),
            },
            "converged": report.converged,
            # export covers the trajectory CSV and the report, not this manifest
            "timings_s": timings,
            "versions": {"python": platform.python_version(), "numpy": np.__version__},
        }
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1

    for s in report.series:
        rate = "n/a" if s.fit.rate != s.fit.rate else f"{s.fit.rate:.4f}"
        status = "PASS" if s.converged else "FAIL"
        print(f"[{status}] {s.name}: final {s.final:.3e}, rate {rate} ({s.note})")
    print(
        f"simulated {scenario.horizon} steps in {timings['run']:.3f} s; "
        f"outputs in {out_dir}"
    )
    if failed:
        print("note: ran with --force past failed validation checks")
    return 0 if report.converged and not failed else 1


def cmd_props(args) -> int:
    if args.trials < 0 or args.seed < 0:
        print(f"--trials and --seed must be >= 0, got {args.trials} and {args.seed}")
        return 2
    results = run_suite(args.suite, args.trials, args.seed)
    if not results:
        print(f"warning: 0 trials requested for suite {args.suite}; vacuous pass")
        return 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] trial {r.index:3d}: {r.detail}")
    n_pass = sum(1 for r in results if r.passed)
    print(f"suite {args.suite}: {n_pass}/{len(results)} trials passed")
    return 0 if n_pass == len(results) else 1


def cmd_list_builtins(_args) -> int:
    for name in sorted(BUILTINS):
        print(f"{name:18s} {BUILTIN_SUMMARIES[name]}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="coopreg",
        description="Simulate leader-follower coordination over switching networks.",
    )
    parser.add_argument("--version", action="version", version=f"coopreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p, with_run_flags: bool):
        p.add_argument("config", nargs="?", default=None, help="scenario config path")
        p.add_argument("--builtin", default=None, metavar="NAME",
                       help="use a bundled scenario instead of a config file")
        if with_run_flags:
            p.add_argument("--horizon", type=int, default=None)
            p.add_argument("--mode", choices=OBSERVER_MODES, default=None,
                           help="override the observer mode")
            p.add_argument("--seed", type=int, default=None,
                           help="with --builtin, randomize unspecified initial "
                                "conditions reproducibly")
        p.add_argument("--tol", type=float, default=None,
                       help="override the regulator solver tolerance")

    p_val = sub.add_parser("validate", help="run assumption checks on a scenario")
    add_scenario_args(p_val, with_run_flags=False)
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="simulate a scenario and export results")
    add_scenario_args(p_run, with_run_flags=True)
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument("--force", action="store_true",
                       help="simulate even if validation checks fail")
    p_run.set_defaults(func=cmd_run)

    p_props = sub.add_parser("props", help="run a randomized property suite")
    p_props.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}")
    p_props.add_argument("--trials", type=int, default=20)
    p_props.add_argument("--seed", type=int, default=0)
    p_props.set_defaults(func=cmd_props)

    p_list = sub.add_parser("list-builtins", help="list bundled scenario names")
    p_list.set_defaults(func=cmd_list_builtins)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
