"""The three workloads and the correctness gate.

Each workload is a closed loop: its items run back to back in one process,
and the next starts only when the previous one has finished.  Every item
is timed on its own; the gate judges it right after, outside the timer.
The gate does not trust ``report.converged``: it reads the outputs back and
recomputes what it needs.

``sys.path`` must already hold the coopreg sources to be measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import coopreg.cli as cli
import coopreg.config as config
import coopreg.simkit as simkit

from inputs import THRESHOLD_FINAL
from tracing import SUITES

PROPS_TRIALS = 30
PROPS_TRIALS_TINY = 3


@dataclass
class Outcome:
    """What one item returned, kept until the gate has judged it."""

    code: int = 0
    stdout: str = ""
    checks: list | None = None
    log: object = None


class Formation:
    """``coopreg run <config> --out <dir>`` through ``cli.main``, per config."""

    def __init__(self, configs: list[Path], out_root: Path):
        self.items = list(configs)
        self.out_root = out_root
        self.shape = {}
        for path in self.items:
            doc = json.loads(path.read_text(encoding="utf-8"))
            self.shape[path] = (len(doc["followers"]), doc["run"]["horizon"])
        self.agent_steps = sum(n * (h + 1) for n, h in self.shape.values())
        self.trials = 0

    def out_dir(self, item: Path) -> Path:
        return self.out_root / item.stem

    def run(self, item: Path, out: Path | None = None) -> Outcome:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["run", str(item), "--out", str(out or self.out_dir(item))])
        return Outcome(code=code, stdout=buf.getvalue())

    def check(self, item: Path, outcome: Outcome) -> list[str]:
        if outcome.code != 0:
            return [f"exit code {outcome.code}"]
        out = self.out_dir(item)
        problems = []
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if not report["checks"] or not all(c["passed"] for c in report["checks"]):
            problems.append("a validation check failed")
        with (out / "trajectory.csv").open(encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        n, horizon = self.shape[item]
        final = _final_errors(header, rows[-1])
        if rows.shape != (horizon + 1, len(header)) or len(final) != n:
            problems.append(f"trajectory has {rows.shape} values for {n} followers")
        if not np.isfinite(rows).all():
            problems.append("non-finite value in trajectory.csv")
        if not max(final, default=np.nan) < THRESHOLD_FINAL:
            problems.append(f"final regulated error {max(final, default=np.nan):.3e}")
        return problems

    def rerun_identical(self, work: Path) -> list[str]:
        """Re-run the first item and require a byte-identical CSV."""
        item = self.items[0]
        out = work / "rerun"
        outcome = self.run(item, out)
        if outcome.code != 0:
            return [f"re-run exit code {outcome.code}"]
        first = (self.out_dir(item) / "trajectory.csv").read_bytes()
        if (out / "trajectory.csv").read_bytes() != first:
            return ["re-run CSV differs from the timed run"]
        return []


def _final_errors(header: list[str], row: np.ndarray) -> list[float]:
    """Norm of each follower's regulated error e_k_* in one CSV row."""
    per: dict[str, list[float]] = {}
    for col, value in zip(header, row):
        m = re.fullmatch(r"e_(\d+)_\d+", col)
        if m:
            per.setdefault(m.group(1), []).append(float(value))
    return [float(np.linalg.norm(v)) for v in per.values()]


class Swarm:
    """validate -> run -> analyze -> report JSON through the Python API."""

    def __init__(self, configs: list[Path], out_root: Path):
        out_root.mkdir(parents=True, exist_ok=True)
        self.out_root = out_root
        self.items = [config.load_config(path) for path in configs]
        self.agent_steps = sum(sc.n_followers * (sc.horizon + 1) for sc in self.items)
        self.trials = 0

    def run(self, scenario) -> Outcome:
        checks = simkit.validate_scenario(scenario)
        log = simkit.run(scenario)
        report = simkit.analyze(log, scenario.thresholds, checks)
        doc = simkit.report_to_dict(report, scenario.name, scenario.observer_mode,
                                    scenario.horizon)
        with (self.out_root / f"{scenario.name}.json").open("w", encoding="utf-8") as fh:
            simkit.write_report_json(doc, fh)
        return Outcome(checks=checks, log=log)

    def check(self, scenario, outcome: Outcome) -> list[str]:
        problems = []
        if not outcome.checks or not all(c.passed for c in outcome.checks):
            problems.append("a validation check failed")
        log = outcome.log
        series = [log.v, log.eta, log.eta_tilde_norm, log.e_norms, *log.x, *log.u, *log.e]
        if log.s_est is not None:
            series += [log.s_est, log.s_tilde_norm]
        if not all(np.isfinite(a).all() for a in series):
            problems.append("non-finite value in the trajectory log")
        final = max(float(np.linalg.norm(e[-1])) for e in log.e)
        if not final < THRESHOLD_FINAL:
            problems.append(f"final regulated error {final:.3e}")
        return problems


class Props:
    """``coopreg props <suite> --trials T --seed S`` through ``cli.main``."""

    agent_steps = 0

    def __init__(self, seed: int, trials: int):
        self.seed = seed
        self.trials_per_suite = trials
        self.items = list(SUITES)
        self.trials = trials * len(self.items)

    def run(self, suite: str) -> Outcome:
        buf = io.StringIO()
        argv = ["props", suite, "--trials", str(self.trials_per_suite),
                "--seed", str(self.seed)]
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return Outcome(code=code, stdout=buf.getvalue())

    def check(self, suite: str, outcome: Outcome) -> list[str]:
        t = self.trials_per_suite
        lines = outcome.stdout.splitlines()
        passed = sum(1 for line in lines if line.startswith("[PASS] trial"))
        problems = []
        if outcome.code != 0:
            problems.append(f"exit code {outcome.code}")
        if passed != t or f"suite {suite}: {t}/{t} trials passed" not in lines:
            problems.append(f"{passed}/{t} trials passed")
        return problems


@dataclass
class LoopResult:
    """Per-item times of the passes run in one timed loop."""

    times: list[list[float]]
    passes: int
    attempted: int
    failures: list[str]  # one entry per failed item run


def timed_loop(workload, seconds: float) -> LoopResult:
    """Run whole passes over the items until the next pass would end after
    ``seconds``; at least one pass."""
    times: list[list[float]] = [[] for _ in workload.items]
    failures: list[str] = []
    attempted = passes = 0
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for k, item in enumerate(workload.items):
            t0 = time.perf_counter()
            try:
                outcome, error = workload.run(item), None
            except Exception as exc:  # a raising item fails; the loop goes on
                outcome, error = None, exc
            times[k].append(time.perf_counter() - t0)
            attempted += 1
            problems = workload.check(item, outcome) if error is None else [f"raised {error!r}"]
            if problems:
                failures.append(f"{_label(item)}: {'; '.join(problems)}")
        passes += 1
        now = time.perf_counter()
        if now + (now - pass_start) - started > seconds:
            return LoopResult(times, passes, attempted, failures)


def _label(item) -> str:
    return getattr(item, "name", str(item))
