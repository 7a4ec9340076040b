"""In-memory span tracing around coopreg's public functions.

Spans are recorded from the benchmark side only: each traced function is
replaced by a wrapper under every name it is bound to inside the coopreg
package (``from .x import y`` binds ``y`` at import time, so patching only
the defining module would miss most call sites), and under the values of
module-level dicts such as ``coopreg.properties.SUITES``.  A span keeps its
name, start, end and the index of its parent span.  Spans stay in memory
and are written out once, when the benchmark ends.

``LAYERS`` is the list of per-layer metrics.  A function a later version no
longer has or no longer calls still reports, with zero calls.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from pathlib import Path

SUITES = ("consensus", "lemma2", "lemma3", "lemma4", "kron", "equivalence")

# (module, function, reported stats)
LAYERS = (
    ("observers", "observer_step", ("s", "calls", "us_p50")),
    ("observers", "error_form_step", ("s", "calls")),
    ("observers", "fit_decay", ("s", "calls")),
    ("regulation", "control_input", ("s", "calls")),
    ("regulation", "plant_step", ("s", "calls")),
    ("regulation", "synthesize_stabilizing_gain", ("s", "calls")),
    ("regulation", "solve_regulator_equations", ("s", "calls")),
    ("simkit", "run", ("s", "self_s")),
    ("simkit", "validate_scenario", ("s",)),
    ("simkit", "synthesize_gains", ("s",)),
    ("simkit", "write_trajectory_csv", ("s", "bytes")),
    ("simkit", "write_report_json", ("s",)),
    ("config", "load_config", ("s",)),
    ("config", "scenario_to_config", ("s",)),
    ("cli", "main", ("s", "self_s")),
    ("topology", "is_jointly_connected", ("s", "calls")),
    ("topology", "transition_product", ("s", "calls")),
    ("topology", "consensus_step", ("s",)),
    *(("properties", f"{suite}_trial", ("s",)) for suite in SUITES),
)

OVERHEAD = "trace.overhead_s"
UNITS = {"s": "s", "self_s": "s", "calls": "count", "us_p50": "us", "bytes": "bytes"}
CSV_WRITER = "simkit.write_trajectory_csv"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{mod}.{fn}.{stat}": UNITS[stat] for mod, fn, stats in LAYERS for stat in stats}
    out[OVERHEAD] = "s"
    return out


class Tracer:
    """Span recorder; ``install`` patches coopreg, ``uninstall`` restores it."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn, _ in LAYERS]
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.csv_bytes = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = t0
                stack.pop()

        return traced

    def _count_csv_bytes(self, fn):
        @functools.wraps(fn)
        def counted(log, fh, *args, **kwargs):
            before = fh.tell()
            result = fn(log, fh, *args, **kwargs)
            self.csv_bytes += fh.tell() - before
            return result

        return counted

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "coopreg" or key.startswith("coopreg.")]
        for name_id, (mod_name, fn_name, _) in enumerate(LAYERS):
            original = getattr(sys.modules.get(f"coopreg.{mod_name}"), fn_name, None)
            if original is None:
                continue
            wrapped = original
            if self.names[name_id] == CSV_WRITER:
                wrapped = self._count_csv_bytes(wrapped)
            wrapped = self._wrap(name_id, wrapped)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
                    elif isinstance(value, dict):
                        for key, entry in list(value.items()):
                            if entry is original:
                                self._patch(value, key, wrapped)

    def _patch(self, target, key, wrapped) -> None:
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = wrapped
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def mark(self) -> int:
        """Index of the next span; delimits spans of one phase."""
        return len(self.start)

    def totals(self, lo: int, hi: int) -> tuple[dict, dict, dict, dict]:
        """Per-name total time, self time, call count and durations of spans [lo, hi)."""
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        durations: dict[str, list[float]] = {}
        child = [0.0] * (hi - lo)
        for k in range(hi - lo):
            idx = lo + k
            dur = self.end[idx] - self.start[idx]
            parent = self.parent[idx]
            if parent >= lo:
                child[parent - lo] += dur
        for k in range(hi - lo):
            idx = lo + k
            name = self.names[self.span_name[idx]]
            dur = self.end[idx] - self.start[idx]
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child[k]
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(dur)
        return total, self_s, calls, durations

    def write(self, path: Path) -> None:
        """Dump every span as tab-separated name, start, end, parent."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\n")
            for idx in range(len(self.start)):
                fh.write(f"{idx}\t{self.names[self.span_name[idx]]}\t"
                         f"{self.start[idx]!r}\t{self.end[idx]!r}\t{self.parent[idx]}\n")


def layer_metrics(tracer: Tracer, setup: tuple[int, int], passes: tuple[int, int],
                  n_passes: int) -> dict[str, float]:
    """Per-layer figures for one process: the traced set-up once plus one
    average pass of the traced timed loop (set-up writes no CSV)."""
    s_tot, s_self, s_calls, s_dur = tracer.totals(*setup)
    p_tot, p_self, p_calls, p_dur = tracer.totals(*passes)
    out: dict[str, float] = {}
    for mod, fn, stats in LAYERS:
        name = f"{mod}.{fn}"
        for stat in stats:
            if stat == "s":
                value = s_tot.get(name, 0.0) + p_tot.get(name, 0.0) / n_passes
            elif stat == "self_s":
                value = s_self.get(name, 0.0) + p_self.get(name, 0.0) / n_passes
            elif stat == "calls":
                value = s_calls.get(name, 0) + p_calls.get(name, 0) / n_passes
            elif stat == "bytes":
                value = tracer.csv_bytes / n_passes
            else:  # us_p50: per-call median over every traced call
                durs = s_dur.get(name, []) + p_dur.get(name, [])
                value = statistics.median(durs) * 1e6 if durs else 0.0
            out[f"{name}.{stat}"] = value
    return out
