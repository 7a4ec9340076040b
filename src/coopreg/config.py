"""Scenario configs: a single human-writable JSON document.

Sections: leader, graphs, signal, followers, gains, observer, run.  Numeric
matrices are nested arrays.  Loading is strict: unknown keys, ragged
matrices, non-finite numbers (the NaN/Infinity literals Python's json
accepts) and inconsistent dimensions are rejected with the offending key
path, and a loaded scenario serializes back to an equivalent document
(floats survive the round trip exactly).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any

import numpy as np

from .observers import LeaderModel
from .regulation import PlantModel
from .simkit import (
    OBSERVER_MODES,
    AssumptionChecks,
    FollowerSpec,
    GainDirective,
    Scenario,
    Thresholds,
)
from .topology import SwitchingSignal, SwitchingTopology, WeightedDigraph

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """A config document failed schema validation; message names the key."""


@contextmanager
def _keyed(prefix: str):
    """Re-raise a ValueError from building one part of the document as a
    ConfigError whose message starts with ``prefix``, that part's key path.
    A ConfigError already names its key and passes through unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _require_keys(obj: Any, required: set[str], optional: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}: missing required key {key!r}")


def _finite(arr: np.ndarray, path: str) -> np.ndarray:
    finite = np.isfinite(arr)
    if not finite.all():
        bad = tuple(np.argwhere(~finite)[0])
        index = "".join(f"[{i}]" for i in bad)
        raise ConfigError(f"{path}{index}: expected a finite number, got {arr[bad]}")
    return arr


# the types json.load gives numbers; bool is not among them
_NUMBER_TYPES = frozenset((int, float))


def _matrix(obj: Any, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ConfigError(f"{path}: expected a matrix as a list of rows")
    width = len(obj[0])
    for k, row in enumerate(obj):
        if len(row) != width:
            raise ConfigError(
                f"{path}: ragged matrix, row {k} has {len(row)} entries, expected {width}"
            )
        # one set test per row; the per-entry loop only names the bad entry
        if not _NUMBER_TYPES.issuperset(map(type, row)):
            for c, val in enumerate(row):
                if not isinstance(val, (int, float)) or isinstance(val, bool):
                    raise ConfigError(f"{path}[{k}][{c}]: expected a number")
    return _finite(np.array(obj, dtype=float), path)


def _vector(obj: Any, path: str) -> np.ndarray:
    if not isinstance(obj, list) or any(
        not isinstance(v, (int, float)) or isinstance(v, bool) for v in obj
    ):
        raise ConfigError(f"{path}: expected a flat list of numbers")
    return _finite(np.array(obj, dtype=float), path)


def _positive_int(obj: Any, path: str, minimum: int = 1) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < minimum:
        raise ConfigError(f"{path}: expected an integer >= {minimum}")
    return obj


def _number(obj: Any, path: str) -> float:
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ConfigError(f"{path}: expected a number")
    if not math.isfinite(obj):
        raise ConfigError(f"{path}: expected a finite number, got {obj}")
    return float(obj)


def _flag(obj: Any, path: str) -> bool:
    if not isinstance(obj, bool):
        raise ConfigError(f"{path}: expected true or false, got {obj!r}")
    return obj


def _list(obj: Any, path: str, what: str) -> list:
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a list of {what}")
    return obj


def _parse_signal(obj: Any) -> SwitchingSignal:
    _require_keys(obj, set(), {"period", "segments", "table", "tail_mode"}, "signal")
    if ("segments" in obj) == ("table" in obj):
        raise ConfigError("signal: exactly one of 'segments' or 'table' is required")
    with _keyed("signal: "):
        if "segments" in obj:
            segs = obj["segments"]
            if not isinstance(segs, list) or not all(
                isinstance(s, list) and len(s) == 2 for s in segs
            ):
                raise ConfigError("signal.segments: expected a list of [mode, length] pairs")
            sig = SwitchingSignal.periodic(
                (_positive_int(m, f"signal.segments[{k}][0]"),
                 _positive_int(l, f"signal.segments[{k}][1]"))
                for k, (m, l) in enumerate(segs)
            )
            if "period" in obj and _positive_int(obj["period"], "signal.period") != sig.period:
                raise ConfigError(
                    f"signal.period: {obj['period']} does not match the segment "
                    f"lengths (sum {sig.period})"
                )
            return sig
        table = _list(obj["table"], "signal.table", "mode indices")
        tail = _positive_int(obj.get("tail_mode"), "signal.tail_mode")
        return SwitchingSignal.from_table(
            [_positive_int(m, f"signal.table[{k}]") for k, m in enumerate(table)], tail
        )


# the optional keys each gain method reads; any other key is an error
_GAIN_KEYS = {"user": {"K_x"}, "riccati": {"Q", "R"}}


def _parse_gain(obj: Any, path: str) -> GainDirective:
    _require_keys(obj, {"method"}, {"K_x", "Q", "R"}, path)
    method = obj["method"]
    if method not in _GAIN_KEYS:
        raise ConfigError(f"{path}.method: expected 'user' or 'riccati', got {method!r}")
    extra = sorted(obj.keys() - {"method"} - _GAIN_KEYS[method])
    if extra:
        raise ConfigError(f"{path}.{extra[0]}: not used by the {method!r} gain method")
    if method == "user":
        if "K_x" not in obj:
            raise ConfigError(f"{path}: user gain requires 'K_x'")
        return GainDirective(K_x=_matrix(obj["K_x"], f"{path}.K_x"))
    q = _matrix(obj["Q"], f"{path}.Q") if "Q" in obj else None
    r = _matrix(obj["R"], f"{path}.R") if "R" in obj else None
    return GainDirective(Q=q, R=r)


def _settings(cls: type, obj: Any, path: str):
    """``cls`` (``AssumptionChecks`` or ``Thresholds``) built from the keys
    ``obj`` gives, which are the dataclass's fields.  A field whose default
    is a bool takes true or false, one whose default is a float a finite
    number, and any other an integer >= 0."""
    defaults = {f.name: f.default for f in fields(cls)}
    _require_keys(obj, set(), set(defaults), path)

    def parse(key: str, value: Any):
        if isinstance(defaults[key], bool):
            return _flag(value, f"{path}.{key}")
        if isinstance(defaults[key], float):
            return _number(value, f"{path}.{key}")
        return _positive_int(value, f"{path}.{key}", 0)

    with _keyed("run."):
        return cls(**{key: parse(key, value) for key, value in obj.items()})


def config_to_scenario(doc: dict, name: str = "scenario") -> Scenario:
    """Validate a config document and build the Scenario it describes."""
    _require_keys(
        doc,
        {"version", "leader", "graphs", "signal", "followers", "gains", "observer", "run"},
        {"name"},
        "config",
    )
    if doc["version"] != CONFIG_VERSION:
        raise ConfigError(f"version: expected {CONFIG_VERSION}, got {doc['version']!r}")
    name = doc.get("name", name)

    _require_keys(doc["leader"], {"S", "v0"}, set(), "leader")
    with _keyed("leader: "):
        leader = LeaderModel(
            S=_matrix(doc["leader"]["S"], "leader.S"),
            v0=_vector(doc["leader"]["v0"], "leader.v0"),
        )

    if not isinstance(doc["graphs"], list) or not doc["graphs"]:
        raise ConfigError("graphs: expected a nonempty list of weight matrices")
    with _keyed("graphs/signal: "):
        graphs = tuple(
            WeightedDigraph(_matrix(g, f"graphs[{k}]"))
            for k, g in enumerate(doc["graphs"])
        )
        topology = SwitchingTopology(graphs=graphs, signal=_parse_signal(doc["signal"]))

    if not isinstance(doc["followers"], list):
        raise ConfigError("followers: expected a list")
    if not isinstance(doc["gains"], list):
        raise ConfigError("gains: expected a list")
    if len(doc["gains"]) != len(doc["followers"]):
        raise ConfigError(
            f"gains: {len(doc['gains'])} entries for {len(doc['followers'])} followers"
        )
    followers = []
    for k, (fobj, gobj) in enumerate(zip(doc["followers"], doc["gains"])):
        fpath = f"followers[{k}]"
        _require_keys(fobj, {"A", "B", "C", "D", "E", "F", "x0"}, set(), fpath)
        with _keyed(f"{fpath}: "):
            plant = PlantModel(
                **{key: _matrix(fobj[key], f"{fpath}.{key}") for key in "ABCDEF"}
            )
            followers.append(
                FollowerSpec(
                    plant=plant,
                    x0=_vector(fobj["x0"], f"{fpath}.x0"),
                    gain=_parse_gain(gobj, f"gains[{k}]"),
                )
            )

    _require_keys(doc["observer"], {"mode"}, {"eta0", "s0"}, "observer")
    mode = doc["observer"]["mode"]
    if mode not in OBSERVER_MODES:
        expected = " or ".join(map(repr, OBSERVER_MODES))
        raise ConfigError(f"observer.mode: expected {expected}, got {mode!r}")
    eta0 = None
    if "eta0" in doc["observer"]:
        eta0 = tuple(
            _vector(e, f"observer.eta0[{k}]")
            for k, e in enumerate(_list(doc["observer"]["eta0"], "observer.eta0", "vectors"))
        )
    s0 = None
    if "s0" in doc["observer"]:
        s0 = tuple(
            _matrix(s, f"observer.s0[{k}]")
            for k, s in enumerate(_list(doc["observer"]["s0"], "observer.s0", "matrices"))
        )

    run_obj = doc["run"]
    _require_keys(run_obj, {"horizon"}, {"checks", "thresholds", "regulator_tol"}, "run")
    horizon = _positive_int(run_obj["horizon"], "run.horizon", minimum=0)
    checks = _settings(AssumptionChecks, run_obj.get("checks", {}), "run.checks")
    thresholds = _settings(Thresholds, run_obj.get("thresholds", {}), "run.thresholds")
    tol = ({"regulator_tol": _number(run_obj["regulator_tol"], "run.regulator_tol")}
           if "regulator_tol" in run_obj else {})

    with _keyed(""):
        return Scenario(
            name=name,
            leader=leader,
            topology=topology,
            followers=tuple(followers),
            observer_mode=mode,
            eta0=eta0,
            s0=s0,
            horizon=horizon,
            checks=checks,
            thresholds=thresholds,
            **tol,
        )


def scenario_to_config(scenario: Scenario) -> dict:
    """Serialize a Scenario back into a config document."""
    sig = scenario.topology.signal
    if sig.is_periodic:
        signal: dict = {"period": sig.period, "segments": [[m, l] for m, l in sig.segments]}
    else:
        signal = {"table": list(sig.table), "tail_mode": sig.tail_mode}
    gains = []
    for f in scenario.followers:
        if f.gain.method == "user":
            gains.append({"method": "user", "K_x": f.gain.K_x.tolist()})
        else:
            entry: dict = {"method": "riccati"}
            if f.gain.Q is not None:
                entry["Q"] = f.gain.Q.tolist()
            if f.gain.R is not None:
                entry["R"] = f.gain.R.tolist()
            gains.append(entry)
    observer: dict = {"mode": scenario.observer_mode}
    if scenario.eta0 is not None:
        observer["eta0"] = [e.tolist() for e in scenario.eta0]
    if scenario.s0 is not None:
        observer["s0"] = [s.tolist() for s in scenario.s0]
    doc = {
        "version": CONFIG_VERSION,
        "name": scenario.name,
        "leader": {"S": scenario.leader.S.tolist(), "v0": scenario.leader.v0.tolist()},
        "graphs": [g.weights.tolist() for g in scenario.topology.graphs],
        "signal": signal,
        "followers": [
            {
                **{key: getattr(f.plant, key).tolist() for key in "ABCDEF"},
                "x0": f.x0.tolist(),
            }
            for f in scenario.followers
        ],
        "gains": gains,
        "observer": observer,
        "run": {
            "horizon": scenario.horizon,
            # an unset connectivity_horizon is left out, not written as null
            "checks": {key: value for key, value in asdict(scenario.checks).items()
                       if value is not None},
            "thresholds": asdict(scenario.thresholds),
            "regulator_tol": scenario.regulator_tol,
        },
    }
    return doc


def load_config(path: str | Path) -> Scenario:
    """Load and validate a scenario config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return config_to_scenario(doc, name=path.stem)


def save_config(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_config(scenario), indent=2) + "\n", encoding="utf-8"
    )
