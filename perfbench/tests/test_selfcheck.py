"""Self-check of the benchmark, at tiny input sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["end_to_end"] if trace == "0" else BENCH["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for name in ("setup_s", "wall_s", "agent_steps_per_s", "trials_per_s",
                     "peak_rss_mb", "fail_ratio"):
            assert name in out.stdout


def test_per_layer_list_matches_tracer():
    assert [m["name"] for m in BENCH["per_layer"]] == list(tracing.metric_units())


def test_nan_config_counts_as_failure(tmp_path):
    params = inputs.write_configs("formation", tmp_path / "inputs", seed=5, tiny=True)
    configs = [Path(p) for p in params["files"]]
    doc = json.loads(configs[0].read_text(encoding="utf-8"))
    doc["followers"][0]["x0"][0] = math.nan
    configs[0].write_text(json.dumps(doc, indent=2), encoding="utf-8")
    formation = workloads.Formation(configs, tmp_path / "out")
    loop = workloads.timed_loop(formation, seconds=0)
    assert loop.attempted == len(configs)
    assert len(loop.failures) == 1
    assert loop.failures[0].startswith(configs[0].name)


def test_inputs_follow_the_seed(tmp_path):
    def files(seed, name):
        params = inputs.write_configs("swarm", tmp_path / name, seed=seed, tiny=True)
        return [Path(p).read_bytes() for p in params["files"]]

    assert files(1, "a") == files(1, "b")
    assert files(1, "a") != files(2, "c")


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "props", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
