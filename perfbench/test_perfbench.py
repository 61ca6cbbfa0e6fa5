"""Self-test of the benchmark: every workload at a tiny size.

Run from the checkout root::

    python3 -m pytest perfbench -q

It checks that each workload emits every metric ``BENCHMARK.json``
names, with that metric's unit, and that the correctness gates catch a
deliberately wrong all-reduce operand and a dropped live message.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import WORKLOADS, AtmClosCollectives, LiveLoopback  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _tiny(cls, inject=None):
    return cls(SEED, sizes=cls.TINY, inject=inject)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(name):
    units, metrics, _extra = run.measure(_tiny(WORKLOADS[name]), seconds=0.0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())
    assert all(unit.failed == 0 and not unit.failures for unit in units)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer_metrics_emitted_with_units(name):
    units, metrics, extra = run.trace(_tiny(WORKLOADS[name]), seconds=0.0)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert extra["ledger_failures"] == []
    # the profiler must not perturb what the program computes
    assert len({unit.digest for unit in units}) == 1
    if name == "live-loopback":
        assert metrics["sim.events"]["value"] == 0


def test_wrong_reduce_operand_is_caught():
    unit = _tiny(AtmClosCollectives, inject="operand").run_unit()
    assert unit.failed >= 1
    assert any("all_reduce" in failure for failure in unit.failures)


def test_dropped_live_message_is_caught():
    unit = _tiny(LiveLoopback, inject="drop").run_unit()
    assert unit.failed == 1
    assert any("stream" in failure for failure in unit.failures)


def test_identical_units_give_identical_digests():
    workload = _tiny(WORKLOADS["fe-lossy-am"])
    assert workload.run_unit().digest == workload.run_unit().digest


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fe-lossy-am",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
