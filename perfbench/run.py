"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload atm-clos-collectives --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up runs several
times first, then whole units of the workload repeat until ``--seconds``
of wall time have passed, and every timed piece is scaled to a
reference machine speed (see ``calibrate.py``).  ``--trace 1`` runs one unit untraced and then
units under the stdlib profiler for ``--seconds``, and reports the
per-layer ledger instead.  Every unit's outputs are checked; the last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  A fuller record (provenance, per-unit digests, the
hottest functions) is written to ``.perfbench_out/``.

At the default seed the digest of the simulated outputs must match
``perfbench/golden.json``; ``--update-golden`` rewrites that record
instead of checking it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = ROOT / ".perfbench_out"
#: AF_UNIX socket files live here, relative to the checkout root so the
#: socket paths stay short
TMP_DIR = ".perfbench_tmp"
DEFAULT_SEED = 1


def _import_program() -> None:
    """Put the checkout's ``src`` on the path, or stop without a result."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}; "
                         f"run from the root of a full checkout")
    sys.path.insert(0, str(src))


def _with_units(values: Dict[str, float], section: str) -> Dict[str, dict]:
    """Attach to each value the unit ``BENCHMARK.json`` declares for it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile, q in 0..100; 0 when a broken run left
    no samples (its failures already make the result incorrect)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# --------------------------------------------------------------- provenance
def _git_commit() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed: int, seconds: float, trace: bool) -> dict:
    return {"workload": workload.name, "seed": seed, "sizes": workload.sizes,
            "seconds": seconds, "trace": trace, "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": _git_commit()}


# ------------------------------------------------------------------- checks
def _check_digests(workload, units, seed: int, update_golden: bool) -> List[str]:
    """Identical inputs must give identical outputs; at the default seed
    and size they must also match the golden record."""
    failures = []
    digests = {unit.digest for unit in units}
    if len(digests) != 1:
        failures.append(f"determinism: {len(digests)} different digests "
                        f"from {len(units)} identical units")
    if seed != DEFAULT_SEED or workload.sizes != workload.SIZES:
        return failures
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    digest = units[0].digest
    if update_golden:
        golden[workload.name] = {"seed": seed, "digest": digest}
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    elif golden.get(workload.name, {}).get("digest") != digest:
        failures.append(f"golden: simulated-output digest {digest[:16]} does not "
                        f"match the record in {GOLDEN.name}")
    return failures


def _run_units(run_unit, seconds: float, after=lambda: None) -> list:
    """Whole units until ``seconds`` of wall time have passed (at least one)."""
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        gc.collect()
        units.append(run_unit())
        after()
    return units


# ---------------------------------------------------------------- end to end
def _figures(setups: List[float], chunks: list) -> Dict[str, float]:
    samples = [s for chunk in chunks for s in chunk.samples_us]
    return {"setup_s": statistics.median(setups),
            "ops_per_s": sum(c.ops for c in chunks) / sum(c.host_s for c in chunks),
            "rtt_p50_us": percentile(samples, 50),
            "rtt_p99_us": percentile(samples, 99)}


def measure(workload, seconds: float) -> tuple:
    """Set-up several times, then units for ``seconds``, with the
    calibration kernel timed between every two timed pieces."""
    from calibrate import Calibrator

    cal = Calibrator()
    cal.tick()
    raw_setups, setups = [], []
    for _ in range(workload.setup_reps):
        gc.collect()
        raw_setups.append(workload.setup_once())
        cal.tick()
        setups.append(raw_setups[-1] / cal.factor(len(cal.ticks) - 2))
    first_gap = len(cal.ticks) - 1
    units = _run_units(lambda: workload.run_unit(cal.tick), seconds, after=cal.tick)
    raw_chunks = [chunk for unit in units for chunk in unit.chunks]
    chunks = []
    for gap, chunk in enumerate(raw_chunks, start=first_gap):
        factor = cal.factor(gap)
        chunks.append(chunk._replace(host_s=chunk.host_s / factor,
                                     samples_us=[s / factor for s in chunk.samples_us]))
    values = _figures(setups, chunks)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the tail swings too much between runs on a shared machine to carry
    # a bound; the traced run reports it as a per-layer figure
    rtt_p99_us = values.pop("rtt_p99_us")
    metrics = _with_units(values, "end_to_end")
    extra = {"rtt_p99_us": rtt_p99_us, "uncalibrated": _figures(raw_setups, raw_chunks),
             "calibration_s": cal.ticks, "setup_samples_s": setups,
             "latency_samples": sum(len(c.samples_us) for c in chunks)}
    return units, metrics, extra


# ------------------------------------------------------------------- traced
def trace(workload, seconds: float) -> tuple:
    from repro.atm.switch import AtmSwitch
    from repro.core.endpoint import Endpoint
    from repro.ethernet.switch import EthernetSwitch
    from repro.live.transport import RECV_BATCH
    from repro.sim import Simulator
    from repro.sim.events import Process, Timeout

    from ledger import LAYERS, OTHER, Ledger

    workload.setup_once()  # lazy imports and first-use caches
    gc.collect()
    t0 = time.perf_counter()
    plain = workload.run_unit()
    plain_wall = time.perf_counter() - t0

    ledger = Ledger()
    walls: List[float] = []

    def traced_unit():
        start = time.perf_counter()
        unit = ledger.profile(workload.run_unit)
        walls.append(time.perf_counter() - start)
        return unit

    traced = _run_units(traced_unit, seconds)
    n = len(traced)
    counters = traced[0].counters
    failures: List[str] = []

    values: Dict[str, float] = {}
    calls = ledger.calls()
    shares = ledger.shares()
    for layer in LAYERS + (OTHER,):
        values[f"{layer}.self_s"] = ledger.self_s[layer] / n
        values[f"{layer}.share"] = shares[layer]
        if layer != OTHER:
            values[f"{layer}.calls"] = calls[layer] / n
    unaccounted = ledger.unaccounted_s()
    if abs(unaccounted) > 1e-6 * max(1.0, ledger.total_s):
        failures.append(f"ledger: layer self times miss {unaccounted:.6f}s "
                        f"of the {ledger.total_s:.3f}s profiled")

    events = counters.get("sim.events", 0)
    values["sim.events"] = events
    values["sim.timeouts"] = ledger.ncalls(Timeout.__init__) / n
    values["sim.callbacks"] = ledger.ncalls(Simulator.call_in) / n
    values["sim.resumes"] = ledger.ncalls(Process._resume) / n
    values["sim.ns_per_event"] = plain.host_s * 1e9 / events if events else 0.0

    cells = ledger.ncalls(AtmSwitch._forward) / n
    if "atm.cells_forwarded" in counters and counters["atm.cells_forwarded"] != cells:
        failures.append(f"ledger: {cells} AtmSwitch._forward calls but the "
                        f"switches count {counters['atm.cells_forwarded']} cells")
    values["atm.cells_forwarded"] = cells
    values["ethernet.frames_forwarded"] = ledger.ncalls(EthernetSwitch._forward) / n

    sent, rexmit = counters.get("am.sent", 0), counters.get("am.rexmit", 0)
    values["am.sent"] = sent
    values["am.rexmit"] = rexmit
    values["am.timeouts"] = counters.get("am.timeouts", 0)
    values["am.dup_rx"] = counters.get("am.dup_rx", 0)
    values["am.useful_ratio"] = (counters.get("am.delivered", 0) / (sent + rexmit)
                                 if sent + rexmit else 0.0)
    values["faults.queue_dropped"] = counters.get("faults.queue_dropped", 0)
    values["faults.queue_marked"] = counters.get("faults.queue_marked", 0)
    # the transport runs keep their endpoints private; there every drop
    # is counted where it funnels through Endpoint.note_drop
    values["core.drops"] = counters.get("core.drops",
                                        ledger.ncalls(Endpoint.note_drop) / n)

    datagrams = counters.get("live.datagrams", 0)
    stream_syscalls = counters.get("live.stream_syscalls", 0)
    values["live.syscalls_per_msg"] = (counters["live.syscalls"] / datagrams
                                       if datagrams else 0.0)
    values["live.backpressure"] = counters.get("live.backpressure", 0)
    values["live.batch_fill"] = (counters["live.stream_datagrams"] / stream_syscalls
                                 / RECV_BATCH if stream_syscalls else 0.0)
    values["trace.overhead_ratio"] = statistics.median(walls) / plain_wall
    values["rtt_p99_us"] = percentile([s for c in plain.chunks for s in c.samples_us], 99)

    units = [plain] + traced
    attempted = sum(u.attempted for u in units)
    values["failed_ratio"] = sum(u.failed for u in units) / attempted

    metrics = _with_units(values, "per_layer")
    extra = {"ledger_failures": failures, "traced_units": n,
             "profiled_s": ledger.total_s, "hottest": list(ledger.top())}
    return units, metrics, extra


# --------------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite the golden digest instead of checking it")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    os.makedirs(TMP_DIR, exist_ok=True)
    tempfile.tempdir = TMP_DIR
    try:
        runner = trace if args.trace else measure
        units, metrics, extra = runner(workload, args.seconds)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    failures = [f for unit in units for f in unit.failures]
    failures += extra.pop("ledger_failures", [])
    failures += _check_digests(workload, units, args.seed, args.update_golden)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    result = {"correct": not failures and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    record = {"provenance": provenance(workload, args.seed, args.seconds, bool(args.trace)),
              "failures": failures, **extra,
              "units": [{"ops": u.ops, "attempted": u.attempted, "failed": u.failed,
                         "host_s": u.host_s,
                         "digest": u.digest, "counters": u.counters} for u in units],
              "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    for failure in failures:
        print(f"# FAILED {failure}")
    print(f"# {len(units)} units, digest {units[0].digest[:16]}, record in {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
