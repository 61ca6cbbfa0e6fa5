"""Chaos soak harness: AM traffic through parameterized fault scenarios.

Each scenario attaches a perturbation pipeline to both ends of a
two-host network (either substrate) and pushes a stream of Active
Messages requests — every ``rpc_every``-th one a round-trip RPC — while
checking the delivery invariants the layers above depend on:

* **exactly-once dispatch** — every request id handled once, no dupes;
* **FIFO per channel** — ids arrive in send order;
* **termination** — the stream completes before the time limit (no
  deadlock on window stalls, no livelock between timers and faults);
* **payload integrity** — corrupted PDUs never reach a handler.

Results carry the reliability-layer counters (retransmissions,
timeouts, fast retransmits, RTO estimate) plus the fault pipeline's own
stage statistics, and :func:`compare_reliability` runs the same
scenario under the fixed-RTO baseline and the adaptive stack so the
robustness win is measurable, not anecdotal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..am import AmConfig, AmEndpoint
from ..core import EndpointConfig
from ..sim import RngRegistry, Simulator
from .inject import attach_pipeline
from .perturb import (
    DelayJitter,
    Duplicate,
    GilbertElliott,
    LinkFlap,
    LinkPerturbation,
    NicStall,
    Reorder,
)

__all__ = [
    "SoakScenario",
    "SoakResult",
    "SCENARIOS",
    "run_scenario",
    "compare_reliability",
    "render_soak_table",
    "render_comparison",
]

_ENDPOINT_CONFIG = EndpointConfig(num_buffers=128, buffer_size=2048,
                                  send_queue_depth=64, recv_queue_depth=128)


@dataclass
class SoakScenario:
    """One reproducible chaos scenario."""

    name: str
    description: str
    #: builds a fresh stage list per attached pipeline (state is per-link)
    perturbations: Callable[[], List[LinkPerturbation]]
    substrate: str = "ethernet"
    messages: int = 60
    payload_bytes: int = 200
    #: every k-th message is a full RPC round trip (0 disables)
    rpc_every: int = 5
    #: perturb both directions (data path and ack/reply path)
    both_directions: bool = True
    time_limit_us: float = 60_000_000.0


@dataclass
class SoakResult:
    """Outcome and counters of one scenario run."""

    scenario: str
    mode: str
    completed: bool
    violations: List[str]
    completion_time_us: float
    retransmissions: int
    timeouts: int
    fast_retransmits: int
    duplicates: int
    acks_sent: int
    rtt_samples: int
    srtt_us: Optional[float]
    fault_stats: Dict[str, dict] = field(default_factory=dict)
    #: engine throughput: events the simulator processed and the
    #: wall-clock seconds the run took (events/s is the fast-path metric)
    sim_events: int = 0
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.completed and not self.violations


def _burst_stages() -> List[LinkPerturbation]:
    return [GilbertElliott(p_good_to_bad=0.03, p_bad_to_good=0.3, loss_bad=0.8)]


def _reorder_stages() -> List[LinkPerturbation]:
    return [Reorder(rate=0.15, delay_us=(30.0, 250.0))]


def _jitter_stages() -> List[LinkPerturbation]:
    return [DelayJitter(min_us=0.0, max_us=150.0), Duplicate(rate=0.03)]


def _flap_stages() -> List[LinkPerturbation]:
    return [LinkFlap(up_us=4000.0, down_us=600.0, offset_us=1000.0)]


def _stall_stages() -> List[LinkPerturbation]:
    return [NicStall(period_us=5000.0, stall_us=400.0)]


def _combined_stages() -> List[LinkPerturbation]:
    return [
        GilbertElliott(p_good_to_bad=0.02, p_bad_to_good=0.35, loss_bad=0.7),
        Reorder(rate=0.08, delay_us=(20.0, 150.0)),
        DelayJitter(min_us=0.0, max_us=60.0),
        LinkFlap(up_us=8000.0, down_us=400.0, offset_us=2000.0),
    ]


SCENARIOS: Dict[str, SoakScenario] = {
    scenario.name: scenario
    for scenario in (
        SoakScenario("bursty", "Gilbert-Elliott bursty loss", _burst_stages),
        SoakScenario("reorder", "random reordering (striped-path style)", _reorder_stages),
        SoakScenario("jitter", "delay jitter + duplication", _jitter_stages),
        SoakScenario("flap", "periodic link up/down flapping", _flap_stages),
        SoakScenario("stall", "periodic NIC delivery stalls", _stall_stages),
        SoakScenario("combined", "bursty loss + reorder + jitter + flap", _combined_stages),
        SoakScenario("bursty-atm", "Gilbert-Elliott bursty cell loss on ATM",
                     _burst_stages, substrate="atm"),
    )
}


def _build_network(substrate: str, sim: Simulator):
    if substrate == "atm":
        from ..atm import AtmNetwork

        return AtmNetwork(sim)
    from ..ethernet import SwitchedNetwork

    return SwitchedNetwork(sim)


def run_scenario(
    scenario: SoakScenario,
    config: Optional[AmConfig] = None,
    seed: int = 0xC0FFEE,
    mode: str = "fixed",
) -> SoakResult:
    """Run ``scenario`` once under ``config`` and check every invariant."""
    from ..hw import PENTIUM_120
    from ..live.clock import WallClock

    wall_clock = WallClock()
    sim = Simulator()
    net = _build_network(scenario.substrate, sim)
    h0 = net.add_host("n0", PENTIUM_120)
    h1 = net.add_host("n1", PENTIUM_120)
    ep0 = h0.create_endpoint(config=_ENDPOINT_CONFIG, rx_buffers=48)
    ep1 = h1.create_endpoint(config=_ENDPOINT_CONFIG, rx_buffers=48)
    ch0, ch1 = net.connect(ep0, ep1)
    am0 = AmEndpoint(0, ep0, config=config)
    am1 = AmEndpoint(1, ep1, config=config)
    am0.connect_peer(1, ch0)
    am1.connect_peer(0, ch1)

    registry = RngRegistry(seed)
    pipelines = []
    # the pipeline at h1 perturbs the request path, the one at h0 the
    # ack/reply path; separate prefixes give every stage its own stream
    pipelines.append(attach_pipeline(h1.backend, scenario.perturbations(),
                                     rng=registry, prefix="faults.fwd"))
    if scenario.both_directions:
        pipelines.append(attach_pipeline(h0.backend, scenario.perturbations(),
                                         rng=registry, prefix="faults.rev"))

    delivered: List[int] = []
    integrity_failures: List[int] = []

    def handler(ctx) -> None:
        i = ctx.args[0]
        delivered.append(i)
        if ctx.data != cyclic_bytes(i, scenario.payload_bytes):
            integrity_failures.append(i)

    def rpc_handler(ctx):
        i = ctx.args[0]
        delivered.append(i)
        if ctx.data != cyclic_bytes(i, scenario.payload_bytes):
            integrity_failures.append(i)
        yield from ctx.reply(args=(i * 2 + 1,))

    am1.register_handler(1, handler)
    am1.register_handler(2, rpc_handler)

    rpc_errors: List[str] = []

    def traffic():
        for i in range(scenario.messages):
            data = cyclic_bytes(i, scenario.payload_bytes)
            if scenario.rpc_every and i % scenario.rpc_every == scenario.rpc_every - 1:
                args, _d = yield from am0.rpc(1, 2, args=(i,), data=data)
                if args[0] != i * 2 + 1:
                    rpc_errors.append(f"rpc {i} returned {args[0]}")
            else:
                yield from am0.request(1, 1, args=(i,), data=data)
        return sim.now

    process = sim.process(traffic(), name="soak.traffic")
    sim.run(until=scenario.time_limit_us)
    completed = bool(process.triggered)
    send_done_us = process.value if completed and process.ok else scenario.time_limit_us
    if completed:
        # drain retransmissions of the tail so delivery checks see it all
        am0.shutdown()
        am1.shutdown()
        sim.run(until=min(scenario.time_limit_us, sim.now + 2_000_000.0))

    violations: List[str] = []
    if not completed:
        violations.append(f"termination: stream incomplete at t={scenario.time_limit_us:.0f}us "
                          f"({len(delivered)}/{scenario.messages} delivered)")
    expected = list(range(scenario.messages))
    if completed and delivered != expected:
        if sorted(delivered) != expected:
            seen = set()
            dupes = sorted({i for i in delivered if i in seen or seen.add(i)})
            missing = sorted(set(expected) - set(delivered))
            if dupes:
                violations.append(f"exactly-once: duplicate dispatch of ids {dupes[:8]}")
            if missing:
                violations.append(f"exactly-once: ids never dispatched {missing[:8]}")
        else:
            violations.append("fifo: dispatch order differs from send order")
    if integrity_failures:
        violations.append(f"integrity: corrupted payload reached handler for ids "
                          f"{integrity_failures[:8]}")
    violations.extend(rpc_errors)

    peer = am0._peers_by_node[1]
    fault_stats = {f"pipeline{i}": p.stats() for i, p in enumerate(pipelines)}
    for pipeline in pipelines:
        pipeline.restore()
    return SoakResult(
        scenario=scenario.name,
        mode=mode,
        completed=completed,
        violations=violations,
        completion_time_us=send_done_us,
        retransmissions=peer.retransmissions,
        timeouts=peer.timeouts,
        fast_retransmits=peer.fast_retransmits,
        duplicates=am1._peers_by_node[0].duplicates,
        acks_sent=am0.acks_sent + am1.acks_sent,
        rtt_samples=peer.rtt_samples,
        srtt_us=peer.srtt,
        fault_stats=fault_stats,
        sim_events=sim.events_processed,
        wall_s=wall_clock.now_us() / 1e6,
    )


_RAMP = bytes(range(256))


def cyclic_bytes(base: int, size: int) -> bytes:
    """The ``size`` bytes ``(base + j) % 256`` for ``j`` in ``range(size)``:
    the soaks' self-checking message payloads, cut from a repeated
    ``0..255`` ramp.

    >>> list(cyclic_bytes(254, 4))
    [254, 255, 0, 1]
    """
    start = base % 256
    return (_RAMP * ((start + size) // 256 + 1))[start:start + size]


def fixed_config() -> AmConfig:
    """The baseline: today's static 4 ms RTO, static window."""
    return AmConfig()


def adaptive_config() -> AmConfig:
    """The full adaptive stack under soak."""
    return AmConfig.adaptive()


def compare_reliability(
    scenarios: Sequence[SoakScenario],
    seed: int = 0xC0FFEE,
) -> List[SoakResult]:
    """Run each scenario under the fixed baseline and the adaptive stack.

    Identical seeds feed both runs, so the two reliability stacks face
    byte-identical fault patterns (until their own behaviour diverges
    the arrival sequence, which is the point of the comparison).
    """
    results: List[SoakResult] = []
    for scenario in scenarios:
        results.append(run_scenario(scenario, config=fixed_config(), seed=seed, mode="fixed"))
        results.append(run_scenario(scenario, config=adaptive_config(), seed=seed, mode="adaptive"))
    return results


def wins(fixed: SoakResult, adaptive: SoakResult) -> List[str]:
    """Robustness metrics on which the adaptive stack beat the baseline."""
    better: List[str] = []
    if adaptive.completed and not fixed.completed:
        better.append("completed where baseline did not")
    if adaptive.completion_time_us < fixed.completion_time_us:
        better.append(
            f"completion time {adaptive.completion_time_us / 1000.0:.2f} ms"
            f" < {fixed.completion_time_us / 1000.0:.2f} ms"
        )
    if adaptive.retransmissions < fixed.retransmissions:
        better.append(f"retransmissions {adaptive.retransmissions} < {fixed.retransmissions}")
    if adaptive.duplicates < fixed.duplicates:
        better.append(f"spurious deliveries {adaptive.duplicates} < {fixed.duplicates}")
    return better


def render_soak_table(results: Sequence[SoakResult]) -> str:
    """One row per run, via the standard report table."""
    from ..analysis.report import engine_rate_line, format_table

    rows = []
    for r in results:
        rows.append([
            r.scenario,
            r.mode,
            "ok" if r.ok else "FAIL",
            r.completion_time_us / 1000.0,
            r.retransmissions,
            r.timeouts,
            r.fast_retransmits,
            r.duplicates,
            f"{r.srtt_us:.0f}" if r.srtt_us is not None else "-",
        ])
    table = format_table(
        ("scenario", "mode", "invariants", "time_ms", "rexmit", "rto_fire", "fast_rx",
         "dup_rx", "srtt_us"),
        rows,
        title="Chaos soak report",
    )
    rate = engine_rate_line(results)
    return f"{table}\n  {rate}" if rate else table


def render_comparison(results: Sequence[SoakResult]) -> str:
    """The soak table plus per-scenario adaptive-vs-fixed verdicts."""
    lines = [render_soak_table(results)]
    by_key = {(r.scenario, r.mode): r for r in results}
    for name in dict.fromkeys(r.scenario for r in results):
        fixed = by_key.get((name, "fixed"))
        adaptive = by_key.get((name, "adaptive"))
        if fixed is None or adaptive is None:
            continue
        won = wins(fixed, adaptive)
        verdict = "; ".join(won) if won else "no metric improved"
        lines.append(f"  {name}: adaptive vs fixed -> {verdict}")
        for r in (fixed, adaptive):
            for violation in r.violations:
                lines.append(f"    !! {r.mode}: {violation}")
    return "\n".join(lines)
