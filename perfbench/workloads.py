"""The benchmark's three workloads, each a closed loop of repeatable units.

A workload turns its seed into inputs once, in the constructor.  Every
unit then replays exactly those inputs through the layer's public API,
checks every output against an oracle that shares no code with the
program, and returns what it saw: operations completed, failures, the
simulated (or delivered) outputs that are digested, the layers' public
counters, and its timed *chunks*.  A chunk is a stretch of work with
its host time and per-operation latency samples; the runner measures
the machine's speed between chunks (``between`` is called there).

Units of one run use identical inputs, so every unit must reproduce the
first unit's digest exactly; a mismatch is a determinism failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

#: wall ceiling of one live phase; a wedged socket fails the unit
_LIVE_LIMIT_S = 30.0
#: after the last stream send, this much silence means a message is lost
_LIVE_QUIET_S = 0.5


class Chunk(NamedTuple):
    """One timed stretch of a unit's work."""

    #: operations completed correctly
    ops: int
    #: wall seconds of the work (set-up excluded)
    host_s: float
    #: host latency of each closed-loop operation, microseconds
    samples_us: List[float]


def _no_pause() -> None:
    pass


@dataclasses.dataclass
class Unit:
    """What one unit of a workload did."""

    attempted: int
    failed: int
    chunks: List[Chunk]
    #: simulated or delivered outputs; pinned by digest
    record: dict
    #: the layers' public counters for this unit
    counters: Dict[str, float]
    failures: List[str]

    @property
    def ops(self) -> int:
        return sum(chunk.ops for chunk in self.chunks)

    @property
    def host_s(self) -> float:
        return sum(chunk.host_s for chunk in self.chunks)

    @property
    def digest(self) -> str:
        canonical = json.dumps(self.record, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------- ATM-Clos collectives
class _OpClock:
    """Node 0's clock over a closed loop of collective ops.

    Records each op's host latency and cuts the run into chunks of about
    ``chunk_s`` wall seconds, calling ``between`` at each cut; the time
    spent in ``between`` is left out of every chunk and sample.
    """

    def __init__(self, between: Callable[[], None], chunk_s: float) -> None:
        self.between = between
        self.chunk_s = chunk_s
        #: (indices of the ops completed, host seconds, samples) per chunk
        self.chunks: List[tuple] = []
        self._ops: List[int] = []
        self._samples: List[float] = []
        self._count = 0
        self._start = self._last = time.perf_counter()

    def op_done(self) -> None:
        now = time.perf_counter()
        self._samples.append((now - self._last) * 1e6)
        self._ops.append(self._count)
        self._count += 1
        self._last = now
        if now - self._start >= self.chunk_s:
            self._cut(now)
            self.between()
            self._start = self._last = time.perf_counter()

    def _cut(self, now: float) -> None:
        self.chunks.append((self._ops, now - self._start, self._samples))
        self._ops, self._samples = [], []

    def finish(self) -> None:
        self._cut(time.perf_counter())


class AtmClosCollectives:
    """Barrier + seeded all-reduce on ATM-Clos fat trees: one half with
    NIC-resident trees, one half host-coordinated over AM."""

    name = "atm-clos-collectives"
    SIZES = {"nic_nodes": 64, "nic_barriers": 50, "nic_reduces": 50,
             "host_nodes": 16, "host_barriers": 20, "host_reduces": 8,
             "width": 4}
    TINY = {"nic_nodes": 8, "nic_barriers": 2, "nic_reduces": 2,
            "host_nodes": 4, "host_barriers": 2, "host_reduces": 2,
            "width": 4}
    setup_reps = 9
    #: wall seconds of program between two calibration pauses
    CHUNK_S = 0.25

    def __init__(self, seed: int, sizes: Optional[dict] = None,
                 inject: Optional[str] = None) -> None:
        self.sizes = dict(sizes or self.SIZES)
        self.inject = inject
        rng = random.Random(seed)
        width = self.sizes["width"]
        self.halves = []
        for mode in ("nic", "host"):
            nodes = self.sizes[f"{mode}_nodes"]
            operands = [[[rng.randrange(-2 ** 40, 2 ** 40) for _ in range(width)]
                         for _ in range(nodes)]
                        for _ in range(self.sizes[f"{mode}_reduces"])]
            # the oracle: Python integer arithmetic, no numpy, no simulator
            expected = [[sum(row[j] for row in op) for j in range(width)]
                        for op in operands]
            self.halves.append({"mode": mode, "nodes": nodes,
                                "barriers": self.sizes[f"{mode}_barriers"],
                                "operands": operands, "expected": expected})

    def _build(self, half: dict):
        from repro.splitc.cluster import Cluster

        return Cluster(half["nodes"], substrate="atm-clos", collectives=half["mode"])

    def setup_once(self) -> float:
        t0 = time.perf_counter()
        for half in self.halves:
            self._build(half)
        return time.perf_counter() - t0

    def _program(self, half: dict, clock: _OpClock) -> Callable:
        barriers = half["barriers"]
        operands = half["operands"]
        width = self.sizes["width"]
        corrupt = self.inject == "operand" and half["mode"] == "nic"

        def program(rt):
            values = rt.heap.allocate("v", width, np.int64)
            node0 = rt.node == 0
            yield from rt.barrier()
            if node0:
                clock.op_done()
            t0 = rt.sim.now
            for _ in range(barriers):
                yield from rt.barrier()
                if node0:
                    clock.op_done()
            t1 = rt.sim.now
            results = []
            for k, op in enumerate(operands):
                row = list(op[rt.node])
                if corrupt and k == 0 and rt.node == 1:
                    row[0] += 1
                values[:] = row
                yield from rt.all_reduce("v", op="sum")
                results.append([int(x) for x in values])
                if node0:
                    clock.op_done()
            return {"barrier_us": (t1 - t0) / max(1, barriers),
                    "reduce_us": (rt.sim.now - t1) / max(1, len(operands)),
                    "results": results}

        return program

    def run_unit(self, between: Callable[[], None] = _no_pause) -> Unit:
        attempted = failed = 0
        chunks: List[Chunk] = []
        records: List[dict] = []
        failures: List[str] = []
        counters = {"sim.events": 0, "atm.cells_forwarded": 0, "am.sent": 0,
                    "am.delivered": 0, "am.rexmit": 0, "am.timeouts": 0,
                    "am.dup_rx": 0, "core.drops": 0}
        for i, half in enumerate(self.halves):
            if i:
                between()
            reduces = len(half["operands"])
            half_ops = 1 + half["barriers"] + reduces
            attempted += half_ops
            cluster = self._build(half)
            clock = _OpClock(between, self.CHUNK_S)
            try:
                results = cluster.run(self._program(half, clock))
            except Exception as exc:  # a broken program fails the unit, not the run
                clock.finish()
                chunks.extend(Chunk(0, host_s, []) for _ops, host_s, _s in clock.chunks)
                failed += half_ops
                failures.append(f"{half['mode']}: {_describe(exc)}")
                continue
            clock.finish()
            bad = [k for k in range(reduces)
                   if any(r["results"][k] != half["expected"][k] for r in results)]
            if bad:
                failures.append(f"{half['mode']}: all_reduce {bad[:8]} differs "
                                f"from the arithmetic sum on some node")
            failed += len(bad)
            # op indices: the warm-up barrier, the barriers, then the reduces
            bad_ops = {1 + half["barriers"] + k for k in bad}
            chunks.extend(Chunk(sum(op not in bad_ops for op in ops), host_s, samples)
                          for ops, host_s, samples in clock.chunks)
            cells = sum(switch.cells_forwarded for switch in cluster.network.switches)
            records.append({"nodes": half["nodes"], "mode": half["mode"],
                            "barrier_us": results[0]["barrier_us"],
                            "reduce_us": results[0]["reduce_us"],
                            "end_us": cluster.elapsed, "cells_forwarded": cells,
                            "results": results[0]["results"]})
            counters["sim.events"] += cluster.sim.events_processed
            counters["atm.cells_forwarded"] += cells
            for am in cluster.ams:
                counters["am.sent"] += am.requests_sent
                counters["am.delivered"] += am.requests_delivered
                for peer in am.snapshot().values():
                    counters["am.rexmit"] += peer["retransmissions"]
                    counters["am.timeouts"] += peer["timeouts"]
                    counters["am.dup_rx"] += peer["duplicates"]
            counters["core.drops"] += sum(sum(host.backend.drop_stats().values())
                                          for host in cluster.hosts)
        return Unit(attempted=attempted, failed=failed, chunks=chunks,
                    record={"halves": records}, counters=counters, failures=failures)


# ------------------------------------------------------------- FE lossy AM
class FeLossyAm:
    """The transport soak's scenarios x gbn/sack/ecn on one FE switch,
    with more messages per sender than the soak sends."""

    name = "fe-lossy-am"
    SCENARIOS = ("ge-bursty", "reorder", "incast-bottleneck")
    MODES = ("gbn", "sack", "ecn")
    SIZES = {"message_factor": 2}
    TINY = {"message_factor": 0.1}
    setup_reps = 25

    def __init__(self, seed: int, sizes: Optional[dict] = None,
                 inject: Optional[str] = None) -> None:
        from repro.faults.transport import TRANSPORT_SCENARIOS

        self.sizes = dict(sizes or self.SIZES)
        self.seed = seed
        factor = self.sizes["message_factor"]
        self.scenarios = [
            dataclasses.replace(TRANSPORT_SCENARIOS[name],
                                messages=max(1, int(TRANSPORT_SCENARIOS[name].messages * factor)))
            for name in self.SCENARIOS]

    def setup_once(self) -> float:
        """The fixed cost of every transport run: network, hosts,
        endpoints and fault pipelines built and torn down, no traffic."""
        from repro.faults.transport import run_transport

        t0 = time.perf_counter()
        for scenario in self.scenarios:
            empty = dataclasses.replace(scenario, messages=0)
            for mode in self.MODES:
                result = run_transport(empty, mode, seed=self.seed)
                if not result.ok:
                    raise RuntimeError(f"empty {scenario.name}/{mode} run failed: "
                                       f"{result.violations}")
        return time.perf_counter() - t0

    def run_unit(self, between: Callable[[], None] = _no_pause) -> Unit:
        from repro.faults.transport import run_transport

        attempted = failed = 0
        chunks: List[Chunk] = []
        records: Dict[str, dict] = {}
        failures: List[str] = []
        counters = {"sim.events": 0, "am.sent": 0, "am.delivered": 0,
                    "am.rexmit": 0, "am.timeouts": 0, "am.dup_rx": 0,
                    "faults.queue_dropped": 0, "faults.queue_marked": 0}
        runs = [(scenario, mode) for scenario in self.scenarios for mode in self.MODES]
        for i, (scenario, mode) in enumerate(runs):
            if i:
                between()
            t0 = time.perf_counter()
            result = run_transport(scenario, mode, seed=self.seed)
            wall = time.perf_counter() - t0
            attempted += result.messages
            ok = result.ok and result.delivered == result.messages
            if not ok:
                failed += result.messages
                failures.append(f"{scenario.name}/{mode}: "
                                f"{result.violations or 'incomplete'}")
            # the run's mean host cost per message, once for each message
            # it delivered, so percentiles are taken over messages
            chunks.append(Chunk(result.delivered if ok else 0, wall,
                                [wall * 1e6 / max(1, result.delivered)]
                                * max(1, result.delivered)))
            row = dataclasses.asdict(result)
            row.pop("wall_s")
            row.pop("sim_events")  # engine bookkeeping, not a simulated output
            records[f"{scenario.name}/{mode}"] = row
            counters["sim.events"] += result.sim_events
            counters["am.sent"] += result.messages
            counters["am.delivered"] += result.delivered
            counters["am.rexmit"] += result.rexmit
            counters["am.timeouts"] += result.timeouts
            counters["am.dup_rx"] += result.dup_rx
            counters["faults.queue_dropped"] += result.queue_dropped
            counters["faults.queue_marked"] += result.queue_marked
        return Unit(attempted=attempted, failed=failed, chunks=chunks,
                    record=records, counters=counters, failures=failures)


# ------------------------------------------------------------ live loopback
class LiveLoopback:
    """AF_UNIX loopback in one process, both nodes polled in-process:
    a batched one-way stream, then a LiveAm echo-RPC ping-pong."""

    name = "live-loopback"
    SIZES = {"stream_messages": 20000, "rpcs": 1000, "burst": 64}
    TINY = {"stream_messages": 200, "rpcs": 20, "burst": 64}
    setup_reps = 25

    def __init__(self, seed: int, sizes: Optional[dict] = None,
                 inject: Optional[str] = None) -> None:
        self.sizes = dict(sizes or self.SIZES)
        self.inject = inject
        rng = random.Random(seed)
        # every stream payload leads with its index, so a receiver can
        # tell loss, duplication and reordering apart
        self.payloads = [i.to_bytes(4, "big") + rng.randbytes(rng.randint(12, 508))
                         for i in range(self.sizes["stream_messages"])]
        self.rpc_data = [rng.randbytes(rng.randint(0, 256))
                         for _ in range(self.sizes["rpcs"])]
        self.stream_sha = hashlib.sha256(b"".join(self.payloads)).hexdigest()
        self.rpc_sha = hashlib.sha256(b"".join(self.rpc_data)).hexdigest()

    def _build(self):
        from repro.am.am import AmConfig
        from repro.core import EndpointConfig
        from repro.live import LiveAm, LiveCluster, WallClock, make_transport

        clock = WallClock()
        config = EndpointConfig(num_buffers=96, buffer_size=2048,
                                send_queue_depth=64, recv_queue_depth=64)
        stream = LiveCluster(lambda name: make_transport("unix", name), clock,
                             doorbell_mode="batched")
        rpc = LiveCluster(lambda name: make_transport("unix", name), clock)
        try:
            s0, s1 = stream.add_node("s0"), stream.add_node("s1")
            tx = s0.create_user_endpoint(config=config, rx_buffers=48)
            rx = s1.create_user_endpoint(config=config, rx_buffers=48)
            channel, _ = stream.connect(tx, rx)
            s0.transport.connect_peer(s1.transport.address)
            s1.transport.connect_peer(s0.transport.address)
            r0, r1 = rpc.add_node("r0"), rpc.add_node("r1")
            ep0 = r0.create_user_endpoint(config=config, rx_buffers=48)
            ep1 = r1.create_user_endpoint(config=config, rx_buffers=48)
            ch0, ch1 = rpc.connect(ep0, ep1)
            client, server = LiveAm(0, ep0, config=AmConfig()), LiveAm(1, ep1, config=AmConfig())
            client.connect_peer(1, ch0)
            server.connect_peer(0, ch1)
            server.register_handler(1, lambda ctx: ctx.reply(args=ctx.args, data=ctx.data))
        except BaseException:
            stream.close()
            rpc.close()
            raise
        return {"stream": stream, "rpc": rpc, "tx": tx, "channel": channel,
                "sink": s1, "client": client, "server": server}

    @staticmethod
    def _close(world: dict) -> None:
        try:
            world["stream"].close()
        finally:
            world["rpc"].close()

    def setup_once(self) -> float:
        t0 = time.perf_counter()
        world = self._build()
        elapsed = time.perf_counter() - t0
        self._close(world)
        return elapsed

    def _stream(self, world: dict, failures: List[str]):
        """One-way batched stream; returns (delivered intact, failed,
        seconds, short bursts)."""
        payloads = self.payloads
        total = len(payloads)
        burst = self.sizes["burst"]
        seen = bytearray(total)
        state = {"got": 0, "bad": 0, "last": -1, "dropped": self.inject != "drop"}

        def on_message(_endpoint, _channel, view) -> None:
            index = int.from_bytes(view[:4], "big")
            if not state["dropped"] and index == total // 2:
                state["dropped"] = True  # injected loss: the message never arrives
                return
            if index >= total or view != payloads[index] or seen[index] or index < state["last"]:
                state["bad"] += 1
                return
            seen[index] = 1
            state["last"] = index
            state["got"] += 1

        send_burst = world["tx"].send_burst
        channel = world["channel"]
        service_fast = world["sink"].service_fast
        sent = short = 0
        t0 = time.perf_counter()
        deadline = t0 + _LIVE_LIMIT_S
        quiet_since = None
        while state["got"] < total:
            now = time.perf_counter()
            if now > deadline:
                failures.append("stream: wall deadline passed")
                break
            if sent < total:
                offered = min(burst, total - sent)
                accepted = send_burst(channel, payloads[sent:sent + offered])
                sent += accepted
                short += accepted < offered
            if service_fast(on_message):
                quiet_since = None
            elif sent == total:
                quiet_since = quiet_since or now
                if now - quiet_since > _LIVE_QUIET_S:
                    break
        elapsed = time.perf_counter() - t0
        missing = total - state["got"]
        if missing or state["bad"]:
            failures.append(f"stream: {missing} of {total} messages missing or "
                            f"damaged ({state['bad']} rejected on receipt)")
        return state["got"], min(total, missing + state["bad"]), elapsed, short

    def _rpcs(self, world: dict, failures: List[str]):
        """Echo-RPC ping-pong; returns (echoed ok, failed, samples)."""
        from repro.am.am import AmError
        from repro.core.errors import PeerUnavailableError

        client, server, rpc = world["client"], world["server"], world["rpc"]

        def pump() -> None:
            rpc.step()
            client.service()
            server.service()

        clock = time.perf_counter
        samples: List[float] = []
        ok = 0
        for i, data in enumerate(self.rpc_data):
            t0 = clock()
            try:
                args, reply = client.rpc(1, 1, args=(i,), data=data, pump=pump,
                                         limit_us=_LIVE_LIMIT_S * 1e6)
            except (AmError, PeerUnavailableError) as exc:
                failures.append(f"rpc {i}: {_describe(exc)}")
                break
            samples.append((clock() - t0) * 1e6)
            if args[0] == i and bytes(reply) == data:  # AM pads args to four words
                ok += 1
            else:
                failures.append(f"rpc {i}: echo differs from the request")
        return ok, len(self.rpc_data) - ok, samples

    def run_unit(self, between: Callable[[], None] = _no_pause) -> Unit:
        failures: List[str] = []
        world = self._build()
        try:
            got, lost, stream_s, short = self._stream(world, failures)
            echoed, rpc_failed, samples = self._rpcs(world, failures)
            nodes = world["stream"].nodes + world["rpc"].nodes
            stream_nodes = world["stream"].nodes
            client, server = world["client"], world["server"]
            counters = {
                "sim.events": 0,
                "am.sent": client.requests_sent,
                "am.delivered": server.requests_delivered,
                "am.rexmit": 0, "am.timeouts": 0, "am.dup_rx": 0,
                "core.drops": sum(sum(node.drop_stats().values()) for node in nodes),
                "live.syscalls": sum(n.transport.tx_syscalls + n.transport.rx_syscalls
                                     for n in nodes),
                "live.datagrams": sum(n.transport.tx_datagrams + n.transport.rx_datagrams
                                      for n in nodes),
                "live.stream_syscalls": sum(n.transport.tx_syscalls + n.transport.rx_syscalls
                                            for n in stream_nodes),
                "live.stream_datagrams": sum(n.transport.tx_datagrams + n.transport.rx_datagrams
                                             for n in stream_nodes),
                "live.backpressure": short,
            }
            for am in (client, server):
                for peer in am.snapshot().values():
                    counters["am.rexmit"] += peer["retransmissions"]
                    counters["am.timeouts"] += peer["timeouts"]
                    counters["am.dup_rx"] += peer["duplicates"]
        finally:
            self._close(world)
        record = {"stream_delivered": got,
                  "stream_sha256": self.stream_sha if not lost else None,
                  "rpcs_echoed": echoed,
                  "rpc_sha256": self.rpc_sha if not rpc_failed else None}
        # stream messages are the operations; the echo RPCs give the latencies
        return Unit(attempted=len(self.payloads) + len(self.rpc_data),
                    failed=lost + rpc_failed, chunks=[Chunk(got, stream_s, samples)],
                    record=record, counters=counters, failures=failures)


WORKLOADS = {cls.name: cls for cls in (AtmClosCollectives, FeLossyAm, LiveLoopback)}
