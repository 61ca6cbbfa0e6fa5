"""Chaos soak harness: invariants hold and the adaptive stack wins."""

import dataclasses

import pytest

from repro.faults import (
    SCENARIOS,
    SoakScenario,
    UniformLoss,
    adaptive_config,
    compare_reliability,
    fixed_config,
    render_comparison,
    render_soak_table,
    run_scenario,
    wins,
)

REQUIRED = ("bursty", "reorder", "flap", "combined")


@pytest.fixture(scope="module")
def comparison():
    return compare_reliability([SCENARIOS[name] for name in REQUIRED])


def test_every_required_scenario_holds_invariants(comparison):
    for r in comparison:
        assert r.ok, f"{r.scenario} [{r.mode}]: {r.violations}"


def test_adaptive_stack_wins_every_required_scenario(comparison):
    by_key = {(r.scenario, r.mode): r for r in comparison}
    for name in REQUIRED:
        won = wins(by_key[(name, "fixed")], by_key[(name, "adaptive")])
        assert won, f"no robustness metric improved under {name}"


def test_adaptive_stack_actually_adapts(comparison):
    adaptive = [r for r in comparison if r.mode == "adaptive"]
    assert any(r.fast_retransmits > 0 for r in adaptive)
    assert all(r.rtt_samples > 0 for r in adaptive)
    assert all(r.srtt_us is not None and r.srtt_us > 0 for r in adaptive)


def test_fault_stats_recorded_per_pipeline(comparison):
    for r in comparison:
        assert set(r.fault_stats) == {"pipeline0", "pipeline1"}
        fwd = r.fault_stats["pipeline0"]
        assert fwd["injected"] > 0
        assert fwd["stages"], "stage counters missing from the report"


def test_soak_is_deterministic_per_seed():
    scenario = SCENARIOS["bursty"]
    a = run_scenario(scenario, config=adaptive_config(), seed=42, mode="adaptive")
    b = run_scenario(scenario, config=adaptive_config(), seed=42, mode="adaptive")
    assert (a.completion_time_us, a.retransmissions, a.timeouts, a.fast_retransmits,
            a.acks_sent) == (b.completion_time_us, b.retransmissions, b.timeouts,
                             b.fast_retransmits, b.acks_sent)


def test_atm_substrate_scenario():
    scenario = dataclasses.replace(SCENARIOS["bursty-atm"], messages=30)
    r = run_scenario(scenario, config=adaptive_config(), mode="adaptive")
    assert r.ok, r.violations
    assert r.retransmissions > 0  # faults actually hit the cell path


def test_termination_violation_is_detected():
    # a time limit too short for even the clean path must be reported
    # as a termination violation, not silently pass
    impossible = dataclasses.replace(SCENARIOS["bursty"], time_limit_us=50.0)
    r = run_scenario(impossible, config=fixed_config())
    assert not r.completed
    assert not r.ok
    assert any("termination" in v for v in r.violations)


def test_pipelines_detached_after_run():
    # a second, fault-free run right after a soak must see a clean link;
    # run_scenario builds fresh hosts, so instead check restore directly
    from repro.ethernet import SwitchedNetwork
    from repro.hw import PENTIUM_120
    from repro.sim import Simulator
    from repro.faults import attach_pipeline

    sim = Simulator()
    net = SwitchedNetwork(sim)
    host = net.add_host("n0", PENTIUM_120)
    baseline = host.backend.nic._on_frame
    pipeline = attach_pipeline(host.backend, [UniformLoss(1.0)])
    pipeline.restore()
    assert host.backend.nic._on_frame == baseline


def test_render_soak_table_and_comparison(comparison):
    table = render_soak_table(comparison)
    assert "Chaos soak report" in table
    for name in REQUIRED:
        assert name in table
    report = render_comparison(comparison)
    assert "adaptive vs fixed ->" in report
    assert "no metric improved" not in report


def test_rpc_round_trips_survive_chaos(comparison):
    # every 5th message is an RPC; a wrong or dropped reply would be a
    # violation, so ok=True plus rpc_every>0 proves replies came back
    assert all(SCENARIOS[r.scenario].rpc_every > 0 for r in comparison)
    assert all(r.ok for r in comparison)


def test_scenario_catalogue_is_complete():
    for name in ("bursty", "reorder", "jitter", "flap", "stall", "combined", "bursty-atm"):
        assert name in SCENARIOS
        scenario = SCENARIOS[name]
        assert isinstance(scenario, SoakScenario)
        stages = scenario.perturbations()
        assert stages and all(hasattr(s, "process") for s in stages)
    assert SCENARIOS["bursty-atm"].substrate == "atm"


@pytest.mark.parametrize("size", [0, 1, 255, 256, 257, 400, 2000])
def test_cyclic_bytes_equals_the_per_byte_formula(size):
    from repro.faults.soak import cyclic_bytes

    for base in list(range(-300, 600, 7)) + [255, 256, 257, 2**31 + 5]:
        assert cyclic_bytes(base, size) == bytes((base + j) % 256 for j in range(size)), base
