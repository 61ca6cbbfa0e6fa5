"""Regression pins: the substrates agree today; keep it that way.

The differential sweep on main reports zero divergences — including the
demux-shed/quarantine ordering both backends implement independently
(`UNetAtmBackend._rx_looked_up` vs `UNetFeBackend._rx_demuxed`), which
was the suspected drift point.  These tests pin that state: a seed
sweep across every config preset must stay divergence-free, and shed
traffic must classify identically (as ``quarantine_drops``, before any
buffer is charged) on both substrates.
"""

import pytest

from repro.conformance import generate_case, render_report, run_case
from tests.conformance.test_cross_substrate_health import (
    POLICY_QUARANTINE,
    _overload_run,
)

SEEDS = (1, 2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config", ["fixed", "adaptive", "credit"])
def test_substrates_match_the_reference_model(seed, config):
    report = run_case(generate_case(seed, config))
    assert report.ok, render_report(report)


def test_quarantine_shed_classifies_identically_across_substrates():
    """Both backends must shed quarantined traffic at the demux step —
    counted as quarantine drops, never charged to the buffer pool or
    misread as unknown-tag traffic."""
    stats = {}
    for substrate in ("atm", "ethernet"):
        _trajectory, _record, endpoint = _overload_run(substrate, POLICY_QUARANTINE)
        stats[substrate] = endpoint.drop_stats()
    for substrate, s in stats.items():
        assert s["quarantine_drops"] > 0, (substrate, s)
        assert s["unknown_tag_drops"] == 0, (substrate, s)
        assert s["no_buffer_drops"] == 0, (substrate, s)
    # parity of classification *kinds*, not timing-dependent counts
    kinds = {name: sorted(k for k, v in s.items() if v > 0)
             for name, s in stats.items()}
    assert kinds["atm"] == kinds["ethernet"], kinds
