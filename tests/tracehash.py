"""Per-test digests of every simulated step, for parent-vs-change checks.

A change that is meant to leave every simulated result untouched (an
engine or firmware fast path, say) can still move the order in which the
engine pops same-instant heap entries.  Golden digests and BENCH files
miss a move that no headline depends on; this plugin does not.  Loaded
into a pytest run, it hashes, per test, every
:meth:`~repro.sim.trace.TraceRecorder.record` call (enabled recorders and
disabled ones alike) and the clock each ``Simulator.run`` /
``run_until_complete`` call ends at, and writes one digest per test::

    PYTHONPATH=src python -m pytest -q -p tests.tracehash \\
        --tracehash=after.json --hypothesis-seed=0 tests benchmarks

Run the same command on the other commit, then compare the two files::

    python tests/tracehash.py before.json after.json

which lists every test whose digest differs (exit 1) and the tests only
one side ran (new or removed tests; these do not fail the comparison).
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest


class _Digests:
    """The running hash of the test in progress, and every finished one."""

    def __init__(self) -> None:
        self.current = None
        self.counts = [0, 0]
        self.by_test = {}

    def feed(self, kind: int, text: str) -> None:
        if self.current is not None:
            self.current.update(text.encode())
            self.counts[kind] += 1


def _install(digests: _Digests) -> None:
    from repro.sim.engine import Simulator
    from repro.sim.trace import TraceRecorder

    record = TraceRecorder.record
    run = Simulator.run
    run_until_complete = Simulator.run_until_complete

    def traced_record(self, start, duration, category, step, **info):
        digests.feed(0, repr((start, duration, category, step, sorted(info.items()))))
        return record(self, start, duration, category, step, **info)

    def traced_run(self, *args, **kwargs):
        try:
            return run(self, *args, **kwargs)
        finally:
            digests.feed(1, f"run ended at {self.now!r};")

    def traced_run_until_complete(self, *args, **kwargs):
        try:
            return run_until_complete(self, *args, **kwargs)
        finally:
            digests.feed(1, f"run_until_complete ended at {self.now!r};")

    TraceRecorder.record = traced_record
    Simulator.run = traced_run
    Simulator.run_until_complete = traced_run_until_complete


def pytest_addoption(parser):
    parser.addoption("--tracehash", metavar="PATH", default=None,
                     help="write a per-test digest of trace records and run end times to PATH")


def pytest_configure(config):
    path = config.getoption("--tracehash")
    if path:
        digests = _Digests()
        _install(digests)
        config.pluginmanager.register(_Recorder(digests, path), "tracehash-recorder")


class _Recorder:
    def __init__(self, digests: _Digests, path: str) -> None:
        self.digests = digests
        self.path = path

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        digests = self.digests
        digests.current = hashlib.sha256()
        digests.counts = [0, 0]
        yield
        records, runs = digests.counts
        digests.by_test[item.nodeid] = f"{digests.current.hexdigest()[:24]} records={records} runs={runs}"
        digests.current = None

    def pytest_sessionfinish(self, session):
        with open(self.path, "w") as handle:
            json.dump(self.digests.by_test, handle, indent=0, sort_keys=True)
            handle.write("\n")


def compare(before: dict, after: dict) -> int:
    """Print the tests whose digests differ; return how many do."""
    differing = sorted(t for t in before.keys() & after.keys() if before[t] != after[t])
    for test in differing:
        print(f"DIFFERS {test}\n  before {before[test]}\n  after  {after[test]}")
    for test in sorted(before.keys() - after.keys()):
        print(f"only before: {test}")
    for test in sorted(after.keys() - before.keys()):
        print(f"only after: {test}")
    same = len(before.keys() & after.keys()) - len(differing)
    print(f"{same} tests identical, {len(differing)} differ")
    return len(differing)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/tracehash.py BEFORE.json AFTER.json")
    with open(sys.argv[1]) as a, open(sys.argv[2]) as b:
        sys.exit(1 if compare(json.load(a), json.load(b)) else 0)
