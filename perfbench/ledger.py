"""Per-layer ledger: host self time and call counts from the stdlib profiler.

A layer is a ``src/repro/<package>`` name.  Every profiled function's
self time is charged to the package its source file lives in.  Functions
outside the package tree (builtins such as ``heapq.heappop``, stdlib
helpers such as ``random.random``) are charged, call site by call site,
to the layer of the function that called them: a heap pop issued by the
engine is engine time.  What no layer called, plus this benchmark's own
code and the packages that are not layers, lands in ``other``.

The profiler costs time on every Python call, so the numbers here are
shares of a slowed-down run.  End-to-end figures always come from an
untraced run; the ratio of the two wall times is reported as the
tracing overhead.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
from typing import Callable, Dict, Iterable, Tuple

#: the layers of the system, in the order the report lists them
LAYERS = ("sim", "atm", "ethernet", "fabric", "hw", "core", "am", "faults",
          "splitc", "collectives", "live")
OTHER = "other"

FuncKey = Tuple[str, int, str]


@functools.lru_cache(maxsize=None)
def _package_prefix() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _in_repro(filename: str) -> bool:
    return filename.startswith(_package_prefix())


def layer_of(filename: str) -> str:
    """The layer a source file belongs to, or ``other``."""
    if not _in_repro(filename):
        return OTHER
    package = filename[len(_package_prefix()):].split(os.sep, 1)[0]
    return package if package in LAYERS else OTHER


def code_key(fn: Callable) -> FuncKey:
    """The profiler's key for a Python function (file, first line, name)."""
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class Ledger:
    """Self time and calls per layer, plus exact call counts of chosen
    functions, accumulated over one or more profiled regions."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS + (OTHER,)}
        self.total_s = 0.0
        self._stats: Dict[FuncKey, tuple] = {}

    def profile(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` under the profiler and add its profile to the ledger."""
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return fn()
        finally:
            profiler.disable()
            self._add(pstats.Stats(profiler))

    def _add(self, stats: pstats.Stats) -> None:
        self.total_s += stats.total_tt
        for func, (cc, nc, tt, ct, callers) in stats.stats.items():
            prev = self._stats.get(func)
            self._stats[func] = (nc + prev[0], tt + prev[1]) if prev else (nc, tt)
            filename = func[0]
            if _in_repro(filename):
                self.self_s[layer_of(filename)] += tt
                continue
            # outside the tree: split the self time by call site
            charged = 0.0
            for caller, entry in callers.items():
                caller_tt = entry[2]
                self.self_s[layer_of(caller[0])] += caller_tt
                charged += caller_tt
            self.self_s[OTHER] += tt - charged

    def ncalls(self, fn: Callable) -> int:
        """How many times ``fn`` ran in the profiled regions (exact)."""
        entry = self._stats.get(code_key(fn))
        return entry[0] if entry else 0

    def calls(self) -> Dict[str, int]:
        """Calls of functions defined in each layer's own source files."""
        out = {name: 0 for name in self.self_s}
        for (filename, _line, _name), (nc, _tt) in self._stats.items():
            if _in_repro(filename):
                out[layer_of(filename)] += nc
        return out

    def unaccounted_s(self) -> float:
        """Profiled self time not charged to any layer (should be ~0)."""
        return self.total_s - sum(self.self_s.values())

    def shares(self) -> Dict[str, float]:
        total = self.total_s or 1.0
        return {name: value / total for name, value in self.self_s.items()}

    def top(self, count: int = 15) -> Iterable[dict]:
        """The hottest functions by self time, for the dumped ledger."""
        ranked = sorted(self._stats.items(), key=lambda item: item[1][1], reverse=True)
        for (filename, line, name), (nc, tt) in ranked[:count]:
            layer = layer_of(filename) if _in_repro(filename) else "charged to callers"
            yield {"function": f"{os.path.basename(filename)}:{line}({name})",
                   "layer": layer, "calls": nc, "self_s": tt}
