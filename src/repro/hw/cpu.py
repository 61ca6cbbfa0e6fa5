"""Host and co-processor CPU cost models.

The paper's performance analysis is phrased entirely in per-operation
costs on its machines (120 MHz Pentium trap/copy costs in Figures 3-4,
the 25 MHz i960's ~10 us send / ~13 us receive overheads, SPARC vs
Pentium integer/floating-point ratios in Section 5.2).  This module
gathers those constants so every device/OS model charges time from a
single calibrated source.

Calibration notes (all values from the paper unless cited otherwise):

* Pentium memcpy speed is "about 70 Mbytes/sec", and measured copy cost
  grows "1.42 us for every additional 100 bytes" -- 70.4 MB/s.
* A null x86 trap gate is "under 1 us" on the 120 MHz Pentium; the
  Figure 3 analysis attributes ~20% of the 4.2 us send path to trap
  entry + return.
* Frame-in-memory to interrupt-handler invocation is "roughly 2 us".
* Split-C discussion: "SPARC floating-point operations outperform those
  of the Pentium" and "Pentium integer operations outperform those of
  the SPARC".  The per-op rates below encode that ordering; absolute
  values are era-plausible (SuperSPARC ~1 flop/cycle peak vs Pentium's
  weaker FPU pipeline; Pentium's dual integer pipes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "CpuModel",
    "PENTIUM_90",
    "PENTIUM_120",
    "SPARCSTATION_10",
    "SPARCSTATION_20",
    "I960_25",
]


@dataclass(frozen=True)
class CpuModel:
    """Per-operation timing model of a processor.

    All times are microseconds; rates are per-microsecond.
    """

    name: str
    clock_mhz: float
    #: sustained memory-copy bandwidth, MB/s (drives receive-path copies)
    memcpy_mbytes_per_s: float
    #: fixed cost of entering a copy loop (function call, setup)
    memcpy_setup_us: float
    #: fast trap gate entry / return (U-Net/FE send path, Fig. 3)
    trap_entry_us: float
    trap_return_us: float
    #: device interrupt to handler entry (U-Net/FE receive path, Fig. 4)
    interrupt_entry_us: float
    interrupt_return_us: float
    #: sustained integer-operation rate (sort kernels), ops/us
    int_ops_per_us: float
    #: sustained double-precision FP rate (matmul kernel), flops/us
    flops_per_us: float

    def cycles(self, n_cycles: float) -> float:
        """Time for ``n_cycles`` clock cycles, in microseconds."""
        return n_cycles / self.clock_mhz

    def copy_time(self, nbytes: int) -> float:
        """Time for an in-memory copy of ``nbytes`` bytes."""
        if nbytes <= 0:
            return 0.0
        return self.memcpy_setup_us + nbytes / self.memcpy_mbytes_per_s

    def int_op_time(self, ops: float) -> float:
        """Time for ``ops`` integer operations."""
        return ops / self.int_ops_per_us

    def flop_time(self, flops: float) -> float:
        """Time for ``flops`` double-precision floating point operations."""
        return flops / self.flops_per_us

    def scaled(self, factor: float) -> "CpuModel":
        """A uniformly ``factor``-times-faster variant (for what-if runs)."""
        return replace(
            self,
            name=f"{self.name} x{factor:g}",
            clock_mhz=self.clock_mhz * factor,
            memcpy_mbytes_per_s=self.memcpy_mbytes_per_s * factor,
            memcpy_setup_us=self.memcpy_setup_us / factor,
            trap_entry_us=self.trap_entry_us / factor,
            trap_return_us=self.trap_return_us / factor,
            interrupt_entry_us=self.interrupt_entry_us / factor,
            interrupt_return_us=self.interrupt_return_us / factor,
            int_ops_per_us=self.int_ops_per_us * factor,
            flops_per_us=self.flops_per_us * factor,
        )


#: 120 MHz Pentium (the seven fast FE-cluster nodes and the microbenchmark
#: host).  memcpy 70.4 MB/s reproduces the 1.42 us / 100 B copy slope.
PENTIUM_120 = CpuModel(
    name="Pentium-120",
    clock_mhz=120.0,
    memcpy_mbytes_per_s=70.4,
    memcpy_setup_us=0.18,
    trap_entry_us=0.60,
    trap_return_us=0.30,
    interrupt_entry_us=0.56,
    interrupt_return_us=0.40,
    int_ops_per_us=68.0,
    flops_per_us=7.0,
)

#: The one slower node in the paper's FE cluster.
PENTIUM_90 = CpuModel(
    name="Pentium-90",
    clock_mhz=90.0,
    memcpy_mbytes_per_s=55.0,
    memcpy_setup_us=0.24,
    trap_entry_us=0.80,
    trap_return_us=0.40,
    interrupt_entry_us=0.75,
    interrupt_return_us=0.53,
    int_ops_per_us=51.0,
    flops_per_us=5.3,
)

#: SPARCstation 20 (four of the ATM-cluster nodes).  Slower integer,
#: faster double-precision FP than the Pentium (paper Section 5.2).
SPARCSTATION_20 = CpuModel(
    name="SPARCstation-20",
    clock_mhz=60.0,
    memcpy_mbytes_per_s=45.0,
    memcpy_setup_us=0.30,
    trap_entry_us=1.20,
    trap_return_us=0.60,
    interrupt_entry_us=1.50,
    interrupt_return_us=0.80,
    # sort kernels are memory-bound, which narrows the SPARC's
    # SPECint-ratio deficit against the Pentium (paper Section 5.2 still
    # holds: Pentium integer beats SPARC)
    int_ops_per_us=58.0,
    flops_per_us=11.0,
)

#: SPARCstation 10 (the other four ATM-cluster nodes).
SPARCSTATION_10 = CpuModel(
    name="SPARCstation-10",
    clock_mhz=50.0,
    memcpy_mbytes_per_s=38.0,
    memcpy_setup_us=0.35,
    trap_entry_us=1.40,
    trap_return_us=0.70,
    interrupt_entry_us=1.80,
    interrupt_return_us=0.95,
    int_ops_per_us=47.0,
    flops_per_us=9.5,
)

#: The 25 MHz Intel i960 on the Fore SBA-200/PCA-200.  "significantly
#: slower than the Pentium host"; its firmware costs live in
#: repro.atm.unet_atm, charged in i960 cycles through this model.
I960_25 = CpuModel(
    name="i960-25",
    clock_mhz=25.0,
    memcpy_mbytes_per_s=25.0,
    memcpy_setup_us=0.4,
    trap_entry_us=0.0,
    trap_return_us=0.0,
    interrupt_entry_us=2.0,
    interrupt_return_us=1.0,
    int_ops_per_us=12.0,
    flops_per_us=0.5,
)
