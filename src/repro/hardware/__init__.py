"""Edge hardware models: platforms, DVFS space F, latency, power, energy.

The paper measures four NVIDIA Jetson compute settings hardware-in-the-loop:
AGX Volta GPU, Carmel ARM v8.2 CPU (both on the AGX SoC), TX2 Pascal GPU and
Denver CPU (both on the TX2 SoC).  This package replaces the physical devices
with first-principles analytical models:

* **Latency** — a per-layer roofline: a layer is compute-bound
  (MACs / effective throughput at the core clock) or memory-bound
  (DRAM traffic / bandwidth at the EMC clock), plus a per-layer dispatch
  overhead.
* **Power** — CMOS scaling: ``P = P_idle + P_leak(V) + C_eff · V² · f · a``
  with a device V–f curve, evaluated separately for the compute unit and the
  external memory controller (EMC).
* **Energy** — per-layer power × time, summed; convex in frequency, so DVFS
  has a genuine per-workload sweet spot.
* **Measurement** — :class:`~repro.hardware.measurement.HardwareInTheLoop`
  wraps the models with warm-up, repetition and multiplicative noise to
  emulate the paper's measurement setup, with a lookup-table cache.

DVFS frequency grids follow paper Table II exactly (count and range).
"""

from repro.hardware.dvfs import DvfsSetting, DvfsSpace
from repro.hardware.energy import EnergyModel, EnergyReport
from repro.hardware.latency import BatchTiming, LatencyModel, LayerTiming
from repro.hardware.measurement import HardwareInTheLoop, Measurement
from repro.hardware.platform import (
    PLATFORM_BUILDERS,
    HardwarePlatform,
    agx_carmel_cpu,
    agx_volta_gpu,
    get_platform,
    list_platforms,
    tx2_denver_cpu,
    tx2_pascal_gpu,
)
from repro.hardware.power import PowerModel

__all__ = [
    "HardwarePlatform",
    "get_platform",
    "list_platforms",
    "PLATFORM_BUILDERS",
    "agx_volta_gpu",
    "agx_carmel_cpu",
    "tx2_pascal_gpu",
    "tx2_denver_cpu",
    "DvfsSetting",
    "DvfsSpace",
    "PowerModel",
    "LatencyModel",
    "LayerTiming",
    "BatchTiming",
    "EnergyModel",
    "EnergyReport",
    "HardwareInTheLoop",
    "Measurement",
]
