"""Cost modelling: hardware platforms, analytical costs, and wall-clock profiling.

The paper drives selection with per-layer *profiled* execution times of
hand-optimized primitives on two physical machines (Intel Core i5-4570 and
ARM Cortex-A57).  This reproduction substitutes an **analytical platform
model** (:class:`~repro.cost.analytical.AnalyticalCostModel`) calibrated to
the characteristics of those two processors, plus a **wall-clock profiler**
(:class:`~repro.cost.profiler.WallClockProfiler`) that times the numpy-backed
primitives on the host machine.  Both implement the same
:class:`~repro.cost.model.CostModel` interface, so either can feed the
selector; the analytical model is what regenerates the paper's figures.
"""

from repro.cost.platform import (
    PLATFORM_REGISTRY_VERSION,
    PLATFORMS,
    Platform,
    arm_cortex_a57,
    avx512_server,
    get_platform,
    gpu_sim,
    intel_haswell,
    list_platforms,
    platform_version,
    register_platform,
    unregister_platform,
)
from repro.cost.model import CostModel
from repro.cost.analytical import AnalyticalCostModel
from repro.cost.profiler import WallClockProfiler
from repro.cost.tables import CostTables, build_cost_tables
from repro.cost.provider import (
    AnalyticalCostProvider,
    CostModelProvider,
    CostProvider,
    CostQuery,
    ProfiledCostProvider,
)
from repro.cost.store import CostStore, StoreEntry, StoreKey, StoreStats

__all__ = [
    "Platform",
    "PLATFORMS",
    "PLATFORM_REGISTRY_VERSION",
    "intel_haswell",
    "arm_cortex_a57",
    "avx512_server",
    "gpu_sim",
    "register_platform",
    "unregister_platform",
    "get_platform",
    "list_platforms",
    "platform_version",
    "CostModel",
    "AnalyticalCostModel",
    "WallClockProfiler",
    "CostTables",
    "build_cost_tables",
    "CostProvider",
    "CostQuery",
    "AnalyticalCostProvider",
    "ProfiledCostProvider",
    "CostModelProvider",
    "CostStore",
    "StoreKey",
    "StoreEntry",
    "StoreStats",
]
