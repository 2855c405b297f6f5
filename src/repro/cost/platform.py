"""Hardware platform descriptions and the platform registry.

The paper evaluates on two machines:

* **Intel Core i5-4570** (Haswell): 4 cores at 3.2 GHz, AVX2 (8-lane FP32
  FMA), 32 KiB L1 / 256 KiB L2 per core and a 6 MiB shared L3;
* **ARM Cortex-A57** (NVIDIA Tegra X1): 4 cores at 1.9 GHz, NEON (4-lane FP32
  FMA), 32 KiB L1 / 48 KiB L1D per core, a 2 MiB shared L2 and no L3, with
  far lower memory bandwidth.

The paper's central claim — that the best primitive/layout mix is *platform
dependent* — only bites if platforms are pluggable, so this module is a
**registry**, not a hard-coded pair.  Two further modelled backends ship with
the reproduction: an AVX-512 server part (:data:`avx512_server`) and a
GPU-shaped accelerator (:data:`gpu_sim`).

A :class:`Platform` captures the parameters the analytical cost model prices:
SIMD width, per-core arithmetic throughput, the cache hierarchy and the
memory-system bandwidths, plus a handful of calibration factors describing
how efficiently layout-transformation code and vendor frameworks use the
machine.  The numbers are public figures for the modelled processors; the
model only relies on their *relative* magnitudes to reproduce the shape of
the paper's results.

Adding a platform
-----------------

Construct a :class:`Platform` and pass it through :func:`register_platform`
(usable directly or as a decorator on a zero-argument factory)::

    my_part = register_platform(Platform(
        name="my-part", cores=4, frequency_ghz=2.0, vector_width=8, ...,
        features=frozenset({"x86", "avx2"}),
    ))

The registered name is immediately accepted everywhere a platform name is:
:meth:`repro.api.Session.plan`, the CLI's ``--platform`` flag (and listed
by ``repro platforms``), the experiment harnesses, and the cost store (whose
on-disk keys carry :data:`PLATFORM_REGISTRY_VERSION` plus a digest of the
platform's parameters, so editing a platform's numbers invalidates its
cached tables instead of silently serving stale ones).

``features`` is a free-form capability set consulted by
:meth:`repro.primitives.base.ConvPrimitive.supports` (per-platform primitive
gating), by :class:`repro.cost.analytical.AnalyticalCostModel` (e.g. SIMT
lane mapping, AVX-512 frequency derating, kernel-launch overhead) and by
:attr:`repro.core.strategies.Strategy.applies_to` (framework-emulation
gating).  The feature names used by the built-in platforms are:

=====================  =========================================================
feature                meaning
=====================  =========================================================
``x86``                x86 server/desktop part (MKL-DNN emulation applies)
``avx2``               256-bit SIMD ISA available
``avx512``             512-bit SIMD ISA available; GEMM-shaped kernels are
                       recompiled to the full width (and frequency-derated)
``neon``               ARM NEON part (ARM Compute Library emulation applies)
``frequency-derating`` wide-vector execution lowers the sustained clock
``deep-cache``         classic multi-level private/shared cache hierarchy
``simt``               GPU-shaped: variants are mapped across the machine
                       width by the compiler, memory latency is hidden by
                       oversubscription, and every call is a kernel launch
``high-bandwidth``     memory system an order of magnitude above desktop DDR
``vnni``               int8 dot-product ISA (AVX-512 VNNI): four 8-bit MACs
                       per fp32 lane, so int8 runs at 4x the fp32 rate
``dotprod``            8-bit dot-product instructions (ARM SDOT/UDOT,
                       dp4a-class on devices): same 4x int8 lane packing
``fp16-fast``          native half-precision arithmetic at twice the fp32
                       rate (packed fp16 math units, not just storage)
=====================  =========================================================

Precision capability gating: without ``vnni``/``dotprod`` an int8 scenario
still *runs* (the kernels exist everywhere), but its arithmetic is priced at
the fp32 lane rate — only the memory traffic shrinks.  Likewise ``fp16-fast``
is what turns fp16 from a storage format into a throughput win.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, FrozenSet, List, Union


#: Version of the platform registry's modelling schema.  Participates in
#: cost-store keys (together with the per-platform parameter digest), so
#: bumping it — or editing any platform's numbers — invalidates previously
#: persisted cost tables instead of silently serving them.  History: "2"
#: opened the registry (PR 5); "3" added the precision capability features
#: (``vnni``/``dotprod``/``fp16-fast``) and dtype-aware pricing.
PLATFORM_REGISTRY_VERSION = "3"


@dataclass(frozen=True)
class Platform:
    """An execution platform priced by the analytical cost model.

    Attributes
    ----------
    name:
        Identifier used in reports (``"intel-haswell"``, ``"gpu-sim"``).
    cores:
        Number of CPU cores available for multithreaded execution (1 for
        device-shaped platforms whose whole machine serves one stream).
    frequency_ghz:
        Core clock frequency.
    vector_width:
        Native FP32 SIMD lanes (8 for AVX2, 4 for NEON, 16 for AVX-512;
        for SIMT platforms the *effective* machine-mapped width).
    fma_per_cycle:
        Fused multiply-add instructions issued per cycle per core (2 for
        Haswell's dual FMA pipes, 1 for the Cortex-A57; for device-shaped
        platforms this folds the SM/CU count into one "core").
    l1_kib, l2_kib, l3_kib:
        Cache sizes; ``l2_shared`` / ``l3_kib = 0`` describe the ARM part's
        shared L2 and missing L3.
    l2_shared:
        Whether the L2 is shared between cores (true for the Cortex-A57).
    cache_bandwidth_gbps:
        Sustainable bandwidth when the working set fits in the last-level
        cache.
    dram_bandwidth_gbps:
        Sustainable DRAM streaming bandwidth.
    transform_efficiency:
        Fraction of streaming bandwidth achieved by data-layout
        transformation routines (strided gather/scatter loops run far below
        memcpy speed, especially on the in-order-ish ARM memory system;
        coalesced SIMT gathers do much better).
    mt_bandwidth_scaling:
        Factor by which usable bandwidth grows when all cores stream
        simultaneously (memory systems do not scale with core count).
    framework_overhead_ms:
        Fixed per-layer dispatch/allocation overhead charged to the vendor
        framework comparators (Caffe-class frameworks re-allocate column
        buffers and spawn OpenBLAS threads per layer).
    wide_vector_derating:
        Multiplier on the sustained clock while executing vector code wider
        than 256 bits (AVX-512 license-based downclocking on server parts);
        1.0 everywhere else.
    launch_overhead_s:
        Fixed cost of dispatching one kernel to the device, in seconds
        (driver + queue latency).  Zero for CPUs; on GPU-shaped platforms it
        is what makes small layers launch-bound.
    features:
        Capability set consulted by primitive gating, the analytical model
        and the strategy registry (see the module docstring for the names
        the built-in platforms use).
    """

    name: str
    cores: int
    frequency_ghz: float
    vector_width: int
    fma_per_cycle: float
    l1_kib: int
    l2_kib: int
    l3_kib: int
    l2_shared: bool
    cache_bandwidth_gbps: float
    dram_bandwidth_gbps: float
    transform_efficiency: float
    mt_bandwidth_scaling: float
    framework_overhead_ms: float
    wide_vector_derating: float = 1.0
    launch_overhead_s: float = 0.0
    features: FrozenSet[str] = field(default_factory=frozenset)

    # -- capabilities ------------------------------------------------------------

    def has_feature(self, feature: str) -> bool:
        """Whether this platform declares a capability."""
        return feature in self.features

    # -- derived throughputs ----------------------------------------------------

    def peak_gflops_per_core(self, vector_lanes: int) -> float:
        """Peak GFLOP/s of one core using ``vector_lanes`` FP32 lanes per FMA."""
        lanes = max(1, min(vector_lanes, self.vector_width))
        return self.frequency_ghz * self.fma_per_cycle * 2.0 * lanes

    def last_level_cache_bytes(self) -> int:
        """Capacity of the last level of cache shared by the cores."""
        if self.l3_kib > 0:
            return self.l3_kib * 1024
        return self.l2_kib * 1024

    def per_core_cache_bytes(self) -> int:
        """Private cache capacity of a single core."""
        if self.l2_shared:
            return self.l1_kib * 1024
        return self.l2_kib * 1024

    def digest(self) -> str:
        """A short stable digest of every modelled parameter.

        Cost-store keys include it (via :func:`platform_version`), so two
        platforms that share a name but differ in any number never alias
        each other's persisted tables.
        """
        parts = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, frozenset):
                value = ",".join(sorted(value))
            parts.append(f"{spec.name}={value!r}")
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

#: All registered platforms, keyed by name, in registration order.  This dict
#: IS the registry storage — kept under its historical name so existing
#: imports keep seeing newly registered platforms.
PLATFORMS: Dict[str, Platform] = {}


def register_platform(
    platform: Union[Platform, Callable[[], Platform]],
) -> Platform:
    """Publish a platform in the global registry.

    Accepts a :class:`Platform` directly, or — decorator style — a
    zero-argument factory that builds one.  Returns the registered platform
    either way.  Duplicate names are rejected.
    """
    if not isinstance(platform, Platform):
        platform = platform()
    if not platform.name:
        raise ValueError("platform must have a non-empty name")
    if platform.name in PLATFORMS:
        raise ValueError(f"duplicate platform name {platform.name!r}")
    PLATFORMS[platform.name] = platform
    return platform


def unregister_platform(name: str) -> Platform:
    """Remove (and return) a registered platform — for tests and embedders."""
    try:
        return PLATFORMS.pop(name)
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; registered platforms: {sorted(PLATFORMS)}"
        ) from None


def get_platform(name: str) -> Platform:
    """Look up a registered platform, with the valid names in the error."""
    try:
        return PLATFORMS[name]
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; registered platforms: {sorted(PLATFORMS)}"
        ) from None


def list_platforms() -> List[str]:
    """Names of all registered platforms, in registration order."""
    return list(PLATFORMS)


def platform_version(platform: Platform) -> str:
    """The registry-version-qualified parameter digest of one platform.

    This is the string cost-store keys carry: it changes when the registry's
    modelling schema is bumped *or* when the platform's own numbers change.
    """
    return f"{PLATFORM_REGISTRY_VERSION}:{platform.digest()}"


# ---------------------------------------------------------------------------
# Built-in platforms
# ---------------------------------------------------------------------------

#: Intel Core i5-4570 (Haswell) as used in the paper's desktop evaluation.
intel_haswell = register_platform(
    Platform(
        name="intel-haswell",
        cores=4,
        frequency_ghz=3.2,
        vector_width=8,
        fma_per_cycle=2.0,
        l1_kib=32,
        l2_kib=256,
        l3_kib=6144,
        l2_shared=False,
        cache_bandwidth_gbps=180.0,
        dram_bandwidth_gbps=21.0,
        transform_efficiency=0.05,
        mt_bandwidth_scaling=1.6,
        framework_overhead_ms=6.0,
        features=frozenset({"x86", "avx2", "deep-cache"}),
    )
)

#: ARM Cortex-A57 (NVIDIA Tegra X1) as used in the paper's embedded evaluation.
arm_cortex_a57 = register_platform(
    Platform(
        name="arm-cortex-a57",
        cores=4,
        frequency_ghz=1.9,
        vector_width=4,
        fma_per_cycle=1.0,
        l1_kib=32,
        l2_kib=2048,
        l3_kib=0,
        l2_shared=True,
        cache_bandwidth_gbps=35.0,
        dram_bandwidth_gbps=10.0,
        transform_efficiency=0.015,
        mt_bandwidth_scaling=1.4,
        framework_overhead_ms=25.0,
        # The Cortex-A57 itself predates SDOT, but the Tegra X1 deployment
        # target the paper models is exactly where ARM's int8 dot-product
        # path (ACL's quantized kernels) is the production configuration.
        features=frozenset({"arm", "neon", "dotprod"}),
    )
)

#: Skylake-SP-like AVX-512 server part: 16-lane FP32 FMA on dual 512-bit
#: pipes, 1 MiB private L2 per core, a big shared L3 and six-channel DDR4.
#: GEMM-shaped vf8 kernels are recompiled to the full 512-bit width by the
#: analytical model (``avx512`` feature) at the cost of the license-based
#: frequency derating (``wide_vector_derating``), which is also what derates
#: the large-tile Winograd variants relative to a non-throttling part.
avx512_server = register_platform(
    Platform(
        name="avx512-server",
        cores=8,
        frequency_ghz=2.6,
        vector_width=16,
        fma_per_cycle=2.0,
        l1_kib=32,
        l2_kib=1024,
        l3_kib=11264,
        l2_shared=False,
        cache_bandwidth_gbps=400.0,
        dram_bandwidth_gbps=85.0,
        transform_efficiency=0.06,
        mt_bandwidth_scaling=2.2,
        framework_overhead_ms=4.0,
        wide_vector_derating=0.85,
        features=frozenset(
            {"x86", "avx2", "avx512", "frequency-derating", "deep-cache", "vnni"}
        ),
    )
)

#: GPU-shaped accelerator: one "core" stands for the whole device (threads do
#: not subdivide it), ``vector_width`` is the effective machine-mapped SIMT
#: width and ``fma_per_cycle`` folds the SM count in, giving ~5.3 TFLOP/s
#: FP32 peak.  No deep cache hierarchy (a small shared L2, latency hidden by
#: oversubscription rather than by capacity), near-TB/s memory, efficient
#: coalesced layout transforms — and a fixed per-kernel-launch overhead that
#: makes small layers launch-bound (the number the paper's per-layer
#: formulation makes visible to the selector).
gpu_sim = register_platform(
    Platform(
        name="gpu-sim",
        cores=1,
        frequency_ghz=1.3,
        vector_width=64,
        fma_per_cycle=32.0,
        l1_kib=192,
        l2_kib=4096,
        l3_kib=0,
        l2_shared=True,
        cache_bandwidth_gbps=900.0,
        dram_bandwidth_gbps=450.0,
        transform_efficiency=0.30,
        mt_bandwidth_scaling=1.0,
        framework_overhead_ms=0.2,
        launch_overhead_s=5e-6,
        features=frozenset({"simt", "high-bandwidth", "fp16-fast", "dotprod"}),
    )
)
