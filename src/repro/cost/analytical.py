"""Analytical (simulated-platform) cost model.

The paper profiles hand-optimized C/assembly primitives on two physical
machines.  Those kernels and machines are not available here, so this module
prices every primitive on a modelled platform instead.  The model is a
calibrated roofline:

* **Compute time** — the primitive's actual arithmetic operation count (which
  differs per algorithm: Winograd performs fewer multiplications, FFT has a
  different asymptotic count, im2/kn2/direct perform the textbook count)
  divided by the throughput the variant can realistically extract from the
  platform.  Throughput depends on the variant's vectorization factor versus
  the platform's SIMD width, on how much of the work is GEMM-shaped, on the
  loop-nest locality, on how small the layer is (fixed per-call overheads),
  and on how badly the algorithm's working set overflows the cache hierarchy
  (the "cache pressure" term — the mechanism that makes low-memory 1D
  Winograd preferable on the small-cache Cortex-A57 while the large-cache
  Haswell prefers the operation-minimal 2D form, as in Figure 4).
* **Memory time** — tensor plus workspace traffic divided by the achievable
  bandwidth (cache versus DRAM, depending on footprint).
* The layer time is the roofline maximum of the two, plus fixed per-call
  overhead, scaled for multithreaded execution by the family's parallel
  efficiency (compute) and the platform's bandwidth scaling (memory).

Layout transformations are priced as pure data movement at the platform's
transform efficiency — strided gather/scatter loops achieve a small fraction
of streaming bandwidth, which is what makes careless layout churn so
expensive (section 5.8 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.cost.platform import Platform
from repro.graph.scenario import DTYPE_ITEMSIZE, ConvScenario
from repro.layouts.transforms import LayoutTransform
from repro.primitives.base import ConvPrimitive, PricingRow

#: Modelled per-layer top-1 accuracy loss (fraction) of running one
#: convolution below fp32.  A proxy, not a measurement: the values encode the
#: well-established ordering — fp16 is near-lossless, int8 post-training
#: quantization costs a little per layer, and int8 *Winograd* costs several
#: times more because the fractional tile transforms amplify quantization
#: noise before the element-wise product.  Losses are additive across a
#: network's layers (like the time objective), which is how the frontier gets
#: a genuine accuracy-vs-speed axis.
DTYPE_ACCURACY_LOSS = {"fp32": 0.0, "fp16": 2e-5, "int8": 1e-3}

#: Multiplier on the int8 loss for the Winograd family (transform noise).
WINOGRAD_INT8_PENALTY = 5.0


@dataclass(frozen=True)
class ModelParameters:
    """Calibration constants of the analytical model.

    The defaults were calibrated once against the qualitative structure of the
    paper's figures (Figures 5-7, Tables 2 and 3); they are exposed so the
    ablation benchmarks can vary them.
    """

    #: Fraction of peak achieved by well-blocked GEMM-shaped inner kernels.
    #: Calibrated low: the paper's measured throughputs (Tables 2/3 versus the
    #: networks' operation counts) correspond to a modest fraction of AVX2/NEON
    #: peak even for the best primitives.
    gemm_efficiency: float = 0.30
    #: Baseline fraction of peak achieved by non-GEMM scalar/loop code.
    loop_efficiency_base: float = 0.10
    #: Additional fraction of peak per unit of loop-nest locality score.
    loop_efficiency_locality: float = 0.50
    #: Throughput penalty applied per unit of (working set / last-level cache).
    cache_pressure: float = 0.30
    #: Throughput multiplier when a variant's vector factor exceeds the
    #: platform's native SIMD width (the wide variant must be emulated).
    vector_emulation_penalty: float = 0.35
    #: Fraction of the extra SIMD lanes that plain (direct/sum2d) loop nests
    #: actually exploit: compilers auto-vectorize the six-deep loop nest
    #: poorly, which is why the paper finds direct loops "more often very
    #: slow" despite nominally vectorized variants existing.
    direct_vector_efficiency: float = 0.04
    #: FLOP-equivalent size below which a layer is "small" and per-call
    #: overheads dominate; used to damp efficiency on tiny layers.
    small_work_flops: float = 4.0e6
    #: Penalty per unit of inner-working-set overflow of the per-core cache
    #: (see :meth:`ConvPrimitive.inner_working_set_elements`).
    inner_cache_pressure: float = 1.0
    #: Fraction of streaming bandwidth achieved by workspace (scatter/gather)
    #: traffic relative to the platform's cache bandwidth.
    workspace_traffic_weight: float = 2.0
    #: Fraction of the machine's SIMT width a GEMM/transform-shaped variant
    #: actually occupies on a ``simt`` platform (warp scheduling and tail
    #: effects keep it below 1).
    simt_lane_efficiency: float = 0.80
    #: Multiplier on the cache-pressure penalty on ``simt`` platforms:
    #: oversubscription hides most capacity-miss latency, so overflowing the
    #: (small) last-level cache hurts far less than on a CPU.
    simt_pressure_relief: float = 0.25
    #: Fraction of an ``avx512`` platform's full vector width that recompiled
    #: 256-bit GEMM-shaped kernels achieve (the compiler re-vectorizes the
    #: inner loops; tails and port pressure eat some of the doubling).
    wide_recompile_efficiency: float = 0.85
    #: Energy proxy: picojoules per arithmetic operation.  Together with the
    #: per-byte terms below this prices an *energy ordering* of primitives
    #: that deliberately differs from the time ordering — FFT spends few
    #: operations on much traffic, the direct loops spend many operations on
    #: little traffic — so the multi-objective frontier is genuinely
    #: three-dimensional rather than time re-scaled.
    energy_per_flop_pj: float = 0.7
    #: Picojoules per byte served from the per-core cache tier.
    energy_per_cache_byte_pj: float = 0.6
    #: Picojoules per byte served from the last-level cache tier.
    energy_per_llc_byte_pj: float = 2.0
    #: Picojoules per byte served from DRAM (an order of magnitude above
    #: on-chip accesses — the classic "data movement dominates" asymmetry).
    energy_per_dram_byte_pj: float = 15.0


class LayerColumns(NamedTuple):
    """The per-layer inputs of the pricing formula, one column each.

    :meth:`AnalyticalCostModel.price_layers` derives one row per layer in
    Python and repeats it over that layer's primitives, so these columns
    line up with the :class:`~repro.primitives.base.PricingRow` columns.
    """

    itemsize: float
    #: Whole-batch input + output + kernel bytes.
    tensor_bytes: float
    #: The same for one image.
    tensor_bytes_image: float
    #: Quantize/dequantize traffic at the layer boundary.
    conversion_bytes: float
    #: Arithmetic-rate multiplier of the precision's lane packing.
    precision_rate: float
    c: float
    groups: float
    #: Input channels per group.
    group_c: float
    #: Inner dimension of the im2 GEMM: ``group_c * k * k``.
    inner: float
    batch: float
    #: Accuracy loss of the layer's precision.
    base_loss: float
    #: The layer runs at int8.
    int8: float


class AnalyticalCostModel:
    """Price primitives and layout transformations on a modelled platform."""

    name = "analytical"
    #: Bump when the model's pricing changes incompatibly.
    version = "1"

    def __init__(self, platform: Platform, parameters: ModelParameters | None = None) -> None:
        self.platform = platform
        self.parameters = parameters or ModelParameters()

    # -- primitives -----------------------------------------------------------------

    def price_layers(
        self,
        layers: Sequence[Tuple[Sequence[ConvPrimitive], ConvScenario]],
        threads: int = 1,
    ) -> List[List[Tuple[float, float, float, float]]]:
        """Price every primitive of every layer: the single analytical formula.

        ``layers`` is an ordered sequence of ``(primitives, scenario)`` pairs;
        the result holds, per layer and in order, one ``(time_s,
        workspace_bytes, energy_j, accuracy_loss)`` tuple per primitive.
        This is the model's only primitive query, and
        :func:`~repro.cost.tables.build_cost_tables` calls it once per table
        build, with every distinct scenario of the network.

        The formula runs once, over the concatenated rows of all layers, with
        every branch a mask.  The scenario invariants (tensor bytes, quantize
        traffic, precision rate, channel and group counts, GEMM inner
        dimension, batch, accuracy loss) are derived in Python once per layer
        and repeated over that layer's rows (:class:`LayerColumns`).  Each
        primitive's static inputs (traits, vector factor, family and
        input-layout flags) come from its
        :attr:`~repro.primitives.base.ConvPrimitive.pricing_row`, fixed once
        per primitive; only the operation count, workspace and inner working
        set are asked of each primitive per layer.  Every element goes
        through the same IEEE operations, in the same order, as a
        per-primitive scalar evaluation would, so the floats are identical to
        it and to pricing each layer alone.

        **Time.**  Batched scenarios are priced with per-image working sets
        (a minibatch streams its images through the same blocked loops and
        scratch buffers) but whole-batch totals for arithmetic, traffic and
        footprint.  Fixed per-call setup — dispatch, packing, kernel
        transforms — is charged once per invocation, so a batch amortizes it:
        this is what lets transform/GEMM-heavy families overtake the direct
        loops as the batch grows.

        **Workspace** is the peak per-image scratch footprint, at the
        scenario's precision — int8 scratch is a quarter of the fp32
        footprint, one of quantized inference's classic wins on
        memory-constrained parts.

        **Energy** is operations times a per-flop energy plus memory traffic
        times a per-byte energy whose tier follows the same footprint
        classification as the bandwidth model.  Threads do not change the
        energy: the same work is done, merely faster.

        **Accuracy loss** (additive top-1 fraction) is zero at fp32.  The
        Winograd family pays :data:`WINOGRAD_INT8_PENALTY` times the base int8
        loss: its fractional tile transforms run over the quantized operands,
        amplifying the rounding noise (the alternative — declining int8
        outright — would hide a real, sometimes-worth-it trade-off from the
        frontier).
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        counts = [len(primitives) for primitives, _ in layers]
        if not any(counts):
            return [[] for _ in layers]
        platform = self.platform
        params = self.parameters

        layer_rows = []
        pricing_rows = []
        ops_list = []
        workspace_list = []
        inner_list = []
        for primitives, scenario in layers:
            layer_rows.append(self._layer_row(scenario))
            per_image = scenario.per_image
            for primitive in primitives:
                pricing_rows.append(primitive.pricing_row)
                # Scenario-dependent work estimates, per primitive.
                ops_list.append(primitive.arithmetic_ops(scenario))
                # Per-image scratch footprint (buffers are reused across the
                # batch).
                workspace_list.append(primitive.workspace_elements(per_image))
                inner_list.append(primitive.inner_working_set_elements(per_image))

        # One array per input, one entry per row; the flag columns become
        # masks.  Each branch of the formula is computed for every row and
        # selected with ``np.where``.
        layer = LayerColumns._make(np.repeat(np.array(layer_rows, dtype=float), counts, axis=0).T)
        columns = PricingRow._make(np.array(pricing_rows, dtype=float).T)
        vector_factor = columns.vector_factor
        plain_loops = columns.plain_loops != 0.0
        ops = np.array(ops_list, dtype=float)
        workspace_bytes = layer.itemsize * np.array(workspace_list, dtype=float)
        inner_bytes = layer.itemsize * np.array(inner_list, dtype=float)

        simt = platform.has_feature("simt")
        wide_recompile = platform.has_feature("avx512") and platform.vector_width > 8
        llc = platform.last_level_cache_bytes()
        per_core = platform.per_core_cache_bytes()
        threads = min(threads, platform.cores)
        scalar_peak = platform.peak_gflops_per_core(1) * 1e9
        vector_width = platform.vector_width

        # ---- effective SIMD throughput ----------------------------------
        if simt:
            # SIMT machines map any variant across the full machine width at
            # compile time, so the CPU-oriented per-variant vector factor is
            # irrelevant — but plain loop nests still occupy the lanes poorly
            # (divergent, uncoalesced inner loops), which is what pushes the
            # selector toward the GEMM/transform families even at batch 1.
            lanes = np.where(
                plain_loops,
                1.0 + (vector_width - 1.0) * params.direct_vector_efficiency,
                vector_width * params.simt_lane_efficiency,
            )
        else:
            lanes = np.minimum(vector_factor, vector_width)
            # Plain loop nests only extract a fraction of the nominal SIMD width.
            lanes = np.where(
                plain_loops, 1.0 + (lanes - 1.0) * params.direct_vector_efficiency, lanes
            )
            if wide_recompile:
                # 256-bit GEMM-shaped kernels are recompiled to the full
                # 512-bit width on AVX-512 parts (the paper's VF is a proxy
                # for "written for wide SIMD", not a hard register width).
                lanes = np.where(
                    ~plain_loops & (vector_factor >= 8),
                    vector_width * params.wide_recompile_efficiency,
                    lanes,
                )
        # Wide-vector execution derates the sustained clock on
        # frequency-throttling parts (AVX-512 license-based downclocking) —
        # which also derates the big-tile Winograd variants' advantage there.
        frequency = platform.frequency_ghz
        if platform.wide_vector_derating != 1.0:
            frequency = np.where(
                lanes > 8.0, frequency * platform.wide_vector_derating, frequency
            )
        peak = frequency * platform.fma_per_cycle * 2.0 * lanes * 1e9
        if not simt:
            peak = np.where(
                vector_factor > vector_width, peak * params.vector_emulation_penalty, peak
            )
        # Precision lane packing: the same vector registers hold 2x fp16 or
        # 4x int8 elements, but only where the ISA has the arithmetic to
        # exploit it (``fp16-fast`` packed-half math; ``vnni``/``dotprod``
        # 8-bit dot products).  Plain loop nests gain nothing — the packed
        # instructions are GEMM-kernel tools — so reduced precision pushes
        # the selector further toward the GEMM/transform families.  Without
        # the feature the narrow operands compute at the fp32 rate and only
        # the memory traffic shrinks.
        peak = np.where(plain_loops, peak, peak * layer.precision_rate)

        # ---- utilization --------------------------------------------------
        utilization = self._utilization(layer, columns, plain_loops)

        # Small layers cannot amortize call / packing overheads.
        work_scale = ops / (ops + params.small_work_flops)
        utilization = utilization * (0.25 + 0.75 * work_scale)

        # Cache pressure: working sets that overflow the last-level cache
        # force the inner kernels to run at memory speed part of the time.
        # The pressure is per image — a batch streams image working sets
        # through the cache one after another, it does not hold them all at
        # once.
        pressure = (
            params.cache_pressure * (workspace_bytes + 0.5 * layer.tensor_bytes_image) / llc
        )
        if simt:
            # Latency hiding by oversubscription: capacity misses cost far
            # less than on a CPU, where the inner loops stall on them.
            pressure = pressure * params.simt_pressure_relief
        utilization = utilization / (1.0 + pressure)

        # Inner working-set pressure: the per-core cache must hold whatever
        # the innermost stage keeps live (e.g. 2D Winograd's per-tile
        # transformed slabs); overflowing it stalls the inner loops on every
        # pass.  SIMT machines have no such private capacity cliff — tiles are
        # staged through shared memory and misses overlap with other warps.
        # Only the overflowing lanes are divided: elsewhere the divisor can
        # be exactly zero.
        if not simt:
            over = inner_bytes > per_core
            utilization[over] = utilization[over] / (
                1.0 + params.inner_cache_pressure * (inner_bytes[over] / per_core - 1.0)
            )

        compute_seconds = ops / (peak * np.maximum(utilization, 1e-3))

        # ---- memory time and energy tier ----------------------------------
        # Tensor traffic covers the whole batch already; the per-image
        # workspace is written and read once per image.  The bandwidth (and
        # energy) tier is chosen from the *per-image* footprint, consistent
        # with the streaming assumption above: a batch passes one image's
        # working set through the cache at a time, so growing the batch
        # scales the traffic linearly without demoting the whole layer to
        # DRAM bandwidth.
        traffic_bytes = (
            layer.tensor_bytes + params.workspace_traffic_weight * workspace_bytes * layer.batch
        )
        traffic_bytes = traffic_bytes + layer.conversion_bytes
        footprint = layer.tensor_bytes_image + workspace_bytes
        in_cache = footprint <= per_core
        in_llc = footprint <= llc
        bandwidth = np.where(
            in_cache,
            platform.cache_bandwidth_gbps,
            np.where(in_llc, 0.6 * platform.cache_bandwidth_gbps, platform.dram_bandwidth_gbps),
        )
        per_byte_pj = np.where(
            in_cache,
            params.energy_per_cache_byte_pj,
            np.where(in_llc, params.energy_per_llc_byte_pj, params.energy_per_dram_byte_pj),
        )
        memory_seconds = traffic_bytes / (bandwidth * 1e9)

        # ---- threading ------------------------------------------------------
        if threads > 1:
            speedup = 1.0 + (threads - 1) * columns.parallel_efficiency
            compute_seconds = compute_seconds / speedup
            memory_seconds = memory_seconds / platform.mt_bandwidth_scaling

        # ---- fixed overhead ---------------------------------------------------
        # Transform- and GEMM-based families dispatch once per channel group
        # (patch-matrix construction, Winograd/FFT transforms are all set up
        # per group), so grouped and depthwise scenarios multiply their
        # per-call overhead; the direct loop nests fold grouping into the
        # channel loop and are charged once.
        call_count = np.where(plain_loops, 1.0, layer.groups)
        overhead_seconds = columns.per_call_overhead_ops * call_count / scalar_peak
        # Device-shaped platforms pay a fixed driver/queue latency per kernel
        # launch (once per dispatch, regardless of batch — the batch rides in
        # the same launch), which is what makes small layers launch-bound.
        overhead_seconds = overhead_seconds + platform.launch_overhead_s * call_count

        loss = np.where(
            (layer.int8 != 0.0) & (columns.winograd != 0.0),
            layer.base_loss * WINOGRAD_INT8_PENALTY,
            layer.base_loss,
        )
        time_s = np.maximum(compute_seconds, memory_seconds) + overhead_seconds
        energy = 1e-12 * (ops * params.energy_per_flop_pj + traffic_bytes * per_byte_pj)
        rows = list(
            zip(time_s.tolist(), workspace_bytes.tolist(), energy.tolist(), loss.tolist())
        )
        priced = []
        start = 0
        for count in counts:
            priced.append(rows[start : start + count])
            start += count
        return priced

    def _layer_row(self, scenario: ConvScenario) -> LayerColumns:
        """One layer's scalar inputs of the formula, computed in Python."""
        per_image = scenario.per_image
        # Bytes per element at the scenario's precision: fp16/int8 halve or
        # quarter every byte count, which is the memory-side half of the
        # quantization win (the lane-packing half is the precision rate).
        itemsize = float(scenario.itemsize)
        group_c = scenario.c // scenario.groups
        return LayerColumns(
            itemsize=itemsize,
            # The kernel is shared across the batch.
            tensor_bytes=itemsize
            * (scenario.input_elements() + scenario.output_elements() + scenario.kernel_elements()),
            # What the inner loops keep in flight at once.
            tensor_bytes_image=itemsize
            * (
                per_image.input_elements()
                + per_image.output_elements()
                + per_image.kernel_elements()
            ),
            conversion_bytes=self._conversion_bytes(scenario),
            precision_rate=self._precision_rate(scenario.dtype),
            c=scenario.c,
            groups=scenario.groups,
            group_c=group_c,
            inner=group_c * scenario.k * scenario.k,
            batch=scenario.batch,
            base_loss=DTYPE_ACCURACY_LOSS[scenario.dtype],
            int8=scenario.dtype == "int8",
        )

    def _precision_rate(self, dtype: str) -> float:
        """Arithmetic-rate multiplier the platform's ISA grants a precision."""
        platform = self.platform
        if dtype == "fp16" and platform.has_feature("fp16-fast"):
            return 2.0
        if dtype == "int8" and (
            platform.has_feature("vnni") or platform.has_feature("dotprod")
        ):
            return 4.0
        return 1.0

    def _conversion_bytes(self, scenario: ConvScenario) -> float:
        """Byte traffic of the quantize/dequantize passes at a layer boundary.

        The graph's interchange stays fp32, so a quantized layer reads its
        fp32 activations once and writes the narrow form on entry, and writes
        fp32 back on exit (weights are pre-quantized at deployment time, like
        the pre-transformed Winograd kernels).  These are the dt-graph's
        conversion edges extended to the precision axis: sequential streaming
        passes, so they ride the same bandwidth tier as the tensor traffic
        rather than the strided-transform efficiency.
        """
        if not scenario.is_quantized:
            return 0.0
        fp32_bytes = float(DTYPE_ITEMSIZE["fp32"])
        boundary_elements = scenario.input_elements() + scenario.output_elements()
        return (fp32_bytes + float(scenario.itemsize)) * boundary_elements

    def _utilization(
        self, layer: "LayerColumns", columns: PricingRow, plain_loops: np.ndarray
    ) -> np.ndarray:
        """Fraction of peak each variant achieves, before size/cache effects."""
        params = self.parameters
        locality = columns.locality

        # Layout/scenario interactions for the direct-loop family: channel-minor
        # layouts stream well when there are few channels, blocked channel-major
        # layouts need enough channels to fill their blocks.  This is what makes
        # the per-layer-greedy "direct" strategy flip between layouts across a
        # network and pay for it in transformations (section 5.8).
        adjusted = np.where(
            plain_loops & (columns.channel_minor != 0.0),
            locality + np.where(layer.c <= 128, 0.15, -0.10),
            locality,
        )
        adjusted = np.where(
            plain_loops & (columns.blocked != 0.0),
            adjusted + np.where(layer.c >= 4 * columns.channel_block, 0.10, -0.10),
            adjusted,
        )
        locality = np.where(
            plain_loops, np.minimum(np.maximum(adjusted, 0.05), 0.95), locality
        )

        gemm_util = params.gemm_efficiency
        # GEMM shapes are per channel group: a grouped (and especially a
        # depthwise) convolution runs one GEMM per group over C/groups input
        # channels, so the inner dimension the efficiency depends on shrinks
        # accordingly.
        group_c = layer.group_c
        # kn2 performs K*K skinny GEMMs whose inner dimension is the channel
        # count; few channels means poor GEMM efficiency (Table 1 "bad case").
        # im2's single GEMM has inner dimension (C/groups)*K*K; only
        # degenerate layers (tiny C and K) hurt it.
        inner = layer.inner
        gemm_util = np.where(
            columns.kn2 != 0.0,
            gemm_util * (group_c / (group_c + 48.0)),
            np.where(columns.im2 != 0.0, gemm_util * (inner / (inner + 12.0)), gemm_util),
        )

        loop_util = params.loop_efficiency_base + params.loop_efficiency_locality * locality
        gemm_fraction = columns.gemm_fraction
        return gemm_fraction * gemm_util + (1.0 - gemm_fraction) * loop_util

    # -- layout transformations -------------------------------------------------------

    def transform_energy(
        self,
        transform: LayoutTransform,
        shape: Tuple[int, int, int],
        batch: int = 1,
        dtype: str = "fp32",
    ) -> float:
        """Energy proxy (joules) of one layout transformation.

        Gather/scatter loops stream through memory, so every moved byte is
        charged at the DRAM rate; layout conversions contribute no scratch
        workspace beyond the destination tensor (already counted as traffic).
        Narrow precisions move proportionally fewer bytes.
        """
        bytes_moved = float(DTYPE_ITEMSIZE[dtype]) * batch * transform.element_traffic(*shape)
        return 1e-12 * bytes_moved * self.parameters.energy_per_dram_byte_pj

    def transform_cost(
        self,
        transform: LayoutTransform,
        shape: Tuple[int, int, int],
        threads: int = 1,
        batch: int = 1,
        dtype: str = "fp32",
    ) -> float:
        """Modelled execution time (seconds) of one direct layout transformation.

        ``shape`` is the per-image ``(C, H, W)`` shape; a batched tensor moves
        ``batch`` times the data in a single call, so the gather/scatter
        traffic scales with the batch while the dispatch cost is paid once.
        ``dtype`` scales the moved bytes: a conversion edge between two int8
        layouts gathers quarter-width elements, so quantized plans pay less
        for layout churn — a second way precision shifts the selections.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        platform = self.platform
        bytes_moved = float(DTYPE_ITEMSIZE[dtype]) * batch * transform.element_traffic(*shape)
        bandwidth = platform.dram_bandwidth_gbps * platform.transform_efficiency * 1e9
        seconds = bytes_moved / bandwidth
        if threads > 1:
            # Gather/scatter loops are bandwidth bound; extra cores help only a little.
            seconds /= platform.mt_bandwidth_scaling
        # Fixed dispatch cost per transformation call; on device-shaped
        # platforms every conversion is its own kernel launch, so careless
        # layout churn costs launches even when the data movement is cheap.
        return seconds + max(2e-6, platform.launch_overhead_s)
