"""Execute a network plan on real tensors.

:class:`NetworkExecutor` is the runtime half of the paper's "simple code
generator which emitted calls to primitive operations in our library": it
walks the plan's layers in topological order, converts tensors between data
layouts exactly where the legalizer placed conversion chains, runs the
selected convolution primitive for each convolution layer, and uses the
reference operators for everything else.  Inputs may be a single ``(C, H, W)``
image or an ``(N, C, H, W)`` minibatch; batched runs thread the ``N`` axis
through every primitive, layout conversion and reference operator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.plan import NetworkPlan
from repro.graph.layer import (
    ConcatLayer,
    ConvLayer,
    DropoutLayer,
    EltwiseAddLayer,
    FlattenLayer,
    FullyConnectedLayer,
    InputLayer,
    LRNLayer,
    PoolLayer,
    PoolMode,
    ReLULayer,
    SoftmaxLayer,
)
from repro.graph.network import Network
from repro.layouts.tensor import LayoutTensor
from repro.primitives.registry import PrimitiveLibrary
from repro.runtime import reference_ops
from repro.runtime.weights import WeightStore


@dataclass
class ExecutionTrace:
    """What happened during one forward pass."""

    layer_order: List[str] = field(default_factory=list)
    conversions_executed: int = 0
    wall_seconds: float = 0.0
    #: Number of images in the forward pass (1 for a single-image run).
    batch: int = 1
    #: Layer name -> measured compute time (seconds), conversions excluded.
    layer_seconds: Dict[str, float] = field(default_factory=dict)
    #: (producer, consumer) -> measured time (seconds) of the edge's
    #: layout-conversion chain; edges without an executed chain are absent.
    conversion_seconds: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: Layer name -> output tensor (kept only when tracing is enabled).
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def total_conversion_seconds(self) -> float:
        """Total measured time spent in layout conversions."""
        return sum(self.conversion_seconds.values())

    @property
    def conversion_seconds_per_image(self) -> Dict[Tuple[str, str], float]:
        """Per-image conversion cost of every executed chain.

        A batched conversion moves the whole minibatch in one call; dividing
        by the batch gives the per-image accounting the batch-scaling studies
        compare against single-image runs.
        """
        return {
            edge: seconds / self.batch for edge, seconds in self.conversion_seconds.items()
        }


class NetworkExecutor:
    """Run forward passes of a network according to a selection plan.

    Parameters
    ----------
    network:
        The DNN graph the plan was built for.
    plan:
        The selection plan (any strategy).
    library:
        The primitive library the plan's primitive names refer to.
    weights:
        Optional shared weight store, built for this very ``network`` object;
        pass the same store to two executors to compare their outputs on
        identical weights.
    seed:
        Seed of the store built when ``weights`` is omitted (default 0).
        Given together with ``weights``, it must equal ``weights.seed``.
    """

    def __init__(
        self,
        network: Network,
        plan: NetworkPlan,
        library: PrimitiveLibrary,
        weights: Optional[WeightStore] = None,
        seed: Optional[int] = None,
    ) -> None:
        if plan.network_name != network.name:
            raise ValueError(
                f"plan was built for network {plan.network_name!r}, got {network.name!r}"
            )
        if weights is None:
            weights = WeightStore(network, seed=0 if seed is None else seed)
        elif weights.network is not network:
            raise ValueError(
                f"weight store was built for another network object "
                f"({weights.network.name!r}), not the executed {network.name!r}"
            )
        elif seed is not None and seed != weights.seed:
            raise ValueError(f"seed {seed} disagrees with the weight store's seed {weights.seed}")
        self.network = network
        self.plan = plan
        self.library = library
        self.weights = weights
        self._shapes = network.infer_shapes()
        self._scenarios = network.conv_scenarios()
        self._edge_chain = {
            (edge.producer, edge.consumer): edge for edge in plan.edge_decisions
        }
        self._validate_multi_input_layouts()

    def _validate_multi_input_layouts(self) -> None:
        """Every inbound edge of a multi-input layer must deliver one layout.

        Plans built by :func:`~repro.core.legalize.finalize_plan` satisfy this
        by construction; this guards hand-assembled or deserialized plans,
        whose edge decisions arrive here unchecked.  A concat or eltwise-add
        fed two different layouts would silently mix physical orders.
        """
        for layer in self.network.layers():
            producers = self.network.inputs_of(layer.name)
            if len(producers) < 2:
                continue
            targets = {
                self._edge_chain[(producer, layer.name)].target_layout.name
                for producer in producers
            }
            if len(targets) > 1:
                raise ValueError(
                    f"plan is inconsistent: multi-input layer {layer.name!r} has "
                    f"inbound edges targeting different layouts {sorted(targets)}"
                )

    # -- execution --------------------------------------------------------------

    def run(
        self, input_chw: np.ndarray, keep_outputs: bool = False
    ) -> Union[np.ndarray, Dict[str, np.ndarray]]:
        """Execute one forward pass and return the network output.

        For a single-output network this is that output's CHW array; for a
        multi-output network it is a dict keyed by output layer name (see
        :meth:`run_traced`).
        """
        result, _ = self.run_traced(input_chw, keep_outputs=keep_outputs)
        return result

    def run_traced(
        self, input_chw: np.ndarray, keep_outputs: bool = False
    ) -> tuple[Union[np.ndarray, Dict[str, np.ndarray]], ExecutionTrace]:
        """Execute one forward pass, returning the output and an execution trace.

        The input is either a single ``(C, H, W)`` image or a batched
        ``(N, C, H, W)`` minibatch; a batched run carries the ``N`` axis
        through every primitive, conversion and reference operator and
        returns ``(N, ...)`` outputs.  A single-output network returns its
        output array directly (the common fast path); a multi-output network
        returns ``{layer name: output}`` covering *every* output layer, so no
        result is silently dropped.
        """
        input_chw = np.asarray(input_chw, dtype=np.float32)
        batched = input_chw.ndim == 4
        batch = input_chw.shape[0] if batched else 1
        trace = ExecutionTrace(batch=batch)
        # Weight synthesis is set-up, not layer compute: finish it before any
        # timer starts.
        self.weights.materialize()
        start = time.perf_counter()
        tensors: Dict[str, LayoutTensor] = {}
        # A producer feeding several consumers that demand the same target
        # layout has its conversion chain executed once and the result reused;
        # keyed by (producer, target layout) since every edge leaving one
        # producer starts from the same source layout.
        converted: Dict[Tuple[str, str], LayoutTensor] = {}

        for layer in self.network.topological_order():
            decision = self.plan.decision(layer.name)
            inputs: List[LayoutTensor] = []
            for producer in self.network.inputs_of(layer.name):
                edge = self._edge_chain[(producer, layer.name)]
                tensor = tensors[producer]
                if edge.needs_conversion:
                    cache_key = (producer, edge.target_layout.name)
                    cached = converted.get(cache_key)
                    if cached is None:
                        convert_start = time.perf_counter()
                        tensor = edge.chain.apply(tensor)
                        trace.conversion_seconds[(producer, layer.name)] = (
                            time.perf_counter() - convert_start
                        )
                        trace.conversions_executed += 1
                        converted[cache_key] = tensor
                    else:
                        # Reused conversion: nothing ran, so the trace gets no
                        # (producer, consumer) timing entry for this edge.
                        tensor = cached
                inputs.append(tensor)

            layer_start = time.perf_counter()
            if isinstance(layer, InputLayer):
                expected = (batch,) + layer.shape if batched else layer.shape
                if input_chw.shape != expected:
                    raise ValueError(
                        f"input has shape {input_chw.shape}, expected {expected}"
                    )
                output = self._from_logical(input_chw, decision.output_layout)
            elif isinstance(layer, ConvLayer):
                primitive = self.library.get(decision.primitive)
                kernel = self.weights.conv_weights(layer.name)
                # The plan's dtype selects the primitive's compute path:
                # quantized plans run their layers through the int8/fp16
                # execution paths the selection was priced for.
                scenario = self._scenarios[layer.name].with_dtype(self.plan.dtype)
                if batched:
                    scenario = scenario.with_batch(batch)
                output = primitive.execute(inputs[0], kernel, scenario)
            else:
                output_logical = self._run_reference(layer, [t.to_logical() for t in inputs])
                output = self._from_logical(
                    output_logical.astype(np.float32, copy=False), decision.output_layout
                )
            trace.layer_seconds[layer.name] = time.perf_counter() - layer_start

            tensors[layer.name] = output
            trace.layer_order.append(layer.name)
            if keep_outputs:
                trace.outputs[layer.name] = output.to_logical()

        outputs = self.network.output_layers()
        if len(outputs) == 1:
            final: Union[np.ndarray, Dict[str, np.ndarray]] = tensors[
                outputs[0].name
            ].to_logical()
        else:
            final = {layer.name: tensors[layer.name].to_logical() for layer in outputs}
        trace.wall_seconds = time.perf_counter() - start
        return final, trace

    @staticmethod
    def _from_logical(array: np.ndarray, layout) -> LayoutTensor:
        """Wrap a (C, H, W) or (N, C, H, W) array as a tensor in ``layout``."""
        if array.ndim == 4:
            return LayoutTensor.from_nchw(array, layout)
        return LayoutTensor.from_chw(array, layout)

    # -- helpers ------------------------------------------------------------------

    def _run_reference(self, layer, inputs: List[np.ndarray]) -> np.ndarray:
        """Evaluate a non-convolution layer with the reference operators.

        ``inputs`` are canonical logical arrays — ``(C, H, W)`` or batched
        ``(N, C, H, W)``; every reference operator handles the leading batch
        axis transparently.
        """
        output_shape = self._shapes[layer.name]
        if isinstance(layer, ReLULayer):
            return reference_ops.relu(inputs[0])
        if isinstance(layer, PoolLayer):
            if layer.mode is PoolMode.MAX:
                return reference_ops.max_pool(
                    inputs[0], layer.kernel, layer.stride, layer.padding, output_shape
                )
            return reference_ops.average_pool(
                inputs[0], layer.kernel, layer.stride, layer.padding, output_shape
            )
        if isinstance(layer, LRNLayer):
            return reference_ops.local_response_norm(
                inputs[0], local_size=layer.local_size, alpha=layer.alpha, beta=layer.beta
            )
        if isinstance(layer, FullyConnectedLayer):
            weights, bias = self.weights.fc_weights(layer.name)
            return reference_ops.fully_connected(inputs[0], weights, bias)
        if isinstance(layer, ConcatLayer):
            return reference_ops.concat_channels(inputs)
        if isinstance(layer, EltwiseAddLayer):
            return reference_ops.eltwise_add(inputs)
        if isinstance(layer, DropoutLayer):
            return inputs[0]
        if isinstance(layer, SoftmaxLayer):
            return reference_ops.softmax(inputs[0])
        if isinstance(layer, FlattenLayer):
            return reference_ops.flatten(inputs[0])
        raise NotImplementedError(f"no reference operator for layer type {type(layer).__name__}")
