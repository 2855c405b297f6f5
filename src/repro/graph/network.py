"""The DNN graph: a DAG of layers with shape inference.

The :class:`Network` class is the central IR consumed by the primitive
selector (:mod:`repro.core`), the cost models (:mod:`repro.cost`) and the
functional runtime (:mod:`repro.runtime`).  It stores layers as named nodes
and data-flow edges between them, provides topological iteration (the paper's
execution order), validation, and static shape inference — possible because
"the dimensions of all inputs to DNN layers are known statically" (section
3.1 of the paper).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.layer import ConvLayer, InputLayer, Layer
from repro.graph.scenario import ConvScenario

Shape = Tuple[int, int, int]


class NetworkValidationError(ValueError):
    """Raised when a network graph is structurally invalid."""


@dataclass(frozen=True)
class Edge:
    """A directed data-flow edge from one layer's output to another's input."""

    producer: str
    consumer: str


class Network:
    """A directed acyclic graph of DNN layers.

    Parameters
    ----------
    name:
        Human-readable model name (``"alexnet"``, ``"vgg-e"``, ...).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._layers: Dict[str, Layer] = {}
        self._inputs: Dict[str, List[str]] = {}
        self._consumers: Dict[str, List[str]] = {}
        #: The topological order, computed on first use; ``add_layer`` (the
        #: only mutation) clears it.
        self._order: Optional[List[Layer]] = None

    # -- construction ---------------------------------------------------------

    def add_layer(self, layer: Layer, inputs: Optional[Sequence[str]] = None) -> Layer:
        """Add a layer fed by the named producer layers.

        Returns the layer to allow fluent model-building code.
        """
        if layer.name in self._layers:
            raise NetworkValidationError(f"duplicate layer name {layer.name!r}")
        inputs = list(inputs or [])
        for producer in inputs:
            if producer not in self._layers:
                raise NetworkValidationError(
                    f"layer {layer.name!r} consumes unknown layer {producer!r}"
                )
        minimum, maximum = layer.arity()
        if len(inputs) < minimum or (maximum >= 0 and len(inputs) > maximum):
            raise NetworkValidationError(
                f"layer {layer.name!r} ({type(layer).__name__}) takes between {minimum} and "
                f"{maximum if maximum >= 0 else 'unbounded'} inputs, got {len(inputs)}"
            )
        self._order = None
        self._layers[layer.name] = layer
        self._inputs[layer.name] = inputs
        self._consumers.setdefault(layer.name, [])
        for producer in inputs:
            self._consumers[producer].append(layer.name)
        return layer

    # -- structure queries ----------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def __len__(self) -> int:
        return len(self._layers)

    def layer(self, name: str) -> Layer:
        """Look up a layer by name."""
        try:
            return self._layers[name]
        except KeyError:
            raise KeyError(f"no layer named {name!r} in network {self.name!r}") from None

    def layers(self) -> List[Layer]:
        """All layers, in insertion order."""
        return list(self._layers.values())

    def layer_names(self) -> List[str]:
        return list(self._layers.keys())

    def inputs_of(self, name: str) -> List[str]:
        """Names of the layers feeding ``name``."""
        return list(self._inputs[name])

    def consumers_of(self, name: str) -> List[str]:
        """Names of the layers consuming the output of ``name``."""
        return list(self._consumers[name])

    def edges(self) -> List[Edge]:
        """All data-flow edges."""
        return [
            Edge(producer=producer, consumer=consumer)
            for consumer, producers in self._inputs.items()
            for producer in producers
        ]

    def input_layers(self) -> List[InputLayer]:
        """The graph's entry points."""
        return [layer for layer in self._layers.values() if isinstance(layer, InputLayer)]

    def output_layers(self) -> List[Layer]:
        """Layers whose output is not consumed by any other layer."""
        return [
            self._layers[name]
            for name, consumers in self._consumers.items()
            if not consumers
        ]

    def conv_layers(self) -> List[ConvLayer]:
        """The convolution layers, in topological order."""
        return [
            layer
            for layer in self.topological_order()
            if isinstance(layer, ConvLayer)
        ]

    # -- topological order & validation ---------------------------------------

    def topological_order(self) -> List[Layer]:
        """Layers in an execution order respecting all data dependences.

        Kahn's algorithm with insertion-order tie breaking, so the order is
        deterministic across runs.  It is computed once per graph; every call
        returns a fresh list.

        Raises
        ------
        NetworkValidationError
            If the graph contains a cycle.
        """
        if self._order is None:
            self._order = self._kahn_order()
        return list(self._order)

    def _kahn_order(self) -> List[Layer]:
        indegree = {name: len(producers) for name, producers in self._inputs.items()}
        ready = deque(name for name in self._layers if indegree[name] == 0)
        order: List[Layer] = []
        while ready:
            name = ready.popleft()
            order.append(self._layers[name])
            for consumer in self._consumers[name]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self._layers):
            stuck = sorted(set(self._layers) - {layer.name for layer in order})
            raise NetworkValidationError(f"network contains a cycle involving {stuck}")
        return order

    def validate(self) -> None:
        """Check structural invariants: acyclic, one+ input layer, shapes consistent."""
        if not self._layers:
            raise NetworkValidationError("network has no layers")
        if not self.input_layers():
            raise NetworkValidationError("network has no input layer")
        self.topological_order()
        self.infer_shapes()

    # -- shape inference -------------------------------------------------------

    def infer_shapes(self) -> Dict[str, Shape]:
        """Statically infer the output shape of every layer.

        Returns a mapping from layer name to its logical (C, H, W) output
        shape.  Shapes are fully determined by the input layers' declared
        shapes, mirroring the paper's observation that all layer input sizes
        are known statically.
        """
        shapes: Dict[str, Shape] = {}
        for layer in self.topological_order():
            input_shapes = [shapes[p] for p in self._inputs[layer.name]]
            try:
                shapes[layer.name] = layer.output_shape(input_shapes)
            except ValueError as exc:
                raise NetworkValidationError(
                    f"shape inference failed at layer {layer.name!r}: {exc}"
                ) from exc
        return shapes

    def conv_scenarios(self) -> Dict[str, ConvScenario]:
        """The convolutional scenario of every convolution layer.

        This is the "extract all convolutional scenarios in the graph" step of
        the paper's methodology (section 5.2).
        """
        shapes = self.infer_shapes()
        scenarios: Dict[str, ConvScenario] = {}
        for layer in self.conv_layers():
            (producer,) = self._inputs[layer.name]
            scenarios[layer.name] = layer.scenario(shapes[producer])
        return scenarios

    # -- reporting -------------------------------------------------------------

    def total_conv_macs(self) -> int:
        """Total multiply-accumulate work of all convolution layers."""
        return sum(s.macs() for s in self.conv_scenarios().values())

    def summary(self) -> str:
        """A human-readable multi-line summary of the network."""
        shapes = self.infer_shapes()
        lines = [f"Network {self.name!r}: {len(self._layers)} layers"]
        for layer in self.topological_order():
            inputs = ", ".join(self._inputs[layer.name]) or "-"
            shape = "x".join(str(d) for d in shapes[layer.name])
            lines.append(
                f"  {layer.name:<24} {type(layer).__name__:<20} <- {inputs:<40} out {shape}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Network({self.name!r}, layers={len(self._layers)})"
