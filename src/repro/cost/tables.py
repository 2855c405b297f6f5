"""Cost tables: the profiled data the PBQP query is built from.

Section 4 of the paper: "layerwise profiling need only be run once per
hardware platform per DNN model.  The resulting cost tables are tiny compared
to the weight data required for most DNN models, making it feasible to
produce these cost tables before deployment, and ship them with the trained
model."

:class:`CostTables` is that artifact: for one network, platform/cost-model and
thread count it records

* the execution cost of every applicable primitive for every convolution
  layer (the PBQP node costs), and
* for every data-flow edge of the network, the cheapest layout-conversion
  chain between every ordered pair of layouts at that edge's tensor shape
  (the PBQP edge costs), taken from the all-pairs shortest paths of the DT
  graph (section 3.1).

Tables are cost-model agnostic: they can be built from the analytical
platform model or from the wall-clock profiler.

:func:`build_cost_tables` makes one pass of each kind per network: each
distinct scenario is priced by one call of the model's array formula
(:meth:`~repro.cost.analytical.AnalyticalCostModel.price_layer`), and every
edge shape's conversions come from one Floyd–Warshall pass over all shapes
(:meth:`~repro.layouts.dt_graph.DTGraph.shortest_paths_by_shape`).  The
outputs are plain dicts, in layer and first-seen shape order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cost.model import CostModel
from repro.graph.network import Network
from repro.graph.scenario import ConvScenario
from repro.layouts.dt_graph import DTGraph, DTPath
from repro.layouts.layout import Layout
from repro.multiobj.vector import CostVector
from repro.primitives.registry import PrimitiveLibrary

Shape = Tuple[int, int, int]


@dataclass
class CostTables:
    """Profiled node and edge cost data for one (network, platform, threads, batch, dtype) tuple."""

    network_name: str
    threads: int
    #: Convolutional scenario of every convolution layer (carrying the batch
    #: and the dtype).
    scenarios: Dict[str, ConvScenario]
    #: Output tensor shape of every layer.
    shapes: Dict[str, Shape]
    #: layer name -> primitive name -> execution cost in seconds.
    node_costs: Dict[str, Dict[str, float]]
    #: tensor shape -> (source layout name, target layout name) -> cheapest DT path.
    dt_paths: Dict[Shape, Dict[Tuple[str, str], DTPath]]
    #: tensor shape -> (source layout name, target layout name) -> cost in seconds.
    dt_costs: Dict[Shape, Dict[Tuple[str, str], float]]
    #: Minibatch size the costs were produced for (1 = the paper's setting).
    batch: int = 1
    #: Numeric precision the costs were produced for ("fp32" = the paper's).
    dtype: str = "fp32"
    #: layer name -> primitive name -> peak scratch workspace in bytes.
    node_workspace: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: layer name -> primitive name -> energy proxy in joules.
    node_energy: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: tensor shape -> (source, target layout name) -> conversion energy (J).
    dt_energy: Dict[Shape, Dict[Tuple[str, str], float]] = field(default_factory=dict)
    #: layer name -> primitive name -> modelled accuracy loss (fraction).
    node_accuracy: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def primitive_cost(self, layer: str, primitive: str) -> float:
        """Cost of implementing ``layer`` with ``primitive``."""
        return self.node_costs[layer][primitive]

    def primitive_workspace(self, layer: str, primitive: str) -> float:
        """Peak scratch workspace (bytes) of one primitive on one layer.

        Tables produced before the multi-objective layer carry no workspace
        data; those report 0 rather than failing, so scalar-only callers are
        unaffected.
        """
        return self.node_workspace.get(layer, {}).get(primitive, 0.0)

    def primitive_energy(self, layer: str, primitive: str) -> float:
        """Energy proxy (joules) of one primitive on one layer (0 if absent)."""
        return self.node_energy.get(layer, {}).get(primitive, 0.0)

    def primitive_accuracy(self, layer: str, primitive: str) -> float:
        """Modelled accuracy loss of one primitive on one layer (0 if absent).

        fp32 tables (and tables produced before the precision axis) carry no
        accuracy data; those report 0, which is also the correct fp32 value.
        """
        return self.node_accuracy.get(layer, {}).get(primitive, 0.0)

    def primitive_vector(self, layer: str, primitive: str) -> CostVector:
        """The full (time, workspace, energy, accuracy) vector of one node
        alternative."""
        return CostVector(
            time_ms=1e3 * self.node_costs[layer][primitive],
            peak_workspace_bytes=self.primitive_workspace(layer, primitive),
            energy_proxy_j=self.primitive_energy(layer, primitive),
            accuracy_proxy=self.primitive_accuracy(layer, primitive),
        )

    def cheapest_primitive(self, layer: str) -> Tuple[str, float]:
        """The fastest primitive for a layer, considered in isolation."""
        costs = self.node_costs[layer]
        name = min(costs, key=costs.get)
        return name, costs[name]

    def conversion_cost(self, shape: Shape, source: Layout, target: Layout) -> float:
        """Cheapest conversion cost between two layouts at a tensor shape."""
        return self.dt_costs[shape][(source.name, target.name)]

    def conversion_path(self, shape: Shape, source: Layout, target: Layout) -> DTPath:
        """Cheapest conversion chain between two layouts at a tensor shape."""
        return self.dt_paths[shape][(source.name, target.name)]

    def conversion_energy(self, shape: Shape, source: Layout, target: Layout) -> float:
        """Energy proxy (joules) of the cheapest conversion chain (0 if absent)."""
        return self.dt_energy.get(shape, {}).get((source.name, target.name), 0.0)

    def layers(self) -> List[str]:
        """Names of the convolution layers covered by these tables."""
        return list(self.node_costs.keys())

    def table_entries(self) -> int:
        """Total number of profiled numbers held (the paper notes this is tiny)."""
        nodes = sum(len(costs) for costs in self.node_costs.values())
        edges = sum(len(costs) for costs in self.dt_costs.values())
        return nodes + edges


def build_cost_tables(
    network: Network,
    library: PrimitiveLibrary,
    dt_graph: DTGraph,
    cost_model: CostModel,
    threads: int = 1,
    batch: int = 1,
    platform=None,
    dtype: str = "fp32",
) -> CostTables:
    """Profile a network against a primitive library on a cost model.

    For every convolution layer the cost of every *applicable* primitive is
    recorded; for every distinct tensor shape appearing on a data-flow edge
    the all-pairs cheapest layout conversions are recorded.  ``batch`` prices
    the whole network for minibatches of that size: node costs are produced
    from the batched scenarios and edge costs from batched conversions
    (per-image shapes, whole-batch traffic).

    ``dtype`` prices the network at that precision: scenarios carry the
    dtype, so per-precision ``supports()`` gating (FFT declines int8) and
    precision-aware pricing (lane packing, itemsize-scaled traffic,
    quantize/dequantize boundaries) both apply, and the per-node modelled
    accuracy losses are recorded alongside time/workspace/energy.

    ``platform`` applies per-platform primitive gating: variants the platform
    does not offer are never priced (``supports()`` consistent with pricing).
    It defaults to the cost model's own platform when it has one (the
    analytical model), so callers only pass it for platform-less models.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if platform is None:
        platform = getattr(cost_model, "platform", None)
    scenarios = {
        name: scenario.with_batch(batch).with_dtype(dtype)
        for name, scenario in network.conv_scenarios().items()
    }
    shapes = network.infer_shapes()

    # The scalar time tables are what the paper ships; the workspace, energy
    # and accuracy tables extend them into cost *vectors*.  A model with a
    # fused ``price_layer`` (the analytical model) prices all four at once;
    # any other model (the wall-clock profiler, the ablation wrappers) prices
    # time only — workspace is a property of the primitive alone, and the
    # energy and accuracy tables stay zero, which the frontier treats as
    # "objective not modelled".
    price_layer = getattr(cost_model, "price_layer", None)

    def price(layer_name: str, scenario: ConvScenario) -> Tuple[Dict[str, float], ...]:
        primitives = library.applicable(scenario, platform=platform)
        if not primitives:
            raise ValueError(
                f"no primitive in the library supports layer {layer_name!r} "
                f"[{scenario.describe()}]"
            )
        if price_layer is not None:
            rows = price_layer(primitives, scenario, threads)
        else:
            itemsize = float(scenario.itemsize)
            rows = [
                (
                    cost_model.primitive_cost(primitive, scenario, threads=threads),
                    itemsize * primitive.workspace_elements(scenario.per_image),
                    0.0,
                    0.0,
                )
                for primitive in primitives
            ]
        names = [primitive.name for primitive in primitives]
        return tuple(dict(zip(names, column)) for column in zip(*rows))

    # Layers sharing a scenario (ResNet's repeated blocks, VGG's stacked
    # 3x3s) are priced once per call; each twin gets its own dict copies.
    priced: Dict[ConvScenario, Tuple[Dict[str, float], ...]] = {}
    node_costs: Dict[str, Dict[str, float]] = {}
    node_workspace: Dict[str, Dict[str, float]] = {}
    node_energy: Dict[str, Dict[str, float]] = {}
    node_accuracy: Dict[str, Dict[str, float]] = {}
    for layer_name, scenario in scenarios.items():
        layer_tables = priced.get(scenario)
        if layer_tables is None:
            layer_tables = priced[scenario] = price(layer_name, scenario)
        else:
            layer_tables = tuple(dict(table) for table in layer_tables)
        (
            node_costs[layer_name],
            node_workspace[layer_name],
            node_energy[layer_name],
            node_accuracy[layer_name],
        ) = layer_tables

    # Every distinct producer-output shape needs one all-pairs DT solution;
    # one Floyd–Warshall pass solves them all.
    edge_shapes = {shapes[edge.producer] for edge in network.edges()}
    dt_paths = dt_graph.shortest_paths_by_shape(
        edge_shapes,
        cost_fn=lambda transform, s: cost_model.transform_cost(
            transform, s, threads=threads, batch=batch, dtype=dtype
        ),
    )
    dt_costs: Dict[Shape, Dict[Tuple[str, str], float]] = {}
    dt_energy: Dict[Shape, Dict[Tuple[str, str], float]] = {}
    for shape, paths in dt_paths.items():
        dt_costs[shape] = {pair: path.cost for pair, path in paths.items()}
        # Each direct transform's energy is computed once per shape; every
        # chain then sums its hops in order.  Hops are the graph's own edge
        # objects, so they are keyed by identity (hashing a transform hashes
        # both of its layouts).
        hop_energy: Dict[int, float] = {}
        energies: Dict[Tuple[str, str], float] = {}
        for pair, path in paths.items():
            if not path.reachable:
                energies[pair] = float("inf")
            elif price_layer is None or path.chain is None:
                energies[pair] = 0.0
            else:
                hops = path.chain.transforms
                for hop in hops:
                    if id(hop) not in hop_energy:
                        hop_energy[id(hop)] = cost_model.transform_energy(
                            hop, shape, batch=batch
                        )
                energies[pair] = sum((hop_energy[id(hop)] for hop in hops), 0.0)
        dt_energy[shape] = energies

    return CostTables(
        network_name=network.name,
        threads=threads,
        scenarios=scenarios,
        shapes=shapes,
        node_costs=node_costs,
        dt_paths=dt_paths,
        dt_costs=dt_costs,
        batch=batch,
        dtype=dtype,
        node_workspace=node_workspace,
        node_energy=node_energy,
        dt_energy=dt_energy,
        node_accuracy=node_accuracy,
    )
