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
platform model or from the wall-clock profiler, through one path.

:func:`build_cost_tables` makes one pass of each kind per network: one
:meth:`~repro.cost.model.CostModel.price_layers` call prices every distinct
scenario of the network (the analytical model runs its array formula once
over all of their rows; the profiler measures them in first-seen layer
order), and every edge shape's conversions come from one Floyd–Warshall pass
over all shapes
(:meth:`~repro.layouts.dt_graph.DTGraph.shortest_paths_by_shape`).  A
chain's energy is computed once per distinct ``(hop, shape)`` and summed in
hop order with ``sum(values, 0.0)`` over a plain list: Python's ``sum`` is
compensated on 3.12+, so an array sum or a running ``+`` would change bits
there.  The outputs are plain dicts, in layer and first-seen shape order.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cost.model import CostModel
from repro.cost.platform import Platform
from repro.graph.network import Network
from repro.graph.scenario import ConvScenario
from repro.layouts.dt_graph import DTGraph, DTPath
from repro.layouts.layout import Layout
from repro.primitives.base import ConvPrimitive
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

    def conversion_cost(self, shape: Shape, source: Layout, target: Layout) -> float:
        """Cheapest conversion cost between two layouts at a tensor shape."""
        return self.dt_costs[shape][(source.name, target.name)]

    def layers(self) -> List[str]:
        """Names of the convolution layers covered by these tables."""
        return list(self.node_costs.keys())

    def table_entries(self) -> int:
        """Total number of profiled numbers held (the paper notes this is tiny)."""
        nodes = sum(len(costs) for costs in self.node_costs.values())
        edges = sum(len(costs) for costs in self.dt_costs.values())
        return nodes + edges


@dataclass(frozen=True, eq=False)
class CostQuery:
    """One request for cost tables, as a :class:`repro.api.Session` resolves it.

    ``(fingerprint, platform, threads, batch, dtype)`` identifies the tuple
    the tables describe; the remaining fields carry the live components the
    tables are built (or loaded) against.  ``platform`` is ``None`` for a
    platform-less cost model: its plans record ``platform: null`` and the
    store names their shard after the model.
    """

    network: Network
    fingerprint: str
    platform: Optional[Platform]
    threads: int
    library: PrimitiveLibrary
    dt_graph: DTGraph
    batch: int = 1
    dtype: str = "fp32"

    def with_threads(self, threads: int) -> "CostQuery":
        """The same query at a different thread count."""
        return dataclasses.replace(self, threads=threads)


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
    # and accuracy tables extend them into cost *vectors*, all four priced by
    # one ``price_layers`` call over the network's distinct scenarios, in
    # first-seen layer order.  A layer no primitive supports fails the build
    # before anything is priced.
    applicable: Dict[ConvScenario, List[ConvPrimitive]] = {}
    for layer_name, scenario in scenarios.items():
        if scenario not in applicable:
            primitives = applicable[scenario] = library.applicable(scenario, platform=platform)
            if not primitives:
                raise ValueError(
                    f"no primitive in the library supports layer {layer_name!r} "
                    f"[{scenario.describe()}]"
                )
    layers = [(primitives, scenario) for scenario, primitives in applicable.items()]
    priced: Dict[ConvScenario, Tuple[Dict[str, float], ...]] = {}
    for (primitives, scenario), rows in zip(layers, cost_model.price_layers(layers, threads)):
        names = [primitive.name for primitive in primitives]
        priced[scenario] = tuple(dict(zip(names, column)) for column in zip(*rows))

    # Layers sharing a scenario (ResNet's repeated blocks, VGG's stacked
    # 3x3s) are priced once; each twin gets its own dict copies.
    node_costs: Dict[str, Dict[str, float]] = {}
    node_workspace: Dict[str, Dict[str, float]] = {}
    node_energy: Dict[str, Dict[str, float]] = {}
    node_accuracy: Dict[str, Dict[str, float]] = {}
    claimed = set()
    for layer_name, scenario in scenarios.items():
        layer_tables = priced[scenario]
        if scenario in claimed:
            layer_tables = tuple(dict(table) for table in layer_tables)
        claimed.add(scenario)
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
        # chain sums a list of its hops' energies in order (see the module
        # docstring for why it is ``sum``).  Hops are the graph's own edge
        # objects, so they are keyed by identity (hashing a transform hashes
        # both of its layouts).
        chains = [path.chain for path in paths.values()]
        hops = {id(hop): hop for chain in chains if chain is not None for hop in chain.transforms}
        energy = {
            key: cost_model.transform_energy(hop, shape, batch=batch) for key, hop in hops.items()
        }
        dt_energy[shape] = {
            pair: math.inf
            if chain is None
            else sum([energy[id(hop)] for hop in chain.transforms], 0.0)
            for pair, chain in zip(paths, chains)
        }

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
