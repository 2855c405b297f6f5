#!/usr/bin/env python
"""Profile real primitives on this machine and execute the selected network.

The other examples drive selection with the analytical platform model.  This
one uses the paper's original methodology end to end on the host machine,
by handing the Session a different cost model:

1. a small CNN is defined with the graph-building API;
2. a :class:`repro.cost.WallClockProfiler` *actually times* the numpy-backed
   primitives on tensors of each layer's size (the paper's layerwise
   profiling) — and because the session persists the measured tables in a
   :class:`repro.CostStore`, a second run of this script skips the slow
   profiling entirely;
3. the PBQP selector consumes those measured costs;
4. the resulting plan is executed on a real input and its output is verified
   against the all-SUM2D reference execution, demonstrating that the selected
   primitives and inserted layout conversions compute the same function.

Run:  python examples/profile_and_execute.py   (twice, to see the warm start)
"""

import time

import numpy as np

from repro.api import Session
from repro.cost import WallClockProfiler
from repro.graph.layer import (
    ConcatLayer,
    ConvLayer,
    FlattenLayer,
    FullyConnectedLayer,
    InputLayer,
    PoolLayer,
    ReLULayer,
    SoftmaxLayer,
)
from repro.graph.network import Network


def build_mini_inception() -> Network:
    """A small CNN with an inception-style branch/concat structure."""
    net = Network("mini-inception")
    net.add_layer(InputLayer("data", shape=(3, 40, 40)))
    net.add_layer(ConvLayer("stem", out_channels=16, kernel=5, stride=2, padding=2), ["data"])
    net.add_layer(ReLULayer("stem_relu"), ["stem"])
    net.add_layer(PoolLayer("pool1", kernel=3, stride=2), ["stem_relu"])
    net.add_layer(ConvLayer("b1x1", out_channels=16, kernel=1), ["pool1"])
    net.add_layer(ConvLayer("b3x3_reduce", out_channels=8, kernel=1), ["pool1"])
    net.add_layer(ConvLayer("b3x3", out_channels=16, kernel=3, padding=1), ["b3x3_reduce"])
    net.add_layer(ConvLayer("b5x5_reduce", out_channels=4, kernel=1), ["pool1"])
    net.add_layer(ConvLayer("b5x5", out_channels=8, kernel=5, padding=2), ["b5x5_reduce"])
    net.add_layer(ConcatLayer("concat"), ["b1x1", "b3x3", "b5x5"])
    net.add_layer(ConvLayer("head", out_channels=24, kernel=3, padding=1), ["concat"])
    net.add_layer(PoolLayer("pool2", kernel=2, stride=2), ["head"])
    net.add_layer(FlattenLayer("flatten"), ["pool2"])
    net.add_layer(FullyConnectedLayer("fc", out_features=10), ["flatten"])
    net.add_layer(SoftmaxLayer("prob"), ["fc"])
    net.validate()
    return net


def main() -> None:
    network = build_mini_inception()
    print(network.summary())
    print()

    # Layerwise profiling on the host machine (measured, not modelled), with
    # the measured tables persisted on disk for the next run of this script.
    session = Session(
        cost_model=WallClockProfiler(repetitions=3, warmup=1),
        cache_dir="repro-cache-profiled",
    )
    print("Profiling every applicable primitive for every convolution layer ...")
    start = time.perf_counter()
    plan = session.plan(network, None)  # no modelled platform: costs are measured
    elapsed = time.perf_counter() - start
    context = session.context_for(network, None)
    source = "warm start (tables loaded from the cost store)" if session.store.stats().hits else "cold start (profiled on this host)"
    print(f"{context.tables.table_entries()} cost-table entries in {elapsed:.2f} s — {source}")
    print()

    print(plan.summary())
    baseline = session.plan(network, None, strategy="sum2d")
    print()
    print(f"Measured SUM2D baseline: {baseline.total_ms:.2f} ms, "
          f"PBQP selection: {plan.total_ms:.2f} ms "
          f"({plan.speedup_over(baseline):.2f}x, "
          f"on this host's numpy primitives)")
    print()

    # Execute both plans on the same input and weights; outputs must agree.
    x = np.random.default_rng(0).standard_normal((3, 40, 40)).astype(np.float32)
    reference = baseline.execute(input=x, seed=42)
    selected = plan.execute(input=x, seed=42)
    difference = float(np.max(np.abs(reference.output - selected.output)))
    print(f"Executed both instantiations on a real input: "
          f"max output difference {difference:.2e} "
          f"({selected.conversions_executed} layout conversions executed, "
          f"{selected.measured_conversion_ms:.2f} ms)")
    print(f"Measured vs profiled-predicted total: {selected.measured_total_ms:.2f} ms "
          f"vs {selected.predicted_total_ms:.2f} ms "
          f"(measured/predicted ratio {selected.prediction_ratio:.2f}x)")
    print(f"Predicted class: {int(selected.output.argmax())} "
          f"(probability {float(selected.output.max()):.3f})")


if __name__ == "__main__":
    main()
