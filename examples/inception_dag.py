#!/usr/bin/env python
"""DAG-shaped selection: GoogLeNet's inception modules.

Figure 3 of the paper motivates the PBQP formulation with the inception
module: one producer feeds four parallel branches whose outputs are
concatenated, so a layout decision at the module input constrains (or taxes)
every branch.  This example optimizes the full GoogLeNet graph through the
Session API, shows the selections inside one inception module, and
demonstrates the failure mode of greedy selection: picking each layer's
fastest primitive in isolation incurs layout-conversion costs that the PBQP
solution avoids.

Run:  python examples/inception_dag.py
"""

from repro.api import Session


def main() -> None:
    session = Session()
    platform = "intel-haswell"

    # All four strategies share one profiled context inside the session.
    pbqp, greedy, local, baseline = (
        session.plan("googlenet", platform, strategy=strategy, verify=False).network_plan
        for strategy in ("pbqp", "greedy_ignore_dt", "local_optimal", "sum2d")
    )
    assert session.cache_info().misses == 1  # profiled exactly once

    network = session.context_for("googlenet", platform).network
    print(f"GoogLeNet on {platform}: {len(network.conv_layers())} convolution layers, "
          f"{len(network.edges())} data-flow edges")
    print()
    print(f"{'strategy':<28}{'conv ms':>12}{'transform ms':>14}{'total ms':>12}{'speedup':>10}")
    for plan in (baseline, local, greedy, pbqp):
        print(
            f"{plan.strategy:<28}{1e3 * plan.conv_cost:>12.2f}{1e3 * plan.dt_cost:>14.2f}"
            f"{plan.total_ms:>12.2f}{plan.speedup_over(baseline):>10.2f}"
        )
    print()
    print("Greedy per-layer selection picks marginally faster primitives "
          f"({1e3 * greedy.conv_cost:.1f} vs {1e3 * pbqp.conv_cost:.1f} ms of convolution) but pays "
          f"{1e3 * greedy.dt_cost:.1f} ms of layout conversions; PBQP pays only "
          f"{1e3 * pbqp.dt_cost:.1f} ms.")
    print()

    # Selections inside one inception module.
    module = "inception_4c"
    print(f"Selections inside {module}:")
    for layer, primitive in pbqp.conv_selections().items():
        if layer.startswith(module):
            decision = pbqp.decision(layer)
            print(f"  {layer:<28} {primitive:<26} "
                  f"{decision.input_layout.name}->{decision.output_layout.name}")
    conversions = [edge for edge in pbqp.conversions() if edge.consumer.startswith(module)]
    print(f"  conversions entering the module: {len(conversions)}")


if __name__ == "__main__":
    main()
