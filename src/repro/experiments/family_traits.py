"""Qualitative family strengths and weaknesses (Table 1 of the paper).

Table 1 summarizes the trade-offs of the algorithm families:

========  =====  ======  =======  ================
family    time   memory  strided  bad cases
========  =====  ======  =======  ================
direct    ``-``  ``--``  ``++``   non-strided
im2       ``+``  ``--``  ``++``   large image
kn2       ``+``  ``+``   ``--``   few channels
Winograd  ``++`` ``-``   ``-``    unpredictable
fft       ``-``  ``+``   (n/a)    small kernel
========  =====  ======  =======  ================

:func:`family_traits_table` derives the same qualitative judgements from the
reproduction's cost model by sweeping a set of probe scenarios and comparing,
per family, the best achievable cost and workspace against the other
families.  The benchmark asserts the derived judgements match the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cost.analytical import AnalyticalCostModel
from repro.cost.platform import PLATFORMS, Platform
from repro.graph.scenario import ConvScenario
from repro.primitives.base import PrimitiveFamily
from repro.primitives.registry import PrimitiveLibrary, default_primitive_library

#: Probe scenarios spanning the regimes Table 1 talks about.
PROBE_SCENARIOS: Dict[str, ConvScenario] = {
    # A bread-and-butter K=3 mid-network layer.
    "k3_mid": ConvScenario(c=128, h=28, w=28, stride=1, k=3, m=128, padding=1),
    # A large-image early layer (im2's bad case: the Toeplitz matrix of a
    # 224x224 image is enormous).
    "large_image": ConvScenario(c=64, h=224, w=224, stride=1, k=3, m=64, padding=1),
    # A strided layer (kn2/winograd cannot run it).
    "strided": ConvScenario(c=3, h=227, w=227, stride=4, k=11, m=96),
    # A few-channels layer (kn2's bad case).
    "few_channels": ConvScenario(c=4, h=56, w=56, stride=1, k=3, m=64, padding=1),
    # A K=5 layer with a reasonably large image (fft's good case).
    "k5_layer": ConvScenario(c=48, h=27, w=27, stride=1, k=5, m=256, padding=2),
    # A 1x1 layer (fft's bad case: tiny kernel).
    "pointwise": ConvScenario(c=256, h=14, w=14, stride=1, k=1, m=64),
}

FAMILIES: List[PrimitiveFamily] = [
    PrimitiveFamily.DIRECT,
    PrimitiveFamily.IM2,
    PrimitiveFamily.KN2,
    PrimitiveFamily.WINOGRAD,
    PrimitiveFamily.FFT,
]


@dataclass
class FamilyTraitsResult:
    """Best cost and workspace per family per probe scenario."""

    platform: str
    #: scenario name -> family -> best cost in seconds (None if unsupported).
    best_cost: Dict[str, Dict[str, Optional[float]]] = field(default_factory=dict)
    #: scenario name -> family -> workspace elements of the best variant.
    workspace: Dict[str, Dict[str, Optional[float]]] = field(default_factory=dict)

    def supports(self, scenario_name: str, family: PrimitiveFamily) -> bool:
        return self.best_cost[scenario_name][family.value] is not None

    def fastest_family(self, scenario_name: str) -> str:
        costs = {
            family: cost
            for family, cost in self.best_cost[scenario_name].items()
            if cost is not None
        }
        return min(costs, key=costs.get)

    def format(self) -> str:
        header = f"{'scenario':<14}" + "".join(f"{f.value:>12}" for f in FAMILIES)
        lines = [f"Family behaviour on probe scenarios ({self.platform})", header, "-" * len(header)]
        for name in self.best_cost:
            row = f"{name:<14}"
            for family in FAMILIES:
                cost = self.best_cost[name][family.value]
                row += f"{'unsupported':>12}" if cost is None else f"{1e3 * cost:>12.3f}"
            lines.append(row)
        lines.append("(best variant cost per family, ms; 'unsupported' where no variant applies)")
        return "\n".join(lines)


def family_traits_table(
    platform: Optional[Platform] = None,
    library: Optional[PrimitiveLibrary] = None,
    threads: int = 1,
) -> FamilyTraitsResult:
    """Evaluate the best variant of every family on every probe scenario."""
    platform = platform or PLATFORMS["intel-haswell"]
    library = library or default_primitive_library()
    cost_model = AnalyticalCostModel(platform)
    result = FamilyTraitsResult(platform=platform.name)
    # Every (probe scenario, family) candidate set is priced by one call.
    probes = [
        (name, family, scenario, library.applicable(scenario, family=family, platform=platform))
        for name, scenario in PROBE_SCENARIOS.items()
        for family in FAMILIES
    ]
    priced = cost_model.price_layers(
        [(candidates, scenario) for _, _, scenario, candidates in probes], threads
    )
    for (name, family, scenario, candidates), rows in zip(probes, priced):
        best_cost = result.best_cost.setdefault(name, {})
        workspace = result.workspace.setdefault(name, {})
        if not candidates:
            best_cost[family.value] = None
            workspace[family.value] = None
            continue
        costs = {p.name: row[0] for p, row in zip(candidates, rows)}
        best_name = min(costs, key=costs.get)
        best_cost[family.value] = costs[best_name]
        workspace[family.value] = library.get(best_name).workspace_elements(scenario)
    return result
