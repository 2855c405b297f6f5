"""PBQP selections for AlexNet on the two platforms (Figure 4 of the paper).

Figure 4 shows which primitive the PBQP formulation selects for each of
AlexNet's five convolution layers under multithreaded execution on the ARM
Cortex-A57 and the Intel Core i5-4570.  The paper highlights three structural
properties of the selections, which the reproduction checks:

* conv1 (the K=11, stride-4 layer) gets an im2-family primitive on both
  platforms — no fast algorithm applies to it;
* the remaining layers get Winograd-family primitives on both platforms;
* the Intel selection favours 2D Winograd with 8-wide (AVX2) vector variants,
  while the ARM selection favours the low-memory 1D Winograd form and 4-wide
  (NEON) vector variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.cost.platform import PLATFORMS, Platform
from repro.primitives.registry import PrimitiveLibrary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session


@dataclass
class SelectionComparison:
    """The per-layer PBQP selections on two platforms."""

    network: str
    threads: int
    #: platform name -> layer name -> selected primitive name.
    selections: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def layers(self) -> List[str]:
        first = next(iter(self.selections.values()))
        return list(first.keys())

    def format(self) -> str:
        platforms = list(self.selections.keys())
        header = f"{'layer':<12}" + "".join(f"{p:>28}" for p in platforms)
        lines = [
            f"PBQP selections for {self.network} (threads={self.threads})",
            header,
            "-" * len(header),
        ]
        for layer in self.layers():
            row = f"{layer:<12}"
            for platform in platforms:
                row += f"{self.selections[platform][layer]:>28}"
            lines.append(row)
        return "\n".join(lines)


def selection_comparison(
    network: str,
    threads: int = 4,
    platforms: Optional[List[Platform]] = None,
    library: Optional[PrimitiveLibrary] = None,
    session: Optional["Session"] = None,
) -> SelectionComparison:
    """The per-layer PBQP selections for one zoo network across platforms.

    Figure 4 of the paper shows this comparison for AlexNet; the harness is
    generic so the residual/depthwise zoo extensions (ResNet-18,
    MobileNet-v1) get the same per-platform selection tables.
    """
    if session is None:
        from repro.api import Session

        session = Session(library=library)
    platforms = platforms or [PLATFORMS["arm-cortex-a57"], PLATFORMS["intel-haswell"]]
    comparison = SelectionComparison(network=network, threads=threads)
    for platform in platforms:
        plan = session.plan(network, platform, threads=threads, verify=False)
        comparison.selections[platform.name] = plan.network_plan.conv_selections()
    return comparison


def alexnet_selection_comparison(
    threads: int = 4,
    platforms: Optional[List[Platform]] = None,
    library: Optional[PrimitiveLibrary] = None,
    session: Optional["Session"] = None,
) -> SelectionComparison:
    """Reproduce Figure 4: the PBQP selections for AlexNet on ARM and Intel."""
    return selection_comparison(
        "alexnet", threads=threads, platforms=platforms, library=library, session=session
    )
