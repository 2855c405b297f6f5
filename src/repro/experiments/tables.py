"""Absolute single-inference times (Tables 2 and 3 of the paper).

Table 2 reports the single-inference time in milliseconds on the Intel Core
i5-4570 and Table 3 on the ARM Cortex-A57, for AlexNet and GoogLeNet, under
single-threaded and multithreaded execution, for four instantiations: the
SUM2D baseline, the Local Optimal (CHW) strategy, the PBQP selection, and
Caffe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.strategies import get_strategy
from repro.cost.platform import Platform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session

#: Column header -> registered strategy name, in paper order.
COLUMN_STRATEGIES: Dict[str, str] = {
    "SUM2D": "sum2d",
    "L.OPT": "local_optimal",
    "PBQP": "pbqp",
    "CAFFE": "caffe",
}

#: The columns of Tables 2 and 3, in paper order.
TABLE_COLUMNS: List[str] = list(COLUMN_STRATEGIES)

#: The networks of Tables 2 and 3 (the subset that runs on both platforms).
TABLE_NETWORKS: List[str] = ["alexnet", "googlenet"]


@dataclass
class AbsoluteTimeRow:
    """One row of Table 2 / Table 3."""

    network: str
    threads: int
    times_ms: Dict[str, float] = field(default_factory=dict)

    @property
    def mode(self) -> str:
        """The (S)/(M) marker the paper uses for single/multi-threaded rows."""
        return "M" if self.threads > 1 else "S"


def run_absolute_time_table(
    platform: Platform,
    networks: Optional[List[str]] = None,
    thread_counts: Tuple[int, ...] = (1, 4),
    session: Optional["Session"] = None,
) -> List[AbsoluteTimeRow]:
    """Compute every row of Table 2 (Intel) or Table 3 (ARM) for a platform.

    Pass a shared :class:`repro.api.Session` to reuse profiled cost tables
    across calls.
    """
    if session is None:
        from repro.api import Session

        session = Session()
    networks = networks if networks is not None else list(TABLE_NETWORKS)
    rows: List[AbsoluteTimeRow] = []
    for threads in thread_counts:
        for model_name in networks:
            context = session.context_for(model_name, platform, threads)
            row = AbsoluteTimeRow(network=model_name, threads=threads)
            for column, strategy_name in COLUMN_STRATEGIES.items():
                if not get_strategy(strategy_name).applies_to(context):
                    continue  # e.g. the CPU-only Caffe on a SIMT platform
                plan = session.plan(
                    model_name, platform, strategy_name, threads, verify=False
                )
                row.times_ms[column] = plan.total_ms
            rows.append(row)
    return rows


def format_absolute_table(rows: List[AbsoluteTimeRow], title: str) -> str:
    """Render rows in the layout of Tables 2 and 3."""
    header = f"{'Network':<18}" + "".join(f"{column:>12}" for column in TABLE_COLUMNS)
    lines = [title, header, "-" * len(header)]
    for row in rows:
        label = f"({row.mode}) {row.network}"
        line = f"{label:<18}"
        for column in TABLE_COLUMNS:
            if column in row.times_ms:
                line += f"{row.times_ms[column]:>12.2f}"
            else:
                line += f"{'-':>12}"
        lines.append(line)
    lines.append("(single inference time in ms; lower is better)")
    return "\n".join(lines)
