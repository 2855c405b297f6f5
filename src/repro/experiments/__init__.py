"""Experiment harnesses regenerating every table and figure of the paper.

Each module corresponds to one artifact of the paper's evaluation section
(section 5):

* :mod:`repro.experiments.whole_network` — Figures 5, 6, 7a, 7b (whole-network
  speedup over the single-threaded SUM2D baseline, per strategy);
* :mod:`repro.experiments.tables` — Tables 2 and 3 (absolute single-inference
  times for SUM2D / Local Optimal / PBQP / Caffe);
* :mod:`repro.experiments.selections` — Figure 4 (the primitives PBQP selects
  for AlexNet on the two platforms);
* :mod:`repro.experiments.family_traits` — Table 1 (qualitative strengths and
  weaknesses of the algorithm families);
* :mod:`repro.experiments.overhead` — section 5.4 (PBQP solve time);
* :mod:`repro.experiments.pbqp_example` — Figure 2 (the worked PBQP example);
* :mod:`repro.experiments.ablation` — ablations of two design choices
  (DT-cost awareness, section 5.8; exact vs heuristic solving, section 5.4).

Four post-paper studies probe the selections beyond the paper's setting:

* :mod:`repro.experiments.scaling` — the batching and precision studies: how
  the PBQP selections shift as the minibatch grows or the precision narrows,
  versus replaying the batch-1 (or fp32) plan there;
* :mod:`repro.experiments.platform_scaling` — the platform-zoo study: which
  layers' selected families drift away from both CPU baselines;
* :mod:`repro.experiments.memory_budget` — the multi-objective study: how a
  peak-workspace cap flips per-layer family selections across the platform
  zoo (epsilon-constraint solves from :mod:`repro.multiobj.frontier`).
"""

from repro.experiments.whole_network import (
    EXTENDED_NETWORKS,
    WholeNetworkResult,
    run_whole_network,
    format_speedup_table,
)
from repro.experiments.tables import run_absolute_time_table, format_absolute_table
from repro.experiments.selections import (
    alexnet_selection_comparison,
    selection_comparison,
)
from repro.experiments.overhead import solver_overhead_report
from repro.experiments.family_traits import family_traits_table
from repro.experiments.pbqp_example import figure2_example
from repro.experiments.ablation import dt_cost_ablation, solver_mode_ablation
from repro.core.legalize import replay_plan
from repro.experiments.scaling import ScalingResult, run_batch_scaling
from repro.experiments.memory_budget import (
    MemoryBudgetResult,
    run_memory_budget,
)


__all__ = [
    "EXTENDED_NETWORKS",
    "WholeNetworkResult",
    "run_whole_network",
    "format_speedup_table",
    "run_absolute_time_table",
    "format_absolute_table",
    "alexnet_selection_comparison",
    "selection_comparison",
    "solver_overhead_report",
    "family_traits_table",
    "figure2_example",
    "dt_cost_ablation",
    "solver_mode_ablation",
    "ScalingResult",
    "replay_plan",
    "run_batch_scaling",
    "MemoryBudgetResult",
    "run_memory_budget",
]
