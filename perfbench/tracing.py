"""Spans and counts recorded around the public entry points of each layer.

The tracer wraps an entry point *where its caller looks it up*: a method is
replaced on its class, and a module-level function is replaced in every
loaded ``repro`` module that imported it by name (``repro.pbqp.solver``
holds its own reference to ``apply_r2``, ``repro.multiobj.frontier`` its own
``finalize_plan``).  Wrappers are installed only around traced rounds, so an
untraced round runs the program unmodified.

Spans (name, start, end, parent, op id) are kept in memory and written out
when the benchmark ends.  A layer's self time is its span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.analysis import plan_verifier
from repro.core import legalize
from repro.core.selector import PBQPSelector
from repro.cost import serialize, tables
from repro.layouts.transforms import TransformChain
from repro.multiobj import frontier
from repro.pbqp import reductions
from repro.pbqp.solver import PBQPSolver
from repro.primitives.base import ConvPrimitive
from repro.runtime.executor import NetworkExecutor

#: Convolution families timed separately in the forward pass, keyed by the
#: primitive-name prefix (``im2``/``kn2`` split into their col/row variants).
FAMILIES = ("winograd", "im2col", "im2row", "kn2col", "kn2row", "direct", "fft", "sum2d")


def _table_counts(result) -> Dict[str, float]:
    entries = sum(len(costs) for costs in result.node_costs.values())
    entries += sum(len(costs) for costs in result.dt_costs.values())
    return {"cost.table_entries": entries}


def _encode_counts(result) -> Dict[str, float]:
    graph, _ = result
    nodes = graph.nodes()
    return {
        "selector.pbqp_nodes": len(nodes),
        "selector.pbqp_edges": graph.num_edges,
        "selector.alternatives": sum(len(node.costs) for node in nodes),
        "selector.matrix_entries": sum(edge.matrix.size for edge in graph.edges()),
        "selector.aux_alternatives": sum(
            len(node.costs) for node in nodes if node.name.endswith("::conversions")
        ),
    }


def _solve_counts(result, solver) -> Dict[str, float]:
    stats = solver.last_stats
    return {
        "pbqp.solves": 1,
        "pbqp.reductions": stats.total_reductions(),
        "pbqp.rn_count": stats.rn_count,
        "pbqp.core_nodes": stats.core_nodes,
        "pbqp.core_assignments": stats.core_assignments_explored,
    }


def _verify_counts(result) -> Dict[str, float]:
    return {"analysis.warnings": len(result.warnings)}


def _frontier_counts(result) -> Dict[str, float]:
    return {"multiobj.candidates": result.candidates_evaluated, "multiobj.points": len(result.points)}


def _family_span(primitive) -> str:
    prefix = primitive.name.split("_", 1)[0]
    if prefix not in FAMILIES:
        raise ValueError(f"primitive {primitive.name!r} belongs to no traced family")
    return f"runtime.{prefix}"


# (owner, attribute, span name or name-of-self function, counts hook, hook wants self)
ENTRY_POINTS: Tuple[tuple, ...] = (
    (tables, "build_cost_tables", "cost.tables", _table_counts, False),
    (PBQPSelector, "build_pbqp", "selector.encode", _encode_counts, False),
    (PBQPSolver, "solve", "pbqp.solve", _solve_counts, True),
    (PBQPSolver, "_reduce", "pbqp.reduce", None, False),
    (reductions, "apply_r2", "pbqp.r2", None, False),
    (legalize, "finalize_plan", "legalize.finalize", None, False),
    (plan_verifier, "verify_plan", "analysis.verify", _verify_counts, False),
    (serialize, "plan_to_dict", "serialize.to_dict", None, False),
    (frontier, "build_frontier", "multiobj.self", _frontier_counts, False),
    (NetworkExecutor, "__init__", "runtime.executor_init", None, False),
    (NetworkExecutor, "run_traced", "runtime.layers", None, False),
    (ConvPrimitive, "execute", _family_span, None, False),
    (TransformChain, "apply", "runtime.conversion", None, False),
)


class Tracer:
    """In-memory span and count recorder with install/uninstall of wrappers."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, op id]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sites = self._patch_sites()
        self._installed = False

    # -- recording ------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op_id: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, op_id])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def current_op(self) -> int:
        stack = self._stack()
        return self.spans[stack[0]][4] if stack else -1

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, original: Callable, span, hook, hook_self: bool) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            name = span(args[0]) if callable(span) else span
            index = tracer.begin(name, tracer.current_op())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if hook is not None:
                counts = hook(result, args[0]) if hook_self else hook(result)
                for key, value in counts.items():
                    tracer.count(key, value)
            return result

        traced.__wrapped__ = original
        return traced

    @staticmethod
    def _patch_sites() -> List[Tuple[object, str, Callable, Callable]]:
        """Every (namespace, attribute, original, wrapper-spec) to patch.

        A module-level function is patched in every loaded ``repro`` module
        holding the same object, so callers that imported it by name see
        the wrapper too.  Every entry point must resolve: a renamed entry
        point fails here rather than silently going untraced.
        """
        sites = []
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and module is not None
        ]
        for owner, attr, span, hook, hook_self in ENTRY_POINTS:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            if original is None:
                raise AttributeError(f"entry point {owner.__name__}.{attr} not found")
            spec = (span, hook, hook_self)
            if isinstance(owner, type):
                sites.append((owner, attr, original, spec))
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    sites.append((module, attr, original, spec))
        return sites

    def install(self) -> None:
        if self._installed:
            return
        for namespace, attr, original, (span, hook, hook_self) in self._sites:
            setattr(namespace, attr, self._wrap(original, span, hook, hook_self))
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for namespace, attr, original, _ in self._sites:
            setattr(namespace, attr, original)
        self._installed = False

    # -- aggregation ----------------------------------------------------------

    def self_ms(self) -> Dict[str, float]:
        """Total self time per span name, in milliseconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += 1e3 * (end - start - child)
        return dict(totals)

