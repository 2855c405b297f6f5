"""Command-line interface for the reproduction.

Twelve subcommands cover the workflows a downstream user needs:

* ``repro select``  — run one selection strategy for a zoo model on a modelled
  platform (default: the paper's PBQP pipeline) and print (or save) the plan;
* ``repro run``     — plan *and execute* a forward pass (or execute a plan
  saved with ``select --save``) and print the per-layer execution report;
* ``repro compare`` — evaluate every registered strategy for one
  network/platform/thread-count, ranked by total cost with speedups;
* ``repro frontier`` — build the multi-objective Pareto frontier (time, peak
  workspace, energy proxy) and print it with a workspace-budget sweep;
* ``repro cache``   — inspect, evict from, or clear a persistent cost-table
  store;
* ``repro check``   — statically verify saved plan/tables/frontier documents
  (rule codes ``RV1xx``) without executing them;
* ``repro lint``    — run the project-specific AST lint (rule codes
  ``LT2xx``: registry mutation, unseeded random, unsorted JSON, lock
  discipline);
* ``repro serve``   — run the planning daemon (``POST /v1/plan`` et al.) over
  a shared thread-safe session, warm-started from ``--cache-dir``;
* ``repro figures`` — regenerate the full set of whole-network figures;
* ``repro tables``  — regenerate the absolute-time tables (Tables 2 and 3);
* ``repro platforms`` — list every registered platform with its calibration
  factors (the registry is open: see :mod:`repro.cost.platform`);
* ``repro list``    — list the available models, platforms and registered
  selection strategies.

Every selection-driving subcommand accepts ``--cache-dir PATH``: cost tables
are then persisted in a :class:`~repro.cost.store.CostStore`, so a second
invocation (a fresh process) skips profiling entirely.  ``select``, ``run``
and ``compare`` accept the network either positionally (``repro select
alexnet``) or as ``--network alexnet``, plus ``--batch N`` to price the
selection (and execute the forward pass) for minibatches of ``N`` images.

Invoke as ``python -m repro <subcommand> ...`` (or ``repro <subcommand> ...``
once the package is installed).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.api import Session
from repro.core.strategies import STRATEGIES, registered_names
from repro.cost.platform import PLATFORMS, get_platform, list_platforms
from repro.graph.scenario import DTYPES
from repro.cost.store import CostStore
from repro.experiments.tables import format_absolute_table, run_absolute_time_table
from repro.experiments.whole_network import (
    DEFAULT_FIGURE_NETWORKS,
    FIGURE_NETWORKS,
    format_speedup_table,
    run_whole_network,
)
from repro.models import MODEL_BUILDERS
from repro.runtime.codegen import render_schedule


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    """Positional model name plus the equivalent ``--network`` option."""
    parser.add_argument(
        "model",
        nargs="?",
        choices=sorted(MODEL_BUILDERS),
        help="model zoo network (positional form)",
    )
    parser.add_argument(
        "--network",
        choices=sorted(MODEL_BUILDERS),
        help="model zoo network (option form, equivalent to the positional)",
    )


def _resolve_model(parser: argparse.ArgumentParser, args: argparse.Namespace) -> str:
    """The network a subcommand should operate on, from either spelling."""
    if args.model and args.network and args.model != args.network:
        parser.error(
            f"conflicting networks: positional {args.model!r} vs --network {args.network!r}"
        )
    model = args.model or args.network
    if not model:
        parser.error("a network is required (positional MODEL or --network NAME)")
    return model


def _add_platform_argument(parser: argparse.ArgumentParser) -> None:
    # Deliberately not `choices=...`: the platform registry is open (user
    # code can register platforms before invoking main), so validation goes
    # through the registry at dispatch time — see _resolve_platform — and
    # the error message lists whatever is registered *then*.
    parser.add_argument(
        "--platform",
        default="intel-haswell",
        help="modelled hardware platform, as listed by 'repro platforms' "
        "(default: intel-haswell)",
    )


def _resolve_platform(args: argparse.Namespace):
    """Resolve ``--platform`` through the registry (exits 2 with the valid names)."""
    try:
        return get_platform(args.platform)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(2) from None


def _add_threads_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads", type=int, default=1, help="number of threads to model (default: 1)"
    )


def _add_batch_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch",
        type=int,
        default=1,
        help="minibatch size to price and execute (default: 1, the paper's setting)",
    )


def _add_dtype_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dtype",
        choices=DTYPES,
        default="fp32",
        help="numeric precision to price and execute (default: fp32, the "
        "paper's setting)",
    )


def _add_cache_dir_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist cost tables in this directory (skips profiling when warm)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal DNN primitive selection with PBQP (CGO 2018) — reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    select = subparsers.add_parser("select", help="run primitive selection for a model")
    _add_model_arguments(select)
    _add_platform_argument(select)
    _add_threads_argument(select)
    _add_batch_argument(select)
    _add_dtype_argument(select)
    _add_cache_dir_argument(select)
    select.add_argument(
        "--strategy",
        choices=registered_names(),
        default="pbqp",
        help="registered selection strategy to run (default: pbqp)",
    )
    select.add_argument("--schedule", action="store_true", help="print the generated schedule")
    select.add_argument(
        "--save",
        "--output",
        dest="save",
        metavar="PATH",
        help="write the selected plan to this JSON file (executable via 'run --plan')",
    )

    run = subparsers.add_parser(
        "run", help="plan and execute one forward pass, reporting per-layer times"
    )
    _add_model_arguments(run)
    _add_platform_argument(run)
    _add_threads_argument(run)
    _add_batch_argument(run)
    _add_dtype_argument(run)
    _add_cache_dir_argument(run)
    run.add_argument(
        "--strategy",
        choices=registered_names(),
        default="pbqp",
        help="registered selection strategy to run (default: pbqp)",
    )
    run.add_argument(
        "--plan",
        metavar="PATH",
        help="execute a plan saved with 'select --save' instead of selecting",
    )
    run.add_argument(
        "--seed", type=int, default=0, help="seed for weights and the generated input"
    )

    compare = subparsers.add_parser(
        "compare", help="evaluate every selection strategy for one model"
    )
    _add_model_arguments(compare)
    _add_platform_argument(compare)
    _add_threads_argument(compare)
    _add_batch_argument(compare)
    _add_dtype_argument(compare)
    _add_cache_dir_argument(compare)

    frontier = subparsers.add_parser(
        "frontier",
        help="build the multi-objective Pareto frontier of plans for one model",
    )
    _add_model_arguments(frontier)
    _add_platform_argument(frontier)
    _add_threads_argument(frontier)
    _add_batch_argument(frontier)
    _add_cache_dir_argument(frontier)
    frontier.add_argument(
        "--seed", type=int, default=0, help="tie-breaking seed (default: 0)"
    )
    frontier.add_argument(
        "--budget-steps",
        type=int,
        default=None,
        help="number of epsilon-constraint workspace caps to sweep",
    )
    frontier.add_argument(
        "--mode",
        choices=("knee", "min_time_under", "lexicographic"),
        default="knee",
        help="decision mode applied to the front (default: knee)",
    )
    frontier.add_argument(
        "--max-workspace-kib",
        type=float,
        default=None,
        help="peak-workspace budget in KiB (constrains the decision and "
        "directs an epsilon-constraint solve at exactly this budget)",
    )
    frontier.add_argument(
        "--max-energy-mj",
        type=float,
        default=None,
        help="energy-proxy budget in millijoules (constrains the decision)",
    )
    frontier.add_argument(
        "--max-time-ms",
        type=float,
        default=None,
        help="whole-network time budget in milliseconds (constrains the decision)",
    )
    frontier.add_argument(
        "--save",
        metavar="PATH",
        help="write the frontier (plans included) to this JSON file",
    )

    cache = subparsers.add_parser(
        "cache", help="inspect, evict from, or clear a persistent cost-table store"
    )
    cache.add_argument(
        "--cache-dir", required=True, help="the store directory to inspect"
    )
    cache.add_argument(
        "--clear", action="store_true", help="delete every entry in the store"
    )
    cache.add_argument(
        "--evict",
        action="store_true",
        help="remove stale-format, stale-platform-version and (with --ttl-hours) "
        "expired entries",
    )
    cache.add_argument(
        "--ttl-hours",
        type=float,
        default=None,
        help="with --evict: also remove entries older than this many hours",
    )

    check = subparsers.add_parser(
        "check",
        help="statically verify saved plan/tables/frontier documents without "
        "executing them",
    )
    check.add_argument(
        "paths", nargs="+", metavar="PATH", help="JSON documents to verify"
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures (exit 1); CI uses this so pricing "
        "regressions like a reappearing RV140 fan-out gap fail the build",
    )
    check.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the full analysis reports as JSON",
    )

    lint = subparsers.add_parser(
        "lint", help="run the project-specific AST lint (rules LT2xx)"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: src/ when present, "
        "else the installed repro package)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the full analysis report as JSON",
    )

    serve = subparsers.add_parser(
        "serve", help="run the HTTP planning daemon over a shared session"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8735, help="bind port (default: 8735; 0 = ephemeral)"
    )
    _add_cache_dir_argument(serve)

    figures = subparsers.add_parser(
        "figures", help="regenerate the whole-network figures (5/6/7a/7b)"
    )
    _add_platform_argument(figures)
    _add_threads_argument(figures)

    tables = subparsers.add_parser("tables", help="regenerate the absolute-time tables (2/3)")
    _add_platform_argument(tables)

    subparsers.add_parser(
        "platforms",
        help="list every registered platform with its calibration factors",
    )

    subparsers.add_parser(
        "list", help="list available models, platforms and registered strategies"
    )

    return parser


def _session(args: argparse.Namespace) -> Session:
    """A session honouring the subcommand's ``--cache-dir`` (when present)."""
    return Session(cache_dir=getattr(args, "cache_dir", None))


def _solver_note(plan) -> str:
    """Solver statistics suffix for the speedup line, robust to absent stats."""
    if "pbqp_optimal" not in plan.metadata:
        return ""
    solver_seconds = plan.metadata.get("solver_seconds")
    solver = "n/a" if solver_seconds is None else f"{solver_seconds * 1e3:.1f} ms"
    return f"  (solver {solver}, optimal: {plan.metadata['pbqp_optimal']})"


def _command_select(args: argparse.Namespace) -> int:
    session = _session(args)
    selected = session.plan(
        args.model,
        args.platform,
        strategy=args.strategy,
        threads=args.threads,
        batch=args.batch,
        dtype=args.dtype,
    )
    # The speedup denominator is the paper's common baseline: *single-threaded*
    # SUM2D, matching the figures' methodology regardless of --threads (but
    # priced at the same --batch, so the ratio compares like with like).
    baseline = session.baseline(
        args.model, args.platform, batch=args.batch, dtype=args.dtype
    )
    plan = selected.network_plan
    print(plan.summary())
    print(
        f"  speedup over single-threaded SUM2D baseline: "
        f"{selected.speedup_over(baseline):.2f}x{_solver_note(plan)}"
    )
    if args.schedule:
        print()
        print(render_schedule(selected.network, plan))
    if args.save:
        selected.save(args.save)
        print(f"  plan written to {args.save}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    session = _session(args)
    try:
        if args.plan:
            plan = session.plan_from_file(args.plan)
            if plan.network.name != args.model:
                print(
                    f"error: plan {args.plan} was saved for network "
                    f"{plan.network.name!r}, not {args.model!r}",
                    file=sys.stderr,
                )
                return 2
            print(f"executing saved plan {args.plan} [{plan.strategy}]")
        else:
            plan = session.plan(
                args.model,
                args.platform,
                strategy=args.strategy,
                threads=args.threads,
                batch=args.batch,
                dtype=args.dtype,
            )
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = plan.execute(seed=args.seed)
    print(report.format())
    heads = report.heads
    multi = len(heads) > 1
    for name, output in heads.items():
        label = f"head {name}" if multi else "output"
        primary = " (primary)" if multi and name == report.output_layer else ""
        if report.batch > 1:
            per_image = output.reshape(report.batch, -1)
            classes = ", ".join(str(int(row.argmax())) for row in per_image)
            print(
                f"  {label}: classes [{classes}] over the "
                f"{report.batch}-image batch{primary}"
            )
        else:
            print(
                f"  {label}: class {int(output.argmax())} "
                f"(probability {float(output.max()):.3f}){primary}"
            )
    return 0


#: Fractions of the unconstrained peak workspace swept by `repro frontier`.
_SWEEP_FRACTIONS = (1.0, 0.5, 0.25, 0.1, 0.05)


def _family_summary(plan, library) -> str:
    """Compact per-family histogram of a plan's convolution primitives."""
    from collections import Counter

    families = Counter(plan.conv_families(library).values())
    return " ".join(f"{family}x{count}" for family, count in sorted(families.items()))


def _command_frontier(args: argparse.Namespace) -> int:
    session = _session(args)
    constraints = {}
    if args.max_workspace_kib is not None:
        constraints["peak_workspace_bytes_max"] = args.max_workspace_kib * 1024.0
    if args.max_energy_mj is not None:
        constraints["energy_proxy_j_max"] = args.max_energy_mj * 1e-3
    if args.max_time_ms is not None:
        constraints["time_ms_max"] = args.max_time_ms
    kwargs = {} if args.budget_steps is None else {"budget_steps": args.budget_steps}
    frontier = session.plan_frontier(
        args.model,
        args.platform,
        threads=args.threads,
        batch=args.batch,
        constraints=constraints or None,
        seed=args.seed,
        **kwargs,
    )
    print(frontier.format())

    # Workspace-budget sweep: the fastest frontier plan under shrinking
    # fractions of the unconstrained peak, showing where families flip.
    unconstrained = frontier.min_time()
    peak = unconstrained.vector.peak_workspace_bytes
    print()
    print("workspace-budget sweep (fastest frontier plan under each budget):")
    print(f"  {'budget':>8} {'KiB':>10} {'time ms':>9} {'peak KiB':>10}  families")
    for fraction in _SWEEP_FRACTIONS:
        budget = fraction * peak
        point = frontier.min_time_under({"peak_workspace_bytes_max": budget})
        if point is None:
            print(f"  {fraction:>7.0%} {budget / 1024.0:>10.1f} {'infeasible':>9}")
            continue
        print(
            f"  {fraction:>7.0%} {budget / 1024.0:>10.1f} "
            f"{point.vector.time_ms:>9.2f} "
            f"{point.vector.peak_workspace_bytes / 1024.0:>10.1f}  "
            f"{_family_summary(point.plan, session.library)}"
        )

    decision = frontier.select(mode=args.mode, constraints=constraints or None)
    best = decision["best"]
    print()
    print(
        f"decision [{decision['decision']['mode']}]: {best.generator} — "
        f"{best.vector.time_ms:.2f} ms, "
        f"{best.vector.peak_workspace_bytes / 1024.0:.1f} KiB peak workspace, "
        f"{best.vector.energy_proxy_j * 1e3:.3f} mJ ({_family_summary(best.plan, session.library)})"
    )
    if decision["decision"].get("fallback_from"):
        print("  (no frontier point satisfies the constraints; knee shown instead)")
    if args.save:
        frontier.save(args.save)
        print(f"  frontier written to {args.save}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    session = _session(args)
    report = session.compare(
        args.model, args.platform, threads=args.threads, batch=args.batch, dtype=args.dtype
    )
    print(report.format())
    print(f"best strategy: {report.best.strategy}")
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    store = CostStore(args.cache_dir)
    if args.clear:
        removed = store.clear()
        print(f"removed {removed} cost-table entr{'y' if removed == 1 else 'ies'}")
        return 0
    if args.evict:
        ttl = None if args.ttl_hours is None else args.ttl_hours * 3600.0
        report = store.evict(ttl_seconds=ttl)
        print(
            f"evicted {report.removed} entr{'y' if report.removed == 1 else 'ies'} "
            f"(stale format: {report.stale_format}, stale platform: "
            f"{report.stale_platform}, expired: {report.expired})"
        )
        return 0
    entries = store.entries()
    stats = store.stats()
    print(
        f"cost store at {store.cache_dir} — {len(entries)} "
        f"entr{'y' if len(entries) == 1 else 'ies'}, "
        f"{stats.bytes_on_disk / 1024:.1f} KiB on disk"
    )
    for entry in entries:
        key = entry.key
        print(
            f"  {key.fingerprint:<24} {key.platform:<18} {key.threads:>2} thread(s)  "
            f"batch {key.batch:>3}  {key.dtype:<5} {key.provider} v{key.provider_version}  "
            f"{entry.size_bytes / 1024:8.1f} KiB"
        )
    return 0


def _command_check(args: argparse.Namespace) -> int:
    """Verify documents; exit 0 clean, 1 on errors (with --strict: also
    warnings), 2 on unreadable input."""
    import json

    from repro import jsondoc
    from repro.analysis.plan_verifier import verify_file

    reports = []
    for path in args.paths:
        try:
            reports.append(verify_file(path))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            return 2
    if args.as_json:
        print(jsondoc.dumps([report.to_dict() for report in reports]))
    else:
        for report in reports:
            print(report.summary())
    clean = all(
        report.ok and (not args.strict or not report.warnings) for report in reports
    )
    return 0 if clean else 1


def _command_lint(args: argparse.Namespace) -> int:
    """Lint sources; exit 0 clean, 1 on findings."""
    from pathlib import Path

    from repro.analysis.lint import run_lint

    paths = list(args.paths)
    if not paths:
        if Path("src").is_dir():
            paths = ["src"]
        else:
            import repro

            paths = [Path(repro.__file__).parent]
    report = run_lint(paths)
    if args.as_json:
        print(report.to_json())
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _command_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the service pulls in the HTTP stack and the endpoint
    # registry, which no other subcommand needs.
    from repro.service import PlannerApp, serve

    return serve(PlannerApp(cache_dir=args.cache_dir), host=args.host, port=args.port)


def _command_platforms(args: argparse.Namespace) -> int:
    header = (
        f"  {'name':<16} {'cores':>5} {'GHz':>5} {'SIMD':>5} {'LLC KiB':>8} "
        f"{'DRAM GB/s':>10} {'xform eff':>10} {'derate':>7} {'launch us':>10}  features"
    )
    print(f"registered platforms ({len(PLATFORMS)}):")
    print(header)
    for name in list_platforms():
        platform = PLATFORMS[name]
        llc = platform.last_level_cache_bytes() // 1024
        print(
            f"  {name:<16} {platform.cores:>5} {platform.frequency_ghz:>5.2f} "
            f"{platform.vector_width:>5} {llc:>8} "
            f"{platform.dram_bandwidth_gbps:>10.1f} {platform.transform_efficiency:>10.3f} "
            f"{platform.wide_vector_derating:>7.2f} {platform.launch_overhead_s * 1e6:>10.1f}  "
            f"{', '.join(sorted(platform.features)) or '-'}"
        )
    return 0


def _command_figures(args: argparse.Namespace) -> int:
    platform = get_platform(args.platform)  # validated by main() already
    message = platform.threads_error(args.threads)
    if message is not None:
        print(f"error: --threads {message}", file=sys.stderr)
        return 2
    networks = FIGURE_NETWORKS.get(platform.name, DEFAULT_FIGURE_NETWORKS)
    session = Session()
    results = [
        run_whole_network(name, platform, threads=args.threads, session=session)
        for name in networks
    ]
    mode = "multithreaded" if args.threads > 1 else "single-threaded"
    print(format_speedup_table(results, f"Whole-network speedups on {platform.name} ({mode})"))
    return 0


def _command_tables(args: argparse.Namespace) -> int:
    platform = get_platform(args.platform)  # validated by main() already
    rows = run_absolute_time_table(platform)
    print(format_absolute_table(rows, f"Single inference time on {platform.name} (ms)"))
    return 0


def _command_list(args: argparse.Namespace) -> int:
    print("models:")
    for name in sorted(MODEL_BUILDERS):
        print(f"  {name}")
    print("platforms:")
    for name, platform in sorted(PLATFORMS.items()):
        print(
            f"  {name:<18} {platform.cores} cores @ {platform.frequency_ghz} GHz, "
            f"{platform.vector_width}-wide SIMD"
        )
    print("strategies:")
    for strategy in STRATEGIES.values():
        tags = []
        if strategy.is_framework:
            tags.append("framework emulation")
        if strategy.figure_order is None:
            tags.append("not a figure bar")
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        print(f"  {strategy.name:<18} {strategy.description}{suffix}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("select", "run", "compare", "frontier"):
        args.model = _resolve_model(parser, args)
    if hasattr(args, "platform"):
        # Validate up front so every subcommand shares the registry-backed
        # error (the old per-command KeyError named no valid alternatives).
        _resolve_platform(args)
    handlers = {
        "select": _command_select,
        "run": _command_run,
        "compare": _command_compare,
        "frontier": _command_frontier,
        "cache": _command_cache,
        "check": _command_check,
        "lint": _command_lint,
        "serve": _command_serve,
        "figures": _command_figures,
        "tables": _command_tables,
        "platforms": _command_platforms,
        "list": _command_list,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # e.g. a gated strategy or threads above the cores
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
