"""The repository benchmark: one command, four workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``plan-cold``, ``frontier``, ``execute``, ``serve``
(see ``BENCHMARK.json`` for what each measures and why).  Each workload is a
closed loop over seeded shuffles of its key set: a round runs every key once,
and rounds repeat until ``--seconds`` have passed and, untraced, at least
``MIN_OPS`` ops have run, so that ten samples lie above ``op_p90_ms``.

``--trace 0`` prints every end-to-end metric, with its times scaled to a
host of reference speed.  The small shared host this benchmark was built on
runs the same code up to 1.7x slower, in phases of seconds to minutes, as
other guests load it, which moved whole runs by a third.  So a fixed
reference kernel of interpreted work runs alone between slices of the timed
work (every ``SLICE_S`` seconds, in set-up between keys), and each slice's
times are multiplied by ``REFERENCE_KERNEL_MS`` over the mean of the two
kernel times around it.  The time the kernel itself takes is left out.  The
unscaled figures are printed on a ``# raw`` line and written to the output
file.

``--trace 1`` alternates untraced and traced rounds and prints every
per-layer metric, from spans recorded around each layer's entry points (see
``tracing.py``), plus the tracing overhead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; everything the run measured, including the spans, is also
written under ``perfbench/out/``.

Every count metric and ``plan_ms_geomean`` must repeat exactly when the same
source tree runs the same workload with the same seed; a run that disagrees
with an earlier one exits with status 3.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

STARTED = float(os.environ.get("PERFBENCH_STARTED", time.monotonic()))
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("plan-cold", "frontier", "execute", "serve")
#: Fewest untraced ops a run measures: ten samples lie above the 90th percentile.
MIN_OPS = 100
#: Per-op counts: whole rounds make them exact, so they must repeat run to run.
DETERMINISTIC_UNITS = ("count/op", "bytes/op")
#: Shortest time between two runs of the reference kernel in an untraced run.
SLICE_S = 0.2
#: The reference kernel's median time on the 2-vCPU Xeon VM the bounds were
#: set on, run between ops as here.
REFERENCE_KERNEL_MS = 3.0


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty sample."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def reference_kernel():
    """Fixed interpreted work with the planner's character: build, sort and
    index a few thousand small tuples and dicts, then serialize some."""
    rows = [(i * 7919 % 10007, str(i), {"id": i, "weight": i * 0.5}) for i in range(2000)]
    rows.sort(key=lambda row: row[0])
    index = {row[1]: row for row in rows}
    json.dumps([index[str(i)][2] for i in range(0, 2000, 4)], sort_keys=True)


class HostSpeed:
    """Runs of the reference kernel, and the time between them at reference speed."""

    def __init__(self):
        # (start, end, kernel ms); slice i is the time between runs i and i + 1.
        self.runs = []

    def sample(self):
        # The collector stays off so that the program's heap, which a
        # collection would walk, cannot change the kernel's time.
        gc.disable()
        start = time.monotonic()
        reference_kernel()
        end = time.monotonic()
        gc.enable()
        self.runs.append((start, end, 1e3 * (end - start)))

    def due(self):
        return time.monotonic() - self.runs[-1][1] >= SLICE_S

    def tick(self):
        if self.due():
            self.sample()

    def scales(self):
        """Per slice, the reference kernel time over the mean kernel time around it."""
        return [
            2.0 * REFERENCE_KERNEL_MS / (before[2] + after[2])
            for before, after in zip(self.runs, self.runs[1:])
        ]

    def busy_s(self, scales, since=None):
        """Seconds spent outside the kernel, each slice times its scale.

        ``since`` adds the time from then to the first run, at the first
        slice's scale.
        """
        runs = self.runs
        total = sum(
            (after[0] - before[1]) * scale for before, after, scale in zip(runs, runs[1:], scales)
        )
        if since is not None:
            total += (runs[0][0] - since) * scales[0]
        return total


def blas_threads():
    """The thread count the loaded BLAS library reports, or None."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line})
    names = (
        "openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
    )
    for path in paths:
        library = ctypes.CDLL(path)
        for name in names:
            function = getattr(library, name, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    with open("/proc/stat") as stat:
        fields = [int(value) for value in stat.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def source_digest():
    """SHA-256 over the program and benchmark sources: the code measured."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")) + [ROOT / "BENCHMARK.json"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_stamp():
    """HEAD and whether tracked files differ from it; None outside a git tree."""
    if not (ROOT / ".git").exists():
        return None, None

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        return None, None


def stamp(seed, numpy, cpus):
    head, dirty = git_stamp()
    return {
        "head": head,
        "dirty": dirty,
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(cpus),
        "pinned_cpu": cpus[0],
        "blas_threads": blas_threads(),
        "blas_env": {variable: os.environ[variable] for variable in BLAS_THREAD_VARIABLES},
        "seed": seed,
        "python_hash_seed": os.environ["PYTHONHASHSEED"],
    }


class Loop:
    """The closed loop: hands out ops round by round to the client threads."""

    def __init__(self, workload, tracer, seed, seconds):
        self.workload = workload
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.lock = threading.Condition()
        self.in_flight = 0
        self.queue = []
        self.round = -1
        # Untraced, the reference kernel runs alone between slices of ops.
        self.speed = HostSpeed() if tracer is None else None
        # (round, key index, start, end, ok, slice)
        self.records = []
        self.error = None

    def _done(self, now):
        rounds = self.round + 1
        if rounds == 0 or now - self.start < self.seconds:
            return False
        if self.tracer is not None:
            return rounds % 2 == 0
        return rounds * len(self.workload.keys) >= MIN_OPS

    def _next(self):
        with self.lock:
            speed = self.speed
            if speed is not None and speed.due():
                # The kernel runs alone: the ops in flight finish first, unless
                # another client ran it meanwhile.
                self.lock.wait_for(lambda: self.in_flight == 0 or not speed.due())
                speed.tick()
            if not self.queue:
                if self._done(time.perf_counter()):
                    return None
                self.round += 1
                self.queue = self.rng.sample(range(len(self.workload.keys)), len(self.workload.keys))
                if self.tracer is not None and self.workload.threads == 1:
                    # Odd rounds are traced; wrappers are patched in only for them.
                    if self.round % 2:
                        self.tracer.install()
                    else:
                        self.tracer.uninstall()
            self.in_flight += 1
            return self.round, self.queue.pop(), len(speed.runs) - 1 if speed else -1

    def _client(self):
        workload, tracer = self.workload, self.tracer
        while True:
            item = self._next()
            if item is None:
                return
            round_index, key_index, slice_index = item
            key = workload.keys[key_index]
            traced = tracer is not None and round_index % 2 == 1
            span = tracer.begin("op", len(self.records)) if traced else None
            start = time.perf_counter()
            try:
                result = workload.op(key)
                end = time.perf_counter()
                if traced:
                    tracer.end(span)
                ok = workload.check(key, result)
                if traced:
                    workload.observe(tracer, key, result)
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                end = time.perf_counter()
                if traced and span is not None and tracer.spans[span][2] == 0.0:
                    tracer.end(span)
                ok = False
                if self.error is None:
                    self.error = traceback.format_exc()
            with self.lock:
                self.records.append((round_index, key_index, start, end, ok, slice_index))
                self.in_flight -= 1
                self.lock.notify_all()

    def run(self):
        ticks = cpu_ticks()
        if self.speed is not None:
            self.speed.sample()
        self.start = time.perf_counter()
        threads = [threading.Thread(target=self._client) for _ in range(self.workload.threads - 1)]
        for thread in threads:
            thread.start()
        try:
            self._client()
        finally:
            for thread in threads:
                thread.join()
            if self.tracer is not None:
                self.tracer.uninstall()
        if self.speed is not None:
            self.speed.sample()
        steal, total = (after - before for after, before in zip(cpu_ticks(), ticks))
        # Share of CPU time the hypervisor gave to other guests while measuring.
        self.steal_pct = 100.0 * steal / total if total else 0.0


def throughput(records):
    """Ops per second over the rounds the records cover."""
    spans = {}
    for round_index, _, start, end, _, _ in records:
        first, last = spans.get(round_index, (start, end))
        spans[round_index] = (min(first, start), max(last, end))
    return len(records) / sum(last - first for first, last in spans.values())


def timings(loop, scales):
    """Throughput and latency percentiles, each interval times its slice's scale."""
    # Failed ops are counted in "failed"; their latencies would mix in
    # requests that did not complete their work.
    records = [record for record in loop.records if record[4]] or loop.records
    latencies = [1e3 * (end - start) * scales[index] for _, _, start, end, _, index in records]
    return {
        "ops_per_s": len(loop.records) / loop.speed.busy_s(scales),
        "op_p50_ms": quantile(latencies, 0.50),
        "op_p90_ms": quantile(latencies, 0.90),
    }


def end_to_end(loop, workload, setup_speed):
    """The end-to-end metrics at reference host speed, and the same timings unscaled.

    Set-up runs from process start until the first op can be timed; the
    kernel runs during it are left out of both figures.
    """
    scales, setup_scales = loop.speed.scales(), setup_speed.scales()
    scaled = {
        "setup_s": setup_speed.busy_s(setup_scales, since=STARTED),
        **timings(loop, scales),
        "peak_rss_mb": workload.peak_rss_mb(),
        "plan_ms_geomean": workload.plan_ms_geomean(),
    }
    raw = {
        "setup_s": setup_speed.busy_s([1.0] * len(setup_scales), since=STARTED),
        **timings(loop, [1.0] * len(scales)),
    }
    return scaled, raw


def per_layer(loop, workload, tracer):
    traced = [record for record in loop.records if record[0] % 2 == 1]
    untraced = [record for record in loop.records if record[0] % 2 == 0]
    ops = len(traced)
    metrics = {}
    for name, total in tracer.self_ms().items():
        metrics[("op.other" if name == "op" else name) + "_ms"] = total / ops
    for name, total in tracer.counts.items():
        metrics[name] = total / ops
    client_p50_ms = quantile([1e3 * (end - start) for _, _, start, end, _, _ in loop.records], 0.5)
    metrics.update(workload.layer_metrics(len(loop.records), client_p50_ms))
    traced_rate, untraced_rate = throughput(traced), throughput(untraced)
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    return metrics


def tripwire(workload_name, seed, trace, digest, values):
    """Fail loudly when a deterministic metric differs from an earlier run."""
    path = OUT / "tripwire" / f"{workload_name}-seed{seed}-trace{trace}-{digest[:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        differing = {
            name: (earlier.get(name), value)
            for name, value in values.items()
            if earlier.get(name) != value
        }
        return differing
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(values, sort_keys=True, indent=1))
    return {}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name, seed):
    import workloads

    if name == "serve":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        return workloads.Serve(seed, ROOT, env, OUT / f"serve-daemon-seed{seed}.log")
    return {
        "plan-cold": workloads.PlanCold,
        "frontier": workloads.FrontierWorkload,
        "execute": workloads.Execute,
    }[name](seed)


def prepare_process():
    """Fix what makes one run differ from the next; return the usable CPUs.

    String hashing is salted per process, so dict and set layouts -- and
    with them the speed of the planner's many dict lookups -- change from
    run to run: the salt is fixed by re-executing once.  Two BLAS threads
    fight over the two cores of a small box, so every BLAS and OpenMP pool
    gets one thread.  And the process runs on one core: on a 2-vCPU VM,
    serve's request/response ping-pong between two cores had 10-30% of CPU
    time stolen by the hypervisor (each wake-up of an idle vCPU waits on the
    host) and its throughput swung by a third from run to run; on one core
    it saw 1-2%.  Children inherit all three settings.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.environ["PERFBENCH_STARTED"] = repr(STARTED)
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    os.environ.pop("PERFBENCH_STARTED", None)
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    return cpus


def main(argv=None):
    cpus = prepare_process()
    args = parse_args(argv)
    # A terminated run still unwinds, so the serve daemon is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)

    workload = make_workload(args.workload, args.seed)
    setup_speed = HostSpeed()
    setup_speed.sample()
    try:
        workload.setup(setup_speed.tick)
        setup_speed.sample()
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        loop = Loop(workload, tracer, args.seed, args.seconds)
        loop.run()
        problems = workload.finish()
        raw = {}
        if args.trace:
            measured = per_layer(loop, workload, tracer)
        else:
            measured, raw = end_to_end(loop, workload, setup_speed)
        if measured.get("pbqp.rn_count"):
            problems.append("the solver fell back to the RN heuristic (pbqp.rn_count > 0)")
    finally:
        workload.close()

    unknown = sorted(set(measured) - {metric["name"] for metric in declared})
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {
        metric["name"]: {"value": measured.get(metric["name"], 0.0), "unit": metric["unit"]}
        for metric in declared
    }
    info = stamp(args.seed, numpy, cpus)
    deterministic = {
        name: entry["value"]
        for name, entry in metrics.items()
        if entry["unit"] in DETERMINISTIC_UNITS or name == "plan_ms_geomean"
    }
    differing = tripwire(args.workload, args.seed, args.trace, info["source_digest"], deterministic)
    failed = sum(1 for record in loop.records if not record[4])
    result = {
        "correct": failed == 0 and not problems and not differing,
        "attempted": len(loop.records),
        "failed": failed,
        "metrics": metrics,
    }
    latencies = sorted(1e3 * (end - start) for _, _, start, end, _, _ in loop.records)
    p90 = quantile(latencies, 0.9)
    report = {
        "workload": args.workload,
        "stamp": info,
        "rounds": loop.round + 1,
        "keys": len(workload.keys),
        "samples_above_p90": sum(1 for value in latencies if value > p90),
        "steal_pct": loop.steal_pct,
        "raw": raw,
        # (start, end, ms) of each reference-kernel run during the ops.
        "kernel_runs": loop.speed.runs if loop.speed else [],
        "problems": problems,
        "first_error": loop.error,
        "result": result,
        "key_names": [list(key) for key in workload.keys],
        # (round, key index, start, latency ms, ok, slice) of every op, in
        # completion order; slice i ran between kernel runs i and i + 1.
        "ops": [
            [round_index, key_index, start, 1e3 * (end - start), ok, slice_index]
            for round_index, key_index, start, end, ok, slice_index in loop.records
        ],
    }
    output = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    output.write_text(
        json.dumps({**report, "spans": tracer.spans if tracer else []}, sort_keys=True)
    )
    print("# stamp " + json.dumps(info, sort_keys=True))
    print(
        f"# {args.workload}: {report['rounds']} rounds x {report['keys']} keys, "
        f"{report['samples_above_p90']} samples above p90, {loop.steal_pct:.1f}% CPU stolen, "
        f"BLAS threads {info['blas_threads']}"
    )
    if raw:
        print("# raw (unscaled): " + json.dumps(raw, sort_keys=True))
    for message in problems:
        print(f"# check failed: {message}", file=sys.stderr)
    if loop.error:
        print(f"# first failed op:\n{loop.error}", file=sys.stderr)
    if differing:
        print(
            "error: deterministic metrics differ from an earlier run of the same "
            f"source, workload and seed: {json.dumps(differing, sort_keys=True)}",
            file=sys.stderr,
        )
        return 3
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
