"""The four benchmark workloads: plan-cold, frontier, execute and serve.

Each workload is a fixed set of keys.  A run replays seeded shuffles of that
set, one op per key per round, so every run does the same work in another
order.  ``setup`` builds the per-key reference results the checks compare
against, calling ``tick`` between keys so the benchmark can gauge the host's
speed; ``op`` is the timed call; ``check`` validates its output.
"""

from __future__ import annotations

import ctypes
import hashlib
import http.client
import json
import math
import resource
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import Session
from repro.cost import serialize
from repro.graph.scenario import DTYPES
from repro.models import (
    build_mobilenet_v1,
    build_mobilenet_v2,
    build_resnet18,
    build_resnet50,
)

PLATFORMS = ("intel-haswell", "arm-cortex-a57")
PLAN_COLD_MODELS = (
    "alexnet", "vgg-d", "googlenet", "resnet18", "resnet50", "mobilenet_v1", "mobilenet_v2",
)
# GoogLeNet is left out: its 1.5-2 s frontier ops would set op_p90_ms alone.
FRONTIER_MODELS = ("alexnet", "vgg-d", "mobilenet_v1", "resnet18", "mobilenet_v2")
# The 64-px builds the zoo end-to-end tests execute.
EXECUTE_NETWORKS = {
    "resnet18": lambda: build_resnet18(input_size=64, base_width=8),
    "resnet50": lambda: build_resnet50(input_size=64, base_width=8),
    "mobilenet_v1": lambda: build_mobilenet_v1(input_size=64, width_multiplier=0.125),
    "mobilenet_v2": lambda: build_mobilenet_v2(input_size=64, width_multiplier=0.125),
}
EXECUTE_DTYPES = ("fp32", "int8")
#: Largest error of a network output, relative to the largest magnitude of the
#: all-SUM2D reference at the same dtype (the per-primitive tolerances the
#: precision tests declare).
OUTPUT_TOLERANCE = {"fp32": 1e-5, "int8": 1e-1}
PLAN_COLD_KEYS = [(m, p, d) for m in PLAN_COLD_MODELS for p in PLATFORMS for d in DTYPES]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spearman(xs: List[float], ys: List[float]) -> Optional[float]:
    """Spearman rank correlation, ties given their average rank."""

    def ranks(values):
        order = sorted(range(len(values)), key=values.__getitem__)
        result = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                result[order[k]] = (i + j) / 2.0
            i = j + 1
        return result

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return None
    return sxy / math.sqrt(sxx * syy)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _die_with_parent() -> None:
    """In a child, before exec: have the kernel send SIGTERM when the parent dies."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class Workload:
    """Keys, set-up, the timed op and its check; one closed-loop client."""

    threads = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.keys: List[tuple] = []

    def setup(self, tick: Callable[[], None]) -> None:
        raise NotImplementedError

    def op(self, key):
        raise NotImplementedError

    def check(self, key, result) -> bool:
        raise NotImplementedError

    def observe(self, tracer, key, result) -> None:
        """Record per-op counts of a traced op (default: none)."""

    def plan_ms_geomean(self) -> float:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def finish(self) -> List[str]:
        """Take end-of-run measurements; return any failed run-level checks."""
        return []

    def layer_metrics(self, total_ops: int, client_p50_ms: float) -> Dict[str, float]:
        """Per-layer metrics the workload measures itself (default: none)."""
        return {}

    def close(self) -> None:
        pass


class PlanCold(Workload):
    """Cold planning: every op clears the session, so it misses every cache.

    Keys: {alexnet, vgg-d, googlenet, resnet18, resnet50, mobilenet_v1,
    mobilenet_v2} x {intel-haswell, arm-cortex-a57} x {fp32, fp16, int8}.
    Op: ``Session.clear_cache()``, ``Session.plan(..., verify=True)``, then
    key-sorted JSON of ``plan_to_dict``.  Repeated keys: 0% -- no work is
    reused between ops.  Traced on a 2-vCPU VM, an op took ~118 ms: cost
    tables ~65%, the PBQP encoder ~21%, R2 reductions ~5%, and solve,
    reduce, legalize, verify and serialize 1-2% each.
    Checks: verification passes, ``pbqp_cost`` equals ``total_cost``
    (relative 1e-9) and the document digest equals the set-up digest.
    """

    def setup(self, tick: Callable[[], None]) -> None:
        self.keys = PLAN_COLD_KEYS
        self.session = Session()
        self.reference: Dict[tuple, Tuple[str, float]] = {}
        for key in self.keys:
            tick()
            result = self.op(key)
            if not self._cost_consistent(result[0]):
                raise RuntimeError(f"setup plan for {key} has pbqp_cost != total_cost")
            self.reference[key] = (_digest(result[1]), result[0].total_ms)

    def op(self, key):
        model, platform, dtype = key
        self.session.clear_cache()
        plan = self.session.plan(model, platform, dtype=dtype, verify=True)
        document = json.dumps(serialize.plan_to_dict(plan.network_plan), sort_keys=True)
        return plan, document

    @staticmethod
    def _cost_consistent(plan) -> bool:
        network_plan = plan.network_plan
        return math.isclose(
            network_plan.metadata["pbqp_cost"], network_plan.total_cost, rel_tol=1e-9
        )

    def check(self, key, result) -> bool:
        plan, document = result
        return self._cost_consistent(plan) and _digest(document) == self.reference[key][0]

    def observe(self, tracer, key, result) -> None:
        tracer.count("serialize.doc_bytes", len(result[1]))

    def plan_ms_geomean(self) -> float:
        return geomean(self.reference[key][1] for key in sorted(self.reference))


class FrontierWorkload(Workload):
    """Pareto frontiers over contexts warmed in set-up.

    Keys: {alexnet, vgg-d, mobilenet_v1, resnet18, mobilenet_v2} x
    {intel-haswell, arm-cortex-a57}, all dtypes (the default).  Op:
    ``Session.plan_frontier`` and ``to_json``.  Repeated keys: 100% after
    set-up -- every context is reused, no cost table is built, and each op
    runs the encoder and solver about 18 times on transformed tables.  A
    memo that helps here but costs cold planning shows on plan-cold.  Traced
    on a 2-vCPU VM, an op took ~370 ms: the encoder ~58%, the frontier's own
    code ~10%, R2 ~8%, solve ~6%, legalize ~4%, reduce ~4%.
    Check: the ``to_json`` digest equals the set-up digest.
    """

    def setup(self, tick: Callable[[], None]) -> None:
        self.keys = [(m, p) for m in FRONTIER_MODELS for p in PLATFORMS]
        self.session = Session()
        for model, platform in self.keys:
            for dtype in DTYPES:
                tick()
                self.session.context_for(model, platform, dtype=dtype)
        self.reference: Dict[tuple, Tuple[str, float]] = {}
        for key in self.keys:
            tick()
            frontier, document = self.op(key)
            self.reference[key] = (_digest(document), frontier.min_time().plan.total_ms)

    def op(self, key):
        frontier = self.session.plan_frontier(*key)
        return frontier, frontier.to_json()

    def check(self, key, result) -> bool:
        return _digest(result[1]) == self.reference[key][0]

    def plan_ms_geomean(self) -> float:
        return geomean(self.reference[key][1] for key in sorted(self.reference))


class Execute(Workload):
    """Forward passes of PBQP plans made in set-up; nothing is planned.

    Keys: the 64-px zoo builds the end-to-end tests execute (resnet18 and
    resnet50 at base width 8, mobilenet_v1 and mobilenet_v2 at width 0.125)
    x {intel-haswell, arm-cortex-a57} x {fp32, int8}.  Op:
    ``Plan.execute(seed=<run seed>)``.  Repeated keys: 100%.  The only
    workload where the runtime and primitives do the work.  Traced on a
    2-vCPU VM, an op took ~28 ms: non-convolution layers and the executor
    loop ~40%, Winograd ~29% (56% of primitive time), im2col ~14%, direct
    and executor set-up ~5% each, conversions under 1%.
    Checks: the output matches the network's all-SUM2D plan at the same
    dtype within the dtype's tolerance, and every planned conversion chain
    ran once (``conversions_executed == conversions_planned``).
    """

    def setup(self, tick: Callable[[], None]) -> None:
        self.session = Session()
        networks = {name: build() for name, build in EXECUTE_NETWORKS.items()}
        # Every primitive computes the same function, so each plan must match
        # the all-SUM2D plan of its network at its own dtype.
        self.reference = {}
        for name, network in networks.items():
            for dtype in EXECUTE_DTYPES:
                tick()
                plan = self.session.plan(network, PLATFORMS[0], strategy="sum2d", dtype=dtype)
                self.reference[name, dtype] = plan.execute(seed=self.seed).primary_output
        self.plans = {}
        for name, network in networks.items():
            for platform in PLATFORMS:
                for dtype in EXECUTE_DTYPES:
                    tick()
                    self.plans[name, platform, dtype] = self.session.plan(
                        network, platform, dtype=dtype
                    )
        self.keys = list(self.plans)
        self.rhos: List[float] = []

    def op(self, key):
        return self.plans[key].execute(seed=self.seed)

    def check(self, key, report) -> bool:
        reference = self.reference[key[0], key[2]]
        output = report.primary_output
        if output.shape != reference.shape:
            return False
        error = float(abs(output - reference).max())
        scale = float(abs(reference).max())
        return (
            error <= OUTPUT_TOLERANCE[key[2]] * scale
            and report.conversions_executed == report.conversions_planned
        )

    def observe(self, tracer, key, report) -> None:
        tracer.count("runtime.conversions_executed", report.conversions_executed)
        convs = [layer for layer in report.layers if layer.primitive]
        rho = spearman([c.predicted_ms for c in convs], [c.measured_ms for c in convs])
        if rho is not None:
            self.rhos.append(rho)

    def layer_metrics(self, total_ops: int, client_p50_ms: float) -> Dict[str, float]:
        rhos = self.rhos
        return {"runtime.predicted_measured_spearman": sum(rhos) / len(rhos) if rhos else 0.0}

    def plan_ms_geomean(self) -> float:
        return geomean(self.plans[key].total_ms for key in sorted(self.plans))


class Serve(Workload):
    """Warm ``POST /v1/plan`` requests to a ``repro serve`` child process.

    Keys: the plan-cold keys, each warmed by one request in set-up.  Op: one
    ``POST /v1/plan`` on a new connection, from two client threads.
    Repeated keys: 100% after set-up; the daemon answers from its
    ``DocumentCache`` and runs no solve.  Traced on a 2-vCPU VM, the
    handler's own p50 was ~0.04 ms of a ~4 ms op: the rest is the
    connection, the daemon's thread per connection, JSON encoding of a
    ~30 KB body and the client.  The daemon is a separate process, so its
    numbers come from client timings and ``/v1/metrics`` snapshots.
    Checks: the body, minus ``from_cache``, equals the set-up response,
    ``from_cache`` is true, and the daemon's solve counter stays flat.
    """

    threads = 2
    PLAN_PATH = "/v1/plan"
    CACHED = b'"from_cache": true'
    UNCACHED = b'"from_cache": false'

    def __init__(self, seed: int, root: Path, env: Dict[str, str], log_path: Path) -> None:
        super().__init__(seed)
        self.root = root
        self.env = env
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None

    def setup(self, tick: Callable[[], None]) -> None:
        self.keys = PLAN_COLD_KEYS
        self._start_daemon()
        self.reference: Dict[tuple, bytes] = {}
        self.plan_ms: Dict[tuple, float] = {}
        for key in self.keys:
            tick()
            status, body = self.op(key)
            if status != 200 or body.count(self.UNCACHED) != 1:
                raise RuntimeError(f"warming {key} returned HTTP {status}")
            self.reference[key] = body
            self.plan_ms[key] = json.loads(body)["total_ms"]
        self.before = self._metrics()

    def _start_daemon(self) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0"]
        self.log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command,
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=self.log,
            preexec_fn=_die_with_parent,
        )
        deadline = time.monotonic() + 60.0
        line = b""
        while b"listening on http://" not in line:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError("the planning daemon did not start; see " + str(self.log_path))
            ready, _, _ = select.select([self.process.stdout], [], [], remaining)
            if ready:
                line = self.process.stdout.readline()
        address = line.split(b"http://", 1)[1].split()[0].decode()
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def _request(self, method: str, path: str, body: Optional[bytes]) -> Tuple[int, bytes]:
        # One connection per request, as PlannerClient does.  A kept-alive
        # connection stalls each response on the daemon's separate header
        # and body writes (Nagle against delayed ACKs, ~40 ms per request).
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def op(self, key):
        model, platform, dtype = key
        body = json.dumps({"model": model, "platform": platform, "dtype": dtype}).encode()
        return self._request("POST", self.PLAN_PATH, body)

    def check(self, key, result) -> bool:
        status, body = result
        return (
            status == 200
            and body.count(self.CACHED) == 1
            and body.replace(self.CACHED, self.UNCACHED) == self.reference[key]
        )

    def observe(self, tracer, key, result) -> None:
        tracer.count("service.response_bytes", len(result[1]))

    def _metrics(self) -> dict:
        status, body = self._request("GET", "/v1/metrics", None)
        if status != 200:
            raise RuntimeError(f"/v1/metrics returned HTTP {status}")
        return json.loads(body)

    def finish(self) -> List[str]:
        """Snapshot the daemon's metrics and peak memory after the ops."""
        self.after = self._metrics()
        with open(f"/proc/{self.process.pid}/status") as status:
            fields = dict(line.split(":", 1) for line in status if ":" in line)
        self.daemon_peak_rss_mb = int(fields["VmHWM"].split()[0]) / 1024.0
        solves = self.solves()
        return [f"the daemon ran {solves} PBQP solves during the ops"] if solves else []

    def solves(self) -> int:
        return self.after["pbqp_solves_total"] - self.before["pbqp_solves_total"]

    def server_p50_ms(self) -> float:
        series = f'request_latency{{endpoint="POST {self.PLAN_PATH}"}}'
        return self.after["latencies_ms"][series]["p50_ms"]

    def layer_metrics(self, total_ops: int, client_p50_ms: float) -> Dict[str, float]:
        counters = [snapshot["counters"] for snapshot in (self.before, self.after)]
        hits = counters[1].get("plan_cache_hits", 0) - counters[0].get("plan_cache_hits", 0)
        misses = counters[1].get("plan_cache_misses", 0) - counters[0].get(
            "plan_cache_misses", 0
        )
        server_p50_ms = self.server_p50_ms()
        return {
            "service.server_p50_ms": server_p50_ms,
            "service.transport_ms": client_p50_ms - server_p50_ms,
            "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.cache_lookups": (hits + misses) / total_ops,
            "service.solves": self.solves() / total_ops,
        }

    def plan_ms_geomean(self) -> float:
        return geomean(self.plan_ms[key] for key in sorted(self.plan_ms))

    def peak_rss_mb(self) -> float:
        return self.daemon_peak_rss_mb

    def close(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process is not None:
            self.process.stdout.close()
            self.log.close()
