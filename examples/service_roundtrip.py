#!/usr/bin/env python
"""Round-trip the planning daemon: one plan per registered platform, then metrics.

Exercises the full service surface the way a deployment would: health check,
platform listing, one ``POST /v1/plan`` per registered platform (cold, then
warm to show the cached path), a strategy comparison, a Pareto frontier, and
a final ``/v1/metrics`` scrape.  Exits non-zero if any response is a 5xx or a
warm plan differs from its cold twin — which makes the script double as the
CI smoke gate for ``repro serve``.

Run against an already-running daemon (as CI does):

    repro serve --port 8735 &
    REPRO_SERVICE_PORT=8735 python examples/service_roundtrip.py

or standalone — without ``REPRO_SERVICE_PORT`` the script boots an in-process
server on an ephemeral port and tears it down afterwards.
"""

import json
import os
import sys
import threading

from repro.service import PlannerClient, ServiceError

MODEL = "alexnet"


def run(client: "PlannerClient") -> int:
    health = client.wait_until_ready(timeout=60)
    print(f"healthz: {health['status']} (uptime {health['uptime_s']:.1f}s, "
          f"{health['models']} models, {health['platforms']} platforms)")

    failures = 0
    platforms = [p["name"] for p in client.platforms()]
    print(f"platforms: {', '.join(platforms)}")
    for platform in platforms:
        try:
            cold = client.plan(MODEL, platform)
            warm = client.plan(MODEL, platform)
        except ServiceError as error:
            print(f"  {platform}: FAILED — {error}")
            failures += 1
            continue
        identical = json.dumps(cold["plan"], sort_keys=True) == json.dumps(
            warm["plan"], sort_keys=True
        )
        if not warm["from_cache"] or not identical:
            print(f"  {platform}: FAILED — warm response not served from cache")
            failures += 1
            continue
        print(
            f"  {platform:<16} {cold['total_ms']:8.2f} ms total, "
            f"warm from_cache={warm['from_cache']}"
        )

    compare = client.compare(MODEL, platforms[0])
    print(f"compare on {platforms[0]}: best strategy {compare['best']} "
          f"({len(compare['results'])} strategies ranked)")
    frontier = client.frontier(MODEL, platforms[0], budget_steps=2)
    print(f"frontier on {platforms[0]}: {len(frontier['points'])} Pareto points "
          f"from {frontier['candidates_evaluated']} candidates")

    metrics = client.metrics()
    counters = metrics["counters"]
    print(
        f"metrics: {counters.get('requests_total', 0)} requests, "
        f"{counters.get('responses_5xx', 0)} 5xx, "
        f"{metrics['pbqp_solves_total']} PBQP solves, "
        f"{metrics['cached_documents']} cached documents"
    )
    if counters.get("responses_5xx", 0):
        print("FAILED — the daemon returned 5xx responses")
        failures += 1
    return failures


def main() -> int:
    port = os.environ.get("REPRO_SERVICE_PORT")
    if port:
        host = os.environ.get("REPRO_SERVICE_HOST", "127.0.0.1")
        print(f"connecting to running daemon at {host}:{port}")
        return 1 if run(PlannerClient(host, int(port))) else 0

    # Standalone: boot an in-process daemon on an ephemeral port.
    from repro.service import PlannerApp, make_server

    app = PlannerApp()
    server = make_server(app)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(f"booted in-process daemon on port {server.server_address[1]}")
    try:
        return 1 if run(PlannerClient(*server.server_address[:2])) else 0
    finally:
        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
