#!/usr/bin/env python
"""Serving over the network: submit -> SSE round stream -> result.

The HTTP front-end (:mod:`repro.server`) turns the anytime contract into
a streaming payload any HTTP client can consume.  This example runs the
whole loop in one process, but across a real socket:

1. start an :class:`AggregateQueryService` over the DBpedia-flavoured
   synthetic graph and wrap it in a :class:`ReproHTTPServer` on an
   ephemeral loopback port (``serve_in_thread`` — the same facade
   ``repro serve --http HOST:PORT`` uses);
2. ``POST /v1/queries`` an AQL query through :class:`ReproClient` (a
   small HTTP/1.1 codec over a plain socket) and watch its per-round
   Server-Sent Events:
   each ``round`` frame carries the round's estimate, margin of error
   and Theorem-2 verdict the moment the scheduler finishes the round,
   and the terminal ``result`` frame carries the guaranteed answer;
3. ``POST /v1/queries:batch`` a small dashboard workload and poll
   ``GET /v1/queries/{id}`` for each entry — the non-streaming
   integration style;
4. read ``GET /healthz``: service uptime, live queries by kind, and the
   server's own connection/request/stream counters — every call above
   went over one kept-alive connection, which the client's ``with``
   block closes.

Run it with::

    python examples/http_serving.py
"""

from __future__ import annotations

from repro import AggregateQueryService, EngineConfig
from repro.datasets import dbpedia_like
from repro.server import ClientQuota, ReproClient, serve_in_thread

AVG_AQL = "AVG(price) MATCH (Germany:Country)-[product]->(x:Automobile)"
DASHBOARD = [
    "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)",
    "MAX(price) MATCH (Germany:Country)-[product]->(x:Automobile)",
    "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)"
    " GROUP BY body_style_code",
]


def main() -> None:
    bundle = dbpedia_like(seed=0)
    service = AggregateQueryService(
        bundle.kg, bundle.embedding, EngineConfig(seed=7, error_bound=0.05)
    )
    # one long-lived service behind an HTTP listener; owns_service=True
    # makes runner.stop() drain live SSE streams before service.close()
    runner = serve_in_thread(
        service, quota=ClientQuota(rate=50.0, burst=20), owns_service=True
    )
    host, port = runner.address
    print(f"serving {bundle.name} on http://{host}:{port}\n")
    with ReproClient(host, port) as client:
        ask(client)
    runner.stop()
    print("server drained and stopped")


def ask(client: ReproClient) -> None:
    """One streamed query, a polled batch and the health view."""
    # -- 1 query, streamed: the anytime estimate tightening live --------
    accepted = client.submit(AVG_AQL, seed=11)
    print(f"{accepted['id']} accepted: {AVG_AQL}")
    for event, data in client.events(accepted["id"]):
        if event == "round":
            print(
                f"  round {data['round']}: estimate {data['estimate']:>10,.2f}"
                f"  +/- {data['moe']:,.2f}"
                f"  ({data['total_draws']} draws,"
                f" {'satisfied' if data['satisfied'] else 'refining'})"
            )
        elif event == "result":
            result = data["result"]
            print(
                f"  guaranteed: {result['estimate']:,.2f} in "
                f"[{result['lower']:,.2f}, {result['upper']:,.2f}] "
                f"at {result['confidence_level']:.0%}\n"
            )

    # -- a dashboard batch, polled --------------------------------------
    batch = client.submit_batch(
        [{"aql": aql} for aql in DASHBOARD], error_bound=0.1, seed=3
    )
    print(f"batch: {batch['accepted']} accepted, {batch['rejected']} rejected")
    for entry in batch["queries"]:
        final = client.wait(entry["id"])
        result = final["result"]
        if result["type"] == "grouped":
            print(
                f"  {entry['id']} [{entry['kind']}] "
                f"{result['function']}: {result['num_groups']} groups, "
                f"{result['total_draws']} draws"
            )
        else:
            print(
                f"  {entry['id']} [{entry['kind']}] "
                f"{result['function']}: {result['estimate']:,.2f} "
                f"({final['rounds_completed']} rounds)"
            )

    # -- the monitoring view --------------------------------------------
    health = client.healthz()
    print(
        f"\nhealthz: {health['status']}; service up "
        f"{health['service']['uptime_s']:.1f}s, "
        f"{health['server']['queries_submitted']} queries submitted, "
        f"{health['server']['sse_events_sent']} SSE events sent, "
        f"{health['server']['requests']} requests over "
        f"{health['server']['connections']} connection(s)"
    )


if __name__ == "__main__":
    main()
