"""Launch the routing daemon in its own process for the serve workloads.

Usage (from the checkout root, with ``src`` and ``perfbench`` on
``PYTHONPATH``)::

    python perfbench/qsbench/daemon_main.py --spans FILE [--cpus 0]

Builds the paper-scale world, starts a :class:`RoutingDaemon` on an
ephemeral loopback port and prints one ``{"ready": ...}`` JSON line with
the port.  A ``trace`` line on stdin installs the traced run's wrappers
(:mod:`qsbench.layers`) from then on.  After a client sends ``shutdown``
the launcher writes the recorded spans to ``--spans`` and prints one
``{"final": ...}`` line: peak RSS, the daemon's counters and the layer
counter snapshots.  When stdin closes (the load generator has ended,
however it ended) the daemon stops too.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import sys
import threading


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="span JSONL written at exit")
    parser.add_argument("--cpus", help="comma-separated CPUs to pin the daemon to")
    args = parser.parse_args(argv)
    if args.cpus:
        # Before any thread starts: every daemon thread inherits the mask.
        os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})

    from qsbench import layers, world
    from repro.serve.daemon import RoutingDaemon, ServeConfig

    scenario = world.build_world()
    daemon = RoutingDaemon(
        scenario.graph, engine=scenario.engine, config=ServeConfig(port=0)
    )
    tracer = layers.Tracer()
    traced = threading.Event()
    baseline = {}
    running = []  # the event loop, once it runs
    loop_ready = threading.Event()

    def counters() -> dict:
        return {
            "serve": dataclasses.asdict(daemon.stats()),
            "pool": layers.pool_summary(daemon.pool),
            "engine": layers.engine_summary(daemon.engine),
        }

    def control() -> None:
        for line in sys.stdin:
            if line.strip() == "trace" and not traced.is_set():
                baseline.update(counters())
                try:
                    tracer.install()
                except Exception as exc:  # noqa: BLE001 — reported to the load generator
                    print(json.dumps({"traced": False, "error": repr(exc)}), flush=True)
                    continue
                traced.set()
                print(json.dumps({"traced": True}), flush=True)
        # stdin closed: no load generator is left to ask for shutdown
        loop_ready.wait()
        if not running[0].is_closed():
            asyncio.run_coroutine_threadsafe(daemon.aclose(), running[0])

    async def run() -> None:
        running.append(asyncio.get_running_loop())
        loop_ready.set()
        host, port = await daemon.start()
        print(json.dumps({"ready": True, "host": host, "port": port}), flush=True)
        await daemon.wait_stopped()

    threading.Thread(target=control, daemon=True).start()
    asyncio.run(run())
    if traced.is_set():
        tracer.recorder.dump(args.spans)
    # Counters cover the traced phase only when tracing was switched on.
    final = {
        "peak_rss_mb": world.peak_rss_mb(),
        **{
            part: layers.delta(values, baseline.get(part, {}))
            for part, values in counters().items()
        },
        **tracer.summary(),
    }
    print(json.dumps({"final": final}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
