#!/usr/bin/env python3
"""The repository benchmark: Tor-shaped serving, live churn, trace replay
and population workloads on the paper-scale world.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_tor --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
them once untraced and once with every layer wrapped, and reports the
per-layer metrics plus the tracing overhead.  Human-readable report lines
(every serving, trace and population figure with its unit and sample
count) go to standard output first; the last line is the JSON result.
Exit status is 0 only when the run completed and every correctness gate
passed.  See ``perfbench/NOTES.md`` for what each workload measures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from qsbench import spec, world  # noqa: E402

CHILD_TIMEOUT_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--write-spec", action="store_true", help="write BENCHMARK.json and exit"
    )
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_batch(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run a batch workload in a fresh child, then gate its outputs here."""
    from qsbench import gates

    spans = os.path.join(world.out_dir(), f"{name}-{seed}-spans.jsonl")
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(world.BENCH_DIR, "qsbench", "batchjobs.py"),
            "--workload",
            name,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(int(traced)),
            "--spans",
            spans,
        ],
        stdout=subprocess.PIPE,
        env=world.child_env(),
        cwd=world.ROOT,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} child exited with status {proc.returncode}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    untraced = child["untraced"]
    if name == "trace_replay":
        problems, attempted, report = gates.trace_gate(seed, untraced)
    else:
        problems, attempted, report = gates.population_gate(seed, untraced)
    doc = {
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": 0,
        "report": report,
        "end_to_end": untraced["end_to_end"],
    }
    if traced:
        doc["per_layer"] = child["per_layer"]
    return doc


def _exit_on_sigterm(signum, _frame) -> None:
    # SystemExit unwinds through every ``finally``, which stops the
    # daemon or batch child this run started
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = _parse(argv)
    if args.write_spec:
        with open(os.path.join(world.ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            fh.write(spec.render_benchmark_json())
        return 0
    try:
        world.require_program()
    except world.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.workload.startswith("serve_"):
        from qsbench import serve

        doc = serve.run(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        doc = run_batch(args.workload, args.seed, args.seconds, bool(args.trace))

    for line in doc["report"]:
        print(f"{args.workload} {line}")
    for name, value in doc["end_to_end"].items():
        print(f"{args.workload} {name} {value:.6g} {spec.END_TO_END_UNITS[name]}")
    if args.trace:
        metrics = {
            name: {"value": doc["per_layer"][name], "unit": unit}
            for name, unit in spec.PER_LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": doc["end_to_end"][name], "unit": unit}
            for name, unit in spec.END_TO_END_UNITS.items()
        }
    problems = list(doc.get("problems") or ())
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            # JSON has no inf/nan: the run fails and the value reads 0
            problems.append(f"{name} is not a finite number ({metric['value']})")
            metric["value"] = 0.0
    correct = doc["correct"] and not problems
    for problem in problems:
        print(f"{args.workload} CHECK FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(doc["attempted"]),
                "failed": int(doc["failed"]),
                "metrics": metrics,
            },
            allow_nan=False,
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
