"""The world every workload runs against, and how to reach the program.

The benchmark imports the program from ``src/`` of the checkout it sits
in; :func:`require_program` fails the command when that tree is missing.
"""

from __future__ import annotations

import os
import resource
import sys

#: ``perfbench/`` and the checkout root above it
BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: the paper-scale world (1,000 ASes, 4,586 relays) is the same for every
#: seed; the workload seed only drives the generated inputs
WORLD_SEED = 0

#: ``PERFBENCH_TINY=1`` swaps in the small test world and tiny sizes; the
#: harness self-tests use it to run every workload in seconds.  Figures
#: from a tiny run are not comparable with real runs.
TINY = os.environ.get("PERFBENCH_TINY") == "1"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program to benchmark: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for benchmark child processes (program + harness importable)."""
    env = dict(os.environ)
    parts = [SRC, BENCH_DIR]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def out_dir() -> str:
    """Where span files go: ``$CARGO_TARGET_DIR`` (default ``.bench_build``)
    under ``perfbench/``, inside the checkout."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    path = os.path.join(base, "perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def build_world():
    """The paper-scale :class:`~repro.scenario.Scenario` with its own engine
    (the small test world under :data:`TINY`)."""
    from repro.asgraph.engine import RoutingEngine
    from repro.scenario import Scenario, ScenarioConfig

    config = ScenarioConfig.small if TINY else ScenarioConfig.paper
    return Scenario(config(seed=WORLD_SEED), engine=RoutingEngine())


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
