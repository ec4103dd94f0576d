"""Harness behind ``perfbench/run.py``: the repository's end-to-end benchmark.

Modules:

- :mod:`.spec` — workload and metric definitions (the source of
  ``BENCHMARK.json``);
- :mod:`.stats` — percentile rule, sample summaries, run-to-run spread;
- :mod:`.spans` — in-memory span recorder, self time, function wrappers;
- :mod:`.layers` — the traced run's wrappers around each module's
  public calls and the per-layer metrics computed from their spans;
- :mod:`.world` — the paper-scale world every workload runs against;
- :mod:`.inputs` — seeded input generators and their recorded properties;
- :mod:`.serve` / :mod:`.daemon_main` — the serve workloads' load
  generator and the daemon launcher it runs in its own process;
- :mod:`.batchjobs` — the ``trace_replay`` and ``population_month``
  workloads, run in a fresh child process.
"""
