"""No process outlives the run that started it."""

import os
import signal
import subprocess
import sys
import time

from conftest import ROOT
from qsbench import serve


def _processes_mentioning(text):
    """Pids of live processes whose command line contains ``text``."""
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmdline = fh.read().decode(errors="replace")
        except OSError:
            continue
        if text in cmdline:
            pids.append(int(pid))
    return pids


def test_daemon_stops_when_its_stdin_closes(tmp_path, monkeypatch):
    monkeypatch.setenv("PERFBENCH_TINY", "1")
    daemon = serve.DaemonProcess(str(tmp_path / "spans.jsonl"), {min(os.sched_getaffinity(0))})
    try:
        daemon.wait_ready()
        daemon.proc.stdin.close()
        daemon.proc.wait(timeout=60)
    finally:
        daemon.close()
    assert daemon.proc.returncode is not None


def test_sigterm_stops_the_daemon_it_started(tmp_path):
    env = dict(os.environ, PERFBENCH_TINY="1", CARGO_TARGET_DIR=str(tmp_path))
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "serve_tor", "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # the daemon's command line names its span file under tmp_path
        deadline = time.monotonic() + 60
        while not _processes_mentioning(str(tmp_path)):
            assert time.monotonic() < deadline, "the daemon never started"
            time.sleep(0.1)
        time.sleep(1.0)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)
    assert proc.returncode != 0
    deadline = time.monotonic() + 30
    while _processes_mentioning(str(tmp_path)):
        assert time.monotonic() < deadline, "a benchmark process outlived the run"
        time.sleep(0.1)
