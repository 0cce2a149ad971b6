#!/usr/bin/env python
"""Scheduler smoke test: the pull queue across unequal fleet workers.

Spawns two ``repro worker`` daemons with *unequal* advertised capacity
(1 vs 3 pull slots), tunes through ``--executor remote`` against them
with ``--trace``, and asserts:

* the best cost is bit-identical to ``--executor serial`` — pull
  scheduling is an execution detail, never an approximation;
* the fleet served the run with zero fallback batches;
* the pull scheduler engaged (a ``scheduler:`` counter line) and its
  chunks really ran in parallel: the trace holds ``scheduler.chunk``
  spans on at least two distinct ``slot-<address>-<unit>`` lanes.  It
  does not require both workers to serve: all chunks may land on the
  capacity-3 worker's slots.

Exits non-zero on any divergence, so CI can gate on it.

Usage: PYTHONPATH=src python scripts/scheduler_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile

TUNE_ARGS = [
    "tune", "lenet", "conv1",
    "--objective", "cycles", "--tuner", "ga",
    "--trials", "40", "--seed", "0",
]

CAPACITIES = (1, 3)


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


def _spawn_worker(env: dict, capacity: int) -> tuple:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--listen", "127.0.0.1:0",
            "--fleet-capacity", str(capacity),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    banner = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+:\d+)", banner)
    if not match:
        proc.kill()
        raise RuntimeError(f"worker failed to start: {banner!r}")
    if f"capacity: {capacity}" not in banner:
        proc.kill()
        raise RuntimeError(
            f"worker does not advertise capacity {capacity}: {banner!r}"
        )
    return proc, match.group(1)


def _tune(env: dict, extra: list) -> tuple:
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli"] + TUNE_ARGS + extra,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"tune {extra} failed ({result.returncode}):\n"
            f"{result.stdout}{result.stderr}"
        )
    lines = result.stdout.splitlines()
    return (
        [line for line in lines if line.startswith("best ")],
        [line for line in lines if line.startswith("fleet:")],
        [line for line in lines if line.startswith("scheduler:")],
    )


def _slot_lanes(trace_path: str) -> set:
    """Distinct remote slot lanes that ran ``scheduler.chunk`` spans."""
    with open(trace_path) as handle:
        spans = json.load(handle)["reproTrace"]["spans"]
    return {
        span["lane"]
        for span in spans
        if span["name"] == "scheduler.chunk"
        and re.fullmatch(r"slot-[\d.]+:\d+-\d+", span["lane"])
    }


def main() -> int:
    env = _env()
    workers = []
    with tempfile.TemporaryDirectory() as scratch:
        trace_path = os.path.join(scratch, "remote_trace.json")
        try:
            workers = [
                _spawn_worker(env, capacity) for capacity in CAPACITIES
            ]
            addresses = ",".join(address for _, address in workers)
            print(f"workers: {addresses} (capacities {CAPACITIES})")
            serial, _, _ = _tune(env, ["--executor", "serial"])
            remote, fleet, scheduler = _tune(
                env, ["--executor", "remote", "--workers", addresses,
                      "--trace", "--trace-path", trace_path]
            )
        finally:
            for proc, _ in workers:
                proc.send_signal(signal.SIGINT)
            for proc, _ in workers:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
        lanes = _slot_lanes(trace_path)
    print(f"serial: {serial}")
    print(f"remote: {remote}  {fleet}  {scheduler}")
    if not serial or serial != remote:
        print("FAIL: remote tuning diverged from serial", file=sys.stderr)
        return 1
    if fleet != ["fleet: 0 fallback batches, 0 retried shards"]:
        print(f"FAIL: fleet did not serve the run cleanly: {fleet}",
              file=sys.stderr)
        return 1
    match = re.search(r"scheduler: (\d+) chunks pulled", "".join(scheduler))
    if not match or int(match.group(1)) <= 0:
        print(f"FAIL: pull scheduler never engaged: {scheduler}",
              file=sys.stderr)
        return 1
    # With 4 slots draining GA generations, chunks must have run on more
    # than one slot; which worker's slots is up to the pull order.
    if len(lanes) < 2:
        print(f"FAIL: scheduler.chunk spans on {len(lanes)} slot lane(s), "
              f"expected >= 2: {sorted(lanes)}", file=sys.stderr)
        return 1
    print(f"OK: unequal-capacity 2-worker tune is bit-identical to serial "
          f"({match.group(1)} chunks pulled on {len(lanes)} slots, "
          f"no fallback)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
