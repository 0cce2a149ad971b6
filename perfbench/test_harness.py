"""Tests of the benchmark harness itself.

Run from the root of the checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from trace_wrap import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def clock(monkeypatch):
    """A fake clock for the program's tracer, which records while the
    test runs."""
    import repro.obs.trace as trace

    fake = FakeClock()
    monkeypatch.setattr(trace, "time", fake)
    trace.TRACER.enable()
    yield fake
    trace.TRACER.disable()
    trace.TRACER.clear()


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


def test_self_time_of_nested_wrapped_calls(clock):
    class Demo:
        def outer(self):
            clock.now += 1.0
            self.inner()
            clock.now += 0.5
            self.inner()

        def inner(self):
            clock.now += 2.0
            self.leaf()

        def leaf(self):
            clock.now += 0.25

    tracer = Tracer()
    tracer.wrap(Demo, "outer", "demo.outer")
    tracer.wrap(Demo, "inner", "demo.inner")
    tracer.wrap(Demo, "leaf", "demo.leaf")
    Demo().outer()
    clock.now += 3.0  # outside any span: unattributed
    Demo().leaf()
    tracer.collect()
    assert tracer.totals["demo.outer"] == [1, 1.5]
    assert tracer.totals["demo.inner"] == [2, 4.0]
    assert tracer.totals["demo.leaf"] == [3, 0.75]
    assert tracer.covered_s == pytest.approx(1.5 + 4.0 + 0.75)


def test_program_spans_take_no_self_time_from_wrapped_calls(clock):
    from repro.obs.trace import TRACER

    def outer():
        clock.now += 1.0
        with TRACER.span("program.step", "engine"):
            clock.now += 2.0
            holder.inner()

    def inner():
        clock.now += 0.5

    tracer = Tracer()
    holder = type("Holder", (), {"outer": staticmethod(outer),
                                 "inner": staticmethod(inner)})
    tracer.wrap(holder, "outer", "demo.outer")
    tracer.wrap(holder, "inner", "demo.inner")
    holder.outer()
    spans = tracer.collect()
    assert {span["name"] for span in spans} == {
        "demo.outer", "demo.inner", "program.step"}
    assert tracer.totals == {"demo.outer": [1, 3.0], "demo.inner": [1, 0.5]}
    assert tracer.covered_s == pytest.approx(3.5)


def test_a_raising_wrapped_call_is_recorded_and_unwound(clock):
    class Demo:
        def fails(self):
            clock.now += 1.0
            raise ValueError("boom")

        def after(self):
            clock.now += 2.0

    tracer = Tracer()
    tracer.wrap(Demo, "fails", "demo.fails")
    tracer.wrap(Demo, "after", "demo.after")
    with pytest.raises(ValueError):
        Demo().fails()
    Demo().after()
    tracer.collect()
    assert tracer.totals == {"demo.fails": [1, 1.0], "demo.after": [1, 2.0]}
    assert tracer.covered_s == pytest.approx(3.0)


def test_wrappers_restore_the_original_functions(clock):
    class Demo:
        def method(self):
            return "method"

        @classmethod
        def klass(cls):
            return cls.__name__

        @staticmethod
        def static():
            return "static"

    originals = {name: Demo.__dict__[name]
                 for name in ("method", "klass", "static")}
    tracer = Tracer()
    for name in originals:
        tracer.wrap(Demo, name, f"demo.{name}")
    assert all(Demo.__dict__[n] is not o for n, o in originals.items())
    assert (Demo().method(), Demo.klass(), Demo.static()) == (
        "method", "Demo", "static")
    tracer.restore()
    assert all(Demo.__dict__[n] is o for n, o in originals.items())
    tracer.collect()
    assert len(tracer.totals) == 3


def test_layer_install_is_fully_undone():
    tracer = Tracer()
    layers.install(tracer)
    wrapped = list(tracer._restore)
    assert len(wrapped) > 30
    assert all(owner.__dict__[attr] is not original
               for owner, attr, original in wrapped)
    tracer.restore()
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in wrapped)


def test_metric_names_and_units_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    names = end_to_end + per_layer + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(end_to_end + per_layer)) == len(end_to_end + per_layer)
    # The harness reports exactly what BENCHMARK.json declares.
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        layers.catalog()
    assert set(spec["paths"]) == {"perfbench"}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


def _context(goldens):
    return workloads.Context(root=ROOT, workdir=BENCH / ".work",
                             goldens=goldens)


def test_a_doctored_golden_turns_an_op_into_a_failure():
    goldens = json.loads((BENCH / "goldens.json").read_text())
    workload = workloads.WORKLOADS["functional_alexnet"]
    state = workload.setup(0, _context(goldens))

    checker = run.Checker()
    assert checker.run(workload, state, 0, None).errors == []
    assert (checker.attempted, checker.failed) == (1, 0)

    state["golden"] = dict(goldens["functional_alexnet"])
    state["golden"]["sim_cycles"] += 1
    op = checker.run(workload, state, 1, None)
    assert any("golden" in error for error in op.errors)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_tuned_zoo_goldens_apply_at_the_default_seed_only():
    goldens = json.loads((BENCH / "goldens.json").read_text())
    setup = workloads.WORKLOADS["tuned_zoo"].setup
    assert setup(workloads.DEFAULT_SEED, _context(goldens))["golden"] == \
        goldens["tuned_zoo"]
    state = setup(7, _context(goldens))
    assert state["golden"] is None and state["seed"] == 7


def test_a_raising_op_counts_as_failed_with_its_time():
    def op(state, index, tracer):
        if index:
            raise RuntimeError("no valid mapping")
        return workloads.Op(0.5, 1, 10, "input", "digest")

    workload = workloads.Workload("demo", lambda seed, ctx: None, op)
    checker = run.Checker()
    ops = [checker.run(workload, None, index, None) for index in range(3)]
    assert (checker.attempted, checker.failed) == (3, 2)
    assert ops[0].errors == [] and all(o.errors for o in ops[1:])
    assert all(o.wall_s >= 0 for o in ops) and checker.sim_cycles() == 10


def test_a_doctored_cli_golden_fails_the_call():
    goldens = json.loads((BENCH / "goldens.json").read_text())["cli_cold"]
    command = ["run", "alexnet", "--arch", "tpu", "--cache-path", "c.db"]
    stdout = f"{goldens['totals']['tpu']}\nstats cache: 8 hits / 0 misses " \
             f"(100.0%) {goldens['cache_tiers']} -> c.db\n"
    proc = subprocess.CompletedProcess([], 0, stdout=stdout, stderr="")
    assert workloads._check_cli(command, proc, goldens) == []
    doctored = dict(goldens, totals=dict(goldens["totals"], tpu="total 1"))
    assert workloads._check_cli(command, proc, doctored)
    failed = subprocess.CompletedProcess([], 1, stdout=stdout, stderr="x")
    assert workloads._check_cli(command, failed, goldens)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tuned_zoo",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
