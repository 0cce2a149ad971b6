#!/usr/bin/env python
"""Functional graph-run smoke test: real outputs, one datapath per layer.

Runs ``lenet_graph()`` through ``Session(functional=True).run_graph`` on
each of the four architectures and asserts:

* the outputs match a CPU-only ``GraphExecutor`` run (``allclose``);
* the per-layer stats equal those of a ``functional=False`` session;
* the engine's synthetic datapath never ran: every ``simulate_layer``
  call of the functional session passed ``functional=False``, because
  the offload API computes each layer's outputs on the real tensors
  itself.

Exits non-zero on any failure, so CI can gate on it.

Usage: PYTHONPATH=src python scripts/functional_smoke.py
"""

from __future__ import annotations

import sys

ARCHS = ("maeri", "sigma", "tpu", "magma")


def main() -> int:
    import numpy as np

    from repro.engine import backends
    from repro.models import lenet_graph
    from repro.runtime.executor import GraphExecutor, cpu_only_policy
    from repro.session import Session

    graph = lenet_graph()
    feed_name = graph.nodes[graph.input_ids[0]].name
    feeds = {feed_name: np.random.default_rng(0).normal(size=(1, 1, 28, 28))}
    reference = GraphExecutor(graph, cpu_only_policy).run(feeds)

    flags = []
    real = backends.simulate_layer

    def recording(controller, layer, mapping, functional):
        flags.append(functional)
        return real(controller, layer, mapping, functional)

    backends.simulate_layer = recording
    try:
        for arch in ARCHS:
            reports = {}
            for functional in (False, True):
                flags.clear()
                with Session(arch=arch, functional=functional,
                             executor="serial") as session:
                    reports[functional] = session.run_graph(graph, feeds)
            report = reports[True]
            if len(report.outputs) != len(reference) or not all(
                    np.allclose(out, ref, rtol=1e-9, atol=1e-9)
                    for out, ref in zip(report.outputs, reference)):
                print(f"FAIL: {arch}: functional outputs differ from the "
                      "CPU-only run", file=sys.stderr)
                return 1
            if report.layer_stats != reports[False].layer_stats:
                print(f"FAIL: {arch}: layer stats differ between "
                      "functional=True and functional=False", file=sys.stderr)
                return 1
            if not flags or any(flags):
                print(f"FAIL: {arch}: the engine ran the synthetic datapath "
                      f"(simulate_layer functional flags {flags})",
                      file=sys.stderr)
                return 1
    finally:
        backends.simulate_layer = real
    print(f"OK: functional lenet run_graph on {', '.join(ARCHS)}: outputs "
          "match the CPU run, stats match functional=False, and no "
          "synthetic datapath ran")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
