#!/usr/bin/env python
"""Batch-kernel smoke test: bit-identity and speedup at smoke scale.

Runs the vectorized batch kernels against their scalar loops on a
small-but-real workload and asserts the PR's contract:

* ``run_conv_batch`` on MAERI returns *bit-identical* payloads to the
  scalar ``run_conv`` loop — including captured exceptions for invalid
  mappings injected mid-batch (per-item error isolation);
* the closed-form psum proxy agrees exactly with its scalar loop, and
  the mRNA mapper's batch scorers (conv, grouped conv, FC; at two array
  sizes, with the candidate-grid memo cold and then warm) agree exactly
  with the scalar scans;
* the SIGMA / TPU / MAGMA GEMM batch kernels agree exactly with their
  ``run_gemm`` loops;
* the batch sweep beats the scalar loop by >= 3x wall-clock even at
  this scale (best-of-3 timing).

Exits non-zero on any divergence, so CI can gate on it.

Usage: PYTHONPATH=src python scripts/kernels_smoke.py
"""

from __future__ import annotations

import itertools
import sys
import time

SWEEP = 1024
MS_SIZE = 128
MIN_SPEEDUP = 3.0


def _canon(results):
    """Payloads as comparable values: stats dict, int estimate, or the
    exception's type and message."""
    out = []
    for r in results:
        if isinstance(r, Exception):
            out.append((type(r).__name__, str(r)))
        elif hasattr(r, "to_dict"):
            out.append(r.to_dict())
        else:
            out.append(r)
    return out


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    from repro.mrna.mapper import MrnaMapper
    from repro.stonne.config import (
        magma_config, maeri_config, sigma_config, tpu_config,
    )
    from repro.stonne.controller import AcceleratorController, make_controller
    from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
    from repro.stonne.mapping import ConvMapping, enumerate_conv_mappings

    layer = ConvLayer("smoke_conv", C=64, H=16, W=16, K=64, R=3, S=3)
    controller = make_controller(maeri_config(ms_size=MS_SIZE))
    mappings = list(
        itertools.islice(enumerate_conv_mappings(layer, MS_SIZE), SWEEP)
    )
    if len(mappings) < SWEEP:
        print(f"FAIL: sweep space too small ({len(mappings)})",
              file=sys.stderr)
        return 1
    # Invalid rows mid-batch: capacity blowout and an out-of-bounds tile.
    mappings[7] = ConvMapping(T_K=MS_SIZE * 2)
    mappings[SWEEP // 2] = ConvMapping(T_R=layer.R + 1)

    scalar = AcceleratorController.run_conv_batch(controller, layer, mappings)
    batch = controller.run_conv_batch(layer, mappings)
    if _canon(scalar) != _canon(batch):
        print("FAIL: MAERI conv batch diverged from the scalar loop",
              file=sys.stderr)
        return 1
    if not isinstance(batch[7], Exception) or not isinstance(
        batch[SWEEP // 2], Exception
    ):
        print("FAIL: invalid mappings were not isolated as exceptions",
              file=sys.stderr)
        return 1

    psum_scalar = AcceleratorController.estimate_conv_psums_batch(
        controller, layer, mappings
    )
    psum_batch = controller.estimate_conv_psums_batch(layer, mappings)
    if _canon(psum_scalar) != _canon(psum_batch):
        print("FAIL: psum-proxy batch diverged from the scalar loop",
              file=sys.stderr)
        return 1

    # mRNA: a dense conv, a grouped conv and an FC layer, each scored at
    # two array sizes and then again with the candidate-grid memo warm.
    # The grid depends on ms_size: prime dimensions make the winners at
    # ms_size 64 capacity-capped tiles (T_K = 64 on the FC layer) that
    # the 512-wide grid does not hold, so a memo that ignored ms_size
    # would diverge here.
    mrna_layers = [
        ConvLayer("smoke_mrna", C=32, H=28, W=28, K=32, R=3, S=3),
        ConvLayer("smoke_grouped", C=28, H=13, W=13, K=52, R=3, S=3,
                  pad_h=1, pad_w=1, G=4),
        FcLayer("smoke_fc", in_features=1009, out_features=7),
    ]
    for rerun, ms_size in itertools.product(("cold", "warm"), (512, 64)):
        mapper = MrnaMapper(maeri_config(ms_size=ms_size))
        for mrna_layer in mrna_layers:
            if isinstance(mrna_layer, ConvLayer):
                mrna_scalar = mapper._score_conv_scalar(mrna_layer)
                mrna_batch = mapper._score_conv_batch(mrna_layer)
            else:
                mrna_scalar = mapper._score_fc_scalar(mrna_layer)
                mrna_batch = mapper._score_fc_batch(mrna_layer)
            if (
                mrna_scalar.mapping != mrna_batch.mapping
                or mrna_scalar.estimated_cycles != mrna_batch.estimated_cycles
            ):
                print(
                    f"FAIL: mRNA batch scorer diverged from the scalar scan "
                    f"({mrna_layer.name}, ms_size {ms_size}, {rerun} grid)",
                    file=sys.stderr,
                )
                return 1

    gemms = [
        GemmLayer(f"g{m}.{k}.{n}", M=m, K=k, N=n)
        for m in (1, 7, 64) for k in (1, 33, 256) for n in (5, 128)
    ]
    for config in (sigma_config(), tpu_config(), magma_config()):
        gemm_controller = make_controller(config)
        gemm_scalar = AcceleratorController.run_gemm_batch(
            gemm_controller, gemms
        )
        gemm_batch = gemm_controller.run_gemm_batch(gemms)
        if _canon(gemm_scalar) != _canon(gemm_batch):
            print(
                f"FAIL: {config.controller_type.value} GEMM batch diverged "
                f"from run_gemm",
                file=sys.stderr,
            )
            return 1

    scalar_s = _best_of(
        lambda: AcceleratorController.run_conv_batch(
            controller, layer, mappings
        )
    )
    batch_s = _best_of(lambda: controller.run_conv_batch(layer, mappings))
    speedup = scalar_s / batch_s
    if speedup < MIN_SPEEDUP:
        print(
            f"FAIL: batch kernels only {speedup:.2f}x over the scalar loop "
            f"({SWEEP} mappings; need >= {MIN_SPEEDUP:.0f}x)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: batch kernels bit-identical across MAERI sweep "
        f"({SWEEP} mappings, 2 invalid isolated), psum proxy, mRNA scorers "
        f"(cold and memoized grids) and 3 GEMM controllers; {speedup:.1f}x over the scalar loop"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
