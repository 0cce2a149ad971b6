"""The STONNE-Bifrost API (§V): packed functions that offload layers.

Each entry point follows the seven-step execution workflow the paper
lists:

1. parse layer information;
2. transform layer information and input data into a STONNE-compatible
   format (layout transposes, run on the CPU and *not* counted in the
   cycle totals);
3. create a new STONNE instance;
4. configure it with the architecture and dataflow mapping;
5. load the layer and run;
6. transform the output back into the caller's format;
7. record the simulated cycle count and/or partial sums.

The functions are registered in a global registry under TVM-style names
(``tvm.contrib.stonne.conv2d.nchw`` etc.), which is how the TOPI
strategies reach them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bifrost.mapping_config import MappingConfigurator
from repro.engine import EvaluationEngine
from repro.errors import LayerError, SimulationError
from repro.obs.trace import TRACER
from repro.stonne.config import SimulatorConfig
from repro.stonne.controller import controller_class
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.params import CycleModelParams, DEFAULT_PARAMS
from repro.stonne.simulator import _conv_via_gemm
from repro.stonne.sparsity import prune_to_sparsity
from repro.stonne.stats import SimulationStats
from repro.topi.layout import (
    nchw_to_nhwc,
    nhwc_to_nchw,
    npqk_to_nkpq,
    rsck_to_kcrs,
)


@dataclass
class StonneBifrostApi:
    """A configured offload endpoint: architecture + mappings + stats.

    One instance per Bifrost session; every offloaded layer appends its
    :class:`~repro.stonne.stats.SimulationStats` to :attr:`stats`.

    Stats lookups route through the session's evaluation engine, so a
    repeated shape in one graph skips the cycle model — the functional
    datapath (the im2col GEMM that produces real outputs) still executes
    for every call, once, on the caller's tensors.  The engine is told
    so (``caller_tensors=True``): even a ``functional`` engine then runs
    no synthetic datapath of its own for these layers, since that pass
    only stands in for real STONNE's cost where no tensors exist.

    Built by :class:`repro.session.Session` (its ``.api``), which hands
    in the session's engine through ``_engine``.  Constructed directly,
    the endpoint builds a plain :class:`~repro.engine.EvaluationEngine`
    (serial backend, in-memory cache) of its own.
    """

    config: SimulatorConfig
    mappings: MappingConfigurator
    params: CycleModelParams = DEFAULT_PARAMS
    stats: List[SimulationStats] = field(default_factory=list)
    _layer_counter: Dict[str, int] = field(default_factory=dict)
    _engine: Optional[EvaluationEngine] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # One engine per session, shared with the mapping configurator so
        # tuner simulations and run_layers populate the same stats cache.
        if self._engine is None:
            self._engine = EvaluationEngine(self.config, self.params)
        if self.mappings.engine is None:
            self.mappings.engine = self._engine

    # ------------------------------------------------------------------
    @property
    def engine(self) -> EvaluationEngine:
        """The session's evaluation engine (cache shared across every run
        of the session and with mapping tuning)."""
        assert self._engine is not None
        return self._engine

    def close(self) -> None:
        """Release the engine's executor pools (idempotent).  Cache
        tiers belong to whoever built them — a :class:`Session` closes
        its own."""
        if self._engine is not None:
            self._engine.close()

    def __enter__(self) -> "StonneBifrostApi":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _controller_cls(self):
        return controller_class(self.config.controller_type)

    def reset_stats(self) -> None:
        """Clear recorded per-layer stats (the engine cache persists —
        cached simulations stay valid across runs)."""
        self.stats.clear()
        self._layer_counter.clear()

    def total_cycles(self) -> int:
        """Simulated cycles across every offloaded layer so far."""
        return sum(s.cycles for s in self.stats)

    def _layer_name(self, base: str) -> str:
        count = self._layer_counter.get(base, 0)
        self._layer_counter[base] = count + 1
        return base if count == 0 else f"{base}#{count}"

    def _maybe_prune(self, weights: np.ndarray) -> np.ndarray:
        """Apply the configured sparsity to weights (sparse architectures)."""
        if self._controller_cls().consumes_sparsity and self.config.sparsity_ratio:
            return prune_to_sparsity(weights, self.config.sparsity_ratio)
        return weights

    # ------------------------------------------------------------------
    # conv2d
    # ------------------------------------------------------------------
    def conv2d_nchw(
        self,
        data: np.ndarray,
        weights: np.ndarray,
        strides=(1, 1),
        padding=(0, 0),
        groups: int = 1,
        layer_name: str = "conv2d",
    ) -> np.ndarray:
        """Execute an NCHW/KCRS convolution on the simulated accelerator.

        For MAERI — which only consumes NHWC/RSCK (§V-B1) — the inputs are
        transposed on the CPU first and the NPQK output transposed back to
        NKPQ, exactly the execution path the paper describes.
        """
        if data.ndim != 4 or weights.ndim != 4:
            raise LayerError(
                f"conv2d expects 4-D tensors, got {data.shape} and {weights.shape}"
            )
        n, c, h, w = data.shape
        k, c_per_g, r, s = weights.shape
        layer = ConvLayer(
            name=self._layer_name(layer_name),
            C=c, H=h, W=w, K=k, R=r, S=s,
            stride_h=int(strides[0]), stride_w=int(strides[1]),
            pad_h=int(padding[0]), pad_w=int(padding[1]),
            G=groups, N=n,
        )
        if c_per_g != c // groups:
            raise LayerError(
                f"weight channels {c_per_g} != C/groups = {c // groups}"
            )
        weights = self._maybe_prune(weights)
        requires_mapping = self._controller_cls().requires_mapping

        # Steps iii-v: resolve the mapping, then the session engine
        # serves the cycle model (cached for repeated shapes).  The
        # exact datapath below always executes to produce outputs.
        mapping = self.mappings.mapping_for(layer) if requires_mapping else None
        stats = self.engine.evaluate(layer, mapping, caller_tensors=True)
        with TRACER.span("bifrost.datapath", category="bifrost",
                         layer=layer.name, op="conv2d"):
            if requires_mapping:
                # Mapping-driven architectures (MAERI) consume NHWC/RSCK
                # (§V-B1).  Steps i-ii: transpose NCHW -> NHWC and
                # KCRS -> RSCK on the CPU.
                nhwc = nchw_to_nhwc(np.asarray(data, dtype=np.float64))
                rsck = np.ascontiguousarray(
                    np.asarray(weights, dtype=np.float64).transpose(2, 3, 1, 0)
                )
                raw = _conv_via_gemm(
                    nhwc_to_nchw(nhwc),               # functional path is NCHW
                    rsck_to_kcrs(rsck),
                    layer,
                )
                # Step vi: NPQK -> NKPQ back to the caller's layout.
                output = npqk_to_nkpq(
                    np.ascontiguousarray(raw.transpose(0, 2, 3, 1))
                )
            else:
                output = _conv_via_gemm(
                    np.asarray(data, dtype=np.float64),
                    np.asarray(weights, dtype=np.float64),
                    layer,
                )

        # Step vii: record the stats.
        self.stats.append(stats)
        return output

    def conv2d_nhwc(
        self,
        data: np.ndarray,
        weights: np.ndarray,
        strides=(1, 1),
        padding=(0, 0),
        groups: int = 1,
        layer_name: str = "conv2d",
    ) -> np.ndarray:
        """Execute an NHWC/RSCK convolution (MAERI's native layout)."""
        if data.ndim != 4 or weights.ndim != 4:
            raise LayerError(
                f"conv2d expects 4-D tensors, got {data.shape} and {weights.shape}"
            )
        nchw = nhwc_to_nchw(np.asarray(data, dtype=np.float64))
        kcrs = rsck_to_kcrs(np.asarray(weights, dtype=np.float64))
        out_nchw = self.conv2d_nchw(
            nchw, kcrs, strides=strides, padding=padding, groups=groups,
            layer_name=layer_name,
        )
        return nchw_to_nhwc(out_nchw)

    # ------------------------------------------------------------------
    # dense
    # ------------------------------------------------------------------
    def dense(
        self,
        data: np.ndarray,
        weights: np.ndarray,
        layer_name: str = "dense",
    ) -> np.ndarray:
        """Execute a dense layer (GEMM on every architecture, §V-A)."""
        if data.ndim != 2 or weights.ndim != 2:
            raise LayerError(
                f"dense expects 2-D tensors, got {data.shape} and {weights.shape}"
            )
        if weights.shape[1] != data.shape[1]:
            raise SimulationError(
                f"dense weight shape {weights.shape} does not match input "
                f"features {data.shape[1]}"
            )
        layer = FcLayer(
            name=self._layer_name(layer_name),
            in_features=data.shape[1],
            out_features=weights.shape[0],
            batch=data.shape[0],
        )
        weights = self._maybe_prune(np.asarray(weights, dtype=np.float64))
        mapping = (
            self.mappings.mapping_for(layer)
            if self._controller_cls().requires_mapping
            else None
        )
        # Cycle model through the session engine (cached for repeated
        # shapes); the functional GEMM always executes.
        stats = self.engine.evaluate(layer, mapping, caller_tensors=True)
        with TRACER.span("bifrost.datapath", category="bifrost",
                         layer=layer.name, op="dense"):
            output = np.asarray(data, dtype=np.float64) @ weights.T
        self.stats.append(stats)
        return output


# ----------------------------------------------------------------------
# TVM-style global function registry
# ----------------------------------------------------------------------
_GLOBAL_FUNCS: Dict[str, Callable] = {}


def register_packed_funcs(api: StonneBifrostApi) -> None:
    """Expose an API instance under TVM's global function names."""
    _GLOBAL_FUNCS["tvm.contrib.stonne.conv2d.nchw"] = api.conv2d_nchw
    _GLOBAL_FUNCS["tvm.contrib.stonne.conv2d.nhwc"] = api.conv2d_nhwc
    _GLOBAL_FUNCS["tvm.contrib.stonne.dense"] = api.dense


def get_packed_func(name: str) -> Callable:
    """Look up a registered packed function by its TVM-style name."""
    try:
        return _GLOBAL_FUNCS[name]
    except KeyError:
        raise SimulationError(
            f"packed function {name!r} is not registered; call "
            "register_packed_funcs first"
        ) from None


def registered_packed_funcs() -> List[str]:
    return sorted(_GLOBAL_FUNCS)
