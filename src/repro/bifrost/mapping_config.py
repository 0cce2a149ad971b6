"""Mapping configurator: where each layer's dataflow mapping comes from.

Bifrost supports four sources (§IV): a *manual* per-layer mapping, an
auto-generated *default* (all tiles 1 — "execution using this mapping
will be inefficient, but it makes it possible to quickly evaluate an
architecture"), a *tuned* mapping from the AutoTVM module, or a mapping
from a specialized tool (*mRNA*).  :class:`MappingConfigurator` resolves
a layer to its mapping with per-layer overrides winning over the global
strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from enum import Enum
from typing import Dict, Optional, Union

from repro.engine import EvaluationEngine
from repro.errors import MappingError, TuningError
from repro.mrna.mapper import MrnaMapper
from repro.obs.trace import TRACER
from repro.stonne.config import SimulatorConfig
from repro.stonne.controller import controller_class
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.tuner.measure import MaeriConvTask, MaeriFcTask
from repro.tuner.tuners.xgb import XGBTuner

Layer = Union[ConvLayer, FcLayer]
Mapping = Union[ConvMapping, FcMapping]


class MappingStrategy(str, Enum):
    """How mappings are produced when no manual override exists."""

    DEFAULT = "default"
    TUNED = "tuned"
    MRNA = "mrna"


@dataclass
class MappingConfigurator:
    """Resolves layers to mappings; caches tuned/mRNA results.

    Args:
        config: The MAERI hardware configuration mappings must fit.
        strategy: Fallback source when a layer has no manual mapping.
        objective: Tuning objective for the TUNED strategy
            ("psums" — the paper's choice — or "cycles").
        tuner_trials: Measurement budget per layer for TUNED.
        tuner_early_stopping: Early-stopping patience for TUNED.
    """

    config: SimulatorConfig
    strategy: MappingStrategy = MappingStrategy.DEFAULT
    objective: str = "psums"
    tuner_trials: int = 400
    tuner_early_stopping: int = 120
    seed: int = 0
    manual: Dict[str, Mapping] = field(default_factory=dict)
    engine: Optional[EvaluationEngine] = field(default=None, repr=False)
    _cache: Dict[tuple, Mapping] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.strategy = MappingStrategy(self.strategy)

    # ------------------------------------------------------------------
    def set_manual(self, layer_name: str, mapping: Mapping) -> None:
        """Pin a specific mapping for a layer (wins over the strategy)."""
        self.manual[layer_name] = mapping

    def mapping_for(self, layer: Layer) -> Mapping:
        """The mapping this layer should run with."""
        if layer.name in self.manual:
            mapping = self.manual[layer.name]
            self._check_kind(layer, mapping)
            return mapping
        # Cache by layer *structure*, not name: two models in one
        # session (or one sweep) may both have an "fc1" with different
        # shapes, and identically shaped layers under different names
        # should share one tuned mapping.
        key = self._structural_key(layer)
        if key in self._cache:
            return self._cache[key]
        mapping = self._generate(layer)
        self._cache[key] = mapping
        return mapping

    @staticmethod
    def _structural_key(layer: Layer) -> tuple:
        return (
            type(layer).__name__,
            tuple(
                getattr(layer, f.name)
                for f in dataclass_fields(layer)
                if f.name != "name"
            ),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _check_kind(layer: Layer, mapping: Mapping) -> None:
        if isinstance(layer, ConvLayer) and not isinstance(mapping, ConvMapping):
            raise MappingError(
                f"layer {layer.name!r} is a convolution but the manual "
                f"mapping is {type(mapping).__name__}"
            )
        if isinstance(layer, FcLayer) and not isinstance(mapping, FcMapping):
            raise MappingError(
                f"layer {layer.name!r} is fully connected but the manual "
                f"mapping is {type(mapping).__name__}"
            )

    def _generate(self, layer: Layer) -> Mapping:
        if not controller_class(self.config.controller_type).requires_mapping:
            raise TuningError(
                "mappings are only configurable for MAERI; SIGMA and the TPU "
                "orchestrate their own dataflow"
            )
        if self.strategy is MappingStrategy.DEFAULT:
            return (
                ConvMapping.basic()
                if isinstance(layer, ConvLayer)
                else FcMapping.basic()
            )
        if self.strategy is MappingStrategy.MRNA:
            with TRACER.span("mapping.mrna", category="mapping",
                             layer=layer.name):
                mapper = MrnaMapper(self.config)
                if isinstance(layer, ConvLayer):
                    return mapper.map_conv(layer)
                return mapper.map_fc(layer)
        return self._tune(layer)

    def _tune(self, layer: Layer) -> Mapping:
        """Run the AutoTVM module (GBT tuner, early stopping) on a layer.

        Every layer's task shares this configurator's evaluation engine,
        so tuning a layer whose shape already appeared in the network is
        served from the stats cache instead of re-simulated.
        """
        if self.engine is None:
            self.engine = EvaluationEngine(self.config)
        if isinstance(layer, ConvLayer):
            task = MaeriConvTask(
                layer, self.config, objective=self.objective, engine=self.engine
            )
        else:
            task = MaeriFcTask(
                layer, self.config, objective=self.objective, engine=self.engine
            )
        tuner = XGBTuner(task, seed=self.seed)
        result = tuner.tune(
            n_trials=self.tuner_trials,
            early_stopping=self.tuner_early_stopping,
        )
        if result.best_config is None:
            raise TuningError(
                f"tuning found no valid mapping for layer {layer.name!r}"
            )
        return task.best_mapping(result.best_config)
