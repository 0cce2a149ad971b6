"""Measurement: turning a config into a cost (AutoTVM's measure step).

The paper's key departure from stock AutoTVM (§VII-B): *latency is not a
valid cost on a simulator*, because simulation wall time is uncorrelated
with simulated performance.  Bifrost instead optimizes ``cycles`` (exact
but expensive — a full simulation per trial) or ``psums`` (a cheap proxy
computed in closed form).  :class:`MaeriConvTask` and :class:`MaeriFcTask`
expose both objectives over the mapping spaces of :mod:`repro.tuner.space`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.engine import EvalRequest, EvaluationEngine
from repro.errors import MappingError, TuningError
from repro.stonne.config import SimulatorConfig
from repro.stonne.layer import ConvLayer, FcLayer
from repro.tuner.space import (
    Config,
    ConfigSpace,
    config_to_conv_mapping,
    config_to_fc_mapping,
    conv_mapping_space,
    fc_mapping_space,
)

#: Cost returned for configs that violate hard constraints.
INVALID_COST = float("inf")

VALID_OBJECTIVES = ("cycles", "psums", "energy")


def _check_objective(objective: str) -> None:
    if objective not in VALID_OBJECTIVES:
        raise TuningError(
            f"objective must be one of {VALID_OBJECTIVES}, got {objective!r}"
        )


@dataclass
class MeasureResult:
    """One measurement: the config, its cost, and the objective used."""

    config: Config
    cost: float
    objective: str

    @property
    def valid(self) -> bool:
        return self.cost != INVALID_COST


class TuningTask:
    """A search problem: a config space plus an evaluation function.

    Subclasses implement :meth:`evaluate`.  Costs are minimized; invalid
    configs return :data:`INVALID_COST` so tuners can skip them without
    special-casing exceptions.

    Tasks that route evaluations through an
    :class:`~repro.engine.EvaluationEngine` are *cache-aware*:
    :attr:`num_measurements` counts every :meth:`measure` call while
    :attr:`num_simulations` counts only the evaluations that actually ran
    a cycle-model simulation (cache misses), so benchmarks can report
    real simulation savings.

    Tasks also memoize at the *cost* level: :meth:`measure_batch` keys a
    config-index -> :class:`MeasureResult` memo, so a revisited index
    skips mapping construction and space validation entirely, not just
    the simulation the engine cache would have saved.
    """

    def __init__(
        self,
        space: ConfigSpace,
        objective: str,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        _check_objective(objective)
        self.space = space
        self.objective = objective
        # Adapter: a repro.session.Session (or a StonneBifrostApi) is
        # accepted wherever an engine is — tasks always measure through
        # the session's engine, so its stats cache serves every tier.
        if engine is not None and not isinstance(engine, EvaluationEngine):
            engine = getattr(engine, "engine", engine)
        self.engine = engine
        self.num_measurements = 0
        self._local_sims = 0
        self._engine_sim_baseline = engine.num_simulations if engine else 0
        self._cost_memo: Dict[int, MeasureResult] = {}

    @property
    def num_simulations(self) -> int:
        """Cycle-model simulations this task triggered (cache misses only
        when an engine with caching is attached)."""
        if self.engine is not None:
            return self.engine.num_simulations - self._engine_sim_baseline
        return self._local_sims

    def evaluate(self, config: Config) -> float:
        raise NotImplementedError

    def evaluate_batch(self, configs: Sequence[Config]) -> List[float]:
        """Costs for a batch of *valid* configs, isolating per-config
        mapping failures as :data:`INVALID_COST`.

        The default runs :meth:`evaluate` per config; engine-backed tasks
        override this to submit the whole batch to
        :meth:`~repro.engine.EvaluationEngine.evaluate_many`, which is
        what lets a process backend fan a tuner generation out.
        """
        costs: List[float] = []
        for config in configs:
            try:
                costs.append(self.evaluate(config))
                if self.engine is None:
                    self._local_sims += 1
            except MappingError:
                costs.append(INVALID_COST)
        return costs

    def measure(self, config: Config, index: Optional[int] = None) -> MeasureResult:
        """Evaluate one config, recording the measurement count.

        With ``index`` the result is memoized, and revisits are served
        from the memo without touching the space or the engine.
        """
        self.num_measurements += 1
        if index is not None and index in self._cost_memo:
            return self._cost_memo[index]
        if not self.space.is_valid(config):
            result = MeasureResult(config=config, cost=INVALID_COST,
                                   objective=self.objective)
        else:
            try:
                cost = self.evaluate(config)
                if self.engine is None:
                    self._local_sims += 1
            except MappingError:
                cost = INVALID_COST
            result = MeasureResult(config=config, cost=cost,
                                   objective=self.objective)
        if index is not None:
            self._cost_memo[index] = result
        return result

    def measure_batch(self, indices: Sequence[int]) -> List[MeasureResult]:
        """Measure a whole generation of config indices at once.

        Memoized indices are served immediately; the rest are validated,
        and every cost that needs evaluation goes through
        :meth:`evaluate_batch` in a single call — one batch for the
        engine's executor backend instead of one submission per trial.
        """
        self.num_measurements += len(indices)
        results: List[Optional[MeasureResult]] = [None] * len(indices)
        first_seen: Dict[int, int] = {}  # index -> position of first occurrence
        duplicates: List[int] = []
        fresh_positions: List[int] = []
        fresh_configs: List[Config] = []
        for position, index in enumerate(indices):
            memo = self._cost_memo.get(index)
            if memo is not None:
                results[position] = memo
                continue
            if index in first_seen:
                duplicates.append(position)
                continue
            first_seen[index] = position
            config = self.space.config_at(index)
            if not self.space.is_valid(config):
                results[position] = MeasureResult(
                    config=config, cost=INVALID_COST, objective=self.objective
                )
            else:
                fresh_positions.append(position)
                fresh_configs.append(config)
        if fresh_configs:
            costs = self.evaluate_batch(fresh_configs)
            for position, config, cost in zip(
                fresh_positions, fresh_configs, costs
            ):
                results[position] = MeasureResult(
                    config=config, cost=cost, objective=self.objective
                )
        for index, position in first_seen.items():
            self._cost_memo.setdefault(index, results[position])
        for position in duplicates:
            results[position] = results[first_seen[indices[position]]]
        return results


class _MaeriLayerTask(TuningTask):
    """Shared machinery of the MAERI conv/FC tuning tasks.

    Subclasses provide :meth:`best_mapping` (config -> mapping) and
    :meth:`_estimate_psums`; everything else — single and batched
    evaluation, cost-from-stats — is identical for both workloads.
    """

    def __init__(self, layer, space, objective, engine) -> None:
        super().__init__(space, objective, engine=engine)
        self.layer = layer
        self.controller = self.engine.controller

    def best_mapping(self, config: Config):
        raise NotImplementedError

    def _estimate_psums(self, mapping) -> int:
        raise NotImplementedError

    def _estimate_psums_batch(self, mappings: Sequence) -> List:
        """Per-mapping psum estimates (value or captured exception), via
        the controller's batch kernels — one numpy pass per generation."""
        raise NotImplementedError

    def _cost_from_stats(self, stats) -> float:
        if self.objective == "energy":
            from repro.stonne.energy import estimate_energy

            return estimate_energy(stats).total
        return float(stats.cycles)

    def evaluate(self, config: Config) -> float:
        mapping = self.best_mapping(config)
        if self.objective == "psums":
            return float(self._estimate_psums(mapping))
        return self._cost_from_stats(self.engine.evaluate(self.layer, mapping))

    def evaluate_batch(self, configs: Sequence[Config]) -> List[float]:
        """Batch evaluation: one ``evaluate_many`` per generation.

        The psums objective is closed-form (no simulation): the whole
        generation is scored in one controller batch-kernel call
        (:meth:`_estimate_psums_batch`).  Cycles/energy submit every
        simulation-requiring config in a single engine batch, which the
        executor backend may fan out over threads or worker processes.
        Per-config mapping failures price at :data:`INVALID_COST`
        without poisoning the batch.
        """
        costs: List[Optional[float]] = [None] * len(configs)
        pending_positions: List[int] = []
        pending_mappings: List = []
        for position, config in enumerate(configs):
            try:
                mapping = self.best_mapping(config)
                pending_positions.append(position)
                pending_mappings.append(mapping)
            except MappingError:
                costs[position] = INVALID_COST
        if self.objective == "psums":
            if pending_mappings:
                estimates = self._estimate_psums_batch(pending_mappings)
                for position, estimate in zip(pending_positions, estimates):
                    if isinstance(estimate, MappingError):
                        costs[position] = INVALID_COST
                    elif isinstance(estimate, Exception):
                        raise estimate
                    else:
                        costs[position] = float(estimate)
            return costs
        if pending_mappings:
            outcomes = self.engine.evaluate_many(
                [EvalRequest(self.layer, m) for m in pending_mappings],
                return_errors=True,
            )
            for position, outcome in zip(pending_positions, outcomes):
                if isinstance(outcome, MappingError):
                    costs[position] = INVALID_COST
                elif isinstance(outcome, Exception):
                    raise outcome
                else:
                    costs[position] = self._cost_from_stats(outcome)
        return costs


class MaeriConvTask(_MaeriLayerTask):
    """Tune the conv mapping of ``layer`` on a MAERI configuration."""

    def __init__(
        self,
        layer: ConvLayer,
        config: SimulatorConfig,
        objective: str = "psums",
        max_options_per_tile: int = 10,
        space: Optional[ConfigSpace] = None,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        super().__init__(
            layer,
            space or conv_mapping_space(layer, config.ms_size, max_options_per_tile),
            objective,
            engine or EvaluationEngine(config),
        )

    def best_mapping(self, config: Config):
        return config_to_conv_mapping(config)

    def _estimate_psums(self, mapping) -> int:
        return self.controller.estimate_conv_psums(self.layer, mapping)

    def _estimate_psums_batch(self, mappings: Sequence) -> List:
        return self.controller.estimate_conv_psums_batch(self.layer, mappings)


class MaeriFcTask(_MaeriLayerTask):
    """Tune the FC mapping of ``layer`` on a MAERI configuration."""

    def __init__(
        self,
        layer: FcLayer,
        config: SimulatorConfig,
        objective: str = "psums",
        space: Optional[ConfigSpace] = None,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        super().__init__(
            layer,
            space or fc_mapping_space(layer, config.ms_size),
            objective,
            engine or EvaluationEngine(config),
        )

    def best_mapping(self, config: Config):
        return config_to_fc_mapping(config)

    def _estimate_psums(self, mapping) -> int:
        return self.controller.estimate_fc_psums(self.layer, mapping)

    def _estimate_psums_batch(self, mappings: Sequence) -> List:
        return self.controller.estimate_fc_psums_batch(self.layer, mappings)


class CallableTask(TuningTask):
    """Wrap an arbitrary cost function as a task (used by hardware search
    and the test suite)."""

    def __init__(self, space: ConfigSpace, fn, objective: str = "cycles") -> None:
        super().__init__(space, objective)
        self._fn = fn

    def evaluate(self, config: Config) -> float:
        return float(self._fn(config))
