"""Planned cross-scenario execution: one engine batch per hardware config.

The runner is what makes a sweep cheaper than the equivalent shell loop.
For every scenario it *plans* the evaluations first
(:meth:`~repro.engine.EvaluationEngine.plan_many` resolves cache hits and
collects pending misses), then flattens the plans of **all** scenarios
that share a hardware configuration into one
:meth:`~repro.engine.EvaluationEngine.run_plans` batch:

* cross-scenario key dedup — a layer shared by several scenarios (two
  profiles of the same model, two models with a common shape) simulates
  exactly once;
* tier saturation — the process pool / fleet sees the union of every
  scenario's misses as a single wide batch instead of one small batch
  per run.

Resource sharing is strict: every engine the sweep materializes uses the
driving session's stats cache and executor backend, so a shared
``.sqlite`` cache path and one process pool serve the whole matrix.
Engines are memoized by architecture section: scenarios that differ
only in non-hardware knobs (tuning budget, cache bounds, executor hints)
look up one engine without building anything, and sections that
resolve to the same hardware share one engine by config fingerprint
and therefore one key space.

``Session.run``/``tune``/``compare`` construct single-scenario plans and
execute through this same runner, so there is exactly one measurement
path to maintain.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SweepCancelled, TuningError
from repro.obs.trace import TRACER
from repro.session.reports import CompareReport, RunReport, TuneReport
from repro.sweep.plan import Scenario, SweepPlan
from repro.sweep.report import ScenarioResult, SweepReport
from repro.sweep.resume import scenario_fingerprint, split_resume

#: Counter keys aggregated per engine into the sweep-scoped delta.
_ENGINE_COUNTERS = ("num_evaluations", "num_simulations")
_CACHE_COUNTERS = ("cache_hits", "cache_misses")


class SweepRunner:
    """Executes a :class:`SweepPlan` against one driving session.

    Per-scenario work scales with what is distinct, not with the plan:
    one hardware config and engine per distinct ``(architecture
    section, functional)`` pair (:meth:`_engine_for`), one mapper per
    (hardware, tuning section), one layer list per model per sweep.

    ``progress``, when given, is called with one event dict per
    milestone (``start``, ``plan``, ``execute``, ``scenario``, ``done``)
    — the hook the sweep service streams to watching clients.  Events
    double as cancellation checkpoints: a callback that raises
    :class:`~repro.errors.SweepCancelled` aborts the sweep between
    scenarios, and the exception is re-raised with ``partial`` set to a
    :class:`SweepReport` of everything finished so far (resumable via
    ``--resume``).
    """

    def __init__(self, session, progress=None) -> None:
        self.session = session
        self._progress = progress
        own = (session.engine, session.simulator_config)
        #: (engine, simulator config) by (fingerprint, functional);
        #: seeded with the session's own so single-scenario sweeps are
        #: bit-identical to the pre-sweep entry points.
        self._engines: Dict[Tuple[str, bool], Tuple[Any, Any]] = {
            (session.engine.fingerprint, session.engine.functional): own
        }
        #: The same pairs by (architecture section, functional) — both
        #: frozen and hashable — so a sweep builds a hardware config and
        #: an engine once per distinct section, not once per scenario.
        self._by_architecture: Dict[Tuple[Any, bool], Tuple[Any, Any]] = {
            (session.config.architecture, session.config.engine.functional):
                own
        }
        #: MappingConfigurators by (engine fingerprint, tuning section).
        self._mappers: Dict[Tuple[str, Any], Any] = {
            (session.engine.fingerprint, session.config.tuning):
                session.mappings
        }

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def _engine_for(self, scenario: Scenario):
        """The (engine, simulator_config) pair executing ``scenario``.

        Memoized by the scenario's ``(architecture section, functional)``
        pair: only the first scenario with a given section builds a
        hardware config and an engine; every later one is a dict lookup.
        The driving session's pair is seeded, so scenarios that match it
        reuse the session's engine — which also honours a hand-built
        ``Session(simulator_config=...)``.  Behind the memo, engines are
        shared per hardware fingerprint: two sections that resolve to
        the same hardware (MAERI ignores ``sparsity_ratio``, say) share
        one engine and key space.  Every engine uses the session's cache
        and executor backend.
        """
        from repro.engine import EvaluationEngine

        config = scenario.config
        arch_key = (config.architecture, config.engine.functional)
        found = self._by_architecture.get(arch_key)
        if found is not None:
            return found

        session = self.session
        sim_config, _ = config.build_simulator_config()
        engine = EvaluationEngine(
            sim_config,
            session.params,
            cache=session.engine.cache,
            executor=session.engine.backend,
            functional=config.engine.functional,
        )
        # Same hardware as an earlier section: share its engine (and key
        # space).  A discarded engine holds no resources of its own — the
        # backend instance above is the session's.
        found = self._engines.setdefault(
            (engine.fingerprint, engine.functional), (engine, sim_config)
        )
        self._by_architecture[arch_key] = found
        return found

    def _mapper_for(self, scenario: Scenario, engine, sim_config):
        """One MappingConfigurator per (hardware, tuning section)."""
        from repro.bifrost.mapping_config import (
            MappingConfigurator,
            MappingStrategy,
        )

        tuning = scenario.config.tuning
        key = (engine.fingerprint, tuning)
        mapper = self._mappers.get(key)
        if mapper is None:
            mapper = MappingConfigurator(
                config=sim_config,
                strategy=MappingStrategy(tuning.mapping),
                objective=tuning.objective,
                tuner_trials=tuning.trials,
                tuner_early_stopping=tuning.early_stopping,
                seed=tuning.seed,
                engine=engine,
            )
            self._mappers[key] = mapper
        return mapper

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self, plan: SweepPlan, resume: Optional[SweepReport] = None
    ) -> SweepReport:
        """Run every scenario, batching run-kind evaluations per engine.

        ``resume`` is an archived :class:`SweepReport`: scenarios whose
        resolved-config hash matches an archived cell adopt its report
        instead of re-running (``counters["resumed_scenarios"]`` counts
        them).
        """
        with TRACER.span(
            "sweep.execute", category="sweep", scenarios=len(plan.scenarios)
        ):
            return self._execute(plan, resume)

    # ------------------------------------------------------------------
    # progress / cancellation
    # ------------------------------------------------------------------
    def _emit(
        self,
        event: Dict[str, Any],
        plan: SweepPlan,
        completed: Dict[str, ScenarioResult],
    ) -> None:
        """Deliver one progress event; translate a callback's
        :class:`SweepCancelled` into one carrying the partial report."""
        if self._progress is None:
            return
        try:
            self._progress(dict(event))
        except SweepCancelled as exc:
            if exc.partial is None:
                exc.partial = self._partial_report(plan, completed)
            raise

    def _partial_report(
        self, plan: SweepPlan, completed: Dict[str, ScenarioResult]
    ) -> SweepReport:
        """The resumable report of everything finished at cancel time."""
        scenarios = [
            completed[s.name] for s in plan.scenarios if s.name in completed
        ]
        return SweepReport(
            scenarios=scenarios,
            counters={"scenarios": len(scenarios), "cancelled": True},
        )

    def _execute(
        self, plan: SweepPlan, resume: Optional[SweepReport] = None
    ) -> SweepReport:
        from repro.engine import EvalRequest
        from repro.session.session import zoo_layers

        # Layers per model, built once per sweep (not per scenario).
        # Scoped to this call: the zoo may be re-registered between sweeps.
        layers_of: Dict[str, List[Any]] = {}
        started = time.perf_counter()
        tier_baseline = self._tier_counters()
        baseline = {
            id(engine): {k: getattr(engine, k) for k in _ENGINE_COUNTERS}
            for engine, _ in self._engines.values()
        }
        cache = self.session.engine.cache
        cache_baseline = {k: getattr(cache, k.split("_", 1)[1])
                          for k in _CACHE_COUNTERS}

        if resume is not None:
            pending, reused = split_resume(plan, resume)
        else:
            pending, reused = list(plan.scenarios), {}
        total = len(plan.scenarios)
        completed: Dict[str, ScenarioResult] = dict(reused)

        self._emit(
            {
                "event": "start",
                "total": total,
                "pending": len(pending),
                "resumed": len(reused),
            },
            plan, completed,
        )
        for name in reused:
            self._emit(
                {"event": "scenario", "name": name, "status": "resumed",
                 "completed": len(reused), "total": total},
                plan, completed,
            )

        # Phase 1: plan every run-kind scenario (cache hits resolve now,
        # misses stay pending) so phase 2 can flatten across scenarios.
        entries: List[Tuple[Scenario, Any, Any, Any]] = []
        batches: Dict[int, Tuple[Any, List[Any]]] = {}
        for scenario in pending:
            self._emit(
                {"event": "plan", "name": scenario.name,
                 "completed": len(completed), "total": total},
                plan, completed,
            )
            engine, sim_config = self._engine_for(scenario)
            batch_plan = None
            if scenario.kind == "run":
                mapper = self._mapper_for(scenario, engine, sim_config)
                layers = layers_of.get(scenario.model)
                if layers is None:
                    layers = layers_of[scenario.model] = zoo_layers(
                        scenario.model
                    )
                requests = []
                for layer in layers:
                    mapping = (
                        mapper.mapping_for(layer)
                        if engine.requires_mapping
                        else None
                    )
                    requests.append(EvalRequest(layer=layer, mapping=mapping))
                with TRACER.span(
                    "sweep.plan", category="sweep", scenario=scenario.name
                ):
                    batch_plan = engine.plan_many(requests)
                engine_id = id(engine)
                if engine_id not in batches:
                    batches[engine_id] = (engine, [])
                batches[engine_id][1].append(batch_plan)
            entries.append((scenario, engine, sim_config, batch_plan))

        # Phase 2: every engine group through one shared pull queue —
        # cross-scenario duplicates simulate once, and engine groups
        # overlap instead of running back to back.  (A one-slot backend
        # drains each group as one chunk on the calling thread.)
        from repro.engine.scheduler import run_plan_groups

        self._emit(
            {"event": "execute", "pending": len(entries),
             "completed": len(completed), "total": total},
            plan, completed,
        )
        scheduler_report = run_plan_groups(list(batches.values()))

        # Phase 3: assemble per-scenario reports (tune/compare scenarios
        # execute here, still through the shared engines and cache).
        for scenario, engine, sim_config, batch_plan in entries:
            if scenario.kind == "run":
                # Counters are scenario-scoped (this plan's hits/misses),
                # not the engine's cumulative snapshot — in a batched
                # sweep the engine numbers describe the whole matrix and
                # would repeat identically on every scenario.
                report: Any = RunReport(
                    model=scenario.model,
                    architecture=str(sim_config.controller_type.value),
                    layer_stats=list(batch_plan.results),
                    counters={
                        **batch_plan.counters(),
                        "executor": engine.backend.name,
                        "scheduler": dict(scheduler_report),
                    },
                )
            elif scenario.kind == "tune":
                report = self._tune_scenario(scenario, engine, sim_config)
            else:
                report = self._compare_scenario(scenario, engine, sim_config)
            completed[scenario.name] = ScenarioResult(
                name=scenario.name,
                kind=scenario.kind,
                report=report,
                model=scenario.model,
                profile=scenario.profile,
                overrides=dict(scenario.overrides),
                config_hash=scenario_fingerprint(scenario),
            )
            self._emit(
                {"event": "scenario", "name": scenario.name, "status": "done",
                 "kind": scenario.kind, "completed": len(completed),
                 "total": total},
                plan, completed,
            )

        results = [completed[s.name] for s in plan.scenarios]

        counters: Dict[str, Any] = {"scenarios": len(plan.scenarios)}
        if reused:
            counters["resumed_scenarios"] = len(reused)
        for key in _ENGINE_COUNTERS:
            counters[key] = sum(
                getattr(engine, key) - baseline.get(id(engine), {}).get(key, 0)
                for engine, _ in self._engines.values()
            )
        for key in _CACHE_COUNTERS:
            counters[key] = (
                getattr(cache, key.split("_", 1)[1]) - cache_baseline[key]
            )
        counters["scheduler"] = dict(scheduler_report)

        obs = self.session.config.observability
        metrics: Dict[str, Any] = {}
        if obs.metrics or obs.trace:
            # Built for either flag: --metrics attaches it to the
            # reports, --trace embeds it in the trace document (so the
            # summary's hit-rate lines work without --metrics).
            built = self._build_metrics(
                counters,
                wall_s=time.perf_counter() - started,
                tier_baseline=tier_baseline,
            )
            self.session._last_metrics = dict(built)
            if obs.metrics:
                metrics = built
                for result in results:
                    if result.kind == "run":
                        result.report.metrics = dict(metrics)
        report = SweepReport(
            scenarios=results, counters=counters, metrics=metrics
        )
        self._emit(
            {"event": "done", "completed": len(results), "total": total},
            plan, completed,
        )
        return report

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _tier_counters(self) -> Dict[str, int]:
        """The shared cache's per-tier counters (zeros for duck caches)."""
        tiers = getattr(self.session.engine.cache, "tier_counters", None)
        return dict(tiers()) if callable(tiers) else {}

    def _build_metrics(
        self,
        counters: Dict[str, Any],
        wall_s: float,
        tier_baseline: Dict[str, int],
    ) -> Dict[str, Any]:
        """The report's ``metrics`` section for this sweep.

        Everything here is a *sweep-scoped delta* except the backend
        snapshot, which is cumulative over the backend's lifetime (a
        shared pool may have served earlier sweeps of the same session).
        """
        sims = counters.get("num_simulations", 0)
        hits = counters.get("cache_hits", 0)
        misses = counters.get("cache_misses", 0)
        lookups = hits + misses
        tiers_now = self._tier_counters()
        tier_delta = {
            key: value - tier_baseline.get(key, 0)
            for key, value in tiers_now.items()
        }
        metrics: Dict[str, Any] = {
            "wall_s": wall_s,
            "evaluations": counters.get("num_evaluations", 0),
            "simulations": sims,
            "simulations_per_s": sims / wall_s if wall_s > 0 else 0.0,
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / lookups if lookups else 0.0,
                "tiers": tier_delta,
            },
            "scheduler": dict(counters.get("scheduler", {})),
        }
        backend = self.session.engine.backend
        registry = getattr(backend, "metrics", None)
        if registry is not None and hasattr(registry, "snapshot"):
            metrics["backend"] = registry.snapshot()
        return metrics

    # ------------------------------------------------------------------
    # scenario kinds beyond plain runs
    # ------------------------------------------------------------------
    def _tune_scenario(
        self, scenario: Scenario, engine, sim_config
    ) -> TuneReport:
        """Tune one layer's mapping under the scenario's tuning config."""
        from repro.session.session import zoo_layers
        from repro.stonne.layer import ConvLayer
        from repro.tuner import (
            GATuner,
            GridSearchTuner,
            MaeriConvTask,
            MaeriFcTask,
            RandomTuner,
            XGBTuner,
        )

        target = scenario.target
        if target is None:
            layers = {l.name: l for l in zoo_layers(scenario.model)}
            if scenario.layer not in layers:
                raise TuningError(
                    f"model {scenario.model!r} has no layer "
                    f"{scenario.layer!r}; choose from {sorted(layers)}"
                )
            target = layers[scenario.layer]
        tuning = scenario.config.tuning
        if isinstance(target, ConvLayer):
            task = MaeriConvTask(
                target, sim_config, objective=tuning.objective, engine=engine,
            )
        else:
            task = MaeriFcTask(
                target, sim_config, objective=tuning.objective, engine=engine,
            )
        tuners = {
            "grid": GridSearchTuner,
            "random": RandomTuner,
            "ga": GATuner,
            "xgb": XGBTuner,
        }
        if tuning.tuner not in tuners:
            raise TuningError(
                f"tuner must be one of {sorted(tuners)}, got {tuning.tuner!r}"
            )
        tuner = tuners[tuning.tuner](task, seed=tuning.seed)
        result = tuner.tune(
            n_trials=tuning.trials,
            early_stopping=tuning.early_stopping,
        )
        if result.best_config is None:
            raise TuningError("no valid mapping found")
        mapping = task.best_mapping(result.best_config)
        return TuneReport(
            model=scenario.model,
            layer=target.name,
            objective=tuning.objective,
            tuner=tuning.tuner,
            seed=tuning.seed,
            best_mapping=tuple(mapping.as_tuple()),
            best_cost=result.best_cost,
            num_trials=result.num_trials,
            stopped_early=result.stopped_early,
            records=result.records,
        )

    def _compare_scenario(
        self, scenario: Scenario, engine, sim_config
    ) -> CompareReport:
        """Default vs AutoTVM vs mRNA mappings (the Figure 12 view)."""
        from repro.mrna import MrnaMapper
        from repro.session.session import zoo_layers
        from repro.stonne.layer import ConvLayer
        from repro.stonne.mapping import ConvMapping, FcMapping
        from repro.tuner import GridSearchTuner, MaeriConvTask, MaeriFcTask

        mapper = MrnaMapper(sim_config)
        schemes = ("default", "AutoTVM", "mRNA")
        rows: List[Dict[str, Any]] = []
        for layer in zoo_layers(scenario.model):
            is_conv = isinstance(layer, ConvLayer)
            if is_conv:
                task = MaeriConvTask(
                    layer, sim_config, objective="psums",
                    max_options_per_tile=4, engine=engine,
                )
            else:
                task = MaeriFcTask(
                    layer, sim_config, objective="psums", engine=engine,
                )
            tuned = task.best_mapping(
                GridSearchTuner(task).tune(n_trials=10 ** 9).best_config
            )
            mrna = mapper.map_conv(layer) if is_conv else mapper.map_fc(layer)
            basic = ConvMapping.basic() if is_conv else FcMapping.basic()
            cycles = {
                "default": engine.evaluate(layer, basic).cycles,
                "AutoTVM": engine.evaluate(layer, tuned).cycles,
                "mRNA": engine.evaluate(layer, mrna).cycles,
            }
            rows.append({"layer": layer.name, "cycles": cycles})
        return CompareReport(
            model=scenario.model, schemes=schemes, rows=rows
        )
