"""Tuner base class: the measure-update loop with early stopping.

Concrete tuners implement :meth:`propose` (a batch of config indices to
try next) and may override :meth:`update` to learn from results.  The
driver loop mirrors AutoTVM's: propose, measure, update, repeat until the
trial budget or the early-stopping patience is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import TuningError
from repro.tuner.measure import INVALID_COST, TuningTask
from repro.tuner.records import TuningRecords
from repro.tuner.space import Config


@dataclass
class TuningResult:
    """Outcome of a tuning run."""

    best_config: Optional[Config]
    best_cost: float
    records: TuningRecords
    stopped_early: bool

    @property
    def num_trials(self) -> int:
        return len(self.records.trials)


class Tuner:
    """Base class for all tuners.

    Args:
        task: The search problem (space + cost function).
        seed: RNG seed for stochastic tuners; fixed for reproducibility.
    """

    #: Default number of proposals per round.
    batch_size = 16

    def __init__(self, task: TuningTask, seed: int = 0) -> None:
        self.task = task
        self.seed = seed
        self._seen: set = set()

    # ------------------------------------------------------------------
    # subclass interface
    # ------------------------------------------------------------------
    def propose(self, count: int) -> List[int]:
        """Return up to ``count`` *unseen* config indices to measure."""
        raise NotImplementedError

    def update(self, indices: Sequence[int], costs: Sequence[float]) -> None:
        """Learn from a batch of measurements (default: nothing)."""

    # ------------------------------------------------------------------
    def tune(
        self,
        n_trials: int,
        early_stopping: Optional[int] = None,
        records: Optional[TuningRecords] = None,
    ) -> TuningResult:
        """Run the tuning loop.

        Args:
            n_trials: Maximum number of measurements.
            early_stopping: Stop after this many trials without improving
                the best cost (AutoTVM's "early stopping" utility, which
                the paper uses to detect convergence).  Patience only
                runs once a valid config has been found, so a space whose
                first trials are all invalid is searched to the budget
                rather than abandoned.
            records: Optional pre-existing history to append to.
        """
        if n_trials < 1:
            raise TuningError(f"n_trials must be >= 1, got {n_trials}")
        records = records or TuningRecords(objective=self.task.objective)
        best_cost = INVALID_COST
        best_config: Optional[Config] = None
        trials_since_best = 0
        stopped_early = False

        while len(records.trials) < n_trials:
            want = min(self.batch_size, n_trials - len(records.trials))
            proposed = self.propose(want)
            if not proposed:
                break  # space exhausted
            indices = [i for i in proposed if i not in self._seen]
            self._seen.update(indices)
            if not indices:
                continue
            # The whole generation is measured in one batch, so the
            # task can submit it to the engine's executor backend
            # (process pool, fleet) instead of one trial at a time.
            results = self.task.measure_batch(indices)
            costs: List[float] = []
            measured: List[int] = []
            for index, result in zip(indices, results):
                records.add(index, result.config, result.cost)
                costs.append(result.cost)
                measured.append(index)
                if result.cost < best_cost:
                    best_cost = result.cost
                    best_config = result.config
                    trials_since_best = 0
                else:
                    trials_since_best += 1
                if (
                    early_stopping
                    and best_config is not None
                    and trials_since_best >= early_stopping
                ):
                    stopped_early = True
                    break
            self.update(measured, costs)
            if stopped_early:
                break

        return TuningResult(
            best_config=best_config,
            best_cost=best_cost,
            records=records,
            stopped_early=stopped_early,
        )
