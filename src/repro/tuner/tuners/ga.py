"""Genetic-algorithm tuner (AutoTVM's GATuner analog).

Configs are chromosomes: one gene per knob, each gene the index into that
knob's value list.  Standard generational loop — tournament selection,
uniform crossover, per-gene mutation — with elitism.  Invalid offspring
(constraint violations) are still proposed; the measure step prices them
at infinity, and selection weeds them out.

The operators are vectorized: each generation draws its random matrices
in bulk — one :class:`numpy.random.Generator` call per operator
(tournament indices, crossover mask, mutation mask, mutation genes) —
instead of per-gene scalar calls, which profiling showed dominated the
tuner's ~100µs/trial overhead (the simulation itself is ~16µs).
Results stay deterministic per seed.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.tuner.measure import INVALID_COST, TuningTask
from repro.tuner.tuners.base import Tuner


class GATuner(Tuner):
    """Generational genetic algorithm over the knob space."""

    def __init__(
        self,
        task: TuningTask,
        seed: int = 0,
        population_size: int = 32,
        mutation_rate: float = 0.15,
        elite: int = 4,
    ) -> None:
        super().__init__(task, seed)
        self._rng = np.random.default_rng(seed)
        self.population_size = population_size
        self.mutation_rate = mutation_rate
        self.elite = min(elite, population_size)
        self._radices = np.array(
            [len(v) for v in task.space.knobs.values()], dtype=np.int64
        )
        # Mixed-radix place values: index = genes @ multipliers.
        self._multipliers = np.concatenate(
            ([1], np.cumprod(self._radices[:-1]))
        ).astype(np.int64)
        self._population: np.ndarray = np.empty((0, len(self._radices)), np.int64)
        self._fitness: Dict[int, float] = {}  # config index -> cost

    # ------------------------------------------------------------------
    def _genes_to_indices(self, genes: np.ndarray) -> np.ndarray:
        """Config indices for a (pop, genes) matrix, one dot product."""
        return genes @ self._multipliers

    def _costs_of(self, indices: np.ndarray) -> np.ndarray:
        return np.array(
            [self._fitness.get(int(i), INVALID_COST) for i in indices]
        )

    def _random_population(self, count: int) -> np.ndarray:
        """``count`` random chromosomes in one bulk draw."""
        return self._rng.integers(
            0, self._radices, size=(count, len(self._radices)), dtype=np.int64
        )

    def _next_generation(self) -> np.ndarray:
        """Elites plus vectorized tournament -> crossover -> mutation."""
        pop = self._population
        indices = self._genes_to_indices(pop)
        costs = self._costs_of(indices)
        order = np.argsort(costs, kind="stable")
        survivors = pop[order]
        n_children = self.population_size - self.elite
        if n_children <= 0:
            return survivors[: self.population_size].copy()

        # Tournament: two contestants per parent, two parents per child,
        # all drawn in one call; the fitter contestant wins.
        contestants = self._rng.integers(
            0, len(pop), size=(2, n_children, 2)
        )
        contestant_costs = costs[contestants]
        winners = np.where(
            contestant_costs[..., 0] <= contestant_costs[..., 1],
            contestants[..., 0],
            contestants[..., 1],
        )
        parents_a = pop[winners[0]]
        parents_b = pop[winners[1]]

        # Uniform crossover: one boolean matrix for the whole generation.
        cross = self._rng.random((n_children, pop.shape[1])) < 0.5
        children = np.where(cross, parents_a, parents_b)

        # Mutation: one mask plus one bulk gene redraw (per-gene radix
        # via broadcasting against the radices vector).
        mutate = self._rng.random((n_children, pop.shape[1])) < self.mutation_rate
        fresh = self._rng.integers(
            0, self._radices, size=children.shape, dtype=np.int64
        )
        children = np.where(mutate, fresh, children)
        return np.concatenate([survivors[: self.elite], children])

    # ------------------------------------------------------------------
    def propose(self, count: int) -> List[int]:
        if len(self._population) == 0:
            self._population = self._random_population(self.population_size)
        else:
            self._population = self._next_generation()

        batch: List[int] = []
        for index in self._genes_to_indices(self._population):
            index = int(index)
            if index not in self._seen and index not in batch:
                batch.append(index)
            if len(batch) >= count:
                break
        # Top up with random immigrants when the population is stale,
        # drawing candidate chromosomes a chunk at a time.
        attempts = 0
        while len(batch) < count and attempts < 20 * count:
            chunk = min(count - len(batch), 20 * count - attempts)
            attempts += chunk
            for index in self._genes_to_indices(self._random_population(chunk)):
                index = int(index)
                if index not in self._seen and index not in batch:
                    batch.append(index)
                if len(batch) >= count:
                    break
        return batch

    def update(self, indices, costs) -> None:
        for index, cost in zip(indices, costs):
            self._fitness[index] = cost
