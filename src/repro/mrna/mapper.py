"""The mRNA mapper: analytical mapping generation for MAERI.

For each layer the mapper enumerates *structured* candidates — tiles drawn
from the divisors of each dimension (perfect tilings waste no multiplier
slots on ragged edges, a rule mRNA derives from MAERI's VN packing) plus
the dimension bound itself — prunes by array capacity, scores every
survivor with the closed-form :class:`MaeriAnalyticalModel`, and returns
the argmin.  No simulation runs, so mapping a whole network takes
milliseconds; the resulting mappings vary per layer (Table VI), unlike
psum-guided tuning.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.errors import MappingError, TuningError
from repro.mrna.model import MaeriAnalyticalModel
from repro.stonne.config import ControllerType, SimulatorConfig
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.mapping import (
    ConvMapping,
    FcMapping,
    conv_batch_invalid,
    fc_batch_invalid,
)
from repro.stonne.params import CycleModelParams, DEFAULT_PARAMS


def _divisor_options(bound: int, cap: int) -> List[int]:
    """Divisors of ``bound`` up to ``cap``, plus ``min(bound, cap)``."""
    options = {d for d in range(1, min(bound, cap) + 1) if bound % d == 0}
    options.add(min(bound, cap))
    return sorted(options)


#: Entries each grid memo keeps.  A sweep revisits few distinct layer
#: shapes per ``ms_size``; the bound caps memory on open-ended ones.
_MEMO_ENTRIES = 512


@lru_cache(maxsize=_MEMO_ENTRIES)
def _divisors(bound: int) -> Tuple[int, ...]:
    """All divisors of ``bound``, ascending."""
    return tuple(d for d in range(1, bound + 1) if bound % d == 0)


def _tile_grid(levels: Sequence[int], ms: int) -> List[Tuple[int, ...]]:
    """Every structured tile tuple over ``levels``, in exact nested-loop order.

    Level-wise prefix expansion of the mapper's nested divisor loops:
    each level's options are :func:`_divisor_options`\\ (bound, ms //
    prefix_product) — divisors ascending, with the capacity cap appended
    when it is not itself a divisor — so the flattened order (and hence
    argmin tie-breaking) is identical to iterating the loops.  Tuples
    only; mappings are constructed for the single winner.
    """
    prefixes: List[Tuple[int, ...]] = [()]
    products: List[int] = [1]
    for bound in levels:
        divisors = _divisors(bound)
        next_prefixes: List[Tuple[int, ...]] = []
        next_products: List[int] = []
        for prefix, product in zip(prefixes, products):
            limit = min(bound, ms // product)
            count = bisect_right(divisors, limit)
            options = divisors[:count]
            if not options or options[-1] != limit:
                options = options + (limit,)
            for value in options:
                next_prefixes.append(prefix + (value,))
                next_products.append(product * value)
        prefixes, products = next_prefixes, next_products
    return prefixes


@lru_cache(maxsize=_MEMO_ENTRIES)
def _candidate_tiles(
    levels: Tuple[int, ...], ms: int, columns: Tuple[int, ...], width: int
):
    """The :func:`_tile_grid` of ``(levels, ms)`` as a packed int64 array.

    Level ``i`` fills column ``columns[i]`` of a ``(N, width)`` array in
    ``as_tuple`` order; every other column is 1 (the fixed ``T_G`` /
    ``T_N`` tiles).  The grid depends only on the layer dimensions and
    ``ms``, so it is built once and shared by every mapper (every
    ``dn_bw``/``rn_bw`` of a sweep) — hence returned read-only.
    """
    import numpy as np

    grid = _tile_grid(levels, ms)
    tiles = np.ones((len(grid), width), dtype=np.int64)
    tiles[:, columns] = np.array(grid, dtype=np.int64).reshape(
        len(grid), len(levels)
    )
    tiles.flags.writeable = False
    return tiles


#: ``as_tuple`` columns of the conv grid levels (T_R, T_S, T_C, T_K,
#: T_X, T_Y); T_G and T_N (columns 4, 5) stay 1.
_CONV_COLUMNS = (0, 1, 2, 3, 6, 7)


@dataclass
class MappingChoice:
    """A scored candidate mapping."""

    mapping: object
    estimated_cycles: int


class MrnaMapper:
    """Generates optimized MAERI mappings analytically (mRNA stand-in)."""

    def __init__(
        self,
        config: SimulatorConfig,
        params: CycleModelParams = DEFAULT_PARAMS,
    ) -> None:
        if config.controller_type is not ControllerType.MAERI_DENSE_WORKLOAD:
            raise TuningError(
                f"mRNA targets MAERI only, got {config.controller_type.value}"
            )
        self.config = config
        self.model = MaeriAnalyticalModel(config, params)

    # ------------------------------------------------------------------
    def conv_candidates(self, layer: ConvLayer) -> List[ConvMapping]:
        """Structured conv candidates pruned by array capacity."""
        ms = self.config.ms_size
        candidates: List[ConvMapping] = []
        for t_r in _divisor_options(layer.R, ms):
            for t_s in _divisor_options(layer.S, ms // t_r):
                for t_c in _divisor_options(layer.C // layer.G, ms // (t_r * t_s)):
                    vn = t_r * t_s * t_c
                    for t_k in _divisor_options(layer.K // layer.G, ms // vn):
                        for t_x in _divisor_options(layer.P, ms // (vn * t_k)):
                            cap_y = ms // (vn * t_k * t_x)
                            for t_y in _divisor_options(layer.Q, cap_y):
                                candidates.append(
                                    ConvMapping(
                                        T_R=t_r, T_S=t_s, T_C=t_c,
                                        T_K=t_k, T_X=t_x, T_Y=t_y,
                                    )
                                )
        return candidates

    def fc_candidates(self, layer: FcLayer) -> List[FcMapping]:
        """Structured FC candidates pruned by array capacity."""
        ms = self.config.ms_size
        candidates: List[FcMapping] = []
        for t_s in _divisor_options(layer.out_features, ms):
            for t_k in _divisor_options(layer.in_features, ms // t_s):
                candidates.append(FcMapping(T_S=t_s, T_K=t_k, T_N=1))
        return candidates

    # ------------------------------------------------------------------
    def map_conv(self, layer: ConvLayer) -> ConvMapping:
        """The analytically optimal conv mapping for ``layer``."""
        best = self.score_conv(layer)
        return best.mapping  # type: ignore[return-value]

    def map_fc(self, layer: FcLayer) -> FcMapping:
        """The analytically optimal FC mapping for ``layer``."""
        best = self.score_fc(layer)
        return best.mapping  # type: ignore[return-value]

    def score_conv(self, layer: ConvLayer) -> MappingChoice:
        """Best candidate with its estimated cycle count.

        One numpy pass: the divisor grid is a packed int64 array
        (:func:`_candidate_tiles`, memoized per layer dimensions and
        ``ms_size``, so repeated layer shapes and every bandwidth of a
        sweep reuse it), scored in a single
        :meth:`~repro.mrna.model.MaeriAnalyticalModel.conv_cycles_batch`
        call; only the argmin row becomes a :class:`ConvMapping`.
        Bit-identical to the scalar scan (same candidate order, argmin
        keeps the first minimum); layers near int64 limits replay the
        exact scalar loop.
        """
        try:
            return self._score_conv_batch(layer)
        except OverflowError:
            return self._score_conv_scalar(layer)

    def score_fc(self, layer: FcLayer) -> MappingChoice:
        try:
            return self._score_fc_batch(layer)
        except OverflowError:
            return self._score_fc_scalar(layer)

    # ------------------------------------------------------------------
    def _score_conv_batch(self, layer: ConvLayer) -> MappingChoice:
        import numpy as np

        ms = self.config.ms_size
        tiles = _candidate_tiles(
            (
                layer.R, layer.S, layer.C // layer.G,
                layer.K // layer.G, layer.P, layer.Q,
            ),
            ms, _CONV_COLUMNS, 8,
        )
        valid = np.flatnonzero(~conv_batch_invalid(layer, tiles, ms))
        if not valid.size:
            raise TuningError(f"no valid conv mapping for layer {layer.name!r}")
        cycles = self.model.conv_cycles_batch(layer, tiles[valid])
        pos = int(np.argmin(cycles))
        row = tiles[valid[pos]].tolist()
        mapping = ConvMapping(
            T_R=row[0], T_S=row[1], T_C=row[2], T_K=row[3],
            T_G=row[4], T_N=row[5], T_X=row[6], T_Y=row[7],
        )
        return MappingChoice(mapping=mapping, estimated_cycles=int(cycles[pos]))

    def _score_fc_batch(self, layer: FcLayer) -> MappingChoice:
        import numpy as np

        ms = self.config.ms_size
        tiles = _candidate_tiles(
            (layer.out_features, layer.in_features), ms, (0, 1), 3
        )
        valid = np.flatnonzero(~fc_batch_invalid(layer, tiles, ms))
        if not valid.size:
            raise TuningError(f"no valid FC mapping for layer {layer.name!r}")
        cycles = self.model.fc_cycles_batch(layer, tiles[valid])
        pos = int(np.argmin(cycles))
        row = tiles[valid[pos]].tolist()
        mapping = FcMapping(T_S=row[0], T_K=row[1], T_N=row[2])
        return MappingChoice(mapping=mapping, estimated_cycles=int(cycles[pos]))

    # ------------------------------------------------------------------
    def _score_conv_scalar(self, layer: ConvLayer) -> MappingChoice:
        """The original scalar scan (arbitrary-precision fallback)."""
        best: Optional[MappingChoice] = None
        for mapping in self.conv_candidates(layer):
            try:
                mapping.validate_for(layer, self.config.ms_size)
            except MappingError:
                continue
            cycles = self.model.conv_cycles(layer, mapping)
            if best is None or cycles < best.estimated_cycles:
                best = MappingChoice(mapping=mapping, estimated_cycles=cycles)
        if best is None:
            raise TuningError(f"no valid conv mapping for layer {layer.name!r}")
        return best

    def _score_fc_scalar(self, layer: FcLayer) -> MappingChoice:
        best: Optional[MappingChoice] = None
        for mapping in self.fc_candidates(layer):
            try:
                mapping.validate_for(layer, self.config.ms_size)
            except MappingError:
                continue
            cycles = self.model.fc_cycles(layer, mapping)
            if best is None or cycles < best.estimated_cycles:
                best = MappingChoice(mapping=mapping, estimated_cycles=cycles)
        if best is None:
            raise TuningError(f"no valid FC mapping for layer {layer.name!r}")
        return best
