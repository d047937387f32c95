"""Sharding plans for distributed VMM (paper Section IV).

Weights are column-sharded so each core computes a disjoint slice of the
output vector and immediately owns part of the next layer's input.  When
columns run out (output dim < 8 columns per core), rows (the K dimension)
are split across *processing groups*; partial outputs must then be
reduced, putting the reduction on the compute-network critical path --
the cost :func:`plan_linear` surfaces via ``needs_reduction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Minimum output columns a core needs to fill its 8-wide TMAC tiles.
MIN_COLUMNS_PER_CORE = 8


@dataclass(frozen=True)
class ShardPlan:
    """How one ``K x N`` weight matrix spreads over ``num_cores`` cores."""

    in_dim: int  # K
    out_dim: int  # N
    num_cores: int
    group_size: int  # G cores sharing the K dimension

    @property
    def cores_per_group_dim(self) -> int:
        """Cores along the column (N) dimension."""
        return max(self.num_cores // self.group_size, 1)

    @property
    def columns_per_core(self) -> int:
        return math.ceil(self.out_dim / self.cores_per_group_dim)

    @property
    def rows_per_core(self) -> int:
        return math.ceil(self.in_dim / self.group_size)

    @property
    def needs_reduction(self) -> bool:
        """Group sharding splits dot products; partial sums must be reduced."""
        return self.group_size > 1


def plan_linear(in_dim: int, out_dim: int, num_cores: int) -> ShardPlan:
    """Choose the smallest group size giving every core >= 8 columns."""
    if min(in_dim, out_dim, num_cores) < 1:
        raise ValueError("dimensions and core count must be positive")
    max_column_cores = max(out_dim // MIN_COLUMNS_PER_CORE, 1)
    group_size = max(1, math.ceil(num_cores / max_column_cores))
    group_size = min(group_size, num_cores)
    return ShardPlan(
        in_dim=in_dim,
        out_dim=out_dim,
        num_cores=num_cores,
        group_size=group_size,
    )
