"""Area and shoreline provisioning (paper Challenge 2).

Memory bandwidth scales with die *perimeter* (each HBM interface needs a
dense ring of IOs along the chip edge), not area.  Reticle-limited
monolithic GPUs minimize perimeter-to-area; the RPU's many small chiplets
maximize it -- ~10x more memory IO shoreline than an H100 for the same
compute silicon.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import CU_DIE_DEPTH_MM, CU_DIE_WIDTH_MM

#: H100 reference: ~814 mm^2 reticle-limited die with ~60 mm of HBM
#: shoreline (6 HBM3 sites along two edges).
H100_DIE_AREA_MM2 = 814.0
H100_SHORELINE_MM = 60.0


@dataclass(frozen=True)
class ShorelineBudget:
    """Shoreline accounting for a compute fabric."""

    die_area_mm2: float
    shoreline_mm: float


def cu_shoreline() -> ShorelineBudget:
    """One compute chiplet: both 16 mm edges carry HBM-CO interfaces."""
    area = CU_DIE_WIDTH_MM * CU_DIE_DEPTH_MM
    return ShorelineBudget(die_area_mm2=area, shoreline_mm=2 * CU_DIE_WIDTH_MM)


def h100_shoreline() -> ShorelineBudget:
    return ShorelineBudget(die_area_mm2=H100_DIE_AREA_MM2, shoreline_mm=H100_SHORELINE_MM)


def rpu_shoreline_at_iso_area(reference: ShorelineBudget | None = None) -> float:
    """Total RPU shoreline (mm) using the reference design's die area.

    With the H100 reference this reproduces the paper's ~600 mm vs 60 mm
    comparison.
    """
    if reference is None:
        reference = h100_shoreline()
    per_cu = cu_shoreline()
    num_cus = reference.die_area_mm2 / per_cu.die_area_mm2
    return num_cus * per_cu.shoreline_mm
