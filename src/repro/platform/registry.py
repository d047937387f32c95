"""Platform registry and coercion.

The registry maps short names to platform builders so fleets are
declarable as configuration (:class:`repro.api.Scenario` pod groups
name platforms as strings).  Builders take keyword options plus an
optional ``sizing`` workload used to pick memory SKUs / ISO-TDP scale:

- ``"rpu"``      -- an RPU board (``num_cus``, SKU sized to ``sizing``);
- ``"gpu"`` / ``"h100"`` -- an H100 group (``gpus`` devices);
- ``"h200"``     -- an H200 group (``gpus`` devices);
- ``"rpu_iso_tdp"`` -- an RPU sized so its decode power matches an
  H100 group's TDP (``gpus``) -- the paper's ISO-power comparison rule.

:func:`register_platform` adds new SKUs at runtime; nothing else in the
serving stack needs to change for a new hardware family.

:func:`as_platform` coerces raw ``RpuSystem`` / ``GpuSystem`` engines
into platforms for the single-query serving model; fleet configs
(:class:`~repro.serving.cluster.ClusterConfig`) take platforms only.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.analysis.perf_model import iso_tdp_system, system_for
from repro.arch.system import RpuSystem
from repro.gpu.specs import H200
from repro.gpu.system import GpuSystem
from repro.models.workload import Workload
from repro.platform.base import Platform
from repro.platform.gpu import GpuPlatform
from repro.platform.rpu import RpuPlatform

PlatformBuilder = Callable[..., Platform]

_REGISTRY: dict[str, PlatformBuilder] = {}


def register_platform(
    name: str, builder: PlatformBuilder, *, overwrite: bool = False
) -> None:
    """Register a named platform builder (new SKUs are config, not code)."""
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"platform {name!r} is already registered")
    _REGISTRY[key] = builder


def available_platforms() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def build_platform(
    name: str, *, sizing: Workload | None = None, **options: object
) -> Platform:
    """Build a registered platform by name.

    ``sizing`` (a representative workload) lets builders pick memory
    SKUs and ISO-TDP scale; builders that don't need it ignore it.
    """
    try:
        builder = _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(available_platforms())
        raise ValueError(f"unknown platform {name!r} (known: {known})") from None
    return builder(sizing=sizing, **options)


def as_platform(engine: object) -> Platform:
    """Coerce ``engine`` to a :class:`Platform`.

    Accepts platforms (returned unchanged) and raw ``RpuSystem`` /
    ``GpuSystem`` engines (wrapped), as the single-query
    :class:`~repro.serving.disaggregated.DisaggregatedSystem` accepts;
    fleet configs take platforms only.
    """
    if isinstance(engine, Platform):
        return engine
    if isinstance(engine, RpuSystem):
        return RpuPlatform(engine)
    if isinstance(engine, GpuSystem):
        return GpuPlatform(engine)
    raise TypeError(
        f"expected a Platform, RpuSystem or GpuSystem, got {type(engine).__name__}"
    )


# ----------------------------------------------------------------------
# Built-in platforms
# ----------------------------------------------------------------------
def _build_rpu(
    *, sizing: Workload | None = None, num_cus: int = 128
) -> RpuPlatform:
    if sizing is not None:
        return RpuPlatform(system_for(num_cus, sizing))
    return RpuPlatform(RpuSystem(num_cus))


def _build_h100(*, sizing: Workload | None = None, gpus: int = 2) -> GpuPlatform:
    return GpuPlatform(GpuSystem(count=gpus))


def _build_h200(*, sizing: Workload | None = None, gpus: int = 2) -> GpuPlatform:
    return GpuPlatform(GpuSystem(spec=H200, count=gpus))


def _build_rpu_iso_tdp(
    *, sizing: Workload | None = None, gpus: int = 2
) -> RpuPlatform:
    if sizing is None:
        raise ValueError("rpu_iso_tdp needs a sizing workload to pick its scale")
    return RpuPlatform(iso_tdp_system(GpuSystem(count=gpus), sizing))


register_platform("rpu", _build_rpu)
register_platform("gpu", _build_h100)
register_platform("h100", _build_h100)
register_platform("h200", _build_h200)
register_platform("rpu_iso_tdp", _build_rpu_iso_tdp)
