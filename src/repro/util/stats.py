"""Small statistics helpers for fleet-level SLO reporting.

Everything here is scalar Python: report digests pin these floats, so
they must not depend on an optional dependency or on the interpreter's
``sum()``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def percentiles(
    values: Sequence[float],
    qs: Sequence[float],
    *,
    presorted: bool = False,
) -> list[float]:
    """Linear-interpolated percentiles (each ``q`` in [0, 100]) of
    ``values`` from a single sort.

    Matches numpy's default ("linear") method; returns 0.0 entries for
    an empty sequence so report tables stay printable under zero load.
    Pass ``presorted=True`` to reuse an already-sorted sequence (the
    report layer caches one per metric).
    """
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
    if not values:
        return [0.0] * len(qs)
    ordered = values if presorted else sorted(values)
    n = len(ordered)
    if n == 1:
        return [ordered[0]] * len(qs)
    out = []
    for q in qs:
        rank = (n - 1) * q / 100.0
        lo = int(rank)
        hi = min(lo + 1, n - 1)
        frac = rank - lo
        out.append(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)
    return out


def percentile(
    values: Sequence[float], q: float, *, presorted: bool = False
) -> float:
    """Single-quantile convenience wrapper over :func:`percentiles`."""
    return percentiles(values, (q,), presorted=presorted)[0]


def left_sum(values: Iterable[float]) -> float:
    """``((v0 + v1) + v2) + ...``: the plain left-to-right sum.

    Every float total that reaches a report goes through this rather
    than the builtin ``sum()``, which uses compensated summation for
    floats since CPython 3.12 (``sum([1e16, 1.0, -1e16])`` is 0.0 on
    3.11 and 1.0 on 3.12): report digests pin these floats, so they
    must not depend on the interpreter version.  Starts from ``0`` as
    ``sum()`` does.
    """
    total: float = 0
    for value in values:
        total += value
    return total


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence).

    Always the scalar left-to-right sum (:func:`left_sum`): numpy's
    pairwise summation would change the rounding, and report digests
    pin these floats.
    """
    return left_sum(values) / len(values) if values else 0.0
