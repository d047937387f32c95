"""Small statistics helpers for fleet-level SLO reporting.

Everything here is scalar Python: report digests pin these floats, so
they must not depend on an optional dependency or on the interpreter's
``sum()``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import inf, nextafter, ulp

#: ``2**53 - 1``: the top of a binade, less one ulp, in its ulps.
_ULPS_IN_BINADE = 9007199254740991.0


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


def repeat_add(x: float, c: float, n: int) -> float:
    """``x`` after ``n`` times ``x += c``, bit for bit, without the loop.

    For non-negative finite ``x`` and ``c`` whose sums stay finite.
    Inside one binade (the doubles of one ulp spacing, the subnormals
    joined to the lowest normal binade) an add that starts and ends
    there rounds ``x + c`` onto that ulp grid.  After one such add has
    settled round-half-even's parity (a tie lands on an even multiple
    of the ulp, and every later tie keeps it even), each add moves
    ``x`` by the same multiple ``d`` of the ulp, so ``k`` more are the
    exact ``x + k*d`` while ``x + k*d`` stays at least one ulp below
    the binade's top.  Entering a binade and settling there take one
    real add each, so a call costs a few adds per binade crossed,
    whatever ``n``.
    """
    while n > 0:
        y = x + c  # settles the parity, or enters a new binade
        n -= 1
        u = ulp(y)
        if not n or ulp(x) != u:
            x = y
            continue
        d = (y + c) - y  # exact; the steady step if y + c stays inside
        if not d:
            return y
        # In-binade adds left: a step that would leave the binade
        # gives k = 0, and the next pass adds for real.
        k = int((u * _ULPS_IN_BINADE - y) // d)
        if k > n:
            k = n
        x = y + k * d
        n -= k
    return x


def repeat_add_below(
    x: float, c: float, n: int, limit: float, *, inclusive: bool = False
) -> tuple[float, int]:
    """Up to ``n`` times ``x += c``, stopping before the first add that
    finds ``x >= limit`` (``x > limit`` with ``inclusive``): returns
    ``(x, adds taken)``, bit for bit those of the plain loop.

    The same closed form as :func:`repeat_add`; where ``limit`` falls
    inside a settled binade stretch it is on that stretch's ulp grid,
    so the count of adds before it is exact integer arithmetic.
    """
    if inclusive:
        limit = nextafter(limit, inf)  # x > limit iff x >= this
    taken = 0
    while taken < n and x < limit:
        y = x + c
        taken += 1
        u = ulp(y)
        if taken == n or y >= limit or ulp(x) != u:
            x = y
            continue
        d = (y + c) - y
        if not d:
            return y, n
        k = int((u * _ULPS_IN_BINADE - y) // d)
        if k > n - taken:
            k = n - taken
        if k and y + (k - 1) * d >= limit:
            # The limit cuts the stretch: add j starts from
            # y + (j - 1) * d, so ceil((limit - y) / d) adds are taken.
            k = int(-((y - limit) // d))
        x = y + k * d
        taken += k
    return x, taken


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence).

    Always the scalar left-to-right sum (:func:`left_sum`): numpy's
    pairwise summation would change the rounding, and report digests
    pin these floats.
    """
    return left_sum(values) / len(values) if values else 0.0
