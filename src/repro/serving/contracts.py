"""Purity contracts for the serving core.

The PR 7 bulk quiet-decode lane is only sound because a handful of
*probe* functions -- :meth:`ContinuousBatchScheduler.would_admit_nothing`,
``_admissible_pure``/``_fits_pure``, the ``_pod_quiet_state`` walkers --
inspect simulator state without mutating it.  Nothing in Python enforces
that; one careless edit (say, an ``heappush`` into a shared heap from
inside a probe) silently corrupts digest equivalence between the fast
and slow paths.

This module supplies the enforcement layer:

``@pure_probe``
    Marks a side-effect-free probe.  Statically, ``repro.staticcheck``'s
    purity checker lints every decorated function (plus anything named
    ``*_pure`` / ``would_*``).  Dynamically, when the environment
    variable ``REPRO_CHECK=1`` is set at import time, each call
    fingerprints its watched arguments before and after and raises
    :class:`PurityViolation` on any observable state change.

``@mutates``
    Marks a method as intentionally state-mutating.  Under
    ``REPRO_CHECK=1`` a call to a ``@mutates`` method while a pure probe
    is on the stack raises :class:`PurityViolation` -- catching the
    "probe quietly calls the mutating twin" bug class even when the
    mutation itself is too deep for the fingerprint to see.

With ``REPRO_CHECK`` unset both decorators only attach marker
attributes and return the function unchanged, so the hot path pays
nothing.  The fingerprint walk reads raw object state (``__dict__`` /
``__slots__``) and never invokes properties or methods, so checking
cannot itself perturb the simulation: the digest pin table must pass
bit-identically with the mode on.

Classes may declare ``_contract_exempt`` (a frozenset of attribute
names) to exclude benign memo caches -- e.g. the step-cost caches on
``ClusterSim`` -- from fingerprinting; everything else is fair game.
"""

from __future__ import annotations

import inspect
import os
from collections.abc import Callable
from functools import wraps
from typing import Any, TypeVar, overload

__all__ = [
    "PurityViolation",
    "contracts_enabled",
    "checked_mutator",
    "checked_probe",
    "fingerprint",
    "mutates",
    "pure_probe",
]

F = TypeVar("F", bound=Callable[..., Any])


class PurityViolation(RuntimeError):
    """A ``@pure_probe`` function mutated observable state, or a
    ``@mutates`` method was called while a pure probe was running."""


def contracts_enabled() -> bool:
    """Whether the runtime contract mode is on (``REPRO_CHECK=1``)."""
    return os.environ.get("REPRO_CHECK", "") not in ("", "0")


#: Snapshot taken at import so decoration is zero-cost when the mode is
#: off; tests that need the checked wrappers in-process use
#: :func:`checked_probe` / :func:`checked_mutator` directly.
_ACTIVE = contracts_enabled()

#: ``REPRO_CHECK=full`` fingerprints every probe call; any other truthy
#: value samples (the first :data:`_SAMPLE_WARMUP` calls per probe, then
#: one in :data:`_SAMPLE_EVERY`).  The ``@mutates``-under-probe guard is
#: exact in both modes -- only the state-diff walk is sampled, and
#: neither mode perturbs the simulation.
_EXHAUSTIVE = os.environ.get("REPRO_CHECK", "") == "full"
_SAMPLE_WARMUP = 64
_SAMPLE_EVERY = 64

#: Recursion ceiling for the fingerprint walk.  Deep enough for the
#: radix trie (one level per prefix block) plus the object spine above
#: it; state further down than this is invisible to the dynamic check
#: (the static purity checker has no such blind spot).
_MAX_DEPTH = 64

_SCALARS = (int, str, bool, bytes, type(None))


class _ProbeStack:
    """Process-global count of pure probes currently on the stack."""

    __slots__ = ("depth",)

    def __init__(self) -> None:
        self.depth = 0


_PROBES = _ProbeStack()


def _slot_names(cls: type) -> list[str]:
    names: list[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(s for s in slots if s not in ("__dict__", "__weakref__"))
    return names


def fingerprint(obj: object, _depth: int = 0, _memo: set[int] | None = None) -> object:
    """Deterministic structural snapshot of ``obj``.

    Two snapshots of the same object graph compare equal iff no
    reachable raw state changed between them.  The walk never calls
    methods or properties (so it cannot mutate anything itself), skips
    callables and modules, renders floats through ``repr`` (exact, and
    NaN-stable), and cuts cycles with an identity memo.
    """
    if _memo is None:
        _memo = set()
    if isinstance(obj, (float, *_SCALARS)):
        # Floats stay raw: tuple comparison short-circuits on identity,
        # so an unreplaced NaN still compares equal to itself.
        return obj
    if _depth >= _MAX_DEPTH:
        return ("depth-capped",)
    oid = id(obj)
    if oid in _memo:
        return ("ref", oid)
    _memo.add(oid)
    try:
        if isinstance(obj, (tuple, list)):
            return (
                type(obj).__name__,
                tuple(fingerprint(v, _depth + 1, _memo) for v in obj),
            )
        if isinstance(obj, dict):
            return (
                "dict",
                tuple(
                    (fingerprint(k, _depth + 1, _memo), fingerprint(v, _depth + 1, _memo))
                    for k, v in obj.items()
                ),
            )
        if isinstance(obj, (set, frozenset)):
            return (
                type(obj).__name__,
                tuple(sorted(repr(fingerprint(v, _depth + 1, _memo)) for v in obj)),
            )
        if callable(obj) or inspect.ismodule(obj) or isinstance(obj, type):
            return ("opaque", getattr(obj, "__qualname__", type(obj).__name__))
        exempt = getattr(type(obj), "_contract_exempt", frozenset())
        fields: list[tuple[str, object]] = []
        instance_dict = getattr(obj, "__dict__", None)
        if instance_dict is not None:
            fields.extend(instance_dict.items())
        for name in _slot_names(type(obj)):
            try:
                fields.append((name, object.__getattribute__(obj, name)))
            except AttributeError:
                fields.append((name, ("unset",)))
        return (
            type(obj).__name__,
            tuple(
                (name, fingerprint(value, _depth + 1, _memo))
                for name, value in sorted(fields, key=lambda kv: kv[0])
                if name not in exempt
            ),
        )
    finally:
        _memo.discard(oid)


def checked_probe(fn: F, watch: tuple[str, ...] | None = None) -> F:
    """Always-checking wrapper behind :func:`pure_probe` (exposed so
    tests can exercise the machinery without setting ``REPRO_CHECK``)."""
    sig = inspect.signature(fn)
    calls = [0]

    @wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if _PROBES.depth:
            # Nested probe: the outermost probe's fingerprint already
            # covers any state this one could touch; re-walking the
            # graph per nesting level would make checking quadratic.
            _PROBES.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                _PROBES.depth -= 1
        calls[0] += 1
        if not (_EXHAUSTIVE or calls[0] <= _SAMPLE_WARMUP or calls[0] % _SAMPLE_EVERY == 0):
            _PROBES.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                _PROBES.depth -= 1
        bound = sig.bind(*args, **kwargs)
        names = watch if watch is not None else tuple(bound.arguments)
        watched = [(name, bound.arguments[name]) for name in names if name in bound.arguments]
        before = [(name, fingerprint(value)) for name, value in watched]
        _PROBES.depth += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            _PROBES.depth -= 1
        for (name, prior), (_, value) in zip(before, watched):
            if fingerprint(value) != prior:
                raise PurityViolation(
                    f"pure probe {fn.__qualname__} mutated argument {name!r}"
                )
        return result

    wrapper.__simlint_pure__ = True  # type: ignore[attr-defined]
    return wrapper  # type: ignore[return-value]


def checked_mutator(fn: F) -> F:
    """Always-checking wrapper behind :func:`mutates`."""

    @wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if _PROBES.depth:
            raise PurityViolation(
                f"mutating method {fn.__qualname__} called from inside a pure probe"
            )
        return fn(*args, **kwargs)

    wrapper.__simlint_mutates__ = True  # type: ignore[attr-defined]
    return wrapper  # type: ignore[return-value]


@overload
def pure_probe(fn: F, *, watch: tuple[str, ...] | None = None) -> F: ...


@overload
def pure_probe(
    fn: None = None, *, watch: tuple[str, ...] | None = None
) -> Callable[[F], F]: ...


def pure_probe(
    fn: F | None = None, *, watch: tuple[str, ...] | None = None
) -> F | Callable[[F], F]:
    """Declare a function side-effect-free with respect to its
    arguments (``watch`` restricts the fingerprinted subset).

    Usable bare (``@pure_probe``) or parameterized
    (``@pure_probe(watch=("self",))``).
    """

    def deco(f: F) -> F:
        f.__simlint_pure__ = True  # type: ignore[attr-defined]
        if not _ACTIVE:
            return f
        return checked_probe(f, watch)

    if fn is not None:
        return deco(fn)
    return deco


def mutates(fn: F) -> F:
    """Declare a method as intentionally state-mutating; under
    ``REPRO_CHECK=1`` it may never run beneath a pure probe."""
    fn.__simlint_mutates__ = True  # type: ignore[attr-defined]
    if not _ACTIVE:
        return fn
    return checked_mutator(fn)
