"""``simlint``: an AST-based checker for this repo's simulator invariants.

The serving stack's performance story (the bulk quiet-decode fast
lane) rests on invariants ordinary linters cannot see: probe functions
must be side-effect-free, all randomness must be seeded, events may not
be scheduled into the past, and float comparisons must not silently
diverge the fast and slow paths.  Numpy must also stay optional: only
the ``quant`` and ``vmm`` models use it, and the rest of the tree runs
without it.  ``simlint`` enforces them mechanically::

    python -m repro.staticcheck src/

Checkers (see each module's docstring for the precise rule):

================  ====================================================
``purity``        ``*_pure`` / ``would_*`` / ``@pure_probe`` functions
                  must not mutate non-local state or draw RNG
``determinism``   no wall-clock, no module-level RNG, no unseeded
                  ``Random()``, no unordered set iteration
``causality``     calendar pushes must derive from ``now``, never
                  ``now - ...``
``digest-safety``  no float ``==``/``!=`` outside ``isclose``/
                  ``approx``; no ``is`` on number/string constants
``numpy-guarding`` every numpy use behind the optional-import pattern
``api-hygiene``   public serving functions fully type-annotated
``obs-hygiene``   telemetry emits behind ``is not None`` guards;
                  guard blocks stay read-only on simulator state
================  ====================================================

Per-line exemptions are audited pragmas:
``# simlint: ok[<checker>] <reason>``.
"""

from repro.staticcheck.core import (
    Checker,
    FileContext,
    Finding,
    all_checkers,
    check_file,
    check_paths,
    check_source,
    iter_python_files,
    register,
)

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "all_checkers",
    "check_file",
    "check_paths",
    "check_source",
    "iter_python_files",
    "register",
]
