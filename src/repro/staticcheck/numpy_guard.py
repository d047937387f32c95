"""simlint checker: numpy must stay an *optional* accelerator.

Every optional numpy use in the tree follows one pattern::

    try:
        import numpy as _np
    except ImportError:          # pragma: no cover
        _np = None
    if os.environ.get("REPRO_NO_NUMPY"):
        _np = None               # forced pure-Python leg

    ...
    if _np is not None and len(values) >= _NUMPY_SORT_MIN:
        return _np.sort(...)

This checker enforces both halves of it in ``src/repro``:

* any ``import numpy`` / ``from numpy import ...`` outside a
  ``try/except ImportError`` that rebinds the alias is a violation --
  a bare import makes ``REPRO_NO_NUMPY=1`` (and the no-numpy CI leg)
  a lie;
* any *use* of the guarded alias must sit under a test that mentions
  ``<alias> is not None`` (truthiness of the alias also counts), so the
  pure-Python fallback remains a total leg of every function.
"""

from __future__ import annotations

import ast

from repro.staticcheck.core import Checker, register


def _handles_import_error(handler: ast.ExceptHandler) -> bool:
    t = handler.type
    if t is None:
        return True
    if isinstance(t, ast.Name):
        return t.id in ("ImportError", "ModuleNotFoundError", "Exception")
    if isinstance(t, ast.Tuple):
        return any(
            isinstance(e, ast.Name) and e.id in ("ImportError", "ModuleNotFoundError")
            for e in t.elts
        )
    return False


def _guards(test: ast.expr, aliases: set[str]) -> tuple[bool, bool]:
    """(true_branch_guarded, false_branch_guarded) for a test expr."""
    body = orelse = False
    for node in ast.walk(test):
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            left, op, right = node.left, node.ops[0], node.comparators[0]
            alias_side = None
            other = None
            if isinstance(left, ast.Name) and left.id in aliases:
                alias_side, other = left, right
            elif isinstance(right, ast.Name) and right.id in aliases:
                alias_side, other = right, left
            if alias_side is not None and isinstance(other, ast.Constant) and (
                other.value is None
            ):
                if isinstance(op, ast.IsNot):
                    body = True
                elif isinstance(op, ast.Is):
                    orelse = True
        elif isinstance(node, ast.Name) and node.id in aliases:
            body = True  # bare truthiness: `if _np:` / `if _np and ...`
    return body, orelse


@register
class NumpyGuardChecker(Checker):
    name = "numpy-guarding"

    def __init__(self, ctx):  # type: ignore[no-untyped-def]
        super().__init__(ctx)
        self.aliases: set[str] = set()

    def run(self, tree: ast.Module) -> list:  # type: ignore[override]
        self._collect_imports(tree)
        if self.aliases:
            self._sweep_suite(tree.body, guarded=False)
        return self.findings

    # -- imports --------------------------------------------------------

    def _collect_imports(self, tree: ast.Module) -> None:
        guarded_stmts: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Try) and any(
                _handles_import_error(h) for h in node.handlers
            ):
                for stmt in node.body:
                    guarded_stmts.add(id(stmt))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] != "numpy":
                        continue
                    if id(node) in guarded_stmts:
                        self.aliases.add(alias.asname or alias.name.split(".")[0])
                    else:
                        self.report(
                            node,
                            "unguarded 'import numpy' -- wrap in the "
                            "try/except ImportError fallback pattern",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.module.split(".")[0] != "numpy":
                    continue
                if id(node) in guarded_stmts:
                    for alias in node.names:
                        self.aliases.add(alias.asname or alias.name)
                else:
                    self.report(
                        node,
                        "unguarded 'from numpy import ...' -- wrap in the "
                        "try/except ImportError fallback pattern",
                    )

    # -- guarded use ----------------------------------------------------

    def _sweep_suite(self, stmts: list[ast.stmt], guarded: bool) -> None:
        for stmt in stmts:
            self._sweep(stmt, guarded)
            if isinstance(stmt, ast.Assert):
                ok, _ = _guards(stmt.test, self.aliases)
                guarded = guarded or ok
            if isinstance(stmt, ast.If):
                # `if _np is None: return/raise` guards the rest of the suite
                _, orelse_ok = _guards(stmt.test, self.aliases)
                if orelse_ok and stmt.body and isinstance(
                    stmt.body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
                ):
                    guarded = True

    def _sweep(self, node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in self.aliases and not guarded:
                self.report(
                    node,
                    f"use of numpy alias {node.value.id!r} outside an "
                    f"'{node.value.id} is not None' guard -- the pure-Python "
                    "leg must stay total",
                )
        if isinstance(node, (ast.If, ast.While)):
            body_ok, orelse_ok = _guards(node.test, self.aliases)
            self._sweep(node.test, guarded or body_ok)
            self._sweep_suite(node.body, guarded or body_ok)
            self._sweep_suite(node.orelse, guarded or orelse_ok)
            return
        if isinstance(node, ast.IfExp):
            body_ok, orelse_ok = _guards(node.test, self.aliases)
            self._sweep(node.test, guarded or body_ok)
            self._sweep(node.body, guarded or body_ok)
            self._sweep(node.orelse, guarded or orelse_ok)
            return
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            for value in node.values:
                self._sweep(value, guarded)
                ok, _ = _guards(value, self.aliases)
                guarded = guarded or ok
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            # Rebinding the alias (`_np = None`) is part of the pattern;
            # only the value side is a use.
            value = node.value
            if value is not None:
                self._sweep(value, guarded)
            return
        for _field, value in ast.iter_fields(node):
            if isinstance(value, list):
                if value and isinstance(value[0], ast.stmt):
                    self._sweep_suite(value, guarded)
                else:
                    for item in value:
                        if isinstance(item, ast.AST):
                            self._sweep(item, guarded)
            elif isinstance(value, ast.AST):
                self._sweep(value, guarded)
