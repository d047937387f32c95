"""simlint checker: the simulator tree must be bit-reproducible.

Flags, anywhere in ``src/repro``:

* wall-clock reads -- ``time.time``/``time.time_ns``/``time.monotonic``/
  ``time.perf_counter``, ``datetime.now``/``utcnow``/``today``,
  ``date.today``;
* module-level RNG (``random.random()``, ``random.randint`` and
  friends) and **unseeded** ``Random()`` construction -- all randomness
  must flow through an explicitly seeded ``random.Random(seed)``;
* other ambient entropy: ``uuid.uuid4``, ``os.urandom``,
  ``secrets.*``;
* iteration over ``set``s in order-sensitive positions (``for`` loops,
  comprehensions, ``list``/``tuple``/``iter``/``enumerate``/``join``
  conversions) without an explicit ``sorted(...)``.  Set iteration
  order depends on ``PYTHONHASHSEED`` for strings, so anything it feeds
  -- event scheduling, serialization, report output -- silently loses
  run-to-run reproducibility.  Order-insensitive reductions (``len``,
  ``sum``, ``min``, ``max``, ``any``, ``all``, membership) are fine.
"""

from __future__ import annotations

import ast

from repro.staticcheck.core import Checker, register

_WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

_ENTROPY = {("uuid", "uuid4"), ("uuid", "uuid1"), ("os", "urandom")}

#: ``random.<fn>()`` calls that draw from the hidden module-level RNG.
_MODULE_RNG_OK = frozenset({"Random", "SystemRandom"})

_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})


def _is_set_expr(node: ast.expr, set_locals: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_locals:
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # set algebra: a | b, a & b, a - b of sets stays a set
        return _is_set_expr(node.left, set_locals) or _is_set_expr(node.right, set_locals)
    return False


def _annotation_is_set(node: ast.expr | None) -> bool:
    if node is None:
        return False
    target = node
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
    if isinstance(target, ast.Attribute):
        return target.attr in ("Set", "FrozenSet", "AbstractSet")
    return False


@register
class DeterminismChecker(Checker):
    name = "determinism"

    def __init__(self, ctx):  # type: ignore[no-untyped-def]
        super().__init__(ctx)
        self._set_locals: set[str] = set()

    # -- entropy sources ------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            pair = (func.value.id, func.attr)
            if pair in _WALL_CLOCK:
                self.report(node, f"wall-clock read {pair[0]}.{pair[1]}() in simulator code")
            elif pair in _ENTROPY or func.value.id == "secrets":
                self.report(node, f"ambient entropy {pair[0]}.{func.attr}()")
            elif func.value.id == "random" and func.attr not in _MODULE_RNG_OK:
                self.report(
                    node,
                    f"module-level RNG random.{func.attr}() -- draw from a "
                    "seeded random.Random(seed) instead",
                )
        if isinstance(func, ast.Attribute) and func.attr == "Random" or (
            isinstance(func, ast.Name) and func.id == "Random"
        ):
            if not node.args and not node.keywords:
                self.report(
                    node, "unseeded Random() -- pass an explicit seed for reproducibility"
                )
        self.generic_visit(node)

    # -- set-typed local tracking --------------------------------------

    def _track_binding(self, target: ast.expr, is_set: bool) -> None:
        if not isinstance(target, ast.Name):
            return
        if is_set:
            self._set_locals.add(target.id)
        else:
            self._set_locals.discard(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._track_binding(target, _is_set_expr(node.value, self._set_locals))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        is_set = _annotation_is_set(node.annotation) or (
            node.value is not None and _is_set_expr(node.value, self._set_locals)
        )
        self._track_binding(node.target, is_set)
        self.generic_visit(node)

    def _visit_fn(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        outer = set(self._set_locals)
        for arg in (
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ):
            if _annotation_is_set(arg.annotation):
                self._set_locals.add(arg.arg)
        self.generic_visit(node)
        self._set_locals = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_fn(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_fn(node)

    # -- order-sensitive consumption -----------------------------------

    def _check_iter(self, node: ast.expr) -> None:
        if _is_set_expr(node, self._set_locals):
            self.report(
                node,
                "iteration over a set is hash-order dependent -- wrap in "
                "sorted(...) (or iterate a list/dict instead)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _check_conversion(self, node: ast.Call) -> None:
        func = node.func
        sensitive = (
            isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS
        ) or (isinstance(func, ast.Attribute) and func.attr == "join")
        if sensitive and node.args and _is_set_expr(node.args[0], self._set_locals):
            self.report(
                node,
                "order-sensitive conversion of a set -- use sorted(...) so "
                "the result is reproducible",
            )

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._check_conversion(node)
        super().generic_visit(node)
