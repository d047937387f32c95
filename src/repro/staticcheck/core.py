"""Core machinery for ``simlint``, the repo's simulator-invariant linter.

A checker is an :class:`ast.NodeVisitor` subclass with a class-level
``name`` (the finding category) registered via :func:`register`.  Each
checker is instantiated per file with a :class:`FileContext` and emits
:class:`Finding` objects through :meth:`Checker.report`.

Suppression follows the usual linter idiom, scoped to this tool:

* ``# simlint: ok[<checker>] <reason>`` on the offending line -- or on
  a comment-only line directly above it, for lines too long to carry an
  inline comment -- silences that checker there (a reason is required;
  the pragma is an audited exemption, not an off switch).
* ``# simlint: module-ok[<checker>] <reason>`` anywhere in the file
  silences the checker for the whole module (used e.g. by the
  numpy-native ``repro.quant`` codecs).
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

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

_LINE_PRAGMA = re.compile(r"#\s*simlint:\s*ok\[([a-z0-9_,\- ]+)\]\s*(\S.*)?$")
_MODULE_PRAGMA = re.compile(r"#\s*simlint:\s*module-ok\[([a-z0-9_,\- ]+)\]\s*(\S.*)?$")


@dataclass(frozen=True, order=True)
class Finding:
    """One lint violation at a source location."""

    path: str
    line: int
    col: int
    checker: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: [{self.checker}] {self.message}"


@dataclass
class FileContext:
    """Everything a checker may need about the file under analysis."""

    path: str
    source: str
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def line_pragmas(self, line: int) -> set[str]:
        """Checker names silenced on 1-indexed ``line`` (an inline
        pragma, or one on a comment-only line in the comment block
        directly above)."""
        names = self._pragmas_on(line)
        above = line - 1
        while above >= 1 and self.lines[above - 1].lstrip().startswith("#"):
            names |= self._pragmas_on(above)
            above -= 1
        return names

    def _pragmas_on(self, line: int) -> set[str]:
        if not 1 <= line <= len(self.lines):
            return set()
        match = _LINE_PRAGMA.search(self.lines[line - 1])
        if match is None:
            return set()
        return {name.strip() for name in match.group(1).split(",")}

    def module_pragmas(self) -> set[str]:
        names: set[str] = set()
        for text in self.lines:
            match = _MODULE_PRAGMA.search(text)
            if match is not None:
                names.update(name.strip() for name in match.group(1).split(","))
        return names


class Checker(ast.NodeVisitor):
    """Base class for simlint checkers."""

    #: Finding category; subclasses must override.
    name = "base"

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                checker=self.name,
                message=message,
            )
        )

    def run(self, tree: ast.Module) -> list[Finding]:
        self.visit(tree)
        return self.findings


_REGISTRY: dict[str, type[Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate checker name: {cls.name}")
    _REGISTRY[cls.name] = cls
    return cls


def all_checkers() -> dict[str, type[Checker]]:
    """Registered checkers by name (importing the sibling modules so the
    registry is populated)."""
    from repro.staticcheck import (  # noqa: F401  (import for side effect)
        api_hygiene,
        causality,
        determinism,
        digest,
        numpy_guard,
        obs_hygiene,
        purity,
    )

    return dict(_REGISTRY)


def check_source(
    source: str, path: str, only: Iterable[str] | None = None
) -> list[Finding]:
    """Run checkers over one module's source; returns sorted findings."""
    ctx = FileContext(path=path, source=source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                checker="syntax",
                message=f"syntax error: {exc.msg}",
            )
        ]
    checkers = all_checkers()
    selected = set(only) if only is not None else set(checkers)
    module_off = ctx.module_pragmas()
    findings: list[Finding] = []
    for name, cls in sorted(checkers.items()):
        if name not in selected or name in module_off:
            continue
        for finding in cls(ctx).run(tree):
            if finding.checker in ctx.line_pragmas(finding.line):
                continue
            findings.append(finding)
    return sorted(findings)


def check_file(path: str | Path, only: Iterable[str] | None = None) -> list[Finding]:
    path = Path(path)
    return check_source(path.read_text(encoding="utf-8"), str(path), only)


def iter_python_files(root: str | Path) -> Iterator[Path]:
    """Yield ``.py`` files under ``root`` (or ``root`` itself), sorted,
    skipping caches."""
    root = Path(root)
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" not in path.parts:
            yield path


def check_paths(
    paths: Iterable[str | Path], only: Iterable[str] | None = None
) -> list[Finding]:
    findings: list[Finding] = []
    for root in paths:
        for path in iter_python_files(root):
            findings.extend(check_file(path, only))
    return sorted(findings)
