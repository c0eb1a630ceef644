"""Guards for Python 3.10, the oldest version ``pyproject.toml`` allows, on
whatever newer interpreter runs the tests: the source parses as 3.10 code,
and no regular expression, whether held by a module attribute or written as
a literal, uses the possessive repeats or atomic groups that ``re`` accepts
only from 3.11 on."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import tablefocus

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")])
_RE_CALLS = {"compile", "match", "fullmatch", "search", "sub", "subn", "split", "findall", "finditer"}


def _patterns(values):
    """The compiled patterns among ``values``, their bound methods and the
    tuples and dicts that hold them."""
    for value in values:
        if isinstance(value, re.Pattern):
            yield value
        elif isinstance(getattr(value, "__self__", None), re.Pattern):
            yield value.__self__
        elif isinstance(value, (tuple, list, dict)):
            yield from _patterns(value.values() if isinstance(value, dict) else value)


def _is_re(node: ast.AST, name=None) -> bool:
    """Whether ``node`` is ``re.<name>`` (any name if ``name`` is None)."""
    return (
        isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "re"
        and (name is None or node.attr == name)
    )


def _literal_patterns(tree: ast.AST):
    """Each literal pattern passed to a ``re`` function in ``tree``, with the
    ``re`` flags named in the rest of the call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(_is_re(node.func, call) for call in _RE_CALLS) and node.args:
            pattern = node.args[0]
            if isinstance(pattern, ast.Constant) and isinstance(pattern.value, str):
                flags = 0
                for arg in [*node.args[1:], *(keyword.value for keyword in node.keywords)]:
                    for flag in ast.walk(arg):
                        if _is_re(flag) and flag.attr.isupper():
                            flags |= getattr(re, flag.attr)
                yield pattern.value, flags


def _tree_items(node):
    """Every leaf of a parsed pattern's tree, its opcodes among them."""
    if isinstance(node, (tuple, list)) or type(node).__name__ == "SubPattern":
        for item in node:
            yield from _tree_items(item)
    else:
        yield node


def _newer_syntax(pattern: str, flags: int) -> set[str]:
    """The opcodes of ``pattern`` that ``re`` accepts only from Python 3.11 on."""
    parser = pytest.importorskip("re._parser")
    newer = (parser.POSSESSIVE_REPEAT, parser.ATOMIC_GROUP)
    return {str(op) for op in _tree_items(parser.parse(pattern, flags)) if any(op is new for new in newer)}


def test_source_parses_as_python_3_10():
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_patterns_use_no_syntax_newer_than_python_3_10():
    for info in pkgutil.iter_modules(tablefocus.__path__):
        for pattern in _patterns(vars(importlib.import_module(f"tablefocus.{info.name}")).values()):
            assert not _newer_syntax(pattern.pattern, pattern.flags), (info.name, pattern.pattern)
    for path in (ROOT / "src").rglob("*.py"):
        for pattern, flags in _literal_patterns(ast.parse(path.read_text(encoding="utf-8"))):
            assert not _newer_syntax(pattern, flags), (path.name, pattern)


def test_the_pattern_checks_find_possessive_repeats_and_atomic_groups():
    source = 'import re\nSIGNS = re.compile(r"[+-]*+").match\n\ndef f(s):\n    return re.search("(?>a)", s, flags=re.I)\n'
    module = types.ModuleType("scratch")
    exec(source, vars(module))
    assert [_newer_syntax(p.pattern, p.flags) for p in _patterns(vars(module).values())] == [{"POSSESSIVE_REPEAT"}]
    found = [_newer_syntax(pattern, flags) for pattern, flags in _literal_patterns(ast.parse(source))]
    assert found == [{"POSSESSIVE_REPEAT"}, {"ATOMIC_GROUP"}]
