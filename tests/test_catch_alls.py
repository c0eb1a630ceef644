"""No catch-all handler may turn a programming bug into a silent abstention.

Every ``except Exception``, ``except BaseException`` and bare ``except`` in
``src/`` is listed here by the function it sits in; only handlers that count
the failure or re-raise it are allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CATCH_ALLS = {"Exception", "BaseException"}
ALLOWED = {
    "tablefocus/evaluation.py:evaluate.outcome",  # scores the instance wrong and counts it in error_records
    "tablefocus/cli.py:cmd_eval.run_one",  # names the instance on stderr, then re-raises
    "tablefocus/forkserver.py:_run_main",  # a generated program's uncaught exception: exit status 1, as in CPython
    "tablefocus/gateway.py:Cassette.store",  # removes the temp file a failed write left, then re-raises
}


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in CATCH_ALLS for t in types)


def _sites(node: ast.AST, path: str, scope: tuple[str, ...] = ()):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler) and _is_catch_all(child):
            yield f"{path}:{'.'.join(scope) or '<module>'}"
        inner = scope + (child.name,) if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope
        yield from _sites(child, path, inner)


def catch_all_sites() -> list[str]:
    sites = []
    for file in sorted(SRC.rglob("*.py")):
        tree = ast.parse(file.read_text(encoding="utf-8"), filename=str(file))
        sites.extend(_sites(tree, file.relative_to(SRC).as_posix()))
    return sites


def test_only_the_counting_and_reraising_sites_catch_everything():
    assert sorted(catch_all_sites()) == sorted(ALLOWED)


def test_the_guard_sees_every_form_of_catch_all():
    source = (
        "def f():\n"
        "    try: pass\n"
        "    except: pass\n"
        "    try: pass\n"
        "    except (ValueError, BaseException): pass\n"
        "class C:\n"
        "    def g(self):\n"
        "        try: pass\n"
        "        except Exception: pass\n"
        "        try: pass\n"
        "        except ValueError: pass\n"
    )
    assert list(_sites(ast.parse(source), "m.py")) == ["m.py:f", "m.py:f", "m.py:C.g"]
