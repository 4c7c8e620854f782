"""Lifetime rule: a cache must not keep its own instance alive.

The engine object graph is cycle-free, so dropping the last reference
to an engine frees it — device pages, pool frames and all — by
reference counting alone.  ``functools.lru_cache`` and ``cache`` hold
strong references to their arguments: wrapping a bound method stores
the instance inside its own attribute, and decorating a method keys a
class-wide cache on ``self``.  Either keeps instances alive until the
cycle collector runs, or for the life of the process.
"""

from __future__ import annotations

import ast

from repro.analysis.lint import Rule, dotted_name

#: The memoizing decorators that hold their arguments strongly.
_CACHES = frozenset({"lru_cache", "cache",
                     "functools.lru_cache", "functools.cache"})


def _is_cache(node: ast.AST) -> bool:
    """``lru_cache``/``cache``, bare or called (``lru_cache(maxsize=8)``)."""
    if isinstance(node, ast.Call):
        node = node.func
    return dotted_name(node) in _CACHES


def _is_bound_method(node: ast.AST) -> bool:
    """``self.m`` / ``cls.m``: an attribute of the method's receiver."""
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls"))


class MethodCacheRule(Rule):
    """RPR009 — ``lru_cache``/``cache`` on a method or a bound method.

    ``lru_cache(maxsize=None)(self._size)`` stored on ``self`` is a
    reference cycle (instance -> cache -> bound method -> instance);
    ``@lru_cache`` on a method keeps every ``self`` it saw in one
    class-wide cache.  Cache in a plain per-instance dict or list, or
    memoize a module-level pure function.  ``functools.cached_property``
    and ``@staticmethod`` functions hold no instance and are not flagged.
    """

    rule_id = "RPR009"
    title = "lru_cache/cache on a method or bound method"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = {dotted_name(d) for d in stmt.decorator_list}
            if "staticmethod" in names:
                continue
            for deco in stmt.decorator_list:
                if _is_cache(deco):
                    self.report(deco, f"cache decorator on method "
                                      f"{stmt.name}() keeps every instance "
                                      f"alive — cache per instance instead")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _is_cache(node.func) and any(map(_is_bound_method, node.args)):
            self.report(node, "cache wrapping a bound method holds its "
                              "instance in a reference cycle — cache in a "
                              "plain per-instance dict instead")
        self.generic_visit(node)
