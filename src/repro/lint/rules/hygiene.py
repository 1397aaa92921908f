"""Warning-hygiene rules: degradation is announced, never silent.

PR 3 (silent batched->dense fallback) and PR 5 (process-wide warning
latch) both fixed fallback paths that degraded quietly; the repo's
convention since then is a *named* ``*Warning`` subclass per
degradation (``BatchFallbackWarning``, ``PoolDegradationWarning``)
so callers can filter, latch and test them precisely.
"""

from __future__ import annotations

import ast

from ..engine import LineFix, Rule

__all__ = ["BareExcept", "SilentHandler", "UnnamedWarning"]


class BareExcept(Rule):
    id = "WRN001"
    tag = "warning"
    summary = "no bare `except:`"
    invariant = "Every except clause names the exception type it handles."
    rationale = (
        "A bare except swallows KeyboardInterrupt, SystemExit and "
        "MemoryError along with whatever was expected, turning an "
        "engine bug into a silently-wrong result — the exact failure "
        "mode the equivalence gates exist to prevent."
    )
    sanctioned = (
        "except SpecificError: ... (or except Exception: when a "
        "boundary genuinely must catch everything; --fix rewrites a "
        "bare except to that conservative form)."
    )
    autofixable = True

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare `except:` — name the exception type "
                "(`except Exception:` at minimum)",
                fix=LineFix(
                    line=node.lineno,
                    pattern=r"except\s*:",
                    replacement="except Exception:",
                ),
            )
        self.generic_visit(node)


class SilentHandler(Rule):
    id = "WRN002"
    tag = "warning"
    summary = "fallback handlers must warn or re-raise, never just pass"
    invariant = (
        "No exception handler whose entire body is `pass` (or `...`)."
    )
    rationale = (
        "An except-pass is a degradation path with the announcement "
        "deleted: the run continues on the fallback behaviour and "
        "nobody — not the user, not CI — learns it happened.  Both "
        "latent violations fixed in PRs 3 and 5 were of this shape."
    )
    sanctioned = (
        "Emit a named warning — warnings.warn(msg, SomeThingWarning, "
        "stacklevel=2) — or re-raise/handle meaningfully.  A "
        "deliberate no-op carries `# lint: allow-warning` plus a "
        "justification."
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        body = node.body
        if all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in body
        ):
            self.report(
                node,
                "silent exception handler — emit a named *Warning "
                "(warnings.warn(msg, FooWarning)) or re-raise",
            )
        self.generic_visit(node)


class UnnamedWarning(Rule):
    id = "WRN003"
    tag = "warning"
    summary = "warnings.warn must name a Warning category"
    invariant = (
        "Every warnings.warn call passes an explicit category (second "
        "positional argument or category=)."
    )
    rationale = (
        "Without a category the warning is a bare UserWarning: tests "
        "cannot assert it precisely, callers cannot filter it, and "
        "the one-shot latches the engine uses (per-reason, per-run) "
        "cannot key on it.  Named categories are what made the "
        "BatchFallbackWarning regression testable."
    )
    sanctioned = (
        "warnings.warn(msg, BatchFallbackWarning, stacklevel=2) — a "
        "module-level `class FooWarning(RuntimeWarning)` per "
        "degradation family."
    )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        is_warn = (
            isinstance(func, ast.Attribute)
            and func.attr == "warn"
            and isinstance(func.value, ast.Name)
            and func.value.id == "warnings"
        ) or (isinstance(func, ast.Name) and func.id == "warn")
        if is_warn:
            has_category = len(node.args) >= 2 or any(
                kw.arg == "category" for kw in node.keywords
            )
            if not has_category:
                self.report(
                    node,
                    "warnings.warn without a category defaults to a "
                    "bare UserWarning — pass a named *Warning subclass",
                )
        self.generic_visit(node)
