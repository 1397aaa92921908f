"""Bulk-admission rule: the router's decision path stays vectorised.

``Router.choose_many`` plans whole batches of admission decisions as
NumPy probe waves; a Python loop that calls the scalar verbs once per
task reintroduces the per-element interpreter overhead the kernel
exists to remove (PR 10 measured the scalar loop at ~4k decisions/s
vs ~20k+ bulk).  The *sanctioned* scalar site — the kernel's own
fallback for batches it cannot express — is escape-hatched with
``# lint: allow-bulk``.
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["BulkBypass"]

#: The scalar decision/ingestion verbs a per-element loop would call.
_SCALAR_VERBS = frozenset(
    {"choose_resource", "submit", "_buffer_arrival"}
)


def _scalar_verb_calls(node: ast.AST) -> list[str]:
    """Names of scalar verbs invoked anywhere inside ``node``."""
    hits: list[str] = []
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Attribute) and func.attr in _SCALAR_VERBS:
            hits.append(func.attr)
        elif isinstance(func, ast.Name) and func.id in _SCALAR_VERBS:
            hits.append(func.id)
    return hits


class BulkBypass(Rule):
    id = "BLK001"
    tag = "bulk"
    summary = "per-element decision loops must use the bulk kernel"
    invariant = (
        "Inside repro/router, no Python loop or comprehension calls a "
        "scalar decision verb (choose_resource, submit, "
        "_buffer_arrival) once per element."
    )
    rationale = (
        "The bulk kernel exists because the scalar decision loop tops "
        "out around 4k decisions/s — one RNG call and one float "
        "compare per Python iteration — while one NumPy wave per "
        "probe serves the same stream 5x+ faster, bit-identically.  A "
        "new per-element loop quietly reopens the gap on whatever "
        "path it serves."
    )
    sanctioned = (
        "Batch through choose_many()/submit_many().  The sanctioned "
        "scalar site — choose_many's fallback for batches the kernel "
        "cannot express — carries `# lint: allow-bulk` with a "
        "justification comment."
    )
    scope = ("repro/router/",)

    def _check_loop(self, node: ast.AST) -> None:
        hits = _scalar_verb_calls(node)
        if hits:
            self.report(
                node,
                f"per-element loop calls scalar verb(s) "
                f"{sorted(set(hits))} — batch the whole array through "
                f"choose_many()/submit_many() instead",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_loop(node)
        # no generic_visit: nested loops are covered by the outer report

    def visit_While(self, node: ast.While) -> None:
        self._check_loop(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_loop(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_loop(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_loop(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_loop(node)
