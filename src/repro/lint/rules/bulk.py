"""Bulk-admission rule: the router's decision path stays batched.

``Router.choose_many`` decides a whole batch in one resolver loop over
block-drawn candidates, with the probe inlined; a Python loop that
calls the scalar verbs once per task reintroduces the per-call
overhead the resolver exists to remove (validation, clock reads, one
generator call per probe, NumPy scalar arithmetic).  The *sanctioned*
scalar site — the resolver's own fallback for batches it cannot
express — is escape-hatched with ``# lint: allow-bulk``.
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
        "The bulk path exists because each scalar decision pays a "
        "verb call, weight validation, two clock reads and one "
        "generator call per probe, while choose_many's serial "
        "resolver draws a batch's candidates in blocks and inlines "
        "the probe: bit-identical decisions at more than 5x the "
        "scalar loop's rate at batch 512, saturated (eps=0.2) or not "
        "(eps=4).  A new per-element loop quietly reopens the gap on "
        "whatever path it serves."
    )
    sanctioned = (
        "Batch through choose_many()/submit_many().  The sanctioned "
        "scalar site — choose_many's fallback for batches the resolver "
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
