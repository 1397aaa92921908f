"""Batch-contract rule: the vectorised path can never silently fork.

The batched backend vectorises a chunk only when every trial's protocol
has the same type and the same non-None ``batch_signature()``; a class
that ships ``step_batch`` without a signature (or the reverse) either
never vectorises or — worse — vectorises trials whose configurations
differ.
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["BatchContract"]


class BatchContract(Rule):
    id = "BAT001"
    tag = "batch"
    summary = "step_batch and batch_signature must be declared together"
    invariant = (
        "A class defining step_batch also defines batch_signature, "
        "and vice versa."
    )
    rationale = (
        "The batched engine keys vectorisation on batch_signature(): "
        "a step_batch without a signature never vectorises (silent "
        "perf loss), and a signature without a matching kernel claims "
        "batchability the class cannot honour — either way the dense "
        "and batched paths drift apart without failing a test."
    )
    sanctioned = (
        "Declare both, like UserControlledProtocol / "
        "ResourceControlledProtocol / HybridProtocol: "
        "batch_signature() returns a hashable configuration identity "
        "(or None to opt out), step_batch() the vectorised kernel."
    )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        methods = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        has_kernel = "step_batch" in methods
        has_signature = "batch_signature" in methods
        if has_kernel != has_signature:
            present, missing = (
                ("step_batch", "batch_signature")
                if has_kernel
                else ("batch_signature", "step_batch")
            )
            self.report(
                node,
                f"class {node.name!r} defines {present} without "
                f"{missing} — the batched engine needs both (or "
                f"neither) to keep dense and batched paths in lockstep",
            )
        self.generic_visit(node)
