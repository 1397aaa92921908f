"""Rule registry: every repro-lint rule, in catalogue order."""

from __future__ import annotations

from ..engine import LintError, Rule
from .batch import BatchContract
from .bulk import BulkBypass
from .capacity import CapacityComparison, CapacityProduct
from .config import ConfigMutation, FrozenBypass
from .hygiene import BareExcept, SilentHandler, UnnamedWarning
from .rng import RngGlobalState, RngNondeterministicImport, RngUnseeded

__all__ = ["ALL_RULES", "get_rule", "select_rules"]

#: Every rule, in the order diagnostics and --list-rules present them.
ALL_RULES: tuple[type[Rule], ...] = (
    RngGlobalState,
    RngUnseeded,
    RngNondeterministicImport,
    CapacityComparison,
    CapacityProduct,
    BatchContract,
    BulkBypass,
    BareExcept,
    SilentHandler,
    UnnamedWarning,
    FrozenBypass,
    ConfigMutation,
)

_BY_ID = {rule.id: rule for rule in ALL_RULES}


def get_rule(rule_id: str) -> type[Rule]:
    """Look up one rule by its exact id (case-insensitive)."""
    rule = _BY_ID.get(rule_id.upper())
    if rule is None:
        known = ", ".join(sorted(_BY_ID))
        raise LintError(f"unknown rule id {rule_id!r}; known rules: {known}")
    return rule


def select_rules(
    select: list[str] | None, ignore: list[str] | None
) -> list[type[Rule]]:
    """Resolve --select/--ignore specs (exact ids or prefixes like RNG)."""

    def matches(rule: type[Rule], spec: str) -> bool:
        spec = spec.upper()
        return rule.id == spec or rule.id.startswith(spec)

    def validate(specs: list[str]) -> None:
        for spec in specs:
            if not any(matches(rule, spec) for rule in ALL_RULES):
                known = ", ".join(rule.id for rule in ALL_RULES)
                raise LintError(
                    f"selector {spec!r} matches no rule; known rules: "
                    f"{known}"
                )

    chosen = list(ALL_RULES)
    if select:
        validate(select)
        chosen = [
            rule
            for rule in chosen
            if any(matches(rule, spec) for spec in select)
        ]
    if ignore:
        validate(ignore)
        chosen = [
            rule
            for rule in chosen
            if not any(matches(rule, spec) for spec in ignore)
        ]
    return chosen
