"""Fixture-backed tests: every rule fires on its violating snippet and
stays silent on the sanctioned pattern and on the escape hatch.

Fixture layout (see ``tests/lint/fixtures/``): one directory per rule
id; inside it, files named ``violation*.py`` must produce at least one
diagnostic of that rule, files named ``clean*.py`` / ``allowed*.py``
must produce none.  Scoped rules nest their fixtures under the path
fragment that puts them in scope (e.g. ``CAP001/repro/core/``) plus an
out-of-scope copy proving the scope actually restricts.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, get_rule, lint_file
from repro.lint.engine import LintError

FIXTURES = Path(__file__).parent / "fixtures"

_CASES = sorted(
    (rule_dir.name, path)
    for rule_dir in FIXTURES.iterdir()
    if rule_dir.is_dir()
    for path in rule_dir.rglob("*.py")
)


def _ids() -> list[str]:
    return [
        f"{rule_id}-{path.relative_to(FIXTURES / rule_id)}"
        for rule_id, path in _CASES
    ]


def test_every_rule_has_fixture_coverage() -> None:
    """Each registered rule ships violation, clean and allowed files."""
    covered = {rule_id for rule_id, _ in _CASES}
    assert covered == {rule.id for rule in ALL_RULES}
    for rule_id in covered:
        names = [p.name for rid, p in _CASES if rid == rule_id]
        kinds = {n.split(".")[0].split("_")[0] for n in names}
        assert {"violation", "clean", "allowed"} <= kinds, (
            f"{rule_id} is missing one of violation/clean/allowed "
            f"fixtures (found {sorted(names)})"
        )


@pytest.mark.parametrize(("rule_id", "path"), _CASES, ids=_ids())
def test_fixture(rule_id: str, path: Path) -> None:
    rule = get_rule(rule_id)
    diagnostics = lint_file(path, [rule])
    hits = [d for d in diagnostics if d.rule_id == rule_id]
    kind = path.name.split(".")[0].split("_")[0]
    if kind == "violation":
        assert hits, f"{rule_id} should fire on {path}"
        for diag in hits:
            assert diag.message
            assert diag.line >= 1 and diag.col >= 1
    else:  # clean / allowed
        assert not hits, (
            f"{rule_id} should stay silent on {path}, got: "
            f"{[d.render() for d in hits]}"
        )


def test_scoped_rules_declare_scope() -> None:
    """The rules documented as scoped actually carry path scopes."""
    assert get_rule("RNG003").scope is not None
    assert get_rule("CAP001").scope is not None
    assert get_rule("CAP002").scope is not None
    assert get_rule("BLK001").scope is not None
    assert get_rule("RNG001").scope is None


def test_rule_catalogue_metadata() -> None:
    """Ids unique; every rule documents itself for --explain."""
    ids = [rule.id for rule in ALL_RULES]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 8
    for rule in ALL_RULES:
        assert rule.tag
        assert rule.summary
        assert rule.invariant
        assert rule.rationale
        assert rule.sanctioned


def test_readme_rule_table_lists_every_rule() -> None:
    """The README's rule table names exactly the registered rules."""
    readme = Path(__file__).parents[2] / "README.md"
    rows = re.findall(
        r"^\| `([A-Z]+[0-9]+)` \|",
        readme.read_text(encoding="utf-8"),
        flags=re.MULTILINE,
    )
    assert sorted(rows) == sorted(rule.id for rule in ALL_RULES)


def test_get_rule_unknown_id() -> None:
    with pytest.raises(LintError, match="unknown rule id"):
        get_rule("NOPE999")


def test_effective_capacity_definition_site_is_hatched() -> None:
    """The real choke-point definition passes only via its hatch."""
    thresholds = (
        Path(__file__).parents[2] / "src" / "repro" / "core" / "thresholds.py"
    )
    rule = get_rule("CAP002")
    assert lint_file(thresholds, [rule]) == []
    # strip the hatches and the definition site must light up
    source = thresholds.read_text(encoding="utf-8").replace(
        "# lint: allow-capacity", "#"
    )
    stripped = lint_file(thresholds, [rule], source=source)
    assert any(d.rule_id == "CAP002" for d in stripped)
