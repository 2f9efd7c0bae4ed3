"""Rule registry: every rule class self-registers under its stable ID."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Type, TypeVar

if TYPE_CHECKING:
    from repro.statcheck.engine import Rule

_RULES: "Dict[str, Type[Rule]]" = {}

R = TypeVar("R", bound="Type[Rule]")


def register(cls: R) -> R:
    """Class decorator adding a rule to the global registry.

    IDs are stable public API (they appear in suppressions), so
    re-registering an existing ID is a programming error.
    """
    rule_id = cls.id
    if not rule_id:
        raise ValueError(f"{cls.__name__} has no rule id")
    if rule_id in _RULES:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    _RULES[rule_id] = cls
    return cls


def get_rule(rule_id: str) -> "Type[Rule]":
    _load_builtin_rules()
    return _RULES[rule_id]


def all_rules() -> "List[Type[Rule]]":
    """Every registered rule class, sorted by ID."""
    _load_builtin_rules()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def _load_builtin_rules() -> None:
    # importing the package populates the registry via @register
    import repro.statcheck.rules  # noqa: F401
