"""Event-template containers shared by every parser backend.

All four parsers emit templates in one common shape: a sequence of tokens
where each token is either a literal word or the single-token wildcard
``<*>`` that stands for exactly one arbitrary token.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WILDCARD = "<*>"


@dataclass(frozen=True)
class EventTemplate:
    """One learned event pattern: literal tokens with wildcard positions."""

    template_id: str
    tokens: tuple[str, ...]
    support: int = 1

    def matches(self, tokens) -> bool:
        """Positional match: same length, literals equal, wildcards free."""
        if len(tokens) != len(self.tokens):
            return False
        return all(t == WILDCARD or t == o for t, o in zip(self.tokens, tokens))


@dataclass
class TemplateSet:
    """The templates one parser learned from a training corpus, in the order
    ``fit`` made them; every listing of them keeps this order."""

    parser_name: str
    parser_params: dict
    templates: list[EventTemplate] = field(default_factory=list)

