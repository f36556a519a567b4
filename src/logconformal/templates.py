"""Event-template containers shared by every parser backend.

All four parsers emit templates in one common shape: a sequence of tokens
where each token is either a literal word or the single-token wildcard
``<*>`` that stands for exactly one arbitrary token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

WILDCARD = "<*>"

_ID_CHUNKS = re.compile(r"(\d+)")


def natural_key(template_id: str) -> tuple:
    """Sort key that orders T2 before T10."""
    return tuple(int(part) if part.isdigit() else part
                 for part in _ID_CHUNKS.split(template_id))


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
    """The templates one parser learned from a training corpus."""

    parser_name: str
    parser_params: dict
    templates: list[EventTemplate] = field(default_factory=list)


def list_templates(ts: TemplateSet) -> list[EventTemplate]:
    """Templates in natural id order (T2 before T10)."""
    return sorted(ts.templates, key=lambda t: natural_key(t.template_id))

