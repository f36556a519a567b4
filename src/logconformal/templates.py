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
    ``fit`` made them; every listing of them keeps this order.

    Templates are only ever appended to ``templates``.
    """

    parser_name: str
    parser_params: dict
    templates: list[EventTemplate] = field(default_factory=list)
    # token count -> templates of that length in fit order; covers the first
    # ``_indexed`` templates and takes in the rest on the next lookup
    _by_length: dict[int, list[EventTemplate]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _indexed: int = field(default=0, init=False, repr=False, compare=False)

    def of_length(self, n: int) -> list[EventTemplate]:
        """The templates with ``n`` tokens, in fit order: the only ones that
        can match a record of ``n`` tokens positionally."""
        for t in self.templates[self._indexed:]:
            self._by_length.setdefault(len(t.tokens), []).append(t)
        self._indexed = len(self.templates)
        return self._by_length.get(n, [])

