"""Event-template containers, the grouping steps shared by the parsers, and
the two record bases the package's read-only (``Frozen``) and validating
(``Checked``) records build on.

All four parsers emit templates in one common shape: a sequence of tokens
where each token is either a literal word or the single-token wildcard
``<*>`` that stands for exactly one arbitrary token.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

WILDCARD = "<*>"


def ids_by_tokens(records) -> dict[tuple[str, ...], list[int]]:
    """Each distinct token tuple in first-seen order, with the line ids of
    its records in input order."""
    ids: dict[tuple[str, ...], list[int]] = {}
    for rec in records:
        ids.setdefault(rec.tokens, []).append(rec.line_id)
    return ids


def merged(template, tokens) -> list[str]:
    """The template with every position where ``tokens`` differs made a
    wildcard; a wildcard stays one."""
    return [t if t == o else WILDCARD for t, o in zip(template, tokens)]


class Group:
    """A miner's growing group: its current template and its members' ids."""

    __slots__ = ("template", "member_ids")

    def __init__(self, template: list[str], member_ids: list[int] | None = None):
        self.template = template
        self.member_ids = [] if member_ids is None else member_ids


class Frozen:
    """Base of a read-only record: ``__init__`` fills the instance dict with
    the ``_fields``, and assigning or deleting any attribute afterwards raises
    ``AttributeError``. A ``functools.cached_property`` still works, since it
    writes the instance dict directly. Records of one class are equal when
    their fields are."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is read-only")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Checked:
    """Mixin that validates a ``typing.NamedTuple`` record: ``class
    P(Checked, _PFields)`` defines ``_check``, which raises ``ValueError``
    for a bad value, and every way of building a ``P`` (a call, ``_make``,
    ``_replace``) runs it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class EventTemplate(NamedTuple):
    """One learned event pattern: literal tokens with wildcard positions."""

    template_id: str
    tokens: tuple[str, ...]
    support: int = 1

    def matches(self, tokens) -> bool:
        """Positional match: same length, literals equal, wildcards free."""
        if len(tokens) != len(self.tokens):
            return False
        return all(t == WILDCARD or t == o for t, o in zip(self.tokens, tokens))


class TemplateSet(Frozen):
    """The templates one parser learned from a training corpus, in the order
    ``fit`` made them; every listing of them keeps this order."""

    _fields = ("parser_name", "parser_params", "templates")

    def __init__(self, parser_name: str, parser_params: dict,
                 templates: tuple[EventTemplate, ...] = ()):
        vars(self).update(parser_name=parser_name, parser_params=parser_params,
                          templates=templates)

    @cached_property
    def _by_length(self) -> dict[int, list[EventTemplate]]:
        """Token count -> the templates of that length, in fit order."""
        by_length: dict[int, list[EventTemplate]] = {}
        for t in self.templates:
            by_length.setdefault(len(t.tokens), []).append(t)
        return by_length

    def of_length(self, n: int) -> list[EventTemplate]:
        """The templates with ``n`` tokens, in fit order: the only ones that
        can match a record of ``n`` tokens positionally."""
        return self._by_length.get(n, [])
