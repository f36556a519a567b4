"""Heterogeneous log-parser backends behind one training interface.

Four miners ship: drain, spell, iplom and logcluster. Each is a black box
with one contract: ``fit_<name>(records, **params)`` in module ``<name>``
takes a non-empty list of records, each with at least one token (``fit``
checks both, so no miner handles an empty sequence), and the fields of its
params class, a validating ``NamedTuple``, as required keywords (their
defaults live only on that class). It returns
``[(template_tokens, member_line_ids), ...]`` in creation order, every
record in exactly one group. ``fit`` is the only code that turns those
groups into a :class:`~logconformal.templates.TemplateSet`; its templates
all use the shared literal-or-wildcard token shape, so one scoring
function serves them all.
"""

from __future__ import annotations

import importlib
from typing import NamedTuple

from ..errors import EmptyCorpus, InvalidSpec
from ..nonconformity import nearest
from ..templates import Checked, EventTemplate, TemplateSet


class _DrainFields(NamedTuple):
    depth: int = 4
    sim_threshold: float = 0.5
    max_children: int = 100


class DrainParams(Checked, _DrainFields):
    __slots__ = ()

    def _check(self):
        if self.depth < 3:
            raise ValueError("depth must be at least 3")
        if not 0.0 < self.sim_threshold < 1.0:
            raise ValueError("sim_threshold must be in (0, 1)")
        if self.max_children < 2:
            raise ValueError("max_children must be at least 2")


class _SpellFields(NamedTuple):
    lcs_threshold: float = 0.5


class SpellParams(Checked, _SpellFields):
    __slots__ = ()

    def _check(self):
        if not 0.0 < self.lcs_threshold < 1.0:
            raise ValueError("lcs_threshold must be in (0, 1)")


class _IPLoMFields(NamedTuple):
    partition_support_threshold: float = 0.0
    lower_bound: float = 0.25
    upper_bound: float = 0.9


class IPLoMParams(Checked, _IPLoMFields):
    __slots__ = ()

    def _check(self):
        if not 0.0 <= self.partition_support_threshold < 1.0:
            raise ValueError("partition_support_threshold must be in [0, 1)")
        if not 0.0 <= self.lower_bound <= 1.0:
            raise ValueError("lower_bound must be in [0, 1]")
        if not 0.0 <= self.upper_bound <= 1.0:
            raise ValueError("upper_bound must be in [0, 1]")


class _LogClusterFields(NamedTuple):
    min_support: int = 10


class LogClusterParams(Checked, _LogClusterFields):
    __slots__ = ()

    def _check(self):
        if self.min_support < 2:
            raise ValueError("min_support must be at least 2")


_PARAMS: dict[str, type] = {"drain": DrainParams, "spell": SpellParams,
                            "iplom": IPLoMParams, "logcluster": LogClusterParams}
PARSER_NAMES = tuple(_PARAMS)


def params_from_dict(parser_name: str, overrides: dict | None):
    """Build a parser's params from config overrides.

    Raises :class:`InvalidSpec` for an unknown parser or key, a value whose type
    differs from the default's (an int is accepted, and stored as a float,
    where a float is expected), or a value out of range.
    """
    if parser_name not in _PARAMS:
        raise InvalidSpec(f"unknown parser {parser_name!r} (known: {', '.join(PARSER_NAMES)})")
    params_cls = _PARAMS[parser_name]
    if overrides is None:
        overrides = {}
    elif not isinstance(overrides, dict):
        raise InvalidSpec(f"{parser_name} parameters must be an object")
    defaults = params_cls._field_defaults
    for key, value in overrides.items():
        if key not in defaults:
            raise InvalidSpec(f"unknown {parser_name} parameter {key!r}")
        default = defaults[key]
        kinds = (int, float) if isinstance(default, float) else type(default)
        if isinstance(value, bool) != isinstance(default, bool) \
                or not isinstance(value, kinds):
            raise InvalidSpec(f"{parser_name} parameter {key!r} must be "
                              f"{type(default).__name__}, got {value!r}")
    try:
        return params_cls(**{key: float(value) if isinstance(defaults[key], float) else value
                             for key, value in overrides.items()})
    except (OverflowError, ValueError) as exc:  # OverflowError: an int no float holds
        raise InvalidSpec(f"{parser_name}: {exc}") from exc


def fit(parser_name: str, params, records) -> TemplateSet:
    """Train one parser on tokenized records, with its own params class or
    ``None`` for its defaults; anything else raises :class:`InvalidSpec`.

    The miner's groups become templates ``T1..Tk`` in the order the miner
    returns them, each with one support per member line. Deterministic for
    identical inputs.
    """
    default = params_from_dict(parser_name, None)  # InvalidSpec for an unknown name
    if params is not None and not isinstance(params, type(default)):
        raise InvalidSpec(f"{parser_name} takes {type(default).__name__}, got {params!r}")
    records = list(records)
    if not records:
        raise EmptyCorpus("no training records")
    if any(not rec.tokens for rec in records):
        raise ValueError("records must be tokenized; found a record with no tokens")
    params = (params or default)._asdict()
    # imported here: loading a bundle needs only the params classes
    miner = getattr(importlib.import_module(f"{__name__}.{parser_name}"),
                    f"fit_{parser_name}")
    templates = tuple(EventTemplate(template_id=f"T{k}", tokens=tuple(tokens),
                                    support=len(member_ids))
                      for k, (tokens, member_ids) in enumerate(miner(records, **params), 1))
    return TemplateSet(parser_name=parser_name, parser_params=params, templates=templates)


def match_record(ts: TemplateSet, record) -> str | None:
    """Id of the template with minimal weighted edit-distance score.

    Ties go to the lexicographically smaller id; ``None`` only when the set
    has no templates.
    """
    return nearest(ts, record.tokens)[0] if ts.templates else None


__all__ = [
    "PARSER_NAMES", "DrainParams", "SpellParams", "IPLoMParams",
    "LogClusterParams", "fit", "match_record", "params_from_dict",
]
