"""Heterogeneous log-parser backends behind one training interface.

Four miners ship by default (drain, spell, iplom, logcluster); further
backends can be registered by name. ``fit`` produces a
:class:`~logconformal.templates.TemplateSet` whose templates all use the
shared literal-or-wildcard token shape, so one scoring function serves them
all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from ..errors import EmptyCorpus, InvalidSpec, UnknownParser
from ..nonconformity import nearest
from ..templates import EventTemplate, TemplateSet, list_templates
from .drain import fit_drain
from .iplom import fit_iplom
from .logcluster import fit_logcluster
from .spell import fit_spell

PARSER_NAMES = ("drain", "spell", "iplom", "logcluster")


@dataclass(frozen=True)
class DrainParams:
    depth: int = 4
    sim_threshold: float = 0.5
    max_children: int = 100

    def __post_init__(self):
        if self.depth < 3:
            raise ValueError("depth must be at least 3")
        if not 0.0 < self.sim_threshold < 1.0:
            raise ValueError("sim_threshold must be in (0, 1)")
        if self.max_children < 2:
            raise ValueError("max_children must be at least 2")


@dataclass(frozen=True)
class SpellParams:
    lcs_threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.lcs_threshold < 1.0:
            raise ValueError("lcs_threshold must be in (0, 1)")


@dataclass(frozen=True)
class IPLoMParams:
    partition_support_threshold: float = 0.0
    lower_bound: float = 0.25
    upper_bound: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.partition_support_threshold < 1.0:
            raise ValueError("partition_support_threshold must be in [0, 1)")
        if not 0.0 <= self.lower_bound <= 1.0:
            raise ValueError("lower_bound must be in [0, 1]")
        if not 0.0 <= self.upper_bound <= 1.0:
            raise ValueError("upper_bound must be in [0, 1]")


@dataclass(frozen=True)
class LogClusterParams:
    min_support: int = 10

    def __post_init__(self):
        if self.min_support < 2:
            raise ValueError("min_support must be at least 2")


ParserParams = DrainParams | SpellParams | IPLoMParams | LogClusterParams


def _fit_drain(params: DrainParams, records) -> TemplateSet:
    ts = TemplateSet(parser_name="drain", parser_params=asdict(params))
    for cluster in fit_drain(records, depth=params.depth,
                             sim_threshold=params.sim_threshold,
                             max_children=params.max_children):
        _add_group(ts, cluster.template, cluster.member_ids)
    return ts


def _fit_spell(params: SpellParams, records) -> TemplateSet:
    ts = TemplateSet(parser_name="spell", parser_params=asdict(params))
    for group in fit_spell(records, lcs_threshold=params.lcs_threshold):
        _add_group(ts, group.template, group.member_ids)
    return ts


def _fit_iplom(params: IPLoMParams, records) -> TemplateSet:
    ts = TemplateSet(parser_name="iplom", parser_params=asdict(params))
    for template, ids in fit_iplom(
            records,
            partition_support_threshold=params.partition_support_threshold,
            lower_bound=params.lower_bound, upper_bound=params.upper_bound):
        _add_group(ts, template, ids)
    return ts


def _fit_logcluster(params: LogClusterParams, records) -> TemplateSet:
    ts = TemplateSet(parser_name="logcluster", parser_params=asdict(params))
    for _key, template, ids in fit_logcluster(records,
                                              min_support=params.min_support):
        _add_group(ts, template, ids)
    return ts


def _add_group(ts: TemplateSet, template_tokens, member_ids):
    template_id = f"T{len(ts.templates) + 1}"
    ts.templates.append(EventTemplate(template_id=template_id,
                                      tokens=tuple(template_tokens),
                                      support=len(member_ids)))
    for line_id in member_ids:
        ts.assignment[line_id] = template_id


_REGISTRY: dict[str, tuple[type, object]] = {
    "drain": (DrainParams, _fit_drain),
    "spell": (SpellParams, _fit_spell),
    "iplom": (IPLoMParams, _fit_iplom),
    "logcluster": (LogClusterParams, _fit_logcluster),
}


def register_parser(name: str, params_cls: type, fitter) -> None:
    """Make a new backend available to :func:`fit` under ``name``."""
    _REGISTRY[name] = (params_cls, fitter)


def default_params(parser_name: str) -> ParserParams:
    if parser_name not in _REGISTRY:
        raise UnknownParser(parser_name)
    return _REGISTRY[parser_name][0]()


def params_from_dict(parser_name: str, overrides: dict | None) -> ParserParams:
    """Build a parser's params from config overrides.

    Raises :class:`InvalidSpec` for an unknown key, a value whose type
    differs from the default's (an int is accepted where a float is
    expected), or a value out of range.
    """
    if parser_name not in _REGISTRY:
        raise UnknownParser(parser_name)
    params_cls = _REGISTRY[parser_name][0]
    overrides = overrides or {}
    if not isinstance(overrides, dict):
        raise InvalidSpec(f"{parser_name} parameters must be an object")
    defaults = {f.name: f.default for f in fields(params_cls)}
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
        return params_cls(**overrides)
    except ValueError as exc:
        raise InvalidSpec(f"{parser_name}: {exc}") from exc


def fit(parser_name: str, params: ParserParams | None, records) -> TemplateSet:
    """Train one parser on tokenized records.

    Deterministic for identical inputs; every record is assigned to exactly
    one template.
    """
    if parser_name not in _REGISTRY:
        raise UnknownParser(parser_name)
    records = list(records)
    if not records:
        raise EmptyCorpus("no training records")
    if any(not rec.tokens for rec in records):
        raise ValueError("records must be tokenized; found a record with no tokens")
    params_cls, fitter = _REGISTRY[parser_name]
    if params is None:
        params = params_cls()
    return fitter(params, records)


def match_record(ts: TemplateSet, record) -> str | None:
    """Id of the template with minimal weighted edit-distance score.

    Ties go to the lexicographically smaller id; ``None`` only when the set
    has no templates.
    """
    return nearest(ts, record)[0] if ts.templates else None


__all__ = [
    "PARSER_NAMES", "DrainParams", "SpellParams", "IPLoMParams",
    "LogClusterParams", "ParserParams", "fit", "match_record",
    "list_templates", "register_parser", "default_params", "params_from_dict",
]
