"""Log anomaly detection by combining heterogeneous template miners
through conformal p-values over a weighted edit-distance score.

The public names below resolve on first access, importing only the module
that defines them, so ``python -m logconformal.cli`` loads no more than the
subcommand runs.
"""

import importlib

_EXPORTS = {name: module for module, names in (
    ("conformal", "CalibrationModel PValueSet calibrate pvalue pvalues_for"),
    ("detector", "ANOMALY NORMAL DetectorConfig Verdict decide detect_batch"),
    ("ingest", "ChainStore HeaderSchema LogRecord compile_schema preprocess verify_chain"),
    ("nonconformity", "ScoreParams edit_script weighted_score"),
    ("parsers", "DrainParams IPLoMParams LogClusterParams SpellParams fit match_record"),
    ("templates", "WILDCARD EventTemplate TemplateSet"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
