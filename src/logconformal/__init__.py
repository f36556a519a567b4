"""Log anomaly detection by combining heterogeneous template miners
through conformal p-values over a weighted edit-distance score."""

from .conformal import CalibrationModel, PValueSet, calibrate, pvalue, pvalues_for
from .detector import ANOMALY, NORMAL, DetectorConfig, Verdict, decide, detect_batch
from .ingest import (ChainStore, HeaderSchema, LogRecord, compile_schema,
                     preprocess, verify_chain)
from .nonconformity import EditScript, ScoreParams, edit_script, score_against_set, weighted_score
from .parsers import (DrainParams, IPLoMParams, LogClusterParams, SpellParams,
                      fit, match_record)
from .templates import WILDCARD, EventTemplate, TemplateSet, list_templates

__version__ = "0.1.0"
