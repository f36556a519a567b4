"""Command-line pipeline: synth, train, detect, eval, verify-chain.

All knobs live in a JSON config file; a handful of flags override the
common ones. Exit codes: 0 success, 2 configuration error, 3 data error,
4 model bundle error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from .errors import BundleError, EmptyCorpus, InvalidSpec, LogConformalError
from .ingest import (PROFILE_FORMATS, ChainStore, compile_schema, read_log_file,
                     verify_chain, with_headers)

# Each command imports the modules it runs, and calls them through their module
# attributes, so that a process loads only what its subcommand needs.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BUNDLE = 4


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InvalidSpec(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidSpec(f"config {path} must hold a JSON object")
    return doc


def _setting(cfg: dict, key: str, given=None, default=None, check=None):
    """The flag's value if it was given, else the config's value at ``key``
    (``"paths.model"`` names ``model`` in section ``paths``), else ``default``.
    ``check(value, key)`` vets a value that came from a flag or the config."""
    section, _, name = key.rpartition(".")
    doc = cfg.get(section, {}) if section else cfg
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{section} must be an object, got {doc!r}")
    if given is None:
        if name not in doc:
            return default
        given = doc[name]
    return given if check is None else check(given, key)


def _level(value, what: str) -> float:
    """A significance level: a number in [0, 1], returned as a float, so that
    ``1`` and ``1.0`` write the same bytes."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0.0 <= value <= 1.0:
        raise InvalidSpec(f"{what} must be a number in [0, 1], got {value!r}")
    return float(value)


def _count(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidSpec(f"{what} must be an integer, got {value!r}")
    return value


def _path(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise InvalidSpec(f"{what} must be a non-empty string, got {value!r}")
    return value


def _output(value, what: str) -> str:
    parent = Path(_path(value, what)).parent
    if not parent.is_dir():
        raise InvalidSpec(f"{what} {value!r}: directory {parent} does not exist")
    return value


def _grid(value, what: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise InvalidSpec(f"{what} must be a list of numbers, got {value!r}")
    if not value:
        raise InvalidSpec(f"{what} must hold at least one epsilon")
    return tuple(_level(eps, "grid value") for eps in value)


def _of_type(kind: type, noun: str):
    def check(value, what: str):
        if not isinstance(value, kind):
            raise InvalidSpec(f"{what} must be {noun}, got {value!r}")
        return value
    return check


def _required(cfg: dict, key: str, given, what: str, flag: str, exists=True) -> str:
    """A needed path: ``--<flag>``, else ``paths.<key>``; on disk if ``exists``."""
    path = _setting(cfg, f"paths.{key}", given, check=_path)
    if path is None:
        raise InvalidSpec(f"no {what} (use --{flag} or paths.{key})")
    if exists and not Path(path).exists():
        raise InvalidSpec(f"{what} {path} does not exist")
    return path


def _schema_from_config(cfg: dict, format_flag: str | None):
    """The compiled header schema: the iiot profile's, unless ``--format`` or
    the config names a format template or mask rules; a part left unnamed then
    defaults to the profile's template and to no mask rules."""
    default_fmt, default_rules = PROFILE_FORMATS["iiot"]
    fmt = _setting(cfg, "format_template", format_flag, check=_of_type(str, "a string"))
    rules = _setting(cfg, "mask_rules", default=default_rules if fmt is None else [],
                     check=_of_type(list, "a list"))
    return compile_schema(default_fmt if fmt is None else fmt, rules)


def _parser_selection(cfg: dict) -> list[tuple[str, object]]:
    from . import parsers
    wanted = _setting(cfg, "parsers", default={})
    if not isinstance(wanted, dict):
        raise InvalidSpec("parsers must be an object of name -> parameters")
    wanted = wanted or dict.fromkeys(parsers.PARSER_NAMES)  # absent or {}: all at defaults
    return [(name, parsers.params_from_dict(name, overrides))
            for name, overrides in wanted.items()]


def _synth_corpus(cfg: dict, args):
    """Synthetic corpus from ``seed`` and ``synth.*`` in the config; a flag
    wins over its key. Commands without a size flag (``eval``) take the
    sizes from the config alone."""
    from . import evalharness
    profile = _setting(cfg, "synth.profile", args.profile, "iiot")
    if not isinstance(profile, str) or profile not in evalharness.PROFILES:
        raise InvalidSpec(f"unknown profile {profile!r}")
    sizes = {key: _setting(cfg, f"synth.{key}", getattr(args, flag, None), default, _count)
             for key, flag, default in (("n_train", "train", 10000),
                                        ("n_test", "test", 1000),
                                        ("n_anomalies", "anomalies", 788))}
    seed = _setting(cfg, "seed", args.seed, 1, _count)
    return evalharness.synth_corpus(seed=seed, profile=evalharness.PROFILES[profile],
                                    **sizes)


def _trainable(records, skipped: int) -> list:
    """The records a parser can train on, those with tokens; warns how many
    lines were dropped, the ``skipped`` unparsable ones included."""
    kept = [r for r in records if r.tokens]
    dropped = skipped + len(records) - len(kept)
    if dropped:
        print(f"warning: skipped {dropped} unparsable or empty lines", file=sys.stderr)
    return kept


def _train_models(selection, records):
    from . import conformal, parsers
    models = []
    for name, params in selection:
        ts = parsers.fit(name, params, records)
        models.append(conformal.calibrate(ts, records))
    return models


def cmd_synth(args) -> int:
    from . import evalharness
    if not args.out:
        raise InvalidSpec("synth requires --out")
    corpus = _synth_corpus(_load_config(args.config), args)
    paths = evalharness.write_corpus(corpus, args.out)
    print(f"wrote {len(corpus.raw_lines)} lines "
          f"({len(corpus.train_ids)} train / {len(corpus.test_ids)} test) "
          f"to {paths['log']}")
    return EXIT_OK


def cmd_train(args) -> int:
    from . import conformal
    cfg = _load_config(args.config)
    schema = _schema_from_config(cfg, args.format)
    input_path = _required(cfg, "train", args.input, "training input", "input")
    chain_path = _setting(cfg, "paths.chain", check=_output)
    model_path = _setting(cfg, "paths.model", args.model, "model.bundle", _output)
    selection = _parser_selection(cfg)

    if chain_path is not None and not Path(input_path).is_file():
        raise InvalidSpec(f"training input {input_path} is not a regular file; "
                          f"paths.chain reads it twice")
    records = _trainable(*read_log_file(input_path, schema))
    if not records:
        raise EmptyCorpus(f"no parsable records in {input_path}")
    # a store that fails verification stops train before any fit, and the
    # records reach the store, header fields read again, once the bundle is written
    with nullcontext() if chain_path is None else ChainStore(chain_path) as store:
        models = _train_models(selection, records)
        conformal.save_bundle(models, schema, model_path)
        if store is not None:
            for rec in with_headers(input_path, schema, records):
                store.append(rec)
    counts = ", ".join(f"{m.parser_name}={len(m.template_set.templates)}"
                       for m in models)
    print(f"trained on {len(records)} records; templates: {counts}; "
          f"bundle: {model_path}")
    return EXIT_OK


def cmd_detect(args) -> int:
    from . import conformal, detector
    cfg = _load_config(args.config)
    eps = _setting(cfg, "epsilon", args.epsilon, detector.DetectorConfig().epsilon, _level)
    model_path = _required(cfg, "model", args.model, "model bundle", "model", exists=False)
    input_path = _required(cfg, "test", args.input, "detection input", "input")
    out_path = _setting(cfg, "paths.alarms", args.out, "alarms.jsonl", _output)

    models, schema = conformal.load_bundle(model_path)
    records, skipped = read_log_file(input_path, schema)
    if skipped:
        print(f"warning: skipped {skipped} unparsable lines", file=sys.stderr)

    verdicts = detector.detect_batch(models, records, detector.DetectorConfig(epsilon=eps))
    with open(out_path, "w", encoding="utf-8") as fh:
        alarms = detector.write_alarms(fh, records, verdicts)
    print(f"processed={len(records)} alarms={alarms} epsilon={eps} out={out_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import evalharness
    cfg = _load_config(args.config)
    grid = args.grid
    if grid is not None:  # a comma list on the command line, a JSON list in the config
        try:
            grid = [float(x) for x in grid.split(",")]
        except ValueError as exc:
            raise InvalidSpec(f"bad grid {args.grid!r}") from exc
    grid = _setting(cfg, "grid", grid, evalharness.DEFAULT_GRID, _grid)
    out_path = _setting(cfg, "paths.report", args.out, "sweep.csv", _output)
    selection = _parser_selection(cfg)
    keys = ("corpus", "labels", "split")
    sources = [_setting(cfg, f"paths.{key}", check=_path) for key in keys]
    if any(sources) and not all(sources):
        missing = ", ".join(f"paths.{k}" for k, src in zip(keys, sources) if not src)
        raise InvalidSpec(f"eval reads a corpus from files only when paths.corpus, "
                           f"paths.labels and paths.split are all set; missing {missing}")
    for flag in ("seed", "profile") if all(sources) else ("format",):
        if getattr(args, flag) is not None:  # a flag the corpus source would not read
            raise InvalidSpec(f"--{flag} does not apply to eval on a "
                               f"{'corpus from files' if all(sources) else 'synthetic corpus'}")
    if all(sources):
        schema = _schema_from_config(cfg, args.format)
        corpus = evalharness.load_corpus(*sources, schema)
    else:
        corpus = _synth_corpus(cfg, args)

    models = _train_models(selection, _trainable(corpus.train_records, 0))
    rows = evalharness.significance_sweep(models, corpus, grid)
    Path(out_path).write_text(evalharness.render_sweep_csv(rows), encoding="utf-8")
    print(evalharness.render_sweep_table(rows), end="")
    print(f"report: {out_path}")
    return EXIT_OK


def cmd_verify_chain(args) -> int:
    cfg = _load_config(args.config)
    store_path = _required(cfg, "chain", args.store, "chain store", "store")
    report = verify_chain(store_path)
    if report.valid:
        print(f"chain valid: {report.entries} entries")
        return EXIT_OK
    print(f"chain INVALID at entry {report.first_bad_index}")
    return EXIT_DATA


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="logconformal",
                                 description="Template-mining ensemble log "
                                             "anomaly detector")
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand registers only the flags it reads
    shared = {"--seed": {"type": int, "help": "RNG seed override"},
              "--out": {"help": "primary output path"},
              "--format": {"help": "header format template override"}}

    def command(name, func, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    p = command("synth", cmd_synth, "generate a labeled corpus", "--seed", "--out")
    p.add_argument("--profile", choices=sorted(PROFILE_FORMATS))
    p.add_argument("--train", type=int, help="training lines")
    p.add_argument("--test", type=int, help="test lines")
    p.add_argument("--anomalies", type=int, help="planted anomalies")

    p = command("train", cmd_train, "fit parsers and calibrate", "--format")
    p.add_argument("--input", help="training log file")
    p.add_argument("--model", help="bundle output path")

    p = command("detect", cmd_detect, "score a log file against a bundle", "--out")
    p.add_argument("--input", help="log file to score")
    p.add_argument("--model", help="bundle path")
    p.add_argument("--epsilon", type=float, help="significance level")

    p = command("eval", cmd_eval, "significance sweep on a labeled corpus",
                "--seed", "--out", "--format")
    p.add_argument("--grid", help="comma-separated epsilon grid")
    p.add_argument("--profile", choices=sorted(PROFILE_FORMATS))

    p = command("verify-chain", cmd_verify_chain, "check chain store integrity")
    p.add_argument("--store", help="chain store path")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0), already printed
        return exc.code
    try:
        return args.func(args)
    except (LogConformalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_CONFIG if isinstance(exc, InvalidSpec)
                else EXIT_BUNDLE if isinstance(exc, BundleError) else EXIT_DATA)


if __name__ == "__main__":
    sys.exit(main())
