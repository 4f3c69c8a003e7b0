"""Command-line interface: enhance, benchmark, generate, metrics."""

from __future__ import annotations

import argparse
import csv
import sys
from operator import attrgetter

import numpy as np

from .data import (
    Preprocessor,
    _parse_column,
    canonicalize_binary,
    generate_synthetic_benchmark,
    load_csv,
    write_csv,
)
from .metrics import EVAL_CSV_COLUMNS, _eval_report
from .pipeline import (
    CONFIG_KEYS,
    PipelineConfig,
    StageError,
    _benchmark_summary,
    _decision_lines,
    _write_rows,
    benchmark,
    config_from_mapping,
    emit_report,
    parse_config_file,
    run_pipeline,
    serialize_config,
)


def _add_pipeline_flags(sp):
    sp.add_argument("input", nargs="?", help="labeled CSV (or set it in --config)")
    sp.add_argument("--config", help="flat key = value config file")
    sp.add_argument("--out", default="out", help="output directory (default: out)")
    defaults = PipelineConfig()
    for key, path, _, help_text in CONFIG_KEYS:
        if key in ("input", "benchmark_folds"):  # positional; --folds on benchmark only
            continue
        flag = "--" + key.replace("_", "-")
        if attrgetter(path)(defaults) is False:
            sp.add_argument(flag, action="store_const", const="true", help=help_text)
        else:
            sp.add_argument(flag, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="imbenhance",
        description="Enhance imbalanced binary tabular datasets: minority synthesis, "
                    "margin filtering, and pseudo-label self-learning.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enhance", help="run the pipeline and write the enhanced dataset")
    _add_pipeline_flags(sp)

    sp = sub.add_parser("benchmark", help="stratified k-fold before/after comparison")
    _add_pipeline_flags(sp)
    sp.add_argument("--folds", dest="benchmark_folds",
                    help="cross-validation fold count (default 3)")

    sp = sub.add_parser("generate", help="write a synthetic imbalanced benchmark CSV")
    sp.add_argument("--n", type=int, default=2000)
    sp.add_argument("--dims", type=int, default=5)
    sp.add_argument("--imbalance-ratio", type=float, default=20.0,
                    help="majority:minority ratio r, minority prior 1/(1+r)")
    sp.add_argument("--separation", type=float, default=3.0)
    sp.add_argument("--noise-rate", type=float, default=0.0)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--label-column", default="y")
    sp.add_argument("--out", required=True, help="output CSV path")

    sp = sub.add_parser("metrics", help="score a predictions CSV (columns: label, score"
                                        "[, prediction])")
    sp.add_argument("predictions", help="CSV with label and score columns")
    sp.add_argument("--threshold", type=float, default=0.5)
    sp.add_argument("--out", help="optionally also write the report as CSV")
    return p


def _merge_config(args) -> PipelineConfig:
    """Config-file values, overridden by every pipeline flag given."""
    mapping = parse_config_file(args.config) if args.config else {}
    for key, *_ in CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            mapping[key] = getattr(args, key)
    cfg = config_from_mapping(mapping)
    serialize_config(cfg)  # a config the report could not replay fails before the run
    return cfg


def _prepare_data(cfg: PipelineConfig):
    """Load, preprocess, and canonicalize the input; build the pool, its labels the truth."""
    if not cfg.input_path:
        raise ValueError("input CSV required (positional argument or 'input =' in config)")
    raw = load_csv(cfg.input_path, label_column=cfg.label_column)
    pre = Preprocessor()
    clean = pre.fit_transform(raw)
    ds, mapping = canonicalize_binary(clean, cfg.positive_label)

    pool = None
    if cfg.unlabeled_path:
        with open(cfg.unlabeled_path, newline="", encoding="utf-8") as fh:
            header = [h.strip() for h in next(csv.reader(fh), [])]
        label_col = cfg.label_column if cfg.label_column in header else None
        pool = pre.transform(load_csv(cfg.unlabeled_path, label_column=label_col))
        if pool.labels is not None:
            pool = pool.with_labels(np.array([mapping.get(int(v), -1) for v in pool.labels],
                                             dtype=int))
    return ds, pool, mapping


def cmd_enhance(args) -> int:
    cfg = _merge_config(args)
    ds, pool, mapping = _prepare_data(cfg)
    if mapping != {0: 0, 1: 1}:
        print(f"label mapping (original -> canonical): {mapping}")
    result = run_pipeline(ds, pool, cfg)
    emit_report(result, None, args.out, cfg)
    for stage, ms in result.timings_ms.items():
        print(f"{stage}: {ms:.1f} ms")
    for line in _decision_lines(result):
        print(line)
    print(f"report written to {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    cfg = _merge_config(args)
    ds, pool, _ = _prepare_data(cfg)
    bench = benchmark(ds, cfg, unlabeled=pool)
    emit_report(None, bench, args.out, cfg)
    print(_benchmark_summary(bench), end="")
    print(f"report written to {args.out}")
    return 0


def cmd_generate(args) -> int:
    d = generate_synthetic_benchmark(n=args.n, d=args.dims,
                                     imbalance_ratio=args.imbalance_ratio,
                                     separation=args.separation,
                                     noise_rate=args.noise_rate, seed=args.seed)
    write_csv(d, args.out, label_column=args.label_column, include_provenance=False)
    n_min = int(np.sum(d.labels == 1))
    print(f"wrote {d.n_rows} rows ({n_min} minority) to {args.out}")
    return 0


def _numbers(path, cells: dict, name: str, binary: bool = False) -> np.ndarray:
    """Column ``name`` as finite numbers (as 0/1 integers if ``binary``); a cell
    that is not one is an error naming its data row, counted from 1."""
    if name not in cells:
        raise ValueError(f"{path}: column {name!r} required")
    values, bad, _ = _parse_column(cells[name], numeric_input=False)
    checks = [(bad, "a finite number")]
    if binary:
        checks = [(bad | (values != np.floor(values)), "a finite integer"),
                  ((values != 0) & (values != 1), "0 or 1")]
    for wrong, what in checks:
        if np.any(wrong):
            i = int(np.argmax(wrong))
            raise ValueError(f"{path}: {name} in row {i + 1} must be {what}, "
                             f"got {cells[name][i] or ''!r}")
    return values.astype(int) if binary else values


def cmd_metrics(args) -> int:
    raw = load_csv(args.predictions)
    if raw.n_rows == 0:
        raise ValueError(f"{args.predictions}: no data rows")
    cells = dict(zip(raw.feature_names, raw.features.T))
    labels = _numbers(args.predictions, cells, "label", binary=True)
    scores = _numbers(args.predictions, cells, "score")
    if "prediction" in cells and cells["prediction"][0] is not None:
        preds = _numbers(args.predictions, cells, "prediction", binary=True)
    else:
        preds = (scores >= args.threshold).astype(int)
    report = _eval_report(labels, scores, preds, args.threshold)
    print(report.to_text())
    if args.out:
        _write_rows(args.out, EVAL_CSV_COLUMNS, [report.to_csv_row()])
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"enhance": cmd_enhance, "benchmark": cmd_benchmark,
                "generate": cmd_generate, "metrics": cmd_metrics}
    try:
        return handlers[args.command](args)
    except (StageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
