"""Command-line interface: enhance, benchmark, generate, metrics."""

from __future__ import annotations

import argparse
import sys
from operator import attrgetter

import numpy as np

from .data import (
    Preprocessor,
    canonicalize_binary,
    generate_synthetic_benchmark,
    is_missing,
    load_csv,
    read_numbers,
    read_table,
    write_csv,
    write_table,
)
from .metrics import EVAL_CSV_COLUMNS, score_report
from .pipeline import (
    CONFIG_KEYS,
    PipelineConfig,
    StageError,
    benchmark,
    benchmark_summary,
    config_from_mapping,
    decision_lines,
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
    try:
        ds, mapping = canonicalize_binary(pre.fit_transform(raw), cfg.positive_label)
    except ValueError as exc:
        raise ValueError(f"{cfg.input_path}: {exc}") from exc

    pool = None
    if cfg.unlabeled_path:
        pool_raw = load_csv(cfg.unlabeled_path)
        if cfg.label_column in pool_raw.feature_names:  # transform ignores columns outside its plan
            cells = pool_raw.features[:, pool_raw.feature_names.index(cfg.label_column)]
            # a blank is unknown truth: it passes transform as a fitted label, then reads -1
            blank = np.array([c is None for c in cells], dtype=bool)
            pool_raw = pool_raw.with_labels(np.where(blank, raw.labels[0], cells))
        try:
            pool = pre.transform(pool_raw)
        except ValueError as exc:
            raise ValueError(f"{cfg.unlabeled_path}: {exc}") from exc
        if pool.labels is not None:
            truth = [mapping.get(int(v), -1) for v in pool.labels]
            pool = pool.with_labels(np.where(blank, -1, truth))
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
    for line in decision_lines(result):
        print(line)
    print(f"report written to {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    cfg = _merge_config(args)
    ds, pool, _ = _prepare_data(cfg)
    bench = benchmark(ds, cfg, unlabeled=pool)
    emit_report(None, bench, args.out, cfg)
    print(benchmark_summary(bench), end="")
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
    values = read_numbers(cells[name], f"{path}: {name}", integer=binary)
    if binary and np.any(outside := (values != 0) & (values != 1)):
        i = int(np.argmax(outside))
        raise ValueError(f"{path}: {name} in row {i + 1} must be 0 or 1, got {cells[name][i]!r}")
    return values.astype(int) if binary else values


def cmd_metrics(args) -> int:
    header, rows = read_table(args.predictions)
    if not rows:
        raise ValueError(f"{args.predictions}: no data rows")
    cells = dict(zip(header, zip(*rows)))
    labels = _numbers(args.predictions, cells, "label", binary=True)
    scores = _numbers(args.predictions, cells, "score")
    preds = None
    if "prediction" in cells and not all(map(is_missing, cells["prediction"])):
        preds = _numbers(args.predictions, cells, "prediction", binary=True)
    report = score_report(labels, scores, args.threshold, preds)
    print(report.to_text())
    if args.out:
        write_table(args.out, EVAL_CSV_COLUMNS, [report.to_csv_row()])
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
