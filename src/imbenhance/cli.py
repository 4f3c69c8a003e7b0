"""Command-line interface: enhance, benchmark, generate, metrics."""

from __future__ import annotations

import argparse
import csv
import sys
from operator import attrgetter

import numpy as np

from .data import (
    Preprocessor,
    canonicalize_binary,
    generate_synthetic_benchmark,
    load_csv,
    write_csv,
)
from .metrics import EVAL_CSV_COLUMNS, EvalReport, auc, confusion, ks_statistic, precision_recall_f1
from .pipeline import (
    CONFIG_KEYS,
    METRIC_NAMES,
    PipelineConfig,
    StageError,
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
    """Load, preprocess, and canonicalize the input; build the unlabeled pool."""
    if not cfg.input_path:
        raise ValueError("input CSV required (positional argument or 'input =' in config)")
    raw = load_csv(cfg.input_path, label_column=cfg.label_column)
    pre = Preprocessor()
    clean = pre.fit_transform(raw)
    ds, mapping = canonicalize_binary(clean, cfg.positive_label)

    pool = truth = None
    if cfg.unlabeled_path:
        with open(cfg.unlabeled_path, newline="", encoding="utf-8") as fh:
            header = [h.strip() for h in next(csv.reader(fh))]
        label_col = cfg.label_column if cfg.label_column in header else None
        pool_raw = load_csv(cfg.unlabeled_path, label_column=label_col)
        pool_clean = pre.transform(pool_raw)
        if pool_clean.labels is not None:
            # the pool file carried labels: keep them aside as hidden ground truth
            truth = np.array([mapping.get(int(v), -1) for v in pool_clean.labels])
            pool = pool_clean.without_labels()
        else:
            pool = pool_clean
    return ds, pool, truth, mapping


def _print_stage_summary(result):
    for stage, ms in result.timings_ms.items():
        print(f"{stage}: {ms:.1f} ms")
    if result.synthesis is not None:
        print(f"chosen technique: {result.synthesis.chosen_technique}")
    if result.filtering is not None:
        print(f"chosen threshold: {result.filtering.chosen_threshold}")
    if result.selflearn is not None:
        print(f"strategy: {result.selflearn.strategy_used}, "
              f"pseudo-labeled rows: {result.selflearn.pseudo_count}")
    if result.pseudo_accuracy is not None:
        print(f"pseudo-label accuracy vs hidden truth: {result.pseudo_accuracy:.4f}")
    for note in result.notes:
        print(f"note: {note}")
    print(f"rows: input {result.input_data.n_rows} -> augmented {result.aug.n_rows} "
          f"-> filtered {result.filtered.n_rows} -> enhanced {result.enhanced.n_rows}")


def cmd_enhance(args) -> int:
    cfg = _merge_config(args)
    ds, pool, truth, mapping = _prepare_data(cfg)
    if mapping != {0: 0, 1: 1}:
        print(f"label mapping (original -> canonical): {mapping}")
    result = run_pipeline(ds, pool, cfg, pool_truth=truth)
    emit_report(result, None, args.out, cfg)
    _print_stage_summary(result)
    print(f"report written to {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    cfg = _merge_config(args)
    ds, pool, truth, _ = _prepare_data(cfg)
    bench = benchmark(ds, cfg, unlabeled=pool, pool_truth=truth)
    emit_report(None, bench, args.out, cfg)
    base, enh = bench.summary("baseline"), bench.summary("enhanced")
    print(f"{'metric':<10} {'baseline':>18} {'enhanced':>18}")
    for name in METRIC_NAMES:
        bm, bs = base[name]
        em, es = enh[name]
        print(f"{name:<10} {bm:>10.4f}±{bs:.4f} {em:>10.4f}±{es:.4f}")
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


def cmd_metrics(args) -> int:
    with open(args.predictions, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{args.predictions}: no data rows")
    for col in ("label", "score"):
        if col not in rows[0]:
            raise ValueError(f"{args.predictions}: column {col!r} required")
    labels = np.array([int(float(r["label"])) for r in rows])
    scores = np.array([float(r["score"]) for r in rows])
    if "prediction" in rows[0] and rows[0]["prediction"] != "":
        preds = np.array([int(float(r["prediction"])) for r in rows])
    else:
        preds = (scores >= args.threshold).astype(int)
    counts = confusion(labels, preds)
    precision, recall, f1 = precision_recall_f1(counts)
    report = EvalReport(precision=precision, recall=recall, f1=f1,
                        accuracy=counts.accuracy, auc=auc(labels, scores),
                        ks=ks_statistic(labels, scores), counts=counts,
                        threshold=args.threshold)
    print(report.to_text())
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(EVAL_CSV_COLUMNS)
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in report.to_csv_row()])
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
