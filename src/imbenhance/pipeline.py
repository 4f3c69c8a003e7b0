"""Three-stage enhancement pipeline (synthesis -> filtering -> self-learning),
the cross-validated before/after benchmark, and report emission."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .classifiers import MODELS, ClassifierSpec, fit, predict
from .data import (
    Dataset,
    SplitSpec,
    check_count,
    check_number,
    class_stats,
    concat_datasets,
    prefix_errors,
    stratified_split,
    write_csv,
    write_table,
)
from .filtering import DEFAULT_THRESHOLD_GRID, FilterOutcome, check_grid, filter_sweep
from .metrics import EVAL_CSV_COLUMNS, EvalReport, evaluate
from .selflearn import (
    LOG_COLUMNS,
    PseudoLabelConfig,
    SelfLearnOutcome,
    dds,
    kfulf,
    select_strategy,
)
from .synthesis import SynthesisOutcome, build_techniques, meta_synthesize, split_by_error

METRIC_NAMES = EVAL_CSV_COLUMNS[:6]


@dataclass
class PipelineConfig:
    """Everything a pipeline run depends on; serializable as flat key = value.
    ``seed`` also seeds the classifier: ``classifier.seed`` is always ``seed``,
    and the classifier spec checks it."""

    seed: int = 42
    label_column: str = "y"
    positive_label: str | None = None
    classifier: ClassifierSpec = field(default_factory=ClassifierSpec)
    techniques: list = field(default_factory=lambda: ["random-oversample", "smote"])
    smote_k_neighbors: int = 5
    target_ratio: float = 1.0
    synthesis_split_ratio: float = 0.8
    threshold_grid: tuple = DEFAULT_THRESHOLD_GRID
    retention: bool = True
    pseudo: PseudoLabelConfig = field(default_factory=PseudoLabelConfig)
    strategy: str = "auto"  # auto | kfulf | dds
    disable_synthesis: bool = False
    disable_filtering: bool = False
    disable_selflearning: bool = False
    benchmark_folds: int = 3
    hide_labels: float = 0.0
    input_path: str = ""
    unlabeled_path: str = ""

    def __post_init__(self):
        self.classifier = replace(self.classifier, seed=self.seed)
        self.techniques = list(self.techniques)
        if self.strategy not in ("auto", "kfulf", "dds"):
            raise ValueError(f"strategy must be auto, kfulf, or dds, got {self.strategy!r}")
        check_number("hide_labels", self.hide_labels, "[0, 1)")
        check_count("benchmark_folds", self.benchmark_folds, 2)
        check_number("synthesis_split_ratio", self.synthesis_split_ratio, "(0, 1)")
        self.threshold_grid = tuple(check_grid("threshold_grid", self.threshold_grid))
        self.build_techniques()  # refuses a bad entry before any stage runs

    def build_techniques(self):
        return build_techniques(self.techniques, self.smote_k_neighbors, self.target_ratio)


@dataclass
class EnhancementResult:
    enhanced: Dataset
    aug: Dataset
    filtered: Dataset
    input_data: Dataset          # the labeled data the pipeline actually ran on
    synthesis: SynthesisOutcome | None = None    # None where the stage did not run
    filtering: FilterOutcome | None = None
    selflearn: SelfLearnOutcome | None = None
    timings_ms: dict = field(default_factory=dict)
    pool_size: int = 0
    pseudo_accuracy: float | None = None    # vs hidden ground truth, when known
    base_pool_accuracy: float | None = None
    notes: list = field(default_factory=list)


def _validate_pipeline_input(d: Dataset, pool: Dataset | None):
    if d.labels is None:
        raise ValueError("pipeline input must be labeled")
    present = set(np.unique(d.labels).tolist())
    if present != {0, 1}:
        raise ValueError(f"pipeline input labels must be exactly {{0, 1}}, got {sorted(present)}")
    if pool is not None and pool.labels is not None:
        outside = sorted(set(np.unique(pool.labels).tolist()) - {-1, 0, 1})
        if outside:
            raise ValueError(f"pool labels (hidden truth) must be -1, 0 or 1, got {outside}")


@contextmanager
def _stage(name: str, timings: dict):
    """Time the block into ``timings[name]`` (ms); a ValueError in it names the stage."""
    start = time.perf_counter()
    with prefix_errors(name):
        yield
    timings[name] = (time.perf_counter() - start) * 1000.0


def _pool_accuracies(classifier: ClassifierSpec, sl_train: Dataset, pool: Dataset,
                     truth: np.ndarray, outcome: SelfLearnOutcome):
    """Accuracy against the known ``truth`` (-1 where unknown) of the pseudo-labels
    (None when no pseudo-labeled row has known truth) and of a model fitted on
    ``sl_train`` predicting the pool."""
    pseudo_truth = truth[outcome.pseudo_indices]
    sel = pseudo_truth >= 0
    pseudo_acc = None
    if np.any(sel):
        pseudo_acc = float(np.mean(outcome.pseudo_labels[sel] == pseudo_truth[sel]))
    known = truth >= 0
    base_preds = predict(fit(classifier, sl_train), pool.take(np.flatnonzero(known)))
    return pseudo_acc, float(np.mean(base_preds == truth[known]))


def run_pipeline(input_ds: Dataset, unlabeled: Dataset | None,
                 cfg: PipelineConfig) -> EnhancementResult:
    """Run synthesis, filtering, and self-learning in order on a labeled
    {0, 1} dataset; a disabled stage passes its input through unchanged.

    The pool's labels, if it has any, are its hidden truth (-1 where unknown):
    self-learning never sees them, and the report scores the pseudo-labels
    against them. ``cfg.hide_labels`` carves a stratified fraction of the input,
    labels and all, into the front of the pool.
    """
    _validate_pipeline_input(input_ds, unlabeled)
    work, pool = input_ds, unlabeled
    if pool is not None and pool.labels is None:
        pool = pool.with_labels(np.full(pool.n_rows, -1, dtype=int))
    if cfg.hide_labels > 0.0:
        work, hidden = stratified_split(
            work, SplitSpec(mode="holdout", ratio=1.0 - cfg.hide_labels, seed=cfg.seed))
        pool = hidden if pool is None else concat_datasets([hidden, pool])
    truth = None if pool is None else np.asarray(pool.labels, dtype=int)
    pool = None if pool is None else pool.without_labels()

    result = EnhancementResult(enhanced=work, aug=work, filtered=work, input_data=work,
                               pool_size=0 if pool is None else pool.n_rows)
    # the race scores on this holdout and, with synthesis off, so does the filter sweep
    train, val = stratified_split(work, SplitSpec(
        mode="holdout", ratio=cfg.synthesis_split_ratio, seed=cfg.seed))

    with _stage("synthesis", result.timings_ms):
        if not cfg.disable_synthesis:
            result.synthesis = meta_synthesize(train, cfg.build_techniques(), cfg.classifier,
                                               val, cfg.seed)
            result.aug = result.synthesis.augmented
    result.filtered = result.aug

    with _stage("filtering", result.timings_ms):
        if not cfg.disable_filtering:
            if result.synthesis is not None:
                model, mis = result.synthesis.model, result.synthesis.misclassified
            else:
                model = fit(cfg.classifier, train)
                _, mis = split_by_error(model, val)
            if mis.n_rows == 0:
                result.notes.append(
                    "filtering skipped: no misclassified validation rows to score against")
            else:
                result.filtering = filter_sweep(
                    result.aug, mis, model, cfg.classifier, thresholds=cfg.threshold_grid,
                    original_stats=class_stats(work), retention=cfg.retention)
                result.filtered = result.filtering.filtered
    result.enhanced = result.filtered

    with _stage("self-learning", result.timings_ms):
        if cfg.disable_selflearning:
            pass
        elif pool is None or pool.n_rows == 0:
            result.notes.append("self-learning skipped: empty unlabeled pool")
        elif cfg.strategy == "auto":
            sl_train, holdout = stratified_split(result.filtered, SplitSpec(
                mode="holdout", ratio=0.8, seed=cfg.seed))
            result.selflearn = select_strategy(sl_train, pool, holdout, cfg.classifier,
                                               cfg.pseudo)
            result.enhanced = concat_datasets([result.selflearn.enhanced, holdout])
        else:
            sl_train = result.filtered
            runner = kfulf if cfg.strategy == "kfulf" else dds
            result.selflearn = runner(sl_train, pool, cfg.classifier, cfg.pseudo)
            result.enhanced = result.selflearn.enhanced
        if result.selflearn is not None and np.any(truth >= 0):
            result.pseudo_accuracy, result.base_pool_accuracy = _pool_accuracies(
                cfg.classifier, sl_train, pool, truth, result.selflearn)
    return result


@dataclass
class BenchmarkResult:
    """Per-fold before/after evaluation reports plus each fold's pipeline result."""

    baseline: list          # EvalReport per fold
    enhanced: list
    pipeline_results: list  # EnhancementResult per fold

    def summary(self, which: str) -> dict:
        """metric -> (mean, sample std) across folds; ``which`` is baseline or enhanced."""
        if which not in ("baseline", "enhanced"):
            raise ValueError(f"which must be baseline or enhanced, got {which!r}")
        reports = getattr(self, which)
        return {name: _mean_std([getattr(r, name) for r in reports]) for name in METRIC_NAMES}


def _mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation (0.0 for a single value)."""
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return float(np.mean(values)), std


def benchmark(input_ds: Dataset, cfg: PipelineConfig,
              unlabeled: Dataset | None = None) -> BenchmarkResult:
    """Stratified k-fold before/after comparison.

    For each fold, the same classifier is trained once on the raw training
    fold and once on the pipeline-enhanced training fold; both are evaluated
    on the untouched test fold. Enhancement happens strictly inside each
    training fold. Per-fold seeds are the base seed plus the fold index.
    """
    _validate_pipeline_input(input_ds, unlabeled)
    folds = stratified_split(input_ds, SplitSpec(mode="k-fold", k=cfg.benchmark_folds,
                                                 seed=cfg.seed))
    baseline_reports, enhanced_reports, results = [], [], []
    for i, test_fold in enumerate(folds):
        train_fold = concat_datasets([f for j, f in enumerate(folds) if j != i])
        fold_cfg = replace(cfg, seed=cfg.seed + i)
        baseline_model = fit(fold_cfg.classifier, train_fold)
        baseline_reports.append(evaluate(baseline_model, test_fold))

        result = run_pipeline(train_fold, unlabeled, fold_cfg)
        enhanced_model = fit(fold_cfg.classifier, result.enhanced)
        enhanced_reports.append(evaluate(enhanced_model, test_fold))
        results.append(result)
    return BenchmarkResult(baseline=baseline_reports, enhanced=enhanced_reports,
                           pipeline_results=results)


# ------------------------------------------------------------ configuration

def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _comma_list(value: str) -> list:
    return [t.strip() for t in value.split(",") if t.strip()]


def _float_tuple(value: str) -> tuple:
    return tuple(float(t) for t in _comma_list(value))


# Each config key once: (key, PipelineConfig attribute path, parser, CLI help).
# Defaults are the dataclasses'; a blank value keeps the default. Rows are in
# config_resolved.txt order, and every key is also a --key-name flag (cli.py).
CONFIG_KEYS = (
    ("input", "input_path", str, "labeled CSV path"),
    ("unlabeled", "unlabeled_path", str, "unlabeled pool CSV"),
    ("label_column", "label_column", str, "label column name"),
    ("positive_label", "positive_label", str, "label that becomes class 1 (blank: minority)"),
    ("seed", "seed", int, "seed of splits, sampling and the classifier"),
    ("classifier", "classifier.kind", str, " | ".join(MODELS)),
    ("max_depth", "classifier.max_depth", int, "tree depth cap"),
    ("n_estimators", "classifier.n_estimators", int, "random-forest tree count"),
    ("learning_rate", "classifier.learning_rate", float, "logistic-regression step size"),
    ("n_iterations", "classifier.n_iterations", int, "logistic-regression gradient steps"),
    ("techniques", "techniques", _comma_list, "comma list: random-oversample,smote,replay:PATH"),
    ("smote_k_neighbors", "smote_k_neighbors", int, "SMOTE neighbour count"),
    ("target_ratio", "target_ratio", float, "minority/majority after synthesis"),
    ("synthesis_split_ratio", "synthesis_split_ratio", float, "synthesis holdout train share"),
    ("threshold_grid", "threshold_grid", _float_tuple, "comma list of margin thresholds in [0,1]"),
    ("retention", "retention", _parse_bool, "true | false: put back filtered-out rows"),
    ("strategy", "strategy", str, "auto | kfulf | dds"),
    ("k_folds", "pseudo.k_folds", int, "KFULF fold count"),
    ("target_percentage", "pseudo.target_percentage", float, "DDS selection fraction"),
    ("max_iterations", "pseudo.max_iterations", int, "DDS iteration cap"),
    ("disable_synthesis", "disable_synthesis", _parse_bool, "skip the synthesis stage"),
    ("disable_filtering", "disable_filtering", _parse_bool, "skip the filtering stage"),
    ("disable_selflearning", "disable_selflearning", _parse_bool, "skip self-learning"),
    ("benchmark_folds", "benchmark_folds", int, "cross-validation fold count"),
    ("hide_labels", "hide_labels", float, "fraction of labels hidden to form the pool"),
)
_PARSERS = {key: parser for key, _, parser, _ in CONFIG_KEYS}


def _parse_lines(text: str, source) -> tuple[dict, dict]:
    """Each key's value as written and its line number; bad syntax, an unknown
    key or a repeated one is an error naming ``source:line``."""
    mapping, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        with prefix_errors(f"{source}:{lineno}"):
            if "=" not in line:
                raise ValueError("expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _PARSERS:
                raise ValueError(f"unknown config key {key!r}")
            if key in first_line:
                raise ValueError(f"config key {key!r} already set on line {first_line[key]}")
        mapping[key], first_line[key] = value, lineno
    return mapping, first_line


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines of UTF-8, with or without a byte-order mark;
    '#' starts a comment. Unknown or repeated keys, values their key cannot
    parse and values PipelineConfig refuses are errors naming ``path:line``."""
    mapping, first_line = _parse_lines(Path(path).read_text(encoding="utf-8-sig"), path)
    for key, value in mapping.items():
        with prefix_errors(f"{path}:{first_line[key]}"):
            config_from_mapping({key: value})
    return mapping


def config_from_mapping(mapping: dict) -> PipelineConfig:
    """Build a PipelineConfig, once, from string key/value pairs (file or CLI).
    A missing or blank key keeps the default."""
    unknown = sorted(set(mapping) - set(_PARSERS))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    kwargs = {"": {}, "classifier": {}, "pseudo": {}}
    for key, path, _, _ in CONFIG_KEYS:
        if mapping.get(key, "") != "":
            owner, _, name = path.rpartition(".")
            with prefix_errors(key):
                kwargs[owner][name] = _PARSERS[key](mapping[key])
    return PipelineConfig(**kwargs[""], classifier=ClassifierSpec(**kwargs["classifier"]),
                          pseudo=PseudoLabelConfig(**kwargs["pseudo"]))


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _leaves(obj, prefix=""):
    """(dotted field name, value) for every field, nested dataclasses flattened."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value


def serialize_config(cfg: PipelineConfig) -> str:
    """Resolved ``key = value`` text in table order. Raises ValueError naming
    the fields if the text would parse back to a different config, since a
    replay of it would then not reproduce the run."""
    text = "".join(f"{key} = {_format_value(attrgetter(path)(cfg))}\n"
                   for key, path, _, _ in CONFIG_KEYS)
    mapping, _ = _parse_lines(text, "serialized config")
    with prefix_errors("serialized config"):
        again = dict(_leaves(config_from_mapping(mapping)))
    lost = [name for name, value in _leaves(cfg) if again[name] != value]
    if lost:
        raise ValueError(f"config fields {', '.join(lost)} would not survive serialization")
    return text


# ------------------------------------------------------------------ reports

def _distribution_summary(name: str, d: Dataset) -> str:
    lines = [f"[{name}] rows = {d.n_rows}"]
    if d.labels is not None:
        for cls in np.unique(d.labels):
            lines.append(f"[{name}] class {cls} count = {int(np.sum(d.labels == cls))}")
    for tag in np.unique(d.provenance):
        lines.append(f"[{name}] provenance {tag} = {int(np.sum(d.provenance == tag))}")
    feats = np.asarray(d.features, dtype=float)
    for j, col in enumerate(d.feature_names):
        mean = float(np.mean(feats[:, j])) if d.n_rows else 0.0
        std = float(np.std(feats[:, j])) if d.n_rows else 0.0
        lines.append(f"[{name}] feature {col} mean = {mean:.6f} stdev = {std:.6f}")
    return "\n".join(lines)


def _report_rows(reports: list[EvalReport]) -> list:
    rows = [[f"fold{i}"] + r.to_csv_row() for i, r in enumerate(reports)]
    if reports:
        columns = zip(*(r.to_csv_row() for r in reports))
        means, stds = zip(*(_mean_std(c) for c in columns))
        rows += [["mean", *means], ["std", *stds]]
    return rows


def decision_lines(result: EnhancementResult) -> list:
    """What each stage chose, as the closing lines of summary.txt."""
    lines = []
    if result.synthesis is not None:
        lines.append(f"chosen_technique = {result.synthesis.chosen_technique}")
    if result.filtering is not None:
        lines.append(f"chosen_threshold = {result.filtering.chosen_threshold}")
        lines.append(f"retained_counts = {result.filtering.retained_counts}")
    if result.selflearn is not None:
        lines.append(f"strategy_used = {result.selflearn.strategy_used}")
        lines.append(f"pseudo_count = {result.selflearn.pseudo_count}")
        if result.selflearn.selection_f1:
            lines.append(f"selection_f1 = {result.selflearn.selection_f1}")
    if result.pseudo_accuracy is not None:
        lines.append(f"pseudo_accuracy = {result.pseudo_accuracy:.6f}")
    if result.base_pool_accuracy is not None:
        lines.append(f"base_pool_accuracy = {result.base_pool_accuracy:.6f}")
    lines += [f"note = {note}" for note in result.notes]
    return lines


def benchmark_summary(reports: BenchmarkResult) -> str:
    """The text of benchmark_summary.txt: mean±std per metric, before vs after."""
    lines = ["metric, baseline_mean±std, enhanced_mean±std"]
    base, enh = reports.summary("baseline"), reports.summary("enhanced")
    for name in METRIC_NAMES:
        bm, bs = base[name]
        em, es = enh[name]
        lines.append(f"{name}, {bm:.4f}±{bs:.4f}, {em:.4f}±{es:.4f}")
    return "\n".join(lines) + "\n"


def emit_report(result: EnhancementResult | None, reports: BenchmarkResult | None,
                out_dir, cfg: PipelineConfig) -> None:
    """Write the enhanced dataset, stage summaries, metric tables, and the
    resolved config into ``out_dir``.

    Timings are intentionally left out of the files so identical runs produce
    byte-identical reports; they are returned in-memory on the result instead.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_resolved.txt").write_text(serialize_config(cfg), encoding="utf-8")

    if result is not None:
        write_csv(result.enhanced, out / "enhanced.csv",
                  label_column=cfg.label_column, include_provenance=True)

        race_rows = []
        if result.synthesis is not None:
            race_rows = [[name, f1, "chosen" if i == result.synthesis.chosen else ""]
                         for i, (name, f1) in enumerate(result.synthesis.f1_scores)]
        write_table(out / "synthesis_race.csv", ["technique", "f1", "chosen"], race_rows)

        sweep_rows = []
        if result.filtering is not None:
            sweep_rows = [[e.threshold, e.f1, e.kept_count, e.filtered_out_count,
                           e.retained_count] for e in result.filtering.table]
        write_table(out / "filter_sweep.csv",
                    ["threshold", "f1", "kept_count", "filtered_out_count", "retained_count"],
                    sweep_rows)

        log_rows = []
        if result.selflearn is not None:
            log_rows = [[result.selflearn.strategy_used] + [e.get(c, "") for c in LOG_COLUMNS]
                        for e in result.selflearn.log]
        write_table(out / "selflearn_log.csv", ["strategy", *LOG_COLUMNS], log_rows)

        lines = [_distribution_summary("input", result.input_data)]
        lines.append(_distribution_summary("augmented", result.aug))
        lines.append(_distribution_summary("filtered", result.filtered))
        lines.append(_distribution_summary("enhanced", result.enhanced))
        lines += decision_lines(result)
        (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    if reports is not None:
        header = ["fold"] + EVAL_CSV_COLUMNS
        write_table(out / "benchmark_baseline.csv", header, _report_rows(reports.baseline))
        write_table(out / "benchmark_enhanced.csv", header, _report_rows(reports.enhanced))
        (out / "benchmark_summary.txt").write_text(benchmark_summary(reports), encoding="utf-8")
