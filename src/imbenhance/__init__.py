"""Toolkit for enhancing imbalanced binary tabular datasets.

Three-stage pipeline: minority-class synthesis with automatic technique
selection, prediction-margin filtering with class-proportional retention, and
pseudo-label self-learning, plus a stratified cross-validation benchmark that
quantifies the before/after difference.
"""

from .classifiers import ClassifierSpec, TrainedModel, fit, predict, predict_proba
from .data import (
    BinaryLabels,
    ClassStats,
    Dataset,
    Preprocessor,
    SplitSpec,
    class_stats,
    concat_datasets,
    generate_synthetic_benchmark,
    load_csv,
    preprocess,
    stratified_split,
    write_csv,
)
from .filtering import FilterOutcome, filter_sweep, margins, retain_by_class
from .metrics import ConfusionCounts, EvalReport, auc, confusion, evaluate, ks_statistic, precision_recall_f1
from .pipeline import (
    BenchmarkResult,
    EnhancementResult,
    PipelineConfig,
    benchmark,
    emit_report,
    run_pipeline,
)
from .selflearn import PseudoLabelConfig, SelfLearnOutcome, dds, kfulf, select_strategy
from .synthesis import (
    SynthesisOutcome,
    Technique,
    build_techniques,
    meta_synthesize,
    random_oversample,
    smote,
)

__version__ = "0.1.0"
