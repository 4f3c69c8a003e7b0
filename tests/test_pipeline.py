import copy
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbenhance.classifiers import ClassifierSpec
from imbenhance.data import SplitSpec, class_stats, generate_synthetic_benchmark, stratified_split
from imbenhance.filtering import filter_sweep
from imbenhance.pipeline import (
    CONFIG_KEYS,
    PipelineConfig,
    StageError,
    benchmark,
    config_from_mapping,
    emit_report,
    parse_config_file,
    run_pipeline,
    serialize_config,
)
from imbenhance.selflearn import PseudoLabelConfig
from imbenhance.synthesis import meta_synthesize


def bench_data(n=600, seed=11, **kw):
    kw.setdefault("d", 3)
    kw.setdefault("imbalance_ratio", 6)
    kw.setdefault("noise_rate", 0.05)
    return generate_synthetic_benchmark(n=n, seed=seed, **kw)


def quick_cfg(**kw):
    kw.setdefault("classifier", ClassifierSpec(kind="decision-tree", max_depth=6))
    return PipelineConfig(**kw)


# ------------------------------------------------------------- run_pipeline

def test_identity_pipeline_returns_input():
    d = bench_data()
    cfg = quick_cfg(disable_synthesis=True, disable_filtering=True,
                    disable_selflearning=True)
    result = run_pipeline(d, None, cfg)
    assert result.enhanced.equals(d)
    assert result.aug.equals(d)
    assert result.filtered.equals(d)


def test_disable_filtering_and_selflearning_equals_meta_synthesize():
    d = bench_data(seed=3)
    cfg = quick_cfg(disable_filtering=True, disable_selflearning=True)
    result = run_pipeline(d, None, cfg)
    direct = meta_synthesize(
        d, cfg.build_techniques(), cfg.classifier,
        SplitSpec(mode="holdout", ratio=cfg.synthesis_split_ratio, seed=cfg.seed))
    assert result.enhanced.equals(direct.augmented)


def test_disable_selflearning_equals_synthesis_plus_filtering():
    d = bench_data(seed=4)
    cfg = quick_cfg(disable_selflearning=True)
    result = run_pipeline(d, None, cfg)
    syn = meta_synthesize(
        d, cfg.build_techniques(), cfg.classifier,
        SplitSpec(mode="holdout", ratio=cfg.synthesis_split_ratio, seed=cfg.seed))
    filt = filter_sweep(syn.augmented, syn.misclassified, syn.model, cfg.classifier,
                        thresholds=cfg.threshold_grid, original_stats=class_stats(d),
                        retention=True)
    assert result.enhanced.equals(filt.filtered)


def test_pipeline_requires_canonical_binary_labels():
    d = bench_data().with_labels(np.full(600, 2))
    with pytest.raises(ValueError, match="labels"):
        run_pipeline(d, None, quick_cfg())


def test_pipeline_deterministic_with_hidden_pool():
    d = bench_data(seed=7)
    cfg = quick_cfg(hide_labels=0.25)
    a = run_pipeline(d, None, cfg)
    b = run_pipeline(d, None, cfg)
    assert a.enhanced.equals(b.enhanced)
    assert a.aug.equals(b.aug)
    assert a.filtered.equals(b.filtered)


def test_hide_labels_carves_pool():
    d = bench_data(n=400, seed=5)
    cfg = quick_cfg(hide_labels=0.25, disable_synthesis=True, disable_filtering=True)
    result = run_pipeline(d, None, cfg)
    assert result.pool_size == 100
    assert result.input_data.n_rows == 300
    # hidden ground truth lets the report score pseudo-labels
    if result.selflearn is not None and result.selflearn.pseudo_count:
        assert result.pseudo_accuracy is not None
        assert result.base_pool_accuracy is not None


def test_supplied_pool_with_truth():
    d = bench_data(n=400, seed=6)
    train, hidden = stratified_split(d, SplitSpec(mode="holdout", ratio=0.7, seed=6))
    pool = hidden.without_labels()
    cfg = quick_cfg(strategy="kfulf")
    result = run_pipeline(train, pool, cfg, pool_truth=hidden.labels)
    assert result.pool_size == pool.n_rows
    if result.selflearn.pseudo_count:
        assert 0.0 <= result.pseudo_accuracy <= 1.0


def _frozen_copy(d):
    """A deep copy of ``d``, taken before ``d``'s arrays are made read-only."""
    before = copy.deepcopy(d)
    for array in (d.features, d.labels, d.provenance):
        if array is not None:
            array.flags.writeable = False
    return before


@pytest.mark.parametrize("entry", ["run_pipeline", "benchmark"])
def test_pipeline_leaves_its_input_datasets_unchanged(entry):
    # derived Datasets share arrays with their source, so an in-place write
    # anywhere in the stages would reach the caller's data
    d = bench_data(n=400, seed=6)
    train, hidden = stratified_split(d, SplitSpec(mode="holdout", ratio=0.7, seed=6))
    pool = hidden.without_labels()
    train_before, pool_before = _frozen_copy(train), _frozen_copy(pool)
    cfg = quick_cfg(hide_labels=0.2)
    if entry == "run_pipeline":
        run_pipeline(train, pool, cfg, pool_truth=hidden.labels)
    else:
        benchmark(train, cfg, unlabeled=pool, pool_truth=hidden.labels)
    assert train.equals(train_before)
    assert pool.equals(pool_before)


def test_stage_error_carries_stage_name():
    d = bench_data()
    cfg = quick_cfg(techniques=["replay:/nonexistent/file.csv"])
    with pytest.raises(StageError, match="synthesis"):
        run_pipeline(d, None, cfg)


def test_filtering_passthrough_when_no_misclassified():
    # perfectly separable: the synthesis-stage model gets the validation set right
    d = bench_data(n=300, seed=8, separation=60.0, noise_rate=0.0)
    cfg = quick_cfg(disable_selflearning=True)
    result = run_pipeline(d, None, cfg)
    assert result.filtering is None
    assert any("filtering skipped" in n for n in result.notes)
    assert result.enhanced.equals(result.aug)


def test_forced_strategy_skips_holdout_carve():
    d = bench_data(seed=9)
    cfg = quick_cfg(strategy="dds", hide_labels=0.2)
    result = run_pipeline(d, None, cfg)
    assert result.selflearn.strategy_used == "DDS"
    # enhanced ⊇ filtered as a prefix when no carve happens
    nf = result.filtered.n_rows
    assert np.array_equal(result.enhanced.features[:nf], result.filtered.features)


def test_enhanced_contains_filtered_rows_in_auto_mode():
    d = bench_data(seed=10)
    cfg = quick_cfg(hide_labels=0.2)  # strategy auto carves a 20% holdout
    result = run_pipeline(d, None, cfg)
    enhanced_rows = sorted(map(tuple, result.enhanced.features))
    for row in map(tuple, result.filtered.features):
        assert row in enhanced_rows  # holdout rows returned to the final dataset


# ---------------------------------------------------------------- benchmark

def test_benchmark_identity_pipeline_matches_baseline():
    d = bench_data(seed=12)
    cfg = quick_cfg(disable_synthesis=True, disable_filtering=True,
                    disable_selflearning=True)
    bench = benchmark(d, cfg)
    for base, enh in zip(bench.baseline, bench.enhanced):
        assert base.to_csv_row() == enh.to_csv_row()


def test_benchmark_test_fold_isolation():
    d = bench_data(seed=13)
    cfg = quick_cfg(hide_labels=0.2)
    folds = stratified_split(d, SplitSpec(mode="k-fold", k=cfg.benchmark_folds,
                                          seed=cfg.seed))
    bench = benchmark(d, cfg)
    for i, result in enumerate(bench.pipeline_results):
        test_rows = {tuple(r) for r in folds[i].features}
        enhanced = result.enhanced
        originals = enhanced.features[enhanced.provenance == "original"]
        for row in originals:
            assert tuple(row) not in test_rows
        # test folds themselves are untouched input rows
        assert set(folds[i].provenance) == {"original"}


def test_benchmark_fold_sizes_cover_input():
    d = bench_data(n=500, seed=14)
    bench = benchmark(d, quick_cfg(disable_selflearning=True))
    assert sum(bench.fold_sizes) == 500
    assert len(bench.baseline) == 3


def test_benchmark_summary_shapes():
    d = bench_data(seed=15)
    bench = benchmark(d, quick_cfg(disable_selflearning=True, disable_filtering=True))
    for which in ("baseline", "enhanced"):
        table = bench.summary(which)
        assert set(table) == {"precision", "recall", "f1", "accuracy", "auc", "ks"}
        for mean, std in table.values():
            assert 0.0 <= mean <= 1.0 and std >= 0.0


# ------------------------------------------------------------ configuration

def test_config_round_trip(tmp_path):
    cfg = PipelineConfig(seed=7, strategy="dds", hide_labels=0.1,
                         classifier=ClassifierSpec(kind="random-forest", seed=7),
                         techniques=["smote"], threshold_grid=(0.0, 0.25, 0.5),
                         retention=False, input_path="/tmp/in.csv")
    text = serialize_config(cfg)
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    again = config_from_mapping(parse_config_file(p))
    assert serialize_config(again) == text
    assert again == cfg


def test_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("bogus = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_file(p)


def test_config_defaults_match_dataclass():
    cfg = config_from_mapping({})
    assert cfg == PipelineConfig()


def test_config_comments_and_blanks(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("# a comment\n\nseed = 9  # trailing\nstrategy = kfulf\n")
    cfg = config_from_mapping(parse_config_file(p))
    assert cfg.seed == 9 and cfg.strategy == "kfulf"


def test_config_bad_value_names_file_line_and_key(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("strategy = dds\nseed = abc\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:2: seed: invalid literal")):
        parse_config_file(p)


@pytest.mark.parametrize("line, message", [
    ("max_depth = 0", "max_depth, n_estimators and n_iterations must be positive"),
    ("classifier = svm", "unknown classifier kind 'svm'"),
    ("k_folds = 1", "k_folds must be at least 2"),
    ("strategy = both", "strategy must be auto, kfulf, or dds"),
])
def test_config_refused_value_names_file_and_line(tmp_path, line, message):
    p = tmp_path / "cfg.txt"
    p.write_text(f"seed = 3\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:2: {message}")):
        parse_config_file(p)


def test_config_repeated_key_names_both_lines(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("seed = 1\n# comment\nseed = 2\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:3: config key 'seed' already set on line 1")):
        parse_config_file(p)


def test_seed_seeds_the_classifier_and_round_trips(tmp_path):
    cfg = PipelineConfig(seed=7)
    assert cfg.classifier.seed == 7
    p = tmp_path / "cfg.txt"
    p.write_text(serialize_config(cfg))
    again = config_from_mapping(parse_config_file(p))
    assert again == cfg and again.classifier.seed == 7


def test_serialize_rejects_field_without_a_key():
    with pytest.raises(ValueError, match="classifier.bootstrap"):
        serialize_config(PipelineConfig(classifier=ClassifierSpec(bootstrap=False)))


_TEXT = st.text(alphabet="ab/._-=, 09", max_size=10).map(str.strip)
_FLOAT = st.floats(allow_nan=False)
_FRACTION = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
ROW_VALUES = {
    "input": _TEXT,
    "unlabeled": _TEXT,
    "label_column": _TEXT.filter(bool),
    "positive_label": st.none() | st.integers(-3, 3),
    "seed": st.integers(0, 2**32),
    "classifier": st.sampled_from(["decision-tree", "random-forest", "logistic-regression"]),
    "max_depth": st.integers(1, 64),
    "n_estimators": st.integers(1, 500),
    "learning_rate": _FLOAT,
    "n_iterations": st.integers(1, 5000),
    "techniques": st.lists(st.sampled_from(["random-oversample", "smote"])
                           | _TEXT.filter(lambda t: "," not in t).map(lambda t: f"replay:{t}"),
                           min_size=1, max_size=4),
    "smote_k_neighbors": st.integers(1, 50),
    "target_ratio": st.floats(0.0, exclude_min=True, allow_infinity=False),
    "synthesis_split_ratio": _FRACTION,
    "threshold_grid": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).map(tuple),
    "retention": st.booleans(),
    "strategy": st.sampled_from(["auto", "kfulf", "dds"]),
    "k_folds": st.integers(2, 20),
    "target_percentage": _FRACTION,
    "max_iterations": st.integers(1, 1000),
    "disable_synthesis": st.booleans(),
    "disable_filtering": st.booleans(),
    "disable_selflearning": st.booleans(),
    "benchmark_folds": st.integers(2, 20),
    "hide_labels": st.floats(0.0, 1.0, exclude_max=True),
}


@settings(max_examples=200, deadline=None)
@given(values=st.fixed_dictionaries(ROW_VALUES))
def test_config_round_trip_property(tmp_path_factory, values):
    kwargs = {"": {}, "classifier": {"seed": values["seed"]}, "pseudo": {}}
    for key, path, *_ in CONFIG_KEYS:
        owner, _, name = path.rpartition(".")
        kwargs[owner][name] = values[key]
    cfg = PipelineConfig(**kwargs[""], classifier=ClassifierSpec(**kwargs["classifier"]),
                         pseudo=PseudoLabelConfig(**kwargs["pseudo"]))
    text = serialize_config(cfg)
    p = tmp_path_factory.mktemp("cfg") / "cfg.txt"
    p.write_text(text, encoding="utf-8")
    again = config_from_mapping(parse_config_file(p))
    assert again == cfg
    assert serialize_config(again) == text


def test_readme_config_block_is_the_defaults_in_table_order(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Config file\n.*?```\n(.*?)```", readme, re.S).group(1)
    p = tmp_path / "readme_cfg.txt"
    p.write_text(block, encoding="utf-8")
    mapping = parse_config_file(p)
    assert list(mapping) == [key for key, *_ in CONFIG_KEYS]
    assert config_from_mapping(mapping) == PipelineConfig()


# ------------------------------------------------------------------ reports

def test_emit_report_files_and_consistency(tmp_path):
    d = bench_data(seed=16)
    cfg = quick_cfg(hide_labels=0.2)
    result = run_pipeline(d, None, cfg)
    emit_report(result, None, tmp_path, cfg)

    for name in ("enhanced.csv", "summary.txt", "synthesis_race.csv",
                 "filter_sweep.csv", "selflearn_log.csv", "config_resolved.txt"):
        assert (tmp_path / name).exists()

    summary = (tmp_path / "summary.txt").read_text()
    assert f"[input] rows = {result.input_data.n_rows}" in summary
    assert f"[augmented] rows = {result.aug.n_rows}" in summary
    assert f"[filtered] rows = {result.filtered.n_rows}" in summary
    assert f"[enhanced] rows = {result.enhanced.n_rows}" in summary
    assert "feature f0 mean =" in summary

    # enhanced CSV row count (minus header) matches the dataset
    lines = (tmp_path / "enhanced.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == result.enhanced.n_rows
    assert lines[0].endswith("provenance")


def test_emit_report_benchmark_tables(tmp_path):
    d = bench_data(seed=17)
    cfg = quick_cfg(disable_selflearning=True)
    bench = benchmark(d, cfg)
    emit_report(None, bench, tmp_path, cfg)
    base = (tmp_path / "benchmark_baseline.csv").read_text().strip().splitlines()
    enh = (tmp_path / "benchmark_enhanced.csv").read_text().strip().splitlines()
    assert len(base) == 1 + 3 + 2  # header + folds + mean + std
    assert len(enh) == len(base)
    assert (tmp_path / "benchmark_summary.txt").exists()
