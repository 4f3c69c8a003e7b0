import contextlib
import copy
import io
import re
from collections import Counter
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbenhance import synthesis
from imbenhance.classifiers import ClassifierSpec, fit, predict
from imbenhance.data import SplitSpec, class_stats, generate_synthetic_benchmark, stratified_split
from imbenhance.filtering import filter_sweep
from imbenhance.metrics import score_report
from imbenhance.pipeline import (
    CONFIG_KEYS,
    PipelineConfig,
    _float_tuple,
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
    train, val = stratified_split(d, SplitSpec(
        mode="holdout", ratio=cfg.synthesis_split_ratio, seed=cfg.seed))
    direct = meta_synthesize(train, cfg.build_techniques(), cfg.classifier, val, cfg.seed)
    assert result.enhanced.equals(direct.augmented)


def test_disable_selflearning_equals_synthesis_plus_filtering():
    d = bench_data(seed=4)
    cfg = quick_cfg(disable_selflearning=True)
    result = run_pipeline(d, None, cfg)
    train, val = stratified_split(d, SplitSpec(
        mode="holdout", ratio=cfg.synthesis_split_ratio, seed=cfg.seed))
    syn = meta_synthesize(train, cfg.build_techniques(), cfg.classifier, val, cfg.seed)
    filt = filter_sweep(syn.augmented, syn.misclassified, syn.model, cfg.classifier,
                        thresholds=cfg.threshold_grid, original_stats=class_stats(d),
                        retention=True)
    assert result.enhanced.equals(filt.filtered)


def test_disable_synthesis_filters_against_the_synthesis_holdout():
    d = bench_data(seed=5)
    cfg = quick_cfg(disable_synthesis=True, disable_selflearning=True)
    result = run_pipeline(d, None, cfg)
    train, val = stratified_split(d, SplitSpec(
        mode="holdout", ratio=cfg.synthesis_split_ratio, seed=cfg.seed))
    model = fit(cfg.classifier, train)
    mis = synthesis.split_by_error(model, val)[1]
    filt = filter_sweep(d, mis, model, cfg.classifier, thresholds=cfg.threshold_grid,
                        original_stats=class_stats(d), retention=True)
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
    cfg = quick_cfg(strategy="kfulf")
    result = run_pipeline(train, hidden, cfg)  # the pool's labels are its hidden truth
    assert result.pool_size == hidden.n_rows
    if result.selflearn.pseudo_count:
        assert 0.0 <= result.pseudo_accuracy <= 1.0


def test_labeled_pool_with_hidden_labels_is_scored_and_unseen_by_selflearning():
    d = bench_data(n=400, seed=6)
    train, hidden = stratified_split(d, SplitSpec(mode="holdout", ratio=0.7, seed=6))
    cfg = quick_cfg(hide_labels=0.2, strategy="kfulf")
    scored = run_pipeline(train, hidden, cfg)
    blind = run_pipeline(train, hidden.without_labels(), cfg)
    assert scored.enhanced.equals(blind.enhanced)
    # the carved rows come first in the pool, the supplied pool after them
    _, carved = stratified_split(train, SplitSpec(mode="holdout", ratio=0.8, seed=cfg.seed))
    assert scored.pool_size == carved.n_rows + hidden.n_rows
    truth = np.concatenate([carved.labels, hidden.labels])
    outcome = scored.selflearn
    assert np.any(outcome.pseudo_indices >= carved.n_rows)
    expected = np.mean(outcome.pseudo_labels == truth[outcome.pseudo_indices])
    assert scored.pseudo_accuracy == float(expected)


@pytest.mark.parametrize("entry", ["run_pipeline", "benchmark"])
def test_pool_labels_outside_the_truth_codes_are_refused(entry):
    d = bench_data(n=300, seed=6)
    train, hidden = stratified_split(d, SplitSpec(mode="holdout", ratio=0.7, seed=6))
    pool = hidden.with_labels(np.where(hidden.labels == 1, 2, -1))
    with pytest.raises(ValueError, match=re.escape("must be -1, 0 or 1, got [2]")):
        if entry == "run_pipeline":
            run_pipeline(train, pool, quick_cfg())
        else:
            benchmark(train, quick_cfg(), unlabeled=pool)


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
    train_before, pool_before = _frozen_copy(train), _frozen_copy(hidden)
    cfg = quick_cfg(hide_labels=0.2)
    if entry == "run_pipeline":
        run_pipeline(train, hidden, cfg)
    else:
        benchmark(train, cfg, unlabeled=hidden)
    assert train.equals(train_before)
    assert hidden.equals(pool_before)


def test_stage_error_carries_stage_name():
    d = bench_data()
    cfg = quick_cfg(techniques=["replay:/nonexistent/file.csv"])
    with pytest.raises(ValueError, match="^synthesis: "):
        run_pipeline(d, None, cfg)


def test_a_bug_inside_a_stage_keeps_its_own_type(monkeypatch):
    def broken_fit(spec, train):
        raise TypeError("a bug, not bad input")

    monkeypatch.setattr(synthesis, "fit", broken_fit)
    with pytest.raises(TypeError, match="^a bug, not bad input$"):
        run_pipeline(bench_data(), None, quick_cfg())


def test_filtering_passthrough_when_no_misclassified():
    # perfectly separable: the synthesis-stage model gets the validation set right
    d = bench_data(n=300, seed=8, separation=60.0, noise_rate=0.0)
    cfg = quick_cfg(disable_selflearning=True)
    result = run_pipeline(d, None, cfg)
    assert result.filtering is None
    assert any("filtering skipped" in n for n in result.notes)
    assert result.enhanced.equals(result.aug)


def test_filtering_without_synthesis_scores_on_the_synthesis_split():
    d = bench_data(seed=4)
    cfg = quick_cfg(disable_synthesis=True, disable_selflearning=True)
    result = run_pipeline(d, None, cfg)
    tr, val = stratified_split(d, SplitSpec(mode="holdout", ratio=cfg.synthesis_split_ratio,
                                            seed=cfg.seed))
    model = fit(cfg.classifier, tr)
    mis = val.take(np.flatnonzero(predict(model, val) != val.labels))
    assert mis.n_rows > 0
    direct = filter_sweep(d, mis, model, cfg.classifier, thresholds=cfg.threshold_grid,
                          original_stats=class_stats(d), retention=True)
    assert result.filtering.table == direct.table
    assert result.filtering.chosen_threshold == direct.chosen_threshold
    assert result.enhanced.equals(direct.filtered)


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


@settings(max_examples=40, deadline=None)
@given(entry=st.sampled_from(["run_pipeline", "benchmark"]),
       strategy=st.sampled_from(["auto", "kfulf", "dds"]),
       hide=st.sampled_from([0.1, 0.3, 0.5]), seed=st.integers(0, 1000))
def test_pseudo_labels_are_binary_counted_in_range_and_deterministic(entry, strategy, hide, seed):
    d = bench_data(n=160, seed=seed, d=2, imbalance_ratio=4)
    cfg = quick_cfg(classifier=ClassifierSpec(kind="decision-tree", max_depth=3),
                    strategy=strategy, hide_labels=hide, seed=seed)

    def results():
        if entry == "run_pipeline":
            return [run_pipeline(d, None, cfg)]
        return benchmark(d, cfg).pipeline_results

    for result, again in zip(results(), results(), strict=True):
        assert set(np.unique(result.enhanced.labels).tolist()) <= {0, 1}
        outcome = result.selflearn
        assert np.sum(result.enhanced.provenance == "pseudo-labeled") == outcome.pseudo_count
        assert len(np.unique(outcome.pseudo_indices)) == len(outcome.pseudo_indices)
        assert np.all(outcome.pseudo_indices < result.pool_size)
        assert again.enhanced.equals(result.enhanced)


def first_max(values):
    """Index of the first highest value, written without the library's tie rule."""
    return values.index(max(values))


@settings(max_examples=40, deadline=None)
@given(strategy=st.sampled_from(["auto", "kfulf", "dds"]), retention=st.booleans(),
       hide=st.sampled_from([0.0, 0.2, 0.4]), seed=st.integers(0, 1000))
def test_each_choice_is_the_first_best_and_provenance_adds_up(strategy, retention, hide, seed):
    d = bench_data(n=160, seed=seed, d=2, imbalance_ratio=4)
    cfg = quick_cfg(classifier=ClassifierSpec(kind="decision-tree", max_depth=3),
                    strategy=strategy, retention=retention, hide_labels=hide, seed=seed)
    result = run_pipeline(d, None, cfg)

    race = result.synthesis
    assert race.chosen_technique == race.f1_scores[first_max([f1 for _, f1 in race.f1_scores])][0]
    kept = np.isin(result.aug.provenance, ["original", "validation-merged"])
    assert np.sum(kept) + race.misclassified.n_rows == result.input_data.n_rows

    filtered = Counter(result.filtered.provenance.tolist())
    if result.filtering is not None:
        table = result.filtering.table
        chosen = table[first_max([e.f1 for e in table])]
        assert result.filtering.chosen_threshold == chosen.threshold
        assert result.filtered.n_rows == chosen.kept_count + chosen.retained_count
        assert filtered["retained"] == sum(result.filtering.retained_counts.values())

    outcome = result.selflearn
    pseudo = 0 if outcome is None else outcome.pseudo_count
    assert Counter(result.enhanced.provenance.tolist()) \
        == filtered + Counter({"pseudo-labeled": pseudo})
    if outcome is None:
        return
    for entry in outcome.log:
        if entry.get("event") == "iteration":
            assert entry["accepted"] == (entry["f1_new"] > entry["f1_base"])
    if outcome.selection_f1:
        names, scores = zip(*outcome.selection_f1.items())
        assert outcome.strategy_used == names[first_max(list(scores))]


def test_race_report_marks_the_entry_the_race_chose(tmp_path, monkeypatch):
    monkeypatch.setattr(synthesis, "first_best", lambda scores: len(scores) - 1)
    cfg = quick_cfg(techniques=["smote", "random-oversample"])
    result = run_pipeline(bench_data(seed=16), None, cfg)
    emit_report(result, None, tmp_path, cfg)
    rows = [line.split(",") for line in
            (tmp_path / "synthesis_race.csv").read_text().splitlines()[1:]]
    assert float(rows[0][1]) > float(rows[1][1])  # the report cannot find the pick by score
    assert [mark for _, _, mark in rows] == ["", "chosen"]
    assert result.synthesis.chosen_technique == "random-oversample"


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
    assert sum(r.counts.total for r in bench.baseline) == 500
    assert len(bench.baseline) == 3


def test_benchmark_summary_shapes():
    d = bench_data(seed=15)
    bench = benchmark(d, quick_cfg(disable_selflearning=True, disable_filtering=True))
    for which in ("baseline", "enhanced"):
        table = bench.summary(which)
        assert set(table) == {"precision", "recall", "f1", "accuracy", "auc", "ks"}
        for mean, std in table.values():
            assert 0.0 <= mean <= 1.0 and std >= 0.0


def test_benchmark_summary_refuses_an_unknown_side():
    bench = benchmark(bench_data(seed=15), quick_cfg(disable_synthesis=True,
                                                     disable_filtering=True,
                                                     disable_selflearning=True))
    with pytest.raises(ValueError, match="which must be baseline or enhanced, got 'basline'"):
        bench.summary("basline")


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
    ("max_depth = 0", "max_depth must be an integer >= 1, got 0"),
    ("classifier = svm", "unknown classifier kind 'svm'"),
    ("k_folds = 1", "k_folds must be an integer >= 2, got 1"),
    ("strategy = both", "strategy must be auto, kfulf, or dds, got 'both'"),
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
_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
_FRACTION = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
ROW_VALUES = {
    "input": _TEXT,
    "unlabeled": _TEXT,
    "label_column": _TEXT.filter(bool),
    "positive_label": st.none() | _TEXT.filter(bool),
    "seed": st.integers(0, 2**32),
    "classifier": st.sampled_from(["decision-tree", "random-forest", "logistic-regression"]),
    "max_depth": st.integers(1, 64),
    "n_estimators": st.integers(1, 500),
    "learning_rate": _POSITIVE,
    "n_iterations": st.integers(1, 5000),
    "techniques": st.lists(st.sampled_from(["random-oversample", "smote"])
                           | _TEXT.filter(lambda t: "," not in t).map(lambda t: f"replay:{t}"),
                           min_size=1, max_size=4,  # entry names are distinct
                           unique_by=lambda t: synthesis.build_techniques([t], 1, 1.0)[0].name),
    "smote_k_neighbors": st.integers(1, 50),
    "target_ratio": _POSITIVE,
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


def test_readme_library_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert len(out.getvalue().splitlines()) == 3


@pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0)])
def test_config_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed}$"):
        PipelineConfig(seed=seed)


def test_config_takes_a_numpy_integer_seed():
    assert PipelineConfig(seed=np.int64(3)).classifier.seed == 3


_COUNT_DATA = generate_synthetic_benchmark(200, 2, 4.0, seed=1)
_RACE_TRAIN, _RACE_VAL = stratified_split(_COUNT_DATA, SplitSpec(seed=1))

# (boundary, build it with the count set to v, count name, minimum): every count
# and seed is checked by data.check_count
COUNT_BOUNDARIES = [
    ("SplitSpec", lambda v: SplitSpec(mode="k-fold", k=v), "k", 2),
    ("SplitSpec", lambda v: SplitSpec(seed=v), "seed", 0),
    ("ClassifierSpec", lambda v: ClassifierSpec(max_depth=v), "max_depth", 1),
    ("ClassifierSpec", lambda v: ClassifierSpec(n_estimators=v), "n_estimators", 1),
    ("ClassifierSpec", lambda v: ClassifierSpec(n_iterations=v), "n_iterations", 1),
    ("ClassifierSpec", lambda v: ClassifierSpec(seed=v), "seed", 0),
    ("PseudoLabelConfig", lambda v: PseudoLabelConfig(k_folds=v), "k_folds", 2),
    ("PseudoLabelConfig", lambda v: PseudoLabelConfig(max_iterations=v), "max_iterations", 1),
    ("PipelineConfig", lambda v: PipelineConfig(benchmark_folds=v), "benchmark_folds", 2),
    ("PipelineConfig", lambda v: PipelineConfig(seed=v), "seed", 0),
    ("build_techniques", lambda v: synthesis.build_techniques(["smote"], v, 1.0),
     "smote_k_neighbors", 1),
    ("smote", lambda v: synthesis.smote(_COUNT_DATA, k_neighbors=v), "k_neighbors", 1),
    ("generate", lambda v: generate_synthetic_benchmark(v, 2, 4.0, seed=1), "n", 2),
    ("generate", lambda v: generate_synthetic_benchmark(200, v, 4.0, seed=1), "d", 1),
    ("generate", lambda v: generate_synthetic_benchmark(200, 2, 4.0, seed=v), "seed", 0),
    ("smote", lambda v: synthesis.smote(_COUNT_DATA, seed=v), "seed", 0),
    ("random_oversample", lambda v: synthesis.random_oversample(_COUNT_DATA, seed=v), "seed", 0),
    ("meta_synthesize", lambda v: synthesis.meta_synthesize(
        _RACE_TRAIN, synthesis.build_techniques(["random-oversample"], 5, 1.0),
        ClassifierSpec(max_depth=2), _RACE_VAL, v), "seed", 0),
]


@pytest.mark.parametrize("build, name, minimum", [case[1:] for case in COUNT_BOUNDARIES],
                         ids=[f"{case[0]}-{case[2]}" for case in COUNT_BOUNDARIES])
def test_every_count_is_an_integer_of_at_least_its_minimum(build, name, minimum):
    build(np.int64(minimum))
    for bad in (minimum - 1, minimum + 0.5, True):
        message = f"{name} must be an integer >= {minimum}, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(bad)


@pytest.mark.parametrize("path", [path for _, path, parser, _ in CONFIG_KEYS if parser is int])
def test_every_integer_config_key_refuses_a_fraction(path):
    owner, _, name = path.rpartition(".")
    cfg = PipelineConfig()
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d, got 2\.5$"):
        replace(attrgetter(owner)(cfg) if owner else cfg, **{name: 2.5})


_SWEEP_MODEL = fit(ClassifierSpec(kind="decision-tree", max_depth=2), _COUNT_DATA)

# (boundary, build it with the setting set to v, setting name, interval): every
# real-valued setting is checked by data.check_number
NUMBER_BOUNDARIES = [
    ("PipelineConfig", lambda v: PipelineConfig(hide_labels=v), "hide_labels", "[0, 1)"),
    ("PipelineConfig", lambda v: PipelineConfig(synthesis_split_ratio=v),
     "synthesis_split_ratio", "(0, 1)"),
    ("PipelineConfig", lambda v: PipelineConfig(threshold_grid=(0.5, v)),
     "threshold_grid", "[0, 1]"),
    ("PipelineConfig", lambda v: PipelineConfig(target_ratio=v), "target_ratio", "(0, inf)"),
    ("filter_sweep", lambda v: filter_sweep(_COUNT_DATA, _COUNT_DATA, _SWEEP_MODEL,
                                            ClassifierSpec(), thresholds=[v], retention=False),
     "thresholds", "[0, 1]"),
    ("PseudoLabelConfig", lambda v: PseudoLabelConfig(target_percentage=v),
     "target_percentage", "(0, 1)"),
    ("ClassifierSpec", lambda v: ClassifierSpec(learning_rate=v), "learning_rate", "(0, inf)"),
    ("SplitSpec", lambda v: SplitSpec(ratio=v), "ratio", "(0, 1)"),
    ("build_techniques", lambda v: synthesis.build_techniques(["smote"], 5, v),
     "target_ratio", "(0, inf)"),
    ("smote", lambda v: synthesis.smote(_COUNT_DATA, target_ratio=v), "target_ratio", "(0, inf)"),
    ("random_oversample", lambda v: synthesis.random_oversample(_COUNT_DATA, target_ratio=v),
     "target_ratio", "(0, inf)"),
    ("generate", lambda v: generate_synthetic_benchmark(200, 2, v, seed=1),
     "imbalance_ratio", "[1, inf)"),
    ("generate", lambda v: generate_synthetic_benchmark(200, 2, 4.0, separation=v, seed=1),
     "separation", "(-inf, inf)"),
    ("generate", lambda v: generate_synthetic_benchmark(200, 2, 4.0, noise_rate=v, seed=1),
     "noise_rate", "[0, 0.5)"),
    ("score_report", lambda v: score_report([0, 1], [0.2, 0.9], threshold=v),
     "threshold", "[0, 1]"),
]


@pytest.mark.parametrize("build, name, interval", [case[1:] for case in NUMBER_BOUNDARIES],
                         ids=[f"{case[0]}-{case[2]}" for case in NUMBER_BOUNDARIES])
def test_every_real_setting_is_a_number_inside_its_interval(build, name, interval):
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    # an open bound, infinite or not, is itself outside; a closed one has its
    # outward neighbour outside
    outside = [lo if interval[0] == "(" else np.nextafter(lo, -np.inf),
               hi if interval[-1] == ")" else np.nextafter(hi, np.inf)]
    for bad in outside + [np.nan, "0.5", True]:
        message = f"{name} must be a number in {interval}, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(bad)
    inside = (lo + hi) / 2 if np.isfinite(lo + hi) else lo + 1 if np.isfinite(lo) else 0.0
    build(np.float32(inside))


@pytest.mark.parametrize("path", [path for _, path, parser, _ in CONFIG_KEYS
                                  if parser in (float, _float_tuple)])
@pytest.mark.parametrize("bad", ["0.5", True])
def test_every_real_config_key_refuses_a_string_and_a_bool(path, bad):
    owner, _, name = path.rpartition(".")
    cfg = PipelineConfig()
    value = (bad,) if isinstance(attrgetter(path)(cfg), tuple) else bad
    with pytest.raises(ValueError, match=rf"^{name} must be a number in [\[(].*, got {bad}$"):
        replace(attrgetter(owner)(cfg) if owner else cfg, **{name: value})


def test_sequence_settings_survive_serialization(tmp_path):
    cfg = PipelineConfig(techniques=("smote",), threshold_grid=[0.1, 0.5])
    assert cfg.techniques == ["smote"] and cfg.threshold_grid == (0.1, 0.5)
    p = tmp_path / "cfg.txt"
    p.write_text(serialize_config(cfg))
    assert config_from_mapping(parse_config_file(p)) == cfg


@pytest.mark.parametrize("techniques", [[], ["foo"], ["smote", "smoth"]])
def test_techniques_are_checked_before_any_stage(techniques):
    with pytest.raises(ValueError, match="^techniques must "):
        PipelineConfig(techniques=techniques, disable_synthesis=True)


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
