import contextlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imbenhance.classifiers import ClassifierSpec
from imbenhance.cli import _merge_config, _prepare_data, build_parser, main
from imbenhance.data import load_csv, preprocess
from imbenhance.pipeline import PipelineConfig
from imbenhance.selflearn import PseudoLabelConfig


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def small_csv(tmp_path):
    path = tmp_path / "data.csv"
    code = run_cli("generate", "--n", "300", "--dims", "3", "--imbalance-ratio", "6",
                   "--noise-rate", "0.05", "--seed", "11", "--out", str(path))
    assert code == 0
    return path


def all_file_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


# ----------------------------------------------------------------- generate

def test_generate_writes_loadable_csv(small_csv):
    d = preprocess(load_csv(small_csv, label_column="y"))
    assert d.n_rows == 300
    assert d.n_features == 3
    assert set(np.unique(d.labels)) == {0, 1}


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("generate", "--n", "100", "--dims", "2", "--seed", "5", "--out", str(a))
    run_cli("generate", "--n", "100", "--dims", "2", "--seed", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------ enhance

def test_enhance_end_to_end(small_csv, tmp_path, capsys):
    out = tmp_path / "run1"
    code = run_cli("enhance", str(small_csv), "--out", str(out),
                   "--max-depth", "6", "--hide-labels", "0.2")
    assert code == 0
    for name in ("enhanced.csv", "summary.txt", "config_resolved.txt",
                 "filter_sweep.csv", "synthesis_race.csv", "selflearn_log.csv"):
        assert (out / name).exists()
    printed = capsys.readouterr().out
    assert "report written" in printed


def test_stdout_repeats_the_report_lines(small_csv, tmp_path, capsys):
    out = tmp_path / "e"
    assert run_cli("enhance", str(small_csv), "--max-depth", "6", "--hide-labels", "0.2",
                   "--out", str(out)) == 0
    printed = capsys.readouterr().out.splitlines()
    decisions = printed[3:-1]  # after the three stage timings, before "report written"
    assert decisions[0].startswith("chosen_technique = ")
    assert (out / "summary.txt").read_text().endswith("\n".join(decisions) + "\n")
    out = tmp_path / "b"
    assert run_cli("benchmark", str(small_csv), "--max-depth", "6", "--disable-selflearning",
                   "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert printed == (out / "benchmark_summary.txt").read_text() + f"report written to {out}\n"


def test_enhance_byte_identical_across_runs(small_csv, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ("enhance", str(small_csv), "--max-depth", "6", "--hide-labels", "0.2",
            "--seed", "42")
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    a, b = all_file_bytes(out1), all_file_bytes(out2)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs between identical runs"


def test_enhance_replay_from_resolved_config(small_csv, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("enhance", str(small_csv), "--max-depth", "6",
                   "--hide-labels", "0.2", "--out", str(out1)) == 0
    assert run_cli("enhance", "--config", str(out1 / "config_resolved.txt"),
                   "--out", str(out2)) == 0
    a, b = all_file_bytes(out1), all_file_bytes(out2)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs after config replay"


def test_enhance_with_unlabeled_pool_file(small_csv, tmp_path):
    pool = tmp_path / "pool.csv"
    run_cli("generate", "--n", "80", "--dims", "3", "--imbalance-ratio", "6",
            "--seed", "77", "--out", str(pool))  # labeled file: labels become hidden truth
    out = tmp_path / "r"
    code = run_cli("enhance", str(small_csv), "--unlabeled", str(pool),
                   "--max-depth", "6", "--strategy", "kfulf", "--out", str(out))
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "strategy_used = KFULF" in summary


def test_pool_labels_keep_the_input_label_codes(small_csv, tmp_path):
    # the input lists its majority label first and the pool its minority label
    # first; good/bad labels must score the pool as 0/1 labels do
    pool = tmp_path / "pool.csv"
    run_cli("generate", "--n", "80", "--dims", "3", "--imbalance-ratio", "6",
            "--seed", "77", "--out", str(pool))
    summaries = []
    for names in ({"0": "0", "1": "1"}, {"0": "good", "1": "bad"}):
        paths = []
        for src, first in ((small_csv, "0"), (pool, "1")):
            header, *body = src.read_text().splitlines()
            body.sort(key=lambda row: row.rsplit(",", 1)[1] != first)
            rows = [f"{row.rsplit(',', 1)[0]},{names[row.rsplit(',', 1)[1]]}" for row in body]
            paths.append(tmp_path / f"{names['1']}-{src.name}")
            paths[-1].write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / f"out-{names['1']}"
        assert run_cli("enhance", str(paths[0]), "--unlabeled", str(paths[1]),
                       "--strategy", "kfulf", "--max-depth", "4", "--out", str(out)) == 0
        summaries.append((out / "summary.txt").read_text())
    assert "pseudo_accuracy = " in summaries[0]
    assert summaries[1] == summaries[0]


def relabel(src, dst, names, blank_row=None):
    """Copy a generated CSV with each 0/1 label cell renamed, one data row's label blanked."""
    header, *body = src.read_text().splitlines()
    rows = [f"{row.rsplit(',', 1)[0]},{names[int(row.rsplit(',', 1)[1])]}" for row in body]
    if blank_row is not None:
        rows[blank_row - 1] = rows[blank_row - 1].rsplit(",", 1)[0] + ","
    dst.write_text("\n".join([header, *rows]) + "\n")
    return dst


@pytest.mark.parametrize("names", [("0", "1"), ("-1", "1"), ("good", "bad")])
def test_a_blank_pool_label_is_unknown_truth(small_csv, tmp_path, names):
    pool = tmp_path / "pool.csv"
    run_cli("generate", "--n", "90", "--dims", "3", "--imbalance-ratio", "5",
            "--seed", "77", "--out", str(pool))
    truth = [int(row.rsplit(",", 1)[1]) for row in pool.read_text().splitlines()[1:]]
    argv = ["enhance", str(relabel(small_csv, tmp_path / "in.csv", names)),
            "--unlabeled", str(relabel(pool, tmp_path / "blank.csv", names, blank_row=5)),
            "--strategy", "kfulf", "--max-depth", "4", "--out", str(tmp_path / "o")]
    _, pool_ds, _ = _prepare_data(_merge_config(build_parser().parse_args(argv)))
    assert pool_ds.labels.tolist() == truth[:4] + [-1] + truth[5:]
    assert run_cli(*argv) == 0
    assert "pseudo_accuracy = " in (tmp_path / "o" / "summary.txt").read_text()


@pytest.mark.parametrize("label, message", [("", "missing label value in row 3"),
                                            ("2", "expected exactly 2 classes, found 3")])
def test_input_label_error_names_the_file(small_csv, tmp_path, capsys, label, message):
    header, *body = small_csv.read_text().splitlines()
    body[2] = f"{body[2].rsplit(',', 1)[0]},{label}"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([header, *body]) + "\n")
    assert run_cli("enhance", str(bad), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_empty_pool_file_fails_naming_the_file(small_csv, tmp_path, capsys):
    pool = tmp_path / "empty.csv"
    pool.write_text("")
    code = run_cli("enhance", str(small_csv), "--unlabeled", str(pool),
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert capsys.readouterr().err == f"error: {pool}: empty file, header row required\n"


def test_missing_pool_file_fails_as_unreadable(small_csv, tmp_path, capsys):
    pool = tmp_path / "nope.csv"
    code = run_cli("enhance", str(small_csv), "--unlabeled", str(pool),
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: unreadable file {pool}: ")


def test_pool_cell_that_is_not_a_number_fails_naming_file_column_and_row(small_csv, tmp_path,
                                                                          capsys):
    pool = tmp_path / "pool.csv"
    pool.write_text("f0,f1,f2\n0.5,1.5,2.5\nabc,NA,inf\n")
    code = run_cli("enhance", str(small_csv), "--unlabeled", str(pool),
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert capsys.readouterr().err == f"error: {pool}: column 'f0', row 2: 'abc' is not a number\n"


def test_enhance_missing_input_fails(tmp_path, capsys):
    code = run_cli("enhance", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_enhance_stage_error_exit_code(small_csv, tmp_path, capsys):
    code = run_cli("enhance", str(small_csv), "--techniques", "replay:/missing.csv",
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert "synthesis" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--seed", "abc"), ("--retention", "maybe"),
                                         ("--synthesis-split-ratio", "half")])
def test_bad_flag_value_exits_1_naming_the_key(small_csv, tmp_path, capsys, flag, value):
    code = run_cli("enhance", str(small_csv), flag, value, "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[2:].replace('-', '_')}: ")


def test_bad_config_file_value_names_file_line_and_key(small_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("max_depth = 6\nk_folds = five\n")
    code = run_cli("enhance", str(small_csv), "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1
    assert f"error: {cfg}:2: k_folds: " in capsys.readouterr().err


OUT_OF_RANGE = [("target_ratio", "-1"), ("target_ratio", "nan"), ("target_ratio", "inf"),
                ("synthesis_split_ratio", "1.5"), ("synthesis_split_ratio", "0"),
                ("threshold_grid", "0.2,1.5"), ("threshold_grid", ","),
                ("smote_k_neighbors", "0"), ("techniques", "foo"), ("techniques", ","),
                ("techniques", "smote,replay")]


@pytest.mark.parametrize("key, value", OUT_OF_RANGE)
def test_out_of_range_flag_fails_before_the_run(small_csv, tmp_path, capsys, key, value):
    out = tmp_path / "o"
    flag = "--" + key.replace("_", "-")
    assert run_cli("enhance", str(small_csv), flag, value, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must ")
    assert not out.exists()


@pytest.mark.parametrize("key, value", OUT_OF_RANGE)
def test_out_of_range_config_value_fails_before_the_run(small_csv, tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "o"
    assert run_cli("benchmark", str(small_csv), "--config", str(cfg), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:1: {key} must ")
    assert not out.exists()


def test_unreplayable_config_fails_before_the_run(small_csv, tmp_path, capsys):
    # '#' starts a comment in config_resolved.txt, so this path cannot be replayed
    data = tmp_path / "d#1.csv"
    data.write_bytes(small_csv.read_bytes())
    out = tmp_path / "o"
    assert run_cli("enhance", str(data), "--out", str(out)) == 1
    assert "input_path" in capsys.readouterr().err
    assert not out.exists()


def test_every_pipeline_flag_reaches_the_config(tmp_path):
    argv = ["benchmark", "in.csv", "--unlabeled", "pool.csv", "--label-column", "target",
            "--positive-label", "0", "--seed", "5", "--classifier", "random-forest",
            "--max-depth", "4", "--n-estimators", "7", "--learning-rate", "0.5",
            "--n-iterations", "9", "--techniques", "smote", "--smote-k-neighbors", "2",
            "--target-ratio", "0.5", "--synthesis-split-ratio", "0.7",
            "--threshold-grid", "0.1,0.5", "--retention", "false", "--strategy", "dds",
            "--k-folds", "3", "--target-percentage", "0.2", "--max-iterations", "4",
            "--disable-synthesis", "--disable-filtering", "--disable-selflearning",
            "--folds", "4", "--hide-labels", "0.25"]
    cfg = _merge_config(build_parser().parse_args(argv))
    assert cfg == PipelineConfig(
        input_path="in.csv", unlabeled_path="pool.csv", label_column="target",
        positive_label=0, seed=5,
        classifier=ClassifierSpec(kind="random-forest", max_depth=4, n_estimators=7,
                                  learning_rate=0.5, n_iterations=9, seed=5),
        techniques=["smote"], smote_k_neighbors=2, target_ratio=0.5,
        synthesis_split_ratio=0.7, threshold_grid=(0.1, 0.5), retention=False,
        strategy="dds", pseudo=PseudoLabelConfig(k_folds=3, target_percentage=0.2,
                                                 max_iterations=4),
        disable_synthesis=True, disable_filtering=True, disable_selflearning=True,
        benchmark_folds=4, hide_labels=0.25)


def test_ablation_switches_run(small_csv, tmp_path):
    for i, flags in enumerate((
            ["--disable-selflearning"],
            ["--disable-filtering"],
            ["--disable-selflearning", "--disable-filtering"],
            ["--disable-filtering", "--strategy", "kfulf"],
            ["--disable-filtering", "--strategy", "dds"],
    )):
        out = tmp_path / f"ab{i}"
        code = run_cli("enhance", str(small_csv), "--max-depth", "6",
                       "--hide-labels", "0.2", *flags, "--out", str(out))
        assert code == 0, f"ablation {flags} failed"
        assert (out / "enhanced.csv").exists()


_CELLS = st.sampled_from(["0", "1", "2.5", "-3", "7", "0.25", "", "NA", "inf", "a"])
_LABELS = st.sampled_from([("0", "1"), ("good", "bad"), ("0",), ("good", "bad", ""),
                           ("0", "1", "x")])


@st.composite
def csv_texts(draw, label=True, names=None):
    """CSV text: empty, header only, or rows of numeric, blank, NA, inf and
    string cells, which may be ragged, leave a column all missing, hold one
    class or blank labels. ``names`` fixes the feature columns."""
    shape = draw(st.sampled_from(["rows", "rows", "rows", "ragged", "empty"]))
    if shape == "empty":
        return ""
    names = names or [f"f{j}" for j in range(draw(st.integers(1, 3)))]
    header = names + (["y"] if label else [])
    columns = [draw(st.lists(_CELLS, min_size=1, max_size=3)) for _ in names]
    labels = draw(_LABELS)
    lines = [",".join(header)]
    for i in range(draw(st.sampled_from([30, 8, 1, 0]))):
        row = [draw(st.sampled_from(c)) for c in columns]
        lines.append(",".join(row + ([labels[i % len(labels)]] if label else [])))
    if shape == "ragged":
        lines.append(",".join(["1"] * (len(header) + draw(st.sampled_from([-1, 1])))))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["enhance", "benchmark"]), data=csv_texts(),
       pool=st.none() | st.booleans().flatmap(lambda label: csv_texts(label=label)),
       hide=st.sampled_from([None, "0.3"]))
# a valid input with an empty pool file, so the pool's header is read
@example(command="enhance", data="f0,y\n" + "".join(f"{i},{i % 2}\n" for i in range(30)),
         pool="", hide=None)
def test_malformed_input_exits_0_or_1_with_an_error_line(tmp_path_factory, command, data,
                                                          pool, hide):
    work = tmp_path_factory.mktemp("case")
    (work / "data.csv").write_text(data)
    argv = [command, str(work / "data.csv"), "--out", str(work / "out"), "--max-depth", "3",
            "--k-folds", "2"]
    if pool is not None:
        (work / "pool.csv").write_text(pool)
        argv += ["--unlabeled", str(work / "pool.csv")]
    if hide is not None:
        argv += ["--hide-labels", hide]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()[:7]) in ((0, ""), (1, "error: "))


@settings(max_examples=100, deadline=None)
@given(data=st.sampled_from([["label", "score"], ["label", "score", "prediction"],
                             ["score", "label"]]).flatmap(
    lambda names: csv_texts(label=False, names=names)))
@example(data="label,score\n1,0.9\n0\n")
def test_malformed_predictions_exit_0_or_1_with_an_error_line(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("case") / "preds.csv"
    path.write_text(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["metrics", str(path)])
    assert (code, err.getvalue()[:7]) in ((0, ""), (1, "error: "))


# ---------------------------------------------------------------- benchmark

def test_benchmark_cli(small_csv, tmp_path, capsys):
    out = tmp_path / "bench"
    code = run_cli("benchmark", str(small_csv), "--max-depth", "6",
                   "--disable-selflearning", "--out", str(out))
    assert code == 0
    assert (out / "benchmark_baseline.csv").exists()
    assert (out / "benchmark_enhanced.csv").exists()
    assert (out / "benchmark_summary.txt").exists()
    printed = capsys.readouterr().out
    assert "recall" in printed


# ------------------------------------------------------------------ metrics

def test_metrics_subcommand(tmp_path, capsys):
    p = tmp_path / "preds.csv"
    p.write_text("label,score\n1,0.9\n1,0.8\n0,0.2\n0,0.1\n")
    code = run_cli("metrics", str(p))
    assert code == 0
    out = capsys.readouterr().out
    assert "auc = 1.000000" in out
    assert "ks = 1.000000" in out


def test_metrics_with_prediction_column_and_csv_out(tmp_path):
    p = tmp_path / "preds.csv"
    p.write_text("label,score,prediction\n1,0.9,1\n1,0.4,0\n0,0.6,1\n0,0.1,0\n")
    out = tmp_path / "report.csv"
    code = run_cli("metrics", str(p), "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("precision,recall")
    values = lines[1].split(",")
    assert float(values[0]) == 0.5  # precision: tp=1, fp=1
    assert float(values[1]) == 0.5  # recall: tp=1, fn=1


@pytest.mark.parametrize("text, message", [
    ("label,score\n1,0.9\n0\n", "non-rectangular row at line 3 (1 fields, expected 2)"),
    ("label,score\n1,0.9\n,0.2\n", "label in row 2 must be a finite integer, got ''"),
    ("label,score\n1,0.9\nNA,0.2\n", "label in row 2 must be a finite integer, got 'NA'"),
    ("label,score\n1,0.9\n0.5,0.2\n", "label in row 2 must be a finite integer, got '0.5'"),
    ("label,score\n1,0.9\n2,0.8\n0,0.2", "label in row 2 must be 0 or 1, got '2'"),
    ("label,score\n1,inf\n0,0.2\n", "score in row 1 must be a finite number, got 'inf'"),
    ("label,score\n1,0.9\n0,high\n", "score in row 2 must be a finite number, got 'high'"),
    ("label,score,prediction\n1,0.9,1\n0,0.2,\n",
     "prediction in row 2 must be a finite integer, got ''"),
    ("label,score,prediction\n1,0.9,1\n0,0.2,-1\n", "prediction in row 2 must be 0 or 1, got '-1'"),
    ("label,score,prediction\n1,0.9,\n0,0.2,1\n1,0.3,0\n",
     "prediction in row 1 must be a finite integer, got ''"),
])
def test_metrics_names_the_bad_row(tmp_path, capsys, text, message):
    p = tmp_path / "preds.csv"
    p.write_text(text)
    assert run_cli("metrics", str(p)) == 1
    assert capsys.readouterr().err == f"error: {p}: {message}\n"


@pytest.mark.parametrize("threshold", ["1.5", "nan", "-0.1"])
def test_metrics_refuses_a_threshold_outside_0_1(tmp_path, capsys, threshold):
    p = tmp_path / "preds.csv"
    p.write_text("label,score\n1,0.9\n0,0.2\n")
    assert run_cli("metrics", str(p), f"--threshold={threshold}") == 1
    assert capsys.readouterr().err == "error: threshold must be in [0, 1]\n"


def test_metrics_thresholds_the_score_when_every_prediction_cell_is_blank(tmp_path, capsys):
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text("label,score\n1,0.9\n0,0.8\n")
    blank.write_text("label,score,prediction\n1,0.9,\n0,0.8,NA\n")
    assert run_cli("metrics", str(plain)) == 0
    expected = capsys.readouterr().out
    assert run_cli("metrics", str(blank)) == 0
    assert capsys.readouterr().out == expected


def test_metrics_ignores_a_free_text_provenance_column(tmp_path, capsys):
    plain, tagged = tmp_path / "plain.csv", tmp_path / "tagged.csv"
    plain.write_text("label,score\n1,0.9\n0,0.8\n")
    tagged.write_text("label,score,provenance\n1,0.9,a\n0,0.8,b\n")
    assert run_cli("metrics", str(plain)) == 0
    expected = capsys.readouterr().out
    assert run_cli("metrics", str(tagged)) == 0
    assert capsys.readouterr().out == expected


def test_metrics_missing_column(tmp_path, capsys):
    p = tmp_path / "preds.csv"
    p.write_text("label\n1\n0\n")
    assert run_cli("metrics", str(p)) == 1
    assert "score" in capsys.readouterr().err
