import contextlib
import io
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imbenhance.classifiers import ClassifierSpec
from imbenhance.cli import _merge_config, _prepare_data, build_parser, main
from imbenhance.data import load_csv, preprocess
from imbenhance.pipeline import PipelineConfig, serialize_config
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


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be an integer >= 0, got -1"),
    ("--separation", "nan", "separation must be a number in (-inf, inf), got nan"),
    ("--separation", "inf", "separation must be a number in (-inf, inf), got inf"),
    ("--imbalance-ratio", "nan", "imbalance_ratio must be a number in [1, inf), got nan"),
])
def test_generate_refuses_a_bad_argument(tmp_path, capsys, flag, value, message):
    out = tmp_path / "g.csv"
    assert run_cli("generate", "--n", "50", flag, value, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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
    _, pool_ds = _prepare_data(_merge_config(build_parser().parse_args(argv)))
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


@pytest.mark.parametrize("pool_label", [False, True])
def test_a_label_past_int64_is_an_error_naming_the_file(small_csv, tmp_path, capsys, pool_label):
    bad = tmp_path / "big.csv"
    bad.write_text("f0,y\n1,0\n2,1e20\n3,0\n4,1e20\n")
    argv = ["enhance", str(bad), "--out", str(tmp_path / "o")]
    if pool_label:
        header, *body = small_csv.read_text().splitlines()
        bad.write_text("\n".join([header, body[0], f"{body[1].rsplit(',', 1)[0]},1e20"]) + "\n")
        argv = ["enhance", str(small_csv), "--unlabeled", str(bad), "--out", str(tmp_path / "o")]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == \
        f"error: {bad}: label in row 2 must be a finite integer, got '1e20'\n"


@pytest.mark.parametrize("names, minority_first, mapping", [
    (("bad", "good"), True, "{'good': 1, 'bad': 0}"),
    (("bad", "good"), False, "{'bad': 0, 'good': 1}"),
    (("-1", "1"), True, "{'1': 1, '-1': 0}"),
    (("0", "1"), True, None),
])
def test_label_mapping_line_shows_the_labels_as_written(small_csv, tmp_path, capsys, names,
                                                         minority_first, mapping):
    header, *body = small_csv.read_text().splitlines()
    body.sort(key=lambda row: row.endswith(",1") != minority_first)
    ordered = tmp_path / "ordered.csv"
    ordered.write_text("\n".join([header, *body]) + "\n")
    assert run_cli("enhance", str(relabel(ordered, tmp_path / "in.csv", names)),
                   "--disable-synthesis", "--disable-filtering", "--disable-selflearning",
                   "--out", str(tmp_path / "o")) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("label mapping")]
    assert printed == ([] if mapping is None else
                       [f"label mapping (original -> canonical): {mapping}"])


def test_benchmark_prints_the_label_mapping_first(small_csv, tmp_path, capsys):
    data = relabel(small_csv, tmp_path / "in.csv", ("good", "bad"))
    assert run_cli("benchmark", str(data), "--disable-synthesis", "--disable-filtering",
                   "--disable-selflearning", "--out", str(tmp_path / "o")) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "label mapping (original -> canonical): {'good': 0, 'bad': 1}"
    assert not any(line.startswith("label mapping") for line in printed[1:])


@pytest.mark.parametrize("positive", ["good", "bad"])
def test_positive_label_names_a_label_as_written(small_csv, tmp_path, capsys, positive):
    data = relabel(small_csv, tmp_path / "in.csv", ("good", "bad"))
    assert run_cli("enhance", str(data), "--positive-label", positive, "--disable-synthesis",
                   "--disable-filtering", "--disable-selflearning",
                   "--out", str(tmp_path / "o")) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("label mapping (original -> canonical): {")]
    negative = "bad" if positive == "good" else "good"
    assert len(printed) == 1
    assert f"'{positive}': 1" in printed[0] and f"'{negative}': 0" in printed[0]


def test_positive_label_that_is_a_code_not_a_label_is_refused(small_csv, tmp_path, capsys):
    data = relabel(small_csv, tmp_path / "in.csv", ("good", "bad"))
    assert run_cli("enhance", str(data), "--positive-label", "1",
                   "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"error: {data}: positive label '1' not present in data\n"


def test_a_blank_pool_label_does_not_shift_the_row_an_error_names(small_csv, tmp_path, capsys):
    header, *body = small_csv.read_text().splitlines()
    pool = tmp_path / "pool.csv"
    pool.write_text("\n".join([header, body[0].rsplit(",", 1)[0] + ",",
                               body[1].rsplit(",", 1)[0] + ",1e20"]) + "\n")
    assert run_cli("enhance", str(small_csv), "--unlabeled", str(pool),
                   "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == \
        f"error: {pool}: label in row 2 must be a finite integer, got '1e20'\n"


_INTEGER_NAMES = st.lists(st.integers(-3, 3).map(str), min_size=3, max_size=3, unique=True)
_STRING_NAMES = st.lists(st.text("abxyz", min_size=1, max_size=3), min_size=3, max_size=3,
                         unique=True)


@settings(max_examples=60, deadline=None)
@given(names=_INTEGER_NAMES | _STRING_NAMES,
       rows=st.lists(st.sampled_from([0, 1]), min_size=2, max_size=12).filter(
           lambda r: len(set(r)) == 2),
       flag=st.sampled_from([None, 0, 1]),
       pool=st.lists(st.sampled_from([0, 1, 2, None]), min_size=1, max_size=8))
def test_class_one_is_the_positive_label_or_the_minority(tmp_path_factory, names, rows, flag,
                                                         pool):
    # rows, flag and pool hold indexes into names; names[2] is a label the input
    # lacks, and None is a blank pool cell
    folder = tmp_path_factory.mktemp("labels")
    for name, labels in (("in.csv", rows), ("pool.csv", pool)):
        lines = [f"{i},{'' if c is None else names[c]}" for i, c in enumerate(labels)]
        (folder / name).write_text("\n".join(["f0,y", *lines]) + "\n")
    positive = flag
    if flag is None:
        counts = [rows.count(0), rows.count(1)]
        if counts[0] != counts[1]:
            positive = counts.index(min(counts))
        elif names[0].lstrip("-").isdigit():  # a tie goes to the larger integer
            positive = max((0, 1), key=lambda c: int(names[c]))
        else:  # or to the later-appearing string
            positive = 1 - rows[0]
    cfg = PipelineConfig(input_path=str(folder / "in.csv"),
                         unlabeled_path=str(folder / "pool.csv"),
                         positive_label=None if flag is None else names[flag])
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        ds, pool_ds = _prepare_data(cfg)
    written = {names[c]: int(c == positive) for c in dict.fromkeys(rows)}
    assert printed.getvalue() == ("" if written == {"0": 0, "1": 1} else
                                  f"label mapping (original -> canonical): {written}\n")
    assert ds.labels.tolist() == [int(c == positive) for c in rows]
    assert pool_ds.labels.tolist() == [-1 if c in (None, 2) else int(c == positive) for c in pool]


def test_empty_pool_file_fails_naming_the_file(small_csv, tmp_path, capsys):
    pool = tmp_path / "empty.csv"
    pool.write_text("")
    code = run_cli("enhance", str(small_csv), "--unlabeled", str(pool),
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert capsys.readouterr().err == f"error: {pool}: empty file, header row required\n"


@pytest.mark.parametrize("in_pool", [False, True])
def test_a_header_that_repeats_a_column_fails_naming_the_file(small_csv, tmp_path, capsys,
                                                               in_pool):
    bad = tmp_path / "repeated.csv"
    if in_pool:  # the pool's second f1 would otherwise be read for both
        bad.write_text("f0,f1,f1,f2\n0.5,1.5,2.5,3.5\n")
        argv, name = [str(small_csv), "--unlabeled", str(bad)], "f1"
    else:  # the second y would otherwise be a feature that leaks the label
        bad.write_text("f0,y,y\n1,0,0\n2,1,1\n3,0,0\n")
        argv, name = [str(bad)], "y"
    assert run_cli("enhance", *argv, "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == \
        f"error: {bad}: column {name!r} appears twice in the header\n"


def test_missing_pool_file_fails_as_unreadable(small_csv, tmp_path, capsys):
    pool = tmp_path / "nope.csv"
    code = run_cli("enhance", str(small_csv), "--unlabeled", str(pool),
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {pool}: unreadable file: ")


def test_pool_cell_that_is_not_a_number_fails_naming_file_column_and_row(small_csv, tmp_path,
                                                                          capsys):
    pool = tmp_path / "pool.csv"
    pool.write_text("f0,f1,f2\n0.5,1.5,2.5\nabc,NA,inf\n")
    code = run_cli("enhance", str(small_csv), "--unlabeled", str(pool),
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert capsys.readouterr().err == f"error: {pool}: column 'f0', row 2: 'abc' is not a number\n"


@pytest.mark.parametrize("command", ["enhance", "benchmark"])
def test_an_input_without_data_rows_says_so(small_csv, tmp_path, capsys, command):
    empty = tmp_path / "empty.csv"
    empty.write_text(small_csv.read_text().splitlines()[0] + "\n")
    assert run_cli(command, str(empty), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"error: {empty}: no data rows\n"


def test_a_pool_without_data_rows_skips_self_learning(small_csv, tmp_path):
    pool = tmp_path / "pool.csv"
    pool.write_text("f0,f1,f2\n")
    out = tmp_path / "o"
    assert run_cli("enhance", str(small_csv), "--unlabeled", str(pool), "--out", str(out)) == 0
    assert "note = self-learning skipped: empty unlabeled pool" in \
        (out / "summary.txt").read_text().splitlines()


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
                ("techniques", "smote,replay"), ("learning_rate", "inf"), ("learning_rate", "0"),
                ("seed", "-1")]


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


def byte_order_mark_case(small_csv, kind):
    """The files of one run, as name -> text, the file under test, and the argv. The
    input's label comes first, so a BOM left in its header would hide the label."""
    header, *rows = [line.split(",") for line in small_csv.read_text().splitlines()]
    files = {"data.csv": "".join(f"{r[-1]},{','.join(r[:-1])}\n" for r in [header, *rows]),
             "pool.csv": "".join(f"{','.join(r[:-1])}\n" for r in [header, *rows[:40]]),
             "cfg.txt": "seed = 3\nmax_depth = 4\n",
             "preds.csv": "label,score\n1,0.9\n0,0.2\n1,0.4\n0,0.6\n0,0.1\n"}
    argv = {"input": ["enhance", "data.csv"],
            "pool": ["enhance", "data.csv", "--unlabeled", "pool.csv"],
            "config": ["enhance", "data.csv", "--config", "cfg.txt"],
            "predictions": ["metrics", "preds.csv"]}[kind]
    return files, argv[-1], argv


@pytest.mark.parametrize("kind", ["input", "pool", "config", "predictions"])
def test_a_byte_order_mark_changes_nothing(small_csv, tmp_path, monkeypatch, capsys, kind):
    files, marked, argv = byte_order_mark_case(small_csv, kind)
    runs = []
    for encoding in ("utf-8", "utf-8-sig"):
        work = tmp_path / encoding
        work.mkdir()
        for name, text in files.items():
            (work / name).write_text(text, encoding=encoding if name == marked else "utf-8")
        monkeypatch.chdir(work)
        code = main([*argv, "--out", "out"])
        printed = capsys.readouterr()
        out = work / "out"
        runs.append((code, re.sub(r"\d+\.\d ms", "<ms> ms", printed.out), printed.err,
                     all_file_bytes(out) if out.is_dir() else out.read_bytes()))
    assert (work / marked).read_bytes().startswith(b"\xef\xbb\xbf")
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


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
        positive_label="0", seed=5,
        classifier=ClassifierSpec(kind="random-forest", max_depth=4, n_estimators=7,
                                  learning_rate=0.5, n_iterations=9, seed=5),
        techniques=["smote"], smote_k_neighbors=2, target_ratio=0.5,
        synthesis_split_ratio=0.7, threshold_grid=(0.1, 0.5), retention=False,
        strategy="dds", pseudo=PseudoLabelConfig(k_folds=3, target_percentage=0.2,
                                                 max_iterations=4),
        disable_synthesis=True, disable_filtering=True, disable_selflearning=True,
        benchmark_folds=4, hide_labels=0.25)


def test_a_config_is_built_once_not_once_per_key(small_csv, tmp_path):
    defaults = PipelineConfig()
    with mock.patch.object(PipelineConfig, "__post_init__", autospec=True,
                           side_effect=PipelineConfig.__post_init__) as built:
        assert run_cli("enhance", str(small_csv), "--hide-labels", "0.3", "--max-depth", "4",
                       "--out", str(tmp_path / "o")) == 0
        # build_parser's two defaults, the merged flags, and two serializations
        assert built.call_count <= 5
        built.reset_mock()
        serialize_config(defaults)
        assert built.call_count == 1


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


def test_benchmark_refuses_more_folds_than_a_float_can_hold(small_csv, tmp_path, capsys):
    out = tmp_path / "bench"
    k = "5000000000000000000000"
    assert run_cli("benchmark", str(small_csv), "--folds", k, "--out", str(out)) == 1
    assert re.fullmatch(rf"error: class 0 has \d+ rows, fewer than k={k}\n",
                        capsys.readouterr().err)
    assert not out.exists()


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
    ("label,score\n1,0.9\n1e20,0.8\n0,0.2", "label in row 2 must be 0 or 1, got '1e20'"),
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
    assert capsys.readouterr().err == \
        f"error: threshold must be a number in [0, 1], got {threshold}\n"


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
