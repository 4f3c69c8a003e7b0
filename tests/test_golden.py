"""Golden digests of a fixed set of CLI runs.

Every run goes through ``cli.main`` in-process from a temporary directory,
with relative paths, so ``config_resolved.txt`` does not depend on where the
test runs. Each output file is pinned by the sha256 of its bytes, and each
run's stdout by the sha256 of its text with the ``<stage>: N ms`` timing
lines masked. The digests pin numpy 2.4.6 on Linux x86-64: another numpy or
platform may round a float differently and move a digest without a bug.

A change that alters an output on purpose updates the digest in view: the
failure message lists every run and file whose digest moved, with its new
value.
"""

import hashlib
import re
from pathlib import Path

from imbenhance.cli import main

_TIMING = re.compile(r"^([\w-]+): \d+\.\d ms$", re.MULTILINE)

REPLAY_ROWS = ["f0,f1,f2,f3,extra",
               "1.5,-0.25,2.0,0.75,x",
               "2.25,0.5,1.75,1.0,y",
               "1.0,0.0,2.5,0.5,z"]

# (run name, argv); a run writes its outputs to the directory of its name
RUNS = [
    ("generate", ["generate", "--n", "400", "--dims", "4", "--imbalance-ratio", "8",
                  "--noise-rate", "0.05", "--seed", "7", "--out", "data.csv"]),
    ("generate-pool", ["generate", "--n", "150", "--dims", "4", "--imbalance-ratio", "8",
                       "--noise-rate", "0.05", "--seed", "8", "--out", "pool.csv"]),
    ("tree", ["enhance", "data.csv", "--hide-labels", "0.3"]),
    ("logreg-pool", ["enhance", "data.csv", "--unlabeled", "pool.csv",
                     "--classifier", "logistic-regression"]),
    ("forest", ["enhance", "data.csv", "--hide-labels", "0.3", "--classifier",
                "random-forest", "--n-estimators", "5"]),
    ("kfulf", ["enhance", "data.csv", "--hide-labels", "0.3", "--strategy", "kfulf"]),
    ("dds", ["enhance", "data.csv", "--hide-labels", "0.3", "--strategy", "dds",
             "--max-depth", "3"]),
    ("no-synthesis", ["enhance", "data.csv", "--hide-labels", "0.3", "--disable-synthesis"]),
    ("no-filtering", ["enhance", "data.csv", "--hide-labels", "0.3", "--disable-filtering"]),
    ("no-selflearning", ["enhance", "data.csv", "--hide-labels", "0.3",
                         "--disable-selflearning"]),
    ("no-retention", ["enhance", "data.csv", "--hide-labels", "0.3", "--retention", "false",
                      "--threshold-grid", "0.9,0.1,0.5"]),
    ("replay", ["enhance", "data.csv", "--hide-labels", "0.3",
                "--techniques", "smote,replay:replay.csv"]),
    ("good-bad", ["enhance", "gb_data.csv", "--unlabeled", "gb_pool.csv",
                  "--positive-label", "good"]),
    ("bench-tree", ["benchmark", "data.csv", "--hide-labels", "0.2"]),
    ("bench-forest", ["benchmark", "data.csv", "--classifier", "random-forest",
                      "--n-estimators", "5", "--hide-labels", "0.2"]),
    ("bench-good-bad", ["benchmark", "gb_data.csv", "--unlabeled", "gb_pool.csv"]),
]

# run name -> {output file or "stdout": first 16 hex digits of its sha256}
GOLDEN = {
    'generate': {
        'stdout': '12e39b92a7447e7a',
        'data.csv': 'c7f1dfbf5be03c36',
    },
    'generate-pool': {
        'stdout': '499728beb4dca775',
        'pool.csv': '23a4d5383ab9f47d',
    },
    'tree': {
        'stdout': '36ded2255f5a0460',
        'config_resolved.txt': '0581b726329b0cfb',
        'enhanced.csv': '6ac712608bda6b46',
        'filter_sweep.csv': '9fe0ec002a15ae35',
        'selflearn_log.csv': '09c0dc6a175ae64c',
        'summary.txt': '735aceb93316b69e',
        'synthesis_race.csv': 'bfa378b60f76ade2',
    },
    'logreg-pool': {
        'stdout': '3c6a4dd41fe2abca',
        'config_resolved.txt': '2c43efa169c35882',
        'enhanced.csv': '631318fa23483cde',
        'filter_sweep.csv': 'b16ec0042ce3e8a1',
        'selflearn_log.csv': '2c7055ecff727401',
        'summary.txt': 'd0dc333bd6465ec0',
        'synthesis_race.csv': '5e29cd2af4bb9419',
    },
    'forest': {
        'stdout': 'a1945b569e77699e',
        'config_resolved.txt': '66c50e58c04dd791',
        'enhanced.csv': '7914a6e38461b239',
        'filter_sweep.csv': '1e7fa187c9e382ed',
        'selflearn_log.csv': '793bb680751c859d',
        'summary.txt': 'b5dd32bda2e238b6',
        'synthesis_race.csv': '55e54197721103c2',
    },
    'kfulf': {
        'stdout': 'f39cfa0e29b92a00',
        'config_resolved.txt': 'caffe49b1c221398',
        'enhanced.csv': '9d678994fe1b214e',
        'filter_sweep.csv': '9fe0ec002a15ae35',
        'selflearn_log.csv': 'c27b113cee7809ab',
        'summary.txt': 'd3ef5119d49efaa0',
        'synthesis_race.csv': 'bfa378b60f76ade2',
    },
    'dds': {
        'stdout': 'f6ee909e351ef0c7',
        'config_resolved.txt': '765d650d0cac5179',
        'enhanced.csv': '3400130f98a324c5',
        'filter_sweep.csv': '4931cec9bb147d57',
        'selflearn_log.csv': '5baca2eb3029a34c',
        'summary.txt': '4722f63ce9656e6a',
        'synthesis_race.csv': '487ff65cb183f5df',
    },
    'no-synthesis': {
        'stdout': '9db342926847cf87',
        'config_resolved.txt': '6c89e4d2a9540f9f',
        'enhanced.csv': '50c3d6c84c942add',
        'filter_sweep.csv': '927539209935e8b6',
        'selflearn_log.csv': '63dd691079d2d792',
        'summary.txt': '6dd3f2f3e492ad81',
        'synthesis_race.csv': '3f14614599f3996c',
    },
    'no-filtering': {
        'stdout': '0988a1cb359a6caa',
        'config_resolved.txt': '355d8548d7da4567',
        'enhanced.csv': '6ac712608bda6b46',
        'filter_sweep.csv': '742752a6d60a3182',
        'selflearn_log.csv': '09c0dc6a175ae64c',
        'summary.txt': '9e7db514083a77b2',
        'synthesis_race.csv': 'bfa378b60f76ade2',
    },
    'no-selflearning': {
        'stdout': '7360ca562383b594',
        'config_resolved.txt': '16f15f7b05155a8b',
        'enhanced.csv': '677015a6391e5c1e',
        'filter_sweep.csv': '9fe0ec002a15ae35',
        'selflearn_log.csv': 'fb3b0074810a7257',
        'summary.txt': '092f9681a92300c7',
        'synthesis_race.csv': 'bfa378b60f76ade2',
    },
    'no-retention': {
        'stdout': '708256c89c526110',
        'config_resolved.txt': '40c1e0b73c2e80aa',
        'enhanced.csv': 'a1d6d400eb6ddaf7',
        'filter_sweep.csv': 'c8efdc6b8fe307bd',
        'selflearn_log.csv': '21a0fbe0fc492e51',
        'summary.txt': '4f58f11e17a029f9',
        'synthesis_race.csv': 'bfa378b60f76ade2',
    },
    'replay': {
        'stdout': '40f014326de5cb8a',
        'config_resolved.txt': '0ad4aff492558910',
        'enhanced.csv': '60317afb48588143',
        'filter_sweep.csv': '4e3c4bee6e7223ba',
        'selflearn_log.csv': '2bc360815b4cd0b1',
        'summary.txt': '1d54e455ec3d4516',
        'synthesis_race.csv': '4a04d5a34fee851b',
    },
    'good-bad': {
        'stdout': '77d0ea1c7b1e7985',
        'config_resolved.txt': '5aa93033d7b6a554',
        'enhanced.csv': '9dcec72f8cdbc6a9',
        'filter_sweep.csv': 'e3f53176b27ac76c',
        'selflearn_log.csv': '91c806b770622878',
        'summary.txt': '1d35a29052be6566',
        'synthesis_race.csv': '70a713e6f214e46e',
    },
    'bench-tree': {
        'stdout': '2225505a4347379e',
        'benchmark_baseline.csv': 'f2a783b89491b52d',
        'benchmark_enhanced.csv': '5bae5fb5c4081c7a',
        'benchmark_summary.txt': '1c6405777f5ef4db',
        'config_resolved.txt': '98800ba94b834a8d',
    },
    'bench-forest': {
        'stdout': 'b3174dfc65f5078f',
        'benchmark_baseline.csv': 'cecdbfbbcc31674c',
        'benchmark_enhanced.csv': 'a3fd98728609692f',
        'benchmark_summary.txt': '8a4e8a9d6d267636',
        'config_resolved.txt': 'd982429111aacd68',
    },
    'bench-good-bad': {
        'stdout': '82045d8c39b8f1f1',
        'benchmark_baseline.csv': 'f2a783b89491b52d',
        'benchmark_enhanced.csv': 'ae4ec23936b80612',
        'benchmark_summary.txt': '12c6d67866fedd91',
        'config_resolved.txt': 'c9ff866c396b321c',
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _good_bad_copy(src: Path, dst: Path):
    header, *body = src.read_text().splitlines()
    names = {"0": "good", "1": "bad"}
    rows = [f"{row.rsplit(',', 1)[0]},{names[row.rsplit(',', 1)[1]]}" for row in body]
    dst.write_text("\n".join([header, *rows]) + "\n")


def _run(name, argv, capsys) -> dict:
    if argv[0] != "generate":
        argv = [*argv, "--out", name]
    assert main(argv) == 0, name
    stdout = _TIMING.sub(r"\1: <ms> ms", capsys.readouterr().out)
    digests = {"stdout": _digest(stdout.encode())}
    if argv[0] == "generate":
        digests[argv[-1]] = _digest(Path(argv[-1]).read_bytes())
    else:
        digests.update((p.name, _digest(p.read_bytes())) for p in sorted(Path(name).iterdir()))
    return digests


def test_cli_outputs_match_their_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("replay.csv").write_text("\n".join(REPLAY_ROWS) + "\n")
    actual = {}
    for name, argv in RUNS:
        actual[name] = _run(name, argv, capsys)
        if name == "generate-pool":
            _good_bad_copy(Path("data.csv"), Path("gb_data.csv"))
            _good_bad_copy(Path("pool.csv"), Path("gb_pool.csv"))
    moved = [f"{run} {file}: {digest!r}"
             for run, files in actual.items() for file, digest in files.items()
             if GOLDEN.get(run, {}).get(file) != digest]
    moved += [f"{run} {file}: missing" for run, files in GOLDEN.items()
              for file in files if file not in actual.get(run, {})]
    assert not moved, "digests moved:\n" + "\n".join(moved)
