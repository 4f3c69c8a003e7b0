#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of imbenhance.

    python3 perfbench/run.py --workload tree-bench --seed 42 --seconds 34 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
One client runs the workload in a closed loop, one repetition after another,
for ``--seconds`` (a repetition is started only if it is expected to end in
time). Every repetition's outputs are checked, and a repetition that raises or
fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``. The
timed repetitions cycle through the reference input (seed 42) and inputs drawn
from ``--seed``. The first repetition, on the reference input, also gives the
quality metrics and the peak RSS; set-up time is measured in fresh processes.
``--trace 1`` reports the per-layer metrics instead: it alternates traced and
untraced repetitions on the seed's own input, so that the tracing overhead is
measured, and writes the spans to ``.perfbench-out/``. Both modes first run a
toy-size copy of the workload once, untimed.

The last line of standard output is the result as one JSON object; the lines
before it describe every metric and the provenance of the run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
SPANS_DIR = ROOT / ".perfbench-out"
SETUP_PROCESSES = 3
TAIL_BEYOND = 10   # a tail percentile needs more samples than this above it


def use_checkout_library():
    """Import imbenhance from this checkout's src/ and from nowhere else."""
    package = SRC / "imbenhance"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import imbenhance
    if Path(imbenhance.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported imbenhance from {imbenhance.__file__}, not {package}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=34.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the library, build the seed's input and exit; the "
                        "harness times this in fresh processes to measure setup_s")
    return p.parse_args(argv)


def attempt(fn, *args):
    """(result, seconds, error) of one call. A failing repetition is recorded,
    not fatal, so that the run can report it."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - start, None


class Runner:
    """Runs checked repetitions of one workload and counts the failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []       # "seed N: what failed"
        self.fingerprints = {}   # input seed -> outputs of its first repetition

    def fail(self, gen_seed, problems):
        self.failed += 1
        self.problems += [f"seed {gen_seed}: {p}" for p in problems]

    def repetition(self, gen_seed, inputs, call=None):
        """One repetition; returns (seconds, Scored), or (None, None) if it failed."""
        self.attempted += 1
        result, seconds, error = attempt(call or self.workload.run, inputs)
        if error:
            self.fail(gen_seed, [error])
            return None, None
        scored = self.workload.score(result, gen_seed)
        problems = list(scored.problems)
        if self.fingerprints.setdefault(gen_seed, scored.fingerprint) != scored.fingerprint:
            problems.append("outputs differ from an earlier repetition on the same input")
        if problems:
            self.fail(gen_seed, problems)
            return None, None
        return seconds, scored


def build(workload, gen_seed: int, workdir: Path):
    """One input of the workload as a (seed, inputs) pair."""
    return gen_seed, workload.build(gen_seed, workdir / f"seed{gen_seed}")


def warm_up(workload, workdir: Path):
    """Run a toy-size copy of the workload once, unchecked and untimed, so that
    the first timed repetition does not pay for first-call work."""
    toy = workload.toy()
    toy.run(toy.build(0, workdir / "warm-up"))


def fresh_setup_seconds(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROCESSES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


def closed_loop(seconds: float, step, minimum: int = 1) -> None:
    """Call ``step(i)`` for i = 0, 1, ... while the next call is expected to
    end within ``seconds``, and at least ``minimum`` times."""
    start = time.perf_counter()
    i = 0
    while True:
        step(i)
        i += 1
        spent = time.perf_counter() - start
        if i >= minimum and spent + spent / i > seconds:
            return


def tail(samples: list[float]):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    above it, or None when there are too few samples for one."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


def untraced_run(args, workload, workdir):
    import tracing
    from workloads import GAIN_METRICS, REFERENCE_SEED, variant_seed

    setup = fresh_setup_seconds(args)
    seeds = [REFERENCE_SEED] + [s for s in (variant_seed(args.seed, i)
                                            for i in range(workload.variants))
                                if s != REFERENCE_SEED]
    inputs = [build(workload, s, workdir) for s in seeds]
    warm_up(workload, workdir)
    runner = Runner(workload)
    samples, used = [], []
    quality, peak_rss = {}, None

    def step(i):
        nonlocal quality, peak_rss
        gen_seed, data = inputs[i % len(inputs)]
        seconds, scored = runner.repetition(gen_seed, data)
        if i == 0:
            peak_rss = tracing.max_rss_mb()
            if scored is not None:
                quality, _, error = attempt(workload.quality, scored, data)
                if error:
                    runner.fail(gen_seed, [f"quality: {error}"])
                    quality = {}
        if seconds is not None:
            samples.append(seconds)
            used.append(gen_seed)

    closed_loop(args.seconds, step)

    wall = statistics.median(samples) if samples else None
    tail_at = tail(samples)
    metrics = {
        "wall_s": (wall, f"median of {len(samples)} timed repetitions over "
                         f"{len(set(used))} inputs"),
        "wall_s_tail": (tail_at and tail_at[1],
                        f"p{tail_at[0]:.0f} of {len(samples)} repetitions" if tail_at else
                        f"n/a: {len(samples)} repetitions; a tail percentile needs more "
                        f"than {TAIL_BEYOND}"),
        "rows_per_s": (workload.rows_per_repetition / wall if wall else None,
                       f"{workload.rows_per_repetition} labelled rows x folds per repetition"),
        "setup_s": (statistics.median(setup),
                    f"median of {len(setup)} fresh processes that import imbenhance and "
                    f"build one input: {', '.join(f'{s:.4f}' for s in setup)}"),
        "peak_rss_mb": (peak_rss, "ru_maxrss, a high-water mark, of this fresh process "
                                  "after set-up, a toy warm-up and one repetition on the "
                                  "reference input"),
        "failed_share": (runner.failed / runner.attempted,
                         f"{runner.failed} of {runner.attempted} repetitions failed"),
    }
    for m in GAIN_METRICS:
        delta = quality.get(f"{m}_delta")
        metrics[f"{m}_gain"] = (quality.get(f"{m}_gain"),
                                f"enhanced / baseline on the reference input; paired mean "
                                f"difference {delta:+.6f}" if delta is not None else "")
    metrics["pseudo_accuracy"] = (quality.get("pseudo_accuracy"),
                                  "against hidden truth on the reference input")
    samples_info = {"timed_repetitions": len(samples), "reference_seed": REFERENCE_SEED,
                    "samples": [[s, round(t, 6)] for s, t in zip(used, samples)],
                    "setup_processes": len(setup)}
    return metrics, runner, samples_info


def traced_run(args, workload, workdir):
    import tracing

    gen_seed, data = build(workload, args.seed, workdir)
    warm_up(workload, workdir)
    runner = Runner(workload)
    tracer = tracing.Tracer()
    traced, plain, per_rep = [], [], []

    # Traced repetitions come first, so the first one sees the RSS rise of SMOTE.
    def step(i):
        if i % 2:
            seconds, _ = runner.repetition(gen_seed, data)
            if seconds is not None:
                plain.append(seconds)
            return
        root = len(tracer.spans)
        with tracer:
            seconds, _ = runner.repetition(gen_seed, data,
                                           functools.partial(tracer.repetition, workload.run))
        if seconds is not None:
            traced.append(seconds)
            per_rep.append(tracing.repetition_metrics(tracer.spans, root))

    closed_loop(args.seconds, step, minimum=2)

    metrics = {}
    for name in per_rep[0] if per_rep else ():
        values = [m[name] for m in per_rep]
        # the high-water mark only rises once, so later repetitions read 0
        pick = max if name.endswith("rss_delta_mb") else statistics.median
        metrics[name] = (pick(values), "")
    overhead = (statistics.median(traced) / statistics.median(plain) - 1.0
                if traced and plain else None)
    metrics["trace.overhead_share"] = (
        overhead, f"median traced / median untraced wall - 1 over {len(traced)} traced and "
                  f"{len(plain)} untraced repetitions")
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    samples_info = {"traced_repetitions": len(traced), "untraced_repetitions": len(plain),
                    "input": gen_seed, "spans": len(tracer.spans),
                    "samples": {"traced": [round(t, 6) for t in traced],
                                "untraced": [round(t, 6) for t in plain]},
                    "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, runner, samples_info


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown (git not found)"
    return out.stdout.strip() or "unknown"


def provenance(args, samples_info) -> dict:
    import numpy
    import scipy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **samples_info}


def _number(value):
    return None if value is None else float(value)


def report(args, metrics, runner, samples_info) -> bool:
    """Print every metric, the provenance and the result line; True if correct."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    units.update({"wall_s_tail": "s", "failed_share": "share"})
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, (value, note) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>12} {units.get(name, ''):<8} {note}".rstrip())
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    print("provenance " + json.dumps(provenance(args, samples_info), sort_keys=True))
    values = {m["name"]: _number(metrics.get(m["name"], (None,))[0]) for m in declared}
    correct = runner.failed == 0 and None not in values.values()
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return correct


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_library()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        if args.setup_only:
            build(workload, args.seed, workdir)
            return 0
        run = traced_run if args.trace else untraced_run
        metrics, runner, samples_info = run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:   # another run of the harness is still using it
            pass
    return 0 if report(args, metrics, runner, samples_info) else 1


if __name__ == "__main__":
    sys.exit(main())
