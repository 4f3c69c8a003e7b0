"""The benchmark's workloads: how each one builds its inputs from a seed,
runs one repetition, checks the outputs and scores the quality.

Each workload draws several input variants from the seed and the timed loop
cycles through them: the cost of one input depends on the data (how deep the
trees grow, which self-learning strategy wins, how many pseudo-labels are
kept), so a run measures several inputs to keep the per-run figure steady
across seeds. Variant ``i`` uses generator seed ``seed + 1000 * i``; variant 0
is the seed's own input, so ``tree-bench`` at seed 42 is exactly the frozen
acceptance case.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from imbenhance import (
    ClassifierSpec,
    PipelineConfig,
    SplitSpec,
    evaluate,
    fit,
    generate_synthetic_benchmark,
    load_csv,
    preprocess,
    stratified_split,
    write_csv,
)
from imbenhance import cli, pipeline

REFERENCE_SEED = 42
VARIANT_STRIDE = 1000
GAIN_METRICS = ("f1", "precision", "auc")

# Fold-mean values of the decision-tree benchmark on
# generate_synthetic_benchmark(n=2000, d=5, imbalance_ratio=20, noise_rate=0.05,
# seed=42) with PipelineConfig(hide_labels=0.2), pinned to the first run's
# exact values, the same numbers the acceptance suite freezes.
TREE_FROZEN = {
    "baseline_recall": 0.24595103578154429,
    "enhanced_recall": 0.37429378531073443,
    "baseline_f1": 0.28946729895354323,
    "enhanced_f1": 0.2926854887995675,
}
FROZEN_TOLERANCE = 1e-9


def variant_seed(seed: int, index: int) -> int:
    return seed + VARIANT_STRIDE * index


def _ratio(enhanced: float, baseline: float) -> float:
    if baseline == 0:
        raise ValueError("baseline metric is 0, so the gain ratio is undefined")
    return enhanced / baseline


@dataclass
class Scored:
    """What the harness keeps from one repetition besides its time."""

    problems: list          # failed output checks, empty when the outputs are correct
    fingerprint: object     # equal on every repetition of the same input
    detail: object = None   # the raw result, for quality scoring


@dataclass
class BenchWorkload:
    """The k-fold before/after ``benchmark()`` on a synthetic dataset."""

    name: str
    why: str
    n: int
    d: int
    imbalance_ratio: float
    classifier: ClassifierSpec
    variants: int
    frozen: dict | None = None   # expected fold means at REFERENCE_SEED

    @property
    def rows_per_repetition(self) -> int:
        return self.n * self.config().benchmark_folds

    def toy(self) -> "BenchWorkload":
        classifier = replace(self.classifier, max_depth=4, n_estimators=2)
        return replace(self, n=300, d=3, imbalance_ratio=6, classifier=classifier,
                       frozen=None, variants=2)

    def config(self) -> PipelineConfig:
        return PipelineConfig(hide_labels=0.2, classifier=self.classifier)

    def build(self, seed: int, workdir: Path):
        return generate_synthetic_benchmark(n=self.n, d=self.d,
                                            imbalance_ratio=self.imbalance_ratio,
                                            noise_rate=0.05, seed=seed)

    def run(self, data):
        return pipeline.benchmark(data, self.config())

    def score(self, result, seed: int) -> Scored:
        problems = []
        for i, r in enumerate(result.pipeline_results):
            labels = r.enhanced.labels
            if labels is None or not np.all(np.isin(labels, (0, 1))):
                problems.append(f"fold {i}: enhanced set has labels outside {{0, 1}}")
            n_pseudo = int(np.sum(r.enhanced.provenance == "pseudo-labeled"))
            expected = r.selflearn.pseudo_count if r.selflearn is not None else 0
            if n_pseudo != expected:
                problems.append(f"fold {i}: {n_pseudo} pseudo-labeled rows, "
                                f"pseudo_count says {expected}")
        if self.frozen is not None and seed == REFERENCE_SEED:
            base, enh = result.summary("baseline"), result.summary("enhanced")
            got = {"baseline_recall": base["recall"][0], "enhanced_recall": enh["recall"][0],
                   "baseline_f1": base["f1"][0], "enhanced_f1": enh["f1"][0]}
            for key, want in self.frozen.items():
                if abs(got[key] - want) > FROZEN_TOLERANCE:
                    problems.append(f"{key} = {got[key]!r}, frozen value is {want!r}")
        fingerprint = tuple(tuple(r.to_csv_row()) for r in result.baseline + result.enhanced)
        return Scored(problems, fingerprint, result)

    def quality(self, scored: Scored, data) -> dict:
        """Gains are enhanced / baseline fold means; the paired per-fold mean
        difference is returned beside each, for the report."""
        result = scored.detail
        base, enh = result.summary("baseline"), result.summary("enhanced")
        out = {}
        for m in GAIN_METRICS:
            out[f"{m}_gain"] = _ratio(enh[m][0], base[m][0])
            out[f"{m}_delta"] = float(np.mean([getattr(e, m) - getattr(b, m) for b, e in
                                               zip(result.baseline, result.enhanced)]))
        correct = total = 0.0
        for r in result.pipeline_results:
            if r.pseudo_accuracy is not None:
                correct += r.pseudo_accuracy * r.selflearn.pseudo_count
                total += r.selflearn.pseudo_count
        out["pseudo_accuracy"] = correct / total if total else 0.0
        return out


@dataclass
class CsvInputs:
    labelled: Path
    pool: Path
    out: Path
    train: object     # the labelled rows as a Dataset, for the quality baseline
    test: object      # held-out rows from the same generator, for quality only


@dataclass
class EnhanceCsvWorkload:
    """``imbenhance enhance`` through the CLI entry point, CSV in and out."""

    name: str
    why: str
    n_labelled: int
    n_pool: int
    n_test: int
    d: int
    imbalance_ratio: float
    variants: int

    @property
    def rows_per_repetition(self) -> int:
        return self.n_labelled

    def toy(self) -> "EnhanceCsvWorkload":
        return replace(self, n_labelled=300, n_pool=100, n_test=100, d=3, variants=2)

    def build(self, seed: int, workdir: Path) -> CsvInputs:
        n = self.n_labelled + self.n_pool + self.n_test
        data = generate_synthetic_benchmark(n=n, d=self.d, imbalance_ratio=self.imbalance_ratio,
                                            noise_rate=0.05, seed=seed)
        rest, test = stratified_split(data, SplitSpec(
            mode="holdout", ratio=(self.n_labelled + self.n_pool) / n, seed=seed))
        labelled, pool = stratified_split(rest, SplitSpec(
            mode="holdout", ratio=self.n_labelled / rest.n_rows, seed=seed))
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = CsvInputs(workdir / "in.csv", workdir / "pool.csv", workdir / "out",
                           labelled, test)
        write_csv(labelled, inputs.labelled, include_provenance=False)
        # the pool keeps its label column: the CLI holds it aside as hidden truth
        write_csv(pool, inputs.pool, include_provenance=False)
        return inputs

    def run(self, inputs: CsvInputs):
        argv = ["enhance", str(inputs.labelled), "--unlabeled", str(inputs.pool),
                "--classifier", "logistic-regression", "--out", str(inputs.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"imbenhance {' '.join(argv)} exited with {code}")
        return inputs

    def score(self, inputs: CsvInputs, seed: int) -> Scored:
        problems = []
        with (inputs.out / "enhanced.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        labels = {r["y"] for r in rows}
        if not labels <= {"0", "1"}:
            problems.append(f"enhanced.csv has labels {sorted(labels - {'0', '1'})}")
        n_pseudo = sum(r["provenance"] == "pseudo-labeled" for r in rows)
        summary = (inputs.out / "summary.txt").read_text(encoding="utf-8")
        counts = [int(line.split("=", 1)[1]) for line in summary.splitlines()
                  if line.startswith("pseudo_count = ")]
        expected = counts[0] if counts else 0
        if n_pseudo != expected:
            problems.append(f"{n_pseudo} pseudo-labeled rows, pseudo_count says {expected}")
        # keyed by input paths: config_resolved.txt embeds them
        fingerprint = tuple(sorted((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                                   for p in inputs.out.iterdir()))
        return Scored(problems, fingerprint, rows)

    def quality(self, scored: Scored, inputs: CsvInputs) -> dict:
        """Pseudo-label accuracy against the pool file's hidden labels, and the
        gain of a model trained on enhanced.csv over one trained on in.csv,
        both scored on held-out rows."""
        with inputs.pool.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            y = header.index("y")
            truth = {tuple(r[:y] + r[y + 1:]): r[y] for r in reader}
        pseudo = [r for r in scored.detail if r["provenance"] == "pseudo-labeled"]
        features = [c for c in header if c != "y"]
        hits = [truth[tuple(r[c] for c in features)] == r["y"] for r in pseudo]
        out = {"pseudo_accuracy": float(np.mean(hits)) if hits else 0.0}

        spec = ClassifierSpec(kind="logistic-regression")
        enhanced = preprocess(load_csv(inputs.out / "enhanced.csv", label_column="y"))
        base = evaluate(fit(spec, inputs.train), inputs.test)
        enh = evaluate(fit(spec, enhanced), inputs.test)
        for m in GAIN_METRICS:
            out[f"{m}_gain"] = _ratio(getattr(enh, m), getattr(base, m))
            out[f"{m}_delta"] = getattr(enh, m) - getattr(base, m)
        return out


WORKLOADS = {w.name: w for w in [
    BenchWorkload(
        name="tree-bench",
        why="It is fit-bound: 75 fits of a decision tree, mostly CART split search, "
            "with a tiny SMOTE minority and no CSV I/O.",
        n=2000, d=5, imbalance_ratio=20, classifier=ClassifierSpec(),
        variants=12, frozen=TREE_FROZEN),
    BenchWorkload(
        name="forest-bench",
        why="It uses the same tree code in a different way: bootstrap samples, "
            "2 of 8 features searched per node, and prediction through 10 trees.",
        n=500, d=8, imbalance_ratio=10,
        classifier=ClassifierSpec(kind="random-forest", n_estimators=10),
        variants=8),
    EnhanceCsvWorkload(
        name="logreg-enhance-csv",
        why="The tree code does no work here; it adds CSV reads and writes beside the "
            "compute, and SMOTE's neighbour search at about 1.2k minority rows sets peak RSS.",
        n_labelled=6000, n_pool=2000, n_test=2000, d=16, imbalance_ratio=3,
        variants=4),
]}
