"""Dataset container, CSV ingestion, preprocessing, splits, and a synthetic benchmark generator."""

from __future__ import annotations

import csv
import math
import numbers
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

PROVENANCE_TAGS = ("original", "synthetic", "retained", "pseudo-labeled", "validation-merged")

# cell values (after strip, lowercased) treated as missing in raw CSV data
_MISSING_MARKERS = {"", "na", "nan"}

# Preprocessing drops a feature column when more than this share of its cells is missing.
MISSING_DROP_SHARE = 0.5


@contextmanager
def prefix_errors(prefix: str):
    """A ValueError raised in the block comes out as ``ValueError("<prefix>: <message>")``,
    chained to the original; nothing else is caught."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{prefix}: {exc}") from exc


def is_missing(cell) -> bool:
    """Whether a raw cell is missing: None, or empty, "NA" or "NaN" in any case."""
    if cell is None:
        return True
    return str(cell).strip().lower() in _MISSING_MARKERS


def _try_float(cell):
    try:
        return float(str(cell).strip())
    except ValueError:
        return None


@dataclass
class Dataset:
    """Feature matrix with optional labels and per-row provenance.

    ``features`` is float64 once preprocessed; straight from ``load_csv`` it is
    an object array of the cell strings as written, missing markers included.
    ``labels`` is None for unlabeled pools. ``provenance`` tracks each row's
    origin through the pipeline stages. Derived datasets (``take``,
    ``with_provenance``, ``with_labels``, ``without_labels``) may share arrays
    with their source, so treat a Dataset's arrays as read-only.
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    column_kinds: list[str] = field(default_factory=list)
    provenance: np.ndarray | None = None
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.features = np.asarray(self.features)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        n, d = self.features.shape
        if not self.feature_names:
            self.feature_names = [f"f{j}" for j in range(d)]
        if len(self.feature_names) != d:
            raise ValueError("feature_names length does not match feature count")
        if not self.column_kinds:
            self.column_kinds = ["unknown"] * d
        if len(self.column_kinds) != d:
            raise ValueError("column_kinds length does not match feature count")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if len(self.labels) != n:
                raise ValueError("labels length does not match row count")
        if self.provenance is None:
            self.provenance = np.array(["original"] * n, dtype=object)
        else:
            self.provenance = np.asarray(self.provenance, dtype=object)
            if len(self.provenance) != n:
                raise ValueError("provenance length does not match row count")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    def take(self, indices) -> "Dataset":
        """Row subset, preserving labels and provenance."""
        idx = np.asarray(indices, dtype=int)
        return replace(self, features=self.features[idx],
                       labels=None if self.labels is None else self.labels[idx],
                       provenance=self.provenance[idx])

    def with_provenance(self, tag: str) -> "Dataset":
        if tag not in PROVENANCE_TAGS:
            raise ValueError(f"unknown provenance tag {tag!r}")
        return replace(self, provenance=np.full(self.n_rows, tag, dtype=object))

    def with_labels(self, labels) -> "Dataset":
        return replace(self, labels=labels)

    def without_labels(self) -> "Dataset":
        return replace(self, labels=None)

    def equals(self, other: "Dataset") -> bool:
        if self.feature_names != other.feature_names:
            return False
        if self.column_kinds != other.column_kinds:
            return False
        if self.features.shape != other.features.shape:
            return False
        if not np.array_equal(self.features, other.features):
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        if self.labels is not None and not np.array_equal(self.labels, other.labels):
            return False
        return bool(np.array_equal(self.provenance, other.provenance))


def concat_datasets(parts: list[Dataset]) -> Dataset:
    """Stack datasets row-wise; schemas and labeledness must agree."""
    if not parts:
        raise ValueError("nothing to concatenate")
    first = parts[0]
    for p in parts[1:]:
        if p.feature_names != first.feature_names:
            raise ValueError("feature name mismatch in concat")
    labeled = [p.is_labeled for p in parts]
    if any(labeled) and not all(labeled):
        raise ValueError("cannot concatenate labeled with unlabeled datasets")
    return replace(first, features=np.vstack([p.features for p in parts]),
                   labels=np.concatenate([p.labels for p in parts]) if all(labeled) else None,
                   provenance=np.concatenate([p.provenance for p in parts]))


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """The header and data rows of a comma-delimited UTF-8 file, with or without
    a byte-order mark, every cell stripped. An unreadable or empty file, a
    header that repeats a column name, or a row whose field count differs from
    the header's, is an error naming the file."""
    path = Path(path)
    try:
        fh = path.open(newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ValueError(f"{path}: unreadable file: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, header row required")
        header = [h.strip() for h in header]
        for name, count in Counter(header).items():
            if count > 1:
                raise ValueError(f"{path}: column {name!r} appears twice in the header")
        rows = []
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}: non-rectangular row at line {i} "
                                 f"({len(row)} fields, expected {len(header)})")
            rows.append([c.strip() for c in row])
    return header, rows


def load_csv(path, label_column: str | None = None, schema_hints: dict | None = None) -> Dataset:
    """Read a comma-delimited file with a header row into a raw Dataset.

    Cells stay as written (stripped); ``is_missing`` reads them. A column
    literally named ``provenance`` is peeled off into row tags instead of
    features. ``schema_hints`` maps column name -> "numeric"/"categorical"
    and is honored later by preprocessing.
    """
    path = Path(path)
    header, rows = read_table(path)
    if label_column is not None and label_column not in header:
        raise ValueError(f"{path}: label column {label_column!r} not found")

    label_idx = header.index(label_column) if label_column is not None else None
    prov_idx = header.index("provenance") if "provenance" in header else None
    feat_idx = [j for j in range(len(header)) if j not in (label_idx, prov_idx)]
    feature_names = [header[j] for j in feat_idx]

    table = np.array(rows, dtype=object).reshape(len(rows), len(header))
    labels = None if label_idx is None else table[:, label_idx]
    provenance = None if prov_idx is None else table[:, prov_idx]
    if provenance is not None:
        for t in provenance:
            if t not in PROVENANCE_TAGS:
                raise ValueError(f"{path}: unknown provenance tag {t!r}")

    hints = schema_hints or {}
    kinds = [hints.get(name, "unknown") for name in feature_names]
    for name, kind in hints.items():
        if kind not in ("numeric", "categorical"):
            raise ValueError(f"schema hint for {name!r} must be numeric or categorical")

    return Dataset(features=table[:, feat_idx], labels=labels, column_kinds=kinds,
                   provenance=provenance, feature_names=feature_names)


def write_csv(d: Dataset, path, label_column: str = "y", include_provenance: bool = True):
    """Write a dataset back to CSV, optionally with a trailing provenance column."""
    header, tails = list(d.feature_names), []
    if d.labels is not None:
        header.append(label_column)
        tails.append([int(v) for v in d.labels])
    if include_provenance:
        header.append("provenance")
        tails.append(d.provenance)
    # one row at a time: a whole-matrix tolist() holds every cell as a Python object
    write_table(path, header, (row.tolist() + tail for row, *tail in zip(d.features, *tails)))


def write_table(path, header: list, rows):
    """Write ``header`` and then each of ``rows`` as comma-delimited UTF-8.
    A cell prints as ``str()`` (a float as its shortest round-trip repr), and
    ``None`` as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _mode_numeric(values: np.ndarray) -> float:
    # most frequent value, ties broken by smallest value
    uniq, counts = np.unique(values, return_counts=True)
    return float(uniq[np.argmax(counts)])


def _mode_first_appearance(values) -> str:
    # most frequent value, ties broken by first appearance
    counts = Counter(values)
    return max(counts, key=counts.__getitem__)


def _parse_column(col):
    """Numeric parse of one column: ``(values, missing, all_parsed)``.

    Missing markers, unparseable and non-finite cells count as missing.
    ``all_parsed`` is False when some cell that is not a missing marker does
    not parse as a float (``inf`` parses).
    """
    cells = [math.nan if is_missing(c) else _try_float(c) for c in col]
    values, all_parsed = np.array(cells, dtype=float), None not in cells  # None reads as nan
    return values, ~np.isfinite(values), all_parsed


def read_numbers(cells, name: str, integer: bool = False) -> np.ndarray:
    """One column's cells as finite floats, integer-valued if ``integer``. The
    first cell that is not one is an error naming ``name`` and its row, counted from 1."""
    cells = np.asarray(cells, dtype=object)  # Python scalars, so the error quotes a cell as written
    values, bad, _ = _parse_column(cells)
    if integer:
        bad |= values != np.floor(values)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"{name} in row {i + 1} must be a finite "
                         f"{'integer' if integer else 'number'}, got {cells[i]!r}")
    return values


def _not_a_number(name: str, col) -> ValueError:
    """The error for the first cell of column ``name`` that is neither a
    missing marker nor a number; rows count from 1."""
    i = next(i for i, c in enumerate(col) if not is_missing(c) and _try_float(c) is None)
    return ValueError(f"column {name!r}, row {i + 1}: {col[i]!r} is not a number")


def _category_strings(col) -> list:
    """Raw cells as strings, with ``None`` for missing cells."""
    return [None if is_missing(c) else str(c) for c in col]


def _encode_categories(strings, fill, codes: dict) -> np.ndarray:
    """Code each string, reading ``None`` as ``fill``. ``codes`` grows in place:
    a string not in it yet gets the next code, so new codes follow first appearance."""
    return np.array([codes.setdefault(fill if s is None else s, len(codes)) for s in strings],
                    dtype=float)


class Preprocessor:
    """Feature-column cleanup fitted on one dataset and replayable on another.

    Drops columns whose missing fraction exceeds ``MISSING_DROP_SHARE``
    (strictly), mode-fills the remaining gaps, and label-encodes non-numeric
    columns in first-appearance order. Every cell is read through its ``str``.
    Missing and non-finite cells are gaps; in a column read as numbers, any
    other cell that does not parse is an error naming the column and row. The
    fit keeps one plan entry per kept column, ``(name, kind, fill, codes)``:
    ``fill`` is the numeric mode or the modal category string, and ``codes``
    maps categories to codes (None for a column parsed as numbers).
    ``transform`` replays the plan on new data (the unlabeled pool); unseen
    categories there get fresh codes past the fitted range, local to that
    call. Labels pass through both unchanged.
    """

    def __init__(self):
        self._plan: list[tuple[str, str, object, dict | None]] | None = None

    def fit_transform(self, raw: Dataset) -> Dataset:
        plan, columns = [], []
        for j, name in enumerate(raw.feature_names):
            col = raw.features[:, j]
            kind = raw.column_kinds[j]
            if kind != "categorical":
                values, missing, all_parsed = _parse_column(col)
                if kind not in ("numeric", "categorical-encoded"):  # numeric iff every cell parses
                    kind = "numeric" if all_parsed else "categorical"
                elif not all_parsed:
                    raise _not_a_number(name, col)
            if kind == "categorical":
                strings = _category_strings(col)
                present = [s for s in strings if s is not None]
                if self._drops(np.array([s is None for s in strings])) or not present:
                    continue  # nothing to fill from; treat as dropped
                fill, codes = _mode_first_appearance(present), {}
                columns.append(_encode_categories(strings, fill, codes))
                kind = "categorical-encoded"
            else:
                present = values[~missing]
                if self._drops(missing) or present.size == 0:
                    continue  # nothing to fill from; treat as dropped
                fill, codes = _mode_numeric(present), None
                columns.append(np.where(missing, fill, values))
            plan.append((name, kind, fill, codes))
        if not plan:
            raise ValueError("preprocessing dropped every column")
        self._plan = plan
        return self._output(raw, columns)

    def transform(self, raw: Dataset) -> Dataset:
        if self._plan is None:
            raise ValueError("preprocessor is not fitted")
        name_to_col = {name: j for j, name in enumerate(raw.feature_names)}
        for name, *_ in self._plan:
            if name not in name_to_col:
                raise ValueError(f"column {name!r} missing from dataset to transform")
        columns = []
        for name, _, fill, codes in self._plan:
            col = raw.features[:, name_to_col[name]]
            if codes is not None:
                columns.append(_encode_categories(_category_strings(col), fill, dict(codes)))
            else:
                values, missing, all_parsed = _parse_column(col)
                if not all_parsed:
                    raise _not_a_number(name, col)
                columns.append(np.where(missing, fill, values))
        return self._output(raw, columns)

    def _drops(self, missing: np.ndarray) -> bool:
        return len(missing) > 0 and np.mean(missing) > MISSING_DROP_SHARE

    def _output(self, raw: Dataset, columns: list) -> Dataset:
        return Dataset(features=np.column_stack(columns), labels=raw.labels,
                       column_kinds=[kind for _, kind, _, _ in self._plan],
                       provenance=raw.provenance,
                       feature_names=[name for name, *_ in self._plan])


def _numeric_labels(raw_labels) -> bool:
    """Whether labels are read as numbers: every cell parses as a float.
    ``_encode_labels`` reports a missing cell either way."""
    return all(_try_float(v) is not None for v in raw_labels)


def _encode_labels(raw_labels, codes: dict | None) -> np.ndarray:
    """Labels as ints. With ``codes``, every label is coded as a string through
    ``_encode_categories`` (a label not in ``codes`` gets the next code);
    without, every label must be an integer within int64. Rows count from 1."""
    for i, v in enumerate(raw_labels, 1):
        if is_missing(v):
            raise ValueError(f"missing label value in row {i}")
    if codes is not None:
        return _encode_categories([str(v) for v in raw_labels], None, codes).astype(int)
    values = read_numbers(raw_labels, "label", integer=True)
    if np.any(past := (values < -2.0**63) | (values >= 2.0**63)):
        i = int(np.argmax(past))
        raise ValueError(f"label in row {i + 1} must be a finite integer, "
                         f"got {np.asarray(raw_labels, dtype=object)[i]!r}")
    return values.astype(int)


def preprocess(raw: Dataset) -> Dataset:
    """One-shot fit-and-transform cleanup (see ``Preprocessor``) that also reads
    the labels as ints: integers by value, or else strings coded by first appearance."""
    out = Preprocessor().fit_transform(raw)
    if raw.labels is None:
        return out
    return out.with_labels(_encode_labels(raw.labels, None if _numeric_labels(raw.labels) else {}))


class BinaryLabels:
    """An input's two labels as classes {0, 1}, and a pool's labels on those classes.

    Cells are read once, by one rule: when every input cell is a number,
    labels are integers compared by value (``1.0`` is ``1``) within int64;
    otherwise they are strings as written. Class 1 is ``positive``, read by the
    same rule, or else the minority; on a tie, the larger integer or the
    later-appearing string. ``classes`` holds the input rows' classes and
    ``written`` maps each label as written to its class, in first-appearance order.
    """

    def __init__(self, cells, positive: str | None = None):
        # string codes; a label the input lacks is given one past its own two
        self._codes = None if _numeric_labels(cells) else {}
        labels = _encode_labels(cells, self._codes)
        self._labels, counts = np.unique(labels, return_counts=True)
        if len(self._labels) != 2:
            raise ValueError(f"expected exactly 2 classes, found {len(self._labels)}")
        self._one = self._labels[int(counts[1] <= counts[0])]
        if positive is not None:
            try:
                self._one = _encode_labels([positive], self._codes)[0]
            except ValueError:  # a label the input's rule cannot read is not present either
                self._one = None
            if self._one not in self._labels:
                raise ValueError(f"positive label {positive!r} not present in data")
        self.classes = (labels == self._one).astype(int)
        self.written = {cell: int(c) for cell, c in zip(cells, self.classes)}

    def truth(self, cells) -> np.ndarray:
        """A pool's label cells as classes, -1 for a missing cell or a label the input
        lacks. A cell the input's rule cannot read is an error naming its row."""
        missing = np.array([is_missing(c) for c in cells], dtype=bool)
        # a missing cell reads as the input's first label, so later rows keep their numbers
        first = next(iter(self.written))
        labels = _encode_labels([first if m else c for m, c in zip(missing, cells)], self._codes)
        return np.where(~missing & np.isin(labels, self._labels), labels == self._one, -1)


@dataclass
class ClassStats:
    """Per-class counts and priors, and which label is the minority and the majority."""

    labels: tuple
    counts: tuple
    priors: tuple
    minority_label: int
    majority_label: int

    def count_of(self, label) -> int:
        return self.counts[self.labels.index(label)]


def class_stats(d: Dataset) -> ClassStats:
    if d.labels is None:
        raise ValueError("class_stats requires a labeled dataset")
    uniq, counts = np.unique(d.labels, return_counts=True)
    labels = tuple(int(v) for v in uniq)
    counts = tuple(int(c) for c in counts)
    total = sum(counts)
    priors = tuple(c / total for c in counts)
    # minority tie -> larger label id (so balanced {0,1} keeps 1 as positive)
    order = sorted(range(len(labels)), key=lambda i: (counts[i], -labels[i]))
    minority, majority = labels[order[0]], labels[order[-1]]
    return ClassStats(labels=labels, counts=counts, priors=priors,
                      minority_label=minority, majority_label=majority)


@dataclass
class SplitSpec:
    """Holdout or k-fold stratified split parameters."""

    mode: str = "holdout"   # "holdout" | "k-fold"
    ratio: float = 0.8      # train fraction, holdout mode
    k: int = 3              # fold count, k-fold mode
    seed: int = 42

    def __post_init__(self):
        if self.mode not in ("holdout", "k-fold"):
            raise ValueError(f"mode must be 'holdout' or 'k-fold', got {self.mode!r}")
        if self.mode == "holdout":
            check_number("ratio", self.ratio, "(0, 1)")
        if self.mode == "k-fold":
            check_count("k", self.k, 2)
        check_count("seed", self.seed, 0)


def check_count(name: str, value, minimum: int):
    """The one rule for every count and seed: ``value`` must be an integer,
    a numpy integer included but not a bool, of at least ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")


def check_number(name: str, value, interval: str):
    """The one rule for every real-valued setting: ``value`` must be a real
    number, a numpy float included but not a bool, inside ``interval``, which
    is written as it reads, such as ``"[0, 1)"`` or ``"(0, inf)"``."""
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (lo <= value if interval[0] == "[" else lo < value)
            and (value <= hi if interval[-1] == "]" else value < hi)):
        raise ValueError(f"{name} must be a number in {interval}, got {value}")


def largest_remainder(fractions, total: int) -> np.ndarray:
    """Integer allocation of ``total`` across ``fractions`` (floor + largest remainder).

    Ties in fractional remainder go to the lower index. Fractions must sum to 1.
    """
    quotas = np.asarray(fractions, dtype=float) * total
    base = np.floor(quotas).astype(int)
    leftover = total - int(base.sum())
    if leftover < 0:
        raise ValueError("fractions must sum to at most 1")
    frac = quotas - base
    order = np.lexsort((np.arange(len(frac)), -frac))
    base[order[:leftover]] += 1
    return base


def stratified_split(d: Dataset, spec: SplitSpec) -> list[Dataset]:
    """Partition rows preserving per-class proportions within +/-1 per part.

    Holdout mode returns [train, validation]; k-fold mode returns k disjoint
    folds covering the dataset. Deterministic for a fixed seed; row order
    within each part follows the original dataset.
    """
    if d.labels is None:
        raise ValueError("stratified_split requires a labeled dataset")
    classes, counts = np.unique(d.labels, return_counts=True)
    if spec.mode == "holdout":
        fractions = [spec.ratio, 1.0 - spec.ratio]
    else:
        # checked before the k fractions are built, so a huge k costs nothing
        for cls, count in zip(classes.tolist(), counts.tolist()):
            if count < spec.k:
                raise ValueError(f"class {cls} has {count} rows, fewer than k={spec.k}")
        fractions = [1.0 / spec.k] * spec.k
    n_parts = len(fractions)

    rng = np.random.default_rng(spec.seed)
    part_indices: list[list[int]] = [[] for _ in range(n_parts)]
    for cls in classes:
        idx = np.flatnonzero(d.labels == cls)
        perm = rng.permutation(idx)
        alloc = largest_remainder(fractions, len(idx))
        start = 0
        for p in range(n_parts):
            part_indices[p].extend(perm[start:start + alloc[p]].tolist())
            start += alloc[p]
    return [d.take(np.sort(np.array(pi, dtype=int))) for pi in part_indices]


def generate_synthetic_benchmark(n: int, d: int, imbalance_ratio: float,
                                 separation: float = 3.0, noise_rate: float = 0.0,
                                 seed: int = 42) -> Dataset:
    """Two Gaussian clusters with a 1:r class imbalance and optional label noise.

    Minority prior is 1/(1+r); cluster means sit ``separation`` apart in
    Euclidean distance; ``noise_rate`` of all labels are flipped. Deterministic
    per seed.
    """
    check_number("imbalance_ratio", imbalance_ratio, "[1, inf)")
    check_number("separation", separation, "(-inf, inf)")
    check_number("noise_rate", noise_rate, "[0, 0.5)")
    check_count("n", n, 2)
    check_count("d", d, 1)
    check_count("seed", seed, 0)

    n_min = max(1, int(math.floor(n / (1.0 + imbalance_ratio) + 0.5)))
    n_maj = n - n_min
    rng = np.random.default_rng(seed)
    offset = separation / math.sqrt(d)
    X_maj = rng.normal(0.0, 1.0, size=(n_maj, d))
    X_min = rng.normal(0.0, 1.0, size=(n_min, d)) + offset
    X = np.vstack([X_maj, X_min])
    y = np.concatenate([np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)])

    perm = rng.permutation(n)
    X, y = X[perm], y[perm]

    n_flip = int(math.floor(noise_rate * n + 0.5))
    if n_flip:
        flip = rng.choice(n, size=n_flip, replace=False)
        y[flip] = 1 - y[flip]

    return Dataset(features=X, labels=y, column_kinds=["numeric"] * d,
                   feature_names=[f"f{j}" for j in range(d)])
