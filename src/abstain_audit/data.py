"""Dataset containers, synthetic generators, CSV ingestion, and region predicates."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np


class IngestionError(ValueError):
    """Raised when a CSV file cannot be parsed against its schema."""


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str  # "continuous" | "categorical"
    categories: tuple = ()  # category labels, index = integer code


@dataclass
class Dataset:
    """Feature matrix plus labels (integer class ids or real regression targets)."""

    X: np.ndarray
    y: np.ndarray
    columns: list[ColumnSpec] = field(default_factory=list)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        self.y = np.asarray(self.y)
        if len(self.y) != len(self.X):
            raise ValueError("label count does not match row count")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("features contain NaN/Inf")
        if not self.columns:
            self.columns = [
                ColumnSpec(f"x{i}", "continuous") for i in range(self.X.shape[1])
            ]

    def __len__(self) -> int:
        return len(self.X)

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.X[idx], self.y[idx], columns=self.columns)


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned open box: x in region iff lo_i < x[dim_i] < hi_i for all bounds."""

    bounds: tuple  # of (dim, lo, hi)

    def __post_init__(self):
        dims = [d for d, _, _ in self.bounds]
        if len(set(dims)) != len(dims):
            raise ValueError("box dims must be distinct")
        for _, lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")

    def contains(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        m = np.ones(len(X), dtype=bool)
        for dim, lo, hi in self.bounds:
            if dim >= X.shape[1]:
                raise ValueError(f"box dim {dim} out of range for D={X.shape[1]}")
            m &= (X[:, dim] > lo) & (X[:, dim] < hi)
        return m

    def to_json(self) -> dict:
        return {
            "type": "box",
            "bounds": [{"dim": d, "lo": lo, "hi": hi} for d, lo, hi in self.bounds],
        }


@dataclass(frozen=True)
class PredicateRegion:
    """Conjunction of per-column clauses: interval on continuous, equality on categorical."""

    clauses: tuple  # of dicts: {"col": name, "lo":, "hi":} or {"col": name, "eq": value}

    def to_json(self) -> dict:
        return {"type": "predicate", "clauses": list(self.clauses)}


RegionSpec = BoxRegion | PredicateRegion


def region_from_json(obj: dict) -> RegionSpec:
    if obj.get("type") == "box":
        return BoxRegion(tuple((b["dim"], b["lo"], b["hi"]) for b in obj["bounds"]))
    if obj.get("type") == "predicate":
        return PredicateRegion(tuple(obj["clauses"]))
    raise ValueError(f"unknown region type: {obj.get('type')!r}")


def load_region(path) -> RegionSpec:
    with open(path) as fh:
        return region_from_json(json.load(fh))


def region_mask(data: Dataset, spec: RegionSpec) -> np.ndarray:
    """Row-wise membership mask."""
    if isinstance(spec, BoxRegion):
        return spec.contains(data.X)
    colmap = {c.name: (i, c) for i, c in enumerate(data.columns)}
    m = np.ones(len(data), dtype=bool)
    for clause in spec.clauses:
        name = clause["col"]
        if name not in colmap:
            raise ValueError(f"unknown column {name!r} in region spec")
        i, col = colmap[name]
        if "eq" in clause:
            want = clause["eq"]
            if col.kind == "categorical" and want in col.categories:
                want = col.categories.index(want)
            m &= data.X[:, i] == float(want)
        else:
            lo = clause.get("lo", -np.inf)
            hi = clause.get("hi", np.inf)
            m &= (data.X[:, i] > lo) & (data.X[:, i] < hi)
    return m


GAUSSIAN_REGION = BoxRegion(((0, 2.0, 2.75), (1, 0.0, 1.5)))

_GAUSS_COMPONENTS = (
    (1000, [3.0, 2.0], [[1.0, 0.8], [0.8, 1.0]]),
    (1000, [5.0, 5.0], [[1.0, -0.8], [-0.8, 1.0]]),
    (100, [3.0, 4.0], [[0.1, 0.0], [0.0, 0.1]]),
)


def gen_gaussian_mixture(seed: int) -> tuple[Dataset, Dataset, BoxRegion]:
    """Three-class 2-D Gaussian mixture with a rectangular low-confidence target box.

    Returns (train, test, region) with a seeded 80/20 split.
    """
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label, (n, mu, cov) in enumerate(_GAUSS_COMPONENTS):
        xs.append(rng.multivariate_normal(mu, cov, size=n))
        ys.append(np.full(n, label, dtype=np.int64))
    X = np.concatenate(xs)
    y = np.concatenate(ys)
    perm = rng.permutation(len(X))
    X, y = X[perm], y[perm]
    n_test = len(X) // 5
    test = Dataset(X[:n_test], y[:n_test])
    train = Dataset(X[n_test:], y[n_test:])
    return train, test, GAUSSIAN_REGION


REGRESSION_REGION = BoxRegion(((0, -3.0, -2.0),))


def regression_mean(x):
    return np.sin(2 * x) + 0.3 * x**2 - 0.4 * x + 1


def regression_noise_std(x):
    return 0.2 + 0.8 * np.exp(-((x / 1.5) ** 2))


def gen_regression_synth(seed: int, n: int) -> tuple[Dataset, BoxRegion]:
    """Heteroscedastic 1-D regression data on [-4, 4]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4, 4, size=n)
    y = regression_mean(x) + rng.normal(0, 1, size=n) * regression_noise_std(x)
    return Dataset(x[:, None], y), REGRESSION_REGION


def gen_tabular(seed: int, n: int = 4000) -> tuple[Dataset, Dataset, PredicateRegion]:
    """Synthetic tabular stand-in: 4 categorical + 4 continuous columns, planted region.

    The planted region is cat0 == "c" together with cont0 < 0.35.
    """
    rng = np.random.default_rng(seed)
    cat_sizes = (4, 3, 6, 2)
    cats = [rng.integers(0, k, size=n) for k in cat_sizes]
    conts = [rng.uniform(0, 1, size=n) for _ in range(4)]
    # label depends on a noisy linear score over both kinds of column
    score = (
        0.8 * conts[0]
        + 0.5 * conts[1]
        - 0.4 * conts[2]
        + 0.3 * (cats[0] == 1)
        - 0.5 * (cats[1] == 2)
        + rng.normal(0, 0.15, size=n)
    )
    y = (score > np.median(score)).astype(np.int64)
    X = np.column_stack(cats + conts).astype(np.float64)
    columns = [
        ColumnSpec(f"cat{i}", "categorical",
                   tuple("abcdef"[j] for j in range(k)))
        for i, k in enumerate(cat_sizes)
    ] + [ColumnSpec(f"cont{i}", "continuous") for i in range(4)]
    region = PredicateRegion((
        {"col": "cat0", "eq": "c"},
        {"col": "cont0", "lo": -1.0, "hi": 0.35},
    ))
    n_test = n // 5
    test = Dataset(X[:n_test], y[:n_test], columns=columns)
    train = Dataset(X[n_test:], y[n_test:], columns=columns)
    return train, test, region


def save_csv(data: Dataset, path, label_col: str = "label") -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([c.name for c in data.columns] + [label_col])
        label_is_int = np.issubdtype(data.y.dtype, np.integer)
        for row, lab in zip(data.X, data.y):
            cells = []
            for c, v in zip(data.columns, row):
                if c.kind == "categorical":
                    cells.append(c.categories[int(v)] if c.categories else int(v))
                else:
                    cells.append(repr(float(v)))
            cells.append(int(lab) if label_is_int else repr(float(lab)))
            w.writerow(cells)


def load_csv(path, schema: dict) -> Dataset:
    """Load a headered CSV.

    schema: {"label": name, "continuous": [names], "categorical": [names],
             "regression": bool (optional)}.
    Categorical cells are integer-encoded in first-seen order; each
    ColumnSpec lists its categories in code order.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IngestionError(str(exc)) from exc
    if not rows:
        raise IngestionError(f"{path}: empty file")
    header = rows[0]
    label_col = schema["label"]
    feat_names = list(schema.get("continuous", [])) + list(schema.get("categorical", []))
    for name in feat_names + [label_col]:
        if name not in header:
            raise IngestionError(f"{path}: missing column {name!r}")
    idx = {name: header.index(name) for name in header}
    cat_names = set(schema.get("categorical", []))
    cat_codes: dict[str, dict] = {n: {} for n in cat_names}
    regression = bool(schema.get("regression", False))

    X = np.empty((len(rows) - 1, len(feat_names)))
    y = np.empty(len(rows) - 1, dtype=np.float64 if regression else np.int64)
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise IngestionError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        for j, name in enumerate(feat_names):
            cell = row[idx[name]]
            if name in cat_names:
                codes = cat_codes[name]
                X[r - 1, j] = codes.setdefault(cell, len(codes))
            else:
                try:
                    X[r - 1, j] = float(cell)
                except ValueError:
                    raise IngestionError(
                        f"{path}: row {r}, column {name!r}: unparseable cell {cell!r}"
                    ) from None
        try:
            lab = row[idx[label_col]]
            y[r - 1] = float(lab) if regression else int(lab)
        except ValueError:
            raise IngestionError(
                f"{path}: row {r}, column {label_col!r}: unparseable cell {lab!r}"
            ) from None
    columns = [
        ColumnSpec(n, "categorical", tuple(cat_codes[n])) if n in cat_names
        else ColumnSpec(n, "continuous")
        for n in feat_names
    ]
    return Dataset(X, y, columns=columns)
