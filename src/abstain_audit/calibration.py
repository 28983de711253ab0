"""Plaintext calibration auditing: equal-width confidence binning, expected and
per-bin calibration error, reference-set undersampling, and confidence overlap."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, RegionSpec, region_mask
from .nets import ModelParams, predict_probs


@dataclass(frozen=True)
class AuditConfig:
    bins: int = 15
    alpha: float = 0.10  # tolerated per-bin calibration error

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")


def bin_index(conf: float, bins: int) -> int:
    """Equal-width bin of a confidence in [0, 1]; clamped so conf = 1 lands in the top bin."""
    if not 0.0 <= conf <= 1.0:
        raise ValueError("confidence outside [0, 1]")
    return min(int(conf * bins), bins - 1)


@dataclass
class CalibrationReport:
    bins: int
    counts: np.ndarray      # per-bin prediction count
    conf_sums: np.ndarray   # per-bin sum of max-softmax confidences
    acc_sums: np.ndarray    # per-bin count of correct predictions

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def conf(self) -> np.ndarray:
        """Per-bin mean confidence (0 in empty bins)."""
        return np.divide(self.conf_sums, self.counts,
                         out=np.zeros(self.bins), where=self.counts > 0)

    @property
    def acc(self) -> np.ndarray:
        return np.divide(self.acc_sums, self.counts,
                         out=np.zeros(self.bins), where=self.counts > 0)

    @property
    def cale(self) -> np.ndarray:
        """Per-bin |accuracy - confidence|; empty bins contribute 0."""
        return np.abs(self.acc - self.conf)

    @property
    def ece(self) -> float:
        return float(np.sum(self.counts / max(self.n, 1) * self.cale))

    @property
    def max_cale(self) -> float:
        return float(self.cale.max())

    def to_json(self) -> dict:
        return {
            "bins": self.bins,
            "counts": self.counts.tolist(),
            "conf_sums": self.conf_sums.tolist(),
            "acc_sums": self.acc_sums.tolist(),
            "conf": self.conf.tolist(),
            "acc": self.acc.tolist(),
            "cale": self.cale.tolist(),
            "ece": self.ece,
            "max_cale": self.max_cale,
        }


def report_from_scores(confidences, correct, bins: int) -> CalibrationReport:
    counts = np.zeros(bins)
    conf_sums = np.zeros(bins)
    acc_sums = np.zeros(bins)
    for p, ok in zip(confidences, correct):
        b = bin_index(float(p), bins)
        counts[b] += 1
        conf_sums[b] += p
        acc_sums[b] += bool(ok)
    return CalibrationReport(bins, counts, conf_sums, acc_sums)


def reliability(model: ModelParams, ref: Dataset, bins: int = 15) -> CalibrationReport:
    """Bin the model's max-softmax confidences on a reference set."""
    if len(ref) == 0:
        raise ValueError("empty reference set")
    probs = predict_probs(model, ref.X)
    pred = probs.argmax(axis=1)
    return report_from_scores(probs.max(axis=1), pred == ref.y, bins)


def audit_verdict(report: CalibrationReport, alpha: float):
    """(pass, offending_bins): pass iff every bin's |acc - conf| <= alpha.

    Empty bins pass vacuously; boundary equality passes.
    """
    offending = [b for b in range(report.bins)
                 if report.counts[b] > 0 and report.cale[b] > alpha]
    return not offending, offending


def undersample_region(ref: Dataset, region: RegionSpec, rho: float,
                       seed: int) -> Dataset:
    """Drop a fraction rho of the region rows (seeded, uniform); keep the rest.

    Retains ceil((1 - rho) * n_region) region rows so rho = 1 removes them all.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    mask = region_mask(ref, region)
    region_idx = np.flatnonzero(mask)
    keep_n = math.ceil((1 - rho) * len(region_idx))
    rng = np.random.default_rng(seed)
    kept = rng.choice(region_idx, size=keep_n, replace=False) if keep_n else []
    keep = ~mask
    keep[np.asarray(kept, dtype=int)] = True
    return ref.take(np.flatnonzero(keep))


def overlap_coefficient(a, b, bins: int) -> float:
    """Sum of min of two equal-width normalized histograms over [0, 1]."""
    ha, _ = np.histogram(a, bins=bins, range=(0.0, 1.0))
    hb, _ = np.histogram(b, bins=bins, range=(0.0, 1.0))
    return float(np.minimum(ha / ha.sum(), hb / hb.sum()).sum())


def confidence_overlap(model: ModelParams, data: Dataset, region: RegionSpec,
                       bins: int = 20) -> float:
    """Histogram overlap of max-softmax confidence inside vs outside the region."""
    mask = region_mask(data, region)
    if not mask.any() or mask.all():
        raise ValueError("both sides of the region must be non-empty")
    conf = predict_probs(model, data.X).max(axis=1)
    return overlap_coefficient(conf[mask], conf[~mask], bins)


def write_reliability_csv(report: CalibrationReport, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_lo", "bin_hi", "count", "conf", "acc", "cale"])
        width = 1.0 / report.bins
        for b in range(report.bins):
            w.writerow([b * width, (b + 1) * width, int(report.counts[b]),
                        report.conf[b], report.acc[b], report.cale[b]])


def write_report_json(report: CalibrationReport, path, extra: dict | None = None) -> None:
    doc = report.to_json()
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
