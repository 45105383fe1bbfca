"""Precision / recall / F-score over the positive class.

`score` is the one place where predictions meet gold: training's dev F and
`evaluate` both count tp/fp/fn through it, from the encoded gold labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class Metrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f_score: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "Metrics":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall == 0.0:
            f_score = 0.0
        else:
            f_score = 2.0 * precision * recall / (precision + recall)
        return cls(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall,
                   f_score=f_score)


def require_labeled(labels: np.ndarray, where: str) -> None:
    """Raise DataError when encoded gold `labels` hold an unlabeled (-1) row:
    it is neither positive nor negative, so it can be neither learned nor
    scored."""
    unlabeled = int(np.count_nonzero(labels < 0))
    if unlabeled:
        raise DataError(f"{where}: {unlabeled} unlabeled instance(s); "
                        "only positive or negative gold can be trained on or scored")


def score(prob_positive: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> Metrics:
    """Count `prob_positive >= threshold` against encoded gold `labels`
    (1 positive, 0 negative; see `require_labeled` for -1)."""
    require_labeled(labels, "scored gold")
    predicted = prob_positive >= threshold
    gold = labels == 1
    return Metrics.from_counts(int(np.count_nonzero(predicted & gold)),
                               int(np.count_nonzero(predicted & ~gold)),
                               int(np.count_nonzero(gold & ~predicted)))


def format_report(configuration: str, metrics: Metrics) -> str:
    """One header plus one 4-decimal data row, tab-separated."""
    return (
        "configuration\tprecision\trecall\tf_score\n"
        f"{configuration}\t{metrics.precision:.4f}\t{metrics.recall:.4f}\t{metrics.f_score:.4f}\n"
    )
