"""Precision / recall / F-score over the positive class."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import KeyMismatch


@dataclass
class Prediction:
    instance_id: str
    prob_positive: float
    label: str


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


def compute_metrics(
    predictions: Iterable[Prediction], gold: dict[str, str]
) -> Metrics:
    """Score predictions against gold labels keyed by instance id.

    The two key sets must match exactly; anything else raises KeyMismatch.
    """
    by_id: dict[str, str] = {}
    for p in predictions:
        if p.instance_id in by_id:
            raise KeyMismatch(f"duplicate prediction for {p.instance_id}")
        by_id[p.instance_id] = p.label
    if set(by_id) != set(gold):
        missing = sorted(set(gold) - set(by_id))[:3]
        extra = sorted(set(by_id) - set(gold))[:3]
        raise KeyMismatch(f"prediction/gold key sets differ (missing {missing}, extra {extra})")
    tp = fp = fn = 0
    for iid, pred_label in by_id.items():
        gold_positive = gold[iid] == "positive"
        pred_positive = pred_label == "positive"
        if pred_positive and gold_positive:
            tp += 1
        elif pred_positive and not gold_positive:
            fp += 1
        elif gold_positive:
            fn += 1
    return Metrics.from_counts(tp, fp, fn)


def format_report(configuration: str, metrics: Metrics) -> str:
    """One header plus one 4-decimal data row, tab-separated."""
    return (
        "configuration\tprecision\trecall\tf_score\n"
        f"{configuration}\t{metrics.precision:.4f}\t{metrics.recall:.4f}\t{metrics.f_score:.4f}\n"
    )
