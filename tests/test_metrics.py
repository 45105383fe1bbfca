"""Precision/recall/F-score arithmetic and report formatting."""
import numpy as np
import pytest

from biont.errors import DataError
from biont.metrics import Metrics, format_report, score

# Recorded reference evaluations used to check the F arithmetic: six
# (precision, recall, f_score) rows as printed at 4 decimals.
REFERENCE_ROWS = [
    (0.7134, 0.6410, 0.6753),
    (0.6784, 0.7775, 0.7246),
    (0.8421, 0.6666, 0.7442),
    (0.8438, 0.7500, 0.7941),
    (0.5371, 0.7264, 0.6175),
    (0.5770, 0.7173, 0.6396),
]


def test_from_counts_basic():
    metrics = Metrics.from_counts(tp=6, fp=2, fn=4)
    assert metrics.precision == pytest.approx(0.75)
    assert metrics.recall == pytest.approx(0.6)
    assert metrics.f_score == pytest.approx(2 * 0.75 * 0.6 / 1.35)


def test_from_counts_zero_denominators():
    assert Metrics.from_counts(0, 0, 5) == Metrics(0, 0, 5, 0.0, 0.0, 0.0)
    assert Metrics.from_counts(0, 3, 0) == Metrics(0, 3, 0, 0.0, 0.0, 0.0)
    assert Metrics.from_counts(0, 0, 0) == Metrics(0, 0, 0, 0.0, 0.0, 0.0)


def test_score_counts():
    probs = np.array([0.9, 0.1, 0.9, 0.1])
    labels = np.array([1, 1, 0, 0])  # tp, fn, fp, tn
    metrics = score(probs, labels)
    assert (metrics.tp, metrics.fp, metrics.fn) == (1, 1, 1)
    assert metrics.f_score == pytest.approx(0.5)


def test_score_threshold_is_inclusive():
    metrics = score(np.array([0.3, 0.29, 0.3]), np.array([1, 1, 0]), threshold=0.3)
    assert (metrics.tp, metrics.fp, metrics.fn) == (1, 1, 1)


def test_score_rejects_unlabeled_gold():
    with pytest.raises(DataError, match="1 unlabeled"):
        score(np.array([0.9, 0.1]), np.array([1, -1]))


def test_score_empty_input_is_all_zero():
    empty = score(np.zeros(0), np.zeros(0, dtype=np.int64))
    assert empty == Metrics(0, 0, 0, 0.0, 0.0, 0.0)


def test_format_report_four_decimals():
    metrics = Metrics.from_counts(tp=3, fp=1, fn=2)
    report = format_report("words+classes", metrics)
    assert report == (
        "configuration\tprecision\trecall\tf_score\n"
        "words+classes\t0.7500\t0.6000\t0.6667\n"
    )


def test_format_report_zero_row():
    report = format_report("words", Metrics.from_counts(0, 0, 0))
    assert report.splitlines()[1] == "words\t0.0000\t0.0000\t0.0000"


def test_f_recomputed_from_rounded_p_r_on_worked_rows():
    # the two rows whose rounded values reproduce F within the 5e-5
    # half-unit-in-the-last-place bound
    for p, r, f in [(0.6784, 0.7775, 0.7246), (0.8438, 0.7500, 0.7941)]:
        assert abs(2 * p * r / (p + r) - f) < 5e-5


def test_f_self_consistency_of_reference_rows_at_propagated_bound():
    """Rounding each of P and R to 4 decimals can move 2PR/(P+R) by up to
    about 1e-4, so recomputation from rounded inputs is only guaranteed to
    within 1.5e-4; all six recorded rows satisfy that bound."""
    for p, r, f in REFERENCE_ROWS:
        assert abs(2 * p * r / (p + r) - f) < 1.5e-4
