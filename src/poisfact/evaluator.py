"""Ranking and likelihood metrics over a held-out test set.

Per-user metrics (precision at a cutoff, AUC) rank only the items absent from
that user's training history, with the user's test items as the positive
class; they are averaged over a seeded random sample of users. The global
metrics (Pearson correlation between predictions and held-out counts, and the
test Poisson log-likelihood) pool the entire test set, not the sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .errors import ConfigError, EvaluationError
from .poisson_core import DOT_FLOOR
from .sparse_data import SplitPair
from .trainer import FactorModel


@dataclass(frozen=True)
class EvalConfig:
    """Cutoff for precision, size of the user sample, and the sampling seed."""

    cutoff: int = 5
    sample_users: int = 25000
    seed: int = 42

    def __post_init__(self):
        if self.cutoff < 1:
            raise ConfigError(f"cutoff must be >= 1, got {self.cutoff}")
        if self.sample_users < 1:
            raise ConfigError(f"sample_users must be >= 1, got {self.sample_users}")
        if not 0 <= self.seed < 2**63:
            raise ConfigError(f"seed must be a nonnegative 63-bit integer, got {self.seed}")


@dataclass
class EvalReport:
    """Evaluation outcome; user counts satisfy evaluated + skipped = sampled.

    ``pearson_rho`` is NaN when the predictions or the held-out counts do not
    vary (binary data has every count 1); the text form prints ``nan`` and
    the record holds None.
    """

    p_at_k: float
    auc: float
    pearson_rho: float
    test_loglik: float
    users_evaluated: int
    users_skipped: int

    def to_text(self) -> str:
        """Key-value lines, one metric per line, fixed field names."""
        return (
            f"p_at_k {self.p_at_k:.6f}\n"
            f"auc {self.auc:.6f}\n"
            f"pearson_rho {self.pearson_rho:.6f}\n"
            f"test_loglik {self.test_loglik:.6f}\n"
            f"users_evaluated {self.users_evaluated}\n"
            f"users_skipped {self.users_skipped}\n"
        )

    def to_record(self) -> dict:
        """One flat record with fixed field names, for structured output."""
        return {
            "p_at_k": self.p_at_k,
            "auc": self.auc,
            "pearson_rho": None if math.isnan(self.pearson_rho) else self.pearson_rho,
            "test_loglik": self.test_loglik,
            "users_evaluated": self.users_evaluated,
            "users_skipped": self.users_skipped,
        }


def score_user(model: FactorModel, u: int) -> np.ndarray:
    """Predicted counts a_u . b_i for every item i."""
    return model.B @ model.A[u]


def top_n_unseen(scores: np.ndarray, seen: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n best-scored items outside ``seen``, best first.

    Ties are broken by ascending item index; when fewer than n items are
    eligible, all of them are returned.
    """
    eligible = np.ones(len(scores), dtype=bool)
    eligible[seen] = False
    candidates = np.flatnonzero(eligible)
    # stable sort on negated scores: equal scores keep ascending item order
    order = np.argsort(-scores[candidates], kind="stable")
    return candidates[order[: min(n, len(candidates))]]


def precision_at_k(
    scores: np.ndarray,
    positives: np.ndarray,
    k: int,
    train_items: np.ndarray,
) -> float:
    """Fraction of the top-k eligible items that are positives.

    ``scores`` covers all n items; items in ``train_items`` are excluded
    before ranking. Ties are broken by ascending item index. When fewer than
    k eligible items exist the fraction is over the items actually ranked.
    """
    top = top_n_unseen(np.asarray(scores), np.asarray(train_items, dtype=np.int64), k)
    if len(top) == 0:
        return 0.0
    return float(np.isin(top, np.asarray(positives, dtype=np.int64)).mean())


def auc_user(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney AUC over eligible items; ties count one half.

    ``scores`` are the predictions for the eligible items only and
    ``positive`` is a boolean mask over them. Equals the probability that a
    random positive outranks a random negative, with ties worth 0.5.
    """
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative item")
    ranks = rankdata(np.asarray(scores))  # midranks resolve ties
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def pearson_rho(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Pearson correlation between pooled predictions and held-out counts."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape or predicted.size < 2:
        raise ValueError("correlation needs two equally long lists of length >= 2")
    if np.std(predicted) == 0.0 or np.std(actual) == 0.0:
        raise EvaluationError("correlation undefined: zero variance in predictions or counts")
    return float(np.corrcoef(predicted, actual)[0, 1])


def test_loglik(model: FactorModel, test: list[tuple[int, int, float]]) -> float:
    """Poisson log-likelihood of the test entries, constants omitted.

    Returns sum over test entries of -a_u.b_i + x * log(a_u.b_i), with dot
    products floored at DOT_FLOOR inside the logarithm. Empty test sets give
    exactly zero.
    """
    if not test:
        return 0.0
    users, items, counts = _test_arrays(test)
    dots = np.einsum("ij,ij->i", model.A[users], model.B[items])
    return float(-dots.sum() + counts @ np.log(np.maximum(dots, DOT_FLOOR)))


def _test_arrays(test: list[tuple[int, int, float]]):
    users = np.fromiter((t[0] for t in test), dtype=np.int64, count=len(test))
    items = np.fromiter((t[1] for t in test), dtype=np.int64, count=len(test))
    counts = np.fromiter((t[2] for t in test), dtype=np.float64, count=len(test))
    return users, items, counts


def evaluate(model: FactorModel, split: SplitPair, config: EvalConfig = EvalConfig()) -> EvalReport:
    """Run the full protocol over a train/test split.

    Per-user precision and AUC are averaged over a seeded sample of test
    users (all of them when the sample size covers the population, each
    exactly once); users without an eligible positive or negative item are
    skipped and counted. Correlation and log-likelihood always use the whole
    test set; the correlation is NaN when predictions or counts do not vary.
    """
    if not split.test:
        raise EvaluationError("no test entries to evaluate")
    if model.m != split.train.m or model.n != split.train.n:
        raise EvaluationError(
            f"model is {model.m} x {model.n} but the split is "
            f"{split.train.m} x {split.train.n}"
        )
    users, items, counts = _test_arrays(split.test)
    predictions = np.einsum("ij,ij->i", model.A[users], model.B[items])
    try:
        rho = pearson_rho(predictions, counts)
    except EvaluationError:  # zero variance: undefined, but p@k and AUC are not
        rho = math.nan
    loglik = test_loglik(model, split.test)

    test_users = np.unique(users)
    if len(test_users) > config.sample_users:
        rng = np.random.default_rng(config.seed)
        sampled = rng.choice(test_users, size=config.sample_users, replace=False)
        sampled.sort()  # fixed accumulation order regardless of draw order
    else:
        sampled = test_users

    # group test items by user once; ascending user order
    order = np.argsort(users, kind="stable")
    sorted_users = users[order]
    starts = np.searchsorted(sorted_users, test_users, side="left")
    ends = np.searchsorted(sorted_users, test_users, side="right")
    positives_of = {
        int(u): items[order[starts[j] : ends[j]]] for j, u in enumerate(test_users)
    }

    n = split.train.n
    p_sum = 0.0
    auc_sum = 0.0
    evaluated = 0
    skipped = 0
    for u in sampled:
        positives = positives_of[int(u)]
        train_items = split.train.row(int(u))[0]
        eligible = np.ones(n, dtype=bool)
        eligible[train_items] = False
        positive_mask = np.zeros(n, dtype=bool)
        positive_mask[positives] = True
        elig_pos = positive_mask[eligible]
        n_pos = int(elig_pos.sum())
        n_neg = int(eligible.sum()) - n_pos
        if n_pos == 0 or n_neg == 0:
            skipped += 1
            continue
        scores = score_user(model, int(u))
        p_sum += precision_at_k(scores, positives, config.cutoff, train_items)
        auc_sum += auc_user(scores[eligible], elig_pos)
        evaluated += 1
    if evaluated == 0:
        raise EvaluationError("no evaluable users: every sampled user lacked a positive or negative item")
    return EvalReport(
        p_at_k=p_sum / evaluated,
        auc=auc_sum / evaluated,
        pearson_rho=rho,
        test_loglik=loglik,
        users_evaluated=evaluated,
        users_skipped=skipped,
    )
