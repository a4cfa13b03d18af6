"""Ranking and likelihood metrics over a held-out test set.

Per-user metrics (precision at a cutoff, AUC) rank only the items absent from
that user's training history, with the user's test items as the positive
class; they are averaged over a seeded random sample of users. ``evaluate``
scores the sampled users a block at a time with one product ``A[block] @ B.T``:
a user's scores are its row of it, which can differ from :func:`score_user`
(``B @ A[u]``, recommend's scores) in the last bits, so a near-tie can rank
differently from recommend. It sorts each user's eligible negatives once:
binary searches of the positives in them give both the AUC midranks and each
positive's rank for precision. A user with a positive tied to a negative
(such as one whose scores are all equal) or with a NaN among its eligible
scores takes its top k from :func:`top_n_unseen`, the ranking recommend
uses, and a NaN makes its AUC NaN. On the same scores every result keeps the
bits of :func:`precision_at_k` and :func:`auc_user`. The global metrics
(Pearson correlation, test Poisson log-likelihood) pool the whole test set.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import poisson_core
from .errors import ConfigError, EvaluationError
from .poisson_core import DOT_FLOOR
from .sparse_data import SplitPair, _is_columns, row_entries
from .trainer import FactorModel

# evaluate scores its sampled users in blocks of about this many float64
# scores (1 MiB): 8 users at 16,000 items, 72 at 1,800
_BLOCK_SCORES = 1 << 17


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
    vary (binary data has every count 1). The text form prints a NaN metric
    as ``nan``; the record holds None for any non-finite one (strict JSON).
    """

    p_at_k: float
    auc: float
    pearson_rho: float
    test_loglik: float
    users_evaluated: int
    users_skipped: int

    def to_text(self) -> str:
        """Key-value lines, one field per line in declaration order; floats with six decimals."""
        return "".join(
            f"{key} {v:.6f}\n" if isinstance(v, float) else f"{key} {v}\n" for key, v in asdict(self).items()
        )

    def to_record(self) -> dict:
        """One flat record with fixed field names, for structured output; a non-finite metric is None."""
        return {
            key: None if isinstance(v, float) and not math.isfinite(v) else v for key, v in asdict(self).items()
        }


def score_user(model: FactorModel, u: int) -> np.ndarray:
    """Predicted counts a_u . b_i for every item i."""
    return model.B @ model.A[u]


def top_n_unseen(scores: np.ndarray, seen: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n best-scored items outside ``seen``, best first.

    Exactly the order of a stable sort of the eligible items on their negated
    scores (compared as float64): ties by ascending item index, NaN last, and
    all eligible items when fewer than n. ``seen``, item indices or a boolean
    mask, is not checked. An n below 1 raises ValueError. Recommend,
    ``evaluate`` and ``precision_at_k`` all rank through here.

    No sort of the catalogue: an all-tied score vector (an all-zero user row)
    gives the first n eligible items. Otherwise seen items get a NaN key, and
    v, the n-th smallest key (``np.partition``), keeps the fewer than n items
    above it plus those tied at it; only they are sorted. A NaN v (fewer than
    n eligible numbers) falls back to sorting every eligible item.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    key = np.negative(scores, dtype=np.float64)
    all_tied = len(key) > 0 and key.min() == key.max()  # a NaN makes this false
    if n < len(key) and not all_tied:
        key[seen] = np.nan
        v = np.partition(key, n - 1)[n - 1]
        if not np.isnan(v):
            short = np.flatnonzero(key <= v)
            return short[np.argsort(key[short], kind="stable")[:n]]
    eligible = np.ones(len(key), dtype=bool)
    eligible[seen] = False
    candidates = eligible.nonzero()[0]
    if all_tied:
        return candidates[:n]
    # stable sort on negated scores: equal scores keep ascending item order
    return candidates[np.argsort(key[candidates], kind="stable")[:n]]


def precision_at_k(
    scores: np.ndarray,
    positives: np.ndarray,
    k: int,
    train_items: np.ndarray,
) -> float:
    """Fraction of the top-k eligible items that are positives.

    ``scores`` covers all n items; items in ``train_items`` are excluded
    before ranking. When fewer than k eligible items exist the fraction is
    over the items actually ranked. A k below 1, or an index outside
    [0, len(scores)) in either list, raises ValueError. The top k are those
    of :func:`top_n_unseen`, the ranking recommend uses.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    positives, train_items = np.asarray(positives, dtype=np.int64), np.asarray(train_items, dtype=np.int64)
    for what, at in (("positive", positives), ("train item", train_items)):
        outside = (at < 0) | (at >= len(scores))
        if outside.any():  # a negative index would wrap onto the last items
            raise ValueError(f"{what} {at[outside.argmax()]} lies outside the {len(scores)} scored items")
    top = top_n_unseen(scores, train_items, k)
    if not len(top):
        return 0.0
    positive = np.zeros(len(scores), dtype=bool)
    positive[positives] = True
    return int(np.count_nonzero(positive[top])) / len(top)


def auc_user(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney AUC over eligible items; ties count one half.

    ``scores`` are the predictions for the eligible items only and
    ``positive`` is a boolean mask over them. A positive's left and right
    insertion points in the sorted negatives count the negatives below and
    tied with it (its midrank), so the pair count is an exact integer. NaN
    scores give NaN.
    """
    scores, positive = np.asarray(scores), np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative item")
    if np.isnan(scores).any():
        return math.nan
    neg, pos = np.sort(scores[~positive]), scores[positive]
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    return (int(below.sum()) + 0.5 * int(ties.sum())) / (n_pos * n_neg)


def pearson_rho(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Pearson correlation between pooled predictions and held-out counts."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape or predicted.size < 2:
        raise ValueError("correlation needs two equally long lists of length >= 2")
    if np.std(predicted) == 0.0 or np.std(actual) == 0.0:
        raise EvaluationError("correlation undefined: zero variance in predictions or counts")
    return float(np.corrcoef(predicted, actual)[0, 1])


def test_loglik(model: FactorModel, test) -> float:
    """Poisson log-likelihood of the test entries (columns or (u, i, x) triplets), constants omitted.

    Returns sum over test entries of -a_u.b_i + x * log(a_u.b_i), with dot
    products floored at DOT_FLOOR inside the logarithm. Empty test sets give
    exactly zero; an entry outside the model raises EvaluationError.
    """
    return _loglik(*_heldout(model, test)[2:])


def _loglik(counts: np.ndarray, dots: np.ndarray) -> float:
    return float(-dots.sum() + counts @ np.log(np.maximum(dots, DOT_FLOOR)))


def _rank_block(scores, seen, positive, n_pos, n_neg, k):
    """Per row of a block: AUC pair counts, hits in the top k, and which rows hold a NaN.

    ``seen`` and ``positive`` mask each row's history and eligible positives.
    A sorted copy with both masked to NaN (NaN sorts last) opens each row with
    its n_neg sorted negatives; a positive's left and right insertion points
    there count the negatives below and tied with it. When no positive ties a
    negative, a positive's rank is the negatives plus the positives above it
    (tied positives fill the same ranks in either order), and the hits are
    the positives ranked below k. A row with a positive tied to a negative
    (every row whose scores are all equal) or with a NaN among its eligible
    scores takes its hits from :func:`top_n_unseen`, recommend's ranking.
    Lists: below, ties, hits and has_nan.
    """
    negatives = np.where(seen | positive, np.nan, scores)
    negatives.sort(axis=1)
    owner = np.repeat(np.arange(len(scores)), n_pos)
    pos = scores[positive]
    pos = pos[np.lexsort((pos, owner))]  # each row's positives, ascending
    ends = np.cumsum(n_pos)
    starts = ends - n_pos
    left, right = np.empty(len(pos), dtype=np.int64), np.empty(len(pos), dtype=np.int64)
    for j, (lo, hi, count) in enumerate(zip(starts.tolist(), ends.tolist(), n_neg.tolist())):
        row = negatives[j, :count]
        left[lo:hi] = row.searchsorted(pos[lo:hi], side="left")
        right[lo:hi] = row.searchsorted(pos[lo:hi], side="right")
    below = np.add.reduceat(left, starts)
    ties = np.add.reduceat(right - left, starts)
    rank = np.repeat(n_neg, n_pos) - right + np.repeat(ends - 1, n_pos) - np.arange(len(pos))
    hits = np.bincount(owner[rank < k], minlength=len(scores))
    has_nan = np.isnan(negatives[np.arange(len(scores)), n_neg - 1])
    has_nan[owner[np.isnan(pos)]] = True
    for r in np.flatnonzero((ties > 0) | has_nan).tolist():
        hits[r] = np.count_nonzero(positive[r, top_n_unseen(scores[r], seen[r], k)])
    return below.tolist(), ties.tolist(), hits.tolist(), has_nan.tolist()


def _heldout(model: FactorModel, test):
    """Users, items and counts of the held-out columns or (u, i, x) triplets, and their predictions."""
    columns = test if _is_columns(test) else tuple(zip(*test)) or ((), (), ())
    users, items, counts = (np.asarray(c, dtype) for c, dtype in zip(columns, (np.int64, np.int64, np.float64)))
    outside = (users < 0) | (users >= model.m) | (items < 0) | (items >= model.n)
    if outside.any():  # take() would wrap a negative index
        at = int(outside.argmax())
        raise EvaluationError(
            f"test entry {at} ({users[at]}, {items[at]}) lies outside the {model.m} x {model.n} model"
        )
    # take() in entry_dots' chunks; einsum sums each row as over the whole arrays
    dots = np.empty(len(counts))
    for lo in range(0, len(counts), poisson_core._CHUNK):
        hi = lo + poisson_core._CHUNK
        a, b = model.A.take(users[lo:hi], axis=0), model.B.take(items[lo:hi], axis=0)
        np.einsum("ij,ij->i", a, b, out=dots[lo:hi])
    return users, items, counts, dots


def evaluate(model: FactorModel, split: SplitPair, config: EvalConfig = EvalConfig()) -> EvalReport:
    """Run the full protocol over a train/test split.

    Per-user precision and AUC are averaged over a seeded sample of test
    users (all of them when the sample size covers the population, each
    exactly once); users without an eligible positive or negative item are
    skipped and counted. A sampled user's scores are its row of its block's
    matrix product, which can differ from :func:`score_user` in the last
    bits. Correlation and log-likelihood always use the whole test set; the
    correlation is NaN when predictions or counts do not vary.
    A held-out entry whose user or item lies outside the model raises
    EvaluationError before any scoring.
    """
    if model.m != split.train.m or model.n != split.train.n:
        raise EvaluationError(
            f"model is {model.m} x {model.n} but the split is "
            f"{split.train.m} x {split.train.n}"
        )
    users, items, counts, predictions = _heldout(model, split.test)
    if not len(counts):
        raise EvaluationError("no test entries to evaluate")
    try:
        rho = pearson_rho(predictions, counts)
    except EvaluationError:  # zero variance: undefined, but p@k and AUC are not
        rho = math.nan
    loglik = _loglik(counts, predictions)

    # held-out items of each user: a row of the user-sorted entries
    per_user = np.bincount(users, minlength=model.m)
    held_ptr = np.concatenate(([0], np.cumsum(per_user)))
    sorted_items = items[np.argsort(users, kind="stable")]
    test_users = np.flatnonzero(per_user)
    if len(test_users) > config.sample_users:
        rng = np.random.default_rng(config.seed)
        sampled = rng.choice(test_users, size=config.sample_users, replace=False)
        sampled.sort()  # fixed accumulation order regardless of draw order
    else:
        sampled = test_users

    n, k = split.train.n, config.cutoff
    indptr, indices = split.train.csr.indptr, split.train.csr.indices
    size = max(1, _BLOCK_SCORES // n)
    # one score buffer for every block: a fresh 1 MiB array per block pays its page faults
    block = np.empty((min(size, len(sampled)), n))
    p_sum = auc_sum = 0.0
    evaluated = skipped = 0
    for lo in range(0, len(sampled), size):
        blk = sampled[lo : lo + size]
        # flat cells r * n + i of block row r, below max(2**17, n), so int32 rows do not overflow
        seen = np.zeros(len(blk) * n, dtype=bool)
        owner, at = row_entries(indptr, blk)
        seen[owner * n + indices[at]] = True
        owner, at = row_entries(held_ptr, blk)
        held = owner * n + sorted_items[at]
        positive = np.zeros_like(seen)
        positive[held[~seen[held]]] = True  # distinct held-out items outside the history
        seen, positive = seen.reshape(-1, n), positive.reshape(-1, n)
        n_pos = np.count_nonzero(positive, axis=1)
        n_neg = n - np.count_nonzero(seen, axis=1) - n_pos
        rows = np.flatnonzero((n_pos > 0) & (n_neg > 0))  # the rest lack a positive or a negative
        skipped += len(blk) - len(rows)
        if not len(rows):
            continue
        seen, positive, n_pos, n_neg = seen[rows], positive[rows], n_pos[rows], n_neg[rows]
        scores = np.matmul(model.A[blk[rows]], model.B.T, out=block[: len(rows)])
        ranked = zip(n_pos.tolist(), n_neg.tolist(), *_rank_block(scores, seen, positive, n_pos, n_neg, k))
        for n_p, n_n, below, ties, hits, has_nan in ranked:
            p_sum += hits / min(k, n_p + n_n)
            # auc_user's integer pair counts and expression, and its NaN
            auc_sum += math.nan if has_nan else (below + 0.5 * ties) / (n_p * n_n)
        evaluated += len(rows)
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
