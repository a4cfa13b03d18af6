"""Ranking metrics, pooled metrics, and the evaluation protocol.

AUC is checked against explicit pair counting, precision against an explicit
top-k selection, precision and the top-n ranking exactly against a stable
sort of the whole catalogue, the correlation against a two-pass
implementation, and the protocol against a three-user split small enough to
rank by hand.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poisfact import (
    ConfigError,
    EvalConfig,
    EvalReport,
    EvaluationError,
    FactorModel,
    SparseInteractions,
    SplitPair,
    TrainConfig,
    auc_user,
    evaluate,
    pearson_rho,
    poisson_core,
    precision_at_k,
    score_user,
    split_train_test,
    train,
)

import poisfact.evaluator as evaluator

# the package name test_loglik would be collected as a test; alias it
from poisfact import test_loglik as heldout_loglik
from poisfact.evaluator import _heldout, top_n_unseen


def auc_pairs_oracle(pos_scores, neg_scores):
    """Probability a random positive outranks a random negative, ties 0.5."""
    wins = 0.0
    for p in pos_scores:
        for q in neg_scores:
            wins += 1.0 if p > q else (0.5 if p == q else 0.0)
    return wins / (len(pos_scores) * len(neg_scores))


def topk_oracle(scores, positives, k, train_items):
    """Explicit (score desc, index asc) selection over eligible items."""
    banned = set(int(i) for i in train_items)
    ranked = sorted(
        (i for i in range(len(scores)) if i not in banned),
        key=lambda i: (-scores[i], i),
    )
    top = ranked[:k]
    if not top:
        return 0.0
    hits = sum(1 for i in top if i in set(int(j) for j in positives))
    return hits / len(top)


def pearson_twopass(x, y):
    """Textbook two-pass correlation with explicit accumulators."""
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def toy_model():
    A = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, 0.0]])
    B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    return FactorModel(A, B, 2)


# ---------------------------------------------------------------- scoring


def test_score_user_values():
    model = toy_model()
    assert np.array_equal(score_user(model, 0), [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(score_user(model, 2), [3.0, 0.0, 3.0, 6.0])


def test_score_user_zero_row():
    model = FactorModel(np.zeros((1, 2)), np.ones((3, 2)), 2)
    assert np.array_equal(score_user(model, 0), np.zeros(3))


# ---------------------------------------------------------------- top-n ranking


def test_top_n_unseen_breaks_ties_by_ascending_index():
    scores = np.array([0.5, 0.9, 0.5, 0.9, 0.1, 0.5])
    assert top_n_unseen(scores, np.array([], dtype=np.int64), 4).tolist() == [1, 3, 0, 2]


def test_top_n_unseen_excludes_history():
    scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
    assert top_n_unseen(scores, np.array([0, 2]), 2).tolist() == [1, 3]
    assert top_n_unseen(scores, np.arange(5), 3).tolist() == []


def test_top_n_unseen_n_above_eligible_count():
    scores = np.array([0.2, 0.4, 0.4, 0.1])
    assert top_n_unseen(scores, np.array([1]), 10).tolist() == [2, 0, 3]


# ---------------------------------------------------------------- precision


def test_precision_counts_hits_in_top_k():
    scores = np.array([0.1, 0.9, 0.8, 0.7, 0.6, 0.5])
    # top-5 eligible: items 1,2,3,4,5; positives 2 and 5 among them
    got = precision_at_k(scores, np.array([2, 5]), 5, np.array([], dtype=int))
    assert got == pytest.approx(2 / 5)


def test_precision_excludes_train_items():
    scores = np.array([0.0, 1.0, 0.8, 0.9])
    # item 3 would top the list but is in train; top-1 is then item 1... not a
    # positive, so excluding item 3 is observable
    assert precision_at_k(scores, np.array([2]), 1, np.array([1, 3])) == 1.0
    assert precision_at_k(scores, np.array([2]), 1, np.array([3])) == 0.0


def test_precision_breaks_ties_by_ascending_index():
    scores = np.array([0.5, 0.5, 0.5, 0.5])
    # all tied: top-2 must be items 0 and 1
    assert precision_at_k(scores, np.array([0, 1]), 2, np.array([], dtype=int)) == 1.0
    assert precision_at_k(scores, np.array([2, 3]), 2, np.array([], dtype=int)) == 0.0


def test_precision_short_candidate_list():
    scores = np.array([0.3, 0.2, 0.1])
    # only one eligible item: the fraction is over one item, not k
    assert precision_at_k(scores, np.array([2]), 5, np.array([0, 1])) == 1.0
    assert precision_at_k(scores, np.array([], dtype=int), 5, np.array([0, 1, 2])) == 0.0


def test_precision_random_matches_explicit_selection():
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(5, 30))
        scores = rng.integers(0, 6, size=n).astype(float)  # coarse: many ties
        train_items = rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False)
        positives = rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False)
        k = int(rng.integers(1, 8))
        got = precision_at_k(scores, positives, k, train_items)
        assert got == topk_oracle(scores, positives, k, train_items)


def argsort_top_n_oracle(scores, seen, n):
    """The first n eligible items of a stable sort on -scores."""
    eligible = np.setdiff1d(np.arange(len(scores)), seen)
    return eligible[np.argsort(-scores[eligible], kind="stable")[:n]]


def argsort_precision_oracle(scores, positives, k, train_items):
    """Hit share of the first k eligible items of a stable sort on -scores."""
    top = argsort_top_n_oracle(scores, train_items, k)
    return float(np.isin(top, positives).mean()) if len(top) else 0.0


def test_precision_matches_stable_argsort_exactly():
    rng = np.random.default_rng(69)
    nan, inf = math.nan, math.inf
    fixed = [
        (np.array([nan, nan, 1.0]), [0], 2, []),
        (np.array([nan, nan, 1.0]), [1], 2, []),
        (np.array([nan, 0.4, nan, nan, 0.2]), [3], 3, [1]),
        (np.array([0.3, nan, 0.3]), [1], 2, []),
        (np.array([-0.0, 0.0, -0.0, 0.0, 1.0]), [1, 2], 3, []),
        (np.array([-0.0, 0.0, -0.0, 0.0, -0.0]), [1, 2], 2, [0]),
        (np.full(8, 0.25), [5, 6], 3, [0]),
        (np.array([inf, 0.5, -inf, nan, inf, -inf]), [4], 2, []),
        (np.array([-inf, -inf, nan, 0.0]), [1], 2, [3]),
        (np.array([0.1, 0.2, 0.3]), [2], 5, [0]),
        (np.array([0.1, 0.2, 0.3]), [1], 5, [0, 1, 2]),
        (np.full(4, 0.0), [1], 2, [0, 1, 2, 3]),
        (np.array([]), [], 1, []),
    ]
    for scores, positives, k, train_items in fixed:
        seen = np.array(train_items, dtype=int)
        got = precision_at_k(scores, np.array(positives, dtype=int), k, seen)
        assert got == argsort_precision_oracle(scores, positives, k, seen)
        assert top_n_unseen(scores, seen, k).tolist() == argsort_top_n_oracle(scores, seen, k).tolist()
    for trial in range(900):
        n = int(rng.integers(1, 60))
        kind = trial % 9
        if kind == 0:
            scores = rng.random(n)
        elif kind == 1:
            scores = np.round(rng.random(n), 1)
        elif kind == 2:
            scores = np.full(n, 0.7)
        elif kind == 3:
            scores = rng.choice([-0.0, 0.0, 0.5], size=n)
        elif kind == 4:
            scores = np.round(rng.random(n), 1)
            scores[rng.random(n) < 0.3] = nan
        elif kind == 5:
            scores = rng.choice([nan, -0.0, 0.0, 1.0], size=n)
        elif kind == 6:
            scores = rng.choice([-0.0, 0.0], size=n)
        elif kind == 7:
            scores = rng.random(n)
            scores[rng.integers(n)] = nan
        else:
            scores = rng.choice([inf, -inf, nan, 0.0, 0.5], size=n)
        train_items = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        positives = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        k = int(rng.integers(1, n + 3))
        got = precision_at_k(scores, positives, k, train_items)
        assert got == argsort_precision_oracle(scores, positives, k, train_items)
        top = top_n_unseen(scores, train_items, k)
        assert top.tolist() == argsort_top_n_oracle(scores, train_items, k).tolist()


def test_precision_rejects_cutoff_below_one():
    for k in (0, -2):
        with pytest.raises(ValueError, match="k must be >= 1"):
            precision_at_k(np.arange(10.0), np.array([9]), k, np.array([], dtype=int))


def test_precision_rejects_indices_outside_the_scores():
    scores = np.arange(4.0)
    cases = [
        ([-1], [], "positive -1"),  # a negative index would wrap onto the last item
        ([4], [], "positive 4"),
        ([0], [2, -1], "train item -1"),
        ([0, 9, -3], [7], "positive 9"),  # the first index outside, positives first
    ]
    for positives, train_items, bad in cases:
        with pytest.raises(ValueError, match=f"{bad} lies outside the 4 scored items"):
            precision_at_k(scores, np.array(positives), 1, np.array(train_items, dtype=int))
    assert precision_at_k(scores, np.array([3]), 1, np.array([0])) == 1.0  # the edges are valid


def test_top_n_unseen_rejects_count_below_one():
    for n in (0, -2):
        with pytest.raises(ValueError, match="n must be >= 1"):
            top_n_unseen(np.arange(10.0), np.array([], dtype=int), n)


# ---------------------------------------------------------------- auc


def test_auc_known_value():
    scores = np.array([0.9, 0.4, 0.5, 0.1])
    positive = np.array([True, True, False, False])
    assert auc_user(scores, positive) == pytest.approx(0.75)


def test_auc_extremes():
    assert auc_user(np.array([2.0, 3.0, 1.0]), np.array([True, True, False])) == 1.0
    assert auc_user(np.array([1.0, 1.0, 1.0]), np.array([True, False, False])) == 0.5


def auc_midrank_oracle(scores, positive):
    """The rank-sum form of the AUC, with midranks from scipy.stats.rankdata."""
    from scipy.stats import rankdata

    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    rank_sum = float(rankdata(scores)[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def test_auc_random_matches_pair_counting():
    rng = np.random.default_rng(62)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        scores = rng.integers(0, 5, size=n).astype(float)
        positive = rng.random(n) < 0.4
        if positive.all() or not positive.any():
            positive[0] = not positive[0]
        got = auc_user(scores, positive)
        want = auc_pairs_oracle(scores[positive], scores[~positive])
        assert abs(got - want) <= 1e-12
        assert got == auc_midrank_oracle(scores, positive)
    # catalogue scale: few positives among thousands of items, heavy ties
    for _ in range(40):
        n = int(rng.integers(50, 5001))
        scores = np.round(rng.gamma(0.5, 4.0, size=n))
        positive = np.zeros(n, dtype=bool)
        positive[rng.choice(n, size=int(rng.integers(1, 21)), replace=False)] = True
        got = auc_user(scores, positive)
        pos, neg = scores[positive], scores[~positive]
        wins = (pos[:, None] > neg).sum() + 0.5 * (pos[:, None] == neg).sum()
        assert abs(got - wins / (len(pos) * len(neg))) <= 1e-12
        assert got == auc_midrank_oracle(scores, positive)
    scores = np.array([0.3, np.nan, 0.1, 0.7])
    assert math.isnan(auc_user(scores, np.array([True, False, False, True])))


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(63)
    scores = rng.random(25)
    positive = rng.random(25) < 0.5
    positive[0], positive[1] = True, False
    assert auc_user(scores, positive) == auc_user(3.0 * np.exp(scores) + 7.0, positive)


def test_auc_requires_both_classes():
    with pytest.raises(ValueError, match="positive and .* negative"):
        auc_user(np.array([1.0, 2.0]), np.array([True, True]))


def test_import_loads_no_scipy_stats():
    # scipy.stats costs about a second and 50 MB on import; the package
    # needs only numpy and scipy.sparse
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, poisfact; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------- pooled metrics


def test_pearson_perfect_and_inverted():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson_rho(x, 2 * x) == pytest.approx(1.0)
    assert pearson_rho(x, 5.0 - x) == pytest.approx(-1.0)


def test_pearson_random_matches_two_pass():
    rng = np.random.default_rng(64)
    for _ in range(50):
        n = int(rng.integers(3, 50))
        x = rng.random(n)
        y = rng.random(n) + 0.3 * x
        assert pearson_rho(x, y) == pytest.approx(pearson_twopass(x, y), abs=1e-12)


def test_pearson_degenerate_inputs():
    # undefined correlations are NaN: a constant list, fewer than two entries
    assert math.isnan(pearson_rho(np.ones(4), np.array([1.0, 2.0, 3.0, 4.0])))
    assert math.isnan(pearson_rho(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4)))
    assert math.isnan(pearson_rho(np.array([1.0]), np.array([2.0])))
    assert math.isnan(pearson_rho(np.array([]), np.array([])))
    with pytest.raises(ValueError, match="equally long"):
        pearson_rho(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_loglik_single_entry():
    model = FactorModel(np.array([[2.0]]), np.array([[1.0]]), 1)
    got = heldout_loglik(model, [(0, 0, 2.0)])
    assert got == pytest.approx(-2.0 + 2.0 * math.log(2.0), rel=1e-15)
    assert f"{got:.4f}" == "-0.6137"


def test_loglik_empty_is_zero():
    assert heldout_loglik(toy_model(), []) == 0.0


def test_loglik_random_matches_scalar_loop():
    rng = np.random.default_rng(65)
    model = FactorModel(rng.uniform(0.1, 2.0, (3, 2)), rng.uniform(0.1, 2.0, (4, 2)), 2)
    test = [
        (int(rng.integers(3)), int(rng.integers(4)), float(rng.integers(1, 6)))
        for _ in range(40)
    ]
    want = 0.0
    for u, i, x in test:
        pred = float(model.A[u] @ model.B[i])
        want += -pred + x * math.log(pred)
    assert heldout_loglik(model, test) == pytest.approx(want, rel=1e-12)


def test_heldout_predictions_chunked_equal_whole_einsum(monkeypatch):
    monkeypatch.setattr(poisson_core, "_CHUNK", 8)
    rng = np.random.default_rng(66)
    for k in (1, 4, 9, 20):
        model = FactorModel(rng.uniform(0.0, 2.0, (7, k)), rng.uniform(0.0, 2.0, (6, k)), k)
        for length in (1, 7, 8, 9, 17, 40):
            test = [(int(rng.integers(7)), int(rng.integers(6)), 1.0) for _ in range(length)]
            users, items, _, dots = _heldout(model, test)
            whole = np.einsum("ij,ij->i", model.A[users], model.B[items])
            assert np.array_equal(dots, whole)


def test_loglik_clamps_zero_predictions():
    model = FactorModel(np.zeros((1, 2)), np.ones((2, 2)), 2)
    got = heldout_loglik(model, [(0, 0, 3.0)])
    assert np.isfinite(got)
    assert got == pytest.approx(3.0 * math.log(1e-12))


def test_loglik_penalizes_scaling_on_zero_counts():
    # with all-zero held-out counts the likelihood is -sum of predictions;
    # inflating the model must strictly lower it
    model = toy_model()
    zeros = [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0)]
    scaled = FactorModel(3.0 * model.A, model.B, model.k)
    assert heldout_loglik(scaled, zeros) < heldout_loglik(model, zeros)


# ---------------------------------------------------------------- protocol


def toy_split():
    train = SparseInteractions.from_entries(
        [0, 2, 2], [0, 1, 2], [1.0, 2.0, 1.0], 3, 4
    )
    test = [
        (0, 1, 1.0),
        (0, 3, 2.0),
        (1, 0, 1.0),
        (1, 1, 1.0),
        (1, 2, 2.0),
        (1, 3, 3.0),
        (2, 0, 5.0),
    ]
    return SplitPair(train=train, test=test)


def test_evaluate_three_user_split_by_hand():
    model = toy_model()
    split = toy_split()
    report = evaluate(model, split, EvalConfig(cutoff=2, sample_users=100, seed=0))
    # user 0: scores [1,2,3,4], train {0}; top-2 eligible = items 3,2 with
    #   positives {1,3} -> P@2 = 1/2; AUC over {1,2,3}: positive ranks 1,3 of
    #   3 -> (4 - 3) / (2*1) = 1/2
    # user 1: every item is a positive -> skipped
    # user 2: scores [3,0,3,6], train {1,2}; top-2 eligible = items 3,0 with
    #   positives {0} -> P@2 = 1/2; AUC over {0,3}: positive ranked below
    #   the negative -> 0
    assert report.p_at_k == pytest.approx(0.5)
    assert report.auc == pytest.approx(0.25)
    assert report.users_evaluated == 2
    assert report.users_skipped == 1
    # pooled metrics run over all seven test entries, skipped user included
    preds = [float(model.A[u] @ model.B[i]) for u, i, _ in split.test]
    counts = [x for _, _, x in split.test]
    assert report.pearson_rho == pytest.approx(pearson_twopass(preds, counts), abs=1e-12)
    want_ll = sum(-p + x * math.log(p) for p, x in zip(preds, counts))
    assert report.test_loglik == pytest.approx(want_ll, rel=1e-12)


def test_evaluate_matches_per_user_oracles_on_trained_model():
    rng = np.random.default_rng(66)
    X = (rng.random((30, 20)) < 0.4) * rng.integers(1, 6, size=(30, 20))
    users, items = np.nonzero(X)
    data = SparseInteractions.from_entries(users, items, X[users, items].astype(float), 30, 20)
    split = split_train_test(data, 0.3, 2, seed=3)
    model, _ = train(data=split.train, config=TrainConfig(k=3, alpha=1e-2, lam=5.0, iters=4, seed=1))
    report = evaluate(model, split, EvalConfig(cutoff=4, sample_users=1000, seed=0))
    test = list(zip(*(column.tolist() for column in split.test)))
    p_vals, auc_vals = [], []
    for u in sorted({u for u, _, _ in test}):
        positives = np.array(sorted(i for uu, i, _ in test if uu == u))
        train_items = split.train.row(u)[0]
        eligible = np.setdiff1d(np.arange(20), train_items)
        pos_set = set(positives.tolist())
        if len(pos_set) == 0 or len(eligible) == len(pos_set):
            continue
        scores = score_user(model, u)
        p_vals.append(topk_oracle(scores, positives, 4, train_items))
        auc_vals.append(
            auc_pairs_oracle(
                [scores[i] for i in eligible if i in pos_set],
                [scores[i] for i in eligible if i not in pos_set],
            )
        )
    assert report.users_evaluated == len(p_vals)
    assert report.p_at_k == pytest.approx(float(np.mean(p_vals)), abs=1e-12)
    assert report.auc == pytest.approx(float(np.mean(auc_vals)), abs=1e-12)


def test_evaluate_matches_sorting_formula_on_tied_factors():
    # integer-valued factors with zero rows: many exactly tied scores, and
    # all-zero score vectors; every report field must equal a per-user loop
    # of the sort-based formula (stable argsort + auc_user) bit for bit
    rng = np.random.default_rng(70)
    m, n = 40, 60
    X = (rng.random((m, n)) < 0.3) * rng.integers(1, 4, size=(m, n))
    users, items = np.nonzero(X)
    data = SparseInteractions.from_entries(users, items, X[users, items].astype(float), m, n)
    split = split_train_test(data, 0.3, 2, seed=5)
    A = rng.integers(0, 3, size=(m, 3)).astype(float)
    B = rng.integers(0, 3, size=(n, 3)).astype(float)
    A[::4] = 0.0
    B[::7] = 0.0
    model = FactorModel(A, B, 3)
    test = list(zip(*(column.tolist() for column in split.test)))
    for cutoff in (1, 5, 70):
        report = evaluate(model, split, EvalConfig(cutoff=cutoff, sample_users=1000, seed=0))
        p_sum = auc_sum = 0.0
        evaluated = skipped = 0
        for u in sorted({u for u, _, _ in test}):
            positives = np.array(sorted({i for uu, i, _ in test if uu == u}))
            train_items = split.train.row(u)[0]
            eligible = np.setdiff1d(np.arange(n), train_items)
            is_pos = np.isin(eligible, positives)
            if is_pos.all() or not is_pos.any():
                skipped += 1
                continue
            scores = score_user(model, u)
            top = argsort_top_n_oracle(scores, train_items, cutoff)
            p_sum += float(np.isin(top, positives).mean())
            auc_sum += auc_user(scores[eligible], is_pos)
            evaluated += 1
        preds = np.array([model.A[u] @ model.B[i] for u, i, _ in test])
        counts = np.array([x for _, _, x in test])
        assert report.p_at_k == p_sum / evaluated
        assert report.auc == auc_sum / evaluated
        assert report.pearson_rho == pearson_rho(preds, counts)
        assert report.test_loglik == heldout_loglik(model, split.test)
        assert (report.users_evaluated, report.users_skipped) == (evaluated, skipped)


def protocol_oracle(model, split, config):
    """The report of a per-user loop of top_n_unseen and auc_user over the sample."""
    users = np.array([u for u, _, _ in split.test])
    population = np.unique(users)
    sampled = population
    if len(population) > config.sample_users:
        rng = np.random.default_rng(config.seed)
        sampled = np.sort(rng.choice(population, size=config.sample_users, replace=False))
    p_sum = auc_sum = 0.0
    evaluated = skipped = 0
    for u in sampled.tolist():
        positives = np.array([i for uu, i, _ in split.test if uu == u])
        train_items = split.train.row(u)[0]
        eligible = np.setdiff1d(np.arange(model.n), train_items)
        is_pos = np.isin(eligible, positives)
        if is_pos.all() or not is_pos.any():
            skipped += 1
            continue
        scores = score_user(model, u)
        top = top_n_unseen(scores, train_items, config.cutoff)
        p_sum += int(np.isin(top, positives).sum()) / len(top)
        auc_sum += auc_user(scores[eligible], is_pos)
        evaluated += 1
    _, _, counts, predictions = _heldout(model, split.test)
    rho = pearson_rho(predictions, counts)
    loglik = heldout_loglik(model, split.test)
    return EvalReport(p_sum / evaluated, auc_sum / evaluated, rho, loglik, evaluated, skipped)


def block_split(rng):
    """23 users over 17 items; every user is a test user, so blocks of 2 or 3 leave a partial one.

    User 0 has three eligible items (fewer than a cutoff of 5), user 1's
    held-out items all lie in its history and user 2 holds every eligible
    item as a positive (both skipped), users 3 to 6 hold a held-out item from
    their history too, and four test triples appear twice.
    """
    m, n = 23, 17
    X = (rng.random((m, n)) < 0.35) * rng.integers(1, 4, size=(m, n))
    X[0, :14], X[0, 14:] = 1, 0
    X[1, :4] = 1
    users, items = np.nonzero(X)
    train_data = SparseInteractions.from_entries(users, items, X[users, items].astype(float), m, n)
    test = [(1, 0, 1.0), (1, 2, 2.0)]
    test += [(2, int(i), 1.0) for i in np.flatnonzero(X[2] == 0)]
    for u in range(3, m):
        unseen = np.flatnonzero(X[u] == 0)
        for i in rng.choice(unseen, size=min(len(unseen), int(rng.integers(1, 4))), replace=False):
            test.append((u, int(i), float(rng.integers(1, 4))))
    test.append((0, 15, 2.0))
    test += [(u, int(np.flatnonzero(X[u])[0]), 1.0) for u in range(3, 7)]
    test += test[-9:-5]
    return SplitPair(train=train_data, test=test)


def block_factors(rng, kind, m, n):
    if kind == "gamma":
        return rng.gamma(0.5, 1.0, (m, 4)), rng.gamma(0.5, 1.0, (n, 4))
    if kind == "integer":  # exactly tied scores and all-zero score rows
        A, B = rng.integers(0, 3, (m, 3)).astype(float), rng.integers(0, 3, (n, 3)).astype(float)
        A[::4], B[::5] = 0.0, 0.0
        return A, B
    A, B = rng.gamma(0.5, 1.0, (m, 4)), rng.gamma(0.5, 1.0, (n, 4))
    if kind == "nan":  # a user with every score NaN; an item that is NaN for all
        A[3], B[6] = math.nan, math.nan
    else:  # a user with every score inf; an item that is inf for all
        A[5], B[2] = math.inf, math.inf
    return A, B


def refuse_fallback(*args):
    """Stand-in for the per-user rankers and scorer, which evaluate must not call."""
    raise AssertionError("per-user ranking or scoring called")


@pytest.mark.parametrize("block_users", [1, 2, 3, 23])
@pytest.mark.parametrize("kind", ["gamma", "integer", "nan", "inf"])
def test_evaluate_blocks_equal_per_user_oracles_bit_for_bit(monkeypatch, block_users, kind):
    rng = np.random.default_rng(72)
    split = block_split(rng)
    A, B = block_factors(rng, kind, split.train.m, split.train.n)
    model = FactorModel(A, B, A.shape[1])
    monkeypatch.setattr(evaluator, "_BLOCK_SCORES", block_users * split.train.n)
    # ties, NaN and inf rank in the block or through top_n_unseen, never through
    # these, and a block is scored by one matrix product, not by score_user's
    # gemv; the oracle scores each user with score_user
    monkeypatch.setattr(evaluator, "precision_at_k", refuse_fallback)
    monkeypatch.setattr(evaluator, "auc_user", refuse_fallback)
    monkeypatch.setattr(evaluator, "score_user", refuse_fallback)
    for cutoff in (1, 5, 20):
        for sample_users in (1000, 10):
            config = EvalConfig(cutoff=cutoff, sample_users=sample_users, seed=3)
            got = dataclasses.astuple(evaluate(model, split, config))
            want = dataclasses.astuple(protocol_oracle(model, split, config))
            assert [float(v).hex() for v in got[:4]] == [float(v).hex() for v in want[:4]]
            assert got[4:] == want[4:]
            if sample_users == 1000:
                assert got[5] == 2  # users 1 and 2


def test_evaluate_ranks_untied_users_without_the_fallbacks(monkeypatch):
    # distinct finite scores: the block's sorted negatives decide every user
    rng = np.random.default_rng(73)
    split = block_split(rng)
    A, B = block_factors(rng, "gamma", split.train.m, split.train.n)
    model = FactorModel(A, B, 4)
    want = evaluate(model, split, EvalConfig(cutoff=5, sample_users=1000, seed=0))

    monkeypatch.setattr(evaluator, "precision_at_k", refuse_fallback)
    monkeypatch.setattr(evaluator, "auc_user", refuse_fallback)
    assert evaluate(model, split, EvalConfig(cutoff=5, sample_users=1000, seed=0)) == want


@pytest.mark.parametrize("block_users", [1, 3, 23])
def test_evaluate_ranks_all_tied_users_without_the_fallbacks(monkeypatch, block_users):
    # all-zero user rows tie every item, an all-inf row too; the other rows are distinct
    rng = np.random.default_rng(74)
    split = block_split(rng)
    A, B = block_factors(rng, "gamma", split.train.m, split.train.n)
    A[::3] = 0.0
    A[4] = math.inf
    model = FactorModel(A, B, 4)
    monkeypatch.setattr(evaluator, "_BLOCK_SCORES", block_users * split.train.n)
    configs = [EvalConfig(cutoff=cutoff, sample_users=1000, seed=0) for cutoff in (1, 2, 5, 20)]
    wants = [protocol_oracle(model, split, config) for config in configs]

    monkeypatch.setattr(evaluator, "precision_at_k", refuse_fallback)
    monkeypatch.setattr(evaluator, "auc_user", refuse_fallback)
    for config, want in zip(configs, wants):
        got = dataclasses.astuple(evaluate(model, split, config))
        want = dataclasses.astuple(want)
        assert [float(v).hex() for v in got[:4]] == [float(v).hex() for v in want[:4]]
        assert got[4:] == want[4:]


@pytest.mark.parametrize(
    "entry, named",
    [((-1, 3, 2.0), r"test entry 1 \(-1, 3\)"), ((0, 5, 2.0), r"test entry 1 \(0, 5\)"),
     ((3, 0, 1.0), r"test entry 1 \(3, 0\)"), ((0, -2, 1.0), r"test entry 1 \(0, -2\)")],
)
def test_evaluate_rejects_test_entries_outside_the_model(entry, named):
    # a negative index would wrap onto the last user or item; one past the end
    # would raise a bare IndexError
    split = SplitPair(train=toy_split().train, test=[(0, 1, 1.0), entry, (2, 0, 5.0)])
    with pytest.raises(EvaluationError, match=named + r" lies outside the 3 x 4 model"):
        evaluate(toy_model(), split)
    with pytest.raises(EvaluationError, match=named):
        heldout_loglik(toy_model(), split.test)


def test_evaluate_sampling_is_capped_and_deterministic():
    rng = np.random.default_rng(67)
    X = (rng.random((60, 15)) < 0.5) * rng.integers(1, 5, size=(60, 15))
    users, items = np.nonzero(X)
    data = SparseInteractions.from_entries(users, items, X[users, items].astype(float), 60, 15)
    split = split_train_test(data, 0.4, 1, seed=9)
    model, _ = train(data=split.train, config=TrainConfig(k=2, alpha=1e-2, lam=5.0, iters=3, seed=2))
    config = EvalConfig(cutoff=3, sample_users=10, seed=21)
    first = evaluate(model, split, config)
    second = evaluate(model, split, config)
    assert first == second
    assert first.users_evaluated + first.users_skipped == 10


def test_evaluate_rejects_mismatched_dimensions():
    model = FactorModel(np.ones((4, 2)), np.ones((4, 2)), 2)
    with pytest.raises(EvaluationError, match="4 x 4"):
        evaluate(model, toy_split())


def test_evaluate_rejects_empty_test():
    split = SplitPair(train=toy_split().train, test=[])
    with pytest.raises(EvaluationError, match="no test entries"):
        evaluate(toy_model(), split)


def test_evaluate_reads_columns_and_triplets_alike_past_two_chunks():
    # the held-out columns are a 3-tuple: a gather bounded by len(test) would
    # score only the first chunk of entries and leave the rest unset
    rng = np.random.default_rng(75)
    m, n = 300, 100
    X = (rng.random((m, n)) < 0.6) * rng.integers(1, 6, size=(m, n))
    users, items = np.nonzero(X)
    data = SparseInteractions.from_entries(users, items, X[users, items].astype(float), m, n)
    split = split_train_test(data, 0.3, 2, seed=6)
    assert len(split.test[2]) > 2 * poisson_core._CHUNK
    triplets = SplitPair(train=split.train, test=list(zip(*(column.tolist() for column in split.test))))
    model = FactorModel(rng.gamma(0.5, 1.0, (m, 4)), rng.gamma(0.5, 1.0, (n, 4)), 4)
    got = dataclasses.astuple(evaluate(model, split, EvalConfig(cutoff=5, sample_users=50, seed=1)))
    want = dataclasses.astuple(evaluate(model, triplets, EvalConfig(cutoff=5, sample_users=50, seed=1)))
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
    assert heldout_loglik(model, split.test).hex() == heldout_loglik(model, triplets.test).hex()
    preds = np.einsum("ij,ij->i", model.A[split.test[0]], model.B[split.test[1]])
    assert got[3] == pytest.approx(float(-preds.sum() + split.test[2] @ np.log(preds)), rel=1e-12)


def test_evaluate_rejects_an_empty_split():
    rng = np.random.default_rng(76)
    X = (rng.random((20, 15)) < 0.5) * rng.integers(1, 4, size=(20, 15))
    users, items = np.nonzero(X)
    data = SparseInteractions.from_entries(users, items, X[users, items].astype(float), 20, 15)
    model = FactorModel(np.ones((20, 2)), np.ones((15, 2)), 2)
    # nothing drawn, and draws that every user's min-test-entries rule drops
    for fraction, min_test_entries in ((1e-12, 1), (0.3, 100)):
        split = split_train_test(data, fraction, min_test_entries, seed=0)
        assert [(len(column), column.dtype) for column in split.test] == [
            (0, np.int64), (0, np.int64), (0, np.float64)
        ]
        with pytest.raises(EvaluationError, match="no test entries"):
            evaluate(model, split)
        assert heldout_loglik(model, split.test) == 0.0


def test_evaluate_all_users_skipped():
    # the lone test user holds every eligible item as a positive; predictions
    # and counts vary so the pooled metrics are well defined
    train_m = SparseInteractions.from_entries([0, 0], [0, 1], [1.0, 1.0], 1, 4)
    split = SplitPair(train=train_m, test=[(0, 2, 1.0), (0, 3, 2.0)])
    model = FactorModel(np.array([[1.0, 2.0]]), toy_model().B, 2)
    with pytest.raises(EvaluationError, match="no evaluable users"):
        evaluate(model, split)


def test_evaluate_binary_counts_reports_nan_correlation():
    # implicit feedback with every count 1: the correlation is undefined,
    # precision and AUC are not
    rng = np.random.default_rng(68)
    X = rng.random((40, 25)) < 0.35
    users, items = np.nonzero(X)
    data = SparseInteractions.from_entries(users, items, np.ones(len(users)), 40, 25)
    split = split_train_test(data, 0.3, 2, seed=4)
    assert set(split.test[2].tolist()) == {1.0}
    model, _ = train(data=split.train, config=TrainConfig(k=3, alpha=1e-2, lam=5.0, iters=3, seed=1))
    report = evaluate(model, split, EvalConfig(cutoff=3, sample_users=1000, seed=0))
    assert math.isnan(report.pearson_rho)
    assert report.users_evaluated > 0
    assert 0.0 <= report.p_at_k <= 1.0 and 0.0 <= report.auc <= 1.0
    assert np.isfinite(report.test_loglik)
    assert "pearson_rho nan\n" in report.to_text()
    assert report.to_record()["pearson_rho"] is None
    # the metric function itself gives the same NaN
    assert math.isnan(pearson_rho(np.array([0.3, 0.7]), np.ones(2)))


def test_evaluate_one_heldout_entry_reports_nan_correlation():
    # one held-out entry: the correlation is undefined, precision and AUC are not
    split = SplitPair(train=toy_split().train, test=[(0, 3, 2.0)])
    report = evaluate(toy_model(), split, EvalConfig(cutoff=2, sample_users=100, seed=0))
    assert math.isnan(report.pearson_rho)
    assert (report.users_evaluated, report.users_skipped) == (1, 0)
    # user 0: scores [1,2,3,4], train {0}; top-2 eligible = items 3,2 with positive {3}
    assert report.p_at_k == 0.5 and report.auc == 1.0
    assert report.test_loglik == pytest.approx(-4.0 + 2.0 * math.log(4.0), rel=1e-15)
    assert report.to_record()["pearson_rho"] is None


def test_report_text_and_record():
    report = EvalReport(0.5, 0.25, 0.1, -3.5, 2, 1)
    lines = report.to_text().strip().split("\n")
    assert lines[0] == "p_at_k 0.500000"
    assert lines[1] == "auc 0.250000"
    assert lines[4] == "users_evaluated 2"
    record = report.to_record()
    assert record["auc"] == 0.25 and record["users_skipped"] == 1
    # one line per field, in declaration order, under the record's keys
    assert [line.split(" ")[0] for line in lines] == list(record) == [f.name for f in dataclasses.fields(EvalReport)]
    text = EvalReport(math.nan, math.inf, np.float64(0.1234567), -math.inf, 7, 0).to_text()
    assert text == (
        "p_at_k nan\nauc inf\npearson_rho 0.123457\ntest_loglik -inf\nusers_evaluated 7\nusers_skipped 0\n"
    )
    # a non-finite metric is None, so the record dumps as strict JSON
    record = EvalReport(0.5, math.nan, math.nan, -math.inf, 2, 1).to_record()
    assert record == {
        "p_at_k": 0.5, "auc": None, "pearson_rho": None, "test_loglik": None,
        "users_evaluated": 2, "users_skipped": 1,
    }


def test_eval_config_validation():
    for kwargs in ({"cutoff": 0}, {"sample_users": 0}, {"seed": -1}):
        with pytest.raises(ConfigError):
            EvalConfig(**kwargs)
