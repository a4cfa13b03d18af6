"""Ranking metrics, pooled metrics, and the evaluation protocol.

AUC is checked against explicit pair counting, precision against an explicit
top-k selection, the correlation against a two-pass implementation, and the
protocol against a three-user split small enough to rank by hand.
"""

import math

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
    precision_at_k,
    score_user,
    split_train_test,
    train,
)

# the package name test_loglik would be collected as a test; alias it
from poisfact import test_loglik as heldout_loglik
from poisfact.evaluator import top_n_unseen


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


# ---------------------------------------------------------------- auc


def test_auc_known_value():
    scores = np.array([0.9, 0.4, 0.5, 0.1])
    positive = np.array([True, True, False, False])
    assert auc_user(scores, positive) == pytest.approx(0.75)


def test_auc_extremes():
    assert auc_user(np.array([2.0, 3.0, 1.0]), np.array([True, True, False])) == 1.0
    assert auc_user(np.array([1.0, 1.0, 1.0]), np.array([True, False, False])) == 0.5


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


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(63)
    scores = rng.random(25)
    positive = rng.random(25) < 0.5
    positive[0], positive[1] = True, False
    assert auc_user(scores, positive) == auc_user(3.0 * np.exp(scores) + 7.0, positive)


def test_auc_requires_both_classes():
    with pytest.raises(ValueError, match="positive and .* negative"):
        auc_user(np.array([1.0, 2.0]), np.array([True, True]))


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
    with pytest.raises(EvaluationError, match="zero variance"):
        pearson_rho(np.ones(4), np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValueError):
        pearson_rho(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError):
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
    p_vals, auc_vals = [], []
    for u in sorted({u for u, _, _ in split.test}):
        positives = np.array(sorted(i for uu, i, _ in split.test if uu == u))
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
    assert {x for _, _, x in split.test} == {1.0}
    model, _ = train(data=split.train, config=TrainConfig(k=3, alpha=1e-2, lam=5.0, iters=3, seed=1))
    report = evaluate(model, split, EvalConfig(cutoff=3, sample_users=1000, seed=0))
    assert math.isnan(report.pearson_rho)
    assert report.users_evaluated > 0
    assert 0.0 <= report.p_at_k <= 1.0 and 0.0 <= report.auc <= 1.0
    assert np.isfinite(report.test_loglik)
    assert "pearson_rho nan\n" in report.to_text()
    assert report.to_record()["pearson_rho"] is None
    # the metric function itself still refuses
    with pytest.raises(EvaluationError, match="zero variance"):
        pearson_rho(np.array([0.3, 0.7]), np.ones(2))


def test_report_text_and_record():
    report = EvalReport(0.5, 0.25, 0.1, -3.5, 2, 1)
    lines = report.to_text().strip().split("\n")
    assert lines[0] == "p_at_k 0.500000"
    assert lines[1] == "auc 0.250000"
    assert lines[4] == "users_evaluated 2"
    record = report.to_record()
    assert record["auc"] == 0.25 and record["users_skipped"] == 1


def test_eval_config_validation():
    for kwargs in ({"cutoff": 0}, {"sample_users": 0}, {"seed": -1}):
        with pytest.raises(ConfigError):
            EvalConfig(**kwargs)
