"""Reference computations made apart from the program, and their self-test.

Nothing here imports poisfact: each function recomputes from first principles
what the benchmark checks the program's outputs against.
"""

from __future__ import annotations

import numpy as np

from inputs import first_appearance, merge_entries

# Same floor as the program's objective uses on dot products.
DOT_FLOOR = 1e-12


def csr_rows(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def sum_trick_objective(indptr, indices, data, A, B, lam: float) -> float:
    """s_A·s_B − Σ x·log(max(a_u·b_i, floor)) + λ(‖A‖² + ‖B‖²)."""
    users = csr_rows(indptr)
    dots = np.maximum(np.einsum("ij,ij->i", A[users], B[indices]), DOT_FLOOR)
    total = float(A.sum(axis=0) @ B.sum(axis=0)) - float(data @ np.log(dots))
    return total + lam * (float((A * A).sum()) + float((B * B).sum()))


def dense_objective(X: np.ndarray, A: np.ndarray, B: np.ndarray, lam: float) -> float:
    """The same objective summed over every cell; for the self-test only."""
    Z = A @ B.T
    pos = X > 0
    return float(Z.sum() - (X[pos] * np.log(np.maximum(Z[pos], DOT_FLOOR))).sum()) + lam * (
        float((A * A).sum()) + float((B * B).sum())
    )


def proxgrad_trajectory(indptr, indices, data, m, n, k, seed, alpha, lam, iters) -> list[float]:
    """Whole-matrix proximal-gradient fit; the objective after each iteration.

    Starts from Gamma(1, 1) factors drawn A first, then B, from one seeded
    generator. Each half-iteration applies, to every row at once,
    x ← max(0, (x − α(s − Σ c/dot · b)) / (2λα + 1)) with the dots floored
    like the program's, and α halves after each iteration.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_exponential((m, k))
    B = rng.standard_exponential((n, k))
    users = csr_rows(indptr)
    by_item = np.lexsort((users, indices))  # the same entries in item-major order
    user_half = (users, indices, data, *np.unique(users, return_index=True))
    item_half = (indices[by_item], users[by_item], data[by_item],
                 *np.unique(indices[by_item], return_index=True))
    trace = []
    for _ in range(iters):
        A = _prox_half(A, B, *user_half, alpha, lam)
        B = _prox_half(B, A, *item_half, alpha, lam)
        alpha *= 0.5
        trace.append(sum_trick_objective(indptr, indices, data, A, B, lam))
    return trace


def _prox_half(X, F, rows, cols, counts, present, starts, alpha, lam):
    """One step for every row of X; entries are grouped by ascending row."""
    ratio = counts / np.maximum(np.einsum("ij,ij->i", X[rows], F[cols]), DOT_FLOOR)
    pull = np.zeros_like(X)
    pull[present] = np.add.reduceat(ratio[:, None] * F[cols], starts, axis=0)
    return np.maximum(0.0, (X - alpha * (F.sum(axis=0) - pull)) / (2.0 * lam * alpha + 1.0))


def pairwise_auc(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Share of (positive, negative) pairs ranked right, ties worth a half."""
    diff = pos_scores[:, None] - neg_scores[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def top_n(scores: np.ndarray, history: np.ndarray, n: int) -> np.ndarray:
    """Best n items outside the history: score descending, then item ascending."""
    eligible = np.setdiff1d(np.arange(len(scores)), history)
    order = np.lexsort((eligible, -scores[eligible]))
    return eligible[order[:n]]


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    dx, dy = x - x.mean(), y - y.mean()
    return float((dx @ dy) / np.sqrt((dx @ dx) * (dy @ dy)))


def poisson_loglik(pred: np.ndarray, counts: np.ndarray) -> float:
    return float(-pred.sum() + counts @ np.log(np.maximum(pred, DOT_FLOOR)))


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def self_test() -> list[str]:
    """Check the reference functions on tiny inputs with known answers."""
    failures = []
    rng = np.random.default_rng(7)
    X = rng.poisson(1.0, (6, 5)).astype(float)
    A, B = rng.standard_exponential((6, 3)), rng.standard_exponential((5, 3))
    rows, cols = np.nonzero(X)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=6))])
    if not close(sum_trick_objective(indptr, cols, X[rows, cols], A, B, 0.3),
                 dense_objective(X, A, B, 0.3), 1e-12):
        failures.append("sum-trick objective differs from the dense objective")

    # One whole-matrix step against the per-row formula written out.
    alpha, lam = 0.01, 2.0
    A0 = np.random.default_rng(3).standard_exponential((6, 3))
    B0 = np.random.default_rng(3).standard_exponential((11, 3))[6:]
    want = A0.copy()
    for u in range(6):
        g = B0.sum(axis=0) - sum(X[u, i] / (A0[u] @ B0[i]) * B0[i] for i in np.flatnonzero(X[u]))
        want[u] = np.maximum(0.0, (A0[u] - alpha * g) / (2 * lam * alpha + 1))
    got = _prox_half(A0, B0, rows, cols, X[rows, cols], *np.unique(rows, return_index=True), alpha, lam)
    if not np.allclose(got, want, rtol=1e-13, atol=0):
        failures.append("whole-matrix proximal step differs from the per-row formula")

    if pairwise_auc(np.array([3.0, 1.0]), np.array([1.0, 0.0, 2.0])) != 4.5 / 6:
        failures.append("pairwise AUC wrong on a tie")
    if top_n(np.array([1.0, 5.0, 5.0, 2.0, 5.0]), np.array([2]), 3).tolist() != [1, 4, 3]:
        failures.append("top-n ignores history or the item-order tie-break")
    if not close(pearson(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 7.0])), 5 / np.sqrt(2 * 38 / 3), 1e-12):
        failures.append("pearson wrong")
    if not close(poisson_loglik(np.array([2.0, 0.5]), np.array([1.0, 3.0])),
                 -2.5 + np.log(2.0) + 3 * np.log(0.5), 1e-12):
        failures.append("poisson log-likelihood wrong")

    ptr, idx, val = merge_entries(np.array([1, 0, 1, 1]), np.array([2, 1, 2, 0]),
                                  np.array([1.0, 2.0, 3.0, 4.0]), 2, 3)
    if ptr.tolist() != [0, 1, 3] or idx.tolist() != [1, 0, 2] or val.tolist() != [2.0, 4.0, 4.0]:
        failures.append("duplicate merge wrong")
    if first_appearance(np.array([5, 3, 5, 9, 3])).tolist() != [5, 3, 9]:
        failures.append("first-appearance order wrong")
    return failures
