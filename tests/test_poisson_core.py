"""Loss, gradient, proximal operators, and the full objective.

Every derived quantity is checked against an independent oracle: the full
objective against a dense all-pairs enumeration, the gradient against central
finite differences, and the proximal operators against per-coordinate grid
refinement of their defining minimization problem.
"""

import math

import numpy as np
import pytest

import poisfact.poisson_core as core
from poisfact import (
    ClampStats,
    ConfigError,
    RegressionView,
    RegularizationSpec,
    SparseInteractions,
    full_objective,
    gradient_vector,
    objective_vector,
    poisson_loss_entry,
    prox_l1,
    prox_l2,
    prox_operator,
)


def dense_objective_oracle(A, B, X, reg):
    """O(m*n) enumeration of the training objective; no sum trick anywhere."""
    total = 0.0
    m, n = X.shape
    for u in range(m):
        for i in range(n):
            z = float(A[u] @ B[i])
            total += z
            if X[u, i] > 0:
                total -= X[u, i] * math.log(z)
    if reg.lam:
        if reg.kind == "l2":
            total += reg.lam * (float((A * A).sum()) + float((B * B).sum()))
        else:
            total += reg.lam * (float(np.abs(A).sum()) + float(np.abs(B).sum()))
    return total


def dense_vector_oracle(x, all_rows, all_counts, reg):
    """Per-vector objective enumerated over every fixed row, zero counts included."""
    total = 0.0
    for r, c in zip(all_rows, all_counts):
        z = float(r @ x)
        total += z
        if c > 0:
            total -= c * math.log(z)
    if reg.lam:
        total += reg.lam * (float(x @ x) if reg.kind == "l2" else float(np.abs(x).sum()))
    return total


def fd_gradient(view, h=1e-6):
    """Central finite differences of the smooth part -sum c*log(rows.x)."""

    def smooth(x):
        return -float(view.counts @ np.log(view.rows @ x))

    g = np.empty_like(view.x)
    for j in range(len(view.x)):
        step = np.zeros_like(view.x)
        step[j] = h
        g[j] = (smooth(view.x + step) - smooth(view.x - step)) / (2 * h)
    return g


def prox_oracle(y, alpha, s, lam, kind, zooms=9):
    """Per-coordinate grid refinement of min_{v>=0} (v-y)^2/(2a) + s*v + penalty."""

    def coord_objective(v, yj, sj):
        pen = lam * v * v if kind == "l2" else lam * v
        return (v - yj) ** 2 / (2 * alpha) + sj * v + pen

    out = np.empty_like(y)
    for j, (yj, sj) in enumerate(zip(y, s)):
        lo, hi = 0.0, abs(yj) + 1.0
        for _ in range(zooms):
            grid = np.linspace(lo, hi, 101)
            vals = [coord_objective(v, yj, sj) for v in grid]
            best = int(np.argmin(vals))
            lo = max(0.0, grid[max(best - 1, 0)])
            hi = grid[min(best + 1, 100)]
        out[j] = (lo + hi) / 2
    return out


def random_view(rng, k=4, q=6, zero_rows=5):
    """A per-vector problem embedded among zero-count rows, plus the dense view."""
    rows = rng.uniform(0.1, 2.0, size=(q, k))
    counts = rng.integers(1, 6, size=q).astype(float)
    silent = rng.uniform(0.1, 2.0, size=(zero_rows, k))
    all_rows = np.vstack([rows, silent])
    all_counts = np.concatenate([counts, np.zeros(zero_rows)])
    x = rng.uniform(0.1, 2.0, size=k)
    view = RegressionView(x=x, rows=rows, counts=counts, s=all_rows.sum(axis=0))
    return view, all_rows, all_counts


def random_instance(rng, max_side=25, k=3, density=0.15):
    m = int(rng.integers(2, max_side))
    n = int(rng.integers(2, max_side))
    X = (rng.random((m, n)) < density) * rng.integers(1, 8, size=(m, n))
    users, items = np.nonzero(X)
    data = SparseInteractions.from_entries(users, items, X[users, items].astype(float), m, n)
    A = rng.uniform(0.05, 1.5, size=(m, k))
    B = rng.uniform(0.05, 1.5, size=(n, k))
    return data, A, B, X.astype(float)


# ---------------------------------------------------------------- loss


def test_loss_entry_values():
    assert poisson_loss_entry(1.5, 0.0) == 1.5
    assert poisson_loss_entry(1.0, 1.0) == 1.0
    assert poisson_loss_entry(2.0, 2.0) == pytest.approx(2.0 - 2.0 * math.log(2.0), rel=1e-15)
    assert poisson_loss_entry(0.0, 0.0) == 0.0


def test_loss_entry_rejects_nonpositive_prediction_with_count():
    with pytest.raises(ValueError, match="<= 0"):
        poisson_loss_entry(0.0, 3.0)
    with pytest.raises(ValueError):
        poisson_loss_entry(-1.0, 1.0)


# ---------------------------------------------------------------- per-vector objective


def test_objective_vector_matches_dense_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(50):
        view, all_rows, all_counts = random_view(rng)
        for reg in (
            RegularizationSpec("l2", 0.0),
            RegularizationSpec("l2", 0.7),
            RegularizationSpec("l1", 0.3),
        ):
            got = objective_vector(view, reg)
            want = dense_vector_oracle(view.x, all_rows, all_counts, reg)
            assert got == pytest.approx(want, rel=1e-12)


def test_objective_vector_empty_counts_is_linear_term():
    x = np.array([1.0, 2.0])
    view = RegressionView(
        x=x, rows=np.zeros((0, 2)), counts=np.zeros(0), s=np.array([3.0, 0.5])
    )
    assert objective_vector(view, RegularizationSpec("l2", 0.0)) == 4.0
    assert objective_vector(view, RegularizationSpec("l2", 2.0)) == 4.0 + 2.0 * 5.0


def test_objective_vector_domain_and_clamp():
    view = RegressionView(
        x=np.zeros(2),
        rows=np.array([[1.0, 1.0]]),
        counts=np.array([2.0]),
        s=np.ones(2),
    )
    reg = RegularizationSpec("l2", 0.0)
    with pytest.raises(ValueError, match="nonpositive dot"):
        objective_vector(view, reg)
    stats = ClampStats()
    val = objective_vector(view, reg, clamp=True, stats=stats)
    assert np.isfinite(val)
    assert stats.clamped == 1


def test_objective_vector_is_convex_along_segments():
    rng = np.random.default_rng(22)
    reg = RegularizationSpec("l2", 0.4)
    for _ in range(50):
        view, _, _ = random_view(rng)
        x1 = rng.uniform(0.1, 2.0, size=4)
        x2 = rng.uniform(0.1, 2.0, size=4)
        t = float(rng.uniform(0.0, 1.0))
        mid = objective_vector(
            RegressionView(t * x1 + (1 - t) * x2, view.rows, view.counts, view.s), reg
        )
        ends = t * objective_vector(
            RegressionView(x1, view.rows, view.counts, view.s), reg
        ) + (1 - t) * objective_vector(
            RegressionView(x2, view.rows, view.counts, view.s), reg
        )
        assert mid <= ends + 1e-9


# ---------------------------------------------------------------- gradient


def test_gradient_single_datum_value():
    view = RegressionView(
        x=np.array([1.0, 1.0]),
        rows=np.array([[1.0, 1.0]]),
        counts=np.array([2.0]),
        s=np.ones(2),
    )
    assert np.allclose(gradient_vector(view), [-1.0, -1.0], rtol=0, atol=1e-15)


def test_gradient_empty_counts_is_zero():
    view = RegressionView(
        x=np.array([2.0]), rows=np.zeros((0, 1)), counts=np.zeros(0), s=np.array([1.0])
    )
    assert np.array_equal(gradient_vector(view), np.zeros(1))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(100):
        view, _, _ = random_view(rng, k=int(rng.integers(1, 6)), q=int(rng.integers(1, 9)))
        g = gradient_vector(view)
        fd = fd_gradient(view)
        assert np.all(np.abs(g - fd) <= 1e-6 * np.maximum(1.0, np.abs(g)))


def test_gradient_clamps_and_counts():
    view = RegressionView(
        x=np.zeros(3),
        rows=np.ones((4, 3)),
        counts=np.array([1.0, 2.0, 3.0, 4.0]),
        s=np.ones(3),
    )
    stats = ClampStats()
    g = gradient_vector(view, stats=stats)
    assert np.all(np.isfinite(g))
    assert stats.clamped == 4
    # all four dots clamp to the floor, so the pull is -(sum counts)/floor per axis
    assert g == pytest.approx(-(10.0 / core.DOT_FLOOR) * np.ones(3), rel=1e-12)


# ---------------------------------------------------------------- proximal operators


def test_prox_l2_known_values():
    x = np.array([-1.0, 3.0])
    assert np.array_equal(prox_l2(x, 0.5, np.zeros(2), 0.0), [0.0, 3.0])
    got = prox_l2(np.array([2.0, 0.2]), 0.5, np.array([1.0, 1.0]), 0.5)
    assert got == pytest.approx([1.0, 0.0], abs=1e-15)


def test_prox_l1_known_values():
    x = np.array([-0.5, 2.0])
    assert np.array_equal(prox_l1(x, 0.5, np.zeros(2), 0.0), [0.0, 2.0])
    got = prox_l1(np.array([1.0, 0.1]), 0.5, np.array([0.4, 0.4]), 0.2)
    assert got == pytest.approx([0.7, 0.0], abs=1e-15)
    # at or below the threshold the coordinate is exactly zero, not merely tiny
    assert prox_l1(np.array([0.3]), 1.0, np.array([0.1]), 0.2)[0] == 0.0


def test_prox_rejects_nonpositive_step():
    for bad in (0.0, -0.1):
        with pytest.raises(ValueError, match="positive"):
            prox_l2(np.ones(2), bad, np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="positive"):
            prox_l1(np.ones(2), bad, np.zeros(2), 0.0)


def test_prox_matches_grid_refinement_oracle():
    rng = np.random.default_rng(24)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        y = rng.uniform(-1.0, 2.0, size=k)
        s = rng.uniform(0.0, 1.5, size=k)
        alpha = float(rng.uniform(0.01, 1.0))
        lam = float(rng.uniform(0.0, 2.0))
        for kind, op in (("l2", prox_l2), ("l1", prox_l1)):
            got = op(y, alpha, s, lam)
            want = prox_oracle(y, alpha, s, lam, kind)
            assert np.all(np.abs(got - want) <= 1e-6)


def test_prox_block_matches_rowwise_application():
    rng = np.random.default_rng(25)
    block = rng.uniform(-1.0, 2.0, size=(32, 5))
    s = rng.uniform(0.0, 1.0, size=5)
    for op, lam in ((prox_l2, 0.8), (prox_l1, 0.3)):
        whole = op(block, 0.05, s, lam)
        rowwise = np.vstack([op(block[r], 0.05, s, lam) for r in range(32)])
        assert np.array_equal(whole, rowwise)


def test_prox_operator_dispatch():
    x = np.array([1.0, 0.1])
    s = np.array([0.4, 0.4])
    assert np.array_equal(
        prox_operator(x, 0.5, s, RegularizationSpec("l1", 0.2)), prox_l1(x, 0.5, s, 0.2)
    )
    assert np.array_equal(
        prox_operator(x, 0.5, s, RegularizationSpec("l2", 0.2)), prox_l2(x, 0.5, s, 0.2)
    )


def test_regularization_spec_validation():
    with pytest.raises(ConfigError, match="kind"):
        RegularizationSpec("ridge", 1.0)
    with pytest.raises(ConfigError, match=">= 0"):
        RegularizationSpec("l2", -1.0)
    with pytest.raises(ConfigError):
        RegularizationSpec("l2", float("nan"))


# ---------------------------------------------------------------- full objective


def test_full_objective_no_entries_is_prediction_mass():
    data = SparseInteractions.from_entries([], [], [], 2, 2)
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    B = np.array([[1.0, 1.0], [2.0, 0.0]])
    assert full_objective(data, A, B, RegularizationSpec("l2", 0.0)) == 4.0


def test_full_objective_zero_factors():
    data = SparseInteractions.from_entries([], [], [], 3, 2)
    A, B = np.zeros((3, 2)), np.zeros((2, 2))
    assert full_objective(data, A, B, RegularizationSpec("l2", 5.0)) == 0.0


def test_full_objective_matches_dense_oracle():
    rng = np.random.default_rng(26)
    for _ in range(30):
        data, A, B, X = random_instance(rng)
        for reg in (
            RegularizationSpec("l2", 0.0),
            RegularizationSpec("l2", 1.3),
            RegularizationSpec("l1", 0.6),
        ):
            got = full_objective(data, A, B, reg)
            want = dense_objective_oracle(A, B, X, reg)
            assert got == pytest.approx(want, rel=1e-10)


def test_full_objective_chunking_is_value_stable(monkeypatch):
    rng = np.random.default_rng(27)
    data, A, B, _ = random_instance(rng, max_side=20, density=0.4)
    reg = RegularizationSpec("l2", 0.5)
    whole = full_objective(data, A, B, reg)
    monkeypatch.setattr(core, "_CHUNK", 7)
    chunked = full_objective(data, A, B, reg)
    assert chunked == pytest.approx(whole, rel=1e-12)


def test_full_objective_spanning_several_chunks_matches_dense_oracle():
    rng = np.random.default_rng(29)
    m, n, k = 150, 130, 3
    X = (rng.random((m, n)) < 0.95) * rng.integers(1, 8, size=(m, n)).astype(float)
    users, items = np.nonzero(X)
    data = SparseInteractions.from_entries(users, items, X[users, items], m, n)
    assert data.nnz > 2 * core._CHUNK
    A = rng.uniform(0.05, 1.5, size=(m, k))
    B = rng.uniform(0.05, 1.5, size=(n, k))
    for reg in (RegularizationSpec("l2", 0.7), RegularizationSpec("l1", 0.4)):
        got = full_objective(data, A, B, reg)
        assert got == pytest.approx(dense_objective_oracle(A, B, X, reg), rel=1e-10)


def test_full_objective_counts_clamps():
    data = SparseInteractions.from_entries([0, 1], [0, 1], [2.0, 3.0], 2, 2)
    A = np.array([[0.0, 0.0], [1.0, 1.0]])  # user 0 predicts 0 at a positive count
    B = np.ones((2, 2))
    stats = ClampStats()
    val = full_objective(data, A, B, RegularizationSpec("l2", 0.0), stats=stats)
    assert np.isfinite(val)
    assert stats.clamped == 1


def test_prediction_mass_identity():
    # the structural shortcut: sum of all m*n dot products equals s_A . s_B
    rng = np.random.default_rng(28)
    for _ in range(50):
        m, n, k = rng.integers(2, 30), rng.integers(2, 30), rng.integers(1, 6)
        A = rng.uniform(0.0, 2.0, size=(m, k))
        B = rng.uniform(0.0, 2.0, size=(n, k))
        trick = float(A.sum(axis=0) @ B.sum(axis=0))
        dense = float((A @ B.T).sum())
        assert trick == pytest.approx(dense, rel=1e-12)
