"""Alternating training loop: schedule, determinism, diagnostics, failure paths.

The loop itself is pinned by a manual re-implementation of one and two
iterations built from the public per-vector primitives; the trained matrices
must match it bit for bit, which fixes the update order (users against the
frozen item matrix, then items against the fresh user matrix) and the
halved-step schedule. CG training is also held against a manual loop over
the row-at-a-time reference CG of the solver tests.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from test_vector_solvers import reference_cg

import poisfact.sparse_data as sparse_data
import poisfact.trainer as trainer_module
import poisfact.vector_solvers as vector_solvers
from poisfact import (
    ClampStats,
    ConfigError,
    DataError,
    DegenerateModelError,
    FactorModel,
    NumericFailureError,
    RegressionView,
    SolverChoice,
    SparseInteractions,
    TrainConfig,
    conj_grad_update,
    full_objective,
    init_factors,
    prox_grad_update,
    split_train_test,
    train,
)
from poisfact.sparse_data import row_entries


def random_data(rng, m=12, n=9, density=0.3):
    X = (rng.random((m, n)) < density) * rng.integers(1, 7, size=(m, n))
    users, items = np.nonzero(X)
    if len(users) == 0:
        X[0, 0] = 1
        users, items = np.nonzero(X)
    return SparseInteractions.from_entries(users, items, X[users, items].astype(float), m, n)


def columns(data):
    """Users and counts of each item, from a column view built here from the CSR."""
    csc = data.csr.tocsc()
    return [(csc.indices[lo:hi], csc.data[lo:hi]) for lo, hi in zip(csc.indptr[:-1], csc.indptr[1:])]


def manual_proxgrad(data, config):
    """Reference loop: same primitives, plain Python, sequential rows."""
    model = init_factors(data.m, data.n, config.k, config.seed)
    A, B = model.A, model.B
    reg = config.regularization
    tau = config.solver.tau
    alpha = config.alpha
    for _ in range(config.iters):
        s_b = B.sum(axis=0)
        for u in range(data.m):
            items, counts = data.row(u)
            view = RegressionView(x=A[u], rows=B[items], counts=counts, s=s_b)
            A[u] = prox_grad_update(A[u], view, alpha, reg, tau)
        s_a = A.sum(axis=0)
        for i, (users, counts) in enumerate(columns(data)):
            view = RegressionView(x=B[i], rows=A[users], counts=counts, s=s_a)
            B[i] = prox_grad_update(B[i], view, alpha, reg, tau)
        alpha *= 0.5
    return A, B


# ---------------------------------------------------------------- initialization


def test_init_factors_positive_and_deterministic():
    a = init_factors(5, 4, 3, seed=7)
    b = init_factors(5, 4, 3, seed=7)
    c = init_factors(5, 4, 3, seed=8)
    assert a.A.shape == (5, 3) and a.B.shape == (4, 3) and a.k == 3
    assert a.A.min() > 0 and a.B.min() > 0
    assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)
    assert not np.array_equal(a.A, c.A)


def test_init_factors_unit_mean():
    # standard-exponential entries: one million draws average to 1 +- 0.01
    model = init_factors(1000, 1000, 500, seed=11)
    mean = float(np.concatenate([model.A.ravel(), model.B.ravel()]).mean())
    assert 0.99 <= mean <= 1.01


def test_init_factors_validates_dimensions():
    with pytest.raises(ConfigError):
        init_factors(0, 3, 2, seed=0)


def test_factor_model_validates_shapes():
    with pytest.raises(ValueError, match="k columns"):
        FactorModel(np.ones((3, 2)), np.ones((4, 3)), 2)
    with pytest.raises(ValueError, match="two-dimensional"):
        FactorModel(np.ones(3), np.ones((4, 2)), 2)


# ---------------------------------------------------------------- schedule


def test_train_matches_manual_loop_one_iteration():
    rng = np.random.default_rng(51)
    data = random_data(rng)
    config = TrainConfig(k=3, alpha=1e-2, lam=5.0, iters=1, seed=3)
    model, _ = train(data, config)
    A_ref, B_ref = manual_proxgrad(data, config)
    assert np.array_equal(model.A, A_ref)
    assert np.array_equal(model.B, B_ref)


def test_train_matches_manual_loop_two_iterations_halved_step():
    rng = np.random.default_rng(52)
    data = random_data(rng, m=10, n=14)
    config = TrainConfig(
        k=2, alpha=2e-2, lam=1.0, iters=2, seed=9, solver=SolverChoice(tau=3)
    )
    model, _ = train(data, config)
    A_ref, B_ref = manual_proxgrad(data, config)
    assert np.array_equal(model.A, A_ref)
    assert np.array_equal(model.B, B_ref)


def test_train_matches_manual_loop_l1():
    rng = np.random.default_rng(53)
    data = random_data(rng)
    config = TrainConfig(k=3, alpha=1e-2, lam=0.5, iters=2, reg="l1", seed=4)
    model, _ = train(data, config)
    A_ref, B_ref = manual_proxgrad(data, config)
    assert np.array_equal(model.A, A_ref)
    assert np.array_equal(model.B, B_ref)


def test_train_cold_rows_take_the_shrink_path():
    # rows 6.. and columns 5.. hold no entries; they must decay sharply and
    # stay out of the zero-row diagnostics
    rng = np.random.default_rng(54)
    dense = random_data(rng, m=6, n=5, density=0.8)
    users, items, counts = dense.entries()
    data = SparseInteractions.from_entries(users, items, counts, 10, 9)
    config = TrainConfig(k=3, alpha=1e-2, lam=100.0, iters=10, seed=5)
    model, report = train(data, config)
    init = init_factors(data.m, data.n, config.k, config.seed)
    # each iteration divides cold rows by (1 + 2*lam*alpha_t) before the
    # linear pull; the halved-step schedule caps the total decay factor
    shrink = np.prod([1.0 + 2.0 * config.lam * config.alpha / 2**t for t in range(10)])
    assert np.all(model.A[6:] <= init.A[6:] / shrink + 1e-15)
    assert np.all(model.B[5:] <= init.B[5:] / shrink + 1e-15)
    assert report.zero_rows_a == 0 and report.zero_rows_b == 0
    # manual loop covers cold rows too: the shrink path is the same operator
    A_ref, B_ref = manual_proxgrad(data, config)
    assert np.array_equal(model.A, A_ref)
    assert np.array_equal(model.B, B_ref)


@pytest.mark.parametrize("tau", [1, 3])
def test_train_clamp_events_match_per_row_tally(tau):
    # a heavy l1 step zeroes rows whose dots then clamp: in the next half,
    # in the objective, and in the user step that reuses the objective's dots
    rng = np.random.default_rng(0)
    data = random_data(rng, m=20, n=15, density=0.3)
    config = TrainConfig(
        k=3, alpha=0.2, lam=1.0, iters=4, reg="l1", seed=0, solver=SolverChoice(tau=tau)
    )
    model, report = train(data, config)
    init = init_factors(data.m, data.n, config.k, config.seed)
    A, B = init.A, init.B
    reg = config.regularization
    alpha = config.alpha
    stats = ClampStats()
    objective_clamps = []
    for _ in range(config.iters):
        s_b = B.sum(axis=0)
        for u in range(data.m):
            items, counts = data.row(u)
            view = RegressionView(x=A[u], rows=B[items], counts=counts, s=s_b)
            A[u] = prox_grad_update(A[u], view, alpha, reg, tau, stats=stats)
        s_a = A.sum(axis=0)
        for i, (users, counts) in enumerate(columns(data)):
            view = RegressionView(x=B[i], rows=A[users], counts=counts, s=s_a)
            B[i] = prox_grad_update(B[i], view, alpha, reg, tau, stats=stats)
        alpha *= 0.5
        before = stats.clamped
        full_objective(data, A, B, reg, stats=stats)
        objective_clamps.append(stats.clamped - before)
    assert any(objective_clamps[:-1])  # some reused dots do clamp
    assert report.clamp_events == stats.clamped
    assert np.array_equal(model.A, A) and np.array_equal(model.B, B)


def manual_cg(data, config, update):
    """Reference CG loop: one row at a time by ``update``; returns A, B, clamps."""
    model = init_factors(data.m, data.n, config.k, config.seed)
    A, B = model.A, model.B
    reg = config.regularization
    updates = config.solver.max_updates
    stats = ClampStats()
    for _ in range(config.iters):
        s_b = B.sum(axis=0)
        for u in range(data.m):
            items, counts = data.row(u)
            view = RegressionView(x=A[u], rows=B[items], counts=counts, s=s_b)
            A[u] = update(A[u], view, reg, updates, stats=stats)
        s_a = A.sum(axis=0)
        for i, (users, counts) in enumerate(columns(data)):
            view = RegressionView(x=B[i], rows=A[users], counts=counts, s=s_a)
            B[i] = update(B[i], view, reg, updates, stats=stats)
        full_objective(data, A, B, reg, stats=stats)
    return A, B, stats.clamped


def collapsing_data():
    # a wide catalogue with sparse rows: the large s.x at the start collapses
    # some rows with entries to zero under CG
    rng = np.random.default_rng(61)
    return random_data(rng, m=60, n=120, density=0.04)


CG_CONFIG = TrainConfig(
    k=4, lam=0.0, iters=3, seed=5, solver=SolverChoice(method="cg", max_updates=5)
)


def test_train_cg_is_per_row_cg_bit_for_bit():
    data = collapsing_data()
    model, report = train(data, CG_CONFIG)
    A, B, clamped = manual_cg(data, CG_CONFIG, conj_grad_update)
    assert np.array_equal(model.A, A) and np.array_equal(model.B, B)
    assert report.clamp_events == clamped > 0
    assert report.zero_rows_a > 0  # the instance does collapse rows


def test_train_cg_matches_reference_loop():
    data = collapsing_data()
    model, report = train(data, CG_CONFIG)
    A, B, clamped = manual_cg(data, CG_CONFIG, reference_cg)
    np.testing.assert_allclose(model.A, A, rtol=1e-10, atol=1e-10 * np.abs(A).max())
    np.testing.assert_allclose(model.B, B, rtol=1e-10, atol=1e-10 * np.abs(B).max())
    assert np.array_equal((model.A == 0).all(axis=1), (A == 0).all(axis=1))
    assert np.array_equal((model.B == 0).all(axis=1), (B == 0).all(axis=1))
    assert report.clamp_events == clamped


# ---------------------------------------------------------------- determinism


def test_train_bit_identical_across_runs():
    rng = np.random.default_rng(55)
    data = random_data(rng, m=40, n=30, density=0.2)
    config = TrainConfig(k=4, alpha=1e-2, lam=2.0, iters=3, seed=1)
    base_model, base_report = train(data, config)
    for _ in range(3):
        model, report = train(data, config)
        assert np.array_equal(model.A, base_model.A)
        assert np.array_equal(model.B, base_model.B)
        assert report.objective_trace == base_report.objective_trace


def test_train_cg_bit_identical_across_runs():
    rng = np.random.default_rng(56)
    data = random_data(rng, m=25, n=20, density=0.25)
    config = TrainConfig(
        k=3, lam=0.0, iters=2, seed=2, solver=SolverChoice(method="cg", max_updates=4)
    )
    base, base_report = train(data, config)
    redo, redo_report = train(data, config)
    assert np.array_equal(base.A, redo.A)
    assert np.array_equal(base.B, redo.B)
    assert redo_report.objective_trace == base_report.objective_trace


# ---------------------------------------------------------------- behavior


def test_train_cg_fits_single_cell_exactly():
    data = SparseInteractions.from_entries([0], [0], [1.0], 1, 1)
    config = TrainConfig(
        k=1, lam=0.0, iters=4, seed=6, solver=SolverChoice(method="cg", max_updates=30)
    )
    model, report = train(data, config)
    assert float(model.A[0] @ model.B[0]) == pytest.approx(1.0, rel=1e-6)
    # once the prediction matches the count the loop is stationary
    assert report.objective_trace[-1] == pytest.approx(report.objective_trace[1], abs=1e-9)


def test_train_cg_objective_never_increases():
    rng = np.random.default_rng(57)
    data = random_data(rng, m=15, n=12)
    config = TrainConfig(k=3, lam=0.0, iters=5, seed=3, solver=SolverChoice(method="cg"))
    _, report = train(data, config)
    trace = report.objective_trace
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_train_progress_hook_sees_every_iteration():
    rng = np.random.default_rng(59)
    data = random_data(rng)
    seen = []
    config = TrainConfig(k=2, alpha=1e-2, lam=1.0, iters=4, seed=1)
    model, report = train(data, config, progress=lambda t, obj, sec: seen.append((t, obj, sec)))
    assert [t for t, _, _ in seen] == [0, 1, 2, 3]
    assert [obj for _, obj, _ in seen] == report.objective_trace
    assert all(sec >= 0 for _, _, sec in seen)
    assert len(report.iteration_seconds) == 4
    assert report.iterations == 4
    # the last objective reported is that of the returned model
    direct = full_objective(data, model.A, model.B, config.regularization)
    assert report.final_objective == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("solver", [SolverChoice(), SolverChoice(method="cg", max_updates=3)])
def test_train_reports_seconds_per_phase(solver):
    rng = np.random.default_rng(60)
    data = random_data(rng)
    config = TrainConfig(k=2, alpha=1e-2, lam=1.0, iters=3, seed=1, solver=solver)
    _, report = train(data, config)
    phases = (report.user_seconds, report.item_seconds, report.objective_seconds)
    for seconds in phases:
        assert len(seconds) == report.iterations == 3
        assert all(sec >= 0 for sec in seconds)
    for t, total in enumerate(report.iteration_seconds):
        assert sum(seconds[t] for seconds in phases) <= total


@pytest.mark.parametrize("solver", [SolverChoice(), SolverChoice(method="cg", max_updates=3)])
def test_train_builds_each_row_index_once(monkeypatch, solver):
    built = []

    def counting(indptr, rows=None):
        if rows is None:  # a whole matrix's row index, not a subset's
            built.append(indptr)
        return row_entries(indptr, rows)

    def refuse(matrix, copy=False):
        raise AssertionError("built a column view")

    # built before the guards: from_entries may group entries through a column view
    data = random_data(np.random.default_rng(61), m=40, n=30)
    monkeypatch.setattr(sparse_data, "row_entries", counting)
    # the item halves read the CSR's transpose: no item-major copy, either way round
    monkeypatch.setattr(sp.csr_matrix, "tocsc", refuse)
    monkeypatch.setattr(sp.csc_matrix, "tocsr", refuse)
    split = split_train_test(data, 0.2, 1, seed=3)
    assert not {"user_rows", "csc"} & vars(data).keys()  # split only
    built.clear()
    config = TrainConfig(k=2, alpha=1e-2, lam=1.0, iters=3, seed=1, solver=solver)
    train(split.train, config)
    assert "csc" not in vars(split.train)
    assert [id(indptr) for indptr in built] == [id(split.train.csr.indptr)]  # user_rows, once
    rows, view = split.train.user_rows, split.train.csr
    assert rows.dtype == view.indptr.dtype and not rows.flags.writeable
    assert np.array_equal(rows, np.repeat(np.arange(len(view.indptr) - 1), np.diff(view.indptr)))


# ---------------------------------------------------------------- failure paths


def test_train_empty_data_rejected():
    empty = SparseInteractions.from_entries([], [], [], 3, 3)
    with pytest.raises(DataError, match="no entries"):
        train(empty, TrainConfig(k=2, iters=1))


def test_train_numeric_failure_names_iteration():
    # a single astronomically large count overflows the first gradient step
    data = SparseInteractions.from_entries([0], [0], [1e308], 1, 1)
    config = TrainConfig(k=1, alpha=1e3, lam=0.0, iters=3, seed=0)
    with np.errstate(all="ignore"), pytest.raises(
        NumericFailureError, match=r"iteration 0"
    ) as err:
        train(data, config)
    assert "alpha" in str(err.value)


def test_train_numeric_failure_names_half_and_row():
    # only user 1's huge count overflows; user 0 stays finite
    data = SparseInteractions.from_entries([0, 1], [0, 0], [1.0, 1e308], 2, 1)
    config = TrainConfig(k=1, alpha=1e3, lam=0.0, iters=2, seed=0)
    with np.errstate(all="ignore"), pytest.raises(
        NumericFailureError, match=r"iteration 0: non-finite factors in user row 1"
    ):
        train(data, config)


def test_train_numeric_failure_names_item_half_and_row(monkeypatch):
    # item row 2 turns NaN in the item half of iteration 1; m != n, so the
    # two halves' matrices cannot be mixed up
    data = random_data(np.random.default_rng(62), m=7, n=5)
    halves = []

    def poisoning(counts, rows, cols, X, *args, **kwargs):
        out = vector_solvers.prox_grad_matrix(counts, rows, cols, X, *args, **kwargs)
        halves.append(len(X))
        if len(halves) == 4:
            out[2, 1] = np.nan
        return out

    monkeypatch.setattr(trainer_module, "prox_grad_matrix", poisoning)
    config = TrainConfig(k=2, alpha=1e-2, lam=1.0, iters=3, seed=0)
    with pytest.raises(NumericFailureError) as err:
        train(data, config)
    assert halves == [7, 5, 7, 5]
    message = str(err.value)
    assert "training failed at iteration 1: non-finite factors in item row 2" in message
    assert "smaller step size (alpha)" in message and "regularization (lambda)" in message


def test_train_degenerate_model_rejected():
    # an l1 penalty far above every count zeroes both matrices immediately
    rng = np.random.default_rng(60)
    data = random_data(rng, m=6, n=5, density=0.5)
    config = TrainConfig(k=2, alpha=1.0, lam=1e6, iters=1, reg="l1", seed=2)
    with pytest.raises(DegenerateModelError, match="all-zero"):
        train(data, config)


def test_train_degenerate_model_raised_at_the_collapsing_iteration():
    # the user half zeroes A at iteration 0 and the item half, with A zero,
    # zeroes B: a fixed point, so training stops there instead of running
    # the remaining iterations, and names both possible causes
    rng = np.random.default_rng(60)
    data = random_data(rng, m=6, n=5, density=0.5)
    config = TrainConfig(k=2, alpha=1.0, lam=1e6, iters=5, reg="l1", seed=2)
    calls = []
    with pytest.raises(DegenerateModelError, match="iteration 0: both factor matrices are all-zero after its item half") as err:
        train(data, config, progress=lambda *args: calls.append(args))
    assert calls == []
    message = str(err.value)
    assert "training failed" not in message  # not re-wrapped as a plain numeric failure
    assert "lambda" in message and "smaller step size (alpha)" in message
    assert "enlarge" not in message


def test_train_ending_on_an_all_zero_matrix_is_rejected():
    # a single all-zero matrix is judged after the last iteration: the item
    # half of iteration 1 zeroes B while A stays nonzero
    rng = np.random.default_rng(0)
    data = random_data(rng, m=20, n=15, density=0.3)
    config = TrainConfig(k=3, alpha=0.2, lam=1.0, iters=2, reg="l1", seed=0, solver=SolverChoice(tau=1))
    calls = []
    with pytest.raises(DegenerateModelError, match="all-zero factor matrix") as err:
        train(data, config, progress=lambda *args: calls.append(args))
    assert [c[0] for c in calls] == [0, 1]
    assert "smaller step size (alpha)" in str(err.value) and "enlarge" not in str(err.value)


def test_train_config_validation():
    for kwargs in (
        {"k": 0},
        {"alpha": 0.0},
        {"alpha": -1e-3},
        {"lam": -1.0},
        {"lam": float("inf")},
        {"lam": float("inf"), "reg": "l1"},
        {"alpha": float("inf")},
        {"iters": 0},
        {"reg": "ridge"},
        {"seed": -5},
    ):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


def test_train_config_takes_unset_lambda_and_iters_from_its_solver():
    cg = SolverChoice(method="cg")

    def resolved(**kwargs):
        config = TrainConfig(**kwargs)
        return config.lam, config.iters

    assert resolved() == (1e9, 10)
    assert resolved(solver=cg) == (0.0, 30)
    # explicit values win for either solver
    assert resolved(lam=0.0) == (0.0, 10)
    assert resolved(iters=3) == (1e9, 3)
    assert resolved(solver=cg, iters=1) == (0.0, 1)
    assert resolved(solver=cg, lam=2.5) == (2.5, 30)
    # a replaced solver keeps the values already resolved
    swapped = replace(TrainConfig(), solver=cg)
    assert (swapped.lam, swapped.iters) == (1e9, 10)
