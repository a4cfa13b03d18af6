"""Per-vector solvers: proximal-gradient steps and the nonnegative CG solver.

The CG solver is checked against an independent generic constrained
minimizer (bounded L-BFGS-B) on the same per-vector objective, and the
lockstep whole-matrix CG against a row-at-a-time reference built from the
per-vector objective and gradient; the proximal-gradient update against
closed-form fixed points and step bounds, and the whole-matrix
proximal-gradient step against rows built from the per-vector gradient and
prox.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize

import poisfact.vector_solvers as vector_solvers
from poisfact import (
    ClampStats,
    ConfigError,
    NumericFailureError,
    RegressionView,
    RegularizationSpec,
    SolverChoice,
    conj_grad_update,
    gradient_vector,
    objective_vector,
    prox_grad_update,
    prox_operator,
)
from poisfact.poisson_core import DOT_FLOOR, entry_dots
from poisfact.sparse_data import row_entries
from poisfact.vector_solvers import _ratio_times, conj_grad_matrix, prox_grad_matrix


def joint_objective(x, view, reg):
    """Full per-vector objective including linear term and penalty, clamped."""
    return objective_vector(replace(view, x=np.asarray(x)), reg, clamp=True)


def reference_cg(x, view, reg, max_updates=5, stats=None):
    """Nonnegative Polak-Ribiere CG with projected Armijo backtracking, one row.

    A plain per-row formulation of the solver, built from the public
    objective_vector and gradient_vector; constants as in vector_solvers.
    The gradient is only taken at a point whose objective was just
    evaluated, so only the objective counts clamps into ``stats``: each
    point's clamps count once.
    """

    def objective(x):
        return objective_vector(replace(view, x=x), reg, clamp=True, stats=stats)

    def gradient(x):
        g = view.s + gradient_vector(replace(view, x=x))
        if reg.lam != 0.0:
            g = g + (2.0 * reg.lam * x if reg.kind == "l2" else reg.lam)
        return g

    x = np.array(x, dtype=np.float64, copy=True)
    fx, g = objective(x), gradient(x)
    d = g_free_prev = active_prev = None
    step = 1.0 / (1.0 + float(np.linalg.norm(g)))
    for _ in range(max_updates):
        g_proj = np.where(x > 0.0, g, np.minimum(g, 0.0))
        if float(np.abs(g_proj).max()) < 1e-9:
            break
        active = (x == 0.0) & (g > 0.0)
        g_free = np.where(active, 0.0, g)
        if d is None or not np.array_equal(active, active_prev):
            d = -g_free
        else:
            denom = float(g_free_prev @ g_free_prev)
            beta = float(g_free @ (g_free - g_free_prev)) / denom if denom > 0.0 else 0.0
            d = -g_free if beta < 0.0 else -g_free + beta * d
        if float(d @ g) >= 0.0:
            d = -g_free
        t = step
        for _ in range(20):
            cand = np.maximum(0.0, x + t * d)
            f_cand = objective(cand)
            if f_cand <= fx + 1e-4 * min(0.0, float(g @ (cand - x))):
                break
            t *= 0.5
        else:
            break
        active_prev, g_free_prev = active, g_free
        x, fx = cand, f_cand
        g = gradient(x)
        step = t * 2.0
    return x


def row_view(counts, X, fixed, s, r):
    """The per-vector view of row r of a whole-matrix problem."""
    lo, hi = counts.indptr[r], counts.indptr[r + 1]
    return RegressionView(x=X[r], rows=fixed[counts.indices[lo:hi]], counts=counts.data[lo:hi], s=s)


def scipy_oracle(view, reg):
    """Minimize the per-vector objective with a generic bounded quasi-Newton."""

    def f(x):
        dots = np.maximum(view.rows @ x, DOT_FLOOR)
        val = float(view.s @ x) - float(view.counts @ np.log(dots))
        if reg.lam:
            val += reg.lam * (float(x @ x) if reg.kind == "l2" else float(np.abs(x).sum()))
        return val

    def grad(x):
        dots = np.maximum(view.rows @ x, DOT_FLOOR)
        g = view.s - (view.counts / dots) @ view.rows
        if reg.lam:
            g = g + (2.0 * reg.lam * x if reg.kind == "l2" else reg.lam)
        return g

    k = len(view.x)
    res = minimize(
        f,
        np.ones(k),
        jac=grad,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * k,
        options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 1000},
    )
    return float(res.fun)


def random_view(rng, k=3, q=5):
    rows = rng.uniform(0.1, 2.0, size=(q, k))
    counts = rng.integers(1, 6, size=q).astype(float)
    x = rng.uniform(0.1, 2.0, size=k)
    s = rows.sum(axis=0) + rng.uniform(0.0, 1.0, size=k)  # extra zero-count mass
    return RegressionView(x=x, rows=rows, counts=counts, s=s)


L2_FREE = RegularizationSpec("l2", 0.0)


# ---------------------------------------------------------------- proximal gradient


def test_prox_update_fixed_point():
    # gradient -1 and linear pull +1 cancel: x = 1 solves the problem exactly
    view = RegressionView(
        x=np.array([1.0]),
        rows=np.array([[1.0]]),
        counts=np.array([1.0]),
        s=np.array([1.0]),
    )
    out = prox_grad_update(np.array([1.0]), view, 0.3, L2_FREE)
    assert np.array_equal(out, [1.0])


def test_prox_update_no_counts_shrinks_linearly():
    view = RegressionView(
        x=np.array([1.0]), rows=np.zeros((0, 1)), counts=np.zeros(0), s=np.array([2.0])
    )
    out = prox_grad_update(np.array([1.0]), view, 0.25, L2_FREE)
    assert np.array_equal(out, [0.5])


def test_prox_update_tau_composes_single_steps():
    rng = np.random.default_rng(31)
    view = random_view(rng)
    reg = RegularizationSpec("l2", 0.4)
    fused = prox_grad_update(view.x.copy(), view, 0.05, reg, tau=3)
    stepped = view.x.copy()
    for _ in range(3):
        stepped = prox_grad_update(stepped, view, 0.05, reg, tau=1)
    assert np.array_equal(fused, stepped)


def test_prox_update_rejects_bad_step():
    rng = np.random.default_rng(32)
    view = random_view(rng)
    with pytest.raises(ValueError, match="positive"):
        prox_grad_update(view.x, view, 0.0, L2_FREE)


def test_prox_update_step_bounded_by_alpha():
    # ||update - x|| <= alpha * (||g + s|| + 2*lam*||x||) for the l2 prox
    rng = np.random.default_rng(33)
    from poisfact import gradient_vector

    view = random_view(rng)
    reg = RegularizationSpec("l2", 0.7)
    g = gradient_vector(view)
    bound = float(np.linalg.norm(g + view.s) + 2 * reg.lam * np.linalg.norm(view.x))
    for alpha in (1e-4, 1e-6, 1e-8):
        out = prox_grad_update(view.x.copy(), view, alpha, reg)
        assert float(np.linalg.norm(out - view.x)) <= bound * alpha * (1 + 1e-12)


def test_prox_update_nonfinite_raises_with_row():
    # a zero dot clamps to the floor; huge counts and rows then overflow
    view = RegressionView(
        x=np.array([0.0]),
        rows=np.array([[1e308]]),
        counts=np.array([1e8]),
        s=np.array([1.0]),
    )
    with np.errstate(all="ignore"), pytest.raises(NumericFailureError, match="row 7"):
        prox_grad_update(view.x, view, 10.0, L2_FREE, index=7)


def test_prox_update_stays_nonnegative():
    rng = np.random.default_rng(34)
    for _ in range(50):
        view = random_view(rng, k=int(rng.integers(1, 6)))
        out = prox_grad_update(view.x, view, float(rng.uniform(0.01, 0.5)), L2_FREE)
        assert out.min() >= 0.0


# ---------------------------------------------------------------- whole-matrix proximal gradient


def blas_rows_oracle(counts, X, fixed, s, alpha, reg, tau):
    """Each row stepped on its own by gradient_vector and prox_operator."""
    out = np.empty_like(X)
    stats = ClampStats()
    for r in range(X.shape[0]):
        lo, hi = counts.indptr[r], counts.indptr[r + 1]
        x = X[r]
        for _ in range(tau):
            view = RegressionView(
                x=x, rows=fixed[counts.indices[lo:hi]], counts=counts.data[lo:hi], s=s
            )
            x = prox_operator(x - alpha * gradient_vector(view, stats=stats), alpha, s, reg)
        out[r] = x
    return out, stats.clamped


def clamping_instance(rng, r=30, c=20, k=4):
    """Counts with empty rows, and factor rows whose dots clamp at the floor."""
    dense = (rng.random((r, c)) < 0.3) * rng.integers(1, 6, size=(r, c)).astype(float)
    dense[[3, 11, 17]] = 0.0  # rows without entries
    dense[[5, 8], :4] = 2.0  # rows that surely have entries
    counts = sp.csr_matrix(dense)
    X = rng.uniform(0.05, 1.5, size=(r, k))
    X[[5, 8]] = 0.0  # every dot of these rows is zero and clamps
    fixed = rng.uniform(0.05, 1.5, size=(c, k))
    return counts, X, fixed, fixed.sum(axis=0)


@pytest.mark.parametrize("tau", [1, 3])
@pytest.mark.parametrize("reg", [RegularizationSpec("l2", 0.8), RegularizationSpec("l1", 0.3)])
def test_prox_grad_matrix_matches_per_row_blas_oracle(tau, reg):
    rng = np.random.default_rng(35 + tau)
    counts, X, fixed, s = clamping_instance(rng)
    alpha = 1e-3
    stats = ClampStats()
    got = prox_grad_matrix(counts, row_entries(counts.indptr)[0], counts.indices, X, fixed, s, alpha, reg, tau, stats)
    want, clamped = blas_rows_oracle(counts, X, fixed, s, alpha, reg, tau)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert stats.clamped == clamped >= 8  # rows 5 and 8 clamp at their first step
    # empty rows see no gradient: the bare prox applied tau times
    shrunk = X[[3, 11, 17]]
    for _ in range(tau):
        shrunk = prox_operator(shrunk, alpha, s, reg)
    assert np.array_equal(got[[3, 11, 17]], shrunk)
    # the per-row update is the one-row case of the same routine, bit for bit
    for r in range(X.shape[0]):
        view = row_view(counts, X, fixed, s, r)
        assert np.array_equal(prox_grad_update(X[r], view, alpha, reg, tau), got[r])


def prox_grad_twice(counts, rows, X, fixed, s, reg, stats=None, dots=None):
    return prox_grad_matrix(counts, rows, counts.indices, X, fixed, s, 1e-3, reg, 2, stats, dots)


def conj_grad_thrice(counts, rows, X, fixed, s, reg, stats=None, dots=None):
    return conj_grad_matrix(counts, rows, counts.indices, X, fixed, s, reg, 3, stats, dots)


@pytest.mark.parametrize("solve", [prox_grad_twice, conj_grad_thrice], ids=["prox_grad_matrix", "conj_grad_matrix"])
def test_matrix_solver_reuses_given_dots(solve):
    rng = np.random.default_rng(38)
    counts, X, fixed, s = clamping_instance(rng)
    reg = RegularizationSpec("l2", 0.5)
    rows = row_entries(counts.indptr)[0]
    raw = (X[rows] * fixed[counts.indices]).sum(axis=1)
    dots = np.maximum(raw, DOT_FLOOR)
    given = dots.copy()
    stats, fresh_stats = ClampStats(), ClampStats()
    reused = solve(counts, rows, X, fixed, s, reg, stats, dots=given)
    fresh = solve(counts, rows, X, fixed, s, reg, fresh_stats)
    assert np.array_equal(reused, fresh)
    assert np.array_equal(given, dots)  # the caller's array is left as it was
    # the given dots' clamps are the caller's; the solver counts its own gathers'
    start_clamps = int((raw < DOT_FLOOR).sum())
    assert start_clamps >= 8  # rows 5 and 8 start at zero
    assert stats.clamped == fresh_stats.clamped - start_clamps


def test_conj_grad_matrix_forms_one_gradient_per_update(monkeypatch):
    # given X's dots, CG gathers only the searching rows' entries, and forms
    # the gradient once at the top of each update, never while backtracking
    rng = np.random.default_rng(45)
    counts, X, fixed, s = collapse_instance(rng)
    rows = row_entries(counts.indptr)[0]
    dots = np.maximum((X[rows] * fixed[counts.indices]).sum(axis=1), DOT_FLOOR)
    events = []

    def gather(P, Q, at_rows, cols, stats=None, out=None):
        events.append("W" if at_rows is rows else "T")  # whole matrix, or a trial's rows
        return entry_dots(P, Q, at_rows, cols, stats, out)

    def ratio_times(counts, dots, fixed):
        events.append("R")
        return _ratio_times(counts, dots, fixed)

    monkeypatch.setattr(vector_solvers, "entry_dots", gather)
    monkeypatch.setattr(vector_solvers, "_ratio_times", ratio_times)
    updates = 3
    got = conj_grad_matrix(counts, rows, counts.indices, X, fixed, s, L2_FREE, updates, dots=dots)
    trace = "".join(events)
    assert re.fullmatch(r"(RT+)+", trace) and trace.count("R") == updates, trace
    events.clear()
    assert np.array_equal(conj_grad_matrix(counts, rows, counts.indices, X, fixed, s, L2_FREE, updates), got)
    assert "".join(events) == "W" + trace  # without dots, one whole-matrix gather first


def test_prox_grad_matrix_rejects_bad_step():
    rng = np.random.default_rng(39)
    counts, X, fixed, s = clamping_instance(rng)
    with pytest.raises(ValueError, match="positive"):
        prox_grad_matrix(counts, row_entries(counts.indptr)[0], counts.indices, X, fixed, s, 0.0, L2_FREE)


# ---------------------------------------------------------------- conjugate gradient


def test_cg_stationary_start_returns_input():
    # s = 2 and the log pull (4/4)*2 = 2 cancel at x = 2: already optimal
    view = RegressionView(
        x=np.array([2.0]),
        rows=np.array([[2.0]]),
        counts=np.array([4.0]),
        s=np.array([2.0]),
    )
    out = conj_grad_update(np.array([2.0]), view, L2_FREE)
    assert np.array_equal(out, [2.0])


def test_cg_never_increases_objective():
    rng = np.random.default_rng(35)
    for _ in range(100):
        view = random_view(rng, k=int(rng.integers(1, 6)), q=int(rng.integers(1, 8)))
        reg = RegularizationSpec(
            "l2" if rng.random() < 0.5 else "l1", float(rng.uniform(0.0, 1.0))
        )
        before = joint_objective(view.x, view, reg)
        out = conj_grad_update(view.x, view, reg, max_updates=int(rng.integers(1, 6)))
        after = joint_objective(out, view, reg)
        assert after <= before + 1e-12
        assert out.min() >= 0.0


def test_cg_more_updates_never_worse():
    rng = np.random.default_rng(36)
    view = random_view(rng)
    f0 = joint_objective(view.x, view, L2_FREE)
    f1 = joint_objective(conj_grad_update(view.x, view, L2_FREE, max_updates=1), view, L2_FREE)
    f2 = joint_objective(conj_grad_update(view.x, view, L2_FREE, max_updates=200), view, L2_FREE)
    assert f2 <= f1 + 1e-12 <= f0 + 2e-12


def test_cg_matches_generic_constrained_minimizer():
    rng = np.random.default_rng(37)
    for _ in range(20):
        view = random_view(rng, k=int(rng.integers(2, 5)), q=int(rng.integers(2, 8)))
        for reg in (L2_FREE, RegularizationSpec("l2", 0.5), RegularizationSpec("l1", 0.3)):
            got = joint_objective(
                conj_grad_update(view.x, view, reg, max_updates=200), view, reg
            )
            want = scipy_oracle(view, reg)
            assert got <= want + 1e-6 * max(1.0, abs(want))


def test_cg_beats_twenty_tuned_prox_steps():
    # unregularized two-data-row toys: twenty line-searched CG updates reach a
    # lower objective than twenty fixed-step prox updates at the best alpha on
    # a log grid (equal iteration budget, prox gets the tuning advantage)
    for seed in (38, 1, 2, 3):
        rng = np.random.default_rng(seed)
        view = random_view(rng, k=2, q=2)
        best_prox = np.inf
        for alpha in np.logspace(-4, -0.5, 12):
            x = view.x.copy()
            try:
                for _ in range(20):
                    x = prox_grad_update(x, view, float(alpha), L2_FREE)
            except NumericFailureError:
                continue
            best_prox = min(best_prox, joint_objective(x, view, L2_FREE))
        cg_obj = joint_objective(
            conj_grad_update(view.x, view, L2_FREE, max_updates=20), view, L2_FREE
        )
        assert cg_obj <= best_prox + 1e-9


def test_cg_pins_unsupported_coordinate_to_exact_zero():
    # coordinate 1 never appears in any count but carries linear cost 3: its
    # optimum is 0, and the active-set projection should land there exactly
    view = RegressionView(
        x=np.array([1.0, 1.0]),
        rows=np.array([[1.0, 0.0]]),
        counts=np.array([2.0]),
        s=np.array([1.0, 3.0]),
    )
    out = conj_grad_update(view.x, view, L2_FREE, max_updates=100)
    assert out[1] == 0.0
    assert out[0] == pytest.approx(2.0, rel=1e-5)  # solves 1 - 2/x = 0


def test_cg_nonfinite_raises_with_row():
    view = RegressionView(
        x=np.array([0.0]),
        rows=np.array([[1e308]]),
        counts=np.array([1e200]),
        s=np.array([1e308]),
    )
    # the line search rejects overflowing steps, so this either stays finite
    # or raises; both are acceptable, silent non-finite output is not
    with np.errstate(all="ignore"):
        try:
            out = conj_grad_update(view.x, view, L2_FREE, index=3)
        except NumericFailureError as err:
            assert "row 3" in str(err)
        else:
            assert np.isfinite(out).all()


# ---------------------------------------------------------------- lockstep conjugate gradient


def collapse_instance(rng, r=40, c=80, k=4):
    """Sparse rows against a wide fixed matrix, whose large s.x collapses some rows.

    Rows 3, 11 and 17 have no entries; rows 5 and 8 start at zero, so all
    their dots clamp.
    """
    dense = (rng.random((r, c)) < 0.05) * rng.integers(1, 4, size=(r, c)).astype(float)
    dense[[3, 11, 17]] = 0.0
    dense[[5, 8], :3] = 2.0
    counts = sp.csr_matrix(dense)
    X = rng.uniform(0.05, 1.5, size=(r, k))
    X[[5, 8]] = 0.0
    fixed = rng.uniform(0.05, 1.5, size=(c, k))
    return counts, X, fixed, fixed.sum(axis=0)


CG_REGS = [L2_FREE, RegularizationSpec("l2", 0.8), RegularizationSpec("l1", 0.3)]


@pytest.mark.parametrize("reg", CG_REGS)
def test_conj_grad_matrix_rows_are_one_row_calls(reg):
    rng = np.random.default_rng(42)
    counts, X, fixed, s = collapse_instance(rng)
    stats = ClampStats()
    got = conj_grad_matrix(counts, row_entries(counts.indptr)[0], counts.indices, X, fixed, s, reg, 5, stats)
    tally = ClampStats()
    for r in range(X.shape[0]):
        view = row_view(counts, X, fixed, s, r)
        assert np.array_equal(conj_grad_update(X[r], view, reg, 5, stats=tally), got[r])
    assert stats.clamped == tally.clamped > 0
    collapsed = (got == 0.0).all(axis=1) & (X > 0.0).all(axis=1) & (np.diff(counts.indptr) > 0)
    assert collapsed.any()  # rows that start positive, have entries and end all-zero


def test_conj_grad_matrix_matches_reference_iterates():
    # few updates: the same decisions, so the iterates agree to rounding
    rng = np.random.default_rng(43)
    worst = 0.0
    for trial in range(60):
        counts, X, fixed, s = collapse_instance(rng, r=50, c=int(rng.integers(5, 80)))
        reg = CG_REGS[trial % 3]
        updates = int(rng.integers(1, 6))
        stats = ClampStats()
        got = conj_grad_matrix(counts, row_entries(counts.indptr)[0], counts.indices, X, fixed, s, reg, updates, stats)
        tally = ClampStats()
        for r in range(X.shape[0]):
            want = reference_cg(X[r], row_view(counts, X, fixed, s, r), reg, updates, tally)
            scale = max(float(np.abs(want).max()), 1e-300)
            worst = max(worst, float(np.abs(got[r] - want).max()) / scale)
        assert stats.clamped == tally.clamped
    assert worst <= 1e-12


def test_conj_grad_matrix_matches_reference_objective():
    # near the optimum Armijo accepts decided at rounding level let the
    # iterates drift apart; the objectives they reach still agree
    rng = np.random.default_rng(44)
    for trial in range(12):
        counts, X, fixed, s = collapse_instance(rng, r=30, c=int(rng.integers(5, 40)))
        reg = CG_REGS[trial % 3]
        updates = (10, 20, 30)[trial % 3]
        got = conj_grad_matrix(counts, row_entries(counts.indptr)[0], counts.indices, X, fixed, s, reg, updates)
        for r in range(X.shape[0]):
            view = row_view(counts, X, fixed, s, r)
            want = joint_objective(reference_cg(X[r], view, reg, updates), view, reg)
            have = joint_objective(got[r], view, reg)
            assert abs(have - want) <= 1e-10 * max(1.0, abs(want))


def item_half_views(rng):
    """One item half two ways: the transposed user-major CSR and an item-major CSR.

    Each is (counts, rows of X, rows of fixed) per stored entry, with X the
    item factors and fixed the user factors.
    """
    counts, X, fixed, s = collapse_instance(rng)
    R = counts.T.tocsr()  # user-major: users by items
    item_major = R.T.tocsr()
    transposed = R.T, R.indices, row_entries(R.indptr)[0]
    return (transposed, (item_major, row_entries(item_major.indptr)[0], item_major.indices)), X, fixed, s


@pytest.mark.parametrize("tau", [1, 2])
def test_prox_grad_matrix_reads_the_transposed_user_major_view(tau):
    views, X, fixed, s = item_half_views(np.random.default_rng(46))
    assert type(views[0][0]) is sp.csc_matrix  # a view over R's arrays, not a copy
    reg = RegularizationSpec("l2", 0.8)
    got = []
    for counts, rows, cols in views:
        stats = ClampStats()
        got.append((prox_grad_matrix(counts, rows, cols, X, fixed, s, 1e-3, reg, tau, stats), stats.clamped))
    (transposed, clamps), (item_major, want_clamps) = got
    assert np.array_equal(transposed, item_major) and clamps == want_clamps > 0


@pytest.mark.parametrize("reg", [L2_FREE, RegularizationSpec("l1", 0.3)], ids=["l2-free", "l1"])
def test_conj_grad_matrix_reads_the_transposed_user_major_view(monkeypatch, reg):
    views, X, fixed, s = item_half_views(np.random.default_rng(47))
    rounds = []  # per update, the searching rows of each backtracking round

    def gather(P, Q, rows, cols, stats=None, out=None):
        if rounds:  # not the whole-matrix gather before the first update
            rounds[-1].append(len(P))
        return entry_dots(P, Q, rows, cols, stats, out)

    def ratio_times(counts, dots, fixed):
        rounds.append([])
        return _ratio_times(counts, dots, fixed)

    monkeypatch.setattr(vector_solvers, "entry_dots", gather)
    monkeypatch.setattr(vector_solvers, "_ratio_times", ratio_times)
    got = []
    for counts, rows, cols in views:
        rounds.clear()
        stats = ClampStats()
        got.append((conj_grad_matrix(counts, rows, cols, X, fixed, s, reg, 5, stats), stats.clamped))
        # an update in which some rows accept their first trial and others
        # backtrack, so the entry selection is narrowed to the rows still searching
        assert any(len(sizes) > 1 and 0 < sizes[1] < sizes[0] for sizes in rounds), rounds
    (transposed, clamps), (item_major, want_clamps) = got
    assert np.array_equal(transposed, item_major) and clamps == want_clamps > 0


# ---------------------------------------------------------------- determinism and config


def test_solver_runs_are_deterministic():
    rng = np.random.default_rng(41)
    view = random_view(rng)
    reg = RegularizationSpec("l1", 0.1)
    a = conj_grad_update(view.x, view, reg)
    b = conj_grad_update(view.x, view, reg)
    assert np.array_equal(a, b)
    c = prox_grad_update(view.x, view, 0.03, reg, tau=4)
    d = prox_grad_update(view.x, view, 0.03, reg, tau=4)
    assert np.array_equal(c, d)


def test_solver_choice_validation():
    with pytest.raises(ConfigError, match="solver"):
        SolverChoice(method="newton")
    with pytest.raises(ConfigError, match="tau"):
        SolverChoice(tau=0)
    with pytest.raises(ConfigError, match="max_updates"):
        SolverChoice(max_updates=0)
