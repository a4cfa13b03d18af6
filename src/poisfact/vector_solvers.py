"""Update rules: proximal-gradient steps and a nonnegative CG solver.

Both advance every row of a factor matrix at once against the frozen other
matrix. The proximal-gradient step, the trainer's workhorse, uses the smooth
gradient of all user rows, -R B with R the counts divided by A B^T at the
stored entries. The conjugate-gradient alternative minimizes each row's full
objective with line searches, all rows in lockstep, and tolerates little or
no regularization. The per-vector functions are the one-row calls of the
whole-matrix ones and give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericFailureError
from .poisson_core import (
    ClampStats,
    RegressionView,
    RegularizationSpec,
    entry_dots,
    prox_operator,
)

PROXGRAD = "proxgrad"
CONJGRAD = "cg"

# Stop CG when the projected gradient is this small in infinity norm.
PGRAD_TOL = 1e-9
# Projected Armijo backtracking of CG: sufficient-decrease constant, shrink
# factor of the trial step, and trials per update before a row gives up.
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 20


@dataclass(frozen=True)
class SolverChoice:
    """Which solver to run and its knobs.

    ``tau`` is the number of proximal-gradient updates applied to each row
    per outer iteration; ``max_updates`` bounds CG iterations per row. A
    ``TrainConfig`` that leaves ``lam`` or ``iters`` unset takes the method's
    entry in ``trainer.SOLVER_DEFAULTS`` when it is built; replacing its
    solver later keeps the values it resolved.
    """

    method: str = PROXGRAD
    tau: int = 1
    max_updates: int = 5

    def __post_init__(self):
        if self.method not in (PROXGRAD, CONJGRAD):
            raise ConfigError(f"solver must be {PROXGRAD!r} or {CONJGRAD!r}, got {self.method!r}")
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if self.max_updates < 1:
            raise ConfigError(f"max_updates must be >= 1, got {self.max_updates}")


def _finite(x: np.ndarray, what: str, index: int | None) -> np.ndarray:
    if not np.isfinite(x).all():
        where = f" for row {index}" if index is not None else ""
        raise NumericFailureError(f"non-finite {what} update{where}")
    return x


def _one_row(view: RegressionView) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """A per-vector view's counts as a one-row CSR over ``view.rows``, and its entries' rows and columns."""
    q = len(view.counts)
    return sp.csr_matrix((view.counts, np.arange(q), [0, q]), shape=(1, q)), np.zeros(q, np.int64), np.arange(q)


def _ratio_times(counts: sp.spmatrix, dots: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """The counts divided by their entries' dots, in the counts' format (CSR or CSC), times ``fixed``.

    Each row sums its own entries by increasing column in either format, so
    its bits do not depend on the other rows or on the format.
    """
    ratio = type(counts)((counts.data / dots, counts.indices, counts.indptr), counts.shape)
    return ratio @ fixed


def prox_grad_matrix(
    counts: sp.spmatrix,
    rows: np.ndarray,
    cols: np.ndarray,
    X: np.ndarray,
    fixed: np.ndarray,
    s: np.ndarray,
    alpha: float,
    reg: RegularizationSpec,
    tau: int = 1,
    stats: ClampStats | None = None,
    dots: np.ndarray | None = None,
) -> np.ndarray:
    """Apply tau proximal-gradient steps to every row of X at once.

    ``counts`` (rows of X by rows of ``fixed``, CSR or CSC) divided by the
    entries' dots, times ``fixed``, is the negated gradient; empty rows get
    exactly zero. ``rows`` and ``cols`` hold each stored entry's row of X and
    of ``fixed``: ``(user_rows, csr.indices)`` for the user-major CSR, and
    ``(csr.indices, user_rows)`` for its transpose. Each row gets the same
    bits as when updated alone (prox_grad_update). ``dots`` are the first
    step's floored dots if known, their clamps the caller's to count.
    """
    if alpha <= 0:
        raise ValueError(f"step size must be positive, got {alpha}")
    for step in range(tau):
        if step or dots is None:
            dots = entry_dots(X, fixed, rows, cols, stats)
        step_to = _ratio_times(counts, dots, fixed)  # X - alpha * gradient, formed in place
        step_to *= alpha
        step_to += X
        X = prox_operator(step_to, alpha, s, reg)
    return X


def prox_grad_update(
    x: np.ndarray,
    view: RegressionView,
    alpha: float,
    reg: RegularizationSpec,
    tau: int = 1,
    index: int | None = None,
    stats: ClampStats | None = None,
) -> np.ndarray:
    """Apply tau proximal-gradient steps x <- prox(x - alpha*grad f(x)).

    The gradient covers only the smooth log term; the linear s.x term and the
    penalty are absorbed by the closed-form prox. All tau inner steps share
    the same alpha; the outer loop owns the step-size schedule.

    Raises
    ------
    NumericFailureError
        If the result is not finite; the message carries ``index`` when the
        caller supplies the row being updated.
    """
    x = prox_grad_matrix(*_one_row(view), x[None, :], view.rows, view.s, alpha, reg, tau, stats)[0]
    return _finite(x, "proximal-gradient", index)


def _row_objectives(
    data: np.ndarray, owner: np.ndarray, Y: np.ndarray, s: np.ndarray, reg: RegularizationSpec, dots: np.ndarray
) -> np.ndarray:
    """Full objective of every row of Y, s.y + penalty - sum c*log(dots), from its entries' counts and dots.

    ``owner`` holds the row of Y of each entry. On the nonnegative orthant the
    l1 penalty is linear, so the full objective stays smooth there.
    """
    f = (Y * s).sum(axis=1)
    if reg.lam != 0.0:
        f = f + reg.lam * ((Y * Y).sum(axis=1) if reg.kind == "l2" else np.abs(Y).sum(axis=1))
    return f - np.bincount(owner, data * np.log(dots), minlength=len(Y))


def conj_grad_matrix(
    counts: sp.spmatrix,
    rows: np.ndarray,
    cols: np.ndarray,
    X: np.ndarray,
    fixed: np.ndarray,
    s: np.ndarray,
    reg: RegularizationSpec,
    max_updates: int = 5,
    stats: ClampStats | None = None,
    dots: np.ndarray | None = None,
) -> np.ndarray:
    """Minimize every row's full objective by nonnegative Polak-Ribiere CG.

    The search direction combines the current gradient (zeroed on the active
    set, i.e. coordinates pinned at zero with positive gradient) with the
    previous direction by the PR+ rule (Nocedal & Wright, section 5.2): the
    Polak-Ribiere coefficient is zeroed where it turns negative or the active
    set changes, and a row's first update has a zero coefficient because its
    previous free gradient is zero. A direction that is not a descent
    direction resets to steepest descent. Steps are found by a projected-arc
    Armijo backtracking line search, so accepted steps never increase the
    objective. A row stops at ``max_updates``, when its projected gradient
    drops below PGRAD_TOL in infinity norm, or when its search fails.

    All rows run in lockstep: step sizes, Polak-Ribiere coefficients and
    trial steps are per-row vectors, and stops and acceptances are row
    masks. A per-entry buffer holds X's floored dots: each backtrack gathers
    and scores only the entries of the rows still searching (selected once
    per update, then narrowed), an accepted trial writes its dots there, and
    every row's gradient is formed from it once per update, so ``stats``
    counts each point's clamps once. ``dots`` are X's floored dots if known,
    their clamps the caller's to count; the solver reads a copy. Every
    reduction stays inside its row, by increasing column, so a row gets the
    same bits as when updated alone (conj_grad_update). ``rows`` and
    ``cols`` are as for prox_grad_matrix.
    """
    X = np.array(X, dtype=np.float64, copy=True)
    dots = entry_dots(X, fixed, rows, cols, stats) if dots is None else np.array(dots, dtype=np.float64)
    f = _row_objectives(counts.data, rows, X, s, reg, dots)
    d = np.zeros_like(X)
    g_free_prev = np.zeros_like(X)
    active_prev = np.zeros(X.shape, dtype=bool)
    step = None
    live = np.arange(len(X))
    for _ in range(max_updates):
        g = s - _ratio_times(counts, dots, fixed)
        if reg.lam != 0.0:
            g += 2.0 * reg.lam * X if reg.kind == "l2" else reg.lam
        if step is None:  # the first gradient sizes every row's first trial step
            step = 1.0 / (1.0 + np.sqrt((g * g).sum(axis=1)))
        x, gl = X[live], g[live]
        g_proj = np.where(x > 0.0, gl, np.minimum(gl, 0.0))
        going = ~(np.abs(g_proj).max(axis=1) < PGRAD_TOL)  # a NaN gradient goes on
        live, x, gl = live[going], x[going], gl[going]
        if not len(live):
            break
        active = (x == 0.0) & (gl > 0.0)
        g_free = np.where(active, 0.0, gl)
        gp = g_free_prev[live]
        denom = (gp * gp).sum(axis=1)
        beta = np.divide(
            (g_free * (g_free - gp)).sum(axis=1), denom,
            out=np.zeros(len(live)), where=denom > 0.0,
        )
        beta[(beta < 0.0) | (active != active_prev[live]).any(axis=1)] = 0.0
        dl = -g_free + beta[:, None] * d[live]
        dl = np.where(((dl * gl).sum(axis=1) >= 0.0)[:, None], -g_free, dl)

        t = step[live]
        accepted = np.zeros(len(live), dtype=bool)
        search = np.arange(len(live))
        slot = np.full(len(X), -1)
        slot[live] = search
        at = np.flatnonzero(slot[rows] >= 0)  # the live rows' entries, in stored order
        owner = slot[rows[at]]  # and each one's row's place in search
        for _ in range(MAX_BACKTRACKS):
            xs = x[search]
            trial = np.maximum(0.0, xs + t[search, None] * dl[search])
            trial_dots = entry_dots(trial, fixed, owner, cols[at], stats)
            f_trial = _row_objectives(counts.data[at], owner, trial, s, reg, trial_dots)
            gain = (gl[search] * (trial - xs)).sum(axis=1)
            # fmin(0, gain) keeps acceptance monotone even if projection bends
            # the step away from a descent direction.
            ok = f_trial <= f[live[search]] + ARMIJO_C * np.fmin(0.0, gain)
            hit = search[ok]
            X[live[hit]], f[live[hit]], accepted[hit] = trial[ok], f_trial[ok], True  # x is a copy
            kept = ok[owner]
            dots[at[kept]] = trial_dots[kept]
            search = search[~ok]
            if not len(search):
                break
            at, owner = at[~kept], (np.cumsum(~ok) - 1)[owner[~kept]]
            t[search] *= ARMIJO_SHRINK

        live = live[accepted]
        d[live], g_free_prev[live], active_prev[live] = dl[accepted], g_free[accepted], active[accepted]
        step[live] = t[accepted] * 2.0
    return X


def conj_grad_update(
    x: np.ndarray,
    view: RegressionView,
    reg: RegularizationSpec,
    max_updates: int = 5,
    index: int | None = None,
    stats: ClampStats | None = None,
) -> np.ndarray:
    """Minimize the full per-vector objective by nonnegative CG.

    The one-row call of conj_grad_matrix, bit for bit.

    Raises
    ------
    NumericFailureError
        If the result is not finite; the message carries ``index`` when the
        caller supplies the row being updated.
    """
    x = conj_grad_matrix(*_one_row(view), x[None, :], view.rows, view.s, reg, max_updates, stats)[0]
    return _finite(x, "conjugate-gradient", index)
