"""Update rules: proximal-gradient steps and a nonnegative CG solver.

Both advance factor rows against a frozen view of the other matrix. The
proximal-gradient step, the trainer's workhorse, updates a whole matrix at
once: the smooth gradient of all user rows is -R B, R the counts divided by
A B^T at the stored entries. The conjugate-gradient alternative works per
row on the full per-vector objective and tolerates little or no
regularization at the cost of line searches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericFailureError
from .poisson_core import (
    ClampStats,
    RegressionView,
    RegularizationSpec,
    entry_dots,
    gradient_vector,
    objective_vector,
    prox_operator,
)

PROXGRAD = "proxgrad"
CONJGRAD = "cg"

# Stop CG when the projected gradient is this small in infinity norm.
PGRAD_TOL = 1e-9


@dataclass(frozen=True)
class SolverChoice:
    """Which per-vector solver to run and its knobs.

    ``tau`` is the number of proximal-gradient updates applied to each vector
    per outer iteration; ``max_updates`` bounds CG iterations per vector. The
    Armijo constants govern the CG backtracking line search.
    """

    method: str = PROXGRAD
    tau: int = 1
    max_updates: int = 5
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    max_backtracks: int = 20

    def __post_init__(self):
        if self.method not in (PROXGRAD, CONJGRAD):
            raise ConfigError(f"solver must be {PROXGRAD!r} or {CONJGRAD!r}, got {self.method!r}")
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if self.max_updates < 1:
            raise ConfigError(f"max_updates must be >= 1, got {self.max_updates}")
        if not 0.0 < self.armijo_c < 1.0:
            raise ConfigError(f"armijo_c must lie in (0, 1), got {self.armijo_c}")
        if not 0.0 < self.armijo_shrink < 1.0:
            raise ConfigError(f"armijo_shrink must lie in (0, 1), got {self.armijo_shrink}")
        if self.max_backtracks < 1:
            raise ConfigError(f"max_backtracks must be >= 1, got {self.max_backtracks}")


def _nonfinite(what: str, index: int | None) -> NumericFailureError:
    where = f" for row {index}" if index is not None else ""
    return NumericFailureError(f"non-finite {what} update{where}")


def prox_grad_matrix(
    counts: sp.csr_matrix,
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

    ``counts`` (rows of X by rows of ``fixed``) divided by the entries' dots,
    times ``fixed``, is the negated gradient; empty rows get exactly zero.
    Each row sums its own entries in stored order, so it gets the same bits
    as when updated alone (prox_grad_update). ``dots`` are the first step's
    floored dots if known, their clamps the caller's to count.
    """
    if alpha <= 0:
        raise ValueError(f"step size must be positive, got {alpha}")
    rows = np.repeat(np.arange(X.shape[0]), np.diff(counts.indptr))
    for step in range(tau):
        if step or dots is None:
            dots = entry_dots(X, fixed, rows, counts.indices, stats)
        ratio = sp.csr_matrix((counts.data / dots, counts.indices, counts.indptr), counts.shape)
        X = prox_operator(X + alpha * (ratio @ fixed), alpha, s, reg)
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
    q = len(view.counts)
    counts = sp.csr_matrix((view.counts, np.arange(q), [0, q]), shape=(1, q))
    x = prox_grad_matrix(counts, x[None, :], view.rows, view.s, alpha, reg, tau, stats)[0]
    if not np.isfinite(x).all():
        raise _nonfinite("proximal-gradient", index)
    return x


def _cg_objective(
    view: RegressionView, x: np.ndarray, reg: RegularizationSpec, stats: ClampStats | None
) -> float:
    return objective_vector(replace(view, x=x), reg, clamp=True, stats=stats)


def _cg_gradient(
    view: RegressionView, x: np.ndarray, reg: RegularizationSpec, stats: ClampStats | None
) -> np.ndarray:
    # Gradient of the FULL per-vector objective. On the nonnegative orthant
    # the l1 penalty is linear, so the joint objective stays smooth there.
    g = view.s + gradient_vector(replace(view, x=x), stats=stats)
    if reg.lam != 0.0:
        if reg.kind == "l2":
            g = g + 2.0 * reg.lam * x
        else:
            g = g + reg.lam
    return g


def conj_grad_update(
    x: np.ndarray,
    view: RegressionView,
    reg: RegularizationSpec,
    max_updates: int = 5,
    armijo_c: float = 1e-4,
    armijo_shrink: float = 0.5,
    max_backtracks: int = 20,
    index: int | None = None,
    stats: ClampStats | None = None,
) -> np.ndarray:
    """Minimize the full per-vector objective by nonnegative Polak-Ribiere CG.

    The search direction combines the current gradient (zeroed on the active
    set, i.e. coordinates pinned at zero with positive gradient) with the
    previous direction; it resets to steepest descent whenever the active set
    changes, the Polak-Ribiere coefficient turns negative, or the direction
    stops being a descent direction. Steps are found by a projected-arc
    Armijo backtracking line search, so accepted steps never increase the
    objective. Iteration stops at ``max_updates`` or when the projected
    gradient drops below PGRAD_TOL in infinity norm.
    """
    x = np.array(x, dtype=np.float64, copy=True)
    fx = _cg_objective(view, x, reg, stats)
    g = _cg_gradient(view, x, reg, stats)
    d = None
    g_free_prev = None
    active_prev = None
    step = 1.0 / (1.0 + float(np.linalg.norm(g)))
    for _ in range(max_updates):
        g_proj = np.where(x > 0.0, g, np.minimum(g, 0.0))
        if float(np.abs(g_proj).max()) < PGRAD_TOL:
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
        accepted = False
        t = step
        for _ in range(max_backtracks):
            cand = np.maximum(0.0, x + t * d)
            f_cand = _cg_objective(view, cand, reg, stats)
            gain = float(g @ (cand - x))
            # min(0, gain) keeps acceptance monotone even if projection bends
            # the step away from a descent direction.
            if f_cand <= fx + armijo_c * min(0.0, gain):
                accepted = True
                break
            t *= armijo_shrink
        if not accepted:
            break
        active_prev = active
        g_free_prev = g_free
        x, fx = cand, f_cand
        g = _cg_gradient(view, x, reg, stats)
        step = t * 2.0
    if not np.isfinite(x).all():
        raise _nonfinite("conjugate-gradient", index)
    return x


def apply_solver(
    x: np.ndarray,
    view: RegressionView,
    choice: SolverChoice,
    alpha: float,
    reg: RegularizationSpec,
    index: int | None = None,
    stats: ClampStats | None = None,
) -> np.ndarray:
    """Run the configured per-vector solver once for one row."""
    if choice.method == PROXGRAD:
        return prox_grad_update(x, view, alpha, reg, choice.tau, index=index, stats=stats)
    return conj_grad_update(
        x,
        view,
        reg,
        max_updates=choice.max_updates,
        armijo_c=choice.armijo_c,
        armijo_shrink=choice.armijo_shrink,
        max_backtracks=choice.max_backtracks,
        index=index,
        stats=stats,
    )
