"""Alternating training of the two factor matrices.

Each outer iteration freezes the item matrix, refreshes its column-sum vector,
updates every user row from that user's nonzero entries alone, then does the
mirror-image pass over item rows through the user-major CSR's transpose,
which lists each item's entries by increasing user: one entry order for all.
The zero entries of the count matrix enter only through the sum vectors,
which keeps one iteration at O(nnz*k*tau + (m+n)*k) however large m*n grows.

Row updates within a half-iteration are independent: each reads the frozen
other matrix, the shared sum vector, and its own row, and writes only its own
row. Either solver therefore updates a whole matrix in one call; each user
half after the first starts from the dots of the previous objective. Results
are bit-identical run to run.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, DegenerateModelError, NumericFailureError
from .poisson_core import ClampStats, RegularizationSpec, full_objective
from .sparse_data import SparseInteractions
from .vector_solvers import PROXGRAD, SolverChoice, conj_grad_matrix, prox_grad_matrix

_log = logging.getLogger(__name__)

ProgressHook = Callable[[int, float, float], None]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    Defaults suit the proximal-gradient solver on large sparse data: heavy l2
    regularization with a tiny initial step that halves every iteration. The
    conjugate-gradient solver ignores ``alpha`` (it line-searches) and is
    typically run with little or no regularization and more iterations.
    """

    k: int = 40
    alpha: float = 1e-7
    lam: float = 1e9
    iters: int = 10
    solver: SolverChoice = field(default_factory=SolverChoice)
    reg: str = "l2"
    seed: int = 42

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not 0 < self.alpha < float("inf"):
            raise ConfigError(f"alpha must be finite and positive, got {self.alpha}")
        if not 0 <= self.lam < float("inf"):
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.iters < 1:
            raise ConfigError(f"iters must be >= 1, got {self.iters}")
        if not 0 <= self.seed < 2**63:
            raise ConfigError(f"seed must be a nonnegative 63-bit integer, got {self.seed}")
        RegularizationSpec(self.reg, self.lam)  # validates kind and strength

    @property
    def regularization(self) -> RegularizationSpec:
        return RegularizationSpec(self.reg, self.lam)


@dataclass
class FactorModel:
    """Nonnegative factor matrices: users A (m x k) and items B (n x k)."""

    A: np.ndarray
    B: np.ndarray
    k: int

    def __post_init__(self):
        if self.A.ndim != 2 or self.B.ndim != 2:
            raise ValueError("factor matrices must be two-dimensional")
        if self.A.shape[1] != self.k or self.B.shape[1] != self.k:
            raise ValueError("factor matrices must have k columns")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.B.shape[0]


@dataclass
class TrainReport:
    """Outcome diagnostics of a completed training run.

    ``user_seconds``, ``item_seconds`` and ``objective_seconds`` hold, per
    iteration, the wall time of its user half, item half and objective; they
    sum to at most that iteration's ``iteration_seconds``. ``clamp_events``
    counts floored dots once per gather (CG gathers each point it scores
    once) and again where a user half of either solver reuses the objective's.
    """

    iterations: int
    final_objective: float
    objective_trace: list[float]
    clamp_events: int
    zero_rows_a: int
    zero_rows_b: int
    iteration_seconds: list[float]
    user_seconds: list[float]
    item_seconds: list[float]
    objective_seconds: list[float]


def init_factors(m: int, n: int, k: int, seed: int) -> FactorModel:
    """Draw both factor matrices entrywise from Gamma(1, 1).

    Gamma with shape 1 and rate 1 is the standard exponential distribution,
    so every entry is strictly positive. A is drawn first, then B, from one
    seeded generator; the same seed always reproduces the same matrices.
    """
    if min(m, n, k) < 1:
        raise ConfigError(f"dimensions must be >= 1, got m={m} n={n} k={k}")
    rng = np.random.default_rng(seed)
    A = rng.standard_exponential((m, k))
    B = rng.standard_exponential((n, k))
    return FactorModel(A=A, B=B, k=k)


_COLLAPSE_HINT = (
    "the regularization (lambda) is too strong, or the step diverged and "
    "needs a smaller step size (alpha)"
)


def _check_finite(matrix: np.ndarray, side: str, t: int) -> None:
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if len(bad):
        raise NumericFailureError(
            f"training failed at iteration {t}: non-finite factors in {side} row {bad[0]}; "
            "try a smaller step size (alpha) or stronger regularization (lambda)"
        )


def train(
    data: SparseInteractions,
    config: TrainConfig,
    progress: ProgressHook | None = None,
) -> tuple[FactorModel, TrainReport]:
    """Run the alternating optimization for config.iters iterations.

    Each iteration recomputes the item-matrix column sums, updates all user
    rows with the configured solver, recomputes the user-matrix column sums,
    updates all item rows, and halves the step size (which CG ignores). The
    training objective is recorded after every iteration; ``progress`` is
    then invoked with (iteration, objective, seconds), and the next user
    half of either solver starts from the objective's floored dots.

    Raises
    ------
    NumericFailureError
        When non-finite factors appear; the message names the iteration, the
        half and the first non-finite row. No partially trained model is
        returned.
    DegenerateModelError
        When training ends with an entirely zero factor matrix, or at the
        first iteration after which both matrices are all-zero.
    """
    if data.nnz == 0:
        raise DataError("cannot train on a dataset with no entries")
    model = init_factors(data.m, data.n, config.k, config.seed)
    reg = config.regularization
    choice = config.solver
    alpha = config.alpha
    clamps = ClampStats()
    objective_trace: list[float] = []
    iteration_seconds: list[float] = []
    user_seconds, item_seconds, objective_seconds = [], [], []

    # Floored dots of (A, B) in row-major entry order: the objective fills them,
    # the next user half reads them and recounts their clamps.
    dots = np.empty(data.nnz)
    reused, reused_clamps = None, 0

    _log.info(
        "training %d x %d (nnz=%d) with k=%d solver=%s for %d iterations",
        data.m, data.n, data.nnz, config.k, choice.method, config.iters,
    )

    def half(X, fixed, counts, rows, cols, alpha, reused=None):
        s = fixed.sum(axis=0)
        if choice.method == PROXGRAD:
            return prox_grad_matrix(counts, rows, cols, X, fixed, s, alpha, reg, choice.tau, clamps, reused)
        return conj_grad_matrix(counts, rows, cols, X, fixed, s, reg, choice.max_updates, clamps, reused)

    for t in range(config.iters):
        started = time.perf_counter()
        clamps.bump(reused_clamps)
        model.A = half(model.A, model.B, data.csr, data.user_rows, data.csr.indices, alpha, reused)
        _check_finite(model.A, "user", t)
        user_done = time.perf_counter()
        model.B = half(model.B, model.A, data.csr.T, data.csr.indices, data.user_rows, alpha)
        _check_finite(model.B, "item", t)
        item_done = time.perf_counter()
        # Both all-zero is a fixed point of either solver (column sums and data
        # gradient vanish), so the run can only end degenerate. One all-zero
        # matrix can be refilled by the next half through floored dots, and is
        # judged after the last iteration.
        if not model.A.any() and not model.B.any():
            raise DegenerateModelError(
                f"training collapsed at iteration {t}: both factor matrices are "
                f"all-zero after its item half; {_COLLAPSE_HINT}"
            )

        before = clamps.clamped
        objective_started = time.perf_counter()
        objective = full_objective(data, model.A, model.B, reg, clamps, dots_out=dots)
        objective_seconds.append(time.perf_counter() - objective_started)
        alpha *= 0.5
        reused, reused_clamps = dots, clamps.clamped - before
        elapsed = time.perf_counter() - started
        objective_trace.append(objective)
        iteration_seconds.append(elapsed)
        user_seconds.append(user_done - started)
        item_seconds.append(item_done - user_done)
        _log.debug("iteration %d objective %.6e (%.2fs)", t, objective, elapsed)
        if progress is not None:
            progress(t, objective, elapsed)

    if not model.A.any() or not model.B.any():
        raise DegenerateModelError(
            f"training collapsed to an all-zero factor matrix; {_COLLAPSE_HINT}"
        )

    # Zero rows among rows that do have training entries signal a failed fit;
    # cold rows are expected to decay and are not counted.
    zero_a = int(((model.A == 0).all(axis=1) & (np.diff(data.csr.indptr) > 0)).sum())
    zero_b = int(((model.B == 0).all(axis=1) & (np.bincount(data.csr.indices, minlength=data.n) > 0)).sum())
    report = TrainReport(
        iterations=config.iters,
        final_objective=objective_trace[-1],
        objective_trace=objective_trace,
        clamp_events=clamps.clamped,
        zero_rows_a=zero_a,
        zero_rows_b=zero_b,
        iteration_seconds=iteration_seconds,
        user_seconds=user_seconds,
        item_seconds=item_seconds,
        objective_seconds=objective_seconds,
    )
    return model, report
