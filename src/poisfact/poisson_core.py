"""Poisson loss, gradients, proximal operators, entry dots and the full objective.

The model predicts each count x_ui by the dot product of nonnegative factor
rows a_u and b_i under an identity link. The negative log-likelihood of one
entry is z - y*log(z) up to a constant, and the key structural fact exploited
throughout is that the sum of all m*n predictions collapses to a dot product
of column sums, so entries that are zero never have to be enumerated.

All per-vector operations speak in terms of a RegressionView: one coefficient
vector being optimized against the rows of the other (fixed) factor matrix at
its nonzero counts, plus the sum vector s over every row of the fixed matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .sparse_data import SparseInteractions

# Dot products are clamped to this floor wherever they enter a logarithm or a
# denominator; clamping keeps the operations total, and the number of clamp
# events is surfaced through ClampStats so silent degradation stays visible.
DOT_FLOOR = 1e-12

# Entries per chunk in entry_dots and evaluate's held-out predictions, sized
# so the gathered blocks stay in cache. On a 2-vCPU VM, 255k entries took, in
# 1024 / 2048 / 4096 / 8192-entry chunks: 15-18 / 14-17 / 16-18 / 19-21 ms at
# k=20, and 26 / 30 / 35 / 36 ms at k=40; 88k entries at k=10 took 3.4-4.3 ms
# in any of them. Whole proximal-gradient trains tied at 2048 and 4096.
_CHUNK = 1 << 11


@dataclass
class ClampStats:
    """Mutable counter of dot-product clamp events, summed deterministically."""

    clamped: int = 0

    def bump(self, events: int) -> None:
        self.clamped += int(events)


@dataclass(frozen=True)
class RegularizationSpec:
    """Penalty kind and strength: lam*||x||_2^2 for l2, lam*||x||_1 for l1."""

    kind: str = "l2"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("l2", "l1"):
            raise ConfigError(f"regularization kind must be 'l2' or 'l1', got {self.kind!r}")
        if not 0.0 <= self.lam < float("inf"):
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")


@dataclass(frozen=True)
class RegressionView:
    """One per-vector regression problem.

    Fields
    ------
    x : (k,) nonnegative coefficient vector being optimized.
    rows : (q, k) rows of the fixed factor matrix where this vector has
        nonzero counts.
    counts : (q,) the positive counts at those entries.
    s : (k,) componentwise sum of ALL rows of the fixed matrix, including
        rows whose count is zero; this is what makes the zero entries free.
    """

    x: np.ndarray
    rows: np.ndarray
    counts: np.ndarray
    s: np.ndarray


def _floor_dots(dots: np.ndarray, stats: ClampStats | None) -> np.ndarray:
    """Raise dots below DOT_FLOOR to it in place, counting the clamps."""
    low = np.count_nonzero(dots < DOT_FLOOR)
    if low:
        np.maximum(dots, DOT_FLOOR, out=dots)
        if stats is not None:
            stats.bump(low)
    return dots


def _penalty(x: np.ndarray, reg: RegularizationSpec) -> float:
    if reg.lam == 0.0:
        return 0.0
    if reg.kind == "l2":
        return reg.lam * float(x @ x)
    return reg.lam * float(np.abs(x).sum())


def objective_vector(
    view: RegressionView,
    reg: RegularizationSpec,
    clamp: bool = False,
    stats: ClampStats | None = None,
) -> float:
    """Per-vector objective s.x - sum_i counts_i * log(rows_i . x) + penalty.

    The sum over entries with zero counts contributes exactly s.x, which is
    why only the q stored rows appear. With ``clamp`` the dot products are
    floored at DOT_FLOOR and the evaluation is total (used by line searches);
    otherwise a nonpositive dot product with a positive count raises.
    """
    x = view.x
    value = float(view.s @ x) + _penalty(x, reg)
    if len(view.counts) == 0:
        return value
    dots = view.rows @ x
    if clamp:
        _floor_dots(dots, stats)
    elif dots.min() <= 0.0:
        raise ValueError("nonpositive dot product with a positive count; objective undefined")
    return value - float(view.counts @ np.log(dots))


def gradient_vector(view: RegressionView, stats: ClampStats | None = None) -> np.ndarray:
    """Gradient of the smooth part f(x) = -sum_i counts_i * log(rows_i . x).

    Returns -sum_i (counts_i / (rows_i . x)) rows_i. The s.x term and the
    penalty are handled by the proximal step, not here. Dot products are
    clamped at DOT_FLOOR, making the gradient total; clamp events are counted
    into ``stats`` when given.
    """
    if len(view.counts) == 0:
        return np.zeros_like(view.x)
    dots = _floor_dots(view.rows @ view.x, stats)
    return -((view.counts / dots) @ view.rows)


def prox_l2(x: np.ndarray, alpha: float, s: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form proximal step for h(x) = s.x + lam*||x||^2 over x >= 0.

    Returns max{0, (x - alpha*s) / (2*lam*alpha + 1)} componentwise. Accepts
    any array shape; a (rows, k) block is handled rowwise with s broadcast,
    bit-identically to applying the operator row by row.
    """
    if alpha <= 0:
        raise ValueError(f"step size must be positive, got {alpha}")
    return np.maximum(0.0, (x - alpha * s) / (2.0 * lam * alpha + 1.0))


def prox_l1(x: np.ndarray, alpha: float, s: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form proximal step for h(x) = s.x + lam*||x||_1 over x >= 0.

    Returns max{0, x - alpha*(lam + s)} componentwise; coordinates at or
    below the threshold come out exactly zero. Broadcasts like prox_l2.
    """
    if alpha <= 0:
        raise ValueError(f"step size must be positive, got {alpha}")
    return np.maximum(0.0, x - alpha * (lam + s))


def prox_operator(
    x: np.ndarray, alpha: float, s: np.ndarray, reg: RegularizationSpec
) -> np.ndarray:
    """Dispatch to the closed-form prox matching the regularization kind."""
    if reg.kind == "l2":
        return prox_l2(x, alpha, s, reg.lam)
    return prox_l1(x, alpha, s, reg.lam)


def entry_dots(
    P: np.ndarray,
    Q: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    stats: ClampStats | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Dots P[rows[j]] . Q[cols[j]] of the listed entries, floored at DOT_FLOOR.

    Summed as (P[rows] * Q[cols]).sum(axis=1) in chunks, so each value's bits
    depend only on its two rows. Clamps are counted into ``stats``; ``out``
    (float64, one slot per entry) receives the result when given.
    """
    if out is None:
        out = np.empty(len(rows))
    dtype = np.result_type(P, Q)
    for lo in range(0, len(rows), _CHUNK):
        hi = lo + _CHUNK
        # take() gathers rows faster than fancy indexing; the in-place product
        # holds the values of P[rows] * Q[cols] (the cast keeps its type), so
        # the sums keep their bits
        block = P.take(rows[lo:hi], axis=0).astype(dtype, copy=False)
        block *= Q.take(cols[lo:hi], axis=0)
        np.sum(block, axis=1, out=out[lo:hi])
    return _floor_dots(out, stats)


def full_objective(
    data: SparseInteractions,
    A: np.ndarray,
    B: np.ndarray,
    reg: RegularizationSpec,
    stats: ClampStats | None = None,
    dots_out: np.ndarray | None = None,
) -> float:
    """Training objective over the whole matrix in O(nnz*k + (m+n)*k) time.

    Computes s_A . s_B - sum_{x_ui > 0} x_ui * log(a_u . b_i) + penalty with
    s_A, s_B the column sums of A and B. The first term equals the sum of all
    m*n predicted values, so zero entries are never enumerated. The penalty
    is lam*(||A||_F^2 + ||B||_F^2) for l2 and lam*(||A||_1 + ||B||_1) for l1.
    ``dots_out`` (length nnz) receives the floored dots in row-major order.
    Accumulation order is fixed, so the result is reproducible bit for bit.
    """
    s_a = A.sum(axis=0)
    s_b = B.sum(axis=0)
    total = float(s_a @ s_b)
    dots = entry_dots(A, B, data.user_rows, data.csr.indices, stats, out=dots_out)
    total -= float(data.csr.data @ np.log(dots))
    if reg.lam != 0.0:
        if reg.kind == "l2":
            total += reg.lam * (float((A * A).sum()) + float((B * B).sum()))
        else:
            total += reg.lam * (float(np.abs(A).sum()) + float(np.abs(B).sum()))
    return total
