"""Seeded planted-Poisson inputs for the benchmark workloads, cached on disk.

Inputs are made once per (workload, seed) and stored under ``CACHE_ROOT``, so
the measured runs only load them. Each cache directory holds the generator's
own view of the data next to what the program receives: the planted factors
and the generator's merge of every entry it emitted, which the ingest and
recovery checks compare against.

Counts are drawn as a superposition of independent Poisson processes, one per
planted component: the number of unit events is Poisson(total rate), each
event picks a component in proportion to its share of the rate, then a user
and an item in proportion to that component's factor column. This samples
X ~ Poisson(A Bᵀ) exactly in O(events) time, never touching the m·n cells.
"""

from __future__ import annotations

import os
import shutil
import zlib
from dataclasses import dataclass

import numpy as np

CACHE_ROOT = ".perfbench-cache"

# fit-cg-heavytail runs on one matrix whatever --seed says: the CG collapse
# fault it keeps fails a share of rows that depends on the matrix, and that
# share has to be the same in every run. --seed still draws its recommend
# users and its evaluation sample.
CG_MATRIX_SEED = 2018


@dataclass(frozen=True)
class Workload:
    """Input make-up and program settings of one workload."""

    name: str
    m: int
    n: int
    events: float  # expected number of unit events before merging
    planted_k: int
    planted_shape: float
    pareto_a: float | None  # user and item scales ~ 1 + Pareto(a) when set
    csv: bool
    k: int
    solver: str
    alpha: float
    lam: float
    iters: int
    eval_users: int
    # Per measured cycle; each is called once per pass. Sized so that a run of
    # at least three cycles makes more than 1,000 user samples, with at least
    # ten beyond the p99.
    recommend_users: int
    top_n: int = 10
    test_fraction: float = 0.2
    min_test_entries: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-proxgrad", m=16000, n=8000, events=320000, planted_k=10,
            planted_shape=0.3, pareto_a=None, csv=False, k=20, solver="proxgrad",
            alpha=1e-7, lam=1e9, iters=3, eval_users=200, recommend_users=500,
        ),
        Workload(
            name="fit-cg-heavytail", m=3600, n=1800, events=40000, planted_k=10,
            planted_shape=0.3, pareto_a=1.2, csv=False, k=20, solver="cg",
            alpha=1e-7, lam=0.0, iters=1, eval_users=1000, recommend_users=6000,
        ),
        Workload(
            name="csv-rank", m=4000, n=16000, events=110000, planted_k=10,
            planted_shape=0.3, pareto_a=None, csv=True, k=10, solver="proxgrad",
            alpha=1e-7, lam=1e9, iters=3, eval_users=200, recommend_users=350,
        ),
    )
}


def matrix_seed(workload: Workload, seed: int) -> int:
    return CG_MATRIX_SEED if workload.name == "fit-cg-heavytail" else seed


def cache_dir(workload: Workload, seed: int) -> str:
    # The digest of the input make-up keeps inputs made for other sizes from being reused.
    w = workload
    digest = zlib.crc32(repr((w.m, w.n, w.events, w.planted_k, w.planted_shape, w.pareto_a, w.csv)).encode())
    return os.path.join(CACHE_ROOT, f"{workload.name}-{matrix_seed(workload, seed)}-{digest:08x}")


def planted_events(rng: np.random.Generator, w: Workload):
    """Planted factors and the (user, item) of every unit event, in emit order."""
    A = rng.gamma(w.planted_shape, 1.0, (w.m, w.planted_k))
    B = rng.gamma(w.planted_shape, 1.0, (w.n, w.planted_k))
    if w.pareto_a is not None:
        A *= (1.0 + rng.pareto(w.pareto_a, w.m))[:, None]
        B *= (1.0 + rng.pareto(w.pareto_a, w.n))[:, None]
    A *= w.events / float(A.sum(axis=0) @ B.sum(axis=0))
    s_a, s_b = A.sum(axis=0), B.sum(axis=0)
    rate = s_a * s_b
    n_events = int(rng.poisson(rate.sum()))
    component = rng.choice(w.planted_k, n_events, p=rate / rate.sum())
    users = np.empty(n_events, dtype=np.int64)
    items = np.empty(n_events, dtype=np.int64)
    for c in range(w.planted_k):
        at = np.flatnonzero(component == c)
        users[at] = rng.choice(w.m, len(at), p=A[:, c] / s_a[c])
        items[at] = rng.choice(w.n, len(at), p=B[:, c] / s_b[c])
    return A, B, users, items


def merge_entries(users: np.ndarray, items: np.ndarray, counts: np.ndarray, m: int, n: int):
    """The generator's own duplicate merge, as CSR (indptr, indices, data)."""
    key = users * n + items
    uniq, inverse = np.unique(key, return_inverse=True)
    data = np.bincount(inverse, weights=counts)
    rows = uniq // n
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    return indptr, (uniq % n).astype(np.int64), data


def first_appearance(ids: np.ndarray) -> np.ndarray:
    """Distinct ids ordered by where each first occurs."""
    uniq, first = np.unique(ids, return_index=True)
    return uniq[np.argsort(first)]


def tokens(prefix: str, count: int, salt: int) -> list[str]:
    # An odd multiplier modulo 2**32 is a bijection, so tokens never collide.
    codes = (np.arange(count, dtype=np.uint64) * np.uint64(2654435761) + np.uint64(salt)) % np.uint64(2**32)
    return [f"{prefix}{int(c):08x}" for c in codes]


def generate(workload: Workload, seed: int, out_dir: str) -> None:
    """Write one workload's inputs and the generator's reference view."""
    rng = np.random.default_rng([matrix_seed(workload, seed), 0x9E3779B9])
    A, B, users, items = planted_events(rng, workload)
    order = rng.permutation(len(users))
    users, items = users[order], items[order]
    counts = np.ones(len(users))
    w = workload
    if not w.csv:
        indptr, indices, data = merge_entries(users, items, counts, w.m, w.n)
        np.savez(
            os.path.join(out_dir, "inputs.npz"),
            users=users, items=items, counts=counts, m=w.m, n=w.n,
            planted_a=A, planted_b=B, ref_indptr=indptr, ref_indices=indices, ref_data=data,
        )
        return
    # CSV: ids are renumbered in first-appearance order, as a reader must.
    user_order = first_appearance(users)
    item_order = first_appearance(items)
    user_new = np.empty(w.m, dtype=np.int64)
    user_new[user_order] = np.arange(len(user_order))
    item_new = np.empty(w.n, dtype=np.int64)
    item_new[item_order] = np.arange(len(item_order))
    u_tok = tokens("u", w.m, seed % 2**32)
    i_tok = tokens("i", w.n, (seed * 7 + 1) % 2**32)
    with open(os.path.join(out_dir, "interactions.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{u_tok[u]},{i_tok[i]},1\n" for u, i in zip(users.tolist(), items.tolist()))
    m_seen, n_seen = len(user_order), len(item_order)
    indptr, indices, data = merge_entries(user_new[users], item_new[items], counts, m_seen, n_seen)
    np.savez(
        os.path.join(out_dir, "inputs.npz"),
        m=m_seen, n=n_seen, lines=len(users),
        planted_a=A[user_order], planted_b=B[item_order],
        ref_indptr=indptr, ref_indices=indices, ref_data=data,
        user_tokens=np.array([u_tok[u] for u in user_order]),
        item_tokens=np.array([i_tok[i] for i in item_order]),
    )


def ensure_inputs(workload: Workload, seed: int) -> str:
    """Generate the inputs for (workload, seed) unless they are cached."""
    final = cache_dir(workload, seed)
    if os.path.isfile(os.path.join(final, "inputs.npz")):
        return final
    tmp = f"{final}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        generate(workload, seed, tmp)
        os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final

