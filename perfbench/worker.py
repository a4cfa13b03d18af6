"""One measured round of a workload, in a fresh interpreter.

``run.py`` starts this script once per round. It loads the cached inputs,
warms up, then repeats measured cycles until ``--budget`` seconds have passed
(at least one). A cycle times the split → train → save → load → evaluate
pipeline, extra ingest and evaluate calls, and the recommend calls, and times
the calibration kernel (``calibrate.py``) between its phases. The round
prints one JSON line with what it measured. With ``--check`` it then checks
every output against the reference computations; with ``--trace PATH`` it
makes one cycle without the extra calls, records spans at the module
boundaries, and reports the per-layer numbers.

The program is reached only through its public functions, and runs on one
thread: ``run.py`` pins BLAS to one thread through the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from contextlib import nullcontext

import numpy as np

from poisfact import (
    EvalConfig,
    FactorModel,
    IdMap,
    ModelMeta,
    SolverChoice,
    SparseInteractions,
    SplitPair,
    TrainConfig,
    build_interactions,
    evaluate,
    load_model,
    read_triplet_file,
    recommend_for_user,
    save_model,
    split_train_test,
    train,
    write_triplet_file,
)

import reference as ref
from calibrate import Calibration
from inputs import WORKLOADS, Workload, matrix_seed
from tracing import Tracer

# Each cycle repeats ingest and evaluate until this much of each is timed.
INGEST_SECONDS = 0.3
EVALUATE_SECONDS = 0.7
# Kernel timings between two phases of a cycle.
KERNEL_REPEATS = 3
# Slices of a cycle's recommend calls, made after the pipeline, ingest and evaluate.
RECOMMEND_SLICES = 3
CUTOFF = 5
CHECKED_RECOMMENDS = 60
RECOMMEND_PASSES = 2
CHECKED_EVAL_USERS = 25
TRUTH_AUC_USERS = 300
# The fitted AUC must close this share of the gap from 0.5 to the planted truth's.
RECOVERY_SHARE = 0.25
OBJECTIVE_RTOL = 1e-9
TRAJECTORY_RTOL = 1e-9
# The span the benchmark opens around each pipeline phase.
PHASE_SPANS = {
    "ingest": "sparse_data.ingest",
    "split": "sparse_data.split",
    "write": "sparse_data.write",
    "train": "trainer.train",
    "save": "cli.save_model",
    "load": "cli.load_model",
    "evaluate": "evaluator.evaluate",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_columns(test):
    """(users, items, counts) arrays from a split's test entries.

    The entries are a list of (u, i, x) today; a tuple of three arrays, the
    form the roadmap plans for them, is read as well.
    """
    if isinstance(test, tuple) and len(test) == 3:
        return tuple(np.asarray(col) for col in test)
    cols = np.asarray(test, dtype=np.float64).reshape(-1, 3)
    return cols[:, 0].astype(np.int64), cols[:, 1].astype(np.int64), cols[:, 2]


class Round:
    """Inputs, settings and results of one round of one workload."""

    def __init__(self, w: Workload, seed: int, cache: str, work: str, tracer: Tracer | None):
        self.w = w
        self.seed = seed
        # Split and fit seeds follow the matrix: fixed on fit-cg-heavytail.
        self.fit_seed = matrix_seed(w, seed) % 2**31
        self.work = work
        self.tracer = tracer
        self.ref = np.load(os.path.join(cache, "inputs.npz"))
        if w.csv:
            self.csv_path = os.path.join(cache, "interactions.csv")
            with open(self.csv_path, "rb") as fh:  # warm the page cache
                fh.read()
            self.user_tokens = self.ref["user_tokens"].tolist()
            self.item_tokens = self.ref["item_tokens"].tolist()
        else:
            self.users = self.ref["users"]
            self.items = self.ref["items"]
            self.counts = self.ref["counts"]
            self.user_tokens = [f"u{j}" for j in range(w.m)]
            self.item_tokens = [f"i{j}" for j in range(w.n)]
            self.id_map = IdMap(self.user_tokens, self.item_tokens)
        if w.solver == "cg":
            solver = SolverChoice(method="cg", max_updates=5)
        else:
            solver = SolverChoice(method="proxgrad", tau=1)
        self.train_config = TrainConfig(
            k=w.k, alpha=w.alpha, lam=w.lam, iters=w.iters, solver=solver, seed=self.fit_seed
        )
        self.eval_config = EvalConfig(cutoff=CUTOFF, sample_users=w.eval_users, seed=seed % 2**31)
        self.times: dict[str, float] = {}
        self.rss: dict[str, float] = {}
        self.hook_times: list[float] = []
        self.hook_intervals: list[float] = []
        self.quality: dict[str, float] = {}  # printed next to the metrics; the checks add to it

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    # ------------------------------------------------------------ phases

    def ingest(self):
        if self.w.csv:
            with self.span("sparse_data.parse"):
                triplets = read_triplet_file(self.csv_path)
            with self.span("sparse_data.build"):
                data, id_map = build_interactions(triplets)
            self.parse_lines = len(triplets)
            return data, id_map
        with self.span("sparse_data.build"):
            data = SparseInteractions.from_entries(
                self.users, self.items, self.counts, self.w.m, self.w.n
            )
        self.parse_lines = 0
        return data, self.id_map

    def fit(self):
        self.hook_times = [time.perf_counter()]
        return train(self.split.train, self.train_config, self.progress)

    def progress(self, iteration, objective, seconds):
        self.hook_times.append(time.perf_counter())

    def timed(self, name: str, fn, *args):
        gc.collect()
        rss_before = peak_rss_mb()
        start = time.perf_counter()
        with self.span(PHASE_SPANS[name]):
            out = fn(*args)
        self.times[name] = time.perf_counter() - start
        self.rss[name] = peak_rss_mb() - rss_before
        return out

    def pipeline(self) -> dict[str, float]:
        """One pass of the CLI path; returns its phase times.

        The outputs stay on the round for the checks.
        """
        w = self.w
        self.data, self.id_map = self.timed("ingest", self.ingest)
        self.split = self.timed(
            "split", split_train_test, self.data, w.test_fraction, w.min_test_entries, self.fit_seed
        )
        if w.csv:
            self.timed("write", self.write_split)
        self.model, self.report = self.timed("train", self.fit)
        self.hook_intervals.extend(np.diff(self.hook_times).tolist())
        self.model_path = os.path.join(self.work, "model.pfmf")
        self.meta = ModelMeta(reg="l2", lam=w.lam, solver=w.solver, seed=self.train_config.seed)
        self.timed("save", save_model, self.model_path, self.model, self.meta)
        self.loaded, self.loaded_meta = self.timed("load", load_model, self.model_path)
        self.eval_report = self.timed("evaluate", evaluate, self.loaded, self.split, self.eval_config)
        return self.times

    def write_split(self):
        """Write train and test files and the id maps as ``poisfact split`` does."""
        users, items, counts = self.split.train.entries()
        write_triplet_file(
            os.path.join(self.work, "train.csv"),
            zip(users.tolist(), items.tolist(), counts.tolist()),
            self.id_map,
        )
        write_triplet_file(os.path.join(self.work, "test.csv"), self.split.test, self.id_map)
        self.id_map.save(os.path.join(self.work, "users.map"), os.path.join(self.work, "items.map"))

    def recommend_users(self) -> np.ndarray:
        """Users with training entries, drawn evenly across the degree range."""
        degrees = np.diff(self.split.train.csr.indptr)
        active = np.flatnonzero(degrees > 0)
        by_degree = active[np.argsort(degrees[active], kind="stable")]
        rng = np.random.default_rng([self.seed, 1])
        count = self.w.recommend_users
        pos = ((np.arange(count) + rng.random(count)) * len(by_degree) / count).astype(np.int64)
        return by_degree[pos]

    def recommend_plan(self) -> tuple[list[tuple[int, int]], np.ndarray]:
        """The recommend calls of one cycle as (pass, user position), and their latency table.

        Every pass calls each drawn user once, in its own random order; one
        closed-loop caller makes the calls.
        """
        self.rec_users = self.recommend_users()
        self.rec_tokens = [self.user_tokens[u] for u in self.rec_users]
        rng = np.random.default_rng([self.seed, 4])
        order = [(p, int(j)) for p in range(RECOMMEND_PASSES) for j in rng.permutation(len(self.rec_users))]
        self.recommend_results = []
        return order, np.empty((RECOMMEND_PASSES, len(self.rec_users)))

    def recommend_calls(self, order, latencies: np.ndarray) -> None:
        gc.collect()
        for p, j in order:
            start = time.perf_counter()
            with self.span("cli.recommend_for_user"):
                recs = recommend_for_user(self.loaded, self.split.train, self.id_map, self.rec_tokens[j], self.w.top_n)
            latencies[p, j] = time.perf_counter() - start
            if len(self.recommend_results) < CHECKED_RECOMMENDS:
                self.recommend_results.append((int(self.rec_users[j]), recs))

    def recommend(self) -> np.ndarray:
        """Best-of-passes latency of each drawn user.

        Bursts of load from outside this process slow runs of consecutive
        calls; taking each user's fastest pass keeps them out of the tail.
        """
        order, latencies = self.recommend_plan()
        self.recommend_calls(order, latencies)
        return latencies.min(axis=0)

    def repeat(self, fn, first: float, seconds: float) -> list[float]:
        """The pipeline's sample of a phase, topped up by repeats until ``seconds`` are timed."""
        samples = [first]
        gc.collect()
        while sum(samples) < seconds:
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return samples

    def zero_rows(self) -> tuple[int, int, int]:
        """Rows with training entries, and those of them that ended all-zero."""
        tr = self.split.train
        row_deg = np.diff(tr.csr.indptr)
        col_deg = np.bincount(tr.csr.indices, minlength=tr.n)
        zero_a = int(((self.model.A == 0).all(axis=1) & (row_deg > 0)).sum())
        zero_b = int(((self.model.B == 0).all(axis=1) & (col_deg > 0)).sum())
        return int((row_deg > 0).sum() + (col_deg > 0).sum()), zero_a, zero_b

    # ------------------------------------------------------------ checks

    def checks(self) -> dict[str, str]:
        """Each check's name and '' when it passed, else what went wrong."""
        out = {}
        for name in (
            "ingest", "split", "split_files", "objective", "trajectory", "zero_rows",
            "model_file", "evaluator", "recovery", "recommend",
        ):
            fn = getattr(self, f"check_{name}")
            try:
                out[name] = fn()
            except Exception as exc:  # a check that crashes has failed
                out[name] = f"raised {type(exc).__name__}: {exc}"
        return {k: v for k, v in out.items() if v is not None}

    def check_ingest(self):
        r, data = self.ref, self.data
        if data.csr.shape != (int(r["m"]), int(r["n"])):
            return f"shape {data.csr.shape}"
        for got, key in ((data.csr.indptr, "ref_indptr"), (data.csr.indices, "ref_indices"),
                         (data.csr.data, "ref_data")):
            if not np.array_equal(got, r[key]):
                return f"csr {key[4:]} differs from the generator's merge"
        rows = ref.csr_rows(r["ref_indptr"])
        by_col = np.lexsort((rows, r["ref_indices"]))
        if not (np.array_equal(data.csc.indices, rows[by_col])
                and np.array_equal(data.csc.data, r["ref_data"][by_col])):
            return "csc view differs from the transposed merge"
        if self.w.csv:
            if [self.id_map.user_token(j) for j in range(data.m)] != self.user_tokens:
                return "user ids not in first-appearance order"
            if [self.id_map.item_token(j) for j in range(data.n)] != self.item_tokens:
                return "item ids not in first-appearance order"
        return ""

    def check_split(self):
        tr = self.split.train
        tu, ti, tc = test_columns(self.split.test)
        # CSR order makes the merged input's keys ascending.
        full_keys = ref.csr_rows(self.ref["ref_indptr"]) * tr.n + self.ref["ref_indices"]
        train_keys = ref.csr_rows(tr.csr.indptr) * tr.n + tr.csr.indices
        test_keys = tu * tr.n + ti
        if len(np.intersect1d(train_keys, test_keys)) or len(np.unique(test_keys)) != len(test_keys):
            return "train and test share entries"
        for keys, vals in ((train_keys, tr.csr.data), (test_keys, tc)):
            at = np.minimum(np.searchsorted(full_keys, keys), len(full_keys) - 1)
            if not (np.array_equal(full_keys[at], keys) and np.array_equal(self.ref["ref_data"][at], vals)):
                return "an entry is not one of the input's"
        per_user = np.bincount(tu, minlength=tr.m)
        users = np.unique(tu)
        if (per_user[users] < self.w.min_test_entries).any() or (np.diff(tr.csr.indptr)[users] == 0).any():
            return "a test user breaks the min-test-entries or has-train rule"
        return ""

    def check_split_files(self):
        if not self.w.csv:
            return None
        u_idx = {t: j for j, t in enumerate(self.user_tokens)}
        i_idx = {t: j for j, t in enumerate(self.item_tokens)}
        tr = self.split.train
        want_train = (ref.csr_rows(tr.csr.indptr), tr.csr.indices, tr.csr.data)
        for name, (wu, wi, wc) in (("train.csv", want_train), ("test.csv", test_columns(self.split.test))):
            with open(os.path.join(self.work, name), encoding="utf-8") as fh:
                rows = [line.rstrip("\n").split(",") for line in fh]
            got = (np.array([u_idx[r[0]] for r in rows]), np.array([i_idx[r[1]] for r in rows]),
                   np.array([float(r[2]) for r in rows]))
            if not all(np.array_equal(g, np.asarray(x)) for g, x in zip(got, (wu, wi, wc))):
                return f"{name} does not hold the split's entries"
        return ""

    def check_objective(self):
        tr = self.split.train
        mine = ref.sum_trick_objective(tr.csr.indptr, tr.csr.indices, tr.csr.data,
                                       self.model.A, self.model.B, self.w.lam)
        if not ref.close(mine, self.report.final_objective, OBJECTIVE_RTOL):
            return f"final objective {self.report.final_objective!r} vs reference {mine!r}"
        return ""

    def check_trajectory(self):
        if self.w.solver != "proxgrad" or self.w.csv:
            return None
        tr = self.split.train
        mine = ref.proxgrad_trajectory(tr.csr.indptr, tr.csr.indices, tr.csr.data, tr.m, tr.n,
                                       self.w.k, self.train_config.seed, self.w.alpha, self.w.lam,
                                       self.w.iters)
        theirs = list(self.report.objective_trace)
        worst = max(abs(a - b) / abs(a) for a, b in zip(mine, theirs))
        if len(theirs) != len(mine) or worst > TRAJECTORY_RTOL:
            return f"objective trace {theirs} vs whole-matrix reference {mine}"
        self.quality["trajectory_rel_err"] = worst
        return ""

    def check_zero_rows(self):
        _, zero_a, zero_b = self.zero_rows()
        if (zero_a, zero_b) != (self.report.zero_rows_a, self.report.zero_rows_b):
            return f"report says {self.report.zero_rows_a}+{self.report.zero_rows_b} zero rows, factors hold {zero_a}+{zero_b}"
        return ""

    def check_model_file(self):
        same = (self.loaded.A.tobytes() == self.model.A.tobytes()
                and self.loaded.B.tobytes() == self.model.B.tobytes()
                and self.loaded_meta == self.meta)
        return "" if same else "save/load round trip is not bit-exact"

    def own_user_metrics(self, model, u, positives, with_top=True):
        """Own p@k (when asked) and pairwise AUC of user u, or None if not evaluable."""
        tr = self.split.train
        history = tr.csr.indices[tr.csr.indptr[u]:tr.csr.indptr[u + 1]]
        scores = model.B @ model.A[u]
        eligible = np.ones(len(scores), dtype=bool)
        eligible[history] = False
        positive = np.zeros(len(scores), dtype=bool)
        positive[positives] = True
        pos, neg = scores[eligible & positive], scores[eligible & ~positive]
        if len(pos) == 0 or len(neg) == 0:
            return None
        p_at_k = float(np.isin(ref.top_n(scores, history, CUTOFF), positives).mean()) if with_top else None
        return p_at_k, ref.pairwise_auc(pos, neg)

    def check_evaluator(self):
        rep, model = self.eval_report, self.loaded
        tu, ti, tc = test_columns(self.split.test)
        pred = np.einsum("ij,ij->i", model.A[tu], model.B[ti])
        if not ref.close(rep.pearson_rho, ref.pearson(pred, tc), 1e-9):
            return f"pearson {rep.pearson_rho!r} vs {ref.pearson(pred, tc)!r}"
        if not ref.close(rep.test_loglik, ref.poisson_loglik(pred, tc), 1e-9):
            return f"test loglik {rep.test_loglik!r} vs {ref.poisson_loglik(pred, tc)!r}"
        rng = np.random.default_rng([self.seed, 2])
        # The user holding the largest held-out count keeps the counts from
        # being all equal, which would leave Pearson undefined.
        users = np.union1d(rng.choice(np.unique(tu), CHECKED_EVAL_USERS - 1, replace=False),
                           tu[np.argmax(tc)])
        keep = np.isin(tu, users)
        sub_test = list(zip(tu[keep].tolist(), ti[keep].tolist(), tc[keep].tolist()))
        sub = evaluate(model, SplitPair(train=self.split.train, test=sub_test),
                       EvalConfig(cutoff=CUTOFF, sample_users=len(users), seed=0))
        mine = [self.own_user_metrics(model, int(u), ti[tu == u]) for u in users]
        mine = [x for x in mine if x is not None]
        p_mine = sum(x[0] for x in mine) / len(mine)
        auc_mine = sum(x[1] for x in mine) / len(mine)
        if sub.users_evaluated != len(mine):
            return f"{sub.users_evaluated} users evaluated, reference finds {len(mine)} evaluable"
        if abs(sub.p_at_k - p_mine) > 1e-12 or abs(sub.auc - auc_mine) > 1e-12:
            return f"p@{CUTOFF} {sub.p_at_k!r} / AUC {sub.auc!r} vs brute force {p_mine!r} / {auc_mine!r}"
        return ""

    def check_recovery(self):
        if self.w.solver != "proxgrad":
            return None
        tu, ti, _ = test_columns(self.split.test)
        rng = np.random.default_rng([self.seed, 3])
        users = rng.choice(np.unique(tu), TRUTH_AUC_USERS, replace=False)
        k0 = self.ref["planted_a"].shape[1]
        truth = FactorModel(A=self.ref["planted_a"], B=self.ref["planted_b"], k=k0)
        aucs = [self.own_user_metrics(truth, int(u), ti[tu == u], with_top=False) for u in users]
        truth_auc = float(np.mean([x[1] for x in aucs if x is not None]))
        floor = 0.5 + RECOVERY_SHARE * (truth_auc - 0.5)
        self.quality["truth_auc"] = truth_auc
        self.quality["auc_floor"] = floor
        if not self.eval_report.auc >= floor:
            return f"AUC {self.eval_report.auc:.4f} below the floor {floor:.4f} (truth {truth_auc:.4f})"
        return ""

    def check_recommend(self):
        tr = self.split.train
        item_index = {t: j for j, t in enumerate(self.item_tokens)}
        for u, recs in self.recommend_results:
            history = tr.csr.indices[tr.csr.indptr[u]:tr.csr.indptr[u + 1]]
            scores = self.loaded.B @ self.loaded.A[u]
            items = np.array([item_index[t] for t, _ in recs.items], dtype=np.int64)
            got = np.array([s for _, s in recs.items])
            want = ref.top_n(scores, history, self.w.top_n)
            if recs.user != self.user_tokens[u] or np.isin(items, history).any():
                return f"user {u}: wrong user or a history item recommended"
            if not np.array_equal(items, want):
                return f"user {u}: {items.tolist()} but the reference top-{self.w.top_n} is {want.tolist()}"
            if not np.allclose(got, scores[items], rtol=1e-12, atol=0):
                return f"user {u}: returned scores differ from the model's"
        return ""


def measure(rnd: Round, cal: Calibration, budget: float) -> tuple[dict[str, list[float]], int, float]:
    """Measured cycles until ``budget`` seconds have passed.

    Returns their samples, their count, and the peak RSS after the first
    cycle: later cycles repeat the same work, so the first one's high-water
    mark is the program's, not the number of repeats'.
    """
    samples = {name: [] for name in ("pipeline", "train", "ingest", "evaluate", "recommend")}

    def gauge():
        for _ in range(KERNEL_REPEATS):
            cal.measure()

    start = time.monotonic()
    cycles = 0
    # Stop when the next cycle would overrun the budget by more than half its length.
    while cycles == 0 or time.monotonic() + 0.5 * (time.monotonic() - start) / cycles < start + budget:
        # The recommend calls come in slices between the phases: the host's
        # speed changes within seconds, and one block of calls would sample
        # one moment of it.
        gauge()
        phases = rnd.pipeline()
        samples["pipeline"].append(sum(phases.values()))
        samples["train"].append(phases["train"])
        order, latencies = rnd.recommend_plan()
        bounds = np.linspace(0, len(order), RECOMMEND_SLICES + 1).astype(np.int64)
        slices = [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        rnd.recommend_calls(slices[0], latencies)
        gauge()
        samples["ingest"] += rnd.repeat(rnd.ingest, phases["ingest"], INGEST_SECONDS)
        rnd.recommend_calls(slices[1], latencies)
        gauge()
        samples["evaluate"] += rnd.repeat(
            lambda: evaluate(rnd.loaded, rnd.split, rnd.eval_config), phases["evaluate"], EVALUATE_SECONDS
        )
        rnd.recommend_calls(slices[2], latencies)
        samples["recommend"] += latencies.min(axis=0).tolist()
        if cycles == 0:
            rss = peak_rss_mb()
        cycles += 1
    gauge()
    return samples, cycles, rss


def main() -> int:
    parser = argparse.ArgumentParser(description="one measured round of a workload")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_PATH")
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    work = os.path.join(os.path.dirname(args.cache), f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        tracer = Tracer() if args.trace else None
        rnd = Round(w, args.seed, args.cache, work, tracer)
        warm_up(rnd)
        gc.collect()
        ready = time.monotonic()
        result = {"ready": ready}
        cal = Calibration()
        cal.kernel()  # off the record: first touches of its arrays
        if tracer is None:
            samples, cycles, rss = measure(rnd, cal, args.budget)
        else:
            cal.measure()
            tracer.install()
            try:
                with rnd.span("pipeline"):
                    phases = rnd.pipeline()
                latencies = rnd.recommend()
            finally:
                tracer.restore()
            cal.measure()
            samples = {"pipeline": [sum(phases.values())], "recommend": latencies.tolist()}
            cycles = 1
            rss = peak_rss_mb()
        result["peak_rss_mb"] = rss
        result["samples"] = samples
        result["calibration"] = cal.samples
        result["cycles"] = cycles
        rows, zero_a, zero_b = rnd.zero_rows()
        # Every cycle attempts the same row fits and recommend calls.
        result["attempted"] = cycles * (rows + RECOMMEND_PASSES * rnd.w.recommend_users)
        result["failed"] = cycles * (zero_a + zero_b)
        rep, ev = rnd.report, rnd.eval_report
        rnd.quality.update({
            "final_objective": rep.final_objective, "auc": ev.auc, f"p_at_{CUTOFF}": ev.p_at_k,
            "test_loglik": ev.test_loglik, "pearson_rho": ev.pearson_rho,
            "users_evaluated": ev.users_evaluated, "zero_rows": zero_a + zero_b,
            "clamp_events": rep.clamp_events, "train_nnz": rnd.split.train.nnz,
        })
        if args.check:
            result["checks"] = rnd.checks()
        result["quality"] = rnd.quality
        if tracer is not None:
            result["layers"] = layer_metrics(rnd, tracer)
            tracer.write(args.trace)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def warm_up(rnd: Round) -> None:
    """Run every public call once on a small slice, off the clock."""
    w = rnd.w
    # Counts cycle through 1..3 so that the held-out counts have variance.
    rng = np.random.default_rng(0)
    users, items = rng.integers(0, 300, 3000), rng.integers(0, 300, 3000)
    counts = 1.0 + np.arange(3000) % 3
    if w.csv:
        tiny_csv = os.path.join(rnd.work, "warm.csv")
        with open(tiny_csv, "w", encoding="utf-8") as fh:
            fh.writelines(f"{rnd.user_tokens[u]},{rnd.item_tokens[i]},{c:g}\n"
                          for u, i, c in zip(users, items, counts))
        data, id_map = build_interactions(read_triplet_file(tiny_csv))
    else:
        data = SparseInteractions.from_entries(users, items, counts, 300, 300)
        id_map = IdMap(rnd.user_tokens[:300], rnd.item_tokens[:300])
    split = split_train_test(data, 0.2, 1, 0)
    if w.csv:
        write_triplet_file(os.path.join(rnd.work, "warm-test.csv"), split.test, id_map)
    config = TrainConfig(k=4, alpha=w.alpha, lam=w.lam, iters=1, solver=rnd.train_config.solver, seed=0)
    model, _ = train(split.train, config, rnd.progress)
    path = os.path.join(rnd.work, "warm.pfmf")
    save_model(path, model, ModelMeta(reg="l2", lam=w.lam, solver=w.solver, seed=0))
    model, _ = load_model(path)
    evaluate(model, split, EvalConfig(cutoff=CUTOFF, sample_users=20, seed=0))
    for u in np.flatnonzero(np.diff(split.train.csr.indptr))[:20]:
        recommend_for_user(model, split.train, id_map, id_map.user_token(int(u)), w.top_n)


def layer_metrics(rnd: Round, tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of a traced round; absent spans give zeros."""
    spans = tracer.by_name()
    empty = (np.zeros(0), np.zeros(0))

    def total(name):
        return float(spans.get(name, empty)[0].sum())

    def calls(name):
        return len(spans.get(name, empty)[0])

    def phase(name):
        return rnd.times.get(name, 0.0)

    w, rep = rnd.w, rnd.report
    updates = calls("trainer.apply_solver")
    cg_evals = calls("vector_solvers.objective_vector") if w.solver == "cg" else 0
    objectives = calls("trainer.full_objective")
    users = rnd.eval_report.users_evaluated
    rec_self = spans.get("cli.recommend_for_user", empty)[1]
    score = spans.get("cli.score_user", empty)[0]
    return {
        "sparse_data.parse_s": total("sparse_data.parse"),
        "sparse_data.build_s": total("sparse_data.build"),
        "sparse_data.parse_lines": rnd.parse_lines,
        "sparse_data.split_s": phase("split"),
        "sparse_data.write_s": phase("write"),
        "sparse_data.rss_mb": rnd.rss["ingest"] + rnd.rss["split"],
        "trainer.iteration_s": float(np.median(rnd.hook_intervals)),
        "trainer.self_s": float(spans.get("trainer.train", empty)[1].sum()),
        "trainer.iterations": rep.iterations,
        "trainer.rss_mb": rnd.rss["train"],
        "trainer.zero_rows": rep.zero_rows_a + rep.zero_rows_b,
        "vector_solvers.updates": updates,
        "vector_solvers.update_s": total("trainer.apply_solver"),
        "vector_solvers.update_us": total("trainer.apply_solver") / updates * 1e6 if updates else 0.0,
        "vector_solvers.gradient_calls": calls("vector_solvers.gradient_vector"),
        "vector_solvers.cg_objective_evals": cg_evals,
        "vector_solvers.cg_evals_per_update": cg_evals / updates if updates else 0.0,
        "poisson_core.objective_s": total("trainer.full_objective"),
        "poisson_core.objective_calls": objectives,
        "poisson_core.objective_gather_mb": objectives * 2 * rnd.split.train.nnz * w.k * 8 / 1e6,
        "poisson_core.prox_s": total("trainer.prox_operator"),
        "poisson_core.clamp_events": rep.clamp_events,
        "evaluator.users": users,
        "evaluator.user_ms": phase("evaluate") / users * 1e3,
        "evaluator.score_s": total("evaluator.score_user"),
        "evaluator.topk_s": total("evaluator.precision_at_k"),
        "evaluator.auc_s": total("evaluator.auc_user"),
        "evaluator.global_s": total("evaluator.pearson_rho") + total("evaluator.test_loglik"),
        "evaluator.self_s": float(spans.get("evaluator.evaluate", empty)[1].sum()),
        "evaluator.rss_mb": rnd.rss["evaluate"],
        "cli.save_s": phase("save"),
        "cli.load_s": phase("load"),
        "cli.model_mb": os.path.getsize(rnd.model_path) / 1e6,
        "cli.recommend_score_us": float(np.median(score)) * 1e6 if len(score) else 0.0,
        "cli.recommend_self_us": float(np.median(rec_self)) * 1e6 if len(rec_self) else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())
