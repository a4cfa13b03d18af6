"""Command-line surface: split, train, evaluate, recommend, model persistence.

Models are persisted in a small versioned binary container: a fixed header
(dimensions, regularization, solver tag, seed), the two factor matrices as
row-major little-endian float64 payloads, and a trailing CRC32 of the
payloads. Loading verifies the checksum, and saving goes through a temporary
file renamed into place, so a failed run never leaves a partial model behind.

Exit codes: 0 success, 2 usage or configuration, 3 IO or parse, 4 numeric
failure, 5 data mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import struct
import sys
import tempfile
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DataMismatchError, PoisfactError
from .evaluator import EvalConfig, evaluate, score_user, top_n_unseen
from .sparse_data import (
    IdMap,
    SparseInteractions,
    SplitPair,
    build_interactions,
    open_replacing,
    read_triplet_file,
    split_train_test,
    write_triplet_file,
)
from .trainer import FactorModel, TrainConfig, train
from .vector_solvers import CONJGRAD, PROXGRAD, SolverChoice

MAGIC = b"PFMF"
MODEL_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQQQBBdq")
_REG_TAGS = {"l2": 0, "l1": 1}
_SOLVER_TAGS = {PROXGRAD: 0, CONJGRAD: 1}
_DELIMITERS = {"csv": ",", "tsv": "\t"}


@dataclass(frozen=True)
class ModelMeta:
    """Provenance stored in the model header."""

    reg: str = "l2"
    lam: float = 0.0
    solver: str = PROXGRAD
    seed: int = 42


@dataclass
class RecommendationList:
    """Top-N items for one user, best first, training history excluded."""

    user: str
    items: list[tuple[str, float]]


def save_model(path: str, model: FactorModel, meta: ModelMeta) -> None:
    """Write the binary model container atomically.

    The payload bytes are exactly the row-major float64 factors, so a
    save/load round trip reproduces every value bit for bit.
    """
    a_bytes = np.ascontiguousarray(model.A, dtype="<f8").tobytes()
    b_bytes = np.ascontiguousarray(model.B, dtype="<f8").tobytes()
    try:
        header = _HEADER.pack(
            MAGIC,
            MODEL_FORMAT_VERSION,
            model.m,
            model.n,
            model.k,
            _REG_TAGS[meta.reg],
            _SOLVER_TAGS[meta.solver],
            meta.lam,
            meta.seed,
        )
    except (KeyError, struct.error) as exc:
        raise ConfigError(f"cannot encode model header: {exc}") from None
    crc = zlib.crc32(b_bytes, zlib.crc32(a_bytes))
    with open_replacing(path, binary=True) as fh:
        fh.write(header)
        fh.write(a_bytes)
        fh.write(b_bytes)
        fh.write(struct.pack("<I", crc))


def load_model(path: str) -> tuple[FactorModel, ModelMeta]:
    """Read a model container, verifying structure and checksum."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size + 4:
        raise DataError(f"model file {path} is truncated")
    magic, version, m, n, k, reg_tag, solver_tag, lam, seed = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise DataError(f"{path} is not a model file (bad magic)")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version}")
    expected = _HEADER.size + (m * k + n * k) * 8 + 4
    if len(blob) != expected:
        raise DataError(f"model file {path} has wrong length for its header")
    payload = blob[_HEADER.size : -4]
    (crc_stored,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != crc_stored:
        raise DataError(f"model file {path} failed its checksum; refusing to load")
    reg = {v: key for key, v in _REG_TAGS.items()}.get(reg_tag)
    solver = {v: key for key, v in _SOLVER_TAGS.items()}.get(solver_tag)
    if reg is None or solver is None:
        raise DataError(f"model file {path} carries unknown regularization or solver tags")
    A = np.frombuffer(payload, dtype="<f8", count=m * k).reshape(m, k).astype(np.float64)
    B = (
        np.frombuffer(payload, dtype="<f8", offset=m * k * 8, count=n * k)
        .reshape(n, k)
        .astype(np.float64)
    )
    return FactorModel(A=A, B=B, k=k), ModelMeta(reg=reg, lam=lam, solver=solver, seed=seed)


def export_model_text(path: str, model: FactorModel) -> None:
    """Plain-text factor dump for inspection, replacing ``path`` only once complete; not for reloading."""
    with open_replacing(path) as fh:
        fh.write(f"# m={model.m} n={model.n} k={model.k}\n")
        fh.write("# user factors A\n")
        np.savetxt(fh, model.A, fmt="%.17g")
        fh.write("# item factors B\n")
        np.savetxt(fh, model.B, fmt="%.17g")


def _check_model_matches(model: FactorModel, data: SparseInteractions) -> None:
    if model.m != data.m or model.n != data.n:
        raise DataMismatchError(
            f"model is {model.m} users x {model.n} items but the training data has "
            f"{data.m} users x {data.n} items"
        )


def recommend_for_user(
    model: FactorModel,
    data: SparseInteractions,
    id_map: IdMap,
    user_token: str,
    top_n: int,
) -> RecommendationList:
    """Rank unseen items for one user by predicted count.

    Items from the user's training history never appear. Ties are broken by
    ascending item index; asking for more items than are eligible returns
    them all. A ``top_n`` below 1 raises ConfigError; a model, training data
    and id map of different dimensions raise DataMismatchError.
    """
    if top_n < 1:
        raise ConfigError(f"top-n must be >= 1, got {top_n}")
    _check_model_matches(model, data)
    if (id_map.n_users, id_map.n_items) != (data.m, data.n):
        raise DataMismatchError(
            f"id map has {id_map.n_users} users x {id_map.n_items} items but the training data has "
            f"{data.m} users x {data.n} items"
        )
    u = id_map.user_index(user_token)
    scores = score_user(model, u)
    top = top_n_unseen(scores, data.row(u)[0], top_n)
    return RecommendationList(
        user=user_token,
        items=[(id_map.item_token(int(i)), float(scores[i])) for i in top],
    )


def _load_train_data(args) -> tuple[SparseInteractions, IdMap]:
    delimiter = _DELIMITERS[args.format]
    triplets = read_triplet_file(args.train, delimiter, args.header)
    return build_interactions(triplets)


def cmd_split(args) -> int:
    delimiter = _DELIMITERS[args.format]
    triplets = read_triplet_file(args.input, delimiter, args.header)
    data, id_map = build_interactions(triplets)
    pair = split_train_test(data, args.test_fraction, args.min_test_entries, args.seed)
    train_entries = pair.train.entries()
    # the maps number ids as `train` does on train.csv: by first appearance there
    users, items = (dict.fromkeys(column.tolist()) for column in train_entries[:2])
    train_map = IdMap([triplets.user_tokens[u] for u in users], [triplets.item_tokens[i] for i in items])
    os.makedirs(args.outdir, exist_ok=True)
    # all four outputs are written into a staging directory and moved over
    # the targets only once every write has succeeded
    names = (f"train.{args.format}", f"test.{args.format}", "users.map", "items.map")
    staging = tempfile.mkdtemp(prefix=".split-", dir=args.outdir)
    try:
        staged = [os.path.join(staging, name) for name in names]
        write_triplet_file(staged[0], train_entries, id_map, delimiter)
        write_triplet_file(staged[1], pair.test, id_map, delimiter)
        train_map.save(staged[2], staged[3])
        for path, name in zip(staged, names):
            os.replace(path, os.path.join(args.outdir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    print(
        f"split {data.nnz} entries of {data.m} users x {data.n} items into "
        f"{pair.train.nnz} train and {len(pair.test[2])} test entries"
    )
    return 0


def cmd_train(args) -> int:
    data, _ = _load_train_data(args)
    if args.solver == PROXGRAD:
        lam = 1e9 if args.lam is None else args.lam
        iters = 10 if args.iters is None else args.iters
        solver = SolverChoice(method=PROXGRAD, tau=1 if args.tau is None else args.tau)
    else:
        # CG line-searches its own steps and tolerates no regularization;
        # --tau caps its updates per vector.
        lam = 0.0 if args.lam is None else args.lam
        iters = 30 if args.iters is None else args.iters
        solver = SolverChoice(method=CONJGRAD, max_updates=5 if args.tau is None else args.tau)
    config = TrainConfig(
        k=args.factors,
        alpha=args.alpha,
        lam=lam,
        iters=iters,
        solver=solver,
        reg=args.reg,
        seed=args.seed,
    )

    progress = None
    if not args.quiet:
        def progress(iteration, objective, seconds):
            print(f"iteration {iteration + 1}/{iters} objective {objective:.6e} ({seconds:.2f}s)")

    model, report = train(data, config, progress)
    save_model(args.model, model, ModelMeta(reg=args.reg, lam=lam, solver=args.solver, seed=args.seed))
    if args.export_text:
        export_model_text(args.export_text, model)
    if report.zero_rows_a or report.zero_rows_b:
        print(
            f"warning: {report.zero_rows_a} user rows and {report.zero_rows_b} item rows "
            "with training entries ended up all zero",
            file=sys.stderr,
        )
    print(f"final objective {report.final_objective:.6e}; wrote {args.model}")
    return 0


def cmd_evaluate(args) -> int:
    model, _ = load_model(args.model)
    data, id_map = _load_train_data(args)
    _check_model_matches(model, data)
    delimiter = _DELIMITERS[args.format]
    raw_test = read_triplet_file(args.test, delimiter, args.header)
    # each distinct test token is looked up once; -1 marks one unknown to training
    user_of = np.array(
        [id_map.user_index(t) if id_map.has_user(t) else -1 for t in raw_test.user_tokens],
        dtype=np.int64,
    )
    item_of = np.array(
        [id_map.item_index(t) if id_map.has_item(t) else -1 for t in raw_test.item_tokens],
        dtype=np.int64,
    )
    users, items = user_of[raw_test.users], item_of[raw_test.items]
    known = (users >= 0) & (items >= 0)
    test = (users[known], items[known], raw_test.counts[known])
    dropped = len(raw_test) - int(known.sum())
    if dropped:
        print(
            f"note: dropped {dropped} test entries with ids not present in the training data",
            file=sys.stderr,
        )
    split = SplitPair(train=data, test=test)
    report = evaluate(
        model, split, EvalConfig(cutoff=args.cutoff, sample_users=args.sample_users, seed=args.seed)
    )
    sys.stdout.write(report.to_text())
    if args.report_json:
        with open_replacing(args.report_json) as fh:
            json.dump(report.to_record(), fh, indent=2, allow_nan=False)
            fh.write("\n")
    return 0


def cmd_recommend(args) -> int:
    model, _ = load_model(args.model)
    data, id_map = _load_train_data(args)
    recs = recommend_for_user(model, data, id_map, args.user, args.top_n)
    delimiter = _DELIMITERS[args.format]
    for token, score in recs.items:
        print(f"{token}{delimiter}{score:.6g}")
    return 0


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=_DELIMITERS, default="csv", help="triplet file delimiter")
    parser.add_argument("--header", action="store_true", help="input triplet files carry a header row")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisfact",
        description="Poisson matrix factorization for implicit-feedback count data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="hold out a random fraction of entries as a test set")
    p.add_argument("input", help="triplet file: user, item, count")
    p.add_argument("outdir", help="directory for train/test files and id maps")
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--min-test-entries", type=int, default=3)
    p.add_argument("--seed", type=int, default=42)
    _add_format_flags(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="fit factor matrices to a training file")
    p.add_argument("train", help="training triplet file")
    p.add_argument("model", help="output model path")
    p.add_argument("--factors", type=int, default=TrainConfig.k, help="rank k")
    p.add_argument("--alpha", type=float, default=TrainConfig.alpha, help="initial step size (proxgrad)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="regularization strength (default 1e9 for proxgrad, 0 for cg)")
    p.add_argument("--iters", type=int, default=None,
                   help="outer iterations (default 10 for proxgrad, 30 for cg)")
    p.add_argument("--tau", type=int, default=None,
                   help="updates per vector per iteration (default 1 for proxgrad, 5 for cg)")
    p.add_argument("--solver", choices=_SOLVER_TAGS, default=PROXGRAD)
    p.add_argument("--reg", choices=_REG_TAGS, default="l2")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility and ignored: both solvers update whole matrices")
    p.add_argument("--export-text", metavar="PATH", help="also dump factors as text")
    p.add_argument("--quiet", action="store_true", help="suppress the per-iteration trace")
    _add_format_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a model against a held-out test file")
    p.add_argument("model")
    p.add_argument("train", help="training triplet file (defines the id space)")
    p.add_argument("test", help="held-out triplet file")
    p.add_argument("--cutoff", type=int, default=EvalConfig.cutoff, help="precision cutoff")
    p.add_argument("--sample-users", type=int, default=EvalConfig.sample_users)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--report-json", metavar="PATH", help="also write the report as JSON")
    _add_format_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="top-N unseen items for one user")
    p.add_argument("model")
    p.add_argument("train", help="training triplet file (defines the id space)")
    p.add_argument("user", help="external user id")
    p.add_argument("--top-n", type=int, default=10)
    _add_format_flags(p)
    p.set_defaults(func=cmd_recommend)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PoisfactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
