"""Command-line surface: subcommands, exit codes, and model persistence.

Commands run in-process through main(argv) against temporary directories.
The model container is checked for bit-exact round trips and for refusing
corrupted, truncated, or foreign files.
"""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from poisfact import (
    ConfigError,
    DataMismatchError,
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
    main,
    read_triplet_file,
    recommend_for_user,
    save_model,
    split_train_test,
    train,
    write_triplet_file,
)


def write_corpus(path, seed=0, m=30, n=20, density=0.4):
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(m):
        for i in range(n):
            if rng.random() < density:
                lines.append(f"user{u},item{i},{int(rng.integers(1, 6))}")
    path.write_text("\n".join(lines) + "\n")
    return path


def token_rows(triplets):
    """The (user token, item token, count) records of a parsed file, in line order."""
    return [
        (triplets.user_tokens[u], triplets.item_tokens[i], c)
        for u, i, c in zip(triplets.users.tolist(), triplets.items.tolist(), triplets.counts.tolist())
    ]


def train_args(train_path, model_path, *extra):
    return [
        "train", str(train_path), str(model_path),
        "--factors", "3", "--alpha", "1e-2", "--lambda", "5", "--iters", "3",
        "--seed", "11", "--quiet", *extra,
    ]


@pytest.fixture
def workspace(tmp_path):
    corpus = write_corpus(tmp_path / "all.csv")
    assert main(["split", str(corpus), str(tmp_path / "out"), "--seed", "7",
                 "--test-fraction", "0.3", "--min-test-entries", "2"]) == 0
    return tmp_path


# ---------------------------------------------------------------- split


def test_split_outputs_are_reproducible(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "all.csv")
    assert main(["split", str(corpus), str(tmp_path / "a"), "--seed", "5"]) == 0
    assert main(["split", str(corpus), str(tmp_path / "b"), "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("split ") == 2
    for name in ("train.csv", "test.csv", "users.map", "items.map"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # a different seed must move at least one entry
    assert main(["split", str(corpus), str(tmp_path / "c"), "--seed", "6"]) == 0
    assert (tmp_path / "a" / "test.csv").read_bytes() != (tmp_path / "c" / "test.csv").read_bytes()


def test_split_flags_left_out_take_the_library_defaults(tmp_path):
    corpus = write_corpus(tmp_path / "all.csv")
    data, id_map = build_interactions(read_triplet_file(str(corpus)))
    cases = (([], {}), (["--seed", "7"], {"seed": 7}), (["--test-fraction", "0.3"], {"test_fraction": 0.3}))
    for flags, options in cases:
        assert main(["split", str(corpus), str(tmp_path / "out"), *flags]) == 0
        write_triplet_file(str(tmp_path / "library.csv"), split_train_test(data, **options).test, id_map)
        assert (tmp_path / "out" / "test.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_split_prints_the_entry_counts_it_wrote(tmp_path, capsys):
    # the held-out set is a tuple of three columns: its len is 3, not its entry count
    corpus = write_corpus(tmp_path / "all.csv")
    assert main(["split", str(corpus), str(tmp_path / "out"), "--seed", "7", "--test-fraction", "0.3",
                 "--min-test-entries", "2"]) == 0
    line = capsys.readouterr().out
    n_train, n_test = (len((tmp_path / "out" / name).read_text().splitlines()) for name in ("train.csv", "test.csv"))
    assert n_test > 3
    assert line == (f"split {len(corpus.read_text().splitlines())} entries of 30 users x 20 items into "
                    f"{n_train} train and {n_test} test entries\n")


def test_split_train_test_partition_parses_back(workspace):
    full = token_rows(read_triplet_file(str(workspace / "all.csv")))
    train_part = token_rows(read_triplet_file(str(workspace / "out" / "train.csv")))
    test_part = token_rows(read_triplet_file(str(workspace / "out" / "test.csv")))
    full_pairs = {(user, item) for user, item, _ in full}
    train_pairs = {(user, item) for user, item, _ in train_part}
    test_pairs = {(user, item) for user, item, _ in test_part}
    assert not train_pairs & test_pairs
    assert train_pairs <= full_pairs and test_pairs <= full_pairs


def test_split_maps_index_the_model_trained_on_its_train_file(workspace):
    # train numbers ids by first appearance in train.csv, which leaves out held-out entries
    def tokens(id_map):
        return ([id_map.user_token(j) for j in range(id_map.n_users)],
                [id_map.item_token(j) for j in range(id_map.n_items)])

    out = workspace / "out"
    maps = IdMap.load(str(out / "users.map"), str(out / "items.map"))
    assert tokens(maps) == tokens(build_interactions(read_triplet_file(str(out / "train.csv")))[1])


def test_split_failing_partway_keeps_the_previous_outputs(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert main(["split", str(write_corpus(tmp_path / "a.csv", seed=0)), str(out)]) == 0
    first = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(first) == ["items.map", "test.csv", "train.csv", "users.map"]
    second = write_corpus(tmp_path / "b.csv", seed=1, m=25)

    def no_space(self, users_path, items_path):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(IdMap, "save", no_space)
    assert main(["split", str(second), str(out)]) == 3
    assert "No space left on device" in capsys.readouterr().err
    # all four files are the first split's, and no staging directory is left
    assert {path.name: path.read_bytes() for path in out.iterdir()} == first
    monkeypatch.undo()  # the second input does split into other files
    assert main(["split", str(second), str(out)]) == 0
    after = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(after) == sorted(first)
    assert all(after[name] != first[name] for name in first)


def test_split_bad_fraction_exits_2(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "all.csv")
    code = main(["split", str(corpus), str(tmp_path / "out"), "--test-fraction", "1.5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_split_missing_input_exits_3(tmp_path, capsys):
    code = main(["split", str(tmp_path / "nope.csv"), str(tmp_path / "out")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_split_malformed_line_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("u1,i1,2\nu2,i2,zero\n")
    assert main(["split", str(bad), str(tmp_path / "out")]) == 3
    assert "line 2" in capsys.readouterr().err


def test_split_non_utf8_input_exits_3(tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"u1,i1,1\nu\xe9,i2,2\n")
    assert main(["split", str(bad), str(tmp_path / "out")]) == 3
    assert "line 2: line is not valid UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_usage_error_exits_2(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["train"])  # missing required positionals
    assert excinfo.value.code == 2


def test_python_m_poisfact_runs_the_cli_without_warning(tmp_path):
    # `python -m poisfact.cli` warns that the package already imported
    # poisfact.cli; the package's own __main__ must not, and exits with main's code
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "poisfact"]
    shown = subprocess.run([*command, "--help"], env=env, capture_output=True, text=True)
    assert (shown.returncode, shown.stderr) == (0, "")
    assert shown.stdout.startswith("usage:")
    missing = subprocess.run([*command, "split", str(tmp_path / "none.csv"), str(tmp_path / "out")], env=env,
                             capture_output=True, text=True)
    assert missing.returncode == 3 and "Warning" not in missing.stderr


# ---------------------------------------------------------------- train


def test_train_model_roundtrip_is_bit_exact(workspace):
    model_path = workspace / "model.bin"
    assert main(train_args(workspace / "out" / "train.csv", model_path)) == 0
    loaded, meta = load_model(str(model_path))
    data, _ = build_interactions(read_triplet_file(str(workspace / "out" / "train.csv")))
    reference, _ = train(
        data, TrainConfig(k=3, alpha=1e-2, lam=5.0, iters=3, seed=11)
    )
    assert np.array_equal(loaded.A, reference.A)
    assert np.array_equal(loaded.B, reference.B)
    assert (meta.reg, meta.lam, meta.solver, meta.seed) == ("l2", 5.0, "proxgrad", 11)


def test_train_prints_progress_then_summary(workspace, capsys):
    model_path = workspace / "model.bin"
    args = train_args(workspace / "out" / "train.csv", model_path)
    args.remove("--quiet")
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "iteration 1/3 objective" in out
    assert "iteration 3/3 objective" in out
    assert "final objective" in out and "wrote" in out


def test_train_cg_defaults(workspace, capsys):
    model_path = workspace / "cg.bin"
    assert main([
        "train", str(workspace / "out" / "train.csv"), str(model_path),
        "--factors", "2", "--solver", "cg", "--seed", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "iteration 1/30 objective" in out  # cg default iteration count
    _, meta = load_model(str(model_path))
    assert meta.solver == "cg" and meta.lam == 0.0
    # the library's CG defaults train the same model
    data, _ = build_interactions(read_triplet_file(str(workspace / "out" / "train.csv")))
    config = TrainConfig(k=2, solver=SolverChoice(method="cg"), seed=3)
    model, _ = train(data, config)
    library_path = workspace / "library.bin"
    save_model(str(library_path), model, ModelMeta(reg=config.reg, lam=config.lam, solver="cg", seed=3))
    assert library_path.read_bytes() == model_path.read_bytes()


def test_train_export_text(workspace):
    model_path = workspace / "model.bin"
    text_path = workspace / "factors.txt"
    assert main(train_args(
        workspace / "out" / "train.csv", model_path, "--export-text", str(text_path)
    )) == 0
    text = text_path.read_text()
    assert "# user factors A" in text and "# item factors B" in text
    model, _ = load_model(str(model_path))
    assert len(text.strip().split("\n")) == 3 + model.m + model.n


def test_train_export_text_failing_partway_keeps_the_previous_file(workspace, capsys, monkeypatch):
    text_path = workspace / "factors.txt"
    args = train_args(workspace / "out" / "train.csv", workspace / "model.bin", "--export-text", str(text_path))
    assert main(args) == 0
    before = text_path.read_bytes()
    savetxt, calls = np.savetxt, []

    def no_space_for_b(fh, *rest, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # A is written, B is not
            raise OSError(errno.ENOSPC, "No space left on device")
        savetxt(fh, *rest, **kwargs)

    monkeypatch.setattr(np, "savetxt", no_space_for_b)
    assert main(train_args(
        workspace / "out" / "train.csv", workspace / "model.bin", "--export-text", str(text_path), "--seed", "12"
    )) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert text_path.read_bytes() == before
    assert [path.name for path in workspace.iterdir() if path.name.startswith(".")] == []  # no temporary file left


def test_train_numeric_failure_exits_4_without_model(tmp_path, capsys):
    blowup = tmp_path / "blowup.csv"
    blowup.write_text("u0,i0,1e308\n")
    model_path = tmp_path / "model.bin"
    with np.errstate(all="ignore"):
        code = main([
            "train", str(blowup), str(model_path),
            "--factors", "1", "--alpha", "1e3", "--lambda", "0", "--iters", "2", "--quiet",
        ])
    assert code == 4
    assert "iteration 0" in capsys.readouterr().err
    assert not model_path.exists()  # a failed run leaves no partial model


def test_train_merged_overflow_exits_3_without_model(tmp_path, capsys):
    # each count is finite, but the two lines of one pair sum past float64
    overflow = tmp_path / "overflow.csv"
    overflow.write_text("u1,i1,1e308\nu1,i1,1e308\n")
    model_path = tmp_path / "model.bin"
    code = main(["train", str(overflow), str(model_path), "--factors", "1", "--quiet"])
    assert code == 3
    assert "user 'u1' and item 'i1'" in capsys.readouterr().err
    assert not model_path.exists()


def test_train_bad_flag_value_exits_2(workspace, capsys):
    code = main(train_args(workspace / "out" / "train.csv", workspace / "m.bin")[:3] + [
        "--factors", "0",
    ])
    assert code == 2
    assert "k must be" in capsys.readouterr().err


def test_train_nonfinite_lambda_exits_2(workspace, capsys):
    model_path = workspace / "m.bin"
    code = main(train_args(workspace / "out" / "train.csv", model_path)[:3] + ["--lambda", "inf"])
    assert code == 2
    assert "lambda must be finite" in capsys.readouterr().err
    assert not model_path.exists()


# ---------------------------------------------------------------- evaluate


def test_evaluate_matches_api_evaluation(workspace, capsys):
    model_path = workspace / "model.bin"
    assert main(train_args(workspace / "out" / "train.csv", model_path)) == 0
    capsys.readouterr()
    assert main([
        "evaluate", str(model_path),
        str(workspace / "out" / "train.csv"), str(workspace / "out" / "test.csv"),
        "--cutoff", "4", "--seed", "9",
    ]) == 0
    cli_text = capsys.readouterr().out

    model, _ = load_model(str(model_path))
    data, id_map = build_interactions(read_triplet_file(str(workspace / "out" / "train.csv")))
    test = [
        (id_map.user_index(user), id_map.item_index(item), count)
        for user, item, count in token_rows(read_triplet_file(str(workspace / "out" / "test.csv")))
    ]
    report = evaluate(
        model, SplitPair(train=data, test=test), EvalConfig(cutoff=4, seed=9)
    )
    assert cli_text == report.to_text()


def test_evaluate_writes_json_report(workspace, capsys):
    model_path = workspace / "model.bin"
    json_path = workspace / "report.json"
    assert main(train_args(workspace / "out" / "train.csv", model_path)) == 0
    assert main([
        "evaluate", str(model_path),
        str(workspace / "out" / "train.csv"), str(workspace / "out" / "test.csv"),
        "--report-json", str(json_path),
    ]) == 0
    record = json.loads(json_path.read_text())
    out = capsys.readouterr().out
    for key in ("p_at_k", "auc", "pearson_rho", "test_loglik"):
        assert f"{key} {record[key]:.6f}" in out
    assert record["users_evaluated"] + record["users_skipped"] >= record["users_evaluated"]


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_evaluate_json_report_of_a_nan_model_is_strict_json(workspace, capsys):
    model_path = workspace / "model.bin"
    json_path = workspace / "report.json"
    assert main(train_args(workspace / "out" / "train.csv", model_path)) == 0
    model, meta = load_model(str(model_path))
    model.A[2] = np.nan
    save_model(str(model_path), model, meta)
    assert main([
        "evaluate", str(model_path),
        str(workspace / "out" / "train.csv"), str(workspace / "out" / "test.csv"),
        "--report-json", str(json_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "auc nan\n" in out and "test_loglik nan\n" in out
    record = json.loads(json_path.read_text(), parse_constant=refuse_constant)
    assert record["auc"] is None and record["test_loglik"] is None
    assert record["users_evaluated"] > 0


def test_evaluate_one_heldout_entry_reports_a_null_correlation(workspace, capsys):
    # a one-line test file: the correlation is undefined, the other metrics are not
    model_path = workspace / "model.bin"
    json_path = workspace / "report.json"
    one = workspace / "one.csv"
    one.write_text((workspace / "out" / "test.csv").read_text().splitlines(keepends=True)[0])
    assert main(train_args(workspace / "out" / "train.csv", model_path)) == 0
    assert main([
        "evaluate", str(model_path), str(workspace / "out" / "train.csv"), str(one),
        "--report-json", str(json_path),
    ]) == 0
    assert "pearson_rho nan\n" in capsys.readouterr().out
    record = json.loads(json_path.read_text(), parse_constant=refuse_constant)
    assert record["pearson_rho"] is None
    assert (record["users_evaluated"], record["users_skipped"]) == (1, 0)
    assert 0.0 <= record["p_at_k"] <= 1.0 and 0.0 <= record["auc"] <= 1.0


def test_evaluate_report_json_failing_partway_keeps_the_previous_file(workspace, capsys, monkeypatch):
    model_path = workspace / "model.bin"
    json_path = workspace / "report.json"
    assert main(train_args(workspace / "out" / "train.csv", model_path)) == 0
    args = [
        "evaluate", str(model_path),
        str(workspace / "out" / "train.csv"), str(workspace / "out" / "test.csv"),
        "--report-json", str(json_path),
    ]
    assert main(args) == 0
    before = json_path.read_bytes()

    def no_space_after_a_brace(record, fh, **kwargs):
        fh.write("{")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(json, "dump", no_space_after_a_brace)
    assert main(args + ["--cutoff", "3"]) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert json_path.read_bytes() == before
    assert [path.name for path in workspace.iterdir() if path.name.startswith(".")] == []  # no temporary file left


def test_evaluate_drops_unknown_test_ids_with_note(workspace, capsys):
    model_path = workspace / "model.bin"
    assert main(train_args(workspace / "out" / "train.csv", model_path)) == 0
    test_path = workspace / "out" / "test.csv"
    test_path.write_text(test_path.read_text() + "brandnewuser,item0,2\n")
    assert main([
        "evaluate", str(model_path),
        str(workspace / "out" / "train.csv"), str(test_path),
    ]) == 0
    assert "dropped 1 test entries" in capsys.readouterr().err


def test_evaluate_dimension_mismatch_exits_5(workspace, tmp_path, capsys):
    other = write_corpus(tmp_path / "other.csv", seed=4, m=8, n=6)
    model_path = tmp_path / "small.bin"
    assert main(train_args(other, model_path)) == 0
    code = main([
        "evaluate", str(model_path),
        str(workspace / "out" / "train.csv"), str(workspace / "out" / "test.csv"),
    ])
    assert code == 5
    assert "users" in capsys.readouterr().err


def test_evaluate_missing_model_exits_3(workspace, capsys):
    code = main([
        "evaluate", str(workspace / "absent.bin"),
        str(workspace / "out" / "train.csv"), str(workspace / "out" / "test.csv"),
    ])
    assert code == 3


# ---------------------------------------------------------------- model container


def test_model_rejects_corrupted_payload(workspace, capsys):
    model_path = workspace / "model.bin"
    assert main(train_args(workspace / "out" / "train.csv", model_path)) == 0
    blob = bytearray(model_path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    model_path.write_bytes(bytes(blob))
    code = main([
        "evaluate", str(model_path),
        str(workspace / "out" / "train.csv"), str(workspace / "out" / "test.csv"),
    ])
    assert code == 3
    assert "checksum" in capsys.readouterr().err


def test_model_rejects_truncation_and_bad_magic(workspace, capsys):
    model_path = workspace / "model.bin"
    assert main(train_args(workspace / "out" / "train.csv", model_path)) == 0
    blob = model_path.read_bytes()
    short = workspace / "short.bin"
    short.write_bytes(blob[: len(blob) - 9])
    assert main([
        "evaluate", str(short),
        str(workspace / "out" / "train.csv"), str(workspace / "out" / "test.csv"),
    ]) == 3
    foreign = workspace / "foreign.bin"
    foreign.write_bytes(b"XXXX" + blob[4:])
    assert main([
        "evaluate", str(foreign),
        str(workspace / "out" / "train.csv"), str(workspace / "out" / "test.csv"),
    ]) == 3
    err = capsys.readouterr().err
    assert "wrong length" in err or "truncated" in err
    assert "not a model file" in err


def test_save_load_roundtrip_direct(tmp_path):
    rng = np.random.default_rng(71)
    model = FactorModel(rng.uniform(0, 2, (7, 3)), rng.uniform(0, 2, (5, 3)), 3)
    meta = ModelMeta(reg="l1", lam=0.25, solver="cg", seed=99)
    path = tmp_path / "m.bin"
    save_model(str(path), model, meta)
    back, back_meta = load_model(str(path))
    assert np.array_equal(back.A, model.A) and np.array_equal(back.B, model.B)
    assert back_meta == meta


# ---------------------------------------------------------------- recommend


def test_recommend_orders_and_excludes_history(workspace, capsys):
    model_path = workspace / "model.bin"
    train_file = workspace / "out" / "train.csv"
    assert main(train_args(train_file, model_path)) == 0
    capsys.readouterr()
    assert main(["recommend", str(model_path), str(train_file), "user3", "--top-n", "6"]) == 0
    out_lines = capsys.readouterr().out.strip().split("\n")
    got_tokens = [line.split(",")[0] for line in out_lines]

    model, _ = load_model(str(model_path))
    data, id_map = build_interactions(read_triplet_file(str(train_file)))
    u = id_map.user_index("user3")
    scores = model.B @ model.A[u]
    seen = set(data.row(u)[0].tolist())
    expected = sorted(
        (i for i in range(model.n) if i not in seen), key=lambda i: (-scores[i], i)
    )[:6]
    assert got_tokens == [id_map.item_token(i) for i in expected]
    assert not {id_map.item_token(i) for i in seen} & set(got_tokens)


def test_split_evaluate_and_recommend_build_no_column_view(workspace, monkeypatch):
    # every command reads the user-major CSR alone; training's item half reads its transpose
    model_path = workspace / "model.bin"
    train_file, test_file = workspace / "out" / "train.csv", workspace / "out" / "test.csv"
    assert main(train_args(train_file, model_path)) == 0

    def refuse(csr, copy=False):
        raise AssertionError("built a column view")

    monkeypatch.setattr(sp.csr_matrix, "tocsc", refuse)
    assert main(["split", str(workspace / "all.csv"), str(workspace / "again"), "--seed", "7"]) == 0
    assert main(["evaluate", str(model_path), str(train_file), str(test_file)]) == 0
    assert main(["recommend", str(model_path), str(train_file), "user3", "--top-n", "4"]) == 0
    assert main(train_args(train_file, workspace / "again.bin")) == 0
    assert (workspace / "again.bin").read_bytes() == model_path.read_bytes()


def test_recommend_top_n_larger_than_catalog(workspace, capsys):
    model_path = workspace / "model.bin"
    train_file = workspace / "out" / "train.csv"
    assert main(train_args(train_file, model_path)) == 0
    capsys.readouterr()
    assert main(["recommend", str(model_path), str(train_file), "user3", "--top-n", "10000"]) == 0
    out_lines = capsys.readouterr().out.strip().split("\n")
    data, id_map = build_interactions(read_triplet_file(str(train_file)))
    n_seen = len(data.row(id_map.user_index("user3"))[0])
    assert len(out_lines) == data.n - n_seen


def test_recommend_unknown_user_exits_5(workspace, capsys):
    model_path = workspace / "model.bin"
    train_file = workspace / "out" / "train.csv"
    assert main(train_args(train_file, model_path)) == 0
    code = main(["recommend", str(model_path), str(train_file), "ghost"])
    assert code == 5
    assert "unknown user id 'ghost'" in capsys.readouterr().err


def test_recommend_for_user_rejects_mismatched_dimensions():
    # a 3 x 6 history seen by a 3 x 4 model would index items the model lacks
    rng = np.random.default_rng(74)
    data = SparseInteractions.from_entries([0, 1, 2], [5, 0, 3], np.ones(3), 3, 6)
    users, items = ["u0", "u1", "u2"], [f"i{i}" for i in range(6)]
    id_map = IdMap(users, items)
    narrow = FactorModel(rng.gamma(1.0, size=(3, 2)), rng.gamma(1.0, size=(4, 2)), 2)
    with pytest.raises(DataMismatchError, match="model is 3 users x 4 items but the training data has 3 users x 6 items"):
        recommend_for_user(narrow, data, id_map, "u0", 2)
    short = FactorModel(rng.gamma(1.0, size=(2, 2)), rng.gamma(1.0, size=(6, 2)), 2)
    with pytest.raises(DataMismatchError, match="model is 2 users x 6 items"):
        recommend_for_user(short, data, id_map, "u0", 2)
    model = FactorModel(rng.gamma(1.0, size=(3, 2)), rng.gamma(1.0, size=(6, 2)), 2)
    with pytest.raises(DataMismatchError, match="id map has 2 users x 6 items but the training data has 3 users x 6 items"):
        recommend_for_user(model, data, IdMap(users[:2], items), "u0", 2)
    with pytest.raises(DataMismatchError, match="id map has 3 users x 4 items"):
        recommend_for_user(model, data, IdMap(users, items[:4]), "u0", 2)
    assert len(recommend_for_user(model, data, id_map, "u0", 2).items) == 2


def test_recommend_with_model_of_another_file_exits_5(workspace, tmp_path, capsys):
    other = write_corpus(tmp_path / "other.csv", seed=4, m=8, n=6)
    model_path = tmp_path / "small.bin"
    assert main(train_args(other, model_path)) == 0
    capsys.readouterr()
    code = main(["recommend", str(model_path), str(workspace / "out" / "train.csv"), "user3"])
    out = capsys.readouterr()
    assert code == 5
    assert out.out == ""
    assert "model is 8 users x 6 items but the training data has 30 users x 20 items" in out.err


def test_recommend_for_user_rejects_nonpositive_top_n(workspace):
    model_path = workspace / "model.bin"
    train_file = workspace / "out" / "train.csv"
    assert main(train_args(train_file, model_path)) == 0
    model, _ = load_model(str(model_path))
    data, id_map = build_interactions(read_triplet_file(str(train_file)))
    for top_n in (0, -2):
        with pytest.raises(ConfigError, match="top-n"):
            recommend_for_user(model, data, id_map, "user3", top_n)
    assert len(recommend_for_user(model, data, id_map, "user3", 1).items) == 1


def test_recommend_for_user_all_zero_row_returns_first_unseen_items():
    # an all-zero factor row scores every item 0.0, so every item ties and
    # the answer is the first top_n items outside the history by index
    rng = np.random.default_rng(73)
    m, n = 4, 40
    history = [0, 2, 3]
    users = np.array([1, 1, 1, 0, 2])
    items = np.array(history + [5, 7])
    data = SparseInteractions.from_entries(users, items, np.ones(5), m, n)
    id_map = IdMap([f"u{u}" for u in range(m)], [f"i{i}" for i in range(n)])
    A = rng.gamma(1.0, size=(m, 3))
    A[1] = 0.0
    model = FactorModel(A, rng.gamma(1.0, size=(n, 3)), 3)
    recs = recommend_for_user(model, data, id_map, "u1", 5)
    assert recs.items == [("i1", 0.0), ("i4", 0.0), ("i5", 0.0), ("i6", 0.0), ("i7", 0.0)]
    unseen = [i for i in range(n) if i not in history]
    recs = recommend_for_user(model, data, id_map, "u1", 50)
    assert recs.items == [(f"i{i}", 0.0) for i in unseen]


def test_recommend_negative_top_n_exits_2(workspace, capsys):
    model_path = workspace / "model.bin"
    train_file = workspace / "out" / "train.csv"
    assert main(train_args(train_file, model_path)) == 0
    capsys.readouterr()
    code = main(["recommend", str(model_path), str(train_file), "user3", "--top-n", "-2"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "top-n must be >= 1, got -2" in out.err


# ---------------------------------------------------------------- formats


def test_tsv_with_header_end_to_end(tmp_path, capsys):
    rng = np.random.default_rng(72)
    lines = ["user\titem\tcount"]
    for u in range(12):
        for i in range(8):
            if rng.random() < 0.55:
                lines.append(f"u{u}\ti{i}\t{int(rng.integers(1, 5))}")
    src = tmp_path / "data.tsv"
    src.write_text("\n".join(lines) + "\n")
    assert main([
        "split", str(src), str(tmp_path / "out"),
        "--format", "tsv", "--header", "--min-test-entries", "1", "--seed", "2",
    ]) == 0
    model_path = tmp_path / "model.bin"
    assert main([
        "train", str(tmp_path / "out" / "train.tsv"), str(model_path),
        "--format", "tsv", "--factors", "2", "--alpha", "1e-2", "--lambda", "3",
        "--iters", "2", "--quiet",
    ]) == 0
    assert main([
        "evaluate", str(model_path),
        str(tmp_path / "out" / "train.tsv"), str(tmp_path / "out" / "test.tsv"),
        "--format", "tsv",
    ]) == 0
    assert "auc " in capsys.readouterr().out
