"""Ingestion, id mapping, sparse storage and its derived views, and the holdout split."""

import io
import math
import os
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
import scipy.sparse as sp

import poisfact.sparse_data as sparse_data
from poisfact import (
    ConfigError,
    DataError,
    DataMismatchError,
    IdMap,
    ParseError,
    SparseInteractions,
    Triplets,
    build_interactions,
    parse_triplets,
    read_triplet_file,
    split_train_test,
    write_triplet_file,
)


def merge_oracle(triplets):
    """Scalar-accumulator reference for the duplicate-merge rule."""
    sums = {}
    for user, item, count in triplets:
        sums[(user, item)] = sums.get((user, item), 0.0) + count
    return sums


def materialize(data):
    """All (u, i, x) entries of a SparseInteractions via its row view."""
    out = {}
    for u in range(data.m):
        items, values = data.row(u)
        for i, x in zip(items.tolist(), values.tolist()):
            out[(u, i)] = x
    return out


def materialize_cols(data):
    """Same entry set read through a column view built here from the CSR."""
    csc = data.csr.tocsc()
    out = {}
    for i in range(data.n):
        lo, hi = csc.indptr[i], csc.indptr[i + 1]
        for u, x in zip(csc.indices[lo:hi].tolist(), csc.data[lo:hi].tolist()):
            out[(u, i)] = x
    return out


def reference_parse(source, delimiter=",", has_header=False):
    """The per-line parser: (user, item, count) tuples, one per kept line.

    The columnar reader must agree with it on every input, including the
    message and line number of the first ParseError.
    """
    rows = []
    for line_no, line in enumerate(source, start=1):
        if has_header and line_no == 1:
            continue
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        fields = line.split(delimiter)
        if len(fields) < 3:
            raise ParseError(f"expected at least 3 fields, got {len(fields)}", line_no)
        user, item, raw_count = fields[0].strip(), fields[1].strip(), fields[2].strip()
        if not user:
            raise ParseError("empty user id", line_no)
        if not item:
            raise ParseError("empty item id", line_no)
        try:
            count = float(raw_count)
        except ValueError:
            raise ParseError(f"count is not a number: {raw_count!r}", line_no) from None
        if not np.isfinite(count):
            raise ParseError(f"count is not finite: {raw_count!r}", line_no)
        if count <= 0:
            raise ParseError(f"count must be positive, got {raw_count!r}", line_no)
        rows.append((user, item, count))
    return rows


def rows_of(triplets):
    """The (user token, item token, count) records of a Triplets, in line order."""
    return [
        (triplets.user_tokens[u], triplets.item_tokens[i], c)
        for u, i, c in zip(triplets.users.tolist(), triplets.items.tolist(), triplets.counts.tolist())
    ]


def triplets_of(rows):
    """A Triplets holding (user, item, count) records, codes in first-appearance order."""
    users, items = {}, {}
    for user, item, _ in rows:
        users.setdefault(user, len(users))
        items.setdefault(item, len(items))
    return Triplets(
        tuple(users),
        tuple(items),
        np.array([users[u] for u, _, _ in rows], dtype=np.int64),
        np.array([items[i] for _, i, _ in rows], dtype=np.int64),
        np.array([c for _, _, c in rows], dtype=np.float64),
    )


def random_rows(rng, n_rows, n_users=20, n_items=15):
    return [
        (
            f"u{rng.integers(n_users)}",
            f"i{rng.integers(n_items)}",
            float(rng.integers(1, 9)),
        )
        for _ in range(n_rows)
    ]


def random_triplets(rng, n_rows, n_users=20, n_items=15):
    return triplets_of(random_rows(rng, n_rows, n_users, n_items))


# ---------------------------------------------------------------- parsing


def test_parse_two_plain_lines():
    got = parse_triplets(io.StringIO("u1,i1,3\nu2,i1,1"))
    assert rows_of(got) == [("u1", "i1", 3.0), ("u2", "i1", 1.0)]
    assert got.user_tokens == ("u1", "u2") and got.item_tokens == ("i1",)
    assert got.users.tolist() == [0, 1] and got.items.tolist() == [0, 0]
    assert got.users.dtype == got.items.dtype == np.int64 and got.counts.dtype == np.float64
    assert len(got) == 2


def test_parse_rejects_zero_count():
    with pytest.raises(ParseError, match="line 1"):
        parse_triplets(io.StringIO("u1,i1,0"))


def test_parse_rejects_negative_and_nonnumeric_counts():
    with pytest.raises(ParseError, match="line 2"):
        parse_triplets(io.StringIO("u1,i1,1\nu1,i2,-3"))
    with pytest.raises(ParseError, match="line 1.*number"):
        parse_triplets(io.StringIO("u1,i1,abc"))
    with pytest.raises(ParseError, match="finite"):
        parse_triplets(io.StringIO("u1,i1,inf"))


def test_parse_rejects_short_and_empty_fields():
    with pytest.raises(ParseError, match="3 fields"):
        parse_triplets(io.StringIO("u1,i1"))
    with pytest.raises(ParseError, match="empty user"):
        parse_triplets(io.StringIO(",i1,2"))
    with pytest.raises(ParseError, match="empty item"):
        parse_triplets(io.StringIO("u1, ,2"))


def test_parse_header_extra_columns_and_blank_lines():
    text = "user,item,count,ts\nu1,i1,2,999\n\nu2,i1,1,888\n"
    got = parse_triplets(io.StringIO(text), has_header=True)
    assert rows_of(got) == [("u1", "i1", 2.0), ("u2", "i1", 1.0)]


def test_parse_tab_delimiter():
    got = parse_triplets(io.StringIO("a\tb\t1.5\n"), delimiter="\t")
    assert rows_of(got) == [("a", "b", 1.5)]


def test_parse_preserves_duplicates():
    got = parse_triplets(io.StringIO("u1,i1,2\nu1,i1,3"))
    assert len(got) == 2  # merged later by build_interactions


# ---------------------------------------------------------------- building


def test_build_merges_duplicates_by_summation():
    data, _ = build_interactions(triplets_of([("u1", "i1", 2.0), ("u1", "i1", 3.0)]))
    assert data.nnz == 1
    assert materialize(data) == {(0, 0): 5.0}


def test_build_two_by_two_views_transposed():
    data, _ = build_interactions(triplets_of([("u1", "i1", 1.0), ("u2", "i2", 1.0)]))
    assert (data.m, data.n, data.nnz) == (2, 2, 2)
    assert materialize(data) == materialize_cols(data)


def test_build_random_views_match_merge_oracle():
    rng = np.random.default_rng(7)
    rows = random_rows(rng, 1000)
    data, id_map = build_interactions(triplets_of(rows))
    internal = [
        (id_map.user_index(user), id_map.item_index(item), count) for user, item, count in rows
    ]
    expected = merge_oracle(internal)
    assert materialize(data) == expected
    assert materialize_cols(data) == expected


def test_build_first_appearance_order():
    data, id_map = build_interactions(
        triplets_of([("zz", "b", 1.0), ("aa", "a", 1.0), ("zz", "a", 2.0)])
    )
    assert id_map.user_index("zz") == 0 and id_map.user_index("aa") == 1
    assert id_map.item_index("b") == 0 and id_map.item_index("a") == 1
    assert id_map.user_token(0) == "zz"


def test_build_empty_raises():
    with pytest.raises(DataError, match="empty"):
        build_interactions(triplets_of([]))


def test_build_merged_overflow_names_the_pair():
    triplets = parse_triplets(io.StringIO("u0,i0,1\nu1,i1,1e308\nu1,i1,1e308\n"))
    with pytest.raises(DataError, match="'u1' and item 'i1'"):
        build_interactions(triplets)


def test_views_are_sorted_and_immutable():
    rng = np.random.default_rng(3)
    data, _ = build_interactions(random_triplets(rng, 300))
    assert "csc" not in vars(data)  # the column view is built on first use
    for u in range(data.m):
        items, _ = data.row(u)
        assert np.all(np.diff(items) > 0)
    for i in range(data.n):
        assert np.all(np.diff(data.csc.indices[data.csc.indptr[i] : data.csc.indptr[i + 1]]) > 0)
    for view in (data.csr, data.csc):
        with pytest.raises(ValueError):
            view.data[0] = 99.0


def test_roundtrip_rebuild_identical():
    rng = np.random.default_rng(11)
    data, _ = build_interactions(random_triplets(rng, 500))
    users, items, counts = data.entries()
    rebuilt = SparseInteractions.from_entries(users, items, counts, data.m, data.n)
    assert rebuilt == data


def test_from_entries_validates():
    with pytest.raises(ValueError, match="positive"):
        SparseInteractions.from_entries([0], [0], [0.0], 1, 1)
    with pytest.raises(ValueError, match="range"):
        SparseInteractions.from_entries([0], [5], [1.0], 1, 2)
    with pytest.raises(ValueError, match=r"entry \(1, 0\) is not finite"):
        SparseInteractions.from_entries([0, 1, 1], [0, 0, 0], [1.0, 1e308, 1e308], 2, 1)
    empty = SparseInteractions.from_entries([], [], [], 3, 4)
    assert (empty.m, empty.n, empty.nnz) == (3, 4, 0)


def test_row_entries_equals_scipy_row_indexing():
    rng = np.random.default_rng(40)
    dense = (rng.random((30, 20)) < 0.3) * rng.integers(1, 6, size=(30, 20)).astype(float)
    dense[[3, 11, 17]] = 0.0  # rows without entries
    dense[[5, 8], :4] = 2.0
    narrow = sp.csr_matrix(dense)
    wide = narrow.copy()
    wide.indices, wide.indptr = narrow.indices.astype(np.int64), narrow.indptr.astype(np.int64)
    assert narrow.indptr.dtype == np.int32 and wide.indptr.dtype == np.int64
    r = narrow.shape[0]
    picks = [[], [3], [5], [3, 11, 17], [0, 3, 4, 11, 12, 17, r - 1], list(range(1, r)), list(range(r))]
    picks += [np.flatnonzero(rng.random(r) < 0.5) for _ in range(5)]
    for counts in (narrow, wide):
        every, none = sparse_data.row_entries(counts.indptr)
        assert none is None and every.dtype == counts.indptr.dtype
        assert np.array_equal(every, np.repeat(np.arange(r), np.diff(counts.indptr)))
        for pick in picks:
            pick = np.asarray(pick, dtype=np.int64)
            (owner, at), want = sparse_data.row_entries(counts.indptr, pick), counts[pick]
            degrees = np.diff(counts.indptr)[pick]
            assert owner.dtype == counts.indptr.dtype
            assert np.array_equal(owner, np.repeat(np.arange(len(pick)), degrees))
            assert np.array_equal(np.bincount(owner, minlength=len(pick)), np.diff(want.indptr))
            assert np.array_equal(counts.indices[at], want.indices)
            assert np.array_equal(counts.data[at], want.data)


# ---------------------------------------------------------------- id maps


def test_idmap_bijective_lookup():
    id_map = IdMap(["x", "y"], ["p", "q", "r"])
    assert id_map.n_users == 2 and id_map.n_items == 3
    for j, tok in enumerate(["p", "q", "r"]):
        assert id_map.item_index(tok) == j
        assert id_map.item_token(j) == tok


def test_idmap_unknown_tokens():
    id_map = IdMap(["x"], ["p"])
    with pytest.raises(DataMismatchError, match="ghost"):
        id_map.user_index("ghost")
    with pytest.raises(DataMismatchError, match="gone"):
        id_map.item_index("gone")
    assert not id_map.has_user("ghost") and id_map.has_user("x")


def test_idmap_rejects_duplicates():
    with pytest.raises(DataError, match="duplicate"):
        IdMap(["x", "x"], ["p"])


def test_idmap_save_load_roundtrip(tmp_path):
    # a CSV token may hold a tab, which is also the map's column separator
    id_map = IdMap(["x", "y\tw", "z"], ["a", "b"])
    up, ip = str(tmp_path / "users.map"), str(tmp_path / "items.map")
    id_map.save(up, ip)
    loaded = IdMap.load(up, ip)
    assert loaded.n_users == 3 and loaded.n_items == 2
    for tok in ("x", "y\tw", "z"):
        assert loaded.user_index(tok) == id_map.user_index(tok)


def test_idmap_load_rejects_gaps(tmp_path):
    up, ip = tmp_path / "users.map", tmp_path / "items.map"
    up.write_text("x\t0\ny\t2\n")
    ip.write_text("a\t0\n")
    with pytest.raises(DataError, match="gaps"):
        IdMap.load(str(up), str(ip))


def test_idmap_load_non_utf8_names_file_and_line(tmp_path):
    up, ip = tmp_path / "users.map", tmp_path / "items.map"
    up.write_bytes(b"x\t0\nu\xe9\t1\n")
    ip.write_text("a\t0\n")
    with pytest.raises(ParseError, match=r"line 2: id-map record in .*users\.map is not valid UTF-8"):
        IdMap.load(str(up), str(ip))
    up.write_text("x\t0\n")
    ip.write_bytes(b"a\t0\n\xff\t1\n")
    with pytest.raises(ParseError, match=r"line 2: id-map record in .*items\.map is not valid UTF-8"):
        IdMap.load(str(up), str(ip))


# ---------------------------------------------------------------- splitting


def test_split_deterministic_given_seed():
    rng = np.random.default_rng(5)
    data, _ = build_interactions(random_triplets(rng, 800, n_users=40, n_items=30))
    first = split_train_test(data, 0.25, 2, seed=99)
    second = split_train_test(data, 0.25, 2, seed=99)
    assert first.train == second.train
    assert all(np.array_equal(a, b) for a, b in zip(first.test, second.test))
    other = split_train_test(data, 0.25, 2, seed=100)
    assert not all(np.array_equal(a, b) for a, b in zip(other.test, first.test))


def test_split_invariants_hold():
    rng = np.random.default_rng(6)
    data, _ = build_interactions(random_triplets(rng, 900, n_users=35, n_items=25))
    pair = split_train_test(data, 0.3, 3, seed=1)
    train_entries = materialize(pair.train)
    test_rows = list(zip(*(column.tolist() for column in pair.test)))
    test_pairs = {(u, i) for u, i, _ in test_rows}
    # disjoint as (u, i) sets
    assert not test_pairs & set(train_entries)
    # together they reproduce a subset of the original data (dropped test
    # entries of filtered users are gone entirely, never recycled)
    original = materialize(data)
    for (u, i), x in train_entries.items():
        assert original[(u, i)] == x
    per_user = {}
    for u, i, x in test_rows:
        assert original[(u, i)] == x
        per_user[u] = per_user.get(u, 0) + 1
    train_users = {u for u, _ in train_entries}
    for u, n_test in per_user.items():
        assert u in train_users  # every test user appears in train
        assert n_test >= 3  # filter rule enforced


def test_split_drops_users_below_min_test_entries():
    # find a seed where some user draws one or two test entries while still
    # holding training entries, then check those entries were discarded
    rng = np.random.default_rng(8)
    data, _ = build_interactions(random_triplets(rng, 400, n_users=30, n_items=20))
    users, _, _ = data.entries()
    hit = False
    for seed in range(200):
        probe = np.random.default_rng(seed).random(data.nnz) < 0.2
        counts = np.bincount(users[probe], minlength=data.m)
        in_train = np.bincount(users[~probe], minlength=data.m) > 0
        victims = np.flatnonzero((counts > 0) & (counts < 3) & in_train)
        if len(victims) == 0:
            continue
        hit = True
        pair = split_train_test(data, 0.2, 3, seed=seed)
        test_users = set(pair.test[0].tolist())
        assert not test_users & set(victims.tolist())
        break
    assert hit, "no seed produced an under-threshold user; loosen the probe"


def test_split_tiny_fraction_degenerates_to_train_only():
    rng = np.random.default_rng(12)
    data, _ = build_interactions(random_triplets(rng, 50))
    pair = split_train_test(data, 1e-9, 3, seed=0)
    assert [len(column) for column in pair.test] == [0, 0, 0]
    assert pair.train == data


def test_split_holds_the_test_set_as_row_major_columns():
    rng = np.random.default_rng(14)
    data, _ = build_interactions(random_triplets(rng, 600, n_users=30, n_items=25))
    users, items, counts = split_train_test(data, 0.3, 1, seed=3).test
    assert (users.dtype, items.dtype, counts.dtype) == (np.int64, np.int64, np.float64)
    assert len(users) == len(items) == len(counts) > 0
    assert np.array_equal(np.lexsort((items, users)), np.arange(len(users)))  # by user, then item


def test_split_validates_config():
    rng = np.random.default_rng(13)
    data, _ = build_interactions(random_triplets(rng, 50))
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ConfigError):
            split_train_test(data, bad, 3, seed=0)
    with pytest.raises(ConfigError):
        split_train_test(data, 0.2, 0, seed=0)
    with pytest.raises(ConfigError):
        split_train_test(data, 0.2, 3, seed=-1)


def test_split_preserves_dimensions():
    data = SparseInteractions.from_entries(
        [0, 0, 0, 1, 1, 1, 2], [0, 1, 2, 0, 1, 2, 0], [1.0] * 7, 5, 6
    )
    pair = split_train_test(data, 0.4, 1, seed=2)
    assert (pair.train.m, pair.train.n) == (5, 6)


@pytest.mark.parametrize("seed", range(6))
def test_split_train_equals_from_entries_of_kept_entries(seed):
    # empty rows and columns in the middle and at the end of both dimensions
    rng = np.random.default_rng(seed)
    m, n = 50, 40
    users = rng.choice(np.r_[0:20, 25:45], 700)
    items = rng.choice(np.r_[0:10, 15:33], 700)
    data = SparseInteractions.from_entries(users, items, rng.integers(1, 5, 700) * 0.5, m, n)
    fraction = (0.1, 0.3, 0.6)[seed % 3]
    pair = split_train_test(data, fraction, 1 + seed % 3, seed=seed)
    all_users, all_items, all_counts = data.entries()
    kept = np.random.default_rng(seed).random(data.nnz) >= fraction
    want = SparseInteractions.from_entries(all_users[kept], all_items[kept], all_counts[kept], m, n)
    # neither builder makes the column view; it is derived from the CSR on first use
    assert all("csc" not in vars(built) for built in (data, want, pair.train))
    eager = want.csr.tocsc()  # the reference: an eagerly built, sorted column view
    eager.sort_indices()
    for got_view, want_view in ((pair.train.csr, want.csr), (pair.train.csc, eager), (want.csc, eager)):
        assert type(got_view) is type(want_view) and got_view.shape == want_view.shape
        for name in ("indptr", "indices", "data"):
            got_array, want_array = getattr(got_view, name), getattr(want_view, name)
            assert got_array.dtype == want_array.dtype
            assert np.array_equal(got_array, want_array)
            assert not got_array.flags.writeable


# ---------------------------------------------------------------- file io


def test_triplet_file_roundtrip_lossless(tmp_path):
    id_map = IdMap(["u1", "u2"], ["i1", "i2"])
    entries = [(0, 0, 1.0 / 3.0), (0, 1, 5.0), (1, 1, 1e-7)]
    path = str(tmp_path / "out.csv")
    write_triplet_file(path, entries, id_map)
    back = rows_of(read_triplet_file(path))
    assert [(user, item) for user, item, _ in back] == [("u1", "i1"), ("u1", "i2"), ("u2", "i2")]
    assert [count for _, _, count in back] == [1.0 / 3.0, 5.0, 1e-7]


def per_line_write(path, entries, user_tokens, item_tokens, delimiter=","):
    """The per-line writer: one f-string and one write per entry."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, i, x in entries:
            fh.write(f"{user_tokens[u]}{delimiter}{item_tokens[i]}{delimiter}{x:.17g}\n")


WRITER_USERS = ["u1", "ü2", "用户3", "tab\tuser", "u,5"]
WRITER_ITEMS = ["i1", "物品2", "item\tthree", "é4"]
# equal values of different types and both zeros, each seen before and after its twin
WRITER_COUNTS = [
    1.0, 0.1, 1 / 3, 5e-324, 1e300, 2**53 + 1, np.float32(0.1), np.int64(3), 0.0, -0.0,
    math.nan, math.inf, Decimal("1.0"), Decimal("1.00"), 3.0, np.float64(-0.0), float("nan"),
]


def writer_entries(seed):
    rng = np.random.default_rng(seed)
    counts = [WRITER_COUNTS[j] for j in rng.permutation(3 * len(WRITER_COUNTS)) % len(WRITER_COUNTS)]
    users = rng.integers(0, len(WRITER_USERS), len(counts)).tolist()
    items = rng.integers(0, len(WRITER_ITEMS), len(counts)).tolist()
    return list(zip(users, items, counts))


@pytest.mark.parametrize("chunk", [1, 3, sparse_data.WRITE_CHUNK])
@pytest.mark.parametrize("delimiter", [",", "\t"])
@pytest.mark.parametrize("source", ["list", "generator", "empty"])
def test_triplet_writer_bytes_equal_per_line_formula(tmp_path, monkeypatch, chunk, delimiter, source):
    monkeypatch.setattr(sparse_data, "WRITE_CHUNK", chunk)
    entries = [] if source == "empty" else writer_entries(chunk)
    id_map = IdMap(WRITER_USERS, WRITER_ITEMS)
    got, want = tmp_path / "got.txt", tmp_path / "want.txt"
    write_triplet_file(str(got), iter(entries) if source == "generator" else entries, id_map, delimiter)
    per_line_write(str(want), entries, WRITER_USERS, WRITER_ITEMS, delimiter)
    assert got.read_bytes() == want.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["got.txt", "want.txt"]


def test_triplet_writer_caches_counts_per_chunk_until_a_chunk_is_mostly_new(tmp_path, monkeypatch):
    # 16-entry chunks: two of repeated counts, one of new counts, then the mixed counts
    monkeypatch.setattr(sparse_data, "WRITE_CHUNK", 16)
    misses = []

    class CountingTexts(sparse_data._CountTexts):
        def __missing__(self, x):
            misses.append(x)
            return super().__missing__(x)

    monkeypatch.setattr(sparse_data, "_CountTexts", CountingTexts)
    fresh = [k + 0.5 for k in range(16)]
    counts = [1.0, 2.0] * 16 + fresh + WRITER_COUNTS * 2
    entries = [(j % len(WRITER_USERS), j % len(WRITER_ITEMS), x) for j, x in enumerate(counts)]
    id_map = IdMap(WRITER_USERS, WRITER_ITEMS)
    got, want = tmp_path / "got.txt", tmp_path / "want.txt"
    write_triplet_file(str(got), entries, id_map)
    per_line_write(str(want), entries, WRITER_USERS, WRITER_ITEMS)
    assert got.read_bytes() == want.read_bytes()
    # each chunk formats its distinct counts once; after the chunk of 16 new
    # counts (more than 16 // 8) every count is formatted directly
    assert misses == [1.0, 2.0, 1.0, 2.0] + fresh


def test_idmap_save_bytes_equal_per_line_formula(tmp_path):
    id_map = IdMap(WRITER_USERS, WRITER_ITEMS)
    id_map.save(str(tmp_path / "users.map"), str(tmp_path / "items.map"))
    for name, tokens in (("users.map", WRITER_USERS), ("items.map", WRITER_ITEMS)):
        want = "".join(f"{tok}\t{j}\n" for j, tok in enumerate(tokens)).encode("utf-8")
        assert (tmp_path / name).read_bytes() == want
    assert sorted(os.listdir(tmp_path)) == ["items.map", "users.map"]


@pytest.mark.parametrize(
    "bad, named",
    [((-1, 0, 1.0), r"entry \(-1, 0, 1.0\) has user index -1, outside the id map's 2 users"),
     ((2, 0, 1.0), r"entry \(2, 0, 1.0\) has user index 2, outside the id map's 2 users"),
     ((0, -3, 2.0), r"entry \(0, -3, 2.0\) has item index -3, outside the id map's 3 items"),
     ((1, 3, 2.0), r"entry \(1, 3, 2.0\) has item index 3, outside the id map's 3 items")],
    ids=["negative-user", "past-end-user", "negative-item", "past-end-item"],
)
def test_triplet_writer_failing_in_second_chunk_keeps_old_file(tmp_path, monkeypatch, bad, named):
    monkeypatch.setattr(sparse_data, "WRITE_CHUNK", 2)
    id_map = IdMap(["u1", "u2"], ["i1", "i2", "i3"])
    path = tmp_path / "train.csv"
    path.write_text("old content\n")
    entries = [(0, 0, 1.0), (1, 2, 2.0), (1, 1, 3.0), bad, (0, 1, 4.0)]
    with pytest.raises(DataError, match=named):
        write_triplet_file(str(path), (e for e in entries), id_map)
    assert path.read_text() == "old content\n"
    assert os.listdir(tmp_path) == ["train.csv"]


@pytest.mark.parametrize("chunk", [1, 3, sparse_data.WRITE_CHUNK])
def test_triplet_writer_columns_bytes_equal_rows(tmp_path, monkeypatch, chunk):
    # columns as a split holds them (int64) and as entries() gives them (the CSR's index dtype)
    monkeypatch.setattr(sparse_data, "WRITE_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    floats = [x for x in WRITER_COUNTS if type(x) in (float, np.float64)] + [2 / 3, 7.0, 1e-300]
    counts = np.array([1 / 3] + [floats[j] for j in rng.integers(0, len(floats), 40)])
    users = rng.integers(0, len(WRITER_USERS), len(counts))
    items = rng.integers(0, len(WRITER_ITEMS), len(counts))
    id_map = IdMap(WRITER_USERS, WRITER_ITEMS)
    rows = list(zip(users.tolist(), items.tolist(), counts.tolist()))
    want = tmp_path / "want.txt"
    per_line_write(str(want), rows, WRITER_USERS, WRITER_ITEMS)
    assert ",0.33333333333333331\n" in want.read_text(encoding="utf-8")  # 1/3 needs all 17 digits
    sources = {
        "list": rows, "generator": iter(rows), "int64": (users, items, counts),
        "int32": (users.astype(np.int32), items.astype(np.int32), counts),
    }
    for name, entries in sources.items():
        got = tmp_path / f"{name}.txt"
        write_triplet_file(str(got), entries, id_map)
        assert got.read_bytes() == want.read_bytes(), name
    empty = tmp_path / "empty.txt"
    write_triplet_file(str(empty), (users[:0], items[:0], counts[:0]), id_map)
    assert empty.read_bytes() == b""


def test_triplet_writer_columns_outside_id_map_keep_old_file(tmp_path, monkeypatch):
    monkeypatch.setattr(sparse_data, "WRITE_CHUNK", 2)
    id_map = IdMap(["u1", "u2"], ["i1", "i2", "i3"])
    path = tmp_path / "test.csv"
    path.write_text("old content\n")
    columns = (np.array([0, 1, 1, 0, 0]), np.array([0, 2, 1, 3, 1]), np.array([1.0, 2.0, 3.0, 2.0, 4.0]))
    with pytest.raises(DataError, match=r"entry \(0, 3, 2.0\) has item index 3, outside the id map's 3 items"):
        write_triplet_file(str(path), columns, id_map)
    assert path.read_text() == "old content\n"
    assert os.listdir(tmp_path) == ["test.csv"]


def test_idmap_tokens_reject_index_outside_table():
    id_map = IdMap(["x", "y"], ["p", "q", "r"])
    for index in (-1, 2):
        with pytest.raises(DataError, match=f"user index {index} is outside the id map's 2 users"):
            id_map.user_token(index)
    for index in (-1, 3):
        with pytest.raises(DataError, match=f"item index {index} is outside the id map's 3 items"):
            id_map.item_token(index)
    assert (id_map.user_token(np.int64(1)), id_map.item_token(2)) == ("y", "r")


def test_row_rejects_index_outside_matrix():
    data = SparseInteractions.from_entries([0, 2], [1, 0], [1.0, 2.0], 3, 2)
    for u in (-1, 3):  # -1 would wrap to indptr[-1]:indptr[0], an empty row
        with pytest.raises(DataError, match=f"user index {u} is outside the matrix's 3 users"):
            data.row(u)
    items, counts = data.row(np.int64(2))
    assert items.tolist() == [0] and counts.tolist() == [2.0]


# ---------------------------------------------------------------- columnar reader against the per-line rule

USER_TOKENS = ["u1", "u2", "u3", "ü4", "用户5", "user six", "u7\x85x"]
ITEM_TOKENS = ["i1", "i2", "é3", "物品4", "item five", "i6"]
GOOD_COUNTS = ["1", "2.5", "1e-3", "7", "3.0", "1_0", "4e1"]
# (text with {d} for the delimiter, message fragment of the per-line rule)
BAD_LINES = {
    "short": ("u1{d}i1", "3 fields"),
    "empty-user": ("{d}i1{d}2", "empty user"),
    "blank-user": ("  {d}i1{d}2", "empty user"),
    "empty-item": ("u1{d} {d}2", "empty item"),
    "not-a-number": ("u1{d}i1{d}abc", "not a number"),
    "empty-count": ("u1{d}i1{d} ", "not a number"),
    "hex-count": ("u1{d}i1{d}0x10", "not a number"),
    "infinite": ("u1{d}i1{d}inf", "not finite"),
    "nan": ("u1{d}i1{d}nan", "not finite"),
    "overflow": ("u1{d}i1{d}1e999", "not finite"),
    "zero": ("u1{d}i1{d}0", "positive"),
    "negative": ("u1{d}i1{d}-3", "positive"),
    "negative-zero": ("u1{d}i1{d}-0.0", "positive"),
    "bad-count-extra-field": ("u1{d}i1{d}abc{d}extra", "not a number"),
}


def random_line(rng, d):
    """One line the per-line rule accepts or skips, without its line ending."""
    pads = ["", " ", "  ", "\xa0", "\x0c", "\x1c"] + (["\t"] if d != "\t" else [])

    def pad(token):
        return f"{rng.choice(pads)}{token}{rng.choice(pads)}"

    kind = rng.random()
    if kind < 0.06:
        return ""
    if kind < 0.10:
        return str(rng.choice(["   ", " \x0c ", f"{d}{d}" if d == "\t" else " \t"]))
    fields = [pad(rng.choice(USER_TOKENS)), pad(rng.choice(ITEM_TOKENS)), pad(rng.choice(GOOD_COUNTS))]
    if kind < 0.20:
        fields += ["extra"] * int(rng.integers(1, 3))
    return d.join(fields)


def random_text(rng, n_lines, d, bad=None, bad_at=None, endings=("\n", "\r\n")):
    """Random triplet text, each line ended by one of ``endings``.

    ``bad`` is a BAD_LINES key placed at line index ``bad_at``.
    """
    lines = [random_line(rng, d) for _ in range(n_lines)]
    if bad is not None:
        lines[bad_at] = BAD_LINES[bad][0].format(d=d)
    endings = rng.choice(list(endings), size=n_lines)
    text = "".join(line + end for line, end in zip(lines, endings))
    return text.rstrip("\r\n") if rng.random() < 0.5 else text


def outcome(parse):
    try:
        return parse(), None
    except ParseError as exc:
        return None, str(exc)


def assert_same_as_reference(got, expected):
    """Same records, same first-appearance token order, same first error."""
    got_triplets, got_error = got
    expected_rows, expected_error = expected
    assert got_error == expected_error
    if expected_error is None:
        assert rows_of(got_triplets) == expected_rows
        assert got_triplets.user_tokens == tuple(dict.fromkeys(u for u, _, _ in expected_rows))
        assert got_triplets.item_tokens == tuple(dict.fromkeys(i for _, i, _ in expected_rows))


def check_both_paths(tmp_path, text, d, has_header):
    """parse_triplets on a string stream and read_triplet_file on disk, each against the rule."""
    assert_same_as_reference(
        outcome(lambda: parse_triplets(io.StringIO(text), d, has_header)),
        outcome(lambda: reference_parse(io.StringIO(text), d, has_header)),
    )
    path = tmp_path / "triplets.txt"
    path.write_bytes(text.encode("utf-8"))  # line endings as written
    with open(path, encoding="utf-8") as fh:
        expected = outcome(lambda: reference_parse(fh, d, has_header))
    assert_same_as_reference(outcome(lambda: read_triplet_file(str(path), d, has_header)), expected)


@pytest.mark.parametrize("seed", range(40))
def test_columnar_reader_matches_per_line_rule(seed, tmp_path, monkeypatch):
    rng = np.random.default_rng(seed)
    monkeypatch.setattr(sparse_data, "CHUNK_BYTES", int(rng.choice([16, 100, 400, 1 << 20])))
    d = "\t" if seed % 3 == 0 else ","
    n_lines = int(rng.integers(1, 120))
    text = random_text(rng, n_lines, d)
    has_header = bool(rng.random() < 0.3)
    if has_header:
        text = f"user{d}item{d}count\n" + text
    check_both_paths(tmp_path, text, d, has_header)
    # a stream that keeps line ends as read, lone "\r" ends too, against the rule on the same stream
    text = random_text(rng, n_lines, d, endings=("\n", "\r\n", "\r"))
    if has_header:
        text = f"user{d}item{d}count\n" + text
    assert_same_as_reference(
        outcome(lambda: parse_triplets(io.StringIO(text, newline=""), d, has_header)),
        outcome(lambda: reference_parse(io.StringIO(text, newline=""), d, has_header)),
    )


@pytest.mark.parametrize("bad", sorted(BAD_LINES))
def test_each_error_kind_in_a_later_chunk(bad, tmp_path, monkeypatch):
    monkeypatch.setattr(sparse_data, "CHUNK_BYTES", 200)
    rng = np.random.default_rng(len(bad))
    for d in (",", "\t"):
        text = random_text(rng, 150, d, bad=bad, bad_at=int(rng.integers(100, 140)))
        # a second malformed line after the first must not be the one reported
        text += "\n" + BAD_LINES["short"][0].format(d=d) + "\n"
        parsed, message = outcome(lambda: parse_triplets(io.StringIO(text), d))
        assert message is not None and BAD_LINES[bad][1] in message
        check_both_paths(tmp_path, text, d, has_header=False)


def test_parse_mixed_field_counts_keep_line_order():
    # three-, four- and five-field lines and a blank one mixed in one chunk:
    # the whole chunk goes through the per-line rule, in line order
    text = "a,x,1\nb,y,2,t\nc,z,3,t,t\nb,x,4,t\nd,w,5\n\na,w,6,t\n"
    got = parse_triplets(io.StringIO(text))
    assert rows_of(got) == reference_parse(io.StringIO(text))
    assert got.user_tokens == ("a", "b", "c", "d") and got.item_tokens == ("x", "y", "z", "w")


def test_chunks_of_one_field_count_skip_the_per_line_rule(tmp_path, monkeypatch):
    # regular chunks, a blank line in every chunk, a fourth field on every
    # line: the screen reads each chunk whole and never calls the per-line rule
    def per_line(*args):
        raise AssertionError("the per-line rule was called")

    monkeypatch.setattr(sparse_data, "_parse_line", per_line)
    monkeypatch.setattr(sparse_data, "CHUNK_BYTES", 200)
    rows = [f"u{j % 17},i{j % 13},{1 + j % 4}" for j in range(300)]
    variants = {
        "regular": rows,
        "blank": [row if j % 7 else ["", "  ", "\t"][j % 3] for j, row in enumerate(rows)],
        "four_fields": [f"{row},x" for row in rows],
    }
    for name, lines in variants.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        with open(path) as fh:
            expected = reference_parse(fh)
        assert rows_of(read_triplet_file(str(path))) == expected


def test_a_chunk_with_a_regular_delimiter_total_but_irregular_lines_is_read_line_by_line(monkeypatch):
    # 8-character lines and 40-character chunks. A 2-field and a 4-field line
    # hold two delimiters a line between them, and one split of their text
    # would yield valid records ("a,b,1" and "c,d,2"); each line's own field
    # count must send the chunk to the per-line rule and its error.
    monkeypatch.setattr(sparse_data, "CHUNK_BYTES", 40)
    rows = "".join(f"u{j},i{j},{1 + j % 3}\n" for j in range(10))
    with pytest.raises(ParseError, match="^line 1: expected at least 3 fields, got 2$"):
        parse_triplets(io.StringIO("a,b\n1,c,d,2\n" + rows))
    # the second chunk opens with the 4-field line, then the 2-field one
    with pytest.raises(ParseError, match="^line 8: expected at least 3 fields, got 2$"):
        parse_triplets(io.StringIO(rows[:48] + "u1,i1,1,u2\ni2,3\n" + rows))


def test_only_the_chunk_that_mixes_field_counts_is_read_line_by_line(monkeypatch):
    per_line, parse_chunk = sparse_data._parse_line, sparse_data._parse_chunk
    called, chunks = [], []
    monkeypatch.setattr(
        sparse_data, "_parse_line", lambda line, line_no, d: called.append(line_no) or per_line(line, line_no, d)
    )
    monkeypatch.setattr(
        sparse_data, "_parse_chunk", lambda text, *rest: chunks.append(text.count("\n")) or parse_chunk(text, *rest)
    )
    # lines of ten characters with the newline and 90-character chunks: three
    # chunks of ten lines, and only the middle one has a line with a fourth field
    monkeypatch.setattr(sparse_data, "CHUNK_BYTES", 90)
    lines = [f"u{j:02d},i{j % 7:02d},{1 + j % 3}" for j in range(30)]
    lines[14] = "u4,i0,1,x"
    text = "\n".join(lines) + "\n"
    got = parse_triplets(io.StringIO(text))
    assert chunks == [10, 10, 10]
    assert called == list(range(11, 21))
    assert rows_of(got) == reference_parse(io.StringIO(text))


def screen_only(monkeypatch):
    """Make the per-line rule fail the test, so every chunk must pass the one-pass screen."""

    def per_line(*args):
        raise AssertionError("the per-line rule was called")

    monkeypatch.setattr(sparse_data, "_parse_line", per_line)


@pytest.mark.parametrize("d", [",", "\t"])
def test_chunks_without_whitespace_next_to_padded_ones(d, tmp_path, monkeypatch):
    # 8-character bare lines and 40-character chunks: blocks of 20 bare lines
    # give whitespace-free chunks that skip the strip pass, and the padded
    # blocks between them must still be stripped
    screen_only(monkeypatch)
    monkeypatch.setattr(sparse_data, "CHUNK_BYTES", 40)
    lines = []
    for j in range(100):
        user, item = f"u{j % 9}", f"i{j % 5}"
        if j // 20 % 2:
            user, item = f" {user}", f"{item}  " if d == "," else f"\x0c{item} "
        lines.append(d.join([user, item, str(1 + j % 3)]))
    check_both_paths(tmp_path, "\n".join(lines) + "\n", d, has_header=False)


@pytest.mark.parametrize("pad", ["\x1f", "\x0b", "\r"])
@pytest.mark.parametrize("d", [",", "\t"])
def test_a_chunk_whose_only_whitespace_is_one_pad_is_stripped(pad, d, tmp_path, monkeypatch):
    # six lines a chunk and one pad in the whole text: after a user token in
    # the second chunk, then in a second run before an item token in the
    # fourth. A file read with the default newline handling ends a line at a
    # "\r", so there that pad is an error of both the reader and the rule.
    monkeypatch.setattr(sparse_data, "CHUNK_BYTES", 40)
    for at, field in ((7, 0), (20, 1)):
        lines = [[f"u{j % 7}", f"i{j % 4}", str(1 + j % 2)] for j in range(30)]
        lines[at][field] = f"{lines[at][field]}{pad}" if field == 0 else f"{pad}{lines[at][field]}"
        text = "\n".join(map(d.join, lines)) + "\n"
        check_both_paths(tmp_path, text, d, has_header=False)
        got = parse_triplets(io.StringIO(text), d)
        assert len(got.user_tokens) == 7 and len(got.item_tokens) == 4


def test_a_tab_pads_tokens_of_a_csv(tmp_path, monkeypatch):
    screen_only(monkeypatch)
    monkeypatch.setattr(sparse_data, "CHUNK_BYTES", 40)
    lines = [f"u{j % 6},i{j % 4},{1 + j % 5}" for j in range(40)]
    lines[25] = "\tu2,i3\t,4"
    text = "\n".join(lines) + "\n"
    check_both_paths(tmp_path, text, ",", has_header=False)
    assert parse_triplets(io.StringIO(text)).user_tokens == tuple(f"u{j}" for j in range(6))


@pytest.mark.parametrize("d", [",", "\t"])
def test_non_ascii_pads_are_stripped(d, tmp_path, monkeypatch):
    # NO-BREAK SPACE and NEXT LINE are whitespace to str.strip, not ASCII
    screen_only(monkeypatch)
    monkeypatch.setattr(sparse_data, "CHUNK_BYTES", 40)
    lines = [[f"u{j % 6}", f"i{j % 4}", str(1 + j % 5)] for j in range(40)]
    lines[12][0], lines[13][1], lines[33][1] = "\xa0u1", "i2\x85", "\x85i0\xa0"
    text = "\n".join(map(d.join, lines)) + "\n"
    check_both_paths(tmp_path, text, d, has_header=False)
    got = parse_triplets(io.StringIO(text), d)
    assert got.user_tokens == tuple(f"u{j}" for j in range(6))
    assert got.item_tokens == tuple(f"i{j}" for j in range(4))


def test_tokens_keep_first_appearance_codes_across_chunks(tmp_path, monkeypatch):
    # 6-character lines and 25-character chunks: three chunks of five lines.
    # "c" and "z" first appear in the third chunk and take the next codes;
    # "a", "b", "x" and "y" of the first chunk keep theirs in every later one.
    parse_chunk, chunks = sparse_data._parse_chunk, []
    monkeypatch.setattr(
        sparse_data, "_parse_chunk", lambda text, *rest: chunks.append(text.count("\n")) or parse_chunk(text, *rest)
    )
    monkeypatch.setattr(sparse_data, "CHUNK_BYTES", 25)
    users = "ababa" "babab" "cacba"
    items = "xyyxx" "yxxyy" "zxxzy"
    text = "".join(f"{u},{i},{1 + j % 3}\n" for j, (u, i) in enumerate(zip(users, items)))
    got = parse_triplets(io.StringIO(text))
    assert chunks == [5, 5, 5]
    assert got.user_tokens == ("a", "b", "c") and got.item_tokens == ("x", "y", "z")
    assert got.users.tolist() == ["abc".index(u) for u in users]
    assert got.items.tolist() == ["xyz".index(i) for i in items]
    check_both_paths(tmp_path, text, ",", has_header=False)


def test_lines_ended_by_a_lone_carriage_return_follow_the_per_line_rule():
    # a stream that keeps "\r" line ends: the screen's fields would not line up
    text = "a,b,1,z\rc,d,2,3\ne,f,4,5\n"
    got = parse_triplets(io.StringIO(text, newline=""))
    expected = reference_parse(io.StringIO(text, newline=""))
    assert rows_of(got) == expected == [("a", "b", 1.0), ("c", "d", 2.0), ("e", "f", 4.0)]


def test_non_utf8_bytes_name_their_line(tmp_path, monkeypatch):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"u1,i1,1\nu\xe9,i2,2\nu3,i3,3\n")
    with pytest.raises(ParseError, match="line 2: line is not valid UTF-8"):
        read_triplet_file(str(path))
    # in a later chunk, after a malformed line of the same chunk: the earlier line wins
    monkeypatch.setattr(sparse_data, "CHUNK_BYTES", 64)
    body = b"".join(b"u%d,i%d,1\n" % (j, j) for j in range(40))
    path.write_bytes(body + b"u1,i1\n" + b"u\xff,i2,2\n")
    with pytest.raises(ParseError, match="line 41: expected at least 3 fields"):
        read_triplet_file(str(path))
    path.write_bytes(body + b"u\xff,i2,2\n" + b"u1,i1\n")
    with pytest.raises(ParseError, match="line 41: line is not valid UTF-8"):
        read_triplet_file(str(path))
    # valid non-ASCII text is kept as is
    path.write_bytes("ü,物品,2\n".encode("utf-8"))
    assert rows_of(read_triplet_file(str(path))) == [("ü", "物品", 2.0)]


def traced_peak(path):
    tracemalloc.start()
    try:
        triplets = read_triplet_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, len(triplets)


def test_parse_memory_per_line_is_bounded(tmp_path, monkeypatch):
    # Fixed token tables, so what grows with the file is the reader's own
    # state: 24 bytes of columns per line, twice while the chunks are joined.
    # A Python object per line would cost well over 100 bytes each.
    monkeypatch.setattr(sparse_data, "CHUNK_BYTES", 1 << 16)
    rng = np.random.default_rng(0)
    peaks = []
    for n_lines in (20_000, 80_000):
        path = tmp_path / f"{n_lines}.csv"
        users, items = rng.integers(0, 300, n_lines), rng.integers(0, 200, n_lines)
        path.write_text("".join(f"user{u},item{i},{1 + u % 3}\n" for u, i in zip(users, items)))
        peak, kept = traced_peak(str(path))
        assert kept == n_lines
        peaks.append(peak / n_lines)
    small, large = peaks
    assert large <= small
    assert large < 80
