"""Ingestion, id mapping, dual sparse views, and the holdout split."""

import io

import numpy as np
import pytest

from poisfact import (
    ConfigError,
    DataError,
    DataMismatchError,
    IdMap,
    ParseError,
    RawTriplet,
    SparseInteractions,
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
    """Same entry set read through the column view."""
    out = {}
    for i in range(data.n):
        users, values = data.col(i)
        for u, x in zip(users.tolist(), values.tolist()):
            out[(u, i)] = x
    return out


def random_triplets(rng, n_rows, n_users=20, n_items=15):
    return [
        RawTriplet(
            f"u{rng.integers(n_users)}",
            f"i{rng.integers(n_items)}",
            float(rng.integers(1, 9)),
        )
        for _ in range(n_rows)
    ]


# ---------------------------------------------------------------- parsing


def test_parse_two_plain_lines():
    got = parse_triplets(io.StringIO("u1,i1,3\nu2,i1,1"))
    assert got == [RawTriplet("u1", "i1", 3.0), RawTriplet("u2", "i1", 1.0)]


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
    assert got == [RawTriplet("u1", "i1", 2.0), RawTriplet("u2", "i1", 1.0)]


def test_parse_tab_delimiter():
    got = parse_triplets(io.StringIO("a\tb\t1.5\n"), delimiter="\t")
    assert got == [RawTriplet("a", "b", 1.5)]


def test_parse_preserves_duplicates():
    got = parse_triplets(io.StringIO("u1,i1,2\nu1,i1,3"))
    assert len(got) == 2  # merged later by build_interactions


# ---------------------------------------------------------------- building


def test_build_merges_duplicates_by_summation():
    data, _ = build_interactions(
        [RawTriplet("u1", "i1", 2.0), RawTriplet("u1", "i1", 3.0)]
    )
    assert data.nnz == 1
    assert materialize(data) == {(0, 0): 5.0}


def test_build_two_by_two_views_transposed():
    data, _ = build_interactions(
        [RawTriplet("u1", "i1", 1.0), RawTriplet("u2", "i2", 1.0)]
    )
    assert (data.m, data.n, data.nnz) == (2, 2, 2)
    assert materialize(data) == materialize_cols(data)


def test_build_random_views_match_merge_oracle():
    rng = np.random.default_rng(7)
    triplets = random_triplets(rng, 1000)
    data, id_map = build_interactions(triplets)
    internal = [
        (id_map.user_index(t.user), id_map.item_index(t.item), t.count) for t in triplets
    ]
    expected = merge_oracle(internal)
    assert materialize(data) == expected
    assert materialize_cols(data) == expected


def test_build_first_appearance_order():
    data, id_map = build_interactions(
        [RawTriplet("zz", "b", 1.0), RawTriplet("aa", "a", 1.0), RawTriplet("zz", "a", 2.0)]
    )
    assert id_map.user_index("zz") == 0 and id_map.user_index("aa") == 1
    assert id_map.item_index("b") == 0 and id_map.item_index("a") == 1
    assert id_map.user_token(0) == "zz"


def test_build_empty_raises():
    with pytest.raises(DataError, match="empty"):
        build_interactions([])


def test_views_are_sorted_and_immutable():
    rng = np.random.default_rng(3)
    data, _ = build_interactions(random_triplets(rng, 300))
    for u in range(data.m):
        items, _ = data.row(u)
        assert np.all(np.diff(items) > 0)
    for i in range(data.n):
        users, _ = data.col(i)
        assert np.all(np.diff(users) > 0)
    with pytest.raises(ValueError):
        data.csr.data[0] = 99.0


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
    empty = SparseInteractions.from_entries([], [], [], 3, 4)
    assert (empty.m, empty.n, empty.nnz) == (3, 4, 0)


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


# ---------------------------------------------------------------- splitting


def test_split_deterministic_given_seed():
    rng = np.random.default_rng(5)
    data, _ = build_interactions(random_triplets(rng, 800, n_users=40, n_items=30))
    first = split_train_test(data, 0.25, 2, seed=99)
    second = split_train_test(data, 0.25, 2, seed=99)
    assert first.train == second.train
    assert first.test == second.test
    other = split_train_test(data, 0.25, 2, seed=100)
    assert other.test != first.test


def test_split_invariants_hold():
    rng = np.random.default_rng(6)
    data, _ = build_interactions(random_triplets(rng, 900, n_users=35, n_items=25))
    pair = split_train_test(data, 0.3, 3, seed=1)
    train_entries = materialize(pair.train)
    test_pairs = {(u, i) for u, i, _ in pair.test}
    # disjoint as (u, i) sets
    assert not test_pairs & set(train_entries)
    # together they reproduce a subset of the original data (dropped test
    # entries of filtered users are gone entirely, never recycled)
    original = materialize(data)
    for (u, i), x in train_entries.items():
        assert original[(u, i)] == x
    per_user = {}
    for u, i, x in pair.test:
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
        test_users = {u for u, _, _ in pair.test}
        assert not test_users & set(victims.tolist())
        break
    assert hit, "no seed produced an under-threshold user; loosen the probe"


def test_split_tiny_fraction_degenerates_to_train_only():
    rng = np.random.default_rng(12)
    data, _ = build_interactions(random_triplets(rng, 50))
    pair = split_train_test(data, 1e-9, 3, seed=0)
    assert pair.test == []
    assert pair.train == data


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


# ---------------------------------------------------------------- file io


def test_triplet_file_roundtrip_lossless(tmp_path):
    id_map = IdMap(["u1", "u2"], ["i1", "i2"])
    entries = [(0, 0, 1.0 / 3.0), (0, 1, 5.0), (1, 1, 1e-7)]
    path = str(tmp_path / "out.csv")
    write_triplet_file(path, entries, id_map)
    back = read_triplet_file(path)
    assert [(t.user, t.item) for t in back] == [("u1", "i1"), ("u1", "i2"), ("u2", "i2")]
    assert [t.count for t in back] == [1.0 / 3.0, 5.0, 1e-7]
