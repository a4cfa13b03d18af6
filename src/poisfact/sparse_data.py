"""Triplet ingestion, id remapping, sparse storage, and train/test splits.

Interaction data arrives as (user, item, count) triplets with opaque string
identifiers. This module reads them a block of about ``CHUNK_BYTES`` of text
at a time, checks the block's line structure in one numpy pass over its bytes,
and turns it into columns (token codes and counts, not one Python object per
line); it remaps identifiers to contiguous integer indices in first-appearance
order, stores the count matrix row-sparse (the trainer walks users by its rows
and items by its transpose, so every entry has one order), and produces the
entry-wise random holdout split used for evaluation.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice
from typing import IO, Iterable, Iterator, NoReturn, TextIO

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, DataMismatchError, ParseError

# Characters of text the parser reads at a time: its working memory beyond the
# output columns and token tables is bounded by this, not by the file size.
CHUNK_BYTES = 1 << 20

_PADS = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f"  # the ASCII whitespace but "\n" that str.strip removes

# Entries the triplet writer formats and writes at a time, as one string.
WRITE_CHUNK = 1 << 12


@dataclass(frozen=True, eq=False)
class Triplets:
    """Parsed (user, item, count) records held as columns.

    ``user_tokens`` and ``item_tokens`` are the distinct tokens in
    first-appearance order; ``users`` and ``items`` are int64 codes into them
    and ``counts`` the float64 counts, one entry per kept line in file order.
    Zero counts are rejected (zeros stay implicit), and duplicate (user, item)
    pairs are kept here and merged by :func:`build_interactions`.
    """

    user_tokens: tuple[str, ...]
    item_tokens: tuple[str, ...]
    users: np.ndarray
    items: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.counts)


class _NonFiniteMerge(ValueError):
    """Summed duplicates of one (user, item) pair left the float64 range."""

    def __init__(self, user: int, item: int):
        super().__init__(f"merged count of entry ({user}, {item}) is not finite")
        self.user = user
        self.item = item


class IdMap:
    """Bidirectional mapping between external tokens and contiguous indices.

    User and item tokens are mapped independently to the ranges [0, m) and
    [0, n). The mapping is bijective: every token owns exactly one index and
    every index in range owns exactly one token.
    """

    def __init__(self, user_tokens: Iterable[str], item_tokens: Iterable[str]):
        self._user_tokens = list(user_tokens)
        self._item_tokens = list(item_tokens)
        self._user_index = {tok: j for j, tok in enumerate(self._user_tokens)}
        self._item_index = {tok: j for j, tok in enumerate(self._item_tokens)}
        if len(self._user_index) != len(self._user_tokens):
            raise DataError("duplicate user tokens in id map")
        if len(self._item_index) != len(self._item_tokens):
            raise DataError("duplicate item tokens in id map")

    @property
    def n_users(self) -> int:
        return len(self._user_tokens)

    @property
    def n_items(self) -> int:
        return len(self._item_tokens)

    def user_index(self, token: str) -> int:
        """Internal index for a user token; unknown tokens are a data mismatch."""
        try:
            return self._user_index[token]
        except KeyError:
            raise DataMismatchError(f"unknown user id {token!r}") from None

    def item_index(self, token: str) -> int:
        """Internal index for an item token; unknown tokens are a data mismatch."""
        try:
            return self._item_index[token]
        except KeyError:
            raise DataMismatchError(f"unknown item id {token!r}") from None

    def has_user(self, token: str) -> bool:
        return token in self._user_index

    def has_item(self, token: str) -> bool:
        return token in self._item_index

    def user_token(self, index: int) -> str:
        """External token of a user index; an index outside [0, n_users) is a DataError."""
        if 0 <= index < len(self._user_tokens):  # a negative index would wrap
            return self._user_tokens[index]
        raise DataError(f"user index {index} is outside the id map's {self.n_users} users")

    def item_token(self, index: int) -> str:
        """External token of an item index; an index outside [0, n_items) is a DataError."""
        if 0 <= index < len(self._item_tokens):  # a negative index would wrap
            return self._item_tokens[index]
        raise DataError(f"item index {index} is outside the id map's {self.n_items} items")

    def save(self, users_path: str, items_path: str) -> None:
        """Persist both tables as two-column text (token, index), tab separated.

        Each file is written in one call and replaces its target only once
        complete (see :func:`open_replacing`).
        """
        for path, tokens in ((users_path, self._user_tokens), (items_path, self._item_tokens)):
            with open_replacing(path) as fh:
                fh.write("".join([f"{tok}\t{j}\n" for j, tok in enumerate(tokens)]))

    @classmethod
    def load(cls, users_path: str, items_path: str) -> "IdMap":
        """Load tables written by :meth:`save`, checking contiguity and UTF-8."""
        tables = []
        for path in (users_path, items_path):
            pairs = []
            with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
                for line_no, line in enumerate(fh, start=1):
                    if not _is_utf8(line):
                        raise ParseError(f"id-map record in {path} is not valid UTF-8", line_no)
                    line = line.rstrip("\n")
                    if not line:
                        continue
                    try:
                        tok, idx = line.rsplit("\t", 1)  # tokens may hold tabs
                        pairs.append((tok, int(idx)))
                    except ValueError:
                        raise ParseError(f"bad id-map record in {path}", line_no) from None
            pairs.sort(key=lambda p: p[1])
            if [idx for _, idx in pairs] != list(range(len(pairs))):
                raise DataError(f"id map {path} has gaps or duplicate indices")
            tables.append([tok for tok, _ in pairs])
        return cls(tables[0], tables[1])


class SparseInteractions:
    """A user-item count matrix stored once, row-sparse, with views derived from it.

    Within each row the indices are strictly increasing, and duplicate (u, i)
    pairs from the input are merged by summation before storage. The stored
    arrays are read-only, so the object is immutable and safe to read from
    any number of threads. Derived from ``csr`` on first use, once, and
    read-only too: ``user_rows``, each entry's user, which training reads
    with ``csr.indices``, and the column view ``csc``, which only the
    benchmark's ingest check reads.

    Attributes
    ----------
    csr : scipy.sparse.csr_matrix
        Row view; ``csr.indptr``/``csr.indices``/``csr.data`` give per-user
        item lists.
    """

    def __init__(self, csr: sp.csr_matrix):
        self.csr = csr
        for array in (csr.data, csr.indices, csr.indptr):
            _read_only(array)

    @classmethod
    def from_entries(
        cls,
        users: np.ndarray,
        items: np.ndarray,
        counts: np.ndarray,
        m: int,
        n: int,
    ) -> "SparseInteractions":
        """Build from parallel index/count arrays with explicit dimensions.

        Duplicate (u, i) pairs are summed. Dimensions may exceed the largest
        index present, which leaves trailing empty rows or columns; an empty
        entry list yields an all-zero matrix of the given shape. Raises
        ValueError on unequal lengths, a count that is not positive and
        finite, an index out of range, or duplicates whose sum overflows.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.float64)
        if not (len(users) == len(items) == len(counts)):
            raise ValueError("users, items, counts must have equal length")
        if len(counts) > 0:
            if counts.min() <= 0 or not np.isfinite(counts).all():
                raise ValueError("counts must be positive and finite")
            if users.min() < 0 or users.max() >= m or items.min() < 0 or items.max() >= n:
                raise ValueError("entry indices out of range for the given dimensions")
        csr = sp.coo_matrix((counts, (users, items)), shape=(m, n)).tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        finite = np.isfinite(csr.data)
        if not finite.all():
            j = int(np.argmin(finite))  # the first merged entry that overflowed
            raise _NonFiniteMerge(int(row_entries(csr.indptr)[0][j]), int(csr.indices[j]))
        return cls(csr)

    @property
    def m(self) -> int:
        return self.csr.shape[0]

    @property
    def n(self) -> int:
        return self.csr.shape[1]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Item indices and counts of user u, indices strictly increasing; u outside [0, m) is a DataError."""
        if not 0 <= u < self.m:  # a negative u would wrap
            raise DataError(f"user index {u} is outside the matrix's {self.m} users")
        lo, hi = self.csr.indptr[u], self.csr.indptr[u + 1]
        return self.csr.indices[lo:hi], self.csr.data[lo:hi]

    @cached_property
    def csc(self) -> sp.csc_matrix:
        """Column view with the same entries, row indices strictly increasing in each column."""
        csc = self.csr.tocsc()
        for array in (csc.data, csc.indices, csc.indptr):
            _read_only(array)
        return csc

    @cached_property
    def user_rows(self) -> np.ndarray:
        """User of each stored entry in ``csr`` order: the row index of the user-major view."""
        return _read_only(row_entries(self.csr.indptr)[0])

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All stored entries as (users, items, counts) in row-major order; users built afresh."""
        return row_entries(self.csr.indptr)[0], self.csr.indices, self.csr.data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseInteractions):
            return NotImplemented
        return (
            self.csr.shape == other.csr.shape
            and np.array_equal(self.csr.indptr, other.csr.indptr)
            and np.array_equal(self.csr.indices, other.csr.indices)
            and np.array_equal(self.csr.data, other.csr.data)
        )

    __hash__ = None


def row_entries(indptr: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Row of each entry of CSR rows ``rows`` (numbered by place in ``rows``, in ``indptr``'s dtype) and
    its position in the stored arrays; every entry's row and None when ``rows`` is None."""
    if rows is None:
        return np.repeat(np.arange(len(indptr) - 1, dtype=indptr.dtype), np.diff(indptr)), None
    starts = indptr[rows]
    degrees = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(len(rows), dtype=indptr.dtype), degrees)
    return owner, np.arange(len(owner)) + np.repeat(starts - np.cumsum(degrees) + degrees, degrees)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class SplitPair:
    """An entry-wise train/test split.

    ``test`` holds the held-out (users, items, counts) columns, int64, int64 and
    float64 arrays in row-major order like :meth:`SparseInteractions.entries`,
    for users that survive the filter rule: every test user also appears in
    train and has at least the configured number of test entries. Train and
    test never share a (u, i) pair; ``evaluate`` also takes a (u, i, x) list.
    """

    train: SparseInteractions
    test: tuple[np.ndarray, np.ndarray, np.ndarray]


def _is_columns(entries) -> bool:
    """Whether entries are (users, items, counts) columns: a tuple of three arrays."""
    return isinstance(entries, tuple) and len(entries) == 3 and all(
        isinstance(column, np.ndarray) for column in entries
    )


@contextmanager
def open_replacing(path: str, binary: bool = False) -> Iterator[IO]:
    """A new file beside ``path`` to write into; it replaces ``path`` when the block completes.

    An error inside the block removes the new file and leaves ``path`` as it
    was, so a write that fails, or a process that stops before the rename,
    never leaves a partial file under the target name. The file is not
    fsynced, so this does not hold across an operating-system crash or power
    loss. Text is written as UTF-8. The new file gets ``open``'s usual
    permissions (the umask's), not those of the file it replaces, and a
    symlink or hard link at ``path`` is replaced rather than written through.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp_path, "xb") if binary else open(tmp_path, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def _is_utf8(text: str) -> bool:
    """Whether text encodes as UTF-8; lone surrogates, which stand for bytes
    that were not UTF-8 in a file read by :func:`read_triplet_file`, do not."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _parse_line(line: str, line_no: int, delimiter: str) -> tuple[str, str, float] | None:
    """The per-line rule: (user, item, count) of one line, or None for a blank one.

    The line must carry at least three fields: user token, item token, and a
    positive finite count. Extra fields are ignored.
    """
    if not _is_utf8(line):
        raise ParseError("line is not valid UTF-8", line_no)
    line = line.rstrip("\r\n")
    if not line.strip():
        return None
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
    return user, item, count


def _split_regular(
    text: str, n: int, width: int, delimiter: str
) -> tuple[list[str], list[str], np.ndarray] | None:
    """Tokens and counts of text's ``n`` lines of ``width`` fields each, or None unless every line is valid.

    The text's newlines become delimiters, and one ``split`` yields every
    field. A line is valid when both tokens are nonempty after stripping and
    its count is a positive finite number (``float`` ignores the whitespace
    ``strip`` removes); tokens are stripped only if the text is not ASCII or
    holds ``_PADS`` besides the delimiter.
    """
    fields = text.replace("\n", delimiter).split(delimiter)
    end = n * width
    users, items = fields[0:end:width], fields[1:end:width]
    if not text.isascii() or any(pad in text for pad in _PADS if pad != delimiter):
        users, items = list(map(str.strip, users)), list(map(str.strip, items))
    try:
        counts = np.fromiter(map(float, fields[2:end:width]), np.float64, n)
    except ValueError:
        return None
    if all(users) and all(items) and (np.isfinite(counts) & (counts > 0)).all():
        return users, items, counts
    return None


def _screen(text: str, delimiter: str) -> tuple[int, list[str], list[str], np.ndarray] | None:
    """Line count, tokens and counts of a chunk of "\\n"-ended lines read in one pass, or None.

    One numpy pass over the text's UTF-8 bytes finds the "\\n" and delimiter
    bytes, and from them each line's number of fields (its delimiters plus
    one). When every line is blank or holds the chunk's largest number of
    fields, at least three, the lines that are not blank are split at once by
    :func:`_split_regular`. None when the text is not UTF-8, when a line that
    is not blank holds fewer fields, or when a line is not valid.
    """
    try:
        raw = np.frombuffer(text.encode("utf-8"), np.uint8)  # "\n" and an ASCII delimiter are one byte each
    except UnicodeEncodeError:  # lone surrogates, which stand for bytes that were not UTF-8
        return None
    marks = raw[np.flatnonzero((raw == 10) | (raw == ord(delimiter)))]
    ends = np.flatnonzero(marks == 10)  # each line's "\n" among the marks, in line order
    if not text.endswith("\n"):
        ends = np.append(ends, len(marks))
    widths = np.diff(ends, prepend=-1)
    width = int(widths.max())
    regular = widths == width
    if width < 3:
        return None
    if not regular.all():
        lines = io.StringIO(text).readlines()
        if any(map(str.strip, compress(lines, (~regular).tolist()))):
            return None
        text = "".join(compress(lines, regular.tolist()))
    screened = _split_regular(text, int(regular.sum()), width, delimiter)
    return None if screened is None else (len(widths), *screened)


def _parse_chunk(
    text: str, first_line_no: int, delimiter: str, newline: str
) -> tuple[int, list[str], list[str], np.ndarray]:
    """Line count, and user tokens, item tokens and counts of the kept lines, of one chunk of text.

    ``newline`` is the stream's line rule as ``io.StringIO`` takes it: "\\n"
    ends lines at "\\n" alone, "" at a lone "\\r" too. Under the first, with a
    delimiter of one ASCII character, :func:`_screen` reads the chunk in one
    pass when it can. Any other chunk, and any chunk the screen rejects (an
    empty token, a bad count), goes through :func:`_parse_line` line by line,
    so its skips and its ParseError are exactly those of the per-line rule.
    """
    if newline == "\n" and len(delimiter) == 1 and delimiter.isascii():
        screened = _screen(text, delimiter)
        if screened is not None:
            return screened
    lines = io.StringIO(text, newline=newline).readlines()
    kept = [row for r, line in enumerate(lines) if (row := _parse_line(line, first_line_no + r, delimiter))]
    users, items, counts = zip(*kept) if kept else ((), (), ())
    return len(lines), list(users), list(items), np.array(counts, dtype=np.float64)


def _ends_lines_at_cr(text: str, source: TextIO) -> bool:
    """Whether ``source`` ends a line at a lone "\\r" of ``text``.

    Only a universal-newline stream that keeps line ends as read
    (``newline=""``) leaves a lone "\\r" in its text as a line end, and it
    records that "\\r" in ``newlines``. ``io.StringIO`` by default keeps the
    "\\r" inside the line, and ``open`` by default reads it as "\\n".
    """
    seen = getattr(source, "newlines", None)
    lone_cr_seen = "\r" in (seen if isinstance(seen, tuple) else (seen,))
    return lone_cr_seen and text.count("\r") > text.count("\r\n")


class _TokenCodes(dict):
    """Token to code table; an unseen token takes the next code, so codes follow first appearance."""

    def __missing__(self, token: str) -> int:
        self[token] = code = len(self)
        return code


def parse_triplets(source: TextIO, delimiter: str = ",", has_header: bool = False) -> Triplets:
    """Parse a delimited text stream into columns.

    Each line must carry at least three fields: user token, item token, and a
    positive count. Extra fields are ignored. Blank lines are skipped.
    Duplicate (user, item) pairs are preserved here and merged later by
    :func:`build_interactions`.

    The stream is read one block of text at a time, ``read(CHUNK_BYTES)``
    and the rest of its last line (the lines ``readlines(CHUNK_BYTES)``
    would return), and each block becomes code and count arrays, so memory
    per input line is a few array entries rather than a Python object; each
    token column is coded in one dict pass. One numpy pass over a block's
    bytes counts the fields of each line. A block whose lines are all blank
    or hold the same number of fields is split in one pass (its tokens
    stripped only if it holds non-ASCII text or whitespace besides newlines
    and the delimiter); a block that mixes field counts is read line by
    line, about 4.5x slower, with the same result, and so is every block when
    the delimiter is not one ASCII character. Lines end at ``"\\n"``, as in a
    stream opened with ``newline`` None (``open``'s default), ``"\\n"``
    (``io.StringIO``'s) or ``""``; a block in which a ``newline=""`` stream
    ends a line at a lone ``"\\r"`` is read line by line, by that rule. Other
    kinds are not supported: with ``newline="\\r"``, ``"a,b,1,x\\rc,d,2,y\\r"``
    silently gives one row, its second line read as extra fields.

    Raises
    ------
    ParseError
        On a malformed line, an empty token, a count that is not a positive
        finite number, or text that is not UTF-8 (see
        :func:`read_triplet_file`); the message carries the number of the
        first such line.
    """
    user_index, item_index = _TokenCodes(), _TokenCodes()
    users, items, counts = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    if has_header:
        source.readline()
    line_no = 2 if has_header else 1
    while text := source.read(CHUNK_BYTES) + source.readline():
        newline = "" if _ends_lines_at_cr(text, source) else "\n"
        n_lines, chunk_users, chunk_items, chunk_counts = _parse_chunk(text, line_no, delimiter, newline)
        users.append(np.fromiter(map(user_index.__getitem__, chunk_users), np.int64, len(chunk_users)))
        items.append(np.fromiter(map(item_index.__getitem__, chunk_items), np.int64, len(chunk_items)))
        counts.append(chunk_counts)
        line_no += n_lines
    return Triplets(tuple(user_index), tuple(item_index), *map(np.concatenate, (users, items, counts)))


def build_interactions(triplets: Triplets) -> tuple[SparseInteractions, IdMap]:
    """Build the count matrix and the id map of parsed triplets.

    Ids keep the parser's first-appearance order. Duplicate (user, item)
    pairs are merged by summing their counts; a sum that overflows float64
    is a DataError naming the pair.
    """
    if not len(triplets):
        raise DataError("empty dataset: no triplets to build from")
    id_map = IdMap(triplets.user_tokens, triplets.item_tokens)
    try:
        data = SparseInteractions.from_entries(
            triplets.users, triplets.items, triplets.counts, id_map.n_users, id_map.n_items
        )
    except _NonFiniteMerge as exc:
        raise DataError(
            f"counts of user {id_map.user_token(exc.user)!r} and item "
            f"{id_map.item_token(exc.item)!r} sum to more than float64 holds"
        ) from None
    return data, id_map


def split_train_test(
    data: SparseInteractions,
    test_fraction: float = 0.2,
    min_test_entries: int = 3,
    seed: int = 42,
) -> SplitPair:
    """Hold out each stored entry independently with probability test_fraction.

    After the Bernoulli assignment, test entries belonging to users that lost
    all their training entries or hold fewer than ``min_test_entries`` test
    entries are discarded entirely; they are not returned to train, so the
    training matrix depends only on the Bernoulli draw. The split is
    deterministic given the seed. Dimensions are preserved: users and items
    are not reindexed.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ConfigError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    if min_test_entries < 1:
        raise ConfigError(f"min_test_entries must be >= 1, got {min_test_entries}")
    if not 0 <= seed < 2**63:
        raise ConfigError(f"seed must be a nonnegative 63-bit integer, got {seed}")
    users, items, counts = data.entries()
    rng = np.random.default_rng(seed)
    to_test = rng.random(data.nnz) < test_fraction
    if data.nnz and to_test.all():
        raise DataError("split left no training entries; lower test_fraction")
    to_train = ~to_test
    train_per_user = np.bincount(users[to_train], minlength=data.m)
    test_per_user = np.bincount(users[to_test], minlength=data.m)
    user_kept = (train_per_user > 0) & (test_per_user >= min_test_entries)
    keep = to_test & user_kept[users]
    # the training entries, a mask over a sorted and merged CSR, are one already
    indptr = np.concatenate(([0], np.cumsum(train_per_user)))
    csr = sp.csr_matrix(
        (data.csr.data[to_train], data.csr.indices[to_train], indptr), shape=(data.m, data.n)
    )
    test = (users[keep].astype(np.int64), items[keep].astype(np.int64), counts[keep])
    return SplitPair(train=SparseInteractions(csr), test=test)


class _CountTexts(dict):
    """``%.17g`` texts of float counts, each distinct value formatted once.

    A value is kept only when no other float equal to it has another text:
    0.0 and -0.0 are equal keys with different texts, and a NaN equals
    nothing, so those are formatted on every use.
    """

    def __missing__(self, x: float) -> str:
        text = f"{x:.17g}"
        if x == x != 0:
            self[x] = text
        return text


def _outside(u, i, x, id_map: IdMap) -> NoReturn:
    """Raise the DataError of an entry whose user or item lies outside ``id_map``."""
    if 0 <= u < id_map.n_users:
        side, index, size = "item", i, id_map.n_items
    else:
        side, index, size = "user", u, id_map.n_users
    raise DataError(
        f"entry ({u}, {i}, {x}) has {side} index {index}, outside the id map's {size} {side}s"
    )


def write_triplet_file(
    path: str,
    entries: tuple[np.ndarray, np.ndarray, np.ndarray] | Iterable[tuple[int, int, float]],
    id_map: IdMap,
    delimiter: str = ",",
) -> None:
    """Write internal entries, (users, items, counts) columns as a tuple of three arrays (like
    :meth:`SparseInteractions.entries`) or else (u, i, x) rows, as external-token triplet text.

    Counts are formatted with %.17g, which round-trips float64 exactly, so a
    written file re-parses to identical values; within a chunk each distinct
    float count is formatted once. Lines are joined and written
    ``WRITE_CHUNK`` entries at a time, and the file replaces ``path`` only
    once complete (see :func:`open_replacing`). An index outside the id map
    is a DataError naming the entry; ``path`` is then left as it was.
    """
    users, items = id_map._user_tokens, id_map._item_tokens
    m, n = len(users), len(items)
    if _is_columns(entries):  # rows made a chunk at a time, not all at once
        columns, starts = entries, range(0, len(entries[2]), WRITE_CHUNK)
        entries = chain.from_iterable(
            zip(*(column[lo : lo + WRITE_CHUNK].tolist() for column in columns)) for lo in starts
        )
    # Holds one chunk's float counts (equal values of other types may print
    # otherwise). A miss costs more than formatting, so once a chunk finds
    # more than an eighth of its counts new, the rest are formatted directly.
    texts = _CountTexts()
    rows = iter(entries)
    with open_replacing(path) as fh:
        while lines := [
            f"{users[u]}{delimiter}{items[i]}{delimiter}"
            f"{texts[x] if texts is not None and type(x) is float else format(x, '.17g')}\n"
            for u, i, x in islice(rows, WRITE_CHUNK)
            if 0 <= u < m and 0 <= i < n or _outside(u, i, x, id_map)
        ]:
            fh.write("".join(lines))
            if texts is None:
                continue
            if len(texts) > WRITE_CHUNK // 8:
                texts = None
            else:
                texts.clear()


def read_triplet_file(path: str, delimiter: str = ",", has_header: bool = False) -> Triplets:
    """Parse a triplet file from disk; see :func:`parse_triplets`.

    Bytes that are not UTF-8 are kept as lone surrogates while reading, so
    the first line holding one is a ParseError naming that line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_triplets(fh, delimiter=delimiter, has_header=has_header)
