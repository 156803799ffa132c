"""Dataset ingestion, synthetic generation, and deterministic splits.

The on-disk format is the usual sparse labeled text: one example per line,

    <label> <index>:<value> <index>:<value> ...

with 1-based, strictly ascending indices that fit in int64, and numbers in
ASCII digits without underscore digit groups. Labels 0 and -1 map to -1 and
positive labels to +1; any other finite label maps by sign with a warning.
A NaN or infinite label or feature value is a ParseError, and
serialize_sparse refuses one with a ParameterError before it writes a byte.
Values are written back as repr() writes them, the shortest decimal that
round-trips a double, so parse(serialize(d)) reproduces d exactly. The CLI's
CSVs use the same float rule, through write_csv.

A Dataset is its features and labels, nothing else. It holds the features
as a dense float64 array or as a canonical CSR matrix (sorted indices, no
duplicates); any other scipy sparse input is converted on construction,
without changing the caller's matrix. Complex features or labels, and
labels other than +1 and -1 (1.0 counts; 1.9 does not), are a
ParameterError, not a cast. Code that needs dense rows asks for them whole
(dense, dense_rows); training reads CSR rows as their stored entries, and
the batch predictors densify X one row block at a time.

The one block budget of every blocked stage lives here: _BLOCK_CELLS,
2**17 float64 cells (1 MB), and _block_rows, the rows of a given width that
fit in it. The batch predictors' row blocks, calibrate's term blocks,
serialize_sparse's row blocks and the walks' trial blocks are all
sized through _block_rows, which reads the budget at each call.
parse_sparse reads its text in blocks of whole lines of about _BLOCK_CELLS
characters, so a block's lines, their bytes and the block's parsed entries
fit in the budget together.

parse_sparse reads each block in compiled C (_sparse_text.c), which parses
a strict subset of the format: ASCII only, spaces and tabs between tokens,
'\n' line ends; a label that reads as exactly 1, -1 or 0; indices
[+]?[0-9]+ that ascend strictly and fit in int64; values
[+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?. It reads them with strtod in the "C"
locale, which rounds as float() does, so the CSR bits are the same (a value
past the double range is inf in both, refused with its line after the
whole input is read). It reads a block whole or refuses it: when one line
is outside the subset, the Python per-line parser (_parse_line, the
reference) reads every line of that block, under its true line number. So
blank lines, '\r', non-ASCII whitespace, nan and inf, labels mapped with a
warning, indices past int64 and every ParseError take the Python path, with
the same messages, and a block holding a mapped label or odd whitespace
parses at Python speed. The C is compiled with cc on the first parse or
write, never at import, into $XDG_CACHE_HOME/stst (default ~/.cache/stst,
mode 0700; see stst._native), and deleting that directory clears it.
Without a C compiler every line goes through the Python parser, about four
times slower.

serialize_sparse writes whole blocks of lines in the same C, which formats
every finite double exactly as repr() does: the shortest digits that read
back to it, the nearest to it when there are several (Ryu), in
float.__repr__'s layout. Ryu's tables of powers of five are built here, on
the first write, from Python's exact integers (_pow5_tables), and passed to
the C with each block. Its output is the bytes of the Python reference
writer (_reference_rows, one repr() a value), which it falls back to without
a C compiler, about twelve times slower. A path target gets the bytes as
they are; a text stream gets them decoded as ASCII. write_csv keeps repr():
a CSV holds a few hundred floats, not a data set's.

Input that is not UTF-8 is a ParseError with no line number: a stream
decodes its text in chunks, and parse_sparse reads it a block ahead of the
parse, so the bad byte's line is not known, and its error can come before
the ParseError of an earlier line.

scipy is imported the first time a sparse matrix is built or converted (a
parse, a sparse Dataset, serializing a dense one), never by importing stst:
it costs every process about a quarter second, and dense data, stst theory
and stst simulate use none of it.
"""

import functools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError, ParameterError, ParseError, check_count, check_labels, check_real

__all__ = [
    "Dataset",
    "SyntheticSpec",
    "parse_sparse",
    "serialize_sparse",
    "generate_synthetic",
    "split",
    "write_csv",
]

# the largest feature index that fits the int64 CSR indices and shape
_MAX_INDEX = int(np.iinfo(np.int64).max)
# the one block budget (see the module docstring). Picked by timing full
# scores of a 2100 x 2000 CSR set (2% dense) on a coordinate model: 28-30 ms
# at 16-65 rows a block, 60 ms at 1024 rows, 72-86 ms for the whole set at
# once; the walks ran within noise from 2**15 to 2**19 cells on 2 vCPUs.
_BLOCK_CELLS = 2**17


def _block_rows(width: int) -> int:
    """Rows of `width` cells that fit in _BLOCK_CELLS; at least one. The
    budget is read at each call, so patching it here reaches every stage."""
    return max(1, _BLOCK_CELLS // width)


@functools.cache
def _sparse():
    """scipy.sparse, imported on first use (see the module docstring)."""
    from scipy import sparse

    return sparse


@dataclass(eq=False)
class Dataset:
    """Labeled examples: a dense or CSR feature matrix and +/-1 labels."""

    X: "np.ndarray | scipy.sparse.csr_matrix"  # any scipy sparse input becomes canonical CSR
    y: np.ndarray

    def __post_init__(self):
        # checked before the float64 and int64 casts
        self.y = check_real("labels", np.asarray(self.y))
        if hasattr(self.X, "tocsr"):
            X = _sparse().csr_matrix(check_real("features", self.X), dtype=np.float64)
            if not X.has_canonical_format:
                # csr_matrix(X) may share X's arrays; sum_duplicates sorts in place
                X = X.copy()
                X.sum_duplicates()
            self.X = X
        else:
            self.X = check_real("features", np.asarray(self.X)).astype(np.float64, copy=False)
            if self.X.ndim != 2:
                raise ParameterError("feature matrix must be 2-d")
        if self.X.shape[0] == 0:
            raise EmptyDatasetError("dataset has no examples")
        if self.X.shape[0] != self.y.shape[0]:
            raise ParameterError(
                f"feature rows ({self.X.shape[0]}) and labels ({self.y.shape[0]}) disagree"
            )
        self.y = check_labels("labels", self.y)

    @property
    def n_examples(self) -> int:
        return int(self.X.shape[0])

    @property
    def dim(self) -> int:
        return int(self.X.shape[1])

    def dense(self) -> np.ndarray:
        """Whole feature matrix as a dense array."""
        if isinstance(self.X, np.ndarray):
            return self.X
        return self.X.toarray()

    def dense_rows(self, idx) -> np.ndarray:
        if isinstance(self.X, np.ndarray):
            return self.X[idx]
        return self.X[idx].toarray()

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(X=self.X[idx], y=self.y[idx])


def _map_label(token: str, line_no: int) -> int:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad label {token!r}", line_no) from None
    if value == 1.0:
        return 1
    if value == -1.0 or value == 0.0:
        return -1
    if not math.isfinite(value):
        raise ParseError(f"non-finite label {token!r}", line_no)
    mapped = 1 if value > 0 else -1
    # attributed to the caller of parse_sparse, past _parse_line and _parse_block
    warnings.warn(f"line {line_no}: label {token!r} mapped by sign to {mapped:+d}", stacklevel=5)
    return mapped


def _parse_line(line: str, line_no: int, labels, col, data, indptr, too_large: list) -> None:
    """Append one line's row to the buffers: the reference parser, which
    reads every line the compiled one leaves. The first index past
    _MAX_INDEX goes into the empty too_large list as (index, line_no)."""
    stripped = line.strip()
    if not stripped:
        raise ParseError("blank line", line_no)
    tokens = stripped.split()
    # int() and float() also read "1_0" and non-ASCII digits, which the
    # format does not. One test per line, not per token; a line whose only
    # non-ASCII characters are whitespace passes.
    if "_" in stripped or not stripped.isascii():
        bad = next((t for t in tokens if "_" in t or not t.isascii()), None)
        if bad is not None:
            raise ParseError(f"bad number in {bad!r}: only ASCII digits, no underscores", line_no)
    labels.append(_map_label(tokens[0], line_no))
    prev = 0
    cols, vals = [], []
    for token in tokens[1:]:
        head, sep, tail = token.partition(":")
        if not sep or not head or not tail:
            raise ParseError(f"expected index:value, got {token!r}", line_no)
        try:
            index = int(head)
        except ValueError:
            raise ParseError(f"bad feature index {head!r}", line_no) from None
        try:
            value = float(tail)
        except ValueError:
            raise ParseError(f"bad feature value {tail!r}", line_no) from None
        if index < 1:
            raise ParseError(f"feature indices are 1-based, got {index}", line_no)
        if index <= prev:
            raise ParseError(f"feature index {index} not ascending (previous {prev})", line_no)
        prev = index
        cols.append(index - 1)
        vals.append(value)
    # indices ascend, so a row's last index is its largest
    if prev > _MAX_INDEX:  # past int64: refused after the whole input is read
        if not too_large:
            too_large.append((next(c + 1 for c in cols if c >= _MAX_INDEX), line_no))
        cols = [0] * len(cols)
    col.fromlist(cols)
    data.fromlist(vals)
    indptr.append(len(col))


def _line_blocks(source):
    """source's lines in lists of about _BLOCK_CELLS characters, whole lines each."""
    block, size = [], 0
    for line in source:
        block.append(line)
        size += len(line)
        if size >= _BLOCK_CELLS:
            yield block
            block, size = [], 0
    if block:
        yield block


@functools.cache
def _text_lib():
    """_sparse_text.c compiled and loaded on first use, or None without a C
    compiler."""
    from . import _native

    return _native.load("_sparse_text")


def _text_parser():
    """stst_parse_lines of _sparse_text.c, or None without a C compiler
    (every line then goes through _parse_line)."""
    lib = _text_lib()
    return None if lib is None else lib.stst_parse_lines


def _text_writer():
    """stst_format_rows of _sparse_text.c, or None without a C compiler
    (every block then goes through _reference_rows)."""
    lib = _text_lib()
    return None if lib is None else lib.stst_format_rows


@functools.cache
def _pow5_tables() -> np.ndarray:
    """The compiled writer's tables of powers of five (Ryu), read-only: 617
    rows of {low 64 bits, high 64 bits}. Row i < 326 is floor(5^i * 2^(125 - b))
    and row 326 + q is floor(2^(b - 1 + 125) / 5^q) + 1, b the bit length of
    5^i or 5^q."""
    rows = [(5**i << 125) >> (5**i).bit_length() for i in range(326)]
    rows += [(1 << ((5**q).bit_length() + 124)) // 5**q + 1 for q in range(291)]
    tables = np.array([(row & (2**64 - 1), row >> 64) for row in rows], dtype=np.uint64)
    tables.flags.writeable = False
    return tables


def _parse_block(lines: list, line_no: int, buffers: tuple, parse) -> None:
    """Append the rows of lines, the first of which is line line_no + 1, to
    buffers (labels, col, data, indptr and _parse_line's too_large). The
    compiled parser reads the whole block or refuses it; _parse_line reads
    every line of a block it refuses."""
    labels, col, data, indptr, _ = buffers
    if parse is not None:
        text = "".join(lines).encode("utf-8", "surrogatepass")
        # room for every row and entry the compiled parser can read: a row
        # ends at each '\n' or at the end, and an entry holds one ':'. The
        # bytes object's trailing NUL ends the last number.
        rows_out = np.empty((2, text.count(b"\n") + 1), dtype=np.int64)  # labels and row ends
        cells = text.count(b":")
        cols_out, vals_out = np.empty(cells, dtype=np.int64), np.empty(cells)
        outputs = (rows_out[0], rows_out[1], cols_out, vals_out)
        rows = parse(text, len(text), len(col), *(a.ctypes.data for a in outputs))
        # one row a line, or the block is refused: the compiled parser ends
        # lines at '\n', and a stream may end them at '\r' alone (newline="\r"
        # or "\r\n") and hold a '\n' inside a line
        if rows == len(lines):
            entries = int(rows_out[1, rows - 1]) - len(col)
            # frombytes takes a buffer of bytes, so each slice is viewed as one
            labels.frombytes(rows_out[0, :rows].view(np.uint8))
            indptr.frombytes(rows_out[1, :rows].view(np.uint8))
            col.frombytes(cols_out[:entries].view(np.uint8))
            data.frombytes(vals_out[:entries].view(np.uint8))
            return
    for i, line in enumerate(lines, start=line_no + 1):
        _parse_line(line, i, *buffers)


def parse_sparse(source, *, dim: int | None = None) -> Dataset:
    """Parse the sparse labeled text format into a Dataset.

    source may be a path or an open text stream. dim overrides the inferred
    dimension (the largest index seen); an override smaller than an observed
    index is an error. Out-of-order and duplicate indices are errors.
    """
    if dim is not None:
        check_count("dim", dim, 1)
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            return parse_sparse(handle, dim=dim)

    # imported before the row buffers grow: in a fresh process running the
    # CLI pipeline, that peaked about 1 MB lower than importing it after the loop
    sparse = _sparse()
    from array import array  # here, so that importing stst loads no array module
    # typed buffers, 8 bytes a value, where a list holds a Python object per
    # value, about 36 bytes more
    labels, col, data, indptr = array("q"), array("q"), array("d"), array("q", [0])
    too_large = []  # (index, line) of the first index past _MAX_INDEX
    buffers = labels, col, data, indptr, too_large
    parse = _text_parser()
    line_no = 0
    try:
        for lines in _line_blocks(source):
            _parse_block(lines, line_no, buffers, parse)
            line_no += len(lines)
    except UnicodeDecodeError as exc:  # the stream decodes ahead: no true line number
        raise ParseError(f"input is not UTF-8 text: {exc.reason}") from None

    values = np.frombuffer(data, dtype=np.float64)
    indptr = np.frombuffer(indptr, dtype=np.int64)
    finite = np.isfinite(values)
    if not finite.all():
        at = int(np.argmin(finite))
        # one line per row: blank lines are rejected above
        line_no = int(np.searchsorted(indptr, at, side="right"))
        raise ParseError(f"non-finite feature value {float(values[at])!r}", line_no)
    if too_large:
        [(index, line_no)] = too_large
        raise ParseError(f"feature index {index} exceeds the largest supported index {_MAX_INDEX}", line_no)
    if not labels:
        raise EmptyDatasetError("input contained no examples")
    indices = np.frombuffer(col, dtype=np.int64)
    max_index = int(indices.max()) + 1 if indices.size else 0
    if dim is None:
        if max_index < 1:
            raise ParseError("cannot infer a positive dimension from featureless input; pass dim")
        dim = max_index
    elif dim < max_index:
        raise ParseError(f"declared dim {dim} smaller than largest index {max_index}")
    X = sparse.csr_matrix((values, indices, indptr), shape=(len(labels), dim))
    return Dataset(X=X, y=np.frombuffer(labels, dtype=np.int64))


def _check_finite(X) -> None:
    """ParameterError naming the first non-finite value of X, a dense array
    or a CSR matrix, in row-major order; the format holds finite values
    only. min and max find one without a temporary array."""
    values = X if isinstance(X, np.ndarray) else X.data
    if values.size == 0 or (math.isfinite(values.min()) and math.isfinite(values.max())):
        return
    if isinstance(X, np.ndarray):
        row, col = (int(i) for i in np.argwhere(~np.isfinite(X))[0])
    else:
        at = int(np.argmin(np.isfinite(values)))
        row, col = int(np.searchsorted(X.indptr, at, side="right")) - 1, int(X.indices[at])
    value = float(X[row, col])
    raise ParameterError(f"cannot write the non-finite feature value {value!r} at row {row}, column {col}")


def _reference_rows(labels, indptr, indices, values) -> str:
    """The lines of a block of CSR rows, each value through repr(): the
    reference the compiled writer is tested against, and its path without a
    C compiler. indptr starts at 0."""
    keep = values != 0.0  # also drops -0.0
    tokens = [f"{index}:{value!r}" for index, value in zip((indices[keep] + 1).tolist(), values[keep].tolist())]
    # bounds[i]:bounds[i + 1] are the kept tokens of the block's row i
    bounds = np.concatenate(([0], np.cumsum(keep)))[indptr].tolist()
    rows = enumerate(labels.tolist())
    return "".join(" ".join([f"{label:+d}", *tokens[bounds[i] : bounds[i + 1]]]) + "\n" for i, label in rows)


def _text_blocks(dataset: Dataset):
    """The text of dataset as bytes-like blocks of _block_rows(dim) rows."""
    write = _text_writer()
    X, m = dataset.X, dataset.n_examples
    step = _block_rows(dataset.dim)
    # the most bytes a row and an entry take: its label and "\n"; " ", the
    # index, ":" and at most 24 for a value ("-1.2345678901234567e-308")
    row_bytes, entry_bytes = 3, len(str(dataset.dim)) + 26
    pow5 = None if write is None else _pow5_tables().ctypes.data  # read once: about 2 us a read
    for a in range(0, m, step):
        b = min(a + step, m)
        if isinstance(X, np.ndarray):
            block = _sparse().csr_matrix(X[a:b])
            indptr, indices, values = block.indptr, block.indices, block.data
        else:  # array views: scipy's own row slice costs about 50 us a block
            lo, hi = X.indptr[a], X.indptr[b]
            indptr, indices, values = X.indptr[a : b + 1] - lo, X.indices[lo:hi], X.data[lo:hi]
        if write is None:
            yield _reference_rows(dataset.y[a:b], indptr, indices, values).encode("ascii")
            continue
        arrays = [np.ascontiguousarray(x, dtype=np.int64) for x in (dataset.y[a:b], indptr, indices)]
        arrays.append(np.ascontiguousarray(values, dtype=np.float64))
        out = np.empty(row_bytes * (b - a) + entry_bytes * values.size, dtype=np.uint8)
        size = write(b - a, *(x.ctypes.data for x in arrays), pow5, out.ctypes.data)
        yield memoryview(out)[:size]


def serialize_sparse(dataset: Dataset, target) -> None:
    """Write a Dataset in the sparse labeled text format.

    Only nonzero entries are emitted, 1-based and ascending, with repr()
    float formatting (shortest round-trip decimals). A NaN or infinite
    feature value is a ParameterError, raised before anything is written.
    Rows are formatted and written in blocks of _block_rows(dim) rows, so
    one block's text is held at a time, never the whole file's; a dense
    block is converted to CSR on its own.
    """
    _check_finite(dataset.X)
    if isinstance(target, (str, os.PathLike)):
        with open(target, "wb") as handle:
            for block in _text_blocks(dataset):
                handle.write(block)
        return
    for block in _text_blocks(dataset):
        target.write(str(block, "ascii"))


def _csv_field(value) -> str:
    """One CSV field: "" for None, true/false for flags, the shortest
    round-trip repr for floats (numpy ones included), str for the rest."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(stream, header, rows) -> None:
    """A header line, then one line per row of raw values, each through _csv_field."""
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(map(_csv_field, row)) + "\n")


@dataclass(frozen=True)
class SyntheticSpec:
    """Two isotropic Gaussian classes separated along a random direction."""

    dim: int
    n_pos: int
    n_neg: int
    mean_separation: float
    noise_std: float
    seed: int

    def __post_init__(self):
        check_count("dim", self.dim, 1)
        check_count("n_pos", self.n_pos, 1)
        check_count("n_neg", self.n_neg, 1)
        if not self.noise_std > 0.0:
            raise ParameterError(f"noise_std must be positive, got {self.noise_std!r}")
        if self.mean_separation < 0.0:
            raise ParameterError(f"mean_separation must be >= 0, got {self.mean_separation!r}")
        check_count("seed", self.seed, 0)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Class means sit at +/-(mean_separation/2) along a seeded unit direction."""
    rng = np.random.default_rng(spec.seed)
    direction = rng.standard_normal(spec.dim)
    direction /= np.linalg.norm(direction)
    offset = 0.5 * spec.mean_separation * direction
    X_pos = offset + spec.noise_std * rng.standard_normal((spec.n_pos, spec.dim))
    X_neg = -offset + spec.noise_std * rng.standard_normal((spec.n_neg, spec.dim))
    X = np.vstack([X_pos, X_neg])
    y = np.concatenate([np.ones(spec.n_pos, dtype=np.int64), -np.ones(spec.n_neg, dtype=np.int64)])
    return Dataset(X=X, y=y)


def split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded uniform split into disjoint, exhaustive (train, test) parts."""
    if not 0.0 < test_fraction < 1.0:
        raise ParameterError(f"test_fraction must be in (0, 1), got {test_fraction!r}")
    check_count("seed", seed, 0)
    m = dataset.n_examples
    n_test = round(m * test_fraction)
    if n_test < 1 or n_test > m - 1:
        raise ParameterError(
            f"test_fraction {test_fraction!r} leaves an empty side for {m} examples"
        )
    perm = np.random.default_rng(seed).permutation(m)
    return dataset.subset(perm[n_test:]), dataset.subset(perm[:n_test])
