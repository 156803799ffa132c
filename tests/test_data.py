import io
import shutil
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from stst import (
    Dataset,
    SyntheticSpec,
    TrainConfig,
    generate_synthetic,
    parse_sparse,
    serialize_sparse,
    split,
    train_linear,
)
from stst import data
from stst.data import write_csv
from stst.errors import EmptyDatasetError, ParameterError, ParseError


def parse_text(text, **kw):
    return parse_sparse(io.StringIO(text), **kw)


@pytest.mark.usefixtures("parse_kernels")
class TestParse:
    def test_basic_line(self):
        ds = parse_text("+1 1:0.5 3:2.0\n")
        assert ds.n_examples == 1
        assert ds.dim == 3
        assert ds.y.tolist() == [1]
        assert ds.dense()[0].tolist() == [0.5, 0.0, 2.0]

    def test_featureless_example(self):
        ds = parse_text("-1\n+1 2:1.0\n")
        assert ds.dense()[0].tolist() == [0.0, 0.0]
        assert ds.y.tolist() == [-1, 1]
        # label-only lines declare no dimension; dim supplies it
        with pytest.raises(ParseError, match="cannot infer a positive dimension"):
            parse_text("-1\n+1\n")
        assert parse_text("-1\n+1\n", dim=3).dense().tolist() == [[0.0] * 3] * 2

    def test_label_mapping(self):
        ds = parse_text("0 1:1.0\n-1 1:1.0\n+1 1:1.0\n1 1:1.0\n")
        assert ds.y.tolist() == [-1, -1, 1, 1]

    def test_odd_labels_mapped_by_sign_with_warning(self):
        with pytest.warns(UserWarning, match="mapped by sign"):
            ds = parse_text("2.5 1:1.0\n-3 1:1.0\n")
        assert ds.y.tolist() == [1, -1]

    def test_dim_override(self):
        ds = parse_text("+1 2:1.0\n", dim=10)
        assert ds.dim == 10
        with pytest.raises(ParseError):
            parse_text("+1 5:1.0\n", dim=3)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("bogus 1:1.0\n", "bad label"),
            ("+1 1:abc\n", "bad feature value"),
            ("+1 x:1.0\n", "bad feature index"),
            ("+1 1\n", "expected index:value"),
            ("+1 0:1.0\n", "1-based"),
            ("+1 3:1.0 2:1.0\n", "not ascending"),
            ("+1 2:1.0 2:2.0\n", "not ascending"),
            ("+1 3:3.0 3:1.0\n", "not ascending"),
            ("\n", "blank line"),
            # a number runs to the next blank: these are single tokens
            ("+1 1:2+3:4\n", "bad feature value '2\\+3:4'"),
            ("+1+2:3\n", "bad label '\\+1\\+2:3'"),
            ("-1 1:2.5e\n", "bad feature value '2.5e'"),
        ],
    )
    def test_malformed_lines(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_text("+1 1:1.0\n" + text)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_feature_value_rejected(self, token):
        with pytest.raises(ParseError, match="line 3: non-finite feature value"):
            parse_text(f"+1 1:1.0\n-1\n+1 1:2.0 4:{token}\n-1 2:1.0\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_label_rejected(self, token):
        with pytest.raises(ParseError, match="line 2: non-finite label"):
            parse_text(f"+1 1:1.0\n{token} 1:1.0\n")

    @pytest.mark.parametrize(
        "line,token",
        [
            ("+1 1_0:2.0", "1_0:2.0"),  # int() reads index 10
            ("+1 3:1_0.5", "3:1_0.5"),  # float() reads 10.5
            ("1_0 1:1.0", "1_0"),  # a label read as 10, mapped by sign
            ("+1 \u0661:2.0", "\u0661:2.0"),  # Arabic-Indic one
            ("+1 1:\uff12", "1:\uff12"),  # full-width two
        ],
    )
    def test_underscore_and_non_ascii_digits_rejected(self, line, token):
        with pytest.raises(ParseError, match=f"line 2: bad number in {token!r}"):
            parse_text(f"+1 1:1.0\n{line}\n-1 2:1.0\n")

    def test_non_ascii_whitespace_between_tokens_passes(self):
        ds = parse_text("+1 1:2.0\u00a03:4.0\n")
        assert ds.dense()[0].tolist() == [2.0, 0.0, 4.0]

    @pytest.mark.parametrize("index", [2**63, 10**20])
    def test_index_past_int64_rejected(self, index):
        with pytest.raises(ParseError, match=f"line 3: feature index {index} exceeds"):
            parse_text(f"+1 1:1.0\n-1 2:1.0\n+1 1:1.0 {index}:1.0\n-1 2:1.0\n")

    def test_first_index_past_int64_is_named(self):
        # a later row, and a later entry of the same row, past int64 too
        text = f"+1 1:1.0\n-1 {2**63 + 5}:1.0 {2**63 + 9}:1.0\n+1 {10**20}:1.0\n"
        with pytest.raises(ParseError, match=f"line 2: feature index {2**63 + 5} exceeds"):
            parse_text(text)

    def test_lines_after_an_index_past_int64_are_still_read(self):
        # that index is refused once the whole input is read, so a later
        # line's own error, and a non-finite value, come first
        with pytest.raises(ParseError, match="^line 4: bad label 'bogus'$"):
            parse_text(f"+1 1:1.0\n-1 {2**63}:1.0\n+1 2:1.0\nbogus 1:1.0\n")
        with pytest.raises(ParseError, match="^line 3: non-finite feature value inf$"):
            parse_text(f"+1 1:1.0\n-1 {2**63}:1.0\n+1 2:1e999\n")

    def test_largest_int64_index_accepted(self):
        ds = parse_text(f"+1 1:1.0 {2**63 - 1}:2.0\n")
        assert ds.dim == 2**63 - 1
        assert ds.X.indices.tolist() == [0, 2**63 - 2]

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_text("+1 1:1.0\n-1 1:2.0\n+1 0:9\n")

    def test_empty_input(self):
        with pytest.raises(EmptyDatasetError):
            parse_text("")

    def test_peak_memory_of_the_pipeline_file(self, tmp_path):
        # the pipeline's 3000 x 2000 file at 2% density, 120k nonzeros: a
        # Python int and float per nonzero took 10 MB; typed buffers take
        # 8 bytes a value
        import tracemalloc

        rng = np.random.default_rng(43)
        X = sparse.random(3000, 2000, density=0.02, format="csr", random_state=rng, data_rvs=rng.standard_normal)
        path = tmp_path / "pipeline.txt"
        serialize_sparse(Dataset(X=X, y=rng.choice([-1, 1], size=3000)), path)
        tracemalloc.start()
        try:
            ds = parse_sparse(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.X.nnz == X.nnz
        assert peak <= 4 << 20


@pytest.mark.parametrize(
    "bad,message",
    [
        ("+1 0:1.0", "feature indices are 1-based, got 0"),
        ("+1 2:1.0 2:1.0", "feature index 2 not ascending"),
        ("-1 1:nan", "non-finite feature value nan"),
        (f"+1 {2**63}:1.0", f"feature index {2**63} exceeds"),
        ("", "blank line"),
    ],
)
def test_error_past_the_first_block_names_its_line(parse_kernels, bad, message):
    line = "+1 1:0.25 7:-1.5 19:3.0000000000000004\n"
    at = 3 * data._BLOCK_CELLS // len(line)  # a line of the fourth block
    lines = [line] * (at + 10)
    lines[at - 1] = bad + "\n"
    with pytest.raises(ParseError, match=f"^line {at}: {message}"):
        parse_text("".join(lines))


@pytest.mark.parametrize("block", [0, 3], ids=["first-block", "fourth-block"])
def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, parse_kernels, block):
    # the stream decodes ahead of the parse, so the error names no line
    line = b"+1 1:0.25 7:-1.5 19:3.0000000000000004\n"
    at = block * data._BLOCK_CELLS // len(line) + 2
    lines = [line] * (at + 10)
    lines[at - 1] = b"-1 2:\xff0.5\n"
    path = tmp_path / "bad.txt"
    path.write_bytes(b"".join(lines))
    for source in (path, str(path)):
        with pytest.raises(ParseError, match="^input is not UTF-8 text: invalid start byte$") as caught:
            parse_sparse(source)
        assert caught.value.line is None


def test_warning_past_the_first_block_names_its_line(parse_kernels):
    line = "-1 2:0.5 3:1e-3\n"
    at = 2 * data._BLOCK_CELLS // len(line)
    lines = [line] * at
    lines[at - 1] = "2.5 1:1.0\n"
    with pytest.warns(UserWarning, match=f"^line {at}: label '2.5' mapped by sign to \\+1$"):
        ds = parse_text("".join(lines))
    assert ds.y.tolist() == [-1] * (at - 1) + [1]


def test_lines_of_a_stream_that_ends_them_at_cr_only(parse_kernels):
    # with newline="\r" a '\n' is inside a line: here the whole input is one
    # line of 3000 '\n'-separated rows, read as one line as the stream gives it
    with pytest.raises(ParseError, match=r"^line 1: expected index:value, got '-1'$"):
        parse_sparse(_stream("+1 1:1.0\n-1 2:0.5\n" * 1500, "\r"))
    with pytest.raises(ParseError, match=r"^line 1: expected index:value, got '-1'$"):
        parse_sparse(_stream("+1 1:1.0\n-1 2:0.5\r+1 1:1.0\r", "\r"))
    ds = parse_sparse(_stream("+1 1:1.0\r-1 2:0.5\n\r" * 1500, "\r"))
    assert ds.y.tolist() == [1, -1] * 1500


def _stream(text, newline):
    """text as a file opened with the given newline mode would read it."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline=newline)


def _outcome(text, newline, parser, block_cells):
    """parse_sparse's result on text read with the given newline mode, line
    parser and block budget, as the CSR bytes and labels or the
    error, and its warnings."""
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        patch.setattr(data, "_text_parser", lambda: parser)
        patch.setattr(data, "_BLOCK_CELLS", block_cells)
        try:
            ds = parse_sparse(_stream(text, newline))
        except (ParseError, EmptyDatasetError) as exc:
            result = (type(exc), str(exc))
        else:
            X = ds.X
            arrays = (X.indptr, X.indices, X.data, ds.y)
            result = (X.shape, [(a.dtype.str, a.tobytes()) for a in arrays])
    return result, [str(w.message) for w in caught]


def _decimal(sign, digits, point, exponent):
    text = f"{sign}{digits[:point]}.{digits[point:]}"
    return text if exponent is None else f"{text}e{exponent}"


_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.builds(
        _decimal,
        st.sampled_from(["", "+", "-"]),
        st.text("0123456789", min_size=1, max_size=25),
        st.integers(0, 25),
        st.none() | st.integers(-345, 330),
    ),
    # non-finite, subnormal, overflowing, bare-point and malformed spellings
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e400", "1e-320", "4e-324", "2e-324", "1e-400"]),
    st.sampled_from(["1.", ".5", "+.5E+3", "-0.0", "1e", "0x10", "1_0", "\u0661"]),
)
_LABELS = st.sampled_from(
    ["+1", "-1", "1", "0", "-0", "1.0", "+1e0", "-1.", "00", ".1e1", "2.0", "0.5", "-3", "nan", "inf"]
)


@st.composite
def _lines(draw):
    indices = sorted(draw(st.sets(st.integers(1, 40), max_size=5)))
    if draw(st.integers(0, 9)) == 0:
        indices.append(2**63 - 1 + draw(st.integers(0, 2)))  # int64's largest, and past it
    tokens = [draw(_LABELS)]
    for index in indices:
        spelled = draw(st.sampled_from(["{}", "00{}", "+{}"])).format(index)
        tokens.append(f"{spelled}:{draw(_VALUES)}")
    line = draw(st.sampled_from(["", " "])) + tokens[0]
    for token in tokens[1:]:
        line += draw(st.sampled_from([" ", "\t", "  ", "\u00a0", ""])) + token
    return line + draw(st.sampled_from(["\n", "\n", "\r\n", " \n", "\r"]))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc): only the reference parser runs")
@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_lines(), max_size=12),
    last_newline=st.booleans(),
    newline=st.sampled_from(["\n", None, "", "\r", "\r\n"]),
    block_cells=st.sampled_from([1, 16, 64, 2**17]),
)
def test_compiled_and_reference_parsers_agree(lines, last_newline, newline, block_cells):
    compiled = data._text_parser()
    assert compiled is not None, "cc is on PATH, but _sparse_text.c did not build or load"
    text = "".join(lines)
    if text and not last_newline:
        text = text[:-1]
    # the reference reads whole-budget blocks: the block size changes nothing
    assert _outcome(text, newline, compiled, block_cells) == _outcome(text, newline, None, 2**17)


class TestSerialize:
    def test_round_trip_exact_small(self):
        text = "+1 1:0.5 3:2.0\n-1\n+1 2:-1.25e-07\n"
        ds = parse_text(text)
        buf = io.StringIO()
        serialize_sparse(ds, buf)
        again = parse_text(buf.getvalue(), dim=ds.dim)
        assert np.array_equal(ds.dense(), again.dense())
        assert np.array_equal(ds.y, again.y)

    def test_round_trip_random_datasets(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = int(rng.integers(1, 8))
            dim = int(rng.integers(1, 12))
            X = rng.standard_normal((m, dim)) * 10.0 ** rng.integers(-8, 8)
            X[rng.random((m, dim)) < 0.5] = 0.0
            y = rng.choice([-1, 1], size=m)
            ds = Dataset(X=X, y=y)
            buf = io.StringIO()
            serialize_sparse(ds, buf)
            again = parse_text(buf.getvalue(), dim=dim)
            assert np.array_equal(ds.dense(), again.dense())
            assert np.array_equal(ds.y, again.y)


    @staticmethod
    def _reference_text(ds):
        """The format written one entry at a time, straight from the definition."""
        X = ds.dense()
        lines = []
        for label, row in zip(ds.y.tolist(), X):
            parts = [f"{label:+d}"]
            parts += [f"{j + 1}:{float(value)!r}" for j, value in enumerate(row) if value != 0.0]
            lines.append(" ".join(parts) + "\n")
        return "".join(lines)

    @staticmethod
    def _stored_zeros():
        tiny = 5e-324
        data = np.array([0.0, -0.0, 0.0, tiny, -tiny, 1e308, 0.0, -1e308, 0.1, -0.0, 2.5, -3.0])
        # row 0: stored zeros only (one -0.0), row 1 empty, row 2 the rest with stored zeros
        indices = np.array([0, 2, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8])
        indptr = np.array([0, 3, 3, 12])
        X = sparse.csr_matrix((data, indices, indptr), shape=(3, 9))
        return Dataset(X=X, y=np.array([1, -1, 1]))

    @staticmethod
    def _random_dense_and_csr():
        rng = np.random.default_rng(41)
        X = rng.standard_normal((30, 9)) * 10.0 ** rng.integers(-300, 300, size=(30, 9))
        X[rng.random((30, 9)) < 0.6] = 0.0
        X[3] = 0.0
        X[4, :3] = -0.0
        y = rng.choice([-1, 1], size=30)
        return [Dataset(X=features, y=y) for features in (X, sparse.csr_matrix(X))]

    def test_bytes_match_entrywise_writer(self):
        ds = self._stored_zeros()
        assert ds.X.nnz == 12  # stored zeros stay stored, so the writer must skip them
        buf = io.StringIO()
        serialize_sparse(ds, buf)
        assert buf.getvalue() == self._reference_text(ds)
        assert buf.getvalue().splitlines()[:2] == ["+1", "-1"]

    def test_bytes_match_entrywise_writer_dense_and_random(self):
        for ds in self._random_dense_and_csr():
            buf = io.StringIO()
            serialize_sparse(ds, buf)
            assert buf.getvalue() == self._reference_text(ds)

    @pytest.mark.parametrize("rows", [1, 2, 256])
    def test_bytes_equal_across_row_blocks(self, monkeypatch, rows):
        # blocks of 1 and 2 rows split every dataset, so a block can hold
        # only stored zeros, only an empty row, or -0.0 beside a value
        for ds in [self._stored_zeros(), *self._random_dense_and_csr()]:
            monkeypatch.setattr(data, "_BLOCK_CELLS", rows * ds.dim)
            buf = io.StringIO()
            serialize_sparse(ds, buf)
            assert buf.getvalue() == self._reference_text(ds)

    def test_peak_memory_within_block_budget(self):
        # the pipeline's 3000 x 2000 file at 2% density: one string per
        # nonzero of the whole file took 17 MB; a block of rows takes a
        # fraction of that
        import os
        import tracemalloc

        rng = np.random.default_rng(43)
        X = sparse.random(3000, 2000, density=0.02, format="csr", random_state=rng, data_rvs=rng.standard_normal)
        ds = Dataset(X=X, y=rng.choice([-1, 1], size=3000))
        with open(os.devnull, "w", encoding="utf-8") as sink:
            tracemalloc.start()
            try:
                serialize_sparse(ds, sink)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 2 << 20


class TestWriteCsv:
    def _text(self, header, rows):
        buf = io.StringIO()
        write_csv(buf, header, rows)
        return buf.getvalue()

    def test_field_rules(self):
        row = [None, True, False, np.bool_(True), np.float64(0.1), np.int64(3), 1e-300, 5e-324, "+1", 7, 2.0]
        assert self._text(["h"] * len(row), [row]).splitlines()[1] == (
            ",true,false,true,0.1,3,1e-300,5e-324,+1,7,2.0"
        )

    def test_floats_are_shortest_round_trip(self):
        rng = np.random.default_rng(43)
        values = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, size=200)
        lines = self._text(["v"], [[v] for v in values]).splitlines()[1:]
        assert lines == [repr(float(v)) for v in values]
        assert [float(text) for text in lines] == values.tolist()

    def test_layout(self):
        assert self._text(("a", "b"), [(1, 2.5), ("x", None)]) == "a,b\n1,2.5\nx,\n"
        assert self._text(("a", "b"), []) == "a,b\n"


class TestDatasetChecks:
    def test_holds_only_features_and_labels(self):
        assert [f.name for f in fields(Dataset)] == ["X", "y"]
        with pytest.raises(TypeError):
            parse_text("+1 1:0.5\n", name="d")
        with pytest.raises(TypeError):
            parse_text("+1 1:0.5\n").subset([0], name="d")

    @pytest.mark.parametrize("layout", ["list", "dense", "csr", "coo"])
    def test_complex_features_rejected(self, layout):
        X = [[1 + 2j, 3.0], [0.0, 1.0]]
        X = {"list": X, "dense": np.array(X), "csr": sparse.csr_matrix(X), "coo": sparse.coo_matrix(X)}[layout]
        with pytest.raises(ParameterError, match="must be real"):
            Dataset(X=X, y=[1, -1])

    @pytest.mark.parametrize(
        "X,y,error,match",
        [
            (np.ones(3), [1, -1, 1], ParameterError, "feature matrix must be 2-d"),
            (np.ones((0, 2)), [], EmptyDatasetError, "dataset has no examples"),
            (sparse.csr_matrix((0, 2)), [], EmptyDatasetError, "dataset has no examples"),
            (np.ones((3, 2)), [1, -1], ParameterError, r"feature rows \(3\) and labels \(2\) disagree"),
            (sparse.csr_matrix(np.ones((1, 2))), [1, -1], ParameterError, r"feature rows \(1\) and labels \(2\)"),
        ],
    )
    def test_bad_shapes_rejected(self, X, y, error, match):
        with pytest.raises(error, match=match):
            Dataset(X=X, y=np.asarray(y))

    def test_complex_labels_rejected(self):
        with pytest.raises(ParameterError, match="must be real"):
            Dataset(X=np.ones((2, 2)), y=np.array([1 + 0j, -1 + 0j]))

    def test_fractional_labels_rejected(self):
        with pytest.raises(ParameterError, match=r"offending values \[-1.5  1.9\]"):
            Dataset(X=np.ones((2, 2)), y=[1.9, -1.5])

    def test_whole_float_labels_accepted(self):
        ds = Dataset(X=np.ones((2, 2)), y=np.array([1.0, -1.0]))
        assert ds.y.dtype == np.int64
        assert ds.y.tolist() == [1, -1]


class TestSparseInput:
    def _coo(self):
        # unsorted columns and a duplicate (row 0, column 2) entry
        rows = np.array([0, 0, 0, 2, 2])
        cols = np.array([2, 0, 2, 3, 1])
        vals = np.array([1.0, 0.5, 2.0, -1.5, 4.0])
        return sparse.coo_matrix((vals, (rows, cols)), shape=(3, 4))

    def test_held_as_canonical_csr(self):
        coo = self._coo()
        want = coo.toarray()
        for X in (coo, coo.tocsc(), sparse.csr_array(coo)):
            ds = Dataset(X=X, y=np.array([1, -1, 1]))
            assert sparse.isspmatrix_csr(ds.X)
            assert ds.X.has_canonical_format
            assert ds.X.dtype == np.float64
            assert np.array_equal(ds.dense(), want)

    def test_subset_and_split_and_training_work(self):
        coo = self._coo()
        ds = Dataset(X=coo, y=np.array([1, -1, 1]))
        assert np.array_equal(ds.subset([2, 0]).dense(), coo.toarray()[[2, 0]])
        train, test = split(ds, 0.34, seed=0)
        assert train.n_examples + test.n_examples == 3
        model = train_linear(ds, TrainConfig(lambda_reg=0.1, epochs=3, seed=0))
        dense = train_linear(Dataset(X=coo.toarray(), y=ds.y), TrainConfig(lambda_reg=0.1, epochs=3, seed=0))
        assert np.array_equal(model.weights, dense.weights)

    def test_duplicate_csr_summed_without_touching_caller(self):
        data = np.array([1.0, 2.0, 3.0])
        indices = np.array([2, 0, 2])
        X = sparse.csr_matrix((data, indices, np.array([0, 3])), shape=(1, 3))
        before = (X.data.copy(), X.indices.copy(), X.indptr.copy())
        ds = Dataset(X=X, y=np.array([1]))
        assert ds.dense().tolist() == [[2.0, 0.0, 4.0]]
        assert ds.X.has_canonical_format
        for got, want in zip((X.data, X.indices, X.indptr), before):
            assert np.array_equal(got, want)

    def test_canonical_csr_not_copied(self):
        ds = parse_text("+1 1:0.5 3:2.0\n-1 2:1.0\n")
        again = Dataset(X=ds.X, y=ds.y)
        assert np.shares_memory(again.X.data, ds.X.data)

    def test_round_trip_after_canonicalization(self):
        # the COO entries as a raw CSR: row 0 holds columns 2, 0, 2
        raw = sparse.csr_matrix(
            (np.array([1.0, 0.5, 2.0, -1.5, 4.0]), np.array([2, 0, 2, 3, 1]), np.array([0, 3, 3, 5])),
            shape=(3, 4),
        )
        for X in (self._coo(), raw):
            ds = Dataset(X=X, y=np.array([1, -1, 1]))
            buf = io.StringIO()
            serialize_sparse(ds, buf)
            assert buf.getvalue() == "+1 1:0.5 3:3.0\n-1\n+1 2:4.0 4:-1.5\n"
            again = parse_text(buf.getvalue(), dim=ds.dim)
            assert np.array_equal(again.dense(), ds.dense())
            assert np.array_equal(again.y, ds.y)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([-1, 1]),
            st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=6),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_round_trip_property(rows):
    dim = max(len(vals) for _, vals in rows)
    X = np.zeros((len(rows), dim))
    for i, (_, vals) in enumerate(rows):
        X[i, : len(vals)] = vals
    ds = Dataset(X=X, y=np.array([lab for lab, _ in rows]))
    buf = io.StringIO()
    serialize_sparse(ds, buf)
    again = parse_sparse(io.StringIO(buf.getvalue()), dim=dim)
    assert np.array_equal(ds.dense(), again.dense())
    assert np.array_equal(ds.y, again.y)


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(dim=5, n_pos=10, n_neg=10, mean_separation=2.0, noise_std=1.0, seed=3)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert np.array_equal(a.dense(), b.dense())
        assert np.array_equal(a.y, b.y)

    def test_zero_separation_indistinguishable(self):
        spec = SyntheticSpec(dim=10, n_pos=400, n_neg=400, mean_separation=0.0, noise_std=1.0, seed=5)
        ds = generate_synthetic(spec)
        # any fixed linear classifier is near coin-flip accuracy
        rng = np.random.default_rng(0)
        w = rng.standard_normal(10)
        acc = ((ds.dense() @ w >= 0).astype(int) * 2 - 1 == ds.y).mean()
        assert 0.4 < acc < 0.6

    def test_wide_separation_linearly_separable(self):
        spec = SyntheticSpec(dim=6, n_pos=50, n_neg=50, mean_separation=50.0, noise_std=1.0, seed=7)
        ds = generate_synthetic(spec)
        X, y = ds.dense(), ds.y
        direction = X[y == 1].mean(axis=0) - X[y == -1].mean(axis=0)
        proj = X @ direction
        assert proj[y == 1].min() > proj[y == -1].max()

    def test_invalid_specs(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(dim=0, n_pos=1, n_neg=1, mean_separation=1.0, noise_std=1.0, seed=0)
        with pytest.raises(ParameterError):
            SyntheticSpec(dim=1, n_pos=0, n_neg=1, mean_separation=1.0, noise_std=1.0, seed=0)
        with pytest.raises(ParameterError):
            SyntheticSpec(dim=1, n_pos=1, n_neg=1, mean_separation=1.0, noise_std=0.0, seed=0)
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            SyntheticSpec(dim=1, n_pos=1, n_neg=1, mean_separation=1.0, noise_std=1.0, seed=-1)
        with pytest.raises(ParameterError, match="mean_separation must be >= 0, got -0.5"):
            SyntheticSpec(dim=1, n_pos=1, n_neg=1, mean_separation=-0.5, noise_std=1.0, seed=0)


class TestSplit:
    def _ds(self, m=20):
        rng = np.random.default_rng(2)
        return Dataset(X=rng.standard_normal((m, 3)), y=rng.choice([-1, 1], size=m))

    def test_deterministic(self):
        ds = self._ds()
        a_train, a_test = split(ds, 0.25, seed=9)
        b_train, b_test = split(ds, 0.25, seed=9)
        assert np.array_equal(a_train.dense(), b_train.dense())
        assert np.array_equal(a_test.dense(), b_test.dense())

    def test_partition(self):
        ds = self._ds(17)
        train, test = split(ds, 0.3, seed=1)
        assert train.n_examples + test.n_examples == 17
        rows = {tuple(r) for r in np.vstack([train.dense(), test.dense()])}
        assert rows == {tuple(r) for r in ds.dense()}
        train_rows = {tuple(r) for r in train.dense()}
        test_rows = {tuple(r) for r in test.dense()}
        assert not train_rows & test_rows

    def test_empty_side_rejected(self):
        ds = self._ds(3)
        with pytest.raises(ParameterError):
            split(ds, 0.01, seed=0)
        with pytest.raises(ParameterError):
            split(ds, 0.99, seed=0)
        with pytest.raises(ParameterError):
            split(ds, 1.5, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            split(self._ds(), 0.3, seed=-2)

    def test_class_counts_hypergeometric(self):
        # mean positive count in the test side over many seeded splits should
        # match the hypergeometric expectation within 4 sigma of the mean
        m, pos = 40, 15
        ds = Dataset(X=np.zeros((m, 1)), y=np.array([1] * pos + [-1] * (m - pos)))
        n_test = 10
        repeats = 300
        counts = []
        for seed in range(repeats):
            _, test = split(ds, n_test / m, seed=seed)
            counts.append(int((test.y == 1).sum()))
        expected = n_test * pos / m
        var = n_test * (pos / m) * (1 - pos / m) * (m - n_test) / (m - 1)
        se_mean = np.sqrt(var / repeats)
        assert abs(np.mean(counts) - expected) <= 4 * se_mean
