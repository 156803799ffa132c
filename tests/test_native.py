"""The compiled helpers of stst: every C source builds without a warning,
parse_sparse, the walks and RBF evaluation use them, they give the same
bytes as the Python paths without a compiler, their cache is private, a
failing compiler runs once, only _native types them, and importing stst
builds nothing."""

import ast
import ctypes
import io
import os
import re
import shutil
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conftest import PLAIN_TERMS_FLAG
from stst import _native, data, predictor, simulator

CC = shutil.which("cc")
SOURCE = Path(_native.__file__).with_name("_sparse_text.c")
C_SOURCES = sorted(SOURCE.parent.glob("*.c"))
# each source as it is built, and _terms.c built with only its plain body
BUILDS = [pytest.param(path, (), id=path.name) for path in C_SOURCES]
BUILDS.append(pytest.param(SOURCE.with_name("_terms.c"), (PLAIN_TERMS_FLAG,), id="_terms.c-plain"))
needs_cc = pytest.mark.skipif(CC is None, reason="no C compiler (cc) on PATH: every helper takes its Python path")


def refused(*args, **kwargs):
    raise AssertionError("not expected to run")


@needs_cc
@pytest.mark.parametrize("source, flags", BUILDS)
def test_compiles_without_warnings(tmp_path, source, flags):
    argv = [CC, *_native.FLAGS, *flags, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "t.so"), str(source)]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@needs_cc
def test_parse_sparse_uses_the_compiled_parser(monkeypatch):
    compiled = data._text_parser()
    assert compiled is not None, "cc is on PATH, but _sparse_text.c did not build or load"
    rows = []

    def counted(*args):
        rows.append(compiled(*args))
        return rows[-1]

    monkeypatch.setattr(data, "_text_parser", lambda: counted)
    monkeypatch.setattr(data, "_parse_line", refused)
    ds = data.parse_sparse(io.StringIO("+1 1:0.5 3:2.0\n-1\n 0\t2:1e-3  4:-.5E+1 \n1 +4:007"))
    assert sum(rows) == 4
    assert ds.y.tolist() == [1, -1, -1, 1]
    assert ds.dense().tolist() == [[0.5, 0, 2.0, 0], [0, 0, 0, 0], [0, 1e-3, 0, -5.0], [0, 0, 0, 7.0]]


def parse_lines(text: bytes, base: int = 0) -> tuple:
    """stst_parse_lines called on text as _parse_block calls it: its result,
    and the labels, row ends, columns and values it wrote."""
    rows_out = np.full((2, text.count(b"\n") + 1), -7, dtype=np.int64)
    cells = text.count(b":")
    cols, vals = np.full(cells, -7, dtype=np.int64), np.full(cells, -7.0)
    pointers = [a.ctypes.data for a in (rows_out[0], rows_out[1], cols, vals)]
    rows = data._text_parser()(text, len(text), base, *pointers)
    return rows, rows_out[0, : max(rows, 0)].tolist(), rows_out[1, : max(rows, 0)].tolist(), cols, vals


GOOD_LINES = ["+1 1:0.5 3:2.0\n", "-1\n", " 0\t2:1e-3  9223372036854775807:-.5E+1 \n"]
OUTSIDE_THE_SUBSET = {
    "blank": "\n",
    "cr": "+1 1:0.5\r\n",
    "nan": "-1 1:nan\n",
    "label-2": "2 1:0.5\n",
    "index-past-int64": "+1 9223372036854775808:1.0\n",
    "nbsp": "+1\u00a01:0.5\n",
    "descending": "+1 3:1.0 2:1.0\n",
}


@needs_cc
class TestParseLines:
    """stst_parse_lines reads a whole buffer, or refuses it with -1."""

    @pytest.mark.parametrize("last_newline", [True, False])
    def test_a_whole_buffer_gives_its_rows(self, last_newline):
        text = "".join(GOOD_LINES).encode()
        rows, labels, ends, cols, vals = parse_lines(text if last_newline else text[:-1], base=5)
        assert (rows, labels, ends) == (3, [1, -1, -1], [7, 7, 9])
        assert cols.tolist() == [0, 2, 1, 2**63 - 2]
        assert vals.tolist() == [0.5, 2.0, 1e-3, -5.0]

    def test_an_empty_buffer_has_no_rows(self):
        assert parse_lines(b"")[0] == 0

    @pytest.mark.parametrize("at", [0, 1, 3], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("line", OUTSIDE_THE_SUBSET.values(), ids=OUTSIDE_THE_SUBSET.keys())
    def test_one_line_outside_the_subset_refuses_the_buffer(self, line, at):
        lines = list(GOOD_LINES)
        lines.insert(at, line)
        assert parse_lines("".join(lines).encode())[0] == -1


@needs_cc
def test_a_block_with_a_line_outside_the_subset_is_read_whole_by_the_reference(monkeypatch):
    calls = []

    def counted(line, line_no, *buffers):
        calls.append(line_no)
        return reference(line, line_no, *buffers)

    reference = data._parse_line
    monkeypatch.setattr(data, "_parse_line", counted)
    lines = ["+1 1:0.5\n", "-1 2:1.5\n", "2 1:0.25\n", "0 3:1.0\n", "-1\n"]
    with pytest.warns(UserWarning, match="^line 3: label '2' mapped by sign to \\+1$"):
        ds = data.parse_sparse(io.StringIO("".join(lines)))
    assert calls == [1, 2, 3, 4, 5]
    assert ds.y.tolist() == [1, -1, 1, -1, -1]
    assert ds.dense().tolist() == [[0.5, 0, 0], [0, 1.5, 0], [0.25, 0, 0], [0, 0, 1.0], [0, 0, 0]]


@needs_cc
def test_the_walks_use_the_compiled_kernels(monkeypatch):
    assert simulator._kernels() is not None, "cc is on PATH, but _walk.c did not build or load"
    monkeypatch.setattr(simulator, "_prefix_sums", refused)
    gaussian, rademacher = simulator.WalkSpec(n=40, seed=1), simulator.WalkSpec(n=40, step="rademacher", drift=0.2)
    simulator.empirical_bridge_crossing_grid(gaussian, [1.0], trials=500, mode="exact")
    simulator.empirical_bridge_crossing_grid(gaussian, [1.0], trials=500)
    simulator.empirical_stop_error_grid(gaussian, [0.1], trials=500)
    simulator.empirical_stopping_time(rademacher, 0.1, trials=500)


@needs_cc
def test_compiled_rbf_evaluation_never_imports_scipy_spatial():
    # every path that reads RBF term values: per-term calibration, the
    # per-example and batch evaluators, and score_term
    code = """if True:
        import sys
        import numpy as np
        from stst import calibration, data, predictor
        from stst.core import Direction, StoppingRule

        rng = np.random.default_rng(5)
        sv = rng.standard_normal((40, 3))
        model = predictor.kernel_model(rng.standard_normal(40), sv, predictor.KernelSpec.rbf(1.5))
        cal = data.Dataset(X=rng.standard_normal((6, 3)), y=np.ones(6, dtype=np.int64))
        model, _ = calibration.calibrate(model, cal, 1, mode="per_term")
        rule = StoppingRule(0.0, -0.5, Direction.REJECT_BELOW)
        predictor.attentive_predict(model, rng.standard_normal(3), rule)
        predictor.predict_rows(model, rng.standard_normal((5, 3)), 0.0, rule)
        predictor.score_term(model, 7, rng.standard_normal(3))
        print(predictor._kernels() is not None, sorted(m for m in sys.modules if m.startswith("scipy.spatial")))
    """
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parents[1]))  # the session's build cache too
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["True", "[]"]


def test_importing_the_cli_builds_nothing(tmp_path):
    code = "import sys, stst.cli; print(len(sys.modules), 'stst._native' in sys.modules, 'subprocess' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parents[1]), XDG_CACHE_HOME=str(tmp_path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["255", "False", "False"]
    assert list(tmp_path.iterdir()) == []


@needs_cc
def test_build_goes_to_a_private_cache_once(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _native.load("_sparse_text") is not None
    folder = tmp_path / "stst"
    assert stat.S_IMODE(folder.stat().st_mode) == 0o700
    [built] = folder.iterdir()
    assert built.name.startswith("_sparse_text-") and built.suffix == ".so"
    monkeypatch.setattr(subprocess, "run", refused)
    assert _native.load("_sparse_text") is not None


@needs_cc
def test_a_cache_others_can_write_is_not_used(tmp_path, monkeypatch):
    folder = tmp_path / "stst"
    folder.mkdir()
    folder.chmod(0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _native.load("_sparse_text") is not None  # built in a private temporary directory
    assert list(folder.iterdir()) == []


def test_no_compiler_means_no_library(monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    monkeypatch.setattr(subprocess, "run", refused)
    assert _native.load("_sparse_text") is None


def test_no_home_means_no_cache_and_no_folder_here(tmp_path, monkeypatch):
    # with neither HOME nor a password entry, expanduser returns "~" as it is
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HOME", raising=False)
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setattr(os.path, "expanduser", lambda path: path)
    assert _native._cache_dir() is None
    _native.load("_sparse_text")  # built in a private temporary directory, or no cc
    assert list(tmp_path.iterdir()) == []


def test_a_failing_compiler_runs_once(tmp_path, monkeypatch):
    runs, bin_dir = tmp_path / "runs", tmp_path / "bin"
    bin_dir.mkdir()
    stub = bin_dir / "cc"
    stub.write_text(f"#!/bin/sh\necho run >> '{runs}'\nexit 1\n")
    stub.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert _native.load("_terms") is None
    assert runs.read_text().splitlines() == ["run"]
    assert list((tmp_path / "cache" / "stst").iterdir()) == []  # no partial file left


def test_only_native_types_the_helpers():
    # a helper's functions are typed by _native.load, from their C definitions
    typed = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.parent.glob("*.py"))
        if path.name != "_native.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and node.attr in ("argtypes", "restype")
        or isinstance(node, ast.Import) and any(alias.name == "ctypes" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "ctypes"
    ]
    assert typed == []


def c_prototypes(source: Path) -> dict:
    """Each exported stst_ function of a C source: its name and (result,
    argument kinds), each kind "double", "int64_t" or "pointer"."""
    text = re.sub(r"/\*.*?\*/", "", source.read_text(encoding="utf-8"), flags=re.S)
    kind = lambda declaration: "pointer" if "*" in declaration else declaration.split()[-2]  # noqa: E731
    return {
        name: (result, [kind(argument) for argument in arguments.split(",")])
        for result, name, arguments in re.findall(r"^(\w+)\s+(stst_\w+)\s*\(([^)]*)\)\s*\{", text, re.M)
    }


KINDS = {None: "void", ctypes.c_void_p: "pointer", ctypes.c_double: "double", ctypes.c_int64: "int64_t"}


def kinds(function) -> tuple:
    """A ctypes function's (result, argument kinds), named as c_prototypes names them."""
    assert function.argtypes is not None, "left untyped"
    return KINDS.get(function.restype, repr(function.restype)), [KINDS.get(t, repr(t)) for t in function.argtypes]


@needs_cc
def test_each_function_is_typed_from_its_c_prototype():
    libraries = {"_sparse_text": data._text_lib(), "_terms": predictor._kernels(), "_walk": simulator._kernels()}
    assert sorted(libraries) == [path.stem for path in C_SOURCES]
    for name, lib in libraries.items():
        assert Path(lib._name).name.startswith(f"{name}-")
        source = SOURCE.with_name(f"{name}.c")
        # every stst_ name the source mentions outside its comments
        text = re.sub(r"/\*.*?\*/", "", source.read_text(encoding="utf-8"), flags=re.S)
        prototypes = c_prototypes(source)
        assert sorted(prototypes) == sorted(set(re.findall(r"\b(stst_\w+)\s*\(", text))), name
        assert {function: kinds(getattr(lib, function)) for function in prototypes} == prototypes, name


def test_prototypes_of_const_pointers_split_lines_and_void():
    snippet = textwrap.dedent("""
        /* stst_commented(int32_t x) { is not a definition */
        static int helper(void) { return 0; }
        int64_t
        stst_first(const double *const x, const int64_t *rows, int64_t count, // the count
                   double scale)
        {
            return count;
        }
        void stst_second(void)
        {
        }
        double stst_third(char *out) { return 0.0; }
        int64_t stst_declared(int64_t n);
    """)
    assert _native._prototypes(snippet) == {
        "stst_first": ([ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_double], ctypes.c_int64),
        "stst_second": ([], None),
        "stst_third": ([ctypes.c_void_p], ctypes.c_double),
    }


@pytest.mark.parametrize(
    "snippet, declaration",
    [
        ("void stst_f(double *x, int32_t n) {}", "int32_t n"),
        ("int stst_f(double *x) {}", "int"),
        ("void stst_f(unsigned long n) {}", "unsigned long n"),
    ],
)
def test_an_unknown_c_type_raises(snippet, declaration):
    with pytest.raises(TypeError, match=f"^stst_f: no ctypes type for the C declaration '{declaration}'$"):
        _native._prototypes(snippet)


def test_load_raises_on_an_unknown_c_type_before_it_compiles(tmp_path, monkeypatch):
    (tmp_path / "_odd.c").write_text("#include <stdint.h>\nvoid stst_odd(int32_t n)\n{\n}\n")
    monkeypatch.setattr(_native, "__file__", str(tmp_path / "_native.py"))
    monkeypatch.setattr(shutil, "which", lambda name: "/no/cc")
    monkeypatch.setattr(subprocess, "run", refused)
    with pytest.raises(TypeError, match="^stst_odd: no ctypes type for the C declaration 'int32_t n'$"):
        _native.load("_odd")


END_TO_END = """if True:
    import sys
    from pathlib import Path
    import numpy as np
    from stst import cli, data, predictor, simulator
    from stst.core import Direction, StoppingRule

    folder = Path(sys.argv[1])
    ds = data.parse_sparse(str(folder.parent / "small.txt"))
    arrays = (ds.X.indptr, ds.X.indices, ds.X.data, ds.y)
    (folder / "parse.bin").write_bytes(b"".join(a.tobytes() for a in arrays))
    rng = np.random.default_rng(11)
    sv = rng.standard_normal((300, 5))
    model = predictor.kernel_model(rng.standard_normal(300), sv, predictor.KernelSpec.rbf(2.0))
    rule = StoppingRule(0.0, -0.5, Direction.REJECT_BELOW)
    p = predictor.predict_rows(model, rng.standard_normal((40, 5)), 0.0, rule)
    (folder / "predict.bin").write_bytes(b"".join(a.tobytes() for a in (p.label, p.score, p.terms, p.stopped)))
    deep = StoppingRule(0.0, -4.0, Direction.REJECT_BELOW)  # stops in the first chunk, the second, or never
    each = [predictor.attentive_predict(model, x, deep) for x in rng.standard_normal((40, 5))]
    fields = [(p.label, p.reported_score, p.terms_evaluated, p.stopped_early) for p in each]
    (folder / "attentive.bin").write_bytes(np.array(fields, dtype=np.float64).tobytes())
    assert 0 < sum(p.stopped_early for p in each) < 40
    theory = ["--n", "200", "--bridge-trials", "400", "--stop-error-trials", "400", "--stopping-trials", "100"]
    assert cli.main(["theory", *theory, "--seed", "7", "-o", str(folder / "theory.csv")]) == 0
    scaled = rng.standard_normal((60, 8)) * 10.0 ** rng.integers(-320, 300, size=(60, 8))
    scaled[rng.random((60, 8)) < 0.3] = 0.0
    data.serialize_sparse(ds, str(folder / "written.txt"))
    data.serialize_sparse(data.Dataset(X=scaled, y=np.where(scaled[:, 0] >= 0, 1, -1)), str(folder / "scaled.txt"))
    print(data._text_parser() is not None, data._text_writer() is not None, predictor._kernels() is not None,
          simulator._kernels() is not None)
"""


@needs_cc
def test_without_cc_every_output_is_the_same_bytes(tmp_path):
    # two fresh children: cc on PATH, and a PATH that holds no cc
    rng = np.random.default_rng(3)
    lines = [f"{1 - 2 * (i % 2):+d} 1:{rng.standard_normal()!r} 4:{rng.standard_normal():.3e}\n" for i in range(200)]
    (tmp_path / "small.txt").write_text("".join(lines))
    (tmp_path / "empty").mkdir()
    outputs, caches = {}, {}
    for side, path in (("cc", os.environ["PATH"]), ("no-cc", str(tmp_path / "empty"))):
        folder, caches[side] = tmp_path / side, tmp_path / f"{side}-cache"
        folder.mkdir()
        caches[side].mkdir()
        env = dict(os.environ, PYTHONPATH=str(SOURCE.parents[1]), PATH=path, XDG_CACHE_HOME=str(caches[side]))
        done = subprocess.run([sys.executable, "-c", END_TO_END, str(folder)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [str(side == "cc")] * 4
        names = ("parse.bin", "predict.bin", "attentive.bin", "theory.csv", "written.txt", "scaled.txt")
        outputs[side] = {name: (folder / name).read_bytes() for name in names}
    assert outputs["cc"] == outputs["no-cc"]
    built = sorted(path.name.split("-")[0] for path in (caches["cc"] / "stst").iterdir())
    assert built == ["_sparse_text", "_terms", "_walk"]
    assert list(caches["no-cc"].iterdir()) == []
