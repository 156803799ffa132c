"""The compiled helpers of stst: every C source builds without a warning,
parse_sparse, the walks and RBF evaluation use them, they give the same
bytes as the Python paths without a compiler, their cache is private, a
failing compiler runs once, only _native types them, and importing stst
builds nothing."""

import ast
import io
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stst import _native, data, simulator

CC = shutil.which("cc")
SOURCE = Path(_native.__file__).with_name("_sparse_text.c")
C_SOURCES = sorted(SOURCE.parent.glob("*.c"))
needs_cc = pytest.mark.skipif(CC is None, reason="no C compiler (cc) on PATH: every helper takes its Python path")


def refused(*args, **kwargs):
    raise AssertionError("not expected to run")


@needs_cc
@pytest.mark.parametrize("source", C_SOURCES, ids=lambda path: path.name)
def test_compiles_without_warnings(tmp_path, source):
    argv = [CC, *_native.FLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "t.so"), str(source)]
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
    # a helper's functions get their argtypes and restype through the keywords of _native.load
    typed = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.parent.glob("*.py"))
        if path.name != "_native.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and node.attr in ("argtypes", "restype")
    ]
    assert typed == []


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
    theory = ["--n", "200", "--bridge-trials", "400", "--stop-error-trials", "400", "--stopping-trials", "100"]
    assert cli.main(["theory", *theory, "--seed", "7", "-o", str(folder / "theory.csv")]) == 0
    print(data._text_parser() is not None, predictor._kernels() is not None, simulator._kernels() is not None)
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
        assert done.stdout.split() == [str(side == "cc")] * 3
        outputs[side] = {name: (folder / name).read_bytes() for name in ("parse.bin", "predict.bin", "theory.csv")}
    assert outputs["cc"] == outputs["no-cc"]
    built = sorted(path.name.split("-")[0] for path in (caches["cc"] / "stst").iterdir())
    assert built == ["_sparse_text", "_terms", "_walk"]
    assert list(caches["no-cc"].iterdir()) == []
