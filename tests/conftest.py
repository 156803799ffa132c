import shutil
from types import SimpleNamespace

import pytest

from stst import (
    SyntheticSpec,
    TrainConfig,
    calibrate,
    data,
    generate_synthetic,
    predictor,
    simulator,
    split,
    train_linear,
)

# Pinned synthetic benchmark: dim 20, 500/500, separation 4, noise 1. The
# seeds below are frozen so every benchmark-derived number in the suite is a
# deterministic regression value.
BENCH_SPEC = SyntheticSpec(dim=20, n_pos=500, n_neg=500, mean_separation=4.0, noise_std=1.0, seed=3)
BENCH_SPLIT_SEED = 103
BENCH_CAL_SEED = 203
BENCH_TRAIN_CONFIG = TrainConfig(lambda_reg=0.01, epochs=5, seed=303)
BENCH_THETA = 0.0
BENCH_DELTA = 0.1


@pytest.fixture(scope="session", autouse=True)
def private_build_cache(tmp_path_factory):
    """The compiled helpers are built into a cache of the session's own, not
    the user's; child interpreters the tests start inherit it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


def _kernel_body(param: str, monkeypatch, module, source: str, fallback: str, accessor: str = "_kernels") -> str:
    """Switch the helper's accessor, module.<accessor>, off unless param is
    "compiled"; else check that cc built and loaded source, or skip the
    test without cc."""
    if param != "compiled":
        monkeypatch.setattr(module, accessor, lambda: None)
    elif shutil.which("cc") is None:
        pytest.skip(f"no C compiler (cc) on PATH: {fallback}")
    else:
        assert getattr(module, accessor)() is not None, f"cc is on PATH, but {source} did not build or load"
    return param


@pytest.fixture(params=["compiled", "numpy"])
def walk_kernels(request, monkeypatch):
    """Run a test on each body of the walk reductions: the compiled row
    kernels of _walk.c, and the numpy reference they fall back to without a
    C compiler."""
    return _kernel_body(request.param, monkeypatch, simulator, "_walk.c", "the walks run the numpy reference")


@pytest.fixture(params=["compiled", "cdist"])
def term_kernels(request, monkeypatch):
    """Run a test on each body of the RBF squared distances: the compiled
    panel kernel of _terms.c, and scipy's cdist it falls back to without a
    C compiler."""
    return _kernel_body(request.param, monkeypatch, predictor, "_terms.c", "RBF distances come from cdist")


@pytest.fixture(params=["compiled", "reference"])
def parse_kernels(request, monkeypatch):
    """Run a test on each body of parse_sparse's line parser: the compiled
    parser of _sparse_text.c, and the Python reference loop every line goes
    through without a C compiler."""
    fallback = "every line goes through the Python reference loop"
    return _kernel_body(request.param, monkeypatch, data, "_sparse_text.c", fallback, accessor="_text_parser")


@pytest.fixture(scope="session")
def synthetic_bench():
    """Train and calibrate the pinned benchmark once per session."""
    full = generate_synthetic(BENCH_SPEC)
    train, test = split(full, 0.3, BENCH_SPLIT_SEED)
    train_core, cal = split(train, 0.25, BENCH_CAL_SEED)
    raw_model = train_linear(train_core, BENCH_TRAIN_CONFIG)
    model, report = calibrate(raw_model, cal, class_used=1)
    return SimpleNamespace(
        train=train_core,
        cal=cal,
        test=test,
        raw_model=raw_model,
        model=model,
        report=report,
    )
