"""scripts/bench.py, the layer benchmark that writes BENCH_*.json: its rows,
checked without timing anything or starting a child interpreter."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from stst import data

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def newest_bench_row_names() -> list:
    """The row names of the last row of the highest-numbered BENCH_*.json."""
    number = lambda path: int(re.fullmatch(r"BENCH_(\d+)\.json", path.name)[1])  # noqa: E731
    newest = max(ROOT.glob("BENCH_*.json"), key=number)
    return list(json.loads(newest.read_text())["rows"][-1]["results"])


def test_rows_are_unique_and_those_of_the_newest_bench_file(script):
    # _rows() builds each row's inputs as it goes; nothing here calls a row
    names = [row.name for row in script._rows()]
    assert len(names) == len(set(names))
    assert names == newest_bench_row_names()
    assert set(script.FRESH) <= set(names)


def test_nnz_in_row_names_counts_the_generated_data(script, tmp_path):
    layer = script._layer_dataset(np.random.default_rng(script.SEED + 2))
    script._write_pipeline(str(tmp_path))
    pipeline = data.parse_sparse(str(tmp_path / "pipeline.txt"))
    assert script.LAYER_NNZ.endswith(f" nnz={layer.X.nnz}")
    assert script.PIPELINE.endswith(f" nnz={pipeline.X.nnz}")
