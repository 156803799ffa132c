import csv
import hashlib
import math

import pytest
from scipy.stats import norm

from stst.cli import main

SYNTH = "dim=12,n_pos=80,n_neg=80,sep=4,std=1,seed=5"


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """train -> calibrate once; several tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    model = root / "model.npz"
    train_file = root / "train.txt"
    test_file = root / "test.txt"
    code = run(
        [
            "train",
            "--synthetic",
            SYNTH,
            "--test-fraction",
            "0.3",
            "--split-seed",
            "11",
            "--epochs",
            "3",
            "--seed",
            "13",
            "--model-out",
            str(model),
            "--train-out",
            str(train_file),
            "--test-out",
            str(test_file),
            "-o",
            str(root / "train.csv"),
        ]
    )
    assert code == 0
    calibrated = root / "calibrated.npz"
    code = run(
        [
            "calibrate",
            "--model",
            str(model),
            "--train",
            str(train_file),
            "--cal-fraction",
            "0.5",
            "--cal-seed",
            "3",
            "--model-out",
            str(calibrated),
            "-o",
            str(root / "cal.csv"),
        ]
    )
    assert code == 0
    return root, calibrated, test_file


def test_train_csv_layout(pipeline):
    root, _, _ = pipeline
    lines = (root / "train.csv").read_text().splitlines()
    assert lines[0] == "examples,dim,lambda,epochs,seed,train_accuracy,test_accuracy,objective"
    assert len(lines) == 2


def test_calibrate_csv_layout(pipeline):
    root, _, _ = pipeline
    lines = (root / "cal.csv").read_text().splitlines()
    assert lines[0] == "class_used,n_calibration,variance_hat,protocol,mode"
    fields = lines[1].split(",")
    assert fields[0] == "+1"
    assert fields[3] == "train-slice"


def test_sweep_and_determinism(pipeline, tmp_path):
    root, calibrated, test_file = pipeline
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code = run(
            ["sweep", "--model", str(calibrated), "--data", str(test_file), "--grid", "8", "-o", str(out)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("mode,tau,budget,theta")
    assert len(lines) == 1 + 1 + 2 * 8


def test_pr_modes(pipeline, tmp_path):
    root, calibrated, test_file = pipeline
    out = tmp_path / "pr.csv"
    assert run(["pr", "--model", str(calibrated), "--data", str(test_file), "-o", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "threshold,precision,recall"
    out2 = tmp_path / "pr_att.csv"
    code = run(
        [
            "pr",
            "--model",
            str(calibrated),
            "--data",
            str(test_file),
            "--mode",
            "attentive",
            "--tau",
            "-2.0",
            "-o",
            str(out2),
        ]
    )
    assert code == 0
    # attentive needs tau
    assert run(["pr", "--model", str(calibrated), "--data", str(test_file), "--mode", "attentive"]) == 2


def test_simulate_subcommand(tmp_path):
    out = tmp_path / "sim.csv"
    code = run(
        [
            "simulate",
            "--experiment",
            "stopping-time",
            "--n",
            "200",
            "--step",
            "rademacher",
            "--scale",
            "0.1",
            "--drift",
            "0.1",
            "--delta",
            "0.1",
            "--trials",
            "500",
            "--seed",
            "4",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "experiment,n,delta,tau,theta,trials,accepted,estimate,stderr,closed_form"
    assert lines[1].startswith("stopping_time,200,0.1,")


def test_simulate_stop_error_closed_form_is_sign_conditioned_rate(tmp_path):
    # the pinned boundary measured under sign conditioning crosses at the
    # reflection-principle rate 2*Phi(-2m/sd), not at delta
    out = tmp_path / "stop.csv"
    n, delta = 2000, 0.1
    argv = ["simulate", "--experiment", "stop-error", "--n", str(n), "--scale", repr(math.sqrt(1.0 / n))]
    argv += ["--delta", str(delta), "--trials", "20000", "--seed", "21", "-o", str(out)]
    assert run(argv) == 0
    with open(out, newline="") as handle:
        (row,) = list(csv.DictReader(handle))
    m = math.sqrt(-0.5 * math.log(delta))
    assert float(row["tau"]) == m
    closed = float(row["closed_form"])
    assert closed == pytest.approx(2.0 * norm.sf(2.0 * m), rel=1e-12)
    estimate, stderr = float(row["estimate"]), float(row["stderr"])
    assert abs(estimate - closed) <= max(4.0 * stderr, 0.1 * closed)


def test_theory_golden_digest(tmp_path):
    # sha256 of the CSV the whole-batch walk loops wrote for these flags;
    # any change to the walk streams, their order, or the row arithmetic
    # changes it
    out = tmp_path / "theory.csv"
    argv = ["theory", "--n", "200", "--bridge-trials", "6000", "--stop-error-trials", "6000"]
    argv += ["--stopping-trials", "3000", "--seed", "7", "-o", str(out)]
    assert run(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "9f72bf816b7ea18c902ec969221e9b24cadffd93fc316fc63b07c5394a8f5211"


# sha256 of the CSVs the per-row Prediction path wrote for the `pipeline`
# fixture and the flags below. Captured by running
#   PYTHONPATH=src python -m pytest tests/test_cli.py -k pipeline_golden
# with PIPELINE_DIGESTS emptied, at the commit before batch predictions
# became arrays: the failing assertion prints every digest.
PIPELINE_DIGESTS = {
    "train.csv": "38f97eff873a98e95df582f08b36143fa2ff14f724492ff3362f56e7daf859ad",
    "cal.csv": "a2925372683103d038bc81a0245671f15a1b51aa9653c6ea1638c06436deb62d",
    "sweep_50.csv": "eea23beccd79518d4e4e9c337902834f892d6b1f26b6761d77eac7a8edcbf5d2",
    "sweep_exhaustive.csv": "6ab3b4a747c55c9ce798fffd9c4d6b041488639d6f19736acef543a55d5426ab",
    "pr_full.csv": "0beb5bdbfeab4d08047695a092e138eed48af5876d7dc98bc80987f9231d2da7",
    "pr_attentive.csv": "450d3bc8b68521ff0e67e2606ad4317963e49b8ea45e5519c9f2a85dd7d6d7ee",
}


def test_pipeline_golden_digests(pipeline, tmp_path):
    root, calibrated, test_file = pipeline
    common = ["--model", str(calibrated), "--data", str(test_file)]
    runs = {
        "sweep_50.csv": ["sweep", *common, "--grid", "50"],
        "sweep_exhaustive.csv": ["sweep", *common, "--grid", "exhaustive"],
        "pr_full.csv": ["pr", *common],
        "pr_attentive.csv": ["pr", *common, "--mode", "attentive", "--tau", "-2.0"],
    }
    paths = {"train.csv": root / "train.csv", "cal.csv": root / "cal.csv"}
    for name, argv in runs.items():
        paths[name] = tmp_path / name
        assert run(argv + ["-o", str(paths[name])]) == 0
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == PIPELINE_DIGESTS


def test_theory_subcommand_quick(tmp_path):
    out = tmp_path / "theory.csv"
    code = run(
        [
            "theory",
            "--n",
            "200",
            "--bridge-trials",
            "4000",
            "--stop-error-trials",
            "4000",
            "--stopping-trials",
            "500",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith(",passed")
    assert sum(1 for l in lines[1:] if l.startswith("bridge_crossing")) == 4


def test_config_file_flags_override(pipeline, tmp_path):
    root, calibrated, test_file = pipeline
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"grid=4\nmodel={calibrated}\ndata={test_file}\n")
    out1 = tmp_path / "c1.csv"
    assert run(["sweep", "--config", str(cfg), "-o", str(out1)]) == 0
    assert len(out1.read_text().splitlines()) == 2 + 2 * 4
    out2 = tmp_path / "c2.csv"
    assert run(["sweep", "--config", str(cfg), "--grid", "2", "-o", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 2 + 2 * 2


def test_errors_exit_nonzero(tmp_path, capsys):
    assert run(["sweep", "--model", str(tmp_path / "missing.npz"), "--data", "nope.txt"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    # both or neither data source
    assert run(["train", "--model-out", str(tmp_path / "m.npz")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("+1 0:1.0\n")
    model_out = tmp_path / "m.npz"
    assert run(["train", "--data", str(bad), "--model-out", str(model_out)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err
