import csv
import hashlib
import io
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from stst import cli, data, predictor, simulator
from stst.cli import main

SYNTH = "dim=12,n_pos=80,n_neg=80,sep=4,std=1,seed=5"


def run(argv):
    return main(argv)


def train_argv(root):
    """stst train on SYNTH, writing its model, split files and CSV into root."""
    argv = ["train", "--synthetic", SYNTH, "--test-fraction", "0.3", "--split-seed", "11", "--epochs", "3"]
    argv += ["--seed", "13", "--model-out", str(root / "model.npz"), "--train-out", str(root / "train.txt")]
    return argv + ["--test-out", str(root / "test.txt"), "-o", str(root / "train.csv")]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """train -> calibrate once; several tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    model = root / "model.npz"
    train_file = root / "train.txt"
    test_file = root / "test.txt"
    assert run(train_argv(root)) == 0
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


def test_simulate_stopping_time_on_gaussian_steps_has_no_closed_form(tmp_path):
    # gaussian steps carry no bound k, so (magnitude + k)/drift is inf
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--experiment", "stopping-time", "--n", "200", "--drift", "0.1", "--delta", "0.1"]
    assert run([*argv, "--trials", "200", "-o", str(out)]) == 0
    row = next(csv.DictReader(out.open(newline="")))
    assert row["experiment"] == "stopping_time" and row["closed_form"] == "inf"


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


def test_theory_golden_digest(tmp_path, walk_kernels):
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


def test_pipeline_golden_digests(pipeline, tmp_path, parse_kernels):
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


# sha256 of the --train-out and --test-out files of the `pipeline` fixture's
# train run. Captured at the commit before the compiled writer, when every
# value went through repr().
SPLIT_DIGESTS = {
    "train.txt": "334eee475802595882c461a77a2d9bb1f0bd42c15c6075c8f8b8420a9efa4505",
    "test.txt": "a2a6f95c13bb81e5719f5454e633e365ea946d008187b140c436c40631708eda",
}


def test_split_files_golden_digests(tmp_path, write_kernels):
    assert run(train_argv(tmp_path)) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SPLIT_DIGESTS}
    assert digests == SPLIT_DIGESTS


def test_pr_builds_no_prefix_matrix(pipeline, tmp_path, monkeypatch):
    # pr decides under one rule through predict_rows; only the sweep reads a
    # prefix matrix. Same digests as the prefix path it replaced.
    _, calibrated, test_file = pipeline

    def refused(*args, **kwargs):
        raise AssertionError("pr built a prefix matrix")

    for owner, attr in ((predictor, "prefix_score_matrix"), (cli, "prefix_score_matrix")):
        monkeypatch.setattr(owner, attr, refused)
    common = ["pr", "--model", str(calibrated), "--data", str(test_file)]
    runs = {"pr_full.csv": common, "pr_attentive.csv": [*common, "--mode", "attentive", "--tau", "-2.0"]}
    for name, argv in runs.items():
        out = tmp_path / name
        assert run(argv + ["-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PIPELINE_DIGESTS[name]


@pytest.mark.parametrize("sigma", [1e-200, 1e200])
def test_pr_refuses_a_sigma_without_a_finite_nonzero_width(tmp_path, capsys, sigma):
    # before the check, 1e-200 labelled every row from a NaN score and
    # 1e200 ended in a bare OverflowError
    model = tmp_path / "m.npz"
    predictor.save_model(predictor.kernel_model([1.0, 1.0], [[0.0], [1.0]], predictor.KernelSpec.rbf(1.0)), model)
    fields = dict(np.load(model))
    fields["sigma"] = np.float64(sigma)
    np.savez(model, **fields)
    test_file, out = tmp_path / "test.txt", tmp_path / "out.csv"
    test_file.write_text("+1\n-1 1:0.5\n")
    assert run(["pr", "--model", str(model), "--data", str(test_file), "--theta", "-0.5", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2 * sigma**2 finite and nonzero" in err
    assert not out.exists()


@pytest.fixture
def model_dim_3(tmp_path):
    """A 3-feature model, a test file whose rows never touch feature 3, and
    one with an index beyond the model."""
    model = tmp_path / "m.npz"
    predictor.save_model(predictor.coordinate_model([1.0, -0.5, 0.25], mu=[0.1, 0.0, 0.0], dim=3), model)
    narrow = tmp_path / "narrow.txt"
    narrow.write_text("+1 1:1.0 2:0.5\n-1 1:-1.0\n+1 2:2.0\n-1 1:-2.0 2:0.1\n+1 1:0.5\n")
    wide = tmp_path / "wide.txt"
    wide.write_text("+1 1:1.0 5:0.5\n-1 1:-1.0\n+1 2:2.0\n")
    return model, narrow, wide


@pytest.mark.parametrize(
    "command,flags",
    [
        ("calibrate", ["--paper-faithful", "--test"]),
        ("sweep", ["--grid", "4", "--data"]),
        ("pr", ["--data"]),
    ],
)
def test_data_is_read_at_the_model_dimension(model_dim_3, tmp_path, capsys, command, flags):
    model, narrow, wide = model_dim_3
    out = tmp_path / "out.csv"
    assert run([command, "--model", str(model), "-o", str(out), *flags, str(narrow)]) == 0
    assert out.exists()
    out.unlink()
    capsys.readouterr()
    assert run([command, "--model", str(model), "-o", str(out), *flags, str(wide)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "declared dim 3 smaller than largest index 5" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flags",
    [
        ("train", ["--model-out", "{out}.npz", "--data"]),
        ("calibrate", ["--model", "{model}", "--model-out", "{out}.npz", "--paper-faithful", "--test"]),
        ("sweep", ["--model", "{model}", "--grid", "4", "--data"]),
        ("pr", ["--model", "{model}", "--data"]),
    ],
)
def test_data_that_is_not_utf8_is_a_clean_error(model_dim_3, tmp_path, capsys, parse_kernels, command, flags):
    model, _, _ = model_dim_3
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"+1 1:1.0 2:0.5\n-1 1:\xff1.0\n+1 2:2.0\n")
    out = tmp_path / "out"
    argv = [command, "-o", f"{out}.csv", *(f.format(model=model, out=out) for f in flags), str(bad)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: input is not UTF-8 text: invalid start byte\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "m.npz", "narrow.txt", "wide.txt"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["score", "per-term"])
def test_calibrate_refuses_a_non_finite_variance(tmp_path, capsys, mode):
    model = tmp_path / "m.npz"
    predictor.save_model(predictor.coordinate_model([1e200, 1.0], dim=2), model)
    cal = tmp_path / "cal.txt"
    cal.write_text("+1 1:0.5 2:1.0\n+1 1:-1.0 2:2.0\n+1 1:2.0\n-1 2:1.0\n")
    out, model_out = tmp_path / "cal.csv", tmp_path / "out.npz"
    argv = ["calibrate", "--model", str(model), "--paper-faithful", "--test", str(cal), "--mode", mode]
    assert run([*argv, "--model-out", str(model_out), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: calibration scores of class +1 have variance inf; stopping rule undefined\n"
    assert not out.exists() and not model_out.exists()


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


def test_train_test_out_needs_test_fraction(tmp_path, capsys):
    out, held_out = tmp_path / "train.csv", tmp_path / "test.txt"
    argv = ["train", "--synthetic", SYNTH, "--model-out", str(tmp_path / "m.npz")]
    assert run(argv + ["--test-out", str(held_out), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--test-fraction" in err
    assert not out.exists() and not held_out.exists() and not (tmp_path / "m.npz").exists()


@pytest.mark.parametrize("flag", ["--model-out", "--test-out", "--train-out", "-o"])
def test_train_checks_every_output_before_training(tmp_path, capsys, monkeypatch, flag):
    # one output in a missing directory: nothing is trained, nothing written
    def refused(*args, **kwargs):
        raise AssertionError("a model was trained before the outputs were checked")

    monkeypatch.setattr(cli.trainer, "train_linear", refused)
    outputs = {"--model-out": "m.npz", "--test-out": "test.txt", "--train-out": "train.txt", "-o": "train.csv"}
    argv = ["train", "--synthetic", SYNTH, "--test-fraction", "0.3"]
    for name, file in outputs.items():
        argv += [name, str(tmp_path / ("missing" if name == flag else "") / file)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no directory" in err and "missing" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command,first,second",
    [
        ("train", "--test-out", "--train-out"),
        ("train", "--model-out", "-o"),
        ("train", "--test-out", "-o"),
        ("calibrate", "--model-out", "-o"),
    ],
)
def test_two_outputs_naming_one_file_are_refused(pipeline, tmp_path, capsys, monkeypatch, command, first, second):
    # one file named twice, relative and absolute: nothing is read, nothing written
    root, calibrated, _ = pipeline

    def refused(*args, **kwargs):
        raise AssertionError("an input was read before the outputs were checked")

    for owner, name in ((data, "parse_sparse"), (data, "generate_synthetic"), (cli, "load_model")):
        monkeypatch.setattr(owner, name, refused)
    monkeypatch.chdir(tmp_path)
    if command == "train":
        argv = ["train", "--synthetic", SYNTH, "--test-fraction", "0.3"]
        outputs = {"--model-out": "m.npz", "--test-out": "test.txt", "--train-out": "train.txt", "-o": "t.csv"}
    else:
        argv = ["calibrate", "--model", str(calibrated), "--train", str(root / "train.txt")]
        outputs = {"--model-out": "m.npz", "-o": "cal.csv"}
    outputs[first], outputs[second] = "same", str(tmp_path / "same")
    for flag, file in outputs.items():
        argv += [flag, file]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "both name" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command,output,source",
    [
        ("pr", "-o", "--model"),
        ("pr", "-o", "--data"),
        ("sweep", "-o", "--data"),
        ("calibrate", "--model-out", "--model"),
        ("calibrate", "-o", "--train"),
        ("calibrate", "-o", "--config"),
        ("train", "--train-out", "--data"),
        ("train", "--model-out", "--config"),
    ],
)
def test_output_naming_an_input_is_refused(pipeline, tmp_path, capsys, monkeypatch, command, output, source):
    # the input named relative, the output absolute: nothing is read, and
    # no file is written or changed
    root, calibrated, test_file = pipeline

    def refused(*args, **kwargs):
        raise AssertionError("an input was read before the outputs were checked")

    for owner, name in ((data, "parse_sparse"), (data, "generate_synthetic"), (cli, "load_model")):
        monkeypatch.setattr(owner, name, refused)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.npz").write_bytes(calibrated.read_bytes())
    (tmp_path / "train.txt").write_bytes((root / "train.txt").read_bytes())
    (tmp_path / "test.txt").write_bytes(test_file.read_bytes())
    (tmp_path / "stst.cfg").write_text("# no flags\n")
    inputs = {
        "train": {"--data": "train.txt", "--config": "stst.cfg"},
        "calibrate": {"--model": "model.npz", "--train": "train.txt", "--config": "stst.cfg"},
        "sweep": {"--model": "model.npz", "--data": "test.txt"},
        "pr": {"--model": "model.npz", "--data": "test.txt"},
    }[command]
    outputs = {"--model-out": "m.npz"} if command == "train" else {}
    outputs[output] = str(tmp_path / inputs[source])
    argv = [command]
    for flag, file in (*inputs.items(), *outputs.items()):
        argv += [flag, file]
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cannot overwrite an input" in err
    assert ("--output" if output == "-o" else output) in err and source in err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("text,row", [("-1", "-1,"), ("neg", "-1,"), ("pos", "+1,"), ("0", None)])
def test_calibrate_class_flag(pipeline, tmp_path, capsys, text, row):
    root, calibrated, _ = pipeline
    out = tmp_path / "cal.csv"
    argv = ["calibrate", "--model", str(calibrated), "--train", str(root / "train.txt"), "--class", text]
    code = run([*argv, "-o", str(out)])
    if row is None:
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "class must be +1 or -1, got '0'" in err
        assert not out.exists()
    else:
        assert code == 0
        assert out.read_text().splitlines()[1].startswith(row)


@pytest.mark.parametrize(
    "spec,message",
    [
        ("dim=12,n_pos,n_neg=80,sep=4,std=1", "bad synthetic spec fragment 'n_pos'"),
        ("dim=12,n_pos=80,n_neg=80,sep=4", "synthetic spec missing field 'std'"),
        ("dim=5,n_pos=20,n_neg=20,sep=4,std=1,sed=7", "unknown synthetic spec field 'sed'"),
        ("dim=5,n_pos=20,n_neg=20,sep=4,std=1,seed=7,seed=8", "synthetic spec repeats field 'seed'"),
    ],
)
def test_bad_synthetic_spec_is_a_clean_error(tmp_path, capsys, spec, message):
    out, model_out = tmp_path / "train.csv", tmp_path / "m.npz"
    assert run(["train", "--synthetic", spec, "--model-out", str(model_out), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert list(tmp_path.iterdir()) == []


def test_an_output_that_is_a_directory_is_refused_before_reading(pipeline, tmp_path, capsys, monkeypatch):
    _, calibrated, test_file = pipeline
    refuse_to_parse(monkeypatch)
    assert run(["sweep", "--model", str(calibrated), "--data", str(test_file), "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--output" in err and "is a directory" in err
    assert list(tmp_path.iterdir()) == []


def test_calibrate_paper_faithful_rejects_cal_fraction(pipeline, tmp_path, capsys):
    _, calibrated, test_file = pipeline
    out, model_out = tmp_path / "cal.csv", tmp_path / "m.npz"
    argv = ["calibrate", "--model", str(calibrated), "--test", str(test_file), "--paper-faithful"]
    assert run(argv + ["--cal-fraction", "0.5", "--model-out", str(model_out), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--cal-fraction" in err
    assert not out.exists() and not model_out.exists()


def test_pr_tau_needs_attentive_mode(pipeline, tmp_path, capsys):
    _, calibrated, test_file = pipeline
    out = tmp_path / "pr.csv"
    argv = ["pr", "--model", str(calibrated), "--data", str(test_file), "--tau", "-2.0", "-o", str(out)]
    for mode in ([], ["--mode", "full"]):
        assert run(argv + mode) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--mode attentive" in err
        assert not out.exists()


def test_pr_non_finite_theta_is_a_clean_error(pipeline, tmp_path, capsys):
    _, calibrated, test_file = pipeline
    out = tmp_path / "pr.csv"
    argv = ["pr", "--model", str(calibrated), "--data", str(test_file), "-o", str(out)]
    for theta in ("nan", "inf", "-inf"):
        assert run(argv + [f"--theta={theta}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "theta must be finite" in err
        assert not out.exists()


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_simulate_bridge_non_finite_theta_is_a_clean_error(tmp_path, capsys, theta):
    out = tmp_path / "bridge.csv"
    assert run([*SIMULATE_ARGV, f"--theta={theta}", "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: theta must be finite, got {theta}\n"
    assert not out.exists()


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
def test_simulate_bridge_non_finite_tau_is_a_clean_error(tmp_path, capsys, monkeypatch, tau):
    # --tau=inf ran the walk and wrote an estimate of 0.0
    def no_walk(*args, **kwargs):
        raise AssertionError("the walk ran before tau was checked")

    monkeypatch.setattr(simulator, "empirical_bridge_crossing_grid", no_walk)
    out = tmp_path / "bridge.csv"
    argv = ["simulate", "--experiment", "bridge", "--n", "50", f"--tau={tau}", "--trials", "200", "-o", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: tau must be finite, got {tau}\n"
    assert not out.exists()


def test_simulate_bridge_infinite_band_is_a_clean_error(tmp_path, capsys):
    # --band=inf accepted every walk and wrote its unpinned rate against the
    # pinned closed form
    out = tmp_path / "bridge.csv"
    assert run([*SIMULATE_ARGV, "--band=inf", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: band must be positive and finite, got inf\n"
    assert not out.exists()


def refuse_to_parse(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a data file was read before the flags were checked")

    monkeypatch.setattr(data, "parse_sparse", refused)


def test_calibrate_paper_faithful_rejects_train(pipeline, tmp_path, capsys, monkeypatch):
    root, calibrated, test_file = pipeline
    refuse_to_parse(monkeypatch)
    out = tmp_path / "cal.csv"
    argv = ["calibrate", "--model", str(calibrated), "--test", str(test_file), "--paper-faithful"]
    assert run(argv + ["--train", str(root / "train.txt"), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--train is not read" in err
    assert not out.exists()


def test_calibrate_test_needs_paper_faithful(pipeline, tmp_path, capsys, monkeypatch):
    root, calibrated, test_file = pipeline
    refuse_to_parse(monkeypatch)
    out = tmp_path / "cal.csv"
    argv = ["calibrate", "--model", str(calibrated), "--train", str(root / "train.txt")]
    assert run(argv + ["--test", str(test_file), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--test is read only with --paper-faithful" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,message",
    [([], "needs --tau"), (["--tau", "0.5"], "requires tau < theta"), (["--tau", "0.0"], "requires tau < theta")],
)
def test_pr_rule_errors_come_before_reading(pipeline, tmp_path, capsys, monkeypatch, flags, message):
    _, calibrated, test_file = pipeline
    refuse_to_parse(monkeypatch)
    out = tmp_path / "pr.csv"
    argv = ["pr", "--model", str(calibrated), "--data", str(test_file), "--mode", "attentive", "-o", str(out)]
    assert run(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def refuse_to_read(monkeypatch):
    """Make every reader of a model or a data file, and the synthetic generator, fail the test."""
    def refused(*args, **kwargs):
        raise AssertionError("an input was read before the flags were checked")

    refuse_to_parse(monkeypatch)
    monkeypatch.setattr(cli, "load_model", refused)
    monkeypatch.setattr(data, "generate_synthetic", refused)


def test_pr_full_mode_theta_checked_before_reading(pipeline, tmp_path, capsys, monkeypatch):
    _, calibrated, test_file = pipeline
    refuse_to_read(monkeypatch)
    out = tmp_path / "pr.csv"
    argv = ["pr", "--model", str(calibrated), "--data", str(test_file), "--mode", "full", "-o", str(out)]
    for theta in ("nan", "inf", "-inf"):
        assert run(argv + [f"--theta={theta}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"theta must be finite, got {theta}" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "flags,message",
    [(["--theta=nan"], "theta must be finite, got nan"), (["--theta=-inf"], "theta must be finite, got -inf"),
     (["--grid", "0"], "grid must be >= 1, got 0"), (["--grid", "-3"], "grid must be >= 1, got -3")],
)
def test_sweep_flags_checked_before_reading(pipeline, tmp_path, capsys, monkeypatch, flags, message):
    _, calibrated, test_file = pipeline
    refuse_to_read(monkeypatch)
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--model", str(calibrated), "--data", str(test_file), *flags, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["data", "synthetic"])
@pytest.mark.parametrize(
    "flags,message",
    [(["--epochs", "0"], "epochs must be >= 1, got 0"), (["--seed", "-1"], "seed must be >= 0, got -1"),
     (["--lambda", "0"], "lambda_reg must be positive and finite")],
)
def test_train_config_checked_before_reading(tmp_path, capsys, monkeypatch, source, flags, message):
    refuse_to_read(monkeypatch)
    given = ["--data", str(tmp_path / "train.txt")] if source == "data" else ["--synthetic", SYNTH]
    outputs = ["--model-out", str(tmp_path / "m.npz"), "--test-out", str(tmp_path / "test.txt"), "-o",
               str(tmp_path / "train.csv")]
    assert run(["train", *given, "--test-fraction", "0.3", *flags, *outputs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags,message",
    [(["--test-fraction", "1.5"], "--test-fraction must be in (0, 1), got 1.5"),
     (["--test-fraction", "0"], "--test-fraction must be in (0, 1), got 0.0"),
     (["--test-fraction", "nan"], "--test-fraction must be in (0, 1), got nan"),
     (["--test-fraction", "0.5", "--split-seed", "-1"], "--split-seed must be >= 0, got -1")],
)
def test_train_split_flags_checked_before_reading(tmp_path, capsys, monkeypatch, flags, message):
    refuse_to_parse(monkeypatch)
    outputs = ["--model-out", str(tmp_path / "m.npz"), "-o", str(tmp_path / "train.csv")]
    assert run(["train", "--data", str(tmp_path / "train.txt"), *flags, *outputs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags,message",
    [(["--cal-fraction", "1.5"], "--cal-fraction must be in (0, 1), got 1.5"),
     (["--cal-fraction", "-0.25"], "--cal-fraction must be in (0, 1), got -0.25"),
     (["--cal-fraction", "0.5", "--cal-seed", "-1"], "--cal-seed must be >= 0, got -1")],
)
def test_calibrate_split_flags_checked_before_reading(pipeline, tmp_path, capsys, monkeypatch, flags, message):
    root, _, _ = pipeline
    refuse_to_read(monkeypatch)
    out = tmp_path / "cal.csv"
    argv = ["calibrate", "--model", str(root / "model.npz"), "--train", str(root / "train.txt"), *flags]
    assert run([*argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key,corrupt,message",
    [
        ("theta", lambda theta: np.array([theta, theta]), "'theta' must be a scalar"),
        ("weights", lambda w: np.concatenate([[np.nan], w[1:]]), "weights must be finite"),
        ("weights", lambda w: w + 1j, "weights must be real"),
    ],
)
def test_pr_malformed_model_is_a_clean_error(pipeline, tmp_path, capsys, key, corrupt, message):
    _, calibrated, test_file = pipeline
    fields = dict(np.load(calibrated))
    fields[key] = corrupt(fields[key])
    bad = tmp_path / "bad.npz"
    np.savez(bad, **fields)
    out = tmp_path / "pr.csv"
    assert run(["pr", "--model", str(bad), "--data", str(test_file), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_sweep_has_no_condition_flag(pipeline, capsys):
    _, calibrated, test_file = pipeline
    with pytest.raises(SystemExit):
        run(["sweep", "--model", str(calibrated), "--data", str(test_file), "--condition", "-1"])
    assert "--condition" in capsys.readouterr().err


def test_batch_commands_densify_no_whole_dataset(pipeline, tmp_path, monkeypatch):
    # sweep and pr evaluate the parsed CSR rows a block at a time; train
    # steps on CSR rows and takes the hinge objective's margins as X @ w
    root, calibrated, test_file = pipeline

    def refused(self):
        raise AssertionError("Dataset.dense called")

    monkeypatch.setattr(data.Dataset, "dense", refused)
    common = ["--model", str(calibrated), "--data", str(test_file), "-o", str(tmp_path / "out.csv")]
    assert run(["sweep", *common, "--grid", "8"]) == 0
    assert run(["pr", *common]) == 0
    assert run(["pr", *common, "--mode", "attentive", "--tau", "-2.0"]) == 0
    argv = ["train", "--data", str(root / "train.txt"), "--test-fraction", "0.3"]
    assert run(argv + ["--model-out", str(tmp_path / "m.npz"), "-o", str(tmp_path / "train.csv")]) == 0


def test_train_huge_declared_dimension_is_a_clean_error(tmp_path, capsys):
    # the largest index declares the dimension; 10**12 weights cannot be
    # allocated, which must be an error line and exit 2, not a traceback
    huge = tmp_path / "huge.txt"
    huge.write_text("+1 1:1.0 1000000000000:2.0\n-1 2:1.0\n")
    model_out = tmp_path / "m.npz"
    assert run(["train", "--data", str(huge), "--model-out", str(model_out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dimension 1000000000000" in err
    assert not model_out.exists()


def test_import_leaves_scipy_spatial_unloaded():
    # only RBF models need cdist, so importing the CLI must not pay for it
    code = "import sys, stst.cli; print(any(m.startswith('scipy.spatial') for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"


SCIPY_FREE_SCRIPT = """
import sys
from dataclasses import replace

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import stst
assert not scipy_loaded(), ("import stst", scipy_loaded())
import stst.cli
assert not scipy_loaded(), ("import stst.cli", scipy_loaded())
from stst.cli import main
out = sys.argv[1]
theory = ["--n", "200", "--bridge-trials", "400", "--stop-error-trials", "400", "--stopping-trials", "100"]
assert main(["theory", *theory, "-o", out + "/theory.csv"]) == 0
assert not scipy_loaded(), ("stst theory", scipy_loaded())
simulate = ["--n", "200", "--scale", "0.1", "--drift", "0.1", "--delta", "0.1", "--trials", "200"]
assert main(["simulate", "--experiment", "stopping-time", *simulate, "-o", out + "/sim.csv"]) == 0
assert not scipy_loaded(), ("stst simulate", scipy_loaded())
with open(out + "/data.txt", "w") as handle:
    handle.write("+1 1:2.0 3:1.0\\n-1 2:1.5\\n+1 1:1.0\\n-1 2:0.5 3:-1.0\\n")
assert main(["train", "--data", out + "/data.txt", "--model-out", out + "/m.npz", "-o", out + "/train.csv"]) == 0
assert "scipy.sparse" in sys.modules
"""


def test_cli_without_sparse_data_leaves_scipy_unloaded(tmp_path):
    # theory and simulate use no scipy, so importing stst must not pay for it;
    # a data command still loads it on its first parse
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_SCRIPT, str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "train.csv").read_text().startswith("examples,")


# sha256 of the CSVs `stst simulate` wrote for these flags before the bridge
# closed form was routed through core.crossing_probability
SIMULATE_DIGESTS = {
    "bridge_exact": "7f8ed048fcd4bf5ed649bc8610c145c85fa21afe53a4fea5d73c09a89e17d4b4",
    "bridge_rejection": "c9b6783acdf9fa72e5e129e032cfa76f07537e69c11b226235d4bad8a1afad45",
    "stop_error": "ccad029ef7309f2ba57a89ea9ceb5b84081620089856f866d8d38543d83a5562",
    "stopping_time": "4692ab820a46251aca47eb1e0e0bd6683099f00cd3a7005e18f1c050e0f465de",
}


def test_simulate_golden_digests(tmp_path, walk_kernels):
    bridge = ["--experiment", "bridge", "--n", "200", "--scale", "0.0707", "--trials", "20000"]
    runs = {
        "bridge_exact": [*bridge, "--tau", "0.8", "--theta", "-0.3", "--mode", "exact", "--seed", "3"],
        "bridge_rejection": [*bridge, "--tau", "0.5", "--theta", "0.1", "--mode", "rejection", "--seed", "5"],
        "stop_error": ["--experiment", "stop-error", "--n", "300", "--scale", "0.05", "--delta", "0.1"]
        + ["--trials", "20000", "--seed", "6"],
        "stopping_time": ["--experiment", "stopping-time", "--n", "500", "--step", "rademacher", "--scale", "0.1"]
        + ["--drift", "0.1", "--delta", "0.1", "--trials", "5000", "--seed", "7"],
    }
    digests = {}
    for name, argv in runs.items():
        out = tmp_path / f"{name}.csv"
        assert run(["simulate", *argv, "-o", str(out)]) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == SIMULATE_DIGESTS


def test_simulate_bridge_rejects_boundary_at_or_below_start(tmp_path, capsys, monkeypatch):
    # exp(-2*tau*(tau - theta)/var) exceeds 1 for theta < tau < 0; the
    # closed form is checked before any trial runs
    def no_walk(*args, **kwargs):
        raise AssertionError("the walk ran before the boundary was checked")

    monkeypatch.setattr(simulator, "empirical_bridge_crossing_grid", no_walk)
    out = tmp_path / "bridge.csv"
    argv = ["simulate", "--experiment", "bridge", "--n", "200", "--scale", "0.0707"]
    argv += ["--theta", "-2", "--tau", "-1", "--mode", "exact", "-o", str(out)]
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment,flag", [("bridge", "--tau"), ("stop-error", "--delta"), ("stopping-time", "--delta")]
)
def test_simulate_missing_boundary_flag_is_an_error(tmp_path, capsys, experiment, flag):
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--experiment", experiment, "--n", "50", "--trials", "100", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"needs {flag}" in err
    assert not out.exists()


SIMULATE_ARGV = ["simulate", "--experiment", "bridge", "--n", "50", "--tau", "1", "--trials", "200"]


def exit_code(argv) -> int:
    """main's exit status, whether it returns it or argparse exits with it."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "spelling",
    [lambda cfg: [f"--config={cfg}"], lambda cfg: ["--conf", str(cfg)]],
    ids=["equals", "abbreviated"],
)
def test_config_spelling_is_applied(tmp_path, capsys, spelling):
    # argparse stores every spelling of --config; each must read the file
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("seed=9\nmode=exact\n")
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    assert run([*SIMULATE_ARGV, "--seed", "9", "--mode", "exact", "-o", str(want)]) == 0
    assert run([*SIMULATE_ARGV, *spelling(cfg), "-o", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()
    cfg.write_text("n=bogus\n")
    assert exit_code([*SIMULATE_ARGV[:3], *spelling(cfg), "-o", str(got)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "'bogus'" in err


def test_config_given_twice_is_an_error(tmp_path, capsys):
    first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
    first.write_text("seed=1\n")
    second.write_text("n=bogus\n")
    out = tmp_path / "sim.csv"
    assert exit_code([*SIMULATE_ARGV, "--config", str(first), "--config", str(second), "-o", str(out)]) == 2
    assert "error: --config may be given once" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_cannot_name_config(tmp_path, capsys):
    nested = tmp_path / "nested.cfg"
    nested.write_text("n=bogus\n")
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"config={nested}\n")
    out = tmp_path / "sim.csv"
    assert exit_code([*SIMULATE_ARGV, "--config", str(cfg), "-o", str(out)]) == 2
    assert "error: a config file cannot name --config" in capsys.readouterr().err
    assert not out.exists()


THEORY_QUICK = ["--n", "200", "--bridge-trials", "3000", "--stop-error-trials", "3000", "--stopping-trials", "300"]


@pytest.mark.parametrize("seed", [None, 5])
def test_theory_seed_is_the_suite_base_seed(tmp_path, seed):
    # --seed goes to TheoryConfig.seed unchanged; run_theory_suite alone
    # lays the experiments' streams out from it
    from stst.bench import TheoryConfig, run_theory_suite, theory_csv

    out = tmp_path / "theory.csv"
    flags = [] if seed is None else ["--seed", str(seed)]
    assert run(["theory", *THEORY_QUICK, *flags, "-o", str(out)]) == 0
    config = TheoryConfig(n=200, bridge_trials=3000, stop_error_trials=3000, stopping_trials=300)
    buf = io.StringIO()
    theory_csv(run_theory_suite(config if seed is None else replace(config, seed=seed)), buf)
    assert out.read_text() == buf.getvalue()


@pytest.mark.parametrize(
    "command",
    [
        ["theory", *THEORY_QUICK, "--seed", "-1"],
        [*SIMULATE_ARGV, "--seed", "-1"],
        ["train", "--synthetic", SYNTH, "--seed", "-2"],
        ["train", "--synthetic", SYNTH, "--test-fraction", "0.3", "--split-seed", "-2"],
        ["train", "--synthetic", SYNTH.replace("seed=5", "seed=-1")],
    ],
    ids=["theory", "simulate", "train-seed", "train-split-seed", "train-synthetic-seed"],
)
def test_negative_seed_is_a_clean_error(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    if command[0] == "train":
        command = [*command, "--model-out", str(tmp_path / "m.npz")]
    assert run([*command, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be >= 0" in err
    assert not out.exists()


def test_calibrate_negative_cal_seed_is_a_clean_error(pipeline, tmp_path, capsys):
    root, calibrated, _ = pipeline
    out = tmp_path / "cal.csv"
    argv = ["calibrate", "--model", str(calibrated), "--train", str(root / "train.txt")]
    assert run([*argv, "--cal-fraction", "0.5", "--cal-seed", "-1", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,unread",
    [
        (["--experiment", "stopping-time", "--step", "rademacher", "--scale", "0.1", "--drift", "0.1"]
         + ["--delta", "0.1", "--theta", "5"], "--theta"),
        (["--experiment", "stopping-time", "--drift", "0.1", "--delta", "0.1", "--mode", "rejection"], "--mode"),
        (["--experiment", "stop-error", "--delta", "0.1", "--tau", "1"], "--tau"),
        (["--experiment", "stop-error", "--delta", "0.1", "--band", "0.5"], "--band"),
        (["--experiment", "stop-error", "--delta", "0.1", "--mode", "exact"], "--mode"),
        (["--experiment", "bridge", "--tau", "1", "--delta", "0.1"], "--delta"),
        (["--experiment", "bridge", "--tau", "1", "--mode", "exact", "--band", "0.5"], "band"),
    ],
    ids=["stopping-theta", "stopping-mode", "stop-error-tau", "stop-error-band", "stop-error-mode",
         "bridge-delta", "exact-band"],
)
def test_simulate_refuses_flags_it_does_not_read(tmp_path, capsys, flags, unread):
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--n", "50", "--trials", "200", *flags, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and unread in err
    assert not out.exists()


def test_train_split_seed_needs_test_fraction(tmp_path, capsys):
    out, model_out = tmp_path / "train.csv", tmp_path / "m.npz"
    argv = ["train", "--synthetic", SYNTH, "--split-seed", "3", "--model-out", str(model_out), "-o", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--split-seed needs --test-fraction" in err
    assert not out.exists() and not model_out.exists()


def test_calibrate_cal_seed_needs_cal_fraction(pipeline, tmp_path, capsys, monkeypatch):
    root, calibrated, _ = pipeline
    refuse_to_parse(monkeypatch)
    out = tmp_path / "cal.csv"
    argv = ["calibrate", "--model", str(calibrated), "--train", str(root / "train.txt")]
    assert run([*argv, "--cal-seed", "3", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--cal-seed needs --cal-fraction" in err
    assert not out.exists()


def test_model_path_without_npz_suffix(pipeline, tmp_path):
    # train -> calibrate -> pr through containers named model.bin: each
    # command reads exactly the path the one before it wrote
    root, _, test_file = pipeline
    model, calibrated, pr_out = tmp_path / "model.bin", tmp_path / "calibrated.bin", tmp_path / "pr.csv"
    train = ["train", "--synthetic", SYNTH, "--test-fraction", "0.3", "--split-seed", "11"]
    assert run([*train, "--epochs", "3", "--seed", "13", "--model-out", str(model), "-o", str(tmp_path / "t.csv")]) == 0
    calibrate = ["calibrate", "--model", str(model), "--train", str(root / "train.txt")]
    assert run([*calibrate, "--cal-fraction", "0.5", "--cal-seed", "3", "--model-out", str(calibrated),
                "-o", str(tmp_path / "c.csv")]) == 0
    assert run(["pr", "--model", str(calibrated), "--data", str(test_file), "-o", str(pr_out)]) == 0
    assert not list(tmp_path.glob("*.npz"))
    # the same flags as the pipeline fixture, so the same container bytes
    assert model.read_bytes() == (root / "model.npz").read_bytes()
    assert calibrated.read_bytes() == (root / "calibrated.npz").read_bytes()
    assert hashlib.sha256(pr_out.read_bytes()).hexdigest() == PIPELINE_DIGESTS["pr_full.csv"]


def test_config_comments_blank_lines_and_flag_values(tmp_path):
    # "# ..." and blank lines are skipped; key=true gives a store_true flag,
    # key=false leaves it off
    outputs = {}
    for name, lines, flags in [
        ("flag", [], ["--no-bias"]),
        ("true", ["# train without a bias", "", "no_bias=true"], []),
        ("none", [], []),
        ("false", ["no-bias=False", "   ", "  # indented comment"], []),
    ]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        model, out = tmp_path / f"{name}.npz", tmp_path / f"{name}.csv"
        argv = ["train", "--synthetic", SYNTH, "--epochs", "2", "--model-out", str(model), "-o", str(out)]
        assert run([*argv, "--config", str(cfg), *flags]) == 0
        outputs[name] = model.read_bytes()
    assert outputs["true"] == outputs["flag"]
    assert outputs["false"] == outputs["none"]
    assert outputs["true"] != outputs["none"]


def test_config_line_without_equals_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("# seeds\nseed=9\nexact\n")
    out = tmp_path / "sim.csv"
    assert exit_code([*SIMULATE_ARGV, "--config", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3" in err and "expected key=value" in err and "'exact'" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_config_is_a_clean_error(tmp_path, capsys, kind):
    cfg = tmp_path / "sim.cfg"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not-utf8":
        cfg.write_bytes(b"seed=\xff\xfe\n")
    out = tmp_path / "sim.csv"
    assert exit_code([*SIMULATE_ARGV, "--config", str(cfg), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config:")
    assert not out.exists()


def test_output_dash_writes_stdout(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert run([*SIMULATE_ARGV, "-o", str(out)]) == 0
    capsys.readouterr()
    assert run([*SIMULATE_ARGV, "-o", "-"]) == 0
    assert capsys.readouterr().out == out.read_text()
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize(
    "flags,message",
    [([], "calibrate needs --train"), (["--paper-faithful"], "--paper-faithful needs --test")],
    ids=["no-train", "paper-faithful-no-test"],
)
def test_calibrate_needs_a_data_file(pipeline, tmp_path, capsys, monkeypatch, flags, message):
    _, calibrated, _ = pipeline
    refuse_to_parse(monkeypatch)
    out = tmp_path / "cal.csv"
    assert run(["calibrate", "--model", str(calibrated), *flags, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_sweep_grid_must_be_an_integer(pipeline, tmp_path, capsys):
    _, calibrated, test_file = pipeline
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--model", str(calibrated), "--data", str(test_file), "--grid", "abc", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "grid must be an integer or 'exhaustive', got 'abc'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--stopping-trials", "1"], "stopping_trials must be >= 2"),
        (["--stop-error-trials", "0"], "stop_error_trials must be >= 1"),
        (["--n", "0"], "n must be >= 1"),
    ],
    ids=["stopping-trials", "stop-error-trials", "n"],
)
def test_theory_config_errors_come_before_any_walk(tmp_path, capsys, monkeypatch, flags, message):
    from stst import bench

    def refused(*args, **kwargs):
        raise AssertionError("a walk ran before the config was checked")

    for walk in ("empirical_bridge_crossing_grid", "empirical_stop_error_grid", "empirical_stopping_time"):
        monkeypatch.setattr(bench, walk, refused)
    out = tmp_path / "theory.csv"
    assert run(["theory", *flags, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()
