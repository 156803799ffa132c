import csv
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import norm

from stst import data, simulator
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


def test_train_test_out_needs_test_fraction(tmp_path, capsys):
    out, held_out = tmp_path / "train.csv", tmp_path / "test.txt"
    argv = ["train", "--synthetic", SYNTH, "--model-out", str(tmp_path / "m.npz")]
    assert run(argv + ["--test-out", str(held_out), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--test-fraction" in err
    assert not out.exists() and not held_out.exists() and not (tmp_path / "m.npz").exists()


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


@pytest.mark.parametrize(
    "key,corrupt,message",
    [
        ("theta", lambda theta: np.array([theta, theta]), "'theta' must be a scalar"),
        ("weights", lambda w: np.concatenate([[np.nan], w[1:]]), "weights must be finite"),
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


def test_simulate_golden_digests(tmp_path):
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
