"""pipeline: the CLI flow train -> calibrate -> sweep -> pr, run in-process.

The input is a generated sparse text file whose labels come from a planted
linear direction. Each pass runs the four stst.cli.main calls into a fresh
directory; CSV bytes must repeat across passes of one seed.
"""

import csv
import hashlib
import os
import shutil
import statistics
import time

import numpy as np

# 3000 rows keep a pass near 2.5 s, so a run's median is taken over about
# ten passes; with 12000 rows a run held two or three 8 s passes and
# their median moved with the host's drift.
SIZES = {
    "full": dict(rows=3000, dim=2000, density=0.02),
    "smoke": dict(rows=600, dim=100, density=0.05),
}
TEST_FRACTION = 0.3
CAL_FRACTION = 0.25
DELTA = 0.1
CSVS = ("train.csv", "calibration.csv", "sweep.csv", "pr.csv")


class Pipeline:
    min_passes = 2  # byte-identity needs two passes of one seed

    def __init__(self, ctx):
        self.ctx = ctx
        self.size = SIZES[ctx.size]
        self.data_path = os.path.join(ctx.workdir, "data.txt")
        self.passes = 0
        self.digests = None
        self.first = None  # (directory, theta) of the first pass
        self.stage_s = {"train": [], "calibrate": [], "sweep": [], "pr": []}
        self.test_accuracy = None

    def setup(self) -> None:
        from scipy import sparse

        from stst import data

        s = self.size
        rng = np.random.default_rng([self.ctx.seed, 2])
        cells = s["rows"] * s["dim"]
        flat = np.sort(rng.choice(cells, size=round(cells * s["density"]), replace=False))
        rows, cols = np.divmod(flat, s["dim"])
        X = sparse.csr_matrix(
            (rng.standard_normal(flat.size), (rows, cols)), shape=(s["rows"], s["dim"])
        )
        direction = rng.standard_normal(s["dim"])
        y = np.where(X @ direction >= 0.0, 1, -1)
        data.serialize_sparse(data.Dataset(X=X, y=y), self.data_path)

    def _cli(self, stage: str, argv: list[str]) -> float:
        from stst import cli

        with self.ctx.tracer.span(f"cli.{stage}"):
            t0 = time.perf_counter()
            code = cli.main([stage] + argv)
            seconds = time.perf_counter() - t0
        self.stage_s[stage].append(seconds)
        self.ctx.checks.check(code == 0, f"stst {stage} exited {code}")
        return seconds

    def task(self) -> float:
        """One pass; returns the time spent inside the four CLI calls."""
        from stst.core import ConfidenceParams, Direction, make_stopping_rule
        from stst.predictor import load_model

        seed = self.ctx.seed
        out = os.path.join(self.ctx.workdir, f"pass{self.passes}")
        os.makedirs(out)
        p = lambda name: os.path.join(out, name)  # noqa: E731
        seconds = self._cli("train", [
            "--data", self.data_path, "--test-fraction", repr(TEST_FRACTION), "--split-seed", str(seed),
            "--seed", str(seed + 1), "--model-out", p("model.npz"), "--train-out", p("train.txt"),
            "--test-out", p("test.txt"), "-o", p("train.csv"),
        ])
        seconds += self._cli("calibrate", [
            "--model", p("model.npz"), "--train", p("train.txt"), "--cal-fraction", repr(CAL_FRACTION),
            "--cal-seed", str(seed + 2), "--mode", "per-term", "--model-out", p("calibrated.npz"),
            "-o", p("calibration.csv"),
        ])
        # the calibrated score is shifted by sum(w * mu); move theta with it
        model = load_model(p("calibrated.npz"))
        theta = model.theta - float(np.sum(model.weights * model.mu))
        variance = float(_csv_rows(p("calibration.csv"))[0]["variance_hat"])
        tau = make_stopping_rule(theta, ConfidenceParams(delta=DELTA, variance=variance), Direction.REJECT_BELOW).tau
        seconds += self._cli("sweep", [
            "--model", p("calibrated.npz"), "--data", p("test.txt"), "--theta", repr(theta),
            "--grid", "50", "-o", p("sweep.csv"),
        ])
        seconds += self._cli("pr", [
            "--model", p("calibrated.npz"), "--data", p("test.txt"), "--theta", repr(theta),
            "--mode", "attentive", "--tau", repr(tau), "-o", p("pr.csv"),
        ])

        digests = {name: _sha256(p(name)) for name in CSVS}
        if self.digests is None:
            self.digests = digests
            self.first = (out, theta)
        else:
            for name in CSVS:
                self.ctx.checks.check(digests[name] == self.digests[name], f"{name} bytes differ between passes")
            shutil.rmtree(out)
        self.passes += 1
        return seconds

    def finish(self) -> None:
        """The first pass's sweep full row equals confusion counts from per-example full_predict."""
        from stst import data, predictor

        out, theta = self.first
        self.test_accuracy = float(_csv_rows(os.path.join(out, "train.csv"))[0]["test_accuracy"])
        self.layer_extras = {"trainer.test_accuracy": self.test_accuracy}
        model = predictor.load_model(os.path.join(out, "calibrated.npz"))
        test = data.parse_sparse(os.path.join(out, "test.txt"))
        labels = np.array([predictor.full_predict(model, x, theta).label for x in test.dense()])
        truth = test.y == 1
        pred = labels == 1
        want = {
            "tp": int((pred & truth).sum()),
            "fp": int((pred & ~truth).sum()),
            "tn": int((~pred & ~truth).sum()),
            "fn": int((~pred & truth).sum()),
        }
        row = next(r for r in _csv_rows(os.path.join(out, "sweep.csv")) if r["mode"] == "full")
        got = {k: int(row[k]) for k in want}
        self.ctx.checks.check(got == want, f"sweep full row {got} != per-example full_predict {want}")

    def detail(self) -> dict:
        return {
            "stage_s": {k: statistics.median(v) for k, v in self.stage_s.items()},
            "test_accuracy": self.test_accuracy,
            "passes": self.passes,
            "input_bytes": os.path.getsize(self.data_path),
        }


def _csv_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()
