"""predict: one closed-loop caller sends one example per request.

Each test example goes to attentive_predict, then the same examples go to
full_predict. The model is an RBF kernel model whose support vectors are
drawn from generate_synthetic, its terms shuffled with permute_terms and
calibrated per term on held-out positives. theta = -sum(w * mu) keeps the
uncorrected classifier's decision at 0; the rule rejects below at delta.
"""

import math
import time

import numpy as np

from common import latency_summary, same_prediction

SIZES = {
    # support vectors per class, calibration positives, test positives/negatives
    "full": dict(dim=64, sv_per_class=2000, cal_pos=500, test_pos=400, test_neg=1600),
    "smoke": dict(dim=16, sv_per_class=100, cal_pos=50, test_pos=20, test_neg=80),
}
DELTA = 0.1
SEPARATION = 4.0


class Predict:
    min_passes = 1

    def __init__(self, ctx):
        self.ctx = ctx
        self.size = SIZES[ctx.size]
        self.latencies = {"attentive": [], "full": []}
        self.first = None  # (attentive, full) predictions of the first pass

    def setup(self) -> None:
        from stst import calibration, data, predictor
        from stst.core import ConfidenceParams, Direction, make_stopping_rule

        s, seed = self.size, self.ctx.seed
        n_pos = s["sv_per_class"] + s["cal_pos"] + s["test_pos"]
        n_neg = s["sv_per_class"] + s["test_neg"]
        spec = data.SyntheticSpec(
            dim=s["dim"], n_pos=n_pos, n_neg=n_neg, mean_separation=SEPARATION, noise_std=1.0, seed=seed
        )
        ds = data.generate_synthetic(spec)
        rng = np.random.default_rng([seed, 1])
        pos = rng.permutation(np.nonzero(ds.y == 1)[0])
        neg = rng.permutation(np.nonzero(ds.y == -1)[0])
        k = s["sv_per_class"]
        sv = np.concatenate([pos[:k], neg[:k]])
        cal = pos[k : k + s["cal_pos"]]
        test = rng.permutation(np.concatenate([pos[k + s["cal_pos"] :], neg[k:]]))

        kernel = predictor.KernelSpec.rbf(math.sqrt(s["dim"]))
        model = predictor.kernel_model(ds.y[sv].astype(np.float64), ds.X[sv], kernel)
        model = predictor.permute_terms(model, seed)
        model, report = calibration.calibrate(model, ds.subset(cal), 1, mode="per_term")
        self.theta = -float(np.sum(model.weights * model.mu))
        self.rule = make_stopping_rule(
            self.theta, ConfidenceParams(delta=DELTA, variance=report.variance_hat), Direction.REJECT_BELOW
        )
        self.model = model
        self.X = ds.X[test]
        self.y = ds.y[test]

    def task(self) -> float:
        """One attentive pass then one full pass over the test set; returns its wall time."""
        from stst import predictor

        clock = time.perf_counter
        start = clock()
        att, full = [], []
        for label, fn, extra, out in (
            ("attentive", predictor.attentive_predict, self.rule, att),
            ("full", predictor.full_predict, self.theta, full),
        ):
            lat = self.latencies[label]
            for x in self.X:
                t0 = clock()
                out.append(fn(self.model, x, extra))
                lat.append(clock() - t0)
        seconds = clock() - start
        self.ctx.checks.op(len(att) + len(full))
        if self.first is None:
            self.first = (att, full)
        else:
            ok = all(map(same_prediction, att, self.first[0])) and all(map(same_prediction, full, self.first[1]))
            self.ctx.checks.check(ok, "predictions differ between passes")
        return seconds

    def finish(self) -> None:
        from stst import predictor
        from stst.core import Direction, StoppingRule

        checks = self.ctx.checks
        att, full = self.first
        batch = predictor.attentive_from_prefix(predictor.prefix_score_matrix(self.model, self.X), self.rule)
        for i, (a, b) in enumerate(zip(att, batch)):
            checks.check(same_prediction(a, b), f"row {i}: attentive_predict != attentive_from_prefix")
        never = StoppingRule(theta=self.theta, tau=-math.inf, direction=Direction.REJECT_BELOW)
        for i, x in enumerate(self.X):
            got = predictor.attentive_predict(self.model, x, never)
            checks.check(same_prediction(got, full[i]), f"row {i}: never-stop rule != full_predict")

        n = self.model.n
        terms = sum(p.terms_evaluated for p in att)
        full_pos = [i for i, p in enumerate(full) if p.label == 1]
        flipped = sum(1 for i in full_pos if att[i].stopped_early and att[i].label != 1)
        self.counts = {
            "terms_evaluated": terms,
            "terms_possible": n * len(att),
            "stop_errors": flipped,
            "full_positives": len(full_pos),
        }
        self.layer_extras = {
            "predictor.terms_fraction": terms / (n * len(att)),
            "predictor.stop_error_rate": flipped / len(full_pos) if full_pos else 0.0,
        }

    def detail(self) -> dict:
        att, full = self.latencies["attentive"], self.latencies["full"]
        labels = np.array([p.label for p in self.first[1]])
        return {
            "attentive_examples_per_s": len(att) / sum(att),
            "attentive_latency": latency_summary(att),
            "full_examples_per_s": len(full) / sum(full),
            "full_latency": latency_summary(full),
            "terms_fraction": self.layer_extras["predictor.terms_fraction"],
            "stop_error_rate": self.layer_extras["predictor.stop_error_rate"],
            "counts": self.counts,
            "full_accuracy": float((labels == self.y).mean()),
            "n_terms": self.model.n,
            "n_test": len(self.y),
        }
