import numpy as np
import pytest
from scipy import sparse

from stst import (
    Dataset,
    KernelSpec,
    TrainConfig,
    full_predict,
    generate_synthetic,
    hinge_objective,
    import_kernel_model,
    kernel_model,
    save_model,
    split,
    train_linear,
)
from stst.errors import ModelFormatError, ParameterError, TrainingError
from stst.predictor import full_from_prefix, prefix_score_matrix
from conftest import BENCH_SPEC


def _accuracy(model, ds):
    prefix = prefix_score_matrix(model, ds.dense())
    labels = np.array([p.label for p in full_from_prefix(prefix, model.theta)])
    return float((labels == ds.y).mean())


class TestTrainLinear:
    def test_two_point_separable(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ds = Dataset(X=X, y=np.array([1, -1]))
        model = train_linear(ds, TrainConfig(lambda_reg=0.1, epochs=20, seed=0))
        assert model.weights[0] > 0

    def test_norm_bound_large_lambda(self):
        rng = np.random.default_rng(12)
        ds = Dataset(X=rng.standard_normal((60, 5)), y=rng.choice([-1, 1], size=60))
        lam = 100.0
        model = train_linear(ds, TrainConfig(lambda_reg=lam, epochs=3, seed=1))
        assert np.linalg.norm(model.weights) <= 2.0 / np.sqrt(lam)

    def test_synthetic_heldout_accuracy(self):
        # pinned regression: dim 20, 500/500, separation 4, noise 1, seed 7
        spec = BENCH_SPEC.__class__(dim=20, n_pos=500, n_neg=500, mean_separation=4.0, noise_std=1.0, seed=7)
        full = generate_synthetic(spec)
        train, test = split(full, 0.3, seed=107)
        model = train_linear(train, TrainConfig(lambda_reg=0.01, epochs=5, seed=307))
        acc = _accuracy(model, test)
        assert acc > 0.95
        assert acc == pytest.approx(0.9733333333333334, abs=1e-12)

    def test_objective_non_increasing_within_noise(self):
        # retraining with the same seed replays the same example stream, so
        # successive epoch counts give snapshots along one trajectory
        spec = BENCH_SPEC.__class__(dim=10, n_pos=150, n_neg=150, mean_separation=3.0, noise_std=1.0, seed=9)
        ds = generate_synthetic(spec)
        lam = 0.05
        objectives = [
            hinge_objective(train_linear(ds, TrainConfig(lambda_reg=lam, epochs=e, seed=11)), ds, lam)
            for e in range(1, 6)
        ]
        for before, after in zip(objectives, objectives[1:]):
            assert after <= before * 1.05

    def test_seed_determinism(self):
        rng = np.random.default_rng(14)
        ds = Dataset(X=rng.standard_normal((50, 4)), y=rng.choice([-1, 1], size=50))
        cfg = TrainConfig(lambda_reg=0.02, epochs=4, seed=21)
        a = train_linear(ds, cfg)
        b = train_linear(ds, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert a.theta == b.theta

    def test_single_class_rejected(self):
        ds = Dataset(X=np.ones((5, 2)), y=np.ones(5, dtype=int))
        with pytest.raises(TrainingError):
            train_linear(ds, TrainConfig(lambda_reg=0.1, epochs=1, seed=0))

    def test_bad_config(self):
        with pytest.raises(ParameterError):
            TrainConfig(lambda_reg=0.0, epochs=1, seed=0)
        with pytest.raises(ParameterError):
            TrainConfig(lambda_reg=0.1, epochs=0, seed=0)
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            TrainConfig(lambda_reg=0.1, epochs=1, seed=-2)


class TestSparseTraining:
    """CSR steps touch only stored entries; dense steps use the whole row."""

    @staticmethod
    def _data(seed, m=120, dim=40, density=0.1):
        rng = np.random.default_rng(seed)
        X = sparse.random(m, dim, density=density, format="csr", random_state=rng, data_rvs=rng.standard_normal)
        X = X.tolil()
        X[3, :] = 0.0  # an empty row
        X = X.tocsr()
        X.data[::9] = 0.0  # explicit stored zeros
        y = np.where(X @ rng.standard_normal(dim) + 0.1 * rng.standard_normal(m) >= 0.0, 1, -1)
        return X, y

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_csr_weights_equal_dense(self, seed, use_bias):
        X, y = self._data(seed)
        assert (np.diff(X.indptr) == 0).any() and (X.data == 0.0).any()
        config = TrainConfig(lambda_reg=0.05, epochs=3, seed=seed + 100, use_bias=use_bias)
        csr = train_linear(Dataset(X=X, y=y), config)
        dense = train_linear(Dataset(X=X.toarray(), y=y), config)
        assert np.array_equal(csr.weights, dense.weights)
        assert csr.theta == dense.theta
        assert np.any(csr.weights != 0.0)

    @pytest.mark.parametrize("m", [2, 3, 7, 2100])
    def test_epoch_draw_is_the_scalar_draw_stream(self, m):
        # train_linear draws an epoch's m indices in one call; the example
        # stream (and so every trained model) is that of m one-index draws
        one, batch = np.random.default_rng(5), np.random.default_rng(5)
        singles = [int(one.integers(m)) for _ in range(3 * m)]
        epochs = [j for _ in range(3) for j in batch.integers(m, size=m).tolist()]
        assert singles == epochs

    def test_csr_input_not_mutated(self):
        X, y = self._data(9)
        before = (X.data.copy(), X.indices.copy(), X.indptr.copy())
        train_linear(Dataset(X=X, y=y), TrainConfig(lambda_reg=0.05, epochs=2, seed=1))
        for got, want in zip((X.data, X.indices, X.indptr), before):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_hinge_objective_csr_matches_dense(self, seed, use_bias, monkeypatch):
        # CSR margins sum stored entries only, so they may round differently
        # from the dense product in the last bits; 1e-12 relative bounds that
        X, y = self._data(seed)
        lam = 0.05
        model = train_linear(Dataset(X=X, y=y), TrainConfig(lambda_reg=lam, epochs=3, seed=seed, use_bias=use_bias))
        dense = hinge_objective(model, Dataset(X=X.toarray(), y=y), lam)

        def refused(self):
            raise AssertionError("Dataset.dense called")

        monkeypatch.setattr(Dataset, "dense", refused)
        assert hinge_objective(model, Dataset(X=X, y=y), lam) == pytest.approx(dense, rel=1e-12, abs=0.0)

    def test_hinge_objective_needs_a_coordinate_model(self):
        model = kernel_model([1.0, -1.0], np.eye(2), KernelSpec.linear())
        with pytest.raises(ParameterError, match="defined for coordinate models"):
            hinge_objective(model, Dataset(X=np.eye(2), y=np.array([1, -1])), 0.1)

    def test_hinge_objective_dense_bits_unchanged(self):
        # dense input: the dense matrix-vector product, as it always was
        X, y = self._data(4)
        X = X.toarray()
        lam = 0.05
        model = train_linear(Dataset(X=X, y=y), TrainConfig(lambda_reg=lam, epochs=3, seed=4))
        w = np.zeros(model.dim)
        w[model.indices] = model.weights
        bias = -model.theta
        hinge = np.maximum(0.0, 1.0 - y * (X @ w + bias)).mean()
        want = float(0.5 * lam * (w @ w + bias * bias) + hinge)
        assert hinge_objective(model, Dataset(X=X, y=y), lam) == want


class TestImportKernelModel:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(33)
        model = kernel_model(
            rng.standard_normal(6), rng.standard_normal((6, 3)), KernelSpec.rbf(0.9)
        )
        X = rng.standard_normal((8, 3))
        scores = np.array([full_predict(model, x).reported_score for x in X])
        path = tmp_path / "kernel.npz"
        save_model(model, path, verify_inputs=X, verify_scores=scores)
        loaded = import_kernel_model(path)
        for x, s in zip(X, scores):
            assert full_predict(loaded, x).reported_score == s

    def test_single_support_vector(self, tmp_path):
        sv = np.array([[1.0, 2.0]])
        model = kernel_model([0.7], sv, KernelSpec.rbf(1.3))
        x = np.array([0.5, 0.5])
        k = np.exp(-np.sum((sv[0] - x) ** 2) / (2 * 1.3**2))
        assert full_predict(model, x).reported_score == pytest.approx(0.7 * k, rel=1e-12)
        path = tmp_path / "one.npz"
        save_model(model, path)
        assert import_kernel_model(path).n == 1

    def test_external_solver_oracle(self, tmp_path):
        # an SVM trained by an independent solver is the exporter; its decision
        # values (net of intercept) must be reproduced on import
        sklearn_svm = pytest.importorskip("sklearn.svm")
        rng = np.random.default_rng(41)
        X = rng.standard_normal((80, 4))
        y = np.where(X[:, 0] + 0.5 * X[:, 1] + 0.1 * rng.standard_normal(80) > 0, 1, -1)
        sigma = 1.2
        clf = sklearn_svm.SVC(C=1.0, kernel="rbf", gamma=1.0 / (2.0 * sigma**2))
        clf.fit(X, y)
        model = kernel_model(
            clf.dual_coef_[0],
            clf.support_vectors_,
            KernelSpec.rbf(sigma),
            theta=-float(clf.intercept_[0]),
        )
        probe = rng.standard_normal((10, 4))
        margins = clf.decision_function(probe) - clf.intercept_[0]
        path = tmp_path / "svc.npz"
        save_model(model, path, verify_inputs=probe, verify_scores=margins)
        loaded = import_kernel_model(path)
        got = np.array([full_predict(loaded, x).reported_score for x in probe])
        assert np.allclose(got, margins, rtol=1e-6)
        # sign agreement with the exporter's labels
        labels = np.where(got >= loaded.theta, 1, -1)
        assert np.array_equal(labels, clf.predict(probe).astype(int))

    def test_external_solver_oracle_linear(self, tmp_path):
        sklearn_svm = pytest.importorskip("sklearn.svm")
        rng = np.random.default_rng(43)
        X = rng.standard_normal((60, 3))
        y = np.where(X @ np.array([1.0, -2.0, 0.5]) > 0, 1, -1)
        clf = sklearn_svm.SVC(C=1.0, kernel="linear")
        clf.fit(X, y)
        model = kernel_model(
            clf.dual_coef_[0],
            clf.support_vectors_,
            KernelSpec.linear(),
            theta=-float(clf.intercept_[0]),
        )
        probe = rng.standard_normal((6, 3))
        margins = clf.decision_function(probe) - clf.intercept_[0]
        path = tmp_path / "svc_lin.npz"
        save_model(model, path, verify_inputs=probe, verify_scores=margins)
        import_kernel_model(path)  # agreement check happens inside
        got = np.array([full_predict(model, x).reported_score for x in probe])
        assert np.allclose(got, margins, rtol=1e-6)

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    def test_numpy_oracle(self, tmp_path, kind):
        # an exporter independent of stst: decision values sum_i a_i k(sv_i, x) + b
        # from a plain double loop, bundled net of b (which theta carries)
        rng = np.random.default_rng(47)
        sv = rng.standard_normal((30, 5))
        alpha = rng.standard_normal(30)
        b, sigma = 0.3, 1.3
        probe = rng.standard_normal((12, 5))
        decision = np.empty(len(probe))
        for j, x in enumerate(probe):
            total = 0.0
            for i, u in enumerate(sv):
                if kind == "rbf":
                    k = np.exp(-sum((ui - xi) ** 2 for ui, xi in zip(u, x)) / (2.0 * sigma**2))
                else:
                    k = sum(ui * xi for ui, xi in zip(u, x))
                total += alpha[i] * k
            decision[j] = total + b
        spec = KernelSpec.rbf(sigma) if kind == "rbf" else KernelSpec.linear()
        model = kernel_model(alpha, sv, spec, theta=-b)
        path = tmp_path / "oracle.npz"
        save_model(model, path, verify_inputs=probe, verify_scores=decision - b)
        loaded = import_kernel_model(path)
        got = np.array([full_predict(loaded, x).label for x in probe])
        assert np.array_equal(got, np.where(decision >= 0.0, 1, -1))
        perturbed = decision - b
        perturbed[5] *= 1.0 + 1e-4
        bad = tmp_path / "perturbed.npz"
        save_model(model, bad, verify_inputs=probe, verify_scores=perturbed)
        with pytest.raises(ModelFormatError, match="disagrees"):
            import_kernel_model(bad)

    def test_verification_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(45)
        model = kernel_model(rng.standard_normal(4), rng.standard_normal((4, 2)), KernelSpec.linear())
        X = rng.standard_normal((5, 2))
        wrong = np.array([full_predict(model, x).reported_score for x in X]) * 1.01
        path = tmp_path / "wrong.npz"
        save_model(model, path, verify_inputs=X, verify_scores=wrong)
        with pytest.raises(ModelFormatError, match="disagrees"):
            import_kernel_model(path)

    @pytest.mark.parametrize(
        "inputs_shape, scores_shape, bad",
        [((4, 3), (3,), None), ((4, 2), (4,), None), ((4, 3), (4, 1), None), ((3,), (3,), None),
         ((4, 3), (4,), np.nan), ((4, 3), (4,), np.inf), ((4, 3), None, None), (None, (4,), None),
         ((0, 3), (0,), None), ((4, 3), (4,), "verify_inputs"), ((4, 3), (4,), "verify_scores")],
    )
    def test_malformed_verification_payload_rejected(self, tmp_path, inputs_shape, scores_shape, bad):
        # save_model refuses a misshapen payload, so the container is written by hand;
        # a field name for bad stores that half as strings of its digits
        rng = np.random.default_rng(49)
        model = kernel_model(rng.standard_normal(5), rng.standard_normal((5, 3)), KernelSpec.rbf(1.1))
        path = tmp_path / "malformed.npz"
        save_model(model, path)
        with np.load(path) as z:
            fields = {k: z[k] for k in z.files}
        # a None shape leaves that half of the payload out
        for key, shape in (("verify_inputs", inputs_shape), ("verify_scores", scores_shape)):
            if shape is not None:
                fields[key] = rng.standard_normal(shape)
        if isinstance(bad, str):
            fields[bad] = fields[bad].astype(str)
        elif bad is not None:
            fields["verify_inputs"][1, 2] = bad
        np.savez(path, **fields)
        with pytest.raises(ModelFormatError, match="verification payload"):
            import_kernel_model(path)

    def test_coordinate_container_rejected(self, tmp_path):
        from stst import coordinate_model

        path = tmp_path / "coord.npz"
        save_model(coordinate_model([1.0], dim=1), path)
        with pytest.raises(ModelFormatError, match="coordinate"):
            import_kernel_model(path)
