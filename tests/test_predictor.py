import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stst import (
    Direction,
    KernelSpec,
    StoppingRule,
    attentive_predict,
    budgeted_predict,
    coordinate_model,
    full_predict,
    kernel_model,
    load_model,
    permute_terms,
    save_model,
    score_term,
)
from scipy import sparse

from stst import predictor
from stst.errors import ModelFormatError, ParameterError
from stst.predictor import (
    _FIRST_CHUNK,
    _GROWTH,
    _evaluate,
    attentive_from_prefix,
    budgeted_from_prefix,
    full_from_prefix,
    predict_rows,
    prefix_score_matrix,
    term_matrix,
)

NO_STOP = StoppingRule(theta=0.0, tau=-math.inf, direction=Direction.REJECT_BELOW)


def random_model(rng, kind="coordinate", n=None, dim=None):
    n = n or int(rng.integers(2, 30))
    if kind == "coordinate":
        dim = dim or n
        return coordinate_model(
            rng.standard_normal(n),
            mu=rng.standard_normal(n) * 0.1,
            indices=rng.integers(0, dim, size=n),
            dim=dim,
        )
    dim = dim or int(rng.integers(2, 8))
    kernel = KernelSpec.rbf(1.5) if kind == "rbf" else KernelSpec.linear()
    return kernel_model(
        rng.standard_normal(n),
        rng.standard_normal((n, dim)),
        kernel,
        mu=rng.standard_normal(n) * 0.1,
    )


def brute_force_prefix(model, x):
    """Independent prefix-sum oracle: explicit python loop over terms."""
    sums = []
    total = 0.0
    for i in range(model.n):
        total += score_term(model, i, x)
        sums.append(total)
    return sums


class TestScoreTerm:
    def test_linear_coordinate(self):
        model = coordinate_model([2.0], dim=1)
        assert score_term(model, 0, np.array([3.0])) == 6.0

    def test_linear_kernel_against_sum_of_products(self):
        # exactly representable values: every product and sum is exact, so == holds
        sv = [[1.5, -2.0, 0.25], [3.0, 0.5, -1.0], [0.0, -0.75, 8.0]]
        weights, mu = [2.0, -0.5, 0.125], [0.25, 1.0, -3.0]
        x = [2.0, -0.5, 4.0]
        model = kernel_model(weights, sv, KernelSpec.linear(), mu=mu)
        for i, u in enumerate(sv):
            want = weights[i] * (sum(a * b for a, b in zip(u, x)) - mu[i])
            assert score_term(model, i, np.array(x)) == want
        assert [score_term(model, i, np.array(x)) for i in range(3)] == [9.5, -0.375, 4.421875]

    def test_rbf_zero_distance(self):
        model = kernel_model([1.5], [[0.3, -0.2]], KernelSpec.rbf(0.7), mu=[0.25])
        # K(u, u) = 1 for any sigma
        assert score_term(model, 0, np.array([0.3, -0.2])) == pytest.approx(1.5 * (1.0 - 0.25), rel=1e-15)

    def test_rbf_against_brute_force_distance(self):
        u = np.array([1.0, 0.0, 2.0])
        v = np.array([0.0, 1.0, 2.0])  # squared distance 2
        model = kernel_model([1.0], [u], KernelSpec.rbf(1.0))
        direct = math.exp(-sum((a - b) ** 2 for a, b in zip(u, v)) / 2.0)
        assert direct == pytest.approx(math.exp(-1), rel=1e-15)
        assert score_term(model, 0, v) == pytest.approx(direct, rel=1e-12)

    def test_dimension_mismatch(self):
        model = coordinate_model([1.0, 2.0], dim=2)
        with pytest.raises(ParameterError):
            score_term(model, 0, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ParameterError):
            score_term(model, 5, np.array([1.0, 2.0]))


class TestAttentivePredict:
    def test_strict_crossing_walkthrough(self):
        # partial sums -1, -2, -3, -4 against tau = -2: the first strict
        # crossing S_i < -2 is at i = 3 (the boundary touch at i = 2 continues)
        model = coordinate_model([1.0, 1.0, 1.0, 1.0])
        rule = StoppingRule(theta=0.0, tau=-2.0, direction=Direction.REJECT_BELOW)
        p = attentive_predict(model, np.full(4, -1.0), rule)
        assert p.label == -1
        assert p.terms_evaluated == 3
        assert p.reported_score == -2.0
        assert p.stopped_early

    def test_no_stop_sentinel_reduces_to_full(self):
        rng = np.random.default_rng(7)
        for kind in ("coordinate", "rbf", "linear-kernel"):
            model = random_model(rng, "linear" if kind == "linear-kernel" else kind)
            for _ in range(5):
                x = rng.standard_normal(model.dim)
                a = attentive_predict(model, x, NO_STOP)
                f = full_predict(model, x, 0.0)
                assert a.label == f.label
                assert a.reported_score == f.reported_score  # bit-exact
                assert a.terms_evaluated == model.n
                assert not a.stopped_early

    def test_reject_above(self):
        model = coordinate_model([1.0, 1.0, 1.0])
        rule = StoppingRule(theta=0.0, tau=1.5, direction=Direction.REJECT_ABOVE)
        p = attentive_predict(model, np.array([1.0, 1.0, 0.0]), rule)
        assert p.label == 1
        assert p.stopped_early
        assert p.terms_evaluated == 2
        assert p.reported_score == 1.5

    def test_crossing_at_final_term_is_not_early(self):
        model = coordinate_model([1.0, 1.0])
        rule = StoppingRule(theta=0.0, tau=-1.5, direction=Direction.REJECT_BELOW)
        p = attentive_predict(model, np.array([-0.5, -2.0], dtype=float), rule)
        assert not p.stopped_early
        assert p.terms_evaluated == 2
        assert p.reported_score == -2.5  # full score, not tau
        assert p.label == -1

    @pytest.mark.parametrize("seed", range(12))
    def test_first_crossing_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, ("coordinate", "rbf")[seed % 2], n=25)
        x = rng.standard_normal(model.dim)
        sums = brute_force_prefix(model, x)
        tau = float(np.percentile(sums, 30))
        if tau >= 0.0:
            tau = -abs(tau) - 0.1
        rule = StoppingRule(theta=0.0, tau=tau, direction=Direction.REJECT_BELOW)
        p = attentive_predict(model, x, rule)
        crossings = [i + 1 for i, s in enumerate(sums[:-1]) if s < tau]
        if crossings:
            assert p.stopped_early and p.terms_evaluated == crossings[0]
            # no earlier prefix crossed
            assert all(s >= tau for s in sums[: p.terms_evaluated - 1])
        else:
            assert not p.stopped_early and p.terms_evaluated == model.n

    def test_monotone_work_in_tau(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, "coordinate", n=40)
        x = rng.standard_normal(model.dim)
        taus = sorted(rng.uniform(-8.0, -0.01, size=6))
        counts = [
            attentive_predict(model, x, StoppingRule(0.0, t, Direction.REJECT_BELOW)).terms_evaluated
            for t in taus
        ]
        # larger tau (closer to theta) stops sooner or equally
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_stopped_prediction_invariants(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, "coordinate", n=30)
        rule = StoppingRule(0.0, -0.5, Direction.REJECT_BELOW)
        for _ in range(20):
            p = attentive_predict(model, rng.standard_normal(model.dim), rule)
            if p.stopped_early:
                assert p.terms_evaluated < model.n
                assert p.reported_score == rule.tau
            else:
                assert p.terms_evaluated == model.n


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=20),
    coords=st.data(),
    tau=st.floats(-6, -0.01, allow_nan=False),
)
def test_first_crossing_property(weights, coords, tau):
    n = len(weights)
    x = coords.draw(st.lists(st.floats(-3, 3, allow_nan=False), min_size=n, max_size=n))
    model = coordinate_model(weights, dim=n)
    rule = StoppingRule(theta=0.0, tau=tau, direction=Direction.REJECT_BELOW)
    p = attentive_predict(model, np.array(x), rule)
    sums = brute_force_prefix(model, np.array(x))
    if p.stopped_early:
        assert sums[p.terms_evaluated - 1] < tau
        assert all(s >= tau for s in sums[: p.terms_evaluated - 1])
    else:
        assert all(s >= tau for s in sums[:-1])


class TestBudgetedPredict:
    def test_budget_n_equals_full_bitexact(self):
        rng = np.random.default_rng(3)
        for kind in ("coordinate", "rbf"):
            model = random_model(rng, kind)
            x = rng.standard_normal(model.dim)
            b = budgeted_predict(model, x, model.n, 0.0)
            f = full_predict(model, x, 0.0)
            assert b.label == f.label
            assert b.reported_score == f.reported_score
            assert not b.stopped_early

    def test_budget_one(self):
        model = coordinate_model([2.0, 5.0], mu=[0.5, 0.0], dim=2)
        x = np.array([1.0, 100.0])
        p = budgeted_predict(model, x, 1, 0.0)
        assert p.reported_score == pytest.approx(2.0 * (1.0 - 0.5))
        assert p.label == 1
        assert p.stopped_early
        assert p.terms_evaluated == 1

    def test_hand_prefix(self):
        # corrected raw values all 1 with weights (1, -2, 1): S_2 = -1
        model = coordinate_model([1.0, -2.0, 1.0], dim=3)
        x = np.ones(3)
        p = budgeted_predict(model, x, 2, 0.0)
        assert p.reported_score == -1.0
        assert p.label == -1

    def test_budget_out_of_range(self):
        model = coordinate_model([1.0, 1.0], dim=2)
        x = np.zeros(2)
        for b in (0, 3, -1):
            with pytest.raises(ParameterError):
                budgeted_predict(model, x, b, 0.0)


CHUNK_SIZES_N = (1, 63, 64, 65, 129, 1000, 4097)
KINDS = ("coordinate", "rbf", "linear")
LOWEST_FINITE = -sys.float_info.max


def chunk_ends(n):
    """Term counts at which the per-example scan's chunks end (last one is n)."""
    ends, size = [], _FIRST_CHUNK
    while not ends or ends[-1] < n:
        ends.append(min((ends[-1] if ends else 0) + size, n))
        size *= _GROWTH
    return ends


def split_prefix(model, x):
    """Reference prefix: every term evaluated on its own, then one whole-vector cumsum."""
    return np.cumsum([score_term(model, i, x) for i in range(model.n)])


def first_crossing(prefix, low, high):
    """Reference stop: first count i < n with S_i outside [low, high]."""
    n = len(prefix)
    for i in range(1, n):
        if prefix[i - 1] < low or prefix[i - 1] > high:
            return i, prefix[i - 1]
    return n, prefix[-1]


def monotone_model(rng, kind, n, sign):
    """Model whose every term value has the given sign, so S_i is strictly monotone."""
    base = random_model(rng, kind, n=n)
    weights = sign * (0.1 + np.abs(rng.standard_normal(n)))
    return replace(base, weights=weights, mu=np.full(n, -100.0))


def bits(p):
    return (p.label, float(p.reported_score).hex(), p.terms_evaluated, p.stopped_early)


class TestChunkBoundaries:
    """The chunked scan against a term-by-term reference, bit for bit (==)."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", CHUNK_SIZES_N)
    def test_all_paths_match_reference(self, kind, n):
        rng = np.random.default_rng(1000 + n)
        model = random_model(rng, kind, n=n)
        for _ in range(2):
            x = rng.standard_normal(model.dim)
            prefix = split_prefix(model, x)
            full = full_predict(model, x, 0.0)
            assert full.reported_score == prefix[-1]
            assert full.label == (1 if prefix[-1] >= 0.0 else -1)
            for b in sorted({1, 63, 64, 65, n} & set(range(1, n + 1))):
                assert budgeted_predict(model, x, b, 0.0).reported_score == prefix[b - 1]
            never = StoppingRule(0.0, LOWEST_FINITE, Direction.REJECT_BELOW)
            assert bits(attentive_predict(model, x, never)) == bits(full)
            assert bits(attentive_predict(model, x, NO_STOP)) == bits(full)
            # taus at the 30th and 70th percentile of the walk stop somewhere inside it
            low = min(float(np.percentile(prefix, 30)), -1e-3)
            high = max(float(np.percentile(prefix, 70)), 1e-3)
            below = StoppingRule(0.0, low, Direction.REJECT_BELOW)
            above = StoppingRule(0.0, high, Direction.REJECT_ABOVE)
            i, s = first_crossing(prefix, low, math.inf)
            p = attentive_predict(model, x, below)
            assert p.terms_evaluated == i
            assert p.reported_score == (low if i < n else s)
            i, s = first_crossing(prefix, -math.inf, high)
            p = attentive_predict(model, x, above)
            assert p.terms_evaluated == i
            assert p.reported_score == (high if i < n else s)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", (65, 129, 1000, 4097))
    def test_crossing_on_chunk_boundary(self, kind, n):
        rng = np.random.default_rng(2000 + n)
        ends = chunk_ends(n)
        targets = sorted({c + d for c in ends for d in (-1, 0, 1)} & set(range(2, n)))
        assert targets
        for sign, direction in ((-1.0, Direction.REJECT_BELOW), (1.0, Direction.REJECT_ABOVE)):
            model = monotone_model(rng, kind, n, sign)
            x = rng.standard_normal(model.dim)
            prefix = split_prefix(model, x)
            assert np.all(sign * np.diff(prefix) > 0.0)
            for c in targets:
                # tau strictly between S_{c-1} and S_c: the first crossing is at c
                tau = 0.5 * (prefix[c - 2] + prefix[c - 1])
                p = attentive_predict(model, x, StoppingRule(0.0, tau, direction))
                assert (p.terms_evaluated, p.stopped_early, p.reported_score) == (c, True, tau)

    def test_negative_zero_sum_keeps_its_sign(self):
        # the whole-vector cumsum of [-0.0] is -0.0; the carried sum must not turn it into +0.0
        model = coordinate_model([1.0, 1.0], dim=2)
        assert math.copysign(1.0, full_predict(model, np.array([-0.0, -0.0])).reported_score) == -1.0
        assert math.copysign(1.0, budgeted_predict(model, np.array([-0.0, 5.0]), 1, 0.0).reported_score) == -1.0

    def test_split_independent_term_values(self):
        # every term value is the same whether evaluated alone or in one whole-vector call
        rng = np.random.default_rng(41)
        for kind in KINDS:
            for dim in (1, 2, 7, 64, 300):
                model = random_model(rng, kind, n=130, dim=dim)
                X = rng.standard_normal((3, model.dim))
                for x in X:
                    alone = [score_term(model, i, x) for i in range(model.n)]
                    whole = full_predict(model, x, 0.0).reported_score
                    assert np.cumsum(alone)[-1] == whole


class TestNonFiniteFeatures:
    BAD = (math.nan, math.inf, -math.inf)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", BAD)
    def test_per_example_entry_points_reject(self, kind, bad):
        model = random_model(np.random.default_rng(3), kind, n=5)
        x = np.zeros(model.dim)
        x[-1] = bad
        below = StoppingRule(0.0, -1.0, Direction.REJECT_BELOW)
        above = StoppingRule(0.0, 1.0, Direction.REJECT_ABOVE)
        calls = (
            lambda: score_term(model, 0, x),
            lambda: attentive_predict(model, x, below),
            lambda: attentive_predict(model, x, above),
            lambda: attentive_predict(model, x, NO_STOP),
            lambda: budgeted_predict(model, x, 1, 0.0),
            lambda: full_predict(model, x),
        )
        for call in calls:
            with pytest.raises(ParameterError, match="NaN or infinite"):
                call()

    @pytest.mark.parametrize("bad", BAD)
    def test_batch_entry_points_reject(self, bad):
        model = random_model(np.random.default_rng(3), "rbf", n=5)
        X = np.zeros((4, model.dim))
        X[2, 0] = bad
        for fn in (term_matrix, prefix_score_matrix):
            with pytest.raises(ParameterError, match="NaN or infinite"):
                fn(model, X)


class TestPermuteTerms:
    def test_deterministic(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, "rbf", n=17)
        a = permute_terms(model, seed=42)
        b = permute_terms(model, seed=42)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.support_vectors, b.support_vectors)

    def test_singleton_is_identity(self):
        model = coordinate_model([3.0], dim=1)
        assert np.array_equal(permute_terms(model, 0).weights, model.weights)

    def test_full_score_invariant_large(self):
        rng = np.random.default_rng(21)
        n = 1000
        model = coordinate_model(rng.standard_normal(n), mu=rng.standard_normal(n), dim=n)
        x = rng.standard_normal(n)
        before = full_predict(model, x, 0.0).reported_score
        after = full_predict(permute_terms(model, 77), x, 0.0).reported_score
        assert after == pytest.approx(before, rel=1e-9)

    def test_mu_moves_with_terms(self):
        model = coordinate_model([1.0, 2.0, 3.0], mu=[0.1, 0.2, 0.3], dim=3)
        shuffled = permute_terms(model, 5)
        pair_set = {(w, m) for w, m in zip(shuffled.weights, shuffled.mu)}
        assert pair_set == {(1.0, 0.1), (2.0, 0.2), (3.0, 0.3)}


class TestBatchPaths:
    def test_single_term_model_never_stops_early(self):
        model = coordinate_model([1.0], dim=1)
        prefix = prefix_score_matrix(model, np.array([[-5.0], [5.0]]))
        rule = StoppingRule(0.0, -1.0, Direction.REJECT_BELOW)
        preds = attentive_from_prefix(prefix, rule)
        assert [p.stopped_early for p in preds] == [False, False]
        assert [p.label for p in preds] == [-1, 1]
        solo = attentive_predict(model, np.array([-5.0]), rule)
        assert not solo.stopped_early and solo.terms_evaluated == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_agrees_with_per_example(self, kind):
        # n = 300 spans several scan chunks; the batch path is one whole-matrix cumsum
        rng = np.random.default_rng(13)
        n = 300
        model = random_model(rng, kind, n=n)
        X = rng.standard_normal((15, model.dim))
        prefix = prefix_score_matrix(model, X)
        # tau at the median of the rows' lowest partial sums: about half the rows stop
        tau = float(np.median(prefix[:, :-1].min(axis=1)))
        rule = StoppingRule(0.0, tau, Direction.REJECT_BELOW)
        batch = attentive_from_prefix(prefix, rule)
        full_batch = full_from_prefix(prefix, 0.0)
        assert {p.stopped_early for p in batch} == {True, False}
        for j, x in enumerate(X):
            assert bits(batch[j]) == bits(attentive_predict(model, x, rule))
            assert bits(full_batch[j]) == bits(full_predict(model, x, 0.0))
            for b in (3, 64, 65, 200):
                assert bits(budgeted_from_prefix(prefix, b, 0.0)[j]) == bits(budgeted_predict(model, x, b, 0.0))

    def test_batch_linear_kernel_prefix_bit_exact(self):
        # the batch and per-example linear kernels are the same einsum
        # additions, whatever the memory order of the features
        rng = np.random.default_rng(13)
        model = random_model(rng, "linear", n=300, dim=300)
        X = rng.standard_normal((15, model.dim))
        for order in ("C", "F"):
            prefix = prefix_score_matrix(model, np.asarray(X, order=order))
            for j, x in enumerate(X):
                solo = [budgeted_predict(model, x, b, 0.0).reported_score for b in range(1, model.n + 1)]
                assert np.array_equal(solo, prefix[j])

    def test_term_matrix_matches_score_term(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, "rbf", n=8)
        X = rng.standard_normal((4, model.dim))
        vals = term_matrix(model, X)
        for j in range(4):
            for i in range(model.n):
                assert vals[j, i] == pytest.approx(score_term(model, i, X[j]), rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", (129, 1000, 4097))
    def test_row_compaction(self, kind, n):
        # one tau for 40 rows, placed so that rows stop in each of the first
        # three chunks (those that hold a count below n) and some never stop;
        # stopped rows leave the block, so every live row's carry and index
        # must stay aligned across chunks
        rng = np.random.default_rng(3000 + n)
        model = random_model(rng, kind, n=n)
        X = rng.standard_normal((40, model.dim))
        prefix = prefix_score_matrix(model, X)
        ends = chunk_ends(n)
        starts = [0] + ends[:-1]
        need = {e for e in range(min(3, len(ends))) if starts[e] + 1 < n}
        lowest = np.minimum.accumulate(prefix[:, :-1], axis=1)
        for q in sorted(np.linspace(0.02, 0.98, 49), key=lambda q: abs(q - 0.5)):
            tau = float(np.quantile(lowest[:, -1], q))
            crossed = lowest < tau
            stops = np.where(crossed.any(axis=1), crossed.argmax(axis=1) + 1, n)
            if need <= set(np.searchsorted(ends, stops[stops < n]).tolist()) and (stops == n).any():
                break
        else:
            pytest.fail("no tau spreads the stops over the first three chunks")
        rule = StoppingRule(0.0, tau, Direction.REJECT_BELOW)
        got = _evaluate(model, X, n, 0.0, rule)
        assert [p.terms_evaluated for p in got] == stops.tolist()
        assert list(map(bits, got)) == list(map(bits, attentive_from_prefix(prefix, rule)))
        for j, x in enumerate(X):
            assert bits(got[j]) == bits(_evaluate(model, X[j : j + 1], n, 0.0, rule)[0])
            assert bits(got[j]) == bits(attentive_predict(model, x, rule))
        for b in sorted({1, 128, 129, 641, n} & set(range(1, n + 1))):
            got = _evaluate(model, X, b, 0.0)
            assert list(map(bits, got)) == list(map(bits, budgeted_from_prefix(prefix, b, 0.0)))


class TestInPlaceTermMatrix:
    @pytest.mark.parametrize("kind", KINDS)
    def test_prefix_is_cumsum_of_terms_and_input_untouched(self, kind):
        rng = np.random.default_rng(23)
        model = random_model(rng, kind, n=200)
        X = rng.standard_normal((12, model.dim))
        before = X.copy()
        terms = term_matrix(model, X)
        prefix = prefix_score_matrix(model, X)
        assert np.array_equal(X, before)
        assert np.array_equal(prefix, np.cumsum(terms, axis=1))
        # the in-place correction makes the same roundings as w * (raw - mu)
        for j in range(len(X)):
            assert np.array_equal(terms[j], [score_term(model, i, X[j]) for i in range(model.n)])


class TestRowBlocks:
    """Batch paths that densify and evaluate a row block at a time."""

    @staticmethod
    def sparse_rows(rng, m, dim):
        X = rng.standard_normal((m, dim))
        X[rng.random((m, dim)) < 0.6] = 0.0
        return X

    @staticmethod
    def small_blocks(monkeypatch, model, rows):
        monkeypatch.setattr(predictor, "_BLOCK_CELLS", rows * max(model.n, model.dim))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", (1, 8, 10))
    def test_csr_prefix_equals_dense_and_whole(self, monkeypatch, kind, m):
        # blocks of 4 rows: one short block, two whole ones, two and a remainder
        rng = np.random.default_rng(40 + m)
        model = random_model(rng, kind, n=150)
        X = self.sparse_rows(rng, m, model.dim)
        whole = np.cumsum(term_matrix(model, X), axis=1)
        self.small_blocks(monkeypatch, model, 4)
        dense = prefix_score_matrix(model, X)
        csr = prefix_score_matrix(model, sparse.csr_matrix(X))
        assert csr.flags.c_contiguous and dense.flags.c_contiguous
        assert csr.tobytes() == dense.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_default_block_size(self, kind):
        rng = np.random.default_rng(44)
        model = random_model(rng, kind, n=2000)
        rows = predictor._BLOCK_CELLS // max(model.n, model.dim)
        X = self.sparse_rows(rng, 2 * rows + 7, model.dim)  # three blocks, the last short
        whole = np.cumsum(term_matrix(model, X), axis=1)
        assert prefix_score_matrix(model, sparse.csr_matrix(X)).tobytes() == whole.tobytes()
        full = predict_rows(model, sparse.csr_matrix(X), 0.0)
        assert full.score.tobytes() == whole[:, -1].tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_predict_rows_matches_per_example(self, monkeypatch, kind):
        rng = np.random.default_rng(45)
        model = random_model(rng, kind, n=300)
        X = self.sparse_rows(rng, 15, model.dim)
        prefix = np.cumsum(term_matrix(model, X), axis=1)
        tau = float(np.median(prefix[:, :-1].min(axis=1)))
        rule = StoppingRule(0.0, tau, Direction.REJECT_BELOW)
        self.small_blocks(monkeypatch, model, 4)
        for data in (X, sparse.csr_matrix(X)):
            full = predict_rows(model, data, 0.0)
            attentive = predict_rows(model, data, rule.theta, rule)
            assert {p.stopped_early for p in attentive} == {True, False}
            for j, x in enumerate(X):
                assert bits(full[j]) == bits(full_predict(model, x, 0.0))
                assert bits(attentive[j]) == bits(attentive_predict(model, x, rule))

    def test_nan_in_a_later_block(self, monkeypatch):
        rng = np.random.default_rng(46)
        model = random_model(rng, "rbf", n=20)
        X = rng.standard_normal((10, model.dim))
        X[9, 1] = math.nan
        self.small_blocks(monkeypatch, model, 4)
        for data in (X, sparse.csr_matrix(X)):
            for call in (lambda: prefix_score_matrix(model, data), lambda: predict_rows(model, data, 0.0)):
                with pytest.raises(ParameterError, match="^feature matrix has a NaN or infinite value$"):
                    call()

    def test_wrong_column_count_raises_before_any_block(self, monkeypatch):
        model = random_model(np.random.default_rng(47), "coordinate", n=6)

        def no_block(*args):
            raise AssertionError("a block was built")

        monkeypatch.setattr(predictor, "_check_X", no_block)
        X = np.ones((5, model.dim + 1))
        for data in (X, sparse.csr_matrix(X), X[0]):
            for call in (lambda: prefix_score_matrix(model, data), lambda: predict_rows(model, data, 0.0)):
                with pytest.raises(ParameterError, match=r"feature matrix must have shape \(m, 6\)"):
                    call()


class TestSerialization:
    @pytest.mark.parametrize("kind", ["coordinate", "rbf", "linear"])
    def test_round_trip_scores_bitexact(self, tmp_path, kind):
        rng = np.random.default_rng(29)
        model = random_model(rng, kind, n=12)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        for _ in range(10):
            x = rng.standard_normal(model.dim)
            assert full_predict(loaded, x).reported_score == full_predict(model, x).reported_score

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, format_version=np.int64(1), kind=np.str_("coordinate"))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(
            path,
            format_version=np.int64(1),
            kind=np.str_("mystery"),
            weights=np.ones(2),
            mu=np.zeros(2),
            theta=np.float64(0.0),
            dim=np.int64(2),
        )
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_wrong_version_rejected(self, tmp_path):
        model = coordinate_model([1.0], dim=1)
        path = tmp_path / "m.npz"
        save_model(model, path)
        data = dict(np.load(path))
        data["format_version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a zip at all")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "kind,key,value,match",
        [
            ("coordinate", "indices", np.array([0.0, 1.7]), "'indices' must be integer"),
            ("coordinate", "dim", np.float64(3.9), "'dim' must be integer"),
            ("coordinate", "dim", np.array([3, 3]), "'dim' must be a scalar"),
            ("coordinate", "theta", np.array([0.0, 1.0]), "'theta' must be a scalar"),
            ("coordinate", "format_version", np.str_("one"), "'format_version' must be integer"),
            ("coordinate", "kind", np.array(["coordinate", "kernel"]), "'kind' must be a scalar"),
            ("coordinate", "weights", np.array(["a", "b"]), "invalid model container"),
            ("coordinate", "theta", np.str_("zero"), "invalid model container"),
            ("rbf", "sigma", np.array([1.5, 1.5]), "'sigma' must be a scalar"),
            ("rbf", "sigma", np.str_("wide"), "invalid model container"),
            ("rbf", "kernel_kind", np.array(["rbf", "rbf"]), "'kernel_kind' must be a scalar"),
        ],
    )
    def test_malformed_field_rejected(self, tmp_path, kind, key, value, match):
        path = tmp_path / "m.npz"
        save_model(random_model(np.random.default_rng(31), kind, n=2, dim=4), path)
        data = dict(np.load(path))
        data[key] = value
        np.savez(path, **data)
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)

    @pytest.mark.parametrize(
        "kind,key", [("coordinate", "weights"), ("coordinate", "mu"), ("rbf", "support_vectors")]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_rejected(self, tmp_path, kind, key, bad):
        path = tmp_path / "m.npz"
        save_model(random_model(np.random.default_rng(37), kind, n=3, dim=3), path)
        data = dict(np.load(path))
        data[key] = data[key].copy()
        data[key].flat[1] = bad
        np.savez(path, **data)
        with pytest.raises(ModelFormatError, match="must be finite"):
            load_model(path)


class TestModelValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_and_mu_rejected(self, bad):
        with pytest.raises(ParameterError, match="^weights must be finite"):
            coordinate_model([1.0, bad], dim=2)
        with pytest.raises(ParameterError, match="^mu must be finite"):
            coordinate_model([1.0, 1.0], mu=[0.0, bad], dim=2)
        with pytest.raises(ParameterError, match="^mu must be finite"):
            coordinate_model([1.0, 1.0], dim=2).with_mu([bad, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_support_vectors_rejected(self, bad):
        sv = np.zeros((2, 3))
        sv[1, 2] = bad
        for kernel in (KernelSpec.rbf(1.0), KernelSpec.linear()):
            with pytest.raises(ParameterError, match="^support vectors must be finite"):
                kernel_model([1.0, 1.0], sv, kernel)
