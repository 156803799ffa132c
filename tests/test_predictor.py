import copy
import gc
import io
import math
import pickle
import shutil
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

from conftest import PLAIN_TERMS_FLAG
from stst import _native, data, predictor
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


@pytest.mark.usefixtures("term_kernels")
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
        prefix = prefix_score_matrix(model, x[None])
        for b in (0, 3, -1):
            with pytest.raises(ParameterError, match=r"budget must be in \[1, 2\]"):
                budgeted_predict(model, x, b, 0.0)
            with pytest.raises(ParameterError, match=r"budget must be in \[1, 2\]"):
                budgeted_from_prefix(prefix, b, 0.0)


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


@pytest.mark.usefixtures("term_kernels")
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


def walk_model(steps):
    """A coordinate model whose running sums on x = steps are the exact
    partial sums of steps (weights 1, mu 0)."""
    return coordinate_model(np.ones(len(steps)))


def walk(sums):
    """The steps whose running sums are sums (small integers: exact)."""
    return np.diff(np.asarray(sums, dtype=float), prepend=0.0)


@pytest.fixture
def scans(term_kernels, monkeypatch):
    """The chunk scans _evaluate runs, on the body term_kernels picked: a
    list that gets each scan's live row count."""
    seen = []
    lib = predictor._kernels()
    if lib is None:
        body = predictor._scan
        monkeypatch.setattr(predictor, "_scan", lambda *args: seen.append(args[7]) or body(*args))
    else:
        body = lib.stst_scan
        monkeypatch.setattr(lib, "stst_scan", lambda *args: seen.append(args[10]) or body(*args))
    return seen


def test_bounds_of_each_rule():
    assert predictor._bounds(StoppingRule(0.0, -1.5, Direction.REJECT_BELOW)) == (-1.5, math.inf)
    assert predictor._bounds(StoppingRule(0.0, 1.5, Direction.REJECT_ABOVE)) == (-math.inf, 1.5)
    # no rule and the no-stop sentinels: nothing lies outside (-inf, +inf)
    for rule in (None, NO_STOP, StoppingRule(0.0, math.inf, Direction.REJECT_ABOVE)):
        assert predictor._bounds(rule) == (-math.inf, math.inf)


@pytest.mark.usefixtures("term_kernels")
class TestScan:
    """The one scan per chunk, on both bodies: correct, add, stop."""

    @pytest.mark.parametrize("sign,direction", ((1.0, Direction.REJECT_BELOW), (-1.0, Direction.REJECT_ABOVE)))
    def test_a_tie_at_tau_does_not_stop(self, sign, direction):
        # S touches tau = -2 (or +2) at terms 1, 128 (the first chunk's last)
        # and 129 (the second's first) and first passes it at term 200
        n = 300
        sums = np.zeros(n)
        sums[[0, 127, 128]] = -2.0
        sums[199] = -3.0
        X = sign * np.vstack([walk(sums), walk(np.maximum(sums, -2.0))])
        rule = StoppingRule(0.0, sign * -2.0, direction)
        got = _evaluate(walk_model(sums), X, n, 0.0, rule)
        assert list(map(bits, got)) == [(int(-sign), (sign * -2.0).hex(), 200, True), (1, (0.0).hex(), n, False)]
        for j in range(2):
            assert bits(attentive_predict(walk_model(sums), X[j], rule)) == bits(got[j])

    @pytest.mark.parametrize("n", (129, 640, 641))
    def test_a_crossing_at_the_last_term_is_not_an_early_stop(self, n):
        # n = 129 and 641 end on a chunk one term wide; 640 ends the second chunk
        sums = np.full(n, -1.0)
        sums[-1] = -5.0
        rule = StoppingRule(0.0, -2.0, Direction.REJECT_BELOW)
        p = attentive_predict(walk_model(sums), walk(sums), rule)
        assert bits(p) == (-1, (-5.0).hex(), n, False)
        below = sums.copy()
        below[-2] = -3.0  # a crossing at the last term but one stops early
        p = attentive_predict(walk_model(below), walk(below), rule)
        assert bits(p) == (-1, (-2.0).hex(), n - 1, True)

    def test_negative_zero_carries_and_terms(self):
        # every value -0.0 (x = -0.0, w = 1) or +0.0 (w = -1): the carried sum
        # keeps -0.0 across every chunk edge until a +0.0 value is added
        n = 700
        x = np.full(n, -0.0)
        rule = StoppingRule(0.0, -1.0, Direction.REJECT_BELOW)
        for weights, sign in ((np.ones(n), -1.0), (np.r_[np.ones(n - 1), -1.0], 1.0)):
            model = coordinate_model(weights)
            for p in (full_predict(model, x, 0.0), attentive_predict(model, x, rule)):
                assert p.reported_score == 0.0 and math.copysign(1.0, p.reported_score) == sign
                assert p.terms_evaluated == n and not p.stopped_early
                assert float(p.reported_score).hex() == float(split_prefix(model, x)[-1]).hex()
        mu = np.full(n, -0.0)  # -0.0 - -0.0 is +0.0
        p = full_predict(coordinate_model(np.ones(n), mu=mu), x, 0.0)
        assert math.copysign(1.0, p.reported_score) == 1.0

    def test_every_row_stops_in_the_first_chunk(self, scans):
        rng = np.random.default_rng(8)
        model = monotone_model(rng, "rbf", 1000, -1.0)
        X = rng.standard_normal((6, model.dim))
        prefix = prefix_score_matrix(model, X)
        rule = StoppingRule(0.0, float(prefix[:, :_FIRST_CHUNK].min(axis=1).max()) + 1e-9, Direction.REJECT_BELOW)
        got = _evaluate(model, X, model.n, 0.0, rule)
        assert scans == [6]
        assert (got.terms <= _FIRST_CHUNK).all() and got.stopped.all()
        assert list(map(bits, got)) == list(map(bits, attentive_from_prefix(prefix, rule)))

    def test_live_rows_shrink_chunk_by_chunk(self, scans):
        # rows stop in the first, second and third chunks; three never stop
        n = 3000
        sums = np.zeros((6, n))
        for j, stop in enumerate((5, 300, 2000)):
            sums[j, stop - 1 :] = -9.0
        X = np.vstack([walk(row) for row in sums])
        rule = StoppingRule(0.0, -1.0, Direction.REJECT_BELOW)
        got = _evaluate(walk_model(sums[0]), X, n, 0.0, rule)
        assert scans == [6, 5, 4, 3]
        assert got.terms.tolist() == [5, 300, 2000, n, n, n]

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_rows(self, scans, kind):
        model = random_model(np.random.default_rng(2), kind, n=200)
        got = _evaluate(model, np.empty((0, model.dim)), model.n, 0.0, StoppingRule(0.0, -1.0, Direction.REJECT_BELOW))
        assert len(got) == 0 and scans == []
        assert len(predict_rows(model, np.empty((0, model.dim)), 0.0)) == 0

    @pytest.mark.parametrize("tau", (-math.inf, math.inf, None))
    def test_nothing_can_stop_is_one_scan(self, scans, tau):
        # a sentinel rule or none: one chunk of every term, the full decisions
        rng = np.random.default_rng(6)
        model = random_model(rng, "rbf", n=700)
        X = rng.standard_normal((5, model.dim))
        direction = Direction.REJECT_BELOW if tau == -math.inf else Direction.REJECT_ABOVE
        rule = None if tau is None else StoppingRule(0.0, tau, direction)
        got = _evaluate(model, X, model.n, 0.0, rule)
        assert scans == [5]
        assert list(map(bits, got)) == list(map(bits, full_from_prefix(prefix_score_matrix(model, X), 0.0)))

    def test_one_term_chunks(self):
        rng = np.random.default_rng(4)
        for kind in KINDS:
            model = random_model(rng, kind, n=129)
            x = rng.standard_normal(model.dim)
            prefix = split_prefix(model, x)
            assert budgeted_predict(model, x, 1, 0.0).reported_score == prefix[0]
            for b in (128, 129):
                assert budgeted_predict(model, x, b, 0.0).reported_score == prefix[b - 1]

    def test_coordinate_chunks_are_read_in_their_layout(self):
        # a coordinate chunk of every row is F-ordered (calibrate's column
        # means depend on it), one of the rows still live C-ordered; the
        # scan reads either in place
        rng = np.random.default_rng(7)
        model = random_model(rng, "coordinate", n=900, dim=50)
        X = rng.standard_normal((9, 50))
        raw = predictor._raw(model, X, 0, 128)
        assert raw.flags.f_contiguous and not raw.flags.c_contiguous
        prefix = prefix_score_matrix(model, X)
        rule = StoppingRule(0.0, float(np.median(prefix[:, :-1].min(axis=1))), Direction.REJECT_BELOW)
        got = _evaluate(model, X, model.n, 0.0, rule)
        assert (got.terms <= _FIRST_CHUNK).any() and not got.stopped.all()
        assert list(map(bits, got)) == list(map(bits, attentive_from_prefix(prefix, rule)))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH: RBF distances come from cdist")
class TestSquaredDistances:
    """_terms.c's panel kernel against cdist's "sqeuclidean", byte for byte."""

    @pytest.fixture(autouse=True, params=["dispatched", "plain"])
    def body(self, request, monkeypatch, tmp_path):
        """Run each test on the body the CPU check picks (AVX2 where the CPU
        has it) and on the plain body, built in a cache of the test's own
        with the CPU check defined to 0."""
        kernels = predictor._kernels  # a test may patch the accessor away
        if request.param == "plain":
            monkeypatch.setattr(_native, "FLAGS", (*_native.FLAGS, PLAIN_TERMS_FLAG))
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
            kernels.cache_clear()
        assert kernels() is not None, "cc is on PATH, but _terms.c did not build or load"
        yield
        if request.param == "plain":
            kernels.cache_clear()

    @staticmethod
    def assert_same_bytes(model, X, a, b):
        got = predictor._sqeuclidean(model, X, a, b, 1.0)
        want = predictor._cdist()(X, model.support_vectors[a:b], "sqeuclidean")
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", (1, 2, 3, 7, 8, 9, 16, 17, 64, 300, 784))
    def test_every_bound_pair_equals_cdist(self, dim):
        # n = 21: two full panels and a padded one; every [a, b), aligned or not
        rng = np.random.default_rng(dim)
        model = kernel_model(np.ones(21), rng.standard_normal((21, dim)) * 3.0, KernelSpec.rbf(1.0))
        X = rng.standard_normal((3, dim))
        for a in range(21):
            for b in range(a + 1, 22):
                self.assert_same_bytes(model, X, a, b)

    def test_rows_and_sizes(self):
        rng = np.random.default_rng(7)
        for n in (1, 5, 9, 37, 1003):
            dim = int(rng.integers(1, 40))
            model = kernel_model(np.ones(n), rng.standard_normal((n, dim)), KernelSpec.rbf(2.0))
            for m in (1, 4, 33):
                self.assert_same_bytes(model, rng.standard_normal((m, dim)) * 10.0 ** rng.integers(-3, 4), 0, n)

    def test_zero_distances_and_signed_zeros(self):
        sv = np.array([[0.0, -0.0, 1.5], [-0.0, -0.0, -0.0], [0.25, 0.0, -3.0]] * 3)
        model = kernel_model(np.ones(9), sv, KernelSpec.rbf(1.0))
        X = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, -0.0], [0.25, -0.0, -3.0], [0.0, 0.0, 0.0]])
        for a, b in ((0, 9), (2, 7), (8, 9)):
            self.assert_same_bytes(model, X, a, b)
        d = predictor._sqeuclidean(model, X, 0, 9, 1.0)
        # a row equal to a support vector is at +0.0, whatever the signs of its zeros
        for i, j in ((0, 0), (1, 1), (1, 4), (2, 2), (3, 1), (3, 7)):
            assert d[i, j] == 0.0 and math.copysign(1.0, d[i, j]) == 1.0

    def test_squares_that_overflow_or_underflow(self):
        rng = np.random.default_rng(11)
        scales = np.array([1e200, 1e160, 1e-160, 1e-200, 1.0])
        sv = rng.standard_normal((13, 5)) * scales
        model = kernel_model(np.ones(13), sv, KernelSpec.rbf(1.0))
        X = np.vstack([-sv[:4], rng.standard_normal((2, 5)) * scales])
        self.assert_same_bytes(model, X, 0, 13)
        self.assert_same_bytes(model, X, 3, 12)
        d = predictor._sqeuclidean(model, X, 0, 13, 1.0)
        assert np.isinf(d).all()  # each row has a 1e200 coordinate away from every support vector
        tiny = kernel_model([1.0], [[1e-200, 1e-160]], KernelSpec.rbf(1.0))
        X = np.array([[-1e-200, 0.0], [0.0, 1e-160]])
        self.assert_same_bytes(tiny, X, 0, 1)
        d = predictor._sqeuclidean(tiny, X, 0, 1, 1.0)
        assert 0.0 < d[0, 0] < 1e-300 and d[1, 0] == 0.0  # a subnormal square; squares that underflow to 0

    def test_raw_values_equal_the_cdist_path(self, monkeypatch):
        rng = np.random.default_rng(13)
        model = random_model(rng, "rbf", n=45, dim=17)
        X = rng.standard_normal((6, 17))
        bounds = ((0, 45), (3, 20), (44, 45))
        compiled = [predictor._raw(model, X, a, b) for a, b in bounds]
        monkeypatch.setattr(predictor, "_kernels", lambda: None)
        for got, (a, b) in zip(compiled, bounds):
            assert got.tobytes() == predictor._raw(model, X, a, b).tobytes()

    def test_a_block_the_kernel_cannot_read_is_refused(self):
        model = kernel_model(np.ones(3), np.zeros((3, 4)), KernelSpec.rbf(1.0))
        for X in (np.zeros((4, 2)).T, np.zeros((2, 4), np.float32)):
            with pytest.raises(ValueError, match="an RBF block must be C-ordered float64"):
                predictor._sqeuclidean(model, X, 0, 3, 1.0)

    def test_a_divisor_gives_cdist_divided(self):
        # _raw's exponents: the squared distances over -2 sigma^2, numpy's in-place division
        rng = np.random.default_rng(17)
        sv = np.vstack([rng.standard_normal((20, 6)) * 3.0, np.zeros((1, 6))])
        model = kernel_model(np.ones(21), sv, KernelSpec.rbf(0.7))
        X = np.vstack([rng.standard_normal((3, 6)), np.zeros((1, 6))])  # a row at distance +0.0
        for divisor in (-2.0 * 0.7**2, -2.0, 3.0, 1e-300):
            for a, b in ((0, 21), (5, 13)):
                want = predictor._cdist()(X, model.support_vectors[a:b], "sqeuclidean")
                want /= divisor
                assert predictor._sqeuclidean(model, X, a, b, divisor).tobytes() == want.tobytes()
        assert math.copysign(1.0, predictor._sqeuclidean(model, X, 0, 21, -2.0)[3, 20]) == -1.0

    def test_live_rows_are_read_through_their_indices(self):
        rng = np.random.default_rng(19)
        model = kernel_model(np.ones(37), rng.standard_normal((37, 9)), KernelSpec.rbf(1.0))
        X = rng.standard_normal((7, 9))
        for rows in ([6, 0, 3], [2], [4, 4, 1, 5]):
            index = np.array(rows, dtype=np.int64)
            out = np.empty((len(rows), 30))
            panels = model._addresses[2]
            kernel = predictor._kernels().stst_sqeuclidean
            kernel(X.ctypes.data, index.ctypes.data, len(rows), 9, panels, 3, 33, -2.0, out.ctypes.data)
            assert out.tobytes() == predictor._sqeuclidean(model, X[rows], 3, 33, -2.0).tobytes()

    def test_panel_layout(self):
        sv = np.arange(33.0).reshape(11, 3)
        panels = kernel_model(np.ones(11), sv, KernelSpec.rbf(1.0))._panels
        assert panels.shape == (2, 3, 8) and panels.flags.c_contiguous
        for i in range(11):
            assert panels[i // 8, :, i % 8].tolist() == sv[i].tolist()
        assert not panels[1, :, 3:].any()  # the padding


def scanned(body, raw, mu, w, lo, hi, a, live_rows, sums):
    """One scan of raw by body ("compiled" or "numpy") from running sums
    sums of rows 0..len(sums)-1: (live count, live rows, sums, terms), the
    terms of rows not scanned left at -7."""
    rows = np.array([*live_rows, 99], dtype=np.int64)  # one slot past the live rows, never read
    s, terms = sums.copy(), np.full(len(sums), -7)
    live = len(live_rows)
    if body == "numpy":
        count = predictor._scan(raw.copy(order="K"), mu, w, lo, hi, a, rows, live, s, terms)
    else:
        args = (mu.ctypes.data, w.ctypes.data, lo, hi, a, rows.ctypes.data, live, s.ctypes.data, terms.ctypes.data)
        steps = [stride // 8 for stride in raw.strides]
        count = predictor._kernels().stst_scan(raw.ctypes.data, *steps, raw.shape[1], *args)
    return count, rows[:count].tolist(), s.tobytes(), terms.tolist()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH: every chunk is scanned by _scan")
class TestCompiledScan:
    """_terms.c's stst_scan against its numpy body, _scan, byte for byte."""

    @staticmethod
    def layouts(raw):
        # C-ordered, F-ordered (the coordinate gather), and a strided view
        wide = np.repeat(raw, 2, axis=1)
        return raw, np.asfortranarray(raw), wide[:, ::2]

    @staticmethod
    def assert_same(*args):
        got, want = scanned("compiled", *args), scanned("numpy", *args)
        assert got == want
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_random_chunks_every_layout(self, seed):
        rng = np.random.default_rng(seed)
        m, width, a = 7, int(rng.integers(1, 40)), int(rng.integers(0, 5))
        mu = rng.standard_normal(a + width + 3) * 0.1
        w = rng.standard_normal(a + width + 3)
        sums = rng.standard_normal(m)
        sums[0] = -0.0
        live_rows = rng.permutation(m)[: int(rng.integers(1, m + 1))]
        raw = rng.standard_normal((len(live_rows), width))
        raw[0, 0] = -0.0
        walks = np.cumsum((raw - mu[a : a + width]) * w[a : a + width], axis=1)
        # each tau as a lower bound, as an upper one, no bound, and two finite bounds
        bounds = [(-math.inf, math.inf), tuple(map(float, np.quantile(walks, (0.3, 0.7))))]
        for tau in (float(np.median(walks)), 0.0, -1.5):
            bounds += [(tau, math.inf), (-math.inf, tau)]
        for lo, hi in bounds:
            for layout in self.layouts(raw):
                self.assert_same(layout, mu, w, lo, hi, a, live_rows, sums)

    @pytest.mark.parametrize("side", (-1, 1))
    def test_ties_do_not_stop(self, side):
        # every running sum touches the bound side * 2 without passing it, then the last row passes it
        raw = side * np.array([[2.0, 0.0, -2.0, 2.0], [1.0, 1.0, 0.0, -0.0], [2.0, -0.0, 0.0, 1.0]])
        ones, zeros = np.ones(4), np.zeros(4)
        sums = np.full(3, -0.0)
        lo, hi = (-2.0, math.inf) if side < 0 else (-math.inf, 2.0)
        count, rows, s, terms = self.assert_same(raw, zeros, ones, lo, hi, 0, [0, 1, 2], sums)
        assert (count, rows, terms) == (2, [0, 1], [4, 4, 4])
        assert np.frombuffer(s).tolist() == [side * 2.0, side * 2.0, side * 3.0]

    def test_ties_at_both_bounds_do_not_stop(self):
        # rows 0 and 1 touch -2 and 2 without passing either; row 2 passes 2, row 3 passes -2
        raw = np.array([[-2.0, 0.0, 4.0, 0.0], [2.0, -4.0, 4.0, -0.0], [-2.0, 4.0, 1.0, 0.0], [2.0, -4.0, -1.0, 9.0]])
        ones, zeros = np.ones(4), np.zeros(4)
        count, rows, s, terms = self.assert_same(raw, zeros, ones, -2.0, 2.0, 0, [0, 1, 2, 3], np.full(4, -0.0))
        assert (count, rows, terms) == (2, [0, 1], [4, 4, 3, 3])
        assert np.frombuffer(s).tolist() == [2.0, 2.0, 3.0, -3.0]

    def test_negative_zeros(self):
        # -0.0 carried in and -0.0 values keep the sum -0.0; a +0.0 value makes it +0.0
        raw = np.array([[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]])
        bounds = (-1.0, math.inf)
        count, rows, s, terms = self.assert_same(raw, np.zeros(2), np.ones(2), *bounds, 0, [0, 1, 2], np.full(3, -0.0))
        assert [math.copysign(1.0, v) for v in np.frombuffer(s)] == [-1.0, 1.0, 1.0]
        minus = np.full(2, -0.0)  # -0.0 - -0.0 is +0.0
        count, rows, s, terms = self.assert_same(raw[:1], minus, np.ones(2), *bounds, 0, [0], np.full(3, -0.0))
        assert math.copysign(1.0, np.frombuffer(s)[0]) == 1.0

    def test_one_term_and_no_rows(self):
        raw = np.array([[-3.0], [1.0]])
        bounds = (-2.0, math.inf)
        count, rows, s, terms = self.assert_same(raw, np.zeros(9), np.ones(9), *bounds, 8, [1, 0], np.full(2, -0.0))
        assert (count, rows, terms) == (1, [0], [9, 9])
        assert self.assert_same(raw[:0], np.zeros(9), np.ones(9), *bounds, 8, [], np.zeros(2))[0] == 0

    def test_stops_at_the_first_crossing_only(self):
        # the first sum beyond tau stops the row; its sum there is kept
        raw = np.array([[1.0, -4.0, 5.0, -9.0], [0.5, 0.5, 0.5, 0.5]])
        count, rows, s, terms = self.assert_same(raw, np.zeros(4), np.ones(4), -2.0, math.inf, 0, [0, 1], np.zeros(2))
        assert (count, rows, terms, np.frombuffer(s).tolist()) == (1, [1], [2, 4], [-3.0, 2.0])
        # with an upper bound too, row 0 still stops at -3.0 and row 1 passes 1.5 at its last term
        count, rows, s, terms = self.assert_same(raw, np.zeros(4), np.ones(4), -2.0, 1.5, 0, [0, 1], np.zeros(2))
        assert (count, rows, terms, np.frombuffer(s).tolist()) == (0, [], [2, 4], [-3.0, 2.0])


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


class TestComplexFeatures:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_entry_point_rejects(self, kind):
        model = random_model(np.random.default_rng(4), kind, n=5)
        x = np.zeros(model.dim, dtype=complex)
        x[-1] = 1 + 5j
        X = np.zeros((4, model.dim), dtype=complex)
        X[2, 0] = 2j
        below = StoppingRule(0.0, -1.0, Direction.REJECT_BELOW)
        calls = (
            lambda: score_term(model, 0, x),
            lambda: attentive_predict(model, x, below),
            lambda: budgeted_predict(model, x, 1, 0.0),
            lambda: full_predict(model, x),
            lambda: full_predict(model, list(x)),
            lambda: term_matrix(model, X),
            lambda: prefix_score_matrix(model, X),
            lambda: prefix_score_matrix(model, sparse.csr_matrix(X)),
            lambda: predict_rows(model, X, 0.0),
            lambda: predict_rows(model, sparse.csr_matrix(X), 0.0, below),
        )
        for call in calls:
            with pytest.raises(ParameterError, match="^feature (vector|matrix) must be real"):
                call()


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

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            permute_terms(coordinate_model([1.0, 2.0], dim=2), -3)


@pytest.mark.usefixtures("term_kernels")
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

    @pytest.mark.parametrize("shape", [(3, 5), (3, 3), (4,)])
    def test_term_matrix_wrong_shape(self, shape):
        model = coordinate_model([1.0, 2.0, 3.0, 4.0], dim=4)
        with pytest.raises(ParameterError, match=r"feature matrix must have shape \(m, 4\)"):
            term_matrix(model, np.ones(shape))

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


@pytest.mark.usefixtures("term_kernels")
class TestRowBlocks:
    """Batch paths that densify and evaluate a row block at a time."""

    @staticmethod
    def sparse_rows(rng, m, dim):
        X = rng.standard_normal((m, dim))
        X[rng.random((m, dim)) < 0.6] = 0.0
        return X

    @staticmethod
    def small_blocks(monkeypatch, model, rows):
        monkeypatch.setattr(data, "_BLOCK_CELLS", rows * max(model.n, model.dim))

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
        rows = data._block_rows(max(model.n, model.dim))
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

    def test_rule_theta_must_be_theta(self):
        # the row stops at S_1 = -2 < tau and reports tau = -1: against
        # theta -3 that would read +1, where attentive_predict says -1
        model = coordinate_model([-2.0, 5.0], dim=2)
        rule = StoppingRule(theta=0.0, tau=-1.0, direction=Direction.REJECT_BELOW)
        X = np.ones((1, 2))
        assert attentive_predict(model, X[0], rule).label == -1
        with pytest.raises(ParameterError, match="differs from the rule's theta"):
            predict_rows(model, X, -3.0, rule)
        p = predict_rows(model, X, rule.theta, rule)
        assert (p.label[0], p.score[0], p.terms[0]) == (-1, -1.0, 1)
        assert predict_rows(model, X, -3.0).label[0] == 1  # no rule, any theta

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, theta):
        # a NaN or +inf theta labelled every row -1, and -inf every row +1
        model = coordinate_model([1.0, -2.0], dim=2)
        X = np.ones((3, 2))
        prefix = prefix_score_matrix(model, X)
        calls = (
            lambda: predict_rows(model, X, theta),
            lambda: budgeted_predict(model, X[0], 1, theta),
            lambda: full_predict(model, X[0], theta),
            lambda: budgeted_from_prefix(prefix, 1, theta),
            lambda: full_from_prefix(prefix, theta),
        )
        for call in calls:
            with pytest.raises(ParameterError, match=r"^theta must be finite, got (nan|inf|-inf)$"):
                call()

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

    def test_writes_exactly_the_path_given(self, tmp_path):
        # np.savez alone would write model.bin.npz
        model = random_model(np.random.default_rng(30), "rbf", n=4)
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]
        assert np.array_equal(load_model(path).support_vectors, model.support_vectors)
        # an open file still works, and gets the same bytes
        buf = io.BytesIO()
        save_model(model, buf)
        assert buf.getvalue() == path.read_bytes()

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

    @pytest.mark.parametrize(
        "kind,key,match",
        [
            ("coordinate", "indices", "coordinate model container missing indices"),
            ("rbf", "support_vectors", "missing field 'support_vectors'"),
            ("rbf", "kernel_kind", "missing field 'kernel_kind'"),
            ("linear", "sigma", "missing field 'sigma'"),
        ],
    )
    def test_missing_kind_field_rejected(self, tmp_path, kind, key, match):
        path = tmp_path / "m.npz"
        save_model(random_model(np.random.default_rng(32), kind, n=2, dim=3), path)
        data = dict(np.load(path))
        del data[key]
        np.savez(path, **data)
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)

    @pytest.mark.parametrize(
        "inputs,scores,match",
        [
            (np.zeros((2, 3)), None, "provided together"),
            (None, np.zeros(2), "provided together"),
            (np.zeros((3, 3)), np.zeros(2), "align row for row"),
            (np.zeros(3), np.zeros(3), "align row for row"),
            (np.zeros((0, 3)), np.zeros(0), "no rows"),
            (np.zeros((2, 3)).astype(str), np.zeros(2), "real numbers"),
            (np.zeros((2, 3)), np.zeros(2).astype(str), "real numbers"),
        ],
    )
    def test_malformed_verification_payload_not_written(self, tmp_path, inputs, scores, match):
        path = tmp_path / "m.npz"
        model = random_model(np.random.default_rng(33), "rbf", n=2, dim=3)
        with pytest.raises(ParameterError, match=match):
            save_model(model, path, verify_inputs=inputs, verify_scores=scores)
        assert not path.exists()

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
            ("coordinate", "weights", np.array([1 + 2j, 1.0]), "weights must be real"),
            ("coordinate", "mu", np.array([0.0, 3j]), "mu must be real"),
            ("coordinate", "theta", np.complex128(1j), "'theta' must be real"),
            ("rbf", "support_vectors", np.full((2, 4), 1 + 1j), "support vectors must be real"),
            ("rbf", "sigma", np.complex128(1.5), "'sigma' must be real"),
            # numbers spelled as strings, which a float64 cast or float() would read
            ("coordinate", "weights", np.array(["1.5", "2"]), "^invalid .*weights must be real numbers, got dtype <U"),
            ("coordinate", "mu", np.array(["0", "0.5"]), "^invalid .*mu must be real numbers, got dtype <U"),
            ("coordinate", "theta", np.str_("0.25"), "^invalid .*'theta' must be real numbers, got dtype <U"),
            ("rbf", "support_vectors", np.full((2, 4), "1.5"), "^invalid .*vectors must be real numbers, got dtype <U"),
            ("rbf", "sigma", np.str_("1.5"), "^invalid .*'sigma' must be real numbers, got dtype <U"),
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

    @pytest.mark.parametrize("sigma", [1e-200, 1e200])
    def test_sigma_without_a_finite_nonzero_width_rejected(self, tmp_path, sigma):
        path = tmp_path / "m.npz"
        save_model(random_model(np.random.default_rng(38), "rbf", n=2, dim=1), path)
        data = dict(np.load(path))
        data["sigma"] = np.float64(sigma)
        np.savez(path, **data)
        with pytest.raises(ModelFormatError, match=r"2 \* sigma\*\*2 finite and nonzero"):
            load_model(path)


@pytest.mark.usefixtures("term_kernels")
class TestCopiedModels:
    """A copied or unpickled model builds its own caches: the cached
    addresses point into the original's arrays."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("how", ("deepcopy", "pickle"))
    def test_a_used_model_copies_without_its_caches(self, kind, how):
        rng = np.random.default_rng(47)
        model = random_model(rng, kind, n=700)
        X = rng.standard_normal((6, model.dim))
        prefix = prefix_score_matrix(model, X)
        rule = StoppingRule(0.0, float(np.median(prefix[:, :-1].min(axis=1))), Direction.REJECT_BELOW)

        def outputs(m):
            per_example = [bits(f(m, x)) for x in X for f in (full_predict, lambda m, x: attentive_predict(m, x, rule))]
            batch = predict_rows(m, X, 0.0, rule)
            return per_example, batch.score.tobytes(), batch.terms.tolist()

        want = outputs(model)
        if predictor._kernels() is not None:
            assert "_addresses" in vars(model)
        copied = copy.deepcopy(model) if how == "deepcopy" else pickle.loads(pickle.dumps(model))
        del model
        gc.collect()
        assert "_addresses" not in vars(copied) and "_panels" not in vars(copied)
        assert outputs(copied) == want
        if predictor._kernels() is not None:
            assert copied._addresses[:2] == (copied.mu.ctypes.data, copied.weights.ctypes.data)


class TestModelValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_and_mu_rejected(self, bad):
        with pytest.raises(ParameterError, match="^weights must be finite"):
            coordinate_model([1.0, bad], dim=2)
        with pytest.raises(ParameterError, match="^mu must be finite"):
            coordinate_model([1.0, 1.0], mu=[0.0, bad], dim=2)
        with pytest.raises(ParameterError, match="^mu must be finite"):
            replace(coordinate_model([1.0, 1.0], dim=2), mu=[bad, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_support_vectors_rejected(self, bad):
        sv = np.zeros((2, 3))
        sv[1, 2] = bad
        for kernel in (KernelSpec.rbf(1.0), KernelSpec.linear()):
            with pytest.raises(ParameterError, match="^support vectors must be finite"):
                kernel_model([1.0, 1.0], sv, kernel)

    def test_complex_arrays_rejected(self):
        with pytest.raises(ParameterError, match="^weights must be real"):
            coordinate_model([1 + 2j, 1.0])
        with pytest.raises(ParameterError, match="^mu must be real"):
            coordinate_model([1.0, 1.0], mu=[0.0, 3j])
        with pytest.raises(ParameterError, match="^mu must be real"):
            replace(coordinate_model([1.0, 1.0]), mu=np.array([1j, 0.0]))
        with pytest.raises(ParameterError, match="^support vectors must be real"):
            kernel_model([1.0, 1.0], np.ones((2, 3)) * (1 + 1j), KernelSpec.linear())
        with pytest.raises(ParameterError, match="^weights must be real"):
            kernel_model(np.array([1.0, 1j]), np.ones((2, 3)), KernelSpec.rbf(1.0))

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(indices=[0.0, 1.7], dim=3.9), "^dim must be an integer, got 3.9"),
            (dict(indices=[0.0, 1.0], dim=3), "^coordinate indices must be integers"),
            (dict(indices=[0, 1], dim=3.9), "^dim must be an integer, got 3.9"),
            (dict(indices=[0, 1], dim=np.float64(2.0)), "^dim must be an integer"),
        ],
    )
    def test_non_integer_indices_and_dim_rejected(self, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            coordinate_model([1.0, 1.0], **kwargs)

    @pytest.mark.parametrize(
        "fields,match",
        [
            (dict(weights=np.ones((2, 1)), mu=np.zeros((2, 1))), "^weights must be a nonempty 1-d array"),
            (dict(weights=[], mu=[], indices=[]), "^weights must be a nonempty 1-d array"),
            (dict(mu=[0.0]), r"^mu shape \(1,\) does not match weights shape \(2,\)"),
            (dict(theta=math.nan), "^theta must be finite"),
            (dict(theta=-math.inf), "^theta must be finite"),
            (dict(dim=0), "^dim must be >= 1, got 0"),
            (dict(indices=None), "^model must have either coordinate indices or support vectors"),
            (dict(kernel=KernelSpec.linear()), "^model must have either coordinate indices or support vectors"),
            (dict(indices=[0, 1, 1]), "^indices must align with weights"),
            (dict(indices=[0, 2]), r"^coordinate indices must lie in \[0, dim\)"),
            (dict(indices=[-1, 0]), r"^coordinate indices must lie in \[0, dim\)"),
            (dict(indices=None, support_vectors=np.zeros((2, 2))), "^kernel models need both"),
            (dict(indices=None, kernel=KernelSpec.linear()), "^kernel models need both"),
            (
                dict(indices=None, support_vectors=np.zeros((2, 3)), kernel=KernelSpec.linear()),
                r"^support vectors must have shape \(n, dim\) = \(2, 2\), got \(2, 3\)",
            ),
        ],
    )
    def test_invalid_fields_rejected(self, fields, match):
        base = dict(weights=[1.0, -1.0], mu=[0.0, 0.0], theta=0.0, dim=2, indices=[0, 1])
        with pytest.raises(ParameterError, match=match):
            predictor.WeightedModel(**{**base, **fields})

    @pytest.mark.parametrize(
        "kind,sigma,match",
        [
            ("poly", None, "^unsupported kernel kind 'poly'"),
            ("rbf", None, "^rbf kernel requires sigma > 0, got None"),
            ("rbf", 0.0, "^rbf kernel requires sigma > 0"),
            ("rbf", -1.0, "^rbf kernel requires sigma > 0"),
            ("rbf", math.nan, "^rbf kernel requires sigma > 0"),
            ("rbf", math.inf, "^rbf kernel requires sigma > 0"),
            # -2 sigma^2 rounds to -0.0, or its square overflows
            ("rbf", 1e-200, r"^rbf kernel requires 2 \* sigma\*\*2 finite and nonzero, got sigma 1e-200"),
            ("rbf", 1e200, r"^rbf kernel requires 2 \* sigma\*\*2 finite and nonzero, got sigma 1e\+200"),
        ],
    )
    def test_invalid_kernel_spec_rejected(self, kind, sigma, match):
        with pytest.raises(ParameterError, match=match):
            KernelSpec(kind, sigma)

    def test_one_dimensional_support_vectors_rejected(self):
        with pytest.raises(ParameterError, match="^support vectors must be a 2-d array"):
            kernel_model([1.0, 1.0], [0.5, 0.5], KernelSpec.linear())

    def test_non_integer_dim_rejected_by_the_model(self):
        with pytest.raises(ParameterError, match="^dim must be an integer, got 2.5"):
            predictor.WeightedModel(weights=[1.0, 1.0], mu=[0.0, 0.0], theta=0.0, dim=2.5, indices=[0, 1])

    def test_integer_indices_and_dim_accepted(self):
        rng = np.random.default_rng(5)
        for indices, dim in (([2, 0], 3), (np.array([1, 0], np.int32), np.int64(2)), (rng.permutation(4), 4)):
            model = coordinate_model(np.ones(len(indices)), indices=indices, dim=dim)
            assert type(model.dim) is int and model.dim == int(dim)
            assert model.indices.dtype == np.intp and model.indices.tolist() == list(indices)
        assert coordinate_model([1.0, 1.0, 1.0]).dim == 3
