"""Early-stopping, budgeted, and full evaluation of weighted score sums.

A model is an ordered list of weighted terms. Each term evaluates either one
raw coordinate of the input (coordinate models) or a kernel value against a
stored support vector (kernel models), corrected by a per-term mean mu:

    value_i(x) = w_i * (raw_i(x) - mu_i),    S_i = value_1 + ... + value_i

Attentive prediction walks the terms in order and stops at the first partial
sum strictly outside two bounds (lo, hi): below lo or above hi, while a sum
equal to a bound goes on. _bounds maps a rule to them: (tau, +inf) for
REJECT_BELOW, (-inf, tau) for REJECT_ABOVE, and (-inf, +inf), which no sum
is outside, for no rule and for the no-stop sentinel (an infinite tau).
Budgeted prediction always evaluates a fixed count. All evaluation paths
share one accumulation scheme (sequential cumulative sum over term values),
so reduced forms agree with the full predictor bit for bit.

One chunked evaluator decides a block of examples: it evaluates chunks of
128, 512, 2048, ... terms (one chunk when both bounds are infinite) for the
rows still live, an index array, and runs one scan over each chunk's raw
values: correct each value, add it to the row's running sum carried in
from the last chunk, and stop the row at its first sum outside (lo, hi),
dropping it from the live rows. A per-example predictor is that evaluator
on a block of one. terms_evaluated counts terms up to the stop; the terms
computed run to the end of the stop's chunk. predict_rows runs it on a
whole dense or CSR feature matrix, one row block at a time, each block
sized by the one block budget of stst.data (_BLOCK_CELLS, through
_block_rows); every batch decision under one rule goes through it. The
sweep, deciding the same rows under many rules, takes each row block's
running sums (_prefix_rows) and keeps only what its grid reads.
prefix_score_matrix stacks those blocks into one C-ordered (m, n) matrix,
which the *_from_prefix predictors decide through the same labelling step,
searching it a row block at a time; no command builds it. Every path reads
raw term values from one kernel function.

_terms.c, compiled on first use (stst._native), holds the evaluator's
scan, stst_scan, and the RBF squared distances, stst_sqeuclidean, which
read the live rows through their indices and run over a copy of the
support vectors packed in panels of eight (WeightedModel._panels, n * dim
* 8 bytes per model, shared by the model calibrate derives). With
-ffp-contract=off the scan rounds as numpy's in-place correction and
np.cumsum do, and the distances add as scipy's cdist does, so every path
gives the same bits; only np.exp stays numpy's. Without a C compiler the
scan runs in numpy (_scan) and the distances come from cdist: the
fallback, and the reference the compiled code is tested against.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import Direction, StoppingRule
from .data import _block_rows
from .errors import ModelFormatError, ParameterError, check_count, check_finite

__all__ = [
    "KernelSpec",
    "WeightedModel",
    "Prediction",
    "Predictions",
    "coordinate_model",
    "kernel_model",
    "score_term",
    "attentive_predict",
    "budgeted_predict",
    "full_predict",
    "permute_terms",
    "term_matrix",
    "prefix_score_matrix",
    "predict_rows",
    "attentive_from_prefix",
    "budgeted_from_prefix",
    "full_from_prefix",
    "save_model",
    "load_model",
]

# Evaluator chunks (_chunks): _FIRST_CHUNK terms, then _GROWTH times the last.
# A compiled RBF chunk pays about 5 us of dispatch (its distance and scan
# calls and np.exp, on a 2-vCPU x86-64 VM), so sizes must grow; a small
# first chunk bounds the terms computed past an early stop. Picked by
# timing.
_FIRST_CHUNK = 128
_GROWTH = 4

MODEL_FORMAT_VERSION = 1


def _real(values, what: str) -> np.ndarray:
    """values as a float64 array. Complex input is an error: a float64 cast
    would drop the imaginary parts with only a warning."""
    a = np.asarray(values)
    if a.dtype.kind == "c":
        raise ParameterError(f"{what} must be real, got a complex value")
    return a.astype(np.float64, copy=False)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel kind and parameters for kernel models."""

    kind: str  # "linear" | "rbf"
    sigma: float | None = None  # rbf width, feature units

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ParameterError(f"unsupported kernel kind {self.kind!r}")
        if self.kind == "rbf":
            if self.sigma is None or not (self.sigma > 0.0) or math.isinf(self.sigma):
                raise ParameterError(f"rbf kernel requires sigma > 0, got {self.sigma!r}")
            # _raw divides every squared distance by -2 sigma^2
            try:
                width = 2.0 * float(self.sigma) ** 2
            except OverflowError:
                width = math.inf
            if not 0.0 < width < math.inf:
                raise ParameterError(f"rbf kernel requires 2 * sigma**2 finite and nonzero, got sigma {self.sigma!r}")

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls("linear")

    @classmethod
    def rbf(cls, sigma: float) -> "KernelSpec":
        return cls("rbf", sigma)


@dataclass(frozen=True, eq=False)
class WeightedModel:
    """Ordered weighted terms over coordinates or support vectors.

    Term order is the evaluation order; reordering is only ever done through
    permute_terms. mu defaults to zeros, which leaves scores uncorrected;
    attentive stopping on uncorrected (drifting) scores is permitted but voids
    the delta calibration of the stopping rule.
    """

    weights: np.ndarray  # (n,)
    mu: np.ndarray  # (n,)
    theta: float  # prediction threshold bundled with the trained model
    dim: int  # expected feature-vector length
    indices: np.ndarray | None = None  # (n,) coordinate per term
    support_vectors: np.ndarray | None = None  # (n, dim)
    kernel: KernelSpec | None = None

    def __post_init__(self):
        w = _real(self.weights, "weights")
        m = _real(self.mu, "mu")
        if w.ndim != 1 or w.size < 1:
            raise ParameterError("weights must be a nonempty 1-d array")
        if m.shape != w.shape:
            raise ParameterError(f"mu shape {m.shape} does not match weights shape {w.shape}")
        # contiguous: _terms.c reads both through their addresses
        w, m = np.ascontiguousarray(w), np.ascontiguousarray(m)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mu", m)
        for name, values in (("weights", w), ("mu", m)):
            if not np.isfinite(values).all():
                raise ParameterError(f"{name} must be finite, got a NaN or infinite value")
        check_finite("theta", self.theta)
        object.__setattr__(self, "dim", check_count("dim", self.dim, 1))
        has_coords = self.indices is not None
        has_kernel = self.support_vectors is not None or self.kernel is not None
        if has_coords == has_kernel:
            raise ParameterError("model must have either coordinate indices or support vectors + kernel")
        if has_coords:
            idx = np.asarray(self.indices)
            if idx.dtype.kind not in "iu":
                raise ParameterError(f"coordinate indices must be integers, got dtype {idx.dtype}")
            idx = idx.astype(np.intp, copy=False)
            object.__setattr__(self, "indices", idx)
            if idx.shape != w.shape:
                raise ParameterError("indices must align with weights")
            if idx.min() < 0 or idx.max() >= self.dim:
                raise ParameterError("coordinate indices must lie in [0, dim)")
        else:
            if self.support_vectors is None or self.kernel is None:
                raise ParameterError("kernel models need both support vectors and a kernel spec")
            sv = np.ascontiguousarray(_real(self.support_vectors, "support vectors"))
            object.__setattr__(self, "support_vectors", sv)
            if sv.shape != (w.size, self.dim):
                raise ParameterError(
                    f"support vectors must have shape (n, dim) = ({w.size}, {self.dim}), got {sv.shape}"
                )
            if not np.isfinite(sv).all():
                raise ParameterError("support vectors must be finite, got a NaN or infinite value")

    @property
    def n(self) -> int:
        return int(self.weights.size)

    @functools.cached_property
    def _panels(self) -> np.ndarray:
        """The support vectors packed for _terms.c, built on first use:
        rows 8p..8p+7 form panel p, row 8p+q's coordinate j is
        [p, j, q], and the last panel is zero-padded. n * dim * 8 bytes."""
        n, dim = self.support_vectors.shape
        panels = np.zeros((-(-n // 8), dim, 8))
        for q in range(8):
            rows = self.support_vectors[q::8]
            panels[: len(rows), :, q] = rows
        return panels

    @functools.cached_property
    def _addresses(self) -> tuple[int, int, int]:
        """The addresses _terms.c reads mu, the weights and (RBF models,
        else 0) the panels at, read once: each read costs about 1 us."""
        rbf = self.kernel is not None and self.kernel.kind == "rbf"
        return self.mu.ctypes.data, self.weights.ctypes.data, self._panels.ctypes.data if rbf else 0

    def __getstate__(self) -> dict:
        """The fields alone: a copy or an unpickled model builds its own
        caches, since the cached addresses point into this model's arrays
        and are invalid for any other's."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @property
    def is_kernel(self) -> bool:
        return self.kernel is not None


def coordinate_model(
    weights,
    *,
    mu=None,
    theta: float = 0.0,
    indices=None,
    dim: int | None = None,
) -> WeightedModel:
    """Model whose term i reads raw coordinate indices[i] (default i)."""
    w = _real(weights, "weights")
    if indices is None:
        indices = np.arange(w.size)
    if dim is None:
        dim = int(np.max(indices)) + 1 if w.size else 1
    if mu is None:
        mu = np.zeros_like(w)
    return WeightedModel(weights=w, mu=mu, theta=theta, dim=dim, indices=indices)


def kernel_model(
    weights,
    support_vectors,
    kernel: KernelSpec,
    *,
    mu=None,
    theta: float = 0.0,
) -> WeightedModel:
    """Model whose term i evaluates kernel(support_vectors[i], x)."""
    w = _real(weights, "weights")
    sv = _real(support_vectors, "support vectors")
    if sv.ndim != 2:
        raise ParameterError("support vectors must be a 2-d array")
    if mu is None:
        mu = np.zeros_like(w)
    return WeightedModel(
        weights=w, mu=mu, theta=theta, dim=int(sv.shape[1]), support_vectors=sv, kernel=kernel
    )


@dataclass(frozen=True)
class Prediction:
    """Outcome of one predict call.

    stopped_early implies terms_evaluated < n and reported_score equal to the
    rule's tau (early-stopped predictions carry no magnitude).
    """

    label: int  # +1 or -1
    reported_score: float
    terms_evaluated: int
    stopped_early: bool


@dataclass(frozen=True, eq=False)
class Predictions:
    """Outcomes of a batch predict call: aligned arrays, one entry per row.

    p[j] is row j's Prediction, and iterating yields them in row order.
    """

    label: np.ndarray  # (m,) int64, +1 or -1
    score: np.ndarray  # (m,) float64, the reported score
    terms: np.ndarray  # (m,) int64, terms evaluated
    stopped: np.ndarray  # (m,) bool, stopped early

    def __len__(self) -> int:
        return len(self.label)

    def __getitem__(self, j) -> Prediction:
        return Prediction(int(self.label[j]), float(self.score[j]), int(self.terms[j]), bool(self.stopped[j]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _check_x(model: WeightedModel, x) -> np.ndarray:
    x = _real(x, "feature vector")
    if x.ndim != 1 or x.shape[0] != model.dim:
        raise ParameterError(f"feature vector must have shape ({model.dim},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ParameterError("feature vector has a NaN or infinite value")
    return np.ascontiguousarray(x)  # einsum's additions follow the strides


def _check_X(model: WeightedModel, X) -> np.ndarray:
    X = _real(X, "feature matrix")
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ParameterError(f"feature matrix must have shape (m, {model.dim}), got {X.shape}")
    if not np.isfinite(X).all():
        raise ParameterError("feature matrix has a NaN or infinite value")
    return np.ascontiguousarray(X)


@functools.cache
def _cdist():
    """scipy's cdist, the RBF distances without a C compiler and the
    reference _terms.c is tested against. Imported on first use: importing
    scipy.spatial costs every process about a quarter second. Cached, since
    an import statement per chunk costs about 1 us."""
    from scipy.spatial.distance import cdist

    return cdist


@functools.cache
def _kernels():
    """The library of _terms.c, compiled on first use, with its two
    functions typed, or None without a C compiler (RBF distances then come
    from _cdist, and every chunk is scanned by _scan)."""
    import ctypes

    from . import _native

    i64, f64, pointer = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    return _native.load(
        "_terms",
        stst_sqeuclidean=((pointer, pointer, i64, i64, pointer, i64, i64, f64, pointer), None),
        stst_scan=((pointer, i64, i64, i64, pointer, pointer, f64, f64, i64, pointer, i64, pointer, pointer), i64),
    )


def _sqeuclidean(model: WeightedModel, X: np.ndarray, a: int, b: int, divisor: float) -> np.ndarray:
    """Squared distances of every row of X to support vectors [a, b), each
    divided by divisor: a fresh (m, b - a) array, the same bits as cdist's
    "sqeuclidean" divided in place."""
    lib = _kernels()
    if lib is None:
        d = _cdist()(X, model.support_vectors[a:b], "sqeuclidean")
        d /= divisor
        return d
    _check_block(X)
    m, panels_at = X.shape[0], model._addresses[2]
    out = np.empty((m, b - a))
    lib.stst_sqeuclidean(X.ctypes.data, None, m, model.dim, panels_at, a, b, divisor, out.ctypes.data)
    return out


def _check_block(X: np.ndarray) -> None:
    if X.dtype != np.float64 or not X.flags.c_contiguous:  # the kernel reads X through its address
        raise ValueError(f"an RBF block must be C-ordered float64, got {X.dtype}")


def _divisor(model: WeightedModel) -> float:
    """An RBF model's exponents are its squared distances over this."""
    return -2.0 * model.kernel.sigma**2


def _raw(model: WeightedModel, X: np.ndarray, a: int, b: int) -> np.ndarray:
    """Raw evaluator values of terms [a, b) for every row of a checked,
    C-contiguous (m, dim) block: a fresh (m, b - a) array, F-ordered for
    coordinate models (calibrate's column means depend on it). Each value
    is the same bits whatever the bounds and whatever other rows are in
    the block."""
    if model.indices is not None:
        return X[:, model.indices[a:b]]
    if model.kernel.kind == "linear":
        # a BLAS gemm rounds a row differently with other rows around it
        return np.einsum("ij,kj->ki", model.support_vectors[a:b], X)
    raw = _sqeuclidean(model, X, a, b, _divisor(model))
    return np.exp(raw, out=raw)


def _terms(model: WeightedModel, X: np.ndarray, a: int, b: int) -> np.ndarray:
    """Corrected values w_i * (raw_i - mu_i) of terms [a, b), made in place."""
    t = _raw(model, X, a, b)
    t -= model.mu[a:b]
    t *= model.weights[a:b]
    return t


def score_term(model: WeightedModel, i: int, x) -> float:
    """Corrected weighted value of term i (0-based): w_i * (raw_i(x) - mu_i)."""
    check_count("term index", i, 0, model.n - 1)
    return float(_terms(model, _check_x(model, x)[None], i, i + 1)[0, 0])


def _bounds(rule: StoppingRule | None) -> tuple[float, float]:
    """The bounds (lo, hi) a running sum stops strictly outside of under
    rule: the only reader of rule.direction. An infinite tau, the no-stop
    sentinel, gives (-inf, +inf), as no rule does."""
    if rule is None:
        return -math.inf, math.inf
    if rule.direction is Direction.REJECT_BELOW:
        return rule.tau, math.inf
    return -math.inf, rule.tau


def _first_crossing(S: np.ndarray, lo: float, hi: float):
    """Per row of S: (any, k) for the first k with S[j, k] strictly outside
    (lo, hi). S is a chunk of running sums or a block of prefix rows. An
    infinite bound stops nothing, so only a finite one is compared."""
    if lo == -math.inf:
        crossed = S > hi
    elif hi == math.inf:
        crossed = S < lo
    else:
        crossed = S < lo
        crossed |= S > hi
    return crossed.any(axis=1), crossed.argmax(axis=1)


def _scan(raw, mu, w, lo: float, hi: float, a: int, rows, live: int, s, terms) -> int:
    """The numpy body of _terms.c's stst_scan, with its contract: the path
    without a C compiler and the reference the compiled scan is tested
    against. raw holds terms [a, a + width) of the live rows rows[:live],
    row for row, and is overwritten. Each row's corrected values are added
    to its running sum s[j] in order, until the first sum strictly outside
    (lo, hi); s[j] gets that sum and terms[j] the count added. The rows
    that did not stop move to the front of rows; returns their count."""
    width = raw.shape[1]
    live_rows = rows[:live]
    raw -= mu[a : a + width]
    raw *= w[a : a + width]
    raw[:, 0] += s[live_rows]  # the carried sum: fl(S + v) as one whole-row cumsum adds it
    np.cumsum(raw, axis=1, out=raw)
    hit, first = _first_crossing(raw, lo, hi)
    k = np.where(hit, first, width - 1)
    s[live_rows] = raw[np.arange(live), k]
    terms[live_rows] = a + k + 1
    kept = live_rows[~hit]
    rows[: kept.size] = kept
    return kept.size


def _outcome(
    terms: np.ndarray, s: np.ndarray, n: int, cap: int, theta: float, rule: StoppingRule | None
) -> Predictions:
    """Label and report each row from its count and its running sum there.

    A row that stopped before cap crossed the rule's one finite bound, tau,
    and reports it; tau lies strictly on the rejected side of theta, so
    labelling every score against theta (ties positive) gives the row that
    side's label. stopped is terms < n, so a budget below n counts as an
    early stop. s is overwritten.
    """
    if rule is not None:
        s[terms < cap] = rule.tau
    return Predictions(label=np.where(s >= theta, 1, -1), score=s, terms=terms, stopped=terms < n)


def _chunks(cap: int, stops: bool):
    """The evaluator's chunks of terms [0, cap), as (a, b) bounds:
    _FIRST_CHUNK terms, then _GROWTH times the last, or one chunk when
    nothing can stop."""
    a, size = 0, _FIRST_CHUNK if stops else cap
    while a < cap:
        b = min(a + size, cap)
        yield a, b
        a, size = b, size * _GROWTH


def _evaluate(
    model: WeightedModel, X: np.ndarray, cap: int, theta: float, rule: StoppingRule | None = None
) -> Predictions:
    """Decide every row of a checked block from its first cap terms.

    A row stops at the first count i < cap with S_i strictly outside
    _bounds(rule), (lo, hi); with both bounds infinite nothing stops.
    Terms are evaluated in chunks (_chunks, one chunk when nothing stops)
    for the live rows, an index array. Each chunk's raw values go to one
    scan (stst_scan, or _scan without a C compiler), which carries each
    row's running sum in, the same additions fl(S + v) as one whole-row
    cumsum, stops rows and drops them from the live rows, so their later
    terms are never computed. One scratch buffer
    holds the running sums, the counts, the live rows and, compiled, an RBF
    chunk's raw values, which the distance kernel writes for the live rows
    alone. A coordinate chunk gathers only its own cells; a linear chunk
    reads a copy of the live rows.
    """
    m = X.shape[0]
    lo, hi = _bounds(rule)
    lib = _kernels()
    rbf = lib is not None and model.kernel is not None and model.kernel.kind == "rbf"
    buf = np.empty(3 * m + (m * cap if rbf else 0))
    s, terms, rows = buf[:m], buf[m : 2 * m].view(np.int64), buf[2 * m : 3 * m].view(np.int64)
    s.fill(-0.0)  # the additive identity: -0.0 + v is v, even for v = -0.0
    rows[:] = np.arange(m)
    if lib is not None:  # each address is read once a call: a read costs about 1 us
        at = buf.ctypes.data
        s_at, terms_at, rows_at, raw_at = at, at + 8 * m, at + 16 * m, at + 24 * m
        mu_at, w_at, panels_at = model._addresses
    if rbf:
        _check_block(X)
        x_at, divisor = X.ctypes.data, _divisor(model)
    live = m
    for a, b in _chunks(cap, -math.inf < lo or hi < math.inf):
        if not live:
            break
        if rbf:  # the live rows' distances, read through their indices
            lib.stst_sqeuclidean(x_at, rows_at, live, model.dim, panels_at, a, b, divisor, raw_at)
            raw = buf[3 * m : 3 * m + live * (b - a)]
            np.exp(raw, out=raw)
        elif live == m:
            raw = _raw(model, X, a, b)
        elif model.indices is not None:
            raw = X[rows[:live, None], model.indices[a:b]]
        else:
            raw = _raw(model, X[rows[:live]], a, b)
        if lib is None:
            live = _scan(raw, model.mu, model.weights, lo, hi, a, rows, live, s, terms)
        else:
            chunk = (raw_at, b - a, 1) if rbf else (raw.ctypes.data, *[step // 8 for step in raw.strides])
            live = lib.stst_scan(*chunk, b - a, mu_at, w_at, lo, hi, a, rows_at, live, s_at, terms_at)
    return _outcome(terms, s, model.n, cap, theta, rule)


def attentive_predict(model: WeightedModel, x, rule: StoppingRule) -> Prediction:
    """Evaluate terms in order, stopping at the first strict boundary crossing.

    REJECT_BELOW stops at the first i < n with S_i < tau and predicts -1;
    REJECT_ABOVE stops on S_i > tau and predicts +1. Boundary-touching
    partial sums continue. A crossing first seen at the final term is not an
    early stop: all terms were already evaluated, so the full score and sign
    label are reported.

    terms_evaluated is the stop position, the paper's cost; up to one chunk
    of terms past it may have been computed.
    """
    return _evaluate(model, _check_x(model, x)[None], model.n, rule.theta, rule)[0]


def budgeted_predict(model: WeightedModel, x, b: int, theta: float) -> Prediction:
    """Evaluate exactly the first b terms and label sign(S_b - theta)."""
    x = _check_x(model, x)
    check_count("budget", b, 1, model.n)
    check_finite("theta", theta)
    return _evaluate(model, x[None], b, theta)[0]


def full_predict(model: WeightedModel, x, theta: float | None = None) -> Prediction:
    """Evaluate every term; alias for budgeted_predict with b = n."""
    if theta is None:
        theta = model.theta
    return budgeted_predict(model, x, model.n, theta)


def _with_mu(model: WeightedModel, mu: np.ndarray) -> WeightedModel:
    """model with mu in place of its own. The support vectors stay the same
    array, so packed panels the model has built go with them."""
    derived = replace(model, mu=mu)
    if "_panels" in vars(model) and derived.support_vectors is model.support_vectors:
        vars(derived)["_panels"] = model._panels
    return derived


def permute_terms(model: WeightedModel, seed: int) -> WeightedModel:
    """Reorder terms (and their mu entries) by a seeded uniform permutation."""
    check_count("seed", seed, 0)
    perm = np.random.default_rng(seed).permutation(model.n)
    kwargs = dict(weights=model.weights[perm], mu=model.mu[perm])
    if model.indices is not None:
        kwargs["indices"] = model.indices[perm]
    else:
        kwargs["support_vectors"] = model.support_vectors[perm]
    return replace(model, **kwargs)


# -- batch evaluation -------------------------------------------------------
#
# Batch inputs are dense arrays or scipy sparse matrices, taken in row blocks
# of _block_rows(max(n, dim)) rows, so a block's dense features and its term
# values stay within the one block budget (data._BLOCK_CELLS, about 1 MB)
# whatever m is: each block is densified and checked alone, so no
# whole-input dense copy is made. predict_rows decides every row through
# the chunked evaluator, block by block, with no (m, n) array: the batch
# path for one rule. _prefix_rows gives one block's running sums, the step
# the sweep streams for its many rules over the same rows.
# prefix_score_matrix stacks those blocks into a C-ordered (examples, terms)
# matrix, m * n * 8 bytes, and the *_from_prefix functions decide every row
# of it as a Predictions struct of arrays without re-evaluating terms; no
# code in the package calls them. term_matrix builds the whole corrected
# value matrix of a dense input. Rows are independent, so these are safe to
# shard across workers.


def term_matrix(model: WeightedModel, X) -> np.ndarray:
    """Corrected weighted term values for every example: shape (m, n)."""
    return _terms(model, _check_X(model, X), 0, model.n)


def _row_blocks(model: WeightedModel, X):
    """m and an iterator of (a, b, block): X's rows [a, b) as a checked,
    C-contiguous dense block. X is a dense array or a scipy sparse matrix;
    its shape is checked before any block is built, its values block by
    block."""
    is_sparse = hasattr(X, "tocsr")
    X = X.tocsr() if is_sparse else np.asarray(X)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ParameterError(f"feature matrix must have shape (m, {model.dim}), got {X.shape}")
    m = X.shape[0]
    step = _block_rows(max(model.n, model.dim))

    def blocks():
        for a in range(0, m, step):
            block = X[a : a + step]
            yield a, a + block.shape[0], _check_X(model, block.toarray() if is_sparse else block)

    return m, blocks()


def _prefix_rows(model: WeightedModel, block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Running partial scores S_1..S_n of every row of a checked block, into
    out or a new C-ordered array (the coordinate gather is F-ordered, and
    the sweep reads each row's cells in place)."""
    t = _terms(model, block, 0, model.n)
    return np.cumsum(t, axis=1, out=np.empty(t.shape) if out is None else out)


def prefix_score_matrix(model: WeightedModel, X) -> np.ndarray:
    """Running partial scores S_1..S_n per example: a C-ordered (m, n) array.

    X may be dense or scipy sparse; it is densified one row block at a time.
    """
    m, blocks = _row_blocks(model, X)
    prefix = np.empty((m, model.n))
    for a, b, block in blocks:
        _prefix_rows(model, block, out=prefix[a:b])
    return prefix


def predict_rows(model: WeightedModel, X, theta: float, rule: StoppingRule | None = None) -> Predictions:
    """Full predictions (rule None) or attentive ones under rule for every
    row of X, labelled against theta: row j is full_predict(model, X[j],
    theta), or attentive_predict(model, X[j], rule). A rule's theta must be
    theta: a stopped row reports rule.tau, which is on the rejected side of
    rule.theta only.

    X may be dense or scipy sparse; the evaluator takes one row block at a
    time, so no (m, n) array is built.
    """
    check_finite("theta", theta)
    if rule is not None and theta != rule.theta:
        raise ParameterError(f"theta {theta!r} differs from the rule's theta {rule.theta!r}")
    m, blocks = _row_blocks(model, X)
    out = Predictions(np.empty(m, np.int64), np.empty(m), np.empty(m, np.int64), np.empty(m, bool))
    for a, b, block in blocks:
        p = _evaluate(model, block, model.n, theta, rule)
        out.label[a:b], out.score[a:b], out.terms[a:b], out.stopped[a:b] = p.label, p.score, p.terms, p.stopped
    return out


def _decide(prefix: np.ndarray, cap: int, theta: float, rule: StoppingRule | None = None) -> Predictions:
    """_evaluate's decisions, read off a whole prefix matrix. A rule's first
    crossings are searched _block_rows(cap) rows at a time, so no mask of
    the whole matrix is built; with no rule every row runs to cap."""
    m, n = prefix.shape
    terms = np.full(m, cap)
    if rule is not None:
        step = _block_rows(cap)
        for a in range(0, m, step):
            hit, k = _first_crossing(prefix[a : a + step, :cap], *_bounds(rule))
            terms[a : a + step][hit] = k[hit] + 1
    return _outcome(terms, prefix[np.arange(m), terms - 1], n, cap, theta, rule)


def attentive_from_prefix(prefix: np.ndarray, rule: StoppingRule) -> Predictions:
    """Attentive predictions for every row of a prefix-score matrix."""
    return _decide(prefix, prefix.shape[1], rule.theta, rule)


def budgeted_from_prefix(prefix: np.ndarray, b: int, theta: float) -> Predictions:
    """Budgeted predictions at budget b for every row of a prefix matrix."""
    check_count("budget", b, 1, prefix.shape[1])
    check_finite("theta", theta)
    return _decide(prefix, b, theta)


def full_from_prefix(prefix: np.ndarray, theta: float) -> Predictions:
    return budgeted_from_prefix(prefix, prefix.shape[1], theta)


# -- serialization ----------------------------------------------------------
#
# Models travel as .npz containers. Arrays are stored as float64 without any
# textual formatting, so a save/load round trip reproduces scores bit for
# bit. Optional verify_inputs/verify_scores arrays let an exporter bundle its
# own decision values for post-load verification (see trainer.import_kernel_model).


def save_model(
    model: WeightedModel,
    path,
    verify_inputs: np.ndarray | None = None,
    verify_scores: np.ndarray | None = None,
) -> None:
    payload = {
        "format_version": np.int64(MODEL_FORMAT_VERSION),
        "kind": np.str_("kernel" if model.is_kernel else "coordinate"),
        "weights": model.weights,
        "mu": model.mu,
        "theta": np.float64(model.theta),
        "dim": np.int64(model.dim),
    }
    if model.is_kernel:
        payload["support_vectors"] = model.support_vectors
        payload["kernel_kind"] = np.str_(model.kernel.kind)
        payload["sigma"] = np.float64(model.kernel.sigma if model.kernel.sigma is not None else -1.0)
    else:
        payload["indices"] = model.indices.astype(np.int64)
    verify = _verification_set(model, verify_inputs, verify_scores)
    if verify is not None:
        payload["verify_inputs"], payload["verify_scores"] = verify
    if isinstance(path, (str, os.PathLike)):
        # np.savez given a name appends ".npz" to one that lacks it
        with open(path, "wb") as handle:
            np.savez(handle, **payload)
    else:
        np.savez(path, **payload)


def _verification_set(model: WeightedModel, inputs, scores) -> tuple[np.ndarray, np.ndarray] | None:
    """A verification set as float64 (inputs, scores), or None when neither
    half is given; raises ParameterError unless both halves are given, are
    real numbers, and hold one score for each of one or more finite inputs
    of the model's dimension."""
    if inputs is None and scores is None:
        return None
    if inputs is None or scores is None:
        raise ParameterError("verification inputs and scores must be provided together")
    vx, vs = np.asarray(inputs), np.asarray(scores)
    if vx.dtype.kind not in "iuf" or vs.dtype.kind not in "iuf":
        # a float64 cast would read strings of digits as numbers
        raise ParameterError(f"verification inputs and scores must be real numbers, got {vx.dtype} and {vs.dtype}")
    if vx.ndim != 2 or vs.shape != vx.shape[:1]:
        raise ParameterError("verification inputs and scores must align row for row")
    if vx.shape[0] == 0:
        raise ParameterError("verification set has no rows")
    return _check_X(model, vx), vs.astype(np.float64, copy=False)


def load_model(path) -> WeightedModel:
    """Load a model container; raises ModelFormatError on anything malformed."""
    return _load(path)[0]


def _load(path) -> tuple[WeightedModel, dict]:
    """The model in a container and all of the container's fields, from one read."""
    try:
        with np.load(path, allow_pickle=False) as z:
            data = {k: z[k] for k in z.files}
    except (OSError, ValueError) as exc:
        raise ModelFormatError(f"cannot read model container {path!r}: {exc}") from exc
    for key in ("format_version", "kind", "weights", "mu", "theta", "dim"):
        if key not in data:
            raise ModelFormatError(f"model container missing field {key!r}")
    try:
        return _model_from_fields(data), data
    except (TypeError, ValueError) as exc:  # ParameterError included
        raise ModelFormatError(f"invalid model container: {exc}") from exc


def _model_from_fields(data: dict) -> WeightedModel:
    def field(key, scalar=False, integer=False):
        value = data[key]
        if value.dtype.kind == "c":
            raise ModelFormatError(f"model container field {key!r} must be real, got dtype {value.dtype}")
        if scalar and value.ndim != 0:
            raise ModelFormatError(f"model container field {key!r} must be a scalar, got shape {value.shape}")
        if integer and not np.issubdtype(value.dtype, np.integer):
            raise ModelFormatError(f"model container field {key!r} must be integer, got dtype {value.dtype}")
        return value[()] if scalar else value

    version = int(field("format_version", scalar=True, integer=True))
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")
    kind = str(field("kind", scalar=True))
    fields = {
        "weights": data["weights"],
        "mu": data["mu"],
        "theta": float(field("theta", scalar=True)),
        "dim": int(field("dim", scalar=True, integer=True)),
    }
    if kind == "coordinate":
        if "indices" not in data:
            raise ModelFormatError("coordinate model container missing indices")
        return WeightedModel(**fields, indices=field("indices", integer=True))
    if kind == "kernel":
        for key in ("support_vectors", "kernel_kind", "sigma"):
            if key not in data:
                raise ModelFormatError(f"kernel model container missing field {key!r}")
        kernel_kind = str(field("kernel_kind", scalar=True))
        sigma = float(field("sigma", scalar=True))
        spec = KernelSpec(kernel_kind, sigma if kernel_kind == "rbf" else None)
        return WeightedModel(**fields, support_vectors=data["support_vectors"], kernel=spec)
    raise ModelFormatError(f"unknown model kind {kind!r}")
