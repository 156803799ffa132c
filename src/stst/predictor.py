"""Early-stopping, budgeted, and full evaluation of weighted score sums.

A model is an ordered list of weighted terms. Each term evaluates either one
raw coordinate of the input (coordinate models) or a kernel value against a
stored support vector (kernel models), corrected by a per-term mean mu:

    value_i(x) = w_i * (raw_i(x) - mu_i),    S_i = value_1 + ... + value_i

Attentive prediction walks the terms in order and stops at the first partial
sum strictly beyond the rule's stop threshold; budgeted prediction always
evaluates a fixed count. All evaluation paths share one accumulation scheme
(sequential cumulative sum over term values), so reduced forms agree with the
full predictor bit for bit.

One chunked evaluator decides a block of examples: it evaluates chunks of
128, 512, 2048, ... terms (one chunk when nothing can stop) for the rows
still live, cumsums each chunk with the row's running sum carried in, and
drops the rows that stopped. A per-example predictor is that evaluator on a
block of one. terms_evaluated counts terms up to the stop; the terms
computed run to the end of the stop's chunk. predict_rows runs it on a
whole dense or CSR feature matrix, one row block at a time. The
*_from_prefix batch predictors make the same decisions, through the same
labelling step, off a C-ordered prefix-score matrix, which the sweep reuses
for many rules; prefix_score_matrix fills it one row block at a time, so
neither batch path densifies the whole input. Every path reads raw term
values from one kernel function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Direction, StoppingRule
from .errors import ModelFormatError, ParameterError

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

# Evaluator chunks: _FIRST_CHUNK terms, then _GROWTH times the last.
# Each chunk pays 10-20 us of dispatch, so sizes must grow; a small first
# chunk bounds the terms computed past an early stop. Picked by timing.
_FIRST_CHUNK = 128
_GROWTH = 4

# Batch row blocks: max(1, _BLOCK_CELLS // max(n, dim)) rows at a time, so a
# block's dense features and its term values stay about 1 MB whatever m is.
# Picked by timing full scores of a 2100 x 2000 CSR set (2% dense) on a
# coordinate model: 28-30 ms at 16-65 rows a block, 60 ms at 1024 rows,
# 72-86 ms for the whole set at once. RBF models, where cdist and exp
# dominate, showed no block size clearly better.
_BLOCK_CELLS = 2**17

MODEL_FORMAT_VERSION = 1


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
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.mu, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mu", m)
        if w.ndim != 1 or w.size < 1:
            raise ParameterError("weights must be a nonempty 1-d array")
        if m.shape != w.shape:
            raise ParameterError(f"mu shape {m.shape} does not match weights shape {w.shape}")
        for name, values in (("weights", w), ("mu", m)):
            if not np.isfinite(values).all():
                raise ParameterError(f"{name} must be finite, got a NaN or infinite value")
        if not math.isfinite(self.theta):
            raise ParameterError(f"theta must be finite, got {self.theta!r}")
        if self.dim < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")
        has_coords = self.indices is not None
        has_kernel = self.support_vectors is not None or self.kernel is not None
        if has_coords == has_kernel:
            raise ParameterError("model must have either coordinate indices or support vectors + kernel")
        if has_coords:
            idx = np.asarray(self.indices, dtype=np.intp)
            object.__setattr__(self, "indices", idx)
            if idx.shape != w.shape:
                raise ParameterError("indices must align with weights")
            if idx.size and (idx.min() < 0 or idx.max() >= self.dim):
                raise ParameterError("coordinate indices must lie in [0, dim)")
        else:
            if self.support_vectors is None or self.kernel is None:
                raise ParameterError("kernel models need both support vectors and a kernel spec")
            sv = np.ascontiguousarray(self.support_vectors, dtype=np.float64)
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

    @property
    def is_kernel(self) -> bool:
        return self.kernel is not None

    def with_mu(self, mu: np.ndarray) -> "WeightedModel":
        return replace(self, mu=np.asarray(mu, dtype=np.float64))


def coordinate_model(
    weights,
    *,
    mu=None,
    theta: float = 0.0,
    indices=None,
    dim: int | None = None,
) -> WeightedModel:
    """Model whose term i reads raw coordinate indices[i] (default i)."""
    w = np.asarray(weights, dtype=np.float64)
    if indices is None:
        indices = np.arange(w.size)
    if dim is None:
        dim = int(np.max(indices)) + 1 if w.size else 1
    if mu is None:
        mu = np.zeros_like(w)
    return WeightedModel(weights=w, mu=mu, theta=theta, dim=int(dim), indices=indices)


def kernel_model(
    weights,
    support_vectors,
    kernel: KernelSpec,
    *,
    mu=None,
    theta: float = 0.0,
) -> WeightedModel:
    """Model whose term i evaluates kernel(support_vectors[i], x)."""
    w = np.asarray(weights, dtype=np.float64)
    sv = np.asarray(support_vectors, dtype=np.float64)
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
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.dim:
        raise ParameterError(f"feature vector must have shape ({model.dim},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ParameterError("feature vector has a NaN or infinite value")
    return np.ascontiguousarray(x)  # einsum's additions follow the strides


def _check_X(model: WeightedModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ParameterError(f"feature matrix must have shape (m, {model.dim}), got {X.shape}")
    if not np.isfinite(X).all():
        raise ParameterError("feature matrix has a NaN or infinite value")
    return np.ascontiguousarray(X)


@functools.cache
def _cdist():
    """scipy's cdist, imported on first use: only RBF models need it, and
    importing scipy.spatial costs every process about a quarter second.
    Cached, since an import statement per chunk costs about 1 us."""
    from scipy.spatial.distance import cdist

    return cdist


def _raw(model: WeightedModel, X: np.ndarray, a: int, b: int) -> np.ndarray:
    """Raw evaluator values of terms [a, b) for every row of a checked,
    C-contiguous (m, dim) block: a fresh (m, b - a) array. Each value is the
    same bits whatever the bounds and whatever other rows are in the block."""
    if model.indices is not None:
        return X[:, model.indices[a:b]]
    sv = model.support_vectors[a:b]
    if model.kernel.kind == "linear":
        # a BLAS gemm rounds a row differently with other rows around it
        return np.einsum("ij,kj->ki", sv, X)
    raw = _cdist()(X, sv, "sqeuclidean")
    raw /= -2.0 * model.kernel.sigma**2
    return np.exp(raw, out=raw)


def _terms(model: WeightedModel, X: np.ndarray, a: int, b: int) -> np.ndarray:
    """Corrected values w_i * (raw_i - mu_i) of terms [a, b), made in place."""
    t = _raw(model, X, a, b)
    t -= model.mu[a:b]
    t *= model.weights[a:b]
    return t


def score_term(model: WeightedModel, i: int, x) -> float:
    """Corrected weighted value of term i (0-based): w_i * (raw_i(x) - mu_i)."""
    if not 0 <= i < model.n:
        raise ParameterError(f"term index {i} outside [0, {model.n})")
    return float(_terms(model, _check_x(model, x)[None], i, i + 1)[0, 0])


def _stops(rule: StoppingRule | None) -> bool:
    return rule is not None and not math.isinf(rule.tau)


def _first_crossing(S: np.ndarray, rule: StoppingRule):
    """Per row of S: (any, k) for the first k with S[j, k] strictly beyond
    the rule's tau. S is a chunk of running sums or a whole prefix matrix."""
    crossed = S < rule.tau if rule.direction is Direction.REJECT_BELOW else S > rule.tau
    return crossed.any(axis=1), crossed.argmax(axis=1)


def _outcome(
    terms: np.ndarray, s: np.ndarray, n: int, cap: int, theta: float, rule: StoppingRule | None
) -> Predictions:
    """Label and report each row from its count and its running sum there.

    A row that stopped before cap reports the rule's tau, which lies
    strictly on the rule's side of theta, so labelling every score against
    theta (ties positive) gives it its side's label. stopped is terms < n,
    so a budget below n counts as an early stop. s is overwritten.
    """
    if _stops(rule):
        s[terms < cap] = rule.tau
    return Predictions(label=np.where(s >= theta, 1, -1), score=s, terms=terms, stopped=terms < n)


def _evaluate(
    model: WeightedModel, X: np.ndarray, cap: int, theta: float, rule: StoppingRule | None = None
) -> Predictions:
    """Decide every row of a checked block from its first cap terms.

    A row stops at the first count i < cap with S_i strictly beyond
    rule.tau. Terms are evaluated in chunks (the schedule above, or one
    chunk when nothing can stop) for the rows still live; carrying each
    row's running sum into its chunk's first value makes the chunk's cumsum
    the same additions, fl(S + v), as one whole-row cumsum. Stopped rows
    leave the block, so their later terms are never computed.
    """
    m = X.shape[0]
    terms, s = np.full(m, cap), np.zeros(m)
    rows = np.arange(m)  # each live row's index in the caller's block
    carry = -0.0  # the additive identity: -0.0 + v is v, even for v = -0.0
    stops = _stops(rule)
    size = _FIRST_CHUNK if stops else cap
    a = 0
    while True:
        b = min(a + size, cap)
        seg = _terms(model, X, a, b)
        seg[:, 0] += carry
        np.cumsum(seg, axis=1, out=seg)
        if b == cap:
            s[rows] = seg[:, -1]  # a crossing at cap itself is no early stop
        if stops:
            hit, k = _first_crossing(seg, rule)
            if hit.any():
                terms[rows[hit]] = a + k[hit] + 1
                live = ~hit
                rows, X, seg = rows[live], X[live], seg[live]
        if b == cap or not rows.size:
            return _outcome(terms, s, model.n, cap, theta, rule)
        carry = seg[:, -1]
        a = b
        size *= _GROWTH


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
    n = model.n
    if not 1 <= b <= n:
        raise ParameterError(f"budget must be in [1, {n}], got {b}")
    return _evaluate(model, x[None], b, theta)[0]


def full_predict(model: WeightedModel, x, theta: float | None = None) -> Prediction:
    """Evaluate every term; alias for budgeted_predict with b = n."""
    if theta is None:
        theta = model.theta
    return budgeted_predict(model, x, model.n, theta)


def permute_terms(model: WeightedModel, seed: int) -> WeightedModel:
    """Reorder terms (and their mu entries) by a seeded uniform permutation."""
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
# of about _BLOCK_CELLS cells: each block is densified and checked alone, so
# no whole-input dense copy is made. predict_rows decides every row through
# the chunked evaluator, block by block. prefix_score_matrix fills a
# C-ordered (examples, terms) matrix of running sums, block by block, and
# the *_from_prefix functions decide every row of it as a Predictions struct
# of arrays, for any number of rules, without re-evaluating terms.
# term_matrix builds the whole corrected value matrix of a dense input.
# Rows are independent, so these are safe to shard across workers.


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
    step = max(1, _BLOCK_CELLS // max(model.n, model.dim))

    def blocks():
        for a in range(0, m, step):
            block = X[a : a + step]
            yield a, a + block.shape[0], _check_X(model, block.toarray() if is_sparse else block)

    return m, blocks()


def prefix_score_matrix(model: WeightedModel, X) -> np.ndarray:
    """Running partial scores S_1..S_n per example: a C-ordered (m, n) array.

    X may be dense or scipy sparse; it is densified one row block at a time.
    """
    m, blocks = _row_blocks(model, X)
    prefix = np.empty((m, model.n))
    for a, b, block in blocks:
        np.cumsum(_terms(model, block, 0, model.n), axis=1, out=prefix[a:b])
    return prefix


def predict_rows(model: WeightedModel, X, theta: float, rule: StoppingRule | None = None) -> Predictions:
    """Full predictions (rule None) or attentive ones under rule for every
    row of X, labelled against theta: row j is full_predict(model, X[j],
    theta), or attentive_predict(model, X[j], rule) when theta is rule.theta.

    X may be dense or scipy sparse; the evaluator takes one row block at a
    time, so no (m, n) array is built.
    """
    m, blocks = _row_blocks(model, X)
    out = Predictions(np.empty(m, np.int64), np.empty(m), np.empty(m, np.int64), np.empty(m, bool))
    for a, b, block in blocks:
        p = _evaluate(model, block, model.n, theta, rule)
        out.label[a:b], out.score[a:b], out.terms[a:b], out.stopped[a:b] = p.label, p.score, p.terms, p.stopped
    return out


def _decide(prefix: np.ndarray, cap: int, theta: float, rule: StoppingRule | None = None) -> Predictions:
    """_evaluate's decisions, read off a whole prefix matrix."""
    m, n = prefix.shape
    terms = np.full(m, cap)
    if _stops(rule):
        hit, k = _first_crossing(prefix[:, :cap], rule)
        terms = np.where(hit, k + 1, cap)
    return _outcome(terms, prefix[np.arange(m), terms - 1], n, cap, theta, rule)


def attentive_from_prefix(prefix: np.ndarray, rule: StoppingRule) -> Predictions:
    """Attentive predictions for every row of a prefix-score matrix."""
    return _decide(prefix, prefix.shape[1], rule.theta, rule)


def budgeted_from_prefix(prefix: np.ndarray, b: int, theta: float) -> Predictions:
    """Budgeted predictions at budget b for every row of a prefix matrix."""
    n = prefix.shape[1]
    if not 1 <= b <= n:
        raise ParameterError(f"budget must be in [1, {n}], got {b}")
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
    if verify_inputs is not None or verify_scores is not None:
        if verify_inputs is None or verify_scores is None:
            raise ParameterError("verification inputs and scores must be provided together")
        vx = np.asarray(verify_inputs, dtype=np.float64)
        vs = np.asarray(verify_scores, dtype=np.float64)
        if vx.ndim != 2 or vx.shape[0] != vs.shape[0]:
            raise ParameterError("verification inputs and scores must align row for row")
        payload["verify_inputs"] = vx
        payload["verify_scores"] = vs
    np.savez(path, **payload)


def load_model(path) -> WeightedModel:
    """Load a model container; raises ModelFormatError on anything malformed."""
    try:
        with np.load(path, allow_pickle=False) as z:
            data = {k: z[k] for k in z.files}
    except (OSError, ValueError) as exc:
        raise ModelFormatError(f"cannot read model container {path!r}: {exc}") from exc
    for key in ("format_version", "kind", "weights", "mu", "theta", "dim"):
        if key not in data:
            raise ModelFormatError(f"model container missing field {key!r}")
    try:
        return _model_from_fields(data)
    except (TypeError, ValueError) as exc:  # ParameterError included
        raise ModelFormatError(f"invalid model container: {exc}") from exc


def _model_from_fields(data: dict) -> WeightedModel:
    def field(key, scalar=False, integer=False):
        value = data[key]
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


def load_verification(path) -> tuple[np.ndarray, np.ndarray] | None:
    """Return (inputs, scores) bundled in a container, or None if absent."""
    try:
        with np.load(path, allow_pickle=False) as z:
            if "verify_inputs" not in z.files:
                return None
            return z["verify_inputs"], z["verify_scores"]
    except (OSError, ValueError, KeyError) as exc:
        raise ModelFormatError(f"cannot read verification payload from {path!r}: {exc}") from exc
