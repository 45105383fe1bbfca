"""Multichannel bidirectional LSTM classifier, numpy float64 throughout.

Each channel (sdp words, supersense classes, concatenated ancestor chains,
common-ancestor chain) owns an embedding matrix and a forward + backward
LSTM; the final forward state concatenated with the final backward state of
every enabled channel feeds one tanh dense layer and a 2-way softmax.  A
row's sequence ends at its last non-padding id, so padding past it does not
change any output.

Index 0 is padding (embedding row pinned to zeros), index 1 is out-of-
vocabulary.  Gate order everywhere is i, f, o, g.  All randomness comes from
numpy's PCG64 generator seeded from the run configuration, so identical
seeds give identical parameters, batches and history.  Evaluation-mode
forward is pure and single-threaded; reductions are plain ordered numpy
sums.
"""

from __future__ import annotations

import binascii
import copy
import itertools
import json
import math
import warnings
from array import array
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from .errors import (
    DataError,
    DimensionMismatch,
    MalformedVectorLine,
    NonFiniteLoss,
    ShapeMismatch,
)
from .instances import Instance
from .metrics import require_labeled, score

PAD_INDEX = 0
OOV_INDEX = 1
PAD_TOKEN = "<pad>"
OOV_TOKEN = "<oov>"

MODEL_VERSION = "3"

_INIT_SCALE = 0.08
_HEX_BLOCK = 2**16  # bytes of tensor data per hex piece
_EVAL_ROWS = 256  # most rows per `forward` chunk
_COPY_ROWS = 4096  # most vector rows per `pretrained_embedding` copy


@dataclass
class ChannelSpec:
    name: str
    vocab_size: int
    embed_dim: int
    hidden_dim: int
    max_len: int


@dataclass
class ModelDims:
    embed_dim_words: int = 100
    embed_dim_classes: int = 50
    embed_dim_onto: int = 50
    hidden_dim: int = 64
    dense_dim: int = 64


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 20
    batch_size: int = 16
    dropout_keep: float = 0.5
    seed: int = 1
    max_sdp_len: int = 15
    max_chain_len: int = 10
    class_weight_positive: float = 1.0


@dataclass
class ModelParams:
    specs: list[ChannelSpec]
    tensors: dict[str, np.ndarray]  # in `tensor_shapes` order

    def copy(self) -> "ModelParams":
        return copy.deepcopy(self)


def tensor_shapes(
    specs: list[ChannelSpec], dense_dim: int | None
) -> list[tuple[str, tuple[int | None, ...]]]:
    """Every tensor of the model as (name, shape), in model-file order, which
    is also the order `init_params` draws them in: per channel the embedding,
    then the forward and the backward LSTM's W, R and b; then the dense and
    output layers.  A None dense_dim leaves that axis open."""
    shapes: list[tuple[str, tuple[int | None, ...]]] = []
    for spec in specs:
        gates = 4 * spec.hidden_dim
        shapes.append((f"{spec.name}.embedding", (spec.vocab_size, spec.embed_dim)))
        for direction in ("fwd", "bwd"):
            shapes += [
                (f"{spec.name}.{direction}.W", (spec.embed_dim, gates)),
                (f"{spec.name}.{direction}.R", (spec.hidden_dim, gates)),
                (f"{spec.name}.{direction}.b", (gates,)),
            ]
    width = sum(2 * s.hidden_dim for s in specs)
    return shapes + [
        ("dense.W", (width, dense_dim)),
        ("dense.b", (dense_dim,)),
        ("out.W", (dense_dim, 2)),
        ("out.b", (2,)),
    ]


# --- the channel registry, vocabularies and encoding ------------------------


class Channel(NamedTuple):
    """An input channel: the ModelDims field that sizes its embedding, its
    length from the train settings, and its token rule.  The rule cuts an
    instance's sequence to at most `limit` tokens; None leaves it uncut."""
    embed_dim_field: str
    max_len: Callable[[TrainConfig], int]
    tokens: Callable[[Instance, int | None], list[str]]


def _sdp_rule(field: str) -> Callable[[Instance, int | None], list[str]]:
    def tokens(instance: Instance, limit: int | None) -> list[str]:
        # keep both endpoints, drop middle tokens
        seq = list(getattr(instance, field))
        if limit is None or len(seq) <= limit:
            return seq
        return seq[:limit - limit // 2] + seq[len(seq) - limit // 2:]
    return tokens


def _concat_tokens(instance: Instance, limit: int | None) -> list[str]:
    # both chains side by side, each cut to half the limit at its specific end
    side = None if limit is None else limit // 2
    return instance.left_chain[:side] + instance.right_chain[:side]


def _common_tokens(instance: Instance, limit: int | None) -> list[str]:
    # keep the specific end, drop root-side elements
    return (instance.common_chain or [])[:limit]


# Every channel, in model order.
CHANNELS = {
    "words": Channel("embed_dim_words", lambda t: t.max_sdp_len, _sdp_rule("sdp_tokens")),
    "classes": Channel("embed_dim_classes", lambda t: t.max_sdp_len, _sdp_rule("sdp_classes")),
    "onto_concat": Channel("embed_dim_onto", lambda t: 2 * t.max_chain_len, _concat_tokens),
    "onto_common": Channel("embed_dim_onto", lambda t: t.max_chain_len, _common_tokens),
}


def channel_specs(channels: Iterable[str], vocabs: dict[str, dict[str, int]],
                  dims: ModelDims, train: TrainConfig) -> list[ChannelSpec]:
    """The spec of each of `channels`, in the order given."""
    return [
        ChannelSpec(name, len(vocabs[name]), getattr(dims, CHANNELS[name].embed_dim_field),
                    dims.hidden_dim, CHANNELS[name].max_len(train))
        for name in channels
    ]


def build_vocabularies(
    instances: Iterable[Instance],
    channels: Iterable[str],
    extra_words: Iterable[str] | None = None,
) -> dict[str, dict[str, int]]:
    """token -> index for each of `channels`, from the uncut sequences; 0 pad,
    1 oov, then first-occurrence order.

    `extra_words` (e.g. the words of `load_word_vectors`) extends the words
    channel after the corpus tokens.
    """
    materialized = list(instances)
    vocabs: dict[str, dict[str, int]] = {}
    for name in channels:
        rule = CHANNELS[name].tokens
        vocab = vocabs[name] = {PAD_TOKEN: PAD_INDEX, OOV_TOKEN: OOV_INDEX}
        for instance in materialized:
            for token in rule(instance, None):
                if token not in vocab:
                    vocab[token] = len(vocab)
    if extra_words:
        vocab = vocabs["words"]
        for word in extra_words:
            if word not in vocab:
                vocab[word] = len(vocab)
    return vocabs


@dataclass
class EncodedDataset:
    ids: dict[str, np.ndarray]  # channel -> (N, T) int64
    labels: np.ndarray  # (N,), 1 positive / 0 negative / -1 unlabeled
    instance_ids: list[str]

    def __len__(self) -> int:
        return len(self.instance_ids)

    def subset(self, indices: np.ndarray) -> "EncodedDataset":
        return EncodedDataset(
            ids={name: arr[indices] for name, arr in self.ids.items()},
            labels=self.labels[indices],
            instance_ids=[self.instance_ids[i] for i in indices],
        )


LABEL_TO_INT = {"positive": 1, "negative": 0, "unlabeled": -1}


class Encoder:
    """Maps instances to fixed-shape index matrices per channel."""

    def __init__(self, specs: list[ChannelSpec], vocabs: dict[str, dict[str, int]]):
        self.specs = specs
        self.vocabs = vocabs

    def encode(self, instances: list[Instance]) -> EncodedDataset:
        """Each channel's matrix is as wide as its longest cut row, which is
        at most `max_len`: padding past a row's end changes no output, and a
        huge `max_len` then allocates nothing."""
        n = len(instances)
        ids: dict[str, np.ndarray] = {}
        for spec in self.specs:
            vocab = self.vocabs[spec.name]
            rule = CHANNELS[spec.name].tokens
            rows = [rule(instance, spec.max_len) for instance in instances]
            matrix = np.full((n, max(map(len, rows), default=0)), PAD_INDEX, dtype=np.int64)
            for row, tokens in enumerate(rows):
                for col, token in enumerate(tokens):
                    matrix[row, col] = vocab.get(token, OOV_INDEX)
            ids[spec.name] = matrix
        labels = np.array(
            [LABEL_TO_INT[i.label] for i in instances], dtype=np.int64
        ) if n else np.zeros(0, dtype=np.int64)
        return EncodedDataset(ids=ids, labels=labels,
                              instance_ids=[i.instance_id for i in instances])


# --- word vectors -------------------------------------------------------------


def _vector_lines(
    stream: TextIO, embed_dim: int
) -> tuple[int | None, Iterator[tuple[int, str]]]:
    """The header's count (None without a header) and the numbered lines
    after the header.  The first non-blank line is a "count dim" header when
    it holds two integers; its dim must be `embed_dim`."""
    numbered = enumerate(stream, start=1)
    for lineno, raw in numbered:
        parts = raw.split()
        if not parts:
            continue
        if len(parts) == 2:
            try:
                count, dim = int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                if dim != embed_dim:
                    raise DimensionMismatch(
                        f"vector file dim {dim} vs configured dim {embed_dim}"
                    )
                return count, numbered
        return None, itertools.chain([(lineno, raw)], numbered)
    return None, numbered


def _scan_vector_lines(
    lines: Iterator[tuple[int, str]], embed_dim: int
) -> tuple[list[str], np.ndarray]:
    """Words and matrix of numbered vector lines, parsed one line at a time
    with float(), so the first bad line raises with its number."""
    words: list[str] = []
    # one flat buffer: small per-line arrays, freed late, fragment the heap
    # and raised the peak memory of the training that follows
    values = array("d")
    linenos = array("q")  # file line of each vector, to name a non-finite one
    for lineno, raw in lines:
        parts = raw.split()
        if not parts:
            continue
        try:
            vector = array("d", [float(v) for v in parts[1:]])
        except ValueError as exc:
            raise MalformedVectorLine(f"line {lineno}: non-numeric component") from exc
        if len(vector) != embed_dim:
            raise DimensionMismatch(
                f"line {lineno}: {len(vector)} components vs configured dim {embed_dim}"
            )
        words.append(parts[0])
        values.extend(vector)
        linenos.append(lineno)
    matrix = np.frombuffer(values).reshape(len(words), embed_dim)
    # float() takes nan, inf and overflowing literals such as 1e400
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise MalformedVectorLine(
            f"line {linenos[int(np.argmin(finite))]}: non-finite component"
        )
    return words, matrix


def load_word_vectors(stream: TextIO, embed_dim: int) -> tuple[list[str], np.ndarray]:
    """Words and vectors of a whitespace-separated text vector file.

    Returns the word of each vector line, in file order, and the
    (lines, embed_dim) matrix of their vectors.  The first non-blank line
    may be a "count dim" header; its dim must match, and its count must be
    the number of vector lines.  A component that is not a finite number
    raises MalformedVectorLine, and so does a wrong count.

    numpy's C text parser reads the file in one streamed pass.  When it
    refuses the file, or its matrix is not one finite row of `embed_dim`
    values per vector line, the file is read again from the start by a
    line scan that names the bad line; so `stream` must be seekable.
    """
    count, lines = _vector_lines(stream, embed_dim)
    words: list[str] = []

    def components() -> Iterator[str]:
        # a line holding only a word yields "", which numpy skips, so the
        # shape check below sees one row too few
        for _, raw in lines:
            parts = raw.split(None, 1)
            if parts:
                words.append(parts[0])
                yield parts[1] if len(parts) == 2 else ""

    try:
        with warnings.catch_warnings():
            # a file without vector lines; the scan below gives its matrix
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            matrix = np.loadtxt(components(), dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        matrix = None
    # numpy refuses some text that float() takes, such as 1_000 or non-ASCII
    # digits; the scan loads such a file, and names the bad line of a bad one
    if matrix is None or matrix.shape != (len(words), embed_dim) or not np.isfinite(matrix).all():
        stream.seek(0)
        _, lines = _vector_lines(stream, embed_dim)
        words, matrix = _scan_vector_lines(lines, embed_dim)
    if count is not None and count != len(words):
        raise MalformedVectorLine(f"header count {count} vs {len(words)} vector lines")
    return words, matrix


def pretrained_embedding(
    matrix: np.ndarray, words: list[str], vectors: np.ndarray, vocab: dict[str, int]
) -> None:
    """Copy `load_word_vectors` output into the words-channel embedding
    `matrix` in place: rows of in-vocabulary words take their vector (a word
    listed twice keeps its last one), every other row keeps its value, and
    the padding row stays zero."""
    # row -> the last line of its word, since a later line overwrites an
    # earlier one; words outside the vocabulary collect under None
    source = dict(zip(map(vocab.get, words), range(len(words))))
    source.pop(None, None)
    rows = np.fromiter(source, dtype=np.intp, count=len(source))
    lines = np.fromiter(source.values(), dtype=np.intp, count=len(source))
    # each row appears once, so no block overwrites another; copying in
    # blocks bounds the gathered temporary to `_COPY_ROWS` rows
    for start in range(0, len(rows), _COPY_ROWS):
        block = slice(start, start + _COPY_ROWS)
        matrix[rows[block]] = vectors[lines[block]]
    matrix[PAD_INDEX] = 0.0


# --- parameters ---------------------------------------------------------------


def init_params(specs: list[ChannelSpec], dense_dim: int, seed: int) -> ModelParams:
    """Uniform [-0.08, 0.08] init from a seeded PCG64 generator; the padding
    embedding row is fixed to zeros and forget-gate biases to 1.0."""
    rng = np.random.default_rng(seed)
    try:
        tensors = {
            name: rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=shape)
            for name, shape in tensor_shapes(specs, dense_dim)
        }
    except ValueError as exc:
        # numpy refuses a size past int64 with ValueError ("array is too
        # big", "Maximum allowed dimension exceeded"), not MemoryError
        raise MemoryError(f"cannot allocate the model's tensors: {exc}") from exc
    for spec in specs:
        tensors[f"{spec.name}.embedding"][PAD_INDEX] = 0.0
        H = spec.hidden_dim
        for direction in ("fwd", "bwd"):
            tensors[f"{spec.name}.{direction}.b"][H:2 * H] = 1.0  # forget gate
    return ModelParams(specs=specs, tensors=tensors)


# --- forward ------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _gate_views(gates: np.ndarray) -> list[np.ndarray]:
    """The i, f, o and g quarters of gates of width 4H, as views."""
    H = gates.shape[-1] // 4
    return [gates[..., k * H:(k + 1) * H] for k in range(4)]


def _row_ends(lengths: np.ndarray) -> dict[int, list[int]]:
    """length -> the rows of that length."""
    ends: dict[int, list[int]] = {}
    for row, length in enumerate(lengths.tolist()):
        ends.setdefault(length, []).append(row)
    return ends


def _lstm_run(
    X: np.ndarray, W: np.ndarray, R: np.ndarray, b: np.ndarray, lengths: np.ndarray,
    keep_cache: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run a channel's two directions over (2, T, B, D) inputs as one recurrence.

    W, R and b stack the forward and the backward tensors on a leading axis
    of 2, and X the two directions' inputs, each in its own reading order.
    Row b's sequence is its first `lengths[b]` steps: the loop runs T steps,
    and a row's state after its last step is its result.  Returns that
    (2, B, H) final hidden state (zero for a row of length 0), then the
    (T, 2, B, 4H) activated gates i, f, o, g and the (T+1, 2, B, H) cell and
    hidden states, step 0 being the zero start.  Without `keep_cache` those
    hold one gate slot and two state slots, which the steps reuse in turn.
    """
    _, T, B, _ = X.shape
    H = R.shape[1]
    n = T + 1 if keep_cache else 2  # state slots; step t reads t % n, writes (t + 1) % n
    # sigmoid(a) = (1 + tanh(a / 2)) / 2, so with the i, f and o columns
    # halved (exact in binary) one tanh activates all four gates
    half = np.where(np.arange(4 * H) < 3 * H, 0.5, 1.0)
    W, R, b, shift = W * half, R * half, b[:, None, :] * half, 1.0 - half
    ends = _row_ends(lengths)
    final = np.zeros((2, B, H))
    gates = np.empty((n - 1, 2, B, 4 * H))
    c = np.zeros((n, 2, B, H))
    h = np.zeros((n, 2, B, H))
    for t in range(T):
        now, nxt = t % n, (t + 1) % n
        # x W + h R + b add up in place in the step's gate slot, which then
        # takes the activations: at predict-sized B each (2, B, 4H)
        # temporary saved is several MB of memory traffic
        a = np.matmul(X[:, t], W, out=gates[t % len(gates)])
        a += h[now] @ R
        a += b
        np.tanh(a, out=a)
        a *= half
        a += shift
        i, f, o, g = _gate_views(a)
        c_next = np.multiply(f, c[now], out=c[nxt])
        c_next += i * g
        h_next = np.tanh(c_next, out=h[nxt])
        h_next *= o
        rows = ends.get(t + 1)
        if rows is not None:
            final[:, rows] = h_next[:, rows]
    return final, gates, c, h


def _lstm_backward(
    d_final: np.ndarray, lengths: np.ndarray, X: np.ndarray, W: np.ndarray,
    R: np.ndarray, gates: np.ndarray, c: np.ndarray, h: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backprop through time of `_lstm_run`, given the (2, B, H) gradient at
    each row's final hidden state in both directions.

    Returns (dW, dR, db, dX) stacked like W, R, b and X.  Every factor that
    does not depend on the incoming gradient is computed for all steps
    before the loop, which keeps only the recurrence through h and c; the
    pre-activation gradients of all steps then give dW, dR, db and dX in
    one product or sum each over all T·B rows.
    """
    _, T, B, D = X.shape
    H = R.shape[1]
    i, f, o, g = _gate_views(gates)
    tanh_c = np.tanh(c[1:])
    dc_dh = o * (1.0 - tanh_c ** 2)
    # per step, da = dc * M with the o quarter taking dh * M instead
    M = np.stack((g * i * (1.0 - i), c[:-1] * f * (1.0 - f),
                  tanh_c * o * (1.0 - o), i * (1.0 - g ** 2)), axis=3)
    ends = _row_ends(lengths)
    R_T = R.transpose(0, 2, 1)
    da = np.empty((2, T, B, 4, H))
    dh = np.zeros((2, B, H))
    dc = np.zeros((2, B, H))
    for t in range(T - 1, -1, -1):
        rows = ends.get(t + 1)
        if rows is not None:
            dh[:, rows] += d_final[:, rows]
        dc += dh * dc_dh[t]
        step = np.multiply(dc[:, :, None], M[t], out=da[:, t])
        np.multiply(dh, M[t, :, :, 2], out=step[:, :, 2])
        dh = step.reshape(2, B, 4 * H) @ R_T
        dc *= f[t]
    # explicit sizes: at T = 0 a -1 in these reshapes is ambiguous
    da = da.reshape(2, T * B, 4 * H)
    h_prev = h[:-1].transpose(1, 0, 2, 3).reshape(2, T * B, H)
    dW = X.reshape(2, T * B, D).transpose(0, 2, 1) @ da
    dR = h_prev.transpose(0, 2, 1) @ da
    dX = (da @ W.transpose(0, 2, 1)).reshape(2, T, B, D)
    return dW, dR, da.sum(axis=1), dX


def _forward_cache(
    params: ModelParams,
    batch: dict[str, np.ndarray],
    dropout_mask: np.ndarray | None = None,
    keep_cache: bool = True,
) -> tuple[np.ndarray, dict]:
    p = params.tensors
    outputs: list[np.ndarray] = []
    channel_cache: dict[str, tuple] = {}
    for spec in params.specs:
        if spec.name not in batch:
            raise ShapeMismatch(f"batch lacks channel {spec.name!r}")
        ids = batch[spec.name]
        if ids.ndim != 2 or ids.shape[1] > spec.max_len:
            raise ShapeMismatch(
                f"{spec.name}: expected (*, at most {spec.max_len}) ids, got {ids.shape}"
            )
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= spec.vocab_size:
            raise ShapeMismatch(f"{spec.name}: token index out of range")
        # a row runs to its last non-pad id; an interior pad id is a real step
        lengths = np.max(np.where(ids != PAD_INDEX, np.arange(1, ids.shape[1] + 1), 0),
                         axis=1, initial=0)
        ids = ids[:, :lengths.max(initial=0)]
        steps = np.arange(ids.shape[1])
        # the backward direction reads each row reversed within its length:
        # t -> L-1-t for t < L, and padding stays put, so the index is its
        # own inverse
        rev = np.where(steps < lengths[:, None], lengths[:, None] - 1 - steps, steps)
        both = np.stack((ids, np.take_along_axis(ids, rev, axis=1))).transpose(0, 2, 1)
        X = p[f"{spec.name}.embedding"][both]  # (2, T, B, D)
        W, R, b = (np.stack((p[f"{spec.name}.fwd.{k}"], p[f"{spec.name}.bwd.{k}"]))
                   for k in "WRb")
        final, *lstm_cache = _lstm_run(X, W, R, b, lengths, keep_cache)
        outputs.append(np.hstack(final))  # final fwd state, then final bwd state
        if keep_cache:
            channel_cache[spec.name] = (ids, rev, lengths, X, W, R, *lstm_cache)
    z = np.concatenate(outputs, axis=1)
    mask = dropout_mask if dropout_mask is not None else 1.0
    zd = z * mask
    dense_pre = zd @ p["dense.W"] + p["dense.b"]
    dense = np.tanh(dense_pre)
    logits = dense @ p["out.W"] + p["out.b"]
    probs = softmax(logits)
    cache = {
        "channels": channel_cache,
        "zd": zd,
        "mask": mask,
        "dense": dense,
    }
    return probs, cache


def forward(params: ModelParams, batch: dict[str, np.ndarray]) -> np.ndarray:
    """Class probabilities, one row per batch item (rows sum to 1), without
    dropout.

    The rows run in near-equal contiguous chunks of at most `_EVAL_ROWS`,
    and each chunk keeps only the current h and c of its recurrence, not
    the backprop cache, so memory does not grow with the number of rows.
    """
    rows = len(next(iter(batch.values()), ()))
    chunks = max(1, -(-rows // _EVAL_ROWS))
    # near-equal chunks, not full ones plus a short remainder: a chunk of a
    # few rows takes other BLAS kernels, which move the outputs' last bits
    parts = {name: np.array_split(ids, chunks) for name, ids in batch.items()}
    return np.concatenate([
        _forward_cache(params, {name: split[k] for name, split in parts.items()},
                       keep_cache=False)[0]
        for k in range(chunks)
    ])


# --- loss and gradients ---------------------------------------------------------


def loss(
    probs: np.ndarray, labels: np.ndarray, class_weight_positive: float = 1.0
) -> float:
    """Weighted cross-entropy: -mean(w_y * log p_y), log clamped at 1e-12."""
    weights = np.where(labels == 1, class_weight_positive, 1.0)
    p_true = probs[np.arange(len(labels)), labels]
    return float(-np.mean(weights * np.log(np.maximum(p_true, 1e-12))))


def gradients(
    params: ModelParams,
    batch: dict[str, np.ndarray],
    labels: np.ndarray,
    class_weight_positive: float = 1.0,
    dropout_mask: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]]]:
    """Analytic gradients of the weighted cross-entropy for one batch.

    Returns (loss value, tensor-name -> gradient) with the names of
    ModelParams.tensors.  Each `<channel>.embedding` gradient is row-sparse:
    a pair (rows, row_grads) of the sorted distinct ids the batch reads (its
    columns up to its longest row) and the (len(rows), embed_dim) gradient
    of those rows; every other row's gradient is zero.  The other tensors'
    gradients are dense.  Pass no dropout mask when checking against finite
    differences.
    """
    probs, cache = _forward_cache(params, batch, dropout_mask)
    loss_value = loss(probs, labels, class_weight_positive)

    B = len(labels)
    weights = np.where(labels == 1, class_weight_positive, 1.0)
    dlogits = probs.copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits *= (weights / B)[:, None]

    p = params.tensors
    dense = cache["dense"]
    grads: dict[str, np.ndarray] = {}
    grads["out.W"] = dense.T @ dlogits
    grads["out.b"] = dlogits.sum(axis=0)
    ddense = dlogits @ p["out.W"].T
    dpre = ddense * (1.0 - dense ** 2)
    grads["dense.W"] = cache["zd"].T @ dpre
    grads["dense.b"] = dpre.sum(axis=0)
    dz = (dpre @ p["dense.W"].T) * cache["mask"]

    offset = 0
    for spec in params.specs:
        name, H = spec.name, spec.hidden_dim
        ids, rev, lengths, *lstm_cache = cache["channels"][name]
        d_h = dz[:, offset:offset + 2 * H].reshape(B, 2, H).transpose(1, 0, 2)
        offset += 2 * H
        *stacked, d_x = _lstm_backward(d_h, lengths, *lstm_cache)
        for k, grad in zip("WRb", stacked):
            grads[f"{name}.fwd.{k}"], grads[f"{name}.bwd.{k}"] = grad
        # the reversal index maps the backward direction's (T, B, D) input
        # gradients back to input order
        d_x = d_x[0] + np.take_along_axis(d_x[1], rev.T[:, :, None], axis=0)
        rows, inverse = np.unique(ids.ravel(), return_inverse=True)
        row_grads = np.zeros((len(rows), spec.embed_dim))
        # add.at sums each row's terms in the batch's ravel order, the order
        # of a scatter into the whole table; a sorted segment sum would
        # reorder them and move the trained weights in their last bits
        np.add.at(row_grads, inverse, d_x.transpose(1, 0, 2).reshape(ids.size, spec.embed_dim))
        grads[f"{name}.embedding"] = (rows, row_grads)
    return loss_value, grads


def sgd_step(
    params: ModelParams,
    grads: dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]],
    learning_rate: float,
) -> None:
    """One in-place SGD update from `gradients` output.  An embedding's
    update writes only the rows its batch used, then re-zeroes <pad>."""
    embeddings = {f"{spec.name}.embedding" for spec in params.specs}
    for name, tensor in params.tensors.items():
        if name in embeddings:
            rows, row_grads = grads[name]
            tensor[rows] -= learning_rate * row_grads
            tensor[PAD_INDEX] = 0.0
        else:
            tensor -= learning_rate * grads[name]


# --- training and prediction ----------------------------------------------------


def train(
    params: ModelParams,
    train_data: EncodedDataset,
    dev_data: EncodedDataset,
    config: TrainConfig,
) -> tuple[ModelParams, list[dict]]:
    """Plain mini-batch SGD; per-epoch seeded shuffle.

    History records per-epoch mean train loss and dev F-score.  Returns the
    parameters of the best dev-F epoch (ties: earliest; with no epochs, the
    initial parameters).  Raises DataError before the first epoch if
    either split holds an unlabeled instance, and NonFiniteLoss with the
    epoch index if a batch loss stops being finite.
    """
    require_labeled(train_data.labels, "train split")
    require_labeled(dev_data.labels, "dev split")
    rng = np.random.default_rng(config.seed)
    history: list[dict] = []
    best_params = params.copy()
    best_f = -1.0
    width = params.tensors["dense.W"].shape[0]
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_data))
        batch_losses: list[float] = []
        for start in range(0, len(order), config.batch_size):
            indices = order[start:start + config.batch_size]
            sub = train_data.subset(indices)
            mask = None
            if config.dropout_keep < 1.0:
                mask = (
                    rng.random((len(indices), width)) < config.dropout_keep
                ) / config.dropout_keep
            batch_loss, grads = gradients(
                params, sub.ids, sub.labels, config.class_weight_positive, mask
            )
            if not np.isfinite(batch_loss):
                raise NonFiniteLoss(epoch)
            batch_losses.append(batch_loss)
            sgd_step(params, grads, config.learning_rate)
        train_loss = float(np.mean(batch_losses)) if batch_losses else 0.0
        dev_f = score(forward(params, dev_data.ids)[:, 1], dev_data.labels).f_score
        history.append({"epoch": epoch, "train_loss": train_loss, "dev_f": dev_f})
        if dev_f > best_f:
            best_f = dev_f
            # Into the one snapshot taken before the loop: a fresh copy per
            # improving epoch would hold two copies of every tensor at once.
            for name, tensor in params.tensors.items():
                np.copyto(best_params.tensors[name], tensor)
    return best_params, history


@dataclass
class Prediction:
    instance_id: str
    prob_positive: float
    label: str


def predict(
    params: ModelParams, data: EncodedDataset, threshold: float = 0.5
) -> list[Prediction]:
    """Evaluation-mode predictions; label is positive iff prob >= threshold."""
    probs = forward(params, data.ids)
    out = []
    for iid, p in zip(data.instance_ids, probs[:, 1]):
        label = "positive" if p >= threshold else "negative"
        out.append(Prediction(instance_id=iid, prob_positive=float(p), label=label))
    return out


# --- serialization ----------------------------------------------------------------


def save_model(
    params: ModelParams, vocabs: dict[str, dict[str, int]], out: TextIO
) -> None:
    """Model file, version 3.  Line 1 is the JSON header {version, specs,
    vocabularies, tensors}, tensors being the [name, shape] of every tensor
    in `tensor_shapes` order.  Then each tensor, in that order, has one line:
    the lowercase hex of its little-endian float64 bytes in row-major order.

    Each line is written one block of bytes at a time, so no tensor is ever
    held whole as text.  JSON escapes every line break the reader splits on,
    so the header stays one line whatever the vocabularies hold.
    """
    header = {"version": MODEL_VERSION, "specs": [asdict(s) for s in params.specs],
              "vocabularies": vocabs,
              "tensors": [[name, list(t.shape)] for name, t in params.tensors.items()]}
    out.write(json.dumps(header, ensure_ascii=False) + "\n")
    for tensor in params.tensors.values():
        raw = np.ascontiguousarray(tensor, dtype="<f8").reshape(-1).view(np.uint8)
        for start in range(0, len(raw), _HEX_BLOCK):
            out.write(binascii.hexlify(raw[start:start + _HEX_BLOCK]).decode("ascii"))
        out.write("\n")


def load_model(stream: TextIO) -> tuple[ModelParams, dict[str, dict[str, int]]]:
    """Read a model file written by `save_model`.

    Only the header line goes through JSON.  Before any tensor is read, every
    channel's vocabulary must map the spec's size of tokens one to one onto
    0..size-1, with <pad> at 0 and <oov> at 1, and the header's tensor list
    must be `tensor_shapes` of the specs.  A file that disagrees with its
    specs raises ShapeMismatch, one that is not a version-3 model file
    DataError; so does text after the last tensor.
    """
    try:
        payload = json.loads(stream.readline())
    except json.JSONDecodeError as exc:
        raise DataError(f"model file header is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError("model file header is not a JSON object")
    version = payload.get("version")
    if version != MODEL_VERSION:
        raise DataError(f"unsupported model version {version!r}")
    raw_specs = payload.get("specs")
    listed = payload.get("tensors")
    vocabs = payload.get("vocabularies")
    if not (isinstance(raw_specs, list) and isinstance(listed, list)
            and isinstance(vocabs, dict)):
        raise DataError("model file lacks specs, tensors or vocabularies")
    try:
        specs = [ChannelSpec(**s) for s in raw_specs]
    except TypeError as exc:
        raise DataError(f"bad channel spec: {exc}") from exc
    if not specs:
        raise DataError("model file has no channels")
    for spec in specs:
        sizes = (spec.vocab_size, spec.embed_dim, spec.hidden_dim, spec.max_len)
        if type(spec.name) is not str or spec.name not in CHANNELS or not all(
            type(n) is int and n > 0 for n in sizes
        ):
            raise DataError(f"bad channel spec: {asdict(spec)}")
    if len({spec.name for spec in specs}) != len(specs):
        raise DataError("model file names a channel twice")
    for spec in specs:
        vocab = vocabs.get(spec.name)
        if not isinstance(vocab, dict) or len(vocab) != spec.vocab_size:
            raise ShapeMismatch(f"{spec.name} vocabulary does not have {spec.vocab_size} entries")
        # with as many entries as rows, distinct in-range ints are exactly 0..size-1
        if not all(type(i) is int and 0 <= i < spec.vocab_size for i in vocab.values()):
            raise ShapeMismatch(f"{spec.name} vocabulary has an index outside its embedding")
        if len(set(vocab.values())) != spec.vocab_size:
            raise ShapeMismatch(f"{spec.name} vocabulary gives two tokens one index")
        if vocab.get(PAD_TOKEN) != PAD_INDEX or vocab.get(OOV_TOKEN) != OOV_INDEX:
            raise ShapeMismatch(
                f"{spec.name} vocabulary does not map {PAD_TOKEN} to {PAD_INDEX} "
                f"and {OOV_TOKEN} to {OOV_INDEX}"
            )
    tensors = {name: _read_tensor(stream, name, shape)
               for name, shape in _listed_shapes(specs, listed)}
    if stream.read(1):
        raise DataError("model file has text after its last tensor")
    return ModelParams(specs=specs, tensors=tensors), vocabs


def _listed_shapes(specs: list[ChannelSpec], listed: list) -> list[tuple[str, tuple[int, ...]]]:
    """The header's tensor list, checked to be `tensor_shapes` of the specs
    with the dense width its dense.W gives."""
    if not all(isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list)
               and all(type(n) is int and n > 0 for n in entry[1]) for entry in listed):
        raise DataError("model file tensors are not [name, shape] pairs of positive sizes")
    names = [name for name, _ in listed]
    expected = [name for name, _ in tensor_shapes(specs, None)]
    if names != expected:
        raise ShapeMismatch(f"model file lists tensors {names}, expected {expected}")
    dense_w = dict(listed)["dense.W"]
    shapes = tensor_shapes(specs, dense_w[1] if len(dense_w) == 2 else None)
    for (name, shape), (_, want) in zip(listed, shapes):
        if tuple(shape) != want:
            raise ShapeMismatch(f"tensor {name!r} has shape {tuple(shape)}, expected {want}")
    return shapes


def _read_tensor(stream: TextIO, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The tensor on the stream's next line.  Its hex is read in pieces and
    decoded into one bytearray, which the array wraps with no copy; reading
    stops once the bytes pass the shape's count, so a size in the header
    alone allocates nothing."""
    size = 8 * math.prod(shape)
    raw = bytearray()
    while True:
        piece = stream.readline(2 * _HEX_BLOCK)
        ended = piece.endswith("\n")
        try:
            raw += binascii.unhexlify(piece[:-1] if ended else piece)
        except ValueError as exc:  # binascii.Error is a ValueError
            raise ShapeMismatch(f"tensor {name!r}: {exc}") from exc
        if len(raw) > size:
            raise ShapeMismatch(f"tensor {name!r} has more than the expected {size} bytes")
        if ended or not piece:
            break
    if len(raw) != size:
        raise ShapeMismatch(f"tensor {name!r} has {len(raw)} bytes, expected {size}")
    array = np.frombuffer(raw, dtype="<f8").reshape(shape)  # writable: raw is a bytearray
    if not np.isfinite(array).all():
        raise ShapeMismatch(f"tensor {name!r} holds a non-finite value")
    return array
