"""Multichannel bidirectional LSTM classifier, numpy float64 throughout.

Each channel (sdp words, supersense classes, concatenated ancestor chains,
common-ancestor chain) owns an embedding matrix and a forward + backward
LSTM; the final forward state concatenated with the final backward state of
every enabled channel feeds one tanh dense layer and a 2-way softmax.

Index 0 is padding (embedding row pinned to zeros), index 1 is out-of-
vocabulary.  Gate order everywhere is i, f, o, g.  All randomness comes from
numpy's PCG64 generator seeded from the run configuration, so identical
seeds give identical parameters, batches and history.  Evaluation-mode
forward is pure and single-threaded; reductions are plain ordered numpy
sums.
"""

from __future__ import annotations

import base64
import copy
import json
from array import array
from dataclasses import asdict, dataclass
from typing import Iterable, TextIO

import numpy as np

from .errors import (
    DataError,
    DimensionMismatch,
    MalformedVectorLine,
    NonFiniteLoss,
    ShapeMismatch,
)
from .instances import Instance
from .metrics import Metrics, Prediction

PAD_INDEX = 0
OOV_INDEX = 1
PAD_TOKEN = "<pad>"
OOV_TOKEN = "<oov>"

MODEL_VERSION = "2"

_INIT_SCALE = 0.08
_BASE64_BLOCK = 3 * 2**16  # bytes of tensor data per base64 piece


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


# --- vocabularies and encoding ----------------------------------------------


def channel_sequence(instance: Instance, channel: str) -> list[str]:
    """The raw token sequence an instance contributes to a channel."""
    if channel == "words":
        return list(instance.sdp_tokens)
    if channel == "classes":
        return list(instance.sdp_classes)
    if channel == "onto_concat":
        return list(instance.left_chain) + list(instance.right_chain)
    if channel == "onto_common":
        return list(instance.common_chain or [])
    raise ValueError(f"unknown channel {channel!r}")


def build_vocabularies(
    instances: Iterable[Instance],
    extra_words: Iterable[str] | None = None,
) -> dict[str, dict[str, int]]:
    """token -> index per channel; 0 pad, 1 oov, then first-occurrence order.

    `extra_words` (e.g. the words of `load_word_vectors`) extends the words
    channel after the corpus tokens.
    """
    vocabs: dict[str, dict[str, int]] = {
        name: {PAD_TOKEN: PAD_INDEX, OOV_TOKEN: OOV_INDEX} for name in CHANNELS
    }
    materialized = list(instances)
    for name in CHANNELS:
        vocab = vocabs[name]
        for instance in materialized:
            for token in channel_sequence(instance, name):
                if token not in vocab:
                    vocab[token] = len(vocab)
    if extra_words:
        vocab = vocabs["words"]
        for word in extra_words:
            if word not in vocab:
                vocab[word] = len(vocab)
    return vocabs


def _truncate_sdp(seq: list[str], max_len: int) -> list[str]:
    # keep both endpoints, drop middle tokens
    if len(seq) <= max_len:
        return seq
    head = (max_len + 1) // 2
    tail = max_len - head
    return seq[:head] + (seq[len(seq) - tail:] if tail else [])


def _truncate_chain(chain: list[str], max_len: int) -> list[str]:
    # keep the specific end, drop root-side elements
    return chain[:max_len]


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

# Every channel, in model order: the ModelDims field that sizes its
# embedding, and its sequence length from the train settings.
CHANNELS = {
    "words": ("embed_dim_words", lambda train: train.max_sdp_len),
    "classes": ("embed_dim_classes", lambda train: train.max_sdp_len),
    # both chains side by side; _tokens below gives each max_len // 2
    "onto_concat": ("embed_dim_onto", lambda train: 2 * train.max_chain_len),
    "onto_common": ("embed_dim_onto", lambda train: train.max_chain_len),
}


class Encoder:
    """Maps instances to fixed-shape index matrices per channel."""

    def __init__(self, specs: list[ChannelSpec], vocabs: dict[str, dict[str, int]]):
        self.specs = specs
        self.vocabs = vocabs

    def _tokens(self, instance: Instance, spec: ChannelSpec) -> list[str]:
        if spec.name in ("words", "classes"):
            return _truncate_sdp(channel_sequence(instance, spec.name), spec.max_len)
        if spec.name == "onto_concat":
            side = spec.max_len // 2
            return _truncate_chain(list(instance.left_chain), side) + _truncate_chain(
                list(instance.right_chain), side
            )
        return _truncate_chain(channel_sequence(instance, spec.name), spec.max_len)

    def encode(self, instances: list[Instance]) -> EncodedDataset:
        n = len(instances)
        ids: dict[str, np.ndarray] = {}
        for spec in self.specs:
            vocab = self.vocabs[spec.name]
            matrix = np.full((n, spec.max_len), PAD_INDEX, dtype=np.int64)
            for row, instance in enumerate(instances):
                tokens = self._tokens(instance, spec)
                for col, token in enumerate(tokens[: spec.max_len]):
                    matrix[row, col] = vocab.get(token, OOV_INDEX)
            ids[spec.name] = matrix
        labels = np.array(
            [LABEL_TO_INT[i.label] for i in instances], dtype=np.int64
        ) if n else np.zeros(0, dtype=np.int64)
        return EncodedDataset(ids=ids, labels=labels,
                              instance_ids=[i.instance_id for i in instances])


# --- word vectors -------------------------------------------------------------


def load_word_vectors(
    stream: Iterable[str] | TextIO, embed_dim: int
) -> tuple[list[str], np.ndarray]:
    """Words and vectors of a whitespace-separated text vector file.

    Returns the word of each vector line, in file order, and the
    (lines, embed_dim) matrix of their vectors.  The first non-blank line
    may be a "count dim" header; its dim must match.
    """
    words: list[str] = []
    # one flat buffer: small per-line arrays, freed late, fragment the heap
    # and raised the peak memory of the training that follows
    values = array("d")
    first = True
    for lineno, raw in enumerate(stream, start=1):
        parts = raw.split()
        if not parts:
            continue
        if first:
            first = False
            if len(parts) == 2:
                try:
                    _count, dim = int(parts[0]), int(parts[1])
                except ValueError:
                    dim = None
                if dim is not None:
                    if dim != embed_dim:
                        raise DimensionMismatch(
                            f"vector file dim {dim} vs configured dim {embed_dim}"
                        )
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
    return words, np.frombuffer(values).reshape(len(words), embed_dim)


def pretrained_embedding(
    words: list[str], vectors: np.ndarray, vocab: dict[str, int], seed: int
) -> np.ndarray:
    """Words-channel embedding from `load_word_vectors` output: rows of
    in-vocabulary words are copied (a word listed twice keeps its last
    vector), every other row keeps the seeded uniform initialization, and
    the padding row stays zero."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=(len(vocab), vectors.shape[1]))
    for word, vector in zip(words, vectors):
        if word in vocab:
            matrix[vocab[word]] = vector
    matrix[PAD_INDEX] = 0.0
    return matrix


# --- parameters ---------------------------------------------------------------


def init_params(specs: list[ChannelSpec], dense_dim: int, seed: int) -> ModelParams:
    """Uniform [-0.08, 0.08] init from a seeded PCG64 generator; the padding
    embedding row is fixed to zeros and forget-gate biases to 1.0."""
    rng = np.random.default_rng(seed)
    tensors = {
        name: rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=shape)
        for name, shape in tensor_shapes(specs, dense_dim)
    }
    for spec in specs:
        tensors[f"{spec.name}.embedding"][PAD_INDEX] = 0.0
        H = spec.hidden_dim
        for direction in ("fwd", "bwd"):
            tensors[f"{spec.name}.{direction}.b"][H:2 * H] = 1.0  # forget gate
    return ModelParams(specs=specs, tensors=tensors)


# --- forward ------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _lstm_weights(
    tensors: dict[str, np.ndarray], channel: str, direction: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    prefix = f"{channel}.{direction}"
    return tensors[f"{prefix}.W"], tensors[f"{prefix}.R"], tensors[f"{prefix}.b"]


def _lstm_run(
    X: np.ndarray, W: np.ndarray, R: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, list[dict]]:
    """Run the recurrence over (B, T, D) inputs; returns final h and a cache."""
    B, T, _ = X.shape
    H = R.shape[0]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    cache: list[dict] = []
    for t in range(T):
        x = X[:, t, :]
        a = x @ W + h @ R + b
        i = _sigmoid(a[:, 0 * H:1 * H])
        f = _sigmoid(a[:, 1 * H:2 * H])
        o = _sigmoid(a[:, 2 * H:3 * H])
        g = np.tanh(a[:, 3 * H:4 * H])
        c_next = f * c + i * g
        tanh_c = np.tanh(c_next)
        h_next = o * tanh_c
        cache.append(
            {"x": x, "i": i, "f": f, "o": o, "g": g,
             "c_prev": c, "h_prev": h, "tanh_c": tanh_c}
        )
        h, c = h_next, c_next
    return h, cache


def _lstm_backward(
    d_h_final: np.ndarray, cache: list[dict], W: np.ndarray, R: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backprop through time given the gradient at the final hidden state.

    Returns (dW, dR, db, dX) with dX shaped (B, T, D).
    """
    H = R.shape[0]
    T = len(cache)
    B = d_h_final.shape[0]
    D = W.shape[0]
    dW = np.zeros_like(W)
    dR = np.zeros_like(R)
    db = np.zeros_like(b)
    dX = np.zeros((B, T, D))
    dh = d_h_final.copy()
    dc = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        step = cache[t]
        i, f, o, g = step["i"], step["f"], step["o"], step["g"]
        tanh_c = step["tanh_c"]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c ** 2)
        di = dc * g
        df = dc * step["c_prev"]
        dg = dc * i
        da = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                do * o * (1.0 - o),
                dg * (1.0 - g ** 2),
            ],
            axis=1,
        )
        dW += step["x"].T @ da
        dR += step["h_prev"].T @ da
        db += da.sum(axis=0)
        dX[:, t, :] = da @ W.T
        dh = da @ R.T
        dc = dc * f
    return dW, dR, db, dX


def _forward_cache(
    params: ModelParams,
    batch: dict[str, np.ndarray],
    dropout_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    p = params.tensors
    outputs: list[np.ndarray] = []
    channel_cache: dict[str, dict] = {}
    for spec in params.specs:
        if spec.name not in batch:
            raise ShapeMismatch(f"batch lacks channel {spec.name!r}")
        ids = batch[spec.name]
        if ids.ndim != 2 or ids.shape[1] != spec.max_len:
            raise ShapeMismatch(
                f"{spec.name}: expected (*, {spec.max_len}) ids, got {ids.shape}"
            )
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= spec.vocab_size:
            raise ShapeMismatch(f"{spec.name}: token index out of range")
        X = p[f"{spec.name}.embedding"][ids]  # (B, T, D)
        X_rev = X[:, ::-1, :]
        h_fwd, cache_fwd = _lstm_run(X, *_lstm_weights(p, spec.name, "fwd"))
        h_bwd, cache_bwd = _lstm_run(X_rev, *_lstm_weights(p, spec.name, "bwd"))
        outputs.append(np.concatenate([h_fwd, h_bwd], axis=1))
        channel_cache[spec.name] = {
            "ids": ids, "fwd": cache_fwd, "bwd": cache_bwd
        }
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
        "probs": probs,
    }
    return probs, cache


def forward(params: ModelParams, batch: dict[str, np.ndarray]) -> np.ndarray:
    """Class probabilities, one row per batch item (rows sum to 1), without
    dropout."""
    probs, _ = _forward_cache(params, batch)
    return probs


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
) -> tuple[float, dict[str, np.ndarray]]:
    """Analytic gradients of the weighted cross-entropy for one batch.

    Returns (loss value, tensor-name -> gradient) with the names of
    ModelParams.tensors.  Pass no dropout mask when checking against
    finite differences.
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
        ch_cache = cache["channels"][name]
        d_slice = dz[:, offset:offset + 2 * H]
        offset += 2 * H
        dX = {}
        for direction, d_h in (("fwd", d_slice[:, :H]), ("bwd", d_slice[:, H:])):
            dW, dR, db, dX[direction] = _lstm_backward(
                d_h, ch_cache[direction], *_lstm_weights(p, name, direction))
            prefix = f"{name}.{direction}"
            grads[f"{prefix}.W"], grads[f"{prefix}.R"], grads[f"{prefix}.b"] = dW, dR, db
        d_x = dX["fwd"] + dX["bwd"][:, ::-1, :]
        d_emb = np.zeros_like(p[f"{name}.embedding"])
        np.add.at(d_emb, ch_cache["ids"].ravel(), d_x.reshape(-1, d_x.shape[-1]))
        grads[f"{name}.embedding"] = d_emb
    return loss_value, grads


# --- training and prediction ----------------------------------------------------


def _binary_f_score(pred_positive: np.ndarray, gold_positive: np.ndarray) -> float:
    tp = int(np.sum(pred_positive & gold_positive))
    fp = int(np.sum(pred_positive & ~gold_positive))
    fn = int(np.sum(~pred_positive & gold_positive))
    return Metrics.from_counts(tp, fp, fn).f_score


def train(
    params: ModelParams,
    train_data: EncodedDataset,
    dev_data: EncodedDataset,
    config: TrainConfig,
) -> tuple[ModelParams, list[dict]]:
    """Plain mini-batch SGD; per-epoch seeded shuffle.

    History records per-epoch mean train loss and dev F-score.  Returns the
    parameters of the best dev-F epoch (ties: earliest; with no epochs, the
    initial parameters).  Raises NonFiniteLoss with the epoch index if a
    batch loss stops being finite.
    """
    if len(train_data) and (train_data.labels < 0).any():
        raise DataError("unlabeled instance in training data")
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
            for name, tensor in params.tensors.items():
                tensor -= config.learning_rate * grads[name]
            for spec in params.specs:
                params.tensors[f"{spec.name}.embedding"][PAD_INDEX] = 0.0
        train_loss = float(np.mean(batch_losses)) if batch_losses else 0.0
        if len(dev_data):
            probs = forward(params, dev_data.ids)
            dev_f = _binary_f_score(probs[:, 1] >= 0.5, dev_data.labels == 1)
        else:
            dev_f = 0.0
        history.append({"epoch": epoch, "train_loss": train_loss, "dev_f": dev_f})
        if dev_f > best_f:
            best_f = dev_f
            best_params = params.copy()
    return best_params, history


def predict(
    params: ModelParams, data: EncodedDataset, threshold: float = 0.5
) -> list[Prediction]:
    """Evaluation-mode predictions; label is positive iff prob >= threshold."""
    if not len(data):
        return []
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
    """JSON model file: {version, specs, vocabularies, tensors}; tensors are
    {shape, data}, data the base64 of the tensor's little-endian float64
    bytes in row-major order.

    The file is written in pieces, each tensor's data one block of bytes at
    a time, so no tensor is ever held whole as text.  A block is a whole
    number of 3-byte groups, so the blocks' base64 concatenates to the
    tensor's, and the file is the `json.dumps` of the whole payload.
    """
    head = json.dumps(
        {"version": MODEL_VERSION, "specs": [asdict(s) for s in params.specs],
         "vocabularies": vocabs},
        ensure_ascii=False,
    )
    out.write(head[:-1] + ', "tensors": {')
    separator = ""
    for name, tensor in params.tensors.items():
        shape = json.dumps(list(tensor.shape))
        out.write(f'{separator}{json.dumps(name)}: {{"shape": {shape}, "data": "')
        raw = np.ascontiguousarray(tensor, dtype="<f8").reshape(-1).view(np.uint8)
        for start in range(0, len(raw), _BASE64_BLOCK):
            out.write(base64.b64encode(raw[start:start + _BASE64_BLOCK]).decode("ascii"))
        out.write('"}')
        separator = ", "
    out.write("}}\n")


def load_model(stream: TextIO) -> tuple[ModelParams, dict[str, dict[str, int]]]:
    """Read a model file written by `save_model`.

    Every tensor's data must decode to the shape `init_params` gives it for
    the file's specs, and every channel's vocabulary must map the spec's
    size of tokens one to one onto 0..size-1, with <pad> at 0 and <oov> at
    1; a file that disagrees raises ShapeMismatch, one that is not a model
    file (including a version-1 file) DataError.
    """
    try:
        payload = json.load(stream)
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError("model file is not a JSON object")
    version = payload.get("version")
    if version != MODEL_VERSION:
        raise DataError(f"unsupported model version {version!r}")
    raw_specs = payload.get("specs")
    tensors = payload.get("tensors")
    vocabs = payload.get("vocabularies")
    if not (isinstance(raw_specs, list) and isinstance(tensors, dict)
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

    def read(name: str, shape: tuple[int | None, ...]) -> np.ndarray:
        # None in `shape` accepts any size along that axis.  The entry is
        # popped, so its data string is freed once decoded.
        entry = tensors.pop(name, None)
        if entry is None:
            raise ShapeMismatch(f"model file lacks tensor {name!r}")
        try:
            raw = base64.b64decode(entry["data"], validate=True)
            array = np.frombuffer(raw, dtype="<f8").reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise ShapeMismatch(f"tensor {name!r}: {exc}") from exc
        if not np.isfinite(array).all():
            raise ShapeMismatch(f"tensor {name!r} holds a non-finite value")
        if array.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(array.shape, shape)
        ):
            raise ShapeMismatch(f"tensor {name!r} has shape {array.shape}, expected {shape}")
        # frombuffer's view is read-only, and `train` updates tensors in place
        return array.astype(np.float64)

    dense_w = read("dense.W", dict(tensor_shapes(specs, None))["dense.W"])
    loaded = {name: dense_w if name == "dense.W" else read(name, shape)
              for name, shape in tensor_shapes(specs, dense_w.shape[1])}
    return ModelParams(specs=specs, tensors=loaded), vocabs
