"""Vocabulary building, encoding, network forward/backward, training loop."""
import base64
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from biont import model as m
from biont.errors import (
    DataError,
    DimensionMismatch,
    MalformedVectorLine,
    NonFiniteLoss,
    ShapeMismatch,
)
from biont.instances import Instance
from oracle_helpers import finite_difference_gradients, max_relative_error


def make_instance(iid="i0", sdp=None, classes=None, left=None, right=None,
                  common=None, label="positive", sentence="s0"):
    return Instance(
        instance_id=iid,
        sentence_id=sentence,
        pair=(iid + ".a", iid + ".b"),
        sdp_tokens=sdp or ["candidate1", "binds", "candidate2"],
        sdp_classes=classes or ["O", "verb.change", "O"],
        left_chain=left or ["X:2", "X:1"],
        right_chain=right or ["X:3", "X:1"],
        common_chain=common,
        label=label,
    )


def tiny_setup(with_second_channel=True, hidden=2, seed=5):
    """Small two-channel model plus a hand-built batch of two rows."""
    specs = [m.ChannelSpec("words", vocab_size=6, embed_dim=3,
                           hidden_dim=hidden, max_len=4)]
    batch = {"words": np.array([[2, 3, 4, 0], [5, 2, 0, 0]], dtype=np.int64)}
    if with_second_channel:
        specs.append(m.ChannelSpec("classes", vocab_size=4, embed_dim=2,
                                   hidden_dim=hidden, max_len=4))
        batch["classes"] = np.array([[2, 3, 1, 0], [3, 0, 0, 0]], dtype=np.int64)
    params = m.init_params(specs, dense_dim=3, seed=seed)
    labels = np.array([1, 0], dtype=np.int64)
    return params, batch, labels


# --- vocabularies and encoding -------------------------------------------------


def test_build_vocabularies_reserves_pad_and_oov():
    vocabs = m.build_vocabularies([make_instance()])
    for name in m.CHANNELS:
        assert vocabs[name][m.PAD_TOKEN] == 0
        assert vocabs[name][m.OOV_TOKEN] == 1


def test_build_vocabularies_first_occurrence_order():
    instances = [
        make_instance(sdp=["candidate1", "binds", "candidate2"]),
        make_instance(sdp=["candidate2", "blocks", "candidate1"]),
    ]
    vocab = m.build_vocabularies(instances)["words"]
    assert vocab["candidate1"] == 2
    assert vocab["binds"] == 3
    assert vocab["candidate2"] == 4
    assert vocab["blocks"] == 5


def test_build_vocabularies_extra_words_appended():
    vocab = m.build_vocabularies([make_instance()], ["zeta", "binds"])["words"]
    assert vocab["zeta"] == max(vocab.values())
    assert list(vocab).count("binds") == 1


def test_channel_sequences():
    instance = make_instance(common=["X:1"])
    assert m.channel_sequence(instance, "words") == instance.sdp_tokens
    assert m.channel_sequence(instance, "classes") == instance.sdp_classes
    assert m.channel_sequence(instance, "onto_concat") == ["X:2", "X:1", "X:3", "X:1"]
    assert m.channel_sequence(instance, "onto_common") == ["X:1"]
    assert m.channel_sequence(make_instance(common=None), "onto_common") == []


def test_encoder_pads_and_marks_oov():
    instance = make_instance()
    vocabs = m.build_vocabularies([instance])
    spec = m.ChannelSpec("words", len(vocabs["words"]), 3, 2, max_len=5)
    encoded = m.Encoder([spec], vocabs).encode(
        [instance, make_instance(iid="i1", sdp=["novel", "binds"])]
    )
    matrix = encoded.ids["words"]
    assert matrix.shape == (2, 5)
    assert matrix[0].tolist() == [2, 3, 4, 0, 0]
    assert matrix[1].tolist() == [1, 3, 0, 0, 0]  # "novel" -> oov
    assert encoded.labels.tolist() == [1, 1]


def test_encoder_truncates_sdp_keeping_endpoints():
    sdp = ["candidate1", "a", "b", "c", "candidate2"]
    instance = make_instance(sdp=sdp, classes=["O"] * 5)
    vocabs = m.build_vocabularies([instance])
    spec = m.ChannelSpec("words", len(vocabs["words"]), 3, 2, max_len=4)
    encoded = m.Encoder([spec], vocabs).encode([instance])
    vocab = vocabs["words"]
    assert encoded.ids["words"][0].tolist() == [
        vocab["candidate1"], vocab["a"], vocab["c"], vocab["candidate2"],
    ]


def test_encoder_truncates_chains_keeping_specific_end():
    instance = make_instance(common=["X:9", "X:5", "X:1"])
    vocabs = m.build_vocabularies([instance])
    spec = m.ChannelSpec("onto_common", len(vocabs["onto_common"]), 3, 2, max_len=2)
    encoded = m.Encoder([spec], vocabs).encode([instance])
    vocab = vocabs["onto_common"]
    assert encoded.ids["onto_common"][0].tolist() == [vocab["X:9"], vocab["X:5"]]


def test_encoder_concat_channel_truncates_per_side():
    instance = make_instance(
        left=["L:3", "L:2", "L:1"], right=["R:3", "R:2", "R:1"]
    )
    vocabs = m.build_vocabularies([instance])
    spec = m.ChannelSpec("onto_concat", len(vocabs["onto_concat"]), 3, 2, max_len=4)
    encoded = m.Encoder([spec], vocabs).encode([instance])
    vocab = vocabs["onto_concat"]
    assert encoded.ids["onto_concat"][0].tolist() == [
        vocab["L:3"], vocab["L:2"], vocab["R:3"], vocab["R:2"],
    ]


# --- word vectors ----------------------------------------------------------------


def test_load_word_vectors_copies_known_rows():
    vocab = {"<pad>": 0, "<oov>": 1, "binds": 2, "other": 3}
    stream = io.StringIO("2 3\nbinds 0.5 -0.5 0.25\nmissing 1 2 3\n")
    words, vectors = m.load_word_vectors(stream, embed_dim=3)
    matrix = m.pretrained_embedding(words, vectors, vocab, seed=1)
    assert matrix.shape == (4, 3)
    assert matrix[2].tolist() == [0.5, -0.5, 0.25]
    assert matrix[0].tolist() == [0.0, 0.0, 0.0]
    # "other" keeps its seeded initialization
    baseline = np.random.default_rng(1).uniform(-0.08, 0.08, size=(4, 3))
    assert np.array_equal(matrix[3], baseline[3])


def test_word_vectors_duplicate_word_keeps_first_position_and_last_vector():
    words, vectors = m.load_word_vectors(io.StringIO("a 1 1\nb 2 2\na 3 3\n"), embed_dim=2)
    vocab = m.build_vocabularies([], words)["words"]
    assert list(vocab) == ["<pad>", "<oov>", "a", "b"]
    matrix = m.pretrained_embedding(words, vectors, vocab, seed=1)
    assert matrix[vocab["a"]].tolist() == [3.0, 3.0]
    assert matrix[vocab["b"]].tolist() == [2.0, 2.0]


def test_load_word_vectors_header_dim_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        m.load_word_vectors(io.StringIO("10 5\n"), embed_dim=3)


def test_load_word_vectors_row_dim_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        m.load_word_vectors(io.StringIO("binds 1.0 2.0\n"), embed_dim=3)


def test_load_word_vectors_non_numeric_raises():
    with pytest.raises(MalformedVectorLine):
        m.load_word_vectors(io.StringIO("binds a b c\n"), embed_dim=3)


# --- initialization -----------------------------------------------------------------


def test_init_params_deterministic_and_bounded():
    params1, _, _ = tiny_setup(seed=9)
    params2, _, _ = tiny_setup(seed=9)
    for (name1, t1), (name2, t2) in zip(params1.tensors.items(), params2.tensors.items()):
        assert name1 == name2
        assert np.array_equal(t1, t2)
        assert np.all(np.abs(t1) <= 1.0)
    params3, _, _ = tiny_setup(seed=10)
    assert not np.array_equal(params1.tensors["words.embedding"],
                              params3.tensors["words.embedding"])


def test_init_params_forget_gate_bias_is_one():
    params, _, _ = tiny_setup(hidden=2)
    for spec in params.specs:
        for direction in ("fwd", "bwd"):
            bias = params.tensors[f"{spec.name}.{direction}.b"]
            assert bias[2:4].tolist() == [1.0, 1.0]  # forget block
            assert np.all(np.abs(bias[:2]) <= 0.08)
            assert np.all(np.abs(bias[4:]) <= 0.08)


def test_init_params_padding_row_is_zero():
    params, _, _ = tiny_setup()
    for spec in params.specs:
        assert np.all(params.tensors[f"{spec.name}.embedding"][m.PAD_INDEX] == 0.0)


# --- forward ------------------------------------------------------------------------


def test_softmax_rows_sum_to_one_and_survive_large_logits():
    logits = np.array([[1000.0, 1000.0], [-1000.0, 0.0], [3.0, 1.0]])
    probs = m.softmax(logits)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(np.isfinite(probs))
    assert probs[0, 0] == pytest.approx(0.5)


def test_forward_shapes_and_normalization():
    params, batch, _ = tiny_setup()
    probs = m.forward(params, batch)
    assert probs.shape == (2, 2)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.array_equal(probs, m.forward(params, batch))  # eval is deterministic


def test_forward_rejects_wrong_width():
    params, batch, _ = tiny_setup()
    batch["words"] = batch["words"][:, :2]
    with pytest.raises(ShapeMismatch):
        m.forward(params, batch)


def test_forward_rejects_out_of_range_index():
    params, batch, _ = tiny_setup()
    batch["words"][0, 0] = 99
    with pytest.raises(ShapeMismatch):
        m.forward(params, batch)


def test_loss_closed_form_half():
    probs = np.array([[0.5, 0.5]])
    assert m.loss(probs, np.array([1])) == pytest.approx(math.log(2.0))


def test_loss_positive_class_weight():
    probs = np.array([[0.5, 0.5], [0.5, 0.5]])
    labels = np.array([1, 0])
    unweighted = m.loss(probs, labels, 1.0)
    weighted = m.loss(probs, labels, 3.0)
    assert weighted == pytest.approx(2.0 * unweighted)  # mean of (3 + 1)/2 * ln2


# --- gradients ------------------------------------------------------------------------


def test_gradients_match_finite_differences_quick():
    params, batch, labels = tiny_setup()
    loss_value, grads = m.gradients(params, batch, labels, 2.0)
    assert math.isfinite(loss_value)

    def loss_fn():
        probs = m.forward(params, batch)
        return m.loss(probs, labels, 2.0)

    for name, tensor in params.tensors.items():
        numeric = finite_difference_gradients(loss_fn, tensor)
        err = max_relative_error(grads[name], numeric)
        assert err < 1e-4, f"{name}: relative error {err}"


def test_gradient_names_cover_all_tensors():
    params, batch, labels = tiny_setup()
    _, grads = m.gradients(params, batch, labels)
    assert set(grads) == {name for name, _ in params.tensors.items()}
    for name, tensor in params.tensors.items():
        assert grads[name].shape == tensor.shape


# --- training ---------------------------------------------------------------------------


def dataset_from(batch, labels, prefix="i"):
    return m.EncodedDataset(
        ids={k: v.copy() for k, v in batch.items()},
        labels=labels.copy(),
        instance_ids=[f"{prefix}{k}" for k in range(len(labels))],
    )


def test_train_zero_epochs_returns_initial_params():
    params, batch, labels = tiny_setup()
    data = dataset_from(batch, labels)
    config = m.TrainConfig(epochs=0)
    best, history = m.train(params.copy(), data, data, config)
    assert history == []
    for (_, t1), (_, t2) in zip(best.tensors.items(), params.tensors.items()):
        assert np.array_equal(t1, t2)


def test_train_records_history_and_is_deterministic():
    params, batch, labels = tiny_setup()
    data = dataset_from(batch, labels)
    config = m.TrainConfig(learning_rate=0.3, epochs=3, batch_size=1,
                           dropout_keep=0.8, seed=2)
    best1, history1 = m.train(params.copy(), data, data, config)
    best2, history2 = m.train(params.copy(), data, data, config)
    assert history1 == history2
    assert [row["epoch"] for row in history1] == [1, 2, 3]
    for row in history1:
        assert set(row) == {"epoch", "train_loss", "dev_f"}
    for (_, t1), (_, t2) in zip(best1.tensors.items(), best2.tensors.items()):
        assert np.array_equal(t1, t2)


def test_train_returns_best_dev_epoch():
    params, batch, labels = tiny_setup()
    data = dataset_from(batch, labels)
    config = m.TrainConfig(learning_rate=0.5, epochs=5, batch_size=2,
                           dropout_keep=1.0, seed=3)
    best, history = m.train(params.copy(), data, data, config)
    best_recorded = max(row["dev_f"] for row in history)
    probs = m.forward(best, data.ids)
    achieved = m._binary_f_score(probs[:, 1] >= 0.5, data.labels == 1)
    assert achieved == pytest.approx(best_recorded)


def test_train_padding_embedding_row_stays_zero():
    params, batch, labels = tiny_setup()
    data = dataset_from(batch, labels)
    config = m.TrainConfig(learning_rate=0.5, epochs=4, batch_size=2,
                           dropout_keep=1.0, seed=1)
    best, _ = m.train(params, data, data, config)
    for spec in best.specs:
        assert np.all(best.tensors[f"{spec.name}.embedding"][m.PAD_INDEX] == 0.0)


def test_train_rejects_unlabeled_instances():
    params, batch, _ = tiny_setup()
    data = dataset_from(batch, np.array([1, -1], dtype=np.int64))
    with pytest.raises(DataError):
        m.train(params, data, data, m.TrainConfig(epochs=1))


def test_train_raises_non_finite_loss_with_epoch():
    params, batch, labels = tiny_setup()
    params.tensors["out.b"][0] = np.nan
    data = dataset_from(batch, labels)
    with pytest.raises(NonFiniteLoss) as err:
        m.train(params, data, data, m.TrainConfig(epochs=2))
    assert err.value.epoch == 1


def test_train_empty_dev_scores_zero():
    params, batch, labels = tiny_setup()
    data = dataset_from(batch, labels)
    empty = dataset_from({k: v[:0] for k, v in batch.items()},
                         np.zeros(0, dtype=np.int64))
    _, history = m.train(params, data, empty, m.TrainConfig(epochs=1))
    assert history[0]["dev_f"] == 0.0


# --- prediction and serialization ---------------------------------------------------------


def test_predict_threshold_semantics():
    params, batch, labels = tiny_setup()
    data = dataset_from(batch, labels)
    probs = m.forward(params, data.ids)[:, 1]
    low = m.predict(params, data, threshold=0.0)
    assert all(p.label == "positive" for p in low)
    high = m.predict(params, data, threshold=1.01)
    assert all(p.label == "negative" for p in high)
    mid = m.predict(params, data, threshold=float(probs[0]))
    assert mid[0].label == "positive"  # inclusive threshold
    assert m.predict(params, dataset_from({k: v[:0] for k, v in batch.items()},
                                          np.zeros(0, dtype=np.int64))) == []


def vocab_stub(params):
    return {
        spec.name: {m.PAD_TOKEN: 0, m.OOV_TOKEN: 1,
                    **{f"w{k}": k for k in range(2, spec.vocab_size)}}
        for spec in params.specs
    }


def b64(values):
    """Tensor data as the model file stores it: base64 of little-endian float64."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def saved_payload(params):
    buffer = io.StringIO()
    m.save_model(params, vocab_stub(params), buffer)
    return json.loads(buffer.getvalue())


def test_save_load_round_trip_is_bit_identical():
    params, batch, _ = tiny_setup()
    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    params.tensors["words.fwd.b"][:7] = [-0.0, 5e-324, -tiny / 8, big, -big, tiny, -tiny]
    vocabs = vocab_stub(params)
    buffer = io.StringIO()
    m.save_model(params, vocabs, buffer)
    # the streamed file is the plain json.dumps of its payload
    text = buffer.getvalue()
    assert text == json.dumps(json.loads(text), ensure_ascii=False) + "\n"
    buffer.seek(0)
    loaded, loaded_vocabs = m.load_model(buffer)
    assert loaded_vocabs == vocabs
    for (name1, t1), (name2, t2) in zip(params.tensors.items(), loaded.tensors.items()):
        assert name1 == name2
        assert t1.dtype == t2.dtype == np.float64
        assert t1.shape == t2.shape and t1.tobytes() == t2.tobytes()
    assert np.array_equal(m.forward(params, batch), m.forward(loaded, batch))


# the four-channel specs of the acceptance finite-difference test; the golden
# file pins tensor names, order, shapes and the RNG draw order
GOLDEN_SPECS = [
    m.ChannelSpec("words", vocab_size=4, embed_dim=3, hidden_dim=2, max_len=4),
    m.ChannelSpec("classes", vocab_size=4, embed_dim=2, hidden_dim=2, max_len=4),
    m.ChannelSpec("onto_concat", vocab_size=4, embed_dim=2, hidden_dim=2, max_len=4),
    m.ChannelSpec("onto_common", vocab_size=3, embed_dim=2, hidden_dim=2, max_len=3),
]


def test_init_model_file_matches_golden(fixtures):
    params = m.init_params(GOLDEN_SPECS, dense_dim=3, seed=17)
    buffer = io.StringIO()
    m.save_model(params, vocab_stub(params), buffer)
    golden = (fixtures / "golden" / "init_model.json").read_text(encoding="utf-8")
    assert buffer.getvalue() == golden


def test_golden_init_model_loads_to_init_params(fixtures):
    expected = m.init_params(GOLDEN_SPECS, dense_dim=3, seed=17)
    with open(fixtures / "golden" / "init_model.json", encoding="utf-8") as handle:
        loaded, vocabs = m.load_model(handle)
    assert loaded.specs == GOLDEN_SPECS
    assert vocabs == vocab_stub(expected)
    assert list(loaded.tensors) == list(expected.tensors)
    for name, tensor in expected.tensors.items():
        got = loaded.tensors[name]
        assert got.dtype == tensor.dtype and got.shape == tensor.shape, name
        assert got.tobytes() == tensor.tobytes(), name


def test_save_model_peak_memory_stays_below_the_embedding(tmp_path):
    # the writer streams: no tensor is ever held whole as text or as a list
    specs = [m.ChannelSpec("words", vocab_size=50_000, embed_dim=32, hidden_dim=2, max_len=4)]
    params = m.init_params(specs, dense_dim=3, seed=1)
    vocabs = vocab_stub(params)
    embedding = params.tensors["words.embedding"]
    with open(tmp_path / "model.json", "w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            m.save_model(params, vocabs, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < embedding.nbytes
    # the embedding spans many blocks; their base64 pieces must join up
    with open(tmp_path / "model.json", encoding="utf-8") as handle:
        loaded, _ = m.load_model(handle)
    assert loaded.tensors["words.embedding"].tobytes() == embedding.tobytes()


def test_load_model_rejects_unknown_version():
    params, _, _ = tiny_setup()
    buffer = io.StringIO()
    m.save_model(params, vocab_stub(params), buffer)
    payload = json.loads(buffer.getvalue())
    payload["version"] = "999"
    with pytest.raises(DataError):
        m.load_model(io.StringIO(json.dumps(payload)))


def test_load_model_refuses_version_one_file():
    # version 1 stored each tensor's data as a JSON list; there is no second reader
    params, _, _ = tiny_setup()
    payload = saved_payload(params)
    payload["version"] = "1"
    for name, tensor in params.tensors.items():
        payload["tensors"][name]["data"] = tensor.ravel().tolist()
    with pytest.raises(DataError, match="unsupported model version '1'"):
        m.load_model(io.StringIO(json.dumps(payload)))


@pytest.mark.parametrize("name", [
    "words.embedding", "words.fwd.W", "words.fwd.R", "words.bwd.R",
    "classes.bwd.W", "dense.W", "out.W",
])
def test_load_model_rejects_transposed_tensor(name):
    # same element count, axes swapped: reshape succeeds, the shape check must not
    params, _, _ = tiny_setup()
    payload = saved_payload(params)
    payload["tensors"][name]["shape"].reverse()
    with pytest.raises(ShapeMismatch, match=name):
        m.load_model(io.StringIO(json.dumps(payload)))


@pytest.mark.parametrize("name, shape", [
    ("words.fwd.b", [4]), ("dense.b", [2]), ("out.b", [1]),
])
def test_load_model_rejects_resized_bias(name, shape):
    params, _, _ = tiny_setup()
    payload = saved_payload(params)
    payload["tensors"][name] = {"shape": shape, "data": b64(np.zeros(shape))}
    with pytest.raises(ShapeMismatch, match=rf"{name}' has shape \({shape[0]},\)"):
        m.load_model(io.StringIO(json.dumps(payload)))


@pytest.mark.parametrize("data, reason", [
    (b64([math.inf, 0.0]), "non-finite"),
    (b64([math.nan, 0.0]), "non-finite"),
    ([[0.1], [0.2]], "not 'list'"),
    ([0.1, 0.2], "not 'list'"),
    (b64([0.1, 0.2])[:4] + "*" + b64([0.1, 0.2])[4:], "Only base64 data"),
    (base64.b64encode(bytes(12)).decode("ascii"), "multiple of element size"),
], ids=["overflow", "nan", "nested", "list", "non-alphabet", "ragged"])
def test_load_model_rejects_bad_tensor_data(data, reason):
    # a nested or flat list has the right element count but is not base64
    params, _, _ = tiny_setup()
    payload = saved_payload(params)
    payload["tensors"]["out.b"]["data"] = data
    with pytest.raises(ShapeMismatch, match=rf"out\.b.*{reason}"):
        m.load_model(io.StringIO(json.dumps(payload)))


@pytest.mark.parametrize("entries", [
    {"extra": 3}, {"w2": "x"}, {"w2": 4}, {"w2": -1}, {"w2": True},
    {"w2": 0}, {"w3": 2}, {"<pad>": 2, "w2": 0}, {"<oov>": 3, "w3": 1},
], ids=["extra-entry", "non-integer", "past-end", "negative", "boolean",
        "token-at-pad", "repeated-index", "pad-moved", "oov-moved"])
def test_load_model_rejects_vocabulary_that_disagrees_with_spec(entries):
    params, _, _ = tiny_setup()
    payload = saved_payload(params)
    payload["vocabularies"]["classes"].update(entries)
    with pytest.raises(ShapeMismatch, match="classes vocabulary"):
        m.load_model(io.StringIO(json.dumps(payload)))


def edited_model_text(edit):
    """A saved tiny model with `edit` applied to its payload, as JSON text."""
    params, _, _ = tiny_setup()
    payload = saved_payload(params)
    edit(payload)
    return json.dumps(payload)


def name_words_as_list(payload):
    payload["specs"][0]["name"] = ["words"]


def drop_every_channel(payload):
    # the dense layer then reads a width-0 input, which has a valid shape
    payload["specs"], payload["vocabularies"] = [], {}
    payload["tensors"] = {name: t for name, t in payload["tensors"].items()
                          if name.startswith(("dense.", "out."))}
    dense_dim = payload["tensors"]["dense.W"]["shape"][1]
    payload["tensors"]["dense.W"] = {"shape": [0, dense_dim], "data": ""}


def repeat_words_channel(payload):
    # with equal hidden widths, dense.W keeps its width
    payload["specs"][1] = dict(payload["specs"][0])


@pytest.mark.parametrize("text", [
    '{"version": ',
    "[]",
    json.dumps({"version": m.MODEL_VERSION}),
    json.dumps({"version": m.MODEL_VERSION, "specs": [{"name": "words"}],
                "tensors": {}, "vocabularies": {}}),
    edited_model_text(name_words_as_list),
    edited_model_text(drop_every_channel),
    edited_model_text(repeat_words_channel),
], ids=["truncated", "not-an-object", "no-specs", "incomplete-spec", "list-name",
        "empty-specs", "repeated-channel"])
def test_load_model_rejects_non_model_files(text):
    with pytest.raises(DataError):
        m.load_model(io.StringIO(text))


def test_load_model_rejects_unknown_channel():
    params, _, _ = tiny_setup()
    payload = saved_payload(params)
    payload["specs"][1]["name"] = "chars"
    payload["vocabularies"]["chars"] = payload["vocabularies"].pop("classes")
    for key in list(payload["tensors"]):
        if key.startswith("classes."):
            payload["tensors"]["chars" + key[len("classes"):]] = payload["tensors"].pop(key)
    with pytest.raises(DataError, match="chars"):
        m.load_model(io.StringIO(json.dumps(payload)))


def test_load_model_rejects_tampered_shape():
    # one more float64: 8 bytes past what the shape holds
    params, _, _ = tiny_setup()
    buffer = io.StringIO()
    m.save_model(params, vocab_stub(params), buffer)
    payload = json.loads(buffer.getvalue())
    payload["tensors"]["out.b"]["data"] = b64([*params.tensors["out.b"], 0.0])
    with pytest.raises(ShapeMismatch, match=r"out\.b.*cannot reshape array of size 3"):
        m.load_model(io.StringIO(json.dumps(payload)))
