"""Vocabulary building, encoding, network forward/backward, training loop."""
import base64
import dataclasses
import io
import json
import math
import random
import tracemalloc
from collections import Counter

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
from biont.metrics import score
from oracle_helpers import (
    dense_gradients,
    finite_difference_gradients,
    max_relative_error,
    reference_forward,
    reference_load_word_vectors,
)


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
    vocabs = m.build_vocabularies([make_instance()], m.CHANNELS)
    for name in m.CHANNELS:
        assert vocabs[name][m.PAD_TOKEN] == 0
        assert vocabs[name][m.OOV_TOKEN] == 1


def test_build_vocabularies_first_occurrence_order():
    instances = [
        make_instance(sdp=["candidate1", "binds", "candidate2"]),
        make_instance(sdp=["candidate2", "blocks", "candidate1"]),
    ]
    vocab = m.build_vocabularies(instances, m.CHANNELS)["words"]
    assert vocab["candidate1"] == 2
    assert vocab["binds"] == 3
    assert vocab["candidate2"] == 4
    assert vocab["blocks"] == 5


def test_build_vocabularies_extra_words_appended():
    vocab = m.build_vocabularies([make_instance()], m.CHANNELS, ["zeta", "binds"])["words"]
    assert vocab["zeta"] == max(vocab.values())
    assert list(vocab).count("binds") == 1


def test_channel_sequences():
    instance = make_instance(common=["X:1"])
    assert m.CHANNELS["words"].tokens(instance, None) == instance.sdp_tokens
    assert m.CHANNELS["classes"].tokens(instance, None) == instance.sdp_classes
    assert m.CHANNELS["onto_concat"].tokens(instance, None) == ["X:2", "X:1", "X:3", "X:1"]
    assert m.CHANNELS["onto_common"].tokens(instance, None) == ["X:1"]
    assert m.CHANNELS["onto_common"].tokens(make_instance(common=None), None) == []


def test_build_vocabularies_builds_only_the_channels_given():
    instance = make_instance(common=["X:1"])
    for channels in (["words"], ["classes", "onto_common"], list(m.CHANNELS)):
        vocabs = m.build_vocabularies([instance], channels)
        assert list(vocabs) == channels
        for name in channels:
            tokens = m.CHANNELS[name].tokens(instance, None)
            assert list(vocabs[name])[2:] == list(dict.fromkeys(tokens))


SDP = ["candidate1", "a", "b", "c", "candidate2"]
CHAINS = dict(left=["L:3", "L:2", "L:1"], right=["R:3", "R:2", "R:1"])


@pytest.mark.parametrize("name, instance, limit, expected", [
    ("words", make_instance(sdp=SDP), None, SDP),
    ("words", make_instance(sdp=SDP), 5, SDP),
    # an SDP cut keeps both endpoints and drops middle tokens
    ("words", make_instance(sdp=SDP), 4, ["candidate1", "a", "c", "candidate2"]),
    ("words", make_instance(sdp=SDP), 3, ["candidate1", "a", "candidate2"]),
    ("words", make_instance(sdp=SDP), 2, ["candidate1", "candidate2"]),
    ("classes", make_instance(classes=["O", "v", "n", "O"]), None, ["O", "v", "n", "O"]),
    ("classes", make_instance(classes=["O", "v", "n", "O"]), 3, ["O", "v", "O"]),
    ("onto_concat", make_instance(**CHAINS), None,
     ["L:3", "L:2", "L:1", "R:3", "R:2", "R:1"]),
    # each side keeps max_len // 2 elements at its specific end
    ("onto_concat", make_instance(**CHAINS), 4, ["L:3", "L:2", "R:3", "R:2"]),
    ("onto_concat", make_instance(**CHAINS), 5, ["L:3", "L:2", "R:3", "R:2"]),
    ("onto_concat", make_instance(**CHAINS), 3, ["L:3", "R:3"]),
    ("onto_common", make_instance(common=["X:9", "X:5", "X:1"]), None, ["X:9", "X:5", "X:1"]),
    ("onto_common", make_instance(common=["X:9", "X:5", "X:1"]), 2, ["X:9", "X:5"]),
    ("onto_common", make_instance(common=None), None, []),
    ("onto_common", make_instance(common=None), 3, []),
])
def test_channel_token_rules(name, instance, limit, expected):
    assert m.CHANNELS[name].tokens(instance, limit) == expected


def test_channel_specs_size_each_channel_from_the_registry():
    vocabs = m.build_vocabularies([make_instance(common=["X:1"])], m.CHANNELS)
    dims = m.ModelDims(embed_dim_words=7, embed_dim_classes=5, embed_dim_onto=3,
                       hidden_dim=4, dense_dim=2)
    train = m.TrainConfig(max_sdp_len=9, max_chain_len=6)
    specs = m.channel_specs(["words", "onto_concat", "onto_common"], vocabs, dims, train)
    assert specs == [
        m.ChannelSpec("words", len(vocabs["words"]), 7, 4, max_len=9),
        m.ChannelSpec("onto_concat", len(vocabs["onto_concat"]), 3, 4, max_len=12),
        m.ChannelSpec("onto_common", len(vocabs["onto_common"]), 3, 4, max_len=6),
    ]
    [classes] = m.channel_specs(["classes"], vocabs, dims, train)
    assert (classes.embed_dim, classes.max_len) == (5, 9)


def test_encoder_pads_and_marks_oov():
    instance = make_instance()
    vocabs = m.build_vocabularies([instance], m.CHANNELS)
    spec = m.ChannelSpec("words", len(vocabs["words"]), 3, 2, max_len=5)
    encoded = m.Encoder([spec], vocabs).encode(
        [instance, make_instance(iid="i1", sdp=["novel", "binds"])]
    )
    matrix = encoded.ids["words"]
    assert matrix.shape == (2, 3)  # as wide as the longest row, not max_len
    assert matrix[0].tolist() == [2, 3, 4]
    assert matrix[1].tolist() == [1, 3, 0]  # "novel" -> oov
    assert encoded.labels.tolist() == [1, 1]


def test_encoder_truncates_sdp_keeping_endpoints():
    sdp = ["candidate1", "a", "b", "c", "candidate2"]
    instance = make_instance(sdp=sdp, classes=["O"] * 5)
    vocabs = m.build_vocabularies([instance], m.CHANNELS)
    spec = m.ChannelSpec("words", len(vocabs["words"]), 3, 2, max_len=4)
    encoded = m.Encoder([spec], vocabs).encode([instance])
    vocab = vocabs["words"]
    assert encoded.ids["words"][0].tolist() == [
        vocab["candidate1"], vocab["a"], vocab["c"], vocab["candidate2"],
    ]


def test_encoder_truncates_chains_keeping_specific_end():
    instance = make_instance(common=["X:9", "X:5", "X:1"])
    vocabs = m.build_vocabularies([instance], m.CHANNELS)
    spec = m.ChannelSpec("onto_common", len(vocabs["onto_common"]), 3, 2, max_len=2)
    encoded = m.Encoder([spec], vocabs).encode([instance])
    vocab = vocabs["onto_common"]
    assert encoded.ids["onto_common"][0].tolist() == [vocab["X:9"], vocab["X:5"]]


def test_encoder_concat_channel_truncates_per_side():
    instance = make_instance(
        left=["L:3", "L:2", "L:1"], right=["R:3", "R:2", "R:1"]
    )
    vocabs = m.build_vocabularies([instance], m.CHANNELS)
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
    matrix = np.random.default_rng(1).uniform(-0.08, 0.08, size=(4, 3))
    m.pretrained_embedding(matrix, words, vectors, vocab)
    assert matrix.shape == (4, 3)
    assert matrix[2].tolist() == [0.5, -0.5, 0.25]
    assert matrix[0].tolist() == [0.0, 0.0, 0.0]
    # "other" keeps its seeded initialization
    baseline = np.random.default_rng(1).uniform(-0.08, 0.08, size=(4, 3))
    assert np.array_equal(matrix[3], baseline[3])


def test_word_vectors_duplicate_word_keeps_first_position_and_last_vector():
    words, vectors = m.load_word_vectors(io.StringIO("a 1 1\nb 2 2\na 3 3\n"), embed_dim=2)
    vocab = m.build_vocabularies([], m.CHANNELS, words)["words"]
    assert list(vocab) == ["<pad>", "<oov>", "a", "b"]
    matrix = np.random.default_rng(1).uniform(-0.08, 0.08, size=(len(vocab), 2))
    m.pretrained_embedding(matrix, words, vectors, vocab)
    assert matrix[vocab["a"]].tolist() == [3.0, 3.0]
    assert matrix[vocab["b"]].tolist() == [2.0, 2.0]


def test_pretrained_embedding_matches_row_loop():
    # the loop it replaced is the reference: two full copy blocks of known
    # words and a remainder, unknown words, repeated words, and a "<pad>" line
    block = m._COPY_ROWS
    rng = np.random.default_rng(3)
    known = [f"w{k}" for k in range(2 * block + 37)]
    words = list(known)
    for k in sorted(rng.choice(len(words), size=300, replace=False), reverse=True):
        words.insert(int(k), f"unknown{k}")
    words.insert(block + 40, known[block - 5])  # its first line is in the first block
    words.insert(7, "<pad>")
    words += [known[k] for k in rng.integers(0, len(known), size=20)]
    vectors = rng.normal(size=(len(words), 4))
    vocab = {"<pad>": 0, "<oov>": 1, **{w: 2 + k for k, w in enumerate(known + ["spare"])}}
    want = np.random.default_rng(9).uniform(-0.08, 0.08, size=(len(vocab), 4))
    for word, vector in zip(words, vectors):
        if word in vocab:
            want[vocab[word]] = vector
    want[0] = 0.0
    matrix = np.random.default_rng(9).uniform(-0.08, 0.08, size=(len(vocab), 4))
    m.pretrained_embedding(matrix, words, vectors, vocab)
    assert matrix.tobytes() == want.tobytes()
    last = len(words) - 1 - words[::-1].index(known[block - 5])
    assert last > block + 5 and matrix[vocab[known[block - 5]]].tolist() == vectors[last].tolist()
    assert not matrix[0].any()


def test_pretrained_embedding_peak_memory_stays_below_the_vectors():
    # one gather of every matched row peaks at ~1.39x the vector matrix;
    # copying in blocks peaks at ~0.47x, mostly the word -> row table
    words = [f"w{k}" for k in range(50_000)]
    vectors = np.random.default_rng(4).normal(size=(50_000, 32))
    vocab = {"<pad>": 0, "<oov>": 1, **{w: 2 + k for k, w in enumerate(words)}}
    matrix = np.zeros((len(vocab), 32))
    tracemalloc.start()
    try:
        m.pretrained_embedding(matrix, words, vectors, vocab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix[2:].tobytes() == vectors.tobytes()
    assert peak < 0.75 * vectors.nbytes, peak / vectors.nbytes


def test_load_word_vectors_header_dim_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        m.load_word_vectors(io.StringIO("10 5\n"), embed_dim=3)


def test_load_word_vectors_row_dim_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        m.load_word_vectors(io.StringIO("binds 1.0 2.0\n"), embed_dim=3)


def test_load_word_vectors_non_numeric_raises():
    with pytest.raises(MalformedVectorLine):
        m.load_word_vectors(io.StringIO("binds a b c\n"), embed_dim=3)


@pytest.mark.parametrize("component", ["nan", "inf", "-inf", "1e400"])
def test_load_word_vectors_non_finite_raises(component):
    stream = io.StringIO(f"2 3\n\nbinds 1.0 2.0 3.0\nother 1.0 {component} 3.0\n")
    with pytest.raises(MalformedVectorLine, match="^line 4: non-finite component$"):
        m.load_word_vectors(stream, embed_dim=3)


@pytest.mark.parametrize("text, lines", [
    ("5 6\nbinds 1 2 3 4 5 6\n", 1),  # header counts more lines than there are
    ("2 6\na 1 2 3 4 5 6\nb 1 2 3 4 5 6\nc 1 2 3 4 5 6\n", 3),  # and fewer
], ids=["count_over_lines", "count_under_lines"])
def test_load_word_vectors_header_count_mismatch_raises(text, lines):
    count = text.split()[0]
    with pytest.raises(MalformedVectorLine, match=f"^header count {count} vs {lines} vector lines$"):
        m.load_word_vectors(io.StringIO(text), embed_dim=6)


def test_load_word_vectors_reads_what_only_float_takes():
    # numpy's parser refuses 1_000 and non-ASCII digits; the line scan reads them
    words, vectors = m.load_word_vectors(io.StringIO("2 2\na 1_000 \u0661\nb 1 2\n"), embed_dim=2)
    assert words == ["a", "b"]
    assert vectors.tolist() == [[1000.0, 1.0], [1.0, 2.0]]


# str.split separates on all of these; a "\r" inside a line ends numpy's row
VECTOR_SEPARATORS = (" ", "  ", "\t", "\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u3000", "\r")
# not finite, or taken by float() and refused by numpy, or refused by both
ODD_COMPONENTS = ("nan", "inf", "-inf", "1e400", "1e-400", "1_000", "1e1_0", "\u0661",
                  "\u0661\u0662.5", "\uff11", "0x10", "+-1", "1.5d3", "x", "\x00",
                  "1\x00", "1,5", "1x2", "1;2", "1\x002")
VECTOR_WORDS = ("binds", "inhibits", "a", "nan", "\u0661", "3", "w_1")
LINE_FAULTS = ("short row", "long row", "word only", "odd component", "odd short row")
HEADER_FAULTS = ("header count", "header dim")


def random_vector_file(rng: random.Random) -> tuple[str, int, list[str]]:
    """A seeded vector file with blank lines and CRLF line ends, its dim, and
    the faults planted in it: none in about a third of the files, else one
    or two of LINE_FAULTS and HEADER_FAULTS."""
    dim = rng.randint(1, 4)
    n = rng.randint(1, 8)
    faults = [] if rng.random() < 0.35 else rng.sample(LINE_FAULTS + HEADER_FAULTS,
                                                        rng.choice((1, 1, 2)))
    planted = {rng.randrange(n): fault for fault in faults if fault in LINE_FAULTS}
    lines = []
    for k in range(n):
        if rng.random() < 0.15:
            lines.append(rng.choice(("", " ", "\t", "\xa0")))
        fault = planted.get(k)
        size = {"short row": dim - 1, "odd short row": dim - 1, "long row": dim + 1,
                "word only": 0}.get(fault, dim)
        components = []
        for _ in range(size):
            value = rng.gauss(0.0, 3.0)
            components.append(rng.choice((repr(value), f"{value:.4f}", f"{value:e}",
                                          f"{value:+.2f}", str(int(value)), f"{int(value)}.")))
        if fault in ("odd component", "odd short row") and components:
            components[rng.randrange(size)] = rng.choice(ODD_COMPONENTS)
        line = rng.choice(VECTOR_WORDS) + "".join(
            rng.choice(VECTOR_SEPARATORS) + component for component in components)
        lines.append(line + rng.choice(("", " ", "\xa0")))
    if rng.random() < 0.5 or set(faults) & set(HEADER_FAULTS):
        count = n + ("header count" in faults) * rng.choice((-1, 1))
        header = f"{count} {dim + ('header dim' in faults)}"
        lines.insert(1 if not lines[0].split() and rng.random() < 0.5 else 0, header)
    text = "".join(line + rng.choice(("\n", "\r\n")) for line in lines)
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")  # no line end after the last line
    return text, dim, faults


def vector_outcome(reader, text: str, dim: int):
    try:
        words, matrix = reader(io.StringIO(text), dim)
    except DataError as exc:
        return type(exc), str(exc)
    return words, matrix.shape, matrix.tobytes()


def test_load_word_vectors_matches_reference_reader():
    # words, matrix bits, and the raised exception with its message
    rng = random.Random(2024)
    outcomes, planted = Counter(), Counter()
    for k in range(1500):
        text, dim, faults = random_vector_file(rng)
        want = vector_outcome(reference_load_word_vectors, text, dim)
        assert vector_outcome(m.load_word_vectors, text, dim) == want, (k, text, dim)
        outcomes[want[0] if isinstance(want[0], type) else "loaded"] += 1
        planted.update(faults or ["none"])
    assert set(outcomes) == {"loaded", DimensionMismatch, MalformedVectorLine}
    assert min(outcomes.values()) >= 150, outcomes
    assert set(planted) == {"none", *LINE_FAULTS, *HEADER_FAULTS}
    assert min(planted.values()) >= 100, planted


def write_vector_file(path, rows: int, dim: int, last_line: str | None = None) -> np.ndarray:
    """A seeded `rows` x `dim` file at `path` with a header, blank lines and
    CRLF line ends; `last_line` replaces the last vector line."""
    matrix = np.round(np.random.default_rng(5).normal(0.0, 3.0, size=(rows, dim)), 4)
    lines = [f"{rows} {dim}", ""]
    lines += [f"w{k} " + " ".join(map(str, row.tolist())) for k, row in enumerate(matrix)]
    if last_line is not None:
        lines[-1] = last_line
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")
    return matrix


def test_load_word_vectors_peak_memory_streams_the_file(tmp_path):
    # holding every line as a string peaks at ~2.6x the matrix; the streamed
    # parse peaks at ~1.4x
    path = tmp_path / "vectors.txt"
    want = write_vector_file(path, 50_000, 32)
    with open(path, encoding="utf-8") as handle:
        tracemalloc.start()
        try:
            words, vectors = m.load_word_vectors(handle, 32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(words) == 50_000 and vectors.tobytes() == want.tobytes()
    assert peak <= 1.6 * vectors.nbytes, peak / vectors.nbytes


@pytest.mark.parametrize("component, error", [
    ("1.0.0", "non-numeric component"), ("nan", "non-finite component"),
])
def test_load_word_vectors_names_bad_last_line_of_a_file(tmp_path, component, error):
    # numpy's parser has read the whole file; the scan seeks back to its start
    path = tmp_path / "vectors.txt"
    write_vector_file(path, 200, 4, last_line=f"last 1.0 2.0 {component} 4.0")
    with open(path, encoding="utf-8") as handle:
        with pytest.raises(MalformedVectorLine, match=f"^line 202: {error}$"):
            m.load_word_vectors(handle, 4)


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


def moved_setup(rows):
    """Two-channel model with every tensor moved off its init by N(0, 0.5)
    noise, and `rows` random rows."""
    specs = [m.ChannelSpec("words", vocab_size=7, embed_dim=3, hidden_dim=3, max_len=5),
             m.ChannelSpec("onto_concat", vocab_size=6, embed_dim=2, hidden_dim=3, max_len=4)]
    params = m.init_params(specs, dense_dim=4, seed=3)
    rng = np.random.default_rng(17)
    for tensor in params.tensors.values():
        tensor += rng.normal(0.0, 0.5, size=tensor.shape)
    batch = {spec.name: rng.integers(0, spec.vocab_size, size=(rows, spec.max_len))
             for spec in specs}
    return params, batch


@pytest.mark.parametrize("rows", [1, 4])
def test_forward_matches_scalar_reference(rows):
    # weights moved away from init, so the forget biases are not all 1 and a
    # swapped gate or an unreversed backward direction changes the output
    params, batch = moved_setup(rows)
    expected = reference_forward(params.specs, params.tensors, batch)
    assert np.max(np.abs(m.forward(params, batch) - expected)) <= 1e-12


@pytest.mark.parametrize("steps", [4, 5])
def test_lstm_run_without_cache_ends_in_the_cached_final_state(steps):
    # two state slots used in turn: an odd and an even T end in different
    # slots; each row's final state is its state after its own last step
    rng = np.random.default_rng(11)
    X = rng.normal(size=(2, steps, 3, 2))
    W, R, b = (rng.normal(0.0, 0.5, size=shape) for shape in ((2, 2, 12), (2, 3, 12), (2, 12)))
    lengths = np.array([steps, 2, 0])
    final_cached, _, _, h_cached = m._lstm_run(X, W, R, b, lengths)
    final, gates, c, h = m._lstm_run(X, W, R, b, lengths, keep_cache=False)
    assert gates.shape == (1, 2, 3, 12) and c.shape == h.shape == (2, 2, 3, 3)
    assert np.array_equal(final, final_cached)
    assert np.array_equal(final, h_cached[lengths, :, np.arange(3)].transpose(1, 0, 2))
    assert not final[:, 2].any()


def ragged_setup(seed=7):
    """Three-channel model moved off its init, and a batch whose rows have
    every length from 0 to `max_len`: `words` has an interior id 0 in its
    last row, and `onto_common` is padding in every row."""
    specs = [m.ChannelSpec("words", vocab_size=6, embed_dim=3, hidden_dim=2, max_len=4),
             m.ChannelSpec("classes", vocab_size=5, embed_dim=2, hidden_dim=2, max_len=3),
             m.ChannelSpec("onto_common", vocab_size=4, embed_dim=2, hidden_dim=2, max_len=3)]
    params = m.init_params(specs, dense_dim=3, seed=seed)
    rng = np.random.default_rng(seed)
    for tensor in params.tensors.values():
        tensor += rng.normal(0.0, 0.3, size=tensor.shape)
    batch = {
        "words": np.array([[0, 0, 0, 0], [2, 0, 0, 0], [3, 4, 0, 0],
                           [5, 2, 3, 0], [4, 0, 2, 5]], dtype=np.int64),
        "classes": np.array([[2, 3, 4], [0, 0, 0], [3, 0, 0],
                             [4, 2, 0], [1, 0, 0]], dtype=np.int64),
        "onto_common": np.zeros((5, 3), dtype=np.int64),
    }
    labels = np.array([1, 0, 1, 0, 1], dtype=np.int64)
    return params, batch, labels


def widened(params, batch, extra):
    """The model and batch with every channel `extra` pad columns longer."""
    wide = params.copy()
    wide.specs = [dataclasses.replace(s, max_len=s.max_len + extra) for s in params.specs]
    return wide, {name: np.pad(ids, ((0, 0), (0, extra)), constant_values=m.PAD_INDEX)
                  for name, ids in batch.items()}


@pytest.mark.parametrize("extra", [1, 6])
def test_padding_leaves_outputs_and_gradients_bit_identical(extra):
    params, batch, labels = ragged_setup()
    wide, wide_batch = widened(params, batch, extra)
    assert m.forward(params, batch).tobytes() == m.forward(wide, wide_batch).tobytes()
    mask = np.random.default_rng(2).random((5, 12)) < 0.7
    loss, grads = m.gradients(params, batch, labels, 2.0, mask / 0.7)
    wide_loss, wide_grads = m.gradients(wide, wide_batch, labels, 2.0, mask / 0.7)
    assert loss == wide_loss
    assert list(grads) == list(wide_grads)
    for name in grads:
        want, got = grads[name], wide_grads[name]
        if not name.endswith(".embedding"):  # an embedding's is (rows, row_grads)
            want, got = (want,), (got,)
        for w, g in zip(want, got, strict=True):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), name


def test_cached_recurrence_runs_only_to_the_longest_row():
    params, batch, _ = ragged_setup()
    wide, wide_batch = widened(params, batch, 10)
    _, cache = m._forward_cache(wide, wide_batch)
    for name, longest in (("words", 4), ("classes", 3), ("onto_common", 0)):
        ids, rev, lengths, X, W, R, gates, c, h = cache["channels"][name]
        assert lengths.max(initial=0) == longest
        assert ids.shape[1] == len(gates) == len(c) - 1 == len(h) - 1 == longest, name


@pytest.mark.parametrize("rows, chunks", [
    (0, [0]), (1, [1]), (255, [255]), (256, [256]), (257, [129, 128]),
    (700, [234, 233, 233]),
])
def test_forward_in_chunks_matches_one_full_batch(monkeypatch, rows, chunks):
    params, batch = moved_setup(rows)
    full, _ = m._forward_cache(params, batch)
    seen = []
    real = m._forward_cache

    def recording(params, batch, **kwargs):
        seen.append(len(batch["words"]))
        return real(params, batch, **kwargs)

    monkeypatch.setattr(m, "_forward_cache", recording)
    probs = m.forward(params, batch)
    assert seen == chunks
    assert probs.shape == (rows, 2)
    assert np.max(np.abs(probs - full), initial=0.0) <= 1e-12


def test_forward_keeps_no_cache_and_flat_memory():
    params, batch = moved_setup(8 * m._EVAL_ROWS)
    _, cache = m._forward_cache(params, batch, keep_cache=False)
    assert cache["channels"] == {}
    peaks = []
    for rows in (m._EVAL_ROWS, 8 * m._EVAL_ROWS):
        part = {name: ids[:rows] for name, ids in batch.items()}
        tracemalloc.start()
        try:
            m.forward(params, part)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 1.5 * peaks[0]


def test_forward_rejects_wrong_width():
    params, batch, _ = tiny_setup()
    batch["words"] = np.pad(batch["words"], ((0, 0), (0, 1)))
    with pytest.raises(ShapeMismatch, match="at most 4"):
        m.forward(params, batch)


def test_forward_takes_ids_narrower_than_max_len():
    # padding past a row's end changes no output, so ids may stop before max_len
    params, batch, _ = tiny_setup()
    narrow = {name: ids[:, :3] for name, ids in batch.items()}
    assert m.forward(params, narrow).tobytes() == m.forward(params, batch).tobytes()


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
    grads = dense_gradients(params, grads)

    def loss_fn():
        probs = m.forward(params, batch)
        return m.loss(probs, labels, 2.0)

    for name, tensor in params.tensors.items():
        numeric = finite_difference_gradients(loss_fn, tensor)
        err = max_relative_error(grads[name], numeric)
        assert err < 1e-4, f"{name}: relative error {err}"


def test_gradients_match_finite_differences_on_ragged_rows():
    # padded rows, an all-padding row, an interior id 0 (a real step that
    # reads the padding row) and a channel with no step in any row
    params, batch, labels = ragged_setup()
    _, grads = m.gradients(params, batch, labels, 2.0)
    grads = dense_gradients(params, grads)

    def loss_fn():
        return m.loss(m.forward(params, batch), labels, 2.0)

    for name, tensor in params.tensors.items():
        numeric = finite_difference_gradients(loss_fn, tensor)
        err = max_relative_error(grads[name], numeric)
        assert err < 1e-4, f"{name}: relative error {err}"
    assert np.abs(grads["words.embedding"][m.PAD_INDEX]).max() > 1e-6


def test_channel_empty_in_every_row_trains():
    # a batch whose every row is padding in one channel runs that channel's
    # recurrence for zero steps; its state and gradients are zero
    params, batch, labels = ragged_setup()
    _, grads = m.gradients(params, batch, labels)
    rows, row_grads = grads["onto_common.embedding"]
    assert rows.shape == (0,) and row_grads.shape == (0, 2)
    for direction in ("fwd", "bwd"):
        for k in "WRb":
            assert not grads[f"onto_common.{direction}.{k}"].any()
    data = dataset_from(batch, labels)
    best, history = m.train(params.copy(), data, data,
                            m.TrainConfig(epochs=2, batch_size=2, seed=3))
    assert len(history) == 2 and all(math.isfinite(r["train_loss"]) for r in history)
    # no row of the channel's table is read, so only <pad> is reset
    assert best.tensors["onto_common.embedding"][1:].tobytes() == (
        params.tensors["onto_common.embedding"][1:].tobytes())


def test_gradient_names_cover_all_tensors():
    params, batch, labels = tiny_setup()
    _, grads = m.gradients(params, batch, labels)
    assert set(grads) == {name for name, _ in params.tensors.items()}
    grads = dense_gradients(params, grads)
    for name, tensor in params.tensors.items():
        assert grads[name].shape == tensor.shape


def test_embedding_gradients_are_row_sparse():
    params, batch, labels = tiny_setup()
    _, grads = m.gradients(params, batch, labels)
    for spec in params.specs:
        rows, row_grads = grads[f"{spec.name}.embedding"]
        assert np.array_equal(rows, np.unique(batch[spec.name]))
        assert row_grads.shape == (len(rows), spec.embed_dim)


def occurrence_embedding_gradients(params, batch, labels, weight):
    """Each channel's embedding gradient of every batch position, in ravel
    order: the gradient of a copy of the model whose table gives every real
    position its own row, with padding kept at row 0."""
    specs, tensors, spread = [], dict(params.tensors), {}
    for spec in params.specs:
        ids = batch[spec.name].ravel()
        real = ids != m.PAD_INDEX
        own = np.where(real, np.arange(1, ids.size + 1), m.PAD_INDEX)
        table = np.zeros((ids.size + 1, spec.embed_dim))
        table[own[real]] = params.tensors[f"{spec.name}.embedding"][ids[real]]
        tensors[f"{spec.name}.embedding"] = table
        specs.append(dataclasses.replace(spec, vocab_size=ids.size + 1))
        spread[spec.name] = own.reshape(batch[spec.name].shape)
    _, grads = m.gradients(m.ModelParams(specs, tensors), spread, labels, weight)
    out = {}
    for spec in params.specs:
        rows, row_grads = grads[f"{spec.name}.embedding"]
        own = spread[spec.name].ravel()
        out[spec.name] = row_grads[np.searchsorted(rows, own)], own != m.PAD_INDEX
    return out


def test_sgd_step_equals_dense_update_bit_for_bit():
    specs = [m.ChannelSpec("words", vocab_size=10, embed_dim=3, hidden_dim=2, max_len=5),
             m.ChannelSpec("classes", vocab_size=4, embed_dim=2, hidden_dim=2, max_len=5)]
    params = m.init_params(specs, dense_dim=3, seed=11)
    words = params.tensors["words.embedding"]
    words[4, 1] = words[7] = -0.0  # rows the batch does not use
    batch = {  # word 2 three times, twice in one row; padding in every row
        "words": np.array([[2, 3, 2, 5, 0], [5, 2, 8, 0, 0]], dtype=np.int64),
        "classes": np.array([[2, 1, 0, 0, 0], [3, 3, 2, 0, 0]], dtype=np.int64),
    }
    labels = np.array([1, 0], dtype=np.int64)
    lr = 0.3
    _, grads = m.gradients(params, batch, labels, 2.0)
    occurrences = occurrence_embedding_gradients(params, batch, labels, 2.0)

    sparse, dense = params.copy(), params.copy()
    m.sgd_step(sparse, grads, lr)
    for name, tensor in dense.tensors.items():
        if name.endswith(".embedding"):
            channel = name.split(".")[0]
            d_x, real = occurrences[channel]
            full = np.zeros_like(tensor)
            np.add.at(full, batch[channel].ravel()[real], d_x[real])
            rows, row_grads = grads[name]
            assert full[rows[rows != m.PAD_INDEX]].tobytes() == (
                row_grads[rows != m.PAD_INDEX].tobytes()), name
            tensor -= lr * full
            tensor[m.PAD_INDEX] = 0.0
        else:
            tensor -= lr * grads[name]
    for name, tensor in dense.tensors.items():
        assert sparse.tensors[name].tobytes() == tensor.tobytes(), name
    assert np.signbit(sparse.tensors["words.embedding"][7]).all()


def test_training_step_memory_is_flat_in_the_vocabulary():
    # a 200,000-word table: a step must not allocate anything table-sized
    spec = m.ChannelSpec("words", vocab_size=200_000, embed_dim=32, hidden_dim=4, max_len=15)
    params = m.init_params([spec], dense_dim=3, seed=1)
    rng = np.random.default_rng(3)
    batch = {"words": rng.integers(0, 200_000, size=(16, 15))}
    batch["words"][:, 12:] = m.PAD_INDEX
    labels = rng.integers(0, 2, size=16)
    table_bytes = params.tensors["words.embedding"].nbytes
    tracemalloc.start()
    try:
        _, grads = m.gradients(params, batch, labels)
        m.sgd_step(params, grads, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table_bytes / 4


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
    achieved = score(probs[:, 1], data.labels).f_score
    assert achieved == pytest.approx(best_recorded)


def test_train_padding_embedding_row_stays_zero():
    params, batch, labels = tiny_setup()
    data = dataset_from(batch, labels)
    config = m.TrainConfig(learning_rate=0.5, epochs=4, batch_size=2,
                           dropout_keep=1.0, seed=1)
    best, _ = m.train(params, data, data, config)
    for spec in best.specs:
        assert np.all(best.tensors[f"{spec.name}.embedding"][m.PAD_INDEX] == 0.0)


def test_train_leaves_unused_embedding_rows_untouched():
    params, batch, labels = tiny_setup(with_second_channel=False)
    words = params.tensors["words.embedding"]
    words[1, 0] = -0.0  # <oov>, which no row of the batch holds
    initial = params.copy()
    data = dataset_from(batch, labels)
    config = m.TrainConfig(learning_rate=0.5, epochs=3, batch_size=1,
                           dropout_keep=0.8, seed=4)
    best, history = m.train(params, data, data, config)
    assert len(history) == 3
    for spec in best.specs:
        name = f"{spec.name}.embedding"
        unused = np.setdiff1d(np.arange(spec.vocab_size), batch[spec.name])
        assert unused.tolist() == [m.OOV_INDEX]
        assert best.tensors[name][unused].tobytes() == initial.tensors[name][unused].tobytes()
        assert not np.array_equal(best.tensors[name], initial.tensors[name])


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


def hexdata(values):
    """Tensor data as the model file stores it: hex of little-endian float64."""
    return np.asarray(values, dtype="<f8").tobytes().hex()


def read_payload(text):
    """A model file as one dict: the header's keys, with "tensors" mapping
    each name to {"shape", "data"}, data being the tensor's hex line."""
    header, *bodies = text.split("\n")
    payload = json.loads(header)
    payload["tensors"] = {name: {"shape": shape, "data": data}
                          for (name, shape), data in zip(payload["tensors"], bodies)}
    return payload


def model_file(payload):
    """`payload`, in `read_payload`'s form, rendered as a model file: the
    header line, whose "tensors" lists each [name, shape], then each
    tensor's data on its own line (JSON text for a data that is not a str)."""
    tensors = payload.get("tensors", {})
    header = {key: [[name, t["shape"]] for name, t in tensors.items()] if key == "tensors"
              else value for key, value in payload.items()}
    bodies = [t["data"] if isinstance(t["data"], str) else json.dumps(t["data"])
              for t in tensors.values()]
    return "\n".join([json.dumps(header), *bodies]) + "\n"


def saved_payload(params):
    buffer = io.StringIO()
    m.save_model(params, vocab_stub(params), buffer)
    return read_payload(buffer.getvalue())


def load_payload(payload):
    return m.load_model(io.StringIO(model_file(payload)))


def test_save_load_round_trip_is_bit_identical():
    params, batch, _ = tiny_setup()
    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    params.tensors["words.fwd.b"][:7] = [-0.0, 5e-324, -tiny / 8, big, -big, tiny, -tiny]
    vocabs = vocab_stub(params)
    buffer = io.StringIO()
    m.save_model(params, vocabs, buffer)
    # a one-line JSON header, then each tensor's hex on its own line
    header, *bodies, end = buffer.getvalue().split("\n")
    assert header == json.dumps(json.loads(header), ensure_ascii=False)
    assert json.loads(header)["tensors"] == [[name, list(t.shape)]
                                             for name, t in params.tensors.items()]
    assert bodies == [hexdata(t.ravel()) for t in params.tensors.values()]
    assert end == ""
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
    # the embedding spans many blocks; their hex pieces must join up
    with open(tmp_path / "model.json", encoding="utf-8") as handle:
        loaded, _ = m.load_model(handle)
    assert loaded.tensors["words.embedding"].tobytes() == embedding.tobytes()


def test_load_model_peak_memory_stays_below_twice_the_embedding(tmp_path):
    # no whole-file text, no data string and no copy of the decoded bytes:
    # the peak is about the tensors plus the parsed vocabulary
    specs = [m.ChannelSpec("words", vocab_size=50_000, embed_dim=32, hidden_dim=2, max_len=4)]
    params = m.init_params(specs, dense_dim=3, seed=1)
    embedding = params.tensors["words.embedding"]
    with open(tmp_path / "model.json", "w", encoding="utf-8", newline="\n") as out:
        m.save_model(params, vocab_stub(params), out)
    with open(tmp_path / "model.json", encoding="utf-8") as handle:
        tracemalloc.start()
        try:
            loaded, _ = m.load_model(handle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2 * embedding.nbytes
    assert loaded.tensors["words.embedding"].tobytes() == embedding.tobytes()
    assert loaded.tensors["words.embedding"].flags.writeable  # train updates in place


def test_load_model_rejects_unknown_version():
    params, _, _ = tiny_setup()
    buffer = io.StringIO()
    m.save_model(params, vocab_stub(params), buffer)
    payload = read_payload(buffer.getvalue())
    payload["version"] = "999"
    with pytest.raises(DataError):
        load_payload(payload)


def test_load_model_refuses_version_one_file():
    # version 1 stored each tensor's data as a JSON list; there is no second reader
    params, _, _ = tiny_setup()
    payload = saved_payload(params)
    payload["version"] = "1"
    for name, tensor in params.tensors.items():
        payload["tensors"][name]["data"] = tensor.ravel().tolist()
    with pytest.raises(DataError, match="unsupported model version '1'"):
        load_payload(payload)


def version_two_text(payload):
    """The version-2 file of a `read_payload` dict: one JSON object whose
    tensors hold their shape and the base64 of their bytes."""
    tensors = {name: {"shape": t["shape"],
                      "data": base64.b64encode(bytes.fromhex(t["data"])).decode("ascii")}
               for name, t in payload["tensors"].items()}
    return json.dumps({**payload, "version": "2", "tensors": tensors})


def test_load_model_refuses_version_two_file():
    params, _, _ = tiny_setup()
    with pytest.raises(DataError, match="unsupported model version '2'"):
        m.load_model(io.StringIO(version_two_text(saved_payload(params))))


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
        load_payload(payload)


@pytest.mark.parametrize("name, shape", [
    ("words.fwd.b", [4]), ("dense.b", [2]), ("out.b", [1]),
])
def test_load_model_rejects_resized_bias(name, shape):
    params, _, _ = tiny_setup()
    payload = saved_payload(params)
    payload["tensors"][name] = {"shape": shape, "data": hexdata(np.zeros(shape))}
    with pytest.raises(ShapeMismatch, match=rf"{name}' has shape \({shape[0]},\)"):
        load_payload(payload)


@pytest.mark.parametrize("data, reason", [
    (hexdata([math.inf, 0.0]), "non-finite"),
    (hexdata([math.nan, 0.0]), "non-finite"),
    ([[0.1], [0.2]], "Non-hexadecimal digit"),
    ([0.1, 0.2], "Non-hexadecimal digit"),
    (hexdata([0.1, 0.2])[:4] + "*" + hexdata([0.1, 0.2])[5:], "Non-hexadecimal digit"),
    (bytes(12).hex(), "has 12 bytes, expected 16"),
    (hexdata([0.1, 0.2]) + "0", "Odd-length string"),
    (hexdata([0.1, 0.2])[:-1] + "g", "Non-hexadecimal digit"),
    (hexdata([0.1])[:8] + "  " + hexdata([0.1])[8:] + hexdata([0.2]), "Non-hexadecimal digit"),
    ("", "has 0 bytes, expected 16"),
], ids=["overflow", "nan", "nested", "list", "non-alphabet", "ragged", "odd-digits",
        "non-hex", "spaced", "empty"])
def test_load_model_rejects_bad_tensor_data(data, reason):
    # a nested or flat list has the right element count but is not hex
    params, _, _ = tiny_setup()
    payload = saved_payload(params)
    payload["tensors"]["out.b"]["data"] = data
    with pytest.raises(ShapeMismatch, match=rf"out\.b.*{reason}"):
        load_payload(payload)


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
        load_payload(payload)


def edited_model_text(edit):
    """A saved tiny model with `edit` applied to its payload, as a model file."""
    params, _, _ = tiny_setup()
    payload = saved_payload(params)
    edit(payload)
    return model_file(payload)


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
    model_file({"version": m.MODEL_VERSION}),
    model_file({"version": m.MODEL_VERSION, "specs": [{"name": "words"}],
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
        load_payload(payload)


def test_load_model_rejects_tampered_shape():
    # one more float64: 8 bytes past what the shape holds
    params, _, _ = tiny_setup()
    buffer = io.StringIO()
    m.save_model(params, vocab_stub(params), buffer)
    payload = read_payload(buffer.getvalue())
    payload["tensors"]["out.b"]["data"] = hexdata([*params.tensors["out.b"], 0.0])
    with pytest.raises(ShapeMismatch, match=r"out\.b.*more than the expected 16 bytes"):
        load_payload(payload)


def test_load_model_stops_reading_a_body_once_it_passes_its_shape(monkeypatch):
    # a body far longer than its shape is read one piece past it, no further
    monkeypatch.setattr(m, "_HEX_BLOCK", 8)
    params, _, _ = tiny_setup()
    payload = saved_payload(params)
    embedding = params.tensors["words.embedding"]
    payload["tensors"]["words.embedding"]["data"] = hexdata(np.zeros(embedding.size + 1000))
    stream = io.StringIO(model_file(payload))
    with pytest.raises(ShapeMismatch, match=r"words\.embedding.*more than the expected 144"):
        m.load_model(stream)
    header = len(stream.getvalue().split("\n", 1)[0]) + 1
    assert stream.tell() <= header + 2 * embedding.nbytes + 2 * 8


@pytest.mark.parametrize("missing, reason", [
    ("words.fwd.R", r"words\.fwd\.R' has 64 bytes, expected 128"),
    ("out.b", r"out\.b' has 0 bytes, expected 16"),
])
def test_load_model_rejects_missing_body_line(missing, reason):
    # the header still lists the tensor, so each later tensor reads the next line
    params, _, _ = tiny_setup()
    lines = model_file(saved_payload(params)).split("\n")
    del lines[1 + list(params.tensors).index(missing)]
    with pytest.raises(ShapeMismatch, match=reason):
        m.load_model(io.StringIO("\n".join(lines)))


@pytest.mark.parametrize("extra", ["\n", "x", "\n0000"])
def test_load_model_rejects_text_after_the_last_body(extra):
    params, _, _ = tiny_setup()
    with pytest.raises(DataError, match="text after its last tensor"):
        m.load_model(io.StringIO(model_file(saved_payload(params)) + extra))


def reorder_tensors(tensors):
    names = list(tensors)
    names[1], names[2] = names[2], names[1]
    return {name: tensors[name] for name in names}


def drop_tensor(tensors):
    return {name: t for name, t in tensors.items() if name != "classes.bwd.b"}


def add_tensor(tensors):
    return {**tensors, "extra.b": {"shape": [2], "data": hexdata([0.0, 0.0])}}


@pytest.mark.parametrize("edit", [reorder_tensors, drop_tensor, add_tensor],
                         ids=["reordered", "missing", "added"])
def test_load_model_rejects_header_tensor_list_that_is_not_the_specs(edit):
    params, _, _ = tiny_setup()
    payload = saved_payload(params)
    payload["tensors"] = edit(payload["tensors"])
    with pytest.raises(ShapeMismatch, match="model file lists tensors"):
        load_payload(payload)


@pytest.mark.parametrize("entry", [["out.b"], ["out.b", 2], ["out.b", [0]],
                                   ["out.b", [2.0]], ["out.b", [True, 1]]])
def test_load_model_rejects_malformed_header_tensor_entry(entry):
    params, _, _ = tiny_setup()
    header, rest = model_file(saved_payload(params)).split("\n", 1)
    listed = json.loads(header)
    listed["tensors"][-1] = entry
    with pytest.raises(DataError, match="not \\[name, shape\\] pairs"):
        m.load_model(io.StringIO(json.dumps(listed) + "\n" + rest))


def test_round_trip_keeps_line_breaks_in_vocabulary_inside_one_header_line(tmp_path):
    params, _, _ = tiny_setup()
    tokens = ["\n", "\r", "\u2028", '"']
    vocabs = vocab_stub(params)
    vocabs["words"] = {m.PAD_TOKEN: 0, m.OOV_TOKEN: 1,
                       **{token: k for k, token in enumerate(tokens, start=2)}}
    path = tmp_path / "model.json"
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        m.save_model(params, vocabs, out)
    text = path.read_text(encoding="utf-8")
    assert "\r" not in text
    header, *bodies, end = text.split("\n")
    assert json.loads(header)["vocabularies"] == vocabs
    assert len(bodies) == len(params.tensors) and end == ""
    with open(path, encoding="utf-8") as handle:  # universal newlines, as the CLI reads
        loaded, loaded_vocabs = m.load_model(handle)
    assert loaded_vocabs == vocabs
    for name, tensor in params.tensors.items():
        assert loaded.tensors[name].tobytes() == tensor.tobytes(), name
