"""Acceptance gate: one test per acceptance criterion, tolerances pinned.

Budgeted tests assert their own wall-clock limits.  The F-score
recomputation test checks all six recorded reference rows against the
half-unit-in-the-last-place bound of 5e-5; three of the rows carry a
printed F that deviates from 2PR/(P+R) of their printed P and R by more
than that bound (5.8e-5, 6.9e-5, 5.4e-5), so that test fails by design
rather than loosening the tolerance.  See test_metrics.py for the
propagated-rounding bound (1.5e-4) that all six rows satisfy.
"""
import io
import time

import numpy as np

from biont import cli
from biont import model as m
from biont import ontology
from biont.corpus import parse_pubtator, project_document_relations, segment_sentences
from biont.instances import Instance, ParsedToken, shortest_dependency_path
from biont.metrics import score
from biont.pipeline import cmd_preprocess
from biont.config import load_config
from conftest import FIXTURES
from oracle_helpers import (
    bfs_distance,
    closure_ancestors,
    dag_to_obo,
    dense_gradients,
    finite_difference_gradients,
    longest_path_to_root,
    max_relative_error,
    random_dag,
    random_tree_heads,
    tree_path,
)
from test_metrics import REFERENCE_ROWS

import json


def test_f_score_recomputation_on_reference_rows():
    """Each printed F must match 2PR/(P+R) of its printed P,R within 5e-5."""
    start = time.perf_counter()
    violations = []
    for p, r, f in REFERENCE_ROWS:
        err = abs(2.0 * p * r / (p + r) - f)
        if err >= 5e-5:
            violations.append((p, r, f, err))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert not violations, (
        "rows whose printed F deviates from recomputation by >= 5e-5: "
        + "; ".join(f"P={p} R={r} F={f} err={e:.3e}" for p, r, f, e in violations)
    )


def test_ancestor_queries_match_closure_oracle_on_100_random_dags():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        ids, parents = random_dag(rng, n)
        graph = ontology.parse_obo(io.StringIO(dag_to_obo(ids, parents)))
        memo: dict[str, int] = {}
        for cid in ids:
            assert ontology.ancestor_set(graph, cid, inclusive=True) == \
                closure_ancestors(parents, cid)
            depth = ontology.depth(graph, cid)
            assert depth == longest_path_to_root(parents, cid, memo)
            chain = ontology.ancestor_chain(graph, cid)
            assert len(chain) == depth + 1
            for child, parent in zip(chain, chain[1:]):
                assert parent in graph.query_parents(child)
    assert time.perf_counter() - start < 10.0


def test_dependency_path_matches_bfs_oracle_on_200_random_trees():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n = int(rng.integers(2, 31))
        heads = random_tree_heads(rng, n)
        tokens = [
            ParsedToken(index=i, form=f"t{i}", lemma=f"t{i}", head=heads[i],
                        deprel="dep", char_start=(i - 1) * 4,
                        char_end=(i - 1) * 4 + 2)
            for i in range(1, n + 1)
        ]
        by_index = {t.index: t for t in tokens}
        for _ in range(3):
            u = int(rng.integers(1, n + 1))
            v = int(rng.integers(1, n + 1))
            if u == v:
                continue
            path = shortest_dependency_path(tokens, by_index[u], by_index[v])
            assert len(path) == bfs_distance(heads, u, v) + 1
            # tree paths are unique, so the node sequence must agree too
            assert [t.index for t in path] == tree_path(heads, u, v)
    assert time.perf_counter() - start < 5.0


def test_analytic_gradients_match_finite_differences():
    """All dims <= 4, batch of 2, every channel kind present; eps 1e-5."""
    start = time.perf_counter()
    specs = [
        m.ChannelSpec("words", vocab_size=4, embed_dim=3, hidden_dim=2, max_len=4),
        m.ChannelSpec("classes", vocab_size=4, embed_dim=2, hidden_dim=2, max_len=4),
        m.ChannelSpec("onto_concat", vocab_size=4, embed_dim=2, hidden_dim=2, max_len=4),
        m.ChannelSpec("onto_common", vocab_size=3, embed_dim=2, hidden_dim=2, max_len=3),
    ]
    params = m.init_params(specs, dense_dim=3, seed=17)
    batch = {
        "words": np.array([[2, 3, 1, 0], [3, 2, 2, 0]], dtype=np.int64),
        "classes": np.array([[2, 1, 0, 0], [3, 2, 0, 0]], dtype=np.int64),
        "onto_concat": np.array([[2, 3, 0, 0], [3, 3, 2, 0]], dtype=np.int64),
        "onto_common": np.array([[2, 1, 0], [2, 2, 0]], dtype=np.int64),
    }
    labels = np.array([1, 0], dtype=np.int64)
    _, grads = m.gradients(params, batch, labels, class_weight_positive=2.0)
    grads = dense_gradients(params, grads)

    def loss_fn():
        return m.loss(m.forward(params, batch), labels, 2.0)

    for name, tensor in params.tensors.items():
        numeric = finite_difference_gradients(loss_fn, tensor, eps=1e-5)
        err = max_relative_error(grads[name], numeric)
        assert err < 1e-4, f"{name}: max relative error {err:.3e}"
    assert time.perf_counter() - start < 30.0


def separable_instances():
    """40 labeled instances whose path contains a label-determining verb."""
    fillers = ["the", "a", "of", "with", "x1", "x2", "x3", "x4", "x5", "x6"]
    out = []
    for k in range(40):
        positive = k % 2 == 0
        verb = "activates" if positive else "ignores"
        sdp = ["candidate1", verb, fillers[k % 10], verb, "candidate2"]
        out.append(
            Instance(
                instance_id=f"syn{k}",
                sentence_id=f"syn.s{k}",
                pair=(f"syn{k}.a", f"syn{k}.b"),
                sdp_tokens=sdp,
                sdp_classes=["O"] * len(sdp),
                left_chain=["X:1"],
                right_chain=["X:1"],
                common_chain=None,
                label="positive" if positive else "negative",
            )
        )
    return out


def test_training_reaches_perfect_f_on_separable_instances():
    start = time.perf_counter()
    instances = separable_instances()
    vocabs = m.build_vocabularies(instances, m.CHANNELS)
    specs = [m.ChannelSpec("words", len(vocabs["words"]), embed_dim=8,
                           hidden_dim=6, max_len=6)]
    data = m.Encoder(specs, {"words": vocabs["words"]}).encode(instances)
    params = m.init_params(specs, dense_dim=4, seed=7)
    config = m.TrainConfig(learning_rate=3.0, epochs=200, batch_size=40,
                           dropout_keep=1.0, seed=7)
    best, history = m.train(params, data, data, config)
    assert any(row["dev_f"] == 1.0 for row in history), (
        "train F never reached 1.0; best " + str(max(r["dev_f"] for r in history))
    )
    probs = m.forward(best, data.ids)
    assert score(probs[:, 1], data.labels).f_score == 1.0
    assert time.perf_counter() - start < 60.0


# Which split each of a mid-level node's 12 leaves serves: no dev or test
# leaf occurs in training, so each reaches the model as <oov>.
TREE_LEAF_SPLITS = ["train"] * 6 + ["dev"] * 3 + ["test"] * 3


def ontology_tree_splits(seed):
    """Train (200), dev (100) and test (100) pairs over a 4-level tree:
    root -> A, B -> 4 mid nodes each -> 12 leaves each.  Every pair has the
    same path words; it is positive iff both its leaves sit under A, as half
    the pairs of each split do.  Chains come from the OBO parse."""
    obo = ["[Term]", "id: T:0"]
    leaves = {}
    for top in "AB":
        obo += ["[Term]", f"id: T:{top}", "is_a: T:0"]
        for k in range(4):
            obo += ["[Term]", f"id: T:{top}{k}", f"is_a: T:{top}"]
            for j, split in enumerate(TREE_LEAF_SPLITS):
                obo += ["[Term]", f"id: T:{top}{k}.{j}", f"is_a: T:{top}{k}"]
                leaves.setdefault((top, split), []).append(f"T:{top}{k}.{j}")
    graph = ontology.parse_obo(io.StringIO("\n".join(obo) + "\n"), "tree")
    rng = np.random.default_rng(seed)

    def pairs(split, n):
        out = []
        for k in range(n):
            tops = ("A", "A") if k % 2 == 0 else [("A", "B"), ("B", "A"), ("B", "B")][rng.integers(3)]
            left, right = (leaves[top, split][rng.integers(len(leaves[top, split]))]
                           for top in tops)
            out.append(Instance(
                instance_id=f"{split}{k}", sentence_id=f"{split}.s{k}",
                pair=(f"{split}{k}.a", f"{split}{k}.b"),
                sdp_tokens=["candidate1", "with", "candidate2"], sdp_classes=["O"] * 3,
                left_chain=ontology.ancestor_chain(graph, left),
                right_chain=ontology.ancestor_chain(graph, right),
                common_chain=None, label="positive" if tops == ("A", "A") else "negative",
            ))
        return out

    return pairs("train", 200), pairs("dev", 100), pairs("test", 100)


def test_ontology_channel_generalizes_to_unseen_concepts():
    # BiOnt's claim: a concept never seen in training still shares its
    # ancestors with ones that were.  The words channel sees one path for
    # every pair, so it can do no better than calling everything positive.
    # Settings: onto_concat reached test F 1.0 on each of seeds 1-30, in
    # 2.5-4 s a seed on a 2-core host; lr 0.7, or 200 epochs, stalled at 0.667
    # on some seeds.  With the ontology channel's gradient zeroed, the dense
    # layer alone reached at most 0.962 on those seeds, and 0.667 on seed 1.
    start = time.perf_counter()
    train, dev, test = ontology_tree_splits(seed=1)
    all_positive_f = score(np.ones(len(test)), m.Encoder([], {}).encode(test).labels).f_score
    config = m.TrainConfig(learning_rate=0.5, epochs=300, batch_size=20,
                           dropout_keep=1.0, seed=1)
    test_f = {}
    for channel in ("onto_concat", "words"):
        vocabs = m.build_vocabularies(train, [channel])
        specs = [m.ChannelSpec(channel, len(vocabs[channel]), embed_dim=8, hidden_dim=8,
                               max_len=8)]
        encoder = m.Encoder(specs, vocabs)
        best, _ = m.train(m.init_params(specs, dense_dim=8, seed=1), encoder.encode(train),
                          encoder.encode(dev), config)
        data = encoder.encode(test)
        test_f[channel] = score(m.forward(best, data.ids)[:, 1], data.labels).f_score
    assert all_positive_f == 2 / 3
    assert test_f["onto_concat"] >= 0.99 > all_positive_f, test_f
    assert test_f["words"] <= all_positive_f, test_f
    assert time.perf_counter() - start < 30.0


def test_document_projection_emits_recorded_pairs(tmp_path):
    # the labels are decided in instance generation, so the recorded pairs
    # are checked on the instances preprocess writes for the fixture
    with open(FIXTURES / "cdr_corpus.txt", encoding="utf-8") as handle:
        document = parse_pubtator(handle)[0]
    spans = segment_sentences(
        document.text, [(m_.char_start, m_.char_end) for m_ in document.mentions]
    )
    sentences, _ = project_document_relations(document, spans)
    mentions = {m_.mention_id: m_ for s in sentences for m_ in s.entities}
    instances, _ = cmd_preprocess(load_config(FIXTURES / "cdr.config.json"),
                                  tmp_path / "cdr.jsonl")
    got = {"positive": [], "negative": []}
    for instance in instances:
        pair = sorted((mentions[mid] for mid in instance.pair),
                      key=lambda m_: m_.entity_type != "chemical")
        got[instance.label].append([instance.sentence_id] + [m_.kb_id for m_ in pair])
    expected = json.loads(
        (FIXTURES / "cdr_corpus.expected.json").read_text(encoding="utf-8")
    )
    assert got == {"positive": expected["positives"], "negative": expected["negatives"]}


def test_gene_concept_choice_follows_priority_rules(go, gaf_records):
    # experimental evidence beats a deeper non-experimental annotation
    assert ontology.representative_concept(go, gaf_records, "672") == \
        ("GO:0000004", False)
    # within experimental records the deeper concept wins
    assert ontology.representative_concept(go, gaf_records, "7157") == \
        ("GO:0000005", False)
    # equal depth falls back to the lexicographically smaller id
    assert ontology.representative_concept(go, gaf_records, "9999") == \
        ("GO:0000004", False)


def test_common_ancestor_channel_only_for_same_type_pairs(tmp_path):
    for name, expect_common in (
        ("ddi.config.json", True),
        ("pgr.config.json", False),
        ("cdr.config.json", False),
    ):
        config = load_config(FIXTURES / name)
        instances, _ = cmd_preprocess(config, tmp_path / f"{name}.jsonl")
        assert instances
        for instance in instances:
            if expect_common:
                assert instance.common_chain is not None
            else:
                assert instance.common_chain is None
        assert ("onto_common" in config.enabled_channels()) is expect_common


def test_pipeline_runs_are_byte_identical(tmp_path):
    config = str(FIXTURES / "ddi.config.json")

    def run(into):
        into.mkdir()
        instances = str(into / "instances.jsonl")
        model = str(into / "model.json")
        assert cli.main(["preprocess", "--config", config, "--out", instances]) == 0
        assert cli.main(["train", "--config", config, "--in", instances,
                         "--model", model]) == 0
        assert cli.main(["evaluate", "--model", model, "--in", instances,
                         "--out", str(into / "metrics.tsv")]) == 0
        assert cli.main(["predict", "--model", model, "--in", instances,
                         "--out", str(into / "preds.jsonl")]) == 0

    run(tmp_path / "a")
    run(tmp_path / "b")
    for name in ("instances.jsonl", "instances.report.tsv", "model.json",
                 "model.history.tsv", "metrics.tsv", "preds.jsonl"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
