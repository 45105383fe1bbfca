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
from biont.pipeline import cmd_preprocess
from biont.config import load_config
from conftest import FIXTURES
from oracle_helpers import (
    bfs_distance,
    closure_ancestors,
    dag_to_obo,
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
    vocabs = m.build_vocabularies(instances)
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
    assert m._binary_f_score(probs[:, 1] >= 0.5, data.labels == 1) == 1.0
    assert time.perf_counter() - start < 60.0


def test_document_projection_emits_recorded_pairs():
    with open(FIXTURES / "cdr_corpus.txt", encoding="utf-8") as handle:
        document = parse_pubtator(handle)[0]
    spans = segment_sentences(
        document.text, [(m_.char_start, m_.char_end) for m_ in document.mentions]
    )
    _, relations = project_document_relations(document, spans)
    expected = json.loads(
        (FIXTURES / "cdr_corpus.expected.json").read_text(encoding="utf-8")
    )
    assert [
        [r.sentence_id, r.e1_kb_id, r.e2_kb_id]
        for r in relations if r.label == "positive"
    ] == expected["positives"]
    assert [
        [r.sentence_id, r.e1_kb_id, r.e2_kb_id]
        for r in relations if r.label == "negative"
    ] == expected["negatives"]
    assert len(relations) == len(expected["positives"]) + len(expected["negatives"])


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
