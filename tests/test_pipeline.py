"""Run configuration, dataset splitting, pipeline commands, CLI exit codes."""
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from biont import cli
from biont import pipeline
from biont.config import load_config
from biont.errors import ConfigError, DataError
from biont.instances import Instance, dump_instances, load_instances
from biont.model import forward
from test_model import (
    drop_every_channel,
    hexdata,
    make_instance,
    model_file,
    name_words_as_list,
    read_payload,
    repeat_words_channel,
    version_two_text,
)

PATH_KEYS = ("corpus_path", "lexicon", "parses", "vectors", "gaf")


def materialize_config(fixtures, tmp_path, name, mutate=None, drop=None):
    """Copy a fixture config into tmp_path with absolute data paths."""
    payload = json.loads((fixtures / name).read_text(encoding="utf-8"))
    for key in PATH_KEYS:
        if key in payload:
            payload[key] = str(fixtures / payload[key])
    for section in ("ontologies", "xref"):
        for namespace, value in (payload.get(section) or {}).items():
            payload[section][namespace] = str(fixtures / value)
    if mutate:
        payload.update(mutate)
    for key in drop or ():
        payload.pop(key, None)
    target = tmp_path / name
    target.write_text(json.dumps(payload), encoding="utf-8")
    return target


# --- configuration -----------------------------------------------------------


def test_load_config_fixture_files(fixtures):
    for name in ("ddi.config.json", "pgr.config.json", "cdr.config.json"):
        config = load_config(fixtures / name)
        assert config.corpus_path.is_file()
        assert config.lexicon.is_file()
    ddi = load_config(fixtures / "ddi.config.json")
    assert ddi.enabled_channels() == ["words", "classes", "onto_concat", "onto_common"]
    assert ddi.train.dropout_keep == 0.8
    cdr = load_config(fixtures / "cdr.config.json")
    assert "onto_common" not in cdr.enabled_channels()


def test_config_missing_file_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


def test_config_invalid_json_raises(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_config_unknown_top_key_raises(fixtures, tmp_path):
    path = materialize_config(fixtures, tmp_path, "ddi.config.json",
                              mutate={"mystery_knob": 1})
    with pytest.raises(ConfigError, match="mystery_knob"):
        load_config(path)


def test_config_unknown_corpus_raises(fixtures, tmp_path):
    path = materialize_config(fixtures, tmp_path, "ddi.config.json",
                              mutate={"corpus": "semeval"})
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_dangling_data_path_raises(fixtures, tmp_path):
    path = materialize_config(fixtures, tmp_path, "ddi.config.json",
                              mutate={"corpus_path": str(tmp_path / "gone.xml")})
    with pytest.raises(ConfigError, match="corpus_path"):
        load_config(path)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 2])
def test_config_split_fraction_bounds(fixtures, tmp_path, fraction):
    path = materialize_config(fixtures, tmp_path, "ddi.config.json",
                              mutate={"split_fraction": fraction})
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_onto_common_needs_same_type_pairs(fixtures, tmp_path):
    channels = {"words": True, "classes": True, "onto_concat": True,
                "onto_common": True}
    path = materialize_config(fixtures, tmp_path, "cdr.config.json",
                              mutate={"channels": channels})
    with pytest.raises(ConfigError, match="onto_common"):
        load_config(path)


def test_config_needs_at_least_one_channel(fixtures, tmp_path):
    channels = {name: False for name in ("words", "classes", "onto_concat", "onto_common")}
    path = materialize_config(fixtures, tmp_path, "ddi.config.json",
                              mutate={"channels": channels})
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_pgr_requires_gaf(fixtures, tmp_path):
    path = materialize_config(fixtures, tmp_path, "pgr.config.json", drop=["gaf"])
    with pytest.raises(ConfigError, match="gaf"):
        load_config(path)


def test_config_pgr_requires_complete_column_map(fixtures, tmp_path):
    payload = json.loads((fixtures / "pgr.config.json").read_text(encoding="utf-8"))
    column_map = payload["column_map"]
    del column_map["relation"]
    path = materialize_config(fixtures, tmp_path, "pgr.config.json",
                              mutate={"column_map": column_map})
    with pytest.raises(ConfigError, match="relation"):
        load_config(path)


def test_config_rejects_bad_train_values(fixtures, tmp_path):
    for mutation in (
        {"train": {"learning_rate": 0}},
        {"train": {"epochs": -1}},
        {"train": {"batch_size": 0}},
        {"train": {"dropout_keep": 0.0}},
        {"train": {"dropout_keep": 1.5}},
        {"train": {"max_sdp_len": 1}},
        {"train": {"class_weight_positive": 0}},
        {"model": {"hidden_dim": 0}},
        {"model": {"embed_dim_words": "six"}},
    ):
        path = materialize_config(fixtures, tmp_path, "ddi.config.json",
                                  mutate=mutation)
        with pytest.raises(ConfigError):
            load_config(path)


def test_config_train_seed_defaults_to_top_seed(fixtures, tmp_path):
    payload = json.loads((fixtures / "ddi.config.json").read_text(encoding="utf-8"))
    train = dict(payload["train"])
    train.pop("seed")
    path = materialize_config(fixtures, tmp_path, "ddi.config.json",
                              mutate={"train": train, "seed": 123})
    config = load_config(path)
    assert config.train.seed == 123


# --- splitting ----------------------------------------------------------------


def test_split_dataset_groups_stay_together():
    instances = [
        make_instance(iid=f"i{k}", sentence=f"s{k % 4}") for k in range(20)
    ]
    train, test = pipeline.split_dataset(instances, 0.5, seed=3)
    train_sentences = {i.sentence_id for i in train}
    test_sentences = {i.sentence_id for i in test}
    assert not train_sentences & test_sentences
    assert len(train) + len(test) == 20
    assert len(train_sentences) == math.ceil(0.5 * 4)


def test_split_dataset_deterministic_and_seed_sensitive():
    instances = [make_instance(iid=f"i{k}", sentence=f"s{k}") for k in range(40)]
    first = pipeline.split_dataset(instances, 0.6, seed=9)
    second = pipeline.split_dataset(instances, 0.6, seed=9)
    assert first == second
    third = pipeline.split_dataset(instances, 0.6, seed=10)
    assert first != third


def test_split_dataset_fraction_rounds_up():
    instances = [make_instance(iid=f"i{k}", sentence=f"s{k}") for k in range(3)]
    train, test = pipeline.split_dataset(instances, 0.5, seed=1)
    assert len(train) == 2 and len(test) == 1


# --- pipeline commands -----------------------------------------------------------


@pytest.mark.parametrize("name,expected_count", [
    ("ddi.config.json", 3),
    ("pgr.config.json", 3),
    ("cdr.config.json", 3),
])
def test_preprocess_each_corpus(fixtures, tmp_path, name, expected_count):
    config = load_config(fixtures / name)
    out = tmp_path / "instances.jsonl"
    instances, diagnostics = pipeline.cmd_preprocess(config, out)
    assert len(instances) == expected_count
    assert load_instances(out.open(encoding="utf-8")) == instances
    report = (tmp_path / "instances.report.tsv").read_text(encoding="utf-8")
    lines = report.strip().splitlines()
    assert lines[0] == "reason\tcount"
    reasons = [line.split("\t")[0] for line in lines[1:]]
    assert reasons == sorted(reasons)
    for canonical in pipeline.CANONICAL_SKIP_REASONS:
        assert canonical in reasons


@pytest.mark.parametrize("corpus", ["ddi", "pgr", "cdr"])
def test_preprocess_matches_golden_outputs(fixtures, tmp_path, corpus):
    config = load_config(fixtures / f"{corpus}.config.json")
    pipeline.cmd_preprocess(config, tmp_path / "instances.jsonl", tmp_path / "report.tsv")
    golden = fixtures / "golden" / corpus
    for name in ("instances.jsonl", "report.tsv"):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


def test_preprocess_honors_explicit_report_path(fixtures, tmp_path):
    config = load_config(fixtures / "ddi.config.json")
    out = tmp_path / "inst.jsonl"
    report = tmp_path / "why.tsv"
    pipeline.cmd_preprocess(config, out, report)
    assert report.is_file()


def test_train_writes_model_and_history(fixtures, tmp_path):
    config = load_config(fixtures / "ddi.config.json")
    instances_path = tmp_path / "instances.jsonl"
    pipeline.cmd_preprocess(config, instances_path)
    model_path = tmp_path / "model.json"
    best, history = pipeline.cmd_train(config, instances_path, model_path)
    assert model_path.is_file()
    assert len(history) == config.train.epochs
    lines = (tmp_path / "model.history.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch\ttrain_loss\tdev_f"
    assert len(lines) == config.train.epochs + 1
    payload = json.loads(model_path.read_text(encoding="utf-8").split("\n", 1)[0])
    assert payload["version"] == "3"
    assert [s["name"] for s in payload["specs"]] == [
        "words", "classes", "onto_concat", "onto_common",
    ]


def test_train_vector_header_after_blank_line_is_not_a_word(fixtures, tmp_path):
    # the optional "count dim" header is the first non-blank line
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("\n2 3\nfoo 0.1 0.2 0.3\nbar 0.4 0.5 0.6\n", encoding="utf-8")
    config_path = materialize_config(fixtures, tmp_path, "ddi.config.json",
                                     mutate={"vectors": str(vectors)})
    payload = json.loads(config_path.read_text(encoding="utf-8"))
    payload["model"]["embed_dim_words"] = 3
    config_path.write_text(json.dumps(payload), encoding="utf-8")
    config = load_config(config_path)
    instances_path = tmp_path / "instances.jsonl"
    pipeline.cmd_preprocess(config, instances_path)
    model_path = tmp_path / "model.json"
    pipeline.cmd_train(config, instances_path, model_path)
    words = read_payload(model_path.read_text(encoding="utf-8"))["vocabularies"]["words"]
    assert "2" not in words
    assert list(words)[-2:] == ["foo", "bar"]


def test_train_on_empty_instances_raises(fixtures, tmp_path):
    config = load_config(fixtures / "ddi.config.json")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        pipeline.cmd_train(config, empty, tmp_path / "model.json")


def test_evaluate_writes_report(fixtures, tmp_path):
    config = load_config(fixtures / "ddi.config.json")
    instances_path = tmp_path / "instances.jsonl"
    pipeline.cmd_preprocess(config, instances_path)
    model_path = tmp_path / "model.json"
    pipeline.cmd_train(config, instances_path, model_path)
    metrics_path = tmp_path / "metrics.tsv"
    metrics = pipeline.cmd_evaluate(model_path, instances_path, metrics_path)
    lines = metrics_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "configuration\tprecision\trecall\tf_score"
    row = lines[1].split("\t")
    assert row[0] == "words+classes+onto_concat+onto_common"
    assert row[1] == f"{metrics.precision:.4f}"


def test_evaluate_rejects_unlabeled(fixtures, tmp_path):
    config = load_config(fixtures / "ddi.config.json")
    instances_path = tmp_path / "instances.jsonl"
    pipeline.cmd_preprocess(config, instances_path)
    model_path = tmp_path / "model.json"
    pipeline.cmd_train(config, instances_path, model_path)

    instances = load_instances(instances_path.open(encoding="utf-8"))
    unlabeled = [
        Instance(**{**i.__dict__, "label": "unlabeled"}) for i in instances
    ]
    stripped = tmp_path / "unlabeled.jsonl"
    with stripped.open("w", encoding="utf-8") as handle:
        dump_instances(unlabeled, handle)
    with pytest.raises(DataError):
        pipeline.cmd_evaluate(model_path, stripped, tmp_path / "m.tsv")


def test_predict_writes_json_lines(fixtures, tmp_path):
    config = load_config(fixtures / "cdr.config.json")
    instances_path = tmp_path / "instances.jsonl"
    pipeline.cmd_preprocess(config, instances_path)
    model_path = tmp_path / "model.json"
    pipeline.cmd_train(config, instances_path, model_path)
    out = tmp_path / "preds.jsonl"
    predictions = pipeline.cmd_predict(model_path, instances_path, out)
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == len(predictions) == 3
    for row in rows:
        assert set(row) == {"instance_id", "prob_positive", "label"}
        assert row["label"] in ("positive", "negative")
        assert 0.0 <= row["prob_positive"] <= 1.0


def test_forward_is_invariant_to_batch_partition(fixtures, tmp_path):
    # how the rows are split into batches changes the shapes BLAS sees, not
    # the probabilities beyond 1e-12
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    params, encoder, instances = pipeline._load_for_inference(
        tmp_path / "model.json", tmp_path / "instances.jsonl")
    encoded = encoder.encode(instances).ids
    rng = np.random.default_rng(5)
    batch = {spec.name: np.concatenate([
        np.pad(encoded[spec.name], ((0, 0), (0, spec.max_len - encoded[spec.name].shape[1]))),
        rng.integers(0, spec.vocab_size, size=(9, spec.max_len))])
        for spec in params.specs}
    whole = forward(params, batch)
    chunks = [forward(params, {name: ids[part] for name, ids in batch.items()})
              for part in (slice(0, 1), slice(1, 4), slice(4, None))]
    assert len(whole) == 12
    assert np.max(np.abs(np.concatenate(chunks) - whole)) <= 1e-12


def test_pgr_split_produces_nonempty_dev(fixtures, tmp_path):
    # two sentence groups at fraction 0.5: one goes to each side
    config = load_config(fixtures / "pgr.config.json")
    instances_path = tmp_path / "instances.jsonl"
    instances, _ = pipeline.cmd_preprocess(config, instances_path)
    train, dev = pipeline.split_dataset(instances, config.split_fraction, config.seed)
    assert train and dev
    pipeline.cmd_train(config, instances_path, tmp_path / "model.json")


# --- command line -----------------------------------------------------------------


def run_cli(*argv):
    return cli.main(list(argv))


def full_run(fixtures, tmp_path, config_name="ddi.config.json"):
    config = str(fixtures / config_name)
    instances = str(tmp_path / "instances.jsonl")
    model = str(tmp_path / "model.json")
    metrics = str(tmp_path / "metrics.tsv")
    preds = str(tmp_path / "preds.jsonl")
    codes = [
        run_cli("preprocess", "--config", config, "--out", instances),
        run_cli("train", "--config", config, "--in", instances, "--model", model),
        run_cli("evaluate", "--model", model, "--in", instances, "--out", metrics),
        run_cli("predict", "--model", model, "--in", instances, "--out", preds),
    ]
    return codes


def test_cli_full_run_exits_zero(fixtures, tmp_path, capsys):
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    out = capsys.readouterr().out
    assert "wrote 3 instances" in out
    assert "precision" in out


def test_cli_train_with_unlabeled_dev_row_exits_two(fixtures, tmp_path, capsys):
    # an unlabeled dev row once counted as a negative in every epoch's dev F
    config_path = fixtures / "pgr.config.json"
    config = load_config(config_path)
    instances_path = tmp_path / "instances.jsonl"
    instances, _ = pipeline.cmd_preprocess(config, instances_path)
    _, dev = pipeline.split_dataset(instances, config.split_fraction, config.seed)
    assert len(dev) == 1
    relabeled = [replace(i, label="unlabeled") if i in dev else i for i in instances]
    with instances_path.open("w", encoding="utf-8") as handle:
        dump_instances(relabeled, handle)
    model = tmp_path / "model.json"
    assert run_cli("train", "--config", str(config_path), "--in", str(instances_path),
                   "--model", str(model)) == 2
    err = capsys.readouterr().err
    assert "error: dev split: 1 unlabeled instance" in err
    assert "Traceback" not in err
    assert not model.exists()


def test_cli_evaluate_duplicated_instance_id_exits_two(fixtures, tmp_path, capsys):
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    instances = tmp_path / "instances.jsonl"
    lines = instances.read_text(encoding="utf-8").splitlines(keepends=True)
    instances.write_text("".join(lines + lines[1:2]), encoding="utf-8")
    instance_id = json.loads(lines[1])["instance_id"]
    metrics = tmp_path / "repeated.tsv"
    capsys.readouterr()
    assert run_cli("evaluate", "--model", str(tmp_path / "model.json"),
                   "--in", str(instances), "--out", str(metrics)) == 2
    err = capsys.readouterr().err
    assert f"instance id {instance_id} is listed twice in {instances}" in err
    assert "Traceback" not in err
    assert not metrics.exists()


@pytest.mark.parametrize("command", ["train", "predict"])
def test_cli_train_and_predict_refuse_a_duplicated_instance_id(
        fixtures, tmp_path, capsys, command):
    # only evaluate refused a repeated id; train and predict read it as two rows
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    instances = tmp_path / "instances.jsonl"
    lines = instances.read_text(encoding="utf-8").splitlines(keepends=True)
    instances.write_text("".join(lines + lines[1:2]), encoding="utf-8")
    instance_id = json.loads(lines[1])["instance_id"]
    out = tmp_path / f"repeated.{command}"
    if command == "train":
        argv = ["--config", str(fixtures / "ddi.config.json"), "--model", str(out)]
    else:
        argv = ["--model", str(tmp_path / "model.json"), "--out", str(out)]
    capsys.readouterr()
    assert run_cli(command, "--in", str(instances), *argv) == 2
    err = capsys.readouterr().err
    assert f"instance id {instance_id} is listed twice in {instances}" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not out.with_suffix(".history.tsv").exists()


def document_twice(fixtures, tmp_path, corpus):
    """The fixture corpus with its one document listed twice: the DDI copy
    under a second document id, the PubTator copy as it is."""
    if corpus == "ddi":
        text = (fixtures / "ddi_corpus.xml").read_text(encoding="utf-8")
        declaration, _, document = text.partition("\n")
        copy = document.replace('id="DDI-FIX.d0"', 'id="DDI-FIX.d1"', 1)
        path = tmp_path / "ddi_corpus.xml"
        path.write_text(f"{declaration}\n<corpus>\n{document}{copy}</corpus>\n",
                        encoding="utf-8")
    else:
        text = (fixtures / "cdr_corpus.txt").read_text(encoding="utf-8")
        path = tmp_path / "cdr_corpus.txt"
        path.write_text(text + "\n" + text, encoding="utf-8")
    return path


@pytest.mark.parametrize("corpus, instance_id", [
    ("ddi", "DDI-FIX.d0.s0.e0__DDI-FIX.d0.s0.e1"),
    ("cdr", "100.s0.e0__100.s0.e1"),
])
def test_cli_preprocess_refuses_a_document_listed_twice(
        fixtures, tmp_path, capsys, corpus, instance_id):
    # preprocess wrote each instance twice, under one id, and exited 0
    config = materialize_config(
        fixtures, tmp_path, f"{corpus}.config.json",
        mutate={"corpus_path": str(document_twice(fixtures, tmp_path, corpus))})
    out = tmp_path / "x.jsonl"
    assert run_cli("preprocess", "--config", str(config), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"error: instance id {instance_id} would be emitted twice" in err
    assert "Traceback" not in err
    assert not out.exists()


def ddi_document_copied(fixtures, tmp_path, edit):
    """The DDI fixture corpus with a second document: a copy of the first
    under fresh document, entity and pair ids (its sentence ids kept),
    passed through `edit`."""
    text = (fixtures / "ddi_corpus.xml").read_text(encoding="utf-8")
    declaration, _, document = text.partition("\n")
    copy = edit(re.sub(r'"DDI-FIX\.d0(\.s\d\.[ep]\d)?"', r'"DDI-FIX.d1\1"', document))
    path = tmp_path / "ddi_corpus.xml"
    path.write_text(f"{declaration}\n<corpus>\n{document}{copy}</corpus>\n", encoding="utf-8")
    return path


def test_cli_ddi_sentence_id_shared_by_two_documents_keeps_each_ones_gold(
        fixtures, tmp_path, capsys):
    # gold used to be grouped by sentence id, so the copy's ddi="false"
    # pairs came out positive
    corpus = ddi_document_copied(fixtures, tmp_path,
                                 lambda xml: xml.replace('ddi="true"', 'ddi="false"'))
    config = materialize_config(fixtures, tmp_path, "ddi.config.json",
                                mutate={"corpus_path": str(corpus)})
    out = tmp_path / "x.jsonl"
    assert run_cli("preprocess", "--config", str(config), "--out", str(out)) == 0
    labels = {row["instance_id"]: row["label"] for row in map(
        json.loads, out.read_text(encoding="utf-8").splitlines())}
    assert labels == {
        "DDI-FIX.d0.s0.e0__DDI-FIX.d0.s0.e1": "positive",
        "DDI-FIX.d0.s0.e0__DDI-FIX.d0.s0.e2": "positive",
        "DDI-FIX.d0.s0.e1__DDI-FIX.d0.s0.e2": "negative",
        "DDI-FIX.d1.s0.e0__DDI-FIX.d1.s0.e1": "negative",
        "DDI-FIX.d1.s0.e0__DDI-FIX.d1.s0.e2": "negative",
        "DDI-FIX.d1.s0.e1__DDI-FIX.d1.s0.e2": "negative",
    }


def test_cli_ddi_sentence_id_repeated_with_another_text_exits_two(fixtures, tmp_path, capsys):
    # parses are looked up by sentence id, so the copy's text was aligned
    # against the parse of the first text
    corpus = ddi_document_copied(fixtures, tmp_path,
                                 lambda xml: xml.replace("increases", "decreases"))
    config = materialize_config(fixtures, tmp_path, "ddi.config.json",
                                mutate={"corpus_path": str(corpus)})
    out = tmp_path / "x.jsonl"
    assert run_cli("preprocess", "--config", str(config), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "error: sentence DDI-FIX.d0.s0 repeats with a different text" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_usage_error_exits_one(capsys):
    assert run_cli("transmogrify") == 1
    assert run_cli("train", "--config") == 1
    assert run_cli() == 1
    assert "error:" in capsys.readouterr().err


def test_cli_config_error_exits_one(fixtures, tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert run_cli("preprocess", "--config", missing,
                   "--out", str(tmp_path / "x.jsonl")) == 1


def test_cli_data_error_exits_two(fixtures, tmp_path, capsys):
    broken = tmp_path / "broken.xml"
    broken.write_text("<document id='d'><sentence", encoding="utf-8")
    config = materialize_config(
        fixtures, tmp_path, "ddi.config.json",
        mutate={"corpus_path": str(broken)},
    )
    assert run_cli("preprocess", "--config", str(config),
                   "--out", str(tmp_path / "x.jsonl")) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_truncated_instances_file_exits_two(fixtures, tmp_path, capsys):
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    instances = tmp_path / "instances.jsonl"
    instances.write_bytes(instances.read_bytes()[:300])
    capsys.readouterr()
    assert run_cli("predict", "--model", str(tmp_path / "model.json"),
                   "--in", str(instances), "--out", str(tmp_path / "p.jsonl")) == 2
    err = capsys.readouterr().err
    assert "instances line 1" in err
    assert "Traceback" not in err


def test_cli_unalignable_token_exits_two(fixtures, tmp_path, capsys):
    parses = tmp_path / "ddi_parses.conllu"
    text = (fixtures / "ddi_parses.conllu").read_text(encoding="utf-8")
    parses.write_text(text.replace("effect", "effekt"), encoding="utf-8")
    config = materialize_config(fixtures, tmp_path, "ddi.config.json",
                                mutate={"parses": str(parses)})
    assert run_cli("preprocess", "--config", str(config),
                   "--out", str(tmp_path / "x.jsonl")) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("obo", [
    "format-version: 1.2\n",
    "format-version: 1.2\n\n[Term]\nid: GO:0000001\nis_obsolete: true\n",
], ids=["header_only", "all_obsolete"])
def test_cli_pgr_with_empty_go_ontology_exits_two(fixtures, tmp_path, capsys, obo):
    # a gene without usable annotations falls back to a root; with no live
    # term there is none, which used to end in a traceback
    go = tmp_path / "go_empty.obo"
    go.write_text(obo, encoding="utf-8")
    ontologies = {"go": str(go), "hp": str(fixtures / "hp_mini.obo")}
    config = materialize_config(fixtures, tmp_path, "pgr.config.json",
                                mutate={"ontologies": ontologies})
    assert run_cli("preprocess", "--config", str(config),
                   "--out", str(tmp_path / "x.jsonl")) == 2
    err = capsys.readouterr().err
    assert "go ontology has no non-obsolete term" in err
    assert "Traceback" not in err


def test_cli_obo_stanza_with_two_ids_exits_two(fixtures, tmp_path, capsys):
    # the second id used to replace the first, and warfarin's is_a on the
    # first then failed as a dangling parent
    chebi = tmp_path / "chebi_two_ids.obo"
    text = (fixtures / "chebi_mini.obo").read_text(encoding="utf-8")
    chebi.write_text(text.replace("id: CHEBI:38147\n", "id: CHEBI:38147\nid: CHEBI:38148\n"),
                     encoding="utf-8")
    config = materialize_config(fixtures, tmp_path, "ddi.config.json",
                                mutate={"ontologies": {"chebi": str(chebi)}})
    assert run_cli("preprocess", "--config", str(config),
                   "--out", str(tmp_path / "x.jsonl")) == 2
    err = capsys.readouterr().err
    assert "[Term] stanza with two ids: CHEBI:38147, CHEBI:38148" in err
    assert "Traceback" not in err


def test_cli_pgr_row_short_of_mapped_doc_id_exits_two(fixtures, tmp_path, capsys):
    # the doc_id column used to be read by index, so a row that stopped
    # before it ended in an IndexError traceback
    rows = (fixtures / "pgr_corpus.tsv").read_text(encoding="utf-8").splitlines()
    header, body = rows[0] + "\tpmid", [row + "\t1000" for row in rows[1:-1]] + rows[-1:]
    tsv = tmp_path / "pgr_corpus.tsv"
    tsv.write_text("\n".join([header] + body) + "\n", encoding="utf-8")
    column_map = dict(json.loads((fixtures / "pgr.config.json").read_text(
        encoding="utf-8"))["column_map"], doc_id="pmid")
    config = materialize_config(fixtures, tmp_path, "pgr.config.json",
                                mutate={"corpus_path": str(tsv), "column_map": column_map})
    assert run_cli("preprocess", "--config", str(config),
                   "--out", str(tmp_path / "x.jsonl")) == 2
    err = capsys.readouterr().err
    assert "row too short for column 'pmid'" in err
    assert "Traceback" not in err


def test_cli_pgr_sentence_id_repeated_with_another_text_exits_two(fixtures, tmp_path, capsys):
    # the repeated row was merged into the first one and its text dropped
    tsv = tmp_path / "pgr_corpus.tsv"
    row = "\t".join(["PGR.s0", "BRCA1 mutations stop blindness.", "672", "BRCA1", "0", "5",
                     "HP:0000618", "blindness", "21", "30", "TRUE"])
    tsv.write_text((fixtures / "pgr_corpus.tsv").read_text(encoding="utf-8") + row + "\n",
                   encoding="utf-8")
    config = materialize_config(fixtures, tmp_path, "pgr.config.json",
                                mutate={"corpus_path": str(tsv)})
    assert run_cli("preprocess", "--config", str(config),
                   "--out", str(tmp_path / "x.jsonl")) == 2
    err = capsys.readouterr().err
    assert "error: row 5: sentence PGR.s0 repeats with a different text" in err
    assert "Traceback" not in err


def test_cli_train_with_wrong_vector_header_count_exits_two(fixtures, tmp_path, capsys):
    vectors = tmp_path / "vectors.txt"
    text = (fixtures / "vectors.txt").read_text(encoding="utf-8")
    vectors.write_text(text.replace("2 6", "5 6", 1), encoding="utf-8")
    config = materialize_config(fixtures, tmp_path, "ddi.config.json",
                                mutate={"vectors": str(vectors)})
    instances = tmp_path / "instances.jsonl"
    model = tmp_path / "model.json"
    assert run_cli("preprocess", "--config", str(config), "--out", str(instances)) == 0
    capsys.readouterr()
    assert run_cli("train", "--config", str(config), "--in", str(instances),
                   "--model", str(model)) == 2
    err = capsys.readouterr().err
    assert "header count 5 vs 2 vector lines" in err
    assert "Traceback" not in err
    assert not model.exists()


def test_cli_evaluate_and_predict_reject_config_option(fixtures, tmp_path, capsys):
    config = str(fixtures / "ddi.config.json")
    for command in ("evaluate", "predict"):
        assert run_cli(command, "--config", config, "--model", str(tmp_path / "m.json"),
                       "--in", str(tmp_path / "i.jsonl"), "--out", str(tmp_path / "o")) == 1
    assert "--config" in capsys.readouterr().err


def nan_threshold_run(fixtures, tmp_path, capsys, command):
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    capsys.readouterr()
    out = tmp_path / "out"
    code = run_cli(command, "--model", str(tmp_path / "model.json"),
                   "--in", str(tmp_path / "instances.jsonl"), "--out", str(out),
                   "--threshold", "nan")
    err = capsys.readouterr().err
    assert "--threshold" in err
    assert "Traceback" not in err
    assert not out.exists()
    return code


def test_cli_predict_nan_threshold_exits_one(fixtures, tmp_path, capsys):
    # NaN labelled every instance negative and exited 0
    assert nan_threshold_run(fixtures, tmp_path, capsys, "predict") == 1


def test_cli_evaluate_nan_threshold_exits_one(fixtures, tmp_path, capsys):
    # NaN labelled every instance negative and reported F 0.0000
    assert nan_threshold_run(fixtures, tmp_path, capsys, "evaluate") == 1


def test_cli_model_with_swapped_tensor_shape_exits_two(fixtures, tmp_path, capsys):
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    model = tmp_path / "model.json"
    payload = read_payload(model.read_text(encoding="utf-8"))
    payload["tensors"]["words.fwd.R"]["shape"].reverse()
    model.write_text(model_file(payload), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("predict", "--model", str(model), "--in",
                   str(tmp_path / "instances.jsonl"), "--out", str(tmp_path / "p.jsonl")) == 2
    err = capsys.readouterr().err
    assert "words.fwd.R" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", [name_words_as_list, drop_every_channel,
                                  repeat_words_channel])
def test_cli_model_with_bad_channel_list_exits_two(fixtures, tmp_path, capsys, edit):
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    model = tmp_path / "model.json"
    payload = read_payload(model.read_text(encoding="utf-8"))
    edit(payload)
    model.write_text(model_file(payload), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("predict", "--model", str(model), "--in",
                   str(tmp_path / "instances.jsonl"), "--out", str(tmp_path / "p.jsonl")) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_cli_model_with_token_at_pad_index_exits_two(fixtures, tmp_path, capsys):
    # a real token at index 0 would read as padding
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    model = tmp_path / "model.json"
    payload = read_payload(model.read_text(encoding="utf-8"))
    words = payload["vocabularies"]["words"]
    words[list(words)[-1]] = 0
    model.write_text(model_file(payload), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("predict", "--model", str(model), "--in",
                   str(tmp_path / "instances.jsonl"), "--out", str(tmp_path / "p.jsonl")) == 2
    err = capsys.readouterr().err
    assert "words vocabulary" in err
    assert "Traceback" not in err


def test_cli_evaluate_on_empty_instances_exits_two(fixtures, tmp_path, capsys):
    # as train does; predict still writes an empty predictions file
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    model = str(tmp_path / "model.json")
    capsys.readouterr()
    assert run_cli("evaluate", "--model", model, "--in", str(empty),
                   "--out", str(tmp_path / "m.tsv")) == 2
    err = capsys.readouterr().err
    assert "no instances to evaluate" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.tsv").exists()
    preds = tmp_path / "p.jsonl"
    assert run_cli("predict", "--model", model, "--in", str(empty), "--out", str(preds)) == 0
    assert preds.read_text(encoding="utf-8") == ""


def test_cli_missing_model_file_exits_two(fixtures, tmp_path, capsys):
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    capsys.readouterr()
    assert run_cli("predict", "--model", str(tmp_path / "nope.json"), "--in",
                   str(tmp_path / "instances.jsonl"), "--out", str(tmp_path / "p.jsonl")) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "nope.json" in err
    assert "Traceback" not in err


def test_cli_missing_instances_file_exits_two(fixtures, tmp_path, capsys):
    assert run_cli("train", "--config", str(fixtures / "ddi.config.json"), "--in",
                   str(tmp_path / "nope.jsonl"), "--model", str(tmp_path / "m.json")) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "nope.jsonl" in err
    assert "Traceback" not in err


def test_cli_output_in_missing_directory_exits_two(fixtures, tmp_path, capsys):
    assert run_cli("preprocess", "--config", str(fixtures / "ddi.config.json"),
                   "--out", str(tmp_path / "nodir" / "x.jsonl")) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "nodir" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["instances.jsonl", "model.json"])
def test_cli_non_utf8_input_file_exits_two(fixtures, tmp_path, capsys, name):
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    target = tmp_path / name
    data = target.read_bytes()
    target.write_bytes(data[:40] + b"\xff" + data[40:])
    capsys.readouterr()
    assert run_cli("predict", "--model", str(tmp_path / "model.json"), "--in",
                   str(tmp_path / "instances.jsonl"), "--out", str(tmp_path / "p.jsonl")) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "utf-8" in err
    assert "Traceback" not in err


def test_cli_non_utf8_config_exits_one(fixtures, tmp_path, capsys):
    config = materialize_config(fixtures, tmp_path, "ddi.config.json")
    config.write_bytes(b"\xff" + config.read_bytes())
    assert run_cli("preprocess", "--config", str(config),
                   "--out", str(tmp_path / "x.jsonl")) == 1
    err = capsys.readouterr().err
    assert "config is not valid UTF-8 JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mutation", [
    {"train": {"epochs": "3"}},
    {"train": {"learning_rate": None}},
    {"train": {"batch_size": True}},
    {"train": {"learning_rate": float("nan")}},
    {"train": []},
    {"model": {"hidden_dim": True}},
    {"model": ["hidden_dim"]},
    {"ontologies": ["chebi"]},
    {"channels": ["words"]},
    {"xref": ["x"]},
    {"seed": False},
    {"truthy_tokens": 5},
    {"truthy_tokens": False},
    {"truthy_tokens": 0},
    {"truthy_tokens": ""},
    {"truthy_tokens": []},
    {"truthy_tokens": ["yes", 1]},
    {"channels": {"words": "false"}},
    {"channels": {"words": 1}},
    {"channels": {"words": True, "classes": None}},
    {"column_map": {"relation": 5}},
], ids=lambda mutation: json.dumps(mutation))
def test_cli_wrong_typed_config_value_exits_one(fixtures, tmp_path, capsys, mutation):
    config = materialize_config(fixtures, tmp_path, "ddi.config.json", mutate=mutation)
    assert run_cli("preprocess", "--config", str(config),
                   "--out", str(tmp_path / "x.jsonl")) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_cli_model_with_non_finite_value_exits_two(fixtures, tmp_path, capsys):
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    model = tmp_path / "model.json"
    payload = read_payload(model.read_text(encoding="utf-8"))
    payload["tensors"]["out.b"]["data"] = hexdata([math.inf, 0.0])
    model.write_text(model_file(payload), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("predict", "--model", str(model), "--in",
                   str(tmp_path / "instances.jsonl"), "--out", str(tmp_path / "p.jsonl")) == 2
    err = capsys.readouterr().err
    assert "out.b" in err and "non-finite" in err
    assert "Traceback" not in err


def test_cli_train_with_non_finite_vector_component_exits_two(fixtures, tmp_path, capsys):
    # float() reads nan and inf; such a model would be refused by predict
    vectors = tmp_path / "vectors.txt"
    text = (fixtures / "vectors.txt").read_text(encoding="utf-8")
    vectors.write_text(text + "zzzunused nan 0.1 0.1 0.1 0.1 inf\n", encoding="utf-8")
    config = materialize_config(fixtures, tmp_path, "ddi.config.json",
                                mutate={"vectors": str(vectors)})
    instances = tmp_path / "instances.jsonl"
    model = tmp_path / "model.json"
    assert run_cli("preprocess", "--config", str(config), "--out", str(instances)) == 0
    capsys.readouterr()
    assert run_cli("train", "--config", str(config), "--in", str(instances),
                   "--model", str(model)) == 2
    err = capsys.readouterr().err
    assert "line 4: non-finite component" in err
    assert "Traceback" not in err
    assert not model.exists()


def test_cli_two_runs_are_byte_identical(fixtures, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    first.mkdir()
    second.mkdir()
    assert full_run(fixtures, first) == [0, 0, 0, 0]
    assert full_run(fixtures, second) == [0, 0, 0, 0]
    for name in ("instances.jsonl", "instances.report.tsv", "model.json",
                 "model.history.tsv", "metrics.tsv", "preds.jsonl"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_cli_model_file_version_two_exits_two(fixtures, tmp_path, capsys):
    # no second reader: a version-2 file must be trained again
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    model = tmp_path / "model.json"
    model.write_text(version_two_text(read_payload(model.read_text(encoding="utf-8"))),
                     encoding="utf-8")
    capsys.readouterr()
    assert run_cli("predict", "--model", str(model), "--in",
                   str(tmp_path / "instances.jsonl"), "--out", str(tmp_path / "p.jsonl")) == 2
    err = capsys.readouterr().err
    assert "unsupported model version '2'" in err
    assert "Traceback" not in err


def test_cli_predict_with_huge_max_len_in_model_exits_zero(fixtures, tmp_path, capsys):
    # each encoded matrix is as wide as its longest row, not max_len, so a
    # huge max_len allocates nothing; no row here is cut at the trained length
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    model = tmp_path / "model.json"
    payload = read_payload(model.read_text(encoding="utf-8"))
    payload["specs"][0]["max_len"] = 10**12
    model.write_text(model_file(payload), encoding="utf-8")
    capsys.readouterr()
    preds = tmp_path / "huge.jsonl"
    assert run_cli("predict", "--model", str(model), "--in",
                   str(tmp_path / "instances.jsonl"), "--out", str(preds)) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert preds.read_bytes() == (tmp_path / "preds.jsonl").read_bytes()


def test_cli_train_with_huge_max_sdp_len_exits_zero(fixtures, tmp_path, capsys):
    config = materialize_config(fixtures, tmp_path, "ddi.config.json")
    payload = json.loads(config.read_text(encoding="utf-8"))
    payload["train"]["max_sdp_len"] = 10**12
    config.write_text(json.dumps(payload), encoding="utf-8")
    instances, model = tmp_path / "instances.jsonl", tmp_path / "model.json"
    assert run_cli("preprocess", "--config", str(config), "--out", str(instances)) == 0
    capsys.readouterr()
    assert run_cli("train", "--config", str(config), "--in", str(instances),
                   "--model", str(model)) == 0
    assert "Traceback" not in capsys.readouterr().err
    specs = json.loads(model.read_text(encoding="utf-8").split("\n", 1)[0])["specs"]
    assert specs[0]["max_len"] == 10**12


def test_cli_train_with_unallocatable_hidden_dim_exits_two(fixtures, tmp_path, capsys):
    # 4 * 10**13 gate columns are past any address space, so the first
    # LSTM weight's allocation fails before any memory is touched
    config = materialize_config(fixtures, tmp_path, "ddi.config.json")
    payload = json.loads(config.read_text(encoding="utf-8"))
    payload["model"] = {**payload.get("model", {}), "hidden_dim": 10**13}
    config.write_text(json.dumps(payload), encoding="utf-8")
    instances, model = tmp_path / "instances.jsonl", tmp_path / "model.json"
    assert run_cli("preprocess", "--config", str(config), "--out", str(instances)) == 0
    capsys.readouterr()
    assert run_cli("train", "--config", str(config), "--in", str(instances),
                   "--model", str(model)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err
    assert "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("key", ["dense_dim", "hidden_dim"])
def test_cli_train_with_dimension_past_int64_exits_two(fixtures, tmp_path, capsys, key):
    # numpy refuses such a size with ValueError, not MemoryError
    config = materialize_config(fixtures, tmp_path, "ddi.config.json")
    payload = json.loads(config.read_text(encoding="utf-8"))
    payload["model"][key] = 2**64
    config.write_text(json.dumps(payload), encoding="utf-8")
    instances, model = tmp_path / "instances.jsonl", tmp_path / "model.json"
    assert run_cli("preprocess", "--config", str(config), "--out", str(instances)) == 0
    capsys.readouterr()
    assert run_cli("train", "--config", str(config), "--in", str(instances),
                   "--model", str(model)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot allocate the model's tensors")
    assert "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("mutation", [{"seed": -1}, {"train": {"seed": -1}}],
                         ids=["seed", "train.seed"])
def test_cli_negative_seed_exits_one(fixtures, tmp_path, capsys, mutation):
    # numpy's generators take no negative seed
    config = materialize_config(fixtures, tmp_path, "ddi.config.json", mutate=mutation)
    assert run_cli("preprocess", "--config", str(config),
                   "--out", str(tmp_path / "x.jsonl")) == 1
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer" in err
    assert "Traceback" not in err


def test_python_m_biont_predicts_in_a_fresh_process(fixtures, tmp_path):
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    preds = tmp_path / "fresh.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "biont", "predict", "--model", str(tmp_path / "model.json"),
         "--in", str(tmp_path / "instances.jsonl"), "--out", str(preds)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert preds.read_bytes() == (tmp_path / "preds.jsonl").read_bytes()
