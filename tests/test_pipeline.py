"""Run configuration, dataset splitting, pipeline commands, CLI exit codes."""
import json
import math

import numpy as np
import pytest

from biont import cli
from biont import pipeline
from biont.config import load_config
from biont.errors import ConfigError, DataError
from biont.instances import Instance, load_instances
from test_model import (
    b64,
    drop_every_channel,
    make_instance,
    name_words_as_list,
    repeat_words_channel,
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
    payload = json.loads(model_path.read_text(encoding="utf-8"))
    assert payload["version"] == "2"
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
    words = json.loads(model_path.read_text(encoding="utf-8"))["vocabularies"]["words"]
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

    from biont.instances import dump_instances
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


def test_cli_evaluate_and_predict_reject_config_option(fixtures, tmp_path, capsys):
    config = str(fixtures / "ddi.config.json")
    for command in ("evaluate", "predict"):
        assert run_cli(command, "--config", config, "--model", str(tmp_path / "m.json"),
                       "--in", str(tmp_path / "i.jsonl"), "--out", str(tmp_path / "o")) == 1
    assert "--config" in capsys.readouterr().err


def test_cli_model_with_swapped_tensor_shape_exits_two(fixtures, tmp_path, capsys):
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    model = tmp_path / "model.json"
    payload = json.loads(model.read_text(encoding="utf-8"))
    payload["tensors"]["words.fwd.R"]["shape"].reverse()
    model.write_text(json.dumps(payload), encoding="utf-8")
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
    payload = json.loads(model.read_text(encoding="utf-8"))
    edit(payload)
    model.write_text(json.dumps(payload), encoding="utf-8")
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
    payload = json.loads(model.read_text(encoding="utf-8"))
    words = payload["vocabularies"]["words"]
    words[list(words)[-1]] = 0
    model.write_text(json.dumps(payload), encoding="utf-8")
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
    payload = json.loads(model.read_text(encoding="utf-8"))
    payload["tensors"]["out.b"]["data"] = b64([math.inf, 0.0])
    model.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("predict", "--model", str(model), "--in",
                   str(tmp_path / "instances.jsonl"), "--out", str(tmp_path / "p.jsonl")) == 2
    err = capsys.readouterr().err
    assert "out.b" in err and "non-finite" in err
    assert "Traceback" not in err


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
