"""Pipeline commands: preprocess, train, evaluate, predict.

Each command is a plain function the CLI wraps.  All file output is UTF-8
with LF line endings, and every step is deterministic given the config
seed, so rerunning a command reproduces its output files byte for byte.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import instances as inst_mod
from . import model as model_mod
from . import ontology
from .config import RunConfig
from .errors import DataError
from .instances import EntityResolver, Instance
from .metrics import Metrics, Prediction, compute_metrics, format_report
from .model import ChannelSpec, Encoder, ModelParams

# Always reported, even at zero, so report shapes are stable.
CANONICAL_SKIP_REASONS = ("disconnected", "unmappable_entity")


def split_dataset(
    instances: list[Instance], fraction: float, seed: int
) -> tuple[list[Instance], list[Instance]]:
    """Grouped split: all instances of a sentence stay on one side.

    Groups are shuffled with a seeded generator and the first
    ceil(fraction * n_groups) go to train.
    """
    groups: dict[str, list[Instance]] = {}
    for instance in instances:
        groups.setdefault(instance.sentence_id, []).append(instance)
    members = list(groups.values())
    perm = np.random.default_rng(seed).permutation(len(members))
    shuffled = [members[i] for i in perm]
    n_train = math.ceil(fraction * len(members))
    train = [i for group in shuffled[:n_train] for i in group]
    test = [i for group in shuffled[n_train:] for i in group]
    return train, test


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _load_resolver(config: RunConfig) -> EntityResolver:
    graphs = {}
    for namespace, path in config.ontologies.items():
        with open(path, encoding="utf-8") as handle:
            graphs[namespace] = ontology.parse_obo(handle, namespace)
    xref = {}
    for namespace, path in config.xref.items():
        with open(path, encoding="utf-8") as handle:
            xref[namespace] = inst_mod.load_xref_table(handle)
    annotations = {}
    if config.gaf is not None:
        with open(config.gaf, encoding="utf-8") as handle:
            annotations = ontology.parse_gaf(handle)
    return EntityResolver(graphs, xref, annotations)


def _read_corpus(
    config: RunConfig, diagnostics: Counter[str]
) -> tuple[list[corpus_mod.SentenceRecord], list[corpus_mod.GoldRelation]]:
    with open(config.corpus_path, encoding="utf-8") as handle:
        if config.corpus == "ddi":
            return corpus_mod.parse_ddi_xml(handle)
        if config.corpus == "pgr":
            return corpus_mod.parse_pgr_tsv(handle, config.column_map, config.truthy_tokens)
        documents = corpus_mod.parse_pubtator(handle, diagnostics)
    sentences: list[corpus_mod.SentenceRecord] = []
    relations: list[corpus_mod.GoldRelation] = []
    for document in documents:
        spans = corpus_mod.segment_sentences(
            document.text, [(m.char_start, m.char_end) for m in document.mentions]
        )
        sent, rel = corpus_mod.project_document_relations(document, spans, diagnostics)
        sentences.extend(sent)
        relations.extend(rel)
    return sentences, relations


def _load_parses(
    config: RunConfig,
    sentences: list[corpus_mod.SentenceRecord],
    diagnostics: Counter[str],
) -> dict[str, list[inst_mod.ParsedToken]]:
    with open(config.parses, encoding="utf-8") as handle:
        blocks = inst_mod.read_conllu_blocks(handle)
    parses: dict[str, list[inst_mod.ParsedToken]] = {}
    for sentence in sentences:
        block = blocks.get(sentence.sentence_id)
        if block is None:
            continue
        parses[sentence.sentence_id] = inst_mod.load_conllu(
            block, sentence.text, diagnostics
        )
    return parses


def _diagnostics_report(diagnostics: Counter[str]) -> str:
    merged = {reason: 0 for reason in CANONICAL_SKIP_REASONS}
    merged.update(diagnostics)
    lines = ["reason\tcount"]
    for reason in sorted(merged):
        lines.append(f"{reason}\t{merged[reason]}")
    return "\n".join(lines) + "\n"


def cmd_preprocess(
    config: RunConfig, out_path: str | Path, report_path: str | Path | None = None
) -> tuple[list[Instance], Counter[str]]:
    """Corpus + ontologies + parses -> instances JSON-lines + diagnostics TSV."""
    out_path = Path(out_path)
    report = Path(report_path) if report_path else out_path.with_suffix(".report.tsv")
    diagnostics: Counter[str] = Counter()
    resolver = _load_resolver(config)
    with open(config.lexicon, encoding="utf-8") as handle:
        lexicon = inst_mod.load_lexicon(handle)
    sentences, relations = _read_corpus(config, diagnostics)
    parses = _load_parses(config, sentences, diagnostics)
    pair_types = inst_mod.CORPUS_PAIR_TYPES[config.corpus]
    instances = inst_mod.generate_instances(
        sentences, relations, pair_types, resolver, lexicon, parses, diagnostics
    )
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        inst_mod.dump_instances(instances, handle)
    _write_text(report, _diagnostics_report(diagnostics))
    return instances, diagnostics


def _build_specs(config: RunConfig, vocabs: dict[str, dict[str, int]]) -> list[ChannelSpec]:
    return [
        ChannelSpec(
            name=name,
            vocab_size=len(vocabs[name]),
            embed_dim=getattr(config.model, dim_field),
            hidden_dim=config.model.hidden_dim,
            max_len=max_len(config.train),
        )
        for name, (dim_field, max_len) in model_mod.CHANNELS.items()
        if name in vocabs
    ]


def cmd_train(
    config: RunConfig,
    instances_path: str | Path,
    model_path: str | Path,
    history_path: str | Path | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Train on a preprocessed instances file; writes model JSON + history TSV."""
    model_path = Path(model_path)
    history_file = Path(history_path) if history_path else model_path.with_suffix(".history.tsv")
    with open(instances_path, encoding="utf-8") as handle:
        instances = inst_mod.load_instances(handle)
    if not instances:
        raise DataError("no instances to train on")
    train_instances, dev_instances = split_dataset(
        instances, config.split_fraction, config.seed
    )
    if not dev_instances:
        dev_instances = train_instances
    channels = config.enabled_channels()
    words = vectors = None
    if config.vectors and "words" in channels:
        with open(config.vectors, encoding="utf-8") as handle:
            words, vectors = model_mod.load_word_vectors(handle, config.model.embed_dim_words)
    vocabs = model_mod.build_vocabularies(instances, words)
    vocabs = {name: vocabs[name] for name in channels}
    specs = _build_specs(config, vocabs)
    params = model_mod.init_params(specs, config.model.dense_dim, config.train.seed)
    if vectors is not None:
        params.tensors["words.embedding"] = model_mod.pretrained_embedding(
            words, vectors, vocabs["words"], config.train.seed
        )
        del words, vectors  # free the parsed rows before training
    encoder = Encoder(specs, vocabs)
    best, history = model_mod.train(
        params,
        encoder.encode(train_instances),
        encoder.encode(dev_instances),
        config.train,
    )
    with open(model_path, "w", encoding="utf-8", newline="\n") as handle:
        model_mod.save_model(best, vocabs, handle)
    lines = ["epoch\ttrain_loss\tdev_f"]
    for row in history:
        lines.append(f"{row['epoch']}\t{row['train_loss']:.6f}\t{row['dev_f']:.4f}")
    _write_text(history_file, "\n".join(lines) + "\n")
    return best, history


def _load_for_inference(
    model_path: str | Path, instances_path: str | Path
) -> tuple[ModelParams, Encoder, list[Instance]]:
    with open(model_path, encoding="utf-8") as handle:
        params, vocabs = model_mod.load_model(handle)
    with open(instances_path, encoding="utf-8") as handle:
        instances = inst_mod.load_instances(handle)
    return params, Encoder(params.specs, vocabs), instances


def cmd_evaluate(
    model_path: str | Path,
    instances_path: str | Path,
    out_path: str | Path,
    threshold: float = 0.5,
) -> Metrics:
    """Score a model on labeled instances; writes the 4-decimal TSV report."""
    params, encoder, instances = _load_for_inference(model_path, instances_path)
    if not instances:
        raise DataError("no instances to evaluate")
    unlabeled = [i.instance_id for i in instances if i.label == "unlabeled"]
    if unlabeled:
        raise DataError(f"cannot evaluate unlabeled instances: {unlabeled[:3]}")
    predictions = model_mod.predict(params, encoder.encode(instances), threshold)
    gold = {i.instance_id: i.label for i in instances}
    metrics = compute_metrics(predictions, gold)
    configuration = "+".join(s.name for s in params.specs)
    _write_text(Path(out_path), format_report(configuration, metrics))
    return metrics


def cmd_predict(
    model_path: str | Path,
    instances_path: str | Path,
    out_path: str | Path,
    threshold: float = 0.5,
) -> list[Prediction]:
    """Write JSON-lines predictions: instance_id, prob_positive, label."""
    params, encoder, instances = _load_for_inference(model_path, instances_path)
    predictions = model_mod.predict(params, encoder.encode(instances), threshold)
    rows = [
        json.dumps(
            {
                "instance_id": p.instance_id,
                "prob_positive": p.prob_positive,
                "label": p.label,
            },
            ensure_ascii=False,
        )
        for p in predictions
    ]
    _write_text(Path(out_path), "".join(row + "\n" for row in rows))
    return predictions
