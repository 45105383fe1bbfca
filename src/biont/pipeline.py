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
from .metrics import Metrics, format_report, require_labeled, score
from .model import Encoder, ModelParams, Prediction

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
) -> tuple[list[corpus_mod.SentenceRecord], bool]:
    """The corpus's sentences, and whether it carries gold labels."""
    with open(config.corpus_path, encoding="utf-8") as handle:
        if config.corpus == "ddi":
            return corpus_mod.parse_ddi_xml(handle)
        if config.corpus == "pgr":
            return corpus_mod.parse_pgr_tsv(handle, config.column_map, config.truthy_tokens)
        documents = corpus_mod.parse_pubtator(handle, diagnostics)
    sentences: list[corpus_mod.SentenceRecord] = []
    labeled = False
    for document in documents:
        spans = corpus_mod.segment_sentences(
            document.text, [(m.char_start, m.char_end) for m in document.mentions]
        )
        sent, doc_labeled = corpus_mod.project_document_relations(document, spans, diagnostics)
        sentences.extend(sent)
        labeled = labeled or doc_labeled
    return sentences, labeled


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


def _read_instances(path: str | Path) -> list[Instance]:
    """Load an instances file whose instance ids are all distinct."""
    with open(path, encoding="utf-8") as handle:
        instances = inst_mod.load_instances(handle)
    seen: set[str] = set()
    for instance in instances:
        if instance.instance_id in seen:
            raise DataError(f"instance id {instance.instance_id} is listed twice in {path}")
        seen.add(instance.instance_id)
    return instances


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
    sentences, labeled = _read_corpus(config, diagnostics)
    parses = _load_parses(config, sentences, diagnostics)
    pair_types = inst_mod.CORPUS_PAIR_TYPES[config.corpus]
    instances = inst_mod.generate_instances(
        sentences, labeled, pair_types, resolver, lexicon, parses, diagnostics
    )
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        inst_mod.dump_instances(instances, handle)
    _write_text(report, _diagnostics_report(diagnostics))
    return instances, diagnostics


def cmd_train(
    config: RunConfig,
    instances_path: str | Path,
    model_path: str | Path,
    history_path: str | Path | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Train on a preprocessed instances file; writes the model file + history TSV."""
    model_path = Path(model_path)
    history_file = Path(history_path) if history_path else model_path.with_suffix(".history.tsv")
    instances = _read_instances(instances_path)
    if not instances:
        raise DataError("no instances to train on")
    train_instances, dev_instances = split_dataset(
        instances, config.split_fraction, config.seed
    )
    channels = config.enabled_channels()
    words = vectors = None
    if config.vectors and "words" in channels:
        with open(config.vectors, encoding="utf-8") as handle:
            words, vectors = model_mod.load_word_vectors(handle, config.model.embed_dim_words)
    vocabs = model_mod.build_vocabularies(instances, channels, words)
    specs = model_mod.channel_specs(channels, vocabs, config.model, config.train)
    params = model_mod.init_params(specs, config.model.dense_dim, config.train.seed)
    if vectors is not None:
        model_mod.pretrained_embedding(
            params.tensors["words.embedding"], words, vectors, vocabs["words"]
        )
        del words, vectors  # free the parsed rows before training
    encoder = Encoder(specs, vocabs)
    train_data = encoder.encode(train_instances)
    dev_data = encoder.encode(dev_instances) if dev_instances else train_data
    del instances, train_instances, dev_instances  # training reads only the encodings
    best, history = model_mod.train(params, train_data, dev_data, config.train)
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
    return params, Encoder(params.specs, vocabs), _read_instances(instances_path)


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
    data = encoder.encode(instances)
    require_labeled(data.labels, str(instances_path))  # before the forward pass
    metrics = score(model_mod.forward(params, data.ids)[:, 1], data.labels, threshold)
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
    rows = [json.dumps(vars(p), ensure_ascii=False) + "\n" for p in predictions]
    _write_text(Path(out_path), "".join(rows))
    return predictions
