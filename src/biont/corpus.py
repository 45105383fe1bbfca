"""Corpus readers and the document-to-sentence relation projection.

Three annotated input formats are supported:

* drug-drug interaction XML (document/sentence/entity/pair elements,
  inclusive character offsets),
* gene-phenotype TSV with a configurable column map,
* PubTator abstracts (title/abstract lines, mention lines, CID relation
  lines) whose document-level CID pairs are projected down to sentences.

Every corpus reaches instance generation in the same shape: SentenceRecords
that each carry their own gold, plus whether the input carries gold at all.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, TextIO

from .errors import MalformedLine, MalformedXml, MissingColumn, OffsetMismatch

# DDI entity subtypes all denote drugs.
_DDI_TYPE_MAP = {"drug": "drug", "brand": "drug", "group": "drug", "drug_n": "drug"}

@dataclass
class EntityMention:
    mention_id: str
    char_start: int
    char_end: int
    surface: str
    entity_type: str
    kb_id: str


@dataclass
class SentenceRecord:
    sentence_id: str
    text: str
    entities: list[EntityMention] = field(default_factory=list)
    # pair_key of every kb-id pair the corpus asserts positive in this sentence
    positives: set[tuple[str, str]] = field(default_factory=set)


@dataclass
class PubTatorDocument:
    doc_id: str
    text: str
    mentions: list[EntityMention]
    cid_pairs: list[tuple[str, str]]  # (chemical, disease) kb ids, file order


def pair_key(kb_id1: str, kb_id2: str) -> tuple[str, str]:
    """The unordered kb-id pair gold is stored and looked up under."""
    return (kb_id1, kb_id2) if kb_id1 <= kb_id2 else (kb_id2, kb_id1)


def _check_surface(surface: str, text: str, start: int, end: int, where: str) -> None:
    got = text[start:end]
    if got != surface:
        raise OffsetMismatch(f"{where}: annotated {surface!r} but text slice is {got!r}")


# --- DDI XML ----------------------------------------------------------------


def _parse_char_offset(value: str) -> tuple[int, int, bool]:
    """DDI charOffset "a-b" has an inclusive end; ";" separates discontinuous
    spans, of which only the first is kept."""
    spans = value.split(";")
    discontinuous = len(spans) > 1
    first = spans[0]
    try:
        a, b = first.split("-")
        start, end = int(a), int(b) + 1
    except ValueError as exc:
        raise MalformedXml(f"bad charOffset {value!r}") from exc
    return start, end, discontinuous


def parse_ddi_xml(stream: TextIO) -> tuple[list[SentenceRecord], bool]:
    """Parse drug-interaction XML into sentences, and whether any pair
    element labels them.

    Entities have no knowledge-base ids in this format, so kb_id is the
    surface text; a run-level cross-reference table maps names to ontology
    ids later.  A pair element with ddi="true" makes its kb-id pair positive
    in its sentence.  A sentence id may repeat only with the same text.
    """
    try:
        root = ET.parse(stream).getroot()
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from exc

    documents = [root] if root.tag == "document" else list(root.iter("document"))
    if not documents:
        raise MalformedXml("no document element")

    sentences: list[SentenceRecord] = []
    texts: dict[str, str] = {}
    labeled = False
    for doc in documents:
        doc_id = doc.get("id")
        if doc_id is None:
            raise MalformedXml("document without id")
        for sent in doc.iter("sentence"):
            sent_id = sent.get("id")
            text = sent.get("text")
            if sent_id is None or text is None:
                raise MalformedXml(f"sentence missing id or text in {doc_id}")
            if texts.setdefault(sent_id, text) != text:
                raise MalformedXml(f"sentence {sent_id} repeats with a different text")
            record = SentenceRecord(sentence_id=sent_id, text=text)
            kb_ids: dict[str, str] = {}  # entity id -> kb id
            for ent in sent.iter("entity"):
                ent_id = ent.get("id")
                offset = ent.get("charOffset")
                ent_text = ent.get("text")
                ent_type = (ent.get("type") or "drug").lower()
                if ent_id is None or offset is None or ent_text is None:
                    raise MalformedXml(f"entity missing attributes in {sent_id}")
                start, end, discontinuous = _parse_char_offset(offset)
                if not discontinuous:
                    _check_surface(ent_text, text, start, end, f"entity {ent_id}")
                record.entities.append(EntityMention(
                    mention_id=ent_id,
                    char_start=start,
                    char_end=end,
                    surface=text[start:end],
                    entity_type=_DDI_TYPE_MAP.get(ent_type, ent_type),
                    kb_id=ent_text,
                ))
                kb_ids[ent_id] = ent_text
            sentences.append(record)
            for pair in sent.iter("pair"):
                e1, e2 = pair.get("e1"), pair.get("e2")
                if e1 not in kb_ids or e2 not in kb_ids:
                    raise MalformedXml(f"pair references unknown entity in {sent_id}")
                labeled = True
                if pair.get("ddi") == "true":
                    record.positives.add(pair_key(kb_ids[e1], kb_ids[e2]))
    return sentences, labeled


# --- gene-phenotype TSV -----------------------------------------------------

# Semantic keys the column map must provide.  A column mapped under any
# other key is not read, but every row must still reach it.
PGR_REQUIRED_KEYS = (
    "sentence_id",
    "sentence_text",
    "gene_id",
    "gene_surface",
    "gene_start",
    "gene_end",
    "phenotype_id",
    "phenotype_surface",
    "phenotype_start",
    "phenotype_end",
    "relation",
)

DEFAULT_TRUTHY_TOKENS = ("TRUE", "True", "true", "1", "yes", "Y")


def parse_pgr_tsv(
    stream: Iterable[str] | TextIO,
    column_map: dict[str, str],
    truthy_tokens: Iterable[str] = DEFAULT_TRUTHY_TOKENS,
) -> tuple[list[SentenceRecord], bool]:
    """Parse gene-phenotype rows into sentences, and whether any row labels
    them.  Each row lists one mention pair, positive when its relation cell
    is truthy; sentences are deduplicated by sentence id, and a row that
    repeats a sentence id must repeat its text.  Offsets are sentence-local,
    0-based, end-exclusive."""
    for key in PGR_REQUIRED_KEYS:
        if key not in column_map:
            raise MissingColumn(f"column map lacks {key}")
    truthy = set(truthy_tokens)

    lines = iter(stream)
    try:
        header = next(lines).rstrip("\n").split("\t")
    except StopIteration:
        return [], False
    index: dict[str, int] = {}
    for key, column in column_map.items():
        if column not in header:
            raise MissingColumn(f"column {column!r} (for {key}) not in header")
        index[key] = header.index(column)
    width = max(index.values()) + 1

    sentences: dict[str, SentenceRecord] = {}
    labeled = False

    def add_mention(record: SentenceRecord, start: int, end: int, surface: str,
                    entity_type: str, kb_id: str) -> EntityMention:
        _check_surface(surface, record.text, start, end,
                       f"{entity_type} in {record.sentence_id}")
        for existing in record.entities:
            if (existing.char_start, existing.char_end, existing.kb_id,
                    existing.entity_type) == (start, end, kb_id, entity_type):
                return existing
        mention = EntityMention(
            mention_id=f"{record.sentence_id}.e{len(record.entities)}",
            char_start=start,
            char_end=end,
            surface=surface,
            entity_type=entity_type,
            kb_id=kb_id,
        )
        record.entities.append(mention)
        return mention

    for lineno, raw in enumerate(lines, start=2):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) < width:
            column = header[min(i for i in index.values() if i >= len(cols))]
            raise MalformedLine(f"row {lineno}: row too short for column {column!r}")
        row = {key: cols[i] for key, i in index.items()}
        sent_id, text = row["sentence_id"], row["sentence_text"]
        record = sentences.setdefault(sent_id, SentenceRecord(sentence_id=sent_id, text=text))
        if record.text != text:
            raise MalformedLine(f"row {lineno}: sentence {sent_id} repeats with a different text")
        try:
            g_start, g_end = int(row["gene_start"]), int(row["gene_end"])
            p_start, p_end = int(row["phenotype_start"]), int(row["phenotype_end"])
        except ValueError as exc:
            raise MalformedLine(f"row {lineno}: non-integer offset") from exc
        gene = add_mention(record, g_start, g_end, row["gene_surface"], "gene", row["gene_id"])
        phen = add_mention(record, p_start, p_end, row["phenotype_surface"],
                           "phenotype", row["phenotype_id"])
        labeled = True
        if row["relation"].strip() in truthy:
            record.positives.add(pair_key(gene.kb_id, phen.kb_id))
    return list(sentences.values()), labeled


# --- PubTator ---------------------------------------------------------------


def parse_pubtator(
    stream: Iterable[str] | TextIO,
    diagnostics: Counter[str] | None = None,
) -> list[PubTatorDocument]:
    """Parse PubTator abstracts with mention and CID relation lines.

    Document text is title + " " + abstract; mention offsets index into that
    concatenation.  Relation lines whose tag is not CID are counted under
    `unknown_relation_tag` in `diagnostics` and otherwise ignored.
    """
    documents: list[PubTatorDocument] = []
    block: list[tuple[int, str]] = []

    def flush() -> None:
        if not block:
            return
        doc_id = None
        title = ""
        abstract = ""
        mention_rows: list[tuple[int, list[str]]] = []
        cid_pairs: list[tuple[str, str]] = []
        for lineno, line in block:
            if "|t|" in line and "\t" not in line:
                doc_id, _, title = line.partition("|t|")
                continue
            if "|a|" in line and "\t" not in line:
                doc_id_a, _, abstract = line.partition("|a|")
                doc_id = doc_id or doc_id_a
                continue
            cols = line.split("\t")
            if len(cols) >= 6:
                mention_rows.append((lineno, cols))
            elif len(cols) == 4:
                if cols[1] == "CID":
                    cid_pairs.append((cols[2], cols[3]))
                elif diagnostics is not None:
                    diagnostics["unknown_relation_tag"] += 1
            else:
                raise MalformedLine(f"PubTator line {lineno}: {len(cols)} tab fields")
        if doc_id is None:
            raise MalformedLine("PubTator block without title/abstract lines")
        text = title + " " + abstract if abstract else title
        mentions: list[EntityMention] = []
        for lineno, cols in mention_rows:
            try:
                start, end = int(cols[1]), int(cols[2])
            except ValueError as exc:
                raise MalformedLine(f"PubTator line {lineno}: non-integer offsets") from exc
            surface, entity_type, kb_id = cols[3], cols[4].lower(), cols[5]
            _check_surface(surface, text, start, end, f"doc {doc_id} line {lineno}")
            mentions.append(
                EntityMention(
                    mention_id=f"{doc_id}.m{len(mentions)}",
                    char_start=start,
                    char_end=end,
                    surface=surface,
                    entity_type=entity_type,
                    kb_id=kb_id,
                )
            )
        documents.append(PubTatorDocument(doc_id, text, mentions, cid_pairs))
        block.clear()

    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush()
            continue
        block.append((lineno, line))
    flush()
    return documents


# --- sentence segmentation --------------------------------------------------


def segment_sentences(
    text: str,
    mention_spans: Iterable[tuple[int, int]] | None = None,
) -> list[tuple[int, int]]:
    """Split text into sentence spans.

    A boundary is placed after ".", "!" or "?" when whitespace and then an
    uppercase letter or digit follow.  A boundary that would fall strictly
    inside a supplied mention span is deferred past the mention.  Returned
    spans exclude surrounding whitespace.
    """
    spans: list[tuple[int, int]] = []
    inside = list(mention_spans or [])
    n = len(text)
    start = 0
    while start < n and text[start].isspace():
        start += 1
    pos = start
    while pos < n:
        if text[pos] in ".!?":
            cut = pos + 1
            j = cut
            while j < n and text[j].isspace():
                j += 1
            follows = j > cut and j < n and (text[j].isupper() or text[j].isdigit())
            splits_mention = any(s < cut < e for s, e in inside)
            if follows and not splits_mention:
                spans.append((start, cut))
                start = j
                pos = j
                continue
        pos += 1
    end = n
    while end > start and text[end - 1].isspace():
        end -= 1
    if end > start:
        spans.append((start, end))
    return spans


def project_document_relations(
    document: PubTatorDocument,
    spans: list[tuple[int, int]],
    diagnostics: Counter[str] | None = None,
) -> tuple[list[SentenceRecord], bool]:
    """Project a document's CID pairs onto its sentences.

    A CID pair is positive in each sentence where both its chemical and its
    disease are mentioned.  The result is labeled when some sentence holds
    both a chemical and a disease: instance generation then reads every
    other co-sentential pair as negative (closed world).
    """
    sentences: list[SentenceRecord] = []
    labeled = False
    for k, (s, e) in enumerate(spans):
        sent_id = f"{document.doc_id}.s{k}"
        record = SentenceRecord(sentence_id=sent_id, text=document.text[s:e])
        local = [m for m in document.mentions if s <= m.char_start and m.char_end <= e]
        for j, m in enumerate(sorted(local, key=lambda m: (m.char_start, m.char_end))):
            record.entities.append(
                EntityMention(
                    mention_id=f"{sent_id}.e{j}",
                    char_start=m.char_start - s,
                    char_end=m.char_end - s,
                    surface=m.surface,
                    entity_type=m.entity_type,
                    kb_id=m.kb_id,
                )
            )
        sentences.append(record)
        chemicals = {m.kb_id for m in local if m.entity_type == "chemical"}
        diseases = {m.kb_id for m in local if m.entity_type == "disease"}
        labeled = labeled or bool(chemicals and diseases)
        record.positives = {
            pair_key(c, d) for c, d in document.cid_pairs if c in chemicals and d in diseases
        }
    covered = sum(
        1
        for m in document.mentions
        if any(s <= m.char_start and m.char_end <= e for s, e in spans)
    )
    if diagnostics is not None and covered < len(document.mentions):
        diagnostics["mention_outside_sentence"] += len(document.mentions) - covered
    return sentences, labeled
