"""Corpus readers and the document-to-sentence relation projection.

Three annotated input formats are supported:

* drug-drug interaction XML (document/sentence/entity/pair elements,
  inclusive character offsets),
* gene-phenotype TSV with a configurable column map,
* PubTator abstracts (title/abstract lines, mention lines, CID relation
  lines) whose document-level CID pairs are projected down to sentences.

Every corpus reaches instance generation in the same two shapes:
SentenceRecord and sentence-level GoldRelation.
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
    sentence_id: str
    char_start: int
    char_end: int
    surface: str
    entity_type: str
    kb_id: str
    discontinuous: bool = False


@dataclass
class SentenceRecord:
    sentence_id: str
    doc_id: str
    text: str
    entities: list[EntityMention] = field(default_factory=list)


@dataclass
class GoldRelation:
    e1_kb_id: str
    e2_kb_id: str
    sentence_id: str
    label: str  # positive | negative


@dataclass
class PubTatorDocument:
    doc_id: str
    text: str
    mentions: list[EntityMention]
    cid_pairs: list[tuple[str, str]]  # (chemical, disease) kb ids, file order


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


def parse_ddi_xml(stream: TextIO) -> tuple[list[SentenceRecord], list[GoldRelation]]:
    """Parse drug-interaction XML into sentences and sentence-level relations.

    Entities have no knowledge-base ids in this format, so kb_id is the
    surface text; a run-level cross-reference table maps names to ontology
    ids later.  One GoldRelation is emitted per pair element, positive iff
    ddi="true".
    """
    try:
        root = ET.parse(stream).getroot()
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from exc

    documents = [root] if root.tag == "document" else list(root.iter("document"))
    if not documents:
        raise MalformedXml("no document element")

    sentences: list[SentenceRecord] = []
    relations: list[GoldRelation] = []
    for doc in documents:
        doc_id = doc.get("id")
        if doc_id is None:
            raise MalformedXml("document without id")
        for sent in doc.iter("sentence"):
            sent_id = sent.get("id")
            text = sent.get("text")
            if sent_id is None or text is None:
                raise MalformedXml(f"sentence missing id or text in {doc_id}")
            record = SentenceRecord(sentence_id=sent_id, doc_id=doc_id, text=text)
            by_entity_id: dict[str, EntityMention] = {}
            for ent in sent.iter("entity"):
                ent_id = ent.get("id")
                offset = ent.get("charOffset")
                ent_text = ent.get("text")
                ent_type = (ent.get("type") or "drug").lower()
                if ent_id is None or offset is None or ent_text is None:
                    raise MalformedXml(f"entity missing attributes in {sent_id}")
                start, end, discontinuous = _parse_char_offset(offset)
                surface = text[start:end]
                if not discontinuous:
                    _check_surface(ent_text, text, start, end, f"entity {ent_id}")
                mention = EntityMention(
                    mention_id=ent_id,
                    sentence_id=sent_id,
                    char_start=start,
                    char_end=end,
                    surface=surface,
                    entity_type=_DDI_TYPE_MAP.get(ent_type, ent_type),
                    kb_id=ent_text,
                    discontinuous=discontinuous,
                )
                record.entities.append(mention)
                by_entity_id[ent_id] = mention
            sentences.append(record)
            for pair in sent.iter("pair"):
                e1, e2 = pair.get("e1"), pair.get("e2")
                if e1 not in by_entity_id or e2 not in by_entity_id:
                    raise MalformedXml(f"pair references unknown entity in {sent_id}")
                relations.append(
                    GoldRelation(
                        e1_kb_id=by_entity_id[e1].kb_id,
                        e2_kb_id=by_entity_id[e2].kb_id,
                        sentence_id=sent_id,
                        label="positive" if pair.get("ddi") == "true" else "negative",
                    )
                )
    return sentences, relations


# --- gene-phenotype TSV -----------------------------------------------------

# Semantic keys the column map must provide.  doc_id is optional and
# defaults to the sentence id.
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
) -> tuple[list[SentenceRecord], list[GoldRelation]]:
    """Parse gene-phenotype rows; one relation per row, sentences deduplicated
    by sentence id.  A row that repeats a sentence id must repeat its text.
    Offsets are sentence-local, 0-based, end-exclusive."""
    for key in PGR_REQUIRED_KEYS:
        if key not in column_map:
            raise MissingColumn(f"column map lacks {key}")
    truthy = set(truthy_tokens)

    lines = iter(stream)
    try:
        header = next(lines).rstrip("\n").split("\t")
    except StopIteration:
        return [], []
    index: dict[str, int] = {}
    for key, column in column_map.items():
        if column not in header:
            raise MissingColumn(f"column {column!r} (for {key}) not in header")
        index[key] = header.index(column)

    def cell(cols: list[str], key: str) -> str:
        i = index[key]
        if i >= len(cols):
            raise MalformedLine(f"row too short for column {column_map[key]!r}")
        return cols[i]

    sentences: dict[str, SentenceRecord] = {}
    relations: list[GoldRelation] = []

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
            sentence_id=record.sentence_id,
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
        sent_id = cell(cols, "sentence_id")
        text = cell(cols, "sentence_text")
        doc_id = cell(cols, "doc_id") if "doc_id" in index else sent_id
        record = sentences.get(sent_id)
        if record is None:
            record = SentenceRecord(sentence_id=sent_id, doc_id=doc_id, text=text)
            sentences[sent_id] = record
        elif record.text != text:
            raise MalformedLine(f"row {lineno}: sentence {sent_id} repeats with a different text")
        try:
            g_start, g_end = int(cell(cols, "gene_start")), int(cell(cols, "gene_end"))
            p_start, p_end = int(cell(cols, "phenotype_start")), int(cell(cols, "phenotype_end"))
        except ValueError as exc:
            raise MalformedLine(f"row {lineno}: non-integer offset") from exc
        gene = add_mention(record, g_start, g_end, cell(cols, "gene_surface"),
                           "gene", cell(cols, "gene_id"))
        phen = add_mention(record, p_start, p_end, cell(cols, "phenotype_surface"),
                           "phenotype", cell(cols, "phenotype_id"))
        relations.append(
            GoldRelation(
                e1_kb_id=gene.kb_id,
                e2_kb_id=phen.kb_id,
                sentence_id=sent_id,
                label="positive" if cell(cols, "relation").strip() in truthy else "negative",
            )
        )
    return list(sentences.values()), relations


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
                    sentence_id="",
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
) -> tuple[list[SentenceRecord], list[GoldRelation]]:
    """Project a document's CID pairs onto its sentences.

    Every co-sentential (chemical, disease) mention pair becomes a labeled
    sentence-level relation: positive when the kb-id pair is one of the
    document's CID pairs, negative otherwise (closed world).  One relation
    is emitted per mention pair, so counts are |chemicals| x |diseases| per
    sentence.
    """
    cid_pairs = set(document.cid_pairs)
    sentences: list[SentenceRecord] = []
    relations: list[GoldRelation] = []
    for k, (s, e) in enumerate(spans):
        sent_id = f"{document.doc_id}.s{k}"
        record = SentenceRecord(
            sentence_id=sent_id, doc_id=document.doc_id, text=document.text[s:e]
        )
        local = [m for m in document.mentions if s <= m.char_start and m.char_end <= e]
        for j, m in enumerate(sorted(local, key=lambda m: (m.char_start, m.char_end))):
            record.entities.append(
                EntityMention(
                    mention_id=f"{sent_id}.e{j}",
                    sentence_id=sent_id,
                    char_start=m.char_start - s,
                    char_end=m.char_end - s,
                    surface=m.surface,
                    entity_type=m.entity_type,
                    kb_id=m.kb_id,
                    discontinuous=m.discontinuous,
                )
            )
        sentences.append(record)
        chemicals = [m for m in record.entities if m.entity_type == "chemical"]
        diseases = [m for m in record.entities if m.entity_type == "disease"]
        for c in chemicals:
            for d in diseases:
                relations.append(
                    GoldRelation(
                        e1_kb_id=c.kb_id,
                        e2_kb_id=d.kb_id,
                        sentence_id=sent_id,
                        label="positive" if (c.kb_id, d.kb_id) in cid_pairs else "negative",
                    )
                )
    covered = sum(
        1
        for m in document.mentions
        if any(s <= m.char_start and m.char_end <= e for s, e in spans)
    )
    if diagnostics is not None and covered < len(document.mentions):
        diagnostics["mention_outside_sentence"] += len(document.mentions) - covered
    return sentences, relations
