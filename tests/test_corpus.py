"""Corpus readers, sentence segmentation, document-to-sentence projection."""
import io
import json
from collections import Counter

import pytest

from biont import corpus
from biont.errors import (
    MalformedLine,
    MalformedXml,
    MissingColumn,
    OffsetMismatch,
)

COLUMN_MAP = {
    "sentence_id": "sent_id",
    "sentence_text": "sentence",
    "gene_id": "gene_id",
    "gene_surface": "gene_text",
    "gene_start": "gene_off1",
    "gene_end": "gene_off2",
    "phenotype_id": "hpo_id",
    "phenotype_surface": "hpo_text",
    "phenotype_start": "hpo_off1",
    "phenotype_end": "hpo_off2",
    "relation": "relation",
}


# --- drug-interaction XML -----------------------------------------------------


def test_parse_ddi_xml_fixture(fixtures):
    with open(fixtures / "ddi_corpus.xml", encoding="utf-8") as handle:
        sentences, relations = corpus.parse_ddi_xml(handle)
    assert [s.sentence_id for s in sentences] == ["DDI-FIX.d0.s0", "DDI-FIX.d0.s1"]
    s0 = sentences[0]
    assert s0.doc_id == "DDI-FIX.d0"
    assert [m.surface for m in s0.entities] == ["Aspirin", "warfarin", "heparin"]
    aspirin = s0.entities[0]
    assert (aspirin.char_start, aspirin.char_end) == (0, 7)
    assert s0.text[aspirin.char_start:aspirin.char_end] == "Aspirin"
    assert aspirin.kb_id == "Aspirin"
    assert aspirin.discontinuous is False
    # the second sentence's mention is typed "brand" in the file
    assert sentences[1].entities[0].entity_type == "drug"
    assert all(m.entity_type == "drug" for m in s0.entities)

    assert len(relations) == 3
    assert [r.label for r in relations] == ["positive", "positive", "negative"]
    assert relations[0].e1_kb_id == "Aspirin"
    assert relations[0].e2_kb_id == "warfarin"
    assert relations[0].level == "sentence"
    assert relations[0].sentence_id == "DDI-FIX.d0.s0"


def test_ddi_inclusive_offsets_become_exclusive(fixtures):
    with open(fixtures / "ddi_corpus.xml", encoding="utf-8") as handle:
        sentences, _ = corpus.parse_ddi_xml(handle)
    warfarin = sentences[0].entities[1]
    assert (warfarin.char_start, warfarin.char_end) == (32, 40)


def test_ddi_offset_mismatch_raises():
    xml = (
        '<document id="d"><sentence id="d.s0" text="Aspirin works.">'
        '<entity id="d.s0.e0" charOffset="0-6" type="drug" text="Warfarin"/>'
        "</sentence></document>"
    )
    with pytest.raises(OffsetMismatch):
        corpus.parse_ddi_xml(io.StringIO(xml))


def test_ddi_discontinuous_offset_keeps_first_span():
    xml = (
        '<document id="d"><sentence id="d.s0" text="alpha beta gamma">'
        '<entity id="d.s0.e0" charOffset="0-4;11-15" type="drug" text="alpha gamma"/>'
        "</sentence></document>"
    )
    sentences, _ = corpus.parse_ddi_xml(io.StringIO(xml))
    mention = sentences[0].entities[0]
    assert (mention.char_start, mention.char_end) == (0, 5)
    assert mention.discontinuous is True


def test_ddi_malformed_xml_raises():
    with pytest.raises(MalformedXml):
        corpus.parse_ddi_xml(io.StringIO("<document id='d'><sentence"))


def test_ddi_pair_with_unknown_entity_raises():
    xml = (
        '<document id="d"><sentence id="d.s0" text="x">'
        '<pair id="p" e1="nope" e2="nada" ddi="true"/>'
        "</sentence></document>"
    )
    with pytest.raises(MalformedXml):
        corpus.parse_ddi_xml(io.StringIO(xml))


def test_ddi_container_root_is_accepted():
    xml = (
        "<corpus>"
        '<document id="d1"><sentence id="d1.s0" text="plain."/></document>'
        '<document id="d2"><sentence id="d2.s0" text="plain."/></document>'
        "</corpus>"
    )
    sentences, relations = corpus.parse_ddi_xml(io.StringIO(xml))
    assert len(sentences) == 2
    assert relations == []


# --- gene-phenotype TSV --------------------------------------------------------


def test_parse_pgr_tsv_fixture(fixtures):
    with open(fixtures / "pgr_corpus.tsv", encoding="utf-8") as handle:
        sentences, relations = corpus.parse_pgr_tsv(handle, COLUMN_MAP, ["TRUE"])
    assert [s.sentence_id for s in sentences] == ["PGR.s0", "PGR.s1"]
    s1 = sentences[1]
    # TP53 appears in two rows with identical offsets: deduplicated
    assert len(s1.entities) == 3
    tp53 = [m for m in s1.entities if m.surface == "TP53"]
    assert len(tp53) == 1
    assert tp53[0].entity_type == "gene"
    assert tp53[0].kb_id == "7157"
    phenos = sorted(m.surface for m in s1.entities if m.entity_type == "phenotype")
    assert phenos == ["deafness", "myopia"]

    assert len(relations) == 3
    assert [r.label for r in relations] == ["positive", "positive", "negative"]
    assert relations[2].e1_kb_id == "7157"
    assert relations[2].e2_kb_id == "HP:0000545"


def test_pgr_mention_ids_are_stable(fixtures):
    with open(fixtures / "pgr_corpus.tsv", encoding="utf-8") as handle:
        sentences, _ = corpus.parse_pgr_tsv(handle, COLUMN_MAP, ["TRUE"])
    ids = [m.mention_id for m in sentences[0].entities]
    assert ids == ["PGR.s0.e0", "PGR.s0.e1"]


def test_pgr_incomplete_column_map_raises():
    bad = dict(COLUMN_MAP)
    del bad["relation"]
    with pytest.raises(MissingColumn):
        corpus.parse_pgr_tsv(io.StringIO("x\n"), bad)


def test_pgr_header_missing_column_raises():
    header = "sent_id\tsentence\n"
    with pytest.raises(MissingColumn):
        corpus.parse_pgr_tsv(io.StringIO(header), COLUMN_MAP)


def test_pgr_short_row_raises():
    header = "\t".join(COLUMN_MAP[k] for k in corpus.PGR_REQUIRED_KEYS)
    with pytest.raises(MalformedLine):
        corpus.parse_pgr_tsv(io.StringIO(header + "\nPGR.s0\tshort row\n"), COLUMN_MAP)


def test_pgr_offset_mismatch_raises():
    header = "\t".join(COLUMN_MAP[k] for k in corpus.PGR_REQUIRED_KEYS)
    row = "\t".join([
        "PGR.s0", "BRCA1 mutations cause blindness.",
        "672", "BRCA1", "1", "6",  # off by one
        "HP:0000618", "blindness", "22", "31", "TRUE",
    ])
    with pytest.raises(OffsetMismatch):
        corpus.parse_pgr_tsv(io.StringIO(header + "\n" + row + "\n"), COLUMN_MAP)


def test_pgr_non_truthy_token_is_negative():
    header = "\t".join(COLUMN_MAP[k] for k in corpus.PGR_REQUIRED_KEYS)
    row = "\t".join([
        "PGR.s0", "BRCA1 mutations cause blindness.",
        "672", "BRCA1", "0", "5",
        "HP:0000618", "blindness", "22", "31", "maybe",
    ])
    _, relations = corpus.parse_pgr_tsv(io.StringIO(header + "\n" + row + "\n"), COLUMN_MAP)
    assert relations[0].label == "negative"


# --- PubTator ------------------------------------------------------------------


def test_parse_pubtator_fixture(fixtures):
    diagnostics = Counter()
    with open(fixtures / "cdr_corpus.txt", encoding="utf-8") as handle:
        documents = corpus.parse_pubtator(handle, diagnostics)
    assert len(documents) == 1
    doc = documents[0]
    assert doc.doc_id == "100"
    assert doc.text.startswith("Cisplatin causes nephrotoxicity. Ototoxicity")
    assert len(doc.mentions) == 6
    for mention in doc.mentions:
        assert doc.text[mention.char_start:mention.char_end] == mention.surface
    kinds = {m.entity_type for m in doc.mentions}
    assert kinds == {"chemical", "disease"}
    assert [(r.e1_kb_id, r.e2_kb_id) for r in doc.relations] == [
        ("D002945", "D007674"), ("D002945", "D010033"),
    ]
    assert diagnostics == {}


def test_pubtator_non_cid_tag_is_counted_and_ignored():
    text = (
        "7|t|Alpha beta.\n"
        "7|a|Gamma delta.\n"
        "7\t0\t5\tAlpha\tChemical\tD000001\n"
        "7\tCOOCCURS\tD000001\tD000002\n"
    )
    diagnostics = Counter()
    documents = corpus.parse_pubtator(io.StringIO(text), diagnostics)
    assert documents[0].relations == []
    assert diagnostics["unknown_relation_tag"] == 1


def test_pubtator_five_column_line_raises():
    text = "7|t|Alpha.\n7|a|Beta.\n7\t0\t5\tAlpha\tChemical\n"
    with pytest.raises(MalformedLine):
        corpus.parse_pubtator(io.StringIO(text))


def test_pubtator_mention_offset_mismatch_raises():
    text = "7|t|Alpha beta.\n7|a|Gamma.\n7\t0\t5\tBeta\tChemical\tD000001\n"
    with pytest.raises(OffsetMismatch):
        corpus.parse_pubtator(io.StringIO(text))


def test_pubtator_multiple_documents_split_on_blank_line():
    text = (
        "1|t|One.\n1|a|First abstract.\n\n"
        "2|t|Two.\n2|a|Second abstract.\n"
    )
    documents = corpus.parse_pubtator(io.StringIO(text))
    assert [d.doc_id for d in documents] == ["1", "2"]
    assert documents[0].text == "One. First abstract."


# --- segmentation ----------------------------------------------------------------


def test_segment_sentences_basic():
    text = "First point. Second point! Third?"
    spans = corpus.segment_sentences(text)
    assert [text[s:e] for s, e in spans] == [
        "First point.", "Second point!", "Third?",
    ]


def test_segment_sentences_requires_following_capital_or_digit():
    text = "e. coli is small. Capitals split."
    spans = corpus.segment_sentences(text)
    assert [text[s:e] for s, e in spans] == [
        "e. coli is small.", "Capitals split.",
    ]


def test_segment_sentences_digit_starts_sentence():
    text = "Dose was high. 5 mg daily."
    spans = corpus.segment_sentences(text)
    assert len(spans) == 2


def test_segment_sentences_boundary_inside_mention_is_deferred():
    text = "Given I.V. Bolus next."
    unguarded = corpus.segment_sentences(text)
    assert len(unguarded) == 2
    guarded = corpus.segment_sentences(text, [(6, 16)])  # "I.V. Bolus"
    assert len(guarded) == 1
    assert text[guarded[0][0]:guarded[0][1]] == text


def test_segment_sentences_strips_trailing_whitespace():
    spans = corpus.segment_sentences("Only one sentence.  ")
    assert spans == [(0, 18)]


# --- projection ------------------------------------------------------------------


def test_projection_matches_recorded_enumeration(fixtures):
    with open(fixtures / "cdr_corpus.txt", encoding="utf-8") as handle:
        document = corpus.parse_pubtator(handle)[0]
    spans = corpus.segment_sentences(
        document.text, [(m.char_start, m.char_end) for m in document.mentions]
    )
    sentences, relations = corpus.project_document_relations(document, spans)

    with open(fixtures / "cdr_corpus.expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    got_positive = [
        [r.sentence_id, r.e1_kb_id, r.e2_kb_id]
        for r in relations if r.label == "positive"
    ]
    got_negative = [
        [r.sentence_id, r.e1_kb_id, r.e2_kb_id]
        for r in relations if r.label == "negative"
    ]
    assert got_positive == expected["positives"]
    assert got_negative == expected["negatives"]

    assert [s.sentence_id for s in sentences] == ["100.s0", "100.s1", "100.s2"]
    for sentence in sentences:
        for mention in sentence.entities:
            assert sentence.text[mention.char_start:mention.char_end] == mention.surface


def test_projection_counts_uncovered_mentions():
    doc = corpus.PubTatorDocument(
        doc_id="9",
        text="Alpha beta. Gamma delta.",
        mentions=[
            corpus.EntityMention(
                mention_id="9.m0", sentence_id="", char_start=6, char_end=17,
                surface="beta. Gamma", entity_type="chemical", kb_id="D1",
            )
        ],
        relations=[],
    )
    spans = corpus.segment_sentences(doc.text)
    assert len(spans) == 2
    diagnostics = Counter()
    sentences, relations = corpus.project_document_relations(doc, spans, diagnostics)
    assert diagnostics["mention_outside_sentence"] == 1
    assert all(not s.entities for s in sentences)
    assert relations == []
