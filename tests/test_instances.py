"""Dependency parses, path extraction, masking, and instance generation."""
import io
import json
from collections import Counter

import pytest

from biont import corpus as corpus_mod
from biont import instances as inst
from biont import ontology
from biont.corpus import EntityMention, SentenceRecord
from biont.errors import (
    Disconnected,
    MalformedConllu,
    MalformedLine,
    NoOverlappingToken,
    TokenAlignmentFailure,
    UnmappableEntity,
)
from test_corpus import COLUMN_MAP


def load_parses(path, sentences):
    with open(path, encoding="utf-8") as handle:
        blocks = inst.read_conllu_blocks(handle)
    return {
        s.sentence_id: inst.load_conllu(blocks[s.sentence_id], s.text)
        for s in sentences
        if s.sentence_id in blocks
    }


@pytest.fixture(scope="module")
def ddi_data(fixtures):
    with open(fixtures / "ddi_corpus.xml", encoding="utf-8") as handle:
        sentences, relations = corpus_mod.parse_ddi_xml(handle)
    parses = load_parses(fixtures / "ddi_parses.conllu", sentences)
    return sentences, relations, parses


@pytest.fixture(scope="module")
def ddi_resolver(fixtures, chebi):
    with open(fixtures / "name_to_chebi.tsv", encoding="utf-8") as handle:
        table = inst.load_xref_table(handle)
    return inst.EntityResolver({"chebi": chebi}, xref={"chebi": table})


@pytest.fixture(scope="module")
def pgr_resolver(go, hp, gaf_records):
    return inst.EntityResolver({"go": go, "hp": hp}, gene_annotations=gaf_records)


@pytest.fixture(scope="module")
def cdr_resolver(fixtures, chebi, doid):
    tables = {}
    for namespace, filename in (("chebi", "mesh_to_chebi.tsv"), ("doid", "mesh_to_doid.tsv")):
        with open(fixtures / filename, encoding="utf-8") as handle:
            tables[namespace] = inst.load_xref_table(handle)
    return inst.EntityResolver({"chebi": chebi, "doid": doid}, xref=tables)


# --- CoNLL-U reading -----------------------------------------------------------


def test_read_conllu_blocks(fixtures):
    with open(fixtures / "ddi_parses.conllu", encoding="utf-8") as handle:
        blocks = inst.read_conllu_blocks(handle)
    assert set(blocks) == {"DDI-FIX.d0.s0", "DDI-FIX.d0.s1"}
    assert len(blocks["DDI-FIX.d0.s0"]) == 9


def test_read_conllu_duplicate_sent_id_raises():
    text = (
        "# sent_id = a\n1\tx\tx\tX\tX\t_\t0\troot\t_\t_\n\n"
        "# sent_id = a\n1\ty\ty\tY\tY\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(MalformedConllu):
        inst.read_conllu_blocks(io.StringIO(text))


def test_load_conllu_greedy_alignment(ddi_data):
    sentences, _, parses = ddi_data
    tokens = parses["DDI-FIX.d0.s0"]
    assert [t.form for t in tokens][:4] == ["Aspirin", "increases", "the", "effect"]
    text = sentences[0].text
    for token in tokens:
        assert text[token.char_start:token.char_end] == token.form
    assert (tokens[5].char_start, tokens[5].char_end) == (32, 40)  # warfarin


def test_load_conllu_misc_offsets(ddi_data):
    _, _, parses = ddi_data
    tokens = parses["DDI-FIX.d0.s1"]
    assert (tokens[2].char_start, tokens[2].char_end) == (12, 24)
    assert tokens[2].lemma == "administer"


def test_load_conllu_skips_multiword_and_empty_ids():
    lines = [
        "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_",
        "1\tdo\tdo\tAUX\t_\t_\t0\troot\t_\t_",
        "2\tn't\tnot\tPART\t_\t_\t1\tadvmod\t_\t_",
        "2.1\tghost\tghost\tX\t_\t_\t_\t_\t_\t_",
    ]
    tokens = inst.load_conllu(lines, "don't")
    assert [t.form for t in tokens] == ["do", "n't"]


def test_load_conllu_wrong_column_count_raises():
    with pytest.raises(MalformedConllu):
        inst.load_conllu(["1\tword\tword"], "word")


def test_load_conllu_non_consecutive_ids_raise():
    lines = [
        "1\ta\ta\tX\t_\t_\t0\troot\t_\t_",
        "3\tb\tb\tX\t_\t_\t1\tdep\t_\t_",
    ]
    with pytest.raises(MalformedConllu):
        inst.load_conllu(lines, "a b")


def test_load_conllu_head_out_of_range_raises():
    lines = ["1\ta\ta\tX\t_\t_\t5\tdep\t_\t_"]
    with pytest.raises(MalformedConllu):
        inst.load_conllu(lines, "a")


def test_load_conllu_unalignable_form_raises():
    with pytest.raises(TokenAlignmentFailure):
        inst.load_conllu(["1\tzz\tzz\tX\t_\t_\t0\troot\t_\t_"], "aa")


def test_load_conllu_multiple_roots_counted():
    lines = [
        "1\ta\ta\tX\t_\t_\t0\troot\t_\t_",
        "2\tb\tb\tX\t_\t_\t0\troot\t_\t_",
    ]
    diagnostics = Counter()
    inst.load_conllu(lines, "a b", diagnostics)
    assert diagnostics["multiple_roots"] == 1


# --- head token and paths ---------------------------------------------------------


def mention(start, end, mid="m", etype="drug", kb="KB"):
    return EntityMention(
        mention_id=mid, sentence_id="s", char_start=start, char_end=end,
        surface="", entity_type=etype, kb_id=kb,
    )


def test_head_token_single_token(ddi_data):
    _, _, parses = ddi_data
    tokens = parses["DDI-FIX.d0.s0"]
    assert inst.head_token(tokens, mention(32, 40)).index == 6


def test_head_token_multiword_prefers_external_head(ddi_data):
    _, _, parses = ddi_data
    tokens = parses["DDI-FIX.d0.s0"]
    # "the effect": det token 3 heads inside the mention, token 4 outside
    assert inst.head_token(tokens, mention(18, 28)).index == 4


def test_head_token_rightmost_of_several_external(ddi_data):
    _, _, parses = ddi_data
    tokens = parses["DDI-FIX.d0.s0"]
    # "increases the": heads 0 and 4 both lie outside; rightmost token wins
    assert inst.head_token(tokens, mention(8, 21)).index == 3


def test_head_token_no_overlap_raises(ddi_data):
    _, _, parses = ddi_data
    with pytest.raises(NoOverlappingToken):
        inst.head_token(parses["DDI-FIX.d0.s0"], mention(200, 210))


def test_shortest_path_endpoints_included(ddi_data):
    _, _, parses = ddi_data
    tokens = parses["DDI-FIX.d0.s0"]
    by_index = {t.index: t for t in tokens}
    path = inst.shortest_dependency_path(tokens, by_index[1], by_index[6])
    assert [t.index for t in path] == [1, 2, 4, 6]
    path = inst.shortest_dependency_path(tokens, by_index[6], by_index[8])
    assert [t.index for t in path] == [6, 8]


def test_shortest_path_direction_is_respected(ddi_data):
    _, _, parses = ddi_data
    tokens = parses["DDI-FIX.d0.s0"]
    by_index = {t.index: t for t in tokens}
    path = inst.shortest_dependency_path(tokens, by_index[8], by_index[1])
    assert [t.index for t in path] == [8, 6, 4, 2, 1]


def test_shortest_path_disconnected_raises():
    tokens = [
        inst.ParsedToken(1, "a", "a", 2, "dep", 0, 1),
        inst.ParsedToken(2, "b", "b", 0, "root", 2, 3),
        inst.ParsedToken(3, "c", "c", 0, "root", 4, 5),
    ]
    with pytest.raises(Disconnected):
        inst.shortest_dependency_path(tokens, tokens[0], tokens[2])


# --- masking and classes -----------------------------------------------------------


def test_mask_tokens_candidates_and_entity(ddi_data):
    _, _, parses = ddi_data
    tokens = parses["DDI-FIX.d0.s0"]
    by_index = {t.index: t for t in tokens}
    path = [by_index[i] for i in (1, 2, 4, 6, 8)]
    other = mention(32, 40, mid="other")  # warfarin, a third entity on the path
    masked = inst.mask_tokens(path, (1, 8), [other])
    assert masked == ["candidate1", "increases", "effect", "entity", "candidate2"]


def test_supersense_classes_lookup_and_default(ddi_data, lexicon):
    _, _, parses = ddi_data
    tokens = parses["DDI-FIX.d0.s0"]
    by_index = {t.index: t for t in tokens}
    path = [by_index[i] for i in (1, 2, 4, 6)]
    masked = inst.mask_tokens(path, (1, 6), [])
    classes = inst.supersense_classes(path, masked, lexicon)
    assert classes == ["O", "verb.change", "noun.state", "O"]


def test_lexicon_requires_header():
    with pytest.raises(MalformedLine):
        inst.load_lexicon(io.StringIO("cause\tverb.change\n"))


def test_lexicon_rejects_undeclared_class():
    text = "#classes: verb.change\ncause\tnoun.food\n"
    with pytest.raises(MalformedLine):
        inst.load_lexicon(io.StringIO(text))


def test_lexicon_lookup_is_case_insensitive(lexicon):
    assert lexicon.lookup("Cause") == "verb.change"
    assert lexicon.lookup("unheard-of") == "O"


# --- xref and resolution -------------------------------------------------------------


def test_load_xref_table(fixtures):
    with open(fixtures / "name_to_chebi.tsv", encoding="utf-8") as handle:
        table = inst.load_xref_table(handle)
    assert table["aspirin"] == "CHEBI:15365"
    assert len(table) == 4


def test_load_xref_table_malformed_raises():
    with pytest.raises(MalformedLine):
        inst.load_xref_table(io.StringIO("only-one-column\n"))


def test_resolver_direct_ontology_id(cdr_resolver):
    choice = cdr_resolver.resolve(mention(0, 1, etype="chemical", kb="CHEBI:10033"))
    assert choice == ("CHEBI:10033", False)


def test_resolver_xref_exact_then_casefolded(ddi_resolver):
    assert ddi_resolver.resolve(
        mention(0, 1, kb="warfarin")
    ).concept_id == "CHEBI:10033"
    # table key is lowercase; mention kb id keeps corpus casing
    assert ddi_resolver.resolve(
        mention(0, 1, kb="Aspirin")
    ).concept_id == "CHEBI:15365"


def test_resolver_unmappable_raises(ddi_resolver):
    with pytest.raises(UnmappableEntity):
        ddi_resolver.resolve(mention(0, 1, kb="placebo"))


def test_resolver_gene_goes_through_annotations(pgr_resolver):
    choice = pgr_resolver.resolve(mention(0, 1, etype="gene", kb="672"))
    assert choice == ("GO:0000004", False)


def test_resolver_gene_choice_matches_scan_of_all_records(fixtures):
    # Oracle: the resolver's per-gene lookup must pick what a direct call on
    # the parsed table picks, for each annotated gene and for one that is absent.
    obo = (fixtures / "go_mini.obo").read_text(encoding="utf-8")
    go = ontology.parse_obo(
        io.StringIO(obo + "\n[Term]\nid: GO:0000009\nname: gone\nis_obsolete: true\n"),
        namespace="go",
    )

    def line(gene, concept, evidence, qualifier="involved_in"):
        return "\t".join(["FIX", gene, "SYM", qualifier, concept, "PMID:1", evidence]) + "\n"

    extra = [
        # only an obsolete and an unknown concept: falls back to the root
        line("4444", "GO:0000009", "EXP"),
        line("4444", "GO:9999999", "IDA"),
        # an obsolete experimental record must not outrank a usable IEA one
        line("3333", "GO:0000009", "IDA"),
        line("3333", "GO:0000005", "IEA"),
        # negated only: falls back to the root
        line("2222", "GO:0000006", "IDA", qualifier="NOT|involved_in"),
    ]
    gaf = (fixtures / "gene_annotations.gaf").read_text(encoding="utf-8").splitlines(True)
    # the comment line and gene 672's three records, then the extras, then the rest
    records = ontology.parse_gaf(gaf[:4] + extra + gaf[4:])
    resolver = inst.EntityResolver({"go": go}, gene_annotations=records)
    genes = sorted(set(records) | {"2222"}) + ["absent"]
    choices = {}
    for gene in genes:
        choices[gene] = resolver.resolve(mention(0, 1, etype="gene", kb=gene))
        assert choices[gene] == ontology.representative_concept(go, records, gene), gene
    assert choices["4444"] == choices["2222"] == choices["absent"] == ("GO:0000001", True)
    assert choices["3333"] == ("GO:0000005", False)


def test_resolver_unconfigured_type_raises(ddi_resolver):
    with pytest.raises(UnmappableEntity):
        ddi_resolver.graph_for("gene")


# --- full instance generation --------------------------------------------------------


def test_ddi_instances_complete_content(ddi_data, ddi_resolver, lexicon):
    sentences, relations, parses = ddi_data
    diagnostics = Counter()
    instances = inst.generate_instances(
        sentences, relations, ("drug", "drug"), ddi_resolver, lexicon, parses,
        diagnostics,
    )
    assert len(instances) == 3
    assert diagnostics == {}

    first, second, third = instances
    assert first.instance_id == "DDI-FIX.d0.s0.e0__DDI-FIX.d0.s0.e1"
    assert first.sdp_tokens == ["candidate1", "increases", "effect", "candidate2"]
    assert first.sdp_classes == ["O", "verb.change", "noun.state", "O"]
    assert first.left_chain == [
        "CHEBI:15365", "CHEBI:35475", "CHEBI:23888", "CHEBI:24431",
    ]
    assert first.right_chain == ["CHEBI:10033", "CHEBI:23888", "CHEBI:24431"]
    assert first.common_chain == ["CHEBI:23888", "CHEBI:24431"]
    assert first.label == "positive"

    assert second.pair == ("DDI-FIX.d0.s0.e0", "DDI-FIX.d0.s0.e2")
    assert second.sdp_tokens == [
        "candidate1", "increases", "effect", "entity", "candidate2",
    ]
    assert second.sdp_classes == ["O", "verb.change", "noun.state", "O", "O"]
    assert second.right_chain == ["CHEBI:28304", "CHEBI:38147", "CHEBI:24431"]
    assert second.common_chain == ["CHEBI:24431"]
    assert second.label == "positive"

    assert third.pair == ("DDI-FIX.d0.s0.e1", "DDI-FIX.d0.s0.e2")
    assert third.sdp_tokens == ["candidate1", "candidate2"]
    assert third.sdp_classes == ["O", "O"]
    assert third.left_chain == ["CHEBI:10033", "CHEBI:23888", "CHEBI:24431"]
    assert third.right_chain == ["CHEBI:28304", "CHEBI:38147", "CHEBI:24431"]
    assert third.common_chain == ["CHEBI:38147", "CHEBI:24431"]
    assert third.label == "negative"


def test_pgr_instances_complete_content(fixtures, pgr_resolver, lexicon):
    with open(fixtures / "pgr_corpus.tsv", encoding="utf-8") as handle:
        sentences, relations = corpus_mod.parse_pgr_tsv(handle, COLUMN_MAP, ["TRUE"])
    parses = load_parses(fixtures / "pgr_parses.conllu", sentences)
    instances = inst.generate_instances(
        sentences, relations, ("gene", "phenotype"), pgr_resolver, lexicon, parses
    )
    assert len(instances) == 3

    brca = instances[0]
    assert brca.sentence_id == "PGR.s0"
    assert brca.sdp_tokens == ["candidate1", "mutations", "cause", "candidate2"]
    assert brca.sdp_classes == ["O", "noun.state", "verb.change", "O"]
    assert brca.left_chain == [
        "GO:0000004", "GO:0000003", "GO:0000002", "GO:0000001",
    ]
    assert brca.right_chain == [
        "HP:0000618", "HP:0000478", "HP:0000118", "HP:0000001",
    ]
    assert brca.common_chain is None
    assert brca.label == "positive"

    deaf = instances[1]
    assert deaf.sdp_tokens == ["candidate1", "linked", "candidate2"]
    assert deaf.sdp_classes == ["O", "verb.social", "O"]
    assert deaf.left_chain == [
        "GO:0000005", "GO:0000004", "GO:0000003", "GO:0000002", "GO:0000001",
    ]
    assert deaf.right_chain == [
        "HP:0000365", "HP:0000598", "HP:0000118", "HP:0000001",
    ]
    assert deaf.label == "positive"

    myopia = instances[2]
    assert myopia.sdp_tokens == ["candidate1", "linked", "entity", "candidate2"]
    assert myopia.sdp_classes == ["O", "verb.social", "O", "O"]
    assert myopia.right_chain == [
        "HP:0000545", "HP:0000478", "HP:0000118", "HP:0000001",
    ]
    assert myopia.label == "negative"


def test_cdr_instances_complete_content(fixtures, cdr_resolver, lexicon):
    with open(fixtures / "cdr_corpus.txt", encoding="utf-8") as handle:
        document = corpus_mod.parse_pubtator(handle)[0]
    spans = corpus_mod.segment_sentences(
        document.text, [(m.char_start, m.char_end) for m in document.mentions]
    )
    sentences, relations = corpus_mod.project_document_relations(document, spans)
    parses = load_parses(fixtures / "cdr_parses.conllu", sentences)
    instances = inst.generate_instances(
        sentences, relations, ("chemical", "disease"), cdr_resolver, lexicon, parses
    )
    assert len(instances) == 3
    assert [i.label for i in instances] == ["positive", "positive", "negative"]

    induced = instances[0]
    assert induced.sentence_id == "100.s0"
    assert induced.sdp_tokens == ["candidate1", "causes", "candidate2"]
    assert induced.left_chain == ["CHEBI:27899", "CHEBI:23888", "CHEBI:24431"]
    assert induced.right_chain == ["DOID:557", "DOID:7", "DOID:4"]
    assert induced.common_chain is None

    # candidate1 is the disease here: it comes first in the sentence
    oto = instances[1]
    assert oto.sdp_tokens == ["candidate1", "seen", "candidate2"]
    assert oto.sdp_classes == ["O", "verb.perception", "O"]
    assert oto.left_chain == ["DOID:12678", "DOID:0050127", "DOID:7", "DOID:4"]
    assert oto.right_chain == ["CHEBI:27899", "CHEBI:23888", "CHEBI:24431"]

    negative = instances[2]
    assert negative.sentence_id == "100.s2"
    assert negative.sdp_tokens == ["candidate1", "cause", "candidate2"]
    assert negative.left_chain == [
        "CHEBI:15365", "CHEBI:35475", "CHEBI:23888", "CHEBI:24431",
    ]
    assert negative.right_chain == ["DOID:557", "DOID:7", "DOID:4"]


def test_self_pair_skipped_with_diagnostic(ddi_resolver, lexicon):
    record = SentenceRecord(sentence_id="x.s0", doc_id="x", text="aspirin and aspirin.")
    record.entities = [
        mention(0, 7, mid="x.s0.e0", kb="aspirin"),
        mention(12, 19, mid="x.s0.e1", kb="aspirin"),
    ]
    parses = {"x.s0": inst.load_conllu(
        [
            "1\taspirin\taspirin\tNOUN\t_\t_\t0\troot\t_\t_",
            "2\tand\tand\tCCONJ\t_\t_\t3\tcc\t_\t_",
            "3\taspirin\taspirin\tNOUN\t_\t_\t1\tconj\t_\t_",
            "4\t.\t.\tPUNCT\t_\t_\t1\tpunct\t_\t_",
        ],
        record.text,
    )}
    diagnostics = Counter()
    instances = inst.generate_instances(
        [record], [], ("drug", "drug"), ddi_resolver, lexicon, parses, diagnostics
    )
    assert instances == []
    assert diagnostics == {"self_pair": 1}


def test_missing_parse_skipped_with_diagnostic(ddi_resolver, lexicon):
    record = SentenceRecord(sentence_id="x.s0", doc_id="x", text="aspirin, warfarin.")
    record.entities = [
        mention(0, 7, mid="x.s0.e0", kb="aspirin"),
        mention(9, 17, mid="x.s0.e1", kb="warfarin"),
    ]
    diagnostics = Counter()
    instances = inst.generate_instances(
        [record], [], ("drug", "drug"), ddi_resolver, lexicon, {}, diagnostics
    )
    assert instances == []
    assert diagnostics == {"missing_parse": 1}


def test_unmappable_entity_skipped_with_diagnostic(ddi_resolver, lexicon):
    record = SentenceRecord(sentence_id="x.s0", doc_id="x", text="aspirin helps tea.")
    record.entities = [
        mention(0, 7, mid="x.s0.e0", kb="aspirin"),
        mention(14, 17, mid="x.s0.e1", kb="tea"),
    ]
    parses = {"x.s0": inst.load_conllu(
        [
            "1\taspirin\taspirin\tNOUN\t_\t_\t2\tnsubj\t_\t_",
            "2\thelps\thelp\tVERB\t_\t_\t0\troot\t_\t_",
            "3\ttea\ttea\tNOUN\t_\t_\t2\tobj\t_\t_",
            "4\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_",
        ],
        record.text,
    )}
    diagnostics = Counter()
    instances = inst.generate_instances(
        [record], [], ("drug", "drug"), ddi_resolver, lexicon, parses, diagnostics
    )
    assert instances == []
    assert diagnostics == {"unmappable_entity": 1}


def test_shared_head_token_counts_as_disconnected(ddi_resolver, lexicon):
    record = SentenceRecord(sentence_id="x.s0", doc_id="x", text="aspirin warfarin.")
    # both mentions overlap the same single token
    record.entities = [
        mention(0, 16, mid="x.s0.e0", kb="aspirin"),
        mention(0, 16, mid="x.s0.e1", kb="warfarin"),
    ]
    parses = {"x.s0": inst.load_conllu(
        ["1\taspirin warfarin\taspirin warfarin\tNOUN\t_\t_\t0\troot\t_\t_",
         "2\t.\t.\tPUNCT\t_\t_\t1\tpunct\t_\t_"],
        record.text,
    )}
    diagnostics = Counter()
    instances = inst.generate_instances(
        [record], [], ("drug", "drug"), ddi_resolver, lexicon, parses, diagnostics
    )
    assert instances == []
    assert diagnostics == {"disconnected": 1}


def test_unlabeled_mode_without_relations(ddi_data, ddi_resolver, lexicon):
    sentences, _, parses = ddi_data
    instances = inst.generate_instances(
        sentences, [], ("drug", "drug"), ddi_resolver, lexicon, parses
    )
    assert [i.label for i in instances] == ["unlabeled"] * 3


def test_duplicate_gold_positive_wins(ddi_data, ddi_resolver, lexicon):
    sentences, relations, parses = ddi_data
    flipped = [r for r in relations]
    negative_dup = corpus_mod.GoldRelation(
        doc_id="DDI-FIX.d0", e1_kb_id="warfarin", e2_kb_id="Aspirin",
        level="sentence", sentence_id="DDI-FIX.d0.s0", label="negative",
    )
    # the duplicate negative must not override the positive, in either order
    for ordering in ([negative_dup] + flipped, flipped + [negative_dup]):
        instances = inst.generate_instances(
            sentences, ordering, ("drug", "drug"), ddi_resolver, lexicon, parses
        )
        assert instances[0].label == "positive"


def test_gene_fallback_root_diagnostic(pgr_resolver, lexicon):
    record = SentenceRecord(sentence_id="g.s0", doc_id="g", text="GENEX causes pain.")
    record.entities = [
        mention(0, 5, mid="g.s0.e0", etype="gene", kb="7777"),
        mention(13, 17, mid="g.s0.e1", etype="phenotype", kb="HP:0000618"),
    ]
    parses = {"g.s0": inst.load_conllu(
        [
            "1\tGENEX\tgenex\tPROPN\t_\t_\t2\tnsubj\t_\t_",
            "2\tcauses\tcause\tVERB\t_\t_\t0\troot\t_\t_",
            "3\tpain\tpain\tNOUN\t_\t_\t2\tobj\t_\t_",
            "4\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_",
        ],
        record.text,
    )}
    diagnostics = Counter()
    instances = inst.generate_instances(
        [record], [], ("gene", "phenotype"), pgr_resolver, lexicon, parses, diagnostics
    )
    assert len(instances) == 1
    assert instances[0].left_chain == ["GO:0000001"]
    assert diagnostics == {"gene_fallback_root": 1}


def test_instances_dump_round_trip(ddi_data, ddi_resolver, lexicon):
    sentences, relations, parses = ddi_data
    instances = inst.generate_instances(
        sentences, relations, ("drug", "drug"), ddi_resolver, lexicon, parses
    )
    buffer = io.StringIO()
    inst.dump_instances(instances, buffer)
    buffer.seek(0)
    assert inst.load_instances(buffer) == instances


def instance_line(**changes):
    payload = {"instance_id": "a", "sentence_id": "s", "pair": ["a", "b"],
               "sdp_tokens": [], "sdp_classes": [], "left_chain": [], "right_chain": [],
               "common_chain": None, "label": "negative"}
    payload.update(changes)
    return json.dumps(payload)


@pytest.mark.parametrize("line", [
    instance_line()[:30],
    '["a", "b"]',
    '{"instance_id": "a"}',
    instance_line(extra=1),
    instance_line(pair=5),
    instance_line(common_chain=[1]),
    instance_line(label="maybe"),
], ids=["truncated", "not-an-object", "missing-fields", "unknown-field", "bad-pair",
        "bad-chain", "bad-label"])
def test_load_instances_malformed_line_names_its_number(line):
    inst.load_instances(io.StringIO(instance_line() + "\n"))
    with pytest.raises(MalformedLine, match="instances line 3"):
        inst.load_instances(io.StringIO(instance_line() + "\n\n" + line + "\n"))
