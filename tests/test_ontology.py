"""Ontology parsing, ancestry queries, GAF records, representative concepts."""
import io

import numpy as np
import pytest

from biont import ontology
from biont.errors import (
    CrossOntologyPair,
    CycleDetected,
    DanglingParent,
    DuplicateId,
    MalformedLine,
    MalformedStanza,
    ObsoleteConcept,
    UnknownConcept,
)
from oracle_helpers import (
    closure_ancestors,
    dag_to_obo,
    longest_path_to_root,
    random_dag,
)


def parse(text, namespace="custom"):
    return ontology.parse_obo(io.StringIO(text), namespace=namespace)


# --- parsing -----------------------------------------------------------------


def test_parse_obo_reads_terms_and_names(chebi):
    assert "CHEBI:24431" in chebi.concepts
    assert chebi.concepts["CHEBI:10033"].name == "warfarin"
    assert chebi.concepts["CHEBI:10033"].parents == ["CHEBI:23888", "CHEBI:38147"]
    assert chebi.namespace == "chebi"
    assert chebi.roots == {"CHEBI:24431"}


def test_parse_obo_strips_is_a_comments():
    graph = parse("[Term]\nid: A:1\nname: r\n\n[Term]\nid: A:2\nis_a: A:1 ! root comment\n")
    assert graph.concepts["A:2"].parents == ["A:1"]


def test_parse_obo_ignores_non_term_stanzas():
    graph = parse(
        "[Typedef]\nid: part_of\n\n[Term]\nid: A:1\nname: only\n"
    )
    assert list(graph.concepts) == ["A:1"]


def test_alt_id_resolves_to_primary(chebi):
    assert chebi.resolve("CHEBI:22584") == "CHEBI:15365"
    assert chebi.contains("CHEBI:22584")


def test_unknown_concept_raises(chebi):
    with pytest.raises(UnknownConcept):
        chebi.resolve("CHEBI:0")


def test_obsolete_concept_rejected_but_retained(chebi):
    assert "CHEBI:99999" in chebi.concepts
    assert "CHEBI:99999" not in chebi.depth_map
    with pytest.raises(ObsoleteConcept):
        chebi.resolve("CHEBI:99999")
    assert not chebi.contains("CHEBI:99999")


def test_stanza_without_id_raises():
    with pytest.raises(MalformedStanza):
        parse("[Term]\nname: anonymous\n")


def test_duplicate_primary_id_raises():
    with pytest.raises(DuplicateId):
        parse("[Term]\nid: A:1\n\n[Term]\nid: A:1\n")


def test_duplicate_alt_id_raises():
    with pytest.raises(DuplicateId):
        parse("[Term]\nid: A:1\nalt_id: A:9\n\n[Term]\nid: A:2\nalt_id: A:9\n")


def test_alt_id_colliding_with_primary_raises():
    with pytest.raises(DuplicateId):
        parse("[Term]\nid: A:1\n\n[Term]\nid: A:2\nalt_id: A:1\n")


def test_dangling_parent_raises():
    with pytest.raises(DanglingParent):
        parse("[Term]\nid: A:1\nis_a: A:404\n")


def test_cycle_raises_with_member_ids():
    text = (
        "[Term]\nid: A:1\n\n"
        "[Term]\nid: A:2\nis_a: A:3\n\n"
        "[Term]\nid: A:3\nis_a: A:2\nis_a: A:1\n"
    )
    with pytest.raises(CycleDetected) as err:
        parse(text)
    assert err.value.ids == {"A:2", "A:3"}


def test_cycle_through_obsolete_term_raises():
    text = (
        "[Term]\nid: A:1\n\n"
        "[Term]\nid: A:3\nis_a: A:2\nis_a: A:1\n\n"
        "[Term]\nid: A:2\nis_a: A:3\nis_obsolete: true\n"
    )
    with pytest.raises(CycleDetected) as err:
        parse(text)
    assert err.value.ids == {"A:2", "A:3"}


@pytest.mark.parametrize("anonymous_first", [True, False])
def test_stanza_without_id_wins_over_duplicate_id(anonymous_first):
    anonymous = "[Term]\nname: anonymous\n\n"
    duplicates = "[Term]\nid: A:1\n\n[Term]\nid: A:1\n\n"
    text = anonymous + duplicates if anonymous_first else duplicates + anonymous
    with pytest.raises(MalformedStanza):
        parse(text)


def test_parent_via_alt_id_is_normalized():
    graph = parse(
        "[Term]\nid: A:1\nalt_id: A:9\n\n[Term]\nid: A:2\nis_a: A:9\n"
    )
    assert graph.concepts["A:2"].parents == ["A:1"]


def test_edges_into_obsolete_terms_leave_query_dag():
    graph = parse(
        "[Term]\nid: A:1\n\n"
        "[Term]\nid: A:2\nis_a: A:1\nis_obsolete: true\n\n"
        "[Term]\nid: A:3\nis_a: A:1\nis_a: A:2\n"
    )
    assert graph.query_parents("A:3") == ["A:1"]
    assert ontology.depth(graph, "A:3") == 1


# --- ancestry ----------------------------------------------------------------


def test_depths_on_fixture(chebi):
    expected = {
        "CHEBI:24431": 0,
        "CHEBI:23888": 1,
        "CHEBI:38147": 1,
        "CHEBI:35475": 2,
        "CHEBI:10033": 2,
        "CHEBI:28304": 2,
        "CHEBI:4551": 2,
        "CHEBI:27899": 2,
        "CHEBI:15365": 3,
    }
    for cid, want in expected.items():
        assert ontology.depth(chebi, cid) == want


def test_ancestor_chain_single_parent_lineage(chebi):
    assert ontology.ancestor_chain(chebi, "CHEBI:15365") == [
        "CHEBI:15365", "CHEBI:35475", "CHEBI:23888", "CHEBI:24431",
    ]


def test_ancestor_chain_tie_breaks_on_smaller_id(chebi):
    # warfarin's two parents are both at depth 1; CHEBI:23888 < CHEBI:38147
    assert ontology.ancestor_chain(chebi, "CHEBI:10033") == [
        "CHEBI:10033", "CHEBI:23888", "CHEBI:24431",
    ]


def test_ancestor_chain_length_is_depth_plus_one(chebi):
    for cid in chebi.depth_map:
        chain = ontology.ancestor_chain(chebi, cid)
        assert len(chain) == ontology.depth(chebi, cid) + 1
        assert chain[0] == cid
        assert chain[-1] in chebi.roots
        for child, parent in zip(chain, chain[1:]):
            assert parent in chebi.query_parents(child)


def test_ancestor_chain_accepts_alt_id(chebi):
    assert ontology.ancestor_chain(chebi, "CHEBI:22584")[0] == "CHEBI:15365"


def test_ancestor_set_exclusive_and_inclusive(chebi):
    assert ontology.ancestor_set(chebi, "CHEBI:10033") == {
        "CHEBI:23888", "CHEBI:38147", "CHEBI:24431",
    }
    assert ontology.ancestor_set(chebi, "CHEBI:10033", inclusive=True) == {
        "CHEBI:10033", "CHEBI:23888", "CHEBI:38147", "CHEBI:24431",
    }
    assert ontology.ancestor_set(chebi, "CHEBI:24431") == set()


def test_common_ancestors_sorted_deepest_first(chebi):
    assert ontology.common_ancestors(chebi, "CHEBI:10033", "CHEBI:28304") == [
        "CHEBI:38147", "CHEBI:24431",
    ]
    assert ontology.common_ancestors(chebi, "CHEBI:15365", "CHEBI:10033") == [
        "CHEBI:23888", "CHEBI:24431",
    ]
    # a concept is its own inclusive ancestor
    assert ontology.common_ancestors(chebi, "CHEBI:10033", "CHEBI:10033")[0] == "CHEBI:10033"


def test_common_ancestors_foreign_prefix_raises(chebi):
    with pytest.raises(CrossOntologyPair):
        ontology.common_ancestors(chebi, "CHEBI:10033", "GO:0000001")


def test_id_prefixes_computed_once_per_graph(chebi):
    assert chebi.id_prefixes is chebi.id_prefixes
    assert chebi.id_prefixes == {"CHEBI"}


def test_foreign_prefix_still_raises_after_earlier_queries():
    graph = parse("[Term]\nid: CHEBI:1\nname: a\n\n[Term]\nid: CHEBI:2\nname: b\nis_a: CHEBI:1\n",
                  namespace="chebi")
    assert ontology.common_ancestors(graph, "CHEBI:2", "CHEBI:2") == ["CHEBI:2", "CHEBI:1"]
    with pytest.raises(CrossOntologyPair):
        ontology.common_ancestors(graph, "GO:0000001", "CHEBI:2")
    assert ontology.common_ancestors(graph, "CHEBI:1", "CHEBI:2") == ["CHEBI:1"]
    with pytest.raises(CrossOntologyPair):
        ontology.common_ancestors(graph, "CHEBI:1", "GO:0000001")


def test_ancestry_matches_independent_oracles_on_random_dags():
    rng = np.random.default_rng(20240815)
    for _ in range(5):
        n = int(rng.integers(5, 30))
        ids, parents = random_dag(rng, n)
        graph = parse(dag_to_obo(ids, parents))
        memo: dict[str, int] = {}
        for cid in ids:
            assert ontology.ancestor_set(graph, cid, inclusive=True) == \
                closure_ancestors(parents, cid)
            assert ontology.depth(graph, cid) == \
                longest_path_to_root(parents, cid, memo)


def test_query_dag_matches_oracles_with_obsolete_terms_and_alt_id_parents():
    rng = np.random.default_rng(20261018)
    saw_obsolete = saw_alt_edge = False
    for _ in range(20):
        n = int(rng.integers(5, 30))
        ids, parents = random_dag(rng, n)
        obsolete = {cid for cid in ids if rng.random() < 0.2}
        alt = {cid: cid.replace("T:", "ALT:") for cid in ids if rng.random() < 0.3}
        lines = []
        for cid in ids:
            lines += ["[Term]", f"id: {cid}"]
            if cid in alt:
                lines.append(f"alt_id: {alt[cid]}")
            for parent in parents[cid]:
                use_alt = parent in alt and rng.random() < 0.5
                saw_alt_edge |= use_alt
                lines.append(f"is_a: {alt[parent] if use_alt else parent}")
            if cid in obsolete:
                lines.append("is_obsolete: true")
            lines.append("")
        graph = parse("\n".join(lines))
        saw_obsolete |= bool(obsolete)

        live = {
            cid: [p for p in parents[cid] if p not in obsolete]
            for cid in ids if cid not in obsolete
        }
        memo: dict[str, int] = {}
        assert graph.roots == {cid for cid, ps in live.items() if not ps}
        assert set(graph.depth_map) == set(live)
        for cid in live:
            assert graph.query_parents(cid) == live[cid]
            assert ontology.depth(graph, cid) == longest_path_to_root(live, cid, memo)
            assert ontology.ancestor_set(graph, cid, inclusive=True) == \
                closure_ancestors(live, cid)
    assert saw_obsolete and saw_alt_edge


# --- GAF ---------------------------------------------------------------------


def test_parse_gaf_reads_fixture(gaf_records):
    # gene 672's NOT-qualified record is dropped; the others keep file order
    assert gaf_records == {
        "672": [("GO:0000004", "IDA"), ("GO:0000006", "IEA")],
        "7157": [("GO:0000004", "IDA"), ("GO:0000005", "IMP")],
        "9999": [("GO:0000007", "EXP"), ("GO:0000004", "IMP")],
        "8888": [("GO:0000006", "IEA")],
    }


def gaf_line(gene, concept, evidence, qualifier=""):
    return "\t".join(["DB", gene, "SYM", qualifier, concept, "REF", evidence]) + "\n"


def test_parse_gaf_skips_comments_and_blanks():
    text = "!gaf-version: 2.1\n\n" + gaf_line("g1", "GO:0000001", "IDA")
    records = ontology.parse_gaf(io.StringIO(text))
    assert records == {"g1": [("GO:0000001", "IDA")]}


def test_parse_gaf_short_line_raises():
    with pytest.raises(MalformedLine):
        ontology.parse_gaf(io.StringIO("DB\tg1\tSYM\t\tGO:0000001\tREF\n"))


def test_parse_gaf_short_line_after_valid_lines_names_its_line():
    text = (gaf_line("g1", "GO:0000001", "IDA") + gaf_line("g2", "GO:0000002", "IEA", "NOT")
            + "DB\tg3\tSYM\t\tGO:0000003\tREF\n")
    with pytest.raises(MalformedLine, match="GAF line 3:"):
        ontology.parse_gaf(io.StringIO(text))


@pytest.mark.parametrize("evidence", ["I", "ida", "ABCDE", "ID4", ""])
def test_parse_gaf_bad_evidence_code_raises(evidence):
    line = "\t".join(["DB", "g1", "SYM", "", "GO:0000001", "REF", evidence]) + "\n"
    with pytest.raises(MalformedLine):
        ontology.parse_gaf(io.StringIO(line))


def test_parse_gaf_negated_line_with_bad_evidence_code_raises():
    # a NOT record is dropped only after its line passes every check
    with pytest.raises(MalformedLine, match="bad evidence code"):
        ontology.parse_gaf(io.StringIO(gaf_line("g1", "GO:0000001", "ida", "NOT")))


# --- representative concept ---------------------------------------------------


def test_representative_experimental_outranks_deeper_iea(go, gaf_records):
    # gene 672: IDA at depth 3 wins over IEA at depth 5; its NOT-qualified
    # IDA record at depth 5 must not count
    choice = ontology.representative_concept(go, gaf_records, "672")
    assert choice == ("GO:0000004", False)


def test_representative_deeper_wins_within_experimental(go, gaf_records):
    choice = ontology.representative_concept(go, gaf_records, "7157")
    assert choice == ("GO:0000005", False)


def test_representative_depth_tie_breaks_on_smaller_id(go, gaf_records):
    # gene 9999: EXP GO:0000007 and IMP GO:0000004, both depth 3
    choice = ontology.representative_concept(go, gaf_records, "9999")
    assert choice == ("GO:0000004", False)


def test_representative_falls_back_to_all_records(go, gaf_records):
    # gene 8888 has only an IEA record
    choice = ontology.representative_concept(go, gaf_records, "8888")
    assert choice == ("GO:0000006", False)


def test_representative_unannotated_gene_maps_to_root_with_flag(go, gaf_records):
    choice = ontology.representative_concept(go, gaf_records, "7777")
    assert choice == ("GO:0000001", True)
    assert choice.fallback is True


def test_experimental_code_set_contents():
    assert "IDA" in ontology.EXPERIMENTAL_CODES
    assert "HTP" in ontology.EXPERIMENTAL_CODES
    assert "IEA" not in ontology.EXPERIMENTAL_CODES
    assert len(ontology.EXPERIMENTAL_CODES) == 11
