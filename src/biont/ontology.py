"""Ontology graphs (OBO) and gene annotations (GAF).

Parses OBO 1.2 flat files into a validated is_a DAG and answers the ancestry
queries the instance generator needs: depth, longest ancestor chain, ancestor
set, and common ancestors of a pair.  GAF 2.x files supply the gene -> GO
mapping used to pick one representative concept per gene.

All functions are pure; parsers read a stream once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, TextIO

from .errors import (
    CrossOntologyPair,
    CycleDetected,
    DanglingParent,
    DuplicateId,
    MalformedLine,
    MalformedStanza,
    ObsoleteConcept,
    UnknownConcept,
)

# Evidence codes counted as experimental when choosing a gene's
# representative concept (experimental + high-throughput groups).
EXPERIMENTAL_CODES = frozenset(
    ["EXP", "IDA", "IPI", "IMP", "IGI", "IEP", "HTP", "HDA", "HMP", "HGI", "HEP"]
)


@dataclass
class OntologyConcept:
    id: str
    name: str
    parents: list[str] = field(default_factory=list)
    alt_ids: list[str] = field(default_factory=list)
    obsolete: bool = False


@dataclass
class OntologyGraph:
    """Validated is_a DAG over non-obsolete concepts.

    `depth_map` maps each queryable id to its longest-path distance from a
    root, and `query_parent_map` maps it to its non-obsolete parents, in
    file order; both are filled once, by the walk that checks the graph for
    cycles.  Obsolete concepts stay in `concepts` but have no entry in
    either table and are rejected by the query operations.  A graph must
    not be changed after `parse_obo` builds it: `id_prefixes` is computed
    once and cached.
    """

    namespace: str
    concepts: dict[str, OntologyConcept]
    roots: set[str]
    depth_map: dict[str, int]
    alt_to_primary: dict[str, str]
    query_parent_map: dict[str, list[str]]

    def resolve(self, concept_id: str) -> str:
        """Return the primary id for `concept_id`, following alt_ids.

        Raises UnknownConcept / ObsoleteConcept when the id cannot be queried.
        """
        primary = concept_id
        if primary not in self.concepts:
            primary = self.alt_to_primary.get(primary, primary)
        if primary not in self.concepts:
            raise UnknownConcept(f"{concept_id} not in {self.namespace} ontology")
        if self.concepts[primary].obsolete:
            raise ObsoleteConcept(f"{concept_id} is obsolete")
        return primary

    def contains(self, concept_id: str) -> bool:
        try:
            self.resolve(concept_id)
        except (UnknownConcept, ObsoleteConcept):
            return False
        return True

    def query_parents(self, primary_id: str) -> list[str]:
        return self.query_parent_map[primary_id]

    @cached_property
    def id_prefixes(self) -> frozenset[str]:
        return frozenset(
            cid.split(":", 1)[0] if ":" in cid else "" for cid in self.concepts
        )


def parse_obo(stream: Iterable[str] | TextIO, namespace: str = "custom") -> OntologyGraph:
    """Parse an OBO 1.2 flat file into an OntologyGraph.

    Only [Term] stanzas are read, and only the keys id, name, alt_id, is_a
    and is_obsolete; other keys and stanza types are ignored.  is_a values
    keep the id before any "!" comment.  Obsolete terms are retained but
    excluded from ancestry queries.
    """
    stanzas: list[OntologyConcept] = []
    current: OntologyConcept | None = None
    for raw in stream:
        line = raw.strip()
        if line.startswith("["):
            current = OntologyConcept(id="", name="") if line == "[Term]" else None
            if current is not None:
                stanzas.append(current)
            continue
        key, sep, value = line.partition(":")
        if current is None or not sep:
            continue
        key = key.strip()
        value = value.strip()
        if key == "id":
            current.id = value
        elif key == "name":
            current.name = value
        elif key == "alt_id":
            current.alt_ids.append(value)
        elif key == "is_a":
            current.parents.append(value.split("!")[0].strip())
        elif key == "is_obsolete":
            current.obsolete = value.lower() == "true"
    # Checked before registration, so a missing id wins over any later error.
    if any(not concept.id for concept in stanzas):
        raise MalformedStanza("[Term] stanza without an id")

    concepts: dict[str, OntologyConcept] = {}
    alt_to_primary: dict[str, str] = {}
    for concept in stanzas:
        if concept.id in concepts or concept.id in alt_to_primary:
            raise DuplicateId(concept.id)
        concepts[concept.id] = concept
        for alt in concept.alt_ids:
            if alt in alt_to_primary or alt in concepts:
                raise DuplicateId(alt)
            alt_to_primary[alt] = concept.id

    # Normalize parent references: alt ids resolve to primaries, and every
    # parent must exist somewhere in the file.
    for concept in concepts.values():
        resolved = []
        for parent in concept.parents:
            if parent not in concepts:
                parent = alt_to_primary.get(parent, parent)
            if parent not in concepts:
                raise DanglingParent(f"{concept.id} is_a {parent}")
            resolved.append(parent)
        concept.parents = resolved

    # One iterative DFS over child->parent edges of every concept, obsolete
    # ones included.  A parent still on the stack closes a cycle; a node is
    # finished after all its parents, so its depth can be set from theirs.
    query_parent_map: dict[str, list[str]] = {}
    depth_map: dict[str, int] = {}
    on_stack: set[str] = set()
    finished: set[str] = set()
    for start in concepts:
        if start in finished:
            continue
        on_stack.add(start)
        stack = [(start, iter(concepts[start].parents))]
        while stack:
            node, pending = stack[-1]
            for parent in pending:
                if parent in finished:
                    continue
                if parent in on_stack:
                    path = [n for n, _ in stack]
                    raise CycleDetected(path[path.index(parent):])
                on_stack.add(parent)
                stack.append((parent, iter(concepts[parent].parents)))
                break
            else:
                stack.pop()
                on_stack.discard(node)
                finished.add(node)
                concept = concepts[node]
                if not concept.obsolete:
                    ps = [p for p in concept.parents if not concepts[p].obsolete]
                    # Share the parent list when no edge is dropped, so the
                    # table holds a second list only for the few that differ.
                    if len(ps) == len(concept.parents):
                        ps = concept.parents
                    query_parent_map[node] = ps
                    depth_map[node] = 1 + max(depth_map[p] for p in ps) if ps else 0

    return OntologyGraph(
        namespace=namespace,
        concepts=concepts,
        roots={cid for cid, ps in query_parent_map.items() if not ps},
        depth_map=depth_map,
        alt_to_primary=alt_to_primary,
        query_parent_map=query_parent_map,
    )


def depth(graph: OntologyGraph, concept_id: str) -> int:
    """Longest-path distance from a root to the concept."""
    return graph.depth_map[graph.resolve(concept_id)]


def ancestor_chain(graph: OntologyGraph, concept_id: str) -> list[str]:
    """Most-specific-first path to a root, length depth+1.

    At each step the parent with maximal depth is taken; ties break on the
    lexicographically smallest id, so the chain is unique.
    """
    node = graph.resolve(concept_id)
    chain = [node]
    while graph.depth_map[node] > 0:
        parents = graph.query_parents(node)
        top = max(graph.depth_map[p] for p in parents)
        node = min(p for p in parents if graph.depth_map[p] == top)
        chain.append(node)
    return chain


def ancestor_set(graph: OntologyGraph, concept_id: str, inclusive: bool = False) -> set[str]:
    """Transitive closure over is_a parents; includes the concept iff inclusive."""
    start = graph.resolve(concept_id)
    seen: set[str] = set()
    stack = list(graph.query_parents(start))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(graph.query_parents(node))
    if inclusive:
        seen.add(start)
    return seen


def common_ancestors(graph: OntologyGraph, id1: str, id2: str) -> list[str]:
    """Shared inclusive ancestors, deepest first (ties: smaller id).

    Ids that belong to a different ontology (foreign prefix) raise
    CrossOntologyPair rather than UnknownConcept.
    """
    for cid in (id1, id2):
        prefix = cid.split(":", 1)[0] if ":" in cid else ""
        if prefix and prefix not in graph.id_prefixes:
            raise CrossOntologyPair(f"{cid} does not belong to the {graph.namespace} ontology")
    shared = ancestor_set(graph, id1, inclusive=True) & ancestor_set(graph, id2, inclusive=True)
    return sorted(shared, key=lambda c: (-graph.depth_map[c], c))


# --- GAF --------------------------------------------------------------------


def parse_gaf(stream: Iterable[str] | TextIO) -> dict[str, list[tuple[str, str]]]:
    """Parse a GAF 2.x annotation file into gene id -> [(concept id, evidence code)].

    Lines starting with "!" are comments.  Columns used (1-based): 2 gene id,
    4 qualifier, 5 concept id, 7 evidence code.  Every line is checked (column
    count, then evidence code) before a record whose qualifier contains NOT
    is dropped.  Each gene's pairs keep file order.
    """
    annotations: dict[str, list[tuple[str, str]]] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("!"):
            continue
        cols = line.split("\t")
        if len(cols) < 7:
            raise MalformedLine(f"GAF line {lineno}: expected >= 7 columns, got {len(cols)}")
        evidence = cols[6].strip()
        if not (2 <= len(evidence) <= 4 and evidence.isalpha() and evidence.isupper()):
            raise MalformedLine(f"GAF line {lineno}: bad evidence code {evidence!r}")
        if "NOT" in cols[3]:
            continue
        annotations.setdefault(cols[1].strip(), []).append((cols[4].strip(), evidence))
    return annotations


class RepresentativeChoice(NamedTuple):
    concept_id: str
    fallback: bool


def representative_concept(
    graph: OntologyGraph,
    annotations: dict[str, list[tuple[str, str]]],
    gene_id: str,
) -> RepresentativeChoice:
    """Pick the single concept that stands in for a gene.

    `annotations` is the table `parse_gaf` returns.  Unknown/obsolete
    concepts are discarded.  Among the survivors, experimentally-evidenced
    records outrank the rest; within a rank the deepest concept wins, ties on
    the smaller id.  A gene with no usable record maps to the
    lexicographically smallest root, flagged.
    """
    usable: list[tuple[bool, int, str]] = []
    for concept_id, evidence in annotations.get(gene_id, ()):
        try:
            primary = graph.resolve(concept_id)
        except (UnknownConcept, ObsoleteConcept):
            continue
        usable.append((evidence in EXPERIMENTAL_CODES, graph.depth_map[primary], primary))
    if not usable:
        return RepresentativeChoice(min(graph.roots), True)
    pool = [u for u in usable if u[0]] or usable
    best_depth = max(d for _, d, _ in pool)
    chosen = min(cid for _, d, cid in pool if d == best_depth)
    return RepresentativeChoice(chosen, False)
