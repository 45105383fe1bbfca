"""Ontology graphs (OBO) and gene annotations (GAF).

Parses OBO 1.2 flat files into a validated is_a DAG and answers the ancestry
queries the instance generator needs: depth, longest ancestor chain, ancestor
set, and common ancestors of a pair.  GAF 2.x files supply the gene -> GO
mapping used to pick one representative concept per gene.

All functions are pure; parsers read a stream once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, TextIO

from .errors import (
    CrossOntologyPair,
    CycleDetected,
    DanglingParent,
    DataError,
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
class OntologyGraph:
    """Validated is_a DAG over non-obsolete concepts, as flat per-id tables.

    `ids` maps every primary id, obsolete ones included, to itself, in file
    order.  `depth_map` maps each queryable id to its longest-path distance
    from a root, and `query_parent_map` to its non-obsolete parents in file
    order.  Every table stores one string per id, the key of `ids`.
    Obsolete ids are only in `ids` and `obsolete`; queries reject them.  A
    graph must not be changed after `parse_obo` builds it: `id_prefixes` is
    computed once and cached.
    """

    namespace: str
    ids: dict[str, str]
    obsolete: frozenset[str]
    roots: set[str]
    depth_map: dict[str, int]
    alt_to_primary: dict[str, str]
    query_parent_map: dict[str, list[str]]

    def resolve(self, concept_id: str) -> str:
        """Return the primary id for `concept_id`, following alt_ids.

        Raises UnknownConcept / ObsoleteConcept when the id cannot be queried.
        """
        primary = concept_id
        if primary not in self.ids:
            primary = self.alt_to_primary.get(primary, primary)
        if primary not in self.ids:
            raise UnknownConcept(f"{concept_id} not in {self.namespace} ontology")
        if primary in self.obsolete:
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
            cid.split(":", 1)[0] if ":" in cid else "" for cid in self.ids
        )


def parse_obo(stream: Iterable[str] | TextIO, namespace: str = "custom") -> OntologyGraph:
    """Parse an OBO 1.2 flat file into an OntologyGraph.

    Only [Term] stanzas are read, and only the keys id, alt_id, is_a and
    is_obsolete; other keys (name among them) and stanza types are ignored.
    is_a values keep the id before any "!" comment.  Each stanza goes into
    the graph's per-id tables when the next header or the end of the file
    closes it.  Obsolete terms are kept in `ids` and `obsolete` only.
    Checks raise in this order: a stanza with no id or two (MalformedStanza),
    a duplicate id (DuplicateId), a dangling parent, a cycle, and no live
    term.
    """
    obsolete: set[str] = set()
    alt_to_primary: dict[str, str] = {}
    parent_map: dict[str, list[str]] = {}
    # Each primary id to itself: the one string every table stores for it.
    ids: dict[str, str] = {}
    duplicate: str | None = None
    term = None  # the open [Term] stanza: [id, is_a values, alt ids, obsolete]
    for raw in chain(stream, ("[",)):  # the "[" closes the last stanza
        line = raw.strip()
        if line.startswith("["):
            if term is not None:
                cid, parents, alts, dead = term
                if not cid:
                    raise MalformedStanza("[Term] stanza without an id")
                # The first duplicate raises after the scan, so that a later
                # stanza without an id still wins.
                if duplicate is None and (cid in ids or cid in alt_to_primary):
                    duplicate = cid
                ids[cid] = cid
                parent_map[cid] = parents
                if dead:
                    obsolete.add(cid)
                for alt in alts:
                    if duplicate is None and (alt in alt_to_primary or alt in ids):
                        duplicate = alt
                    alt_to_primary[alt] = cid
            term = [None, [], [], False] if line == "[Term]" else None
            continue
        key, sep, value = line.partition(":")
        if term is None or not sep:
            continue
        key, value = key.strip(), value.strip()
        if key == "id":
            if term[0] is not None:
                raise MalformedStanza(f"[Term] stanza with two ids: {term[0]}, {value}")
            term[0] = value
        elif key == "alt_id":
            term[2].append(value)
        elif key == "is_a":
            parent = value.split("!")[0].strip()
            term[1].append(ids.get(parent, parent))
        elif key == "is_obsolete":
            term[3] = value.lower() == "true"
    if duplicate is not None:
        raise DuplicateId(duplicate)

    # Point every parent reference, alt ids resolved, at its id's own string.
    for cid, parents in parent_map.items():
        for i, parent in enumerate(parents):
            found = ids.get(parent) or alt_to_primary.get(parent)
            if found is None:
                raise DanglingParent(f"{cid} is_a {parent}")
            parents[i] = found

    # One iterative DFS over child->parent edges of every concept, obsolete
    # ones included.  A node back on top of the stack rescans its parents, all
    # finished up to the last one pushed.  A parent still on the stack closes
    # a cycle.  A node finishes after its parents and takes its depth then, so
    # `depth_map` (obsolete ids too, until the walk ends) marks finished nodes.
    depth_map: dict[str, int] = {}
    on_stack: set[str] = set()
    for start in parent_map:
        if start in depth_map:
            continue
        stack = [start]
        on_stack.add(start)
        while stack:
            node = stack[-1]
            parents = parent_map[node]
            for parent in parents:
                if parent in depth_map:
                    continue
                if parent in on_stack:
                    raise CycleDetected(stack[stack.index(parent):])
                on_stack.add(parent)
                stack.append(parent)
                break
            else:
                stack.pop()
                on_stack.discard(node)
                if node not in obsolete and not obsolete.isdisjoint(parents):
                    parents = parent_map[node] = [p for p in parents if p not in obsolete]
                depth_map[node] = 1 + max(depth_map[p] for p in parents) if parents else 0
    for cid in obsolete:
        del parent_map[cid], depth_map[cid]

    # An acyclic query DAG has a root exactly when it has a concept.
    roots = {cid for cid, parents in parent_map.items() if not parents}
    if not roots:
        raise DataError(f"{namespace} ontology has no non-obsolete term")
    return OntologyGraph(
        namespace=namespace,
        ids=ids,
        obsolete=frozenset(obsolete),
        roots=roots,
        depth_map=depth_map,
        alt_to_primary=alt_to_primary,
        query_parent_map=parent_map,
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
