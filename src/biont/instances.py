"""Candidate-pair instance generation.

Turns labeled sentences plus dependency parses, a supersense lexicon and
ontology graphs into classifier-ready instances: the masked shortest
dependency path between the two entity heads, the per-token supersense
classes, and the ontology ancestor chains of both entities (plus the common
ancestors when the pair shares an entity type).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, TextIO

from . import ontology
from .corpus import EntityMention, SentenceRecord, pair_key
from .errors import (
    DataError,
    Disconnected,
    MalformedConllu,
    MalformedLine,
    NoOverlappingToken,
    TokenAlignmentFailure,
    UnmappableEntity,
)
from .ontology import OntologyGraph

MASK_CANDIDATE_1 = "candidate1"
MASK_CANDIDATE_2 = "candidate2"
MASK_ENTITY = "entity"
DEFAULT_CLASS = "O"

# Entity type -> ontology namespace.  Any same-type pair additionally gets a
# common-ancestors chain; different-type pairs only concatenate their chains.
TYPE_NAMESPACE = {
    "drug": "chebi",
    "chemical": "chebi",
    "disease": "doid",
    "phenotype": "hp",
    "gene": "go",
}

CORPUS_PAIR_TYPES = {
    "ddi": ("drug", "drug"),
    "pgr": ("gene", "phenotype"),
    "cdr": ("chemical", "disease"),
}


@dataclass
class ParsedToken:
    index: int  # 1-based position in the sentence
    form: str
    lemma: str
    head: int  # 0 = root
    deprel: str
    char_start: int
    char_end: int


@dataclass
class Instance:
    instance_id: str
    sentence_id: str
    pair: tuple[str, str]
    sdp_tokens: list[str]
    sdp_classes: list[str]
    left_chain: list[str]
    right_chain: list[str]
    common_chain: list[str] | None
    label: str  # positive | negative | unlabeled


# --- CoNLL-U ----------------------------------------------------------------


def read_conllu_blocks(stream: Iterable[str] | TextIO) -> dict[str, list[str]]:
    """Split a CoNLL-U file into per-sentence line blocks keyed by sent_id."""
    blocks: dict[str, list[str]] = {}
    current: list[str] = []
    sent_id: str | None = None

    def flush() -> None:
        nonlocal current, sent_id
        if not current:
            sent_id = None
            return
        if sent_id is None:
            raise MalformedConllu("sentence block without a # sent_id comment")
        if sent_id in blocks:
            raise MalformedConllu(f"duplicate sent_id {sent_id}")
        blocks[sent_id] = current
        current = []
        sent_id = None

    for raw in stream:
        line = raw.rstrip("\n")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("sent_id"):
                _, _, value = body.partition("=")
                sent_id = value.strip()
            continue
        current.append(line)
    flush()
    return blocks


def _misc_offsets(misc: str) -> tuple[int, int] | None:
    if misc in ("", "_"):
        return None
    fields = dict(
        item.split("=", 1) for item in misc.split("|") if "=" in item
    )
    if "start" in fields and "end" in fields:
        try:
            return int(fields["start"]), int(fields["end"])
        except ValueError as exc:
            raise MalformedConllu(f"bad MISC offsets {misc!r}") from exc
    return None


def load_conllu(
    lines: Iterable[str],
    sentence_text: str,
    diagnostics: Counter[str] | None = None,
) -> list[ParsedToken]:
    """Read one sentence's CoNLL-U token lines.

    Multiword ranges (1-2) and empty nodes (1.1) are skipped.  Character
    offsets come from MISC start=/end= keys when present, otherwise from
    greedy left-to-right matching of the form in the sentence text.
    """
    tokens: list[ParsedToken] = []
    cursor = 0
    for line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise MalformedConllu(f"expected 10 columns, got {len(cols)}: {line!r}")
        token_id = cols[0]
        if "-" in token_id or "." in token_id:
            continue
        try:
            index = int(token_id)
            head = int(cols[6])
        except ValueError as exc:
            raise MalformedConllu(f"non-integer id/head in {line!r}") from exc
        form = cols[1]
        offsets = _misc_offsets(cols[9])
        if offsets is None:
            found = sentence_text.find(form, cursor)
            if found < 0:
                raise TokenAlignmentFailure(
                    f"cannot align {form!r} in {sentence_text!r} from {cursor}"
                )
            offsets = (found, found + len(form))
        start, end = offsets
        cursor = max(cursor, end)
        tokens.append(
            ParsedToken(
                index=index,
                form=form,
                lemma=cols[2],
                head=head,
                deprel=cols[7],
                char_start=start,
                char_end=end,
            )
        )
    if [t.index for t in tokens] != list(range(1, len(tokens) + 1)):
        raise MalformedConllu("token ids are not consecutive from 1")
    n = len(tokens)
    roots = 0
    for t in tokens:
        if not 0 <= t.head <= n:
            raise MalformedConllu(f"head {t.head} out of range for {n} tokens")
        if t.head == 0:
            roots += 1
    if roots > 1 and diagnostics is not None:
        diagnostics["multiple_roots"] += 1
    return tokens


# --- dependency path --------------------------------------------------------


def _overlaps(token: ParsedToken, mention: EntityMention) -> bool:
    return token.char_start < mention.char_end and token.char_end > mention.char_start


def head_token(tokens: list[ParsedToken], mention: EntityMention) -> ParsedToken:
    """The mention token whose head lies outside the mention (root counts as
    outside); rightmost wins when several qualify."""
    overlapping = [t for t in tokens if _overlaps(t, mention)]
    if not overlapping:
        raise NoOverlappingToken(
            f"no token overlaps {mention.surface!r} at "
            f"{mention.char_start}-{mention.char_end}"
        )
    member = {t.index for t in overlapping}
    external = [t for t in overlapping if t.head == 0 or t.head not in member]
    return (external or overlapping)[-1]


def shortest_dependency_path(
    tokens: list[ParsedToken], t1: ParsedToken, t2: ParsedToken
) -> list[ParsedToken]:
    """BFS over undirected (token, head) edges, endpoints included.

    Neighbor expansion in ascending token-index order makes the returned
    path unique among equals.
    """
    adjacency: dict[int, list[int]] = {t.index: [] for t in tokens}
    for t in tokens:
        if t.head != 0:
            adjacency[t.index].append(t.head)
            adjacency[t.head].append(t.index)
    for neighbors in adjacency.values():
        neighbors.sort()

    parent: dict[int, int] = {t1.index: 0}
    queue = deque([t1.index])
    while queue:
        node = queue.popleft()
        if node == t2.index:
            break
        for nxt in adjacency[node]:
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    if t2.index not in parent:
        raise Disconnected(f"no path between tokens {t1.index} and {t2.index}")
    by_index = {t.index: t for t in tokens}
    path = [t2.index]
    while path[-1] != t1.index:
        path.append(parent[path[-1]])
    return [by_index[i] for i in reversed(path)]


# --- supersense lexicon -----------------------------------------------------


class SupersenseLexicon:
    """lemma -> supersense class, defaulting to "O".

    File format: a `#classes: c1,c2,...` header declaring the closed class
    set, then `lemma<TAB>class` lines.
    """

    def __init__(self, classes: Iterable[str], entries: dict[str, str]):
        self.classes = set(classes) | {DEFAULT_CLASS}
        for lemma, cls in entries.items():
            if cls not in self.classes:
                raise MalformedLine(f"class {cls!r} for {lemma!r} not declared in header")
        self.entries = dict(entries)

    def lookup(self, lemma: str) -> str:
        return self.entries.get(lemma.lower(), DEFAULT_CLASS)


def load_lexicon(stream: Iterable[str] | TextIO) -> SupersenseLexicon:
    classes: list[str] | None = None
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("classes:"):
                classes = [c.strip() for c in body[len("classes:"):].split(",") if c.strip()]
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise MalformedLine(f"lexicon line {lineno}: expected lemma<TAB>class")
        entries[cols[0].strip().lower()] = cols[1].strip()
    if classes is None:
        raise MalformedLine("lexicon file lacks a #classes: header")
    return SupersenseLexicon(classes, entries)


def path_sequences(
    path: list[ParsedToken],
    candidate_heads: tuple[int, int],
    other_mentions: Iterable[EntityMention],
    lexicon: SupersenseLexicon,
) -> tuple[list[str], list[str]]:
    """The words and classes sequences of a path, one entry per token.

    The pair's head tokens become candidate1/candidate2 and tokens inside
    any other mention become entity; each masked token gets class O.  Every
    other token keeps its lowercased form and its lemma's lexicon class.
    """
    heads = dict(zip(candidate_heads, (MASK_CANDIDATE_1, MASK_CANDIDATE_2)))
    others = list(other_mentions)
    forms, classes = [], []
    for t in path:
        mask = heads.get(t.index)
        if mask is None and any(_overlaps(t, m) for m in others):
            mask = MASK_ENTITY
        forms.append(mask or t.form.lower())
        classes.append(DEFAULT_CLASS if mask else lexicon.lookup(t.lemma))
    return forms, classes


# --- entity -> concept resolution -------------------------------------------


def load_xref_table(stream: Iterable[str] | TextIO) -> dict[str, str]:
    """Two-column TSV mapping source ids (or names) to ontology ids."""
    table: dict[str, str] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise MalformedLine(f"xref line {lineno}: expected 2 columns")
        table[cols[0].strip()] = cols[1].strip()
    return table


class EntityResolver:
    """Routes a mention to its ontology concept.

    kb ids that already resolve in the target graph are used directly;
    otherwise the namespace's cross-reference table is consulted (exact
    match, then casefolded).  Genes go through the GAF-derived
    representative-concept choice instead, over only that gene's entry in
    the per-gene table `ontology.parse_gaf` returns.
    """

    def __init__(
        self,
        graphs: dict[str, OntologyGraph],
        xref: dict[str, dict[str, str]] | None = None,
        gene_annotations: dict[str, list[tuple[str, str]]] | None = None,
    ):
        self.graphs = graphs
        self.xref = xref or {}
        self._xref_folded = {
            ns: {key.casefold(): value for key, value in table.items()}
            for ns, table in self.xref.items()
        }
        self.gene_annotations = gene_annotations or {}

    def graph_for(self, entity_type: str) -> OntologyGraph:
        namespace = TYPE_NAMESPACE.get(entity_type)
        if namespace is None or namespace not in self.graphs:
            raise UnmappableEntity(f"no ontology configured for type {entity_type!r}")
        return self.graphs[namespace]

    def resolve(self, mention: EntityMention) -> ontology.RepresentativeChoice:
        graph = self.graph_for(mention.entity_type)
        if mention.entity_type == "gene":
            return ontology.representative_concept(graph, self.gene_annotations, mention.kb_id)
        kb_id = mention.kb_id
        if graph.contains(kb_id):
            return ontology.RepresentativeChoice(graph.resolve(kb_id), False)
        table = self.xref.get(graph.namespace, {})
        mapped = table.get(kb_id)
        if mapped is None:
            mapped = self._xref_folded.get(graph.namespace, {}).get(kb_id.casefold())
        if mapped is None or not graph.contains(mapped):
            raise UnmappableEntity(
                f"{mention.kb_id!r} ({mention.entity_type}) has no {graph.namespace} concept"
            )
        return ontology.RepresentativeChoice(graph.resolve(mapped), False)


# --- instance assembly ------------------------------------------------------


# Skip-reason error -> the diagnostics reason it is counted under.
_SKIP_REASONS = {
    UnmappableEntity: "unmappable_entity",
    Disconnected: "disconnected",
    NoOverlappingToken: "no_overlapping_token",
}


def build_instance(
    sentence: SentenceRecord,
    pair: tuple[EntityMention, EntityMention],
    resolver: EntityResolver,
    lexicon: SupersenseLexicon,
    tokens: list[ParsedToken],
    label: str = "unlabeled",
    diagnostics: Counter[str] | None = None,
) -> Instance:
    """Assemble one instance for a candidate mention pair.

    The pair arrives in sentence order (as `_candidate_pairs` yields it):
    its first mention is candidate1 and contributes the left chain.  Raises
    the skip-reason errors (the keys of `_SKIP_REASONS`) for the caller to
    count.
    """
    m1, m2 = pair
    choice1 = resolver.resolve(m1)
    choice2 = resolver.resolve(m2)
    if diagnostics is not None:
        for choice in (choice1, choice2):
            if choice.fallback:
                diagnostics["gene_fallback_root"] += 1

    h1 = head_token(tokens, m1)
    h2 = head_token(tokens, m2)
    if h1.index == h2.index:
        raise Disconnected(
            f"mentions {m1.mention_id} and {m2.mention_id} share head token {h1.index}"
        )
    path = shortest_dependency_path(tokens, h1, h2)
    others = [m for m in sentence.entities if m.mention_id not in
              (m1.mention_id, m2.mention_id)]
    masked, classes = path_sequences(path, (h1.index, h2.index), others, lexicon)

    graph1 = resolver.graph_for(m1.entity_type)
    graph2 = resolver.graph_for(m2.entity_type)
    left_chain = ontology.ancestor_chain(graph1, choice1.concept_id)
    right_chain = ontology.ancestor_chain(graph2, choice2.concept_id)
    common = None
    if m1.entity_type == m2.entity_type:
        common = ontology.common_ancestors(graph1, choice1.concept_id, choice2.concept_id)

    return Instance(
        instance_id=f"{m1.mention_id}__{m2.mention_id}",
        sentence_id=sentence.sentence_id,
        pair=(m1.mention_id, m2.mention_id),
        sdp_tokens=masked,
        sdp_classes=classes,
        left_chain=left_chain,
        right_chain=right_chain,
        common_chain=common,
        label=label,
    )


def _candidate_pairs(
    sentence: SentenceRecord, pair_types: tuple[str, str]
) -> list[tuple[EntityMention, EntityMention]]:
    """Every pair of the sentence's mentions whose types match `pair_types`,
    each in sentence order: by (char_start, char_end, mention_id)."""
    wanted = sorted(pair_types)
    ordered = sorted(
        sentence.entities, key=lambda m: (m.char_start, m.char_end, m.mention_id)
    )
    return [
        (m1, m2)
        for i, m1 in enumerate(ordered)
        for m2 in ordered[i + 1:]
        if sorted((m1.entity_type, m2.entity_type)) == wanted
    ]


def generate_instances(
    sentences: list[SentenceRecord],
    labeled: bool,
    pair_types: tuple[str, str],
    resolver: EntityResolver,
    lexicon: SupersenseLexicon,
    parses: dict[str, list[ParsedToken]],
    diagnostics: Counter[str] | None = None,
) -> list[Instance]:
    """Enumerate candidate pairs sentence by sentence and build instances.

    A pair is positive when its pair_key is among its sentence's positives
    and negative otherwise (closed world); when the corpus is not `labeled`
    every instance is unlabeled (prediction mode).  Pairs sharing a kb id are
    skipped.  Emission order is sorted by (sentence_id, mention ids).  An
    instance id that would be emitted twice (a sentence or document listed
    twice) raises DataError.
    """
    if diagnostics is None:
        diagnostics = Counter()
    instances: list[Instance] = []
    emitted: set[str] = set()
    for sentence in sentences:
        tokens = parses.get(sentence.sentence_id)
        for m1, m2 in _candidate_pairs(sentence, pair_types):
            if m1.kb_id == m2.kb_id:
                diagnostics["self_pair"] += 1
                continue
            if tokens is None:
                diagnostics["missing_parse"] += 1
                continue
            if not labeled:
                label = "unlabeled"
            elif pair_key(m1.kb_id, m2.kb_id) in sentence.positives:
                label = "positive"
            else:
                label = "negative"
            try:
                instance = build_instance(
                    sentence, (m1, m2), resolver, lexicon, tokens, label, diagnostics
                )
            except tuple(_SKIP_REASONS) as exc:
                diagnostics[_SKIP_REASONS[type(exc)]] += 1
                continue
            if instance.instance_id in emitted:
                raise DataError(f"instance id {instance.instance_id} would be emitted twice")
            emitted.add(instance.instance_id)
            instances.append(instance)
    instances.sort(key=lambda i: (i.sentence_id, i.pair))
    return instances


# --- JSON-lines dump --------------------------------------------------------


def dump_instances(instances: Iterable[Instance], out: TextIO) -> None:
    for instance in instances:
        out.write(json.dumps(vars(instance), ensure_ascii=False) + "\n")


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# Instance field -> check on its JSON value.
_FIELD_CHECKS = {
    "instance_id": lambda v: isinstance(v, str),
    "sentence_id": lambda v: isinstance(v, str),
    "pair": lambda v: _is_str_list(v) and len(v) == 2,
    "sdp_tokens": _is_str_list,
    "sdp_classes": _is_str_list,
    "left_chain": _is_str_list,
    "right_chain": _is_str_list,
    "common_chain": lambda v: v is None or _is_str_list(v),
    "label": lambda v: v in ("positive", "negative", "unlabeled"),
}


def load_instances(stream: Iterable[str] | TextIO) -> list[Instance]:
    """Read a JSON-lines instances file; a malformed line raises MalformedLine
    naming its line number."""
    instances: list[Instance] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLine(f"instances line {lineno}: {exc}") from exc
        if not isinstance(payload, dict):
            raise MalformedLine(f"instances line {lineno}: not a JSON object")
        if payload.keys() != _FIELD_CHECKS.keys():
            missing = sorted(_FIELD_CHECKS.keys() - payload.keys())
            unknown = sorted(payload.keys() - _FIELD_CHECKS.keys())
            raise MalformedLine(
                f"instances line {lineno}: missing fields {missing}, unknown fields {unknown}"
            )
        for name, check in _FIELD_CHECKS.items():
            if not check(payload[name]):
                raise MalformedLine(f"instances line {lineno}: bad value for {name!r}")
        payload["pair"] = tuple(payload["pair"])
        instances.append(Instance(**payload))
    return instances
