"""Seeded generator of benchmark inputs for the three workloads.

    python3 bench/synth.py --workload ddi-ontology --seed 1 --out DIR [--size toy]

Writes every input file the pipeline reads (OBO ontologies, corpus, CoNLL-U
parses with MISC offsets, cross-reference tables, GAF, lexicon, vectors), a
run config, a one-pair "setup" config over the same resources, and
`gold.json`: the numbers and answers the generator planted, computed here
from its own data structures and never from the program.

Sizes depend only on the workload and `--size`, never on the seed: the seed
changes names, ids, graph shape and which mentions carry which role, so every
seed gives the same amount of work.

Every sentence is a dependency tree built around two hubs.  A trigger token T
heads the "interacting" mentions; a neutral connector N, attached to the
root verb R, heads the others.  A pair is positive exactly when both mentions
hang under T, so its dependency path contains T and not R; that is the label
signal the channels can learn.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

WORKLOADS = ("ddi-ontology", "cdr-train", "pgr-vocab")

# Sizes per workload.  "full" is what the benchmark measures; "toy" keeps the
# same shapes at a size the smoke test runs in seconds.
SIZES = {
    "ddi-ontology": {
        "full": {"chebi": 150_000, "sentences": 10, "xref": 20_000, "lexicon": 30_000,
                 "vectors": 500},
        "toy": {"chebi": 2_000, "sentences": 6, "xref": 500, "lexicon": 200,
                "vectors": 50},
    },
    "cdr-train": {
        "full": {"chebi": 150_000, "doid": 12_000, "docs": 60, "xref": 20_000,
                 "lexicon": 30_000, "vectors": 1_000},
        "toy": {"chebi": 2_000, "doid": 500, "docs": 8, "xref": 500, "lexicon": 200,
                "vectors": 50},
    },
    "pgr-vocab": {
        "full": {"go": 45_000, "hp": 16_000, "sentences": 66, "genes": 20_000,
                 "gaf_per_gene": 15, "vectors": 50_000, "lexicon": 30_000},
        "toy": {"go": 1_500, "hp": 800, "sentences": 36, "genes": 300,
                "gaf_per_gene": 6, "vectors": 500, "lexicon": 200},
    },
}

# Model and training settings per workload (the "model" and "train" config
# sections).  cdr-train is paper-sized; pgr-vocab's recurrence is small on
# purpose; ddi-ontology's is 64 wide because its train time then follows the
# host's memory speed least (bench/README.md, "Why these sizes").
MODEL = {
    "ddi-ontology": (
        {"embed_dim_words": 32, "embed_dim_classes": 8, "embed_dim_onto": 8,
         "hidden_dim": 64, "dense_dim": 64},
        {"learning_rate": 1.0, "epochs": 20, "batch_size": 8, "dropout_keep": 1.0,
         "max_sdp_len": 8, "max_chain_len": 10, "class_weight_positive": 1.0},
    ),
    "cdr-train": (
        {"embed_dim_words": 50, "embed_dim_classes": 25, "embed_dim_onto": 50,
         "hidden_dim": 64, "dense_dim": 64},
        {"learning_rate": 0.3, "epochs": 3, "batch_size": 16, "dropout_keep": 0.9,
         "max_sdp_len": 8, "max_chain_len": 6, "class_weight_positive": 2.0},
    ),
    "pgr-vocab": (
        {"embed_dim_words": 32, "embed_dim_classes": 8, "embed_dim_onto": 8,
         "hidden_dim": 8, "dense_dim": 16},
        {"learning_rate": 1.0, "epochs": 5, "batch_size": 8, "dropout_keep": 1.0,
         "max_sdp_len": 8, "max_chain_len": 6, "class_weight_positive": 1.0},
    ),
}

MAX_DEPTH = {"chebi": 25, "doid": 14, "go": 18, "hp": 16}
ID_FORMAT = {"chebi": "CHEBI:{}", "doid": "DOID:{}", "go": "GO:{:07d}", "hp": "HP:{:07d}"}

TRIGGERS = [("increases", "increase"), ("inhibits", "inhibit"),
            ("potentiates", "potentiate"), ("induced", "induce"),
            ("caused", "cause"), ("reduces", "reduce")]
ROOTS = [("administered", "administer"), ("reported", "report"),
         ("observed", "observe"), ("studied", "study")]
CONNECTORS = [("with", "with"), ("alongside", "alongside"), ("plus", "plus")]
INTERMEDIATES = [("dose", "dose"), ("levels", "level"), ("therapy", "therapy"),
                 ("exposure", "exposure"), ("mutations", "mutation")]
CLASSES = ["verb.change", "verb.social", "verb.perception", "noun.state",
           "noun.artifact", "noun.act", "noun.substance", "adj.all"]
CORE_CLASSES = {"increase": "verb.change", "inhibit": "verb.change",
                "potentiate": "verb.change", "induce": "verb.change",
                "cause": "verb.change", "reduce": "verb.change",
                "administer": "verb.social", "report": "verb.social",
                "observe": "verb.perception", "study": "verb.perception",
                "dose": "noun.substance", "level": "noun.state",
                "therapy": "noun.act", "exposure": "noun.state",
                "mutation": "noun.state"}

PGR_COLUMNS = ["sent_id", "sentence", "gene_id", "gene_text", "gene_off1",
               "gene_off2", "hpo_id", "hpo_text", "hpo_off1", "hpo_off2", "relation"]


# --- names ---------------------------------------------------------------------

_SYLLABLES = ["ba", "ce", "di", "fo", "gu", "ka", "le", "mi", "no", "pu", "ra",
              "se", "ti", "vo", "xa", "ze", "lo", "tra", "pre", "sul", "phen",
              "cor", "dex", "mab", "zol", "vir", "tin", "mycin", "pril", "olol"]


class Names:
    """Unique lowercase pseudo-words drawn from a seeded generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def new(self, min_syl: int = 2, max_syl: int = 4) -> str:
        while True:
            n = self.rng.randint(min_syl, max_syl)
            word = "".join(self.rng.choice(_SYLLABLES) for _ in range(n))
            if word not in self.used:
                self.used.add(word)
                return word


# --- ontologies ------------------------------------------------------------------


class Dag:
    """An is_a DAG built level by level, so a term's depth is its level.

    Every non-root term has one parent on the level above and, sometimes, a
    second parent on any higher level.  Obsolete terms stand apart (no
    parents, no children); alt_ids point at live terms.
    """

    def __init__(self, rng: random.Random, namespace: str, n_terms: int):
        self.namespace = namespace
        max_depth = MAX_DEPTH[namespace]
        n_roots = 1 if namespace != "chebi" else 3
        n_obsolete = max(1, n_terms // 50)
        n_alt = max(1, n_terms // 20)
        n_live = n_terms - n_obsolete
        # fixed level profile: a bump around 40% of the maximum depth
        weights = [0.0] + [
            2.718281828 ** (-((k - 0.4 * max_depth) / (0.3 * max_depth)) ** 2)
            for k in range(1, max_depth + 1)
        ]
        budget = n_live - n_roots
        total = sum(weights)
        sizes = [n_roots] + [max(1, int(budget * w / total)) for w in weights[1:]]
        peak = max(range(1, max_depth + 1), key=lambda k: weights[k])
        sizes[peak] += n_live - sum(sizes)
        fmt = ID_FORMAT[namespace]
        numbers = rng.sample(range(1, 9_000_000), n_terms + n_alt)
        ids = [fmt.format(n) for n in numbers]
        self.levels: list[list[str]] = []
        self.level: dict[str, int] = {}
        self.parents: dict[str, list[str]] = {}
        cursor = 0
        for k, size in enumerate(sizes):
            members = ids[cursor:cursor + size]
            cursor += size
            self.levels.append(members)
            for cid in members:
                self.level[cid] = k
                if k == 0:
                    self.parents[cid] = []
                    continue
                ps = [rng.choice(self.levels[k - 1])]
                if rng.random() < 0.3:
                    extra = rng.choice(self.levels[rng.randrange(k)])
                    if extra != ps[0]:
                        ps.append(extra)
                self.parents[cid] = ps
        self.obsolete = ids[cursor:cursor + n_obsolete]
        cursor += n_obsolete
        alt_names = ids[cursor:cursor + n_alt]
        live_nonroot = [c for lvl in self.levels[1:] for c in lvl]
        self.alt_of: dict[str, str] = {}  # alt id -> primary
        for alt, primary in zip(alt_names, rng.sample(live_nonroot, n_alt)):
            self.alt_of[alt] = primary
        self.alts_by_primary: dict[str, list[str]] = {}
        for alt, primary in self.alt_of.items():
            self.alts_by_primary.setdefault(primary, []).append(alt)
        self.names = {cid: f"{namespace} term {i}" for i, cid in enumerate(ids[:cursor])}
        self._ancestors: dict[str, frozenset[str]] = {}

    @property
    def live(self) -> list[str]:
        return [c for lvl in self.levels for c in lvl]

    def write_obo(self, path: Path, rng: random.Random) -> None:
        out = [f"format-version: 1.2\nontology: {self.namespace}\n"]
        stanzas = [(cid, False) for cid in self.level] + [(c, True) for c in self.obsolete]
        stanzas.sort()
        for cid, obsolete in stanzas:
            lines = ["", "[Term]", f"id: {cid}", f"name: {self.names[cid]}"]
            for alt in self.alts_by_primary.get(cid, ()):
                lines.append(f"alt_id: {alt}")
            if rng.random() < 0.5:
                lines.append(f'synonym: "{self.names[cid]} variant" EXACT []')
            parents = list(self.parents.get(cid, ()))
            rng.shuffle(parents)
            for p in parents:
                lines.append(f"is_a: {p} ! {self.names[p]}")
            if obsolete:
                lines.append("is_obsolete: true")
            out.append("\n".join(lines) + "\n")
        out.append("\n[Typedef]\nid: part_of\nname: part of\n")
        path.write_text("".join(out), encoding="utf-8")

    # Reference answers, computed from the construction (depth == level).

    def ancestors(self, cid: str) -> frozenset[str]:
        """Inclusive ancestor set."""
        cached = self._ancestors.get(cid)
        if cached is None:
            acc = {cid}
            for p in self.parents[cid]:
                acc |= self.ancestors(p)
            cached = self._ancestors[cid] = frozenset(acc)
        return cached

    def chain(self, cid: str) -> list[str]:
        out = [cid]
        while self.level[cid] > 0:
            top = max(self.level[p] for p in self.parents[cid])
            cid = sorted(p for p in self.parents[cid] if self.level[p] == top)[0]
            out.append(cid)
        return out

    def common(self, a: str, b: str) -> list[str]:
        shared = self.ancestors(a) & self.ancestors(b)
        return sorted(shared, key=lambda c: (-self.level[c], c))

    def stats(self) -> dict:
        n = len(self.level) + len(self.obsolete)
        return {
            "terms": n,
            "max_depth": len(self.levels) - 1,
            "alt_id_share": round(len(self.alt_of) / n, 4),
            "obsolete_share": round(len(self.obsolete) / n, 4),
            "two_parent_share": round(
                sum(1 for ps in self.parents.values() if len(ps) > 1) / len(self.level), 4
            ),
        }


def pick_concepts(rng: random.Random, dag: Dag, n: int) -> list[str]:
    """n distinct live terms from the deeper half of the DAG."""
    deep = [c for lvl in dag.levels[len(dag.levels) // 3:] for c in lvl]
    return rng.sample(deep, n)


# --- sentences -----------------------------------------------------------------


class Mention:
    def __init__(self, surface, entity_type, kb_id, concept, group):
        self.surface = surface
        self.entity_type = entity_type
        self.kb_id = kb_id
        self.concept = concept  # primary ontology id, None when unmappable
        self.group = group  # "A" (under the trigger) or "B"
        self.token = 0  # index of the token the mention sits in
        self.start = self.end = -1  # sentence-local, end exclusive
        self.mention_id = ""


class Sentence:
    """Tokens (form, lemma, head, deprel) plus mentions with char offsets."""

    def __init__(self):
        self.tokens: list[list] = []
        self.mentions: list[Mention] = []
        self.text = ""

    def add(self, form, lemma, head, deprel) -> int:
        self.tokens.append([form, lemma, head, deprel])
        return len(self.tokens)  # 1-based index

    def path(self, a: int, b: int) -> list[int]:
        """Tree path between tokens a and b, endpoints included."""
        def up(i):
            chain = [i]
            while self.tokens[i - 1][2] != 0:
                i = self.tokens[i - 1][2]
                chain.append(i)
            return chain
        ua, ub = up(a), up(b)
        common = next(i for i in ua if i in set(ub))
        return ua[:ua.index(common) + 1] + list(reversed(ub[:ub.index(common)]))


def build_sentence(rng: random.Random, units_a, units_b, fillers):
    """Lay out one sentence.

    `units_a` / `units_b` are lists of mention groups; a unit is a list of
    Mentions sharing one token (two or more only for the shared-head plant).
    """
    s = Sentence()
    # Text order: the A units around T (the last one after it), R, N, the B
    # units.  Token indices follow text order; heads are patched afterwards.
    order = ([("unit", u) for u in units_a[:-1]] + [("T", None)]
             + [("unit", u) for u in units_a[-1:]] + [("R", None), ("N", None)]
             + [("unit", u) for u in units_b])
    hubs = {}
    pending = []  # (token index, hub name) heads to patch
    trig, root, conn = rng.choice(TRIGGERS), rng.choice(ROOTS), rng.choice(CONNECTORS)
    for kind, unit in order:
        if kind == "T":
            hubs["T"] = s.add(trig[0], trig[1], 0, "ccomp")
            pending.append((hubs["T"], "R"))
        elif kind == "R":
            hubs["R"] = s.add(root[0], root[1], 0, "root")
        elif kind == "N":
            hubs["N"] = s.add(conn[0], conn[1], 0, "obl")
            pending.append((hubs["N"], "R"))
        else:
            hub = "T" if unit[0].group == "A" else "N"
            form = "/".join(m.surface for m in unit)
            tok = s.add(form, form.lower(), 0, "nmod")
            for m in unit:
                m.token = tok
                s.mentions.append(m)
            if rng.random() < 0.5:
                inter = rng.choice(INTERMEDIATES)
                mid = s.add(inter[0], inter[1], 0, "nmod")
                s.tokens[tok - 1][2] = mid
                pending.append((mid, hub))
            else:
                pending.append((tok, hub))
            if rng.random() < 0.4:
                word = rng.choice(fillers)
                pending.append((s.add(word, word, 0, "amod"), "R"))
    for tok, hub in pending:
        s.tokens[tok - 1][2] = hubs[hub]
    for _ in range(rng.randint(2, 5)):
        word = rng.choice(fillers)
        s.add(word, word, hubs["R"], "advmod")
    s.add(".", ".", hubs["R"], "punct")
    # a capitalised first word; when it is a mention, DDI name lookups go
    # through the case-insensitive xref path
    s.tokens[0][0] = s.tokens[0][0][:1].upper() + s.tokens[0][0][1:]
    # text and offsets
    offsets = []
    pos = 0
    for tok in s.tokens:
        offsets.append((pos, pos + len(tok[0])))
        pos += len(tok[0]) + 1
    s.text = " ".join(tok[0] for tok in s.tokens)
    s.offsets = offsets
    for unit_mentions in _units(s.mentions):
        tok = unit_mentions[0].token
        start = offsets[tok - 1][0]
        form = s.tokens[tok - 1][0]
        cursor = 0
        for m in unit_mentions:
            local = form.lower().find(m.surface.lower(), cursor)
            m.start = start + local
            m.end = m.start + len(m.surface)
            m.surface = s.text[m.start:m.end]
            cursor = local + len(m.surface)
    return s


def _units(mentions):
    by_token: dict[int, list[Mention]] = {}
    for m in mentions:
        by_token.setdefault(m.token, []).append(m)
    return list(by_token.values())


def conllu_block(sent_id: str, s: Sentence) -> str:
    lines = [f"# sent_id = {sent_id}", f"# text = {s.text}"]
    for i, (form, lemma, head, deprel) in enumerate(s.tokens, start=1):
        start, end = s.offsets[i - 1]
        upos = "PUNCT" if form == "." else "NOUN"
        lines.append(f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t"
                     f"start={start}|end={end}")
    return "\n".join(lines) + "\n\n"


def gold_path(s: Sentence, m1: Mention, m2: Mention, lexicon: dict[str, str]):
    """Masked path forms and classes of a pair, from the generator's tree."""
    path = s.path(m1.token, m2.token)
    others = [m for m in s.mentions if m is not m1 and m is not m2]
    forms, classes = [], []
    for i in path:
        start, end = s.offsets[i - 1]
        if i == m1.token:
            form = "candidate1"
        elif i == m2.token:
            form = "candidate2"
        elif any(m.start < end and m.end > start for m in others):
            form = "entity"
        else:
            form = s.tokens[i - 1][0].lower()
        forms.append(form)
        if form in ("candidate1", "candidate2", "entity"):
            classes.append("O")
        else:
            classes.append(lexicon.get(s.tokens[i - 1][1].lower(), "O"))
    return forms, classes


# --- shared writers --------------------------------------------------------------


def write_vectors(path: Path, rng: random.Random, names: Names, n: int, dim: int) -> int:
    """Text vectors for every path word plus words the corpus never uses.

    Components are wide (sd 3), as in raw pretrained vectors; with the
    program's narrow random initialisation elsewhere, this is what lets a
    few epochs pick up the trigger signal.
    """
    words = [f for f, _ in TRIGGERS + ROOTS + CONNECTORS + INTERMEDIATES]
    while len(words) < n:
        words.append(names.new(2, 4))
    lines = [f"{len(words)} {dim}"]
    for w in words:
        lines.append(w + " " + " ".join(f"{rng.gauss(0.0, 3.0):.4f}" for _ in range(dim)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(words)


def write_lexicon(path: Path, rng: random.Random, names: Names, n: int) -> dict[str, str]:
    entries = dict(CORE_CLASSES)
    while len(entries) < n:
        entries[names.new(3, 4)] = rng.choice(CLASSES)
    lines = ["#classes: " + ",".join(CLASSES)]
    lines += [f"{lemma}\t{cls}" for lemma, cls in entries.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return entries


def fillers_for(lexicon: dict[str, str], names: Names) -> list[str]:
    pool = [w for w in lexicon if w not in CORE_CLASSES][:300]
    return pool + [names.new(3, 4) for _ in range(100)]


def pair_gold(s: Sentence, m1: Mention, m2: Mention, lexicon, graphs, gold, sample):
    """Record a candidate pair's expected outcome in `gold`; returns the skip
    reason, or None when the pair becomes an instance."""
    a, b = sorted((m1, m2), key=lambda m: (m.start, m.end, m.mention_id))
    gold["pairs_examined"] += 1
    if a.kb_id == b.kb_id:
        reason = "self_pair"
    elif a.concept is None or b.concept is None:
        reason = "unmappable_entity"
    elif a.token == b.token:
        reason = "disconnected"
    else:
        reason = None
    if reason:
        gold["skips"][reason] += 1
        return reason
    iid = f"{a.mention_id}__{b.mention_id}"
    label = "positive" if a.group == b.group == "A" else "negative"
    gold["labels"][iid] = label
    if sample:
        forms, classes = gold_path(s, a, b, lexicon)
        ga, gb = graphs[a.entity_type], graphs[b.entity_type]
        entry = {
            "sdp_tokens": forms,
            "sdp_classes": classes,
            "left_chain": ga.chain(a.concept),
            "right_chain": gb.chain(b.concept),
            "common_chain": ga.common(a.concept, b.concept)
            if a.entity_type == b.entity_type else None,
        }
        gold["sample"][iid] = entry
    return None


def new_gold() -> dict:
    return {"pairs_examined": 0,
            "skips": {"self_pair": 0, "unmappable_entity": 0, "disconnected": 0},
            "labels": {}, "sample": {}, "stats": {}}


def sentence_stats(sentences: list[Sentence], gold: dict) -> None:
    mentions = [len(s.mentions) for s in sentences]
    gold["stats"].update({
        "sentences": len(sentences),
        "mentions_per_sentence": round(sum(mentions) / len(mentions), 3),
        "tokens_per_sentence": round(
            sum(len(s.tokens) for s in sentences) / len(sentences), 3),
        "pairs_examined": gold["pairs_examined"],
        "pairs_emitted": len(gold["labels"]),
        "positive_share": round(
            sum(1 for v in gold["labels"].values() if v == "positive")
            / max(1, len(gold["labels"])), 4),
    })


def write_config(path: Path, workload: str, corpus: str, files: dict, seed: int) -> None:
    model, train = MODEL[workload]
    config = dict(files)
    config.update({
        "corpus": corpus,
        "split_fraction": 0.8,
        "seed": seed,
        "channels": {"words": True, "classes": True, "onto_concat": True,
                     "onto_common": corpus == "ddi"},
        "model": model,
        "train": dict(train, seed=seed),
    })
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


# --- ddi-ontology ------------------------------------------------------------------


def gen_ddi(rng: random.Random, out: Path, size: dict, seed: int) -> dict:
    names = Names(rng)
    dag = Dag(rng, "chebi", size["chebi"])
    dag.write_obo(out / "chebi.obo", rng)
    lexicon = write_lexicon(out / "lexicon.tsv", rng, names, size["lexicon"])
    fillers = fillers_for(lexicon, names)

    # name -> ChEBI xref table; some names map through an alt_id, most are
    # never mentioned, a few map to obsolete terms (unmappable).
    xref: dict[str, str] = {}
    concepts = pick_concepts(rng, dag, size["xref"])
    drug_names = []
    for concept in concepts:
        name = names.new()
        alts = dag.alts_by_primary.get(concept)
        xref[name] = alts[0] if alts and rng.random() < 0.5 else concept
        drug_names.append((name, concept))
    unmappable = []
    for obsolete in dag.obsolete[:size["sentences"]]:
        name = names.new()
        xref[name] = obsolete
        unmappable.append(name)
    lines = [f"{k}\t{v}" for k, v in xref.items()]
    (out / "name_to_chebi.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    gold = new_gold()
    graphs = {"drug": dag}
    docs = []
    conllu = []
    sentences = []
    used = iter(rng.sample(range(len(drug_names)), len(drug_names)))
    n_sent = size["sentences"]
    sample_ids = set(rng.sample(range(n_sent), max(2, n_sent // 3)))
    for k in range(n_sent):
        sent_id = f"DDI-BENCH.d{k // 6}.s{k % 6}"

        def drug(group):
            name, concept = drug_names[next(used)]
            return Mention(name, "drug", name, concept, group)

        # 2 drugs under the trigger, 2 under the connector; the plants below
        # add a fifth mention to some sentences.
        units_a = [[drug("A")], [drug("A")]]
        units_b = [[drug("B")], [drug("B")]]
        plant = k if k < 4 else 0
        if plant == 1:  # the same drug named twice: one self pair
            repeat = units_b[0][0]
            units_b.append([Mention(repeat.surface, "drug", repeat.kb_id,
                                    repeat.concept, "B")])
        elif plant == 2:  # a name whose xref target is obsolete
            name = unmappable[k]
            units_b.append([Mention(name, "drug", name, None, "B")])
        elif plant == 3:  # "x/y": two drugs in one token share a head
            units_b.append([drug("B"), drug("B")])
        s = build_sentence(rng, units_a, units_b, fillers)
        ordered = sorted(s.mentions, key=lambda m: (m.start, m.end))
        for j, m in enumerate(ordered):
            m.mention_id = f"{sent_id}.e{j}"
            m.kb_id = m.surface  # DDI entities carry no ids: the name is the key
        sentences.append(s)
        pairs = []
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                a, b = ordered[i], ordered[j]
                pair_gold(s, a, b, lexicon, graphs, gold, k in sample_ids)
                positive = a.group == b.group == "A" and a.kb_id != b.kb_id
                pairs.append((a, b, positive))
        docs.append((sent_id, s, pairs))
        conllu.append(conllu_block(sent_id, s))

    xml = ['<?xml version="1.0" encoding="UTF-8"?>', "<corpus>"]
    by_doc: dict[str, list] = {}
    for sent_id, s, pairs in docs:
        by_doc.setdefault(sent_id.rsplit(".", 1)[0], []).append((sent_id, s, pairs))
    for doc_id, items in by_doc.items():
        xml.append(f'  <document id="{doc_id}">')
        for sent_id, s, pairs in items:
            xml.append(f'    <sentence id="{sent_id}" text="{s.text}">')
            for m in sorted(s.mentions, key=lambda m: m.mention_id):
                etype = rng.choice(["drug", "drug", "brand", "group"])
                xml.append(f'      <entity id="{m.mention_id}" charOffset="{m.start}-'
                           f'{m.end - 1}" type="{etype}" text="{m.surface}"/>')
            for p, (a, b, positive) in enumerate(pairs):
                xml.append(f'      <pair id="{sent_id}.p{p}" e1="{a.mention_id}" '
                           f'e2="{b.mention_id}" ddi="{"true" if positive else "false"}"/>')
            xml.append("    </sentence>")
        xml.append("  </document>")
    xml.append("</corpus>")
    (out / "corpus.xml").write_text("\n".join(xml) + "\n", encoding="utf-8")
    (out / "parses.conllu").write_text("".join(conllu), encoding="utf-8")
    n_words = write_vectors(out / "vectors.txt", rng, names, size["vectors"],
                            MODEL["ddi-ontology"][0]["embed_dim_words"])
    files = {"corpus_path": "corpus.xml", "ontologies": {"chebi": "chebi.obo"},
             "xref": {"chebi": "name_to_chebi.tsv"}, "lexicon": "lexicon.tsv",
             "parses": "parses.conllu", "vectors": "vectors.txt"}
    write_config(out / "config.json", "ddi-ontology", "ddi", files, seed)

    # setup corpus: the first sentence's first two drugs, alone
    first = docs[0][1]
    a, b = sorted(first.mentions, key=lambda m: m.start)[:2]
    setup_xml = (
        '<?xml version="1.0" encoding="UTF-8"?>\n<document id="SETUP">\n'
        f'  <sentence id="SETUP.s0" text="{first.text}">\n'
        f'    <entity id="SETUP.s0.e0" charOffset="{a.start}-{a.end - 1}" type="drug" '
        f'text="{a.surface}"/>\n'
        f'    <entity id="SETUP.s0.e1" charOffset="{b.start}-{b.end - 1}" type="drug" '
        f'text="{b.surface}"/>\n'
        '    <pair id="SETUP.s0.p0" e1="SETUP.s0.e0" e2="SETUP.s0.e1" ddi="true"/>\n'
        "  </sentence>\n</document>\n"
    )
    write_setup(out, "ddi-ontology", "ddi", files, seed, "setup_corpus.xml", setup_xml,
                conllu_block("SETUP.s0", first))
    gold["stats"].update({"chebi": dag.stats(), "xref_entries": len(xref),
                          "lexicon_entries": len(lexicon), "vector_words": n_words})
    sentence_stats(sentences, gold)
    return gold


def write_setup(out, workload, corpus, files, seed, corpus_name, corpus_text, parses):
    (out / corpus_name).write_text(corpus_text, encoding="utf-8")
    (out / "setup_parses.conllu").write_text(parses, encoding="utf-8")
    setup_files = dict(files, corpus_path=corpus_name, parses="setup_parses.conllu")
    write_config(out / "setup_config.json", workload, corpus, setup_files, seed)


# --- cdr-train ---------------------------------------------------------------------


def gen_cdr(rng: random.Random, out: Path, size: dict, seed: int) -> dict:
    names = Names(rng)
    chebi = Dag(rng, "chebi", size["chebi"])
    chebi.write_obo(out / "chebi.obo", rng)
    doid = Dag(rng, "doid", size["doid"])
    doid.write_obo(out / "doid.obo", rng)
    lexicon = write_lexicon(out / "lexicon.tsv", rng, names, size["lexicon"])
    fillers = fillers_for(lexicon, names)

    mesh_numbers = iter(rng.sample(range(1, 999_999), 2 * size["xref"] + 4 * size["docs"]))

    def mesh() -> str:
        return f"D{next(mesh_numbers):06d}"

    def table(dag, n):
        rows, entities = {}, []
        for concept in pick_concepts(rng, dag, n):
            kb = mesh()
            alts = dag.alts_by_primary.get(concept)
            rows[kb] = alts[0] if alts and rng.random() < 0.5 else concept
            entities.append((kb, names.new(), concept))
        return rows, entities

    n_dis = min(size["xref"] // 2, len(doid.level) // 2)
    chem_xref, chemicals = table(chebi, size["xref"])
    dis_xref, diseases = table(doid, n_dis)
    for path, rows in (("mesh_to_chebi.tsv", chem_xref), ("mesh_to_doid.tsv", dis_xref)):
        (out / path).write_text("".join(f"{k}\t{v}\n" for k, v in rows.items()),
                                encoding="utf-8")

    gold = new_gold()
    graphs = {"chemical": chebi, "disease": doid}
    chem_order = iter(rng.sample(range(len(chemicals)), len(chemicals)))
    docs_text, conllu, sentences = [], [], []
    n_docs = size["docs"]
    sample_docs = set(rng.sample(range(n_docs), max(2, n_docs // 8)))
    for d in range(n_docs):
        doc_id = str(1000000 + d)
        dis_order = iter(rng.sample(range(len(diseases)), len(diseases)))

        def entity(kind, group):
            if kind == "chemical":
                kb, name, concept = chemicals[next(chem_order) % len(chemicals)]
            else:
                kb, name, concept = diseases[next(dis_order)]
            return Mention(name, kind, kb, concept, group)

        title = build_sentence(rng, [], [], fillers)
        title.mentions = []
        sent_list = [title]
        for k in range(4):
            units_a = [[entity("chemical", "A")], [entity("disease", "A")]]
            units_b = [[entity("chemical", "B")], [entity("disease", "B")]]
            plant = (4 * d + k) % 8
            if plant == 1:  # a chemical and a disease annotated with one MeSH id
                c = units_b[0][0]
                units_b.append([Mention(names.new(), "disease", c.kb_id,
                                        None, "B")])
            elif plant == 3:  # a disease id with no DOID cross-reference
                units_b.append([Mention(names.new(), "disease", mesh(), None, "B")])
            elif plant == 5:  # "chem/disease" in one token share a head
                units_b.append([entity("chemical", "B"), entity("disease", "B")])
            sent_list.append(build_sentence(rng, units_a, units_b, fillers))
        title_text = title.text
        abstract = " ".join(s.text for s in sent_list[1:])
        text = title_text + " " + abstract
        rows = [f"{doc_id}|t|{title_text}", f"{doc_id}|a|{abstract}"]
        base = 0
        cids = []
        for k, s in enumerate(sent_list):
            sent_id = f"{doc_id}.s{k}"
            ordered = sorted(s.mentions, key=lambda m: (m.start, m.end))
            for j, m in enumerate(ordered):
                m.mention_id = f"{sent_id}.e{j}"
                rows.append(f"{doc_id}\t{base + m.start}\t{base + m.end}\t{m.surface}\t"
                            f"{m.entity_type.capitalize()}\t{m.kb_id}")
            chems = [m for m in ordered if m.entity_type == "chemical"]
            dises = [m for m in ordered if m.entity_type == "disease"]
            for c in chems:
                for dz in dises:
                    pair_gold(s, c, dz, lexicon, graphs, gold, d in sample_docs)
                    if c.group == dz.group == "A":
                        cids.append((c.kb_id, dz.kb_id))
            conllu.append(conllu_block(sent_id, s))
            sentences.append(s)
            base += len(s.text) + 1
        assert text == " ".join(s.text for s in sent_list)
        rows += [f"{doc_id}\tCID\t{c}\t{dz}" for c, dz in cids]
        docs_text.append("\n".join(rows) + "\n")
    (out / "corpus.pubtator").write_text("\n".join(docs_text), encoding="utf-8")
    (out / "parses.conllu").write_text("".join(conllu), encoding="utf-8")
    n_words = write_vectors(out / "vectors.txt", rng, names, size["vectors"],
                            MODEL["cdr-train"][0]["embed_dim_words"])
    files = {"corpus_path": "corpus.pubtator",
             "ontologies": {"chebi": "chebi.obo", "doid": "doid.obo"},
             "xref": {"chebi": "mesh_to_chebi.tsv", "doid": "mesh_to_doid.tsv"},
             "lexicon": "lexicon.tsv", "parses": "parses.conllu", "vectors": "vectors.txt"}
    write_config(out / "config.json", "cdr-train", "cdr", files, seed)

    # setup corpus: one sentence with one chemical and one disease
    s = sentences[1]
    c = next(m for m in s.mentions if m.entity_type == "chemical" and m.concept)
    dz = next(m for m in s.mentions if m.entity_type == "disease" and m.concept)
    setup = (f"SETUP|t|{s.text}\n"
             f"SETUP\t{c.start}\t{c.end}\t{c.surface}\tChemical\t{c.kb_id}\n"
             f"SETUP\t{dz.start}\t{dz.end}\t{dz.surface}\tDisease\t{dz.kb_id}\n"
             f"SETUP\tCID\t{c.kb_id}\t{dz.kb_id}\n")
    write_setup(out, "cdr-train", "cdr", files, seed, "setup_corpus.pubtator", setup,
                conllu_block("SETUP.s0", s))
    gold["stats"].update({"chebi": chebi.stats(), "doid": doid.stats(),
                          "xref_entries": len(chem_xref) + len(dis_xref),
                          "lexicon_entries": len(lexicon), "documents": n_docs,
                          "vector_words": n_words})
    sentence_stats(sentences, gold)
    return gold


# --- pgr-vocab ---------------------------------------------------------------------


EXPERIMENTAL = ["EXP", "IDA", "IPI", "IMP", "IGI", "IEP", "HDA"]
NON_EXPERIMENTAL = ["IEA", "ISS", "TAS", "NAS", "IBA"]


def gen_pgr(rng: random.Random, out: Path, size: dict, seed: int) -> dict:
    names = Names(rng)
    go = Dag(rng, "go", size["go"])
    go.write_obo(out / "go.obo", rng)
    hp = Dag(rng, "hp", size["hp"])
    hp.write_obo(out / "hp.obo", rng)
    lexicon = write_lexicon(out / "lexicon.tsv", rng, names, size["lexicon"])
    fillers = fillers_for(lexicon, names)

    # GAF: every gene gets a fixed number of records over random GO terms,
    # some negated, some pointing at obsolete or alt ids, a mix of evidence.
    go_live = go.live
    gene_ids = rng.sample(range(1, 999_999), size["genes"])
    genes = []
    gaf = ["!gaf-version: 2.2"]
    representative: dict[str, str | None] = {}
    for g in gene_ids:
        symbol = names.new(2, 4).upper()[:8] + str(rng.randint(1, 99))
        usable = []
        for _ in range(size["gaf_per_gene"]):
            roll = rng.random()
            if roll < 0.03:
                concept = rng.choice(go.obsolete)
                primary = None
            else:
                primary = rng.choice(go_live)
                alts = go.alts_by_primary.get(primary)
                concept = alts[0] if alts and rng.random() < 0.5 else primary
            negated = rng.random() < 0.05
            evidence = rng.choice(EXPERIMENTAL if rng.random() < 0.3 else NON_EXPERIMENTAL)
            qualifier = "NOT|involved_in" if negated else "involved_in"
            gaf.append(f"BENCH\t{g}\t{symbol}\t{qualifier}\t{concept}\tPMID:{g}\t"
                       f"{evidence}\t\tP\t{symbol} protein\t\tprotein\ttaxon:9606\t"
                       f"20200101\tBENCH\t\t")
            if primary is not None and not negated:
                usable.append((evidence in EXPERIMENTAL, go.level[primary], primary))
        pool = [u for u in usable if u[0]] or usable
        if pool:
            best = max(d for _, d, _ in pool)
            representative[str(g)] = min(c for _, d, c in pool if d == best)
        genes.append((str(g), symbol))
    gaf_order = gaf[1:]
    rng.shuffle(gaf_order)
    (out / "annotations.gaf").write_text("\n".join(gaf[:1] + gaf_order) + "\n",
                                         encoding="utf-8")
    fallback_root = min(go.levels[0])
    # genes absent from the GAF fall back to the smallest root
    missing_genes = [(str(1_000_000 + i), f"NOGAF{i}") for i in range(size["sentences"])]

    phenotypes = pick_concepts(rng, hp, min(len(hp.level) // 2, 6 * size["sentences"]))
    gold = new_gold()
    gold["gene_fallback_root"] = 0
    graphs = {"gene": go, "phenotype": hp}
    rows, conllu, sentences = [], [], []
    gene_pick = iter(rng.sample(range(len(genes)), size["sentences"]))
    phen_pick = iter(phenotypes)
    n_sent = size["sentences"]
    sample_ids = set(rng.sample(range(n_sent), max(2, n_sent // 8)))
    unknown_hp = iter(rng.sample(range(9_000_000, 9_999_999), n_sent))
    for k in range(n_sent):
        sent_id = f"PGR-BENCH.s{k}"
        plant = k % 6
        if plant == 4:
            gid, symbol = missing_genes[k]
        else:
            gid, symbol = genes[next(gene_pick)]
        concept = representative.get(gid, fallback_root)
        gene = Mention(symbol, "gene", gid, concept, "A")

        def phen(group):
            hid = next(phen_pick)
            alts = hp.alts_by_primary.get(hid)
            kb = alts[0] if alts and rng.random() < 0.3 else hid
            return Mention(names.new(), "phenotype", kb, hid, group)

        units_a = [[gene], [phen("A")]]
        units_b = [[phen("B")], [phen("B")]]
        if plant == 1:  # an HP id the ontology does not have
            units_b.append([Mention(names.new(), "phenotype",
                                    f"HP:{next(unknown_hp):07d}", None, "B")])
        elif plant == 3:  # "gene/phenotype" in one token: shared head
            units_a[0] = [gene, phen("A")]
        s = build_sentence(rng, units_a, units_b, fillers)
        # PGR mention ids follow first appearance in the rows: gene first,
        # then phenotypes in text order.
        phens = sorted((m for m in s.mentions if m.entity_type == "phenotype"),
                       key=lambda m: (m.start, m.end))
        gene.mention_id = f"{sent_id}.e0"
        for j, m in enumerate(phens, start=1):
            m.mention_id = f"{sent_id}.e{j}"
        for p in phens:
            reason = pair_gold(s, gene, p, lexicon, graphs, gold, k in sample_ids)
            # the fallback is counted once both ends resolve, before the
            # shared-head test
            if gid not in representative and reason in (None, "disconnected"):
                gold["gene_fallback_root"] += 1
            positive = gene.group == p.group == "A"
            rows.append("\t".join([
                sent_id, s.text, gid, gene.surface, str(gene.start), str(gene.end),
                p.kb_id, p.surface, str(p.start), str(p.end),
                "TRUE" if positive else "FALSE"]))
        conllu.append(conllu_block(sent_id, s))
        sentences.append(s)
    header = "\t".join(PGR_COLUMNS)
    (out / "corpus.tsv").write_text(header + "\n" + "\n".join(rows) + "\n",
                                    encoding="utf-8")
    (out / "parses.conllu").write_text("".join(conllu), encoding="utf-8")

    dim = MODEL["pgr-vocab"][0]["embed_dim_words"]
    n_words = write_vectors(out / "vectors.txt", rng, names, size["vectors"], dim)

    column_map = {
        "sentence_id": "sent_id", "sentence_text": "sentence", "gene_id": "gene_id",
        "gene_surface": "gene_text", "gene_start": "gene_off1", "gene_end": "gene_off2",
        "phenotype_id": "hpo_id", "phenotype_surface": "hpo_text",
        "phenotype_start": "hpo_off1", "phenotype_end": "hpo_off2", "relation": "relation",
    }
    files = {"corpus_path": "corpus.tsv", "ontologies": {"go": "go.obo", "hp": "hp.obo"},
             "gaf": "annotations.gaf", "lexicon": "lexicon.tsv", "parses": "parses.conllu",
             "vectors": "vectors.txt", "column_map": column_map, "truthy_tokens": ["TRUE"]}
    write_config(out / "config.json", "pgr-vocab", "pgr", files, seed)
    first_row = rows[0].split("\t")
    first_row[0] = "SETUP.s0"
    write_setup(out, "pgr-vocab", "pgr", files, seed, "setup_corpus.tsv",
                header + "\n" + "\t".join(first_row) + "\n",
                conllu_block("SETUP.s0", sentences[0]))
    gold["stats"].update({"go": go.stats(), "hp": hp.stats(),
                          "gaf_records": len(gaf) - 1, "vector_words": n_words,
                          "vector_dim": dim, "lexicon_entries": len(lexicon)})
    sentence_stats(sentences, gold)
    return gold


GENERATORS = {"ddi-ontology": gen_ddi, "cdr-train": gen_cdr, "pgr-vocab": gen_pgr}


def generate(workload: str, seed: int, out: Path, size: str = "full") -> dict:
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    gold = GENERATORS[workload](rng, out, SIZES[workload][size], seed)
    gold["workload"] = workload
    gold["seed"] = seed
    (out / "gold.json").write_text(json.dumps(gold), encoding="utf-8")
    return gold


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out), args.size)


if __name__ == "__main__":
    main()
