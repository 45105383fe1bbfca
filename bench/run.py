"""Seeded end-to-end benchmark of the biont pipeline.

    python3 bench/run.py --workload ddi-ontology --seed 1 --seconds 40 --trace 0

The program is imported from the checkout's `src/`.  A child process
(`synth.py`) first writes the workload's inputs under `.bench_work/`;
generation is outside every timed interval and outside this process, whose
peak memory is reported.  This process then runs, in one pass in pipeline
order, the set-up (a one-pair `preprocess`: every ontology, the GAF, the
cross-reference tables and the lexicon are loaded before the first pair),
`preprocess`, `train`, `evaluate` and `predict`; then the commands in
SCHEDULE order for as long as each next slot ends within `--seconds` of the
start of that pass.  Each run of a command is one sample; a timing is the
median of its samples and a throughput is the work of all runs over their
total time.

Outside the timed intervals it checks the first pass's outputs against the
generator's gold and against properties the method must have, and runs two
invariance probes.  Each check and probe is one operation.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and the end-to-end metrics (`--trace 0`) or, with the program's
public functions wrapped by `spans.Tracer`, the per-layer metrics
(`--trace 1`).  Sizes, padding, vocabularies, samples and the BLAS set-up go
to standard error as one JSON line starting with `report:`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("ddi-ontology", "cdr-train", "pgr-vocab")
# After one pass in pipeline order, commands run in this order until the
# next slot would end past `--seconds`; every run of a command is one
# sample.  Interleaving spreads each metric's samples over the whole run:
# the host's speed drifts over seconds, so samples taken back to back share
# one drift.
SCHEDULE = ("setup", "predict", "preprocess", "predict", "train", "predict", "evaluate",
            "predict")
# Runs per slot of the schedule, where one run is short (default 1).
SLOT_REPS = {"predict": {"ddi-ontology": 2, "pgr-vocab": 2}}
THRESHOLD = 0.5
PROBE_SIZE = 48
PROBE_CHUNKS = (1, 5, 2, 9, 3, 7)

END_TO_END = {
    "setup_s": "s",
    "preprocess_pairs_per_s": "pairs/s",
    "train_instances_per_s": "instances/s",
    "predict_instances_per_s": "instances/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

# Report reasons that each stand for one skipped candidate pair.
PAIR_SKIPS = ("self_pair", "missing_parse", "unmappable_entity", "disconnected",
              "no_overlapping_token", "token_alignment_failure", "offset_mismatch")
REPORT_REASONS = PAIR_SKIPS + ("gene_fallback_root", "multiple_roots",
                               "unknown_relation_tag", "mention_outside_sentence")

# (module, attribute, metric) wrapped in traced runs; see spans.py.
TRACED = (
    ("ontology", "parse_obo", "ontology.parse_obo"),
    ("ontology", "parse_gaf", "ontology.parse_gaf"),
    ("ontology", "common_ancestors", "ontology.common_ancestors"),
    ("ontology", "ancestor_chain", "ontology.ancestor_chain"),
    ("ontology", "representative_concept", "ontology.representative_concept"),
    ("corpus", "parse_ddi_xml", "corpus.read"),
    ("corpus", "parse_pgr_tsv", "corpus.read"),
    ("corpus", "parse_pubtator", "corpus.read"),
    ("corpus", "segment_sentences", "corpus.read"),
    ("corpus", "project_document_relations", "corpus.read"),
    ("instances", "load_lexicon", "instances.load_lexicon"),
    ("instances", "load_xref_table", "instances.load_xref"),
    ("instances", "read_conllu_blocks", "instances.conllu"),
    ("instances", "load_conllu", "instances.conllu"),
    ("instances", "shortest_dependency_path", "instances.sdp"),
    ("instances", "generate_instances", "instances.generate"),
    ("instances", "dump_instances", "instances.dump"),
    ("instances", "load_instances", "instances.load"),
    ("model", "build_vocabularies", "model.build_vocabularies"),
    ("model", "load_word_vectors", "model.load_word_vectors"),
    ("model", "Encoder.encode", "model.encode"),
    ("model", "train", "model.train"),
    ("model", "gradients", "model.gradients"),
    ("model", "forward", "model.forward"),
    ("model", "save_model", "model.save_model"),
    ("model", "load_model", "model.load_model"),
    ("pipeline", "cmd_preprocess", "pipeline.preprocess"),
    ("pipeline", "cmd_train", "pipeline.train"),
    ("pipeline", "cmd_evaluate", "pipeline.evaluate"),
    ("pipeline", "cmd_predict", "pipeline.predict"),
)
# Readers whose result starts with the sentence list.
SENTENCE_SOURCES = ("parse_ddi_xml", "parse_pgr_tsv", "project_document_relations")

PER_LAYER = (
    [("ontology.parse_obo_s", "s"), ("ontology.parse_gaf_s", "s"),
     ("ontology.common_ancestors_s", "s"), ("ontology.common_ancestors_calls", "count"),
     ("ontology.ancestor_chain_s", "s"), ("ontology.ancestor_chain_calls", "count"),
     ("ontology.representative_concept_s", "s"),
     ("ontology.representative_concept_calls", "count"),
     ("corpus.read_s", "s"), ("corpus.sentences", "count"),
     ("instances.load_lexicon_s", "s"), ("instances.load_xref_s", "s"),
     ("instances.conllu_s", "s"), ("instances.sdp_s", "s"),
     ("instances.sdp_calls", "count"), ("instances.generate_self_s", "s"),
     ("instances.dump_s", "s"), ("instances.load_s", "s"),
     ("instances.pairs_examined", "count"), ("instances.emitted", "count")]
    + [(f"instances.report.{reason}", "count") for reason in REPORT_REASONS]
    + [("model.gradients_s", "s"), ("model.gradients_calls", "count"),
       ("model.train_self_s", "s"), ("model.forward_s", "s"),
       ("model.forward_calls", "count"), ("model.encode_s", "s"),
       ("model.build_vocabularies_s", "s"), ("model.load_word_vectors_s", "s"),
       ("model.save_model_s", "s"), ("model.load_model_s", "s"),
       ("model.model_file_bytes", "bytes")]
    + [(f"pipeline.{cmd}_s", "s") for cmd in ("preprocess", "train", "evaluate", "predict")]
    + [(f"pipeline.{cmd}_self_s", "s")
       for cmd in ("preprocess", "train", "evaluate", "predict")]
    + [("trace.pipeline_s", "s")]
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="input size; toy is for the harness smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "biont" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "synth.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(work / "inputs"), "--size", args.size],
            check=True,
        )
        # Write the generated inputs out now, not while commands are timed.
        os.sync()
        result, report = Bench(args, work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("report: " + json.dumps(report), file=sys.stderr)
    print(json.dumps(result))
    return 0


class Bench:
    def __init__(self, args, work: Path):
        sys.path.insert(0, str(SRC))
        import numpy as np

        from biont import config, corpus, instances, model, ontology, pipeline

        from spans import Tracer

        self.np = np
        self.config_mod, self.model, self.pipeline = config, model, pipeline
        self.modules = {"ontology": ontology, "corpus": corpus, "instances": instances,
                        "model": model, "pipeline": pipeline}
        self.Tracer = Tracer
        self.args = args
        self.work = work
        self.inputs = work / "inputs"
        self.gold = json.loads((self.inputs / "gold.json").read_text(encoding="utf-8"))
        self.rng = random.Random(args.seed)

    # --- measured phases ------------------------------------------------------

    def make_tracer(self):
        targets = []
        for module, attr, metric in TRACED:
            owner = self.modules[module]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            counter = None
            if attr in SENTENCE_SOURCES:
                counter = ("corpus.sentences", lambda result: len(result[0]))
            targets.append((owner, attr, metric, counter))
        return self.Tracer(targets)

    def run(self):
        config = self.config_mod.load_config(self.inputs / "config.json")
        setup_config = self.config_mod.load_config(self.inputs / "setup_config.json")
        out = self.work / "out"
        out.mkdir()
        paths = {name: out / name for name in
                 ("instances.jsonl", "report.tsv", "model.json", "history.tsv",
                  "metrics.tsv", "predictions.jsonl")}
        pipeline = self.pipeline
        commands = {
            "setup": lambda: pipeline.cmd_preprocess(setup_config, self.work / "setup.jsonl"),
            "preprocess": lambda: pipeline.cmd_preprocess(
                config, paths["instances.jsonl"], paths["report.tsv"]),
            "train": lambda: pipeline.cmd_train(
                config, paths["instances.jsonl"], paths["model.json"], paths["history.tsv"]),
            "evaluate": lambda: pipeline.cmd_evaluate(
                paths["model.json"], paths["instances.jsonl"], paths["metrics.tsv"],
                THRESHOLD),
            "predict": lambda: pipeline.cmd_predict(
                paths["model.json"], paths["instances.jsonl"], paths["predictions.jsonl"],
                THRESHOLD),
        }
        self.samples = {name: [] for name in commands}
        self.tracer = self.make_tracer() if self.args.trace else None
        self.traced: dict[str, float] = {}

        begin = time.perf_counter()
        # One pass in pipeline order; its outputs are the ones checked.
        results = {name: self.sample(name, commands[name], trace=False)
                   for name in commands}
        # Peak memory over one pass, so it does not grow with the number of
        # passes a run happens to fit.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        figures = self.figures(config, paths, results)
        checks = self.check_outputs(config, paths, results, figures)
        del results
        deadline = begin + self.args.seconds
        step = 0
        while True:
            name = SCHEDULE[step % len(SCHEDULE)]
            reps = SLOT_REPS.get(name, {}).get(self.args.workload, 1)
            # A slot starts only if its runs, as long as the command's last
            # run, end by the deadline; a traced run goes on until each
            # pipeline command has had its traced run.
            due = time.perf_counter() + reps * self.samples[name][-1]
            if due > deadline and not (self.tracer and len(self.traced) < 4):
                break
            for _ in range(reps):
                self.sample(name, commands[name], trace=True)
            step += 1

        attempted = len(checks)
        failed = sum(1 for ok in checks.values() if not ok)
        # padding_invariance fails on every run until the recurrence stops
        # at each row's last real token; every other check must pass.
        correct = all(ok for name, ok in checks.items() if name != "padding_invariance")
        if self.tracer:
            metrics = self.layer_metrics(figures, paths)
        else:
            metrics = self.end_to_end(figures, peak_rss_mb)
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        report = self.report(config, paths, figures, checks, peak_rss_mb)
        return result, report

    def sample(self, name, command, trace: bool):
        """Run one command from a collected heap, as in a fresh CLI process,
        and keep its wall time.  With a tracer, the first scheduled run of
        each pipeline command is traced."""
        traced = (trace and self.tracer is not None and name != "setup"
                  and name not in self.traced)
        gc.collect()
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            result = command()
            elapsed = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            self.traced[name] = elapsed
        self.samples[name].append(elapsed)
        return result

    # --- metrics ------------------------------------------------------------------

    def split(self, config, instances):
        train, dev = self.pipeline.split_dataset(instances, config.split_fraction, config.seed)
        return train, (dev or train)

    def figures(self, config, paths, results) -> dict:
        """Counts the metrics divide by; the same for every run of a command."""
        instances = results["preprocess"][0]
        report = read_report(paths["report.tsv"])
        emitted = len(instances)
        train, _ = self.split(config, instances)
        return {
            "report": report,
            "emitted": emitted,
            "examined": emitted + sum(report.get(r, 0) for r in PAIR_SKIPS),
            "train_instances": len(train),
            "instance_epochs": len(train) * config.train.epochs,
            "best_dev_f": max((row["dev_f"] for row in results["train"][1]), default=0.0),
        }

    def end_to_end(self, fig, peak_rss_mb) -> dict:
        # Timings are medians of their samples; a throughput is all the work
        # of a command's runs over all their time.
        t = {name: statistics.median(values) for name, values in self.samples.items()}
        runs = {name: len(values) for name, values in self.samples.items()}
        busy = {name: sum(values) for name, values in self.samples.items()}
        values = {
            "setup_s": t["setup"],
            "preprocess_pairs_per_s": fig["examined"] * runs["preprocess"] / busy["preprocess"],
            "train_instances_per_s": fig["instance_epochs"] * runs["train"] / busy["train"],
            "predict_instances_per_s": fig["emitted"] * runs["predict"] / busy["predict"],
            "pipeline_s": t["preprocess"] + t["train"] + t["evaluate"] + t["predict"],
            "peak_rss_mb": peak_rss_mb,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END.items()}

    def layer_metrics(self, fig, paths) -> dict:
        tracer = self.tracer
        out = {}
        for metric in {t[2] for t in TRACED}:
            out[f"{metric}_s"] = tracer.total.get(metric, 0.0)
            out[f"{metric}_calls"] = tracer.calls.get(metric, 0)
            out[f"{metric}_self_s"] = tracer.self_time.get(metric, 0.0)
        out["corpus.sentences"] = tracer.counts.get("corpus.sentences", 0)
        out["instances.pairs_examined"] = fig["examined"]
        out["instances.emitted"] = fig["emitted"]
        for reason in REPORT_REASONS:
            out[f"instances.report.{reason}"] = fig["report"].get(reason, 0)
        out["model.model_file_bytes"] = paths["model.json"].stat().st_size
        out["trace.pipeline_s"] = sum(self.traced.values())
        return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}

    # --- checks ---------------------------------------------------------------------

    def check_outputs(self, config, paths, results, fig) -> dict:
        gold = self.gold
        instances, _ = results["preprocess"]
        best, history = results["train"]
        checks = {"setup_one_instance": len(results["setup"][0]) == 1}
        report = fig["report"]
        checks["pairs_examined"] = fig["examined"] == gold["pairs_examined"]
        for reason in PAIR_SKIPS + ("gene_fallback_root",):
            expected = gold["skips"].get(reason, gold.get(reason, 0))
            checks[f"report.{reason}"] = report.get(reason, 0) == expected

        rows = read_jsonl(paths["instances.jsonl"])
        by_id = {row["instance_id"]: row for row in rows}
        checks["labels"] = {i: r["label"] for i, r in by_id.items()} == gold["labels"]
        sample = [(by_id.get(iid), exp) for iid, exp in gold["sample"].items()]
        found = all(row is not None for row, _ in sample) and bool(sample)

        def same(*keys):
            return found and all(row[k] == exp[k] for row, exp in sample for k in keys)

        checks["sample.sdp"] = same("sdp_tokens", "sdp_classes")
        checks["sample.ancestor_chains"] = same("left_chain", "right_chain")
        checks["sample.common_ancestors"] = same("common_chain")

        history_rows = read_tsv(paths["history.tsv"])
        checks["history"] = (
            len(history_rows) == config.train.epochs
            and [int(r["epoch"]) for r in history_rows] == list(range(1, config.train.epochs + 1))
            and all(math.isfinite(float(r["train_loss"])) for r in history_rows)
        )
        _, dev = self.split(config, instances)
        share = sum(1 for i in dev if i.label == "positive") / len(dev)
        all_positive_f = 2 * share / (1 + share)
        best_f = max((row["dev_f"] for row in history), default=0.0)
        checks["dev_f_beats_all_positive"] = best_f > all_positive_f

        predictions = read_jsonl(paths["predictions.jsonl"])
        probs = [p["prob_positive"] for p in predictions]
        checks["predictions"] = (
            [p["instance_id"] for p in predictions] == [r["instance_id"] for r in rows]
            and all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs)
            and all(p["label"] == ("positive" if p["prob_positive"] >= THRESHOLD
                                   else "negative") for p in predictions)
        )
        checks["evaluate_matches_predictions"] = self.check_evaluate(
            results["evaluate"], paths["metrics.tsv"], predictions, gold["labels"])

        params, vocabs = self.load_model(paths["model.json"])
        encoder = self.model.Encoder(params.specs, vocabs)
        in_memory = self.model.predict(best, encoder.encode(instances), THRESHOLD)
        checks["reloaded_model_matches_memory"] = (
            [p.prob_positive for p in in_memory] == probs)

        checks.update(self.probes(params, vocabs, instances))
        return checks

    def check_evaluate(self, got, metrics_tsv, predictions, gold_labels) -> bool:
        tp = fp = fn = 0
        for p in predictions:
            gold_positive = gold_labels.get(p["instance_id"]) == "positive"
            predicted = p["label"] == "positive"
            tp += predicted and gold_positive
            fp += predicted and not gold_positive
            fn += gold_positive and not predicted
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f_score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        row = read_tsv(metrics_tsv)[0]
        return (
            (got.tp, got.fp, got.fn) == (tp, fp, fn)
            and all(abs(a - b) <= 1e-12 for a, b in
                    ((got.precision, precision), (got.recall, recall), (got.f_score, f_score)))
            and (row["precision"], row["recall"], row["f_score"])
            == (f"{precision:.4f}", f"{recall:.4f}", f"{f_score:.4f}")
        )

    def load_model(self, path):
        with open(path, encoding="utf-8") as handle:
            return self.model.load_model(handle)

    def probes(self, params, vocabs, instances) -> dict:
        """Outputs must not depend on how predict chunks its batch or on how
        far the inputs are padded."""
        np, model = self.np, self.model
        sample = self.rng.sample(instances, min(PROBE_SIZE, len(instances)))
        data = model.Encoder(params.specs, vocabs).encode(sample)
        full = model.forward(params, data.ids)[:, 1]

        parts, start, k = [], 0, 0
        while start < len(sample):
            stop = start + PROBE_CHUNKS[k % len(PROBE_CHUNKS)]
            index = np.arange(start, min(stop, len(sample)))
            parts.append(model.forward(params, data.subset(index).ids)[:, 1])
            start, k = stop, k + 1
        chunked = np.concatenate(parts)

        wide = params.copy()
        wide.specs = [model.ChannelSpec(s.name, s.vocab_size, s.embed_dim, s.hidden_dim,
                                        2 * s.max_len) for s in params.specs]
        wide_ids = {name: np.pad(ids, ((0, 0), (0, ids.shape[1])),
                                 constant_values=model.PAD_INDEX)
                    for name, ids in data.ids.items()}
        padded = model.forward(wide, wide_ids)[:, 1]
        self.padding_gap = float(np.max(np.abs(padded - full)))
        return {
            "batch_partition_invariance": bool(np.max(np.abs(chunked - full)) <= 1e-12),
            "padding_invariance": self.padding_gap <= 1e-9,
        }

    # --- report -----------------------------------------------------------------------

    def report(self, config, paths, fig, checks, peak_rss_mb) -> dict:
        np = self.np
        params, vocabs = self.load_model(paths["model.json"])
        with open(paths["instances.jsonl"], encoding="utf-8") as handle:
            instances = self.modules["instances"].load_instances(handle)
        data = self.model.Encoder(params.specs, vocabs).encode(instances)
        padding = {name: round(float(np.mean(ids == self.model.PAD_INDEX)), 4)
                   for name, ids in data.ids.items()}
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        threads = None
        status = Path("/proc/self/status")
        if status.is_file():
            for line in status.read_text().splitlines():
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "inputs": self.gold["stats"],
            "vocabulary": {name: len(v) for name, v in vocabs.items()},
            "padding_fraction": padding,
            "emitted": fig["emitted"],
            "examined": fig["examined"],
            "train_instances": fig["train_instances"],
            "epochs": config.train.epochs,
            "samples": self.samples,
            "traced_s": self.traced,
            "best_dev_f": fig["best_dev_f"],
            "check_names": list(checks),
            "failed_checks": sorted(name for name, ok in checks.items() if not ok),
            "padding_gap": self.padding_gap,
            "peak_rss_mb": peak_rss_mb,
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "process_threads": threads,
            "cpu_count": os.cpu_count(),
        }


def read_report(path: Path) -> dict[str, int]:
    rows = read_tsv(path)
    return {row["reason"]: int(row["count"]) for row in rows}


def read_tsv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:] if line]


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


if __name__ == "__main__":
    sys.exit(main())
