"""Seeded corruption: a damaged input file makes the CLI exit 0 or 2, never raise.

Each case truncates a file, or flips one bit in each of 1-4 bytes, at
seeded random offsets; a flipped bit mostly leaves the text ASCII, so the
damage reaches the parsers behind the UTF-8 decoding.  Then `cli.main` runs
in-process: every data file of the three fixture configs goes through
`preprocess` and then `train`, and a trained model file and its instances
file through `evaluate` and `predict`.  A failure names the file, the
mutation and its offsets, so it can be replayed.  Budget: the two tests
together finish within 10 s.
"""
import random
import shutil
import time

from biont import cli
from biont.config import load_config
from test_pipeline import full_run

CONFIGS = ("ddi.config.json", "pgr.config.json", "cdr.config.json")
DATA_MUTATIONS = 10  # per data file
MODEL_MUTATIONS = 30  # per model or instances file
BUDGET_S = {"data": 7.0, "model": 3.0}


def corrupt(data: bytes, rng: random.Random) -> tuple[bytes, str]:
    """`data` truncated, or with a bit flipped in 1-4 bytes, and what was done."""
    if rng.randrange(3) == 0:
        cut = rng.randrange(len(data))
        return data[:cut], f"truncated at {cut}"
    damaged = bytearray(data)
    offsets = sorted(rng.sample(range(len(data)), rng.randint(1, 4)))
    for offset in offsets:
        damaged[offset] ^= 1 << rng.randrange(8)
    return bytes(damaged), f"bytes flipped at {offsets}"


def run(label: str, argv: list[str]) -> int:
    try:
        code = cli.main(argv)
    except Exception as exc:
        raise AssertionError(f"{label}: exception escaped") from exc
    assert code in (0, 2), f"{label}: exit {code}"
    return code


def test_corrupted_data_files_exit_zero_or_two(fixtures, tmp_path):
    start = time.perf_counter()
    copy = tmp_path / "fixtures"  # the configs' relative paths resolve into it
    shutil.copytree(fixtures, copy)
    instances, model = str(tmp_path / "instances.jsonl"), str(tmp_path / "model.json")
    for name in CONFIGS:
        config = load_config(copy / name)
        for path in (config.corpus_path, config.lexicon, config.parses, config.vectors,
                     config.gaf, *config.ontologies.values(), *config.xref.values()):
            if path is None:
                continue
            original = path.read_bytes()
            rng = random.Random(f"{name}:{path.name}")
            for k in range(DATA_MUTATIONS):
                damaged, how = corrupt(original, rng)
                path.write_bytes(damaged)
                label = f"{name} {path.name} #{k} {how}"
                argv = ["--config", str(copy / name)]
                if run(f"{label} preprocess", ["preprocess", *argv, "--out", instances]) == 0:
                    run(f"{label} train", ["train", *argv, "--in", instances, "--model", model])
            path.write_bytes(original)
    assert time.perf_counter() - start < BUDGET_S["data"]


def test_corrupted_model_and_instances_files_exit_zero_or_two(fixtures, tmp_path):
    start = time.perf_counter()
    assert full_run(fixtures, tmp_path) == [0, 0, 0, 0]
    files = {"model": tmp_path / "model.json", "instances": tmp_path / "instances.jsonl"}
    for which, path in files.items():
        original = path.read_bytes()
        rng = random.Random(which)
        damaged_path = tmp_path / f"damaged.{which}"
        args = {name: str(damaged_path if name == which else other)
                for name, other in files.items()}
        for k in range(MODEL_MUTATIONS):
            damaged, how = corrupt(original, rng)
            damaged_path.write_bytes(damaged)
            for command, out in (("evaluate", "metrics.tsv"), ("predict", "preds.jsonl")):
                run(f"{which} #{k} {how} {command}",
                    [command, "--model", args["model"], "--in", args["instances"],
                     "--out", str(tmp_path / out)])
    assert time.perf_counter() - start < BUDGET_S["model"]
