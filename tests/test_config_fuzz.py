"""Config fuzz: a hostile value in a numeric config key makes the CLI exit 0, 1 or 2.

For every numeric key of the three fixture configs (the top-level ones and
those of the `model` and `train` sections), each value of HOSTILE in turn
replaces the key's value.  Then `cli.main` runs `preprocess` in-process,
and `train` when `preprocess` succeeds.  No exception may escape and
nothing may print a traceback.  LEFT_OUT lists the cases that are not run,
each with its reason.  Budget: each config's 149 cases finish within
5 s (0.4-0.7 s on a 2-core host).
"""
import json
import shutil
import time

import pytest

from biont import cli

CONFIGS = ("ddi.config.json", "pgr.config.json", "cdr.config.json")
HOSTILE = {
    "negative": -1,
    "zero": 0,
    "2**64": 2**64,
    "1e308": 1e308,
    "subnormal": 5e-324,
    "bool": True,
    "string": "1",
    "null": None,
    "list": [1],
    "object": {"value": 1},
}
# (key, value name) -> why the case is not run
LEFT_OUT = {
    ("train.epochs", "2**64"): "a valid request for 2**64 epochs: a long run, not bad input",
}
BUDGET_S = 5.0


def numeric_keys(payload: dict, prefix: str = "") -> list[str]:
    """Dotted names of the numeric values in `payload` and its sections."""
    keys = []
    for key, value in payload.items():
        if isinstance(value, dict):
            keys += numeric_keys(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            keys.append(prefix + key)
    return keys


def with_value(payload: dict, dotted: str, value) -> dict:
    """A copy of `payload` with the key named `dotted` set to `value`."""
    mutated = json.loads(json.dumps(payload))
    *sections, key = dotted.split(".")
    target = mutated
    for section in sections:
        target = target[section]
    target[key] = value
    return mutated


def test_every_numeric_key_of_the_fixture_configs_is_fuzzed(fixtures):
    keys = numeric_keys(json.loads((fixtures / "ddi.config.json").read_text(encoding="utf-8")))
    assert {"seed", "split_fraction", "model.dense_dim", "train.seed"} <= set(keys)
    assert len(keys) == 15
    assert {key for key, _ in LEFT_OUT} <= set(keys)
    assert {name for _, name in LEFT_OUT} <= set(HOSTILE)


# a 1e308 learning rate or class weight overflows numpy's arithmetic, and
# train exits 2 on the non-finite loss or saves a finite model
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", CONFIGS)
def test_hostile_config_values_exit_zero_one_or_two(fixtures, tmp_path, capsys, name):
    start = time.perf_counter()
    copy = tmp_path / "fixtures"  # the configs' relative paths resolve into it
    shutil.copytree(fixtures, copy)
    payload = json.loads((copy / name).read_text(encoding="utf-8"))
    config = copy / "fuzzed.config.json"
    instances, model = str(tmp_path / "instances.jsonl"), str(tmp_path / "model.json")
    for key in numeric_keys(payload):
        for value_name, value in HOSTILE.items():
            if (key, value_name) in LEFT_OUT:
                continue
            config.write_text(json.dumps(with_value(payload, key, value)), encoding="utf-8")
            argv = ["--config", str(config)]
            for command, io_args in (("preprocess", ["--out", instances]),
                                     ("train", ["--in", instances, "--model", model])):
                label = f"{name} {key}={value_name} {command}"
                try:
                    code = cli.main([command, *argv, *io_args])
                except Exception as exc:
                    raise AssertionError(f"{label}: exception escaped") from exc
                assert code in (0, 1, 2), f"{label}: exit {code}"
                assert "Traceback" not in capsys.readouterr().err, label
                if code != 0:
                    break
    assert time.perf_counter() - start < BUDGET_S
