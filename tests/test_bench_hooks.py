"""The traced benchmark run wraps program functions by name; each must exist."""
import importlib
import importlib.util
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def traced_targets():
    # load bench/run.py by path, without adding it to sys.modules
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_traced_benchmark_targets_resolve():
    traced = traced_targets()
    missing = []
    for module, attr, _metric in traced:
        owner = importlib.import_module(f"biont.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []
    names = {f"{module}.{attr}" for module, attr, _ in traced}
    assert {"model.Encoder.encode", "model.forward", "model.gradients",
            "model.save_model", "model.load_model"} <= names
