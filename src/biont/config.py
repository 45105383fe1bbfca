"""Run configuration: JSON file, validated strictly (unknown keys rejected).

Relative paths are resolved against the config file's directory, and every
referenced input path must exist before any parsing starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .corpus import DEFAULT_TRUTHY_TOKENS, PGR_REQUIRED_KEYS
from .errors import ConfigError
from .model import CHANNELS, ModelDims, TrainConfig

CORPORA = ("ddi", "pgr", "cdr")
ONTOLOGY_NAMESPACES = ("go", "hp", "doid", "chebi")

_TOP_KEYS = {
    "corpus", "corpus_path", "ontologies", "gaf", "xref", "lexicon",
    "parses", "vectors", "column_map", "truthy_tokens", "split_fraction",
    "seed", "channels", "model", "train",
}


@dataclass
class RunConfig:
    corpus: str
    corpus_path: Path
    ontologies: dict[str, Path]
    lexicon: Path
    parses: Path
    gaf: Path | None = None
    xref: dict[str, Path] = field(default_factory=dict)
    vectors: Path | None = None
    column_map: dict[str, str] = field(default_factory=dict)
    truthy_tokens: tuple[str, ...] = DEFAULT_TRUTHY_TOKENS
    split_fraction: float = 0.8
    seed: int = 1
    channels: dict[str, bool] = field(default_factory=dict)
    model: ModelDims = field(default_factory=ModelDims)
    train: TrainConfig = field(default_factory=TrainConfig)

    def enabled_channels(self) -> list[str]:
        return [name for name in CHANNELS if self.channels.get(name, False)]


def _reject_unknown(payload: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def _object(payload: dict, key: str) -> dict:
    """The JSON object under `key`; {} when the key is absent or null."""
    value = payload.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object")
    return value


def _numeric_section(payload: dict, key: str, cls, **defaults):
    """Build dataclass `cls` from the object under `key`, checking each type.

    An `int` field takes a JSON integer, a `float` field any finite number;
    booleans are neither.
    """
    raw = _object(payload, key)
    _reject_unknown(raw, {f.name for f in fields(cls)}, key)
    section = cls(**{**defaults, **raw})
    for f in fields(cls):
        value = getattr(section, f.name)
        kinds = int if f.type == "int" else (int, float)
        if (isinstance(value, bool) or not isinstance(value, kinds)
                or isinstance(value, float) and not math.isfinite(value)):
            kind = "an integer" if f.type == "int" else "a finite number"
            raise ConfigError(f"{key}.{f.name} must be {kind}")
    return section


def _require_path(base: Path, value, what: str) -> Path:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{what} must be a path string")
    path = (base / value).resolve() if not Path(value).is_absolute() else Path(value)
    if not path.is_file():
        raise ConfigError(f"{what}: no such file: {path}")
    return path


def load_config(config_path: str | Path) -> RunConfig:
    """Load and validate a JSON run configuration."""
    config_path = Path(config_path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        payload = json.loads(config_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(payload, _TOP_KEYS, "config")
    base = config_path.parent

    corpus = payload.get("corpus")
    if corpus not in CORPORA:
        raise ConfigError(f"corpus must be one of {CORPORA}, got {corpus!r}")
    corpus_path = _require_path(base, payload.get("corpus_path"), "corpus_path")

    ontologies_raw = payload.get("ontologies")
    if not isinstance(ontologies_raw, dict) or not ontologies_raw:
        raise ConfigError("ontologies must map namespace -> OBO path")
    ontologies: dict[str, Path] = {}
    for namespace, value in ontologies_raw.items():
        if namespace not in ONTOLOGY_NAMESPACES:
            raise ConfigError(f"unknown ontology namespace {namespace!r}")
        ontologies[namespace] = _require_path(base, value, f"ontologies.{namespace}")

    gaf = payload.get("gaf")
    gaf_path = _require_path(base, gaf, "gaf") if gaf is not None else None

    xref: dict[str, Path] = {}
    for namespace, value in _object(payload, "xref").items():
        if namespace not in ONTOLOGY_NAMESPACES:
            raise ConfigError(f"unknown xref namespace {namespace!r}")
        xref[namespace] = _require_path(base, value, f"xref.{namespace}")

    lexicon = _require_path(base, payload.get("lexicon"), "lexicon")
    parses = _require_path(base, payload.get("parses"), "parses")
    vectors = payload.get("vectors")
    vectors_path = _require_path(base, vectors, "vectors") if vectors is not None else None

    column_map = _object(payload, "column_map")
    if corpus == "pgr":
        missing = [k for k in PGR_REQUIRED_KEYS if k not in column_map]
        if missing:
            raise ConfigError(f"column_map lacks keys: {', '.join(missing)}")
    truthy = payload.get("truthy_tokens") or DEFAULT_TRUTHY_TOKENS
    if not isinstance(truthy, (list, tuple)) or not all(isinstance(t, str) for t in truthy):
        raise ConfigError("truthy_tokens must be a list of strings")

    split_fraction = payload.get("split_fraction", 0.8)
    if not isinstance(split_fraction, (int, float)) or not 0.0 < split_fraction < 1.0:
        raise ConfigError("split_fraction must lie in (0, 1)")
    seed = payload.get("seed", 1)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed must be an integer")

    # by default every channel, but onto_common only for same-type pairs
    channels_raw = _object(payload, "channels") or {
        name: name != "onto_common" or corpus == "ddi" for name in CHANNELS
    }
    _reject_unknown(channels_raw, set(CHANNELS), "channels")
    channels = {name: bool(channels_raw.get(name, False)) for name in CHANNELS}
    if not any(channels.values()):
        raise ConfigError("at least one channel must be enabled")
    if channels["onto_common"] and corpus != "ddi":
        raise ConfigError(
            "onto_common channel requires a same-type pair corpus (ddi)"
        )

    model = _numeric_section(payload, "model", ModelDims)
    for name, value in vars(model).items():
        if value < 1:
            raise ConfigError(f"model.{name} must be a positive integer")

    train = _numeric_section(payload, "train", TrainConfig, seed=seed)
    if train.learning_rate <= 0:
        raise ConfigError("train.learning_rate must be positive")
    if train.epochs < 0 or train.batch_size < 1:
        raise ConfigError("train.epochs must be >= 0 and batch_size >= 1")
    if not 0.0 < train.dropout_keep <= 1.0:
        raise ConfigError("train.dropout_keep must lie in (0, 1]")
    if train.max_sdp_len < 2 or train.max_chain_len < 1:
        raise ConfigError("train.max_sdp_len >= 2 and max_chain_len >= 1 required")
    if train.class_weight_positive <= 0:
        raise ConfigError("train.class_weight_positive must be positive")

    if corpus == "pgr" and gaf_path is None:
        raise ConfigError("pgr corpus requires a gaf path for the gene mapping")

    return RunConfig(
        corpus=corpus,
        corpus_path=corpus_path,
        ontologies=ontologies,
        gaf=gaf_path,
        xref=xref,
        lexicon=lexicon,
        parses=parses,
        vectors=vectors_path,
        column_map=dict(column_map),
        truthy_tokens=tuple(truthy),
        split_fraction=float(split_fraction),
        seed=seed,
        channels=channels,
        model=model,
        train=train,
    )
