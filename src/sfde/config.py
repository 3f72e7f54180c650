"""Run configuration and its flat `key = value` file format.

Each section is a dataclass, and its fields are the section's keys:
`[model]` is `ModelConfig` less `num_classes` (training sets it from the
data), `[train]` is `TrainConfig` and `[loss]` is `LossWeights`. A key's type
is the type of its default; a field's metadata may bound it (`min`, `max`)
or list its values (`choices`). Floats must be finite. Unknown keys or
sections, repeated keys and values that do not fit are errors that name the
line. Parsing then re-serializing is idempotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, make_dataclass

from .losses import LossWeights
from .model import ModelConfig


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    """The `[train]` section of a run config."""
    seed: int = 0
    steps: int = field(default=200, metadata={"min": 1})
    batch_pairs: int = field(default=8, metadata={"min": 1})
    learning_rate: float = field(default=0.001, metadata={"min": 0})
    lr_floor: float = field(default=0.0, metadata={"min": 0})
    weight_decay: float = field(default=0.05, metadata={"min": 0})
    warmup_fraction: float = field(default=0.1, metadata={"min": 0, "max": 1})
    flip_probability: float = field(default=0.5,
                                    metadata={"min": 0, "max": 1})


_SECTIONS = {
    "model": [f for f in fields(ModelConfig) if f.name != "num_classes"],
    "train": list(fields(TrainConfig)),
    "loss": list(fields(LossWeights)),
}
_KEYS = {f.name: (section, f) for section, fs in _SECTIONS.items() for f in fs}


def _section(cfg, name):
    return {f.name: getattr(cfg, f.name) for f in _SECTIONS[name]}


RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, field(default=f.default, metadata=f.metadata))
     for fs in _SECTIONS.values() for f in fs],
    namespace={
        "__module__": __name__,
        "__doc__": "Every key of every section as one flat dataclass, e.g. "
                   "`RunConfig(steps=5)`. `model_config(num_classes)` and "
                   "`loss_weights()` build the section objects training uses.",
        "model_config": lambda self, num_classes: ModelConfig(
            num_classes=num_classes, **_section(self, "model")),
        "loss_weights": lambda self: LossWeights(**_section(self, "loss")),
    })


def _parse_value(f, raw):
    """`raw` as a value of field `f`, whose default gives its type."""
    kind, meta = type(f.default), f.metadata
    if kind is bool:
        if raw not in ("true", "false"):
            raise ValueError("must be true or false")
        return raw == "true"
    try:
        value = (tuple(int(v) for v in raw.split(",")) if kind is tuple
                 else kind(raw))
    except ValueError:
        raise ValueError(f"must be of type {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError("must be a finite number")
    if "choices" in meta and value not in meta["choices"]:
        raise ValueError("must be " + " or ".join(meta["choices"]))
    if "min" in meta and value < meta["min"]:
        raise ValueError(f"must be at least {meta['min']}")
    if "max" in meta and value > meta["max"]:
        raise ValueError(f"must be at most {meta['max']}")
    return value


def parse_config(text) -> RunConfig:
    values, seen = {}, {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (p.strip() for p in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        home, f = _KEYS[key]
        if section is not None and home != section:
            raise ConfigError(f"line {lineno}: key {key!r} does not belong in "
                              f"section [{section}]")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on "
                              f"line {seen[key]}")
        seen[key] = lineno
        try:
            values[key] = _parse_value(f, raw)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: {key} {e}, got {raw!r}") from None
    return RunConfig(**values)


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for section, fs in _SECTIONS.items():
        lines.append(f"[{section}]")
        for f in fs:
            val = getattr(cfg, f.name)
            if type(f.default) is tuple:
                val = ",".join(str(v) for v in val)
            elif isinstance(val, bool):
                val = "true" if val else "false"
            lines.append(f"{f.name} = {val}")
        lines.append("")
    return "\n".join(lines)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())
