"""The run configuration: every section's schema, the one check that holds
a value to its field, and the flat `key = value` file format.

`[model]` is `ModelConfig` less `num_classes` (training sets it from the
data), `[train]` is `TrainConfig` and `[loss]` is `LossWeights`; a key's type
is its default's, and a field's metadata may bound it (`min`, `max`) or list
its values (`choices`). `parse_config` applies `_check_value` to each
value, naming the line; each section and `RunConfig` apply it to every field
when built, from a file, a checkpoint header or code. Parsing then
re-serializing is idempotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, make_dataclass

import numpy as np

from .ops import ShapeError


class ConfigError(ValueError):
    pass


def _fits_type(kind, value):
    if kind is tuple:
        return isinstance(value, tuple) and all(_fits_type(int, v)
                                                for v in value)
    return ((type(value) is bool) == (kind is bool)  # a bool fits bool only
            and isinstance(value, (int, float) if kind is float else kind))


def _check_value(f, value):
    """Raise ValueError unless `value` fits field `f`: the type of its
    default (a bool is not an int; a tuple holds ints), finite if a float,
    its `choices`, and its `min` and `max` (for each entry of a tuple)."""
    kind, meta = type(f.default), f.metadata
    if not _fits_type(kind, value):
        raise ValueError("must be true or false" if kind is bool
                         else f"must be of type {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ValueError("must be a finite number")
    if "choices" in meta and value not in meta["choices"]:
        raise ValueError("must be " + " or ".join(meta["choices"]))
    for v in (value if kind is tuple else (value,)):
        if "min" in meta and v < meta["min"]:
            raise ValueError(f"must be at least {meta['min']}")
        if "max" in meta and v > meta["max"]:
            raise ValueError(f"must be at most {meta['max']}")


def _check_fields(obj, schema):
    for f in schema:
        value = getattr(obj, f.name)
        try:
            _check_value(f, value)
        except ValueError as e:
            raise ConfigError(f"{f.name} {e}, got {value!r}") from None


class _Section:
    def __post_init__(self):
        _check_fields(self, fields(self))


@dataclass
class ModelConfig(_Section):
    """The `[model]` section, plus the class count that training sets."""
    stage_channels: tuple = field(default=(16, 32, 64, 128),
                                  metadata={"min": 1})
    blocks_per_stage: int = field(default=2, metadata={"min": 1})
    input_size: int = field(default=128, metadata={"min": 32})
    embed_dim: int = field(default=256, metadata={"min": 1})
    heads: int = field(default=4, metadata={"min": 1})
    num_classes: int = field(default=0, metadata={"min": 0})
    use_gscb: bool = True
    use_lgsb: bool = True
    use_fsab: bool = True
    dtype: str = field(default="float32",
                       metadata={"choices": ("float32", "float64")})

    def validate(self):
        """The checks that span fields: the backbone's 4 stages and stride
        32, and what each enabled branch needs of its feature map."""
        if len(self.stage_channels) != 4:
            raise ShapeError("backbone needs exactly 4 stages, got "
                             f"{len(self.stage_channels)}")
        if self.input_size % 32 != 0:
            raise ShapeError(f"input_size {self.input_size} not divisible by "
                             "the total stride 32")
        c, s = self.feature_channels, self.input_size // 32
        if self.use_lgsb:
            if c % 4 != 0:
                raise ShapeError(f"local branch needs C divisible by 4, got {c}")
            if s < 4:
                raise ShapeError(
                    f"local branch pyramid needs feature maps >= 4x4; input "
                    f"size {self.input_size} gives {s}x{s} (use >= 128)")
        if self.use_fsab:
            if s % 2 != 0:
                raise ShapeError(
                    f"frequency branch needs even feature width, got {s}")
            if c % self.heads != 0:
                raise ShapeError(
                    f"feature channels {c} not divisible by {self.heads} heads")

    @property
    def np_dtype(self):
        return {"float32": np.float32, "float64": np.float64}[self.dtype]

    @property
    def feature_channels(self):
        return self.stage_channels[-1]

    @property
    def descriptor_dim(self):
        d = 0
        if self.use_gscb:
            d += self.embed_dim
        if self.use_lgsb:
            d += self.feature_channels
        if self.use_fsab:
            d += self.feature_channels
        return d


@dataclass
class TrainConfig(_Section):
    """The `[train]` section."""
    seed: int = field(default=0, metadata={"min": 0})
    steps: int = field(default=200, metadata={"min": 1})
    batch_pairs: int = field(default=8, metadata={"min": 1})
    learning_rate: float = field(default=0.001, metadata={"min": 0})
    lr_floor: float = field(default=0.0, metadata={"min": 0})
    weight_decay: float = field(default=0.05, metadata={"min": 0})
    warmup_fraction: float = field(default=0.1, metadata={"min": 0, "max": 1})
    flip_probability: float = field(default=0.5,
                                    metadata={"min": 0, "max": 1})


@dataclass
class LossWeights(_Section):
    """The `[loss]` section: the weight of each term of the total loss."""
    lambda_ce: float = field(default=0.1, metadata={"min": 0})
    lambda_infonce: float = field(default=1.0, metadata={"min": 0})
    lambda_dsa: float = field(default=1.3, metadata={"min": 0})


_SECTIONS = {
    "model": [f for f in fields(ModelConfig) if f.name != "num_classes"],
    "train": list(fields(TrainConfig)),
    "loss": list(fields(LossWeights)),
}
_KEYS = {f.name: (section, f) for section, fs in _SECTIONS.items() for f in fs}
_FIELDS = [f for _, f in _KEYS.values()]


def _section(cfg, name):
    return {f.name: getattr(cfg, f.name) for f in _SECTIONS[name]}


RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, field(default=f.default)) for f in _FIELDS],
    namespace={
        "__module__": __name__,
        "__doc__": "Every key of every section as one flat dataclass, e.g. "
                   "`RunConfig(steps=5)`. `model_config(num_classes)` and "
                   "`loss_weights()` build the section objects training uses.",
        "__post_init__": lambda self: _check_fields(self, _FIELDS),
        "model_config": lambda self, num_classes: ModelConfig(
            num_classes=num_classes, **_section(self, "model")),
        "loss_weights": lambda self: LossWeights(**_section(self, "loss")),
    })


def _parse_value(kind, raw):
    """`raw` as a value of type `kind`, or `raw` itself where it does not
    parse as one, so that `_check_value` refuses it."""
    try:
        if kind is bool:
            return {"true": True, "false": False}[raw]
        if kind is tuple:
            return tuple(int(v) for v in raw.split(","))
        return kind(raw)
    except (KeyError, ValueError):
        return raw


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
        values[key] = _parse_value(type(f.default), raw)
        try:
            _check_value(f, values[key])
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
