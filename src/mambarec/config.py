"""Run configuration: one flat record covering data prep, architecture,
training, and the ablation switches. JSON in, JSON out, so every run can echo
the fully resolved config next to its outputs and be reproduced from it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["RunConfig"]

# accepted Python types and their description, per field annotation (annotations are strings here)
_FIELD_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
}


@dataclass
class RunConfig:
    # data
    data: str = ""  # TSV interactions or a prepared split artifact
    max_len: int = 50  # model context window N
    min_len: int = 5  # iterative core filtering threshold
    max_len_cap: int = 0  # 0 = no recency cap during filtering

    # architecture
    dim: int = 64
    n_layers: int = 1
    flip_keep: int = 5  # suffix length left unflipped
    conv_width: int = 4
    d_state: int = 32
    expand: int = 2
    tie_output: bool = True

    # training
    lr: float = 0.001
    dropout: float = 0.3
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0
    eval_every: int = 1
    patience: int = 10
    grad_clip: float = 0.0  # 0 disables; 5.0 is the conventional threshold
    precision: str = "float32"
    runs: int = 1

    # ablations
    no_flip: bool = False
    no_gate: bool = False
    no_gru: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            types, description = _FIELD_TYPES[f.type]
            # bool is an int subclass, so only a bool field takes True or False
            if not isinstance(value, types) or (isinstance(value, bool) and f.type != "bool"):
                raise ConfigError(f"{f.name} must be {description}, got {value!r}")
        if self.precision not in ("float32", "float64"):
            raise ConfigError(f"precision must be float32 or float64, got {self.precision!r}")
        at_least_one = ("max_len", "dim", "n_layers", "conv_width", "d_state", "expand", "batch_size", "eval_every", "runs")
        for name in at_least_one:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("flip_keep", "epochs", "min_len", "max_len_cap", "grad_clip", "patience", "lr", "seed"):
            if not getattr(self, name) >= 0:  # NaN fails this too
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not math.isfinite(self.lr):  # grad_clip may be inf: it then never clips
            raise ConfigError(f"lr must be finite, got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @classmethod
    def from_dict(cls, d, source: str) -> "RunConfig":
        """Build a config from a parsed JSON value; ``source`` names where it came from in errors."""
        if not isinstance(d, dict):
            raise ConfigError(f"{source} must hold a JSON object, got {d!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"{source} has unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as err:  # a decode error is not valid JSON either
                raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
        return cls.from_dict(payload, f"config file {path}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def replace(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)
