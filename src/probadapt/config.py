"""Flat key-value experiment configuration: parse, validate, serialise, hash.

The document format is one ``key = value`` pair per line, ``#`` comments, and
a fixed schema: unknown keys are rejected by name. Serialisation is canonical
(fixed key order, repr-formatted floats), so the config hash is stable under
reordering of the input document. :class:`ExperimentConfig` is the one run
configuration the trainer and runner read; it validates itself on
construction, so a parsed document, a programmatic config and a
``dataclasses.replace`` copy pass the same checks, and it is frozen, so no
later assignment can bypass them.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass

from .data import PROBE_MIN_SAMPLES
from .errors import ConfigError
from .losses import BETA_VARIANTS, PENALTY_VARIANTS

MODES = ("uda", "pda", "fig1")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "uda"
    seed: int = 0
    outputs: str = "runs/default"
    # generator
    input_dim: int = 6
    pretrain_classes: int = 16
    task_classes: int = 4
    samples_per_class: int = 50
    rotation: float = math.pi / 4
    translation: tuple[float, ...] = ()
    noise_scale: float = 0.32
    target_class_count: int | None = None
    # schedules
    eta0: float = 0.0075
    tau: float = 3e-4
    upsilon: float = 0.75
    head_lr_multiplier: float = 10.0
    lambda1: float = 1.0
    lambda2_a: float = 1.0
    lambda3_a: float = 0.25
    delta: float = 10.0
    # training
    epochs: int = 20
    batch_size: int = 16
    cgi_updates_backbone: bool = False
    beta_variant: str = "exp_neg_kl"
    penalty_variant: str = "CGI"
    momentum: float = 0.9
    weight_decay: float = 5e-4
    label_smoothing: float = 0.1
    pda_threshold: int = 14
    # pretraining stand-in
    pretrain_epochs: int = 30
    pretrain_lr: float = 0.05

    def __post_init__(self):
        for key, (attr, parser, check) in SCHEMA.items():
            value = getattr(self, attr)
            try:
                value = _AS_PARSED[parser](value)
            except TypeError as exc:
                raise ConfigError(f"key {key!r}: value {value!r} is not {exc}") from None
            # Stored as the parser would produce it (an int given for a float
            # key becomes a float), so serialisation and the hash match the
            # parsed document's.
            object.__setattr__(self, attr, value)
            if check is not None and not check(value):
                raise ConfigError(f"key {key!r}: value {value!r} violates its constraint")
        if self.task_classes > self.pretrain_classes:
            raise ConfigError("key 'generator.task_classes': must not exceed pretrain_classes")
        if self.target_class_count is not None and not (
                1 <= self.target_class_count <= self.task_classes):
            raise ConfigError("key 'generator.target_class_count': out of range")
        if self.translation and len(self.translation) != self.input_dim:
            raise ConfigError(
                "key 'generator.translation': length must equal generator.input_dim")
        # Every run probes the domain gap between source and target; the
        # target is the smaller domain.
        target_samples = (self.target_class_count or self.task_classes) * self.samples_per_class
        if target_samples < PROBE_MIN_SAMPLES:
            raise ConfigError(
                f"key 'generator.samples_per_class': the target domain holds {target_samples} "
                f"samples, the domain-gap probe needs at least {PROBE_MIN_SAMPLES}")
        # No class can be predicted for more target samples than there are.
        if self.mode == "pda" and self.pda_threshold > target_samples:
            raise ConfigError(
                f"key 'train.pda_threshold': {self.pda_threshold} exceeds the "
                f"{target_samples} target samples, so every class would fall below it")


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(part) for part in text.split(","))


def _parse_optional_int(text: str):
    return None if not text.strip() or text.strip().lower() == "none" else int(text)


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError("an integer")
    return int(value)


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError("a number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise TypeError("a finite number")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError("a string")
    return value


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("a boolean")
    return value


def _reals(value) -> tuple[float, ...]:
    if not isinstance(value, (tuple, list)):
        raise TypeError("a sequence of finite numbers")
    try:
        return tuple(_real(v) for v in value)
    except TypeError:
        raise TypeError("a sequence of finite numbers") from None


def _optional(as_type):
    return lambda value: None if value is None else as_type(value)


# Schema parser -> the check that a programmatic value has the parser's
# result type, returning it as the parser would (TypeError naming the type).
# Every float must be finite: a parsed "nan" or "inf" is refused here too.
_AS_PARSED = {
    int: _integer,
    float: _real,
    str: _string,
    _parse_bool: _boolean,
    _parse_floats: _reals,
    _parse_optional_int: _optional(_integer),
}


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


# key -> (attribute, parser, validator or None)
SCHEMA: dict[str, tuple[str, object, object]] = {
    "mode": ("mode", str, lambda v: v in MODES),
    "seed": ("seed", int, None),
    "outputs": ("outputs", str, None),
    "generator.input_dim": ("input_dim", int, lambda v: v >= 2),
    "generator.pretrain_classes": ("pretrain_classes", int, lambda v: v >= 2),
    "generator.task_classes": ("task_classes", int, lambda v: v >= 2),
    # two per class: the source splits into a prototype half and a training half
    "generator.samples_per_class": ("samples_per_class", int, lambda v: v >= 2),
    "generator.rotation": ("rotation", float, None),
    "generator.translation": ("translation", _parse_floats, None),
    "generator.noise_scale": ("noise_scale", float, lambda v: v >= 0),
    "generator.target_class_count": ("target_class_count", _parse_optional_int, None),
    "schedule.eta0": ("eta0", float, lambda v: v > 0),
    "schedule.tau": ("tau", float, lambda v: v >= 0),
    "schedule.upsilon": ("upsilon", float, lambda v: v > 0),
    "schedule.head_lr_multiplier": ("head_lr_multiplier", float, lambda v: v > 0),
    "schedule.lambda1": ("lambda1", float, lambda v: v >= 0),
    "schedule.lambda2_a": ("lambda2_a", float, lambda v: v >= 0),
    "schedule.lambda3_a": ("lambda3_a", float, lambda v: v >= 0),
    "schedule.delta": ("delta", float, lambda v: v > 0),
    "train.epochs": ("epochs", int, lambda v: v >= 1),
    "train.batch_size": ("batch_size", int, lambda v: v >= 1),
    "train.cgi_updates_backbone": ("cgi_updates_backbone", _parse_bool, None),
    "train.beta_variant": ("beta_variant", str, lambda v: v in BETA_VARIANTS),
    "train.penalty_variant": ("penalty_variant", str, lambda v: v in PENALTY_VARIANTS),
    "train.momentum": ("momentum", float, lambda v: 0 <= v < 1),
    "train.weight_decay": ("weight_decay", float, lambda v: v >= 0),
    "train.label_smoothing": ("label_smoothing", float, lambda v: 0 <= v < 1),
    "train.pda_threshold": ("pda_threshold", int, lambda v: v >= 0),
    "pretrain.epochs": ("pretrain_epochs", int, lambda v: v >= 0),
    "pretrain.lr": ("pretrain_lr", float, lambda v: v > 0),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key-value document; defaults fill the rest, and the
    resulting :class:`ExperimentConfig` validates itself."""
    values = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, parser, _ = SCHEMA[key]
        try:
            values[attr] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {value!r} ({exc})") from exc
    return ExperimentConfig(**values)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical document: every key in schema order."""
    lines = [f"{key} = {_fmt(getattr(cfg, attr))}" for key, (attr, _, _) in SCHEMA.items()]
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:16]
