"""Flat key-value experiment configuration: parse, validate, serialise, hash.

The document format is one ``key = value`` pair per line, ``#`` comments, and
a fixed schema: unknown keys are rejected by name. Each key is declared once,
as a field of :class:`ExperimentConfig` that holds its key, default and
constraint; the field's type names its value kind (parser, type check,
canonical format), and :data:`SCHEMA` is derived from the fields. Serialisation
is canonical (field order, repr-formatted floats), so the config hash is stable
under reordering of the input document. :class:`ExperimentConfig` is the one
run configuration the trainer and runner read; it validates itself on
construction, so a parsed document, a programmatic config and a
``dataclasses.replace`` copy pass the same checks, and it is frozen, so no
later assignment can bypass them.
"""

import hashlib
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

from .data import PROBE_MIN_SAMPLES
from .errors import ConfigError
from .losses import BETA_VARIANTS, PENALTY_VARIANTS

MODES = ("uda", "pda", "fig1")


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


class _Kind(NamedTuple):
    parse: Callable  # document text -> value (ValueError)
    # programmatic value -> the value as ``parse`` would produce it (TypeError
    # naming the type); every float must be finite, parsed or not
    as_parsed: Callable
    format: Callable  # value -> canonical document text


# A field's declared type -> its value kind.
_KINDS = {
    int: _Kind(int, _integer, str),
    float: _Kind(float, _real, repr),
    str: _Kind(str, _string, str),
    bool: _Kind(_parse_bool, _boolean, lambda v: "true" if v else "false"),
    tuple[float, ...]: _Kind(_parse_floats, _reals, lambda v: ",".join(map(repr, v))),
    int | None: _Kind(_parse_optional_int, lambda v: None if v is None else _integer(v),
                      lambda v: "none" if v is None else str(v)),
}


def _key(key: str, default, check=None):
    """A config field: its document key, its default and its constraint."""
    return field(default=default, metadata={"key": key, "check": check})


def _one_line(text: str) -> bool:
    """Whether ``key = text`` reads back as ``text``: no comment, no line
    break, no surrounding whitespace."""
    return "#" not in text and text == text.strip() and len(text.splitlines()) <= 1


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = _key("mode", "uda", lambda v: v in MODES)
    # rng_for reads the seed modulo 2**64: outside this range two seeds share streams
    seed: int = _key("seed", 0, lambda v: 0 <= v < 2**64)
    # an empty path would write into the working directory
    outputs: str = _key("outputs", "runs/default", lambda v: v != "" and _one_line(v))
    # generator
    input_dim: int = _key("generator.input_dim", 6, lambda v: v >= 2)
    pretrain_classes: int = _key("generator.pretrain_classes", 16, lambda v: v >= 2)
    task_classes: int = _key("generator.task_classes", 4, lambda v: v >= 2)
    # two per class: the source splits into a prototype half and a training half
    samples_per_class: int = _key("generator.samples_per_class", 50, lambda v: v >= 2)
    rotation: float = _key("generator.rotation", math.pi / 4)
    translation: tuple[float, ...] = _key("generator.translation", ())
    noise_scale: float = _key("generator.noise_scale", 0.32, lambda v: v >= 0)
    target_class_count: int | None = _key("generator.target_class_count", None)
    # schedules
    eta0: float = _key("schedule.eta0", 0.0075, lambda v: v > 0)
    tau: float = _key("schedule.tau", 3e-4, lambda v: v >= 0)
    upsilon: float = _key("schedule.upsilon", 0.75, lambda v: v > 0)
    head_lr_multiplier: float = _key("schedule.head_lr_multiplier", 10.0, lambda v: v > 0)
    lambda2_a: float = _key("schedule.lambda2_a", 1.0, lambda v: v >= 0)
    lambda3_a: float = _key("schedule.lambda3_a", 0.25, lambda v: v >= 0)
    delta: float = _key("schedule.delta", 10.0, lambda v: v > 0)
    # training
    epochs: int = _key("train.epochs", 20, lambda v: v >= 1)
    batch_size: int = _key("train.batch_size", 16, lambda v: v >= 1)
    cgi_updates_backbone: bool = _key("train.cgi_updates_backbone", False)
    beta_variant: str = _key("train.beta_variant", "exp_neg_kl", lambda v: v in BETA_VARIANTS)
    penalty_variant: str = _key("train.penalty_variant", "CGI",
                                lambda v: v in PENALTY_VARIANTS)
    momentum: float = _key("train.momentum", 0.9, lambda v: 0 <= v < 1)
    weight_decay: float = _key("train.weight_decay", 5e-4, lambda v: v >= 0)
    label_smoothing: float = _key("train.label_smoothing", 0.1, lambda v: 0 <= v < 1)
    pda_threshold: int = _key("train.pda_threshold", 14, lambda v: v >= 0)
    # pretraining stand-in
    pretrain_epochs: int = _key("pretrain.epochs", 30, lambda v: v >= 0)
    pretrain_lr: float = _key("pretrain.lr", 0.05, lambda v: v > 0)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                value = _KINDS[f.type].as_parsed(value)
            except TypeError as exc:
                raise _refused(f.name, f"value {value!r} is not {exc}") from None
            # Stored as the parser would produce it (an int given for a float
            # key becomes a float), so serialisation and the hash match the
            # parsed document's.
            object.__setattr__(self, f.name, value)
            check = f.metadata["check"]
            if check is not None and not check(value):
                raise _refused(f.name, f"value {value!r} violates its constraint")
        if self.task_classes > self.pretrain_classes:
            raise _refused("task_classes", "must not exceed pretrain_classes")
        if self.target_class_count is not None and not (
                1 <= self.target_class_count <= self.task_classes):
            raise _refused("target_class_count", "out of range")
        if self.translation and len(self.translation) != self.input_dim:
            raise _refused("translation", f"length must equal {_key_of('input_dim')}")
        # Every run probes the domain gap between source and target; the
        # target is the smaller domain.
        target_samples = (self.target_class_count or self.task_classes) * self.samples_per_class
        if target_samples < PROBE_MIN_SAMPLES:
            raise _refused(
                "samples_per_class", f"the target domain holds {target_samples} samples, "
                f"the domain-gap probe needs at least {PROBE_MIN_SAMPLES}")
        # No class can be predicted for more target samples than there are.
        if self.mode == "pda" and self.pda_threshold > target_samples:
            raise _refused(
                "pda_threshold", f"{self.pda_threshold} exceeds the {target_samples} "
                "target samples, so every class would fall below it")


def _key_of(attr: str) -> str:
    return ExperimentConfig.__dataclass_fields__[attr].metadata["key"]


def _refused(attr: str, message: str) -> ConfigError:
    """The configuration error for field ``attr``, naming its document key."""
    return ConfigError(f"key {_key_of(attr)!r}: {message}")


# key -> (attribute, parser, constraint or None), in field order; a field whose
# declared type has no kind fails here, at import.
SCHEMA: dict[str, tuple[str, object, object]] = {
    f.metadata["key"]: (f.name, _KINDS[f.type].parse, f.metadata["check"])
    for f in fields(ExperimentConfig)
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
        attr, parsed = parse_value(key, value)
        values[attr] = parsed
    return ExperimentConfig(**values)


def parse_value(key: str, text: str) -> tuple[str, object]:
    """The attribute of document key ``key`` and the value ``text`` parses to;
    text that does not parse raises a ConfigError naming the key."""
    attr, parser, _ = SCHEMA[key]
    try:
        return attr, parser(text)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {text!r} ({exc})") from exc


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical document: every key in schema order."""
    lines = [f"{f.metadata['key']} = {_KINDS[f.type].format(getattr(cfg, f.name))}"
             for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:16]
