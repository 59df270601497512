import math
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest

from probadapt.config import (SCHEMA, ExperimentConfig, config_hash, parse_config,
                              serialize_config)
from probadapt.data import PROBE_MIN_SAMPLES, make_uda_pair
from probadapt.errors import ConfigError


def test_empty_document_gives_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    # reference hyperparameter defaults
    assert cfg.momentum == 0.9
    assert cfg.weight_decay == 5e-4
    assert cfg.lambda2_a == 1.0
    assert cfg.lambda3_a == 0.25
    assert cfg.delta == 10.0
    assert cfg.label_smoothing == 0.1
    assert cfg.epochs == 20
    assert cfg.tau == 3e-4
    assert cfg.upsilon == 0.75
    assert cfg.head_lr_multiplier == 10.0


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="train.bogus"):
        parse_config("train.bogus = 3")
    with pytest.raises(ConfigError, match=r"unknown key 'train\.focal_gamma'"):
        parse_config("train.focal_gamma = 2")


def test_schedule_lambda1_is_an_unknown_key_named_with_its_line():
    # The classification loss is unweighted; a document that still sets its
    # old weight fails loudly instead of being half-read.
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'schedule\.lambda1'"):
        parse_config("seed = 0\nschedule.lambda1 = 1.0\n")


def test_type_error_names_key():
    with pytest.raises(ConfigError, match="train.epochs"):
        parse_config("train.epochs = soon")


def test_constraint_violation_named():
    with pytest.raises(ConfigError, match="train.epochs"):
        parse_config("train.epochs = 0")
    with pytest.raises(ConfigError, match="mode"):
        parse_config("mode = dance")
    with pytest.raises(ConfigError, match="task_classes"):
        parse_config("generator.pretrain_classes = 4\ngenerator.task_classes = 8")
    with pytest.raises(ConfigError, match=r"generator\.noise_scale"):
        parse_config("generator.noise_scale = -1.0")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nseed = 9  # trailing\n")
    assert cfg.seed == 9


def test_round_trip():
    # one key of every value kind off its default; an output path may hold
    # spaces and "="
    cfg = parse_config("mode = pda\nseed = 3\noutputs = runs/a b=c\ngenerator.rotation = 0.5\n"
                       "generator.translation = 0.1,0.2,0.3,0.4,0.5,0.6\n"
                       "generator.target_class_count = 2\n"
                       "train.cgi_updates_backbone = true\ntrain.beta_variant = max_prob\n")
    assert cfg.cgi_updates_backbone is True and cfg.beta_variant == "max_prob"
    assert cfg.outputs == "runs/a b=c"
    assert parse_config(serialize_config(cfg)) == cfg


def test_schema_has_one_entry_per_field_in_field_order():
    # The canonical serialisation, and so every config hash, follows this order.
    assert [attr for attr, _, _ in SCHEMA.values()] == [f.name for f in fields(ExperimentConfig)]
    assert len(SCHEMA) == 29
    assert list(SCHEMA) == [line.split(" = ", 1)[0]
                            for line in serialize_config(ExperimentConfig()).splitlines()]


# Output paths a "key = value" line cannot carry: a comment, a line break or
# surrounding whitespace would read back as another config, or not at all.
UNWRITABLE_OUTPUTS = ["runs/a#b", "runs/a\nseed = 5", "runs/a\r", "runs/a\u2028b",
                      " runs/a", "runs/a\t"]


@pytest.mark.parametrize("outputs", UNWRITABLE_OUTPUTS)
def test_outputs_the_document_cannot_carry_names_key(outputs):
    with pytest.raises(ConfigError, match="key 'outputs'"):
        ExperimentConfig(outputs=outputs)
    with pytest.raises(ConfigError, match="key 'outputs'"):
        replace(ExperimentConfig(), outputs=outputs)


def test_empty_outputs_names_key():
    # "outputs =" would resolve to the working directory
    with pytest.raises(ConfigError, match="key 'outputs'"):
        parse_config("outputs =\n")
    with pytest.raises(ConfigError, match="key 'outputs'"):
        replace(ExperimentConfig(), outputs="")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_names_key(seed):
    # the substreams read the seed as 64 bits: -1 would train 2**64 - 1's run, 2**64 seed 0's
    with pytest.raises(ConfigError, match="key 'seed'"):
        ExperimentConfig(seed=seed)
    with pytest.raises(ConfigError, match="key 'seed'"):
        parse_config(f"seed = {seed}\n")
    assert ExperimentConfig(seed=2**64 - 1).seed == 2**64 - 1


def test_round_trip_defaults():
    cfg = ExperimentConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_hash_stable_under_reordering():
    a = parse_config("seed = 4\ntrain.epochs = 7\n")
    b = parse_config("train.epochs = 7\nseed = 4\n")
    assert config_hash(a) == config_hash(b)
    c = parse_config("seed = 5\ntrain.epochs = 7\n")
    assert config_hash(a) != config_hash(c)


def test_optional_fields_parse():
    assert parse_config("generator.target_class_count = 2\n").target_class_count == 2
    assert parse_config("generator.target_class_count = none\n").target_class_count is None


def test_translation_length_checked():
    with pytest.raises(ConfigError, match="translation"):
        parse_config("generator.input_dim = 4\ngenerator.translation = 1.0,2.0\n")


def test_defaults_build_valid_components():
    cfg = ExperimentConfig()
    pair = make_uda_pair(cfg)
    assert pair.source.class_count == cfg.task_classes <= cfg.pretrain_classes
    assert len(pair.target) >= PROBE_MIN_SAMPLES


# Sample counts the pipeline cannot run: one sample per class cannot be split
# into a prototype half and a training half, and a target domain below the
# probe's minimum cannot be probed.
TOO_FEW_SAMPLES = [
    {"samples_per_class": 1},
    {"samples_per_class": 2},
    {"samples_per_class": 5, "target_class_count": 1},
]


def as_document(values):
    return "".join(f"generator.{attr} = {value}\n" for attr, value in values.items())


@pytest.mark.parametrize("values", TOO_FEW_SAMPLES)
def test_too_few_samples_names_key(values):
    match = r"generator\.samples_per_class"
    with pytest.raises(ConfigError, match=match):
        parse_config(as_document(values))
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(**values)
    with pytest.raises(ConfigError, match=match):
        replace(ExperimentConfig(), **values)


def test_fewest_runnable_samples_accepted():
    assert ExperimentConfig(samples_per_class=3).samples_per_class == 3
    assert ExperimentConfig(samples_per_class=10, target_class_count=1).target_class_count == 1
    assert PROBE_MIN_SAMPLES == 10


# pda configs whose threshold no class can reach: above the target's sample
# count, (target_class_count or task_classes) * samples_per_class.
UNREACHABLE_THRESHOLDS = [
    {"mode": "pda", "pda_threshold": 201},
    {"mode": "pda", "pda_threshold": 1000},
    {"mode": "pda", "pda_threshold": 51, "target_class_count": 1},
]


@pytest.mark.parametrize("values", UNREACHABLE_THRESHOLDS)
def test_unreachable_pda_threshold_names_key(values):
    document = "".join(f"{key} = {values[attr]}\n" for key, (attr, _, _) in SCHEMA.items()
                       if attr in values)
    match = r"train\.pda_threshold"
    with pytest.raises(ConfigError, match=match):
        parse_config(document)
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(**values)
    with pytest.raises(ConfigError, match=match):
        replace(ExperimentConfig(), **values)


def test_reachable_pda_threshold_accepted_and_hash_kept():
    assert ExperimentConfig(mode="pda", pda_threshold=200).pda_threshold == 200
    assert ExperimentConfig(mode="pda", pda_threshold=50, target_class_count=1).mode == "pda"
    # outside pda mode the threshold is unused, so it is not checked
    uda = ExperimentConfig(pda_threshold=1000)
    assert config_hash(replace(uda, pda_threshold=14)) == config_hash(ExperimentConfig())


def test_construction_validates_every_key():
    # A programmatic config and a replace() copy pass the checks a parsed
    # document passes, and the error names the document key.
    with pytest.raises(ConfigError, match="train.epochs"):
        ExperimentConfig(epochs=0)
    with pytest.raises(ConfigError, match="schedule.tau"):
        replace(ExperimentConfig(), tau=-1.0)
    with pytest.raises(ConfigError, match="train.momentum"):
        replace(ExperimentConfig(), momentum=1.5)
    with pytest.raises(ConfigError, match="generator.task_classes"):
        ExperimentConfig(task_classes=20)


def test_config_is_frozen():
    cfg = ExperimentConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.tau = -1.0
    assert cfg.tau == 3e-4


@pytest.mark.parametrize("values, key", [
    ({"epochs": "3"}, "train.epochs"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"cgi_updates_backbone": "false"}, "train.cgi_updates_backbone"),
    ({"cgi_updates_backbone": 0}, "train.cgi_updates_backbone"),
    ({"eta0": "0.1"}, "schedule.eta0"),
    ({"mode": None}, "mode"),
    ({"translation": "123456"}, "generator.translation"),
    ({"translation": (1.0, "2", 0.0, 0.0, 0.0, 0.0)}, "generator.translation"),
    ({"target_class_count": 2.0}, "generator.target_class_count"),
])
def test_wrongly_typed_value_names_key(values, key):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        ExperimentConfig(**values)
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        replace(ExperimentConfig(), **values)


FLOAT_KEYS = [key for key, (_, parser, _) in SCHEMA.items() if parser is float]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_nonfinite_float_names_key(key, text):
    attr = SCHEMA[key][0]
    match = key.replace(".", r"\.")
    with pytest.raises(ConfigError, match=match):
        parse_config(f"{key} = {text}\n")
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(**{attr: float(text)})
    with pytest.raises(ConfigError, match=match):
        replace(ExperimentConfig(), **{attr: float(text)})


def test_nonfinite_translation_element_names_key():
    match = r"generator\.translation"
    with pytest.raises(ConfigError, match=match):
        parse_config("generator.translation = 0,0,0,nan,0,0\n")
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(translation=(0.0, 0.0, 0.0, 0.0, 0.0, math.inf))
    with pytest.raises(ConfigError, match=match):
        replace(ExperimentConfig(), translation=(-math.inf, 0.0, 0.0, 0.0, 0.0, 0.0))


def test_int_beyond_float_range_names_key():
    with pytest.raises(ConfigError, match=r"schedule\.tau"):
        ExperimentConfig(tau=10 ** 400)
    with pytest.raises(ConfigError, match=r"schedule\.tau"):
        parse_config("schedule.tau = 1e400\n")


def test_int_for_float_key_stored_as_parsed():
    cfg = ExperimentConfig(tau=0, translation=[1, 0, 0, 0, 0, 0])
    parsed = parse_config("schedule.tau = 0\ngenerator.translation = 1,0,0,0,0,0\n")
    assert type(cfg.tau) is float
    assert cfg.translation == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert cfg == parsed
    assert serialize_config(cfg) == serialize_config(parsed)
    assert config_hash(cfg) == config_hash(parsed)


EXAMPLE_CFG = Path(__file__).resolve().parents[1] / "configs" / "example.cfg"


def test_example_config_lists_every_key_with_its_default():
    text = EXAMPLE_CFG.read_text(encoding="utf-8")
    keys = Counter(line.split("#", 1)[0].split("=", 1)[0].strip()
                   for line in text.splitlines() if "=" in line.split("#", 1)[0])
    assert keys == Counter(list(SCHEMA))
    cfg = parse_config(text)
    assert cfg == replace(ExperimentConfig(), outputs="runs/example")
    assert config_hash(cfg) == "7bbc26698552d498"
