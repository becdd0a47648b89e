import math
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from dpfedsim.config import ExperimentConfig, parse_config, parse_label_split


def write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_empty_file_gives_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, ""))
    assert cfg == ExperimentConfig()
    assert cfg.sigma == 0.8
    assert cfg.clip_threshold == 1.5
    assert cfg.delta == 1e-5
    assert cfg.batch_size == 32
    assert cfg.eta == 0.002
    assert cfg.rounds == 30
    assert cfg.algorithm == "gcfl"
    assert cfg.seeds == (1, 2, 3)


def test_parses_keys_comments_and_blanks(tmp_path):
    cfg = parse_config(
        write(
            tmp_path,
            """
            # experiment sweep 4
            rounds = 12

            eta = 0.01  # bigger steps
            algorithm = dp_scaffold
            seeds = 7, 8
            layer_sizes = 6,4,3
            record_timing = false
            """,
        )
    )
    assert cfg.rounds == 12
    assert cfg.eta == 0.01
    assert cfg.algorithm == "dp_scaffold"
    assert cfg.seeds == (7, 8)
    assert cfg.layer_sizes == (6, 4, 3)
    assert cfg.record_timing is False


def test_unknown_key_lists_valid_ones(tmp_path):
    with pytest.raises(ValueError) as exc:
        parse_config(write(tmp_path, "learning_rate = 0.1\n"))
    msg = str(exc.value)
    assert "unknown config key 'learning_rate'" in msg
    assert "eta" in msg and "sigma" in msg  # the valid keys are listed


def test_removed_parallel_clients_key_is_unknown_with_its_line(tmp_path):
    for key, raw in (
        ("parallel_clients", "true"),
        ("eval_batch_size", "1024"),
        ("sampling_rate", "0.5"),
        ("order_seed", "0"),
        ("weighting", "uniform"),
        ("partition", "label_split"),
    ):
        with pytest.raises(ValueError) as exc:
            parse_config(write(tmp_path, f"rounds = 5\n{key} = {raw}\n"))
        msg = str(exc.value)
        assert f"unknown config key '{key}'" in msg
        assert "exp.cfg:2" in msg
        with pytest.raises(ValueError) as exc:
            parse_config(write(tmp_path, ""), [f"{key}={raw}"])
        msg = str(exc.value)
        assert f"unknown config key '{key}' (--override)" in msg
        valid = msg.split("valid keys: ", 1)[1].split(", ")
        assert valid == sorted(f.name for f in fields(ExperimentConfig))


def test_parse_error_reports_line_number(tmp_path):
    with pytest.raises(ValueError, match=":3"):
        parse_config(write(tmp_path, "rounds = 5\n# fine\nnot a pair\n"))


def test_type_error_names_key(tmp_path):
    with pytest.raises(ValueError, match="invalid value for rounds"):
        parse_config(write(tmp_path, "rounds = soon\n"))


def test_overrides_win_over_file(tmp_path):
    path = write(tmp_path, "rounds = 5\nsigma = 1.0\n")
    cfg = parse_config(path, ["rounds=9", "sigma=0.5"])
    assert cfg.rounds == 9
    assert cfg.sigma == 0.5


def test_a_key_repeated_in_the_file_names_both_lines(tmp_path):
    path = write(tmp_path, "rounds = 5\n# fine\nsigma = 1.0\nrounds = 7\n")
    with pytest.raises(ValueError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}:4: rounds is set again; line 1 set it first"
    # an override still replaces the value of the one line that sets a key
    once = write(tmp_path, "rounds = 5\n")
    assert parse_config(once, ["rounds=9"]).rounds == 9


def test_a_key_repeated_among_the_overrides_is_an_error(tmp_path):
    path = write(tmp_path, "rounds = 5\n")
    with pytest.raises(ValueError) as err:
        parse_config(path, ["rounds=1", "sigma=0.5", "rounds = 2"])
    assert str(err.value) == "--override: rounds is set twice"
    # the same value twice is still a repeat
    with pytest.raises(ValueError, match="rounds is set twice"):
        parse_config(path, ["rounds=1", "rounds=1"])


def test_override_unknown_key_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(write(tmp_path, ""), ["bogus=1"])
    with pytest.raises(ValueError, match="key=value"):
        parse_config(write(tmp_path, ""), ["no_equals_sign"])


def test_sigma_validation_message_uses_mechanism_name(tmp_path):
    with pytest.raises(ValueError, match="noise_multiplier must be >= 0"):
        parse_config(write(tmp_path, "sigma = -1\n"))


def test_cross_field_validation(tmp_path):
    with pytest.raises(ValueError, match="clients_per_round"):
        parse_config(write(tmp_path, "n_clients = 2\nclients_per_round = 5\n"))
    with pytest.raises(ValueError, match="num_references"):
        parse_config(write(tmp_path, "n_clients = 2\nnum_references = 2\n"))
    with pytest.raises(ValueError, match="batch_size"):
        parse_config(write(tmp_path, "batch_size = 0\n"))
    with pytest.raises(ValueError, match="label_split"):
        parse_config(
            write(tmp_path, "label_split = 0-4;5-9\nn_clients = 3\n")
        )
    with pytest.raises(ValueError, match="dataset=idx requires"):
        parse_config(write(tmp_path, "dataset = idx\n"))


def test_num_references_is_checked_against_the_clients_in_a_round(tmp_path):
    """Correction picks references among a round's participants, so the
    bound is clients_per_round when it is set, not n_clients."""
    path = write(tmp_path, "n_clients = 6\nclients_per_round = 3\n")
    with pytest.raises(ValueError) as exc:
        parse_config(path, ["num_references=3"])
    msg = str(exc.value)
    assert "num_references" in msg and "clients_per_round" in msg
    assert "n_clients" in msg
    assert parse_config(path, ["num_references=2"]).num_references == 2
    cfg = parse_config(write(tmp_path, "n_clients = 6\nnum_references = 5\n"))
    assert cfg.num_references == 5


def test_budget_is_set_only_between_zero_and_inf():
    for budget in (0.0, math.inf):  # no budget: no noise is needed
        assert ExperimentConfig(sigma=0, epsilon_budget=budget).sigma == 0
    with pytest.raises(ValueError, match=r"^epsilon_budget: .*sigma == 0 has infinite"):
        ExperimentConfig(sigma=0, epsilon_budget=5.0)
    # 2**40 + 1 fixed_size steps at sigma = 0.8 spend about 5.154e12
    with pytest.raises(ValueError, match=r"^epsilon_budget: .* more than 2\*\*40"):
        ExperimentConfig(epsilon_budget=7.04e12)


@pytest.mark.parametrize(
    "mode, low, high", [("poisson", 1e-162, 2e154), ("fixed_size", 2e-162, 3e154)]
)
def test_sigma_whose_charged_square_is_zero_or_inf_is_refused(mode, low, high):
    """The accountant divides by (sigma / s)**2, s the sensitivity.  Below
    low that square underflows to 0, and above high it overflows (Python's
    float ** raises); the config refuses such a sigma and accepts 2 low and
    high / 2."""
    for sigma in (low, high):
        with pytest.raises(ValueError, match=r"^sigma: .* must be a finite float > 0$"):
            ExperimentConfig(sampling_mode=mode, sigma=sigma)
    for sigma in (2 * low, high / 2):
        assert ExperimentConfig(sampling_mode=mode, sigma=sigma).epsilon_after(1)[0] > 0


def test_parse_label_split():
    assert parse_label_split("0-4;5-9") == [set(range(5)), set(range(5, 10))]
    assert parse_label_split("0,2;1,3-5") == [{0, 2}, {1, 3, 4, 5}]
    with pytest.raises(ValueError):
        parse_label_split("0-4;;5-9")
    with pytest.raises(ValueError):
        parse_label_split("4-2")


def test_resolved_is_serializable_view():
    cfg = ExperimentConfig()
    view = cfg.resolved()
    assert view["sigma"] == 0.8
    assert view["seeds"] == "1,2,3"
    assert view["layer_sizes"] == ""
    assert set(view) == {f for f in view}


FLOAT_KEYS = [
    "synthetic_spread",
    "eta",
    "prox_mu",
    "sigma",
    "clip_threshold",
    "delta",
    "epsilon_budget",
]


def test_float_keys_are_every_float_field():
    floats = [f.name for f in fields(ExperimentConfig) if f.type == "float"]
    assert floats == FLOAT_KEYS


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_is_a_parse_error_naming_the_key(tmp_path, key, raw):
    path = write(tmp_path, f"{key} = {raw}\n")
    if key == "epsilon_budget" and raw == "inf":  # inf means no budget
        assert parse_config(path).epsilon_budget == math.inf
        return
    with pytest.raises(ValueError) as exc:
        parse_config(path)
    assert str(exc.value).startswith(f"{key} must be finite")


# case -> overrides that make the value (or pairing) of the case's key, the
# part before any "-", invalid
BAD_VALUES = {
    "dataset": {"dataset": "mnist"},
    "train_images": {"dataset": "idx", "train_labels": "a", "test_images": "b",
                     "test_labels": "c"},
    "train_labels": {"dataset": "idx", "train_images": "a", "test_images": "b",
                     "test_labels": "c"},
    "test_images": {"dataset": "idx", "train_images": "a", "train_labels": "b",
                    "test_labels": "c"},
    "test_labels": {"dataset": "idx", "train_images": "a", "train_labels": "b",
                    "test_images": "c"},
    # an IDX path the synthetic dataset would ignore
    "train_images-synthetic": {"dataset": "synthetic", "train_images": "a"},
    "test_labels-synthetic": {"test_labels": "a"},
    "synthetic_classes": {"synthetic_classes": "1"},
    "synthetic_per_class": {"synthetic_per_class": "0"},
    "synthetic_dim": {"synthetic_dim": "0"},
    "synthetic_spread": {"synthetic_spread": "-0.5"},
    "subsample_train": {"subsample_train": "-1"},
    "subsample_test": {"subsample_test": "-1"},
    "label_split": {"label_split": "0-4;;5-9"},
    "layer_sizes": {"layer_sizes": "6,0,3"},
    "n_clients": {"n_clients": "0"},
    "clients_per_round": {"clients_per_round": "3"},
    "rounds": {"rounds": "0"},
    "local_steps": {"local_steps": "0"},
    "eta": {"eta": "0"},
    "batch_size": {"batch_size": "-1"},
    "sampling_mode": {"sampling_mode": "uniform"},
    "algorithm": {"algorithm": "fedsgd"},
    "prox_mu": {"prox_mu": "-1"},
    "sigma": {"sigma": "-1"},
    "clip_threshold": {"clip_threshold": "0"},
    "delta": {"delta": "1"},
    "epsilon_budget": {"epsilon_budget": "-1"},
    "correction_mode": {"correction_mode": "global"},
    "num_references": {"num_references": "-1"},
    "seeds": {"seeds": "1,-2"},
    "record_timing": {"record_timing": "sometimes"},
}


def test_bad_value_cases_cover_every_key():
    keys = {case.split("-")[0] for case in BAD_VALUES}
    assert keys == {f.name for f in fields(ExperimentConfig)}


@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_every_value_error_names_its_key(tmp_path, case):
    overrides = [f"{k}={v}" for k, v in BAD_VALUES[case].items()]
    with pytest.raises(ValueError) as exc:
        parse_config(write(tmp_path, ""), overrides)
    assert case.split("-")[0] in str(exc.value)


def test_config_is_frozen_and_replace_validates():
    cfg = ExperimentConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.sigma = 2.0
    assert replace(cfg, sigma=2.0).sigma == 2.0
    with pytest.raises(ValueError, match="algorithm"):
        replace(cfg, algorithm="fedsgd")
