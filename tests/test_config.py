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
    with pytest.raises(ValueError) as exc:
        parse_config(write(tmp_path, "rounds = 5\nparallel_clients = true\n"))
    msg = str(exc.value)
    assert "unknown config key 'parallel_clients'" in msg
    assert "exp.cfg:2" in msg


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
    with pytest.raises(ValueError, match="sampling_rate"):
        parse_config(write(tmp_path, "batch_size = 0\n"))
    with pytest.raises(ValueError, match="label_split"):
        parse_config(
            write(tmp_path, "partition = label_split\nn_clients = 3\n")
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
