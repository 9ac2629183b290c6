import functools
import inspect
import json
import shlex
import sys
import warnings
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from statecov import cli
from statecov.attacks import AttackConfig, attack_suite
from statecov.cli import build_parser, main
from statecov.coverage import CoverageTracker, StateProfile, profile
from statecov.datasets import load_csv, save_csv
from statecov.diversity import BIN_EDGES, NUM_BINS, haar_densities
from statecov.fuzz import FuzzConfig, fuzz, mutate, random_test
from statecov.qnn import (
    AnsatzSpec, EncoderSpec, LabeledDataset, build_model, forward_batch, load_model, save_model,
)
from statecov.sim import adjoint_sweep, apply_circuit_batch

import golden
from fixtures import gaussian_blobs


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.csv"
    save_csv(golden.chain_data(), path)
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_csv):
    out = tmp_path_factory.mktemp("train_out")
    code = main(
        [
            "train",
            "--dataset", str(data_csv),
            "--out-dir", str(out),
            "--qubits", "4",
            "--epochs", "30",
            "--learning-rate", "0.1",
            "--seed", "0",
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def profile_dir(tmp_path_factory, trained_dir, data_csv):
    out = tmp_path_factory.mktemp("profile_out")
    code = main(
        [
            "profile",
            "--model", str(trained_dir / "model.json"),
            "--dataset", str(data_csv),
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    return out


class TestTrain:
    def test_outputs_written(self, trained_dir):
        assert (trained_dir / "model.json").exists()
        assert (trained_dir / "loss_history.csv").exists()
        summary = json.loads((trained_dir / "summary.json").read_text())
        assert 0.0 <= summary["train_accuracy"] <= 1.0

    def test_resolved_config_records_flags(self, trained_dir):
        doc = json.loads((trained_dir / "resolved_config.json").read_text())
        assert doc["command"] == "train"
        assert doc["epochs"] == 30
        assert doc["optimizer"] == "adam"  # built-in default filled in

    def test_missing_dataset_is_config_error(self, tmp_path, capsys):
        code = main(["train", "--dataset", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_dataset_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,f2,f3,label\n0.1,nan,0.2,0.3,0\n")
        code = main(["train", "--dataset", str(bad), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "bad.csv:2: column f1" in capsys.readouterr().err

    def test_dataset_without_feature_columns_is_config_error(self, tmp_path, capsys):
        bare = tmp_path / "bare.csv"
        bare.write_bytes(b"label\r\n0\r\n1\r\n")
        code = main(["train", "--dataset", str(bare), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        # EncoderSpec's input_dim check, named by the file
        assert f"error: dataset {bare}: input_dim must be >= 1, got 0\n" == capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rerun_from_resolved_config_reproduces(self, trained_dir, tmp_path):
        doc = json.loads((trained_dir / "resolved_config.json").read_text())
        doc.pop("command")
        doc["out_dir"] = str(tmp_path / "rerun")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg_path)]) == 0
        original = (trained_dir / "model.json").read_text()
        rerun = (tmp_path / "rerun" / "model.json").read_text()
        assert original == rerun


class TestProfile:
    def test_profile_written(self, profile_dir):
        doc = json.loads((profile_dir / "profile.json").read_text())
        assert len(doc["lower"]) == 16
        assert all(l <= u for l, u in zip(doc["lower"], doc["upper"]))

    def test_mad_flag(self, trained_dir, data_csv, tmp_path):
        code = main(
            [
                "profile",
                "--model", str(trained_dir / "model.json"),
                "--dataset", str(data_csv),
                "--out-dir", str(tmp_path),
                "--mad",
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "profile.json").read_text())
        assert doc["mad_lower"] is not None

    def test_mad_cut_that_keeps_no_sample(self, trained_dir, data_csv, tmp_path):
        # a state whose every sample fails the cut keeps its samples nearest the median
        argv = ["profile", "--model", str(trained_dir / "model.json"), "--dataset", str(data_csv),
                "--mad", "--confidence", "1e-300", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        doc = json.loads((tmp_path / "profile.json").read_text())
        lower, upper = np.array(doc["lower"]), np.array(doc["upper"])
        mad_lower, mad_upper = np.array(doc["mad_lower"]), np.array(doc["mad_upper"])
        assert np.all((lower <= mad_lower) & (mad_lower <= mad_upper) & (mad_upper <= upper))

    def test_digest_mismatch_warns(self, trained_dir, tmp_path, capsys):
        other = tmp_path / "other.csv"
        save_csv(gaussian_blobs(2, 10, 4, seed=99), other)
        code = main(
            [
                "profile",
                "--model", str(trained_dir / "model.json"),
                "--dataset", str(other),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert "digest" in capsys.readouterr().err

    def test_per_class_cap_keeps_the_first_rows_of_each_class(
        self, trained_dir, data_csv, tmp_path
    ):
        model_path = str(trained_dir / "model.json")
        args = ["--model", model_path, "--dataset", str(data_csv), "--per-class-cap", "3"]
        assert main(["profile", *args, "--out-dir", str(tmp_path)]) == 0
        model, data = load_model(model_path), load_csv(data_csv)
        by_class = [np.flatnonzero(data.labels == c) for c in np.unique(data.labels)]
        first, last = (
            profile(model, data.subset(np.sort(np.concatenate([idx[cut] for idx in by_class]))))
            for cut in (slice(None, 3), slice(-3, None))
        )
        got = StateProfile.from_json(tmp_path / "profile.json")
        assert np.array_equal(got.lower, first.lower) and np.array_equal(got.upper, first.upper)
        assert not np.array_equal(got.lower, last.lower)

    def test_missing_model_is_config_error(self, data_csv, tmp_path):
        code = main(
            [
                "profile",
                "--model", str(tmp_path / "ghost.json"),
                "--dataset", str(data_csv),
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2


class TestCoverage:
    def test_report_written(self, trained_dir, profile_dir, data_csv, tmp_path):
        code = main(
            [
                "coverage",
                "--model", str(trained_dir / "model.json"),
                "--profile", str(profile_dir / "profile.json"),
                "--suite", str(data_csv),
                "--out-dir", str(tmp_path),
                "--k", "20",
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert set(doc) >= {"ksc", "scc", "tsc"}
        assert doc["scc"] == 0.0  # suite equals the profiling set
        assert (tmp_path / "report.csv").exists()

    def test_stdout_summary(self, trained_dir, profile_dir, data_csv, tmp_path, capsys):
        main(
            [
                "coverage",
                "--model", str(trained_dir / "model.json"),
                "--profile", str(profile_dir / "profile.json"),
                "--suite", str(data_csv),
                "--out-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert "KSC=" in out and "SCC=" in out and "TSC=" in out

    def test_bad_boundary_mode_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coverage", "--boundary-mode", "median"])
        assert exc.value.code == 2


class TestAttack:
    @pytest.mark.parametrize("kind", ["random", "fgsm"])
    def test_attack_outputs(self, kind, trained_dir, data_csv, tmp_path):
        code = main(
            [
                "attack",
                "--model", str(trained_dir / "model.json"),
                "--dataset", str(data_csv),
                "--kind", kind,
                "--out-dir", str(tmp_path / kind),
            ]
        )
        assert code == 0
        data = load_csv(data_csv)
        acfg = AttackConfig(kind=kind)
        adv, asr = attack_suite(load_model(trained_dir / "model.json"), data, acfg)
        summary = json.loads((tmp_path / kind / "summary.json").read_text())
        assert summary == {"asr": asr, "num_inputs": len(data)} and 0.0 <= asr <= 1.0
        prov = json.loads((tmp_path / kind / "provenance.json").read_text())
        assert prov == {**asdict(acfg), "source_digest": data.digest(), "asr": asr}
        saved = load_csv(tmp_path / kind / "adversarial.csv")
        assert np.array_equal(saved.features, adv.features)
        assert np.array_equal(saved.labels, adv.labels)

    def test_random_attack_at_the_largest_int64_seed(self, trained_dir, data_csv, tmp_path):
        # row i draws from seed + i, which passes 2^63 - 1 from the second row on
        seed = 2**63 - 1
        code = main(
            [
                "attack",
                "--model", str(trained_dir / "model.json"),
                "--dataset", str(data_csv),
                "--kind", "random",
                "--seed", str(seed),
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        clean, eps = load_csv(data_csv).features, AttackConfig.epsilon
        adv = load_csv(tmp_path / "adversarial.csv").features
        for i, (row, x) in enumerate(zip(adv, clean)):
            noise = np.random.default_rng(seed + i).uniform(-eps, eps, size=x.size)
            assert np.array_equal(row, np.clip(x + noise, 0.0, 1.0))

    def test_invalid_epsilon_is_config_error(self, trained_dir, data_csv, tmp_path, capsys):
        code = main(
            [
                "attack",
                "--model", str(trained_dir / "model.json"),
                "--dataset", str(data_csv),
                "--epsilon", "-1",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: epsilon must be in [0, sys.float_info.max / 2], got -1.0\n"
        )


def _check_fuzz_outputs(out, outcome, fcfg):
    """The fuzz files in out hold outcome and its config fcfg."""
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {
        "tsr": outcome.tsr,
        "iterations": outcome.iterations,
        "num_failed_cases": len(outcome.failed_cases),
        "num_initial_seeds": outcome.num_initial_seeds,
        "coverage_before": asdict(outcome.coverage_before),
        "coverage_after": asdict(outcome.coverage_after),
    }
    assert json.loads((out / "manifest.json").read_text()) == asdict(fcfg)
    if len(outcome.failed_cases):
        saved = load_csv(out / "failed_cases.csv")
        assert np.array_equal(saved.features, outcome.failed_cases.features)
        assert np.array_equal(saved.labels, outcome.failed_cases.labels)
    else:
        assert not (out / "failed_cases.csv").exists()


class TestFuzz:
    def _inputs(self, trained_dir, profile_dir, data_csv):
        model = load_model(trained_dir / "model.json")
        return model, load_csv(data_csv), StateProfile.from_json(profile_dir / "profile.json")

    def test_guided_run(self, trained_dir, profile_dir, data_csv, tmp_path):
        code = main(
            [
                "fuzz",
                "--model", str(trained_dir / "model.json"),
                "--profile", str(profile_dir / "profile.json"),
                "--seeds", str(data_csv),
                "--criterion", "ksc",
                "--max-iterations", "150",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        fcfg = FuzzConfig(criterion="ksc", max_iterations=150)
        outcome = fuzz(*self._inputs(trained_dir, profile_dir, data_csv), fcfg)
        assert outcome.iterations <= 150 and len(outcome.failed_cases)
        _check_fuzz_outputs(tmp_path, outcome, fcfg)

    def test_random_baseline_flag(self, trained_dir, profile_dir, data_csv, tmp_path):
        code = main(
            [
                "fuzz",
                "--model", str(trained_dir / "model.json"),
                "--profile", str(profile_dir / "profile.json"),
                "--seeds", str(data_csv),
                "--random-baseline",
                "--reenqueue-prob", "0.5",
                "--max-iterations", "100",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "resolved_config.json").read_text())
        assert doc["random_baseline"] is True
        assert doc["reenqueue_prob"] == 0.5
        fcfg = FuzzConfig(max_iterations=100)
        inputs = self._inputs(trained_dir, profile_dir, data_csv)
        _check_fuzz_outputs(tmp_path, random_test(*inputs, fcfg, reenqueue_prob=0.5), fcfg)


def _histogram_csv(path):
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "bin_left,bin_right,density"
    return np.array([[float(v) for v in row.split(",")] for row in rows[1:]])


class TestDiversity:
    def test_outputs(self, trained_dir, data_csv, tmp_path):
        code = main(
            [
                "diversity",
                "--model", str(trained_dir / "model.json"),
                "--suite", str(data_csv),
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "diversity.json").read_text())
        assert 0.0 <= doc["js_vs_haar"] <= 1.0
        suite_hist = _histogram_csv(tmp_path / "suite_histogram.csv")
        haar = _histogram_csv(tmp_path / "haar_histogram.csv")
        assert suite_hist.shape == haar.shape == (NUM_BINS, 3)
        assert suite_hist[:, 2].sum() == pytest.approx(1.0, abs=1e-12)
        # the baseline is the exact 4-qubit Haar histogram, written bit for bit
        assert np.array_equal(haar[:, 2], haar_densities(4))
        assert np.array_equal(suite_hist[:, 0], BIN_EDGES[:-1])
        assert np.array_equal(haar[:, 1], BIN_EDGES[1:])
        resolved = json.loads((tmp_path / "resolved_config.json").read_text())
        assert "haar_samples" not in resolved

    def test_rerun_from_resolved_config_reproduces(self, trained_dir, data_csv, tmp_path):
        first = tmp_path / "first"
        argv = ["--model", str(trained_dir / "model.json"), "--suite", str(data_csv)]
        assert main(["diversity", *argv, "--seed", "3", "--out-dir", str(first)]) == 0
        doc = json.loads((first / "resolved_config.json").read_text())
        assert doc["command"] == "diversity"
        doc["out_dir"] = str(tmp_path / "rerun")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["diversity", "--config", str(cfg_path)]) == 0
        for name in ("diversity.json", "suite_histogram.csv", "haar_histogram.csv"):
            assert (first / name).read_text() == (tmp_path / "rerun" / name).read_text()

    def test_one_row_suite_is_config_error(self, trained_dir, tmp_path, capsys):
        suite = tmp_path / "suite.csv"
        save_csv(LabeledDataset(np.full((1, 4), 0.5), [0]), suite)
        out = tmp_path / "out"
        argv = ["--model", str(trained_dir / "model.json"), "--suite", str(suite)]
        assert main(["diversity", *argv, "--out-dir", str(out)]) == 2
        message = f"error: dataset {suite}: diversity needs at least 2 rows, got 1\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_haar_samples_flag_is_gone(self, trained_dir, data_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "diversity",
                    "--model", str(trained_dir / "model.json"),
                    "--suite", str(data_csv),
                    "--haar-samples", "100",
                    "--out-dir", str(tmp_path),
                ]
            )
        assert exc.value.code == 2


# resolved_config.json keys of each subcommand, after "command", in the order written
_RESOLVED_KEYS = {
    "train": [
        "dataset", "out_dir", "encoder", "qubits", "layers", "preset", "entanglement",
        "classes", "epochs", "learning_rate", "batch_size", "optimizer", "seed",
    ],
    "profile": [
        "model", "dataset", "out_dir", "shots", "seed", "mad", "per_class_cap", "confidence",
    ],
    "coverage": [
        "model", "profile", "suite", "out_dir", "k", "top_k", "boundary_mode", "shots", "seed",
    ],
    "attack": ["model", "dataset", "out_dir", "kind", "epsilon", "theta", "gamma", "seed"],
    "fuzz": [
        "model", "profile", "seeds", "out_dir", "criterion", "max_iterations", "alpha", "seed",
        "k", "top_k", "boundary_mode", "random_baseline", "reenqueue_prob",
    ],
    "diversity": ["model", "suite", "out_dir", "seed"],
}


def _parser_actions():
    """{command: {key: argparse action}} for every flag but --help and --config."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {
        command: {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
        for command, parser in sub.choices.items()
    }


def _wrong_file_value(action):
    """A config-file value of a JSON type that the flag would not accept."""
    if action.const is True:
        return "yes"
    return {int: 1.5, float: "0.5"}.get(action.type, 7)


def test_one_flag_per_resolved_key():
    flags = {c: sorted(a.option_strings for a in acts.values()) for c, acts in _parser_actions().items()}
    keys = {c: sorted(["--" + k.replace("_", "-")] for k in ks) for c, ks in _RESOLVED_KEYS.items()}
    assert flags == keys


def test_resolved_config_key_order(trained_dir, profile_dir, data_csv, tmp_path):
    model, data = str(trained_dir / "model.json"), str(data_csv)
    prof = str(profile_dir / "profile.json")
    runs = {
        "train": ["--dataset", data, "--epochs", "1"],
        "profile": ["--model", model, "--dataset", data],
        "coverage": ["--model", model, "--profile", prof, "--suite", data],
        "attack": ["--model", model, "--dataset", data],
        "fuzz": ["--model", model, "--profile", prof, "--seeds", data, "--max-iterations", "5"],
        "diversity": ["--model", model, "--suite", data],
    }
    for command, keys in _RESOLVED_KEYS.items():
        out = tmp_path / command
        assert main([command, *runs[command], "--out-dir", str(out)]) == 0, command
        doc = json.loads((out / "resolved_config.json").read_text())
        assert list(doc) == ["command", *keys], command


def test_readme_cli_lines_parse():
    """Every statecov line of README's CLI block parses, so the docs keep to the options."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    lines = [line for line in lines if line.startswith("statecov")]
    parser = build_parser()
    commands = [parser.parse_args(shlex.split(line)[1:]).command for line in lines]
    assert sorted(commands) == sorted(_RESOLVED_KEYS)


class TestConfigFile:
    def test_flag_overrides_config_file(self, data_csv, tmp_path):
        cfg = {"dataset": str(data_csv), "epochs": 2, "out_dir": str(tmp_path / "a")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["train", "--config", str(cfg_path), "--epochs", "3"])
        assert code == 0
        doc = json.loads((tmp_path / "a" / "resolved_config.json").read_text())
        assert doc["epochs"] == 3

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["train", "--config", str(cfg_path)]) == 2

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("train", "epochs", "ten"),
            ("train", "epochs", 2.5),
            ("train", "epochs", None),
            ("train", "learning_rate", True),
            ("train", "optimizer", "rmsprop"),
            ("train", "dataset", 3),
            ("profile", "mad", "yes"),
            ("coverage", "k", [10]),
            ("fuzz", "reenqueue_prob", "0.5"),
            *(
                pytest.param(command, key, _wrong_file_value(action), id=f"every-{command}-{key}")
                for command, actions in _parser_actions().items()
                for key, action in actions.items()
            ),
        ],
    )
    def test_wrong_type_in_config_file_is_config_error(self, tmp_path, capsys, command, key, value):
        # a config-file value that its flag would not parse is a usage error,
        # as a well-typed but invalid value is (test_invalid_epsilon_is_config_error)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"out_dir": str(tmp_path / "out"), key: value}))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert f"config file: {key} must be" in capsys.readouterr().err

    def test_integer_outside_float_range_is_config_error(self, data_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": str(data_csv), "learning_rate": 10**400}))
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config file: learning_rate is outside the float range" in err

    def test_integer_for_number_option_resolves_to_float(self, data_csv, tmp_path, monkeypatch):
        seen, real_train = [], cli.train

        def train(model, data, tcfg):
            seen.append(tcfg)
            return real_train(model, data, tcfg)

        monkeypatch.setattr(cli, "train", train)
        cfg = {"dataset": str(data_csv), "epochs": 1, "learning_rate": 1, "out_dir": str(tmp_path / "o")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert type(seen[0].learning_rate) is float
        assert '"learning_rate": 1.0,' in (tmp_path / "o" / "resolved_config.json").read_text()

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("train", {"epoch": 50}, "unknown key epoch for train"),
            ("diversity", {"haar_samples": 1000}, "unknown key haar_samples for diversity"),
            ("coverage", {"criterion": "ksc"}, "unknown key criterion for coverage"),
            ("train", {"command": "fuzz"}, "command 'fuzz' does not match train"),
            ("train", {"command": None}, "command None does not match train"),
        ],
    )
    def test_unknown_key_in_config_file_is_config_error(
        self, tmp_path, capsys, command, doc, message
    ):
        # an ignored key would silently fall back to its default
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**doc, "out_dir": str(tmp_path / "out")}))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert f"config file: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestBoundaryValidation:
    """Out-of-range and non-finite values are refused with a message that
    names the field, and exit 2, as a malformed file does."""

    @pytest.mark.parametrize(
        "command, flags, field",
        [
            ("train", ["--epochs", "0"], "epochs"),
            ("train", ["--learning-rate", "nan"], "learning_rate"),
            ("train", ["--batch-size", "0"], "batch_size"),
            ("attack", ["--epsilon", "nan"], "epsilon"),
            ("attack", ["--epsilon", "inf"], "epsilon"),
            ("attack", ["--kind", "jsma", "--theta", "-1"], "theta"),
            ("attack", ["--kind", "jsma", "--theta", "1.5"], "theta"),
            ("attack", ["--kind", "jsma", "--gamma", "nan"], "gamma"),
            ("profile", ["--per-class-cap", "-1"], "per_class_cap"),
            ("profile", ["--mad", "--confidence", "1.5"], "confidence"),
            ("fuzz", ["--max-iterations", "-3"], "max_iterations"),
            ("fuzz", ["--alpha", "nan"], "alpha"),
            ("fuzz", ["--random-baseline", "--reenqueue-prob", "7"], "reenqueue_prob"),
            ("profile", ["--shots", "0"], "shots"),
            ("coverage", ["--shots", "0"], "shots"),
            ("coverage", ["--k", "0"], "k_cells"),
            ("fuzz", ["--max-iterations", "0"], "max_iterations"),
            ("profile", ["--mad", "--confidence", "0"], "confidence"),
            ("train", ["--layers", "0"], "num_layers"),
            ("train", ["--qubits", "25"], "num_qubits 25 is above MAX_QUBITS"),
            ("train", ["--qubits", "0"], "num_qubits must be >= 1"),
            ("train", ["--qubits", "2"], "num_qubits 2 for angle encoding"),  # 4 features
            ("train", ["--encoder", "amplitude", "--qubits", "1"], "num_qubits 1"),
            ("train", ["--encoder", "amplitude", "--qubits", "1", "--classes", "1"], "2^num_qubits = 2"),
            ("attack", ["--epsilon", "-1"], "epsilon"),
            ("profile", ["--seed", "-1"], "seed must be >= 0"),
            # past what numpy draws with: an int64 shot count, a finite 2 eps for uniform
            ("profile", ["--shots", "9223372036854775808"], "shots"),
            ("coverage", ["--shots", "10000000000000000000"], "shots"),
            ("attack", ["--kind", "random", "--epsilon", "1e308"], "epsilon"),
        ],
    )
    def test_flag_out_of_range(
        self, command, flags, field, trained_dir, profile_dir, data_csv, tmp_path, capsys
    ):
        model, data = str(trained_dir / "model.json"), str(data_csv)
        prof = str(profile_dir / "profile.json")
        inputs = {
            "train": ["--dataset", data],
            "attack": ["--model", model, "--dataset", data],
            "profile": ["--model", model, "--dataset", data],
            "coverage": ["--model", model, "--profile", prof, "--suite", data],
            "fuzz": ["--model", model, "--profile", prof, "--seeds", data],
        }
        out = tmp_path / "out"
        assert main([command, *inputs[command], *flags, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err, err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "classes, labels, message",
        [
            # one class in the file: with --classes 1 every label is 0
            ("1", [0, 0], "training data must contain at least 2 classes"),
            ("0", [0, 1], "num_classes must be >= 1, got 0"),
            ("2", [0, 1, 2, 1, 3], "label 2 of data row 3 is outside [0, num_classes) with num_classes 2"),
            ("3", [0, -1, 2], "label -1 of data row 2 is outside [0, num_classes) with num_classes 3"),
            # the labels are checked as the file is read, before train sees one class
            ("1", [0, 1], "label 1 of data row 2 is outside [0, num_classes) with num_classes 1"),
            ("5", [0, 1], "num_classes 5 is above num_qubits 4"),
            ("2", [1, 1, 1, 1], "training data must contain at least 2 classes"),
        ],
    )
    def test_bad_class_count_or_label(self, classes, labels, message, tmp_path, capsys):
        data = tmp_path / "data.csv"
        save_csv(LabeledDataset(np.full((len(labels), 4), 0.5), labels), data)
        out = tmp_path / "out"
        argv = ["train", "--dataset", str(data), "--classes", classes, "--epochs", "1"]
        named = message.startswith("label")  # a dataset label is named by its file
        assert main([*argv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {f'dataset {data}: ' if named else ''}{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, suite", [("coverage", "--suite"), ("fuzz", "--seeds")])
    def test_mad_mode_names_a_profile_without_mad_bounds(
        self, command, suite, trained_dir, profile_dir, data_csv, tmp_path, capsys
    ):
        prof = profile_dir / "profile.json"  # written without --mad
        argv = [command, "--model", str(trained_dir / "model.json"), "--profile", str(prof),
                suite, str(data_csv), "--boundary-mode", "mad", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: profile {prof}: boundary_mode mad needs MAD bounds, which it lacks; "
            "re-run profile --mad\n"
        )
        assert not (tmp_path / "out").exists()

    def test_mad_profile_of_two_rows(self, trained_dir, tmp_path, capsys):
        data = tmp_path / "data.csv"
        save_csv(LabeledDataset(np.full((2, 4), 0.5), [0, 1]), data)
        argv = ["profile", "--model", str(trained_dir / "model.json"), "--dataset", str(data), "--mad"]
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err  # after the digest warning
        assert err.endswith("\nerror: MAD refinement needs at least 3 samples per state, got 2\n")

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("attack", ["--kind", "fgsm"]),
            ("attack", ["--kind", "jsma"]),
            ("attack", ["--kind", "random"]),
            ("fuzz", []),
            ("fuzz", ["--random-baseline"]),
        ],
        ids=["attack-fgsm", "attack-jsma", "attack-random", "fuzz-guided", "fuzz-random"],
    )
    def test_label_outside_model_classes(
        self, command, flags, trained_dir, profile_dir, tmp_path, capsys
    ):
        data = tmp_path / "data.csv"
        save_csv(LabeledDataset(np.full((3, 4), 0.5), [0, 5, 1]), data)
        model = str(trained_dir / "model.json")
        inputs = {
            "attack": ["--model", model, "--dataset", str(data)],
            "fuzz": ["--model", model, "--profile", str(profile_dir / "profile.json"),
                     "--seeds", str(data)],
        }
        out = tmp_path / "out"
        assert main([command, *inputs[command], *flags, "--out-dir", str(out)]) == 2
        message = f"dataset {data}: label 5 of data row 2 is outside [0, num_classes)"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_nan_model_param_is_config_error(self, trained_dir, data_csv, tmp_path, capsys):
        doc = json.loads((trained_dir / "model.json").read_text())
        doc["params"][3] = float("nan")
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        code = main(["attack", "--model", str(bad), "--dataset", str(data_csv), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "params: entry 3" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["lower", "upper", "sigma"])
    def test_nan_profile_bound_is_config_error(
        self, field, trained_dir, profile_dir, data_csv, tmp_path, capsys
    ):
        doc = json.loads((profile_dir / "profile.json").read_text())
        doc[field][5] = float("nan")
        bad = tmp_path / "profile.json"
        bad.write_text(json.dumps(doc))
        code = main(
            [
                "coverage",
                "--model", str(trained_dir / "model.json"),
                "--profile", str(bad),
                "--suite", str(data_csv),
                "--out-dir", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert f"{field}: entry 5 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, field, value, message",
        [
            ("model", "format_version", True, "format_version must be an integer"),
            ("model", "num_qubits", 4.7, "num_qubits must be an integer, got 4.7"),
            ("model", "encoder.input_dim", 4.9, "encoder.input_dim must be an integer, got 4.9"),
            ("model", "ansatz.num_layers", True, "ansatz.num_layers must be an integer, got True"),
            ("model", "num_classes", "2", "num_classes must be an integer, got '2'"),
            ("model", "params.0", "1.5", "params: entry 0 must be a number, got '1.5'"),
            ("model", "params.1", True, "params: entry 1 must be a number, got True"),
            ("model", "readout_qubits", [0.0, 1.9], "readout_qubits: entry 0 must be an integer"),
            ("model", "readout_qubits", 5, "readout_qubits must be a list, got 5"),
            ("model", "encoder.kind", ["angle"], "encoder.kind must be a string, got ['angle']"),
            ("model", "train_data_digest", {"a": 1}, "train_data_digest must be a string, got {'a': 1}"),
            ("profile", "format_version", True, "format_version must be an integer, got True"),
            ("profile", "provenance", [1, 2], "provenance must be a string, got [1, 2]"),
            ("profile", "lower.0", "0.1", "lower: entry 0 must be a number, got '0.1'"),
            ("profile", "lower.1", True, "lower: entry 1 must be a number, got True"),
            ("profile", "lower", {"a": 1}, "lower must be a list, got {'a': 1}"),
            ("profile", "upper.2", False, "upper: entry 2 must be a number, got False"),
            ("profile", "sigma", 0.5, "sigma must be a list, got 0.5"),
            ("profile", "mad_lower.3", "0", "mad_lower: entry 3 must be a number, got '0'"),
            ("profile", "mad_upper.3", False, "mad_upper: entry 3 must be a number, got False"),
            pytest.param(
                "model", "params.0", 10**400, "params: entry 0 is outside the float range",
                id="model-params.0-10**400",
            ),
            pytest.param(
                "profile", "lower.0", -(10**400), "lower: entry 0 is outside the float range",
                id="profile-lower.0--10**400",
            ),
        ],
    )
    def test_wrongly_typed_file_field_is_config_error(
        self, kind, field, value, message, trained_dir, profile_dir, data_csv, tmp_path, capsys
    ):
        """A file field of the wrong JSON type is refused by name, never
        turned into a number."""
        paths = {"model": trained_dir / "model.json", "profile": profile_dir / "profile.json"}
        doc = json.loads(paths[kind].read_text())
        if kind == "profile":  # MAD bounds equal to the raw ones, so there is a field to spoil
            doc["mad_lower"], doc["mad_upper"] = list(doc["lower"]), list(doc["upper"])
        *keys, last = field.split(".")
        node = doc
        for key in keys:
            node = node[int(key) if isinstance(node, list) else key]
        node[int(last) if isinstance(node, list) else last] = value
        paths[kind] = tmp_path / f"{kind}.json"
        paths[kind].write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["--model", str(paths["model"]), "--profile", str(paths["profile"])]
        assert main(["coverage", *argv, "--suite", str(data_csv), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["model", "profile"])
    def test_truncated_file_is_config_error_naming_it(
        self, kind, trained_dir, profile_dir, data_csv, tmp_path, capsys
    ):
        paths = {"model": trained_dir / "model.json", "profile": profile_dir / "profile.json"}
        bad = tmp_path / f"{kind}.json"
        bad.write_bytes(paths[kind].read_bytes()[:300])
        paths[kind] = bad
        out = tmp_path / "out"
        argv = ["--model", str(paths["model"]), "--profile", str(paths["profile"])]
        assert main(["coverage", *argv, "--suite", str(data_csv), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {kind} {bad}: not valid JSON: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [("coverage", []), ("fuzz", []), ("fuzz", ["--random-baseline"])],
        ids=["coverage", "fuzz-guided", "fuzz-random"],
    )
    def test_profile_of_another_qubit_count(
        self, command, flags, trained_dir, data_csv, tmp_path, capsys
    ):
        prof = tmp_path / "profile.json"
        StateProfile(lower=np.zeros(8), upper=np.ones(8)).to_json(prof)
        inputs = ["--model", str(trained_dir / "model.json"), "--profile", str(prof)]
        inputs += ["--suite" if command == "coverage" else "--seeds", str(data_csv)]
        out = tmp_path / "out"
        assert main([command, *inputs, *flags, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: profile {prof}: profile has 8 states but model produces 16\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["attack", "coverage", "fuzz", "profile", "diversity"])
    def test_dataset_of_another_feature_count(
        self, command, trained_dir, profile_dir, tmp_path, capsys
    ):
        data = tmp_path / "data.csv"
        save_csv(LabeledDataset(np.full((3, 3), 0.5), [0, 1, 0]), data)
        model = ["--model", str(trained_dir / "model.json")]
        prof = ["--profile", str(profile_dir / "profile.json")]
        inputs = {
            "attack": [*model, "--dataset", str(data)],
            "coverage": [*model, *prof, "--suite", str(data)],
            "fuzz": [*model, *prof, "--seeds", str(data)],
            "profile": [*model, "--dataset", str(data)],
            "diversity": [*model, "--suite", str(data)],
        }
        out = tmp_path / "out"
        assert main([command, *inputs[command], "--out-dir", str(out)]) == 2
        message = f"error: dataset {data}: 3 features per row, but the model's encoder.input_dim is 4\n"
        assert capsys.readouterr().err == message  # and no digest warning before it
        assert not out.exists()


    @pytest.mark.parametrize(
        "command", ["attack", "coverage", "diversity", "fuzz", "profile", "train"]
    )
    def test_all_zero_row_for_amplitude_encoding(self, command, tmp_path, capsys):
        model, prof, data = tmp_path / "model.json", tmp_path / "profile.json", tmp_path / "data.csv"
        save_model(build_model(EncoderSpec("amplitude", 4), AnsatzSpec("layered", 1, "linear"), 2, 2), model)
        StateProfile(lower=np.zeros(4), upper=np.ones(4)).to_json(prof)
        feats = np.full((3, 4), 0.5)
        feats[1] = 0.0
        save_csv(LabeledDataset(feats, [0, 1, 0]), data)
        inputs = {
            "attack": ["--model", str(model), "--dataset", str(data)],
            "coverage": ["--model", str(model), "--profile", str(prof), "--suite", str(data)],
            "diversity": ["--model", str(model), "--suite", str(data)],
            "fuzz": ["--model", str(model), "--profile", str(prof), "--seeds", str(data)],
            "profile": ["--model", str(model), "--dataset", str(data)],
            "train": ["--dataset", str(data), "--encoder", "amplitude", "--qubits", "2"],
        }
        out = tmp_path / "out"
        assert main([command, *inputs[command], "--out-dir", str(out)]) == 2
        message = (
            f"error: dataset {data}: data row 2 is all zeros, which amplitude encoding "
            "cannot map to a state\n"
        )
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, field",
        [("model", "extra"), ("model", "encoder.extra"), ("model", "ansatz.extra"),
         ("profile", "extra")],
    )
    def test_unknown_file_field_is_config_error(
        self, kind, field, trained_dir, profile_dir, data_csv, tmp_path, capsys
    ):
        """A key the file's schema does not declare is refused by name, as
        an unknown config-file key is."""
        paths = {"model": trained_dir / "model.json", "profile": profile_dir / "profile.json"}
        doc = json.loads(paths[kind].read_text())
        *parent, last = field.split(".")
        (doc[parent[0]] if parent else doc)[last] = 1
        paths[kind] = tmp_path / f"{kind}.json"
        paths[kind].write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["--model", str(paths["model"]), "--profile", str(paths["profile"])]
        assert main(["coverage", *argv, "--suite", str(data_csv), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {kind} {paths[kind]}: unknown field: {field}\n"
        assert not out.exists()

    def test_non_utf8_dataset_is_named(self, trained_dir, tmp_path, capsys):
        bad = tmp_path / "data.csv"
        bad.write_bytes(b"f0,f1,f2,f3,label\n0.5,0.5,0.5,0.5,0\n0.5,\xff,0.5,0.5,1\n")
        out = tmp_path / "out"
        argv = ["--model", str(trained_dir / "model.json"), "--dataset", str(bad)]
        assert main(["profile", *argv, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "can't decode byte 0xff" in err
        assert not out.exists()


class TestBadPaths:
    """A path that names the wrong kind of file system entry is a usage
    error naming the path, and a failed run leaves no output directory."""

    def test_model_path_is_a_directory(self, profile_dir, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--model", str(tmp_path), "--profile", str(profile_dir / "profile.json")]
        assert main(["coverage", *argv, "--suite", str(data_csv), "--out-dir", str(out)]) == 2
        message = f"error: model {tmp_path}: cannot read the file: Is a directory\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_dataset_path_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--dataset", str(tmp_path), "--out-dir", str(out)]) == 2
        message = f"error: dataset {tmp_path}: cannot read the file: Is a directory\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--config", str(tmp_path), "--out-dir", str(out)]) == 2
        message = f"error: config file {tmp_path}: cannot read the file: Is a directory\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "attack", "fuzz"])
    def test_out_dir_is_an_existing_file(
        self, command, trained_dir, profile_dir, data_csv, tmp_path, capsys
    ):
        model = ["--model", str(trained_dir / "model.json")]
        inputs = {
            "train": ["--dataset", str(data_csv), "--epochs", "1"],
            "attack": [*model, "--dataset", str(data_csv)],
            "fuzz": [*model, "--profile", str(profile_dir / "profile.json"),
                     "--seeds", str(data_csv), "--max-iterations", "20"],
        }
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert main([command, *inputs[command], "--out-dir", str(out)]) == 2
        message = f"error: out_dir {out}: cannot make the directory: File exists\n"
        assert capsys.readouterr().err == message
        assert out.read_text() == "kept\n"

    def test_out_dir_under_a_file(self, data_csv, tmp_path, capsys):
        parent = tmp_path / "taken"
        parent.write_text("kept\n")
        out = parent / "sub"
        assert main(["train", "--dataset", str(data_csv), "--epochs", "1", "--out-dir", str(out)]) == 2
        message = f"error: out_dir {out}: cannot make the directory: Not a directory\n"
        assert capsys.readouterr().err == message
        assert parent.read_text() == "kept\n"

    @pytest.mark.parametrize("command, output", [
        ("train", "model.json"),
        ("profile", "profile.json"),
        ("coverage", "report.csv"),
        ("attack", "provenance.json"),
        ("fuzz", "manifest.json"),
        ("diversity", "haar_histogram.csv"),
        ("diversity", "resolved_config.json"),
    ])
    def test_output_path_is_a_directory(
        self, command, output, trained_dir, profile_dir, data_csv, tmp_path, capsys
    ):
        model, prof = ["--model", str(trained_dir / "model.json")], str(profile_dir / "profile.json")
        inputs = {
            "train": ["--dataset", str(data_csv), "--epochs", "1"],
            "profile": [*model, "--dataset", str(data_csv)],
            "coverage": [*model, "--profile", prof, "--suite", str(data_csv)],
            "attack": [*model, "--dataset", str(data_csv)],
            "fuzz": [*model, "--profile", prof, "--seeds", str(data_csv), "--max-iterations", "20"],
            "diversity": [*model, "--suite", str(data_csv)],
        }
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        assert main([command, *inputs[command], "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out / output}: Is a directory\n"


def test_seeded_runs_are_byte_identical(data_csv, tmp_path):
    """Every stage run twice with the same seeds writes the same bytes; only
    the paths recorded in resolved_config.json differ between the roots."""
    roots = [tmp_path / "a", tmp_path / "b"]
    files = [golden.run_chain(data_csv, root) for root in roots]
    assert files[0] == files[1] and len(files[0]) > 30
    for rel in files[0]:
        a, b = (golden.masked_bytes(root / rel, root, data_csv) for root in roots)
        assert a == b, rel


def test_outputs_match_golden_manifest(data_csv, tmp_path):
    """The chain's outputs against tests/data/golden.json (see tests/golden.py):
    every byte on the recorded numpy and BLAS, and every integer on any other,
    where the float files that moved are named in a warning."""
    golden.run_chain(data_csv, tmp_path)
    recorded = json.loads(golden.MANIFEST.read_text())
    errors, moved = golden.check(recorded, golden.manifest(tmp_path, data_csv))
    assert errors == []
    if moved:
        warnings.warn(f"outputs moved on {golden.stack()}, recorded on {recorded['stack']}: "
                      + ", ".join(moved))


def test_chain_does_the_pinned_work(data_csv, tmp_path, monkeypatch):
    """The seeded chain's calls and rows of the five functions that carry
    its work. Each is counted in every statecov namespace that holds it, so
    an extra or lost pass fails here even when every output stays the same.
    Rows of the simulator passes are amplitudes, rows times 2^q."""
    counted = {
        apply_circuit_batch: ("states", np.size),
        adjoint_sweep: ("states", np.size),
        forward_batch: ("xs", len),
        mutate: ("xs", len),
        CoverageTracker.locate: ("pvs", len),
    }
    calls, rows = Counter(), Counter()

    def counting(fn, arg, size):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            rows[fn.__name__] += size(signature.bind(*args, **kwargs).arguments[arg])
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {fn: counting(fn, arg, size) for fn, (arg, size) in counted.items()}
    monkeypatch.setattr(CoverageTracker, "locate", wrappers.pop(CoverageTracker.locate))
    for modname, mod in list(sys.modules.items()):
        if modname.partition(".")[0] == "statecov":
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[obj])
    golden.run_chain(data_csv, tmp_path)
    assert {name: calls[name] for name in calls if name != "locate"} == {
        "apply_circuit_batch": 28, "adjoint_sweep": 8, "forward_batch": 20, "mutate": 11,
    }
    assert dict(rows) == {
        "apply_circuit_batch": 13808, "adjoint_sweep": 4848, "forward_batch": 560,
        "mutate": 200, "locate": 224,
    }


def test_golden_check_catches_one_flipped_byte(data_csv, tmp_path):
    """A digit flipped in a float file fails on the recorded stack only; a
    flipped label fails on any stack. Another numpy, or another OpenBLAS
    kernel under the same numpy, is another stack."""
    golden.run_chain(data_csv, tmp_path)
    recorded = golden.manifest(tmp_path, data_csv)
    for name in ("diversity/suite_histogram.csv", "attack_fgsm/adversarial.csv"):
        raw = bytearray((tmp_path / name).read_bytes())
        raw[-3] ^= 1  # the last value's last digit: 0 <-> 1, 2 <-> 3, ...
        (tmp_path / name).write_bytes(bytes(raw))
    current = golden.manifest(tmp_path, data_csv)
    flipped = ["attack_fgsm/adversarial.csv", "diversity/suite_histogram.csv"]
    errors, moved = golden.check(recorded, current)
    assert moved == flipped and errors[0].startswith(f"{flipped[0]}: integers ")
    assert errors[1:] == [f"{name}: bytes moved" for name in flipped]
    for key in ("numpy", "kernel"):
        assert key in recorded["stack"]
        elsewhere = {**recorded, "stack": {**recorded["stack"], key: "another"}}
        assert golden.check(elsewhere, current) == (errors[:1], flipped)


def _numeric_flags():
    """(command, option string, dest, type) for every int or float flag."""
    from statecov.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.type in (int, float):
                yield command, action.option_strings[0], action.dest, action.type


# the field a range error names, where it is not the flag's own key
_FIELD = {"k": "k_cells", "qubits": "num_qubits", "layers": "num_layers", "classes": "num_classes"}

_NUMERIC_CASES = [
    (command, flag, dest, value)
    for command, flag, dest, kind in _numeric_flags()
    for value in (("nan", "inf", "-1") if kind is float else ("-1",))
]


class TestEveryNumericFlag:
    """nan, inf and -1 on every numeric flag: the run either exits 2 with a
    message naming the field, or exits 0, and never exits 1. Each command
    runs in the mode that reads the most flags (shots, the MAD bounds, the
    random attack and the random fuzz baseline); integer flags take -1 only,
    since argparse refuses nan and inf for them
    (test_int_flag_refuses_non_integers)."""

    @pytest.mark.parametrize("command, flag, dest, value", _NUMERIC_CASES)
    def test_exits_naming_field_or_succeeds(
        self, command, flag, dest, value, trained_dir, profile_dir, data_csv, tmp_path, capsys
    ):
        model, data = str(trained_dir / "model.json"), str(data_csv)
        prof = str(profile_dir / "profile.json")
        base = {
            "train": ["--dataset", data, "--epochs", "2"],
            "profile": ["--model", model, "--dataset", data, "--mad", "--shots", "200"],
            "coverage": ["--model", model, "--profile", prof, "--suite", data, "--shots", "200"],
            "attack": ["--model", model, "--dataset", data, "--kind", "random"],
            "fuzz": ["--model", model, "--profile", prof, "--seeds", data, "--random-baseline",
                     "--max-iterations", "30"],
            "diversity": ["--model", model, "--suite", data],
        }
        out = tmp_path / "out"
        code = main([command, *base[command], flag, value, "--out-dir", str(out)])
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("error: ") and _FIELD.get(dest, dest) in err, err
            assert not out.exists() or not any(out.iterdir())
        else:
            assert code == 0, err

    @pytest.mark.parametrize(
        "command, flag", sorted({(c, f) for c, f, _, kind in _numeric_flags() if kind is int})
    )
    def test_int_flag_refuses_non_integers(self, command, flag, capsys):
        for value in ("nan", "inf"):
            with pytest.raises(SystemExit) as exc:
                main([command, flag, value])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err
