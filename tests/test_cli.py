import json

import numpy as np
import pytest

from statecov.cli import main
from statecov.datasets import gaussian_blobs, save_csv
from statecov.diversity import NUM_BINS, FidelityHistogram
from statecov.qnn import LabeledDataset


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.csv"
    save_csv(gaussian_blobs(2, 20, 4, spread=0.1, seed=3), path)
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
        summary = json.loads((tmp_path / kind / "summary.json").read_text())
        assert 0.0 <= summary["asr"] <= 1.0
        prov = json.loads((tmp_path / kind / "provenance.json").read_text())
        assert prov["kind"] == kind
        assert (tmp_path / kind / "adversarial.csv").exists()

    def test_invalid_epsilon_internal_error(self, trained_dir, data_csv, tmp_path):
        code = main(
            [
                "attack",
                "--model", str(trained_dir / "model.json"),
                "--dataset", str(data_csv),
                "--epsilon", "-1",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 1


class TestFuzz:
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
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["iterations"] <= 150
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["criterion"] == "ksc"

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
        exact = FidelityHistogram.haar(4)
        assert np.array_equal(haar[:, 2], exact.densities)
        assert np.array_equal(haar[:, 0], exact.bin_edges[:-1])
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
        ],
    )
    def test_wrong_type_in_config_file_is_config_error(self, tmp_path, capsys, command, key, value):
        # the flag path keeps exit 1 for a well-typed but invalid value
        # (test_invalid_epsilon_internal_error); a config-file value that its
        # flag would not parse is a usage error
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value, "out_dir": str(tmp_path / "out")}))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert f"config file: {key} must be" in capsys.readouterr().err

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
    names the field. A flag value exits 1, as every range error does
    (test_invalid_epsilon_internal_error); a malformed file exits 2."""

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
        ],
    )
    def test_flag_out_of_range(
        self, command, flags, field, trained_dir, profile_dir, data_csv, tmp_path, capsys
    ):
        model, data = str(trained_dir / "model.json"), str(data_csv)
        inputs = {
            "train": ["--dataset", data],
            "attack": ["--model", model, "--dataset", data],
            "profile": ["--model", model, "--dataset", data],
            "fuzz": ["--model", model, "--profile", str(profile_dir / "profile.json"), "--seeds", data],
        }
        out = tmp_path / "out"
        assert main([command, *inputs[command], *flags, "--out-dir", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "classes, labels, message",
        [
            ("1", [0, 1], "num_classes must be >= 2 to train, got 1"),
            ("0", [0, 1], "num_classes must be >= 1, got 0"),
            ("2", [0, 1, 2, 1, 3], "label 2 of row 2 is outside [0, num_classes) with num_classes 2"),
            ("3", [0, -1, 2], "label -1 of row 1 is outside [0, num_classes) with num_classes 3"),
        ],
    )
    def test_bad_class_count_or_label(self, classes, labels, message, tmp_path, capsys):
        data = tmp_path / "data.csv"
        save_csv(LabeledDataset(np.full((len(labels), 4), 0.5), labels), data)
        out = tmp_path / "out"
        argv = ["train", "--dataset", str(data), "--classes", classes, "--epochs", "1"]
        assert main([*argv, "--out-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

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
        assert main([command, *inputs[command], *flags, "--out-dir", str(out)]) == 1
        assert "label 5 of row 1 is outside [0, num_classes)" in capsys.readouterr().err
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
    """nan, inf and -1 on every numeric flag: the run either exits 1 with a
    message naming the field, or exits 0. Each command runs in the mode that
    reads the most flags (shots, the MAD bounds, the random attack and the
    random fuzz baseline); integer flags take -1 only, since argparse refuses
    nan and inf for them (test_int_flag_refuses_non_integers)."""

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
        if code == 1:
            assert _FIELD.get(dest, dest) in err, err
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
