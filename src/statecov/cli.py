"""Command-line entry point.

Subcommands: train, profile, coverage, attack, fuzz, diversity. Every run
writes a resolved-config JSON next to its outputs so that re-running the
file reproduces the results. Exit codes: 0 success, 1 internal error,
2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .attacks import AttackConfig, attack_suite, save_attack_suite
from .coverage import (
    CoverageConfig,
    StateProfile,
    _check_profile,
    collect_prob_vectors,
    coverage_suite,
    mad_refine,
    profile_from_samples,
)
from .datasets import load_csv
from .diversity import suite_diversity
from .fuzz import FuzzConfig, fuzz, random_test, save_outcome
from .qnn import (
    AnsatzSpec,
    EncoderSpec,
    TrainConfig,
    build_model,
    load_model,
    save_model,
    train,
)


class ConfigError(Exception):
    """Bad user-supplied configuration; maps to exit code 2."""


def _load_file_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def _check_file_value(key, value, default, action) -> None:
    """Reject a config-file value that its flag would not accept."""
    if value is None and default is None:
        return
    if action.const is True:
        want, ok = "true or false", isinstance(value, bool)
    elif action.type is int:
        want, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
    elif action.type is float:
        want, ok = "a number", isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        want, ok = "a string", isinstance(value, str)
    if ok and action.choices and value not in action.choices:
        want, ok = "one of " + ", ".join(action.choices), False
    if not ok:
        raise ConfigError(f"config file: {key} must be {want}, got {value!r}")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Flag > config-file > built-in default, for every known key; unknown file keys are errors."""
    file_cfg = _load_file_config(getattr(args, "config", None))
    command = file_cfg.pop("command", args.command)
    if command != args.command:
        raise ConfigError(f"config file: command {command!r} does not match {args.command}")
    for key in file_cfg:
        if key not in defaults:
            raise ConfigError(f"config file: unknown key {key} for {args.command}")
    resolved = {}
    for key, default in defaults.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in file_cfg:
            _check_file_value(key, file_cfg[key], default, args.flags[key])
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    if resolved["seed"] < 0:  # every subcommand has one; numpy's own error would not name it
        raise ValueError(f"seed must be >= 0, got {resolved['seed']}")
    return resolved


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_resolved(cfg: dict, out: Path, command: str) -> None:
    doc = {"command": command}
    doc.update(cfg)
    with open(out / "resolved_config.json", "w") as fh:
        json.dump(doc, fh, indent=2, default=str)
        fh.write("\n")


def _load(loader, path, what):
    """loader(path); a missing path, a missing file and a malformed file are usage errors."""
    if path is None:
        raise ConfigError(f"a {what} path is required")
    try:
        return loader(path)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}")
    except ValueError as exc:  # malformed file: a usage error, not an internal one
        raise ConfigError(str(exc))


def _load_profile(path, model):
    """The profile at path; one whose state count is not the model's is a usage error."""
    return _load(lambda p: _check_profile(model, StateProfile.from_json(p)), path, "profile")


def cmd_train(args) -> int:
    cfg = _resolve(
        args,
        {
            "dataset": None,
            "out_dir": "train_out",
            "encoder": "angle",
            "qubits": 4,
            "layers": 2,
            "preset": "layered",
            "entanglement": "linear",
            "classes": 2,
            "epochs": 100,
            "learning_rate": 0.1,
            "batch_size": None,
            "optimizer": "adam",
            "seed": 0,
        },
    )
    data = _load(load_csv, cfg["dataset"], "dataset")
    encoder = EncoderSpec(kind=cfg["encoder"], input_dim=data.features.shape[1])
    ansatz = AnsatzSpec(
        preset=cfg["preset"], num_layers=int(cfg["layers"]), entanglement=cfg["entanglement"]
    )
    model = build_model(encoder, ansatz, int(cfg["qubits"]), int(cfg["classes"]), seed=int(cfg["seed"]))
    tcfg = TrainConfig(
        epochs=int(cfg["epochs"]),
        learning_rate=float(cfg["learning_rate"]),
        batch_size=None if cfg["batch_size"] is None else int(cfg["batch_size"]),
        optimizer=cfg["optimizer"],
        seed=int(cfg["seed"]),
    )
    trained, history = train(model, data, tcfg)
    out = _out_dir(cfg)
    save_model(trained, out / "model.json")
    with open(out / "loss_history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(history["loss"]):
            writer.writerow([epoch, repr(loss)])
    with open(out / "summary.json", "w") as fh:
        json.dump(
            {"train_accuracy": history["train_accuracy"], "final_loss": history["loss"][-1]},
            fh,
            indent=2,
        )
        fh.write("\n")
    _write_resolved(cfg, out, "train")
    print(f"train accuracy: {history['train_accuracy']:.4f}")
    return 0


def cmd_profile(args) -> int:
    cfg = _resolve(
        args,
        {
            "model": None,
            "dataset": None,
            "out_dir": "profile_out",
            "shots": None,
            "seed": 0,
            "mad": False,
            "per_class_cap": 100,
            "confidence": 0.99,
        },
    )
    model = _load(load_model, cfg["model"], "model")
    data = _load(load_csv, cfg["dataset"], "dataset")

    if model.train_data_digest and model.train_data_digest != data.digest():
        print(
            "warning: profiling data digest differs from the model's training data",
            file=sys.stderr,
        )

    # cap the profiling sample per class
    cap = int(cfg["per_class_cap"])
    if cap < 1:
        raise ValueError(f"per_class_cap must be >= 1, got {cap}")
    keep = []
    for c in np.unique(data.labels):
        idx = np.flatnonzero(data.labels == c)[:cap]
        keep.extend(idx.tolist())
    data = data.subset(sorted(keep))

    shots = None if cfg["shots"] is None else int(cfg["shots"])
    samples = collect_prob_vectors(model, data, shots=shots, seed=int(cfg["seed"]))
    if cfg["mad"]:
        prof = mad_refine(samples, confidence=float(cfg["confidence"]), provenance=data.digest())
    else:
        prof = profile_from_samples(samples, provenance=data.digest())
    out = _out_dir(cfg)
    prof.to_json(out / "profile.json")
    _write_resolved(cfg, out, "profile")
    print(f"profiled {len(data)} inputs over {prof.num_states} basis states")
    return 0


def cmd_coverage(args) -> int:
    cfg = _resolve(
        args,
        {
            "model": None,
            "profile": None,
            "suite": None,
            "out_dir": "coverage_out",
            "k": 100,
            "top_k": 1,
            "boundary_mode": "raw",
            "shots": None,
            "seed": 0,
        },
    )
    model = _load(load_model, cfg["model"], "model")
    prof = _load_profile(cfg["profile"], model)
    suite = _load(load_csv, cfg["suite"], "dataset")
    ccfg = CoverageConfig(
        k_cells=int(cfg["k"]), top_k=int(cfg["top_k"]), boundary_mode=cfg["boundary_mode"]
    )
    shots = None if cfg["shots"] is None else int(cfg["shots"])
    report = coverage_suite(model, suite, prof, ccfg, shots=shots, seed=int(cfg["seed"]))
    out = _out_dir(cfg)
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    report.to_csv(out / "report.csv")
    _write_resolved(cfg, out, "coverage")
    print(f"KSC={report.ksc:.2f}% SCC={report.scc:.2f}% TSC={report.tsc:.2f}%")
    return 0


def cmd_attack(args) -> int:
    cfg = _resolve(
        args,
        {
            "model": None,
            "dataset": None,
            "out_dir": "attack_out",
            "kind": "fgsm",
            "epsilon": 64.0 / 255.0,
            "theta": 1.0,
            "gamma": 0.1,
            "seed": 0,
        },
    )
    model = _load(load_model, cfg["model"], "model")
    data = _load(load_csv, cfg["dataset"], "dataset")
    acfg = AttackConfig(
        kind=cfg["kind"],
        epsilon=float(cfg["epsilon"]),
        theta=float(cfg["theta"]),
        gamma=float(cfg["gamma"]),
        seed=int(cfg["seed"]),
    )
    adv, asr = attack_suite(model, data, acfg)
    out = _out_dir(cfg)
    save_attack_suite(
        adv, acfg, data.digest(), out / "adversarial.csv", out / "provenance.json", asr=asr
    )
    with open(out / "summary.json", "w") as fh:
        json.dump({"asr": asr, "num_inputs": len(data)}, fh, indent=2)
        fh.write("\n")
    _write_resolved(cfg, out, "attack")
    print(f"attack success rate: {100.0 * asr:.1f}%")
    return 0


def cmd_fuzz(args) -> int:
    cfg = _resolve(
        args,
        {
            "model": None,
            "profile": None,
            "seeds": None,
            "out_dir": "fuzz_out",
            "criterion": "ksc",
            "max_iterations": 2000,
            "alpha": 0.2,
            "seed": 0,
            "k": 100,
            "top_k": 1,
            "boundary_mode": "raw",
            "random_baseline": False,
            "reenqueue_prob": 1.0,
        },
    )
    model = _load(load_model, cfg["model"], "model")
    prof = _load_profile(cfg["profile"], model)
    seeds = _load(load_csv, cfg["seeds"], "dataset")
    fcfg = FuzzConfig(
        criterion=cfg["criterion"],
        max_iterations=int(cfg["max_iterations"]),
        alpha=float(cfg["alpha"]),
        seed=int(cfg["seed"]),
        coverage=CoverageConfig(
            k_cells=int(cfg["k"]), top_k=int(cfg["top_k"]), boundary_mode=cfg["boundary_mode"]
        ),
    )
    if cfg["random_baseline"]:
        outcome = random_test(model, seeds, prof, fcfg, reenqueue_prob=float(cfg["reenqueue_prob"]))
    else:
        outcome = fuzz(model, seeds, prof, fcfg)
    out = _out_dir(cfg)
    save_outcome(outcome, fcfg, out)
    _write_resolved(cfg, out, "fuzz")
    print(
        f"TSR={outcome.tsr:.1f}% failures={len(outcome.failed_cases)} "
        f"iterations={outcome.iterations}"
    )
    return 0


def cmd_diversity(args) -> int:
    cfg = _resolve(
        args,
        {
            "model": None,
            "suite": None,
            "out_dir": "diversity_out",
            "seed": 0,
        },
    )
    model = _load(load_model, cfg["model"], "model")
    suite = _load(load_csv, cfg["suite"], "dataset")
    summary, suite_hist, haar_hist = suite_diversity(
        model.encoder, model.num_qubits, suite.features, seed=int(cfg["seed"])
    )
    out = _out_dir(cfg)
    with open(out / "diversity.json", "w") as fh:
        json.dump(summary.to_dict(), fh, indent=2)
        fh.write("\n")
    suite_hist.to_csv(out / "suite_histogram.csv")
    haar_hist.to_csv(out / "haar_histogram.csv")
    _write_resolved(cfg, out, "diversity")
    print(f"js_vs_haar={summary.js_vs_haar:.4f} mean_fidelity={summary.mean_fidelity:.4f}")
    return 0


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statecov",
        description="Train small quantum-circuit classifiers and evaluate test "
        "suites against them with state-coverage criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a classifier on a CSV dataset")
    _add_common(p)
    p.add_argument("--dataset")
    p.add_argument("--encoder", choices=["amplitude", "angle"])
    p.add_argument("--qubits", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--preset", choices=["layered", "entangling"])
    p.add_argument("--entanglement", choices=["linear", "cyclic", "star", "full"])
    p.add_argument("--classes", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--optimizer", choices=["sgd", "adam"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("profile", help="profile per-state probability boundaries")
    _add_common(p)
    p.add_argument("--model")
    p.add_argument("--dataset")
    p.add_argument("--shots", type=int)
    p.add_argument("--mad", action="store_const", const=True, default=None)
    p.add_argument("--per-class-cap", dest="per_class_cap", type=int)
    p.add_argument("--confidence", type=float)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("coverage", help="evaluate a test suite against a profile")
    _add_common(p)
    p.add_argument("--model")
    p.add_argument("--profile")
    p.add_argument("--suite")
    p.add_argument("--k", type=int)
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--boundary-mode", dest="boundary_mode", choices=["raw", "sigma", "mad"])
    p.add_argument("--shots", type=int)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("attack", help="generate adversarial or noisy inputs")
    _add_common(p)
    p.add_argument("--model")
    p.add_argument("--dataset")
    p.add_argument("--kind", choices=["random", "fgsm", "jsma"])
    p.add_argument("--epsilon", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--gamma", type=float)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("fuzz", help="coverage-guided fuzzing of a trained model")
    _add_common(p)
    p.add_argument("--model")
    p.add_argument("--profile")
    p.add_argument("--seeds")
    p.add_argument("--criterion", choices=["ksc", "scc", "tsc"])
    p.add_argument("--max-iterations", dest="max_iterations", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--boundary-mode", dest="boundary_mode", choices=["raw", "sigma", "mad"])
    p.add_argument(
        "--random-baseline",
        dest="random_baseline",
        action="store_const",
        const=True,
        default=None,
    )
    p.add_argument("--reenqueue-prob", dest="reenqueue_prob", type=float)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("diversity", help="suite diversity vs. a Haar baseline")
    _add_common(p)
    p.add_argument("--model")
    p.add_argument("--suite")
    p.set_defaults(func=cmd_diversity)

    for p in sub.choices.values():  # config-file values are checked against these
        p.set_defaults(flags={a.dest: a for a in p._actions})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
