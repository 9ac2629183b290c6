"""Command-line entry point.

Subcommands: train, profile, coverage, attack, fuzz, diversity. The library
returns values, and this module alone decides which files a run writes.
Every run writes a resolved-config JSON next to its outputs so that
re-running the file reproduces the results. Exit codes: 0 success, 1 internal
error, 2 a bad user value (a files.InputError, which names the field) or an
output that cannot be written.

OPTIONS declares every option once, as OPTIONS[command][key] = (kind,
default) in resolved-config order. The kind is int, float or str, a tuple of
choices, or bool for a flag that takes no value. The flags and the resolved
config are made from it, and config-file values are checked against it by
files.check, the model and profile files' kind check.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import files
from .files import InputError
from .attacks import ATTACK_KINDS, AttackConfig, attack_suite
from .coverage import (
    BOUNDARY_MODES,
    CRITERIA,
    CoverageConfig,
    StateProfile,
    _check_profile,
    coverage_suite,
    profile,
    resolve_boundaries,
)
from .datasets import load_csv, save_csv
from .diversity import BIN_EDGES, suite_diversity
from .fuzz import FuzzConfig, fuzz, random_test
from .qnn import (
    ANSATZ_PRESETS,
    ENCODER_KINDS,
    ENTANGLEMENTS,
    OPTIMIZERS,
    AnsatzSpec,
    EncoderSpec,
    TrainConfig,
    _check_labels,
    _feature_matrix,
    build_model,
    load_model,
    save_model,
    train,
)

_COVERAGE_OPTIONS = {
    "k": (int, CoverageConfig.k_cells),
    "top_k": (int, CoverageConfig.top_k),
    "boundary_mode": (BOUNDARY_MODES, CoverageConfig.boundary_mode),
}

OPTIONS = {
    "train": {
        "dataset": (str, None),
        "out_dir": (str, "train_out"),
        "encoder": (ENCODER_KINDS, "angle"),
        "qubits": (int, 4),
        "layers": (int, 2),
        "preset": (ANSATZ_PRESETS, "layered"),
        "entanglement": (ENTANGLEMENTS, "linear"),
        "classes": (int, 2),
        "epochs": (int, TrainConfig.epochs),
        "learning_rate": (float, TrainConfig.learning_rate),
        "batch_size": (int, TrainConfig.batch_size),
        "optimizer": (OPTIMIZERS, TrainConfig.optimizer),
        "seed": (int, TrainConfig.seed),
    },
    "profile": {
        "model": (str, None),
        "dataset": (str, None),
        "out_dir": (str, "profile_out"),
        "shots": (int, None),
        "seed": (int, 0),
        "mad": (bool, False),
        "per_class_cap": (int, 100),
        "confidence": (float, 0.99),
    },
    "coverage": {
        "model": (str, None),
        "profile": (str, None),
        "suite": (str, None),
        "out_dir": (str, "coverage_out"),
        **_COVERAGE_OPTIONS,
        "shots": (int, None),
        "seed": (int, 0),
    },
    "attack": {
        "model": (str, None),
        "dataset": (str, None),
        "out_dir": (str, "attack_out"),
        "kind": (ATTACK_KINDS, AttackConfig.kind),
        "epsilon": (float, AttackConfig.epsilon),
        "theta": (float, AttackConfig.theta),
        "gamma": (float, AttackConfig.gamma),
        "seed": (int, AttackConfig.seed),
    },
    "fuzz": {
        "model": (str, None),
        "profile": (str, None),
        "seeds": (str, None),
        "out_dir": (str, "fuzz_out"),
        "criterion": (CRITERIA, FuzzConfig.criterion),
        "max_iterations": (int, FuzzConfig.max_iterations),
        "alpha": (float, FuzzConfig.alpha),
        "seed": (int, FuzzConfig.seed),
        **_COVERAGE_OPTIONS,
        "random_baseline": (bool, False),
        "reenqueue_prob": (float, 1.0),
    },
    "diversity": {
        "model": (str, None),
        "suite": (str, None),
        "out_dir": (str, "diversity_out"),
        "seed": (int, 0),
    },
}

_HELP = {
    "train": "train a classifier on a CSV dataset",
    "profile": "profile per-state probability boundaries",
    "coverage": "evaluate a test suite against a profile",
    "attack": "generate adversarial or noisy inputs",
    "fuzz": "coverage-guided fuzzing of a trained model",
    "diversity": "suite diversity vs. a Haar baseline",
}


def _resolve(args: argparse.Namespace) -> dict:
    """Flag > config-file > built-in default, for every option of the
    command. Every file value must be of its option's kind, or null where the
    default is; unknown file keys are errors."""
    file_cfg = {}
    if args.config is not None:
        file_cfg = _load(lambda path: files.load(path, "config file"), args.config, "config file")
    command = file_cfg.pop("command", args.command)
    if command != args.command:
        raise InputError(f"config file: command {command!r} does not match {args.command}")
    options = OPTIONS[args.command]
    for key, value in file_cfg.items():
        if key not in options:
            raise InputError(f"config file: unknown key {key} for {args.command}")
        kind, default = options[key]
        if value is not None or default is not None:
            try:
                file_cfg[key] = files.check(key, value, kind)
            except ValueError as exc:
                raise InputError(f"config file: {exc}") from None
    resolved = {"command": args.command}  # the resolved_config.json a run writes
    for key, (_, default) in options.items():
        flag = getattr(args, key)
        resolved[key] = file_cfg.get(key, default) if flag is None else flag
    if resolved["seed"] < 0:  # every subcommand has one; numpy's own error would not name it
        raise InputError(f"seed must be >= 0, got {resolved['seed']}")
    return resolved


def _config(cls, cfg: dict, **given):
    """cls from given and, for each other field, cfg's entry of that name."""
    names = {field.name for field in fields(cls)} - given.keys()
    return cls(**given, **{name: cfg[name] for name in names})


def _out_dir(cfg: dict) -> Path:
    """The output directory, made if missing; a path that cannot be one is a usage error."""
    out = Path(cfg["out_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a file on the way
        raise InputError(f"out_dir {out}: cannot make the directory: {exc.strerror or exc}")
    return out


def _load(loader, path, what):
    """loader(path), whose InputError names a malformed file; a missing path
    and a file that cannot be read are usage errors too."""
    if path is None:
        raise InputError(f"a {what} path is required")
    try:
        return loader(path)
    except FileNotFoundError:
        raise InputError(f"{what} not found: {path}")
    except OSError as exc:  # a directory, say, or no permission
        raise InputError(f"{what} {path}: cannot read the file: {exc.strerror or exc}")


@contextmanager
def _naming(what, path):
    """An InputError inside names the file as what path."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{what} {path}: {exc}") from None


def _load_profile(path, model, config):
    """The profile at path, held to the model's state count and to config's boundary mode."""
    prof = _load(StateProfile.from_json, path, "profile")
    with _naming("profile", path):
        resolve_boundaries(_check_profile(model, prof), config)
    return prof


def _load_data(path, model, labelled=False, data=None):
    """The dataset at path (or data, read from it), held to the model's feature
    count, rows its encoder can map and, if labelled, labels in [0, num_classes)."""
    data = _load(load_csv, path, "dataset") if data is None else data
    with _naming("dataset", path):
        _feature_matrix(model.encoder, data.features)
        if labelled:
            _check_labels(data.labels, model.num_classes)
    return data


def cmd_train(cfg) -> int:
    data = _load(load_csv, cfg["dataset"], "dataset")
    with _naming("dataset", cfg["dataset"]):  # a file with no feature column
        encoder = EncoderSpec(kind=cfg["encoder"], input_dim=data.features.shape[1])
    ansatz = AnsatzSpec(cfg["preset"], cfg["layers"], cfg["entanglement"])
    model = build_model(encoder, ansatz, cfg["qubits"], cfg["classes"], seed=cfg["seed"])
    _load_data(cfg["dataset"], model, labelled=True, data=data)
    trained, history = train(model, data, _config(TrainConfig, cfg))
    out = _out_dir(cfg)
    save_model(trained, out / "model.json")
    losses = ((epoch, repr(loss)) for epoch, loss in enumerate(history["loss"]))
    files.write_csv(out / "loss_history.csv", ["epoch", "loss"], losses)
    summary = {"train_accuracy": history["train_accuracy"], "final_loss": history["loss"][-1]}
    files.write_json(out / "summary.json", summary)
    print(f"train accuracy: {history['train_accuracy']:.4f}")
    return 0


def cmd_profile(cfg) -> int:
    model = _load(load_model, cfg["model"], "model")
    data = _load_data(cfg["dataset"], model)

    if model.train_data_digest and model.train_data_digest != data.digest():
        print(
            "warning: profiling data digest differs from the model's training data",
            file=sys.stderr,
        )

    # cap the profiling sample per class
    cap = cfg["per_class_cap"]
    if cap < 1:
        raise InputError(f"per_class_cap must be >= 1, got {cap}")
    keep = []
    for c in np.unique(data.labels):
        idx = np.flatnonzero(data.labels == c)[:cap]
        keep.extend(idx.tolist())
    data = data.subset(sorted(keep))

    confidence = cfg["confidence"] if cfg["mad"] else None
    prof = profile(model, data, shots=cfg["shots"], seed=cfg["seed"], confidence=confidence)
    prof.to_json(_out_dir(cfg) / "profile.json")
    print(f"profiled {len(data)} inputs over {prof.num_states} basis states")
    return 0


def cmd_coverage(cfg) -> int:
    model = _load(load_model, cfg["model"], "model")
    ccfg = _config(CoverageConfig, cfg, k_cells=cfg["k"])
    prof = _load_profile(cfg["profile"], model, ccfg)
    suite = _load_data(cfg["suite"], model)
    report = coverage_suite(model, suite, prof, ccfg, shots=cfg["shots"], seed=cfg["seed"])
    out = _out_dir(cfg)
    files.write_json(out / "report.json", asdict(report))
    files.write_csv(out / "report.csv", ["metric", "value"], asdict(report).items())
    print(f"KSC={report.ksc:.2f}% SCC={report.scc:.2f}% TSC={report.tsc:.2f}%")
    return 0


def cmd_attack(cfg) -> int:
    model = _load(load_model, cfg["model"], "model")
    data = _load_data(cfg["dataset"], model, labelled=True)
    acfg = _config(AttackConfig, cfg)
    adv, asr = attack_suite(model, data, acfg)
    out = _out_dir(cfg)
    save_csv(adv, out / "adversarial.csv")
    provenance = {**asdict(acfg), "source_digest": data.digest(), "asr": asr}
    files.write_json(out / "provenance.json", provenance)
    files.write_json(out / "summary.json", {"asr": asr, "num_inputs": len(data)})
    print(f"attack success rate: {100.0 * asr:.1f}%")
    return 0


def cmd_fuzz(cfg) -> int:
    model = _load(load_model, cfg["model"], "model")
    fcfg = _config(FuzzConfig, cfg, coverage=_config(CoverageConfig, cfg, k_cells=cfg["k"]))
    prof = _load_profile(cfg["profile"], model, fcfg.coverage)
    seeds = _load_data(cfg["seeds"], model, labelled=True)
    if cfg["random_baseline"]:
        outcome = random_test(model, seeds, prof, fcfg, reenqueue_prob=cfg["reenqueue_prob"])
    else:
        outcome = fuzz(model, seeds, prof, fcfg)
    out = _out_dir(cfg)
    if len(outcome.failed_cases):
        save_csv(outcome.failed_cases, out / "failed_cases.csv")
    summary = {
        "tsr": outcome.tsr,
        "iterations": outcome.iterations,
        "num_failed_cases": len(outcome.failed_cases),
        "num_initial_seeds": outcome.num_initial_seeds,
        "coverage_before": asdict(outcome.coverage_before),
        "coverage_after": asdict(outcome.coverage_after),
    }
    files.write_json(out / "summary.json", summary)
    files.write_json(out / "manifest.json", asdict(fcfg))
    print(
        f"TSR={outcome.tsr:.1f}% failures={len(outcome.failed_cases)} "
        f"iterations={outcome.iterations}"
    )
    return 0


def cmd_diversity(cfg) -> int:
    model = _load(load_model, cfg["model"], "model")
    suite = _load_data(cfg["suite"], model)
    with _naming("dataset", cfg["suite"]):
        summary, suite_densities, haar_densities = suite_diversity(
            model.encoder, model.num_qubits, suite.features, seed=cfg["seed"]
        )
    out = _out_dir(cfg)
    files.write_json(out / "diversity.json", asdict(summary))
    for name, densities in (("suite", suite_densities), ("haar", haar_densities)):
        rows = zip(BIN_EDGES[:-1], BIN_EDGES[1:], densities)
        files.write_csv(out / f"{name}_histogram.csv", ["bin_left", "bin_right", "density"], rows)
    print(f"js_vs_haar={summary.js_vs_haar:.4f} mean_fidelity={summary.mean_fidelity:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statecov",
        description="Train small quantum-circuit classifiers and evaluate test "
        "suites against them with state-coverage criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        p = sub.add_parser(command, help=_HELP[command])
        p.add_argument("--config", help="JSON config file; flags override its values")
        # --out-dir and --seed come first in every usage line
        for key in sorted(options, key=lambda key: key not in ("out_dir", "seed")):
            kind, flag = options[key][0], "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True)
            elif kind in (int, float):
                p.add_argument(flag, type=kind)
            else:  # a string, free or one of the choices
                p.add_argument(flag, choices=kind if isinstance(kind, tuple) else None)
        # looked up by name now, so a handler replaced on this module is the one run
        p.set_defaults(func=globals()[f"cmd_{command}"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        code = args.func(cfg)
        if code == 0:
            files.write_json(_out_dir(cfg) / "resolved_config.json", cfg)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # _load maps every read, so an output cannot be written
        where = exc.filename or cfg["out_dir"]
        print(f"error: cannot write {where}: {exc.strerror}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
