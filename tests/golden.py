"""The golden output manifest of the seeded CLI chain: tests/data/golden.json.

run_chain runs train, profile, coverage (exact and with shots), the three
attacks, both fuzz arms and diversity once with fixed seeds, each into its
own directory under a root. manifest() records, for the files the chain
wrote:
- the sha256 of each, with the root and the data path masked in
  resolved_config.json;
- the integers each holds: every JSON integer by its key path (covered
  cells, corners and top states, iterations, failure counts, ...) and the
  label column of each CSV that has one;
- the numpy version, BLAS, BLAS kernel and machine that computed them; the
  kernel is the CPU code path OpenBLAS picked at start-up (OPENBLAS_CORETYPE
  can choose another), and another kernel may round floats differently.

check() compares two manifests. The integers and the file names must agree
everywhere. Float outputs may round differently under another numpy or
BLAS, so their bytes must agree only on the recorded stack; elsewhere the
files whose bytes moved are reported, not failed.

Run from the repository root:

    PYTHONPATH=src:tests python tests/golden.py          # compare, exit 1 on a difference
    PYTHONPATH=src:tests python tests/golden.py --write  # regenerate the manifest

Regenerate only for an output change that is meant, and say in the change
which files moved and why.
"""

import argparse
import ctypes
import csv
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from statecov.cli import main
from statecov.datasets import save_csv

from fixtures import gaussian_blobs

MANIFEST = Path(__file__).resolve().parent / "data" / "golden.json"


def chain_data():
    """The chain's 40-row input, also test_cli.py's data_csv."""
    return gaussian_blobs(2, 20, 4, spread=0.1, seed=3)


def chain_runs(data_csv, root) -> dict:
    """{stage name: argv} of every subcommand, each writing to root / name."""
    model, prof = str(root / "train" / "model.json"), str(root / "profile" / "profile.json")
    runs = {
        "train": ["train", "--dataset", str(data_csv), "--epochs", "5", "--seed", "3"],
        "profile": ["profile", "--model", model, "--dataset", str(data_csv), "--mad"],
        "coverage": ["coverage", "--model", model, "--profile", prof, "--suite", str(data_csv)],
        "coverage_shots": ["coverage", "--model", model, "--profile", prof,
                           "--suite", str(data_csv), "--shots", "100", "--seed", "4"],
        **{
            f"attack_{kind}": ["attack", "--model", model, "--dataset", str(data_csv),
                               "--kind", kind, "--gamma", "0.5", "--seed", "5"]
            for kind in ("random", "fgsm", "jsma")
        },
        "fuzz": ["fuzz", "--model", model, "--profile", prof, "--seeds", str(data_csv),
                 "--max-iterations", "60", "--seed", "6"],
        "fuzz_random": ["fuzz", "--model", model, "--profile", prof, "--seeds", str(data_csv),
                        "--random-baseline", "--reenqueue-prob", "0.5",
                        "--max-iterations", "60", "--seed", "6"],
        "diversity": ["diversity", "--model", model, "--suite", str(data_csv), "--seed", "7"],
    }
    return {name: [*argv, "--out-dir", str(root / name)] for name, argv in runs.items()}


def run_chain(data_csv, root) -> list:
    """Every subcommand, once, under root; the relative paths of the files written."""
    for name, argv in chain_runs(data_csv, root).items():
        assert main(argv) == 0, name
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def masked_bytes(path, root, data_csv) -> bytes:
    """The file's bytes, with root and data_csv masked in resolved_config.json."""
    raw = path.read_bytes()
    if path.name == "resolved_config.json":
        raw = raw.replace(str(data_csv).encode(), b"<data>").replace(str(root).encode(), b"<root>")
    return raw


def _integers(path):
    """{key path: value} of a JSON file's integers, or a CSV's label column
    as one string; None for a file with neither."""
    if path.suffix == ".json":
        found = {}

        def walk(node, key):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for name, value in items:
                name = f"{key}.{name}" if key else str(name)
                if isinstance(value, (dict, list)):
                    walk(value, name)
                elif type(value) is int:
                    found[name] = value

        walk(json.loads(path.read_text()), "")
        return found or None
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return ",".join(row[-1] for row in rows) if header[-1] == "label" else None


def blas_kernel() -> str:
    """The kernel name numpy's bundled OpenBLAS reports, or "unknown"."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def stack() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except TypeError:  # numpy before 1.26 does not report it
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "kernel": blas_kernel(),
            "machine": platform.machine()}


def manifest(root, data_csv) -> dict:
    paths = [p for p in sorted(root.rglob("*")) if p.is_file()]
    files, integers = {}, {}
    for path in paths:
        name = path.relative_to(root).as_posix()
        files[name] = hashlib.sha256(masked_bytes(path, root, data_csv)).hexdigest()
        if (found := _integers(path)) is not None:
            integers[name] = found
    return {"stack": stack(), "files": files, "integers": integers}


def check(recorded: dict, current: dict) -> tuple:
    """(errors, moved): the differences that fail on any stack, and the files
    whose bytes moved, which are errors too on the recorded stack."""
    errors = [f"{name}: written by one run only"
              for name in sorted(recorded["files"].keys() ^ current["files"].keys())]
    for name in sorted(recorded["integers"].keys() | current["integers"].keys()):
        was, now = recorded["integers"].get(name), current["integers"].get(name)
        if was != now:
            errors.append(f"{name}: integers {was} are now {now}")
    moved = sorted(name for name in recorded["files"].keys() & current["files"].keys()
                   if recorded["files"][name] != current["files"][name])
    if current["stack"] == recorded["stack"]:
        errors += [f"{name}: bytes moved" for name in moved]
    return errors, moved


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare or regenerate tests/data/golden.json.")
    parser.add_argument("--write", action="store_true", help="rewrite the manifest")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        data_csv, root = Path(tmp) / "data.csv", Path(tmp) / "run"
        save_csv(chain_data(), data_csv)
        run_chain(data_csv, root)
        current = manifest(root, data_csv)
    if args.write:
        MANIFEST.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {MANIFEST}: {len(current['files'])} files")
        return 0
    errors, moved = check(json.loads(MANIFEST.read_text()), current)
    print("\n".join(errors or [f"moved on this stack: {name}" for name in moved] or ["same"]))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(_main())
