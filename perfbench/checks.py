"""Output checks, run after each pass outside the timed region.

Each check states an invariant that any correct implementation meets; none
compares against golden numbers. A check returns a list of problems, empty
when the stage's outputs are correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-12
MIN_GRID6_TRAIN_ACCURACY = 0.9


def arg(argv, flag, default=None):
    """Value following ``flag`` in a stage's argv, or ``default``."""
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else default


def read_csv(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, :-1], rows[:, -1].astype(np.int64)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def brute_force_coverage(pvs, lower, upper, k, top_k, eps=1e-12):
    """Covered (cells, corners, top states) of a whole suite, recomputed at once.

    Cell j of state s is [lb + j w, lb + (j + 1) w) with w = (ub - lb) / k and a
    closed last cell; a state whose region is narrower than eps has one cell
    that only a value within eps of lb hits. Values outside [lb, ub] hit the
    lower or upper corner. Top states are each input's top_k most probable
    states, ties going to the lower index.
    """
    n, s = pvs.shape
    width = upper - lower
    below = pvs < lower
    above = pvs > upper
    inside = ~(below | above)
    degenerate = inside & (width < eps)
    regular = inside & ~degenerate

    cells = np.zeros((s, k), dtype=bool)
    cells[:, 0] |= (degenerate & (np.abs(pvs - lower) <= eps)).any(axis=0)
    rows, states = np.nonzero(regular)
    idx = np.floor((pvs[rows, states] - lower[states]) / (width[states] / k)).astype(np.int64)
    cells[states, np.minimum(idx, k - 1)] = True

    corners = int(below.any(axis=0).sum() + above.any(axis=0).sum())
    top = np.zeros(s, dtype=bool)
    top[np.argsort(-pvs, axis=1, kind="stable")[:, :top_k].ravel()] = True
    return int(cells.sum()), corners, int(top.sum())


def check_coverage(stage, captured):
    pvs = captured.get("pvs")
    if pvs is None:
        return ["coverage stage computed no probability vectors"]
    prof = read_json(arg(stage.argv, "--profile"))
    report = read_json(stage.out_dir / "report.json")
    k = int(arg(stage.argv, "--k", 100))
    top_k = int(arg(stage.argv, "--top-k", 1))
    cells, corners, tops = brute_force_coverage(
        np.asarray(pvs), np.asarray(prof["lower"]), np.asarray(prof["upper"]), k, top_k
    )
    s = pvs.shape[1]
    expected = {
        "covered_cells": cells,
        "covered_corners": corners,
        "covered_top_states": tops,
        "num_inputs": pvs.shape[0],
        "num_states": s,
        "ksc": 100.0 * cells / (k * s),
        "scc": 100.0 * corners / (2 * s),
        "tsc": 100.0 * tops / s,
    }
    return [
        f"report {key}={report.get(key)!r}, brute force gives {want!r}"
        for key, want in expected.items()
        if report.get(key) is None or not math.isclose(report[key], want, rel_tol=1e-12, abs_tol=TOL)
    ]


def check_profile(stage, captured):
    prof = read_json(stage.out_dir / "profile.json")
    lower, upper = np.asarray(prof["lower"]), np.asarray(prof["upper"])
    problems = []
    if np.any(lower > upper):
        problems.append("profile has lower > upper")
    if np.any(lower < 0) or np.any(upper > 1):
        problems.append("profile bounds leave [0, 1]")
    if "--mad" in stage.argv:
        if prof.get("mad_lower") is None or prof.get("mad_upper") is None:
            return problems + ["--mad profile lacks MAD bounds"]
        mlo, mhi = np.asarray(prof["mad_lower"]), np.asarray(prof["mad_upper"])
        if np.any(mlo > mhi):
            problems.append("MAD lower > MAD upper")
        if np.any(mlo < lower - TOL) or np.any(mhi > upper + TOL):
            problems.append("MAD bounds do not nest inside raw bounds")
    return problems


def check_train(stage, captured):
    acc = read_json(stage.out_dir / "summary.json")["train_accuracy"]
    if acc < MIN_GRID6_TRAIN_ACCURACY:
        return [f"train accuracy {acc:.4f} below {MIN_GRID6_TRAIN_ACCURACY}"]
    return []


def check_attack(stage, captured):
    x, labels = read_csv(arg(stage.argv, "--dataset"))
    adv, adv_labels = read_csv(stage.out_dir / "adversarial.csv")
    asr = read_json(stage.out_dir / "summary.json")["asr"]
    problems = []
    if adv.shape != x.shape or not np.array_equal(labels, adv_labels):
        return ["adversarial rows do not match the attacked rows"]
    if np.any(adv < 0) or np.any(adv > 1):
        problems.append("adversarial features leave [0, 1]")
    if not 0.0 <= asr <= 1.0:
        problems.append(f"attack success rate {asr} outside [0, 1]")
    kind = arg(stage.argv, "--kind")
    if kind == "fgsm":
        eps = float(arg(stage.argv, "--epsilon"))
        if np.max(np.abs(adv - x)) > eps + TOL:
            problems.append(f"fgsm moved a feature by more than epsilon={eps}")
    elif kind == "jsma" and np.any(adv < x - TOL):
        problems.append("jsma lowered a feature")
    return problems


def check_fuzz(stage, captured):
    from statecov.qnn import forward_batch, load_model

    summary = read_json(stage.out_dir / "summary.json")
    problems = []
    if summary["iterations"] > int(arg(stage.argv, "--max-iterations")):
        problems.append("fuzzing ran past its iteration budget")
    path = stage.out_dir / "failed_cases.csv"
    if summary["num_failed_cases"] == 0:
        return problems
    feats, labels = read_csv(path)
    if feats.shape[0] != summary["num_failed_cases"]:
        problems.append("failed_cases.csv row count differs from the summary")
    _, scores = forward_batch(load_model(arg(stage.argv, "--model")), feats)
    still_correct = int((np.argmax(scores, axis=1) == labels).sum())
    if still_correct:
        problems.append(f"{still_correct} failed cases are classified correctly when re-run")
    return problems


def check_diversity(stage, captured):
    js = read_json(stage.out_dir / "diversity.json")["js_vs_haar"]
    if not -TOL <= js <= 1.0 + TOL:
        return [f"JS divergence {js} outside [0, 1]"]
    return []
