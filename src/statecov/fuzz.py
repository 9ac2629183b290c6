"""Coverage-guided fuzzing of trained classifiers.

A FIFO queue of seeds is mutated with pixel-level metamorphic operators;
mutants that misclassify go to the failure set, mutants that open new
coverage under the chosen criterion are re-enqueued, everything else is
discarded. A random-testing baseline re-enqueues each surviving mutant with
a given probability.

The loop runs one generation at a time: the queue's contents when the
generation starts, cut to the budget left. Mutants it appends are only popped
after it, so every item is mutated in queue order with the one rng and all
mutants are evaluated in one forward_batch and located in one batch. The
gate then decides the whole generation at once: a mutant that neither fails
nor opens coverage of the gate's kind commits nothing, and every bit of that
kind it reaches is set already, so mutant i opens exactly where one of its
unset bits first occurs among the generation's (CoverageTracker.row_opens).
Failing and accepted mutants are committed in one call. This makes the same
decisions as taking one mutant at a time.

The random baseline draws its re-enqueue number only after a mutant that
does not fail, so it draws speculatively: the rng state is saved before each
mutant's draw, and at the first failing mutant it is restored and the rest
of the generation is mutated again from there, at the cost of one more batch
per failure. It never reads the tracker, so its failing mutants are
committed once, at the end.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .coverage import CoverageConfig, CoverageReport, CoverageTracker, StateProfile, _check_profile
from .qnn import LabeledDataset, QnnModel, _check_labels, forward_batch

__all__ = [
    "FuzzSeed",
    "FuzzConfig",
    "FuzzOutcome",
    "mutate",
    "fuzz",
    "random_test",
    "save_outcome",
]

CRITERIA = ("ksc", "scc", "tsc")
_CRITERION_FLAG = {"ksc": "new_cell", "scc": "new_corner", "tsc": "new_top"}

NUM_MUTATION_OPS = 4


@dataclass
class FuzzSeed:
    features: np.ndarray
    label: int
    reference: np.ndarray  # original ancestor features
    mutation_depth: int = 0
    origin: int = 0  # index of the initial seed this descends from

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.reference = np.asarray(self.reference, dtype=np.float64)


@dataclass(frozen=True)
class FuzzConfig:
    criterion: str = "ksc"  # "ksc" | "scc" | "tsc"
    max_iterations: int = 2000
    alpha: float = 0.2  # cumulative L-inf budget around the ancestor
    seed: int = 0
    coverage: CoverageConfig = field(default_factory=CoverageConfig)

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class FuzzOutcome:
    failed_cases: List[FuzzSeed]
    tsr: float
    iterations: int
    coverage_before: CoverageReport
    coverage_after: CoverageReport
    num_initial_seeds: int
    reenqueue_rate: float = 0.0  # re-enqueued / non-failing mutants


def _grid_side(d: int) -> Optional[int]:
    side = int(round(math.sqrt(d)))
    return side if side * side == d else None


def mutate(seed: FuzzSeed, rng: np.random.Generator, alpha: float) -> FuzzSeed:
    """One metamorphic mutation, clipped to [0,1] and the ancestor budget.

    Operators (drawn uniformly): per-feature uniform noise, brightness shift,
    contrast scaling about 0.5, and one-step row/column translation when the
    feature vector is a square grid (plain index shift otherwise).
    """
    x = seed.features
    op = int(rng.integers(NUM_MUTATION_OPS))
    if op == 0:
        out = x + rng.uniform(-0.05, 0.05, size=x.shape)
    elif op == 1:
        out = x + rng.uniform(-0.1, 0.1)
    elif op == 2:
        out = 0.5 + float(rng.uniform(0.8, 1.25)) * (x - 0.5)
    else:
        side = _grid_side(x.size)
        axis = int(rng.integers(2))
        step = 1 if rng.integers(2) else -1
        if side is not None:
            img = x.reshape(side, side)
            shifted = np.zeros_like(img)
            if axis == 0:
                if step == 1:
                    shifted[1:, :] = img[:-1, :]
                else:
                    shifted[:-1, :] = img[1:, :]
            else:
                if step == 1:
                    shifted[:, 1:] = img[:, :-1]
                else:
                    shifted[:, :-1] = img[:, 1:]
            out = shifted.reshape(-1)
        else:
            shifted = np.zeros_like(x)
            if step == 1:
                shifted[1:] = x[:-1]
            else:
                shifted[:-1] = x[1:]
            out = shifted
    out = np.clip(out, seed.reference - alpha, seed.reference + alpha)
    out = np.clip(out, 0.0, 1.0)
    return FuzzSeed(out, seed.label, seed.reference, seed.mutation_depth + 1, seed.origin)


def _initial_queue(model: QnnModel, initial_seeds: LabeledDataset):
    """(correctly classified initial seeds as FuzzSeed objects, the
    probability vectors of all initial seeds); every label must lie in
    [0, num_classes)."""
    if len(initial_seeds) == 0:
        raise ValueError("initial seed set is empty")
    _check_labels(initial_seeds.labels, model.num_classes)
    probs, scores = forward_batch(model, initial_seeds.features)
    preds = np.argmax(scores, axis=1)
    queue = []
    for i in range(len(initial_seeds)):
        if preds[i] == initial_seeds.labels[i]:
            x = initial_seeds.features[i]
            queue.append(FuzzSeed(x.copy(), int(initial_seeds.labels[i]), x.copy(), 0, i))
    if not queue:
        raise ValueError("no correctly classified initial seeds to fuzz")
    return queue, probs


def _run_loop(
    model: QnnModel,
    initial_seeds: LabeledDataset,
    prof: StateProfile,
    config: FuzzConfig,
    guided: bool,
    reenqueue_prob: float = 1.0,
) -> FuzzOutcome:
    _check_profile(model, prof)
    rng = np.random.default_rng(config.seed)
    seeds, initial_probs = _initial_queue(model, initial_seeds)

    tracker = CoverageTracker(prof, config.coverage)
    tracker.fold(initial_probs)
    coverage_before = tracker.report()

    queue = deque(seeds)
    failed: List[FuzzSeed] = []
    failed_probs = []  # the random baseline's, committed once at the end
    flag = _CRITERION_FLAG[config.criterion]
    iterations = 0
    non_failing = 0
    re_enqueued = 0
    while queue and iterations < config.max_iterations:
        # one generation: mutants it appends are only popped after it
        todo = [queue.popleft() for _ in range(min(len(queue), config.max_iterations - iterations))]
        iterations += len(todo)
        while todo:
            mutants, draws, draw_states = [], [], []
            for s in todo:
                mutants.append(mutate(s, rng, config.alpha))
                if not guided:  # speculate that the mutant survives and draws its gate
                    draw_states.append(rng.bit_generator.state)
                    draws.append(rng.random())
            probs, scores = forward_batch(model, np.stack([m.features for m in mutants]))
            failing = np.argmax(scores, axis=1) != [m.label for m in mutants]
            if guided:
                hits = tracker.locate(probs)
                keep = ~failing & tracker.row_opens(hits, flag)
                tracker.commit(hits.rows(failing | keep))
                done = len(todo)
            else:
                # no gate draw after a failure: rewind to the first one and re-mutate the rest
                done = int(np.argmax(failing)) + 1 if failing.any() else len(todo)
                failing = failing[:done]
                keep = ~failing & (np.array(draws[:done]) < reenqueue_prob)
                if failing[-1]:
                    failed_probs.append(probs[done - 1])
                    rng.bit_generator.state = draw_states[done - 1]
            failed += [m for m, f in zip(mutants, failing) if f]
            queue.extend(m for m, k in zip(mutants, keep) if k)
            non_failing += int(np.count_nonzero(~failing))
            re_enqueued += int(np.count_nonzero(keep))
            todo = todo[done:]
    if failed_probs:
        tracker.fold(np.stack(failed_probs))
    failing_origins = {m.origin for m in failed}

    num_initial = len(seeds)
    return FuzzOutcome(
        failed_cases=failed,
        tsr=100.0 * len(failing_origins) / num_initial,
        iterations=iterations,
        coverage_before=coverage_before,
        coverage_after=tracker.report(),
        num_initial_seeds=num_initial,
        reenqueue_rate=re_enqueued / non_failing if non_failing else 0.0,
    )


def fuzz(
    model: QnnModel,
    initial_seeds: LabeledDataset,
    prof: StateProfile,
    config: FuzzConfig,
) -> FuzzOutcome:
    """Coverage-guided fuzzing; misclassified initial seeds are excluded."""
    return _run_loop(model, initial_seeds, prof, config, guided=True)


def random_test(
    model: QnnModel,
    initial_seeds: LabeledDataset,
    prof: StateProfile,
    config: FuzzConfig,
    reenqueue_prob: float = 1.0,
) -> FuzzOutcome:
    """Baseline with the same loop and budget but no coverage gate.

    Surviving mutants are re-enqueued with the given probability; matching
    it to a guided run's reenqueue_rate equalizes the mutation budget so the
    comparison isolates seed selection quality.
    """
    if not (0 <= reenqueue_prob <= 1):
        raise ValueError(f"reenqueue_prob must be in [0, 1], got {reenqueue_prob}")
    return _run_loop(
        model, initial_seeds, prof, config, guided=False, reenqueue_prob=reenqueue_prob
    )


def save_outcome(outcome: FuzzOutcome, config: FuzzConfig, out_dir) -> None:
    """Persist failed cases (CSV), a JSON summary and a reproducibility manifest."""
    from pathlib import Path

    from .datasets import save_csv

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if outcome.failed_cases:
        feats = np.stack([f.features for f in outcome.failed_cases])
        labels = np.array([f.label for f in outcome.failed_cases])
        save_csv(LabeledDataset(feats, labels), out_dir / "failed_cases.csv")
    summary = {
        "tsr": outcome.tsr,
        "iterations": outcome.iterations,
        "num_failed_cases": len(outcome.failed_cases),
        "num_initial_seeds": outcome.num_initial_seeds,
        "coverage_before": outcome.coverage_before.to_dict(),
        "coverage_after": outcome.coverage_after.to_dict(),
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    manifest = {
        "criterion": config.criterion,
        "max_iterations": config.max_iterations,
        "alpha": config.alpha,
        "seed": config.seed,
        "coverage": {
            "k_cells": config.coverage.k_cells,
            "top_k": config.coverage.top_k,
            "boundary_mode": config.coverage.boundary_mode,
        },
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
