"""Coverage-guided fuzzing of trained classifiers.

A FIFO queue of seeds is mutated with pixel-level metamorphic operators;
mutants that misclassify go to the failure set, mutants that open new
coverage under the chosen criterion are re-enqueued, everything else is
discarded. A random-testing baseline re-enqueues each surviving mutant with
a given probability.

The queue holds feature rows and their origins: the initial seeds whose
features bound their mutations and whose labels they keep. The loop runs
one generation at a time: the queue's rows when the generation starts, cut
to the budget left. Mutants it appends are only popped after it, so one
mutate call draws the generation in queue order from the one rng, one
forward_batch evaluates it and one locate places it. The gate then decides
the whole generation at once: a mutant that neither fails nor opens coverage
of the gate's kind commits nothing, and every bit of that kind it reaches is
set already, so mutant i opens exactly where one of its unset bits first
occurs among the generation's (CoverageTracker.row_opens). Failing and
accepted mutants are committed in one call. This makes the same decisions as
taking one mutant at a time. Under amplitude encoding a mutant clipped to
all zeros has no state: it uses its iteration and counts as not failing, but
is never evaluated, committed or re-enqueued.

The random baseline draws its re-enqueue number only after a mutant that
does not fail, so it draws speculatively, right after each mutant's own
draws, and keeps the rng state before each such draw. At the first failing
mutant it commits that mutant, restores that state and mutates the rest of
the generation again, at the cost of one more batch per failure. So both
arms commit each failing mutant in the batch that finds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coverage import (
    CRITERIA, CoverageConfig, CoverageReport, CoverageTracker, StateProfile, _check_profile,
)
from .files import InputError
from .qnn import LabeledDataset, QnnModel, _check_labels, _unencodable, forward_batch

__all__ = [
    "FuzzConfig",
    "FuzzOutcome",
    "mutate",
    "fuzz",
    "random_test",
]

NUM_MUTATION_OPS = 4


@dataclass(frozen=True)
class FuzzConfig:
    criterion: str = "ksc"  # "ksc" | "scc" | "tsc"
    max_iterations: int = 2000
    alpha: float = 0.2  # cumulative L-inf budget around the ancestor
    seed: int = 0
    coverage: CoverageConfig = field(default_factory=CoverageConfig)

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise InputError(f"unknown criterion {self.criterion!r}")
        if self.max_iterations < 1:
            raise InputError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.alpha >= 0:
            raise InputError(f"alpha must be >= 0, got {self.alpha}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


@dataclass
class FuzzOutcome:
    failed_cases: LabeledDataset  # failing mutants, each with its initial seed's label
    failed_origins: np.ndarray  # per failing mutant, the index of its initial seed
    tsr: float
    iterations: int
    coverage_before: CoverageReport
    coverage_after: CoverageReport
    num_initial_seeds: int
    reenqueue_rate: float = 0.0  # re-enqueued / non-failing mutants


def _translations(d: int) -> np.ndarray:
    """(4, d) source index of each feature after a one-step translation, by
    2 * axis + (step == +1); index d reads a zero. A square grid moves by
    rows (axis 0) or columns (axis 1), any other row by index on either axis."""
    side = math.isqrt(d)
    grid = side * side == d
    pad = np.pad(np.arange(d).reshape((side, side) if grid else (1, d)), 1, constant_values=d)
    cols = [pad[1:-1, 2:], pad[1:-1, :-2]]
    return np.stack(([pad[2:, 1:-1], pad[:-2, 1:-1]] if grid else cols) + cols).reshape(4, d)


def mutate(
    xs: np.ndarray, refs: np.ndarray, rng: np.random.Generator, alpha: float, gate: bool = False
):
    """Mutants of the rows xs, clipped to [0, 1] and to the L-inf budget
    alpha around their ancestors, the rows of refs.

    Row by row, rng draws an operator uniformly and then its parameters:
    per-feature uniform noise, brightness shift, contrast scaling about 0.5,
    or a one-step row/column translation when the row is a square grid
    (plain index shift otherwise). With gate, a row's draws are followed by
    one rng.random(), and (mutants, those numbers, the rng state before
    each) is returned.
    """
    n, d = xs.shape
    ops = np.empty((n, 1), dtype=np.int64)
    noise = np.zeros((n, d))  # operator 0's per-feature noise, operator 1's shift
    scale = np.ones((n, 1))
    moves = np.zeros(n, dtype=np.int64)
    draws, states = np.empty(n), []
    for i in range(n):
        op = ops[i] = rng.integers(NUM_MUTATION_OPS)
        if op == 0:
            noise[i] = rng.uniform(-0.05, 0.05, size=d)
        elif op == 1:
            noise[i] = rng.uniform(-0.1, 0.1)
        elif op == 2:
            scale[i] = rng.uniform(0.8, 1.25)
        else:
            axis = rng.integers(2)
            moves[i] = 2 * axis + rng.integers(2)
        if gate:
            states.append(rng.bit_generator.state)
            draws[i] = rng.random()
    moved = np.take_along_axis(np.hstack([xs, np.zeros((n, 1))]), _translations(d)[moves], axis=1)
    out = np.select([ops <= 1, ops == 2], [xs + noise, 0.5 + scale * (xs - 0.5)], moved)
    out = np.clip(out, refs - alpha, refs + alpha)
    np.clip(out, 0.0, 1.0, out=out)
    return (out, draws, states) if gate else out


def _initial_queue(model: QnnModel, initial_seeds: LabeledDataset):
    """(indices of the correctly classified initial seeds, the probability
    vectors of all initial seeds); every label must lie in [0, num_classes)."""
    _check_labels(initial_seeds.labels, model.num_classes)
    probs, scores = forward_batch(model, initial_seeds.features)
    origins = np.flatnonzero(np.argmax(scores, axis=1) == initial_seeds.labels)
    if not origins.size:
        raise InputError("no correctly classified initial seeds to fuzz")
    return origins, probs


def _run_loop(model, initial_seeds, prof, config: FuzzConfig, reenqueue_prob=None) -> FuzzOutcome:
    """Guided fuzzing, or with a reenqueue_prob the random baseline."""
    _check_profile(model, prof)
    rng = np.random.default_rng(config.seed)
    seeds, initial_probs = _initial_queue(model, initial_seeds)

    tracker = CoverageTracker(prof, config.coverage)
    tracker.fold(initial_probs)
    coverage_before = tracker.report()

    queue, origins = initial_seeds.features[seeds], seeds
    failed, failed_origins = [], []
    iterations = non_failing = re_enqueued = 0
    while len(queue) and iterations < config.max_iterations:
        # one generation: mutants it appends are only popped after it
        size = min(len(queue), config.max_iterations - iterations)
        todo, todo_origins = queue[:size], origins[:size]
        queue, origins = queue[size:], origins[size:]
        iterations += size
        while len(todo):
            refs, labels = initial_seeds.features[todo_origins], initial_seeds.labels[todo_origins]
            if reenqueue_prob is None:
                mutants = mutate(todo, refs, rng, config.alpha)
            else:  # speculate that every mutant survives and draws its gate
                mutants, draws, states = mutate(todo, refs, rng, config.alpha, gate=True)
            live = ~_unencodable(model.encoder, mutants)
            probs, scores = forward_batch(model, mutants[live])
            failing, keep = np.zeros(len(todo), dtype=bool), np.zeros(len(todo), dtype=bool)
            failing[live] = np.argmax(scores, axis=1) != labels[live]
            if reenqueue_prob is None:
                hits = tracker.locate(probs)
                keep[live] = ~failing[live] & tracker.row_opens(hits, config.criterion)
                tracker.commit(hits.rows((failing | keep)[live]))
                done = len(todo)
            else:
                keep = live & ~failing & (draws < reenqueue_prob)
                # no gate draw after a failure: rewind to the first one and re-mutate the rest
                done = int(np.argmax(failing)) + 1 if failing.any() else len(todo)
                if failing[done - 1]:
                    tracker.fold(probs[[np.count_nonzero(live[:done]) - 1]])
                    rng.bit_generator.state = states[done - 1]
            failing, keep = failing[:done], keep[:done]
            failed.append(mutants[:done][failing])
            failed_origins.append(todo_origins[:done][failing])
            queue = np.concatenate([queue, mutants[:done][keep]])
            origins = np.concatenate([origins, todo_origins[:done][keep]])
            non_failing += int(np.count_nonzero(~failing))
            re_enqueued += int(np.count_nonzero(keep))
            todo, todo_origins = todo[done:], todo_origins[done:]
    failed_origins = np.concatenate(failed_origins)

    return FuzzOutcome(
        failed_cases=LabeledDataset(np.concatenate(failed), initial_seeds.labels[failed_origins]),
        failed_origins=failed_origins,
        tsr=100.0 * np.unique(failed_origins).size / len(seeds),
        iterations=iterations,
        coverage_before=coverage_before,
        coverage_after=tracker.report(),
        num_initial_seeds=len(seeds),
        reenqueue_rate=re_enqueued / non_failing if non_failing else 0.0,
    )


def fuzz(
    model: QnnModel,
    initial_seeds: LabeledDataset,
    prof: StateProfile,
    config: FuzzConfig,
) -> FuzzOutcome:
    """Coverage-guided fuzzing; misclassified initial seeds are excluded."""
    return _run_loop(model, initial_seeds, prof, config)


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
        raise InputError(f"reenqueue_prob must be in [0, 1], got {reenqueue_prob}")
    return _run_loop(model, initial_seeds, prof, config, reenqueue_prob)
