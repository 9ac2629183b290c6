"""Probability-region coverage of quantum classifiers.

Profiling extracts, per basis state, the lower/upper probability boundaries
seen on training data; the interval between them is the major region, split
into k equal cells, and everything outside it forms two corner regions.
Three criteria are tracked over a test suite:

  * KSC: fraction of major-region cells covered (denominator k * |S|),
  * SCC: fraction of corner regions covered (denominator 2 * |S|),
  * TSC: fraction of basis states appearing in some input's top-k.

CoverageTracker is batch-first. locate() places an (n, S) matrix of
probability vectors in one vectorized pass (cell per state, corner masks,
stable top-k) and commit() sets every bit those hits reach, so a whole suite
folds in as commit(locate(pvs)), with no per-input loop and with the same
bits as adding its rows one at a time. fold() does that over row blocks of
about qnn.BLOCK_AMPS entries: commit is a monotone OR, so the bits are the
same, and locate's (n, S) temporaries stay block-sized. row_opens() says,
for every row of a batch at once, whether adding the rows in order would see
it set a new bit of one criterion's kind; add_input() and peek_input() are
batches of one, keyed by CRITERIA.

profile() is the one profiling call: it collects a dataset's probability
vectors and hands them to profile_from_samples, which computes every state's
min, max and standard deviation, and with a confidence its MAD bounds, in one
pass over blocks of state columns.

Memory: a stage holds the one (n, S) float64 probability matrix that
collect_prob_vectors returns (shots overwrite it row by row) plus O(block)
buffers, in profiling as in coverage.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import files
from .files import InputError
from .qnn import BLOCK_AMPS, LabeledDataset, QnnModel, _row_blocks, forward_batch

__all__ = [
    "StateProfile",
    "CoverageConfig",
    "CoverageTracker",
    "CoverageReport",
    "collect_prob_vectors",
    "profile",
    "profile_from_samples",
    "coverage_suite",
]

BOUNDARY_MODES = ("raw", "sigma", "mad")
CRITERIA = ("ksc", "scc", "tsc")  # a cell, a corner, a top state
EPS_DEGENERATE = 1e-12  # a major region narrower than this is one degenerate cell


@dataclass
class StateProfile:
    """Per-basis-state probability boundaries derived from profiling data."""

    lower: np.ndarray
    upper: np.ndarray
    sigma: Optional[np.ndarray] = None
    mad_lower: Optional[np.ndarray] = None
    mad_upper: Optional[np.ndarray] = None
    provenance: str = ""

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=np.float64)  # the shape every list must have
        for name in ("lower", "upper", "sigma", "mad_lower", "mad_upper"):
            val = getattr(self, name)
            if val is not None:
                val = np.asarray(val, dtype=np.float64)
                if val.shape != self.lower.shape:
                    raise ValueError(f"{name}: expected {self.lower.size} values, got {val.size}")
                bad = np.flatnonzero(~np.isfinite(val))
                if bad.size:
                    raise ValueError(f"{name}: entry {bad[0]} is not finite")
                setattr(self, name, val)
        if np.any(self.lower > self.upper):
            raise ValueError("lower boundary above upper boundary")
        if np.any(self.lower < 0) or np.any(self.upper > 1):
            raise ValueError("boundaries must lie in [0, 1]")
        if (self.mad_lower is None) != (self.mad_upper is None):
            raise ValueError("mad bounds must be set together")
        if self.mad_lower is not None:
            if np.any(self.mad_lower < self.lower - 1e-12) or np.any(
                self.mad_upper > self.upper + 1e-12
            ):
                raise ValueError("mad bounds must nest within raw bounds")

    @property
    def num_states(self) -> int:
        return self.lower.shape[0]

    def to_json(self, path) -> None:
        files.write(path, files.PROFILE, self)

    @classmethod
    def from_json(cls, path) -> "StateProfile":
        """The profile at path; FileFormatError names the file and the bad field."""
        return files.read(path, files.PROFILE, lambda fields: cls(**fields))


@dataclass(frozen=True)
class CoverageConfig:
    k_cells: int = 100
    top_k: int = 1
    boundary_mode: str = "raw"  # "raw" | "sigma" | "mad"

    def __post_init__(self):
        if min(self.k_cells, self.top_k) < 1:
            raise InputError(f"k_cells and top_k must be >= 1, got {self.k_cells} and {self.top_k}")
        if self.boundary_mode not in BOUNDARY_MODES:
            raise InputError(f"unknown boundary mode {self.boundary_mode!r}")


@dataclass(frozen=True)
class CoverageReport:
    ksc: float
    scc: float
    tsc: float
    covered_cells: int
    covered_corners: int
    covered_top_states: int
    num_states: int
    k_cells: int
    num_inputs: int


def resolve_boundaries(prof: StateProfile, config: CoverageConfig):
    """Effective (LB, UB) arrays for the configured boundary mode; InputError
    if the profile lacks the bounds the mode reads."""
    if config.boundary_mode == "raw":
        return prof.lower.copy(), prof.upper.copy()
    if config.boundary_mode == "sigma":
        if prof.sigma is None:
            raise InputError("boundary_mode sigma needs sigma bounds, which it lacks")
        return (
            np.clip(prof.lower - prof.sigma, 0.0, 1.0),
            np.clip(prof.upper + prof.sigma, 0.0, 1.0),
        )
    if prof.mad_lower is None:
        raise InputError("boundary_mode mad needs MAD bounds, which it lacks; re-run profile --mad")
    return prof.mad_lower.copy(), prof.mad_upper.copy()


class Hits(NamedTuple):
    """Where each row of a batch of probability vectors lands."""

    cells: np.ndarray  # (n, S) cell index per state, -1 outside the major region
    below: np.ndarray  # (n, S) lower-corner mask
    above: np.ndarray  # (n, S) upper-corner mask
    top: np.ndarray  # (n, S) top-k mask

    def rows(self, index) -> "Hits":
        """The hits of the rows an index array or boolean mask selects."""
        return Hits(*(a[index] for a in self))


class CoverageTracker:
    """Incremental, monotone record of covered cells, corners and top states.

    Bits only ever flip from 0 to 1.
    """

    def __init__(self, prof: StateProfile, config: CoverageConfig):
        self.profile = prof
        self.config = config
        self.lb, self.ub = resolve_boundaries(prof, config)
        s, k = prof.num_states, config.k_cells
        try:
            self.cells = np.zeros((s, k), dtype=bool)
        except (ValueError, MemoryError) as exc:
            raise InputError(f"k_cells {k}: cannot make the ({s}, {k}) cell table: {exc}") from None
        self.corners = np.zeros((s, 2), dtype=bool)  # [:, 0] lower, [:, 1] upper
        self.top_states = np.zeros(s, dtype=bool)
        self.num_inputs = 0

    def locate(self, pvs, first_row: int = 0) -> Hits:
        """Hits of an (n, S) matrix of probability vectors, without committing.

        One vectorized pass: each state inside its major region gets the cell
        its probability falls in (a state narrower than EPS_DEGENERATE has
        the one cell 0, hit only within epsilon of its boundary), the
        others fall in a corner, and the top-k states are those a stable
        argsort on -pv puts first: probability ties break by ascending index.
        An error names a row as first_row plus its index in pvs.
        """
        pvs = np.asarray(pvs, dtype=np.float64)
        s = self.profile.num_states
        if pvs.ndim != 2 or pvs.shape[1] != s:
            raise ValueError(
                f"probability vectors of shape {pvs.shape} do not match profile ({s} states)"
            )
        bad = ~np.isfinite(pvs).all(axis=1)
        if bad.any():
            raise ValueError(
                f"probability vector {first_row + int(np.argmax(bad))} contains NaN or "
                "infinite entries"
            )
        k = self.config.k_cells
        width = self.ub - self.lb

        below = pvs < self.lb
        above = pvs > self.ub
        inside = ~(below | above)

        cells = np.full(pvs.shape, -1, dtype=np.int64)
        degenerate = inside & (width < EPS_DEGENERATE)
        cells[degenerate & (np.abs(pvs - self.lb) <= EPS_DEGENERATE)] = 0
        regular = inside & ~degenerate
        with np.errstate(all="ignore"):  # the degenerate states' quotients are unused
            idx = np.floor((pvs - self.lb) / (width / k))
        cells[regular] = np.minimum(idx[regular].astype(np.int64), k - 1)  # closed right edge

        # the top k: every state above the k-th largest probability, then the
        # lowest-index states tied with it (a partition, not a full sort)
        k_top = min(self.config.top_k, s)
        kth = -np.partition(-pvs, k_top - 1, axis=1)[:, [k_top - 1]]
        higher = pvs > kth
        ties = pvs == kth
        top = higher | ties & (np.cumsum(ties, axis=1) <= k_top - higher.sum(axis=1, keepdims=True))
        return Hits(cells, below, above, top)

    def row_opens(self, hits: Hits, criterion: str) -> np.ndarray:
        """Per row, whether it sets a bit of the criterion's kind (ksc a cell,
        scc a corner, tsc a top state) that neither the tracker nor an earlier
        row has set: what peek_input then add_input, row by row, would say.

        A row that sets no new bit of the kind has all of its bits of the
        kind set already, so the bits set before row i are the tracker's
        plus those of every earlier row, committed or not, and a row opens
        exactly where one of its unset bits occurs first in the batch.
        """
        if criterion == "ksc":
            rows, states = np.nonzero(hits.cells >= 0)
            cells = hits.cells[rows, states]
            unset = ~self.cells[states, cells]
            rows, keys = rows[unset], states[unset] * self.config.k_cells + cells[unset]
        elif criterion == "scc":
            below = hits.below & ~self.corners[:, 0]
            rows, states, side = np.nonzero(np.stack([below, hits.above & ~self.corners[:, 1]], 2))
            keys = 2 * states + side
        else:
            rows, keys = np.nonzero(hits.top & ~self.top_states)
        opens = np.zeros(hits.cells.shape[0], dtype=bool)
        opens[rows[np.unique(keys, return_index=True)[1]]] = True  # rows ascend in nonzero order
        return opens

    def commit(self, hits: Hits) -> None:
        """Set every bit the hits reach; each row counts as one input."""
        rows, states = np.nonzero(hits.cells >= 0)
        self.cells[states, hits.cells[rows, states]] = True
        self.corners[:, 0] |= hits.below.any(axis=0)
        self.corners[:, 1] |= hits.above.any(axis=0)
        self.top_states |= hits.top.any(axis=0)
        self.num_inputs += hits.cells.shape[0]

    def fold(self, pvs: np.ndarray) -> None:
        """commit(locate(pvs)) over row blocks of pvs, with the same bits."""
        for rows in _row_blocks(len(pvs), self.profile.num_states):
            self.commit(self.locate(pvs[rows], first_row=rows.start))

    def peek_input(self, pv) -> dict:
        """{criterion: whether this vector sets a new bit of its kind}, not committed."""
        hits = self.locate([pv])
        return {c: bool(self.row_opens(hits, c)[0]) for c in CRITERIA}

    def add_input(self, pv) -> dict:
        """Fold one probability vector into the tracker; returns peek_input's flags."""
        hits = self.locate([pv])
        delta = {c: bool(self.row_opens(hits, c)[0]) for c in CRITERIA}
        self.commit(hits)
        return delta

    def report(self) -> CoverageReport:
        s = self.profile.num_states
        k = self.config.k_cells
        covered_cells = int(self.cells.sum())
        covered_corners = int(self.corners.sum())
        covered_top = int(self.top_states.sum())
        return CoverageReport(
            ksc=100.0 * covered_cells / (k * s),
            scc=100.0 * covered_corners / (2 * s),
            tsc=100.0 * covered_top / s,
            covered_cells=covered_cells,
            covered_corners=covered_corners,
            covered_top_states=covered_top,
            num_states=s,
            k_cells=k,
            num_inputs=self.num_inputs,
        )


def collect_prob_vectors(
    model: QnnModel,
    data: LabeledDataset,
    shots: Optional[int] = None,
    seed: int = 0,
) -> np.ndarray:
    """Measured probability vectors for every dataset row, as a (n, 2^q)
    matrix; with shots, row i is replaced in place by the relative counts of
    one multinomial draw of that size from default_rng(seed + i)."""
    if shots is not None and not 1 <= shots < 2**63:
        raise InputError(f"shots must be >= 1 and < 2**63, got {shots}")
    probs, _ = forward_batch(model, data.features)
    if shots is not None:
        for i, row in enumerate(probs):
            probs[i] = np.random.default_rng(seed + i).multinomial(shots, row / row.sum()) / shots
    return probs


def profile(
    model: QnnModel,
    data: LabeledDataset,
    shots: Optional[int] = None,
    seed: int = 0,
    confidence: Optional[float] = None,
) -> StateProfile:
    """profile_from_samples of the dataset's probability vectors, with the
    dataset's digest as provenance."""
    samples = collect_prob_vectors(model, data, shots=shots, seed=seed)
    return profile_from_samples(samples, provenance=data.digest(), confidence=confidence)


def profile_from_samples(
    samples: np.ndarray, provenance: str = "", confidence: Optional[float] = None
) -> StateProfile:
    """Per-state min, max and standard deviation (ddof=1, or 0 for one row)
    of an (n, S) sample matrix, and with a confidence the MAD bounds.

    The MAD bounds are outlier-robust: per state, a sample survives when
    0.6745 |x - m| <= z MAD, z the two-sided normal quantile at the given
    confidence (a modified z-score of at most z), and the bounds are the
    min/max of the survivors. A zero MAD keeps only samples equal to the
    median; a state with no survivor keeps its samples nearest the median.
    Every figure of a state depends on its own column only, so one pass
    over blocks of columns of about qnn.BLOCK_AMPS samples computes them
    all, with the bits numpy gives over the whole row-major matrix.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n, s = samples.shape
    if n == 0:
        raise InputError("cannot profile an empty dataset")
    lower, upper, sigma = np.empty(s), np.empty(s), np.zeros(s)
    mad_lower = mad_upper = None
    if confidence is not None:
        if n < 3:
            raise InputError(f"MAD refinement needs at least 3 samples per state, got {n}")
        if not (0 < confidence < 1):
            raise InputError(f"confidence must be in (0, 1), got {confidence}")
        z_cut = statistics.NormalDist().inv_cdf(0.5 + confidence / 2.0)
        mad_lower, mad_upper = np.empty(s), np.empty(s)
    # numpy sums a one-column block pairwise but wider ones (and the whole
    # matrix) row by row, so every block is at least two columns wide
    for cols in _row_blocks(s, min(n, BLOCK_AMPS // 2)):
        if cols.start == s - 1 > 0:  # a one-column last block
            cols = slice(s - 2, s)
        block = samples[:, cols]
        lower[cols], upper[cols] = block.min(axis=0), block.max(axis=0)
        if n > 1:
            sigma[cols] = block.std(axis=0, ddof=1)
        if confidence is not None:
            dev = np.abs(block - np.median(block, axis=0))
            keep = 0.6745 * dev <= z_cut * np.median(dev, axis=0)
            keep |= ~keep.any(axis=0) & (dev == dev.min(axis=0))
            mad_lower[cols] = np.min(block, axis=0, where=keep, initial=np.inf)
            mad_upper[cols] = np.max(block, axis=0, where=keep, initial=-np.inf)
    return StateProfile(lower, upper, sigma, mad_lower, mad_upper, provenance)


def _check_profile(model: QnnModel, prof: StateProfile) -> StateProfile:
    """prof, if it has one state per basis state of the model."""
    if prof.num_states != 2**model.num_qubits:
        raise InputError(
            f"profile has {prof.num_states} states but model produces "
            f"{2**model.num_qubits}"
        )
    return prof


def coverage_suite(
    model: QnnModel,
    suite: LabeledDataset,
    prof: StateProfile,
    config: CoverageConfig,
    shots: Optional[int] = None,
    seed: int = 0,
) -> CoverageReport:
    """Coverage report for a whole suite, folded in as one batch."""
    _check_profile(model, prof)
    tracker = CoverageTracker(prof, config)
    tracker.fold(collect_prob_vectors(model, suite, shots=shots, seed=seed))
    return tracker.report()
