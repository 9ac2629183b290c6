"""Exact statevector simulation of parameterized quantum circuits.

Basis-state ordering is big-endian: qubit 0 is the most significant bit of
the basis index. All public operations are pure functions; inputs are never
modified in place.

The cached properties CircuitSpec.blocks and CircuitSpec.plan group a circuit
once into blocks (qsim's gate fusion; Haener & Steiger 2017, arXiv:1704.01127)
and compile it once for the 2x2 kernel. A dense block holds gates on a window
of at most BLOCK_QUBITS = 6 contiguous qubits and acts as one 2^w x 2^w matrix
U: one stacked matrix product per row on the (2^lo, 2^w, 2^(q-lo-w)) view, so
a row's result does not depend on its batch.
A wide block holds CNOT and CZ gates 6 or more qubits apart (the cyclic wrap,
star and full pairs at q > 6), run on the state by the 2x2 kernel, so no
matrix wider than 2^6 is built. That kernel fuses runs of single-qubit gates,
acts in place on qubit-axis views and builds each U from the identity rows.
The spec keeps the matrices of the last parameters for the adjoint sweep.

One block walk, _walk, runs both passes: forwards for apply_circuit_batch and
backwards for adjoint_sweep (Jones & Gacon 2020, arXiv:2009.02823), where U^dag
undoes a block on the outputs and costates stacked, M = sum lam_out psi_in^dag
is one matrix product, and the 2x2 kernel's own sweep of the block's gates,
from U's identity-row outputs with M's columns as costates, adds the block's
angle gradients: one reverse pass for all of them. A wide block has no angles,
so the kernel only undoes it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Gate",
    "GateOp",
    "CircuitSpec",
    "SimulationError",
    "restrict",
    "apply_circuit_batch",
    "adjoint_sweep",
]

# Widest window of qubits a dense block acts on: its matrix is 2^6 x 2^6.
BLOCK_QUBITS = 6


class SimulationError(ValueError):
    """Raised on malformed circuits or dimension mismatches."""


class Gate(str, Enum):
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CNOT = "cnot"
    CZ = "cz"


ROTATION_GATES = frozenset({Gate.RX, Gate.RY, Gate.RZ})


@dataclass(frozen=True)
class GateOp:
    """A single gate: a rotation of one target qubit by the angle in its
    parameter slot, or a CNOT or CZ of a control and a target qubit."""

    kind: Gate
    target: int
    control: Optional[int] = None
    param_slot: Optional[int] = None

    def __post_init__(self):
        if self.kind in ROTATION_GATES:
            if self.param_slot is None:
                raise SimulationError(f"{self.kind.value} gate requires a param_slot")
            if self.control is not None:
                raise SimulationError(f"{self.kind.value} gate takes no control qubit")
        elif self.param_slot is not None:
            raise SimulationError(f"{self.kind.value} gate takes no parameter")
        elif self.control is None:
            raise SimulationError(f"{self.kind.value} gate requires a control qubit")
        elif self.control == self.target:
            raise SimulationError("control and target qubits must be distinct")


@dataclass(frozen=True)
class CircuitSpec:
    """An ordered gate program over a fixed number of qubits."""

    num_qubits: int
    gates: tuple
    num_params: int

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise SimulationError("num_qubits must be >= 1")
        for idx, g in enumerate(self.gates):
            for qubit in (g.target, g.control):
                if qubit is not None and not (0 <= qubit < self.num_qubits):
                    raise SimulationError(
                        f"gate {idx} ({g.kind.value}): qubit {qubit} out of range "
                        f"for {self.num_qubits} qubits"
                    )
            if g.param_slot is not None and not (0 <= g.param_slot < self.num_params):
                raise SimulationError(
                    f"gate {idx} ({g.kind.value}): param_slot {g.param_slot} out of "
                    f"range for {self.num_params} parameters"
                )

    @cached_property
    def plan(self) -> _Plan:
        """The circuit compiled for the 2x2 kernel, on first use."""
        return _compile(self)

    @cached_property
    def blocks(self) -> tuple:
        """The circuit grouped into blocks (lo, block circuit), on first use."""
        return _group(self)


_I2 = np.eye(2, dtype=np.complex128)
# A rotation by theta is cos(theta/2) I + sin(theta/2) times this matrix.
_SIN_PART = {
    Gate.RX: np.array([[0, -1j], [-1j, 0]]),
    Gate.RY: np.array([[0, -1], [1, 0]], dtype=np.complex128),
    Gate.RZ: np.array([[-1j, 0], [0, 1j]]),
}
_ALL = slice(None)


@dataclass(frozen=True)
class _Plan:
    """A CircuitSpec compiled for the 2x2 kernel.

    Matrix row r is cos(t) I + sin(t) sin_part[r] with t = params[slots[r]] / 2
    (slot num_params reads a zero angle); row 0, a zero angle with a zero
    sin_part, is the identity that pads runs. Run j is the product of the rows
    runs[j, 0], runs[j, 1], ... in gate order. A step is (action, view shape,
    index of the target=0 half, index of the target=1 half, run); the action
    is Gate.CNOT, Gate.CZ or None for a 2x2 mix of the halves by a run.
    """

    slots: np.ndarray
    sin_part: np.ndarray
    runs: np.ndarray
    steps: tuple


def _compile(circuit: CircuitSpec) -> _Plan:
    """Group the gates into fused runs and lay out each step's view."""
    q = circuit.num_qubits
    rows = [(circuit.num_params, np.zeros((2, 2), dtype=np.complex128))]
    runs, steps, pending = [], [], {}

    def flush(qubit):
        run = pending.pop(qubit, None)
        if run:
            steps.append((None, (-1, 2, 1 << (q - 1 - qubit)), (_ALL, 0), (_ALL, 1), len(runs)))
            runs.append(run)

    for op in circuit.gates:
        if op.control is None:
            rows.append((op.param_slot, _SIN_PART[op.kind]))
            pending.setdefault(op.target, []).append(len(rows) - 1)
            continue
        flush(op.control)
        flush(op.target)
        # axis 1 is the higher-order qubit of the pair, axis 3 the lower-order one
        hi, lo = sorted((op.control, op.target))
        shape = (-1, 2, 1 << (lo - hi - 1), 2, 1 << (q - 1 - lo))
        i0, i1 = ((_ALL, 1, _ALL, b) if op.control == hi else (_ALL, b, _ALL, 1) for b in (0, 1))
        steps.append((op.kind, shape, i0, i1, None))
    for qubit in sorted(pending):
        flush(qubit)

    slots, sin_part = (np.array(col) for col in zip(*rows))
    width = max(map(len, runs), default=1)
    runs = np.array([r + [0] * (width - len(r)) for r in runs], dtype=np.int64)
    return _Plan(slots, sin_part, runs.reshape(-1, width), tuple(steps))


def restrict(circuit: CircuitSpec, qubits) -> CircuitSpec:
    """The circuit on the given qubits, relabelled 0, 1, ... in ascending order."""
    local = {b: i for i, b in enumerate(sorted(set(qubits)))}
    for idx, g in enumerate(circuit.gates):
        for b in (g.target, g.control):
            if b is not None and b not in local:
                raise SimulationError(f"gate {idx}: qubit {b} is not among {sorted(local)}")
    ops = [replace(g, target=local[g.target], control=local.get(g.control)) for g in circuit.gates]
    return CircuitSpec(len(local), ops, circuit.num_params)


def _group(circuit: CircuitSpec) -> tuple:
    """Group the gates into blocks (lo, block circuit): dense ones on local
    qubits 0, 1, ... of a window of at most BLOCK_QUBITS qubits from lo, wide
    ones on all q qubits (lo = 0) for gates too far apart for a window. Each
    gate joins the earliest block of its kind at or after the last block
    touching its qubits whose window, if dense, stays within BLOCK_QUBITS, or
    else opens a new block; gates on shared qubits keep their order."""
    q = circuit.num_qubits
    last = [-1] * q  # the last block touching each qubit
    groups = []  # [lo, hi, gates]; a wide one spans the register
    for op in circuit.gates:
        qubits = (op.target,) if op.control is None else (op.target, op.control)
        lo, hi = min(qubits), max(qubits)
        if hi - lo >= BLOCK_QUBITS:
            lo, hi = 0, q - 1
        for j in range(max(0, *(last[b] for b in qubits)), len(groups)):
            glo, ghi, _ = groups[j]
            if max(hi, ghi) - min(lo, glo) < BLOCK_QUBITS or (lo, hi) == (glo, ghi):
                break
        else:
            j = len(groups)
            groups.append([lo, hi, []])
        groups[j][:2] = min(lo, groups[j][0]), max(hi, groups[j][1])
        groups[j][2].append(op)
        for b in qubits:
            last[b] = j
    return tuple((lo, restrict(CircuitSpec(q, ops, circuit.num_params), range(lo, hi + 1)))
                 for lo, hi, ops in groups)


def _evolve(batch, circuit: CircuitSpec, params, reverse=False, on_run=None, scratch=None):
    """Run a C-ordered (n, 2^q) complex batch through the circuit's 2x2 plan
    in place; scratch, if given, holds at least batch.size amplitudes. reverse
    walks the steps backwards with each fused run's conjugate transpose, which
    undoes a forward pass. on_run(x0, x1, run), if given, sees the two halves
    of each run's step just before the run acts on them. Returns every plan
    row's 2x2 matrix at these parameters."""
    plan = circuit.plan
    half = 0.5 * np.append(params, 0.0)[plan.slots][:, None, None]
    mats = np.cos(half) * _I2 + np.sin(half) * plan.sin_part
    fused = mats[plan.runs[:, 0]]
    for col in plan.runs.T[1:]:
        fused = mats[col] @ fused
    if reverse:
        fused = fused.conj().transpose(0, 2, 1)
    coeffs = fused.reshape(-1, 4).tolist()

    size = batch.size // 2
    scratch = np.empty(2 * size, dtype=np.complex128) if scratch is None else scratch.reshape(-1)
    for action, shape, i0, i1, run in reversed(plan.steps) if reverse else plan.steps:
        view = batch.reshape(shape)
        x0, x1 = view[i0], view[i1]
        if action is Gate.CZ:
            np.negative(x1, out=x1)
            continue
        tmp = scratch[: x0.size].reshape(x0.shape)
        if action is Gate.CNOT:
            np.copyto(tmp, x0)
            np.copyto(x0, x1)
            np.copyto(x1, tmp)
            continue
        if on_run is not None:
            on_run(x0, x1, run)
        part = scratch[size : size + x0.size].reshape(x0.shape)
        m00, m01, m10, m11 = coeffs[run]
        np.multiply(x0, m00, out=tmp)
        tmp += np.multiply(x1, m01, out=part)
        x1 *= m11
        x1 += np.multiply(x0, m10, out=part)
        np.copyto(x0, tmp)
    return mats


def _kernel_sweep(batch, circuit: CircuitSpec, params) -> np.ndarray:
    """The 2x2 kernel's adjoint sweep, in place on the circuit outputs psi
    stacked over their costates; leaves the inputs there, returns dL/dparams."""
    plan = circuit.plan
    corr = np.zeros((len(plan.runs), 2, 2), dtype=np.complex128)

    def record(x0, x1, run):
        # C_ab = sum conj(lam_a) psi_b at the run's output; psi leads every view
        h = x0.shape[0] // 2
        corr[run] = [[np.vdot(la, pb) for pb in (x0[:h], x1[:h])] for la in (x0[h:], x1[h:])]

    mats = _evolve(batch, circuit, params, True, record)
    # In a run R_w ... R_1, rotation R_i = cos(t/2) I + sin(t/2) S_i has
    # dR_i R_i^dag = S_i / 2, so with A = R_w ... R_{i+1} it adds
    # 2 Re sum_ab (A (S_i / 2) A^dag)_ab C_ab to its slot. Padding rows have
    # S = 0 and write to the dummy slot num_params.
    grad = np.zeros(circuit.num_params + 1)
    after = np.broadcast_to(_I2, corr.shape)
    for col in plan.runs.T[::-1]:
        gen = after @ plan.sin_part[col] @ after.conj().transpose(0, 2, 1)
        grad += np.bincount(plan.slots[col], np.real(gen * corr).sum(axis=(1, 2)), grad.size)
        after = after @ mats[col]
    return grad[:-1]


def _block_matrices(circuit: CircuitSpec, params: np.ndarray) -> list:
    """U^T of each dense block U (the 2x2 kernel on the identity rows), None for
    a wide block, at these parameters; kept on the spec for the last ones seen."""
    key = params.tobytes()
    if circuit.__dict__.get("_matrices", (None,))[0] != key:
        mats = [None] * len(circuit.blocks)
        for i, (_, block) in enumerate(circuit.blocks):
            if block.num_qubits <= BLOCK_QUBITS:
                mats[i] = np.eye(2**block.num_qubits, dtype=np.complex128)
                _evolve(mats[i], block, params)
        object.__setattr__(circuit, "_matrices", (key, mats))
    return circuit._matrices[1]


def _mix(src: np.ndarray, dst: np.ndarray, lo: int, u_t: np.ndarray) -> None:
    """dst = src with U (given as U^T) on the w qubits from lo; every row is
    its own stack of matrix products, so its result does not depend on the batch."""
    n, dim = src.shape
    k = len(u_t)  # 2^w
    outer, inner = n << lo, dim // (k << lo)
    if inner == 1:  # the window holds the lowest qubits
        np.matmul(src.reshape(n, dim // k, k), u_t, out=dst.reshape(n, dim // k, k))
    else:
        np.matmul(u_t.T, src.reshape(outer, k, inner), out=dst.reshape(outer, k, inner))


def _overlap(psi: np.ndarray, lam: np.ndarray, lo: int, k: int) -> np.ndarray:
    """M^T, M = sum lam psi^dag over rows and the axes outside the k-amplitude window at lo."""
    shape = (len(psi) << lo, k, psi.shape[1] // (k << lo))
    psi_t = np.conjugate(psi.reshape(shape).transpose(1, 0, 2), order="C").reshape(k, -1)
    return psi_t @ lam.reshape(shape).transpose(1, 0, 2).reshape(k, -1).T


def _check(states, circuit: CircuitSpec, params) -> tuple:
    """states as a C-ordered complex batch and params as floats, both checked."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (circuit.num_params,):
        raise SimulationError(f"expected {circuit.num_params} parameters, got {params.shape}")
    q = circuit.num_qubits
    batch = np.asarray(states, dtype=np.complex128, order="C")
    if batch.ndim != 2 or batch.shape[1] != 2**q:
        raise SimulationError(f"batch shape {batch.shape} incompatible with {q}-qubit circuit")
    return batch, params


def _walk(batch, spare, circuit: CircuitSpec, params, reverse=False, on_block=None):
    """Run a C-ordered (n, 2^q) complex batch through the circuit's blocks, or
    backwards through their inverses, swapping it with spare, a second buffer
    of its shape: a dense block mixes one into the other (U^T, or conj(U)
    backwards), a wide block runs in place with the other as scratch.
    on_block(out, inp, lo, block, u_t), if given, sees both sides of each
    dense block. Returns the buffer that holds the result."""
    pairs = list(zip(circuit.blocks, _block_matrices(circuit, params)))
    for (lo, block), u_t in reversed(pairs) if reverse else pairs:
        if u_t is None:
            _evolve(batch, block, params, reverse, scratch=spare)
            continue
        _mix(batch, spare, lo, u_t.conj().T if reverse else u_t)
        if on_block is not None:
            on_block(*((batch, spare) if reverse else (spare, batch)), lo, block, u_t)
        batch, spare = spare, batch
    return batch


def apply_circuit_batch(
    states: np.ndarray, circuit: CircuitSpec, params: Sequence[float]
) -> np.ndarray:
    """Evolve a (n, 2^q) batch of amplitude rows through the circuit.

    Linear in each row; rows need not be normalized. Returns a new array.
    """
    src, params = _check(states, circuit, params)
    return _walk(src.copy(), np.empty_like(src), circuit, params)


def adjoint_sweep(
    states: np.ndarray, costates: np.ndarray, circuit: CircuitSpec, params: Sequence[float]
) -> tuple:
    """Reverse-mode derivatives of a real function L of the circuit outputs.

    states are the outputs psi of a forward pass and costates the rows
    lam = dL/d conj(psi), so dL = 2 Re sum(conj(lam) dpsi). One backward walk
    over the blocks undoes each block on psi and lam stacked into one batch.
    Returns (dL/dparams summed over rows, the costate U^dag lam at the
    circuit input).
    """
    if np.shape(costates) != np.shape(states):
        raise SimulationError(
            f"costates {np.shape(costates)} do not match states {np.shape(states)}"
        )
    n = len(states)
    batch, params = _check(np.concatenate([states, costates]), circuit, params)
    grad = np.zeros(circuit.num_params)

    def add_grad(out, inp, lo, block, u_t):
        # The block U adds 2 Re sum_ab dU_ab conj(M_ab), M = sum lam_out psi_in^dag
        # over rows and outside axes: the 2x2 kernel's sweep of the block circuit
        # from its identity-row outputs U^T with M's columns as costates.
        if any(op.param_slot is not None for op in block.gates):
            local = np.concatenate([u_t, _overlap(inp[:n], out[n:], lo, len(u_t))])
            grad[:] += _kernel_sweep(local, block, params)

    return grad, _walk(batch, np.empty_like(batch), circuit, params, True, add_grad)[n:]
