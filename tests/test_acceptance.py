"""Acceptance suite: one exact reference fixture plus property-based and
directional criteria. Each test prints a single PASS/FAIL line with its
headline numbers so the suite doubles as a results summary."""

import time

import numpy as np
import pytest

from statecov.attacks import AttackConfig, attack_suite
from statecov.coverage import (
    CoverageConfig,
    CoverageTracker,
    collect_prob_vectors,
    coverage_suite,
    mad_refine,
    profile,
)
from statecov.datasets import gaussian_blobs, synthetic_grid_digits
from statecov.fixtures import (
    REFERENCE_EXPECTED,
    reference_coverage_config,
    reference_input_vector,
    reference_two_qubit_profile,
)
from statecov.fuzz import FuzzConfig, fuzz, random_test
from statecov.gradients import input_grad
from statecov.qnn import (
    AnsatzSpec,
    EncoderSpec,
    LabeledDataset,
    build_model,
    encode_batch,
    forward,
    forward_batch,
    softmax,
    z_sign_matrix,
)
from statecov.sim import (
    CircuitSpec,
    Gate,
    GateOp,
    adjoint_sweep,
    apply_circuit_batch,
)

from conftest import (
    brute_force_coverage,
    dense_circuit_matrix,
    random_circuit,
    random_profile_and_suite,
)
from oracles import cross_entropy, finite_diff_grad, haar_random_state, param_shift_grad


def _verdict(num, label, ok, detail, budget, elapsed):
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail} "
        f"[{elapsed:.1f}s / budget {budget:.0f}s]"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget"


def test_criterion_1_reference_fixture():
    t0 = time.monotonic()
    tracker = CoverageTracker(reference_two_qubit_profile(), reference_coverage_config())
    tracker.add_input(reference_input_vector())
    rep = tracker.report()
    got = {"ksc": rep.ksc, "scc": rep.scc, "tsc": rep.tsc}
    _verdict(
        1,
        "reference fixture",
        got == REFERENCE_EXPECTED,
        f"KSC={rep.ksc}% SCC={rep.scc}% TSC={rep.tsc}% (expected "
        f"{REFERENCE_EXPECTED['ksc']}/{REFERENCE_EXPECTED['scc']}/{REFERENCE_EXPECTED['tsc']})",
        1.0,
        time.monotonic() - t0,
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(20)
    mismatches = 0
    for _ in range(100):
        q = int(rng.integers(1, 5))
        prof, suite = random_profile_and_suite(rng, q, int(rng.integers(1, 51)))
        config = CoverageConfig(
            k_cells=int(rng.integers(2, 40)), top_k=int(rng.integers(1, 2**q + 1))
        )
        tracker = CoverageTracker(prof, config)
        for pv in suite:
            tracker.add_input(pv)
        rep = tracker.report()
        oracle = brute_force_coverage(prof, config, suite)
        if (rep.ksc, rep.scc, rep.tsc) != (oracle["ksc"], oracle["scc"], oracle["tsc"]):
            mismatches += 1
    _verdict(
        2,
        "oracle equivalence",
        mismatches == 0,
        f"{100 - mismatches}/100 random (profile, suite) instances match brute force exactly",
        30.0,
        time.monotonic() - t0,
    )


def test_criterion_3_monotonicity(toy4_model, toy4_train_data):
    t0 = time.monotonic()
    rng = np.random.default_rng(30)
    violations = 0
    for _ in range(100):
        q = int(rng.integers(1, 4))
        prof, pool = random_profile_and_suite(rng, q, int(rng.integers(4, 30)))
        config = CoverageConfig(k_cells=int(rng.integers(2, 20)))
        cut = int(rng.integers(1, pool.shape[0]))
        a, b = pool[:cut], pool[cut:]
        ra = brute_force_coverage(prof, config, a)
        rb = brute_force_coverage(prof, config, b)
        ru = brute_force_coverage(prof, config, pool)
        for key in ("ksc", "scc", "tsc"):
            if ru[key] < max(ra[key], rb[key]) - 1e-12:
                violations += 1
    prof = profile(toy4_model, toy4_train_data)
    self_rep = coverage_suite(
        toy4_model, toy4_train_data, prof, CoverageConfig(k_cells=50)
    )
    _verdict(
        3,
        "monotonicity",
        violations == 0 and self_rep.scc == 0.0,
        f"{violations} union violations over 100 pairs; "
        f"SCC(profiling set, raw)={self_rep.scc}%",
        30.0,
        time.monotonic() - t0,
    )


def test_criterion_4_simulator_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(50):
        q = int(rng.integers(1, 5))
        circuit, params = random_circuit(rng, q)
        psi = haar_random_state(q, int(rng.integers(1 << 30)))
        fast = apply_circuit_batch(psi[None], circuit, params)[0]
        dense = dense_circuit_matrix(circuit, params) @ psi
        worst = max(worst, float(np.max(np.abs(fast - dense))))

    bell = apply_circuit_batch(
        np.array([[1, 0, 0, 0]]),
        CircuitSpec(2, (GateOp(Gate.H, target=0), GateOp(Gate.CNOT, target=1, control=0)), 0),
        [],
    )[0]
    bell_err = float(np.max(np.abs(bell - np.array([1, 0, 0, 1]) / np.sqrt(2))))
    ry = apply_circuit_batch(
        np.array([[1, 0]]),
        CircuitSpec(1, (GateOp(Gate.RY, target=0, param_slot=0),), 1),
        [np.pi / 3],
    )[0]
    ry_err = float(np.max(np.abs(ry - np.array([np.cos(np.pi / 6), np.sin(np.pi / 6)]))))
    _verdict(
        4,
        "simulator correctness",
        worst < 1e-10 and bell_err < 1e-12 and ry_err < 1e-12,
        f"dense-oracle max err {worst:.2e} over 50 circuits; "
        f"Bell err {bell_err:.1e}, RY err {ry_err:.1e}",
        10.0,
        time.monotonic() - t0,
    )


def test_criterion_5_gradient_check():
    # three-way agreement: the adjoint sweep (the production path), the
    # parameter-shift rule and central finite differences
    t0 = time.monotonic()
    rng = np.random.default_rng(50)
    worst_param = worst_adjoint = 0.0
    for preset in ("layered", "entangling"):
        model = build_model(
            EncoderSpec("angle", 4), AnsatzSpec(preset, 2, "cyclic"), 4, 2, seed=5
        )
        signs = z_sign_matrix(model.readout_qubits, 4)
        for _ in range(20):
            model = model.with_params(rng.uniform(-np.pi, np.pi, model.params.size))
            x = rng.uniform(0.1, 0.9, 4)
            grad = param_shift_grad(model, x, 0)
            states = encode_batch(model.encoder, x, 4)
            out = apply_circuit_batch(states, model.circuit, model.params)
            adjoint, _ = adjoint_sweep(out, signs[0] * out, model.circuit, model.params)

            def expectation(p, model=model, x=x):
                _, scores = forward(model.with_params(p), x)
                return float(scores[0])

            fd = finite_diff_grad(expectation, model.params, 1e-4)
            worst_param = max(worst_param, float(np.max(np.abs(grad - fd))))
            worst_param = max(worst_param, float(np.max(np.abs(adjoint - fd))))
            worst_adjoint = max(worst_adjoint, float(np.max(np.abs(adjoint - grad))))

    worst_input = worst_input_shift = 0.0
    for encoder, q, d in (("angle", 4, 4), ("amplitude", 3, 8)):
        model = build_model(
            EncoderSpec(encoder, d), AnsatzSpec("layered", 2, "linear"), q, 2, seed=6
        )
        for _ in range(5):
            x = rng.uniform(0.1, 0.9, d)
            grad = input_grad(model, x, 1)

            def loss(feats, model=model):
                _, scores = forward(model, feats)
                return cross_entropy(scores, 1)

            fd = finite_diff_grad(loss, x, 1e-5)
            worst_input = max(worst_input, float(np.max(np.abs(grad - fd))))
            if encoder == "angle":
                # RY(pi x) shifted by pi/2 is x shifted by 1/2
                _, scores = forward(model, x)
                resid = softmax(scores)
                resid[1] -= 1.0
                shift = np.array([
                    np.pi * (forward(model, x + h)[1] - forward(model, x - h)[1]) / 2.0
                    for h in 0.5 * np.eye(d)
                ])
                worst_input_shift = max(
                    worst_input_shift, float(np.max(np.abs(grad - shift @ resid)))
                )
    _verdict(
        5,
        "gradient check",
        worst_param < 1e-6
        and worst_adjoint < 1e-10
        and worst_input < 1e-5
        and worst_input_shift < 1e-10,
        f"param-shift and adjoint vs FD max err {worst_param:.2e}, adjoint vs "
        f"param-shift {worst_adjoint:.2e} (20 draws x 2 presets); input grad vs FD "
        f"{worst_input:.2e}, vs angle shift rule {worst_input_shift:.2e}",
        60.0,
        time.monotonic() - t0,
    )


def _cov_vec(model, prof, config, features):
    suite = LabeledDataset(features, np.zeros(len(features)))
    rep = coverage_suite(model, suite, prof, config)
    return np.array([rep.ksc, rep.scc, rep.tsc])


def test_criterion_6_rq1_direction(toy4_model, toy4_train_data):
    t0 = time.monotonic()
    prof = profile(toy4_model, toy4_train_data)
    config = CoverageConfig(k_cells=50)
    single, two, small, large = [], [], [], []
    for s in range(10):
        d = gaussian_blobs(2, 30, 4, spread=0.12, seed=100 + s)
        c0 = d.features[d.labels == 0][:20]
        mixed = np.vstack(
            [d.features[d.labels == 0][:10], d.features[d.labels == 1][:10]]
        )
        single.append(_cov_vec(toy4_model, prof, config, c0))
        two.append(_cov_vec(toy4_model, prof, config, mixed))
        d2 = gaussian_blobs(2, 60, 4, spread=0.12, seed=200 + s)
        small.append(_cov_vec(toy4_model, prof, config, d2.features[:20]))
        large.append(_cov_vec(toy4_model, prof, config, d2.features))
    single, two, small, large = (np.mean(a, axis=0) for a in (single, two, small, large))
    ok = bool(np.all(two >= single) and np.all(large >= small))
    _verdict(
        6,
        "RQ1 direction",
        ok,
        f"two-class {two.round(2)} >= single-class {single.round(2)}; "
        f"large {large.round(2)} >= small {small.round(2)} (KSC/SCC/TSC, 10 seeds)",
        300.0,
        time.monotonic() - t0,
    )


def test_criterion_7_rq2_direction(toy4_model, toy4_train_data):
    t0 = time.monotonic()
    prof = profile(toy4_model, toy4_train_data)
    config = CoverageConfig(k_cells=50)
    org_cov, comb_cov = [], []
    for s in range(10):
        d = gaussian_blobs(2, 15, 4, spread=0.12, seed=300 + s)
        adv, _ = attack_suite(toy4_model, d, AttackConfig(kind="fgsm", seed=s))
        org_cov.append(_cov_vec(toy4_model, prof, config, d.features))
        comb_cov.append(
            _cov_vec(toy4_model, prof, config, np.vstack([d.features, adv.features]))
        )
    org_cov = np.mean(org_cov, axis=0)
    comb_cov = np.mean(comb_cov, axis=0)
    ok = bool(comb_cov[0] > org_cov[0] and comb_cov[1] > org_cov[1])
    _verdict(
        7,
        "RQ2 direction",
        ok,
        f"Org KSC/SCC {org_cov[:2].round(2)} -> Org+FGSM {comb_cov[:2].round(2)} "
        "(10 seeds)",
        300.0,
        time.monotonic() - t0,
    )


def test_criterion_8_rq3_direction(grid6_model, grid6_train_data):
    t0 = time.monotonic()
    prof = profile(grid6_model, grid6_train_data)
    seeds = synthetic_grid_digits(samples_per_class=6, grid=8, noise=0.3, seed=99)
    runs = 12
    details = []
    ok = True
    for criterion, ccfg in (
        ("ksc", CoverageConfig()),
        ("scc", CoverageConfig()),
        ("tsc", CoverageConfig(top_k=2)),
    ):
        guided = [
            fuzz(
                grid6_model,
                seeds,
                prof,
                FuzzConfig(criterion=criterion, max_iterations=600, alpha=0.3, seed=s, coverage=ccfg),
            )
            for s in range(runs)
        ]
        rate = float(np.mean([g.reenqueue_rate for g in guided]))
        rand = [
            random_test(
                grid6_model,
                seeds,
                prof,
                FuzzConfig(criterion=criterion, max_iterations=600, alpha=0.3, seed=s, coverage=ccfg),
                reenqueue_prob=rate,
            )
            for s in range(runs)
        ]
        g_tsr = float(np.mean([g.tsr for g in guided]))
        r_tsr = float(np.mean([r.tsr for r in rand]))
        ok = ok and g_tsr > r_tsr
        details.append(f"{criterion}: guided {g_tsr:.2f}% vs random {r_tsr:.2f}%")
    _verdict(
        8,
        "RQ3 direction",
        ok,
        f"mean TSR over {runs} runs, matched re-enqueue budget -- " + "; ".join(details),
        600.0,
        time.monotonic() - t0,
    )


def test_criterion_9_rq4_shot_convergence(toy4_model, toy4_train_data):
    t0 = time.monotonic()
    prof = profile(toy4_model, toy4_train_data)
    config = CoverageConfig(k_cells=50)
    suite = gaussian_blobs(2, 25, 4, spread=0.12, seed=77)
    exact = coverage_suite(toy4_model, suite, prof, config)
    shot_grid = (100, 1_000, 10_000, 100_000)
    dev_ksc, dev_tsc = {}, {}
    for shots in shot_grid:
        ks, ts = [], []
        for s in range(3):
            rep = coverage_suite(toy4_model, suite, prof, config, shots=shots, seed=s)
            ks.append(abs(rep.ksc - exact.ksc))
            ts.append(abs(rep.tsc - exact.tsc))
        dev_ksc[shots] = float(np.mean(ks))
        dev_tsc[shots] = float(np.mean(ts))
    converges = (
        dev_ksc[100_000] <= dev_ksc[100] and dev_tsc[100_000] <= dev_tsc[100]
    )
    ok = converges and dev_ksc[100_000] < 5.0 and dev_tsc[100_000] < 5.0
    _verdict(
        9,
        "RQ4 shot convergence",
        ok,
        f"KSC deviation {dev_ksc[100]:.2f} -> {dev_ksc[100_000]:.2f} pts, "
        f"TSC deviation {dev_tsc[100]:.2f} -> {dev_tsc[100_000]:.2f} pts "
        f"across shots {shot_grid}",
        600.0,
        time.monotonic() - t0,
    )


def test_criterion_10_mad_stabilization(toy4_model, toy4_train_data):
    t0 = time.monotonic()
    pvs = collect_prob_vectors(toy4_model, toy4_train_data)
    _, scores = forward_batch(toy4_model, toy4_train_data.features)
    margin = np.abs(scores[:, 0] - scores[:, 1])
    labels = toy4_train_data.labels
    suite_pvs = collect_prob_vectors(
        toy4_model, gaussian_blobs(2, 25, 4, spread=0.12, seed=77)
    )

    def cov(prof, mode):
        tracker = CoverageTracker(prof, CoverageConfig(k_cells=50, boundary_mode=mode))
        for pv in suite_pvs:
            tracker.add_input(pv)
        rep = tracker.report()
        return rep.ksc, rep.scc

    nesting_ok = True
    raw_spreads, mad_spreads = [], []
    c0 = np.flatnonzero(labels == 0)
    c1 = np.flatnonzero(labels == 1)
    order = np.argsort(margin)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        selections = {
            "imbalanced": np.concatenate(
                [rng.choice(c0, 36, replace=False), rng.choice(c1, 4, replace=False)]
            ),
            "held_out_class": rng.choice(c0, 40, replace=False),
            "low_margin": rng.permutation(order[:40]),
            "high_margin": rng.permutation(order[-40:]),
        }
        raw_k, raw_s, mad_k, mad_s = [], [], [], []
        for idx in selections.values():
            prof = mad_refine(pvs[idx])
            nesting_ok = nesting_ok and bool(
                np.all(prof.mad_lower >= prof.lower)
                and np.all(prof.mad_upper <= prof.upper)
            )
            k, s = cov(prof, "raw")
            raw_k.append(k)
            raw_s.append(s)
            k, s = cov(prof, "mad")
            mad_k.append(k)
            mad_s.append(s)
        raw_spreads.append((max(raw_k) - min(raw_k), max(raw_s) - min(raw_s)))
        mad_spreads.append((max(mad_k) - min(mad_k), max(mad_s) - min(mad_s)))
    raw_spread = np.mean(raw_spreads, axis=0)
    mad_spread = np.mean(mad_spreads, axis=0)
    ok = nesting_ok and bool(np.all(mad_spread <= raw_spread))
    _verdict(
        10,
        "MAD stabilization",
        ok,
        f"nesting holds; spread KSC/SCC raw {raw_spread.round(2)} vs "
        f"MAD {mad_spread.round(2)} over 4 selections x 10 seeds",
        600.0,
        time.monotonic() - t0,
    )
