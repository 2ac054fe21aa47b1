"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Published hardware tables are used only as annotations and
order-of-magnitude brackets; synthetic-noise criteria stand in for the
undisclosed device noise.
"""

import json

import numpy as np
import pytest

from lmgvqe import (
    Circuit,
    EstimatorConfig,
    Gate,
    Mitigation,
    ModelParams,
    NoiseModel,
    PauliString,
    ansatz_1q,
    ansatz_2q,
    build_blocks,
    calibrate,
    decompose,
    eigensolve,
    estimate,
    measure_term,
    minimize_variance,
    mitigate_counts,
    multiply,
    parity_signs,
    run,
)
from lmgvqe.cli import main

from conftest import (
    N3_A_EIGS,
    N3_A_PAULI_PRINTED,
    N3_A_SQ_PAULI_PRINTED,
    N3_B_EIGS,
    N3_B_PAULI_PRINTED,
    N3_B_SQ_PAULI_PRINTED,
    N7_PAULI_PRINTED,
    N7_SQ_PAULI_PRINTED,
    eigenstate_parameters_2q,
    outcome_rows,
    term_estimate,
)


def coefficients(psum):
    return {str(s): c for c, s in psum.terms}


def test_criterion_1_encoding_regression(n3_a, n3_b, n7_a):
    printed = [
        (n3_a.h, N3_A_PAULI_PRINTED, 1e-3),
        (n3_b.h, N3_B_PAULI_PRINTED, 1e-3),
        (n3_a.h2, N3_A_SQ_PAULI_PRINTED, 1e-3),
        (n3_b.h2, N3_B_SQ_PAULI_PRINTED, 1e-3),
        (n7_a.h, N7_PAULI_PRINTED, 2e-3),
        (n7_a.h2, N7_SQ_PAULI_PRINTED, 2e-3),
    ]
    for psum, reference, tol in printed:
        found = coefficients(psum)
        assert set(found) == set(reference)
        for name, value in reference.items():
            assert found[name] == pytest.approx(value, abs=tol)
    # internal full-precision recomputation: encode, rebuild the dense matrix, re-encode
    for setup in (n3_a, n3_b, n7_a):
        for psum in (setup.h, setup.h2):
            again = coefficients(decompose(psum.matrix))
            for name, value in coefficients(psum).items():
                assert again[name] == pytest.approx(value, abs=1e-9)
    print("\nACCEPTANCE 1 (encoding regression, N=3 and N=7): PASS")


def test_criterion_2_exact_spectrum_n3(tmp_path):
    expected = {"A": N3_A_EIGS, "B": N3_B_EIGS}
    for block in ("A", "B"):
        out = tmp_path / block
        rc = main([
            "spectrum", "--n", "3", "--block", block, "--starts", "20",
            "--shots", "exact", "--seed", "101", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads((out / "spectrum.json").read_text())
        assert doc["coverage"] == 1.0
        found = sorted(c["energy"] for c in doc["clusters"])
        np.testing.assert_allclose(found, expected[block], atol=1e-3)
        for run_summary in doc["runs"]:
            assert run_summary["converged"]
            assert abs(run_summary["variance"]) < 1e-8
    print("ACCEPTANCE 2 (N=3 exact spectrum, both blocks, 20 starts): PASS")


@pytest.fixture(scope="module")
def n7_spectrum(tmp_path_factory):
    out = tmp_path_factory.mktemp("n7")
    rc = main([
        "spectrum", "--n", "7", "--block", "A", "--starts", "40",
        "--shots", "exact", "--seed", "202", "--out", str(out),
    ])
    return rc, out


def test_criterion_3_exact_spectrum_n7(n7_spectrum, tmp_path):
    rc, out = n7_spectrum
    assert rc == 0
    doc = json.loads((out / "spectrum.json").read_text())
    found = sorted(c["energy"] for c in doc["clusters"])
    np.testing.assert_allclose(found, (-6.208, -2.944, 1.208, 5.944), atol=1e-3)
    overlap_dir = tmp_path / "overlaps"
    rc = main([
        "overlaps", "--n", "7", "--block", "A", "--starts", "40",
        "--shots", "exact", "--seed", "202", "--out", str(overlap_dir),
    ])
    assert rc == 0
    lines = [l for l in (overlap_dir / "overlaps.csv").read_text().splitlines()
             if not l.startswith("#")]
    rows = [line.split(",") for line in lines[1:]]
    for k, row in enumerate(rows):
        assert float(row[1 + k]) > 0.999  # diagonal of the fidelity matrix
    print("ACCEPTANCE 3 (N=7 exact spectrum + overlap diagonal > 0.999): PASS")


def test_criterion_4_shot_noise_realism(n3_a):
    exact = np.array(N3_A_EIGS)
    hits = 0
    stderrs = []
    for seed in range(100):
        start = np.random.default_rng(seed).uniform(-np.pi, np.pi, 1)
        config = EstimatorConfig(shots=20_000, seed=seed)
        trace = minimize_variance(n3_a.h, n3_a.h2, ansatz_1q(), start, config)
        assert trace.converged
        energy, stderr = trace.final.energy, trace.final.energy_stderr
        stderrs.append(stderr)
        assert 0.005 <= stderr <= 0.1  # brackets the published 0.062-0.064
        if np.min(np.abs(energy - exact)) <= 4 * stderr:
            hits += 1
    assert hits >= 95
    print(
        f"ACCEPTANCE 4 (20k-shot realism: stderr {min(stderrs):.4f}-{max(stderrs):.4f}, "
        f"{hits}/100 within 4 stderr): PASS"
    )


def test_criterion_5_readout_mitigation_efficacy():
    noise = NoiseModel(readout_p01=0.02, readout_p10=0.02)
    shots = 20_000
    z0 = PauliString(("Z",))
    prepared = {
        1.0: Circuit(1, ()),
        -1.0: Circuit(1, (Gate("x", target=0),)),
    }
    passes = 0
    for seed in range(100):
        trial_ok = True
        for k, (true_value, circuit) in enumerate(prepared.items()):
            cal = calibrate(1, noise, shots, seed=10_000 + 2 * seed + k)
            dist = outcome_rows(circuit, (), [z0], noise)[0]
            result = measure_term(dist, shots, 20_000 + 2 * seed + k)
            raw, _ = term_estimate(result, z0)
            mitigated = parity_signs(z0) @ mitigate_counts(result, cal)
            if abs(mitigated - true_value) > abs(raw - true_value) / 5.0:
                trial_ok = False
        passes += trial_ok
    assert passes >= 95
    print(f"ACCEPTANCE 5 (readout mitigation bias / raw bias <= 1/5: {passes}/100): PASS")


def test_criterion_6_cnot_extrapolation_efficacy(n7_a):
    # grid through the ground-state basin, where the depolarizing bias is
    # resolvable at 20k shots; far from any eigenstate the true bias can
    # vanish and the comparison would be a coin toss
    noise = NoiseModel(cnot_depolarizing=0.01)
    ground = eigensolve(n7_a.block.matrix).eigenvectors[:, 0]
    base = np.array(eigenstate_parameters_2q(ground))
    wins = 0
    for i, delta in enumerate(np.linspace(-0.6, 0.6, 10)):
        params = base + np.array([delta, 0.0, 0.0])
        exact = estimate(ansatz_2q(), params, n7_a.h, n7_a.h2).energy
        fold1 = estimate(
            ansatz_2q(), params, n7_a.h, n7_a.h2,
            shots=20_000, noise=noise, seed=3_000 + i,
        ).energy
        extrapolated = estimate(
            ansatz_2q(), params, n7_a.h, n7_a.h2,
            shots=20_000, noise=noise, seed=4_000 + i,
            mitigation=Mitigation(cnot=True, folds=(1, 3)),
        ).energy
        if abs(extrapolated - exact) < abs(fold1 - exact):
            wins += 1
    assert wins >= 8
    print(f"ACCEPTANCE 6 (CNOT fold-{{1,3}} extrapolation closer at {wins}/10 points): PASS")


def test_criterion_7a_parity_mirror():
    for n in (3, 5, 7, 9):
        a, b = build_blocks(ModelParams(n, v=0.5))
        ev_a = eigensolve(a.matrix).eigenvalues
        ev_b = eigensolve(b.matrix).eigenvalues
        np.testing.assert_allclose(ev_b, -ev_a[::-1], atol=1e-12)
    print("ACCEPTANCE 7a (parity-mirror spectra, N in {3,5,7,9}, 1e-12): PASS")


def test_criterion_7b_pauli_round_trip():
    rng = np.random.default_rng(3141)
    for case in range(100):
        dim = 2 if case < 50 else 4
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = (m + m.conj().T) / 2.0
        np.testing.assert_allclose(decompose(m).matrix, m, atol=1e-10)
    print("ACCEPTANCE 7b (Pauli round trip, 100 random Hermitian, 1e-10): PASS")


def test_criterion_7c_symbolic_square_matches_dense(n3_a, n3_b, n7_a):
    for setup in (n3_a, n3_b, n7_a):
        symbolic = coefficients(multiply(setup.h, setup.h))
        dense = coefficients(setup.h2)
        assert set(symbolic) == set(dense)
        for name in dense:
            assert symbolic[name] == pytest.approx(dense[name], abs=1e-10)
    print("ACCEPTANCE 7c (symbolic square == dense square, 1e-10): PASS")


def test_criterion_7d_variance_characterization(n3_a, n7_a):
    # exact variance equals the squared eigen-residual, so it is >= 0 and
    # vanishes exactly on eigenvectors
    m = n3_a.block.matrix
    for theta in np.linspace(-np.pi, np.pi, 360):
        result = estimate(ansatz_1q(), [theta], n3_a.h, n3_a.h2)
        psi = run(ansatz_1q(), [theta]).amplitudes.real
        residual_sq = np.linalg.norm(m @ psi - (psi @ m @ psi) * psi) ** 2
        assert result.variance >= 0.0
        assert result.variance == pytest.approx(residual_sq, abs=1e-10)
    m7 = n7_a.block.matrix
    axis = np.linspace(-np.pi, np.pi, 10)
    for t0 in axis:
        for t1 in axis:
            for t2 in axis:
                result = estimate(ansatz_2q(), (t0, t1, t2), n7_a.h, n7_a.h2)
                assert result.variance >= 0.0
                if abs(result.variance) < 1e-8:
                    psi = run(ansatz_2q(), (t0, t1, t2)).amplitudes.real
                    residual = np.linalg.norm(m7 @ psi - (psi @ m7 @ psi) * psi)
                    assert residual < 1e-3
    print("ACCEPTANCE 7d (variance >= 0, zero iff eigenvector, sweep grids): PASS")


def test_criterion_7e_seed_determinism(tmp_path):
    args = [
        "spectrum", "--n", "3", "--block", "A", "--starts", "10",
        "--shots", "20000", "--noise-readout", "0.02", "--mitigate", "readout",
        "--seed", "77",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    names = ["spectrum.json", "clusters.csv"] + [f"trace_{i:03d}.csv" for i in range(10)]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    print("ACCEPTANCE 7e (byte-identical seeded reruns): PASS")


def test_criterion_8_hardware_numbers_are_annotations(n7_spectrum):
    # the published device values appear in reports as annotation columns,
    # never as assertion targets for synthetic-noise runs
    _, out = n7_spectrum
    lines = [l for l in (out / "clusters.csv").read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert "published_qc_value" in header
    idx = header.index("published_qc_value")
    values = [line.split(",")[idx] for line in lines[1:]]
    assert values == ["-6.067", "-3.151", "1.184", "5.902"]
    print("ACCEPTANCE 8 (hardware tables rendered as annotations only): PASS")
