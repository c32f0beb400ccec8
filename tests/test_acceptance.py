"""Acceptance gate: one timed end-to-end check per release criterion.

Each test records a PASS/FAIL line (printed by conftest after the run)
and enforces a wall-clock budget, so a green run doubles as a performance
smoke test. Tolerances are pinned here on purpose; loosening them is a
release decision, not a refactor.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from covchan.channels import (
    DensityMatrix,
    KrausSet,
    apply_channel,
    apply_to_matrix_units,
    channels_equal,
    random_kraus_set,
)
from covchan.cli import main
from covchan.covariance import (
    FrameTransform,
    MixingUnitary,
    compatibility_residual,
    conjugate_kraus,
    covariant_distance,
    extract_mixing,
    make_noncovariant_solution,
    mix_kraus,
    phase_permutation_distance,
)
from covchan.linalg import (
    dagger,
    frobenius_distance,
    random_density,
    random_unitary,
    spawn_rng,
)
from covchan.rigidity import PhaseEquivalence, n1_uniqueness_check
from covchan.scenario import Intervention, ScenarioConfig, Target, run_scenario

from conftest import matrix_to_obj, record_acceptance


def kraus_gram(ops) -> np.ndarray:
    """Hilbert-Schmidt Gram matrix ``G[a, b] = Tr(K_a^dagger K_b)``."""
    w = np.stack([np.ravel(op) for op in ops], axis=1)
    return w.conj().T @ w


DIMS = (2, 3, 4)
# Stratified cases toward the README's range, run after each criterion's
# small rows with the trial indices that follow theirs: d up to 32, rank up to 16
LARGE = [(d, n) for d in (8, 16, 32) for n in (1, 2, 4, 16)]
LARGE_MIXED = [(d, n) for d, n in LARGE if n > 1]  # rank 1 mixes only phases
S2 = 1.0 / np.sqrt(2.0)
I2 = np.eye(2, dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
HADAMARD = S2 * np.array([[1, 1], [1, -1]], dtype=complex)


@contextmanager
def criterion(label, budget=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s target"
            )
        ok = True
    finally:
        record_acceptance(label, ok, time.perf_counter() - start)


def _kraus_obj(ops):
    return {"dim": ops[0].shape[0], "ops": [matrix_to_obj(op) for op in ops]}


def test_conjugated_set_always_solves_compatibility():
    with criterion("1. conjugated Kraus set solves frame compatibility", 10.0):
        cases = [(DIMS[trial % 3], trial % 6 + 1) for trial in range(1000)]
        for trial, (d, n) in enumerate(cases + LARGE):
            k = random_kraus_set(d, n, spawn_rng(101, trial, 0))
            f = FrameTransform(random_unitary(d, spawn_rng(101, trial, 1)))
            res = compatibility_residual(k, conjugate_kraus(k, f), f)
            assert res <= 1e-10, f"trial {trial}: residual {res:.3e}"


def test_mixing_family_gives_distinct_compatible_solutions():
    with criterion("2. mixed solutions compatible yet noncovariant", 30.0):
        hits = 0
        degenerate = []
        cases = [(DIMS[trial % 3], 2 + trial % 3) for trial in range(1000)]
        cases += LARGE_MIXED
        for trial, (d, n) in enumerate(cases):
            k = random_kraus_set(d, n, spawn_rng(202, trial, 0))
            f = FrameTransform(random_unitary(d, spawn_rng(202, trial, 1)))
            draw = 0
            while True:
                v = MixingUnitary(random_unitary(n, spawn_rng(202, trial, 2, draw)))
                if phase_permutation_distance(v) > 1e-3:
                    break
                draw += 1
            lprime = make_noncovariant_solution(k, f, v)
            res = compatibility_residual(k, lprime, f)
            assert res <= 1e-9, f"trial {trial}: residual {res:.3e}"
            if covariant_distance(k, lprime, f) > 1e-3:
                hits += 1
            else:
                degenerate.append(trial)
        if degenerate:
            print(f"degenerate draws (logged, not failed): {degenerate}")
        assert hits >= len(cases) - 10, (
            f"only {hits}/{len(cases)} trials gave a distinct solution"
        )


def test_single_operator_rigidity(tmp_path):
    with criterion("3. single-operator rigidity holds under search", 60.0):
        for trial in range(1000):
            d = DIMS[trial % 3]
            k1 = random_unitary(d, spawn_rng(303, trial, 0))
            theta = float(spawn_rng(303, trial, 1).uniform(0.0, 2.0 * np.pi))
            result = n1_uniqueness_check(k1, np.exp(1j * theta) * k1)
            assert result.verdict is PhaseEquivalence.EQUAL_UP_TO_PHASE

        for trial in range(1000):
            d = DIMS[trial % 3]
            k1 = random_unitary(d, spawn_rng(304, trial, 0))
            l1 = random_unitary(d, spawn_rng(304, trial, 1))
            result = n1_uniqueness_check(k1, l1)
            assert result.verdict is PhaseEquivalence.DIFFERENT
            w = result.witness.mat
            gap = frobenius_distance(k1 @ w @ dagger(k1), l1 @ w @ dagger(l1))
            assert gap == pytest.approx(result.witness_distance, abs=1e-12)
            assert gap > 1e-6

        k1_file = tmp_path / "k1.json"
        lam_file = tmp_path / "lam.json"
        out_file = tmp_path / "search.json"
        k1_file.write_text(json.dumps(matrix_to_obj(random_unitary(2, 31))))
        lam_file.write_text(json.dumps(matrix_to_obj(random_unitary(2, 32))))
        code = main(
            ["n1-search", str(k1_file), str(lam_file),
             "--trials", "2000", "--seed", "7", "--out", str(out_file)]
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["trials"] == 2000
        assert report["results"]["violation_count"] == 0


def test_choi_oracle_matches_matrix_unit_oracle():
    with criterion("4. Choi equality agrees with matrix-unit oracle", 10.0):
        disagreements = []
        cases = []
        for trial in range(500):
            rng = spawn_rng(404, trial)
            cases.append((int(rng.integers(2, 5)), int(rng.integers(1, 6))))
        for trial, (d, n) in enumerate(cases + LARGE):
            k = random_kraus_set(d, n, spawn_rng(404, trial, 0))
            if trial % 2 == 0:
                v = MixingUnitary(random_unitary(n, spawn_rng(404, trial, 1)))
                l = mix_kraus(k, v)
            else:
                l = random_kraus_set(d, n, spawn_rng(404, trial, 1))
            choi_says = channels_equal(k, l, 1e-9)
            unit_says = all(
                frobenius_distance(a, b) <= 1e-8
                for a, b in zip(apply_to_matrix_units(k), apply_to_matrix_units(l))
            )
            if choi_says != unit_says:
                disagreements.append(trial)
        assert disagreements == []


def test_mixing_extraction_round_trip():
    with criterion("5. mixing extraction recovers V or returns None", 10.0):
        recovered = 0
        declined = 0
        cases = []
        for trial in range(500):
            rng = spawn_rng(505, trial)
            cases.append((int(rng.integers(2, 5)), int(rng.integers(2, 6))))
        # trial 504 of the stratified cases, d = 16, is a dependent set too
        for trial, (d, n) in enumerate(cases + LARGE_MIXED):
            k = random_kraus_set(d, n, spawn_rng(505, trial, 0))
            if trial % 5 == 4:
                # force linear dependence: split the last operator in two
                ops = list(k.ops[:-1])
                ops.extend([k.ops[-1] / np.sqrt(2.0)] * 2)
                k = KrausSet(tuple(ops))
                n += 1
            v0 = random_unitary(n, spawn_rng(505, trial, 1))
            l = mix_kraus(k, MixingUnitary(v0))
            lam_min = float(np.linalg.eigvalsh(kraus_gram(k.ops))[0])
            got = extract_mixing(k, l)
            if lam_min > 1e-6:
                assert got is not None, f"trial {trial}: lam_min {lam_min:.3e}"
                err = frobenius_distance(got.mat, v0)
                assert err <= 1e-8, f"trial {trial}: recovery error {err:.3e}"
                recovered += 1
            elif got is None:
                declined += 1
            else:
                # a returned V must reconstruct the target set even when
                # the recovery is not unique
                rebuilt = mix_kraus(k, got)
                assert max(
                    frobenius_distance(a, b) for a, b in zip(rebuilt.ops, l.ops)
                ) <= 1e-6
        assert recovered > 0 and declined > 0


def test_channel_linearity():
    with criterion("6. channel application is linear", 5.0):
        for trial in range(500):
            rng = spawn_rng(606, trial)
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, 5))
            k = random_kraus_set(d, n, spawn_rng(606, trial, 0))
            rho1 = DensityMatrix(random_density(d, spawn_rng(606, trial, 1)))
            rho2 = DensityMatrix(random_density(d, spawn_rng(606, trial, 2)))
            alpha = float(rng.uniform())
            combo = DensityMatrix(alpha * rho1.mat + (1.0 - alpha) * rho2.mat)
            lhs = apply_channel(k, combo).mat
            rhs = (
                alpha * apply_channel(k, rho1).mat
                + (1.0 - alpha) * apply_channel(k, rho2).mat
            )
            assert frobenius_distance(lhs, rhs) <= 1e-10


def test_bell_scenario_statistics_frame_independent():
    with criterion("7. Bell scenario statistics match across frames", 5.0):
        bell = DensityMatrix.from_state_vector([1, 0, 0, 1])
        frame = FrameTransform(np.kron(HADAMARD, random_unitary(2, 707)))

        z_meas = KrausSet((P0, P1))
        cfg = ScenarioConfig(
            bell, 2, 2, frame, (Intervention("z-meas", z_meas, Target.SUBSYSTEM_A),)
        )
        result = run_scenario(cfg)
        rec = result.interventions[0]
        for probs in (rec.probabilities_s, rec.probabilities_sprime):
            assert probs == pytest.approx([0.5, 0.5], abs=1e-12)
        assert result.covariance_defect <= 1e-12

        dephase = KrausSet((S2 * I2, S2 * Z))
        runs = []
        for rep in (dephase, z_meas):
            cfg = ScenarioConfig(
                bell, 2, 2, frame, (Intervention("noise", rep, Target.SUBSYSTEM_A),)
            )
            runs.append(run_scenario(cfg))
        first, second = runs
        for rec1, rec2 in zip(first.interventions, second.interventions):
            assert rec1.probabilities_s == pytest.approx(
                rec2.probabilities_s, abs=1e-9
            )
            assert rec1.probabilities_sprime == pytest.approx(
                rec2.probabilities_sprime, abs=1e-9
            )
        assert frobenius_distance(first.final_state_s.mat, second.final_state_s.mat) <= 1e-9
        assert (
            frobenius_distance(first.final_state_sprime.mat, second.final_state_sprime.mat)
            <= 1e-9
        )
        assert abs(first.covariance_defect - second.covariance_defect) <= 1e-9


def test_cli_reports_are_deterministic(tmp_path):
    with criterion("8. CLI reports byte-identical across reruns"):
        dephase = tmp_path / "dephase.json"
        project = tmp_path / "project.json"
        ident = tmp_path / "ident.json"
        lam = tmp_path / "lam.json"
        k1 = tmp_path / "k1.json"
        scenario = tmp_path / "scenario.json"
        dephase.write_text(json.dumps(_kraus_obj([S2 * I2, S2 * Z])))
        project.write_text(json.dumps(_kraus_obj([P0, P1])))
        ident.write_text(json.dumps(matrix_to_obj(I2)))
        lam.write_text(json.dumps(matrix_to_obj(HADAMARD)))
        k1.write_text(json.dumps(matrix_to_obj(random_unitary(2, 81))))
        bell = DensityMatrix.from_state_vector([1, 0, 0, 1]).mat
        scenario.write_text(
            json.dumps(
                {
                    "dim_a": 2,
                    "dim_b": 2,
                    "initial_state": matrix_to_obj(bell),
                    "frame": matrix_to_obj(np.kron(HADAMARD, I2)),
                    "interventions": [
                        {
                            "label": "z-meas",
                            "target": "A",
                            "kraus": _kraus_obj([P0, P1]),
                        }
                    ],
                }
            )
        )
        commands = [
            ["analyze", str(dephase), str(project), str(ident)],
            ["freedom-sweep", "--dim", "2", "--rank", "3", "--trials", "20", "--seed", "9"],
            ["n1-search", str(k1), str(lam), "--trials", "40", "--seed", "9"],
            ["scenario", str(scenario)],
        ]
        for idx, args in enumerate(commands):
            first = tmp_path / f"run{idx}_a.json"
            second = tmp_path / f"run{idx}_b.json"
            assert main(args + ["--out", str(first)]) == 0
            assert main(args + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), args[0]
