"""Trials evaluated as stacked blocks: bitwise oracles, bounded stacks, gates.

``freedom_sweep`` and ``n1_covariance_search`` draw and evaluate their
trials as stacks, a bounded block at a time. Each row must be bitwise the
one that composing the public functions for that trial alone gives, the
stacks must not grow with the number of trials, and the constructor gates
must still refuse a bad member with the constructor's own message.
"""

import math

import numpy as np
import pytest

from covchan import channels, covariance, linalg
from covchan.channels import KrausSet, random_kraus_set
from covchan.cli import freedom_sweep, main
from covchan.covariance import (
    PHASE_DISTANCE_FLOOR,
    FrameTransform,
    MixingUnitary,
    compatibility_residual,
    conjugate_kraus,
    covariant_distance,
    make_noncovariant_solution,
    phase_aligned_distance,
    phase_permutation_distance,
)
from covchan.linalg import random_unitary, spawn_rng
from covchan.rigidity import _n1_candidates, _rank1_choi_residual, n1_covariance_search


def _reference_row(dim, rank, seed, i):
    """One sweep trial composed from the public functions."""
    k = random_kraus_set(dim, rank, spawn_rng(seed, 0, i))
    f = FrameTransform(random_unitary(dim, spawn_rng(seed, 1, i)))
    v = MixingUnitary(random_unitary(rank, spawn_rng(seed, 2, i)))
    lprime = make_noncovariant_solution(k, f, v)
    if rank == 1:
        distance, _ = phase_aligned_distance(conjugate_kraus(k, f).ops[0], lprime.ops[0])
    else:
        distance = covariant_distance(k, lprime, f)
    return (
        compatibility_residual(k, lprime, f).hex(),
        distance.hex(),
        phase_permutation_distance(v).hex(),
    )


class TestSweepOracle:
    @pytest.mark.parametrize(
        "dim, rank, trials",
        [
            (2, 1, 6),  # rank 1: phase-aligned distance
            (2, 5, 6),  # more operators than d^2 = 4
            (1, 3, 6),  # d = 1
            (3, 2, 1),  # one trial
            # one full block plus one: the sweep budgets a d = 2, rank 4
            # trial at its (d^2, 2 rank) vecs, 32 d^2 rank bytes, 512 B
            (2, 4, linalg._BLOCK_BYTES // 512 + 1),
            # the README's range: d up to 32, rank up to 16
            (16, 1, 2),
            (32, 2, 2),
            (8, 16, 2),
            (32, 16, 1),
        ],
    )
    def test_rows_are_the_per_trial_composition(self, dim, rank, trials):
        payload, _ = freedom_sweep(dim, rank, trials, 17, 1e-9)
        rows = [
            (t["residual"].hex(), t["covariant_distance"].hex(), t["mixing_distance"].hex())
            for t in payload["per_trial"]
        ]
        assert rows == [_reference_row(dim, rank, 17, i) for i in range(trials)]

    def test_small_blocks_give_the_same_report(self, monkeypatch):
        whole, _ = freedom_sweep(3, 3, 10, 5, 1e-9)
        # three trials per block
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 32 * 9 * 3 * 3)
        blocked, _ = freedom_sweep(3, 3, 10, 5, 1e-9)
        assert repr(blocked) == repr(whole)

    def test_haar_stack_members_are_single_draws(self):
        for d in (1, 2, 5, 16):
            seeds = [spawn_rng(4, 1, i) for i in range(7)]
            stack = linalg._haar_unitaries(d, seeds)
            for i, u in enumerate(stack):
                assert np.array_equal(u, random_unitary(d, spawn_rng(4, 1, i)))


class TestN1Candidates:
    def _target(self, d):
        return random_unitary(d, 50 + d)

    @pytest.mark.parametrize("d", [2, 3])
    def test_candidates_are_the_seeded_unitaries(self, monkeypatch, d):
        # blocks of three candidates, so seven trials take three blocks
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 16 * d * d * 3)
        blocks = list(_n1_candidates(self._target(d), 7, 8))
        assert [len(b) for b in blocks] == [3, 3, 1, 1]
        cands = np.concatenate(blocks[:-1])
        for i, cand in enumerate(cands):
            assert np.array_equal(cand, random_unitary(d, spawn_rng(8, 0, i)))

    def test_report_is_the_per_candidate_comparison(self, monkeypatch):
        d, trials, seed = 3, 11, 6
        f = FrameTransform(random_unitary(d, 7))
        k1 = self._target(d)
        target = f.mat @ k1 @ f.mat.conj().T
        cands = [random_unitary(d, spawn_rng(seed, 0, i)) for i in range(trials)]
        kept = []
        for cand in cands:
            dist, _ = phase_aligned_distance(target, cand)
            if dist > PHASE_DISTANCE_FLOOR:
                kept.append((_rank1_choi_residual(target, cand), dist))
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 16 * d * d * 4)
        rep = n1_covariance_search(k1, f, trials, seed, tol=10.0)
        assert rep.examined == trials + 1
        # the boundary candidate comes last and holds the minimum
        assert rep.min_residual < min(r for r, _ in kept)
        assert rep.violation_count == len(kept) + 1
        got = [(v.residual, v.phase_distance) for v in rep.violations[:-1]]
        assert got == kept

    def test_zero_trials_examine_only_the_boundary(self):
        f = FrameTransform(random_unitary(4, 1))
        rep = n1_covariance_search(self._target(4), f, 0, 3)
        assert rep.examined == 1
        assert math.isfinite(rep.min_residual)
        assert rep.best_phase_distance > PHASE_DISTANCE_FLOOR


class TestBoundedStacks:
    """The largest stack handed to QR does not grow with the trial count."""

    @staticmethod
    def _largest_qr_stack(monkeypatch, run):
        qr = np.linalg.qr
        leading = []

        def recording_qr(a, *args, **kwargs):
            a = np.asarray(a)
            leading.append(a.shape[0] if a.ndim == 3 else 1)
            return qr(a, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "qr", recording_qr)
            run()
        return max(leading)

    def test_sweep(self, monkeypatch):
        few = self._largest_qr_stack(monkeypatch, lambda: freedom_sweep(4, 4, 100, 1, 1e-9))
        many = self._largest_qr_stack(monkeypatch, lambda: freedom_sweep(4, 4, 400, 1, 1e-9))
        assert many == few < 100

    def test_n1_search(self, monkeypatch):
        k1 = random_unitary(16, 2)
        f = FrameTransform(random_unitary(16, 3))
        few = self._largest_qr_stack(monkeypatch, lambda: n1_covariance_search(k1, f, 100, 1))
        many = self._largest_qr_stack(monkeypatch, lambda: n1_covariance_search(k1, f, 400, 1))
        assert many == few < 100


class TestGatesInBlocks:
    """A member off by 1e-6 fails the sweep as its constructor would."""

    DIM, RANK, SEED, BAD = 3, 2, 12, 2
    SCALE = 1.0 + 1e-6

    def _scale_member(self, monkeypatch, module, d):
        real = linalg._haar_unitaries

        def sampler(dd, seeds, cols=None):
            u = real(dd, seeds, cols)
            if dd == d:
                u[self.BAD] *= self.SCALE
            return u

        monkeypatch.setattr(module, "_haar_unitaries", sampler)

    def _expected(self, build):
        with pytest.raises(ValueError) as exc:
            build()
        return str(exc.value)

    def _sweep_error(self):
        with pytest.raises(ValueError) as exc:
            freedom_sweep(self.DIM, self.RANK, 5, self.SEED, 1e-9)
        return str(exc.value)

    def test_kraus_set(self, monkeypatch):
        d = self.DIM
        u = random_unitary(self.RANK * d, spawn_rng(self.SEED, 0, self.BAD)) * self.SCALE
        want = self._expected(
            lambda: KrausSet([u[a * d : (a + 1) * d, :d] for a in range(self.RANK)])
        )
        self._scale_member(monkeypatch, channels, self.RANK * d)
        assert self._sweep_error() == want
        assert want.startswith("completeness defect ")

    def test_frame(self, monkeypatch):
        u = random_unitary(self.DIM, spawn_rng(self.SEED, 1, self.BAD))
        want = self._expected(lambda: FrameTransform(u * self.SCALE))
        self._scale_member(monkeypatch, covariance, self.DIM)
        assert self._sweep_error() == want
        assert want.startswith("frame transform is not unitary")

    def test_mixing(self, monkeypatch, capsys):
        u = random_unitary(self.RANK, spawn_rng(self.SEED, 2, self.BAD))
        want = self._expected(lambda: MixingUnitary(u * self.SCALE))
        self._scale_member(monkeypatch, covariance, self.RANK)
        assert self._sweep_error() == want
        argv = ["freedom-sweep", "--dim", str(self.DIM), "--rank", str(self.RANK),
                "--trials", "5", "--seed", str(self.SEED)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {want}\n"
