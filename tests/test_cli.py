import contextlib
import dataclasses
import enum
import functools
import io
import json
import math
import os
import random
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import covchan
from conftest import matrix_to_obj
from covchan import linalg, serialization
from covchan.channels import DensityMatrix, KrausSet, random_kraus_set
from covchan.cli import freedom_sweep, main
from covchan.covariance import (
    FrameTransform,
    MixingUnitary,
    Verdict,
    analyze,
    conjugate_kraus,
    mix_kraus,
)
from covchan.linalg import random_density, random_unitary, spawn_rng
from covchan.serialization import (
    InputError,
    dump_report,
    load_json,
    parse_kraus_set,
    parse_matrix,
    parse_scenario_config,
    run_report,
)
from covchan.scenario import (
    Branches,
    Intervention,
    ScenarioConfig,
    Target,
    run_scenario,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
S2 = 1.0 / np.sqrt(2.0)


def _assert_same_text(got, want):
    """``got == want`` for whole reports, with a short message on a mismatch.

    pytest's own diff of two multi-megabyte texts runs for minutes; this
    names both lengths, the first differing offset and 200 characters on
    each side of it.
    """
    if got == want:
        return
    at = next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
    )
    lo, hi = max(0, at - 200), at + 200
    pytest.fail(
        f"texts differ: lengths {len(got)} and {len(want)}, first difference at "
        f"offset {at}\n got: {got[lo:hi]!r}\nwant: {want[lo:hi]!r}"
    )


def _kraus_obj(ops):
    return {"dim": ops[0].shape[0], "ops": [matrix_to_obj(op) for op in ops]}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def fixtures(tmp_path):
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    return {
        "ident": _write(tmp_path, "ident.json", _kraus_obj([I2])),
        "flip": _write(tmp_path, "flip.json", _kraus_obj([X])),
        "dephase": _write(tmp_path, "dephase.json", _kraus_obj([S2 * I2, S2 * Z])),
        "project": _write(
            tmp_path,
            "project.json",
            _kraus_obj([np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]),
        ),
        "lam_ident": _write(tmp_path, "lam_ident.json", matrix_to_obj(I2)),
        "k1_ident": _write(tmp_path, "k1_ident.json", matrix_to_obj(I2)),
        "scalar": _write(tmp_path, "scalar.json", matrix_to_obj(np.eye(1))),
        "k1_bad": _write(
            tmp_path, "k1_bad.json", matrix_to_obj(np.diag([1.0, 2.0]).astype(complex))
        ),
        "scenario": _write(
            tmp_path,
            "scenario.json",
            {
                "dim_a": 2,
                "dim_b": 2,
                "initial_state": matrix_to_obj(bell),
                "frame": matrix_to_obj(np.eye(4)),
                "interventions": [
                    {
                        "label": "z-meas",
                        "target": "A",
                        "kraus": _kraus_obj(
                            [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
                        ),
                    }
                ],
            },
        ),
        "scenario_bad": _write(
            tmp_path,
            "scenario_bad.json",
            {
                "dim_a": 2,
                "dim_b": 2,
                "initial_state": matrix_to_obj(bell),
                "frame": matrix_to_obj(np.eye(4)),
                "interventions": [
                    {
                        "label": "kick",
                        "target": "A",
                        "kraus": _kraus_obj([I2]),
                        "sprime_kraus": _kraus_obj([random_unitary(2, 77)]),
                    }
                ],
            },
        ),
        "tmp": tmp_path,
    }


class TestMatrixFileFormat:
    def test_round_trip_identity(self):
        inputs = []
        for trial in range(30):
            rng = spawn_rng(1, trial)
            inputs.append(rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
        inputs.append(inputs[0].T)  # non-contiguous view
        inputs.append(np.array([[-0.0, 1.5], [0.0, -2.0]]))  # real, signed zero
        for m in inputs:
            obj = matrix_to_obj(m)
            # per-entry reference; comparing JSON text also compares signs of zero
            loop = [[float(z.real), float(z.imag)] for z in np.asarray(m, complex).reshape(-1)]
            assert json.dumps(obj["data"]) == json.dumps(loop)
            back = parse_matrix(obj, "m")
            assert np.array_equal(back, m)
            assert np.array_equal(np.signbit(back.real), np.signbit(np.real(m)))

    def test_missing_field_named(self):
        with pytest.raises(InputError, match=r"m\.rows"):
            parse_matrix({"cols": 2, "data": []}, "m")

    def test_wrong_length_named(self):
        with pytest.raises(InputError, match=r"m\.data"):
            parse_matrix({"rows": 2, "cols": 2, "data": [[1, 0]]}, "m")

    def test_bad_pair_named(self):
        with pytest.raises(InputError, match=r"m\.data\[1\]"):
            parse_matrix({"rows": 1, "cols": 2, "data": [[1, 0], [1]]}, "m")

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError, match="finite"):
            parse_matrix(
                {"rows": 1, "cols": 1, "data": [[float("inf"), 0.0]]}, "m"
            )


def _reference_parse(data, rows, cols):
    """The per-entry reading: ``complex(float(re), float(im))`` for each pair."""
    values = np.empty(rows * cols, dtype=np.complex128)
    for i, (re, im) in enumerate(data):
        values[i] = complex(float(re), float(im))
    return values.reshape(rows, cols)


def _random_set_data(seed):
    """The ``data`` lists of a random d = 32, rank-16 set, one per operator."""
    k = random_kraus_set(32, 16, spawn_rng(seed, 0))
    return [matrix_to_obj(op)["data"] for op in k.ops]


# Integers on either side of 2**63 and beyond, up to 10**300, most of them
# not exact in a float: each must round as float() rounds it.
_HUGE_INTS = [
    2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64 + 2**11 + 1,
    -(2**63) - 1, -(2**70) - 3, 3**500, -(7**300), 10**300, -(10**300) - 1,
]


class TestOnePassParse:
    """``parse_matrix`` reads well-formed data in one pass, bitwise as the loop did.

    Any other data takes the per-entry loop, which names the first bad
    entry; the messages below are the ones that loop has always given.
    """

    def test_bitwise_as_per_entry_loop(self):
        rng = random.Random(19)
        for seed in range(3):
            for data in _random_set_data(seed):
                data = [list(pair) for pair in data]
                data[: len(_HUGE_INTS)] = [[n, -n] for n in _HUGE_INTS]
                for _ in range(40):
                    data[rng.randrange(len(data))][rng.randrange(2)] = rng.choice(
                        [-0.0, 0.0, 0, -1, 1, rng.choice(_HUGE_INTS),
                         rng.randrange(-(10**300), 10**300)]
                    )
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = parse_matrix({"rows": 32, "cols": 32, "data": data}, "m")
                want = _reference_parse(data, 32, 32)
                assert got.dtype == np.complex128 and got.shape == (32, 32)
                # equal bytes: signs of zero and the last bit of every entry
                assert got.tobytes() == want.tobytes()

    def test_numpy_scalars_from_library_callers(self):
        data = [[np.float64(0.5), 1.0], [2, np.float64(-0.0)]]
        got = parse_matrix({"rows": 1, "cols": 2, "data": data}, "m")
        assert got.tobytes() == _reference_parse(data, 1, 2).tobytes()

    @pytest.mark.parametrize(
        "bad, suffix",
        [
            (True, "[{i}][{j}]: expected a number"),
            (False, "[{i}][{j}]: expected a number"),
            (10**400, "[{i}][{j}]: number out of range"),
            (-(10**400), "[{i}][{j}]: number out of range"),
            (float("nan"), "[{i}][{j}]: must be finite"),
            (float("inf"), "[{i}][{j}]: must be finite"),
            (-float("inf"), "[{i}][{j}]: must be finite"),
            ("1.0", "[{i}][{j}]: expected a number"),
            ([1.0], "[{i}][{j}]: expected a number"),
            (None, "[{i}][{j}]: expected a number"),
        ],
        ids=[
            "true", "false", "huge", "huge-negative", "nan", "inf", "-inf",
            "string", "nested-list", "null",
        ],
    )
    def test_bad_number_names_its_slot(self, bad, suffix):
        data = _random_set_data(1)[0]
        for i, j in [(0, 0), (517, 1), (1023, 0)]:
            mutant = [list(pair) for pair in data]
            mutant[i][j] = bad
            with pytest.raises(InputError) as exc:
                parse_matrix({"rows": 32, "cols": 32, "data": mutant}, "m")
            assert str(exc.value) == "m.data" + suffix.format(i=i, j=j)

    @pytest.mark.parametrize(
        "bad",
        [[1.0], [1.0, 0.0, 0.0], [], "1.0", 1.0, None, (1.0, 0.0), {"re": 1.0}],
        ids=["short", "long", "empty", "string", "number", "null", "tuple", "object"],
    )
    def test_bad_pair_names_its_entry(self, bad):
        data = [list(pair) for pair in _random_set_data(2)[0]]
        data[300] = bad
        with pytest.raises(InputError) as exc:
            parse_matrix({"rows": 32, "cols": 32, "data": data}, "m")
        assert str(exc.value) == "m.data[300]: expected an [re, im] pair"

    def test_first_bad_entry_is_named(self):
        data = [list(pair) for pair in _random_set_data(3)[0]]
        data[900][0] = True
        data[40][1] = 10**400
        data[600] = [0.0]
        with pytest.raises(InputError) as exc:
            parse_matrix({"rows": 32, "cols": 32, "data": data}, "m")
        assert str(exc.value) == "m.data[40][1]: number out of range"


class TestKrausFileFormat:
    def test_round_trip(self):
        obj = _kraus_obj([S2 * I2, S2 * Z])
        k = parse_kraus_set(obj, "k")
        assert isinstance(k, KrausSet)
        assert k.rank == 2

    def test_dim_mismatch_named(self):
        obj = {"dim": 3, "ops": [matrix_to_obj(I2)]}
        with pytest.raises(InputError, match=r"k\.ops\[0\]"):
            parse_kraus_set(obj, "k")

    def test_incomplete_set_rejected(self):
        obj = _kraus_obj([I2, I2])
        with pytest.raises(InputError, match="completeness"):
            parse_kraus_set(obj, "k")


def test_scenario_config_bad_target_named():
    obj = {
        "dim_a": 1,
        "dim_b": 1,
        "initial_state": matrix_to_obj(np.eye(1)),
        "frame": matrix_to_obj(np.eye(1)),
        "interventions": [{"target": "C", "kraus": _kraus_obj([np.eye(1)])}],
    }
    with pytest.raises(InputError, match=r"interventions\[0\]\.target"):
        parse_scenario_config(obj, "cfg")


@pytest.mark.parametrize("target", [["A"], {"A": 1}, 5, None])
def test_scenario_config_non_string_target_named(target):
    # an unhashable target once escaped as a TypeError
    obj = {
        "dim_a": 1,
        "dim_b": 1,
        "initial_state": matrix_to_obj(np.eye(1)),
        "frame": matrix_to_obj(np.eye(1)),
        "interventions": [{"target": target, "kraus": _kraus_obj([np.eye(1)])}],
    }
    with pytest.raises(InputError, match=r"interventions\[0\]\.target"):
        parse_scenario_config(obj, "cfg")


class TestAnalyzeCommand:
    def test_covariant_exit_zero(self, fixtures, capsys):
        code = main(
            ["analyze", fixtures["ident"], fixtures["ident"], fixtures["lam_ident"]]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["results"]["verdict"] == "COVARIANT"

    def test_noncovariant_compatible_exit_zero(self, fixtures, capsys):
        code = main(
            ["analyze", fixtures["dephase"], fixtures["project"], fixtures["lam_ident"]]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["results"]["verdict"] == "NONCOVARIANT_COMPATIBLE"

    def test_incompatible_exit_two(self, fixtures, capsys):
        code = main(
            ["analyze", fixtures["ident"], fixtures["flip"], fixtures["lam_ident"]]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["results"]["verdict"] == "INCOMPATIBLE"
        assert report["results"]["residual"] == pytest.approx(2.0 * np.sqrt(2.0))

    def test_missing_file_exit_one(self, fixtures, capsys):
        code = main(
            ["analyze", "/nonexistent.json", fixtures["ident"], fixtures["lam_ident"]]
        )
        assert code == 1
        assert "nonexistent" in capsys.readouterr().err

    def test_malformed_json_exit_one(self, fixtures, capsys):
        bad = fixtures["tmp"] / "broken.json"
        bad.write_text("{nope")
        code = main(
            ["analyze", str(bad), fixtures["ident"], fixtures["lam_ident"]]
        )
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_nonunitary_frame_exit_one(self, fixtures, capsys):
        lam = _write(
            fixtures["tmp"], "lam_bad.json", matrix_to_obj(2.0 * np.eye(2))
        )
        code = main(["analyze", fixtures["ident"], fixtures["ident"], lam])
        assert code == 1
        assert "unitary" in capsys.readouterr().err

    def test_frame_accepted_at_loose_tol_is_not_rechecked(self, fixtures, capsys):
        # unitarity defect 8.5e-9: past the default 1e-10, within --tol
        lam = random_unitary(2, 3) * (1.0 + 3e-9)
        path = _write(fixtures["tmp"], "lam_edge.json", matrix_to_obj(lam))
        code = main(["analyze", fixtures["ident"], fixtures["ident"], path, "--tol", "1e-6"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert json.loads(captured.out)["results"]["verdict"] == "COVARIANT"

    def test_covariant_solution_at_the_frame_gate(self, fixtures, capsys):
        # unitarity defect 8.5e-9, within --tol 1e-8; the conjugated set's
        # completeness defect is 1.7e-8, so it enters as a selective set
        f = FrameTransform(random_unitary(2, 3) * (1.0 + 3e-9), unitarity_tol=1e-8)
        lam = _write(fixtures["tmp"], "lam_edge.json", matrix_to_obj(f.mat))
        cov = conjugate_kraus(KrausSet([I2]), f).ops
        lp = _write(
            fixtures["tmp"], "cov.json", dict(_kraus_obj(cov), trace_preserving=False)
        )
        code = main(["analyze", fixtures["ident"], lp, lam, "--tol", "1e-8"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        results = json.loads(captured.out)["results"]
        assert results["verdict"] == "COVARIANT"
        assert results["residual"] == 0.0

    def test_report_structure(self, fixtures, capsys):
        main(["analyze", fixtures["ident"], fixtures["ident"], fixtures["lam_ident"]])
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["command", "seed", "tolerance", "trials", "results", "version"]
        assert report["command"] == "analyze"
        assert report["tolerance"] == 1e-9


class TestFreedomSweepCommand:
    def test_rank_one_reports_no_findings(self, fixtures, capsys):
        code = main(
            ["freedom-sweep", "--dim", "2", "--rank", "1", "--trials", "40", "--seed", "3"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        summary = report["results"]["summary"]
        assert summary["noncovariant_compatible"] == 0
        assert summary["max_residual"] <= 1e-9

    def test_rank_two_findings_expected(self, fixtures, capsys):
        code = main(
            ["freedom-sweep", "--dim", "2", "--rank", "2", "--trials", "40", "--seed", "3"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        summary = report["results"]["summary"]
        assert summary["max_residual"] <= 1e-9
        assert summary["noncovariant_compatible"] > 0
        assert summary["min_nontrivial_distance"] > 1e-3
        assert len(report["results"]["per_trial"]) == 40

    def test_invalid_flags_exit_one(self, capsys):
        assert main(["freedom-sweep", "--trials", "0"]) == 1
        assert main(["freedom-sweep", "--dim", "0"]) == 1
        assert main(["freedom-sweep", "--tol", "-1"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["freedom-sweep", "n1-search"])
    def test_negative_seed_is_refused_before_sampling(
        self, fixtures, capsys, monkeypatch, command
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled with a negative seed")

        monkeypatch.setattr("covchan.covariance._random_kraus_ops", refuse)
        monkeypatch.setattr("covchan.cli.n1_covariance_search", refuse)
        argv = {
            "freedom-sweep": ["freedom-sweep", "--seed", "-5"],
            "n1-search": [
                "n1-search", fixtures["k1_ident"], fixtures["lam_ident"], "--seed", "-1"
            ],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be >= 0\n"

    @pytest.mark.parametrize("trials", [1, 5])
    def test_library_call_rejects_negative_seed(self, monkeypatch, trials):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled with a negative seed")

        monkeypatch.setattr("covchan.covariance._random_kraus_ops", refuse)
        with pytest.raises(ValueError) as exc:
            freedom_sweep(2, 2, trials, -1, 1e-9)
        assert str(exc.value) == "seed must be >= 0"

    def test_rank_twelve_is_solved(self, capsys):
        # above rank 8, where enumerating permutations stopped
        assert main(["freedom-sweep", "--dim", "2", "--rank", "12", "--trials", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(t["nontrivial_mixing"] for t in report["results"]["per_trial"])

    def test_rank_twenty_four_is_solved(self, capsys):
        # above 16: the assignment solver takes any rank
        assert main(["freedom-sweep", "--dim", "2", "--rank", "24", "--trials", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"]["per_trial"]) == 3
        assert all(t["nontrivial_mixing"] for t in report["results"]["per_trial"])

    @pytest.mark.parametrize("flag", ["--dim", "--rank"])
    def test_unallocatable_size_exit_one(self, capsys, flag):
        # a 1e8-square matrix is hundreds of PiB: numpy refuses it at once
        assert main(["freedom-sweep", flag, "100000000", "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "Traceback" not in captured.err

    def test_deterministic_bytes(self, fixtures):
        out1 = fixtures["tmp"] / "sweep1.json"
        out2 = fixtures["tmp"] / "sweep2.json"
        args = ["freedom-sweep", "--dim", "2", "--rank", "2", "--trials", "25", "--seed", "11"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        _assert_same_text(out1.read_bytes(), out2.read_bytes())


class TestN1SearchCommand:
    def test_no_violation_exit_zero(self, fixtures, capsys):
        code = main(
            ["n1-search", fixtures["k1_ident"], fixtures["lam_ident"], "--trials", "50"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["results"]["violation_count"] == 0
        assert report["results"]["min_residual"] > 1e-9

    @pytest.mark.parametrize("tol, code", [(None, 0), ("1e-5", 3)])
    def test_exit_code_across_the_residual_floor(self, fixtures, capsys, tol, code):
        # at d = 2 the constrained minimum is 2e-6: a tolerance above it
        # turns the boundary candidate into a violation
        argv = ["n1-search", fixtures["k1_ident"], fixtures["lam_ident"], "--trials", "20"]
        assert main(argv + (["--tol", tol] if tol else [])) == code
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["residual_floor"] == pytest.approx(2e-6, rel=1e-12, abs=0.0)
        assert (res["violation_count"] >= 1) == (code == 3)
        assert res["min_residual"] == pytest.approx(res["residual_floor"], rel=1e-5, abs=0.0)

    def test_scalar_has_no_candidate(self, fixtures, capsys):
        assert main(["n1-search", fixtures["scalar"], fixtures["scalar"], "--trials", "5"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["min_residual"] is None
        assert res["best_candidate"] is None
        assert res["examined"] == 5

    def test_nonunitary_input_exit_one(self, fixtures, capsys):
        code = main(
            ["n1-search", fixtures["k1_bad"], fixtures["lam_ident"], "--trials", "5"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: K1: completeness defect 3.000e+00 exceeds 1.0e-09; "
            "sum of K^dagger K is not the identity\n"
        )

    def test_deterministic_bytes(self, fixtures):
        out1 = fixtures["tmp"] / "n1a.json"
        out2 = fixtures["tmp"] / "n1b.json"
        args = [
            "n1-search", fixtures["k1_ident"], fixtures["lam_ident"],
            "--trials", "30", "--seed", "5",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        _assert_same_text(out1.read_bytes(), out2.read_bytes())


class TestScenarioCommand:
    def test_bell_fixture_exit_zero(self, fixtures, capsys):
        code = main(["scenario", fixtures["scenario"]])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        probs = report["results"]["interventions"][0]
        assert probs["probabilities_s"] == pytest.approx([0.5, 0.5])
        assert probs["probabilities_sprime"] == pytest.approx([0.5, 0.5])
        assert report["results"]["verdict"] == "COVARIANT"

    def test_single_branch_mismatch_exit_two(self, fixtures, capsys):
        code = main(["scenario", fixtures["scenario_bad"]])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["results"]["verdict"] == "INCOMPATIBLE"

    def test_mixing_at_a_loose_tol_is_exposed_by_later_branches(self, fixtures, capsys):
        # Z on A with a (slightly scaled) Hadamard mixing, then Z on B: frame S
        # puts 1/2 on (0,0) and (1,1), frame S' 1/4 on every leaf
        cfg = json.loads((fixtures["tmp"] / "scenario.json").read_text())
        cfg["tol"] = 1e-6
        meas = cfg["interventions"][0]
        mixed = dict(meas, mixing=matrix_to_obj(S2 * np.array([[1, 1], [1, -1]]) * (1 + 3e-9)))
        cfg["interventions"] = [mixed, dict(meas, label="z on B", target="B")]
        code = main(["scenario", _write(fixtures["tmp"], "mixed.json", cfg)])
        captured = capsys.readouterr()
        assert code == 2, captured.err
        results = json.loads(captured.out)["results"]
        assert results["verdict"] == "INCOMPATIBLE"
        assert abs(results["probability_defect"] - 0.25) <= 1e-8

    def test_frame_scaled_within_a_loose_tol_is_covariant(self, fixtures, capsys):
        # each application of the frame scales the S' traces by (1 + 3e-9)^2,
        # so the final S' state's trace is off by 3e-8, above a fixed 1e-8
        cfg = json.loads((fixtures["tmp"] / "scenario.json").read_text())
        cfg["tol"] = 1e-6
        cfg["frame"] = matrix_to_obj(np.eye(4) * (1 + 3e-9))
        meas = cfg["interventions"][0]
        cfg["interventions"] = [meas, dict(meas, label="z on B", target="B")]
        code = main(["scenario", _write(fixtures["tmp"], "scaled.json", cfg)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        results = json.loads(captured.out)["results"]
        assert results["verdict"] == "COVARIANT"
        trace = np.trace(parse_matrix(results["final_state_sprime"], "final"))
        assert abs(trace - (1 + 3e-9) ** 10) <= 1e-15

    @pytest.mark.parametrize("edge", [0.99, 1.01])
    def test_sixteen_interventions_at_the_frame_gate(self, fixtures, capsys, edge):
        # a frame c U with unitarity defect 2 (c^2 - 1) = edge * tol on the
        # 4-dim joint space: inside the gate, the final S' trace c^66 is off
        # by 16x tol, which the state check admits and the verdict reports
        tol = 1e-6
        c2 = 1 + edge * tol / 2
        frame = np.sqrt(c2) * np.kron(random_unitary(2, 3), random_unitary(2, 4))
        cfg = json.loads((fixtures["tmp"] / "scenario.json").read_text())
        z = cfg["interventions"][0]["kraus"]
        had = _kraus_obj([S2 * np.array([[1, 1], [1, -1]], dtype=complex)])
        steps = [("z", z, "A"), ("h", had, "A"), ("z", z, "B"), ("h", had, "B")]
        cfg["interventions"] = [
            {"label": f"{name} on {side} ({r})", "target": side, "kraus": kraus}
            for r in range(4)
            for name, kraus, side in steps
        ]
        cfg.update(tol=tol, frame=matrix_to_obj(frame))
        code = main(["scenario", _write(fixtures["tmp"], "edge.json", cfg)])
        captured = capsys.readouterr()
        if edge > 1:
            assert code == 1
            assert "frame transform is not unitary" in captured.err
            return
        assert code == 2, captured.err
        results = json.loads(captured.out)["results"]
        assert len(results["interventions"]) == 16
        assert len(results["branches"]) == 256
        trace = np.trace(parse_matrix(results["final_state_sprime"], "final")).real
        assert trace == pytest.approx(c2**33, abs=1e-12)
        assert trace - 1 > 16 * tol
        assert results["verdict"] == "INCOMPATIBLE"
        assert results["probability_defect"] == pytest.approx(c2**33 - 1, rel=1e-3)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_non_trace_preserving_sprime_set_exit_one(self, fixtures, capsys, scale):
        cfg = json.loads((fixtures["tmp"] / "scenario.json").read_text())
        proj = [np.diag([1, 0]).astype(complex), np.diag([0, scale]).astype(complex)]
        cfg["interventions"][0]["sprime_kraus"] = dict(_kraus_obj(proj), trace_preserving=False)
        path = _write(fixtures["tmp"], "sprime.json", cfg)
        assert main(["scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}.interventions[0]: intervention 'z-meas': frame-S' "
            "branches must jointly form a trace-preserving set\n"
        )

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @pytest.mark.parametrize("p", [1.5e-12, 1.5e-11, 1.5e-10, 1.5e-9])
    def test_weak_measurement_exit_zero(self, fixtures, capsys, d, p):
        # a branch of probability p renormalizes with rounding of order
        # eps / p; its leaf is reported as the library computes it
        for trial in range(10):
            u = random_unitary(d, spawn_rng(11, d, trial))
            ops = [(u * [np.sqrt(q), *[S2] * (d - 1)]) @ u.conj().T for q in (p, 1 - p)]
            cfg = {
                "dim_a": d,
                "dim_b": 1,
                "initial_state": matrix_to_obj(np.outer(u[:, 0], u[:, 0].conj())),
                "frame": matrix_to_obj(np.eye(d)),
                "interventions": [{"label": "weak", "target": "JOINT", "kraus": _kraus_obj(ops)}],
            }
            path = _write(fixtures["tmp"], "weak.json", cfg)
            code = main(["scenario", path])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            results = json.loads(captured.out)["results"]
            assert results["verdict"] == "COVARIANT"
            want = run_scenario(parse_scenario_config(load_json(path), path))
            for got, states in zip(results["branches"], want.branches.states):
                for frame, mat in zip(("state_s", "state_sprime"), states):
                    state = parse_matrix(got[frame], frame)
                    assert np.array_equal(state, mat)

    def test_huge_tol_runs(self, fixtures, capsys):
        # any positive finite tol is accepted, however large
        cfg = json.loads((fixtures["tmp"] / "scenario.json").read_text())
        cfg["tol"] = 1e100
        code = main(["scenario", _write(fixtures["tmp"], "huge.json", cfg)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert json.loads(captured.out)["results"]["verdict"] == "COVARIANT"

    def test_malformed_config_exit_one(self, fixtures, capsys):
        bad = _write(fixtures["tmp"], "cfg_bad.json", {"dim_a": 2})
        code = main(["scenario", bad])
        assert code == 1
        assert "dim_b" in capsys.readouterr().err

    def test_tree_over_branch_cap_exit_one(self, fixtures, capsys):
        one = matrix_to_obj(np.ones((1, 1)))
        keep_or_drop = {"dim": 1, "ops": [one, matrix_to_obj(np.zeros((1, 1)))]}
        cfg = {
            "dim_a": 1,
            "dim_b": 1,
            "initial_state": one,
            "frame": one,
            "interventions": [{"target": "JOINT", "kraus": keep_or_drop}] * 17,
        }
        code = main(["scenario", _write(fixtures["tmp"], "cap.json", cfg)])
        assert code == 1
        assert "65536 branches" in capsys.readouterr().err


# scenario-file cases of _malformed_input: the top-level key and its bad value
_SCENARIO_CASES = {
    "tol-overflow": ("tol", 10**400),
    "tol-zero": ("tol", 0),
    "interventions-object": ("interventions", {}),
}


def _malformed_input(tmp, case):
    """``(path, field)`` of one malformed input file; field may be empty."""
    if case == "entry-overflow":
        obj = _kraus_obj([I2])
        obj["ops"][0]["data"][0][0] = 10**400
        return _write(tmp, "entry.json", obj), ".ops[0].data[0][0]"
    if case == "dim-zero":
        obj = dict(_kraus_obj([I2]), dim=0)
        return _write(tmp, "dim0.json", obj), ".dim"
    if case == "trace-preserving-int":
        obj = dict(_kraus_obj([I2]), trace_preserving=1)
        return _write(tmp, "tp.json", obj), ".trace_preserving"
    if case in _SCENARIO_CASES:
        obj = json.loads((tmp / "scenario.json").read_text())
        key, value = _SCENARIO_CASES[case]
        obj[key] = value
        return _write(tmp, f"{case}.json", obj), f".{key}"
    path = tmp / "bad.json"
    if case == "deep-nesting":
        path.write_text("[" * 200000 + "]" * 200000)
    else:
        path.write_bytes(b"\xff\xfe{}")
    return str(path), ""


class TestMalformedInputFiles:
    """Each bad file gives exit 1 and one error line naming it, no traceback."""

    @pytest.mark.parametrize(
        "case",
        [
            "entry-overflow",
            "tol-overflow",
            "deep-nesting",
            "not-utf8",
            "dim-zero",
            "trace-preserving-int",
            "tol-zero",
            "interventions-object",
        ],
    )
    def test_single_error_line(self, fixtures, capsys, case):
        path, field = _malformed_input(fixtures["tmp"], case)
        if case in _SCENARIO_CASES:
            argv = ["scenario", path]
        else:
            argv = ["analyze", path, fixtures["ident"], fixtures["lam_ident"]]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {path}{field}: ")
        assert "Traceback" not in captured.err


# Keys a valid file may leave out; dropping any other key is an error.
_OPTIONAL_KEYS = {"label", "tol", "mixing", "sprime_kraus", "trace_preserving"}

_MUTATIONS = (
    "drop-key",
    "wrong-type",
    "bool",
    "string-number",
    "huge-int",
    "short-pair",
    "long-pair",
    "non-object-root",
)


def _sites(obj, path=()):
    """Every ``(path, value)`` of a JSON value, the root first."""
    yield path, obj
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _sites(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _sites(value, path + (i,))


def _mutations(obj, kind):
    """``(path, replacement)`` for every site ``kind`` applies to; None drops."""
    for path, value in _sites(obj):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        pair = len(path) >= 2 and path[-2] == "data"
        if kind == "non-object-root" and not path:
            yield path, [value]
        elif not path:
            continue
        elif kind == "drop-key" and isinstance(path[-1], str):
            if path[-1] not in _OPTIONAL_KEYS:
                yield path, None
        elif kind == "wrong-type":
            # a list wraps every other type; a str in a list is unhashable
            yield path, {} if isinstance(value, list) else [value]
        elif kind == "bool" and not isinstance(value, bool):
            yield path, True
        elif kind == "string-number" and number:
            yield path, repr(value)
        elif kind == "huge-int" and number:
            yield path, 10**400
        elif kind == "short-pair" and pair:
            yield path, value[:1]
        elif kind == "long-pair" and pair:
            yield path, value + [0.0]


def _mutated(obj, path, replacement):
    if not path:
        return replacement
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    if replacement is None:
        del node[path[-1]]
    else:
        node[path[-1]] = replacement
    return obj


def _field_path(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def _fuzz_inputs(tmp):
    """Valid files, one per parsed input: ``{name: (object, argv for a path)}``."""
    u = random_unitary(2, spawn_rng(311, 0))
    kraus = _kraus_obj([S2 * u, S2 * u @ Z])
    proj = _kraus_obj([np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)])
    scenario = {
        "dim_a": 2,
        "dim_b": 2,
        "tol": 1e-9,
        "initial_state": matrix_to_obj(np.full((4, 4), 0.25)),
        "frame": matrix_to_obj(np.kron(u, I2)),
        "interventions": [
            {"label": "a", "target": "A", "kraus": proj, "mixing": matrix_to_obj(X)},
            {
                "label": "b",
                "target": "B",
                "kraus": proj,
                "sprime_kraus": dict(proj, trace_preserving=True),
            },
        ],
    }
    frame = matrix_to_obj(random_unitary(2, spawn_rng(311, 1)))
    k_path = _write(tmp, "fuzz-k.json", kraus)
    f_path = _write(tmp, "fuzz-f.json", frame)
    return {
        "analyze-kraus": (kraus, lambda p: ["analyze", p, k_path, f_path]),
        "analyze-frame": (frame, lambda p: ["analyze", k_path, k_path, p]),
        "n1-search": (matrix_to_obj(u), lambda p: ["n1-search", p, f_path, "--trials", "2"]),
        "scenario": (scenario, lambda p: ["scenario", p]),
    }


class TestParserFuzz:
    """Seeded mutations of valid files: exit 1, one error line naming the field.

    The line must hold the file path followed by the mutated site's path;
    for a key, the path of its enclosing object and the key's name suffice,
    since a size that no data can match is reported where it is compared.
    """

    @pytest.mark.parametrize("kind", _MUTATIONS)
    @pytest.mark.parametrize(
        "name", ["analyze-kraus", "analyze-frame", "n1-search", "scenario"]
    )
    def test_mutation_is_one_named_error(self, tmp_path, capsys, name, kind):
        obj, argv = _fuzz_inputs(tmp_path)[name]
        assert main(argv(_write(tmp_path, "valid.json", obj))) in (0, 2)
        capsys.readouterr()
        sites = list(_mutations(obj, kind))
        assert sites
        rng = random.Random(_MUTATIONS.index(kind) * 10 + len(name))
        for i, (path, replacement) in enumerate(rng.sample(sites, min(12, len(sites)))):
            # a fresh name per file: overwriting a file is slow on some filesystems
            file = _write(tmp_path, f"mutant-{i}.json", _mutated(obj, path, replacement))
            code = main(argv(file))
            captured = capsys.readouterr()
            where = f"{name} {kind} at {_field_path(path) or 'root'}"
            assert code == 1, where
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), where
            if path and isinstance(path[-1], str):
                assert f"{file}{_field_path(path[:-1])}" in lines[0], where
                assert path[-1] in lines[0], where
            else:
                assert f"{file}{_field_path(path)}" in lines[0], where


class TestOverflowingDerivedSet:
    """Overflow in a derived set or a leaf is reported by one error line, no warnings."""

    @staticmethod
    def _covchan(flags, argv):
        """``python FLAGS -m covchan ARGV`` in a child, importing this package."""
        src = os.path.dirname(os.path.dirname(covchan.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        return subprocess.run(
            [sys.executable, *flags, "-m", "covchan", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    @pytest.mark.parametrize("flags", [[], ["-X", "dev", "-W", "error"]], ids=["plain", "dev"])
    def test_stderr_is_one_error_line(self, fixtures, flags):
        tmp = fixtures["tmp"]
        big = dict(_kraus_obj([np.full((2, 2), 1e308 + 0j)]), trace_preserving=False)
        big = _write(tmp, "big.json", big)
        had = _write(tmp, "h.json", matrix_to_obj(S2 * np.array([[1, 1], [1, -1]])))
        # accepted at this tol, three 1e70-scaled sets overflow the third leaves
        tree = load_json(fixtures["scenario"])
        tree["tol"] = 1e300
        tree["interventions"] = [
            {"target": "A", "kraus": _kraus_obj([1e70 * I2])} for _ in range(3)
        ]
        tree = _write(tmp, "overflow-tree.json", tree)
        finite = "error: Kraus operator 0: entries must be finite\n"
        cases = [
            (["analyze", big, big, had], finite),
            # one big set on the S side: its conjugate overflows
            (["analyze", big, fixtures["ident"], had], finite),
            (
                ["scenario", tree],
                "error: intervention 'intervention-2': branch states overflow; "
                "entries must be finite\n",
            ),
        ]
        for argv, stderr in cases:
            proc = self._covchan(flags, argv)
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert proc.stderr == stderr

    @pytest.mark.parametrize("flags", [[], ["-X", "dev", "-W", "error"]], ids=["plain", "dev"])
    def test_big_sprime_set_is_not_conjugated(self, fixtures, flags):
        # only the S set is carried through the frame, so a finite S' set
        # too large to conjugate gives a non-finite residual, not an error
        tmp = fixtures["tmp"]
        big = dict(_kraus_obj([np.full((2, 2), 1e308 + 0j)]), trace_preserving=False)
        big = _write(tmp, "big.json", big)
        had = _write(tmp, "h.json", matrix_to_obj(S2 * np.array([[1, 1], [1, -1]])))
        argv = ["analyze", fixtures["ident"], big, had]
        proc = self._covchan(flags, argv)
        assert proc.stderr == ""
        assert proc.returncode == 2
        results = json.loads(proc.stdout)["results"]
        assert results["verdict"] == "INCOMPATIBLE"
        assert results["residual"] is None

    @pytest.mark.parametrize("flags", [[], ["-X", "dev", "-W", "error"]], ids=["plain", "dev"])
    def test_nonfinite_residual_reads_incompatible(self, fixtures, flags):
        tmp = fixtures["tmp"]
        # finite, so accepted; the Choi residual (about 1e400) is past the
        # float range, the covariant distance (2e200) is not
        big = dict(_kraus_obj([np.full((2, 2), 1e200 + 0j)]), trace_preserving=False)
        big = _write(tmp, "big.json", big)
        argv = ["analyze", big, fixtures["ident"], fixtures["lam_ident"]]
        proc = self._covchan(flags, argv)
        assert proc.stderr == ""
        assert proc.returncode == 2
        results = json.loads(proc.stdout)["results"]
        assert results["verdict"] == "INCOMPATIBLE"
        assert results["residual"] is None
        assert results["covariant_distance"] == pytest.approx(2e200, rel=1e-15)


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_PRINT_THREAD_VARS = (
    f"import json, os; print(json.dumps([os.environ.get(v) for v in {_THREAD_VARS!r}]))"
)

# the console script that pip writes for ``covchan = "covchan.cli:main"``
_CONSOLE_SCRIPT = """\
import re
import sys
from covchan.cli import main
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit(main())
"""


def _python(args, preset=(), stdin=None, cwd=None):
    """``python ARGS`` in a child with none of the thread variables but ``preset``."""
    src = os.path.dirname(os.path.dirname(covchan.__file__))
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    path = env.get("PYTHONPATH")
    env.update(preset, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        env=env, cwd=cwd, timeout=120,
    )


@pytest.fixture(params=["module", "script"])
def entry(request, tmp_path):
    """The two ways to start a CLI job: ``-m covchan`` and the console script."""
    if request.param == "module":
        return ["-m", "covchan"]
    script = tmp_path / "bin" / "covchan"
    script.parent.mkdir()
    script.write_text(_CONSOLE_SCRIPT)
    return [str(script)]


class TestBlasThreadPin:
    """A CLI job runs BLAS on one thread unless the user chose a count;
    ``import covchan`` from any other program changes nothing."""

    def _cli_thread_vars(self, entry, preset=()):
        # -i: once the CLI has exited, the interpreter runs stdin's line
        proc = _python(["-i", *entry, "--version"], preset, stdin=_PRINT_THREAD_VARS + "\n")
        version, values = proc.stdout.splitlines()
        assert version == f"covchan {covchan.__version__}"
        return json.loads(values)

    def test_cli_pins_one_thread(self, entry):
        assert self._cli_thread_vars(entry) == ["1", "1", "1"]

    @pytest.mark.parametrize("preset", [{"OMP_NUM_THREADS": "3"}, {"OPENBLAS_NUM_THREADS": "2"}])
    def test_user_value_wins(self, entry, preset):
        want = [preset.get(name) for name in _THREAD_VARS]
        assert self._cli_thread_vars(entry, preset) == want

    def test_library_import_leaves_environment(self):
        code = (
            "import os; before = dict(os.environ); import covchan, numpy; "
            "assert dict(os.environ) == before; print('ok')"
        )
        proc = _python(["-c", code])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")

    def test_numpy_loaded_first_is_left_alone(self):
        # the pool exists once numpy is loaded: a late pin would only mislead
        code = (
            "import sys, numpy; sys.argv[0] = '-m'; sys.orig_argv += ['-m', 'covchan']; "
            "import covchan; " + _PRINT_THREAD_VARS
        )
        proc = _python(["-c", code])
        assert json.loads(proc.stdout) == [None, None, None]

    @pytest.mark.parametrize("kind", ["conjugated", "mixed"])
    def test_report_bytes_do_not_depend_on_core_count(self, tmp_path, kind):
        d, n = 32, 16
        k = random_kraus_set(d, n, spawn_rng(61, 0))
        f = FrameTransform(random_unitary(d, spawn_rng(61, 1)))
        lp = conjugate_kraus(k, f)
        if kind == "mixed":
            lp = mix_kraus(lp, MixingUnitary(random_unitary(n, spawn_rng(61, 2))))
        argv = [
            "-m", "covchan", "analyze",
            _write(tmp_path, "k.json", _kraus_obj(k.ops)),
            _write(tmp_path, "l.json", _kraus_obj(lp.ops)),
            _write(tmp_path, "f.json", matrix_to_obj(f.mat)),
        ]
        unset, one, two = (
            _python(argv, preset)
            for preset in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"})
        )
        for run in (unset, one, two):
            assert (run.returncode, run.stderr) == (0, "")
        # unset is one thread on any machine
        _assert_same_text(one.stdout, unset.stdout)
        if kind == "conjugated":
            _assert_same_text(two.stdout, unset.stdout)
        else:
            # a thread count the user sets may sum in another order: the
            # residual of this pair moves in its last digits at two threads
            got, want = json.loads(two.stdout), json.loads(unset.stdout)
            residuals = got["results"].pop("residual"), want["results"].pop("residual")
            assert got == want
            assert abs(residuals[0] - residuals[1]) <= 1e-13

_PRINT_GC_STATE = "import gc; print(gc.isenabled(), gc.get_freeze_count() > 0)"
# the runner of an in-process job: a program that is not a CLI job
_IN_PROCESS_MAIN = "import sys, covchan.cli; sys.exit(covchan.cli.main(sys.argv[1:]))"


class TestCollectorFreeze:
    """A CLI job keeps the cyclic collector off while it imports, then
    freezes the import heap and collects what the job allocates; any other
    program that imports covchan keeps the collector as it was."""

    def test_cli_freezes_the_import_heap(self, entry):
        proc = _python(["-i", *entry, "--version"], stdin=_PRINT_GC_STATE + "\n")
        assert proc.stdout.splitlines() == [f"covchan {covchan.__version__}", "True True"]

    @pytest.mark.parametrize(
        "code",
        [
            "import covchan",
            "import covchan.cli; covchan.cli.main(['freedom-sweep', '--trials', '2'])",
            # `python -m covchan` emulated, with numpy loaded before covchan
            "import sys, numpy; sys.argv[0] = '-m'; sys.orig_argv += ['-m', 'covchan']; "
            "import covchan",
        ],
        ids=["import", "main", "numpy-first"],
    )
    def test_other_programs_keep_the_collector(self, code):
        proc = _python(["-c", f"{code}\n{_PRINT_GC_STATE}"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == "True False"

    def test_another_module_run_with_m_is_a_library_importer(self, tmp_path):
        # argv[0] is "-m" while runpy imports this package, and covchan with it
        pkg = tmp_path / "other"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("import covchan\n")
        (pkg / "__main__.py").write_text(f"{_PRINT_GC_STATE}\n{_PRINT_THREAD_VARS}\n")
        proc = _python(["-m", "other"], cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == ["True False", "[null, null, null]"]

    @pytest.mark.parametrize("command", ["analyze", "freedom-sweep", "n1-search", "scenario"])
    def test_reports_match_an_in_process_job(self, fixtures, tmp_path, command):
        k = random_kraus_set(3, 2, spawn_rng(27, 0))
        f = FrameTransform(random_unitary(3, spawn_rng(27, 1)))
        lp = mix_kraus(conjugate_kraus(k, f), MixingUnitary(random_unitary(2, spawn_rng(27, 2))))
        argv = {
            "analyze": [
                "analyze",
                _write(tmp_path, "k.json", _kraus_obj(k.ops)),
                _write(tmp_path, "l.json", _kraus_obj(lp.ops)),
                _write(tmp_path, "f.json", matrix_to_obj(f.mat)),
            ],
            "freedom-sweep": ["freedom-sweep", "--dim", "3", "--rank", "2", "--trials", "5"],
            "n1-search": ["n1-search", fixtures["k1_ident"], fixtures["lam_ident"], "--trials", "20"],
            "scenario": ["scenario", fixtures["scenario"]],
        }[command]
        # both children on one BLAS thread and with debug lines on stderr
        env = {**dict.fromkeys(_THREAD_VARS, "1"), "COVCHAN_LOG": "debug"}
        cli, lib = (_python([*runner, *argv], env) for runner in (
            ["-m", "covchan"], ["-c", _IN_PROCESS_MAIN]
        ))
        assert lib.stdout.startswith("{")
        assert (cli.returncode, cli.stderr) == (lib.returncode, lib.stderr)
        _assert_same_text(cli.stdout, lib.stdout)


class TestPublicSurface:
    """The package exports each module's ``__all__``, and ``__version__``."""

    MODULES = ("channels", "covariance", "linalg", "rigidity", "scenario")

    def test_all_is_the_module_lists(self):
        modules = [getattr(covchan, name) for name in self.MODULES]
        names = [name for module in modules for name in module.__all__]
        assert covchan.__all__ == [*names, "__version__"]
        assert len(set(covchan.__all__)) == len(covchan.__all__)
        for name in (
            "GRAM_MIN_EIGENVALUE",
            "N1Violation",
            "NULL_BRANCH_PROB",
            "PHASE_DISTANCE_FLOOR",
            "STATE_TOL",
            "UNITARY_TOL",
        ):
            assert name in covchan.__all__

    def test_each_name_is_its_module_object(self):
        for module in (getattr(covchan, name) for name in self.MODULES):
            for name in module.__all__:
                obj = getattr(module, name)
                assert getattr(covchan, name) is obj, name
                assert getattr(obj, "__module__", module.__name__) == module.__name__, name

    def test_star_import_under_warnings_as_errors(self):
        src = os.path.dirname(os.path.dirname(covchan.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        code = (
            "from covchan import *\n"
            "import covchan\n"
            "assert all(name in globals() for name in covchan.__all__)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


    # the package's public names, as they stood before rigidity moved out
    # of covariance and rigidity and scenario began to load on first use
    PINNED = {
        "Branches", "CHANNEL_EQUALITY_TOL", "COMPLETENESS_TOL", "CovarianceReport",
        "DensityMatrix", "FrameTransform", "GRAM_MIN_EIGENVALUE", "Intervention",
        "InterventionRecord", "KrausSet", "MixingUnitary", "N1CheckResult",
        "N1SearchReport", "N1Violation", "NULL_BRANCH_PROB", "PHASE_DISTANCE_FLOOR",
        "PhaseEquivalence", "STATE_TOL", "ScenarioConfig", "ScenarioResult", "Target",
        "UNITARY_TOL", "Verdict", "__version__", "analyze", "apply_channel",
        "apply_kraus", "apply_to_matrix_units", "as_cmatrix", "channels_equal",
        "choi_distance", "choi_matrix", "compatibility_residual",
        "completeness_defect", "conjugate_kraus", "covariant_distance", "dagger",
        "embed_local", "extract_mixing", "frobenius_distance",
        "make_noncovariant_solution", "matrix_units", "mix_kraus",
        "n1_covariance_search", "n1_uniqueness_check", "phase_aligned_distance",
        "phase_permutation_distance", "random_density", "random_kraus_set",
        "random_unitary", "run_scenario", "spawn_rng", "transform_state",
        "unitarity_defect", "vec",
    }

    def test_all_is_pinned(self):
        assert len(self.PINNED) == 55
        assert set(covchan.__all__) == self.PINNED

    def test_names_are_bound_on_first_access(self):
        code = (
            "import sys, covchan\n"
            "loaded = {'covchan.rigidity', 'covchan.scenario'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
            "for name in covchan.__all__:\n"
            "    value = getattr(covchan, name)\n"
            "    assert vars(covchan)[name] is value, name\n"
            "print(sorted({'covchan.rigidity', 'covchan.scenario'} & set(sys.modules)))\n"
        )
        proc = _python(["-X", "dev", "-W", "error", "-c", code])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "['covchan.rigidity', 'covchan.scenario']\n"

    def test_star_import_holds_exactly_all(self):
        code = (
            "namespace = {}\n"
            "exec('from covchan import *', namespace)\n"
            "import covchan\n"
            "assert set(namespace) - {'__builtins__'} == set(covchan.__all__)\n"
            "assert all(namespace[n] is getattr(covchan, n) for n in covchan.__all__)\n"
        )
        proc = _python(["-X", "dev", "-W", "error", "-c", code])
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_a_lazy_module_is_an_attribute_of_the_package(self):
        code = "import covchan; print(covchan.scenario.__name__, covchan.rigidity.__name__)"
        proc = _python(["-c", code])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "covchan.scenario covchan.rigidity\n"

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            covchan.nope


class TestCommandImports:
    """A CLI job imports the modules its command runs, and no others."""

    LAZY = {"covchan.rigidity", "covchan.scenario"}

    @pytest.mark.parametrize(
        "command, loaded",
        [
            ("analyze", set()),
            ("freedom-sweep", set()),
            ("version", set()),
            ("n1-search", {"covchan.rigidity"}),
            ("scenario", {"covchan.scenario"}),
        ],
    )
    def test_command_loads_only_its_modules(self, fixtures, command, loaded):
        argv = {
            "analyze": ["analyze", fixtures["dephase"], fixtures["dephase"], fixtures["lam_ident"]],
            "freedom-sweep": ["freedom-sweep", "--dim", "2", "--rank", "2", "--trials", "2"],
            "version": ["--version"],
            "n1-search": ["n1-search", fixtures["k1_ident"], fixtures["lam_ident"], "--trials", "2"],
            "scenario": ["scenario", fixtures["scenario"]],
        }[command]
        proc = _python(["-X", "importtime", "-m", "covchan", *argv])
        assert proc.returncode == 0, proc.stderr
        # each line reads "import time: self | cumulative | module"
        modules = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert {"covchan.cli", "covchan.covariance"} <= modules
        assert modules & self.LAZY == loaded


class TestCliPlumbing:
    def test_unknown_flag_exit_one(self, capsys):
        assert main(["analyze", "--nope"]) == 1
        capsys.readouterr()

    def test_missing_command_exit_one(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        capsys.readouterr()

    def test_no_report_written_on_input_error(self, fixtures):
        out = fixtures["tmp"] / "never.json"
        code = main(
            ["analyze", "/nonexistent.json", fixtures["ident"], fixtures["lam_ident"],
             "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()

    def test_unwritable_out_exit_one(self, fixtures, capsys):
        out = fixtures["tmp"] / "missing-dir" / "report.json"
        code = main(
            ["analyze", fixtures["ident"], fixtures["ident"], fixtures["lam_ident"],
             "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()
        capsys.readouterr()

    @staticmethod
    def _failed_twice(out, capsys):
        """stderr of two ``freedom-sweep --out out`` runs, which both exit 1."""
        argv = ["freedom-sweep", "--trials", "1", "--out", out]
        errors = []
        for _ in range(2):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        return errors[0]

    def test_missing_out_directory_names_the_destination(
        self, fixtures, capsys, monkeypatch
    ):
        # the error names the --out argument, not a random temp file
        monkeypatch.chdir(fixtures["tmp"])
        before = sorted(os.listdir())
        err = self._failed_twice(os.path.join("nodir", "x.json"), capsys)
        assert err == "error: [Errno 2] No such file or directory: 'nodir/x.json'\n"
        assert sorted(os.listdir()) == before

    def test_out_directory_names_the_destination(self, fixtures, capsys, monkeypatch):
        # renaming the finished report over a directory fails; the error
        # names the --out argument, and the temp file is removed
        monkeypatch.chdir(fixtures["tmp"])
        os.mkdir("d")
        before = sorted(os.listdir())
        err = self._failed_twice("d", capsys)
        assert err == "error: [Errno 21] Is a directory: 'd'\n"
        assert sorted(os.listdir()) == before
        assert os.listdir("d") == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_out_file_mode_follows_umask(self, fixtures, umask, mode):
        out = fixtures["tmp"] / "report.json"
        old = os.umask(umask)
        try:
            code = main(
                ["analyze", fixtures["ident"], fixtures["ident"], fixtures["lam_ident"],
                 "--out", str(out)]
            )
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == mode

    def test_log_env_goes_to_stderr_only(self, fixtures, capsys, monkeypatch):
        monkeypatch.setenv("COVCHAN_LOG", "debug")
        code = main(
            ["analyze", fixtures["ident"], fixtures["ident"], fixtures["lam_ident"]]
        )
        captured = capsys.readouterr()
        assert code == 0
        json.loads(captured.out)
        assert "analyze" in captured.err

    def test_log_off_is_silent(self, fixtures, capsys, monkeypatch):
        monkeypatch.setenv("COVCHAN_LOG", "off")
        main(["analyze", fixtures["ident"], fixtures["ident"], fixtures["lam_ident"]])
        assert capsys.readouterr().err == ""

    def test_unknown_log_level_treated_as_off(self, fixtures, capsys, monkeypatch):
        monkeypatch.setenv("COVCHAN_LOG", "shouting")
        code = main(
            ["analyze", fixtures["ident"], fixtures["ident"], fixtures["lam_ident"]]
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_log_lines_by_level(self, fixtures, capsys, monkeypatch):
        # info shows the analyze summary and no per-trial debug lines; debug
        # shows one line per sweep trial, formatted from the report's values
        sweep = ["freedom-sweep", "--trials", "2", "--seed", "3"]
        analyze = ["analyze", fixtures["ident"], fixtures["flip"], fixtures["lam_ident"]]
        monkeypatch.setenv("COVCHAN_LOG", "info")
        assert main(sweep) == 0
        assert capsys.readouterr().err == ""
        assert main(analyze) == 2
        assert capsys.readouterr().err == (
            "INFO covchan: analyze: residual 2.828e+00 distance 2.000e+00 "
            "verdict INCOMPATIBLE\n"
        )
        monkeypatch.setenv("COVCHAN_LOG", "debug")
        assert main(sweep) == 0
        captured = capsys.readouterr()
        trials = json.loads(captured.out)["results"]["per_trial"]
        assert captured.err == "".join(
            f"DEBUG covchan: trial {t['trial']}: residual {t['residual']:.3e} "
            f"distance {t['covariant_distance']:.3e} mixing {t['mixing_distance']:.3e}\n"
            for t in trials
        )
        assert len(trials) == 2


class TestReportSchema:
    """Report keys follow the result dataclasses' field order."""

    MATRIX_KEYS = ["rows", "cols", "data"]

    def _results(self, argv, capsys, code=0):
        assert main(argv) == code
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["command", "seed", "tolerance", "trials", "results", "version"]
        return report["results"]

    def test_analyze(self, fixtures, capsys):
        res = self._results(
            ["analyze", fixtures["dephase"], fixtures["dephase"], fixtures["lam_ident"]], capsys
        )
        assert list(res) == ["residual", "covariant_distance", "rank", "dim", "tol", "verdict"]

    def test_analyze_rank_mismatch_distance_is_null(self, fixtures, capsys):
        halves = _write(fixtures["tmp"], "halves.json", _kraus_obj([S2 * I2, S2 * I2]))
        res = self._results(["analyze", fixtures["ident"], halves, fixtures["lam_ident"]], capsys)
        assert res["covariant_distance"] is None
        assert res["verdict"] == "NONCOVARIANT_COMPATIBLE"

    def test_freedom_sweep(self, capsys):
        res = self._results(
            ["freedom-sweep", "--dim", "2", "--rank", "2", "--trials", "5", "--seed", "3"], capsys
        )
        assert list(res) == ["dim", "rank", "per_trial", "summary"]
        assert list(res["per_trial"][0]) == [
            "trial", "residual", "covariant_distance", "mixing_distance",
            "nontrivial_mixing", "degenerate",
        ]
        assert list(res["summary"]) == [
            "max_residual", "min_nontrivial_distance", "noncovariant_compatible",
            "nontrivial_mixings", "degenerate",
        ]
        for trial in res["per_trial"]:
            assert type(trial["nontrivial_mixing"]) is bool
            assert type(trial["degenerate"]) is bool

    def test_freedom_sweep_without_nontrivial_mixing(self, capsys):
        res = self._results(
            ["freedom-sweep", "--dim", "2", "--rank", "1", "--trials", "3"], capsys
        )
        assert res["summary"]["min_nontrivial_distance"] is None
        assert res["per_trial"][0]["nontrivial_mixing"] is False

    def test_n1_search(self, fixtures, capsys):
        # a tolerance this loose turns every candidate away from the
        # covariant solution into a violation, so the list is nonempty
        res = self._results(
            ["n1-search", fixtures["k1_ident"], fixtures["lam_ident"],
             "--trials", "2", "--tol", "10"],
            capsys,
            code=3,
        )
        assert list(res) == [
            "dim", "trials", "tol", "distance_floor", "residual_floor", "examined",
            "min_residual", "best_phase_distance", "best_candidate", "violation_count",
            "violations",
        ]
        assert list(res["best_candidate"]) == self.MATRIX_KEYS
        assert res["violation_count"] == len(res["violations"]) > 0
        violation = res["violations"][0]
        assert list(violation) == ["residual", "phase_distance", "candidate"]
        assert list(violation["candidate"]) == self.MATRIX_KEYS

    def test_scenario(self, fixtures, capsys):
        res = self._results(["scenario", fixtures["scenario"]], capsys)
        assert list(res) == [
            "dim_a", "dim_b", "interventions", "branches", "final_state_s",
            "final_state_sprime", "probability_defect", "state_defect",
            "covariance_defect", "representation_distance", "tol", "verdict",
        ]
        assert list(res["interventions"][0]) == [
            "label", "target", "probabilities_s", "probabilities_sprime",
            "probability_defect",
        ]
        assert res["interventions"][0]["target"] == "A"
        branch = res["branches"][0]
        assert list(branch) == [
            "sequence", "probability_s", "probability_sprime", "state_s", "state_sprime",
        ]
        assert branch["sequence"] == [0]
        assert list(branch["state_s"]) == self.MATRIX_KEYS
        assert list(res["final_state_s"]) == self.MATRIX_KEYS

    @pytest.mark.parametrize("value", [object(), {1, 2}, 1j, [np.int64(1)]])
    def test_encoder_rejects_unknown_objects(self, value):
        with pytest.raises(TypeError, match="cannot encode"):
            _report(value)


def _reference_jsonable(obj):
    """The plain-JSON form of a report value, encoded the obvious way.

    The oracle for the report writer: ``json.dumps`` of this form with
    ``indent=2`` is the report text byte for byte.
    """
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, DensityMatrix):
        return matrix_to_obj(obj.mat)
    if isinstance(obj, np.ndarray):
        return matrix_to_obj(obj)
    if isinstance(obj, Branches):
        # one object per leaf, its keys in the report schema's order
        return [
            _reference_jsonable(
                {
                    "sequence": seq,
                    "probability_s": p_s,
                    "probability_sprime": p_sp,
                    "state_s": state_s if live_s else None,
                    "state_sprime": state_sp if live_sp else None,
                }
            )
            for (p_s, p_sp), (live_s, live_sp), (state_s, state_sp), seq in zip(
                obj.probabilities.tolist(), obj.live.tolist(), obj.states, obj.sequences
            )
        ]
    if isinstance(obj, dict):
        return {k: _reference_jsonable(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _reference_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    raise TypeError(f"cannot encode {type(obj).__name__} in a report")


class _Writes(list):
    """A stand-in for stdout that keeps the text of every ``write`` call."""

    def write(self, text):
        self.append(text)
        return len(text)


def _envelope(results):
    return run_report("oracle", 7, 1e-9, 3, results, "0.1.0")


def _report_writes(results) -> _Writes:
    writes = _Writes()
    with contextlib.redirect_stdout(writes):
        dump_report(_envelope(results), None)
    return writes


def _report(results):
    """The report text as ``dump_report`` streams it to stdout."""
    return "".join(_report_writes(results))


def _reference_report(results):
    envelope = {
        "command": "oracle",
        "seed": 7,
        "tolerance": 1e-9,
        "trials": 3,
        "results": results,
        "version": "0.1.0",
    }
    return json.dumps(_reference_jsonable(envelope), indent=2, allow_nan=False) + "\n"


def _null_state_scenario():
    one = matrix_to_obj(np.ones((1, 1)))
    keep_or_drop = {"dim": 1, "ops": [one, matrix_to_obj(np.zeros((1, 1)))]}
    cfg = {
        "dim_a": 1,
        "dim_b": 1,
        "initial_state": one,
        "frame": one,
        "interventions": [{"label": "drop", "target": "JOINT", "kraus": keep_or_drop}] * 2,
    }
    result = run_scenario(parse_scenario_config(cfg, "cfg"))
    assert not result.branches.live[:, 0].all()
    return result


@functools.lru_cache(maxsize=None)
def _tree_4096():
    """A qubit measured 12 times, in Z and X by turns: 4096 live leaves."""
    z = KrausSet([np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)])
    x = KrausSet([0.5 * np.array([[1, s], [s, 1]], dtype=complex) for s in (1, -1)])
    cfg = ScenarioConfig(
        initial_state=DensityMatrix(np.array([[0.7, 0.2j], [-0.2j, 0.3]])),
        dim_a=2,
        dim_b=1,
        frame=FrameTransform(random_unitary(2, 11)),
        interventions=tuple(
            Intervention(f"m{i}", (z, x)[i % 2], Target.SUBSYSTEM_A) for i in range(12)
        ),
    )
    result = run_scenario(cfg)
    assert len(result.branches) == 4096
    assert result.branches.live.all()
    return result


def _isometry_set(n, d, seed, null=()):
    """n d x d operators cut from a random isometry; those at ``null`` are zero."""
    rng = np.random.default_rng(seed)
    live = n - len(null)
    g = rng.normal(size=(live * d, d)) + 1j * rng.normal(size=(live * d, d))
    ops = iter(np.linalg.qr(g)[0].reshape(live, d, d))
    return KrausSet([np.zeros((d, d)) if i in null else next(ops) for i in range(n)])


def _one_step_tree(d, kraus=None, sprime=None):
    """A scenario on a d-level system: one joint step, or none if ``kraus`` is None."""
    steps = () if kraus is None else (
        Intervention("step", kraus, Target.JOINT, sprime_kraus=sprime),
    )
    cfg = ScenarioConfig(
        initial_state=DensityMatrix(random_density(d, 3)),
        dim_a=d,
        dim_b=1,
        frame=FrameTransform(random_unitary(d, 4)),
        interventions=steps,
    )
    return run_scenario(cfg)


def _block_leaves(d):
    """Leaves per writer block: each holds two complex d x d states."""
    return linalg._BLOCK_BYTES // (2 * 16 * d * d)


@functools.lru_cache(maxsize=None)
def _block_trees():
    step = _block_leaves(2)
    # leaves step - 1 and step straddle the first block boundary
    null_s, null_sp = {step - 1, step}, {step - 1, step + 1}
    trees = {
        "scenario-block-plus-one": _one_step_tree(2, _isometry_set(step + 1, 2, 1)),
        "scenario-null-at-block-edge": _one_step_tree(
            2, _isometry_set(step + 2, 2, 1, null_s), _isometry_set(step + 2, 2, 2, null_sp)
        ),
        "scenario-no-interventions": _one_step_tree(2),
        "scenario-d16": _one_step_tree(16, _isometry_set(_block_leaves(16) + 1, 16, 5)),
        "scenario-one-leaf": _one_step_tree(2, _isometry_set(1, 2, 6)),
    }
    edge = trees["scenario-null-at-block-edge"].branches.live[step - 1 : step + 2]
    assert edge.tolist() == [[False, False], [False, True], [True, False]]
    assert list(trees["scenario-no-interventions"].branches.sequences) == [()]
    return trees


def _writer_cases():
    rng = np.random.default_rng(5)
    d32 = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    wide = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
    real = np.array([[-0.0, 1.5], [2.0, -3.25e-300]])
    lam = FrameTransform(np.array([[0, 1], [1, 0]], dtype=complex))
    dephase = KrausSet([S2 * I2, S2 * Z])
    return {
        "floats": [-0.0, 5e-324, 1e16, 1e-7, 0.1, -1.5e300, np.float64(2.0 / 3.0)],
        "nonfinite-scalars": {"nan": math.nan, "inf": math.inf, "-inf": -math.inf},
        "big-int": [10**100, -(2**70), 0, True, False, None],
        "labels": {
            "mésure": "naïve ☃",
            "ctl": "tab\there\nnew\x01\x1f\x7f \"q\" \\",
            "separators": "a\u2028b\u2029c",
            "astral": "\U0001f600",
        },
        "empty": {"tuple": (), "list": [], "dict": {}, "nested": [[], {}, ()]},
        "matrix-1x1": np.array([[1.0 - 2.0j]]),
        "matrix-d32": d32,
        "matrix-noncontiguous": {"transposed": wide.T, "strided": wide[::2, 1::3]},
        "matrix-real": real,
        "density": DensityMatrix(np.diag([0.25, 0.75]).astype(complex)),
        "enums-and-dataclass": [Verdict.COVARIANT, analyze(dephase, dephase, lam)],
        "scenario-null-states": _null_state_scenario(),
        "scenario-4096-leaves": _tree_4096(),
        **_block_trees(),
    }


class TestReportWriter:
    """The report writer gives exactly ``json.dumps(..., indent=2)``'s text."""

    @pytest.mark.parametrize("case", sorted(_writer_cases()))
    def test_matches_stdlib_indent(self, case, tmp_path):
        results = _writer_cases()[case]
        want = _reference_report(results)
        _assert_same_text(_report(results), want)
        out = tmp_path / "report.json"
        dump_report(_envelope(results), str(out))
        _assert_same_text(out.read_text(encoding="ascii"), want)
        assert os.listdir(tmp_path) == ["report.json"]

    @pytest.mark.parametrize("case", ["scenario-block-plus-one", "scenario-null-at-block-edge"])
    def test_small_blocks_give_the_same_report(self, monkeypatch, case):
        results = _block_trees()[case]
        whole = _report(results)
        blocks = []

        def counting(mats, level):
            blocks.append(len(mats))
            return matrix_texts(mats, level)

        matrix_texts = serialization._matrix_texts
        monkeypatch.setattr(serialization, "_matrix_texts", counting)
        # three leaves' two d = 2 states per block
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 3 * 2 * 16 * 2 * 2)
        _assert_same_text(_report(results), whole)
        # one block per three leaves, then the two final states
        assert len(blocks) == math.ceil(len(results.branches) / 3) + 2
        assert max(blocks) <= 6

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_matrix_entry_raises_like_stdlib(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 0] = complex(0.5, bad)
        m[2, 2] = complex(math.nan, 0.0)
        with pytest.raises(ValueError) as ours:
            _report({"m": [m]})
        with pytest.raises(ValueError) as stdlib:
            _reference_report({"m": [m]})
        assert str(ours.value) == str(stdlib.value)
        assert repr(bad) in str(ours.value)

    def test_first_nonfinite_entry_in_row_major_order(self):
        m = np.zeros((3, 3))
        m[0, 1], m[1, 0] = math.inf, math.nan
        # in memory, m.T holds inf first; read by rows, nan comes first
        with pytest.raises(ValueError) as ours:
            _report({"m": m.T})
        with pytest.raises(ValueError) as stdlib:
            _reference_report({"m": m.T})
        assert str(ours.value) == str(stdlib.value)
        assert str(ours.value).endswith(": nan")

    @pytest.mark.parametrize("key", [1, 1.5, None, ("a",)])
    def test_non_string_key_rejected(self, key):
        with pytest.raises(TypeError, match="cannot encode"):
            _report({key: 1})

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["analyze", "dephase", "dephase", "lam_ident"], 0),
            (["freedom-sweep", "--dim", "3", "--rank", "2", "--trials", "3"], 0),
            (["n1-search", "k1_ident", "lam_ident", "--trials", "2", "--tol", "10"], 3),
            (["scenario", "scenario"], 0),
        ],
    )
    def test_round_trips_through_stdlib(self, fixtures, capsys, argv, code):
        argv = argv[:1] + [fixtures.get(a, a) for a in argv[1:]]
        assert main(argv) == code
        text = capsys.readouterr().out
        _assert_same_text(text, json.dumps(json.loads(text), indent=2) + "\n")
        out = fixtures["tmp"] / "round-trip.json"
        assert main(argv + ["--out", str(out)]) == code
        _assert_same_text(out.read_text(encoding="ascii"), text)


def _awkward_floats():
    """Signed zeros, subnormals, extremes and 17-digit values, each with its
    negation and repeats, shuffled among random draws."""
    rng = np.random.default_rng(21)
    special = [
        0.0, 5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, 0.1, 1 / 3, 2 / 3, 0.30000000000000004,
        1.2345678901234567e-5, 1e16, 1e22, 123456789.0,
    ]
    draws = list(rng.normal(size=40)) + list(rng.normal(size=40) * 1e-300)
    values = [v for x in special + draws for v in (x, -x)] * 3
    values += list(rng.choice(values, size=200))
    rng.shuffle(values)
    return np.array(values)


class TestFloatTexts:
    """Each entry is rendered exactly as ``float.__repr__`` renders it."""

    def test_every_entry_is_its_repr(self):
        flat = _awkward_floats()
        texts = serialization._float_texts(flat)
        assert texts == [float.__repr__(x) for x in flat.tolist()]
        assert {"0.0", "-0.0", "5e-324", "-5e-324", "-1.7976931348623157e+308"} <= set(texts)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_short_arrays(self, size):
        flat = np.array([-0.0, 0.0, -0.0][:size])
        assert serialization._float_texts(flat) == ["-0.0", "0.0", "-0.0"][:size]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 7, 159])
    def test_first_nonfinite_entry_raises_like_stdlib(self, bad, at):
        flat = _awkward_floats()[:160].copy()
        # a different non-finite value later on must not be the one named
        flat[-1] = -math.inf if math.isnan(bad) else math.nan
        flat[at] = bad
        with pytest.raises(ValueError) as ours:
            serialization._float_texts(flat)
        with pytest.raises(ValueError) as stdlib:
            json.dumps(flat.tolist(), indent=2, allow_nan=False)
        assert str(ours.value) == str(stdlib.value)
        assert str(ours.value).endswith(": " + repr(bad))


def _matrix_text_length(m, level):
    """Length of a matrix's report text at nesting ``level``, by the stdlib."""
    text = json.dumps(matrix_to_obj(m), indent=2)
    return len(text) + 2 * level * text.count("\n")


def _d32_matrices():
    rng = np.random.default_rng(9)
    shape = (32, 32)
    return {"ops": [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(8)]}


class TestStreamedReport:
    """Reports go out in bounded writes; a failed ``--out`` keeps the old file."""

    @pytest.mark.parametrize("case", ["tree-4096", "matrices-d32"])
    def test_no_write_exceeds_the_buffer_and_one_matrix(self, case):
        if case == "tree-4096":
            results = _tree_4096()
            # envelope, results, branches, branch: the leaf states sit at level 4
            states = results.branches.states
            matrix = max(_matrix_text_length(rho, 4) for rho in states.reshape(-1, 2, 2))
        else:
            results = _d32_matrices()
            matrix = max(_matrix_text_length(m, 3) for m in results["ops"])
        writes = _report_writes(results)
        _assert_same_text("".join(writes), _reference_report(results))
        assert len(writes) > 1
        # plus at most 100 characters of keys, separators and brackets
        assert max(map(len, writes)) <= serialization._CHUNK + matrix + 100

    @pytest.fixture
    def failing_report(self, monkeypatch):
        """``covchan.cli`` reports the 4096-leaf tree, then a non-finite matrix."""
        bad = np.eye(2, dtype=complex)
        bad[1, 0] = complex(0.0, math.nan)

        def report(command, seed, tolerance, trials, results, version):
            results = {"tree": _tree_4096(), "results": results, "bad": bad}
            return run_report(command, seed, tolerance, trials, results, version)

        monkeypatch.setattr("covchan.cli.run_report", report)
        written = len(_report({"tree": _tree_4096()}))
        assert written > 3_000_000
        return written

    def test_failure_after_megabytes_keeps_the_destination(
        self, fixtures, capsys, monkeypatch, failing_report
    ):
        removed = []
        unlink = os.unlink

        def spy(path):
            removed.append((os.path.basename(path), os.path.getsize(path)))
            unlink(path)

        monkeypatch.setattr(serialization.os, "unlink", spy)
        dest = fixtures["tmp"] / "keep.json"
        dest.write_bytes(b"previous report\n")
        before = sorted(os.listdir(fixtures["tmp"]))
        code = main(["scenario", fixtures["scenario"], "--out", str(dest)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: Out of range float values are not JSON compliant: nan\n"
        )
        assert dest.read_bytes() == b"previous report\n"
        assert sorted(os.listdir(fixtures["tmp"])) == before
        # the temp file had taken the tree's megabytes before it was removed
        [(name, size)] = removed
        assert name.endswith(".tmp")
        assert size > failing_report - serialization._CHUNK

    def test_failure_on_stdout_keeps_what_was_written(self, fixtures, capsys, failing_report):
        code = main(["scenario", fixtures["scenario"]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "error: Out of range float values are not JSON compliant: nan\n"
        )
        assert len(captured.out) > failing_report - serialization._CHUNK
        # what was written is the start of the report, up to the bad matrix
        path = fixtures["scenario"]
        cfg = parse_scenario_config(load_json(path), path)
        finite = {"tree": _tree_4096(), "results": run_scenario(cfg), "bad": np.eye(2)}
        envelope = run_report("scenario", 0, 1e-9, 0, finite, covchan.__version__)
        assert json.dumps(_reference_jsonable(envelope), indent=2).startswith(captured.out)
