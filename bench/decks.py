"""Seeded input decks for the covchan benchmark.

Every input is drawn with covchan's own samplers (``spawn_rng``,
``random_unitary``, ``random_kraus_set``, ``random_density``) from the
workload seed, so the same seed always gives byte-identical files. The
expected exit code and verdict of every job are known by construction and
travel in the manifest next to the files.

Run as a script to write one CLI deck:

    PYTHONPATH=src python bench/decks.py --workload analyze-grid --seed 1 --out DIR

The library workload builds its inputs in memory with :func:`library_cells`.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import sys

import numpy as np

from covchan import (
    DensityMatrix,
    FrameTransform,
    MixingUnitary,
    conjugate_kraus,
    make_noncovariant_solution,
    random_density,
    random_kraus_set,
    random_unitary,
    spawn_rng,
)

GRID_DIMS = (2, 4, 8, 16, 32)
GRID_RANKS = (1, 4, 16)
KINDS = ("conjugated", "mixed", "independent")

# First spawn-key element per workload, so decks of different workloads
# drawn from one seed never share a random stream.
_STREAM = {"analyze-grid": 1, "search": 2, "scenario-tree": 3, "library": 4}

# (command, dim, rank or None, trials). n1-search stops at d = 8: d = 16
# takes about 90 s. The rank-8 sweep is where the permutation enumeration
# dominates; the small-rank sweeps reach d = 32. Trial counts make each job
# about 0.3-1 s, many small kernel calls rather than start-up, and a pass
# short enough to repeat every job several times in one run.
SEARCH_JOBS = (
    ("n1-search", 2, None, 300),
    ("n1-search", 4, None, 150),
    ("n1-search", 8, None, 60),
    ("freedom-sweep", 4, 8, 3),
    ("freedom-sweep", 2, 4, 300),
    ("freedom-sweep", 8, 2, 200),
    ("freedom-sweep", 16, 1, 16),
    ("freedom-sweep", 32, 2, 3),
)

# (family, number of measurements, variant). Family "bell": 2x2 Bell state,
# binary local measurements; family "max4": 4x4 maximally entangled state,
# four-outcome local measurements. The "mixing" and "sprime" variants give
# the second frame a different operator set for one measurement, which
# changes the joint branch statistics, so the run exits 2. The largest trees
# (4096 small leaves, 256 leaves at d = 16) take 1-2 s each; the 8192- and
# 1024-leaf trees, at 3-4 s, would leave room for too few repeats in a run.
SCENARIO_JOBS = (
    ("bell", 10, "mixing"),
    ("bell", 11, None),
    ("bell", 12, None),
    ("max4", 3, "sprime"),
    ("max4", 4, None),
)


def matrix_obj(m) -> dict:
    """The covchan matrix file format: shape plus row-major [re, im] pairs.

    Written here rather than through covchan's serializer so that a change
    to the program's serializer does not move the benchmark's set-up time.
    """
    m = np.asarray(m, dtype=np.complex128)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def kraus_obj(ops) -> dict:
    return {"dim": int(ops[0].shape[0]), "ops": [matrix_obj(op) for op in ops]}


def _projectors(u):
    return [np.outer(u[:, i], u[:, i].conj()) for i in range(u.shape[1])]


def _rng(workload: str, seed: int, *path: int):
    return spawn_rng(seed, _STREAM[workload], *path)


def analyze_grid(seed: int):
    """15 analyze jobs: one per (d, rank) cell of the grid, each of one kind.

    The kind rotates along both axes (a Latin square over d and rank), so
    every d and every rank meets all three verdicts while the deck stays
    small enough to repeat each job several times in one run.
    """
    jobs, files = [], {}
    for i, d in enumerate(GRID_DIMS):
        for r, rank in enumerate(GRID_RANKS):
            kind = KINDS[(i + r) % len(KINDS)]
            j = len(jobs)
            rng = lambda part: _rng("analyze-grid", seed, j, part)  # noqa: E731
            k = random_kraus_set(d, rank, rng(0))
            f = FrameTransform(random_unitary(d, rng(1)))
            if kind == "conjugated":
                lprime, verdict, code = conjugate_kraus(k, f), "COVARIANT", 0
            elif kind == "mixed":
                v = MixingUnitary(random_unitary(rank, rng(2)))
                lprime = make_noncovariant_solution(k, f, v)
                verdict, code = "NONCOVARIANT_COMPATIBLE", 0
            else:
                lprime, verdict, code = random_kraus_set(d, rank, rng(3)), "INCOMPATIBLE", 2
            name = f"d{d}-r{rank}-{kind}"
            files[f"{name}-k.json"] = kraus_obj(k.ops)
            files[f"{name}-l.json"] = kraus_obj(lprime.ops)
            files[f"{name}-f.json"] = matrix_obj(f.mat)
            jobs.append(
                {
                    "id": f"analyze-{name}",
                    "argv": ["analyze", f"{name}-k.json", f"{name}-l.json", f"{name}-f.json"],
                    "expect": {"exit": code, "verdict": verdict, "dim": d, "rank": rank},
                }
            )
    return jobs, files


def search(seed: int):
    """n1-search on seeded unitaries and freedom sweeps with seeded --seed."""
    jobs, files = [], {}
    for j, (command, d, rank, trials) in enumerate(SEARCH_JOBS):
        run_seed = int(_rng("search", seed, j, 0).integers(2**31))
        expect = {"exit": 0, "dim": d, "trials": trials}
        if command == "n1-search":
            name = f"n1-d{d}"
            files[f"{name}-k1.json"] = matrix_obj(random_unitary(d, _rng("search", seed, j, 1)))
            files[f"{name}-f.json"] = matrix_obj(random_unitary(d, _rng("search", seed, j, 2)))
            argv = ["n1-search", f"{name}-k1.json", f"{name}-f.json"]
        else:
            name = f"sweep-d{d}-r{rank}"
            argv = ["freedom-sweep", "--dim", str(d), "--rank", str(rank)]
            # A Haar mixing of rank > 1 is almost surely nontrivial, so every
            # trial is a compatible non-covariant finding; at rank 1 none is.
            expect.update(rank=rank, noncovariant_compatible=trials if rank > 1 else 0)
        argv += ["--trials", str(trials), "--seed", str(run_seed)]
        jobs.append({"id": f"search-{name}", "argv": argv, "expect": expect})
    return jobs, files


def _scenario_config(family: str, n_meas: int, variant, rng) -> dict:
    local = 2 if family == "bell" else 4
    d = local * local
    psi = np.zeros(d, dtype=np.complex128)
    psi[[i * local + i for i in range(local)]] = 1.0 / np.sqrt(local)
    frame = random_unitary(d, rng(0))
    odd_one = n_meas // 2
    interventions = []
    for m in range(n_meas):
        target = "AB"[m % 2]
        iv = {
            "label": f"m{m} on {target}",
            "target": target,
            "kraus": kraus_obj(_projectors(random_unitary(local, rng(1, m)))),
        }
        if m == odd_one and variant == "mixing":
            iv["mixing"] = matrix_obj(random_unitary(local, rng(2, m)))
        if m == odd_one and variant == "sprime":
            iv["sprime_kraus"] = kraus_obj(_projectors(random_unitary(local, rng(3, m))))
        interventions.append(iv)
    return {
        "dim_a": local,
        "dim_b": local,
        "initial_state": matrix_obj(np.outer(psi, psi.conj())),
        "frame": matrix_obj(frame),
        "interventions": interventions,
    }


def scenario_tree(seed: int):
    """EPR-style scenario configs; a plain config is covariant and exits 0."""
    jobs, files = [], {}
    for j, (family, n_meas, variant) in enumerate(SCENARIO_JOBS):
        local = 2 if family == "bell" else 4
        rng = lambda *part: _rng("scenario-tree", seed, j, *part)  # noqa: E731
        name = f"{family}-m{n_meas}" + (f"-{variant}" if variant else "")
        files[f"{name}.json"] = _scenario_config(family, n_meas, variant, rng)
        incompatible = variant is not None
        jobs.append(
            {
                "id": f"scenario-{name}",
                "argv": ["scenario", f"{name}.json"],
                "expect": {
                    "exit": 2 if incompatible else 0,
                    "verdict": "INCOMPATIBLE" if incompatible else "COVARIANT",
                    "leaves": local**n_meas,
                },
            }
        )
    return jobs, files


CLI_DECKS = {"analyze-grid": analyze_grid, "search": search, "scenario-tree": scenario_tree}


# The library workload's (d, rank) cells: the grid from d = 8 up, where the
# kernels rather than Python call overhead set the time, plus d = 2, rank 16,
# the one cell with more operators than the d^2-dimensional operator space,
# where extract_mixing must return None.
LIBRARY_CELLS = ((2, 16),) + tuple((d, r) for d in GRID_DIMS if d >= 8 for r in GRID_RANKS)


def library_cells(seed: int):
    """One (k, frame, mixing, lprime, rho) per cell of ``LIBRARY_CELLS``."""
    cells = []
    for d, rank in LIBRARY_CELLS:
        j = len(cells)
        rng = lambda part: _rng("library", seed, j, part)  # noqa: E731
        k = random_kraus_set(d, rank, rng(0))
        f = FrameTransform(random_unitary(d, rng(1)))
        v = MixingUnitary(random_unitary(rank, rng(2)))
        cells.append(
            {
                "id": f"library-d{d}-r{rank}",
                "k": k,
                "f": f,
                "v": v,
                "lprime": make_noncovariant_solution(k, f, v),
                "rho": DensityMatrix(random_density(d, rng(3))),
            }
        )
    return cells


def _blas_threads():
    # numpy exposes no thread query; ask the OpenBLAS it loaded, if any.
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """numpy, BLAS and interpreter facts of the process that runs covchan."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def write_deck(workload: str, seed: int, out: str) -> dict:
    """Write every input file and ``manifest.json`` under ``out``."""
    jobs, files = CLI_DECKS[workload](seed)
    os.makedirs(out, exist_ok=True)
    digest = hashlib.sha256()
    size = 0
    for name in sorted(files):
        data = json.dumps(files[name]).encode()
        digest.update(name.encode() + b"\0" + data + b"\0")
        size += len(data)
        with open(os.path.join(out, name), "wb") as fh:
            fh.write(data)
    manifest = {
        "workload": workload,
        "seed": seed,
        "digest": digest.hexdigest(),
        "input_bytes": size,
        "environment": environment(),
        "jobs": jobs,
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(CLI_DECKS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    write_deck(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
