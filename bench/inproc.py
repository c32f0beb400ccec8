"""In-process half of the benchmark: the library workload and traced runs.

The runner (``run.py``) stays free of numpy so that the peak RSS it reads
for its children is not floored by its own. Everything that imports
covchan in-process runs here, in a child of the runner:

    PYTHONPATH=src python bench/inproc.py library --seed 1 --seconds 25
    PYTHONPATH=src python bench/inproc.py library --seed 1 --passes 2 --trace SPANS
    PYTHONPATH=src python bench/inproc.py trace-cli --deck DIR --passes 2 --spans SPANS

Each prints JSON lines on stdout; the last one is the result. A library
run first prints a ``ready`` line once its inputs exist and its warm-up
job has been checked, which is where the runner stops its set-up clock.

Traced runs record spans by wrapping the public functions at each module
boundary, bound in the calling module (``covchan.cli.analyze`` is the
``analyze`` that the CLI calls). A span is (name, start, end, parent, job);
spans stay in memory and are written out when the run ends. A boundary
whose function no longer exists is listed as missing and counts zero calls.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from covchan import Verdict, analyze, apply_channel, conjugate_kraus, extract_mixing

import decks
from run import PROBE_CODE, PROBE_EVERY_S, timed_passes

# Recovered mixing unitaries were within 3e-13 of the true one over the
# whole grid and six seeds; the library's own equality tolerance is 1e-9.
MIXING_RECOVERY_TOL = 1e-9
APPLY_CHANNEL_TOL = 1e-10


def _parse_bytes(counters, args, result):
    counters["serialization.parse.bytes"] += os.path.getsize(args[0])


def _choi_bytes(counters, args, result):
    # A d^2 x d^2 complex128 matrix is 16 d^4 bytes.
    counters["channels.choi.bytes_computed"] += 16 * args[0].dim ** 4


def _mixing_none(counters, args, result):
    counters["covariance.extract_mixing.none"] += result is None


def _n1_examined(counters, args, result):
    counters["covariance.n1.examined"] += result.examined


def _scenario_leaves(counters, args, result):
    counters["scenario.leaves"] += len(result.branches)


# (module, attribute bound in that module, span name, counter hook)
BOUNDARIES = (
    ("covchan.cli", "freedom_sweep", "cli.freedom_sweep", None),
    ("covchan.cli", "load_json", "serialization.parse", _parse_bytes),
    ("covchan.cli", "parse_kraus_set", "serialization.parse", None),
    ("covchan.cli", "parse_frame", "serialization.parse", None),
    ("covchan.cli", "parse_matrix", "serialization.parse", None),
    ("covchan.cli", "parse_scenario_config", "serialization.parse", None),
    ("covchan.cli", "covariance_report_payload", "serialization.payload", None),
    ("covchan.cli", "n1_report_payload", "serialization.payload", None),
    ("covchan.cli", "scenario_result_payload", "serialization.payload", None),
    ("covchan.cli", "run_report", "serialization.payload", None),
    ("covchan.cli", "dump_report", "serialization.dump", None),
    ("covchan.cli", "analyze", "covariance.analyze", None),
    ("covchan.cli", "compatibility_residual", "covariance.residual", None),
    ("covchan.cli", "covariant_distance", "covariance.covariant_distance", None),
    ("covchan.cli", "conjugate_kraus", "covariance.conjugate_mix", None),
    ("covchan.cli", "make_noncovariant_solution", "covariance.conjugate_mix", None),
    ("covchan.cli", "phase_aligned_distance", "covariance.phase_aligned", None),
    ("covchan.cli", "phase_permutation_distance", "covariance.phase_perm", None),
    ("covchan.cli", "n1_covariance_search", "covariance.n1", _n1_examined),
    ("covchan.cli", "run_scenario", "scenario.run", _scenario_leaves),
    ("covchan.cli", "random_kraus_set", "channels.random_kraus_set", None),
    ("covchan.cli", "random_unitary", "linalg.random_unitary", None),
    ("covchan.covariance", "compatibility_residual", "covariance.residual", None),
    ("covchan.covariance", "covariant_distance", "covariance.covariant_distance", None),
    ("covchan.covariance", "channels_equal", "covariance.residual", None),
    ("covchan.covariance", "choi_matrix", "channels.choi", _choi_bytes),
    ("covchan.covariance", "kraus_gram", "channels.kraus_gram", None),
    ("covchan.covariance", "conjugate_kraus", "covariance.conjugate_mix", None),
    ("covchan.covariance", "mix_kraus", "covariance.conjugate_mix", None),
    ("covchan.covariance", "random_unitary", "linalg.random_unitary", None),
    ("covchan.channels", "choi_matrix", "channels.choi", _choi_bytes),
    ("covchan.channels", "apply_kraus", "channels.apply_kraus", None),
    ("covchan.channels", "random_unitary", "linalg.random_unitary", None),
    ("covchan.channels", "KrausSet.__post_init__", "channels.completeness", None),
    ("covchan.channels", "DensityMatrix.__post_init__", "channels.density_check", None),
    ("covchan.scenario", "embed_local", "scenario.embed_local", None),
    ("covchan.scenario", "conjugate_kraus", "covariance.conjugate_mix", None),
    ("covchan.scenario", "mix_kraus", "covariance.conjugate_mix", None),
    ("covchan.scenario", "transform_state", "covariance.transform_state", None),
    ("covchan.scenario", "apply_kraus", "channels.apply_kraus", None),
)

# The calls of a library job, made from this file, with the span name and
# counter hook each gets in a traced run.
LIBRARY_CALLS = {
    "analyze": (analyze, "covariance.analyze", None),
    "conjugate_kraus": (conjugate_kraus, "covariance.conjugate_mix", None),
    "extract_mixing": (extract_mixing, "covariance.extract_mixing", _mixing_none),
    "apply_channel": (apply_channel, "channels.apply_channel", None),
}
UNTRACED = {name: fn for name, (fn, _, _) in LIBRARY_CALLS.items()}

SELF_TIME_LAYERS = (
    "cli.freedom_sweep",
    "serialization.parse",
    "serialization.payload",
    "serialization.dump",
    "channels.choi",
    "channels.completeness",
    "channels.apply_kraus",
    "channels.density_check",
    "covariance.residual",
    "covariance.extract_mixing",
    "covariance.phase_perm",
    "covariance.conjugate_mix",
    "scenario.run",
    "linalg.random_unitary",
)
CALL_COUNT_LAYERS = ("channels.choi", "channels.completeness", "channels.density_check")


class Tracer:
    """Spans of one process, kept in memory until :meth:`write`."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.stack = []
        self.job = None
        self.counters = defaultdict(int)
        self.calls = Counter()
        self._originals = []
        self.boundaries = []

    def call(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.job]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, key, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            result = tracer.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every boundary that exists; record the ones that do not."""
        self.boundaries = []
        for module_name, attr, name, hook in BOUNDARIES:
            key = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, last, None) if owner is not None else None
            if fn is None:
                self.boundaries.append({"boundary": key, "span": name, "status": "missing"})
                continue
            self._originals.append((owner, last, fn))
            setattr(owner, last, self.wrap(key, name, fn, hook))
            self.boundaries.append({"boundary": key, "span": name, "status": "wrapped"})

    def uninstall(self):
        for owner, last, fn in reversed(self._originals):
            setattr(owner, last, fn)
        self._originals = []

    def boundary_report(self):
        return [dict(b, calls=self.calls[b["boundary"]]) for b in self.boundaries]

    def layer_metrics(self, first_span: int, wall: float) -> dict:
        """Per-layer numbers of the spans recorded since ``first_span``."""
        spans = self.spans[first_span:]
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child[parent - first_span] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            self_s[name] += (end - start) - child[i]
            total_s[name] += end - start
            calls[name] += 1
        c = self.counters
        out = {f"{layer}.self_s": self_s[layer] for layer in SELF_TIME_LAYERS}
        out.update({f"{layer}.calls": calls[layer] for layer in CALL_COUNT_LAYERS})
        examined = c["covariance.n1.examined"]
        leaves = c["scenario.leaves"]
        mixings = calls["covariance.extract_mixing"]
        out.update(
            {
                "serialization.parse.bytes": c["serialization.parse.bytes"],
                "serialization.dump.bytes": c["serialization.dump.bytes"],
                "channels.choi.bytes_computed": c["channels.choi.bytes_computed"],
                "covariance.extract_mixing.none_ratio": (
                    c["covariance.extract_mixing.none"] / mixings if mixings else 0.0
                ),
                "covariance.n1.examined": examined,
                "covariance.n1.us_per_candidate": (
                    1e6 * total_s["covariance.n1"] / examined if examined else 0.0
                ),
                "scenario.leaves": leaves,
                "scenario.us_per_leaf": (
                    1e6 * total_s["scenario.run"] / leaves if leaves else 0.0
                ),
                "pass_wall_s": wall,
            }
        )
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def alternate(self, passes: int, run_pass, spans_path: str) -> dict:
        """Call ``run_pass(p, traced)`` untraced, then traced, ``passes`` times.

        Returns the untraced pass walls, the per-layer metrics of the traced
        passes (medians over passes) and the boundary list, and writes the
        spans to ``spans_path``.
        """
        untraced, per_pass = [], []
        for p in range(passes):
            t0 = time.perf_counter()
            run_pass(p, False)
            untraced.append(time.perf_counter() - t0)
            self.install()
            self.counters.clear()
            first_span = len(self.spans)
            try:
                t0 = time.perf_counter()
                run_pass(p, True)
                wall = time.perf_counter() - t0
            finally:
                self.uninstall()
            per_pass.append(self.layer_metrics(first_span, wall))
        self.write(spans_path)
        return {
            "untraced_pass_s": untraced,
            "layers": _median_metrics(per_pass),
            "boundaries": self.boundary_report(),
        }


def _median_metrics(per_pass: list) -> dict:
    # median_low keeps counts whole: every value is one pass's reading
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


# ---------------------------------------------------------------- library


def library_job(cell, fns):
    """The README call sequence on one grid cell, calling ``fns`` by name."""
    rep = fns["analyze"](cell["k"], cell["lprime"], cell["f"])
    covariant = fns["conjugate_kraus"](cell["k"], cell["f"])
    v = fns["extract_mixing"](covariant, cell["lprime"])
    out = fns["apply_channel"](cell["k"], cell["rho"])
    return rep, v, out


def check_library_job(cell, rep, v, out) -> list:
    """Problems with one library job's results; empty when correct."""
    problems = []
    k = cell["k"]
    if rep.verdict is not Verdict.NONCOVARIANT_COMPATIBLE:
        problems.append(f"verdict {rep.verdict.value}, expected NONCOVARIANT_COMPATIBLE")
    if k.rank > k.dim**2:
        # more operators than the d^2-dimensional operator space: the Gram
        # matrix is singular and no unique mixing exists
        if v is not None:
            problems.append("extract_mixing returned a V for a dependent set")
    elif v is None:
        problems.append("extract_mixing returned None for an independent set")
    else:
        err = float(np.abs(v.mat - cell["v"].mat).max())
        if err > MIXING_RECOVERY_TOL:
            problems.append(f"recovered V is off by {err:.3e}")
    ops = np.stack(k.ops)
    expected = np.einsum("aij,jk,alk->il", ops, cell["rho"].mat, ops.conj())
    err = float(np.abs(out.mat - expected).max())
    if err > APPLY_CHANNEL_TOL:
        problems.append(f"apply_channel output is off by {err:.3e}")
    return problems


def _library_digest(rep, v, out) -> str:
    h = hashlib.sha256()
    h.update(repr((rep.verdict.value, rep.residual, rep.covariant_distance)).encode())
    h.update(b"none" if v is None else v.mat.tobytes())
    h.update(out.mat.tobytes())
    return h.hexdigest()


def _cells_digest(cells) -> str:
    h = hashlib.sha256()
    for cell in cells:
        for op in cell["k"].ops + cell["lprime"].ops:
            h.update(op.tobytes())
        for key in ("f", "v", "rho"):
            h.update(cell[key].mat.tobytes())
    return h.hexdigest()


def run_library(seed: int, seconds: float, passes: int, spans_path: str | None) -> None:
    cells = decks.library_cells(seed)
    first = library_job(cells[0], UNTRACED)
    _emit(
        {
            "ready": True,
            "digest": _cells_digest(cells),
            "warmup_problems": check_library_job(cells[0], *first),
            "environment": decks.environment(),
        }
    )
    if spans_path is None:
        if seconds <= 0:
            return
        jobs, probes = [], []
        probe = compile(PROBE_CODE, "<host probe>", "exec")
        last_probe = -float("inf")

        def run_pass(p):
            nonlocal last_probe
            for cell in cells:
                if time.perf_counter() - last_probe >= PROBE_EVERY_S["in_process"]:
                    c0, t0 = time.process_time(), time.perf_counter()
                    exec(probe, {})
                    last_probe = time.perf_counter()
                    probes.append((last_probe - t0, time.process_time() - c0))
                c0, t0 = time.process_time(), time.perf_counter()
                result = library_job(cell, UNTRACED)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                jobs.append(
                    {
                        "id": cell["id"],
                        "wall": wall,
                        "cpu": cpu,
                        "digest": _library_digest(*result),
                        "problems": check_library_job(cell, *result),
                    }
                )

        passes, wall = timed_passes(seconds, run_pass)
        _emit({"jobs": jobs, "timed_wall": wall, "passes": passes, "probes": probes})
        return

    tracer = Tracer()
    traced = {
        name: tracer.wrap(f"bench.inproc.{name}", span, fn, hook)
        for name, (fn, span, hook) in LIBRARY_CALLS.items()
    }
    runs = []

    def run_pass(p, is_traced):
        for cell in cells:
            tracer.job = f"{p}:{cell['id']}"
            runs.append((cell, is_traced, library_job(cell, traced if is_traced else UNTRACED)))

    out = tracer.alternate(passes, run_pass, spans_path)
    out["jobs"] = [
        {
            "id": cell["id"],
            "traced": is_traced,
            "digest": _library_digest(*result),
            "problems": check_library_job(cell, *result),
        }
        for cell, is_traced, result in runs
    ]
    _emit(out)


# -------------------------------------------------------------- traced CLI


class _Sink:
    """Stands in for stdout: keeps the report's hash and size, not its text."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.bytes = 0

    def write(self, text):
        data = text.encode()
        self.hash.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self):
        pass


def run_cli_in_process(argv, tracer=None):
    """``covchan.cli.main(argv)`` with stdout captured; (exit, sha256, bytes)."""
    import covchan.cli

    sink, saved = _Sink(), sys.stdout
    sys.stdout = sink
    try:
        if tracer is None:
            code = covchan.cli.main(argv)
        else:
            code = tracer.call("cli.main", covchan.cli.main, argv)
    finally:
        sys.stdout = saved
    return code, sink.hash.hexdigest(), sink.bytes


def run_trace_cli(deck: str, passes: int, spans_path: str) -> None:
    with open(os.path.join(deck, "manifest.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    os.chdir(deck)
    tracer = Tracer()
    results = []

    def run_pass(p, is_traced):
        for i, job in enumerate(jobs):
            tracer.job = f"{p}:{job['id']}"
            code, digest, size = run_cli_in_process(job["argv"], tracer if is_traced else None)
            if is_traced:
                tracer.counters["serialization.dump.bytes"] += size
            results.append({"job": i, "exit": code, "sha256": digest, "traced": is_traced})

    out = tracer.alternate(passes, run_pass, spans_path)
    out["results"] = results
    _emit(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="in-process benchmark worker")
    sub = p.add_subparsers(dest="mode", required=True)
    lib = sub.add_parser("library")
    lib.add_argument("--seed", type=int, required=True)
    lib.add_argument("--seconds", type=float, default=0.0)
    lib.add_argument("--passes", type=int, default=0)
    lib.add_argument("--trace", metavar="SPANS", default=None)
    cli = sub.add_parser("trace-cli")
    cli.add_argument("--deck", required=True)
    cli.add_argument("--passes", type=int, required=True)
    cli.add_argument("--spans", required=True)
    args = p.parse_args(argv)
    if args.mode == "library":
        run_library(args.seed, args.seconds, args.passes, args.trace)
    else:
        run_trace_cli(os.path.abspath(args.deck), args.passes, os.path.abspath(args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
