"""covchan benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload analyze-grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

The program under test is the ``covchan`` package in ``src/`` next to this
directory; nothing needs installing. Each workload is one closed loop with
a single client: a job starts when the previous one has been reaped. CLI
jobs are ``python -m covchan ...`` subprocesses timed from spawn to reap;
``library`` jobs are in-process call sequences in a fresh child process.
Every job's exit code and report are checked against what its inputs were
built to give.

``--trace 0`` measures the end-to-end metrics with no tracing, from each
job's best reading over its repeats in the run, in seconds on a host at a
fixed reference speed (see ``PROBE_CODE``); the summary shows the times as
measured next to them. ``--trace 1`` runs the same deck in-process with
spans around each module boundary and reports per-layer metrics instead
(see ``inproc.py``).

This process never imports numpy. On Linux a child's ``ru_maxrss`` starts
from its parent's high-water mark across fork and exec, so a bloated runner
would floor every ``peak_rss_mb`` it reads; a self-check spawns a trivial
child and fails the run if its reading is not well below the jobs'.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Everything above it is a human-readable
summary; the full record, and the spans of a traced run, go to
``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# A run measures whole passes over the deck for about ``--seconds``: it
# starts another pass only while that pass should end in time, and makes at
# least MIN_PASSES, so that every job's best reading (see ``best_per_job``)
# comes from several repeats spread over the whole run. A traced run makes a
# fixed number of passes of each kind.
DEFAULT_SECONDS = 25.0
MIN_PASSES = 3
TRACE_PASSES = {"analyze-grid": 2, "search": 2, "scenario-tree": 2, "library": 9}

SETUP_REPEATS = 5

# The host speed probe: fixed interpreter and BLAS work, none of it
# covchan's, run between jobs. Its best time in a run says how fast the
# shared host ran during that run. The time metrics are scaled by
# PROBE_REFERENCE / that best, so they read as seconds on a host running at
# the reference speed: the probe's best on the 2-vCPU VM where this was
# written, as a ``python -c`` child ("spawned") and run in-process.
PROBE_CODE = """\
import numpy as np
s = 0
for i in range(300000):
    s += i * i
a = np.ones((256, 256))
for _ in range(20):
    a = (a @ a) / 256.0
"""
PROBE_REFERENCE = {
    "spawned": {"wall": 0.15, "cpu": 0.26},
    "in_process": {"wall": 0.042, "cpu": 0.082},
}
# Probe at most this often during the timed part of a run.
PROBE_EVERY_S = {"spawned": 1.0, "in_process": 0.5}
STARTUP_SAMPLES = 9
TAIL_BEYOND = 10
JOB_TIMEOUT_S = 120.0
# A trivial child must read at most this share of the smallest job's peak
# RSS, or the readings could be the runner's floor rather than the job's.
# From this runner a trivial child reads about 17 MB; a covchan job, which
# imports numpy, 30 MB or more.
RSS_FLOOR_SHARE = 0.75


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@functools.lru_cache(maxsize=None)
def spec() -> dict:
    """``BENCHMARK.json``: the workloads' reasons and every metric's unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}


def workload_why(workload: str) -> str:
    return next(w["why"] for w in spec()["workloads"] if w["name"] == workload)


def tail_percentile(samples):
    """``(value, percentile, n)`` of the highest whole percentile that has at
    least ``TAIL_BEYOND`` samples above it, by the nearest-rank rule.

    Below ``2 * TAIL_BEYOND + 1`` samples no percentile above the median
    qualifies; the maximum is returned, labelled as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return xs[-1], 100, n
    p = 100 * (n - TAIL_BEYOND) // n
    return xs[-(-p * n // 100) - 1], p, n


def best_per_job(runs: list, key: str) -> dict:
    """Each job's lowest reading of ``key`` over its repeats in the run.

    The benchmark shares a few cores of a host whose other tenants slow any
    one job by up to 2x for seconds at a time, and the slow spells last
    long enough that a median over one run moves with them. A job's fastest
    repeat is what the program needs when nothing else competes; the
    end-to-end metrics are built from those.
    """
    best = {}
    for r in runs:
        best[r["id"]] = min(best.get(r["id"], r[key]), r[key])
    return best


def host_slowness(kind: str, probes: list) -> dict:
    """How much slower than the reference the host ran, from the best
    ``(wall, cpu)`` probe readings of one run: 1.0 is the reference speed."""
    ref = PROBE_REFERENCE[kind]
    return {
        "wall": min(w for w, _ in probes) / ref["wall"],
        "cpu": min(c for _, c in probes) / ref["cpu"],
    }


def at_reference_speed(raw: dict, slowness: dict) -> dict:
    """The job metrics rescaled to a host at the reference speed."""
    out = dict(raw)
    for name in ("job_p50_s", "job_tail_s"):
        out[name] = raw[name] / slowness["wall"]
    out["jobs_per_s"] = raw["jobs_per_s"] * slowness["wall"]
    out["job_cpu_s"] = raw["job_cpu_s"] / slowness["cpu"]
    return out


def rss_floor_ok(trivial_mb: float, job_mbs) -> bool:
    """Whether job peak RSS readings sit well above the spawn floor."""
    return trivial_mb <= RSS_FLOOR_SHARE * min(job_mbs)


def timed_passes(seconds: float, run_pass) -> tuple:
    """Call ``run_pass(p)`` for p = 0, 1, ... for about ``seconds``.

    Another pass starts only while the mean pass so far would still end
    within ``seconds``, and at least ``MIN_PASSES`` run. Returns the number of
    passes and their wall time.
    """
    t0 = time.perf_counter()
    passes = 0
    while True:
        run_pass(passes)
        passes += 1
        wall = time.perf_counter() - t0
        if passes >= MIN_PASSES and wall * (passes + 1) / passes > seconds:
            return passes, wall


def _job_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "COVCHAN_LOG")}
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one child to completion; its wall, CPU, peak RSS and exit code."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=_job_env(), stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr
    )
    with _watchdog(proc):
        return _reap(proc, t0)


@contextlib.contextmanager
def _watchdog(proc):
    """Kill ``proc`` if it is still running after ``JOB_TIMEOUT_S``."""
    reaped = threading.Event()

    def _kill():
        if not reaped.is_set():
            os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(JOB_TIMEOUT_S, _kill)
    timer.start()
    try:
        yield
    finally:
        reaped.set()
        timer.cancel()


def _reap(proc, t0):
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss / 1024.0,
        "exit": proc.returncode,
    }


def _python(*args):
    return [sys.executable, *args]


def probe_spawned(probes: list) -> None:
    """Run the host probe as a child and append its ``(wall, cpu)``."""
    r = spawn(_python("-c", PROBE_CODE))
    if r["exit"] != 0:
        raise BenchError(f"host probe failed ({r['exit']})")
    probes.append((r["wall"], r["cpu"]))


def _capture(argv, what: str) -> str:
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=_job_env(), capture_output=True, text=True,
            timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{what} timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"{what} failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def check_runs(deck: str, jobs: list, runs: list) -> dict:
    """Check every job's first report and that its later reports repeat it.

    Hashing and parsing happen in a ``checks.py`` child, so large reports
    never enter this process. Sets ``sha256`` and ``problems`` on each run,
    deletes the reports, and returns each job's first run.
    """
    seen = set()
    entries = []
    for r in runs:
        entries.append({"job": r["job"], "report": r["report"], "exit": r["exit"],
                        "check": r["job"] not in seen})
        seen.add(r["job"])
    batch = os.path.join(deck, "check-batch.json")
    with open(batch, "w", encoding="utf-8") as fh:
        json.dump(entries, fh)
    checked = json.loads(_capture(
        _python(os.path.join(BENCH_DIR, "checks.py"), os.path.join(deck, "manifest.json"), batch),
        "report checks",
    ))
    first = {}
    for r, c in zip(runs, checked):
        os.unlink(r["report"])
        r["sha256"] = c["sha256"]
        ref = first.setdefault(r["job"], r)
        if ref is r:
            r["problems"] = c["problems"]
            continue
        r["problems"] = []
        if r["exit"] != jobs[r["job"]]["expect"]["exit"]:
            r["problems"].append(f"exit code {r['exit']}")
        if r["sha256"] != ref["sha256"]:
            r["problems"].append("report bytes differ from this job's first run")
        elif ref["problems"]:
            r["problems"].append("repeats a failed report")
    return first


# ------------------------------------------------------------------ CLI decks


def _cli_job(deck: str, jobs: list, i: int, report: str):
    with open(report, "wb") as out:
        r = spawn(_python("-m", "covchan", *jobs[i]["argv"]), cwd=deck, stdout=out)
    r.update(job=i, id=jobs[i]["id"], report=report)
    return r


def setup_cli(workload: str, seed: int, deck: str):
    """Write the deck and run and check one warm-up job: the set-up clock."""
    t0 = time.perf_counter()
    _capture(
        _python(os.path.join(BENCH_DIR, "decks.py"), "--workload", workload,
                "--seed", str(seed), "--out", deck),
        "deck generation",
    )
    with open(os.path.join(deck, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    warm = _cli_job(deck, manifest["jobs"], 0, os.path.join(deck, "warmup.json"))
    check_runs(deck, manifest["jobs"], [warm])
    return time.perf_counter() - t0, manifest, warm


def _setups(workload: str, seed: int, work: str, repeats: int, probes: list):
    """Repeat the set-up, each after a host probe; keep the first deck, check
    all decks are identical."""
    times, first, problems = [], None, []
    for r in range(repeats):
        probe_spawned(probes)
        deck = os.path.join(work, f"deck{r}")
        seconds, manifest, warm = setup_cli(workload, seed, deck)
        times.append(seconds)
        if first is None:
            first = (deck, manifest, warm)
        else:
            if manifest["digest"] != first[1]["digest"]:
                problems.append(f"set-up {r} wrote a different deck for the same seed")
            shutil.rmtree(deck)
    return times, first, problems


def measure_cli(workload: str, seed: int, seconds: float, work: str) -> dict:
    probes = []
    setup_times, (deck, manifest, warm), problems = _setups(
        workload, seed, work, SETUP_REPEATS, probes)
    jobs = manifest["jobs"]
    runs = []
    last_probe = -math.inf

    def run_pass(p):
        nonlocal last_probe
        for i in range(len(jobs)):
            if time.perf_counter() - last_probe >= PROBE_EVERY_S["spawned"]:
                probe_spawned(probes)
                last_probe = time.perf_counter()
            runs.append(_cli_job(deck, jobs, i, os.path.join(deck, f"report-{p}-{i}.json")))

    passes, timed_wall = timed_passes(seconds, run_pass)
    first = check_runs(deck, jobs, runs)
    if warm["sha256"] != first[0]["sha256"]:
        warm["problems"].append("report bytes differ from the warm-up run")
    return {
        "setup_times": setup_times,
        "deck": {"jobs": len(jobs), "input_bytes": manifest["input_bytes"],
                 "digest": manifest["digest"]},
        "environment": manifest["environment"],
        "warmup": warm,
        "runs": runs,
        "timed_wall": timed_wall,
        "passes": passes,
        "slowness": dict.fromkeys(("setup", "jobs"), host_slowness("spawned", probes)),
        "probes": len(probes),
        "problems": problems,
    }


# ------------------------------------------------------------------- library


def _library_worker(seed: int, work: str, *args: str):
    """Run ``inproc.py library`` with ``args`` after the seed: nothing more
    sets up only, ``--seconds`` measures, ``--passes`` with ``--trace`` traces."""
    argv = _python(os.path.join(BENCH_DIR, "inproc.py"), "library", "--seed", str(seed), *args)
    err_path = os.path.join(work, "library-stderr.txt")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_job_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        with _watchdog(proc):
            ready_line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.stdout.read()
            done = _reap(proc, t0)
    proc.stdout.close()
    if done["exit"] != 0 or not ready_line:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            raise BenchError(f"library worker failed ({done['exit']}): {fh.read()[-2000:]}")
    lines = [json.loads(ln) for ln in (ready_line + rest).splitlines() if ln.strip()]
    return setup, lines[0], lines[-1], done


def _check_repeats(jobs: list) -> int:
    """Flag library jobs whose results differ from the first run of their
    cell, traced or not; returns the number of cells."""
    first = {}
    for job in jobs:
        ref = first.setdefault(job["id"], job)
        if job["digest"] != ref["digest"]:
            job["problems"].append("results differ from this cell's first run")
    return len(first)


def measure_library(seed: int, seconds: float, work: str) -> dict:
    setup_times, digests, probes = [], set(), []
    for r in range(SETUP_REPEATS):
        last = r == SETUP_REPEATS - 1
        probe_spawned(probes)
        setup, ready, result, proc = _library_worker(
            seed, work, *(("--seconds", str(seconds)) if last else ()))
        setup_times.append(setup)
        digests.add(ready["digest"])
    problems = [] if len(digests) == 1 else ["set-ups built different inputs for the same seed"]
    runs = [dict(job, rss_mb=proc["rss_mb"]) for job in result["jobs"]]
    return {
        "setup_times": setup_times,
        "deck": {"digest": ready["digest"], "jobs": _check_repeats(runs)},
        "environment": ready["environment"],
        "warmup": {"problems": ready["warmup_problems"]},
        "runs": runs,
        "timed_wall": result["timed_wall"],
        "passes": result["passes"],
        # the set-up starts a process, like the probe child; the jobs run
        # in-process, like the worker's own probe
        "slowness": {"setup": host_slowness("spawned", probes),
                     "jobs": host_slowness("in_process", result["probes"])},
        "probes": len(probes) + len(result["probes"]),
        "problems": problems,
    }


# ------------------------------------------------------------------- metrics


def end_to_end(m: dict, trivial_mb: float) -> dict:
    runs = m["runs"]
    walls = list(best_per_job(runs, "wall").values())
    tail, pct, n = tail_percentile(walls)
    rss = [r["rss_mb"] for r in runs]
    raw = {
        "setup_s": statistics.median(m["setup_times"]),
        "jobs_per_s": len(walls) / math.fsum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail,
        "job_cpu_s": statistics.median(best_per_job(runs, "cpu").values()),
        "peak_rss_mb": max(best_per_job(runs, "rss_mb").values()),
    }
    slow = m["slowness"]
    metrics = at_reference_speed(raw, slow["jobs"])
    metrics["setup_s"] = raw["setup_s"] / slow["setup"]["wall"]
    return {
        "metrics": metrics,
        "raw_metrics": raw,
        "host": {"slowness": slow, "probes": m["probes"]},
        "tail_percentile": pct,
        "samples": n,
        "repeats": len(runs) // n,
        "run_throughput_jobs_per_s": len(runs) / m["timed_wall"],
        "rss_floor": {
            "trivial_child_mb": trivial_mb,
            "smallest_job_mb": min(rss),
            "runner_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok": rss_floor_ok(trivial_mb, rss),
        },
    }


def count_failures(runs: list, warmup: dict):
    """``(attempted, failed)`` over every job run and the warm-up."""
    failed = sum(1 for r in runs if r["problems"]) + bool(warmup["problems"])
    return len(runs) + 1, failed


def startup_seconds() -> float:
    walls = []
    for _ in range(STARTUP_SAMPLES):
        r = spawn(_python("-m", "covchan", "--version"))
        if r["exit"] != 0:
            raise BenchError("python -m covchan --version failed")
        walls.append(r["wall"])
    return statistics.median(walls)


def trace_cli(workload: str, seed: int, passes: int, work: str, spans: str) -> dict:
    _, (deck, manifest, warm), problems = _setups(workload, seed, work, 1, [])
    jobs = manifest["jobs"]
    refs = [_cli_job(deck, jobs, i, os.path.join(deck, f"reference-{i}.json"))
            for i in range(len(jobs))]
    check_runs(deck, jobs, refs)
    out = _capture(
        _python(os.path.join(BENCH_DIR, "inproc.py"), "trace-cli", "--deck", deck,
                "--passes", str(passes), "--spans", spans),
        "traced run",
    )
    result = json.loads(out.splitlines()[-1])
    for r in result["results"]:
        ref = refs[r["job"]]
        r.update(id=ref["id"], problems=[])
        if (r["exit"], r["sha256"]) != (ref["exit"], ref["sha256"]):
            r["problems"].append("in-process report differs from the subprocess report")
    return {
        "environment": manifest["environment"],
        "deck": {"jobs": len(jobs), "digest": manifest["digest"]},
        "warmup": warm,
        "runs": refs + result["results"],
        "result": result,
        "problems": problems,
    }


def trace_library(seed: int, passes: int, work: str, spans: str) -> dict:
    _, ready, result, _ = _library_worker(seed, work, "--passes", str(passes), "--trace", spans)
    _check_repeats(result["jobs"])
    return {
        "environment": ready["environment"],
        "warmup": {"problems": ready["warmup_problems"]},
        "runs": result["jobs"],
        "result": result,
        "problems": [],
    }


def per_layer(t: dict) -> dict:
    layers = dict(t["result"]["layers"])
    traced_wall = layers.pop("pass_wall_s")
    layers["trace.overhead_ratio"] = traced_wall / statistics.median(t["result"]["untraced_pass_s"])
    layers["cli.startup_s"] = startup_seconds()
    return layers


# ----------------------------------------------------------------- reporting


def _environment(seed: int, child_env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        **child_env,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = os.path.join(WORK_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(OUT_DIR, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if trace:
            spans = os.path.join(OUT_DIR, f"{tag}-spans.jsonl")
            if workload == "library":
                t = trace_library(seed, TRACE_PASSES[workload], work, spans)
            else:
                t = trace_cli(workload, seed, TRACE_PASSES[workload], work, spans)
            record = {"metrics": per_layer(t), "boundaries": t["result"]["boundaries"]}
        else:
            if workload == "library":
                t = measure_library(seed, seconds, work)
            else:
                t = measure_cli(workload, seed, seconds, work)
            record = end_to_end(t, spawn(_python("-c", "pass"))["rss_mb"])
            record["setup_times"] = t["setup_times"]
            if not record["rss_floor"]["ok"]:
                t["problems"].append("peak RSS readings may be floored by the runner")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runs = t["runs"]
    record["attempted"], record["failed"] = count_failures(runs, t["warmup"])
    record.update(
        workload=workload,
        why=workload_why(workload),
        seed=seed,
        passes=t.get("passes", TRACE_PASSES[workload]),
        trace=trace,
        environment=_environment(seed, t["environment"]),
        problems=t["problems"],
        failures=[
            {"id": r["id"], "problems": r["problems"]}
            for r in runs if r["problems"]
        ] + ([{"id": "warm-up", "problems": t["warmup"]["problems"]}]
             if t["warmup"]["problems"] else []),
    )
    if "deck" in t:
        record["deck"] = t["deck"]
    record["jobs"] = [
        {k: r[k] for k in ("id", "wall", "cpu", "rss_mb", "exit", "traced") if k in r}
        for r in runs
    ]
    if set(record["metrics"]) != set(metric_units(trace)):
        raise BenchError(
            "measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(record['metrics']) ^ set(metric_units(trace)))}"
        )
    record["correct"] = record["failed"] == 0 and not record["problems"]
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def summary_lines(rec: dict) -> list:
    env = rec["environment"]
    lines = [
        f"workload {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}"
        f"  passes {rec['passes']}",
        f"  why: {rec['why']}",
        "  machine: " + "  ".join(f"{k}={v}" for k, v in env.items()),
    ]
    if "deck" in rec:
        lines.append("  deck: " + "  ".join(f"{k}={v}" for k, v in rec["deck"].items()))
    if "host" in rec:
        slow = rec["host"]["slowness"]
        lines.append(
            f"  host: best probe {slow['jobs']['wall']:.3f}x the reference wall time,"
            f" {slow['jobs']['cpu']:.3f}x its CPU ({rec['host']['probes']} probes);"
            " times below are at the reference speed, as measured in brackets"
        )
    for name, unit in metric_units(rec["trace"]).items():
        extra = ""
        if "raw_metrics" in rec:
            extra = f"  [{rec['raw_metrics'][name]:.6g}]"
        if name == "job_tail_s":
            extra += f"  (p{rec['tail_percentile']} of {rec['samples']} jobs)"
        if name != "setup_s" and not rec["trace"]:
            extra += f"  (each job's best of {rec['repeats']})"
        lines.append(f"  {name:40s} {rec['metrics'][name]:>14.6g} {unit}{extra}")
    ratio = rec["failed"] / rec["attempted"]
    lines.append(f"  {'fail_ratio':40s} {ratio:>14.6g} ratio  ({rec['failed']} of {rec['attempted']} jobs)")
    if "rss_floor" in rec:
        f = rec["rss_floor"]
        lines.append(
            f"  rss floor: trivial child {f['trivial_child_mb']:.1f} MB, smallest job"
            f" {f['smallest_job_mb']:.1f} MB, runner {f['runner_mb']:.1f} MB:"
            f" {'ok' if f['ok'] else 'FLOORED'}"
        )
    if "boundaries" in rec:
        missing = [b["boundary"] for b in rec["boundaries"] if b["status"] == "missing"]
        lines.append(
            f"  wrapped boundaries: {len(rec['boundaries']) - len(missing)}"
            f" (missing: {', '.join(missing) or 'none'})"
        )
    for p in rec["problems"]:
        lines.append(f"  PROBLEM: {p}")
    for f in rec["failures"][:20]:
        lines.append(f"  FAILED {f['id']}: {'; '.join(f['problems'])}")
    return lines


def result_line(rec: dict) -> dict:
    return {
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {
            name: {"value": rec["metrics"][name], "unit": unit}
            for name, unit in metric_units(rec["trace"]).items()
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="covchan benchmark")
    p.add_argument("--workload", required=True, choices=[*TRACE_PASSES, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "covchan", "__init__.py")):
        print(f"error: no covchan package under {SRC}", file=sys.stderr)
        return 2
    names = list(TRACE_PASSES) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            rec = run_one(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(summary_lines(rec)), flush=True)
            results[name] = result_line(rec)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
