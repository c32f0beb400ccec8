"""Tests of the benchmark's own logic.

    python3 -m pytest bench -q
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import decks  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize(
    "n, percentile, rank",
    [(100, 90, 90), (90, 88, 80), (45, 77, 35), (24, 58, 14), (21, 52, 11)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile, rank):
    value, p, count = run.tail_percentile(list(range(n, 0, -1)))
    assert (value, p, count) == (rank, percentile, n)


def test_tail_rule_holds_for_every_sample_count():
    for n in range(21, 400):
        xs = [float(i) for i in range(n)]
        value, p, _ = run.tail_percentile(xs)
        assert sum(x > value for x in xs) >= run.TAIL_BEYOND
        # one percentile higher, the nearest-rank value has fewer beyond it
        higher = xs[-(-(p + 1) * n // 100) - 1]
        assert sum(x > higher for x in xs) < run.TAIL_BEYOND


@pytest.mark.parametrize("n", [1, 3, 10, 15, 20])
def test_tail_falls_back_to_the_maximum_below_the_median_rule(n):
    # under 21 samples, ten beyond would put the percentile at the median
    # or below it, so the slowest sample is the tail
    xs = [float(i) for i in range(n, 0, -1)]
    assert run.tail_percentile(xs) == (float(n), 100, n)


def test_best_per_job_takes_each_jobs_lowest_reading():
    runs = [
        {"id": "a", "wall": 0.5},
        {"id": "b", "wall": 2.0},
        {"id": "a", "wall": 0.3},
        {"id": "b", "wall": 2.5},
        {"id": "a", "wall": 0.9},
    ]
    assert run.best_per_job(runs, "wall") == {"a": 0.3, "b": 2.0}


def test_metrics_at_reference_speed_undo_a_slow_host():
    ref = run.PROBE_REFERENCE["spawned"]
    # the best of three probes ran at 1.5x the reference wall time, 2x its CPU
    probes = [(2 * ref["wall"], ref["cpu"]), (1.5 * ref["wall"], 3 * ref["cpu"]),
              (1.6 * ref["wall"], 2 * ref["cpu"])]
    slow = run.host_slowness("spawned", probes)
    assert slow == pytest.approx({"wall": 1.5, "cpu": 1.0})
    slow["cpu"] = 2.0
    raw = {"setup_s": 3.0, "jobs_per_s": 2.0, "job_p50_s": 0.3, "job_tail_s": 0.6,
           "job_cpu_s": 0.4, "peak_rss_mb": 100.0}
    assert run.at_reference_speed(raw, slow) == pytest.approx(
        {"setup_s": 3.0, "jobs_per_s": 3.0, "job_p50_s": 0.2, "job_tail_s": 0.4,
         "job_cpu_s": 0.2, "peak_rss_mb": 100.0})


def _rewrite_manifest(deck, manifest):
    with open(os.path.join(deck, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def test_wrong_expected_exit_code_and_changed_bytes_count_as_failures(tmp_path):
    deck = str(tmp_path / "deck")
    _, manifest, warm = run.setup_cli("search", 3, deck)
    assert warm["problems"] == [] and warm["exit"] == 0
    jobs = manifest["jobs"]
    runs = [run._cli_job(deck, jobs, 0, os.path.join(deck, f"r{i}.json")) for i in range(3)]
    jobs[0]["expect"]["exit"] = 3
    _rewrite_manifest(deck, manifest)
    with open(runs[2]["report"], "ab") as fh:
        fh.write(b" ")
    run.check_runs(deck, jobs, runs)
    assert any("exit code 0, expected 3" in p for p in runs[0]["problems"])
    assert "exit code 0" in runs[1]["problems"]
    assert "report bytes differ from this job's first run" in runs[2]["problems"]
    assert run.count_failures(runs, {"problems": []}) == (4, 3)


def _spawn_from(prelude: str) -> dict:
    """Peak RSS of a trivial child and of ``covchan --version``, both spawned
    from a fresh parent that first runs ``prelude``."""
    code = (
        f"{prelude}\n"
        "import json, sys\n"
        f"sys.path.insert(0, {BENCH_DIR!r})\n"
        "import run\n"
        "print(json.dumps({\n"
        "    'trivial': run.spawn(run._python('-c', 'pass'))['rss_mb'],\n"
        "    'job': run.spawn(run._python('-m', 'covchan', '--version'))['rss_mb'],\n"
        "}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout)


def test_rss_floor_check_passes_from_a_lean_runner_and_fails_from_a_bloated_one():
    lean = _spawn_from("")
    assert run.rss_floor_ok(lean["trivial"], [lean["job"]])
    # a parent holding 150 MB floors every child's reading at about 150 MB
    bloated = _spawn_from("ballast = b'x' * (150 << 20)")
    assert bloated["trivial"] > 150
    assert not run.rss_floor_ok(bloated["trivial"], [lean["job"]])


@pytest.mark.parametrize("workload", sorted(decks.CLI_DECKS))
def test_fixed_seed_gives_identical_decks(tmp_path, workload):
    a = decks.write_deck(workload, 7, str(tmp_path / "a"))
    b = decks.write_deck(workload, 7, str(tmp_path / "b"))
    c = decks.write_deck(workload, 8, str(tmp_path / "c"))
    assert a["digest"] == b["digest"] != c["digest"]
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fixed_seed_gives_identical_library_inputs():
    digest = inproc._cells_digest
    assert digest(decks.library_cells(7)) == digest(decks.library_cells(7))
    assert digest(decks.library_cells(7)) != digest(decks.library_cells(8))


def test_missing_boundary_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(
        inproc,
        "BOUNDARIES",
        inproc.BOUNDARIES[:1]
        + (
            ("covchan.channels", "choi_matrix_removed", "channels.choi", None),
            ("covchan.module_removed", "anything", "x.y", None),
        ),
    )
    tracer = inproc.Tracer()
    tracer.install()
    try:
        report = tracer.boundary_report()
    finally:
        tracer.uninstall()
    assert [b["status"] for b in report] == ["wrapped", "missing", "missing"]
    assert all(b["calls"] == 0 for b in report)
    assert tracer.layer_metrics(0, 1.0)["channels.choi.calls"] == 0


def test_self_time_subtracts_child_spans():
    tracer = inproc.Tracer()
    tracer.spans = [
        ["channels.choi", 0.0, 10.0, -1, "j"],
        ["covariance.residual", 1.0, 4.0, 0, "j"],
        ["covariance.residual", 5.0, 6.0, 0, "j"],
        ["channels.completeness", 2.0, 3.0, 1, "j"],
    ]
    m = tracer.layer_metrics(0, 10.0)
    assert m["channels.choi.self_s"] == 6.0
    assert m["covariance.residual.self_s"] == 3.0
    assert m["channels.completeness.self_s"] == 1.0
