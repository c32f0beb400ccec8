"""Correctness checks on covchan CLI reports, known by construction.

Imports nothing beyond the standard library. Run as a script to hash and
check a batch of reports in a process of its own, which keeps large
reports out of the runner's memory:

    python bench/checks.py MANIFEST BATCH

``BATCH`` is a JSON list of ``{"job": index, "report": path, "exit": code,
"check": bool}``. The script prints one JSON list with each report's
``sha256`` and, where ``check`` is set, its list of ``problems``.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

# Branch probabilities summed over thousands of leaves stay far inside this.
PROBABILITY_SUM_TOL = 1e-8


def _analyze(res, expect) -> list:
    problems = []
    if res["verdict"] != expect["verdict"]:
        problems.append(f"verdict {res['verdict']}, expected {expect['verdict']}")
    if (res["dim"], res["rank"]) != (expect["dim"], expect["rank"]):
        problems.append(f"dim/rank {res['dim']}/{res['rank']} do not match the deck")
    compatible = expect["verdict"] != "INCOMPATIBLE"
    residual = res["residual"]
    if residual is None or (residual <= res["tol"]) != compatible:
        problems.append(f"residual {residual} on the wrong side of tol {res['tol']}")
    return problems


def _n1_search(res, expect) -> list:
    problems = []
    if res["violation_count"] != 0 or res["violations"]:
        problems.append(f"{res['violation_count']} rank-1 rigidity violations")
    if (res["dim"], res["trials"]) != (expect["dim"], expect["trials"]):
        problems.append("dim/trials do not match the deck")
    if res["examined"] < expect["trials"]:
        problems.append(f"examined {res['examined']} < trials {expect['trials']}")
    return problems


def _freedom_sweep(res, expect) -> list:
    problems = []
    if (res["dim"], res["rank"]) != (expect["dim"], expect["rank"]):
        problems.append("dim/rank do not match the deck")
    if len(res["per_trial"]) != expect["trials"]:
        problems.append(f"{len(res['per_trial'])} trials, expected {expect['trials']}")
    summary = res["summary"]
    if summary["noncovariant_compatible"] != expect["noncovariant_compatible"]:
        problems.append(
            f"noncovariant_compatible {summary['noncovariant_compatible']}, "
            f"expected {expect['noncovariant_compatible']}"
        )
    return problems


def _scenario(res, expect) -> list:
    problems = []
    if res["verdict"] != expect["verdict"]:
        problems.append(f"verdict {res['verdict']}, expected {expect['verdict']}")
    branches = res["branches"]
    if len(branches) != expect["leaves"]:
        problems.append(f"{len(branches)} leaves, expected {expect['leaves']}")
    for key in ("probability_s", "probability_sprime"):
        total = math.fsum(br[key] for br in branches)
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            problems.append(f"{key} sums to {total!r}, not 1")
    return problems


_BY_COMMAND = {
    "analyze": _analyze,
    "n1-search": _n1_search,
    "freedom-sweep": _freedom_sweep,
    "scenario": _scenario,
}


def check_report(job: dict, exit_code: int, data: bytes) -> list:
    """Problems with one job's exit code and stdout report; empty when correct."""
    expect = job["expect"]
    problems = []
    if exit_code != expect["exit"]:
        problems.append(f"exit code {exit_code}, expected {expect['exit']}")
    try:
        report = json.loads(data)
    except ValueError:
        return problems + ["stdout is not a JSON report"]
    command = job["argv"][0]
    if not isinstance(report, dict) or report.get("command") != command:
        return problems + [f"report is not a {command} report"]
    try:
        problems += _BY_COMMAND[command](report["results"], expect)
    except (KeyError, TypeError) as e:
        problems.append(f"report lacks a field the checks need: {e!r}")
    return problems


def main(argv) -> int:
    manifest_path, batch_path = argv
    with open(manifest_path, encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    with open(batch_path, encoding="utf-8") as fh:
        batch = json.load(fh)
    out = []
    for entry in batch:
        with open(entry["report"], "rb") as fh:
            data = fh.read()
        problems = None
        if entry["check"]:
            problems = check_report(jobs[entry["job"]], entry["exit"], data)
        out.append({"sha256": hashlib.sha256(data).hexdigest(), "problems": problems})
        del data
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
