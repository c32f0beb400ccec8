"""Command-line front end: orchestration, seeding, and report emission.

Exit codes: 0 success or compatible finding, 1 input error, 2 an
incompatibility finding, 3 a finding that would falsify this
implementation (a single-operator counterexample, or a mixed set that
fails compatibility). Diagnostic verbosity goes to stderr only and is
controlled by COVCHAN_LOG (off, info, debug). Reports are deterministic:
same inputs, flags, and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from . import _CLI_JOB, __version__
from .channels import CHANNEL_EQUALITY_TOL
from .covariance import Verdict, _mixed_solution_trials, analyze
from .serialization import (
    InputError,
    dump_report,
    load_json,
    parse_frame,
    parse_kraus_set,
    parse_matrix,
    parse_scenario_config,
    run_report,
)

__all__ = [
    "NONTRIVIAL_MIXING_FLOOR",
    "freedom_sweep",
    "main",
]

# A mixing unitary closer than this to phase-times-permutation counts as a
# trivial relabeling in sweep classification.
NONTRIVIAL_MIXING_FLOOR = 1e-3


# run_scenario and n1_covariance_search load their modules, which only their
# commands need, on first use. Their handlers call them as attributes of this
# module, so a function bound over either one here is the one they run.
def __getattr__(name):
    if name == "run_scenario":
        from .scenario import run_scenario as fn
    elif name == "n1_covariance_search":
        from .rigidity import n1_covariance_search as fn
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = fn
    return fn


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # exit-code contract (2 = incompatibility); surface usage problems as
    # input errors instead.
    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _log(level: str, message: str, *args) -> None:
    """Write ``LEVEL covchan: message % args`` to stderr if COVCHAN_LOG shows ``level``.

    COVCHAN_LOG is read at each call: ``info`` shows info lines, ``debug``
    both levels, any other value none.
    """
    value = os.environ.get("COVCHAN_LOG", "off").strip().lower()
    if value == "debug" or value == level == "info":
        print(f"{level.upper()} covchan: {message % args}", file=sys.stderr)


def freedom_sweep(dim: int, rank: int, trials: int, seed: int, tol: float):
    """Randomized sweep over the mixed solution family at fixed (dim, rank).

    Each trial draws a channel, a frame, and a Haar mixing unitary, builds
    the mixed frame-S' set, and records the compatibility residual and the
    covariant distance (phase-aligned for rank 1, where the family is pure
    phases). Returns ``(payload, falsified)``; ``min_nontrivial_distance``
    is infinite, null in the report, when no mixing was nontrivial. A
    trial falsifies the implementation when the mixed set fails
    compatibility, or, at rank 1, when a compatible candidate sits far
    from the covariant solution. Each trial's ``mixing_distance`` is
    :func:`phase_permutation_distance`, which solves any rank.

    The trials are drawn and scored by ``covariance._mixed_solution_trials``,
    which owns their seeded streams and their block budget; each row is
    bitwise the one that composing the public functions for that trial
    gives. This function validates its arguments before anything is drawn,
    then classifies, logs and summarizes the rows.
    """
    if dim < 1 or rank < 1 or trials < 1:
        raise InputError("dim, rank, and trials must all be >= 1")
    if seed < 0:
        raise InputError("seed must be >= 0")
    per_trial = []
    rows = _mixed_solution_trials(dim, rank, trials, seed)
    for i, (residual, distance, mixing_distance) in enumerate(rows):
        nontrivial = mixing_distance > NONTRIVIAL_MIXING_FLOOR
        trial_degenerate = nontrivial and distance <= NONTRIVIAL_MIXING_FLOOR
        if trial_degenerate:
            _log(
                "info",
                "trial %d: nontrivial mixing collapsed to distance %.3e",
                i,
                distance,
            )
        _log(
            "debug",
            "trial %d: residual %.3e distance %.3e mixing %.3e",
            i,
            residual,
            distance,
            mixing_distance,
        )
        per_trial.append(
            {
                "trial": i,
                "residual": residual,
                "covariant_distance": distance,
                "mixing_distance": mixing_distance,
                "nontrivial_mixing": nontrivial,
                "degenerate": trial_degenerate,
            }
        )

    # left folds from 0.0 and inf, as running ones: a NaN row is skipped
    max_residual = max([0.0, *(t["residual"] for t in per_trial)])
    noncovariant_compatible = sum(
        t["residual"] <= tol and t["covariant_distance"] > NONTRIVIAL_MIXING_FLOOR
        for t in per_trial
    )
    distances = [t["covariant_distance"] for t in per_trial if t["nontrivial_mixing"]]
    payload = {
        "dim": dim,
        "rank": rank,
        "per_trial": per_trial,
        "summary": {
            "max_residual": max_residual,
            "min_nontrivial_distance": min([math.inf, *distances]),
            "noncovariant_compatible": noncovariant_compatible,
            "nontrivial_mixings": len(distances),
            "degenerate": sum(t["degenerate"] for t in per_trial),
        },
    }
    falsified = max_residual > tol or (rank == 1 and noncovariant_compatible > 0)
    return payload, falsified


# Each cmd_* returns its results, its tolerance and its exit code; main
# writes them as the report.


def cmd_analyze(args):
    k = parse_kraus_set(load_json(args.kraus_file), args.kraus_file, args.tol)
    lprime = parse_kraus_set(load_json(args.lprime_file), args.lprime_file, args.tol)
    frame = parse_frame(load_json(args.lambda_file), args.lambda_file, args.tol)
    rep = analyze(k, lprime, frame, args.tol)
    _log(
        "info",
        "analyze: residual %.3e distance %.3e verdict %s",
        rep.residual,
        rep.covariant_distance,
        rep.verdict.value,
    )
    return rep, args.tol, 2 if rep.verdict is Verdict.INCOMPATIBLE else 0


def cmd_freedom_sweep(args):
    payload, falsified = freedom_sweep(
        args.dim, args.rank, args.trials, args.seed, args.tol
    )
    return payload, args.tol, 3 if falsified else 0


def cmd_n1_search(args):
    k1 = parse_matrix(load_json(args.k1_file), args.k1_file)
    frame = parse_frame(load_json(args.lambda_file), args.lambda_file, args.tol)
    search = sys.modules[__name__].n1_covariance_search
    rep = search(k1, frame, args.trials, args.seed, tol=args.tol)
    _log(
        "info",
        "n1-search: examined %d candidates, min constrained residual %s, %d violations",
        rep.examined,
        "none" if math.isinf(rep.min_residual) else f"{rep.min_residual:.3e}",
        rep.violation_count,
    )
    return rep, args.tol, 3 if rep.violation_count else 0


def cmd_scenario(args):
    cfg = parse_scenario_config(load_json(args.config_file), args.config_file)
    result = sys.modules[__name__].run_scenario(cfg)
    _log(
        "info",
        "scenario: covariance defect %.3e verdict %s",
        result.covariance_defect,
        result.verdict.value,
    )
    return result, cfg.tol, 2 if result.verdict is Verdict.INCOMPATIBLE else 0


def _add_common(parser, *, trials: bool) -> None:
    parser.add_argument(
        "--tol", type=float, default=CHANNEL_EQUALITY_TOL,
        help="comparison tolerance (default 1e-9)",
    )
    if trials:
        parser.add_argument(
            "--trials", type=int, default=100, help="number of random trials"
        )
        parser.add_argument(
            "--seed", type=int, default=0, help="seed for all randomness"
        )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="report destination (default stdout)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="covchan",
        description="Frame-covariance analysis of Kraus channel representations.",
    )
    parser.add_argument(
        "--version", action="version", version=f"covchan {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser(
        "analyze",
        help="classify a frame-S set against a frame-S' set and a frame unitary",
    )
    p.add_argument("kraus_file", help="frame-S Kraus set (JSON)")
    p.add_argument("lprime_file", help="frame-S' Kraus set (JSON)")
    p.add_argument("lambda_file", help="frame unitary (JSON matrix)")
    _add_common(p, trials=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "freedom-sweep",
        help="randomized sweep of the mixed solution family at fixed dim and rank",
    )
    p.add_argument("--dim", type=int, default=2, help="Hilbert space dimension")
    p.add_argument("--rank", type=int, default=2, help="number of Kraus operators")
    _add_common(p, trials=True)
    p.set_defaults(func=cmd_freedom_sweep)

    p = sub.add_parser(
        "n1-search",
        help="hunt for a single-operator counterexample to covariance rigidity",
    )
    p.add_argument("k1_file", help="frame-S operator (JSON matrix, unitary)")
    p.add_argument("lambda_file", help="frame unitary (JSON matrix)")
    _add_common(p, trials=True)
    p.set_defaults(func=cmd_n1_search)

    p = sub.add_parser(
        "scenario", help="run a two-frame interventions scenario from a config file"
    )
    p.add_argument("config_file", help="scenario config (JSON)")
    p.add_argument(
        "--out", default=None, metavar="FILE",
        help="report destination (default stdout)",
    )
    p.set_defaults(func=cmd_scenario)

    return parser


def _validate_flags(args) -> None:
    tol = getattr(args, "tol", None)
    if tol is not None and (tol <= 0 or not math.isfinite(tol)):
        raise InputError("--tol must be a positive finite number")
    trials = getattr(args, "trials", None)
    if trials is not None and trials < 1:
        raise InputError("--trials must be >= 1")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise InputError("--seed must be >= 0")


def main(argv=None) -> int:
    if _CLI_JOB:  # see covchan/__init__.py: the import heap is never walked again
        gc.freeze()
        gc.enable()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate_flags(args)
        results, tol, code = args.func(args)
        seed, trials = getattr(args, "seed", 0), getattr(args, "trials", 0)
        report = run_report(args.command, seed, tol, trials, results, __version__)
        dump_report(report, args.out)
        return code
    except (InputError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        # sizes the machine cannot hold are an input error too
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1
