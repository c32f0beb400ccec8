"""Frame-covariance analysis of Kraus channel representations.

Apply operator-sum channels to density matrices, move descriptions between
unitarily related frames, decide whether two frame accounts describe the
same physical map, enumerate the mixing family of equivalent Kraus sets,
and test the single-operator rigidity that pins the frame-transformed
operator down to a global phase.

The package exports every name in the ``__all__`` of ``channels``,
``covariance``, ``linalg``, ``rigidity`` and ``scenario``, and
``__version__``. ``rigidity`` and ``scenario`` each serve one command, so
they load on first access to one of their names, which is then bound here.
"""

import gc
import importlib
import os
import sys

# A CLI job runs small kernels, where an idle BLAS pool only burns CPU: it
# runs BLAS on one thread unless the user chose a count. Its import heap lives
# until exit: the collector stays off until ``cli.main`` freezes that heap, so
# neither the job nor shutdown walks it again. The ``covchan`` script is its
# own argv[0]; ``sys.argv[0]`` is "-m" while ``python -m`` imports any package,
# so the command line must name covchan. Other importers keep both defaults.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_entry = os.path.splitext(os.path.basename((sys.argv or [""])[0]))[0]
_args = sys.orig_argv
_module = "-mcovchan" in _args or ("-m", "covchan") in zip(_args, _args[1:])
_CLI_JOB = (_entry == "covchan" or _entry == "-m" and _module) and "numpy" not in sys.modules
if _CLI_JOB:
    gc.disable()
    if not any(name in os.environ for name in _THREAD_VARS):
        os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))

from . import channels, covariance, linalg
from .channels import *  # noqa: F403
from .covariance import *  # noqa: F403
from .linalg import *  # noqa: F403

__version__ = "0.4.0"

_LAZY = dict.fromkeys(
    ("N1CheckResult", "N1SearchReport", "N1Violation", "PhaseEquivalence",
     "n1_covariance_search", "n1_uniqueness_check"),
    "rigidity",
) | dict.fromkeys(
    ("NULL_BRANCH_PROB", "Intervention", "InterventionRecord", "ScenarioConfig",
     "ScenarioResult", "Target", "embed_local", "run_scenario"),
    "scenario",
)

__all__ = [
    *channels.__all__, *covariance.__all__, *linalg.__all__, *_LAZY, "__version__"
]


def __getattr__(name):
    """``rigidity``, ``scenario`` or one of their names, loaded on first access.

    A name is bound here once found, so each is looked up only once.
    """
    if name in ("rigidity", "scenario"):
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(__getattr__(_LAZY[name]), name)
    return value
