"""Frame-covariance analysis of Kraus channel representations.

Apply operator-sum channels to density matrices, move descriptions between
unitarily related frames, decide whether two frame accounts describe the
same physical map, enumerate the mixing family of equivalent Kraus sets,
and test the single-operator rigidity that pins the frame-transformed
operator down to a global phase.

The package exports every name in the ``__all__`` of ``channels``,
``covariance``, ``linalg`` and ``scenario``, and ``__version__``.
"""

from . import channels, covariance, linalg, scenario
from .channels import *  # noqa: F403
from .covariance import *  # noqa: F403
from .linalg import *  # noqa: F403
from .scenario import *  # noqa: F403

__version__ = "0.3.0"

__all__ = [
    *channels.__all__,
    *covariance.__all__,
    *linalg.__all__,
    *scenario.__all__,
    "__version__",
]
