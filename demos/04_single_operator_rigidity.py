#!/usr/bin/env python3
"""Rank-1 channels admit no freedom beyond a global phase.

A single trace-preserving Kraus operator is unitary, and two unitaries
define the same channel only when they agree up to e^{i theta}. So for
N = 1 the frame-S' operator is pinned to the conjugated one; a numerical
search for a compatible-but-different operator comes back empty.
"""

import numpy as np

from covchan import (
    FrameTransform,
    n1_covariance_search,
    n1_uniqueness_check,
    random_unitary,
)

d = 2
k1 = random_unitary(d, 31)

# same channel: a pure phase
result = n1_uniqueness_check(k1, np.exp(0.7j) * k1)
print(f"phase pair:       {result.verdict.name} (phase {result.phase:.4f})")

# different channel: an independent unitary, certified by a witness state
other = random_unitary(d, 32)
result = n1_uniqueness_check(k1, other)
print(f"independent pair: {result.verdict.name}")
print(f"  witness image distance: {result.witness_distance:.4f}")

# hunt for a counterexample: random candidates kept away from the
# covariant solution, plus the closed-form candidate just past that
# distance floor, where the residual is smallest
lam = FrameTransform(random_unitary(d, 33))
report = n1_covariance_search(k1, lam, trials=500, seed=34)
print(f"search examined {report.examined} candidates, "
      f"violations: {report.violation_count}")
print(f"  best residual found:  {report.min_residual:.3e}")
print(f"  theoretical floor:    {report.residual_floor:.3e}")
