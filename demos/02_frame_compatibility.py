#!/usr/bin/env python3
"""Decide whether two frames' Kraus sets describe the same physical evolution.

A channel given in frame S and a candidate set given in frame S' are
compatible when the S' set gives the same channel as the covariant
solution, the S set with every operator conjugated by the frame unitary.
That solution itself always works; an unrelated set almost never does.
"""

import numpy as np

from covchan import (
    FrameTransform,
    analyze,
    compatibility_residual,
    conjugate_kraus,
    random_kraus_set,
    random_unitary,
)

d = 3
k = random_kraus_set(d, rank=2, seed=10)
lam = FrameTransform(random_unitary(d, 11))

# the covariant solution: conjugate each operator by the frame unitary
covariant = conjugate_kraus(k, lam)
print(f"covariant candidate residual:  {compatibility_residual(k, covariant, lam):.3e}")

# an unrelated channel of the same shape fails loudly
unrelated = random_kraus_set(d, rank=2, seed=12)
print(f"unrelated candidate residual:  {compatibility_residual(k, unrelated, lam):.3e}")

report = analyze(k, covariant, lam)
print(f"covariant verdict: {report.verdict.name} (distance {report.covariant_distance:.3e})")

report = analyze(k, unrelated, lam)
print(f"unrelated verdict: {report.verdict.name} (residual {report.residual:.3e})")
