"""
Kraus channels on density matrices
==================================

Builds a bit-flip channel, applies it to a few states, and shows why the
Choi matrix decides channel equality while the operator list does not.
"""

import numpy as np

from covchan import (
    DensityMatrix,
    KrausSet,
    apply_channel,
    channels_equal,
    choi_matrix,
    completeness_defect,
)

I = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# A bit flip with probability p = 0.25: two Kraus operators whose squared
# weights sum to one, so the set is trace preserving.
p = 0.25
bit_flip = KrausSet((np.sqrt(1 - p) * I, np.sqrt(p) * X))
print(f"completeness defect: {completeness_defect(bit_flip):.3e}")

excited = DensityMatrix(np.diag([1.0, 0.0]))
out = apply_channel(bit_flip, excited)
print(f"diag(1,0) under bit flip -> diag({out.mat[0, 0].real:.2f}, {out.mat[1, 1].real:.2f})")

mixed = DensityMatrix(0.5 * I)
out = apply_channel(bit_flip, mixed)
print(f"maximally mixed state is a fixed point: {np.allclose(out.mat, mixed.mat)}")

# Phase damping has two familiar representations. The operator lists look
# nothing alike, but they define the same map on every input.
s = 1.0 / np.sqrt(2.0)
unitary_rep = KrausSet((s * I, s * Z))
projector_rep = KrausSet((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))

print(f"same operator lists?   {np.allclose(unitary_rep.ops[0], projector_rep.ops[0])}")
print(f"same channel (Choi)?   {channels_equal(unitary_rep, projector_rep)}")

c1 = choi_matrix(unitary_rep)
c2 = choi_matrix(projector_rep)
print(f"Choi distance: {np.linalg.norm(c1 - c2):.3e}")
