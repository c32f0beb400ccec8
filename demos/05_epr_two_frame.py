"""
An EPR pair measured in two Lorentz frames
==========================================

Runs a Bell state through a local Z measurement on side A and compares the
bookkeeping of two frames related by a product unitary. Outcome statistics
agree to machine precision. Swapping in a mixed (non-covariant) operator
set for the second frame changes the branch states on paper, and here not
this measurement's statistics, because A's half of a Bell pair is
maximally mixed. That does not hold in general: only the non-selective
channel is the same for every mixing. A mixing that is not diagonal
phases changes the selective branches, and a later measurement or another
state can expose it: the last run mixes Z on A by a Hadamard and then
measures Z on B, and the joint statistics of the two frames differ.
"""

import numpy as np

from covchan import (
    DensityMatrix,
    FrameTransform,
    Intervention,
    KrausSet,
    MixingUnitary,
    ScenarioConfig,
    Target,
    random_unitary,
    run_scenario,
)

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)

bell = DensityMatrix.from_state_vector([1, 0, 0, 1])
frame = FrameTransform(np.kron(HAD, random_unitary(2, 51)))
z_meas = KrausSet((P0, P1))

cfg = ScenarioConfig(
    initial_state=bell,
    dim_a=2,
    dim_b=2,
    frame=frame,
    interventions=(Intervention("z on A", z_meas, Target.SUBSYSTEM_A),),
)
result = run_scenario(cfg)

rec = result.interventions[0]
print("branch probabilities, frame S: ", [f"{p:.3f}" for p in rec.probabilities_s])
print("branch probabilities, frame S':", [f"{p:.3f}" for p in rec.probabilities_sprime])
print(f"covariance defect: {result.covariance_defect:.3e}  ->  {result.verdict.name}")

# the leaves are one table: row i is outcome sequence i, frames S and S'
branches = result.branches
for seq, (p_s, _) in zip(branches.sequences, branches.probabilities.tolist()):
    print(f"  outcome {seq}: p = {p_s:.3f}")

# Give frame S' a mixed representation of the same measurement channel.
# The operators now differ from the conjugated ones, yet every probability
# and both frames' final states are unchanged.
v = MixingUnitary(random_unitary(2, 52))
cfg = ScenarioConfig(
    initial_state=bell,
    dim_a=2,
    dim_b=2,
    frame=frame,
    interventions=(Intervention("z on A", z_meas, Target.SUBSYSTEM_A, mixing=v),),
)
mixed = run_scenario(cfg)

rec = mixed.interventions[0]
print("\nafter mixing the S' representation:")
print("branch probabilities, frame S':", [f"{p:.3f}" for p in rec.probabilities_sprime])
print(f"probability defect:      {mixed.probability_defect:.3e}")
print(f"representation distance: {mixed.representation_distance:.3f}")
print(f"verdict: {mixed.verdict.name}")

# A mixing that is not diagonal phases shows in later statistics. Mix the
# Z measurement on A by a Hadamard: its branch operators become I/sqrt(2)
# and Z/sqrt(2), the same non-selective channel, but A's outcome no longer
# predicts B's. A Z measurement on B then tells the two frames apart.
cfg = ScenarioConfig(
    initial_state=bell,
    dim_a=2,
    dim_b=2,
    frame=frame,
    interventions=(
        Intervention("z on A", z_meas, Target.SUBSYSTEM_A, mixing=MixingUnitary(HAD)),
        Intervention("z on B", z_meas, Target.SUBSYSTEM_B),
    ),
)
exposed = run_scenario(cfg)

print("\nmixing z on A by H, then z on B: joint outcome probabilities")
for name, frame in (("S ", 0), ("S'", 1)):
    probs = exposed.branches.probabilities[:, frame].tolist()
    table = dict(zip(exposed.branches.sequences, probs))
    print(f"  frame {name}   B=0    B=1")
    for a in (0, 1):
        print(f"    A={a}   " + "  ".join(f"{table[(a, b)]:.3f}" for b in (0, 1)))
print(f"probability defect: {exposed.probability_defect:.3f}")
print(f"verdict: {exposed.verdict.name}")
