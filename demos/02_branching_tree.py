"""
A measurement grows a world tree
================================

Coupling an object in superposition to a ready device defactorizes the
joint state; the tree then holds one branch per outcome, weighted by the
squared amplitudes, and the entropy ledger splits the total exactly into
per-branch contributions. An outcome of weight 1e-12 branches like any
other: improbable worlds still exist.
"""

import math

import numpy as np

from manyworlds import (
    BipartiteSplit,
    BranchTree,
    basis_state,
    interact_and_branch,
    make_state,
    premeasurement_unitary,
    tensor,
    total_entropy,
)

# Object with outcome probabilities 0.5 / 0.3 / 0.2, device ready in |0>.
obj = make_state(np.sqrt([0.5, 0.3, 0.2]), [3])
tree = BranchTree(tensor(obj, basis_state(0, 3)))

coupling = premeasurement_unitary(n_outcomes=3, device_dim=3)
children = interact_and_branch(tree, tree.root_id, coupling, BipartiteSplit(3, 3))

print("branches created:", len(children))
for cid in children:
    node = tree.node(cid)
    print(f"  branch {cid}: weight {node.weight:.3f}   "
          f"entropy contribution -w ln w = {-node.weight * math.log(node.weight):.4f} nats")

print(f"\ntotal entropy: {total_entropy(tree):.6f} nats")
print("ledger so far:")
for record in tree.ledger:
    parts = " + ".join(f"{s:.4f}" for s in record.branch_entropies)
    print(f"  step {record.step}: S = {record.total_entropy:.6f} = {parts}")

# A definite outcome never branches: the device just copies it.
definite = BranchTree(tensor(basis_state(1, 3), basis_state(0, 3)))
made = interact_and_branch(definite, definite.root_id, coupling, BipartiteSplit(3, 3))
print("\ndefinite input made", len(made), "new branches; total entropy",
      total_entropy(definite))

# An improbable world still exists. Amplitudes in the ratio 1 : 1e-6 give a
# branch of weight 1e-12, born like any other and counted in the ledger.
rare = BranchTree(tensor(make_state([1, 1e-6], [2]), basis_state(0, 2)))
born = interact_and_branch(rare, rare.root_id, premeasurement_unitary(2, 2),
                           BipartiteSplit(2, 2))
print("\nimprobable outcome made", len(born), "branches, weights",
      ", ".join(f"{rare.node(cid).weight:.6g}" for cid in born))
record = rare.ledger[-1]
parts = " + ".join(f"{s:.4e}" for s in record.branch_entropies)
print(f"  step {record.step}: S = {record.total_entropy:.4e} = {parts}")
