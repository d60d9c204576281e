"""
A measurement grows a world tree
================================

Coupling an object in superposition to a ready device defactorizes the
joint state; the tree then holds one branch per outcome, weighted by the
squared amplitudes, and the entropy ledger splits the total exactly into
per-branch contributions.
"""

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
          f"entropy contribution {node.relative_entropy:.4f} nats")

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
