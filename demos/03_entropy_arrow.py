"""
The arrow of time, one device at a time
=======================================

Chain a re-prepared superposition through five fresh measuring devices.
The total entropy of the leaf ensemble can only grow, while every newborn
branch restarts its own entropy clock at zero: from inside a branch the
world always looks freshly low-entropy.
"""

from manyworlds import build_chain_tree, rescaled_entropy_trace


def moment(step):
    """Step k of a chain is the measurement by device k; step 0 is the preparation."""
    return f"device {step}" if step else "preparation"


tree = build_chain_tree(object_dim=2, n_devices=5, amplitudes=[1, 1])

print("total entropy after every measurement, one ledger record per device:")
for record in tree.ledger:
    bar = "#" * round(40 * record.total_entropy / 1.4)
    print(f"  after {moment(record.step):11s}  S = {record.total_entropy:.6f}  {bar}")

print("\nper-branch entropy clocks (step, entropy since birth):")
for nid in sorted(tree.nodes):
    node = tree.node(nid)
    trace = rescaled_entropy_trace(tree, nid)
    path = ", ".join(f"({s}, {v:.4f})" for s, v in trace)
    print(f"  branch {nid} (born at {moment(node.birth_step)}, weight {node.weight:.3f}): {path}")

print("\nEvery trace starts at exactly zero; the ledger total never decreases.")
