"""Objective branching dynamics with an explicit world tree and entropy ledger.

A branch tree starts from a single root world. Interacting a leaf with a
unitary either leaves it a single world (the post-interaction state still
factorizes) or splits it into one child per retained Schmidt coefficient.
Each child is born in the factorized pair state with its weight rescaled to
one, so its own entropy clock restarts at zero; the ledger tracks the total
entropy of the leaf ensemble and its per-branch decomposition at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .contracts import DIM_CAP, CapacityError, ShapeError
from .hilbert import (
    BipartiteSplit,
    StateVector,
    UnitaryOperator,
    _fresh_states,
    apply_unitary,
    basis_state,
    haar_random_state,
    make_state,
    tensor,
)
from .schmidt import entanglement_entropy, schmidt_decompose

MAX_LEAVES = 4096          # most leaves one tree may hold
CHAIN_DEVICES_CAP = 1024   # most devices of one chain; at dim 1 no dimension cap bounds it

_UNIT_FACTOR = np.ones((1, 1), dtype=np.complex128)  # the trivial factor of a pure gather
_UNIT_FACTOR.flags.writeable = False                  # so every operator can share it


class PointerOverflowError(ValueError):
    """The measuring device has too few pointer states for the outcomes."""


class LedgerRecord(NamedTuple):
    """One ledger step: the total entropy and its per-leaf decomposition.

    ``branch_entropies`` holds one term per current leaf, computed from the
    leaf's cumulative weight, so the total is their sum at every record.
    """

    step: int
    total_entropy: float
    branch_entropies: tuple[float, ...]


@dataclass
class BranchNode:
    """One world line: weight, factorized post-branching state, entropies.

    ``history`` holds (step, entropy accumulated within the branch since its
    birth) per interaction, opening with (birth_step, 0.0).
    """

    id: int
    parent_id: Optional[int]
    weight: float              # relative to the parent at branching time
    cumulative_weight: float   # product of weights from the root
    state: StateVector
    relative_entropy: float    # -weight * ln(weight)
    birth_step: int
    children: list[int] = field(default_factory=list)
    history: list[tuple[int, float]] = field(default_factory=list)


def _weight_entropy(w: float) -> float:
    # + 0.0 turns -0.0 into 0.0 at w == 1
    return -w * math.log(w) + 0.0


class BranchTree:
    """Mutable world tree; single-writer, mutated only through module functions."""

    def __init__(self, root_state: StateVector):
        self.step_counter = 0
        self.root_id = 0
        root = BranchNode(
            id=0,
            parent_id=None,
            weight=1.0,
            cumulative_weight=1.0,
            state=root_state,
            relative_entropy=0.0,
            birth_step=0,
            history=[(0, 0.0)],
        )
        self.nodes: dict[int, BranchNode] = {0: root}  # ids are dense; no node is removed
        self.ledger: list[LedgerRecord] = []
        self._record_ledger()

    def node(self, node_id: int) -> BranchNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown branch id {node_id}") from None

    def leaf_ids(self) -> list[int]:
        return [nid for nid, node in self.nodes.items() if not node.children]

    def attach_ancilla(self, leaf_id: int, ancilla: StateVector) -> None:
        """Extend a leaf's state with a fresh factorized register.

        Pure bookkeeping: weights and entropies are untouched and the step
        counter does not advance.
        """
        node = self.node(leaf_id)
        if node.children:
            raise ShapeError(f"branch {leaf_id} is not a leaf")
        node.state = tensor(node.state, ancilla)

    def _record_ledger(self) -> None:
        entropies = tuple(
            _weight_entropy(self.nodes[nid].cumulative_weight) for nid in self.leaf_ids()
        )
        self.ledger.append(LedgerRecord(self.step_counter, math.fsum(entropies), entropies))


def total_entropy(tree: BranchTree) -> float:
    """Entropy -sum w ln w of the current leaf weights, in nats: the latest ledger total."""
    return tree.ledger[-1].total_entropy


def premeasurement_unitary(n_outcomes: int, device_dim: int) -> UnitaryOperator:
    """Generalized-CNOT coupling of an object register to a device register.

    Maps |i>|0> to |i>|i> for every outcome i by cyclically shifting the
    device index by the object index; the object register is never altered.
    For n_outcomes = device_dim = 2 this is the standard CNOT.
    """
    return _conditional_shift(n_outcomes, 1, device_dim)


def _conditional_shift(n_outcomes: int, middle_dim: int, device_dim: int) -> UnitaryOperator:
    """Device-shift gather with an untouched register between object and device."""
    if n_outcomes < 1 or device_dim < 1 or middle_dim < 1:
        raise ShapeError("register dimensions must be >= 1")
    if device_dim < n_outcomes:
        raise PointerOverflowError(
            f"pointer overflow: device of dim {device_dim} cannot distinguish "
            f"{n_outcomes} outcomes"
        )
    total = n_outcomes * middle_dim * device_dim
    if total > DIM_CAP:
        raise CapacityError(f"operator dimension {total} exceeds the cap {DIM_CAP}")
    idx = np.arange(total)
    obj = idx // (middle_dim * device_dim)
    dev = idx % device_dim
    # (U a)[(o, m, d)] = a[(o, m, (d - o) mod device_dim)]
    perm = idx - dev + (dev - obj) % device_dim
    perm.flags.writeable = False  # made here, so UnitaryOperator keeps it rather than a copy
    return UnitaryOperator(_UNIT_FACTOR, total, perm=perm)


def interact_and_branch(
    tree: BranchTree,
    leaf_id: int,
    u: UnitaryOperator,
    split: BipartiteSplit,
) -> list[int]:
    """Apply a unitary to a leaf and split it along the Schmidt basis.

    Returns the new leaf ids, or an empty list when the post-interaction
    state still factorizes (the leaf is then updated in place). Every call
    advances the step counter and appends a ledger record.
    """
    node = tree.node(leaf_id)
    if node.children:
        raise ShapeError(f"branch {leaf_id} is not a leaf")
    new_state = apply_unitary(u, node.state)
    dec = schmidt_decompose(new_state, split)
    step = tree.step_counter + 1
    children: list[BranchNode] = []
    if dec.rank > 1:
        n_leaves_after = len(tree.leaf_ids()) - 1 + dec.rank
        if n_leaves_after > MAX_LEAVES:
            raise CapacityError(
                f"branching to {n_leaves_after} leaves exceeds the cap {MAX_LEAVES}"
            )
        # Row n is left_n (x) right_n. The split factors the validated new_state
        # and the decomposition checked both vector shapes, so only the norms
        # are left to check; the children share this one read-only array.
        left, right = dec.left_vectors.T, dec.right_vectors.T
        pairs = np.multiply(left[:, :, None], right[:, None, :], order="C")
        child_dims = (int(split.d_left), int(split.d_right))
        child_states = _fresh_states(pairs.reshape(dec.rank, -1), child_dims)
        first_id = len(tree.nodes)
        children = [
            BranchNode(
                id=first_id + n,
                parent_id=leaf_id,
                weight=weight,
                cumulative_weight=node.cumulative_weight * weight,
                state=child_state,
                relative_entropy=_weight_entropy(weight),
                birth_step=step,
                history=[(step, 0.0)],
            )
            for n, (weight, child_state) in enumerate(zip(dec.lambdas.tolist(), child_states))
        ]

    node.history.append((step, entanglement_entropy(dec)))
    node.state = new_state
    node.children = [child.id for child in children]
    tree.nodes.update((child.id, child) for child in children)
    tree.step_counter = step
    tree._record_ledger()
    return node.children


def rescaled_entropy_trace(tree: BranchTree, node_id: int) -> list[tuple[int, float]]:
    """Entropy accumulated within one branch since its birth, step by step.

    A copy of the node's (step, entropy) history: it starts at exactly zero
    at the branch's birth step, and each later entry carries the entropy
    computed across the split of the interaction that produced it.
    """
    return list(tree.node(node_id).history)


def _preparation_unitary(amplitudes: np.ndarray) -> np.ndarray:
    """Unitary whose first column is the given unit vector (deterministic QR)."""
    dim = amplitudes.size
    m = np.eye(dim, dtype=np.complex128)
    m[:, 0] = amplitudes
    q, _ = np.linalg.qr(m)
    phase = np.vdot(q[:, 0], amplitudes)
    q[:, 0] = q[:, 0] * phase
    return q


def _object_outcome(state: StateVector, object_dim: int) -> int:
    """Index of the (essentially definite) object register of a branch state."""
    marginal = np.abs(state.amplitudes.reshape(object_dim, -1)) ** 2
    return int(np.argmax(marginal.sum(axis=1)))


def build_chain_tree(
    object_dim: int,
    n_devices: int,
    amplitudes=None,
    seed: int = 0,
) -> BranchTree:
    """Couple an object to a chain of fresh devices, branching at each step.

    Each device starts in its ready state |0> and is coupled through the
    conditional-shift premeasurement. After every branching the followed
    branch (the first child, which has the highest weight) has its object
    register rotated back to the initial superposition by a deterministic
    re-preparation unitary, itself applied as a further rank-preserving
    interaction. When ``amplitudes`` is omitted the object state is drawn
    uniformly from the seed.
    """
    if object_dim < 1:
        raise ShapeError(f"object dimension must be >= 1, got {object_dim}")
    if n_devices < 1:
        raise ShapeError(f"need at least one device, got {n_devices}")
    if n_devices > CHAIN_DEVICES_CAP:
        raise CapacityError(f"{n_devices} devices exceed the cap {CHAIN_DEVICES_CAP}")
    # object_dim is checked first, so the power stays below DIM_CAP ** (CHAIN_DEVICES_CAP + 1)
    if object_dim > DIM_CAP or object_dim ** (n_devices + 1) > DIM_CAP:
        raise CapacityError(
            f"chain of {n_devices} devices on a {object_dim}-dimensional object "
            f"exceeds the dimension cap {DIM_CAP}"
        )

    if amplitudes is None:
        obj = haar_random_state(object_dim, seed)
    else:
        obj = make_state(amplitudes, (object_dim,))
    prep = _preparation_unitary(obj.amplitudes)
    ready = basis_state(0, object_dim)

    tree = BranchTree(obj)
    followed = tree.root_id
    for _ in range(n_devices):
        prior_dim = tree.node(followed).state.dim
        tree.attach_ancilla(followed, ready)
        middle_dim = prior_dim // object_dim
        shift = _conditional_shift(object_dim, middle_dim, object_dim)
        split = BipartiteSplit(prior_dim, object_dim)
        children = interact_and_branch(tree, followed, shift, split)
        if not children:
            continue
        followed = children[0]  # children come in descending weight
        outcome = _object_outcome(tree.node(followed).state, object_dim)
        cols = np.arange(object_dim)
        cols[[0, outcome]] = outcome, 0
        # prep with columns 0 and outcome swapped, acting on the object register only
        reprep = UnitaryOperator(prep[:, cols], tree.node(followed).state.dim)
        interact_and_branch(tree, followed, reprep, split)
    return tree


def run_chain_protocol(
    object_dim: int,
    n_devices: int,
    amplitudes=None,
    seed: int = 0,
) -> list[LedgerRecord]:
    """Entropy ledger of the device-chain protocol; see build_chain_tree."""
    return build_chain_tree(object_dim, n_devices, amplitudes, seed).ledger
