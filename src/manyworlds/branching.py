"""Objective branching dynamics with an explicit world tree and entropy ledger.

A branch tree starts from a single root world. Interacting a leaf with a
unitary either leaves it a single world (the post-interaction state still
factorizes) or splits it into one child per retained Schmidt coefficient.
Each child is born in the factorized pair state with its weight rescaled to
one, so its own entropy clock restarts at zero; the ledger tracks the total
entropy of the leaf ensemble and its per-branch decomposition at every step.
"""

import functools
import math
from typing import NamedTuple, Optional

import numpy as np

from .contracts import DIM_CAP, CapacityError, ShapeError, _check_dims, _check_index
from .hilbert import (
    BipartiteSplit,
    StateVector,
    UnitaryOperator,
    _check_unit_norm,
    _column_norms,
    _fresh_state,
    apply_unitary,
    basis_state,
    haar_random_state,
    make_state,
    tensor,
)
from .schmidt import entanglement_entropy, schmidt_decompose

MAX_LEAVES = 4096          # most leaves one tree may hold
CHAIN_DEVICES_CAP = 1024   # most devices of one chain; at dim 1 no dimension cap bounds it


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


class BranchReport(NamedTuple):
    """Outcome weights and entropies of a single premeasurement branching."""

    object_dim: int
    seed: int
    n_branches: int
    weights: tuple[float, ...]
    branch_entropies: tuple[float, ...]
    total_entropy: float


class ChainReport(NamedTuple):
    """Total-entropy trajectory of a device-chain protocol."""

    object_dim: int
    n_devices: int
    seed: int
    entropy_steps: tuple[float, ...]
    final_entropy: float
    leaf_count: int


class BranchNode:
    """One world line: weight, factorized post-branching state, entropies.

    ``history`` holds (step, entropy accumulated within the branch since its
    birth) per interaction, opening with (birth_step, 0.0). A child keeps
    its Schmidt pair (left_n, right_n) until ``state`` is first read, which
    forms and caches the product state and drops the pair.
    """

    __slots__ = ("id", "parent_id", "weight", "cumulative_weight", "relative_entropy",
                 "birth_step", "children", "history", "_state", "_pair")
    id: int
    parent_id: Optional[int]
    weight: float              # relative to the parent at branching time
    cumulative_weight: float   # product of weights from the root
    relative_entropy: float    # -weight * ln(weight)
    birth_step: int
    children: list[int]
    history: list[tuple[int, float]]

    def __init__(self, id, parent_id, weight, cumulative_weight, relative_entropy,
                 birth_step, children=None, history=None, _state=None, _pair=None):
        self.id = id
        self.parent_id = parent_id
        self.weight = weight
        self.cumulative_weight = cumulative_weight
        self.relative_entropy = relative_entropy
        self.birth_step = birth_step
        self.children = [] if children is None else children
        self.history = [] if history is None else history
        self._state = _state
        self._pair = _pair

    @property
    def state(self) -> StateVector:
        if self._state is None:
            left, right = self._pair
            # the products of np.kron(left, right), so the same bits
            amps = np.multiply.outer(left, right).reshape(-1)
            self.state = _fresh_state(amps, (left.size, right.size))
        return self._state

    @state.setter
    def state(self, value: StateVector) -> None:
        self._state, self._pair = value, None


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
            relative_entropy=0.0,
            birth_step=0,
            history=[(0, 0.0)],
            _state=root_state,
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
    # read before the cache, which would take 2.0 for the key 2
    n_outcomes, device_dim = _check_dims((n_outcomes, device_dim))
    return _conditional_shift(n_outcomes, 1, device_dim)


@functools.lru_cache(maxsize=32)
def _conditional_shift(n_outcomes: int, middle_dim: int, device_dim: int) -> UnitaryOperator:
    """Device-shift gather with an untouched register between object and device.

    Built and checked once per shape: the operator is immutable, so every
    caller shares it. Its callers have read the three sizes as dimensions
    whose product is within DIM_CAP, so the cache holds at most 32 gathers
    of at most DIM_CAP indices each (4 MiB).
    """
    if device_dim < n_outcomes:
        raise PointerOverflowError(
            f"pointer overflow: device of dim {device_dim} cannot distinguish "
            f"{n_outcomes} outcomes"
        )
    total = n_outcomes * middle_dim * device_dim
    idx = np.arange(total)
    obj = idx // (middle_dim * device_dim)
    dev = idx % device_dim
    # (U a)[(o, m, d)] = a[(o, m, (d - o) mod device_dim)]
    perm = idx - dev + (dev - obj) % device_dim
    return UnitaryOperator(np.ones((1, 1)), total, perm=perm)


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
        # Child n is left_n (x) right_n, kept as that pair of read-only views
        # until its state is read. The split factors the validated new_state
        # and the decomposition checked both vector shapes, so only the norms
        # are left to check: the Gram check's 1e-10 is looser than 1e-12.
        left, right = dec.left_vectors.T, dec.right_vectors.T
        norms = _column_norms(dec.left_vectors) * _column_norms(dec.right_vectors)
        _check_unit_norm(norms[np.argmax(np.abs(norms - 1.0))])
        first_id = len(tree.nodes)
        children = [
            BranchNode(
                id=first_id + n,
                parent_id=leaf_id,
                weight=weight,
                cumulative_weight=node.cumulative_weight * weight,
                relative_entropy=_weight_entropy(weight),
                birth_step=step,
                history=[(step, 0.0)],
                _pair=(left[n], right[n]),
            )
            for n, weight in enumerate(dec.lambdas.tolist())
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
    conditional-shift premeasurement: one branching step and one ledger
    record per device. The followed branch (the first child, of highest
    weight) then has its object register rotated back to the initial
    superposition by a deterministic re-preparation unitary, in place: it
    cannot branch, and adds no step, ledger record or history entry. When
    ``amplitudes`` is omitted the object state is drawn uniformly from the seed.
    """
    object_dim = _check_index(object_dim, "object dimension", 1)
    n_devices = _check_index(n_devices, "devices", 1)
    if n_devices > CHAIN_DEVICES_CAP:
        raise CapacityError(f"{n_devices} devices exceed the cap {CHAIN_DEVICES_CAP}")
    # The chain's final size is its own rule: _check_dims would format a total of
    # thousands of digits. object_dim is checked first, so the power stays below
    # DIM_CAP ** (CHAIN_DEVICES_CAP + 1).
    if object_dim > DIM_CAP or object_dim ** (n_devices + 1) > DIM_CAP:
        raise CapacityError(
            f"chain of {n_devices} devices on a {object_dim}-dimensional object "
            f"exceeds the dimension cap {DIM_CAP}"
        )
    seed = _check_index(seed, "seed")  # read even when the amplitudes leave it unused

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
        node = tree.node(followed)
        outcome = _object_outcome(node.state, object_dim)
        cols = np.arange(object_dim)
        cols[[0, outcome]] = outcome, 0
        # prep with columns 0 and outcome swapped, acting on the object register only
        node.state = apply_unitary(UnitaryOperator(prep[:, cols], node.state.dim), node.state)
    return tree


def run_chain_protocol(
    object_dim: int,
    n_devices: int,
    amplitudes=None,
    seed: int = 0,
) -> list[LedgerRecord]:
    """Entropy ledger of the device-chain protocol; see build_chain_tree."""
    return build_chain_tree(object_dim, n_devices, amplitudes, seed).ledger


def branching_report(dim: int, seed: int) -> BranchReport:
    """One premeasurement of the seed's random object of dim >= 2 outcomes.

    The object is coupled to a ready device of the same dimension, so it
    splits into one branch per outcome of nonzero weight.
    """
    dim, seed = _check_index(dim, "dim", 2), _check_index(seed, "seed")
    tree = BranchTree(tensor(haar_random_state(dim, seed), basis_state(0, dim)))
    children = interact_and_branch(tree, tree.root_id, premeasurement_unitary(dim, dim),
                                   BipartiteSplit(dim, dim))
    nodes = [tree.node(c) for c in children]
    return BranchReport(
        object_dim=dim,
        seed=seed,
        n_branches=len(nodes),
        weights=tuple(n.weight for n in nodes),
        branch_entropies=tuple(n.relative_entropy for n in nodes),
        total_entropy=total_entropy(tree),
    )


def chain_report(dim: int, devices: int, seed: int) -> ChainReport:
    """Total entropy after each step of the chain protocol on the seed's random object.

    build_chain_tree applies the least values and caps; the integers read
    here are the ones the report echoes.
    """
    dim, devices = _check_index(dim, "object dimension"), _check_index(devices, "devices")
    seed = _check_index(seed, "seed")
    ledger = run_chain_protocol(dim, devices, seed=seed)
    steps = tuple(r.total_entropy for r in ledger)
    return ChainReport(
        object_dim=dim,
        n_devices=devices,
        seed=seed,
        entropy_steps=steps,
        final_entropy=steps[-1],
        leaf_count=len(ledger[-1].branch_entropies),
    )
