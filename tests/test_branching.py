import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, reduced_matrix
from manyworlds import (
    DIM_CAP,
    BipartiteSplit,
    BranchTree,
    CapacityError,
    DecompositionError,
    DegenerateStateError,
    PointerOverflowError,
    SchmidtDecomposition,
    ShapeError,
    UnitaryOperator,
    apply_unitary,
    basis_state,
    build_chain_tree,
    chain_report,
    haar_random_state,
    interact_and_branch,
    make_state,
    premeasurement_unitary,
    rescaled_entropy_trace,
    run_chain_protocol,
    schmidt_decompose,
    tensor,
    total_entropy,
)
from manyworlds import branching
from manyworlds.branching import _conditional_shift, _preparation_unitary
from manyworlds.cli import main

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906
HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
CNOT = np.eye(4)[[0, 1, 3, 2]]


def plus_device():
    return tensor(make_state([1, 1], [2]), basis_state(0, 2))


def equal_split_unitary():
    """Sends |i>|i> to an equal-weight rank-2 state across the 2x2 split."""
    return UnitaryOperator(CNOT @ np.kron(HADAMARD, np.eye(2)), 4)


class TestPremeasurementUnitary:
    def test_two_outcomes_is_cnot(self):
        u = premeasurement_unitary(2, 2)
        for j in range(4):
            assert np.array_equal(apply_unitary(u, basis_state(j, 4)).amplitudes, CNOT[:, j])

    @pytest.mark.parametrize("n,device", [(2, 2), (3, 3), (3, 5), (4, 4)])
    def test_copies_each_outcome_to_pointer(self, n, device):
        u = premeasurement_unitary(n, device)
        for i in range(n):
            before = tensor(basis_state(i, n), basis_state(0, device))
            after = apply_unitary(u, before)
            want = tensor(basis_state(i, n), basis_state(i, device))
            assert np.allclose(after.amplitudes, want.amplitudes)

    def test_object_register_never_altered(self):
        n, device = 3, 4
        u = premeasurement_unitary(n, device)
        for i in range(n):
            for j in range(device):
                before = tensor(basis_state(i, n), basis_state(j, device))
                after = apply_unitary(u, before).amplitudes.reshape(n, device)
                assert np.argmax(np.abs(after).sum(axis=1)) == i

    def test_linearity_matches_expansion(self):
        amps = np.sqrt([0.5, 0.3, 0.2]).astype(complex)
        u = premeasurement_unitary(3, 3)
        got = apply_unitary(u, tensor(make_state(amps, [3]), basis_state(0, 3)))
        want = np.zeros(9, dtype=complex)
        for i in range(3):
            want[i * 3 + i] = amps[i]
        assert np.max(np.abs(got.amplitudes - want)) < 1e-15

    def test_pointer_overflow(self):
        with pytest.raises(PointerOverflowError, match="pointer overflow"):
            premeasurement_unitary(3, 2)

    def test_unit_outcome_is_identity(self):
        u = premeasurement_unitary(1, 4)
        for j in range(4):
            assert np.array_equal(apply_unitary(u, basis_state(j, 4)).amplitudes, np.eye(4)[:, j])

    @pytest.mark.parametrize(
        "n,middle,device", [(1, 1, 1), (2, 1, 2), (2, 3, 2), (3, 1, 5), (3, 4, 3), (4, 2, 6)]
    )
    def test_conditional_shift_equals_dense_product(self, n, middle, device):
        total = n * middle * device
        src = np.arange(total)
        obj, mid, dev = src // (middle * device), (src // device) % middle, src % device
        tgt = (obj * middle + mid) * device + (dev + obj) % device
        dense = np.eye(total)[:, tgt]
        u = _conditional_shift(n, middle, device)
        for seed in range(3):
            psi = haar_random_state(total, seed)
            got = apply_unitary(u, psi).amplitudes
            assert np.max(np.abs(got - dense @ psi.amplitudes)) <= 1e-15

    @pytest.mark.parametrize("k,rest,outcome", [(2, 1, 1), (2, 8, 0), (3, 9, 2), (4, 16, 3)])
    def test_repreparation_equals_dense_product(self, k, rest, outcome):
        prep = _preparation_unitary(haar_random_state(k, k + rest).amplitudes)
        swap = np.eye(k)
        swap[[0, outcome]] = swap[[outcome, 0]]
        cols = np.arange(k)
        cols[[0, outcome]] = outcome, 0
        u = UnitaryOperator(prep[:, cols], k * rest)
        dense = np.kron(prep @ swap, np.eye(rest))
        for seed in range(3):
            psi = haar_random_state(k * rest, 100 + seed)
            got = apply_unitary(u, psi).amplitudes
            assert np.max(np.abs(got - dense @ psi.amplitudes)) <= 1e-15


class TestBranchEntropy:
    def test_certain_branch_carries_nothing(self):
        tree = BranchTree(basis_state(0, 2))
        assert tree.node(tree.root_id).relative_entropy == 0.0

    def test_half_weight(self):
        tree = BranchTree(plus_device())
        (a, _) = interact_and_branch(
            tree, tree.root_id, premeasurement_unitary(2, 2), BipartiteSplit(2, 2)
        )
        assert abs(tree.node(a).relative_entropy - 0.34657359027997264) < 1e-12

    def test_three_way_split_sums(self):
        amps = np.sqrt([0.5, 0.3, 0.2]).astype(complex)
        tree = BranchTree(tensor(make_state(amps, [3]), basis_state(0, 3)))
        kids = interact_and_branch(
            tree, tree.root_id, premeasurement_unitary(3, 3), BipartiteSplit(3, 3)
        )
        total = sum(tree.node(k).relative_entropy for k in kids)
        assert abs(total - 1.0296530140645737) < 1e-10


class TestInteractAndBranch:
    def test_equal_superposition_splits_in_two(self):
        tree = BranchTree(plus_device())
        kids = interact_and_branch(
            tree, tree.root_id, premeasurement_unitary(2, 2), BipartiteSplit(2, 2)
        )
        assert len(kids) == 2
        weights = [tree.node(k).weight for k in kids]
        assert np.allclose(weights, [0.5, 0.5], atol=1e-12)

    def test_definite_outcome_does_not_branch(self):
        tree = BranchTree(tensor(basis_state(0, 2), basis_state(0, 2)))
        kids = interact_and_branch(
            tree, tree.root_id, premeasurement_unitary(2, 2), BipartiteSplit(2, 2)
        )
        assert kids == []
        assert tree.leaf_ids() == [tree.root_id]
        assert tree.step_counter == 1

    def test_product_preserving_unitary_never_adds_leaves(self):
        # local rotations keep factorized states factorized
        local = UnitaryOperator(np.kron(HADAMARD, np.eye(2)), 4)
        tree = BranchTree(tensor(basis_state(0, 2), basis_state(0, 2)))
        for _ in range(4):
            assert interact_and_branch(tree, tree.root_id, local, BipartiteSplit(2, 2)) == []
        assert len(tree.leaf_ids()) == 1

    def test_three_outcome_weights_match_reduced_spectrum(self):
        amps = np.sqrt([0.5, 0.3, 0.2]).astype(complex)
        obj = make_state(amps, [3])
        tree = BranchTree(tensor(obj, basis_state(0, 3)))
        u = premeasurement_unitary(3, 3)
        kids = interact_and_branch(tree, tree.root_id, u, BipartiteSplit(3, 3))
        weights = np.array([tree.node(k).weight for k in kids])
        assert np.max(np.abs(weights - [0.5, 0.3, 0.2])) < 1e-10
        # independent oracle: spectrum of the reduced matrix of U(obj x |0>)
        premeasured = apply_unitary(u, tensor(obj, basis_state(0, 3)))
        w = np.linalg.eigvalsh(reduced_matrix(premeasured.amplitudes, 3, 3, "left"))
        oracle = np.sort(w)[::-1][: len(kids)]
        assert np.max(np.abs(weights - oracle)) < 1e-10

    def test_children_states_are_factorized_pairs(self):
        tree = BranchTree(plus_device())
        kids = interact_and_branch(
            tree, tree.root_id, premeasurement_unitary(2, 2), BipartiteSplit(2, 2)
        )
        for k, i in zip(kids, range(2)):
            want = tensor(basis_state(i, 2), basis_state(i, 2))
            assert np.max(np.abs(tree.node(k).state.amplitudes - want.amplitudes)) < 1e-12

    def test_non_leaf_rejected(self):
        tree = BranchTree(plus_device())
        interact_and_branch(
            tree, tree.root_id, premeasurement_unitary(2, 2), BipartiteSplit(2, 2)
        )
        with pytest.raises(ShapeError, match="not a leaf"):
            interact_and_branch(
                tree, tree.root_id, premeasurement_unitary(2, 2), BipartiteSplit(2, 2)
            )

    def test_dimension_mismatch_rejected(self):
        tree = BranchTree(plus_device())
        with pytest.raises(ShapeError):
            interact_and_branch(
                tree, tree.root_id, premeasurement_unitary(3, 3), BipartiteSplit(3, 3)
            )

    def test_attach_ancilla_only_on_leaves(self):
        tree = BranchTree(plus_device())
        interact_and_branch(
            tree, tree.root_id, premeasurement_unitary(2, 2), BipartiteSplit(2, 2)
        )
        with pytest.raises(ShapeError, match="not a leaf"):
            tree.attach_ancilla(tree.root_id, basis_state(0, 2))

    def test_leaf_cap_is_loud_and_leaves_tree_intact(self, monkeypatch):
        monkeypatch.setattr(branching, "MAX_LEAVES", 2)
        amps = np.sqrt([0.5, 0.3, 0.2]).astype(complex)
        tree = BranchTree(tensor(make_state(amps, [3]), basis_state(0, 3)))
        with pytest.raises(CapacityError):
            interact_and_branch(
                tree, tree.root_id, premeasurement_unitary(3, 3), BipartiteSplit(3, 3)
            )
        assert tree.leaf_ids() == [tree.root_id]
        assert tree.step_counter == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_weight_conservation_over_random_cascades(self, seed):
        tree = BranchTree(haar_random_state(4, seed))
        frontier = [tree.root_id]
        for level in range(3):
            next_frontier = []
            for leaf in frontier:
                u = UnitaryOperator(haar_unitary(4, 1000 * seed + 10 * level + leaf), 4)
                kids = interact_and_branch(tree, leaf, u, BipartiteSplit(2, 2))
                next_frontier.extend(kids or [leaf])
            frontier = next_frontier
        leaf_sum = sum(tree.node(n).cumulative_weight for n in tree.leaf_ids())
        assert abs(leaf_sum - 1.0) < 1e-9

    def test_ledger_identity_at_every_record(self):
        tree = BranchTree(haar_random_state(4, 5))
        frontier = [tree.root_id]
        for level in range(3):
            next_frontier = []
            for leaf in frontier:
                u = UnitaryOperator(haar_unitary(4, 77 * level + leaf), 4)
                kids = interact_and_branch(tree, leaf, u, BipartiteSplit(2, 2))
                next_frontier.extend(kids or [leaf])
            frontier = next_frontier
        for record in tree.ledger:
            assert abs(record.total_entropy - math.fsum(record.branch_entropies)) < 1e-10


def leafwise_total_entropy(tree):
    """-sum w ln w over the leaves, summed leaf by leaf as an independent oracle."""
    return math.fsum(
        -tree.node(nid).cumulative_weight * math.log(tree.node(nid).cumulative_weight) + 0.0
        for nid in tree.leaf_ids()
    )


class TestTreeBookkeeping:
    """Tree and ledger invariants after every step of random premeasurement cascades."""

    @staticmethod
    def check(tree):
        assert list(tree.nodes) == list(range(len(tree.nodes)))
        assert all(node.id == nid for nid, node in tree.nodes.items())
        assert total_entropy(tree) == leafwise_total_entropy(tree)
        for record in tree.ledger:
            assert record.total_entropy == math.fsum(record.branch_entropies)
        leaf_weights = [tree.node(nid).cumulative_weight for nid in tree.leaf_ids()]
        assert abs(math.fsum(leaf_weights) - 1.0) <= 1e-12
        for nid, node in tree.nodes.items():
            if node.parent_id is not None:
                assert rescaled_entropy_trace(tree, nid)[0] == (node.birth_step, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(moves=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 2**32 - 1)),
                          min_size=1, max_size=6))
    def test_invariants_after_every_step(self, moves):
        # each move rotates a leaf's qubit object, then premeasures it with a fresh device
        tree = BranchTree(haar_random_state(2, moves[0][1]))
        self.check(tree)
        for pick, seed in moves:
            leaves = tree.leaf_ids()
            leaf = leaves[pick % len(leaves)]
            dim = tree.node(leaf).state.dim
            rotate = UnitaryOperator(haar_unitary(2, seed), dim)
            interact_and_branch(tree, leaf, rotate, BipartiteSplit(2, dim // 2))
            self.check(tree)
            tree.attach_ancilla(leaf, basis_state(0, 2))
            shift = _conditional_shift(2, dim // 2, 2)
            interact_and_branch(tree, leaf, shift, BipartiteSplit(dim, 2))
            self.check(tree)


class TestTotalEntropy:
    def test_single_leaf_zero(self):
        assert total_entropy(BranchTree(basis_state(0, 2))) == 0.0

    def test_one_equal_branching_ln2(self):
        tree = BranchTree(plus_device())
        interact_and_branch(
            tree, tree.root_id, premeasurement_unitary(2, 2), BipartiteSplit(2, 2)
        )
        assert abs(total_entropy(tree) - LN2) < 1e-12

    def test_two_equal_branchings_on_both_leaves_ln4(self):
        tree = BranchTree(plus_device())
        kids = interact_and_branch(
            tree, tree.root_id, premeasurement_unitary(2, 2), BipartiteSplit(2, 2)
        )
        for k in kids:
            interact_and_branch(tree, k, equal_split_unitary(), BipartiteSplit(2, 2))
        assert len(tree.leaf_ids()) == 4
        assert abs(total_entropy(tree) - LN4) < 1e-12
        # direct evaluation of -sum w ln w over the four quarter-weight leaves
        direct = -math.fsum(0.25 * math.log(0.25) for _ in range(4))
        assert abs(total_entropy(tree) - direct) < 1e-12


class TestRescaledEntropyTrace:
    def test_fresh_branch_starts_at_exactly_zero(self):
        tree = BranchTree(plus_device())
        kids = interact_and_branch(
            tree, tree.root_id, premeasurement_unitary(2, 2), BipartiteSplit(2, 2)
        )
        for k in kids:
            trace = rescaled_entropy_trace(tree, k)
            assert trace[0] == (tree.node(k).birth_step, 0.0)

    def test_never_reinteracting_branch_stays_zero(self):
        tree = BranchTree(plus_device())
        kids = interact_and_branch(
            tree, tree.root_id, premeasurement_unitary(2, 2), BipartiteSplit(2, 2)
        )
        trace = rescaled_entropy_trace(tree, kids[1])
        assert trace == [(1, 0.0)]

    def test_entropy_just_before_second_branching_is_ln2(self):
        tree = BranchTree(plus_device())
        kids = interact_and_branch(
            tree, tree.root_id, premeasurement_unitary(2, 2), BipartiteSplit(2, 2)
        )
        followed = kids[0]
        interact_and_branch(tree, followed, equal_split_unitary(), BipartiteSplit(2, 2))
        trace = rescaled_entropy_trace(tree, followed)
        assert trace[0][1] == 0.0
        assert abs(trace[-1][1] - LN2) < 1e-10

    def test_unknown_node_rejected(self):
        tree = BranchTree(basis_state(0, 2))
        with pytest.raises(KeyError):
            rescaled_entropy_trace(tree, 99)


def ledger_totals(ledger):
    return [r.total_entropy for r in ledger]


class TestChainProtocol:
    def test_definite_object_never_grows_entropy(self):
        ledger = run_chain_protocol(2, 5, amplitudes=[1, 0], seed=4)
        assert all(t == 0.0 for t in ledger_totals(ledger))

    def test_single_device_equal_superposition_gives_ln2(self):
        ledger = run_chain_protocol(2, 1, amplitudes=[1, 1], seed=4)
        assert abs(ledger_totals(ledger)[-1] - LN2) < 1e-12

    def test_five_devices_match_hand_accumulated_formula(self):
        ledger = run_chain_protocol(2, 5, amplitudes=[1, 1], seed=4)
        totals = ledger_totals(ledger)
        expected = [0.0]
        acc, weight = 0.0, 1.0
        for _ in range(5):
            acc += weight * LN2   # one branching step per device
            expected += [acc]
            weight *= 0.5
        assert len(totals) == len(expected)
        assert max(abs(a - b) for a, b in zip(totals, expected)) < 1e-12

    def test_entropy_never_decreases(self):
        for seed in range(10):
            ledger = run_chain_protocol(3, 3, amplitudes=None, seed=seed)
            totals = ledger_totals(ledger)
            assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))

    def test_every_branch_trace_starts_at_zero(self):
        tree = build_chain_tree(2, 5, amplitudes=[1, 1], seed=4)
        for nid in tree.nodes:
            trace = rescaled_entropy_trace(tree, nid)
            assert trace[0][1] == 0.0

    def test_tiny_branch_weight_survives_pairing(self):
        # the second branch weight, ~5.3e-10, is far above the SVD's
        # resolution, so it is kept and paired like any other
        totals = ledger_totals(run_chain_protocol(2, 3, amplitudes=[1, 2.3e-5]))
        assert len(totals) == 4
        assert all(b >= a for a, b in zip(totals, totals[1:]))
        assert totals[-1] > 0.0

    def test_improbable_world_is_born_with_its_ledger(self):
        # amplitudes 1 : 1e-6 make a world of weight 1e-12 at each device,
        # far below the 1e-10 that a weight cut used to discard
        tree = build_chain_tree(2, 3, amplitudes=[1, 1e-6])
        assert run_chain_protocol(2, 3, amplitudes=[1, 1e-6]) == tree.ledger
        rare = [node for node in tree.nodes.values() if node.weight < 0.5]
        assert len(rare) == 3
        for node in rare:
            assert abs(node.weight - 1e-12) <= 1e-20
            assert node.history == [(node.birth_step, 0.0)]
        for record in tree.ledger:
            assert record.total_entropy == math.fsum(record.branch_entropies)

    @pytest.mark.parametrize("dim,devices,seed", [(1, 4, 0), (2, 1, 3), (2, 9, 0), (3, 4, 5),
                                                  (4, 3, 7), (11, 3, 2), (128, 1, 1)])
    def test_one_ledger_record_per_device(self, dim, devices, seed):
        ledger = run_chain_protocol(dim, devices, seed=seed)
        assert len(ledger) == devices + 1
        assert [r.step for r in ledger] == list(range(devices + 1))

    @pytest.mark.parametrize("dim,devices", [(2, 9), (3, 4), (16, 2)])
    def test_one_decomposition_per_device(self, monkeypatch, dim, devices):
        calls = []
        decompose = branching.schmidt_decompose
        monkeypatch.setattr(branching, "schmidt_decompose",
                            lambda psi, split: calls.append(psi.dim) or decompose(psi, split))
        build_chain_tree(dim, devices, seed=1)
        assert calls == [dim ** (k + 2) for k in range(devices)]

    def test_report_steps_grow_strictly(self):
        steps = chain_report(2, 4, 3).entropy_steps
        assert len(steps) == 5
        assert all(a < b for a, b in zip(steps, steps[1:]))

    def test_followed_world_history_is_birth_then_branching(self):
        # node 4, born at step 2, is followed to device 3 and branches there
        tree = build_chain_tree(3, 3, seed=5)
        node = tree.node(4)
        assert node.children
        entropy = -sum(tree.node(c).weight * math.log(tree.node(c).weight)
                       for c in node.children)
        (birth, zero), (step, value) = node.history
        assert (birth, zero, step) == (2, 0.0, 3)
        assert abs(value - entropy) < 1e-12

    @pytest.mark.parametrize("dim,devices", [(2, 9), (3, 5), (5, 3), (16, 2)])
    def test_every_history_entry_is_a_birth_or_a_branching(self, dim, devices):
        for seed in range(5):
            tree = build_chain_tree(dim, devices, seed=seed)
            for node in tree.nodes.values():
                assert node.history[0] == (node.birth_step, 0.0)
                assert all(value > 1e-6 for _, value in node.history[1:])

    def test_seed_determines_object_state(self):
        a = run_chain_protocol(2, 3, amplitudes=None, seed=11)
        b = run_chain_protocol(2, 3, amplitudes=None, seed=11)
        c = run_chain_protocol(2, 3, amplitudes=None, seed=12)
        assert ledger_totals(a) == ledger_totals(b)
        assert ledger_totals(a) != ledger_totals(c)

    def test_dimension_cap(self):
        with pytest.raises(CapacityError):
            run_chain_protocol(2, 14, amplitudes=[1, 1], seed=0)

    @pytest.mark.parametrize("object_dim", [DIM_CAP + 1, 10**4000], ids=["cap+1", "1e4000"])
    def test_oversized_object_refused_without_the_power(self, object_dim):
        # the power would have millions of digits; the message names none of them
        with pytest.raises(CapacityError, match="exceeds the dimension cap"):
            run_chain_protocol(object_dim, branching.CHAIN_DEVICES_CAP)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOperatorMemory:
    """Couplings cost O(dim) memory; a dense operator would cost 16 * dim**2 bytes."""

    def test_chain_tree_peak(self):
        _conditional_shift.cache_clear()  # measure the build, not a cache hit
        assert _peak_bytes(build_chain_tree, 2, 10) < 4 * 2**20

    def test_premeasurement_peak(self):
        _conditional_shift.cache_clear()  # measure the build, not a cache hit
        assert _peak_bytes(premeasurement_unitary, 32, 32) < 2**20


class TestSharedOperator:
    """Each conditional-shift gather is built and checked once per shape and then shared."""

    def test_repeated_calls_return_one_read_only_operator(self):
        first = premeasurement_unitary(7, 7)
        assert premeasurement_unitary(7, 7) is first
        assert not first.entries.flags.writeable and not first.perm.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first.perm[0] = 1

    def test_checked_once_per_shape(self, monkeypatch):
        _conditional_shift.cache_clear()
        checks = []
        check = UnitaryOperator.__post_init__
        monkeypatch.setattr(UnitaryOperator, "__post_init__",
                            lambda self: checks.append(self.dim) or check(self))
        for _ in range(3):
            for dim in (2, 3, 2):
                premeasurement_unitary(dim, dim)
        assert checks == [4, 9]

    def test_refusals_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(PointerOverflowError):
                premeasurement_unitary(3, 2)

    @pytest.mark.parametrize("args", [["branch", "--dim", "6"], ["branch", "--dim", "16"],
                                      ["chain", "--dim", "2", "--devices", "6"],
                                      ["chain", "--dim", "3", "--devices", "3"]],
                             ids=["branch-6", "branch-16", "chain-2x6", "chain-3x3"])
    def test_reports_same_bytes_cold_and_warm(self, args, tmp_path, capsys):
        _conditional_shift.cache_clear()
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        for out in (cold, warm):  # the second run finds every gather cached
            assert main([*args, "--seed", "11", "--out", str(out)]) == 0
        assert cold.read_bytes() == warm.read_bytes()


def _branch_premeasured(dim, seed):
    """Tree of one object of dim outcomes and its ready device, and the branch inputs."""
    tree = BranchTree(tensor(haar_random_state(dim, seed), basis_state(0, dim)))
    return tree, premeasurement_unitary(dim, dim), BipartiteSplit(dim, dim)


class TestChildStates:
    """Children keep their Schmidt pair until read; each invariant keeps a failing test."""

    def test_children_equal_kron_of_their_pair_bit_for_bit(self):
        dim = 9
        tree = BranchTree(tensor(haar_random_state(dim, 4), basis_state(0, dim)))
        dec = schmidt_decompose(
            apply_unitary(premeasurement_unitary(dim, dim), tree.node(0).state),
            BipartiteSplit(dim, dim),
        )
        kids = interact_and_branch(tree, 0, premeasurement_unitary(dim, dim),
                                   BipartiteSplit(dim, dim))
        for n, kid in enumerate(kids):
            amps = tree.node(kid).state.amplitudes
            want = np.kron(dec.left_vectors[:, n], dec.right_vectors[:, n])
            assert amps.tobytes() == want.tobytes()
            assert not amps.flags.writeable
            assert tree.node(kid).state.dims == (dim, dim)

    def test_peak_memory_is_the_children_themselves(self):
        dim = 64
        tree = BranchTree(tensor(haar_random_state(dim, 1), basis_state(0, dim)))
        u, split = premeasurement_unitary(dim, dim), BipartiteSplit(dim, dim)
        peak = _peak_bytes(interact_and_branch, tree, tree.root_id, u, split)
        own = sum(tree.node(c).state.amplitudes.nbytes for c in tree.node(0).children)
        assert own == dim * dim * dim * 16  # 4 MiB
        assert peak < own + 2**20  # a copy of every row would add another 4 MiB

    def test_branching_peak_is_not_the_children(self):
        tree, u, split = _branch_premeasured(64, 1)
        # 64 dense children would take 4 MiB; their pairs are views of the decomposition
        assert _peak_bytes(interact_and_branch, tree, tree.root_id, u, split) < 2**20

    def test_state_read_twice_is_one_read_only_object(self):
        tree, u, split = _branch_premeasured(5, 2)
        dec = schmidt_decompose(apply_unitary(u, tree.node(0).state), split)
        kids = interact_and_branch(tree, 0, u, split)
        for n, kid in enumerate(kids):
            first = tree.node(kid).state
            assert tree.node(kid).state is first
            assert not first.amplitudes.flags.writeable
            want = np.kron(dec.left_vectors[:, n], dec.right_vectors[:, n])
            assert first.amplitudes.tobytes() == want.tobytes()

    def test_reading_one_child_forms_no_sibling(self):
        tree, u, split = _branch_premeasured(6, 3)
        first, *siblings = interact_and_branch(tree, 0, u, split)
        assert tree.node(first).state.dims == (6, 6)
        assert [tree.node(kid)._state for kid in siblings] == [None] * len(siblings)

    def test_chain_forms_only_the_followed_children(self):
        tree = build_chain_tree(3, 2, amplitudes=[1, 2, 3])
        formed = {nid for nid, node in tree.nodes.items() if node._state is not None}
        followed = {node.children[0] for node in tree.nodes.values() if node.children}
        assert len(tree.nodes) == 7  # the root and two branchings into three
        assert formed == {tree.root_id} | followed

    @pytest.mark.parametrize("bad_child", [0, 3, 6])
    @pytest.mark.parametrize("factor", [1 + 2e-12, 1 - 2e-12])
    def test_any_child_off_unit_norm_rejected(self, monkeypatch, bad_child, factor):
        # 2e-12 passes the 1e-10 Gram check, not the 1e-12 norm check
        def skewed(psi, split):
            dec = schmidt_decompose(psi, split)
            left = dec.left_vectors.copy()
            left[:, bad_child] *= factor
            return SchmidtDecomposition(dec.lambdas, left, dec.right_vectors, split)

        monkeypatch.setattr(branching, "schmidt_decompose", skewed)
        tree, u, split = _branch_premeasured(7, 5)
        with pytest.raises(DegenerateStateError):
            interact_and_branch(tree, 0, u, split)
        assert (tree.step_counter, len(tree.nodes)) == (0, 1)

    def test_nan_child_rejected(self, monkeypatch):
        # the constructor's Gram check would refuse the NaN, so it is bypassed
        def poisoned(psi, split):
            dec = schmidt_decompose(psi, split)
            right = dec.right_vectors.copy()
            right[0, 1] = math.nan
            forged = object.__new__(SchmidtDecomposition)
            for name in ("lambdas", "left_vectors", "split"):
                object.__setattr__(forged, name, getattr(dec, name))
            object.__setattr__(forged, "right_vectors", right)
            return forged

        monkeypatch.setattr(branching, "schmidt_decompose", poisoned)
        tree = BranchTree(plus_device())
        with pytest.raises(DegenerateStateError, match="norm nan deviates"):
            interact_and_branch(tree, 0, premeasurement_unitary(2, 2), BipartiteSplit(2, 2))

    def test_non_orthonormal_vectors_rejected(self):
        dec = schmidt_decompose(make_state([1, 0, 0, 1], (2, 2)), BipartiteSplit(2, 2))
        skewed = dec.right_vectors.copy()
        skewed[:, 1] = (skewed[:, 0] + skewed[:, 1]) / math.sqrt(2)
        with pytest.raises(DecompositionError, match="right vectors not orthonormal"):
            SchmidtDecomposition(dec.lambdas, dec.left_vectors, skewed, dec.split)

    def test_vector_shape_must_fill_the_split(self):
        dec = schmidt_decompose(make_state([1, 0, 0, 1], (2, 2)), BipartiteSplit(2, 2))
        with pytest.raises(DecompositionError, match="vectors have shape"):
            SchmidtDecomposition(dec.lambdas, dec.left_vectors, dec.right_vectors[:1], dec.split)

    def test_child_norm_still_checked(self, monkeypatch):
        # right vectors 2e-11 too long pass the 1e-10 Gram check, not the 1e-12 norm check
        def stretched(psi, split):
            dec = schmidt_decompose(psi, split)
            return SchmidtDecomposition(dec.lambdas, dec.left_vectors,
                                        dec.right_vectors * (1 + 2e-11), split)

        monkeypatch.setattr(branching, "schmidt_decompose", stretched)
        tree = BranchTree(plus_device())
        with pytest.raises(DegenerateStateError):
            interact_and_branch(tree, 0, premeasurement_unitary(2, 2), BipartiteSplit(2, 2))
