"""The package contracts: the immutable value classes' read-only fields, repr,
equality and hashing, the refusals of the library's constructors, and the one
reading of every integer argument."""

import ast
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import manyworlds
from manyworlds import rng
from manyworlds.branching import (
    BranchNode,
    _conditional_shift,
    branching_report,
    chain_report,
    premeasurement_unitary,
    run_chain_protocol,
)
from manyworlds.contracts import CapacityError, DecompositionError, Frozen, ShapeError
from manyworlds.deterministic import polarizer_chain
from manyworlds.experiments import evolution_walk, overlap_statistics, random_projection_chain
from manyworlds.hilbert import (
    BipartiteSplit,
    DensityMatrix,
    StateVector,
    UnitaryOperator,
    basis_state,
    haar_random_state,
    make_state,
    partial_trace,
)
from manyworlds.reporting import ExperimentConfig, emit_report
from manyworlds.schmidt import SchmidtDecomposition, random_state_report, schmidt_decompose

PSI = make_state([1, 0, 0, 1], (2, 2))
FROZEN = {
    "StateVector": PSI,
    "DensityMatrix": DensityMatrix(np.eye(2) / 2, 2),
    "BipartiteSplit": BipartiteSplit(2, 2),
    "UnitaryOperator": UnitaryOperator(np.eye(2), 4, perm=np.array([1, 0, 3, 2])),
    "SchmidtDecomposition": schmidt_decompose(PSI, BipartiteSplit(2, 2)),
    "ExperimentConfig": ExperimentConfig("zeno", {"k": 1}, 0),
}


@pytest.mark.parametrize("name", FROZEN)
def test_fields_refuse_assignment_and_deletion(name):
    obj = FROZEN[name]
    assert type(obj).__name__ == name and isinstance(obj, Frozen)
    for field in obj._fields:
        value = getattr(obj, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(obj, field, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(obj, field)
        assert getattr(obj, field) is value
    with pytest.raises(AttributeError):
        obj.extra = 1  # no __dict__ either


@pytest.mark.parametrize("name", FROZEN)
def test_pickle_round_trip_stays_frozen(name):
    obj = FROZEN[name]
    copy = pickle.loads(pickle.dumps(obj))
    assert type(copy) is type(obj) and repr(copy) == repr(obj)
    with pytest.raises(AttributeError):
        setattr(copy, obj._fields[0], None)


def test_repr_names_each_field():
    assert repr(BipartiteSplit(2, 3)) == "BipartiteSplit(d_left=2, d_right=3)"


def test_equal_fields_compare_and_hash_equal():
    a, b = BipartiteSplit(2, 3), BipartiteSplit(2, 3)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != BipartiteSplit(3, 2) and a != (2, 3)
    assert ExperimentConfig("zeno", {"k": 1}, 0) == ExperimentConfig("zeno", {"k": 1}, 0, "json")
    assert ExperimentConfig("zeno", {"k": 1}, 0) != ExperimentConfig("zeno", {"k": 2}, 0)
    parameters = {"k": 1}
    c, same = ExperimentConfig("zeno", parameters, 0), ExperimentConfig("zeno", {"k": 1}, 0)
    parameters["k"] = 5  # the config holds its own copy of the caller's dict
    assert c.parameters == {"k": 1} and c == same
    assert hash(c) == hash(same) and len({c, same}) == 1
    configs = {c}
    with pytest.raises(TypeError):
        c.parameters["k"] = 5  # nor can a write through the config change it
    assert c.parameters == {"k": 1} and c in configs and hash(c) == hash(same)


ARRAY_HOLDING = {
    "StateVector": lambda: make_state([1, 0], (2,)),
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2, 2),
    "UnitaryOperator": lambda: UnitaryOperator(np.eye(2), 4, perm=np.array([1, 0, 3, 2])),
    "SchmidtDecomposition": lambda: schmidt_decompose(PSI, BipartiteSplit(2, 2)),
}


@pytest.mark.parametrize("name", ARRAY_HOLDING)
def test_array_holding_classes_compare_and_hash_by_identity(name):
    # an array's == is elementwise, so comparing field tuples raised ValueError
    a, b = ARRAY_HOLDING[name](), ARRAY_HOLDING[name]()
    assert a == a and not a == b and a != b and a != (1, 0)
    assert hash(a) == hash(a) and len({a, b, a}) == 2


class _LabelledState(StateVector):
    __slots__ = ("label",)

    def __init__(self, amplitudes, dims, label):
        super().__init__(amplitudes, dims)
        self._set(self.amplitudes, self.dims, label)


class _LabelledSplit(BipartiteSplit):
    __slots__ = ("label",)


def test_subclass_without_slots_of_its_own_sets_its_fields():
    class Labelled(StateVector):
        pass

    psi = Labelled([1, 0], (2,))
    assert psi.dims == (2,) and psi.amplitudes.tolist() == [1, 0] and psi == psi
    # one with slots of its own sets and restores its base's fields first
    psi = _LabelledState([1, 0], (2,), "up")
    for state in (psi, pickle.loads(pickle.dumps(psi))):
        assert (state.dims, state.amplitudes.tolist(), state.label) == ((2,), [1, 0], "up")
    split = _LabelledSplit(2, 3)
    assert (split.d_left, split.d_right) == (2, 3)
    assert pickle.loads(pickle.dumps(split)) == split


def test_branch_node_stays_mutable():
    first, second = BranchNode(0, None, 1.0, 1.0, 0.0, 0), BranchNode(1, 0, 0.5, 0.5, 0.3, 1)
    first.weight = 0.25
    first.children.append(1)
    assert (first.weight, first.children, second.children, second.history) == (0.25, [1], [], [])


@pytest.mark.parametrize("make", [
    lambda: make_state([1, 1, 1, 1], (2.5, 2)),
    lambda: make_state([1], (math.inf,)),
    lambda: make_state([1, 1], (np.float64(2.0),)),
    lambda: BipartiteSplit(2.5, 2),
    lambda: BipartiteSplit(2, np.float64(2.0)),
], ids=["fraction", "infinity", "numpy-float", "split-fraction", "split-numpy-float"])
def test_non_integral_dimensions_refused(make):
    # neither truncated to an int nor left to fail later in numpy
    with pytest.raises(ShapeError, match="must be integers, got"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: basis_state(0.5, 2), "basis index must be an integer, got 0.5"),
    (lambda: basis_state(1.0, 2), "basis index must be an integer, got 1.0"),
    (lambda: UnitaryOperator(np.eye(2), 4.0), "declared dim must be an integer, got 4.0"),
    (lambda: DensityMatrix(np.eye(2) / 2, 2.0), "declared dim must be an integer, got 2.0"),
    (lambda: premeasurement_unitary(2.0, 2),
     "subsystem dimensions must be integers, got (2.0, 2)"),
    (lambda: premeasurement_unitary(2, np.float64(2)),
     "subsystem dimensions must be integers, got (2, np.float64(2.0))"),
], ids=["basis-index", "basis-index-whole-float", "unitary-dim", "density-dim",
        "outcomes", "device-numpy-float"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold-cache", "warm-cache"])
def test_non_integral_indexes_refused(make, message, warm):
    # a float key equal to an int finds that int's entry in a cache, so it is read first
    _conditional_shift.cache_clear()
    if warm:
        premeasurement_unitary(2, 2)
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        make()


def test_integer_like_indexes_read_as_integers():
    # operator.index reads a bool or a numpy integer as the int it stands for
    assert basis_state(True, 2).amplitudes.tolist() == [0, 1]
    assert basis_state(np.int64(0), np.int32(2)).amplitudes.tolist() == [1, 0]
    assert type(UnitaryOperator(np.eye(2), np.int64(4)).dim) is int
    assert premeasurement_unitary(np.int64(2), 2) is premeasurement_unitary(2, 2)
    for gather in ([1, 0, 3, 2], np.array([1, 0, 3, 2], dtype=np.intp)):
        u = UnitaryOperator(np.eye(1), 4, perm=gather)
        assert u.perm.dtype == np.intp and u.perm.tolist() == [1, 0, 3, 2]


class _IndexOnly:
    """An integer-like object with __index__ alone: no comparison, no arithmetic."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("make", [lambda d: basis_state(0, d), lambda d: haar_random_state(d, 3)],
                         ids=["basis_state", "haar_random_state"])
@pytest.mark.parametrize("dim, want", [(True, 1), (_IndexOnly(3), 3)], ids=["bool", "index-only"])
def test_integer_like_dimension_is_used_as_its_int(make, dim, want):
    # basis_state(0, True) once reached numpy's np.zeros(True), and an
    # __index__-only dim the comparison index < dim or the product 2 * dim
    state = make(dim)
    assert _emitted(state) == _emitted(make(want)) and type(state.dims[0]) is int


def test_numpy_integer_dimensions_accepted():
    assert make_state([1, 1, 1, 1], (np.int64(2), np.int32(2))).dims == (2, 2)
    assert schmidt_decompose(PSI, BipartiteSplit(np.int64(2), 2)).rank == 2
    split = BipartiteSplit(np.int64(2), np.int32(3))
    assert type(split.d_left) is int and type(split.d_right) is int


# Every public integer argument: its call, its least value and the refusal
# of the value one below it. Dimensions are read by _check_dims, every other
# integer by _check_index.
INTEGER_ARGUMENTS = {
    "polarizer_chain-k": (polarizer_chain, 0, "k must be >= 0, got -1"),
    "random_projection_chain-dim": (lambda v: random_projection_chain(v, 1, 10, 0), 2,
                                    "dim must be >= 2, got 1"),
    "random_projection_chain-k": (lambda v: random_projection_chain(4, v, 10, 0), 0,
                                  "k must be >= 0, got -1"),
    "random_projection_chain-trials": (lambda v: random_projection_chain(4, 1, v, 0), 1,
                                       "trials must be >= 1, got 0"),
    "overlap_statistics-dim": (lambda v: overlap_statistics(v, 10, 0), 1,
                               r"subsystem dimensions must be >= 1, got \(0,\)"),
    "overlap_statistics-trials": (lambda v: overlap_statistics(4, v, 0), 1,
                                  "trials must be >= 1, got 0"),
    "evolution_walk-depth": (lambda v: evolution_walk(v, "full-branching"), 0,
                             "depth must be >= 0, got -1"),
    "evolution_walk-trials": (lambda v: evolution_walk(3, "single-history", 0, v), 1,
                              "trials must be >= 1, got 0"),
    "run_chain_protocol-object_dim": (lambda v: run_chain_protocol(v, 2), 1,
                                      "object dimension must be >= 1, got 0"),
    "run_chain_protocol-n_devices": (lambda v: run_chain_protocol(2, v), 1,
                                     "devices must be >= 1, got 0"),
    "branch-dim": (lambda v: branching_report(v, 0), 2, "dim must be >= 2, got 1"),
    "random_state_report-d_left": (lambda v: random_state_report(v, 3, 0), 1,
                                   r"subsystem dimensions must be >= 1, got \(0, 3\)"),
    "random_state_report-d_right": (lambda v: random_state_report(3, v, 0), 1,
                                    r"subsystem dimensions must be >= 1, got \(3, 0\)"),
    "chain_report-dim": (lambda v: chain_report(v, 2, 0), 1,
                         "object dimension must be >= 1, got 0"),
    "chain_report-devices": (lambda v: chain_report(2, v, 0), 1, "devices must be >= 1, got 0"),
    "premeasurement_unitary-n_outcomes": (lambda v: premeasurement_unitary(v, 2), 1,
                                          r"subsystem dimensions must be >= 1, got \(0, 2\)"),
    "premeasurement_unitary-device_dim": (lambda v: premeasurement_unitary(2, v), 1,
                                          r"subsystem dimensions must be >= 1, got \(2, 0\)"),
    "basis_state-dim": (lambda v: basis_state(0, v), 1,
                        r"subsystem dimensions must be >= 1, got \(0,\)"),
    "haar_random_state-dim": (lambda v: haar_random_state(v, 0), 1,
                              r"subsystem dimensions must be >= 1, got \(0,\)"),
    "BipartiteSplit-d_left": (lambda v: BipartiteSplit(v, 3), 1,
                              r"subsystem dimensions must be >= 1, got \(0, 3\)"),
    "BipartiteSplit-d_right": (lambda v: BipartiteSplit(3, v), 1,
                               r"subsystem dimensions must be >= 1, got \(3, 0\)"),
    "trial_rng-first": (lambda v: rng.trial_rng(0, v, 4).random(4).tolist(), 0,
                        "first must be >= 0, got -1"),
    "trial_rng-width": (lambda v: rng.trial_rng(0, 1, v).random(4).tolist(), 0,
                        "width must be >= 0, got -1"),
    "trial_uniforms-first": (lambda v: rng.trial_uniforms(0, v, 2, 4).tolist(), 0,
                             "first must be >= 0, got -1"),
    "trial_uniforms-count": (lambda v: rng.trial_uniforms(0, 1, v, 4).tolist(), 0,
                             "count must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(2)], ids=["fraction", "whole", "numpy"])
def test_non_integer_argument_refused(case, value):
    # neither truncated (trial_uniforms(0, 1.5, ...) once returned trial 1's rows)
    # nor left to fail later as a TypeError
    call, _, _ = case
    with pytest.raises(ShapeError, match=r"must be (an integer|integers), got"):
        call(value)


def _emitted(result) -> bytes:
    """What a caller keeps of a result, as bytes that tell np.int64(4) from 4.

    A report (or ledger record) is written by emit_report, which refuses a
    numpy integer and writes True as `true`, followed by its repr, which names
    a numpy scalar's type; an array, a state or a generator's next draws give
    their dtype and raw bytes; anything else gives its repr.
    """
    if isinstance(result, list):
        return b"|".join(map(_emitted, result))
    if isinstance(result, tuple) and hasattr(result, "_asdict"):
        config = ExperimentConfig("case", {}, 0)
        return emit_report(config, result) + repr(result).encode()
    if isinstance(result, np.random.Generator):
        result = result.random(8)
    if isinstance(result, StateVector):
        result = result.amplitudes
    if isinstance(result, np.ndarray):
        return result.dtype.str.encode() + result.tobytes()
    return repr(result).encode()


@pytest.mark.parametrize("case", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_numpy_integer_argument_reads_as_int(case):
    # == alone would pass a report that echoes np.int64(4), since np.int64(4) == 4
    call, least, _ = case
    value = max(least, 2)
    assert _emitted(call(np.int64(value))) == _emitted(call(value))
    assert _emitted(call(np.int32(value))) == _emitted(call(value))


@pytest.mark.parametrize("case", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_argument_below_its_least_value_refused(case):
    call, least, message = case
    with pytest.raises(ShapeError, match=f"^{message}$"):
        call(least - 1)


# Every seeded entry point, with the seed as its one varying argument. A seed
# is read by _check_index like any other integer, and has no least value.
SEEDED = {
    "haar_random_state": lambda s: haar_random_state(3, s),
    "rng_from_seed": rng.rng_from_seed,
    "trial_rng": lambda s: rng.trial_rng(s, 1, 4),
    "trial_uniforms": lambda s: rng.trial_uniforms(s, 1, 2, 4),
    "overlap_statistics": lambda s: overlap_statistics(4, 10, s),
    "random_projection_chain": lambda s: random_projection_chain(4, 2, 10, s),
    "evolution_walk": lambda s: evolution_walk(3, "single-history", s, 10),
    "run_chain_protocol": lambda s: run_chain_protocol(2, 2, seed=s),
    "random_state_report": lambda s: random_state_report(2, 3, s),
    "branching_report": lambda s: branching_report(3, s),
    "chain_report": lambda s: chain_report(2, 2, s),
}


@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED.keys())
@pytest.mark.parametrize("seed", [1.5, 2.0, "7"], ids=["fraction", "whole", "text"])
def test_non_integer_seed_refused(call, seed):
    message = f"seed must be an integer, got {seed!r}"
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        call(seed)


@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED.keys())
@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5), True],
                         ids=["int64", "uint64", "bool"])
def test_integer_like_seed_gives_the_int_bytes(call, seed):
    # overlap_statistics(4, 10, True) once wrote "seed": true
    assert _emitted(call(seed)) == _emitted(call(int(seed)))


WIDTHS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
# Per case: its call and the range of values drawn, small sizes and counts
# that run in milliseconds, and every 64-bit value for a seed.
DRAWN = {
    **{name: (call, least, least + 3) for name, (call, least, _) in INTEGER_ARGUMENTS.items()},
    **{f"{name}-seed": (call, -2**63, 2**64 - 1) for name, call in SEEDED.items()},
}


def _outcome(call, value) -> bytes:
    """The emitted bytes of call(value), or its refusal's type and message."""
    try:
        return _emitted(call(value))
    except (ValueError, CapacityError) as exc:  # ShapeError and PointerOverflowError too
        return f"{type(exc).__name__}: {exc}".encode()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_numpy_integer_of_every_width_gives_the_int_bytes(data):
    call, low, high = DRAWN[data.draw(st.sampled_from(sorted(DRAWN)), label="case")]
    width = data.draw(st.sampled_from(WIDTHS), label="width")
    info = np.iinfo(width)
    value = data.draw(st.integers(max(low, int(info.min)), min(high, int(info.max))),
                      label="value")
    assert _outcome(call, width(value)) == _outcome(call, value)


PACKAGE = Path(manyworlds.__file__).parent


def _owners(holds) -> set[tuple[str, str | None]]:
    """(module file, innermost enclosing function) of each package source node `holds` for."""
    found = set()

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if holds(child):
                found.add((path.name, owner))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, path, child.name if inner else owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    return found


def _names(node, name: str) -> bool:
    return any(getattr(n, "id", None) == name or getattr(n, "attr", None) == name
               for n in ast.walk(node))


def test_integers_are_read_in_contracts_only():
    # a private copy of the integer rule would call operator.index itself
    index_reads = _owners(lambda n: (isinstance(n, ast.ImportFrom) and n.module == "operator")
                          or (isinstance(n, ast.Attribute) and n.attr == "index"
                              and getattr(n.value, "id", None) == "operator"))
    assert {module for module, _ in index_reads} == {"contracts.py"}
    # or test the type, as the seed rule once did with isinstance(seed, (int, np.integer));
    # reporting's isinstance(value, int) is the writer's dispatch, not an integer rule
    type_tests = _owners(lambda n: (isinstance(n, ast.Attribute)
                                    and n.attr in ("integer", "Integral"))
                         or (isinstance(n, ast.Name) and n.id == "Integral")
                         or (isinstance(n, ast.ImportFrom) and n.module == "numbers"))
    assert {module for module, _ in type_tests} <= {"contracts.py"}


def test_dimension_cap_is_compared_by_its_two_owners_only():
    # _check_dims caps every state; a chain's final size is its own rule
    assert _owners(lambda n: isinstance(n, ast.Compare) and _names(n, "DIM_CAP")) == {
        ("contracts.py", "_check_dims"), ("branching.py", "build_chain_tree")}


def test_draws_and_the_trial_layout_live_in_rng_only():
    # a driver gives a row width; the generators, the blocks, the chunks and the
    # cap on uniforms drawn are rng's alone
    layout = ("TRIAL_CHUNK", "UNIFORMS_CAP")
    owners = _owners(lambda n: (isinstance(n, ast.Attribute) and n.attr == "random"
                                and getattr(n.value, "id", None) == "np")
                     or (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                         and n.func.attr in ("random", "standard_normal"))
                     or getattr(n, "id", None) in layout or getattr(n, "attr", None) in layout
                     or (isinstance(n, ast.alias) and n.name in layout))
    assert {module for module, _ in owners} == {"rng.py"}


def test_absolute_eigenvalue_thresholds_live_in_hilbert_only():
    # schmidt compares each coefficient with its SVD's own resolution and its
    # own eigenvalue; the absolute thresholds serve DensityMatrix and eig_hermitian
    thresholds = ("EPS_RANK", "DEGENERACY_GAP")
    owners = _owners(lambda n: getattr(n, "id", None) in thresholds
                     or getattr(n, "attr", None) in thresholds
                     or (isinstance(n, ast.alias) and n.name in thresholds))
    assert {module for module, _ in owners} == {"hilbert.py"}


@pytest.mark.parametrize("make, error, message", [
    (lambda: make_state([[1]], (1,)), ShapeError,
     r"expected a 1-d amplitude sequence, got shape \(1, 1\)"),
    (lambda: make_state([1], ()), ShapeError, "dims must name at least one subsystem"),
    (lambda: basis_state(2, 2), ShapeError, r"basis index 2 outside \[0, 2\)"),
    (lambda: UnitaryOperator(np.ones((2, 3)), 6), ShapeError,
     r"unitary factor must be square, got shape \(2, 3\)"),
    (lambda: UnitaryOperator(np.eye(1), 4, perm=[1.7, 0.2, 3.9, 2.5]), ShapeError,
     "gather must hold integers, got dtype float64"),
    (lambda: UnitaryOperator(np.eye(1), 4, perm=np.array([1., 0., 3., 2.])), ShapeError,
     "gather must hold integers, got dtype float64"),
    (lambda: DensityMatrix(np.ones((2, 3)) / 2, 2), ShapeError,
     r"density matrix must be square, got shape \(2, 3\)"),
    (lambda: DensityMatrix(np.eye(2) / 2, 3), ShapeError, "declared dim 3 != matrix size 2"),
    (lambda: DensityMatrix(np.eye(2), 2), ShapeError, r"trace deviates from 1 by 1\.000e\+00"),
    (lambda: DensityMatrix(np.diag([1.5, -0.5]), 2), ShapeError,
     r"matrix not positive semidefinite \(min eig -5\.000e-01\)"),
    (lambda: partial_trace(PSI, BipartiteSplit(2, 2), "middle"), ShapeError,
     "keep must be 'left' or 'right', got 'middle'"),
    (lambda: BipartiteSplit(0, 3), ShapeError, r"subsystem dimensions must be >= 1, got \(0, 3\)"),
    (lambda: premeasurement_unitary(0, 2), ShapeError,
     r"subsystem dimensions must be >= 1, got \(0, 2\)"),
    (lambda: premeasurement_unitary(2, 0), ShapeError,
     r"subsystem dimensions must be >= 1, got \(2, 0\)"),
    (lambda: premeasurement_unitary(129, 129), CapacityError,
     "total dimension 16641 exceeds the cap 16384"),
    (lambda: haar_random_state(2, 1.5), ShapeError, "seed must be an integer, got 1.5"),
    (lambda: evolution_walk(3, "full-branching", 1.5), ShapeError,
     "seed must be an integer, got 1.5"),
    (lambda: evolution_walk(3, "full-branching", 0, "x"), ShapeError,
     "trials must be an integer, got 'x'"),
    (lambda: run_chain_protocol(2, 2, amplitudes=[1, 0], seed=1.5), ShapeError,
     "seed must be an integer, got 1.5"),
    (lambda: SchmidtDecomposition([0.5, 0.3, 0.2], np.eye(2, 3), np.eye(2, 3),
                                  BipartiteSplit(2, 2)),
     DecompositionError, r"\(3,\) coefficients: rank not in \[1, 2\]"),
], ids=["2-d-amplitudes", "empty-dims", "basis-index", "non-square-factor",
        "float-gather-list", "float-gather-array", "non-square-density", "density-dim-mismatch",
        "density-trace", "density-negative-eigenvalue", "partial-trace-keep", "split-zero", "no-outcomes", "no-device", "operator-cap", "float-seed",
        "full-branching-float-seed", "full-branching-text-trials", "chain-amplitudes-float-seed",
        "rank-above-split"])
def test_library_refusals(make, error, message):
    _conditional_shift.cache_clear()  # the operator-cap case builds, not reads, its gather
    with pytest.raises(error, match=f"^{message}$"):
        make()


# Per constructor: the caller arrays (each owns its data and already has
# the dtype the object stores, so nothing forces a conversion copy) and
# how the object is built from them.
DEC = schmidt_decompose(PSI, BipartiteSplit(2, 2))
CALLER_ARRAYS = {
    "StateVector": ([PSI.amplitudes], lambda amps: StateVector(amps, (2, 2))),
    "DensityMatrix": ([np.eye(2, dtype=complex) / 2], lambda mat: DensityMatrix(mat, 2)),
    "UnitaryOperator": ([np.eye(2, dtype=complex), np.array([1, 0, 3, 2], dtype=np.intp)],
                        lambda factor, gather: UnitaryOperator(factor, 4, perm=gather)),
    "SchmidtDecomposition": ([DEC.lambdas, DEC.left_vectors, DEC.right_vectors],
                             lambda lam, left, right: SchmidtDecomposition(
                                 lam, left, right, BipartiteSplit(2, 2))),
}


@pytest.mark.parametrize("read_only", [False, True], ids=["writeable", "read-only"])
@pytest.mark.parametrize("name", CALLER_ARRAYS)
def test_constructors_copy_caller_arrays(name, read_only):
    templates, build = CALLER_ARRAYS[name]
    arrays = [np.array(t) for t in templates]
    for arr in arrays:
        arr.flags.writeable = not read_only
    obj = build(*arrays)
    fields = [getattr(obj, f) for f in obj._fields if isinstance(getattr(obj, f), np.ndarray)]
    before = [field.tobytes() for field in fields]
    for arr in arrays:
        arr.flags.writeable = True  # the caller's own array, which owns its data
        arr.reshape(-1)[0] += 1
    assert [field.tobytes() for field in fields] == before
    assert not any(field.flags.writeable for field in fields)
