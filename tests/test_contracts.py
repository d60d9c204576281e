"""The package contracts: the immutable value classes' read-only fields, repr,
equality and hashing, and the refusals of the library's constructors."""

import math
import pickle
import re

import numpy as np
import pytest

from manyworlds.branching import BranchNode, _conditional_shift, premeasurement_unitary
from manyworlds.contracts import CapacityError, DecompositionError, Frozen, ShapeError
from manyworlds.deterministic import WorldCountConfig
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
from manyworlds.reporting import ExperimentConfig
from manyworlds.schmidt import SchmidtDecomposition, schmidt_decompose

PSI = make_state([1, 0, 0, 1], (2, 2))
FROZEN = {
    "StateVector": PSI,
    "DensityMatrix": DensityMatrix(np.eye(2) / 2, 2),
    "BipartiteSplit": BipartiteSplit(2, 2),
    "UnitaryOperator": UnitaryOperator(np.eye(2), 4, perm=np.array([1, 0, 3, 2])),
    "SchmidtDecomposition": schmidt_decompose(PSI, BipartiteSplit(2, 2)),
    "ExperimentConfig": ExperimentConfig("zeno", {"k": 1}, 0),
    "WorldCountConfig": WorldCountConfig(),
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
    assert repr(WorldCountConfig(growth_model="exponential")) == (
        "WorldCountConfig(universe_age_s=4.35e+17, planck_time_s=5.39e-44, "
        "growth_model='exponential')")
    with pytest.raises(ShapeError, match=r"got BipartiteSplit\(d_left=0, d_right=3\)$"):
        BipartiteSplit(0, 3)


def test_equal_fields_compare_and_hash_equal():
    a, b = BipartiteSplit(2, 3), BipartiteSplit(2, 3)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != BipartiteSplit(3, 2) and a != (2, 3)
    assert WorldCountConfig() == WorldCountConfig(4.35e17, 5.39e-44, "linear")
    assert hash(WorldCountConfig()) == hash(WorldCountConfig())
    assert ExperimentConfig("zeno", {"k": 1}, 0) == ExperimentConfig("zeno", {"k": 1}, 0, "json")
    assert ExperimentConfig("zeno", {"k": 1}, 0) != ExperimentConfig("zeno", {"k": 2}, 0)
    parameters = {"k": 1}
    c, same = ExperimentConfig("zeno", parameters, 0), ExperimentConfig("zeno", {"k": 1}, 0)
    parameters["k"] = 5  # the config holds its own copy of the caller's dict
    assert c.parameters == {"k": 1} and c == same
    assert hash(c) == hash(same) and len({c, same}) == 1


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


def test_subclass_without_slots_of_its_own_sets_its_fields():
    class Labelled(StateVector):
        pass

    psi = Labelled([1, 0], (2,))
    assert psi.dims == (2,) and psi.amplitudes.tolist() == [1, 0] and psi == psi


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
    (lambda: premeasurement_unitary(2.0, 2), "register dimension must be an integer, got 2.0"),
    (lambda: premeasurement_unitary(2, np.float64(2)),
     "register dimension must be an integer, got np.float64(2.0)"),
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


def test_numpy_integer_dimensions_accepted():
    assert make_state([1, 1, 1, 1], (np.int64(2), np.int32(2))).dims == (2, 2)
    assert schmidt_decompose(PSI, BipartiteSplit(np.int64(2), 2)).rank == 2


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
    (lambda: premeasurement_unitary(0, 2), ShapeError, "register dimensions must be >= 1"),
    (lambda: premeasurement_unitary(2, 0), ShapeError, "register dimensions must be >= 1"),
    (lambda: premeasurement_unitary(129, 129), CapacityError,
     "operator dimension 16641 exceeds the cap 16384"),
    (lambda: haar_random_state(2, 1.5), TypeError, "seed must be an integer, got float"),
    (lambda: SchmidtDecomposition([0.5, 0.3, 0.2], np.eye(2, 3), np.eye(2, 3),
                                  BipartiteSplit(2, 2)),
     DecompositionError, r"\(3,\) coefficients: rank not in \[1, 2\]"),
], ids=["2-d-amplitudes", "empty-dims", "basis-index", "non-square-factor",
        "float-gather-list", "float-gather-array", "non-square-density", "density-dim-mismatch",
        "density-trace", "density-negative-eigenvalue", "partial-trace-keep", "no-outcomes", "no-device", "operator-cap", "float-seed", "rank-above-split"])
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
