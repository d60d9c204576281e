"""The immutable value classes: read-only fields, their repr, equality and hashing."""

import pickle

import numpy as np
import pytest

from manyworlds.branching import BranchNode
from manyworlds.contracts import Frozen, ShapeError
from manyworlds.deterministic import WorldCountConfig
from manyworlds.hilbert import BipartiteSplit, DensityMatrix, UnitaryOperator, make_state
from manyworlds.reporting import ExperimentConfig
from manyworlds.schmidt import schmidt_decompose

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


def test_branch_node_stays_mutable():
    first, second = BranchNode(0, None, 1.0, 1.0, 0.0, 0), BranchNode(1, 0, 0.5, 0.5, 0.3, 1)
    first.weight = 0.25
    first.children.append(1)
    assert (first.weight, first.children, second.children, second.history) == (0.25, [1], [], [])
