"""The package's immutable value types behave as frozen records: value
equality and hashing over their fields, keyword construction, a
``Name(field=value, ...)`` repr, no assignment or deletion of fields, and
copies equal to the original."""

import copy
import pickle
from fractions import Fraction

import pytest

from qcontexts.coarse import LatticeElement
from qcontexts.contexts import Context, SpectralFunctional, StateOnContext, build_poset
from qcontexts.intervals import CoarseGlobalElement, IntervalAssignment, ProjectorFamily
from qcontexts.ks import CompiledProblem, SectionAssignment
from qcontexts.linalg import ValidationError
from qcontexts.scalars import QSqrt2
from qcontexts.valuations import PresheafTables

POSET = build_poset([Context.trivial(2, "exact")])


def records():
    """Per class: its field names and a builder of field values; each call
    builds equal values that are distinct objects where the type allows."""
    return [
        (LatticeElement, ("context_id", "mask"), lambda: ("c", 5)),
        (SpectralFunctional, ("context_id", "index"), lambda: ("c", 1)),
        (StateOnContext, ("context_id", "weights"),
         lambda: ("c", (Fraction(1, 2), QSqrt2(Fraction(1, 2))))),
        (IntervalAssignment, ("sets",), lambda: ({"c": 0b1},)),
        (ProjectorFamily, ("masks",), lambda: ({"c": frozenset({1, 3})},)),
        (CoarseGlobalElement, ("choices",), lambda: ({"c": 1},)),
        (CompiledProblem, ("maximal_ids", "slot_ids", "natoms", "constraints"),
         lambda: (("m",), ("s",), (2,), (((0, (0, 0)),),))),
        (SectionAssignment, ("choices",), lambda: ({"c": 0},)),
        (PresheafTables, ("poset", "weights", "truth", "images"),
         lambda: (POSET, {"c": (1,)}, {"c": [False, True]}, {})),
    ]


IDS = [cls.__name__ for cls, _, _ in records()]


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields, values", records(), ids=IDS)
def test_equal_fields_give_equal_records(cls, fields, values):
    a, b = cls(*values()), cls(*values())
    assert a == b and not a != b
    assert cls(**dict(zip(fields, values()))) == a
    # a record is hashable exactly when its fields are
    if _hashable(values()):
        assert hash(a) == hash(b) and len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls, fields, values", records(), ids=IDS)
def test_fields_read_back_and_repr(cls, fields, values):
    a = cls(*values())
    assert tuple(getattr(a, f) for f in fields) == values()
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values()))
    assert repr(a) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, values", records(), ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, values):
    a = cls(*values())
    for f, v in zip(fields, values()):
        with pytest.raises(AttributeError):
            setattr(a, f, v)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(*values())


@pytest.mark.parametrize("cls, fields, values", records(), ids=IDS)
def test_copies_are_equal(cls, fields, values):
    a = cls(*values())
    assert copy.copy(a) == a
    if cls is not PresheafTables:  # a poset compares by identity
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a


def test_records_of_different_classes_differ():
    assert LatticeElement("c", 1) != SpectralFunctional("c", 1)
    assert SpectralFunctional("c", 1) != LatticeElement("c", 1)
    choices = {"c": frozenset({1})}
    wrapped = [IntervalAssignment(choices), ProjectorFamily(choices),
               CoarseGlobalElement(choices), SectionAssignment(choices)]
    for i, x in enumerate(wrapped):
        for j, y in enumerate(wrapped):
            assert (x == y) == (i == j)


def test_records_differ_when_a_field_differs():
    assert LatticeElement("c", 1) != LatticeElement("c", 2)
    assert LatticeElement("c", 1) != LatticeElement("d", 1)
    assert IntervalAssignment({"c": 0b1}) != IntervalAssignment({"c": 0})
    assert LatticeElement("c", 1) != ("c", 1)


@pytest.mark.parametrize("weights", [
    (Fraction(3, 2), Fraction(-1, 2)),
    (-0.5, 1.5),
    (Fraction(1, 2), Fraction(1, 3)),
    (QSqrt2(Fraction(1, 2)), QSqrt2(Fraction(1, 2), Fraction(1, 10**9))),
    (0.5, 0.49),
], ids=["negative-exact", "negative-float", "exact-sum-5/6", "exact-sum-off-by-sqrt2",
        "float-sum-0.99"])
def test_state_on_context_rejects_bad_weights(weights):
    with pytest.raises(ValidationError):
        StateOnContext("c", weights)
    with pytest.raises(ValidationError):
        StateOnContext(context_id="c", weights=weights)


def test_state_on_context_accepts_weights_summing_to_one():
    StateOnContext("c", (Fraction(1, 3), Fraction(2, 3)))
    StateOnContext("c", (QSqrt2(Fraction(1, 2), Fraction(1, 4)),
                         QSqrt2(Fraction(1, 2), Fraction(-1, 4))))
    StateOnContext("c", (0.5, 0.5 + 1e-7))
    StateOnContext("c", (1, 0))
