"""The frozen records keep what ``@dataclass(frozen=True)`` gave them.

Each record below is built once; its ``repr`` is the literal string the
dataclass version printed for the same fields.
"""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from qwishart.fluctuations import LimitMoment, PolynomialStatistic
from qwishart.moments import MatrixBindings, MonomialSpec
from qwishart.montecarlo import EstimateReport, SamplerConfig
from qwishart.mp import MPCheckReport, MPCheckRow, SetPartition, SpectralMeasure
from qwishart.pairings import (
    Coloring,
    GenusComponent,
    GenusDecomposition,
    IntegerPartition,
    PairPartition,
    SignedTraversal,
    _record,
)
from qwishart.polynomials import MomentPolynomial, TraceAtom

COMPONENT = GenusComponent((0, 1), (1, 2), 0)
ROW = MPCheckRow(2, Fraction(6), Fraction(6))
SAMPLER = SamplerConfig(7, 10, (([[1.0]], [[2.0]]),))
RECORDS = {
    "PairPartition({1,-2}, {-1,2})": PairPartition(2, (3, 2, 1, 0)),
    "SignedTraversal(perm=(2, 1), signs=(1, -1))": SignedTraversal((2, 1), (1, -1)),
    "Coloring(colors=(1, 2, 1), s=2)": Coloring((1, 2, 1), 2),
    "IntegerPartition(parts=(2, 1))": IntegerPartition((2, 1)),
    "GenusComponent(cycles=(0, 1), positions=(1, 2), genus_defect=0)": COMPONENT,
    "GenusDecomposition(components=(GenusComponent(cycles=(0, 1), positions=(1, 2), "
    "genus_defect=0),))": GenusDecomposition((COMPONENT,)),
    "TraceAtom(kind='shape', word=((1, False), (2, True)))": TraceAtom(
        "shape", ((1, False), (2, True))
    ),
    "MonomialSpec(cycle_words=((1, 2), (1,)))": MonomialSpec(((1, 2), (1,))),
    "MatrixBindings(mode='scalar', shapes=('M',), scales=(Fraction(1, 2),), n_dim='N')": (
        MatrixBindings("scalar", ("M",), (Fraction(1, 2),), "N")
    ),
    "PolynomialStatistic(terms=((2, (1, 2)),))": PolynomialStatistic(
        ((MomentPolynomial.constant(2), (1, 2)),)
    ),
    "LimitMoment(value=1/3)": LimitMoment(MomentPolynomial.constant(Fraction(1, 3))),
    "SetPartition(n=3, blocks=(frozenset({1, 3}), frozenset({2})))": SetPartition(
        3, (frozenset({1, 3}), frozenset({2}))
    ),
    "SpectralMeasure(atoms=((1, Fraction(1, 2)), (4, Fraction(1, 2))))": SpectralMeasure(
        ((1, Fraction(1, 2)), (4, Fraction(1, 2)))
    ),
    "MPCheckRow(n=2, lhs=Fraction(6, 1), rhs=Fraction(6, 1))": ROW,
    "MPCheckReport(aspect_ratio=Fraction(1, 2), rows=(MPCheckRow(n=2, lhs=Fraction(6, 1), "
    "rhs=Fraction(6, 1)),))": MPCheckReport(Fraction(1, 2), (ROW,)),
    "SamplerConfig(seed=7, samples=10, colors=((array([[1.]]), array([[2.]])),))": SAMPLER,
    "EstimateReport(mean=1.5, stderr=0.25, samples=10, exact=1.0, z=2.0)": EstimateReport(
        1.5, 0.25, 10, 1.0, 2.0
    ),
}
IDS = [type(record).__name__ for record in RECORDS.values()]
params = pytest.mark.parametrize("record", RECORDS.values(), ids=IDS)


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def same(a, b) -> bool:
    """Equal records; a ``SamplerConfig`` compares by identity, so by its repr here."""
    return repr(a) == repr(b) if isinstance(a, SamplerConfig) else a == b


def test_every_record_is_listed():
    assert len(set(IDS)) == 17


@pytest.mark.parametrize("text, record", RECORDS.items(), ids=IDS)
def test_repr_is_the_dataclass_repr(text, record):
    assert repr(record) == text


@params
def test_fields_are_the_annotated_names_in_order(record):
    assert type(record).__match_args__ == tuple(type(record).__annotations__)


@params
def test_hash_and_equality(record):
    twin = type(record)(*fields(record))
    if isinstance(record, SamplerConfig):
        assert twin != record and hash(record) == object.__hash__(record)
    else:
        assert twin == record and twin is not record
        assert hash(record) == hash(fields(record))
        assert record.__eq__(fields(record)) is NotImplemented
        assert record != fields(record)


@params
def test_a_record_of_another_class_with_the_same_fields_is_unequal(record):
    cls = type(record)
    lookalike = _record(type(cls.__name__, (), {"__annotations__": dict(cls.__annotations__)}))
    other = lookalike(*fields(record))
    assert fields(other) == fields(record)
    assert other != record and record != other


def test_two_record_classes_with_equal_fields_are_unequal():
    parts, components = IntegerPartition((2, 1)), GenusDecomposition((2, 1))
    assert fields(parts) == fields(components) and hash(parts) == hash(components)
    assert parts != components and components != parts
    assert len({parts, components}) == 2


@params
def test_assignment_and_deletion_raise(record):
    name = type(record).__match_args__[0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match="^cannot assign to field 'other'$"):
        record.other = 1
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(record, name)


@params
def test_positional_and_keyword_construction(record):
    cls = type(record)
    names = cls.__match_args__
    values = fields(record)
    assert same(cls(**dict(zip(names, values))), record)
    assert same(cls(*values[:1], **dict(zip(names[1:], values[1:]))), record)
    with pytest.raises(TypeError, match="missing argument"):
        cls()
    with pytest.raises(TypeError, match="unexpected keyword argument 'other'"):
        cls(*values, other=1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'other'"):
        cls(other=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match="arguments but"):
        cls(*values, None)


def test_default_field():
    bindings = MatrixBindings("numeric", ([[1]],), ([[2]],))
    assert bindings.n_dim is None
    assert bindings == MatrixBindings("numeric", ([[1]],), ([[2]],), None)
    assert bindings == MatrixBindings(mode="numeric", scales=([[2]],), shapes=([[1]],))


def test_post_init_runs_after_the_fields_are_set():
    assert Coloring(colors=(np.int64(2),), s=np.int64(2)).colors == (2,)
    with pytest.raises(ValueError, match="colors must lie in 1..s"):
        Coloring(s=1, colors=(2,))


def test_sampler_config_compares_by_identity():
    assert SAMPLER == SAMPLER and SAMPLER != SamplerConfig(7, 10, (([[1.0]], [[2.0]]),))
    assert len({SAMPLER, SAMPLER, copy.deepcopy(SAMPLER)}) == 2


@params
@pytest.mark.parametrize("round_trip", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy])
def test_pickle_and_deepcopy_round_trips(record, round_trip):
    back = round_trip(record)
    assert type(back) is type(record) and same(back, record)
    if isinstance(record, SamplerConfig):
        assert all(np.array_equal(a, b) for a, b in zip(back._roots, record._roots))
    else:
        assert hash(back) == hash(record)
