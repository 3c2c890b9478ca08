"""The ten result classes as values: construction by position and keyword,
defaults, input checks, field-wise equality and hash, repr, immutability.

They were frozen dataclasses; each expected repr below was recorded from
the dataclass version, so the plain classes print what it printed."""

from fractions import Fraction as F

import pytest

from starkdim import (
    BarrierModel,
    DimensionParams,
    DispersionEntry,
    DispersionReport,
    EnergySeries,
    HypModel,
    LinearTailFit,
    RationalPolynomial,
    ResonancePoint,
    SymbolicEnergySeries,
    resonance,
    standard_model,
)
from starkdim.errors import (
    DomainError,
    InvalidDimension,
    InvalidL,
    OrderMismatch,
    OutOfRange,
)

_ENTRIES = tuple(DispersionEntry(n, -55.5 * n, -55.25 * n, 0.25, 401.5, 177)
                 for n in (2, 3, 4))

# (class, field names in constructor order, positional arguments, repr)
CASES = [
    (RationalPolynomial, ("coefficients",), ((F(1, 2), 0, 3, 0),),
     "RationalPolynomial(coefficients=(Fraction(1, 2), Fraction(0, 1),"
     " Fraction(3, 1)))"),
    (DimensionParams, ("alpha", "p", "e0", "ip"),
     (F(5, 2), F(3, 4), F(-8, 9), F(8, 9)),
     "DimensionParams(alpha=Fraction(5, 2), p=Fraction(3, 4),"
     " e0=Fraction(-8, 9), ip=Fraction(8, 9))"),
    (EnergySeries, ("alpha", "order", "e_coeffs", "beta_series"),
     (F(3), 1, [F(-1, 2), F(-9, 4)], [1, 36]),
     "EnergySeries(alpha=Fraction(3, 1), order=1, e_coeffs=(Fraction(-1, 2),"
     " Fraction(-9, 4)), beta_series=(1, 36))"),
    (SymbolicEnergySeries, ("order", "e_polys"),
     (1, [RationalPolynomial((1, F(-2, 3)))]),
     "SymbolicEnergySeries(order=1, e_polys=(RationalPolynomial(coefficients="
     "(Fraction(1, 1), Fraction(-2, 3))),))"),
    (HypModel, ("h1", "h2", "h3", "h4", "l", "e0", "alpha"),
     (0.5 - 0.25j, 0.5 + 0.25j, 3.0 + 0j, 1e-30 + 0j, 30.0, -0.5, 3.0),
     "HypModel(h1=(0.5-0.25j), h2=(0.5+0.25j), h3=(3+0j), h4=(1e-30+0j),"
     " l=30.0, e0=-0.5, alpha=3.0)"),
    (ResonancePoint, ("field", "energy"), (0.5, complex(-1, -0.01)),
     "ResonancePoint(field=0.5, energy=(-1-0.01j))"),
    (LinearTailFit, ("window_fraction", "field_lo", "field_hi", "slope",
                     "intercept", "r_squared", "n_points"),
     (0.3, 0.71, 1.0, 1.5, -0.25, 0.999, 30),
     "LinearTailFit(window_fraction=0.3, field_lo=0.71, field_hi=1.0,"
     " slope=1.5, intercept=-0.25, r_squared=0.999, n_points=30)"),
    (DispersionEntry, ("n", "series_value", "integral_value", "relative_error",
                       "upper_cutoff", "node_count"),
     (2, -111.0, -110.5, 0.25, 401.5, 177),
     "DispersionEntry(n=2, series_value=-111.0, integral_value=-110.5,"
     " relative_error=0.25, upper_cutoff=401.5, node_count=177)"),
    (DispersionReport, ("alpha", "entries"), (3.0, _ENTRIES),
     "DispersionReport(alpha=3.0, entries=(DispersionEntry(n=2,"
     " series_value=-111.0, integral_value=-110.5, relative_error=0.25,"
     " upper_cutoff=401.5, node_count=177), DispersionEntry(n=3,"
     " series_value=-166.5, integral_value=-165.75, relative_error=0.25,"
     " upper_cutoff=401.5, node_count=177), DispersionEntry(n=4,"
     " series_value=-222.0, integral_value=-221.0, relative_error=0.25,"
     " upper_cutoff=401.5, node_count=177)))"),
    (BarrierModel, ("p", "field", "y1", "y2", "transmittance"),
     (1.0, 0.05, 2.75, 17.5, 0.00125),
     "BarrierModel(p=1.0, field=0.05, y1=2.75, y2=17.5,"
     " transmittance=0.00125)"),
]
IDS = [case[0].__name__ for case in CASES]


def _build(case):
    cls, _, args, _ = case
    return cls(*args)


def _fields(value, names):
    return tuple(getattr(value, name) for name in names)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(case):
    cls, names, args, _ = case
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert _fields(by_keyword, names) == _fields(by_position, names)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(case):
    assert repr(_build(case)) == case[3]


def test_defaults_and_normalisation():
    series = EnergySeries(3.0, 1, [1.0, 2.0])
    assert series.beta_series == () and series.e_coeffs == (1.0, 2.0)
    assert repr(series) == ("EnergySeries(alpha=3.0, order=1,"
                            " e_coeffs=(1.0, 2.0), beta_series=())")
    assert series == EnergySeries(3.0, 1, (1.0, 2.0), ())
    assert RationalPolynomial((1, 0, 0)).coefficients == (F(1),)
    assert SymbolicEnergySeries(0, []).e_polys == ()


@pytest.mark.parametrize("cls,args,error", [
    (EnergySeries, (3.0, 2, (1.0,)), OrderMismatch),
    (SymbolicEnergySeries, (2, [RationalPolynomial((1,))]), OrderMismatch),
    (DimensionParams, (1.0, 0.0, -1.0, 1.0), InvalidDimension),
    (DimensionParams, (3.0, -1.0, -0.5, 0.5), InvalidDimension),
    (HypModel, (0.5, 0.75, 2.0, 1.0, 4.0, -0.5, 3.0), InvalidL),
    (HypModel, (0.5, 0.75, 2.0 + 1j, 1.0, 30.0, -0.5, 3.0), OutOfRange),
    (HypModel, (0.5, 0.75, 2.0, 1.0, 30.0, -0.5j, 3.0), OutOfRange),
    (HypModel, (0.5 + 1j, 0.75, 2.0, 1.0, 30.0, -0.5, 3.0), OutOfRange),
    (DispersionReport, (3.0, _ENTRIES[:2]), ValueError),
    (BarrierModel, (2.5, 0.05, 2.75, 17.5, 0.5), DomainError),
    (BarrierModel, (1.0, 0.0, 2.75, 17.5, 0.5), DomainError),
    (BarrierModel, (1.0, 0.05, 17.5, 2.75, 0.5), ValueError),
    (BarrierModel, (1.0, 0.05, 2.75, 17.5, 1.5), ValueError),
])
def test_checks_raise(cls, args, error):
    with pytest.raises(error):
        cls(*args)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_equality_is_field_wise_and_strict_about_class(case):
    cls, names, args, _ = case
    value = _build(case)
    assert value == cls(*args) and not value != cls(*args)
    assert hash(value) == hash(cls(*args))
    assert len({value, cls(*args)}) == 1
    assert value != _fields(value, names)
    for other in CASES:
        if other is not case:
            assert value != _build(other)

    class Derived(cls):
        pass

    assert Derived(*args) != value and value != Derived(*args)
    assert repr(Derived(*args)).startswith(
        "test_equality_is_field_wise_and_strict_about_class.<locals>.Derived(")


def test_one_field_apart_is_unequal():
    point = ResonancePoint(0.5, -1 - 0.01j)
    assert point != ResonancePoint(0.5, -1 - 0.02j)
    assert point != ResonancePoint(0.25, -1 - 0.01j)
    fit = LinearTailFit(0.3, 0.71, 1.0, 1.5, -0.25, 0.999, 30)
    assert fit != LinearTailFit(0.3, 0.71, 1.0, 1.5, -0.25, 0.999, 31)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(case):
    value = _build(case)
    for name in case[1]:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_kept_continuation_stays_out_of_the_value():
    """HypModel keeps its 2F1 continuation in the instance dict after the
    first field point; equality, hash and repr still see the fields only."""
    model = standard_model(3.0)
    fresh = HypModel(model.h1, model.h2, model.h3, model.h4, model.l,
                     model.e0, model.alpha)
    text, digest = repr(fresh), hash(fresh)
    resonance(fresh, 0.5)
    assert "_continuation" in vars(fresh)
    assert fresh == model and repr(fresh) == text and hash(fresh) == digest
