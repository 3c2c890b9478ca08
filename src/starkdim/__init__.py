"""Stark resonances of hydrogen-like atoms in non-integer dimension.

Exact weak-field perturbation series, hypergeometric continuation to finite
field (complex resonance energies), and semiclassical plus dispersion-based
cross-checks, with a CLI front end.
"""

from .coeffs import (
    DEFAULT_ORDER_CAP,
    DimensionParams,
    EnergySeries,
    RationalPolynomial,
    SymbolicEnergySeries,
    channel_series,
    energy_series,
    reference_factor_polynomial,
    symbolic_energy_series,
    unperturbed_params,
)
from .resum import (
    DEFAULT_L,
    STANDARD_SWEEP_RANGES,
    HypModel,
    LinearTailFit,
    ResonancePoint,
    critical_field,
    fit_model,
    fit_round_trip_residual,
    linear_tail_fit,
    model_coefficients,
    resonance,
    slope_exponent,
    standard_model,
    sweep,
)
from .specfun import complex_gamma, gauss_2f1
from .validate import (
    DispersionEntry,
    DispersionReport,
    dispersion_coefficient,
    dispersion_report,
)
from .wkb import (
    CALIBRATION_FLOOR,
    LANDAU_COMPARISON_RANGES,
    BarrierModel,
    barrier_model,
    barrier_potential,
    keldysh_exponent,
    landau_calibrated_rate,
    landau_closed_form,
    landau_log_transmittance,
    pick_calibration_reference,
    turning_points,
    wkb_exponent,
    wkb_transmittance,
    zero_field_inner_turning_point,
)

__version__ = "0.1.0"
