"""Stark resonances of hydrogen-like atoms in non-integer dimension.

Exact weak-field perturbation series, hypergeometric continuation to finite
field (complex resonance energies), and semiclassical plus dispersion-based
cross-checks, with a CLI front end.

Each numeric layer is imported on first access of one of its names
(PEP 562), so ``import starkdim`` and the CLI parser compile none of them.
"""

__version__ = "0.1.0"

# defined here, where the CLI parser reads them without loading a layer:
# the highest coefficient order energy_series accepts unless asked otherwise
DEFAULT_ORDER_CAP = 20
# branch power of the continuation model unless asked otherwise
DEFAULT_L = 30.0

# the module that defines each public name
_EXPORTS = {
    "coeffs": ("DimensionParams", "EnergySeries", "RationalPolynomial",
               "SymbolicEnergySeries", "channel_series", "energy_series",
               "reference_factor_polynomial", "symbolic_energy_series",
               "unperturbed_params"),
    "resum": ("STANDARD_SWEEP_RANGES", "HypModel", "LinearTailFit",
              "ResonancePoint", "critical_field", "fit_model",
              "fit_round_trip_residual", "linear_tail_fit",
              "model_coefficients", "resonance", "slope_exponent",
              "standard_model", "sweep"),
    "specfun": ("complex_gamma", "gauss_2f1"),
    "validate": ("DispersionEntry", "DispersionReport",
                 "dispersion_coefficient", "dispersion_report"),
    "wkb": ("CALIBRATION_FLOOR", "LANDAU_COMPARISON_RANGES", "BarrierModel",
            "barrier_model", "barrier_potential", "keldysh_exponent",
            "landau_calibrated_rate", "landau_closed_form",
            "landau_log_transmittance", "turning_points", "wkb_exponent",
            "wkb_transmittance", "zero_field_inner_turning_point"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", "coeffs", "errors", "resum", "specfun", "validate", "wkb")

__all__ = ["DEFAULT_L", "DEFAULT_ORDER_CAP", *_HOME]


def __getattr__(name):
    module = name if name in _SUBMODULES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    layer = importlib.import_module(f"{__name__}.{module}")
    if module == name:
        return layer
    value = globals()[name] = getattr(layer, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
